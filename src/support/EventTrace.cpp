//===-- support/EventTrace.cpp - Scheduler/signal/event tracing -----------==//

#include "support/EventTrace.h"

#include "support/Output.h"

#include <cstdio>

using namespace vg;

const char *vg::traceEventName(TraceEvent E) {
  static const char *const Names[] = {
#define VG_TRACE_EVENT_NAME(Name, Str, ...) Str,
      VG_TRACE_EVENTS(VG_TRACE_EVENT_NAME)
#undef VG_TRACE_EVENT_NAME
  };
  unsigned I = static_cast<unsigned>(E);
  return I < NumTraceEvents ? Names[I] : "?";
}

EventTracer::EventTracer(size_t Capacity) {
  Ring.resize(Capacity ? Capacity : 1);
}

void EventTracer::record(int Tid, TraceEvent E, uint32_t A, uint32_t B,
                         uint32_t C) {
  Record &R = Ring[Recorded % Ring.size()];
  R.Block = Clock ? *Clock : 0;
  R.Tid = Tid;
  R.E = E;
  R.A = A;
  R.B = B;
  R.C = C;
  ++Recorded;
  ++Counts[static_cast<unsigned>(E)];
}

std::string EventTracer::serialize() const {
  std::string S;
  char Line[160];
  std::snprintf(Line, sizeof(Line),
                "=== event trace (records=%llu dropped=%llu) ===\n",
                static_cast<unsigned long long>(Recorded),
                static_cast<unsigned long long>(dropped()));
  S += Line;

  uint64_t Kept = Recorded < Ring.size() ? Recorded : Ring.size();
  uint64_t First = Recorded - Kept;
  for (uint64_t I = 0; I != Kept; ++I) {
    const Record &R = Ring[(First + I) % Ring.size()];
    std::snprintf(Line, sizeof(Line),
                  "@%010llu t%d %s a=0x%x b=0x%x c=0x%x\n",
                  static_cast<unsigned long long>(R.Block), R.Tid,
                  traceEventName(R.E), R.A, R.B, R.C);
    S += Line;
  }

  S += "--- event counts ---\n";
  for (unsigned I = 0; I != NumTraceEvents; ++I) {
    if (Counts[I] == 0)
      continue;
    std::snprintf(Line, sizeof(Line), "%-20s %llu\n",
                  traceEventName(static_cast<TraceEvent>(I)),
                  static_cast<unsigned long long>(Counts[I]));
    S += Line;
  }
  S += "=== end event trace ===\n";
  return S;
}

void EventTracer::dump(OutputSink &Out) const { Out.write(serialize()); }
