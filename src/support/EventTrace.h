//===-- support/EventTrace.h - Scheduler/signal/event tracing ---*- C++ -*-==//
///
/// \file
/// The --trace-events ring buffer: a fixed-capacity record of everything
/// interesting the core and simulated kernel do — every Table-1 event,
/// syscall entry/exit, signal queue/deliver/sigreturn, thread switches,
/// and injected faults — timestamped with the global dispatched-block
/// counter (never wall-clock time, so a seeded run serialises to a
/// byte-identical dump on replay). When the buffer fills, the oldest
/// records are overwritten and counted as dropped; the per-category
/// counters keep the full totals either way. The serialized dump is
/// bracketed by stable markers so a soak harness can extract and diff it.
///
//===----------------------------------------------------------------------===//
#ifndef VG_SUPPORT_EVENTTRACE_H
#define VG_SUPPORT_EVENTTRACE_H

#include "support/HubEvents.h"

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace vg {

class OutputSink;

/// Everything the tracer can record, with the stable short name the dump
/// uses: the hub's events (VG_HUB_EVENTS, recorded through recordHub),
/// around the scheduler/signal transitions the hub has no callback for.
#define VG_TRACE_EVENTS(X)                                                    \
  VG_HUB_EVENTS_MAIN(X)                                                       \
  /* Signal machinery. */                                                     \
  X(SigQueue, "sig-queue")     /* A = signal, B = target tid */               \
  X(SigDrop, "sig-drop")       /* ... C = reason (SigDropReason) */           \
  X(SigDeliver, "sig-deliver") /* A = signal, B = handler PC */               \
  X(SigReturn, "sig-return")   /* A = restored PC */                          \
  X(SigFatal, "sig-fatal")     /* A = signal */                               \
  /* Scheduler. */                                                            \
  X(ThreadSwitch, "thread-switch") /* A = from tid, B = to tid */             \
  X(ThreadExit, "thread-exit")     /* A = exit code */                        \
  VG_HUB_EVENTS_FAULT(X)

enum class TraceEvent : uint8_t {
#define VG_TRACE_EVENT_ENUM(Name, ...) Name,
  VG_TRACE_EVENTS(VG_TRACE_EVENT_ENUM)
#undef VG_TRACE_EVENT_ENUM
  NumEvents
};

constexpr unsigned NumTraceEvents = static_cast<unsigned>(TraceEvent::NumEvents);

/// Stable short name used in the dump ("sig-deliver", "thread-switch", ...).
const char *traceEventName(TraceEvent E);

/// Why a SigDrop happened (the C argument of that record).
enum SigDropReason : uint32_t {
  SigDropBadTarget = 0,  ///< no such thread / thread not runnable
  SigDropCoalesced = 1,  ///< identical signal already pending
  SigDropThreadExit = 2, ///< target thread exited with it still queued
};

/// The fixed-capacity event recorder. All state is deterministic: the
/// timestamp source is an external uint64 counter (the core's dispatched
/// block count) read at record() time.
class EventTracer {
public:
  explicit EventTracer(size_t Capacity);

  /// Points the tracer at the block counter used for timestamps. Records
  /// made before this is called carry timestamp 0.
  void setClock(const uint64_t *Counter) { Clock = Counter; }

  void record(int Tid, TraceEvent E, uint32_t A = 0, uint32_t B = 0,
              uint32_t C = 0);

  /// Records hub event \p E from its callback's arguments: a leading int
  /// is the thread id (0 when the callback has none), and the integer
  /// arguments after it, in order, are A, B and C. Names (const char *)
  /// are not recorded.
  template <typename First, typename... Rest>
  void recordHub(TraceEvent E, First F, Rest... R) {
    static_assert((std::is_integral_v<First> + ... +
                   std::is_integral_v<Rest>) <= 3 + std::is_same_v<First, int>,
                  "a trace record holds three arguments after the thread id");
    uint32_t V[3] = {};
    unsigned N = 0;
    auto Add = [&](auto X) {
      if constexpr (std::is_integral_v<decltype(X)>)
        V[N++] = static_cast<uint32_t>(X);
    };
    int Tid = 0;
    if constexpr (std::is_same_v<First, int>)
      Tid = F;
    else
      Add(F);
    (Add(R), ...);
    record(Tid, E, V[0], V[1], V[2]);
  }

  // --- counters ----------------------------------------------------------
  uint64_t recorded() const { return Recorded; }
  uint64_t dropped() const {
    return Recorded > Ring.size() ? Recorded - Ring.size() : 0;
  }
  uint64_t count(TraceEvent E) const {
    return Counts[static_cast<unsigned>(E)];
  }
  size_t capacity() const { return Ring.size(); }

  /// Renders the retained records (oldest first) between stable markers:
  ///   === event trace (records=R dropped=D) ===
  ///   ...
  ///   === end event trace ===
  std::string serialize() const;

  /// serialize() into \p Out.
  void dump(OutputSink &Out) const;

private:
  struct Record {
    uint64_t Block;
    int32_t Tid;
    TraceEvent E;
    uint32_t A, B, C;
  };

  const uint64_t *Clock = nullptr;
  std::vector<Record> Ring;
  uint64_t Recorded = 0; ///< total record() calls; ring keeps the tail
  uint64_t Counts[NumTraceEvents] = {};
};

} // namespace vg

#endif // VG_SUPPORT_EVENTTRACE_H
