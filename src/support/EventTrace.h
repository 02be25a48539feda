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

#include <cstdint>
#include <string>
#include <vector>

namespace vg {

class OutputSink;

/// Everything the tracer can record. The first block mirrors EventHub
/// (Table 1 plus the extension events); the rest are scheduler/signal
/// transitions the hub has no callback for.
enum class TraceEvent : uint8_t {
  // Table-1 / EventHub events.
  PreRegRead,
  PostRegWrite,
  PreMemRead,
  PreMemReadAsciiz,
  PreMemWrite,
  PostMemWrite,
  NewMemStartup,
  NewMemMmap,
  DieMemMunmap,
  NewMemBrk,
  DieMemBrk,
  CopyMemMremap,
  NewMemStack,
  DieMemStack,
  PostFileRead,
  // Syscall boundary.
  SyscallEnter, ///< A = syscall number
  SyscallExit,  ///< A = syscall number, B = result
  // Signal machinery.
  SigQueue,   ///< A = signal, B = target tid
  SigDrop,    ///< A = signal, B = target tid, C = reason (SigDropReason)
  SigDeliver, ///< A = signal, B = handler PC
  SigReturn,  ///< A = restored PC
  SigFatal,   ///< A = signal
  // Scheduler.
  ThreadSwitch, ///< A = from tid, B = to tid
  ThreadExit,   ///< A = exit code
  // Fault injection.
  FaultInjected, ///< A = FaultKind, B = site-specific argument
  NumEvents
};

constexpr unsigned NumTraceEvents = static_cast<unsigned>(TraceEvent::NumEvents);

/// Stable short name used in the dump ("sig-deliver", "syscall-enter", ...).
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
