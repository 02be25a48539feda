//===-- core/DispatchLoop.h - Dispatch and scheduling engine ----*- C++ -*-==//
///
/// \file
/// The dispatcher/scheduler engine (Sections 3.9 and 3.14), extracted from
/// the Core monolith. It owns everything between "a thread is runnable"
/// and "a translation's host code is executing":
///
///   - the scheduler (the big lock of Section 3.14: one guest thread runs
///     at a time, round-robin, 100k-block quanta) and its dispatch loop;
///   - the dispatcher fast cache and the chain-resolve thunk;
///   - hot-tier promotion and trace-formation gating (the policy decisions;
///     translation itself stays in the TranslationService);
///   - call-into-guest (the mechanism replacement and wrapping functions
///     use to run the code they replaced).
///
/// Slow-path work (signals, client requests, faults, redirects) is
/// delegated to the sibling engines; run-state flags (ProcessExited,
/// FatalSignal) and configuration stay on Core, which this engine reaches
/// through its back-reference.
///
//===----------------------------------------------------------------------===//
#ifndef VG_CORE_DISPATCHLOOP_H
#define VG_CORE_DISPATCHLOOP_H

#include "core/Core.h"

namespace vg {

class DispatchLoop {
public:
  explicit DispatchLoop(Core &C) : C(C), FastCache(FastCacheSize) {}

  /// Runs the client to completion (or until \p MaxBlocks translations
  /// have been dispatched). Ends in Core::finishRun.
  CoreExit run(uint64_t MaxBlocks);

  /// Dispatches blocks for \p TS until the quantum is spent, the process
  /// exits, a fatal signal lands, the thread stops being runnable, or the
  /// PC reaches \p StopPC (callGuest's sentinel).
  void dispatchLoop(ThreadState &TS, uint64_t &Quantum, uint32_t StopPC);

  /// Calls back into guest code from host context (replacement/wrapping).
  /// Returns the callee's r0.
  uint32_t callGuest(ThreadState &TS, uint32_t Addr,
                     const std::vector<uint32_t> &Args);

  /// Ends the running thread's quantum at the next block boundary.
  void requestYield() { YieldRequested = true; }

  /// Trace install hook: count the trace and surgically repair the fast
  /// cache's line when only the replaced tier-1 head died.
  void promotionInstalled(Translation *T, uint64_t GenBefore);

  /// The --profile report: the Profiler's phase and hot-block sections
  /// around one section per subsystem, each printed straight from the
  /// struct that owns its counters.
  void dumpProfile();

private:
  struct FastCacheEntry {
    uint32_t Addr = ~0u;
    Translation *T = nullptr;
  };
  static constexpr size_t FastCacheSize = 1u << 13; // direct-mapped

  Translation *findOrTranslate(uint32_t PC);
  /// Hot-tier promotion: retranslate \p PC as a superblock, stalling the
  /// guest. Replaces the old translation (predecessor chain slots relink
  /// eagerly via TransTab).
  Translation *promoteHot(uint32_t PC);
  /// Walks the chain graph from \p Head picking the dominant successor at
  /// each step. Returns a spec with fewer than 2 entries when no biased
  /// path exists (caller backs off via TraceRetryAt).
  TraceSpec selectTracePath(Translation *Head);
  /// Block-boundary fault injection (sigstorm / ttflush). Called at the
  /// top of the dispatch loop.
  void injectBoundaryFaults(ThreadState &TS);

  /// The entry count at which \p T moves up a tier: the hot threshold at
  /// tier 0 under --hot-threshold, the trace threshold (or the later
  /// TraceRetryAt) at tier 1 under --trace-tier with chaining, else never
  /// (hvm::NoCheckPoint). The dispatcher promotes there, and the thunk
  /// bounces a chained entry that reaches it back to the dispatcher.
  uint64_t promoteAt(const Translation &T) const;

  /// The entry count at which a chained entry into \p T must call back
  /// into chainResolveThunk (hvm::CodeBlob::CheckPoint): where the thunk
  /// would bounce it to the dispatcher (hot promotion at tier 0, trace
  /// formation at tier 1), or at once where every transfer needs the
  /// thunk's bookkeeping (a trace, or --profile). Set when a translation
  /// is made and wherever TraceRetryAt changes; a value below the true one
  /// would only cost extra calls, never change a count.
  uint64_t checkPoint(const Translation &T) const;

  /// The executor's check-point callback (hvm::ChainResolveFn).
  static hvm::CodeBlob *chainResolveThunk(void *User, void *Cookie,
                                          uint32_t Slot);

  Core &C;

  bool YieldRequested = false;

  std::vector<FastCacheEntry> FastCache;
  uint64_t FastCacheGen = 0;

  /// Sentinel return address used by callGuest.
  static constexpr uint32_t ReturnSentinel = 0xFFFF0000;
};

} // namespace vg

#endif // VG_CORE_DISPATCHLOOP_H
