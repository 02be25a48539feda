//===-- core/SignalEngine.h - Signal queueing and delivery ------*- C++ -*-==//
///
/// \file
/// The signal layer of Section 3.15, extracted from the Core monolith:
/// handler registration, queueing (with POSIX-style coalescing), masking,
/// frame save/restore around handler invocation, and the fatal default
/// action. Signals are only ever delivered between code blocks — the
/// dispatch engines call deliverPending() at the top of every dispatch
/// iteration — so loads/stores are never separated from their shadow
/// counterparts.
///
/// The engine owns the handler table and nothing else; thread state
/// (pending queues, frames, masks) lives in each ThreadState, and fatal
/// outcomes are published through Core's run-state flags.
///
//===----------------------------------------------------------------------===//
#ifndef VG_CORE_SIGNALENGINE_H
#define VG_CORE_SIGNALENGINE_H

#include <array>
#include <cstdint>

namespace vg {

class Core;
class ThreadState;

class SignalEngine {
public:
  explicit SignalEngine(Core &C) : C(C) {}

  /// Handler registration (the sigaction surface of the simulated kernel).
  void setHandler(int Sig, uint32_t Handler);
  uint32_t handler(int Sig) const;
  /// The raw handler table (fault injection picks a random installed
  /// handler for its signal storms).
  const std::array<uint32_t, 64> &handlers() const { return SigHandlers; }

  /// Queues \p Sig at thread \p Tid (coalescing duplicates). Returns false
  /// when the target cannot take it (bad/exited thread).
  bool raise(int Tid, int Sig);

  /// Delivers the first unmasked pending signal of \p TS, if any. Returns
  /// true when delivery (or the fatal default action) consumed the
  /// boundary — the caller redispatches.
  bool deliverPending(ThreadState &TS);

  /// Pushes a signal frame and enters the handler for \p Sig.
  void deliver(ThreadState &TS, int Sig);

  /// A hardware-style fault at \p FaultPC: route to the handler for \p Sig
  /// or terminate the run.
  void handleFault(ThreadState &TS, uint32_t FaultPC, uint32_t FaultAddr,
                   bool Write, int Sig);

  /// Pops the current signal frame (the sigreturn syscall).
  void sigreturn(int Tid);

  /// Drops (and accounts for) everything still queued at a dying thread.
  void threadExiting(ThreadState &TS);

private:
  Core &C;
  std::array<uint32_t, 64> SigHandlers{}; // 0 = default action
};

} // namespace vg

#endif // VG_CORE_SIGNALENGINE_H
