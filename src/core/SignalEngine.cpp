//===-- core/SignalEngine.cpp - Signal queueing and delivery --------------==//

#include "core/SignalEngine.h"

#include "core/Core.h"

#include <cstdio>

using namespace vg;
using namespace vg::vg1;

void SignalEngine::setHandler(int Sig, uint32_t Handler) {
  if (Sig >= 0 && Sig < 64)
    SigHandlers[Sig] = Handler;
}

uint32_t SignalEngine::handler(int Sig) const {
  return (Sig >= 0 && Sig < 64) ? SigHandlers[Sig] : 0;
}

bool SignalEngine::raise(int Tid, int Sig) {
  if (Sig <= 0 || Sig >= 64)
    return false;
  if (Tid < 0 || Tid >= Core::MaxThreads ||
      C.Threads[Tid].Status != ThreadStatus::Runnable) {
    // Exited/empty target: the signal has nowhere to go. Reject it rather
    // than queueing into a dead slot a future thread would inherit.
    ++C.Stats.SignalsDropped;
    C.trace(Tid, TraceEvent::SigDrop, static_cast<uint32_t>(Sig),
            static_cast<uint32_t>(Tid), SigDropBadTarget);
    return false;
  }
  ThreadState &TS = C.Threads[Tid];
  // Coalesce duplicates, like non-queued POSIX signals: a signal already
  // pending absorbs the new raise (which still succeeds).
  for (int P : TS.PendingSignals) {
    if (P == Sig) {
      ++C.Stats.SignalsDropped;
      C.trace(Tid, TraceEvent::SigDrop, static_cast<uint32_t>(Sig),
              static_cast<uint32_t>(Tid), SigDropCoalesced);
      return true;
    }
  }
  TS.PendingSignals.push_back(Sig);
  C.trace(Tid, TraceEvent::SigQueue, static_cast<uint32_t>(Sig),
          static_cast<uint32_t>(Tid));
  return true;
}

bool SignalEngine::deliverPending(ThreadState &TS) {
  if (TS.PendingSignals.empty())
    return false;
  // Deliver the first *unmasked* pending signal. A signal whose handler is
  // already on the frame stack stays queued until that handler's sigreturn
  // clears the mask bit — handlers are never re-entered.
  for (size_t I = 0; I != TS.PendingSignals.size(); ++I) {
    int Sig = TS.PendingSignals[I];
    if (TS.signalMasked(Sig))
      continue;
    TS.PendingSignals.erase(TS.PendingSignals.begin() +
                            static_cast<long>(I));
    if (SigHandlers[Sig] == 0) {
      C.trace(TS.Tid, TraceEvent::SigFatal, static_cast<uint32_t>(Sig));
      C.FatalSignal = Sig; // default action: terminate
      return true;
    }
    deliver(TS, Sig);
    return true;
  }
  return false;
}

void SignalEngine::deliver(ThreadState &TS, int Sig) {
  ++C.Stats.SignalsDelivered;
  // Save the full guest context; sigreturn restores it. gso::TotalSize
  // spans the guest registers, the shadow registers, and the CC thunk, so
  // a tool's shadow state survives the handler unchanged. Delivery happens
  // only between code blocks, so loads/stores are never separated from
  // their shadow counterparts (Section 3.15).
  TS.SignalFrames.push_back(
      {std::vector<uint8_t>(TS.Guest, TS.Guest + gso::TotalSize), Sig});
  TS.SigMask |= 1ull << Sig;
  // The handler is called with the signal number in r1 and returns to the
  // sigreturn trampoline.
  const uint32_t Arg[] = {static_cast<uint32_t>(Sig)};
  C.enterGuest(TS, SigHandlers[Sig], AddressSpace::CoreBase, Arg);
  C.trace(TS.Tid, TraceEvent::SigDeliver, static_cast<uint32_t>(Sig),
          SigHandlers[Sig]);
}

void SignalEngine::handleFault(ThreadState &TS, uint32_t FaultPC,
                               uint32_t FaultAddr, bool Write, int Sig) {
  TS.setPCVal(FaultPC);
  // A handler whose signal is masked (it is itself running) does not get
  // re-entered: a handler that faults the same way it was invoked for
  // terminates instead of recursing forever.
  if (Sig >= 0 && Sig < 64 && SigHandlers[Sig] && !TS.signalMasked(Sig)) {
    deliver(TS, Sig);
    return;
  }
  C.Out.printf("vg: fatal signal %d at pc=0x%08X (%s address 0x%08X)\n", Sig,
               FaultPC, Write ? "writing" : "reading", FaultAddr);
  C.trace(TS.Tid, TraceEvent::SigFatal, static_cast<uint32_t>(Sig));
  C.FatalSignal = Sig;
}

void SignalEngine::sigreturn(int Tid) {
  ThreadState &TS = C.Threads[Tid];
  if (TS.SignalFrames.empty()) {
    // Stray sigreturn: the client re-entered the core's trampoline (or
    // issued the raw syscall) with no delivery in flight. With signals
    // still pending this is a real delivery bug, so report it instead of
    // silently ignoring it.
    char Msg[96];
    std::snprintf(Msg, sizeof(Msg),
                  "sigreturn with no signal frame (%u signal(s) pending)",
                  static_cast<unsigned>(TS.PendingSignals.size()));
    C.Errors.record("StraySigreturn", Msg, TS.getPC(),
                    C.captureStackTrace(TS));
    return;
  }
  ThreadState::SignalFrame &F = TS.SignalFrames.back();
  TS.SigMask &= ~(1ull << F.Sig);
  std::copy(F.Guest.begin(), F.Guest.end(), TS.Guest);
  TS.SignalFrames.pop_back();
  C.trace(Tid, TraceEvent::SigReturn, TS.getPC());
}

void SignalEngine::threadExiting(ThreadState &TS) {
  // Signals queued at a dying thread die with it (they were addressed to
  // this thread, and the slot may be reused by a future spawn).
  C.Stats.SignalsDropped += TS.PendingSignals.size();
  for (int Sig : TS.PendingSignals)
    C.trace(TS.Tid, TraceEvent::SigDrop, static_cast<uint32_t>(Sig),
            static_cast<uint32_t>(TS.Tid), SigDropThreadExit);
  TS.PendingSignals.clear();
  TS.SignalFrames.clear();
  TS.SigMask = 0;
}
