//===-- core/DispatchLoop.cpp - Dispatch and scheduling engine ------------==//

#include "core/DispatchLoop.h"

#include "core/ClientRequestEngine.h"
#include "core/RedirectEngine.h"
#include "core/SignalEngine.h"
#include "shadow/ShadowMemory.h"
#include "support/Hashing.h"

#include <algorithm>

using namespace vg;
using namespace vg::vg1;

//===----------------------------------------------------------------------===//
// Translation lookup, promotion, and trace formation
//===----------------------------------------------------------------------===//

Translation *DispatchLoop::findOrTranslate(uint32_t PC) {
  FastCacheEntry &E = FastCache[hashAddr(PC) & (FastCacheSize - 1)];
  if (E.Addr == PC && E.T && FastCacheGen == C.TT.generation()) {
    ++C.Stats.FastCacheHits;
    // The table was bypassed, but the lookup still logically happened:
    // fold it into the table's statistics so hit rates stay honest.
    C.TT.countFastHit();
    return E.T;
  }
  ++C.Stats.FastCacheMisses;
  Translation *T = C.TT.lookup(PC);
  if (!T) {
    T = C.XS->translateSync(PC, /*Hot=*/false);
    T->Blob.CheckPoint = checkPoint(*T);
  }
  fillFastCache(T);
  return T;
}

void DispatchLoop::fillFastCache(Translation *T) {
  if (FastCacheGen != C.TT.generation()) {
    // A translation died since the cache was last known live: any line
    // may dangle, so wipe them all.
    std::fill(FastCache.begin(), FastCache.end(), FastCacheEntry{});
    FastCacheGen = C.TT.generation();
  }
  FastCache[hashAddr(T->Addr) & (FastCacheSize - 1)] =
      FastCacheEntry{T->Addr, T};
}

Translation *DispatchLoop::promote(Translation *T) {
  uint64_t GenBefore = C.TT.generation();
  Translation *NT = nullptr;
  if (T->Tier == 0) {
    // Tier 1: retranslate as a branch-chasing superblock.
    NT = C.XS->translateSync(T->Addr, /*Hot=*/true);
  } else if (TraceSpec Spec = selectTracePath(T); Spec.Entries.size() >= 2) {
    // Tier 2: stitch the superblock's dominant path into one trace.
    NT = C.XS->translateSync(T->Addr, /*Hot=*/true, &Spec);
  }
  if (!NT) {
    // No dominant successor (the chain graph is unbiased at the head) or
    // spill overflow: back off exponentially rather than re-walking the
    // graph every entry.
    T->TraceRetryAt = T->Blob.ExecCount * 2;
    T->Blob.CheckPoint = checkPoint(*T);
    return T;
  }
  // The insert replaced T (which is gone): its predecessors' chain slots
  // were re-parked and relink to NT at once (TransTab's eager waiter
  // resolution), so the hot path re-forms without dispatcher round trips.
  ++(NT->Tier == 1 ? C.Stats.HotPromotions : C.Stats.TracesFormed);
  NT->Blob.CheckPoint = checkPoint(*NT);
  if (C.TT.generation() == GenBefore + 1) {
    // Only the replaced translation died: repair its line instead of
    // letting the next lookup wipe the whole cache (every other line
    // still points at live memory). A bigger jump (an eviction run)
    // leaves the cache stale for that wipe.
    FastCacheGen = C.TT.generation();
    fillFastCache(NT);
  }
  return NT;
}

TraceSpec DispatchLoop::selectTracePath(Translation *Head) {
  // Greedy walk over filled chain slots: at each constituent take the
  // most-traversed outgoing edge, but only while that edge is strongly
  // biased — taken on at least 3/4 of the block's executions. Anything
  // weaker and the guarded side exit replacing the branch would fire
  // constantly, making the trace a net loss. EdgeExecs (not the
  // successor's ExecCount) is the evidence: a successor with other hot
  // predecessors has a large ExecCount even when *this* edge is cold.
  TraceSpec Spec;
  Spec.Entries.push_back(Head->Addr);
  Translation *Cur = Head;
  while (Spec.Entries.size() < C.TraceMaxBlocks) {
    Translation *Best = nullptr;
    uint64_t BestEdge = 0;
    for (uint32_t I = 0; I != Cur->Blob.Chain.size(); ++I) {
      Translation *Succ = Cur->succ(I);
      uint64_t Edge = Cur->Blob.EdgeExecs[I];
      if (Succ && Succ->Tier == 1 && Edge > BestEdge) {
        Best = Succ;
        BestEdge = Edge;
      }
    }
    if (!Best || BestEdge * 4 < Cur->Blob.ExecCount * 3)
      break;
    auto It = std::find(Spec.Entries.begin(), Spec.Entries.end(),
                        Best->Addr);
    if (It != Spec.Entries.end()) {
      // Loop closure. A back-edge to the head is the ideal ending: prefer
      // it as the final target so the installed trace chains to itself.
      if (It == Spec.Entries.begin())
        Spec.PreferredFinal = Head->Addr;
      break;
    }
    Spec.Entries.push_back(Best->Addr);
    Cur = Best;
  }
  return Spec;
}

uint64_t DispatchLoop::promoteAt(const Translation &T) const {
  if (T.Tier == 0 && C.HotThreshold)
    return C.HotThreshold;
  if (T.Tier == 1 && C.TraceTier && C.ChainingEnabled)
    return std::max(C.effTraceThreshold(), T.TraceRetryAt);
  return hvm::NoCheckPoint;
}

uint64_t DispatchLoop::checkPoint(const Translation &T) const {
  // A trace's exits count side exits and its entries count TraceExecs, and
  // --profile counts every entry: those transfers all go through the thunk.
  return C.Prof || T.Tier == 2 ? 0 : promoteAt(T);
}

hvm::CodeBlob *DispatchLoop::chainResolveThunk(void *User, void *Cookie,
                                               uint32_t Slot) {
  DispatchLoop *D = static_cast<DispatchLoop *>(User);
  Core &C = D->C;
  auto *T = static_cast<Translation *>(Cookie);
  // Side-exit accounting: a tier-2 exit through any slot other than the
  // terminal one means a guarded speculation failed and the trace bailed
  // to a constituent. (Counted here because with chaining on — a trace-
  // formation precondition — every constant Boring exit of a trace calls
  // back whether or not the slot is filled: its check point is 0.)
  if (T->Tier == 2 && Slot != T->Blob.TerminalChainSlot)
    ++C.Stats.TraceSideExits;
  Translation *Succ = T->succ(Slot);
  if (!Succ)
    return nullptr;
  // Hotness accounting happens here too, or chained loops would never
  // cross the threshold. A successor about to go hot bounces back to the
  // dispatcher, which performs the promotion (retranslation must not run
  // while the executor is inside the chain). The same bounce serves trace
  // formation: a tier-1 successor crossing the trace threshold returns to
  // the dispatcher, which selects the path and stitches there — never from
  // inside a chain. TraceRetryAt keeps a head whose chain graph proved
  // unbiased from bouncing every transfer.
  uint64_t Execs = Succ->Blob.ExecCount + 1;
  if (Execs >= D->promoteAt(*Succ)) {
    // The successor is known — the bounce exists only to run the promotion
    // from dispatcher context. Prefill its fast-cache line so the bounced
    // dispatch doesn't pay a table lookup for a block we are holding.
    if (D->FastCacheGen == C.TT.generation())
      D->fillFastCache(Succ);
    return nullptr;
  }
  Succ->Blob.ExecCount = Execs;
  ++T->Blob.EdgeExecs[Slot];
  if (Succ->Tier == 2)
    ++C.Stats.TraceExecs;
  if (C.Prof)
    C.Prof->noteExec(Succ->Addr);
  return &Succ->Blob;
}

//===----------------------------------------------------------------------===//
// The dispatcher/scheduler (Section 3.9/3.14)
//===----------------------------------------------------------------------===//

void DispatchLoop::dispatchLoop(ThreadState &TS, uint64_t &Quantum,
                                uint32_t StopPC) {
  ExecContext Ctx;
  Ctx.GuestState = TS.Guest;
  Ctx.Mem = &C.Memory;
  Ctx.Core = &C;
  Ctx.Tool = C.ToolPlugin;
  Ctx.ShadowSM = C.ToolPlugin ? C.ToolPlugin->shadowMap() : nullptr;
  Ctx.Tid = TS.Tid;
  hvm::Executor Exec(Ctx, gso::PC);
  if (C.ChainingEnabled)
    Exec.setChaining(&chainResolveThunk, this);

  // The previous run's Boring exit, so the edge it took through the
  // dispatcher (not chained, or bounced at a check point) is counted in
  // its EdgeExecs. The table links every slot eagerly (TransTab::insert);
  // LastGen guards against the cookie dangling after an eviction.
  void *LastCookie = nullptr;
  uint32_t LastSlot = ~0u;
  uint64_t LastGen = 0;

  while (Quantum > 0 && !C.ProcessExited && !C.FatalSignal &&
         TS.Status == ThreadStatus::Runnable && !YieldRequested) {
    if (C.Faults)
      injectBoundaryFaults(TS);
    if (C.Signals->deliverPending(TS)) {
      // A delivery consumes one slice of the quantum on top of the
      // handler's own blocks (counted by Exec.run like any others), so a
      // signal storm cannot starve the other threads.
      Quantum -= std::min<uint64_t>(Quantum, 1);
      continue; // PC changed; redispatch
    }

    uint32_t PC = TS.getPC();
    if (PC == StopPC)
      return;

    // Function redirection (Section 3.13).
    if (const uint32_t *GR = C.Redirects->guestTarget(PC)) {
      TS.setPCVal(*GR);
      continue;
    }
    if (const HostReplacementFn *HR = C.Redirects->hostReplacement(PC)) {
      ++C.Stats.HostRedirectCalls;
      (*HR)(C, TS);
      // Perform the guest return: pop the address CALL pushed.
      uint32_t SP = TS.gpr(RegSP);
      uint32_t Ret = 0;
      if (C.Memory.read(SP, &Ret, 4, /*IgnorePerms=*/true).Faulted) {
        C.Signals->handleFault(TS, PC, SP, false, SigSEGV);
        continue;
      }
      TS.setGpr(RegSP, SP + 4);
      TS.setPCVal(Ret);
      LastCookie = nullptr;
      continue;
    }

    Translation *T = findOrTranslate(PC);

    // A dispatcher-mediated traversal of the previous exit's edge is
    // edge-profile evidence just like a chained one. Safe only if no
    // eviction ran since the exit (the cookie would dangle), and only for
    // the exit's own constant target (a guest redirect may have rewritten
    // the PC we dispatched).
    if (C.ChainingEnabled && LastCookie && LastSlot != ~0u &&
        C.TT.generation() == LastGen) {
      auto *Prev = static_cast<Translation *>(LastCookie);
      if (LastSlot < Prev->Blob.ChainTargets.size() &&
          Prev->Blob.ChainTargets[LastSlot] == PC)
        ++Prev->Blob.EdgeExecs[LastSlot];
    }
    LastCookie = nullptr;
    LastSlot = ~0u;

    // Entry accounting, and the one way up the tiers: a block that has
    // proven itself moves up a tier here, at a dispatcher entry, never
    // inside a chain, where an install could free code being executed. A
    // trace needs chaining (the chain graph is both its evidence and its
    // profit mechanism); promoteAt says when.
    uint64_t Execs = ++T->Blob.ExecCount;
    if (T->Tier == 2)
      ++C.Stats.TraceExecs;
    if (C.Prof)
      C.Prof->noteExec(PC);
    if (Execs >= promoteAt(*T))
      T = promote(T);

    // The chain budget is Quantum - 1 (this dispatch itself is one block);
    // guard the subtraction — delivery charges above can leave the quantum
    // at 0 exactly when a continue re-entered the loop through a path that
    // does not re-test it.
    uint64_t ChainBudget =
        (C.ChainingEnabled && Quantum > 0) ? Quantum - 1 : 0;
    hvm::RunOutcome O = Exec.run(T->Blob, ChainBudget);
    C.Stats.BlocksDispatched += O.BlocksExecuted;
    C.Stats.ChainedTransfers += O.BlocksExecuted - 1;
    Quantum -= std::min<uint64_t>(Quantum, O.BlocksExecuted);

    if (O.K == hvm::RunOutcome::Kind::Fault) {
      C.Signals->handleFault(TS, O.FaultPC, O.FaultAddr, O.FaultWrite,
                             SigSEGV);
      continue;
    }

    switch (O.JK) {
    case ir::JumpKind::Boring:
      LastCookie = O.ExitCookie;
      LastSlot = O.ExitSlot;
      LastGen = C.TT.generation();
      continue;
    case ir::JumpKind::Call:
    case ir::JumpKind::Ret:
      continue;
    case ir::JumpKind::Syscall: {
      SimKernel::Action A = C.Kernel->onSyscall(TS);
      if (A == SimKernel::Action::Exit) {
        C.ProcessExited = true;
        C.ProcessExitCode = C.Kernel->exitCode();
      }
      continue;
    }
    case ir::JumpKind::ClientReq:
      C.ClReqs->handle(TS);
      continue;
    case ir::JumpKind::Yield:
      Quantum = 0;
      continue;
    case ir::JumpKind::Exit:
      C.ProcessExited = true;
      continue;
    case ir::JumpKind::NoDecode:
      C.Signals->handleFault(TS, O.NextPC, O.NextPC, false, SigILL);
      continue;
    case ir::JumpKind::SmcFail: {
      // Stale translation: throw it (and anything else over those bytes)
      // away and retranslate. PC is unchanged.
      ++C.Stats.SmcRetranslations;
      for (auto [Lo, Hi] : T->Extents)
        C.XS->invalidate(Lo, Hi - Lo);
      continue;
    }
    case ir::JumpKind::SigSEGV:
      C.Signals->handleFault(TS, O.NextPC, O.NextPC, false, SigSEGV);
      continue;
    }
  }
}

void DispatchLoop::injectBoundaryFaults(ThreadState &TS) {
  // Signal storm: queue one of the signals the client installed a handler
  // for, as if another process had just kill()ed us at this block boundary.
  if (C.Faults->roll(FaultKind::SigStorm)) {
    const std::array<uint32_t, 64> &Handlers = C.Signals->handlers();
    int Installed[64];
    int Count = 0;
    for (int S = 1; S < 64; ++S)
      if (Handlers[S])
        Installed[Count++] = S;
    if (Count) {
      int Sig = Installed[C.Faults->pick(static_cast<uint32_t>(Count))];
      C.Events.fire<&EventHub::FaultInjected>(
          TS.Tid, static_cast<uint32_t>(FaultKind::SigStorm),
          static_cast<uint32_t>(Sig));
      C.Signals->raise(TS.Tid, Sig);
    }
  }
  // Translation-table flush pressure: everything retranslates from here.
  if (C.Faults->roll(FaultKind::TTFlush)) {
    C.Events.fire<&EventHub::FaultInjected>(
        TS.Tid, static_cast<uint32_t>(FaultKind::TTFlush), 0u);
    // Whole-space flush. Not invalidate(0, 0xFFFFFFFFu): a 32-bit length
    // cannot express the full 4GB and left translations covering the final
    // guest byte alive.
    C.XS->invalidateAll();
  }
}

CoreExit DispatchLoop::run(uint64_t MaxBlocks) {
  while (!C.ProcessExited && !C.FatalSignal && C.liveThreads() > 0 &&
         C.Stats.BlocksDispatched < MaxBlocks) {
    // Round-robin thread choice (the serialised big lock of Section 3.14:
    // exactly one thread ever runs).
    int Next = -1;
    for (int I = 1; I <= Core::MaxThreads; ++I) {
      int Cand = (C.CurTid + I) % Core::MaxThreads;
      if (C.Threads[Cand].Status == ThreadStatus::Runnable) {
        Next = Cand;
        break;
      }
    }
    if (Next < 0)
      break;
    if (Next != C.CurTid) {
      ++C.Stats.ThreadSwitches;
      C.trace(Next, TraceEvent::ThreadSwitch, static_cast<uint32_t>(C.CurTid),
              static_cast<uint32_t>(Next));
    }
    C.CurTid = Next;
    YieldRequested = false;
    uint64_t Quantum = std::min<uint64_t>(
        Core::ThreadQuantum, MaxBlocks - C.Stats.BlocksDispatched);
    // Forced preemption: shrink this slice to a single block, shaking out
    // scheduling assumptions the 100k-block quantum normally hides.
    if (C.Faults && Quantum > 1 && C.Faults->roll(FaultKind::Preempt)) {
      C.Events.fire<&EventHub::FaultInjected>(
          C.CurTid, static_cast<uint32_t>(FaultKind::Preempt), 1u);
      Quantum = 1;
    }
    dispatchLoop(C.Threads[C.CurTid], Quantum, /*StopPC=*/0xFFFFFFFF);
  }

  return C.finishRun();
}

//===----------------------------------------------------------------------===//
// The --profile report
//===----------------------------------------------------------------------===//

namespace {

/// \p Part as a percentage of \p Whole; 0 when \p Whole is.
double pct(uint64_t Part, uint64_t Whole) {
  return Whole ? 100.0 * static_cast<double>(Part) / static_cast<double>(Whole)
               : 0.0;
}

/// Mean microseconds per event; 0 when there were none.
double meanUs(double Seconds, uint64_t Events) {
  return Events ? Seconds * 1e6 / static_cast<double>(Events) : 0.0;
}

/// A count as printf's %llu reads it.
unsigned long long ull(uint64_t V) { return V; }

} // namespace

void DispatchLoop::dumpProfile() {
  if (!C.Prof)
    return;
  OutputSink &Out = C.Out;
  const CoreStats &S = C.Stats;
  const TransTab::Stats &TS = C.TT.stats();
  const JitStats &J = C.XS->jitStats();
  C.Prof->reportPhases(Out);

  Out.printf("\n== profile: dispatcher ==\n");
  Out.printf("blocks=%llu dispatcher-entries=%llu chained=%llu\n",
             ull(S.BlocksDispatched),
             ull(S.BlocksDispatched - S.ChainedTransfers),
             ull(S.ChainedTransfers));
  Out.printf("fast-cache hits=%llu misses=%llu (%.2f%%)\n",
             ull(S.FastCacheHits), ull(S.FastCacheMisses),
             pct(S.FastCacheHits, S.FastCacheHits + S.FastCacheMisses));
  Out.printf("table lookups=%llu hits=%llu chains-filled=%llu "
             "unchains=%llu\n",
             ull(TS.Lookups), ull(TS.Hits), ull(TS.ChainsFilled),
             ull(TS.Unchains));
  Out.printf("translations=%llu hot-promotions=%llu eviction-runs=%llu "
             "evicted=%llu invalidated=%llu\n",
             ull(S.Translations), ull(S.HotPromotions), ull(TS.EvictionRuns),
             ull(TS.Evicted), ull(TS.Invalidated));
  Out.printf("promotion stall: hot-promotions=%llu inline=%.1fus\n",
             ull(S.HotPromotions), J.SyncPromoStallSeconds * 1e6);

  if (const ShadowMap *SM =
          C.ToolPlugin ? C.ToolPlugin->shadowMap() : nullptr) {
    const ShadowStats &SS = SM->stats();
    Out.printf("\n== profile: shadow memory ==\n");
    Out.printf("probe loads fast=%llu slow=%llu (%.2f%% fast)\n",
               ull(SS.FastLoads), ull(SS.SlowLoads),
               pct(SS.FastLoads, SS.FastLoads + SS.SlowLoads));
    Out.printf("probe stores fast=%llu slow=%llu (%.2f%% fast)\n",
               ull(SS.FastStores), ull(SS.SlowStores),
               pct(SS.FastStores, SS.FastStores + SS.SlowStores));
    Out.printf("secondary cache hits=%llu misses=%llu (%.2f%%)\n",
               ull(SS.SecCacheHits), ull(SS.SecCacheMisses),
               pct(SS.SecCacheHits, SS.SecCacheHits + SS.SecCacheMisses));
    Out.printf("chunks materialised=%llu reclaimed=%llu live=%llu "
               "high-water=%llu\n",
               ull(SS.Materialised), ull(SS.Reclaimed), ull(SS.LiveChunks),
               ull(SS.HighWater));
  }

  Out.printf("\n== profile: scheduler/signals ==\n");
  Out.printf("thread-switches=%llu signals delivered=%llu dropped=%llu\n",
             ull(S.ThreadSwitches), ull(S.SignalsDelivered),
             ull(S.SignalsDropped));

  if (const FaultPlan *F = C.Faults.get()) {
    Out.printf("\n== profile: fault injection ==\n");
    Out.printf("rolls=%llu injected=%llu\n", ull(F->rolls()),
               ull(F->injectedTotal()));
    for (unsigned I = 0; I != NumFaultKinds; ++I) {
      FaultKind K = static_cast<FaultKind>(I);
      Out.printf("  %-12s %llu\n", faultKindName(K), ull(F->injected(K)));
    }
  }

  if (C.TraceTier) {
    Out.printf("\n== profile: trace tier ==\n");
    Out.printf("requests=%llu traces-formed=%llu aborts=%llu\n",
               ull(J.TraceRequests), ull(S.TracesFormed), ull(J.TraceAborts));
    Out.printf("trace-execs=%llu side-exits=%llu (%.2f%% side-exit rate)\n",
               ull(S.TraceExecs), ull(S.TraceSideExits),
               pct(S.TraceSideExits, S.TraceExecs));
    Out.printf("dead-flag-puts-eliminated=%llu probes-csed=%llu\n",
               ull(J.TraceDeadFlagPuts), ull(J.TraceProbesCSEd));
  }

  if (const TransCache *TC = C.XS->cache()) {
    uint64_t Lookups = J.CacheHits + J.CacheMisses + J.CacheRejects;
    Out.printf("\n== profile: translation cache ==\n");
    Out.printf("lookups=%llu hits=%llu misses=%llu rejects=%llu "
               "(%.2f%% hit)\n",
               ull(Lookups), ull(J.CacheHits), ull(J.CacheMisses),
               ull(J.CacheRejects), pct(J.CacheHits, Lookups));
    Out.printf("writes=%llu evicted-files=%llu dir-bytes=%llu\n",
               ull(J.CacheWrites), ull(TC->evictedFiles()),
               ull(TC->totalBytes()));
    Out.printf("load total=%.1fus mean=%.1fus store total=%.1fus "
               "mean=%.1fus\n",
               J.CacheLoadSeconds * 1e6,
               meanUs(J.CacheLoadSeconds, J.CacheHits),
               J.CacheStoreSeconds * 1e6,
               meanUs(J.CacheStoreSeconds, J.CacheWrites));
  }

  if (const TransServerClient *SC = C.XS->server()) {
    Out.printf("\n== profile: translation server ==\n");
    Out.printf("server requests=%llu hits=%llu misses=%llu rejects=%llu "
               "(%.2f%% hit)\n",
               ull(J.ServerRequests), ull(J.ServerHits), ull(J.ServerMisses),
               ull(J.ServerRejects), pct(J.ServerHits, J.ServerRequests));
    Out.printf("server timeouts=%llu retries=%llu fallbacks=%llu "
               "writes=%llu alive-at-exit=%s\n",
               ull(J.ServerTimeouts), ull(J.ServerRetries),
               ull(J.ServerFallbacks), ull(J.ServerWrites),
               SC->alive() ? "yes" : "no");
    Out.printf("server bytes fetched=%llu sent=%llu fetch total=%.1fus "
               "mean=%.1fus\n",
               ull(J.ServerBytesFetched), ull(J.ServerBytesSent),
               J.ServerFetchSeconds * 1e6,
               meanUs(J.ServerFetchSeconds, J.ServerHits));
  }

  if (const EventTracer *Tr = C.Tracer.get()) {
    Out.printf("\n== profile: event trace ==\n");
    Out.printf("recorded=%llu dropped=%llu syscalls=%llu signal-records="
               "%llu\n",
               ull(Tr->recorded()), ull(Tr->dropped()),
               ull(Tr->count(TraceEvent::PreSyscall)),
               ull(Tr->count(TraceEvent::SigQueue) +
                   Tr->count(TraceEvent::SigDeliver) +
                   Tr->count(TraceEvent::SigReturn) +
                   Tr->count(TraceEvent::SigDrop)));
  }

  C.Prof->reportHotBlocks(Out);
}
