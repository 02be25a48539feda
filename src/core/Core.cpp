//===-- core/Core.cpp - The Valgrind core ---------------------------------==//
//
// Once the monolith holding the dispatcher, schedulers, signals, client
// requests, and redirection, Core is now the owner/wiring class over the
// extracted engines (DispatchLoop, SignalEngine, RedirectEngine,
// ClientRequestEngine). What remains here: construction and options,
// image loading, the TranslationHost side (the core's own instrumentation
// and translation accounting), thread lifecycle, and thin forwards that
// keep the public surface stable.
//
//===----------------------------------------------------------------------===//

#include "core/Core.h"

#include "core/DispatchLoop.h"
#include "core/TracerHooks.h"
#include "support/Errors.h"

#include <algorithm>

using namespace vg;
using namespace vg::vg1;

//===----------------------------------------------------------------------===//
// Construction and options
//===----------------------------------------------------------------------===//

Tool::~Tool() = default;

Core::Core(Tool *ToolPlugin)
    : XS(std::make_unique<TranslationService>(
          static_cast<TranslationHost &>(*this), Memory, 1u << 14)),
      TT(XS->transTab()), ToolPlugin(ToolPlugin), Spec(vg1SpecFn()) {
  Signals = std::make_unique<SignalEngine>(*this);
  Redirects = std::make_unique<RedirectEngine>(*this);
  ClReqs = std::make_unique<ClientRequestEngine>(*this);
  Dispatch = std::make_unique<DispatchLoop>(*this);
  Opts.addOption("smc-check", "stack",
                 "when to check for self-modifying code: none|stack|all");
  Opts.addOption("chaining", "yes",
                 "chain translations directly (ablation of Section 3.9)");
  Opts.addOption("hot-threshold", "0",
                 "executions before a block is retranslated as a "
                 "branch-chased superblock (0 = off)");
  Opts.addOption("trace-tier", "no",
                 "stitch hot superblock chains into optimised traces "
                 "(tier 2; needs --chaining and --hot-threshold)");
  Opts.addOption("trace-threshold", "0",
                 "executions before a hot superblock is considered for "
                 "trace formation (0 = 4x hot-threshold)");
  Opts.addOption("trace-max-blocks", "8",
                 "maximum superblocks stitched into one trace (2-8)");
  Opts.addOption("profile", "no",
                 "record per-phase translation time and per-block execution "
                 "counts; dump a ranked hot-block report at exit");
  Opts.addOption("stack-switch-threshold", "2097152",
                 "SP jumps above this many bytes are stack switches");
  Opts.addOption("log-file", "", "send tool output to a file");
  Opts.addOption("verify-ir", "no", "typecheck IR between phases");
  Opts.addOption("no-iropt", "no",
                 "ablation: disable Phase 2 optimisation and cc-thunk "
                 "specialisation (Section 3.5 bench)");
  Opts.addOption("suppressions", "",
                 "inline suppression spec (Kind or Kind:0xLO-0xHI; ';' "
                 "separates entries)");
  Opts.addOption("fault-inject", "",
                 "deterministic fault plan: kind[:rate],...,seed=N — kinds "
                 "are syscall, shortio, mempressure, wakeup, sigstorm, "
                 "preempt, ttflush, or 'all'");
  Opts.addOption("trace-events", "no",
                 "record Table-1 events, syscalls, signals, and thread "
                 "switches in a ring buffer: no|yes|<capacity>");
  Opts.addOption("trace-dump", "no",
                 "dump the event trace at exit (a fatal signal always "
                 "dumps it)");
  Opts.addOption("tt-cache", "",
                 "directory for the persistent translation cache: warm "
                 "runs install serialized translations instead of "
                 "re-running the pipeline (empty = off)");
  Opts.addOption("tt-cache-max-mb", "256",
                 "size budget for the --tt-cache directory in MiB; oldest "
                 "entries are evicted to fit (0 = unbounded)");
  Opts.addOption("tt-server", "",
                 "Unix-domain socket of a vgserve translation daemon, "
                 "consulted on a local-cache miss; fetched entries are "
                 "re-validated before install and any server failure "
                 "degrades to the local cache / inline JIT (empty = off)");
  Opts.addOption("tt-server-timeout-ms", "200",
                 "per-request deadline for --tt-server traffic; a deadline "
                 "that fires is retried with backoff, then degraded");
  if (ToolPlugin)
    ToolPlugin->registerOptions(Opts);
  Kernel = std::make_unique<SimKernel>(AS, &Events, this);
  AS.reserveCoreRegion();
}

Core::~Core() = default;

void Core::applyOptions() {
  std::string S = Opts.getString("smc-check");
  if (S == "none") {
    Smc = SmcMode::None;
  } else if (S == "all") {
    Smc = SmcMode::All;
  } else if (S == "stack") {
    Smc = SmcMode::Stack;
  } else {
    char Msg[256];
    std::snprintf(Msg, sizeof(Msg), "--smc-check=%s: expected none|stack|all",
                  S.c_str());
    fatalError(Msg);
  }
  ChainingEnabled = Opts.getBool("chaining");
  VerifyIR = Opts.getBool("verify-ir");
  NoIROpt = Opts.getBool("no-iropt");
  HotThreshold = static_cast<uint64_t>(
      Opts.getIntChecked("hot-threshold", 0, INT64_MAX));
  TraceTier = Opts.getBool("trace-tier");
  TraceThreshold = static_cast<uint64_t>(
      Opts.getIntChecked("trace-threshold", 0, INT64_MAX));
  setTraceMaxBlocks(static_cast<unsigned>(
      Opts.getIntChecked("trace-max-blocks", 2, 8)));
  if (Opts.getBool("profile") && !Prof)
    Prof = std::make_unique<Profiler>();
  StackSwitchThreshold = static_cast<uint32_t>(
      Opts.getIntChecked("stack-switch-threshold", 1, UINT32_MAX));
  if (std::string F = Opts.getString("log-file"); !F.empty())
    Out.openFile(F);
  if (std::string Sup = Opts.getString("suppressions"); !Sup.empty()) {
    std::string Text = Sup;
    std::replace(Text.begin(), Text.end(), ';', '\n');
    Errors.parseSuppressions(Text);
  }
  if (std::string FI = Opts.getString("fault-inject"); !FI.empty()) {
    auto Plan = std::make_unique<FaultPlan>();
    std::string Err;
    if (!Plan->parse(FI, Err))
      fatalError(("--fault-inject: " + Err).c_str());
    Faults = std::move(Plan);
    Kernel->setFaultPlan(Faults.get());
  }
  if (std::string TE = Opts.getString("trace-events");
      !TE.empty() && TE != "no") {
    // "yes" takes the default capacity; anything else must parse cleanly
    // as a positive integer ("--trace-events=4o96" used to silently become
    // capacity 4, truncating the very trace being asked for).
    size_t Cap =
        TE == "yes"
            ? 4096
            : static_cast<size_t>(
                  Opts.getIntChecked("trace-events", 1, INT64_MAX));
    Tracer = std::make_unique<EventTracer>(Cap);
    Tracer->setClock(&Stats.BlocksDispatched);
  }
  TraceDumpAtExit = Opts.getBool("trace-dump");
  std::string CacheDir = Opts.getString("tt-cache");
  std::string ServerSock = Opts.getString("tt-server");
  if (!CacheDir.empty() || !ServerSock.empty()) {
    // The fingerprint covers everything that can change generated code:
    // the tool (its options too — tools register into this same registry)
    // and every core option except the handful that only affect where
    // output/cache files go or what gets *reported* (never what gets
    // *emitted*). --trace-events stays in: it turns on SP-tracking
    // instrumentation. Computed once and shared by the cache and the
    // server client: local files and served images must live in one key
    // space, so a cold --tt-cache run's directory can be served verbatim.
    auto Items = Opts.items();
    std::erase_if(Items, [](const auto &It) {
      return It.first == "tt-cache" || It.first == "tt-cache-max-mb" ||
             It.first == "tt-server" || It.first == "tt-server-timeout-ms" ||
             It.first == "log-file" || It.first == "profile" ||
             It.first == "trace-dump";
    });
    uint64_t CH = TransCache::configHash(
        ToolPlugin ? ToolPlugin->name() : "none", Items);
    if (!CacheDir.empty()) {
      uint64_t MaxMb = static_cast<uint64_t>(
          Opts.getIntChecked("tt-cache-max-mb", 0, 1 << 20));
      XS->attachCache(std::make_unique<TransCache>(
          CacheDir, MaxMb * (1ull << 20), CH));
    }
    if (!ServerSock.empty()) {
      TransServerClient::Config SC;
      SC.SocketPath = ServerSock;
      SC.TimeoutMs = static_cast<int>(
          Opts.getIntChecked("tt-server-timeout-ms", 1, 60000));
      XS->attachServer(std::make_unique<TransServerClient>(SC), CH);
    }
  }
}

int Core::liveThreads() const {
  int N = 0;
  for (const ThreadState &TS : Threads)
    if (TS.Status == ThreadStatus::Runnable)
      ++N;
  return N;
}

//===----------------------------------------------------------------------===//
// Start-up (Section 3.3)
//===----------------------------------------------------------------------===//

void Core::loadImage(const GuestImage &Img) {
  if (ToolPlugin)
    ToolPlugin->init(*this);

  // Chain the core onto the deallocation events (after the tool installed
  // its callbacks): unmapped code must lose its translations (Section 3.8:
  // "translations are also evicted when code in shared objects is
  // unloaded").
  {
    auto ToolMunmap = Events.DieMemMunmap;
    Events.DieMemMunmap = [this, ToolMunmap](uint32_t Addr, uint32_t Len) {
      discardTranslations(Addr, Len);
      if (ToolMunmap)
        ToolMunmap(Addr, Len);
    };
    auto ToolBrk = Events.DieMemBrk;
    Events.DieMemBrk = [this, ToolBrk](uint32_t Addr, uint32_t Len) {
      discardTranslations(Addr, Len);
      if (ToolBrk)
        ToolBrk(Addr, Len);
    };
  }

  // --trace-events sees everything from here on, including the start-up
  // mappings below. (Layering the tracer over every EventHub callback makes
  // wantsStackEvents() true even for tools that ignore stacks — traced runs
  // deliberately instrument SP changes so the trace is complete.)
  installTracerHooks(Events, Tracer.get());

  // The sigreturn trampoline lives in the core's own region: a handler
  // returning normally lands here, which re-enters the core via the
  // sigreturn syscall.
  {
    Assembler TrampAsm(AddressSpace::CoreBase);
    TrampAsm.movi(Reg::R0, SysSigreturn);
    TrampAsm.sys();
    TrampAsm.hlt(); // unreachable
    std::vector<uint8_t> T = TrampAsm.finalize();
    Memory.map(AddressSpace::CoreBase, AddressSpace::PageSize, PermRX);
    Memory.write(AddressSpace::CoreBase, T.data(),
                 static_cast<uint32_t>(T.size()), /*IgnorePerms=*/true);
  }

  uint32_t HighestEnd = 0;
  for (const ImageSegment &S : Img.Segments) {
    uint32_t Len = static_cast<uint32_t>(S.Bytes.size());
    Memory.map(S.Base, Len, S.Perms);
    Memory.write(S.Base, S.Bytes.data(), Len, /*IgnorePerms=*/true);
    AS.add(S.Base, Len, S.Perms,
           (S.Perms & PermExec) ? SegKind::ClientText : SegKind::ClientData,
           (S.Perms & PermExec) ? "text" : "data");
    if (Events.NewMemStartup)
      Events.NewMemStartup(S.Base, Len, S.Perms);
    HighestEnd = std::max(HighestEnd, S.Base + Len);
  }

  // The brk segment starts one page past the highest load segment.
  uint32_t HeapStart = AddressSpace::pageUp(HighestEnd) + AddressSpace::PageSize;
  AS.add(HeapStart, AddressSpace::PageSize, PermRW, SegKind::ClientHeap,
         "brk");
  Memory.map(HeapStart, AddressSpace::PageSize, PermRW);
  if (Events.NewMemStartup)
    Events.NewMemStartup(HeapStart, AddressSpace::PageSize, PermRW);

  // Client stack.
  uint32_t StackTop = 0xBFFF0000;
  uint32_t StackSize = AddressSpace::pageUp(Img.StackSize);
  Memory.map(StackTop - StackSize, StackSize, PermRW);
  AS.add(StackTop - StackSize, StackSize, PermRW, SegKind::ClientStack,
         "stack");
  uint32_t InitSP = StackTop - 64; // start-up setup area
  if (Events.NewMemStartup)
    Events.NewMemStartup(InitSP, StackTop - InitSP, PermRW);

  ThreadState &TS = Threads[0];
  TS.Tid = 0;
  TS.Status = ThreadStatus::Runnable;
  TS.Memory = &Memory;
  TS.StackBase = StackTop;
  TS.StackLimit = StackTop - StackSize;
  TS.TrackedSP = InitSP;
  TS.setGpr(RegSP, InitSP);
  TS.setPCVal(Img.Entry);

  // R8: heap-tracking tools get the replacement allocator. The core
  // redirects the program's allocator symbols (Section 3.13) to host
  // replacements backed by clientMalloc/clientFree, which drive the
  // tool's onMalloc/onFree callbacks and add red zones.
  if (ToolPlugin && ToolPlugin->tracksHeap()) {
    redirectSymbolToHost("malloc", [](Core &C, ThreadState &TS) {
      TS.setGpr(0, C.clientMalloc(TS.Tid, TS.gpr(1), false));
    });
    redirectSymbolToHost("free", [](Core &C, ThreadState &TS) {
      C.clientFree(TS.Tid, TS.gpr(1));
    });
    redirectSymbolToHost("calloc", [](Core &C, ThreadState &TS) {
      uint64_t Total = static_cast<uint64_t>(TS.gpr(1)) * TS.gpr(2);
      TS.setGpr(0, Total > 0xFFFFFFFFull
                       ? 0
                       : C.clientMalloc(TS.Tid,
                                        static_cast<uint32_t>(Total), true));
    });
    redirectSymbolToHost("realloc", [](Core &C, ThreadState &TS) {
      TS.setGpr(0, C.clientRealloc(TS.Tid, TS.gpr(1), TS.gpr(2)));
    });
  }

  // Resolve pending symbol redirections/wraps against the image's symbol
  // table (and keep the table so later registrations resolve immediately).
  Redirects->setImageSymbols(Img.Symbols);
}

//===----------------------------------------------------------------------===//
// Core-side helpers callable from translated code
//===----------------------------------------------------------------------===//

uint64_t Core::helperSmcCheck(void *Env, uint64_t TransPtr, uint64_t,
                              uint64_t, uint64_t) {
  auto *Ctx = static_cast<ExecContext *>(Env);
  auto *T = reinterpret_cast<Translation *>(static_cast<uintptr_t>(TransPtr));
  return TranslationService::hashLive(*Ctx->Mem, T->Extents) != T->CodeHash
             ? 1
             : 0;
}

uint64_t Core::helperTrackSp(void *Env, uint64_t, uint64_t, uint64_t,
                             uint64_t) {
  auto *Ctx = static_cast<ExecContext *>(Env);
  Core *C = static_cast<Core *>(Ctx->Core);
  // The thread executing this block, as recorded in its context.
  ThreadState &TS = C->Threads[Ctx->Tid];
  uint32_t NewSP = TS.gpr(RegSP);
  uint32_t Old = TS.TrackedSP;
  if (NewSP == Old)
    return 0;

  // Stack-switch heuristic (Section 3.12): a jump of >= threshold bytes, or
  // a move into a different registered stack, is a switch (no events).
  uint32_t Delta = NewSP > Old ? NewSP - Old : Old - NewSP;
  int OldStk = C->ClReqs->stackIdOf(Old);
  int NewStk = C->ClReqs->stackIdOf(NewSP);
  if (Delta >= C->StackSwitchThreshold || OldStk != NewStk) {
    TS.TrackedSP = NewSP;
    return 0;
  }
  if (NewSP < Old) {
    if (C->Events.NewMemStack)
      C->Events.NewMemStack(NewSP, Old - NewSP);
  } else {
    if (C->Events.DieMemStack)
      C->Events.DieMemStack(Old, NewSP - Old);
  }
  TS.TrackedSP = NewSP;
  return 0;
}

namespace {
// The SMC check hashes guest *memory* only; SP tracking fires stack events
// that mark shadow memory, so it must not preserve cached probe results.
const ir::Callee SmcCheckCallee = {"vg_smc_check", &Core::helperSmcCheck, 0,
                                   /*PreservesShadow=*/true,
                                   /*StateFxComplete=*/true};
const ir::Callee TrackSpCallee = {"vg_track_sp", &Core::helperTrackSp, 0,
                                  /*PreservesShadow=*/false,
                                  /*StateFxComplete=*/true};
const ir::CalleeRegistrar RegisterCallees{&SmcCheckCallee, &TrackSpCallee};
} // namespace

//===----------------------------------------------------------------------===//
// Translation (including the core's own instrumentation)
//===----------------------------------------------------------------------===//

void Core::instrumentBlock(ir::IRSB &SB, uint32_t Addr, Translation *Trans,
                           bool WantSmc,
                           const std::vector<uint32_t> &SeamEntries) {
  // Phase 3 proper: the tool's analysis code.
  if (ToolPlugin)
    ToolPlugin->instrument(SB);

  // R7: stack events. The core instruments SP changes on the tool's behalf
  // (Section 3.12): after every Put of the stack pointer, call the
  // SP-tracking helper (annotated as reading SP so the put stays live).
  if (Events.wantsStackEvents()) {
    std::vector<ir::Stmt *> Old;
    Old.swap(SB.stmts());
    for (ir::Stmt *S : Old) {
      SB.append(S);
      if (S->Kind == ir::StmtKind::Put && S->Offset == gso::gpr(RegSP))
        SB.dirty(&TrackSpCallee, {}, ir::NoTmp, nullptr,
                 {{gso::gpr(RegSP), 4, /*IsWrite=*/false}});
    }
  }

  // Self-modifying-code check (Section 3.16): prepended so a stale block
  // aborts before running any guest work. A trace additionally re-checks at
  // every seam: its constituents were inlined without their own preludes,
  // so a store inside the trace body can invalidate a later constituent —
  // the seam exit aborts there with the guest state consistent (the exit
  // writes the seam PC itself; the dispatcher's SmcFail handler then
  // invalidates the whole trace's extents and resumes at that PC).
  if (WantSmc) {
    auto EmitCheck = [&](uint32_t ResumePC) {
      ir::TmpId Stale = SB.newTmp(ir::Ty::I32);
      SB.dirty(&SmcCheckCallee,
               {SB.constI64(static_cast<uint64_t>(
                   reinterpret_cast<uintptr_t>(Trans)))},
               Stale);
      ir::TmpId Cond = SB.wrTmp(SB.unop(ir::Op::CmpNEZ32, SB.rdTmp(Stale)));
      SB.exit(SB.rdTmp(Cond), ResumePC, ir::JumpKind::SmcFail);
    };
    std::vector<ir::Stmt *> Old;
    Old.swap(SB.stmts());
    EmitCheck(Addr);
    for (ir::Stmt *S : Old) {
      if (!SeamEntries.empty() && S->Kind == ir::StmtKind::IMark &&
          std::find(SeamEntries.begin(), SeamEntries.end(), S->IAddr) !=
              SeamEntries.end())
        EmitCheck(S->IAddr);
      SB.append(S);
    }
  }
}

bool Core::addrOnAnyStack(uint32_t Addr) const {
  for (const ThreadState &TS : Threads)
    if (TS.Status == ThreadStatus::Runnable && Addr >= TS.StackLimit &&
        Addr < TS.StackBase)
      return true;
  return ClReqs->onRegisteredStack(Addr);
}

void Core::setupTranslation(TranslationOptions &TO, uint32_t PC, bool Hot,
                            Translation *Raw) {
  TO.Spec = Spec;
  TO.Verify = VerifyIR;
  TO.PhaseOut = Prof ? &Prof->phases() : nullptr;
  // Redirects are checked only at dispatcher entries (Section 3.13), so a
  // redirected address must be reached through the dispatcher: its
  // translation (a wrapped original, made via the wrapper's bypass) takes
  // no chained jumps, and no block chases a branch into its code.
  Raw->NoChainIn = Redirects->isRedirected(PC);
  TO.Frontend.ChaseOk = [](void *Ctx, uint32_t Target) {
    return !static_cast<const RedirectEngine *>(Ctx)->isRedirected(Target);
  };
  TO.Frontend.ChaseCtx = Redirects.get();
  if (Hot) {
    // Hot tier: chase branches aggressively so the loop body becomes one
    // superblock with chainable internal exits. Cold translations keep the
    // default limits; only blocks that prove hot pay for big-superblock
    // formation.
    TO.Frontend.MaxInsns = 200;
    TO.Frontend.MaxChases = 16;
  }
  if (size_t N = TO.Trace.Entries.size()) {
    // Tier 2: the trace inlines up to N former superblocks, so the limits
    // scale with the path length (capped — the executor frame and the
    // linear-scan allocator put a practical ceiling on block size).
    TO.Frontend.MaxInsns =
        static_cast<uint32_t>(std::min<size_t>(200 * N, 1200));
    TO.Frontend.MaxChases =
        static_cast<uint32_t>(std::min<size_t>(16 * N, 64));
  }
  if (NoIROpt) {
    TO.RunOptimise1 = false;
    TO.RunOptimise2 = false;
    TO.Spec = [](ir::IRSB &, const ir::Callee *,
                 const std::vector<ir::Expr *> &) -> ir::Expr * {
      return nullptr; // keep every helper call
    };
  }
  if (Events.wantsStackEvents()) {
    // Every SP write must remain visible to the SP-tracking helper (R7).
    TO.Preserve.Lo = gso::gpr(RegSP);
    TO.Preserve.Hi = gso::gpr(RegSP) + 4;
  }
  // The SMC policy consults live stack geometry, so it is sampled once,
  // here, rather than inside the instrument hook.
  bool WantSmc = Smc == SmcMode::All ||
                 (Smc == SmcMode::Stack && addrOnAnyStack(PC));
  // An SMC prelude embeds this run's Translation* in the blob, and under
  // --smc-check=stack the decision itself depends on live stack geometry,
  // so such blocks must never be served from (or written to) the
  // persistent cache. Traces are never cacheable either: they encode this
  // run's branch bias and chain graph, which no byte-content key captures.
  Raw->Cacheable = !WantSmc && TO.Trace.Entries.empty();
  // Seam entries (constituents after the head) for the per-seam SMC
  // checks, captured by the instrument hook.
  std::vector<uint32_t> Seams(
      TO.Trace.Entries.empty() ? TO.Trace.Entries.begin()
                               : TO.Trace.Entries.begin() + 1,
      TO.Trace.Entries.end());
  TO.Instrument = [this, PC, Raw, WantSmc,
                   Seams = std::move(Seams)](ir::IRSB &SB) {
    instrumentBlock(SB, PC, Raw, WantSmc, Seams);
  };
}

void Core::noteTranslation(uint32_t PC, const Translation &T,
                           double Seconds) {
  ++Stats.Translations;
  Stats.GuestInsnsTranslated += T.NumInsns;
  Stats.TranslateSeconds += Seconds;
  if (Prof)
    Prof->noteTranslation(PC, T.NumInsns, T.Tier, Seconds);
}

void Core::promotionInstalled(Translation *T, uint64_t GenBefore) {
  Dispatch->promotionInstalled(T, GenBefore);
}

//===----------------------------------------------------------------------===//
// Execution (forwards into the dispatch engine)
//===----------------------------------------------------------------------===//

CoreExit Core::run(uint64_t MaxBlocks) { return Dispatch->run(MaxBlocks); }

uint32_t Core::callGuest(ThreadState &TS, uint32_t Addr,
                         const std::vector<uint32_t> &Args) {
  return Dispatch->callGuest(TS, Addr, Args);
}

CoreExit Core::finishRun() {
  if (ToolPlugin)
    ToolPlugin->fini(ProcessExitCode);
  Dispatch->dumpProfile();
  if (Tracer && (TraceDumpAtExit || FatalSignal))
    Tracer->dump(Out);

  CoreExit E;
  if (FatalSignal) {
    E.K = CoreExit::Kind::FatalSignal;
    E.Signal = FatalSignal;
  } else if (!ProcessExited) {
    E.K = CoreExit::Kind::BlockLimit;
  } else {
    E.Code = ProcessExitCode;
  }
  return E;
}

//===----------------------------------------------------------------------===//
// Threads
//===----------------------------------------------------------------------===//

int Core::spawnThread(uint32_t Entry, uint32_t SP, uint32_t Arg) {
  for (int I = 0; I != MaxThreads; ++I) {
    ThreadState &TS = Threads[I];
    if (TS.Status != ThreadStatus::Empty && TS.Status != ThreadStatus::Exited)
      continue;
    TS = ThreadState();
    TS.Tid = I;
    TS.Status = ThreadStatus::Runnable;
    TS.Memory = &Memory;
    TS.setGpr(RegSP, SP);
    TS.setGpr(1, Arg);
    TS.setPCVal(Entry);
    TS.TrackedSP = SP;
    TS.StackBase = SP;
    TS.StackLimit = SP > (1u << 20) ? SP - (1u << 20) : 0;
    return I;
  }
  return -1;
}

void Core::exitThread(int Tid, int Code) {
  if (Tid < 0 || Tid >= MaxThreads)
    return;
  ThreadState &TS = Threads[Tid];
  Signals->threadExiting(TS);
  TS.Status = ThreadStatus::Exited;
  if (Tracer)
    Tracer->record(Tid, TraceEvent::ThreadExit, static_cast<uint32_t>(Code));
  if (liveThreads() == 0) {
    ProcessExited = true;
    ProcessExitCode = Code;
  }
}

void Core::requestYield(int) { Dispatch->requestYield(); }

//===----------------------------------------------------------------------===//
// Signals (KernelHost forwards into the signal engine)
//===----------------------------------------------------------------------===//

void Core::setSignalHandler(int Sig, uint32_t Handler) {
  Signals->setHandler(Sig, Handler);
}

uint32_t Core::signalHandler(int Sig) const { return Signals->handler(Sig); }

bool Core::raiseSignal(int Tid, int Sig) { return Signals->raise(Tid, Sig); }

void Core::sigreturn(int Tid) { Signals->sigreturn(Tid); }

//===----------------------------------------------------------------------===//
// Translation discard (client request + munmap)
//===----------------------------------------------------------------------===//

void Core::discardTranslations(uint32_t Addr, uint32_t Len) {
  XS->invalidate(Addr, Len);
}

//===----------------------------------------------------------------------===//
// Stack traces
//===----------------------------------------------------------------------===//

std::vector<uint32_t> Core::captureStackTrace(ThreadState &TS, unsigned Max) {
  // Conservative scan: walk up the stack looking for plausible return
  // addresses (values pointing into executable client memory).
  std::vector<uint32_t> Trace;
  uint32_t SP = TS.gpr(RegSP);
  for (uint32_t Off = 0; Off < 512 && Trace.size() < Max; Off += 4) {
    uint32_t V;
    if (Memory.read(SP + Off, &V, 4, true).Faulted)
      break;
    if (const Segment *S = AS.segmentAt(V);
        S && S->Kind == SegKind::ClientText)
      Trace.push_back(V);
  }
  return Trace;
}
