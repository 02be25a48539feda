//===-- core/Translate.cpp - The eight-phase translation pipeline ---------==//

#include "core/Translate.h"

#include "guest/GuestArch.h"
#include "hvm/ISel.h"
#include "ir/IROpt.h"
#include "ir/IRPrinter.h"
#include "support/Errors.h"

#include <algorithm>
#include <chrono>

using namespace vg;

namespace {

/// RAII phase timer with two optional sinks: the Profiler and a standalone
/// PhaseTimes.
class PhaseTimer {
public:
  PhaseTimer(Profiler *Prof, PhaseTimes *Out, ProfPhase Ph)
      : Prof(Prof), Out(Out), Ph(Ph),
        T0((Prof || Out) ? now() : 0) {}
  ~PhaseTimer() {
    if (!Prof && !Out)
      return;
    double S = now() - T0;
    if (Prof)
      Prof->notePhase(Ph, S);
    if (Out)
      Out->add(Ph, S);
  }
  PhaseTimer(const PhaseTimer &) = delete;
  PhaseTimer &operator=(const PhaseTimer &) = delete;

private:
  static double now() {
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
  }
  Profiler *Prof;
  PhaseTimes *Out;
  ProfPhase Ph;
  double T0;
};

void verifyIR(const ir::IRSB &SB, bool Flat, const char *Phase) {
  std::string Diag = SB.typecheck(Flat);
  if (Diag.empty())
    return;
  std::fprintf(stderr, "IR verification failed after %s: %s\n%s", Phase,
               Diag.c_str(), ir::toString(SB).c_str());
  unreachable("translation produced ill-formed IR");
}

std::string renderHost(const hvm::HostCode &Code) {
  std::string Out;
  for (const hvm::HInstr &I : Code.Instrs) {
    Out += hvm::toString(I);
    Out += "\n";
  }
  return Out;
}

} // namespace

TranslatedBlock vg::translateBlock(uint32_t Addr, const FetchFn &Fetch,
                                   const TranslationOptions &Opts,
                                   TranslationArtifacts *Art) {
  const ir::SpecFn Spec = Opts.Spec ? Opts.Spec : vg1SpecFn();
  Profiler *Prof = Opts.Prof;
  PhaseTimes *Out = Opts.PhaseOut;

  const bool IsTrace = !Opts.Trace.Entries.empty();

  // Phase 1: disassembly.
  DisasmResult Dis;
  {
    PhaseTimer Tm(Prof, Out, ProfPhase::Disasm);
    Dis = IsTrace ? disassembleTrace(Opts.Trace, Fetch, Opts.Frontend)
                  : disassembleSB(Addr, Fetch, Opts.Frontend);
  }
  if (Opts.Verify)
    verifyIR(*Dis.SB, /*RequireFlat=*/false, "disassembly");
  if (Art)
    Art->TreeIR = ir::toString(*Dis.SB, ir::vg1OffsetName);

  // Trace pipelines: prove the CC thunk dead at whichever exit targets
  // allow it, so DeadPut can treat side exits as jumps with known
  // downstream liveness rather than barriers. The scanned bytes join the
  // extents: if the proof's code changes, the trace dies with it.
  ir::TraceOptConfig TraceCfg;
  if (IsTrace) {
    TraceCfg.PCLo = vg1::gso::PC;
    TraceCfg.PCHi = vg1::gso::PC + 4;
    TraceCfg.CCLo = vg1::gso::CC_OP;
    TraceCfg.CCHi = vg1::gso::CC_NDEP + 4;
    TraceCfg.ShadowOffset = vg1::gso::ShadowOffset;
    TraceCfg.Stats = Opts.TraceStats;
    std::vector<uint32_t> Cands;
    for (const ir::Stmt *S : Dis.SB->stmts())
      if (S->Kind == ir::StmtKind::Exit && S->JK == ir::JumpKind::Boring)
        Cands.push_back(S->DstPC);
    uint32_t FinalPC = ~0u;
    if (Dis.SB->next()->isConst() &&
        Dis.SB->endJumpKind() == ir::JumpKind::Boring)
      Cands.push_back(FinalPC =
                          static_cast<uint32_t>(Dis.SB->next()->ConstVal));
    std::sort(Cands.begin(), Cands.end());
    Cands.erase(std::unique(Cands.begin(), Cands.end()), Cands.end());
    std::vector<std::pair<uint32_t, uint32_t>> Scanned;
    for (uint32_t T : Cands)
      if (flagsDeadAt(T, Fetch, Scanned))
        TraceCfg.FlagsDeadTargets.push_back(T);
    TraceCfg.FlagsDeadAtEnd =
        FinalPC != ~0u && TraceCfg.flagsDeadAtTarget(FinalPC);
    Dis.Extents.insert(Dis.Extents.end(), Scanned.begin(), Scanned.end());
  }
  const ir::TraceOptConfig *TC = IsTrace ? &TraceCfg : nullptr;

  // Phase 2: flatten + optimisation 1.
  std::unique_ptr<ir::IRSB> SB;
  {
    PhaseTimer Tm(Prof, Out, ProfPhase::Optimise1);
    SB = ir::flatten(*Dis.SB);
    if (Opts.RunOptimise1)
      ir::optimise1(*SB, Spec, Opts.Preserve, TC);
  }
  if (Opts.Verify)
    verifyIR(*SB, /*RequireFlat=*/true, "optimisation 1");
  if (Art)
    Art->FlatIR = ir::toString(*SB, ir::vg1OffsetName);

  // Phase 3: instrumentation (the tool plug-in).
  if (Opts.Instrument) {
    {
      PhaseTimer Tm(Prof, Out, ProfPhase::Instrument);
      Opts.Instrument(*SB);
    }
    if (Opts.Verify)
      verifyIR(*SB, /*RequireFlat=*/true, "instrumentation");
    if (Art) {
      Art->InstrumentedIR = ir::toString(*SB, ir::vg1OffsetName);
      Art->StmtsAfterInstrumentation =
          static_cast<unsigned>(SB->stmts().size());
    }
  }

  // Phase 4: optimisation 2.
  if (Opts.RunOptimise2) {
    PhaseTimer Tm(Prof, Out, ProfPhase::Optimise2);
    ir::optimise2(*SB, Spec, Opts.Preserve, TC);
  }
  if (Opts.Verify)
    verifyIR(*SB, /*RequireFlat=*/true, "optimisation 2");
  if (Art) {
    Art->OptimisedIR = ir::toString(*SB, ir::vg1OffsetName);
    Art->StmtsAfterOptimise2 = static_cast<unsigned>(SB->stmts().size());
  }

  // Phase 5: tree building.
  {
    PhaseTimer Tm(Prof, Out, ProfPhase::TreeBuild);
    ir::buildTrees(*SB);
  }
  if (Opts.Verify)
    verifyIR(*SB, /*RequireFlat=*/false, "tree building");
  if (Art)
    Art->RebuiltTreeIR = ir::toString(*SB, ir::vg1OffsetName);

  // Phase 6: instruction selection.
  hvm::HostCode Host;
  {
    PhaseTimer Tm(Prof, Out, ProfPhase::ISel);
    Host = hvm::selectInstructions(*SB);
  }
  if (Art)
    Art->HostPreAlloc = renderHost(Host);

  // Phase 7: register allocation.
  unsigned Coalesced;
  {
    PhaseTimer Tm(Prof, Out, ProfPhase::RegAlloc);
    Coalesced = hvm::allocateRegisters(Host);
  }
  if (Art) {
    Art->HostPostAlloc = renderHost(Host);
    Art->CoalescedMoves = Coalesced;
  }
  if (Host.NumSpillSlots > hvm::Executor::MaxSpillSlots) {
    if (IsTrace) {
      // A stitched path can legitimately outgrow the executor frame; the
      // caller keeps running the constituent tier-1 blocks instead.
      TranslatedBlock TB;
      TB.SpillOverflow = true;
      TB.Meta = std::move(Dis);
      TB.Meta.SB.reset();
      return TB;
    }
    unreachable("translation needs more spill slots than the executor frame");
  }

  // Phase 8: assembly.
  TranslatedBlock TB;
  {
    PhaseTimer Tm(Prof, Out, ProfPhase::Encode);
    TB.Blob.Bytes = hvm::encode(Host);
  }
  TB.Blob.NumSpillSlots = Host.NumSpillSlots;
  TB.Blob.NumChainSlots = Host.NumChainSlots;
  TB.Blob.ChainTargets = std::move(Host.ChainTargets);
  TB.Blob.TerminalChainSlot = Host.TerminalChainSlot;
  TB.Meta = std::move(Dis);
  TB.Meta.SB.reset(); // the IR is dead once code is emitted
  return TB;
}
