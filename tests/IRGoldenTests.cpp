//===-- tests/IRGoldenTests.cpp - Golden-file tests for the IR printer ----==//
///
/// \file
/// Pins the textual IR of representative translation-pipeline runs against
/// golden files in tests/goldens/. Any change to the front end, optimiser,
/// instrumentation, or printer that alters the rendered IR shows up as a
/// readable diff here.
///
/// To regenerate after an intentional change:
///
///   UPDATE_GOLDENS=1 ./build/tests/test_irgolden
///
/// which rewrites the files in the source tree (VG_TEST_GOLDEN_DIR).
///
/// CodegenIdentity pins more than IR text: the host code every workload
/// leaves resident under the tools whose IR the optimiser shapes, and what
/// those runs print. It is the gate for a change meant to emit exactly the
/// same code; regenerate it only for an intended codegen change.
///
/// OpIdentity pins every IR op's evaluation, both shadow tools' rules for
/// it and the folder's identities on it, so that an op given the wrong
/// family (ir::OpFam) shows even where no workload uses it.
///
//===----------------------------------------------------------------------===//

#include "core/Core.h"
#include "core/Translate.h"
#include "guest/Assembler.h"
#include "hvm/HostVM.h"
#include "ir/IROpt.h"
#include "ir/IRPrinter.h"
#include "support/Hashing.h"
#include "tools/ICnt.h"
#include "tools/Memcheck.h"
#include "tools/TaintGrind.h"
#include "tools/ToolFactory.h"
#include "workloads/Workloads.h"

#include "GoldenFile.h"
#include "OpEdgeValues.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace vg;
using namespace vg::vg1;

namespace {

FetchFn fetchOf(uint32_t Base, const std::vector<uint8_t> &Img) {
  return [Base, &Img](uint32_t Addr, uint8_t *Buf,
                      uint32_t MaxLen) -> uint32_t {
    if (Addr < Base || Addr >= Base + Img.size())
      return 0;
    uint32_t N = std::min<uint32_t>(
        MaxLen, static_cast<uint32_t>(Base + Img.size() - Addr));
    std::memcpy(Buf, Img.data() + (Addr - Base), N);
    return N;
  };
}

/// One concatenated artifact dump: stable section headers + phase output.
std::string renderSections(
    const std::vector<std::pair<const char *, const std::string *>> &Secs) {
  std::string Out;
  for (const auto &[Title, Text] : Secs) {
    Out += std::string("== ") + Title + " ==\n";
    Out += *Text;
    if (!Text->empty() && Text->back() != '\n')
      Out += '\n';
  }
  return Out;
}

// The Figure-1 block: scaled-index load, ALU with flags, indirect jump.
std::vector<uint8_t> figureOneBlock() {
  Assembler A(0x24F275);
  A.ldx(Reg::R0, Reg::R3, Reg::R0, 2, -16180);
  A.add(Reg::R0, Reg::R0, Reg::R3);
  A.jmpr(Reg::R0);
  return A.finalize();
}

/// Phase 3 and phase 4 IR of the block at \p Base instrumented by \p T.
void checkInstrumented(const std::string &Name, uint32_t Base,
                       const std::vector<uint8_t> &Img, Tool &T) {
  FetchFn F = fetchOf(Base, Img);
  TranslationOptions TO;
  TO.Verify = true;
  TO.Instrument = [&](ir::IRSB &SB) { T.instrument(SB); };
  TranslationArtifacts Art;
  translateBlock(Base, F, TO, &Art);
  checkGolden(Name, renderSections({{"instrumented flat IR (phase 3)",
                                     &Art.InstrumentedIR},
                                    {"optimised flat IR (phase 4)",
                                     &Art.OptimisedIR}}));
}

// CMP feeding Bcc: the CC thunk is written, then the branch's calcCond
// helper call is partially evaluated by the spec hook (constant CC_OP).
std::vector<uint8_t> aluCcBranchBlock() {
  Assembler B(0x2000);
  Label L = B.newLabel();
  B.movi(Reg::R1, 5);
  B.addi(Reg::R2, Reg::R1, -3);
  B.cmp(Reg::R1, Reg::R2);
  B.bcc(Cond::LES, L);
  B.hlt();
  B.bind(L);
  B.hlt();
  return B.finalize();
}

TEST(IRGolden, AluCcBranch) {
  std::vector<uint8_t> Img = aluCcBranchBlock();
  FetchFn F = fetchOf(0x2000, Img);
  TranslationOptions TO;
  TO.Verify = true;
  TranslationArtifacts Art;
  translateBlock(0x2000, F, TO, &Art);
  checkGolden("alu_cc_branch",
              renderSections({{"tree IR (phase 1)", &Art.TreeIR},
                              {"flat IR (phase 2)", &Art.FlatIR},
                              {"tree IR rebuilt (phase 5)",
                               &Art.RebuiltTreeIR}}));
}

TEST(IRGolden, LdxNulgrind) {
  std::vector<uint8_t> Img = figureOneBlock();
  FetchFn F = fetchOf(0x24F275, Img);
  TranslationOptions TO;
  TO.Verify = true;
  TranslationArtifacts Art;
  translateBlock(0x24F275, F, TO, &Art);
  checkGolden("ldx_nulgrind",
              renderSections({{"tree IR (phase 1)", &Art.TreeIR},
                              {"flat IR (phase 2)", &Art.FlatIR},
                              {"host code, virtual regs (phase 6)",
                               &Art.HostPreAlloc},
                              {"host code, allocated (phase 7)",
                               &Art.HostPostAlloc}}));
}

TEST(IRGolden, LdxMemcheck) {
  Memcheck MC;
  checkInstrumented("ldx_memcheck", 0x24F275, figureOneBlock(), MC);
}

TEST(IRGolden, LdxIcntInline) {
  ICnt IC(ICnt::Mode::Inline);
  checkInstrumented("ldx_icnt_inline", 0x24F275, figureOneBlock(), IC);
}

// FP moves/conversions/compare, packed SIMD, and the CPUINFO dirty
// helper with its register-effect annotations.
std::vector<uint8_t> fpSimdCpuinfoBlock() {
  Assembler A(0x3000);
  A.fmovi(FReg::F0, 1.5);
  A.fitod(FReg::F1, Reg::R2);
  A.fadd(FReg::F2, FReg::F0, FReg::F1);
  A.fcmp(FReg::F2, FReg::F0);
  A.vadd8(Reg::R4, Reg::R5, Reg::R6);
  A.cpuinfo();
  A.ret();
  return A.finalize();
}

TEST(IRGolden, FpSimdCpuinfo) {
  std::vector<uint8_t> Img = fpSimdCpuinfoBlock();
  FetchFn F = fetchOf(0x3000, Img);
  TranslationOptions TO;
  TO.Verify = true;
  TranslationArtifacts Art;
  translateBlock(0x3000, F, TO, &Art);
  checkGolden("fp_simd_cpuinfo",
              renderSections({{"tree IR (phase 1)", &Art.TreeIR},
                              {"flat IR (phase 2)", &Art.FlatIR}}));
}

// The shadow-value tools on the blocks above: AluCcBranch folds to
// constant PUTs (every shadow is a clean literal); FpSimdCpuinfo has FP
// and SIMD ops and a dirty helper's register effects.
TEST(IRGolden, AluCcBranchMemcheck) {
  Memcheck MC;
  checkInstrumented("alu_cc_branch_memcheck", 0x2000, aluCcBranchBlock(),
                    MC);
}

TEST(IRGolden, FpSimdCpuinfoMemcheck) {
  Memcheck MC;
  checkInstrumented("fp_simd_cpuinfo_memcheck", 0x3000,
                    fpSimdCpuinfoBlock(), MC);
}

TEST(IRGolden, FpSimdCpuinfoTaintgrind) {
  TaintGrind TG;
  checkInstrumented("fp_simd_cpuinfo_taintgrind", 0x3000,
                    fpSimdCpuinfoBlock(), TG);
}

// Byte, half-word and 8-byte FP accesses (the sizes Memcheck does not
// probe inline), a shift by a register and a shift by a constant, and a
// RET's indirect jump.
std::vector<uint8_t> shadowRulesBlock() {
  Assembler A(0x5000);
  A.ldb(Reg::R1, Reg::R5, 1);
  A.ldh(Reg::R2, Reg::R5, 2);
  A.shl(Reg::R3, Reg::R1, Reg::R2);
  A.sari(Reg::R4, Reg::R3, 3);
  A.stb(Reg::R5, 4, Reg::R4);
  A.sth(Reg::R5, 6, Reg::R3);
  A.fld(FReg::F0, Reg::R5, 8);
  A.fst(Reg::R5, 16, FReg::F0);
  A.ret();
  return A.finalize();
}

TEST(IRGolden, ShadowRulesMemcheck) {
  Memcheck MC;
  checkInstrumented("shadow_rules_memcheck", 0x5000, shadowRulesBlock(), MC);
}

TEST(IRGolden, ShadowRulesTaintgrind) {
  TaintGrind TG;
  checkInstrumented("shadow_rules_taintgrind", 0x5000, shadowRulesBlock(),
                    TG);
}

// The AluCcBranch compare on registers the block does not set: the
// specialised condition survives folding as a compare with an I1 result,
// guarding the side exit.
std::vector<uint8_t> cmpBranchBlock() {
  Assembler A(0x6000);
  Label L = A.newLabel();
  A.cmp(Reg::R1, Reg::R2);
  A.bcc(Cond::LES, L);
  A.hlt();
  A.bind(L);
  A.hlt();
  return A.finalize();
}

TEST(IRGolden, CmpBranchMemcheck) {
  Memcheck MC;
  checkInstrumented("cmp_branch_memcheck", 0x6000, cmpBranchBlock(), MC);
}

TEST(IRGolden, CmpBranchTaintgrind) {
  TaintGrind TG;
  checkInstrumented("cmp_branch_taintgrind", 0x6000, cmpBranchBlock(), TG);
}

/// A 3-constituent hot path for the trace (tier 2) pipeline. Each
/// constituent ends at a conditional branch whose fall-through continues
/// the path; the taken sides are cold exits that immediately overwrite
/// the flags, so the cross-block liveness pass can prove the thunk dead
/// there too. A and C load the same address [r5+8] with no intervening
/// store, giving the cross-seam CSE something to collapse.
struct TraceProgram {
  std::vector<uint8_t> Img;
  uint32_t A = 0, B = 0, C = 0;
  TraceSpec Spec;

  TraceProgram() {
    Assembler As(0x4000);
    Label Cold = As.newLabel();
    A = As.here();
    As.ld(Reg::R4, Reg::R5, 8);
    As.addi(Reg::R1, Reg::R1, 1); // flag write, dead: cmpi overwrites
    As.cmpi(Reg::R1, 10);
    As.beq(Cold);
    B = As.here();
    As.addi(Reg::R2, Reg::R2, 2); // flag write: kills A's thunk cross-seam
    As.cmpi(Reg::R2, 20);
    As.beq(Cold);
    C = As.here();
    As.ld(Reg::R6, Reg::R5, 8); // same address as A's load
    As.cmpi(Reg::R6, 30);
    As.beq(Cold);
    As.ret();
    As.bind(Cold);
    As.cmpi(Reg::R0, 0); // overwrites flags: side exits are flag-dead
    As.ret();
    Img = As.finalize();
    Spec.Entries = {A, B, C};
  }
};

TEST(IRGolden, TraceFlagLiveness) {
  // The stitched 3-block trace under Nulgrind: A's and B's CC-thunk
  // writes are deleted (overwritten downstream before any read, and the
  // guarded side exits target flag-dead code), while C's survive as the
  // trace's live-out. The golden pins both the stitched phase-2 IR (side
  // exits visible) and the phase-4 result the liveness pass shaped.
  TraceProgram P;
  FetchFn F = fetchOf(0x4000, P.Img);
  TranslationOptions TO;
  TO.Verify = true;
  TO.Trace = P.Spec;
  ir::TraceOptStats TS;
  TO.TraceStats = &TS;
  TranslationArtifacts Art;
  TranslatedBlock TB = translateBlock(P.A, F, TO, &Art);
  ASSERT_EQ(TB.Meta.TraceEntries, P.Spec.Entries);
  EXPECT_GT(TS.DeadFlagPuts, 0u);
  checkGolden("trace_flag_liveness",
              renderSections({{"stitched flat IR (phase 2)", &Art.FlatIR},
                              {"optimised flat IR (phase 4)",
                               &Art.OptimisedIR}}));
}

TEST(IRGolden, TraceCrossSeamCSE) {
  // The same trace under Memcheck: C's reload of [r5+8] re-uses A's
  // address computation and guest-register get across two seams, and its
  // ShadowProbe collapses to a copy of A's probe result (guard hoisting —
  // the addressability/definedness check runs once at the first access).
  TraceProgram P;
  FetchFn F = fetchOf(0x4000, P.Img);
  Memcheck MC;
  TranslationOptions TO;
  TO.Verify = true;
  TO.Trace = P.Spec;
  ir::TraceOptStats TS;
  TO.TraceStats = &TS;
  TO.Instrument = [&](ir::IRSB &SB) { MC.instrument(SB); };
  TranslationArtifacts Art;
  TranslatedBlock TB = translateBlock(P.A, F, TO, &Art);
  ASSERT_EQ(TB.Meta.TraceEntries, P.Spec.Entries);
  EXPECT_GT(TS.ProbesCSEd, 0u);
  checkGolden("trace_cross_seam_cse",
              renderSections({{"optimised flat IR (phase 4)",
                               &Art.OptimisedIR}}));
}

TEST(IRGolden, PrinterPrimitives) {
  // The printer itself: offsets resolved via vg1OffsetName, including
  // shadow offsets, plus expression rendering.
  using namespace vg::ir;
  IRSB SB;
  TmpId T0 = SB.wrTmp(SB.get(vg1::gso::gpr(3), Ty::I32));
  TmpId T1 = SB.wrTmp(SB.binop(Op::Add32, SB.rdTmp(T0), SB.constI32(0x10)));
  SB.put(vg1::gso::gpr(3) + vg1::gso::ShadowOffset, SB.rdTmp(T1));
  SB.put(vg1::gso::PC, SB.constI32(0x1234));
  checkGolden("printer_primitives", toString(SB, vg1OffsetName));
}

//===----------------------------------------------------------------------===//
// Per-op identity
//===----------------------------------------------------------------------===//

/// FNV-1a of evalOp over every pair of edge values, raw or each truncated
/// to its operand type.
uint64_t evalHash(ir::Op O, bool Truncate) {
  uint64_t H = FnvOffsetBasis;
  for (uint64_t A : EdgeValues)
    for (uint64_t B : EdgeValues) {
      uint64_t V = Truncate ? ir::evalOp(O, ir::truncToTy(A, ir::opArgTy(O, 0)),
                                         ir::truncToTy(B, ir::opArgTy(O, 1)))
                            : ir::evalOp(O, A, B);
      H = hashBytes(reinterpret_cast<const uint8_t *>(&V), sizeof(V), H);
    }
  return H;
}

/// A guest-state offset to GET operand \p Idx of type \p T from.
uint32_t operandOffset(ir::Ty T, unsigned Idx) {
  return T == ir::Ty::F64 ? gso::fpr(1 + Idx) : gso::gpr(1 + Idx);
}

/// The flat block "t0 = GET; [t1 = GET;] t = O(t0[, t1 or Amount])".
void buildOpBlock(ir::IRSB &SB, ir::Op O, std::optional<uint8_t> Amount) {
  using namespace vg::ir;
  Expr *A = SB.rdTmp(SB.wrTmp(SB.get(operandOffset(opArgTy(O, 0), 0),
                                     opArgTy(O, 0))));
  if (opArity(O) == 1) {
    SB.wrTmp(SB.unop(O, A));
  } else {
    Expr *B = Amount ? SB.constI8(*Amount)
                     : SB.rdTmp(SB.wrTmp(SB.get(
                           operandOffset(opArgTy(O, 1), 1), opArgTy(O, 1))));
    SB.wrTmp(SB.binop(O, A, B));
  }
  SB.setNext(SB.constI32(0), JumpKind::Boring);
}

/// Both shadow tools' Phase 3 output for O's block.
std::string shadowRules(ir::Op O, std::optional<uint8_t> Amount) {
  std::string Out;
  for (int Which = 0; Which != 2; ++Which) {
    ir::IRSB SB;
    buildOpBlock(SB, O, Amount);
    if (Which == 0)
      Memcheck().instrument(SB);
    else
      TaintGrind().instrument(SB);
    Out += std::string("-- ") + (Which == 0 ? "memcheck" : "taintgrind") +
           (Amount ? " (constant amount)" : "") + "\n" +
           ir::toString(SB, ir::vg1OffsetName);
  }
  return Out;
}

/// optimise1's output for O applied to the operands \p Ops, each a
/// constant or (none) a tmp read from the guest state, its result PUT.
std::string foldOp(ir::Op O, std::vector<std::optional<uint64_t>> Ops) {
  using namespace vg::ir;
  IRSB SB;
  TmpId T0 = NoTmp;
  std::vector<Expr *> Args;
  for (unsigned I = 0; I != Ops.size(); ++I) {
    if (Ops[I]) {
      Args.push_back(SB.mkConst(opArgTy(O, I), *Ops[I]));
      continue;
    }
    if (T0 == NoTmp)
      T0 = SB.wrTmp(SB.get(operandOffset(opArgTy(O, I), 0), opArgTy(O, I)));
    Args.push_back(SB.rdTmp(T0));
  }
  Expr *E = Args.size() == 1 ? SB.unop(O, Args[0])
                             : SB.binop(O, Args[0], Args[1]);
  SB.put(gso::gpr(3), SB.rdTmp(SB.wrTmp(E)));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  optimise1(SB, nullptr);
  return toString(SB, vg1OffsetName);
}

/// Every op's evaluation, both shadow tools' rules and the folder's
/// identities, so that grouping an op into the wrong family shows.
TEST(IRGolden, OpIdentity) {
  using namespace vg::ir;
  std::string Out;
  for (unsigned I = 0; I != NumOps; ++I) {
    Op O = static_cast<Op>(I);
    char Buf[80];
    std::snprintf(Buf, sizeof(Buf), "eval raw=%016" PRIx64
                  " trunc=%016" PRIx64 "\n",
                  evalHash(O, false), evalHash(O, true));
    Out += std::string("== ") + opName(O) + " ==\n" + Buf;
    Out += shadowRules(O, std::nullopt);
    bool Shift = false;
    for (const char *P : {"Shl", "Shr", "Sar"})
      Shift |= std::strncmp(opName(O), P, 3) == 0;
    if (Shift)
      Out += shadowRules(O, 3);
    Ty TA = opArgTy(O, 0), TB = opArgTy(O, 1);
    for (uint64_t C : {0ull, 1ull, ~0ull}) {
      Out += "-- fold, constant " + std::to_string(truncToTy(C, TA)) + "\n";
      if (opArity(O) == 1) {
        Out += foldOp(O, {C});
        continue;
      }
      Out += foldOp(O, {std::nullopt, C});
      Out += foldOp(O, {C, std::nullopt});
    }
    if (opArity(O) == 1) {
      Out += "-- fold, tmp\n" + foldOp(O, {std::nullopt});
    } else if (TA == TB) {
      Out += "-- fold, same tmp\n" + foldOp(O, {std::nullopt, std::nullopt});
    }
  }
  checkGolden("ir_ops", Out);
}

//===----------------------------------------------------------------------===//
// Codegen identity
//===----------------------------------------------------------------------===//

std::string hashHex(const std::string &S) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64,
                hashBytes(reinterpret_cast<const uint8_t *>(S.data()),
                          S.size()));
  return Buf;
}

/// The host code resident at the end of a run, in guest-address order,
/// with each superinstruction group's byte mapped back to its lead
/// instruction's own byte (grouping changes which handler runs, not the
/// code), and each CALL's callee field (a host ir::Callee pointer,
/// different in every build) replaced by the callee's name. A block with
/// an SMC prelude fails the test: the prelude embeds the address of its
/// own Translation, so its bytes change from run to run.
std::string residentCode(TransTab &TT, const std::string &Run) {
  std::vector<const Translation *> Ts;
  TT.forEach([&](const Translation &T) { Ts.push_back(&T); });
  std::sort(Ts.begin(), Ts.end(),
            [](const Translation *A, const Translation *B) {
              return A->Addr < B->Addr;
            });
  std::string Norm;
  std::vector<uint32_t> Slots;
  for (const Translation *T : Ts) {
    std::vector<uint8_t> Bytes = T->Blob.Bytes;
    Norm += "@" + std::to_string(T->Addr) + "/" + std::to_string(T->Tier) +
            "/" + std::to_string(T->Blob.NumSpillSlots) + ":";
    hvm::walkOpcodes(Bytes, [&](uint32_t Off, uint8_t Byte, hvm::HOp) {
      Bytes[Off] = hvm::opcodeInfo(Byte).Lead;
    });
    EXPECT_TRUE(hvm::findCalleeSlots(Bytes, Slots)) << Run;
    size_t Pos = 0;
    for (uint32_t Off : Slots) {
      Norm.append(Bytes.begin() + Pos, Bytes.begin() + Off);
      uint64_t Bits;
      std::memcpy(&Bits, Bytes.data() + Off, sizeof(Bits));
      const char *Name =
          reinterpret_cast<const ir::Callee *>(static_cast<uintptr_t>(Bits))
              ->Name;
      EXPECT_STRNE(Name, "vg_smc_check")
          << Run << ": the block at " << T->Addr << " has an SMC prelude";
      Norm += Name;
      Pos = Off + sizeof(Bits);
    }
    Norm.append(Bytes.begin() + Pos, Bytes.end());
  }
  return Norm;
}

/// One golden row: translations made, translations resident, and hashes
/// of the resident code, the tool output and the guest's stdout.
std::string codegenRow(const std::string &ToolName, const std::string &Config,
                       const std::vector<std::string> &Opts,
                       const std::string &Workload) {
  std::string Run = ToolName + " " + Config + " " + Workload;
  GuestImage Img = buildWorkload(Workload, 1);
  std::unique_ptr<Tool> T = makeTool(ToolName);
  Core C(T.get());
  C.output().useBuffer();
  EXPECT_TRUE(C.options().parse(Opts).empty()) << Run;
  C.applyOptions();
  C.loadImage(Img);
  CoreExit E = C.run(~0ull);
  EXPECT_EQ(E.K, CoreExit::Kind::Exited) << Run;
  return Run + " translations=" + std::to_string(C.stats().Translations) +
         " resident=" + std::to_string(C.transTab().size()) +
         " code=" + hashHex(residentCode(C.transTab(), Run)) +
         " tool=" + hashHex(C.output().takeBuffer()) +
         " stdout=" + hashHex(C.kernel().stdoutText()) + "\n";
}

TEST(IRGolden, CodegenIdentity) {
  struct Config {
    const char *Name;
    std::vector<std::string> Opts;
    std::vector<const char *> Tools;
  };
  const Config Configs[] = {
      {"default",
       {},
       {"nulgrind", "icnt", "icntc", "memcheck", "taintgrind"}},
      {"hot20-trace",
       {"--hot-threshold=20", "--trace-tier=yes"},
       {"nulgrind", "icnt", "icntc", "memcheck", "taintgrind"}},
      {"no-iropt", {"--no-iropt=yes"}, {"nulgrind", "memcheck"}},
  };
  std::vector<std::string> Workloads;
  for (const WorkloadInfo &W : allWorkloads())
    Workloads.push_back(W.Name);
  Workloads.push_back("sigmt");
  Workloads.push_back("mtcpu");
  std::string Out;
  for (const Config &Cfg : Configs)
    for (const char *ToolName : Cfg.Tools)
      for (const std::string &W : Workloads)
        Out += codegenRow(ToolName, Cfg.Name, Cfg.Opts, W);
  checkGolden("codegen_identity", Out);
}

} // namespace
