//===-- tests/HvmTests.cpp - Back-end unit tests --------------------------==//
///
/// \file
/// Unit tests for the JIT back end: instruction selection patterns,
/// linear-scan register allocation (coalescing, spilling, call-clobber
/// constraints), encoding round-trips, and executor semantics — including
/// a property sweep checking every IR op end-to-end against evalOp.
///
//===----------------------------------------------------------------------===//

#include "guest/GuestMemory.h"
#include "hvm/Exec.h"
#include "hvm/ISel.h"
#include "ir/IR.h"
#include "ir/IROpt.h"

#include "OpEdgeValues.h"
#include "RowInstances.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>

using namespace vg;
using namespace vg::hvm;
using namespace vg::ir;
using namespace vg::rowcases;

namespace {

/// Lowers, allocates, encodes, and runs one superblock over the given
/// guest-state bytes; returns the exit outcome.
RunOutcome runSB(IRSB &SB, uint8_t *Gst, GuestMemory &Mem) {
  HostCode HC = selectInstructions(SB);
  allocateRegisters(HC);
  CodeBlob Blob;
  Blob.Bytes = encode(HC);
  Blob.NumSpillSlots = HC.NumSpillSlots;
  ExecContext Ctx;
  Ctx.GuestState = Gst;
  Ctx.Mem = &Mem;
  Executor Exec(Ctx, /*PCOffset=*/64);
  return Exec.run(Blob);
}

/// Encodes and runs a hand-built, already allocated instruction list.
RunOutcome runHost(const HostCode &HC, uint8_t *Gst, GuestMemory &Mem) {
  CodeBlob Blob;
  Blob.Bytes = encode(HC);
  ExecContext Ctx;
  Ctx.GuestState = Gst;
  Ctx.Mem = &Mem;
  Executor Exec(Ctx, /*PCOffset=*/64);
  return Exec.run(Blob);
}

HInstr hi(HOp Op) {
  HInstr I;
  I.Op = Op;
  return I;
}

HInstr exitTo(uint32_t PC) {
  HInstr I = hi(HOp::EXITI);
  I.Imm = PC;
  I.ChainSlot = 0;
  return I;
}

HInstr li(RegId Dst, uint64_t Imm) {
  HInstr I = hi(HOp::LI);
  I.Dst = Dst, I.Imm = Imm;
  return I;
}

HInstr stg(uint32_t Off, RegId A, uint8_t Size) {
  HInstr I = hi(HOp::STG);
  I.A = A, I.Off = Off, I.Size = Size;
  return I;
}

HInstr ldg(RegId Dst, uint32_t Off, uint8_t Size) {
  HInstr I = hi(HOp::LDG);
  I.Dst = Dst, I.Off = Off, I.Size = Size;
  return I;
}

HInstr jz(RegId A, int32_t Label) {
  HInstr I = hi(HOp::JZ);
  I.A = A, I.Label = Label;
  return I;
}

HInstr imark(uint32_t PC) {
  HInstr I = hi(HOp::IMARK);
  I.Imm = PC;
  return I;
}

HInstr ldm(RegId Dst, RegId A) {
  HInstr I = hi(HOp::LDM);
  I.Dst = Dst, I.A = A, I.Size = 4;
  return I;
}

/// The opcode bytes encode() wrote for \p HC, one per instruction.
std::vector<uint8_t> opcodeBytes(const HostCode &HC) {
  std::vector<uint8_t> Bytes = encode(HC), Ops;
  EXPECT_TRUE(walkOpcodes(Bytes, [&](uint32_t, uint8_t Byte, HOp) {
    Ops.push_back(Byte);
  }));
  EXPECT_EQ(Ops.size(), HC.Instrs.size());
  return Ops;
}

bool isSpecialisedOp(Op O) {
  switch (O) {
#define VG_HVM_X(Name) case Op::Name:
    VG_HVM_BINOPS(VG_HVM_X)
    VG_HVM_UNOPS(VG_HVM_X)
#undef VG_HVM_X
    return true;
  default:
    return false;
  }
}

TEST(ISel, FoldsAddressDisplacements) {
  IRSB SB;
  TmpId TA = SB.wrTmp(SB.get(0, Ty::I32));
  TmpId TV = SB.wrTmp(
      SB.load(Ty::I32, SB.binop(Op::Add32, SB.rdTmp(TA), SB.constI32(16))));
  SB.put(4, SB.rdTmp(TV));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  buildTrees(SB);
  HostCode HC = selectInstructions(SB);
  bool FoundFoldedLoad = false;
  for (const HInstr &I : HC.Instrs)
    if (I.Op == HOp::LDM && I.Disp == 16)
      FoundFoldedLoad = true;
  EXPECT_TRUE(FoundFoldedLoad);
}

TEST(ISel, ConstOperandsBecomeImmediates) {
  IRSB SB;
  TmpId T = SB.wrTmp(SB.binop(Op::Add32, SB.get(0, Ty::I32), SB.constI32(42)));
  SB.put(4, SB.rdTmp(T));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  buildTrees(SB);
  HostCode HC = selectInstructions(SB);
  bool FoundImm = false;
  for (const HInstr &I : HC.Instrs)
    if (I.Op == HOp::ALUI && I.Imm == 42)
      FoundImm = true;
  EXPECT_TRUE(FoundImm);
}

TEST(RegAlloc, AssignsPhysicalRegistersAndCoalesces) {
  IRSB SB;
  TmpId T0 = SB.wrTmp(SB.get(0, Ty::I32));
  TmpId T1 = SB.wrTmp(SB.binop(Op::Add32, SB.rdTmp(T0), SB.rdTmp(T0)));
  SB.put(4, SB.rdTmp(T1));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  HostCode HC = selectInstructions(SB);
  unsigned Coalesced = allocateRegisters(HC);
  EXPECT_GE(Coalesced, 1u); // the WrTmp copies vanish
  for (const HInstr &I : HC.Instrs) {
    EXPECT_FALSE(isVirtual(I.Dst) && I.Dst != NoReg);
    EXPECT_FALSE(isVirtual(I.A) && I.A != NoReg);
  }
}

TEST(RegAlloc, SpillsUnderPressureAndStaysCorrect) {
  // Sum 24 values loaded up-front: more live values than registers.
  IRSB SB;
  std::vector<TmpId> Vals;
  for (int I = 0; I != 24; ++I)
    Vals.push_back(SB.wrTmp(SB.get(static_cast<uint32_t>(4 * I), Ty::I32)));
  // Sum them in reverse order so everything stays live a long time.
  Expr *Acc = SB.rdTmp(Vals[23]);
  for (int I = 22; I >= 0; --I)
    Acc = SB.rdTmp(SB.wrTmp(SB.binop(Op::Add32, Acc, SB.rdTmp(Vals[I]))));
  SB.put(100, Acc);
  SB.setNext(SB.constI32(0), JumpKind::Boring);

  HostCode HC = selectInstructions(SB);
  allocateRegisters(HC);
  bool Spilled = false;
  for (const HInstr &I : HC.Instrs)
    if (I.Op == HOp::SPILL || I.Op == HOp::RELOAD)
      Spilled = true;
  EXPECT_TRUE(Spilled) << "24 live values must not fit 10 registers";

  alignas(8) uint8_t Gst[384] = {};
  for (uint32_t I = 0; I != 24; ++I) {
    uint32_t V = I + 1;
    std::memcpy(Gst + 4 * I, &V, 4);
  }
  GuestMemory Mem;
  runSB(SB, Gst, Mem);
  uint32_t Sum;
  std::memcpy(&Sum, Gst + 100, 4);
  EXPECT_EQ(Sum, 300u); // 1+..+24
}

TEST(RegAlloc, ValuesSurviveHelperCalls) {
  // A value live across a dirty call must land in a callee-saved register
  // or be spilled; the executor poisons caller-saved registers at calls.
  static const Callee Nop = {"nop_helper",
                             [](void *, uint64_t, uint64_t, uint64_t,
                                uint64_t) -> uint64_t { return 0; },
                             0};
  IRSB SB;
  TmpId T0 = SB.wrTmp(SB.get(0, Ty::I32));
  TmpId T1 = SB.wrTmp(SB.get(4, Ty::I32));
  SB.dirty(&Nop, {});
  SB.dirty(&Nop, {});
  TmpId T2 = SB.wrTmp(SB.binop(Op::Add32, SB.rdTmp(T0), SB.rdTmp(T1)));
  SB.put(8, SB.rdTmp(T2));
  SB.setNext(SB.constI32(0), JumpKind::Boring);

  alignas(8) uint8_t Gst[384] = {};
  uint32_t A = 1111, B = 2222;
  std::memcpy(Gst + 0, &A, 4);
  std::memcpy(Gst + 4, &B, 4);
  GuestMemory Mem;
  runSB(SB, Gst, Mem);
  uint32_t Out;
  std::memcpy(&Out, Gst + 8, 4);
  EXPECT_EQ(Out, 3333u);
}

TEST(Exec, GuardedExitTakenAndNotTaken) {
  for (uint32_t Flag : {0u, 1u}) {
    IRSB SB;
    TmpId T = SB.wrTmp(SB.get(0, Ty::I32));
    TmpId C = SB.wrTmp(SB.unop(Op::CmpNEZ32, SB.rdTmp(T)));
    SB.exit(SB.rdTmp(C), 0x2222, JumpKind::Boring);
    SB.setNext(SB.constI32(0x1111), JumpKind::Boring);
    alignas(8) uint8_t Gst[384] = {};
    std::memcpy(Gst, &Flag, 4);
    GuestMemory Mem;
    RunOutcome O = runSB(SB, Gst, Mem);
    EXPECT_EQ(O.NextPC, Flag ? 0x2222u : 0x1111u);
    // The exit also wrote the guest PC slot.
    uint32_t PC;
    std::memcpy(&PC, Gst + 64, 4);
    EXPECT_EQ(PC, O.NextPC);
  }
}

TEST(Exec, GuardedDirtyCallSkipped) {
  static int Calls;
  Calls = 0;
  static const Callee Count = {"count_helper",
                               [](void *, uint64_t, uint64_t, uint64_t,
                                  uint64_t) -> uint64_t {
                                 ++Calls;
                                 return 0;
                               },
                               0};
  IRSB SB;
  SB.dirty(&Count, {}, NoTmp, SB.constI1(false)); // PropFold would remove;
                                                  // keep un-optimised
  SB.dirty(&Count, {}, NoTmp, SB.constI1(true));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  alignas(8) uint8_t Gst[384] = {};
  GuestMemory Mem;
  runSB(SB, Gst, Mem);
  EXPECT_EQ(Calls, 1);
}

TEST(Exec, MemoryFaultReportsIMarkPC) {
  IRSB SB;
  SB.imark(0xABC0, 4);
  TmpId T = SB.wrTmp(SB.load(Ty::I32, SB.constI32(0x00990000)));
  SB.put(0, SB.rdTmp(T));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  alignas(8) uint8_t Gst[384] = {};
  GuestMemory Mem; // nothing mapped
  RunOutcome O = runSB(SB, Gst, Mem);
  EXPECT_EQ(O.K, RunOutcome::Kind::Fault);
  EXPECT_EQ(O.FaultPC, 0xABC0u);
  EXPECT_EQ(O.FaultAddr, 0x00990000u);
  EXPECT_FALSE(O.FaultWrite);

  // A load that faults right after an IMARK-led group reports the PC of
  // the group's (last) IMARK.
  struct Case {
    Group G;
    std::vector<HInstr> Members;
  };
  const Case Cases[] = {
      {Group::IMARK_IMARK, {imark(0xAB00), imark(0xABC4)}},
      {Group::IMARK_LI_STG4, {imark(0xABC4), li(1, 7), stg(0, 1, 4)}},
      {Group::IMARK_LDG4, {imark(0xABC4), ldg(1, 8, 4)}},
  };
  for (const Case &C : Cases) {
    HostCode HC;
    HC.Instrs = {imark(0xAAA0), li(2, 0x00990000)};
    HC.Instrs.insert(HC.Instrs.end(), C.Members.begin(), C.Members.end());
    HC.Instrs.push_back(ldm(3, 2));
    HC.Instrs.push_back(exitTo(0));
    EXPECT_EQ(opcodeBytes(HC)[2], byteOf(C.G));
    alignas(8) uint8_t Gst[384] = {};
    O = runHost(HC, Gst, Mem);
    EXPECT_EQ(O.K, RunOutcome::Kind::Fault);
    EXPECT_EQ(O.FaultPC, 0xABC4u) << unsigned(C.G);
    EXPECT_EQ(O.FaultAddr, 0x00990000u);
  }
}

TEST(Exec, StoreFaultReportsIMarkPC) {
  // The store straddles from a writable page into an unmapped one: the
  // fault names the first unmapped byte and the store's own instruction.
  IRSB SB;
  SB.imark(0xABC0, 4);
  SB.put(0, SB.constI32(7));
  SB.imark(0xABC4, 4);
  SB.store(SB.constI32(0x00990FFC), SB.constI64(0x1122334455667788ull));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  alignas(8) uint8_t Gst[384] = {};
  GuestMemory Mem;
  Mem.map(0x00990000, GuestMemory::PageSize, PermRW);
  RunOutcome O = runSB(SB, Gst, Mem);
  EXPECT_EQ(O.K, RunOutcome::Kind::Fault);
  EXPECT_EQ(O.FaultPC, 0xABC4u);
  EXPECT_EQ(O.FaultAddr, 0x00991000u);
  EXPECT_TRUE(O.FaultWrite);
}

// Every access size has its own opcode; each must move exactly its width
// and zero-extend loads into the 64-bit register.
TEST(Exec, SizedAccessesMoveTheirWidthAndZeroExtend) {
  constexpr uint32_t Base = 0x00400000;
  constexpr uint64_t Pattern = 0xF1E2D3C4B5A69788ull;
  for (uint8_t Size : {1, 2, 4, 8}) {
    uint64_t Mask = Size == 8 ? ~0ull : (1ull << (8 * Size)) - 1;
    alignas(8) uint8_t Gst[384] = {};
    std::memcpy(Gst + 0, &Pattern, 8);
    std::memset(Gst + 16, 0xAA, 16);
    GuestMemory Mem;
    Mem.map(Base, GuestMemory::PageSize, PermRW);
    Mem.write(Base, &Pattern, 8);
    uint64_t Fill = 0xAAAAAAAAAAAAAAAAull;
    Mem.write(Base + 16, &Fill, 8);

    HostCode HC;
    HInstr LdG = hi(HOp::LDG); // h0 = gst[0], Size bytes
    LdG.Dst = 0, LdG.Off = 0, LdG.Size = Size;
    HInstr Wide = hi(HOp::STG); // gst[8] = h0, all 8 bytes
    Wide.A = 0, Wide.Off = 8, Wide.Size = 8;
    HInstr StG = hi(HOp::STG); // gst[16] = ~0, Size bytes
    StG.A = 1, StG.Off = 16, StG.Size = Size;
    // h1 = ~0 is the store data; h0 and h3 start as ~0 too, so a load
    // that wrote only its low bytes would show.
    HInstr Ones = hi(HOp::LI);
    Ones.Dst = 1, Ones.Imm = ~0ull;
    HInstr Dirty0 = Ones, Dirty3 = Ones;
    Dirty0.Dst = 0, Dirty3.Dst = 3;
    HInstr Addr = hi(HOp::LI);
    Addr.Dst = 2, Addr.Imm = Base;
    HInstr LdM = hi(HOp::LDM); // h3 = mem[Base], Size bytes
    LdM.Dst = 3, LdM.A = 2, LdM.Size = Size;
    HInstr WideM = hi(HOp::STG); // gst[32] = h3, all 8 bytes
    WideM.A = 3, WideM.Off = 32, WideM.Size = 8;
    HInstr StM = hi(HOp::STM); // mem[Base + 16] = ~0, Size bytes
    StM.A = 2, StM.B = 1, StM.Disp = 16, StM.Size = Size;
    HC.Instrs = {Ones, Dirty0, Dirty3, LdG, Wide, StG,
                 Addr, LdM, WideM, StM, exitTo(0)};

    // The walker rejects unsized access bytes: every access must have
    // been encoded with its size's specialised byte.
    EXPECT_TRUE(walkOpcodes(encode(HC), [](uint32_t, uint8_t, HOp) {}))
        << "size " << unsigned(Size);

    RunOutcome O = runHost(HC, Gst, Mem);
    ASSERT_EQ(O.K, RunOutcome::Kind::BlockEnd);
    uint64_t V;
    std::memcpy(&V, Gst + 8, 8);
    EXPECT_EQ(V, Pattern & Mask) << "LDG size " << unsigned(Size);
    std::memcpy(&V, Gst + 16, 8);
    EXPECT_EQ(V, (Fill & ~Mask) | Mask) << "STG size " << unsigned(Size);
    std::memcpy(&V, Gst + 24, 8);
    EXPECT_EQ(V, Fill) << "STG size " << unsigned(Size) << " overran";
    std::memcpy(&V, Gst + 32, 8);
    EXPECT_EQ(V, Pattern & Mask) << "LDM size " << unsigned(Size);
    V = 0;
    Mem.read(Base + 16, &V, 8);
    EXPECT_EQ(V, (Fill & ~Mask) | Mask) << "STM size " << unsigned(Size);
  }
}

// Memory accesses that cross a page boundary take the byte-exact path in
// GuestMemory; the sized handlers must hand it the right width.
TEST(Exec, PageStraddlingLoadsAndStores) {
  constexpr uint32_t Page1 = 0x00500000, Edge = Page1 + GuestMemory::PageSize;
  for (uint8_t Size : {2, 4, 8}) {
    uint64_t Mask = Size == 8 ? ~0ull : (1ull << (8 * Size)) - 1;
    GuestMemory Mem;
    Mem.map(Page1, 2 * GuestMemory::PageSize, PermRW);
    uint8_t Bytes[16];
    for (int I = 0; I != 16; ++I)
      Bytes[I] = static_cast<uint8_t>(0x10 + I);
    Mem.write(Edge - 8, Bytes, 16);
    uint32_t At = Edge - 1; // one byte before the boundary

    IRSB SB;
    Ty T = Size == 2 ? Ty::I16 : Size == 4 ? Ty::I32 : Ty::I64;
    TmpId V = SB.wrTmp(SB.load(T, SB.constI32(At)));
    SB.put(0, SB.rdTmp(V));
    SB.store(SB.constI32(At - 4), SB.rdTmp(V));
    SB.setNext(SB.constI32(0), JumpKind::Boring);
    alignas(8) uint8_t Gst[384] = {};
    RunOutcome O = runSB(SB, Gst, Mem);
    ASSERT_EQ(O.K, RunOutcome::Kind::BlockEnd);

    uint64_t Want = 0;
    std::memcpy(&Want, Bytes + 7, Size);
    uint64_t Got = 0;
    std::memcpy(&Got, Gst, Size);
    EXPECT_EQ(Got, Want & Mask) << "load size " << unsigned(Size);
    uint64_t Stored = 0;
    Mem.read(At - 4, &Stored, Size);
    EXPECT_EQ(Stored, Want) << "store size " << unsigned(Size);
  }
}

//===----------------------------------------------------------------------===//
// Property sweep: every op agrees with evalOp through the whole back end
//===----------------------------------------------------------------------===//

/// How the back end sees the operands of one op instance.
enum class Form {
  Reg,      ///< every operand a guest-state GET (ALU / ALU1)
  ImmLarge, ///< binary op, constant RHS above 255 (ALUI)
  ImmSmall, ///< binary op, constant RHS of 255 or less (ALUIS)
};

const char *formName(Form F) {
  return F == Form::Reg ? "reg" : F == Form::ImmLarge ? "imm64" : "imm8";
}

/// Lowers \p O in form \p F over operands \p A and \p B, checks the
/// ALU-family instruction got the specialised opcode byte exactly when
/// the op is listed, runs it, and compares the result with evalOp.
void checkOp(Op O, Form F, uint64_t A, uint64_t B) {
  unsigned Arity = opArity(O);
  Ty RT = opResultTy(O);
  alignas(8) uint8_t Gst[384] = {};
  std::memcpy(Gst + 0, &A, 8);
  std::memcpy(Gst + 8, &B, 8);
  IRSB SB;
  Expr *LHS = SB.get(0, opArgTy(O, 0));
  Expr *E = Arity == 1 ? SB.unop(O, LHS)
            : F == Form::Reg
                ? SB.binop(O, LHS, SB.get(8, opArgTy(O, 1)))
                : SB.binop(O, LHS, SB.mkConst(opArgTy(O, 1), B));
  SB.put(16, SB.rdTmp(SB.wrTmp(E)));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  // Deliberately NOT optimised: operands must flow through isel/exec.
  HostCode HC = selectInstructions(SB);
  allocateRegisters(HC);
  CodeBlob Blob;
  Blob.Bytes = encode(HC);

  HOp Want = Arity == 1           ? HOp::ALU1
             : F == Form::Reg     ? HOp::ALU
             : F == Form::ImmLarge ? HOp::ALUI
                                   : HOp::ALUIS;
  unsigned Seen = 0;
  walkOpcodes(Blob.Bytes, [&](uint32_t, uint8_t Byte, HOp Form) {
    if (Form != Want)
      return;
    ++Seen;
    EXPECT_EQ(Byte >= NumGenericOps, isSpecialisedOp(O))
        << opName(O) << " " << formName(F) << ": opcode byte "
        << unsigned(Byte);
  });
  EXPECT_EQ(Seen, 1u) << opName(O) << " " << formName(F);

  GuestMemory Mem;
  ExecContext Ctx;
  Ctx.GuestState = Gst;
  Ctx.Mem = &Mem;
  Executor Exec(Ctx, /*PCOffset=*/64);
  Exec.run(Blob);
  uint64_t Got = 0;
  unsigned Bytes = tySizeBits(RT) / 8;
  std::memcpy(&Got, Gst + 16, Bytes == 0 ? 1 : Bytes);
  if (RT == Ty::I1) // I1 puts store a single byte
    Got &= 1;
  uint64_t Expect = truncToTy(evalOp(O, A, B), RT);
  EXPECT_EQ(Got, Expect) << opName(O) << " " << formName(F) << "(0x"
                         << std::hex << A << ", 0x" << B << ")";
}

class OpProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(OpProperty, BackEndMatchesEvaluator) {
  Op O = static_cast<Op>(GetParam());
  bool Binary = opArity(O) == 2;
  Ty TA = opArgTy(O, 0), TB = Binary ? opArgTy(O, 1) : TA;
  // Operand pairs: every pair of edge values, then 16 random ones.
  std::vector<std::pair<uint64_t, uint64_t>> Pairs;
  for (uint64_t A : EdgeValues)
    for (uint64_t B : Binary ? std::vector<uint64_t>(std::begin(EdgeValues),
                                                     std::end(EdgeValues))
                             : std::vector<uint64_t>{0})
      Pairs.emplace_back(truncToTy(A, TA), truncToTy(B, TB));
  std::mt19937_64 Rng(GetParam() * 7919 + 3);
  for (int Trial = 0; Trial != 16; ++Trial) {
    uint64_t A = truncToTy(Rng(), TA);
    uint64_t B = Binary ? truncToTy(Rng(), TB) : 0;
    Pairs.emplace_back(A, B);
  }
  std::sort(Pairs.begin(), Pairs.end());
  Pairs.erase(std::unique(Pairs.begin(), Pairs.end()), Pairs.end());

  bool SawLarge = false, SawSmall = false;
  for (auto [A, B] : Pairs) {
    checkOp(O, Form::Reg, A, B);
    if (!Binary)
      continue;
    bool Large = B > 0xFF;
    checkOp(O, Large ? Form::ImmLarge : Form::ImmSmall, A, B);
    SawLarge |= Large;
    SawSmall |= !Large;
  }
  // Both immediate encodings ran, unless the RHS type cannot hold an
  // immediate above 255 (Encode.EveryListedOpIsSpecialisedInEveryForm
  // covers ALUI for those).
  if (Binary) {
    EXPECT_TRUE(SawSmall) << opName(O);
    EXPECT_EQ(SawLarge, tySizeBits(TB) > 8) << opName(O);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpProperty,
    ::testing::Range(0u, NumOps),
    [](const ::testing::TestParamInfo<unsigned> &I) {
      return opName(static_cast<Op>(I.param));
    });

// The encoder writes a specialised byte for every listed op in every form
// it has, including the reg-imm64 form of ops whose immediate is 8 bits
// wide in well-typed IR (so the sweep above cannot reach it); the decoder
// maps each back to its generic form and length, and each handler agrees
// with evalOp.
TEST(Encode, EveryListedOpIsSpecialisedInEveryForm) {
  struct Case {
    Op O;
    HOp Form;
    uint64_t Imm;
  };
  std::vector<Case> Cases;
#define VG_HVM_X(Name)                                                         \
  Cases.push_back({Op::Name, HOp::ALU, 0});                                    \
  Cases.push_back({Op::Name, HOp::ALUI, 0x3F000021ull});                       \
  Cases.push_back({Op::Name, HOp::ALUI, 0x21});
  VG_HVM_BINOPS(VG_HVM_X)
#undef VG_HVM_X
#define VG_HVM_X(Name) Cases.push_back({Op::Name, HOp::ALU1, 0});
  VG_HVM_UNOPS(VG_HVM_X)
#undef VG_HVM_X

  const uint64_t A = 0xC000000F80000007ull, B = 0x4000000000000023ull;
  for (const Case &C : Cases) {
    HostCode HC;
    HInstr LA = hi(HOp::LI), LB = hi(HOp::LI);
    LA.Dst = 0, LA.Imm = A;
    LB.Dst = 1, LB.Imm = B;
    HInstr I = hi(C.Form);
    I.IrOp = C.O, I.Dst = 2, I.A = 0, I.B = C.Form == HOp::ALU ? 1 : NoReg;
    I.Imm = C.Imm;
    HInstr Out = hi(HOp::STG);
    Out.A = 2, Out.Off = 0, Out.Size = 8;
    HC.Instrs = {LA, LB, I, Out, exitTo(0)};
    std::vector<uint8_t> Bytes = encode(HC);

    HOp Expected = C.Form == HOp::ALUI && C.Imm <= 0xFF ? HOp::ALUIS : C.Form;
    std::vector<uint32_t> Offsets;
    ASSERT_TRUE(walkOpcodes(Bytes, [&](uint32_t Off, uint8_t, HOp) {
      Offsets.push_back(Off);
    }));
    ASSERT_EQ(Offsets.size(), 5u);
    uint8_t Byte = Bytes[Offsets[2]];
    EXPECT_GE(Byte, NumGenericOps) << opName(C.O) << " form " << unsigned(C.Form);
    OpcodeInfo Info = opcodeInfo(Byte);
    EXPECT_EQ(Info.Form, Expected) << opName(C.O);
    EXPECT_EQ(Offsets[3] - Offsets[2], Info.Len) << opName(C.O);
    EXPECT_EQ(Info.Len, opcodeInfo(static_cast<uint8_t>(Expected)).Len);

    alignas(8) uint8_t Gst[384] = {};
    GuestMemory Mem;
    runHost(HC, Gst, Mem);
    uint64_t Got;
    std::memcpy(&Got, Gst, 8);
    uint64_t RHS = C.Form == HOp::ALU ? B : C.Imm;
    EXPECT_EQ(Got, evalOp(C.O, A, RHS))
        << opName(C.O) << " form " << unsigned(Expected);
  }
}

//===----------------------------------------------------------------------===//
// Superinstruction groups: every case is generated from VG_HVM_GROUPS, so a
// new row is checked as soon as it is listed
//===----------------------------------------------------------------------===//

HInstr separator() {
  HInstr I = hi(HOp::MOV);
  I.Dst = I.A = SepReg;
  return I;
}

/// The opcode byte \p I has alone.
uint8_t ownByte(HInstr I) {
  HostCode HC;
  if (I.Op == HOp::JZ)
    I.Label = 1;
  HC.Instrs = {I, exitTo(0)};
  return opcodeBytes(HC)[0];
}

/// The byte the group rules give \p Is[0]: the longest row whose member
/// bytes and forwarded registers \p Is begin with, found by trying every
/// row, else Is[0]'s own byte. The encoder must agree.
uint8_t expectedLead(const std::vector<HInstr> &Is) {
  uint8_t Best = ownByte(Is[0]);
  unsigned BestN = 0;
  for (unsigned G = 0; G != unsigned(Group::Count); ++G) {
    const GroupDef &D = GroupDefs[G];
    bool Fits = D.N <= Is.size() && D.N > BestN;
    for (unsigned J = 0; Fits && J != D.N; ++J) {
      const HInstr &I = Is[J];
      Fits = ownByte(I) == D.Members[J].Byte;
      if (Fits && D.Members[J].F == Fwd::A)
        Fits = I.A == Is[J - 1].Dst;
      if (Fits && D.Members[J].F == Fwd::Left)
        Fits = I.A == Is[J - 1].A && I.B == Is[J - 1].Dst &&
               Is[J - 1].A != Is[J - 1].Dst;
    }
    if (Fits) {
      Best = byteOf(static_cast<Group>(G));
      BestN = D.N;
    }
  }
  return Best;
}

/// The byte encode() gives the first of \p Is, followed by an exit; each
/// JZ among them targets that exit.
uint8_t encodedLead(std::vector<HInstr> Is) {
  for (HInstr &I : Is)
    if (I.Op == HOp::JZ)
      I.Label = static_cast<int32_t>(Is.size());
  HostCode HC;
  HC.Instrs = std::move(Is);
  HC.Instrs.push_back(exitTo(0));
  return opcodeBytes(HC)[0];
}

TEST(Encode, EveryRowGetsItsByteAndWinsOverItsPrefixes) {
  for (unsigned G = 0; G != unsigned(Group::Count); ++G) {
    const GroupDef &D = GroupDefs[G];
    std::vector<HInstr> Is = rowInstance(D, /*Target=*/D.N);
    HostCode HC;
    HC.Instrs = Is;
    HC.Instrs.push_back(exitTo(0));
    std::vector<uint8_t> Ops = opcodeBytes(HC);
    ASSERT_EQ(Ops.size(), D.N + 1u);
    EXPECT_EQ(Ops[0], byteOf(static_cast<Group>(G))) << rowName(G);
    // The lead decodes as its own instruction, the group covers every
    // member, and each member keeps the byte it has alone, or leads a row
    // of its own.
    std::vector<uint8_t> Bytes = encode(HC);
    OpcodeInfo Info = opcodeInfo(Ops[0]);
    EXPECT_EQ(Info.Form, Is[0].Op) << rowName(G);
    EXPECT_EQ(Info.Lead, ownByte(Is[0])) << rowName(G);
    EXPECT_EQ(Info.GroupLen, Bytes.size() - opcodeInfo(Ops.back()).Len)
        << rowName(G);
    for (unsigned J = 0; J != D.N; ++J)
      EXPECT_EQ(opcodeInfo(Ops[J]).Lead, D.Members[J].Byte)
          << rowName(G) << ", member " << J;
    // Every shorter prefix gets what the rules give it, which is never
    // this row's byte: a longer row wins only where it fits.
    for (unsigned N = 1; N != D.N; ++N) {
      std::vector<HInstr> Prefix(Is.begin(), Is.begin() + N);
      EXPECT_EQ(encodedLead(Prefix), expectedLead(Prefix))
          << rowName(G) << ", first " << N;
    }
  }
}

TEST(Encode, NearMissesOfEveryRowKeepTheirBytes) {
  unsigned Tried = 0;
  for (unsigned G = 0; G != unsigned(Group::Count); ++G) {
    const GroupDef &D = GroupDefs[G];
    for (const auto &[What, Miss] : nearMisses(D, /*Target=*/D.N)) {
      ++Tried;
      uint8_t Lead = encodedLead(Miss);
      EXPECT_NE(Lead, byteOf(static_cast<Group>(G))) << rowName(G) << ": "
                                                     << What;
      EXPECT_EQ(Lead, expectedLead(Miss)) << rowName(G) << ": " << What;
    }
  }
  EXPECT_GE(Tried, 2 * unsigned(Group::Count));
}

/// A program around row \p G's instance: h0..h9 set to distinct patterns
/// and h1 to \p Cond; the members, with separators between them unless
/// \p Fused; a tail that only the fall-through path of a final JZ runs; a
/// dump of h0..h9 to gst[160..240) and spill slots 0..4 to gst[256..296);
/// and a load that faults, so the run reports the PC of the last IMARK.
/// With \p JumpTo, a JZ first jumps to that member. Sets \p Region to the
/// indices of the members and the separators around them.
HostCode rowProgram(unsigned G, uint64_t Cond, bool Fused, int JumpTo,
                    std::pair<size_t, size_t> &Region) {
  const GroupDef &D = GroupDefs[G];
  HostCode HC;
  for (RegId R = 0; R != 10; ++R)
    HC.Instrs.push_back(li(R, 0xA5A5A5A500000000ull | (R * 0x1111)));
  HC.Instrs.push_back(li(InputReg, Cond));
  size_t JumpAt = 0;
  if (JumpTo > 0) {
    HC.Instrs.push_back(li(SepReg, 0));
    JumpAt = HC.Instrs.size();
    HC.Instrs.push_back(jz(SepReg, -1));
  }
  Region.first = HC.Instrs.size();
  HC.Instrs.push_back(separator());
  std::vector<size_t> MemberAt;
  for (const HInstr &I : rowInstance(D, -1)) {
    if (!Fused && !MemberAt.empty())
      HC.Instrs.push_back(separator());
    MemberAt.push_back(HC.Instrs.size());
    HC.Instrs.push_back(I);
  }
  HC.Instrs.push_back(separator());
  Region.second = HC.Instrs.size();
  HC.Instrs.push_back(li(5, 0x77));
  HC.Instrs.push_back(stg(248, 5, 8));
  auto Label = static_cast<int32_t>(HC.Instrs.size());
  for (size_t K : MemberAt)
    if (HC.Instrs[K].Op == HOp::JZ)
      HC.Instrs[K].Label = Label;
  if (JumpTo > 0)
    HC.Instrs[JumpAt].Label = static_cast<int32_t>(MemberAt[JumpTo]);
  for (RegId R = 0; R != 10; ++R)
    HC.Instrs.push_back(stg(160 + 8 * R, R, 8));
  for (uint32_t Slot = 0; Slot != MaxMembers; ++Slot) {
    HInstr Reload = hi(HOp::RELOAD);
    Reload.Dst = SepReg, Reload.Off = Slot;
    HC.Instrs.push_back(Reload);
    HC.Instrs.push_back(stg(256 + 8 * Slot, SepReg, 8));
  }
  HC.Instrs.push_back(li(SepReg, 0x00990000));
  HC.Instrs.push_back(ldm(SepReg, SepReg));
  HC.Instrs.push_back(exitTo(0));
  return HC;
}

// Each row's handler does exactly what its members do one by one: the
// same program with a separator between the members (so none is fused)
// leaves the same registers, guest state, spill slots and fault PC, in
// both directions of a final JZ, also when a JZ lands on a later member
// (which then runs as encoded: alone, or leading a row of its own).
TEST(Exec, EveryRowRunsLikeItsMembersSplit) {
  for (unsigned G = 0; G != unsigned(Group::Count); ++G) {
    for (int JumpTo = 0; JumpTo != GroupDefs[G].N; ++JumpTo) {
      for (uint64_t Cond : {0ull, 1ull, 2ull, 0xFFFFFFFFFFFFFFFFull}) {
        alignas(8) uint8_t Result[2][384];
        uint32_t FaultPC[2];
        for (bool Fused : {true, false}) {
          std::pair<size_t, size_t> Region;
          HostCode HC = rowProgram(G, Cond, Fused, JumpTo, Region);
          std::vector<uint8_t> Ops = opcodeBytes(HC);
          // Fused, the lead has the row's byte; split, no separator joins
          // a member to a row, nor the instructions around them.
          for (size_t K = Region.first; K != Region.second; ++K) {
            if (Fused && K == Region.first + 1) {
              EXPECT_EQ(Ops[K], byteOf(static_cast<Group>(G))) << rowName(G);
            } else if (!Fused) {
              EXPECT_LT(Ops[K], FirstGroupByte)
                  << rowName(G) << ", split, instruction " << K;
            }
          }
          uint8_t *Gst = Result[Fused];
          std::memset(Gst, 0xCC, 384);
          for (uint32_t Off = 8; Off != 64; Off += 8) {
            uint64_t Src = 0x89ABCDEF01234567ull * Off;
            std::memcpy(Gst + Off, &Src, 8);
          }
          GuestMemory Mem;
          RunOutcome O = runHost(HC, Gst, Mem);
          EXPECT_EQ(O.K, RunOutcome::Kind::Fault) << rowName(G);
          FaultPC[Fused] = O.FaultPC;
        }
        EXPECT_EQ(std::memcmp(Result[0], Result[1], 384), 0)
            << rowName(G) << ", condition 0x" << std::hex << Cond
            << ", entered at member " << std::dec << JumpTo;
        EXPECT_EQ(FaultPC[0], FaultPC[1])
            << rowName(G) << ", entered at member " << JumpTo;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Chained transfers: the executor follows a filled slot itself and calls
// back only at a check point
//===----------------------------------------------------------------------===//

/// A one-slot blob that stores \p Mark to gst[0] and leaves through a
/// Boring EXITI to \p Target in slot 0, its slot still unfilled.
CodeBlob chainBlob(uint32_t Mark, uint32_t Target) {
  HostCode HC;
  HC.Instrs = {li(1, Mark), stg(0, 1, 4), exitTo(Target)};
  CodeBlob B;
  B.Bytes = encode(HC);
  B.NumChainSlots = 1;
  B.ChainTargets = {Target};
  B.Chain = {nullptr};
  B.EdgeExecs = {0};
  return B;
}

/// Counts its calls and returns Next; does none of the core's counting.
struct ChainCallback {
  unsigned Calls = 0;
  void *Cookie = nullptr;
  uint32_t Slot = ~0u;
  CodeBlob *Next = nullptr;

  static CodeBlob *call(void *User, void *Cookie, uint32_t Slot) {
    auto *CB = static_cast<ChainCallback *>(User);
    ++CB->Calls;
    CB->Cookie = Cookie;
    CB->Slot = Slot;
    return CB->Next;
  }
};

/// Two blobs, A at 0x1000 and B at 0x2000, each exiting to the other.
struct ChainPair {
  CodeBlob A = chainBlob(0xA, 0x2000), B = chainBlob(0xB, 0x1000);
  alignas(8) uint8_t Gst[384] = {};
  GuestMemory Mem;
  ExecContext Ctx;
  ChainCallback CB;
  Executor Exec{Ctx, /*PCOffset=*/64};

  ChainPair() {
    A.Cookie = &A;
    B.Cookie = &B;
    Ctx.GuestState = Gst;
    Ctx.Mem = &Mem;
    Exec.setChaining(&ChainCallback::call, &CB);
  }
  uint32_t mark() const {
    uint32_t V;
    std::memcpy(&V, Gst, 4);
    return V;
  }
};

TEST(ExecChain, FilledSlotIsEnteredWithoutTheCallback) {
  ChainPair P;
  P.A.Chain[0] = &P.B;
  P.B.Chain[0] = &P.A;
  // Budget 1: A enters B, and B's exit finds the budget spent.
  RunOutcome O = P.Exec.run(P.A, /*ChainBudget=*/1);
  EXPECT_EQ(P.CB.Calls, 0u);
  EXPECT_EQ(O.BlocksExecuted, 2u);
  EXPECT_EQ(O.ExitCookie, &P.B);
  EXPECT_EQ(O.ExitSlot, 0u);
  EXPECT_EQ(O.NextPC, 0x1000u);
  EXPECT_EQ(P.mark(), 0xBu);
  EXPECT_EQ(P.B.ExecCount, 1u);
  EXPECT_EQ(P.A.EdgeExecs[0], 1u);
  EXPECT_EQ(P.A.ExecCount, 0u) << "the run's first entry is the caller's";
  EXPECT_EQ(P.B.EdgeExecs[0], 0u);
  // Budget 3: three transfers, each counted once on each side.
  O = P.Exec.run(P.A, /*ChainBudget=*/3);
  EXPECT_EQ(P.CB.Calls, 0u);
  EXPECT_EQ(O.BlocksExecuted, 4u);
  EXPECT_EQ(O.ExitCookie, &P.B);
  EXPECT_EQ(P.B.ExecCount, 3u);
  EXPECT_EQ(P.A.ExecCount, 1u);
  EXPECT_EQ(P.A.EdgeExecs[0], 3u);
  EXPECT_EQ(P.B.EdgeExecs[0], 1u);
}

TEST(ExecChain, BudgetZeroStopsAtTheExit) {
  ChainPair P;
  P.A.Chain[0] = &P.B;
  RunOutcome O = P.Exec.run(P.A, /*ChainBudget=*/0);
  EXPECT_EQ(O.BlocksExecuted, 1u);
  EXPECT_EQ(O.ExitCookie, &P.A);
  EXPECT_EQ(O.ExitSlot, 0u);
  EXPECT_EQ(O.NextPC, 0x2000u);
  EXPECT_EQ(P.mark(), 0xAu);
  EXPECT_EQ(P.CB.Calls, 0u);
  EXPECT_EQ(P.B.ExecCount, 0u);
  EXPECT_EQ(P.A.EdgeExecs[0], 0u);
}

TEST(ExecChain, UnfilledSlotReturnsItsExitSlot) {
  ChainPair P;
  RunOutcome O = P.Exec.run(P.A, /*ChainBudget=*/5);
  EXPECT_EQ(O.K, RunOutcome::Kind::BlockEnd);
  EXPECT_EQ(O.BlocksExecuted, 1u);
  EXPECT_EQ(O.ExitCookie, &P.A);
  EXPECT_EQ(O.ExitSlot, 0u);
  EXPECT_EQ(O.NextPC, 0x2000u);
  EXPECT_EQ(P.CB.Calls, 0u);
  EXPECT_EQ(P.A.EdgeExecs[0], 0u);
}

TEST(ExecChain, CheckPointCallsBackOnce) {
  ChainPair P;
  P.A.Chain[0] = &P.B;
  P.B.Chain[0] = &P.A;
  P.B.CheckPoint = 2;
  // A -> B (B's first entry), B -> A, then A -> B would be B's second:
  // the callback runs instead, and its null ends the run at A's exit.
  RunOutcome O = P.Exec.run(P.A, /*ChainBudget=*/10);
  EXPECT_EQ(P.CB.Calls, 1u);
  EXPECT_EQ(P.CB.Cookie, &P.A);
  EXPECT_EQ(P.CB.Slot, 0u);
  EXPECT_EQ(O.BlocksExecuted, 3u);
  EXPECT_EQ(O.ExitCookie, &P.A);
  EXPECT_EQ(O.ExitSlot, 0u);
  EXPECT_EQ(O.NextPC, 0x2000u);
  EXPECT_EQ(P.B.ExecCount, 1u);
  EXPECT_EQ(P.A.ExecCount, 1u);
  EXPECT_EQ(P.A.EdgeExecs[0], 1u);
  EXPECT_EQ(P.B.EdgeExecs[0], 1u);

  // A callback that returns a blob is entered, for one unit of budget,
  // and the counting is left to it.
  P.CB.Next = &P.B;
  O = P.Exec.run(P.A, /*ChainBudget=*/1);
  EXPECT_EQ(P.CB.Calls, 2u);
  EXPECT_EQ(O.BlocksExecuted, 2u);
  EXPECT_EQ(O.ExitCookie, &P.B);
  EXPECT_EQ(P.mark(), 0xBu);
  EXPECT_EQ(P.B.ExecCount, 1u);
  EXPECT_EQ(P.A.EdgeExecs[0], 1u);
}

TEST(ExecChain, CheckPointZeroCallsBackAtEveryChainedExit) {
  // An exiting blob whose own check point is 0 calls back even where its
  // slot is unfilled (a trace counts its side exits there).
  ChainPair P;
  P.A.CheckPoint = 0;
  RunOutcome O = P.Exec.run(P.A, /*ChainBudget=*/5);
  EXPECT_EQ(P.CB.Calls, 1u);
  EXPECT_EQ(O.BlocksExecuted, 1u);
  EXPECT_EQ(O.ExitCookie, &P.A);
  // Without a callback, chaining is off: a filled slot is not followed.
  ChainPair Q;
  Q.A.Chain[0] = &Q.B;
  Executor Plain(Q.Ctx, /*PCOffset=*/64);
  O = Plain.run(Q.A, /*ChainBudget=*/5);
  EXPECT_EQ(O.BlocksExecuted, 1u);
  EXPECT_EQ(Q.B.ExecCount, 0u);
}

TEST(Encode, DecoderRejectsBytesTheEncoderNeverWrites) {
  for (HOp Unsized : {HOp::LDG, HOp::STG, HOp::LDM, HOp::STM})
    EXPECT_EQ(opcodeInfo(static_cast<uint8_t>(Unsized)).Len, 0u);
  for (unsigned Byte = NumOpcodes; Byte != 256; ++Byte)
    EXPECT_EQ(opcodeInfo(static_cast<uint8_t>(Byte)).Len, 0u);
  std::vector<uint32_t> Slots;
  EXPECT_FALSE(findCalleeSlots({static_cast<uint8_t>(HOp::LDG), 0, 0, 0, 0,
                                0, 4},
                               Slots));
  EXPECT_FALSE(findCalleeSlots({static_cast<uint8_t>(NumOpcodes)}, Slots));
}

} // namespace
