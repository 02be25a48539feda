//===-- hvm/Exec.cpp - The HVM executor -----------------------------------==//
///
/// Threaded-code execution of encoded translations. Uses computed-goto
/// dispatch (the classic direct-threaded interpreter technique) so that
/// thin ALU operations cost little more than their useful work — which is
/// what makes the cost ratios between inline analysis code, C-call
/// analysis code, and client code representative (Section 5.4).
///
/// One dispatch per host instruction, or per superinstruction group:
/// every opcode byte has its own handler, and the encoder writes a
/// specialised byte for hot ir::Ops and for every access size (HostVM.h),
/// so no handler switches a second time on an op or a size. Where a listed
/// group of adjacent instructions starts, the encoder writes the group's
/// byte instead, and one handler runs all its members. The generic ALU
/// handlers serve the long tail of ops through ir::evalOp.
///
/// No handler spells out a field offset or an instruction length: each
/// reads At<form, field> and steps by Len<form>, compile-time constants
/// derived from VG_HVM_FORMS (HostVM.h), so the machine code is what
/// literal offsets would give.
///
//===----------------------------------------------------------------------===//

#include "hvm/Exec.h"

#include "guest/GuestMemory.h"
#include "hvm/HostVM.h"
#include "shadow/ShadowMemory.h"
#include "support/FpCanon.h"

#include <bit>
#include <cstring>

using namespace vg;
using namespace vg::hvm;

namespace {

uint16_t rdU16(const uint8_t *P) {
  uint16_t V;
  std::memcpy(&V, P, 2);
  return V;
}

uint32_t rdU32(const uint8_t *P) {
  uint32_t V;
  std::memcpy(&V, P, 4);
  return V;
}

uint64_t rdU64(const uint8_t *P) {
  uint64_t V;
  std::memcpy(&V, P, 8);
  return V;
}

template <unsigned N> struct UIntOf;
template <> struct UIntOf<1> { using T = uint8_t; };
template <> struct UIntOf<2> { using T = uint16_t; };
template <> struct UIntOf<4> { using T = uint32_t; };
template <> struct UIntOf<8> { using T = uint64_t; };
template <unsigned N> using UInt = typename UIntOf<N>::T;

double asF64(uint64_t Bits) { return std::bit_cast<double>(Bits); }
uint64_t fromF64(double D) { return std::bit_cast<uint64_t>(D); }

/// The semantics of every op with specialised handlers (VG_HVM_BINOPS,
/// VG_HVM_UNOPS), written once. Each handler passes its op as a constant,
/// so the switch folds away and the handler is just the operation. Must
/// agree with ir::evalOp, which serves the generic handlers; OpProperty in
/// tests/HvmTests.cpp checks every op in every form against it.
[[gnu::always_inline]] inline uint64_t aluOp(ir::Op O, uint64_t A,
                                             uint64_t B) {
  using ir::Op;
  switch (O) {
  case Op::Add32:
    return static_cast<uint32_t>(A + B);
  case Op::Sub32:
    return static_cast<uint32_t>(A - B);
  case Op::And32:
    return static_cast<uint32_t>(A & B);
  case Op::Or32:
    return static_cast<uint32_t>(A | B);
  case Op::Xor32:
    return static_cast<uint32_t>(A ^ B);
  case Op::Mul32:
    return static_cast<uint32_t>(A * B);
  case Op::Shl32:
    return static_cast<uint32_t>(A << (B & 31));
  case Op::Shr32:
    return static_cast<uint32_t>(static_cast<uint32_t>(A) >> (B & 31));
  case Op::Sar32:
    return static_cast<uint32_t>(static_cast<int32_t>(A) >> (B & 31));
  case Op::Add64:
    return A + B;
  case Op::Or64:
    return A | B;
  case Op::And64:
    return A & B;
  case Op::CmpEQ32:
    return static_cast<uint32_t>(A) == static_cast<uint32_t>(B);
  case Op::CmpNE32:
    return static_cast<uint32_t>(A) != static_cast<uint32_t>(B);
  case Op::CmpLT32S:
    return static_cast<int32_t>(A) < static_cast<int32_t>(B);
  case Op::CmpLE32S:
    return static_cast<int32_t>(A) <= static_cast<int32_t>(B);
  case Op::CmpLT32U:
    return static_cast<uint32_t>(A) < static_cast<uint32_t>(B);
  case Op::CmpLE32U:
    return static_cast<uint32_t>(A) <= static_cast<uint32_t>(B);
  // F64 results are NaN-canonicalised exactly as evalOp does
  // (support/FpCanon.h).
  case Op::AddF64:
    return fromF64(canonF64(asF64(A) + asF64(B)));
  case Op::SubF64:
    return fromF64(canonF64(asF64(A) - asF64(B)));
  case Op::MulF64:
    return fromF64(canonF64(asF64(A) * asF64(B)));
  case Op::CmpNEZ32:
    return (A & 0xFFFFFFFFull) != 0;
  case Op::U1to32:
    return A & 1;
  case Op::Neg32:
    return static_cast<uint32_t>(0 - A);
  case Op::CmpNEZ64:
    return A != 0;
  case Op::U1to64:
    return A & 1;
  case Op::Neg64:
    return 0 - A;
  case Op::T64to32:
    return A & 0xFFFFFFFFull;
  case Op::T64HIto32:
    return A >> 32;
  case Op::T32to8:
    return A & 0xFF;
  case Op::U8to32:
    return A & 0xFF;
  default:
    unreachable("aluOp: op has no specialised handler");
  }
}

RunOutcome &memFault(RunOutcome &Out, const MemFault &F, bool Write,
                     uint32_t PC) {
  Out.K = RunOutcome::Kind::Fault;
  Out.FaultAddr = F.Addr;
  Out.FaultWrite = Write;
  Out.FaultPC = PC;
  return Out;
}

} // namespace

RunOutcome Executor::run(CodeBlob &Blob, uint64_t ChainBudget) {
  RunOutcome Out;
  CodeBlob *Cur = &Blob;
  if (!ChainFn)
    ChainBudget = 0; // chaining is off: every exit returns
  const uint8_t *Code = Cur->Bytes.data();
  size_t Ip = 0;
  uint32_t CurPC = 0;
  ++Out.BlocksExecuted;

  uint8_t *Gst = Ctx.GuestState;
  GuestMemory &Mem = *Ctx.Mem;
  void *Env = &Ctx;
  uint64_t *R = Regs;

  // Label table indexed by opcode byte: the generic forms in VG_HVM_FORMS
  // order, then the SpecOps and the groups in their HostVM.h order.
  // Unsized accesses are never encoded (every size has its own byte), so
  // their four generic entries share one label.
#define L_LDG L_UNSIZED
#define L_STG L_UNSIZED
#define L_LDM L_UNSIZED
#define L_STM L_UNSIZED
  static const void *const Table[] = {
#define VG_HVM_X(Name, ...) &&L_##Name,
      VG_HVM_FORMS(VG_HVM_X)
#undef VG_HVM_X
#define VG_HVM_X(Form, Size) &&L_##Form##Size,
      VG_HVM_SIZED_OPS(VG_HVM_X)
#undef VG_HVM_X
#define VG_HVM_X(O) &&L_ALU_##O, &&L_ALUI_##O, &&L_ALUIS_##O,
      VG_HVM_BINOPS(VG_HVM_X)
#undef VG_HVM_X
#define VG_HVM_X(O) &&L_ALU1_##O,
      VG_HVM_UNOPS(VG_HVM_X)
#undef VG_HVM_X
#define VG_HVM_X(Name, M0, M1, M2) &&L_G_##Name,
      VG_HVM_GROUPS(VG_HVM_X)
#undef VG_HVM_X
  };
#undef L_LDG
#undef L_STG
#undef L_LDM
#undef L_STM
  static_assert(sizeof(Table) / sizeof(Table[0]) == NumOpcodes,
                "label table out of step with the opcode bytes");

#define DISPATCH() goto *Table[Code[Ip]]

  DISPATCH();

L_LI:
  R[Code[Ip + At<HOp::LI, Fld::Dst>]] =
      rdU64(Code + Ip + At<HOp::LI, Fld::Imm64>);
  Ip += Len<HOp::LI>;
  DISPATCH();

L_MOV:
  R[Code[Ip + At<HOp::MOV, Fld::Dst>]] = R[Code[Ip + At<HOp::MOV, Fld::A>]];
  Ip += Len<HOp::MOV>;
  DISPATCH();

  // Generic ALU forms: the long tail of ops, evaluated by ir::evalOp.
L_ALU:
  R[Code[Ip + At<HOp::ALU, Fld::Dst>]] = ir::evalOp(
      static_cast<ir::Op>(rdU16(Code + Ip + At<HOp::ALU, Fld::IrOp>)),
      R[Code[Ip + At<HOp::ALU, Fld::A>]], R[Code[Ip + At<HOp::ALU, Fld::B>]]);
  Ip += Len<HOp::ALU>;
  DISPATCH();

L_ALU1:
  R[Code[Ip + At<HOp::ALU1, Fld::Dst>]] = ir::evalOp(
      static_cast<ir::Op>(rdU16(Code + Ip + At<HOp::ALU1, Fld::IrOp>)),
      R[Code[Ip + At<HOp::ALU1, Fld::A>]], 0);
  Ip += Len<HOp::ALU1>;
  DISPATCH();

L_ALUI:
  R[Code[Ip + At<HOp::ALUI, Fld::Dst>]] = ir::evalOp(
      static_cast<ir::Op>(rdU16(Code + Ip + At<HOp::ALUI, Fld::IrOp>)),
      R[Code[Ip + At<HOp::ALUI, Fld::A>]],
      rdU64(Code + Ip + At<HOp::ALUI, Fld::Imm64>));
  Ip += Len<HOp::ALUI>;
  DISPATCH();

L_ALUIS:
  R[Code[Ip + At<HOp::ALUIS, Fld::Dst>]] = ir::evalOp(
      static_cast<ir::Op>(rdU16(Code + Ip + At<HOp::ALUIS, Fld::IrOp>)),
      R[Code[Ip + At<HOp::ALUIS, Fld::A>]],
      Code[Ip + At<HOp::ALUIS, Fld::Imm8>]);
  Ip += Len<HOp::ALUIS>;
  DISPATCH();

  // Specialised ALU forms: same layouts, the op fixed by the opcode byte.
#define VG_HVM_X(O)                                                            \
  L_ALU_##O:                                                                   \
  R[Code[Ip + At<HOp::ALU, Fld::Dst>]] =                                       \
      aluOp(ir::Op::O, R[Code[Ip + At<HOp::ALU, Fld::A>]],                     \
            R[Code[Ip + At<HOp::ALU, Fld::B>]]);                               \
  Ip += Len<HOp::ALU>;                                                         \
  DISPATCH();                                                                  \
  L_ALUI_##O:                                                                  \
  R[Code[Ip + At<HOp::ALUI, Fld::Dst>]] =                                      \
      aluOp(ir::Op::O, R[Code[Ip + At<HOp::ALUI, Fld::A>]],                    \
            rdU64(Code + Ip + At<HOp::ALUI, Fld::Imm64>));                     \
  Ip += Len<HOp::ALUI>;                                                        \
  DISPATCH();                                                                  \
  L_ALUIS_##O:                                                                 \
  R[Code[Ip + At<HOp::ALUIS, Fld::Dst>]] =                                     \
      aluOp(ir::Op::O, R[Code[Ip + At<HOp::ALUIS, Fld::A>]],                   \
            Code[Ip + At<HOp::ALUIS, Fld::Imm8>]);                             \
  Ip += Len<HOp::ALUIS>;                                                       \
  DISPATCH();
  VG_HVM_BINOPS(VG_HVM_X)
#undef VG_HVM_X

#define VG_HVM_X(O)                                                            \
  L_ALU1_##O:                                                                  \
  R[Code[Ip + At<HOp::ALU1, Fld::Dst>]] =                                      \
      aluOp(ir::Op::O, R[Code[Ip + At<HOp::ALU1, Fld::A>]], 0);                \
  Ip += Len<HOp::ALU1>;                                                        \
  DISPATCH();
  VG_HVM_UNOPS(VG_HVM_X)
#undef VG_HVM_X

  // Sized accesses: the opcode byte fixes the width; values are
  // zero-extended into the 64-bit register.
#define VG_HVM_LDG(Size)                                                       \
  L_LDG##Size: {                                                               \
    UInt<Size> W;                                                              \
    std::memcpy(&W, Gst + rdU32(Code + Ip + At<HOp::LDG, Fld::Off>), Size);    \
    R[Code[Ip + At<HOp::LDG, Fld::Dst>]] = W;                                  \
    Ip += Len<HOp::LDG>;                                                       \
    DISPATCH();                                                                \
  }
#define VG_HVM_STG(Size)                                                       \
  L_STG##Size: {                                                               \
    auto W = static_cast<UInt<Size>>(R[Code[Ip + At<HOp::STG, Fld::A>]]);      \
    std::memcpy(Gst + rdU32(Code + Ip + At<HOp::STG, Fld::Off>), &W, Size);    \
    Ip += Len<HOp::STG>;                                                       \
    DISPATCH();                                                                \
  }
#define VG_HVM_LDM(Size)                                                       \
  L_LDM##Size: {                                                               \
    uint32_t Addr =                                                            \
        static_cast<uint32_t>(R[Code[Ip + At<HOp::LDM, Fld::A>]]) +            \
        rdU32(Code + Ip + At<HOp::LDM, Fld::Disp>);                            \
    UInt<Size> W = 0;                                                          \
    if (MemFault F = Mem.readT(Addr, W); F.Faulted)                            \
      return memFault(Out, F, /*Write=*/false, CurPC);                         \
    R[Code[Ip + At<HOp::LDM, Fld::Dst>]] = W;                                  \
    Ip += Len<HOp::LDM>;                                                       \
    DISPATCH();                                                                \
  }
#define VG_HVM_STM(Size)                                                       \
  L_STM##Size: {                                                               \
    uint32_t Addr =                                                            \
        static_cast<uint32_t>(R[Code[Ip + At<HOp::STM, Fld::A>]]) +            \
        rdU32(Code + Ip + At<HOp::STM, Fld::Disp>);                            \
    auto W = static_cast<UInt<Size>>(R[Code[Ip + At<HOp::STM, Fld::B>]]);      \
    if (MemFault F = Mem.writeT(Addr, W); F.Faulted)                           \
      return memFault(Out, F, /*Write=*/true, CurPC);                          \
    Ip += Len<HOp::STM>;                                                       \
    DISPATCH();                                                                \
  }
#define VG_HVM_X(Form, Size) VG_HVM_##Form(Size)
  VG_HVM_SIZED_OPS(VG_HVM_X)
#undef VG_HVM_X
#undef VG_HVM_LDG
#undef VG_HVM_STG
#undef VG_HVM_LDM
#undef VG_HVM_STM

L_UNSIZED:
  unreachable("HVM: unsized guest-state or memory access in encoded code");

L_SEL:
  R[Code[Ip + At<HOp::SEL, Fld::Dst>]] =
      R[Code[Ip + At<HOp::SEL, Fld::A>]] ? R[Code[Ip + At<HOp::SEL, Fld::B>]]
                                         : R[Code[Ip + At<HOp::SEL, Fld::C>]];
  Ip += Len<HOp::SEL>;
  DISPATCH();

L_CALL: {
  const ir::Callee *C = reinterpret_cast<const ir::Callee *>(
      rdU64(Code + Ip + At<HOp::CALL, Fld::Callee>));
  uint8_t Dst = Code[Ip + At<HOp::CALL, Fld::OptDst>];
  uint8_t N = Code[Ip + At<HOp::CALL, Fld::NArgs>];
  uint64_t A[4] = {};
  for (unsigned J = 0; J != N; ++J)
    A[J] = R[Code[Ip + At<HOp::CALL, Fld::Args> + J]];
  // The helper-call ABI: the caller's full register context is saved to
  // the call frame and callee-saved state restored afterwards — the
  // register save/restore traffic a real JIT's call sequences perform
  // (and the reason C-call analysis code costs more than inline analysis
  // code, Section 5.4). Caller-saved registers come back poisoned so any
  // allocator violation fails loudly.
  // Per-register stores/loads, as a JIT-emitted save sequence would be.
  uint64_t SaveArea[NumHostRegs];
#pragma GCC unroll 1
  for (unsigned J = 0; J != NumHostRegs; ++J)
    SaveArea[J] = R[J];
  uint64_t Ret = C->Fn(Env, A[0], A[1], A[2], A[3]);
#pragma GCC unroll 1
  for (unsigned J = NumCallerSaved; J != NumHostRegs; ++J)
    R[J] = SaveArea[J];
  for (unsigned J = 0; J != NumCallerSaved; ++J)
    R[J] = 0xDEADDEADDEADDEADull;
  if (Dst != 0xFF)
    R[Dst] = Ret;
  Ip += Len<HOp::CALL>;
  DISPATCH();
}

L_JZ:
  if (R[Code[Ip + At<HOp::JZ, Fld::A>]] == 0)
    Ip = rdU32(Code + Ip + At<HOp::JZ, Fld::Label>);
  else
    Ip += Len<HOp::JZ>;
  DISPATCH();

L_EXITI: {
  uint32_t NextPC = rdU32(Code + Ip + At<HOp::EXITI, Fld::Imm32>);
  ir::JumpKind JK =
      static_cast<ir::JumpKind>(Code[Ip + At<HOp::EXITI, Fld::JKind>]);
  uint32_t Slot = rdU32(Code + Ip + At<HOp::EXITI, Fld::ChainSlot>);
  std::memcpy(Gst + PCOffset, &NextPC, 4);
  // Chaining: transfer directly into the successor translation. A filled
  // slot is followed here, counted in the successor's ExecCount and the
  // slot's EdgeExecs; at a check point the callback does the core's
  // bookkeeping (and the counting) instead, or ends the run at this exit.
  if (JK == ir::JumpKind::Boring && ChainBudget > 0) {
    CodeBlob *Next = Cur->Chain[Slot];
    if (Cur->CheckPoint == 0 ||
        (Next && Next->ExecCount + 1 >= Next->CheckPoint)) {
      Next = ChainFn(ChainUser, Cur->Cookie, Slot);
    } else if (Next) {
      ++Next->ExecCount;
      ++Cur->EdgeExecs[Slot];
    }
    if (Next) {
      --ChainBudget;
      ++Out.BlocksExecuted;
      Cur = Next;
      Code = Cur->Bytes.data();
      Ip = 0;
      DISPATCH();
    }
  }
  Out.K = RunOutcome::Kind::BlockEnd;
  Out.NextPC = NextPC;
  Out.JK = JK;
  Out.ExitCookie = Cur->Cookie;
  Out.ExitSlot = Slot;
  return Out;
}

L_EXITR: {
  uint32_t NextPC = static_cast<uint32_t>(R[Code[Ip + At<HOp::EXITR, Fld::A>]]);
  ir::JumpKind JK =
      static_cast<ir::JumpKind>(Code[Ip + At<HOp::EXITR, Fld::JKind>]);
  std::memcpy(Gst + PCOffset, &NextPC, 4);
  Out.K = RunOutcome::Kind::BlockEnd;
  Out.NextPC = NextPC;
  Out.JK = JK;
  Out.ExitCookie = Cur->Cookie;
  Out.ExitSlot = ~0u;
  return Out;
}

L_IMARK:
  CurPC = rdU32(Code + Ip + At<HOp::IMARK, Fld::Imm32>);
  Ip += Len<HOp::IMARK>;
  DISPATCH();

L_SPILL:
  Frame[rdU32(Code + Ip + At<HOp::SPILL, Fld::Off>)] =
      R[Code[Ip + At<HOp::SPILL, Fld::A>]];
  Ip += Len<HOp::SPILL>;
  DISPATCH();

L_RELOAD:
  R[Code[Ip + At<HOp::RELOAD, Fld::Dst>]] =
      Frame[rdU32(Code + Ip + At<HOp::RELOAD, Fld::Off>)];
  Ip += Len<HOp::RELOAD>;
  DISPATCH();

  // Superinstruction groups (VG_HVM_GROUPS): each handler does the work of
  // every member, then jumps past them all. A member's fields start at
  // Ip plus the Lens of the members before it; a member reads the register
  // its predecessor writes, which encode() and checkOperands guarantee.
L_G_LI_STG4: { // LI d, imm; STG4 off, d
  constexpr unsigned St = Len<HOp::LI>;
  uint64_t V = rdU64(Code + Ip + At<HOp::LI, Fld::Imm64>);
  R[Code[Ip + At<HOp::LI, Fld::Dst>]] = V;
  auto W = static_cast<uint32_t>(V);
  std::memcpy(Gst + rdU32(Code + Ip + St + At<HOp::STG, Fld::Off>), &W, 4);
  Ip += St + Len<HOp::STG>;
  DISPATCH();
}

L_G_GUARD: { // U1to32 t, c; CmpNEZ32 g, t; JZ g, L
  constexpr unsigned Cmp = Len<HOp::ALU1>, Jz = Cmp + Len<HOp::ALU1>;
  uint64_t T = R[Code[Ip + At<HOp::ALU1, Fld::A>]] & 1;
  R[Code[Ip + At<HOp::ALU1, Fld::Dst>]] = T;
  // t is 0 or 1, so CmpNEZ32 leaves it as it is.
  R[Code[Ip + Cmp + At<HOp::ALU1, Fld::Dst>]] = T;
  Ip = T ? Ip + Jz + Len<HOp::JZ>
         : rdU32(Code + Ip + Jz + At<HOp::JZ, Fld::Label>);
  DISPATCH();
}

L_G_IMARK_LI_STG4: { // IMARK pc; LI d, imm; STG4 off, d
  constexpr unsigned Li = Len<HOp::IMARK>, St = Li + Len<HOp::LI>;
  CurPC = rdU32(Code + Ip + At<HOp::IMARK, Fld::Imm32>);
  uint64_t V = rdU64(Code + Ip + Li + At<HOp::LI, Fld::Imm64>);
  R[Code[Ip + Li + At<HOp::LI, Fld::Dst>]] = V;
  auto W = static_cast<uint32_t>(V);
  std::memcpy(Gst + rdU32(Code + Ip + St + At<HOp::STG, Fld::Off>), &W, 4);
  Ip += St + Len<HOp::STG>;
  DISPATCH();
}

L_G_IMARK_LDG4: { // IMARK pc; LDG4 d, off
  constexpr unsigned Ld = Len<HOp::IMARK>;
  CurPC = rdU32(Code + Ip + At<HOp::IMARK, Fld::Imm32>);
  uint32_t W;
  std::memcpy(&W, Gst + rdU32(Code + Ip + Ld + At<HOp::LDG, Fld::Off>), 4);
  R[Code[Ip + Ld + At<HOp::LDG, Fld::Dst>]] = W;
  Ip += Ld + Len<HOp::LDG>;
  DISPATCH();
}

L_G_IMARK_IMARK: { // IMARK pc0; IMARK pc1: only pc1 is ever reported
  constexpr unsigned Second = Len<HOp::IMARK>;
  CurPC = rdU32(Code + Ip + Second + At<HOp::IMARK, Fld::Imm32>);
  Ip += Second + Len<HOp::IMARK>;
  DISPATCH();
}

L_SHPROBE: {
  // Inline shadow-memory probe: runs in-line with no register save/restore
  // or caller-saved poisoning — the defining cost difference from a CALL
  // (Section 5.4, inline vs C-call analysis code).
  uint32_t Addr =
      static_cast<uint32_t>(R[Code[Ip + At<HOp::SHPROBE, Fld::A>]]);
  ShadowMap *SM = Ctx.ShadowSM;
  uint64_t Res;
  if (Code[Ip + At<HOp::SHPROBE, Fld::Imm8>] & 1) {
    uint32_t VWord =
        static_cast<uint32_t>(R[Code[Ip + At<HOp::SHPROBE, Fld::OptB>]]);
    Res = SM ? SM->probeStoreW32(Addr, VWord) : 1;
  } else {
    Res = SM ? SM->probeLoadW32(Addr) : ShadowMap::ProbeSlow;
  }
  R[Code[Ip + At<HOp::SHPROBE, Fld::Dst>]] = Res;
  Ip += Len<HOp::SHPROBE>;
  DISPATCH();
}

#undef DISPATCH
}
