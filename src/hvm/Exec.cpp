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
/// row of adjacent instructions starts, the encoder writes the row's byte
/// instead, and one handler runs all its members. The generic ALU
/// handlers serve the long tail of ops through ir::evalOp.
///
/// Each instruction that may join a row is written once, as a step; its
/// own byte's handler and every row's handler are generated from the
/// steps, so a new row is one line in VG_HVM_GROUPS. No handler spells out
/// a field offset or an instruction length: each reads At<form, field> and
/// steps by Len<form>, compile-time constants derived from VG_HVM_FORMS
/// (HostVM.h), so the machine code is what literal offsets would give.
///
//===----------------------------------------------------------------------===//

#include "hvm/Exec.h"

#include "guest/GuestMemory.h"
#include "hvm/HostVM.h"
#include "ir/OpEval.h"
#include "shadow/ShadowMemory.h"

#include <array>
#include <cstring>
#include <utility>

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

RunOutcome &memFault(RunOutcome &Out, const MemFault &F, bool Write,
                     uint32_t PC) {
  Out.K = RunOutcome::Kind::Fault;
  Out.FaultAddr = F.Addr;
  Out.FaultWrite = Write;
  Out.FaultPC = PC;
  return Out;
}

//===----------------------------------------------------------------------===//
// Steps: each groupable instruction's work, written once
//
// The handler of a groupable instruction's own byte runs its step and
// dispatches; a group's handler runs its members' steps in order and
// dispatches once. A step hands its successor the value it wrote and the
// value it read as A; a member whose row forwards an operand (hvm::Fwd)
// takes it from there instead of from the register file. Every step still
// writes its own Dst, so the registers a group leaves are its members'.
//===----------------------------------------------------------------------===//

/// What the steps touch besides the code: the register file, the guest
/// state, the spill frame and the guest PC of the last IMARK.
struct Machine {
  uint64_t *R;
  uint8_t *Gst;
  uint64_t *Frame;
  uint32_t CurPC;
};

/// What a step hands its successor: the value it wrote to its Dst and the
/// value it read as its A. A JZ's Dst is whether it jumps.
struct Handed {
  uint64_t Dst = 0, A = 0;
};

/// Operand A of the form-Form instruction at \p P: its predecessor's value
/// where its row forwards one (\p F), else its register.
template <HOp Form, Fwd F>
[[gnu::always_inline]] inline uint64_t opA(const Machine &M, const uint8_t *P,
                                           Handed In) {
  if constexpr (F == Fwd::A)
    return In.Dst;
  else if constexpr (F == Fwd::Left)
    return In.A;
  else
    return M.R[P[At<Form, Fld::A>]];
}

/// Operand B, likewise.
template <HOp Form, Fwd F>
[[gnu::always_inline]] inline uint64_t opB(const Machine &M, const uint8_t *P,
                                           Handed In) {
  if constexpr (F == Fwd::Left)
    return In.Dst;
  else
    return M.R[P[At<Form, Fld::B>]];
}

/// The work of the instruction at \p P, whose own opcode byte is Byte;
/// \p In is what its predecessor in a row handed on.
template <uint8_t Byte, Fwd F>
[[gnu::always_inline]] inline Handed step(Machine &M, const uint8_t *P,
                                          Handed In) {
  constexpr OpcodeDef D = opcodeDef(Byte);
  constexpr HOp Form = D.Form;
  uint64_t *R = M.R;
  if constexpr (Form == HOp::LI) {
    uint64_t V = rdU64(P + At<HOp::LI, Fld::Imm64>);
    R[P[At<HOp::LI, Fld::Dst>]] = V;
    return {V};
  } else if constexpr (Form == HOp::MOV) {
    uint64_t V = opA<HOp::MOV, F>(M, P, In);
    R[P[At<HOp::MOV, Fld::Dst>]] = V;
    return {V, V};
  } else if constexpr (Form == HOp::ALU || Form == HOp::ALU1 ||
                       Form == HOp::ALUI || Form == HOp::ALUIS) {
    uint64_t A = opA<Form, F>(M, P, In), B = 0;
    if constexpr (Form == HOp::ALU)
      B = opB<HOp::ALU, F>(M, P, In);
    else if constexpr (Form == HOp::ALUI)
      B = rdU64(P + At<HOp::ALUI, Fld::Imm64>);
    else if constexpr (Form == HOp::ALUIS)
      B = P[At<HOp::ALUIS, Fld::Imm8>];
    // A specialised byte fixes the op, so evalOpAt folds to the operation;
    // a generic one serves the long tail through ir::evalOp.
    uint64_t V;
    if constexpr (D.Field == NoField)
      V = ir::evalOp(static_cast<ir::Op>(rdU16(P + At<Form, Fld::IrOp>)), A,
                     B);
    else
      V = ir::evalOpAt<static_cast<ir::Op>(D.Field)>(A, B);
    R[P[At<Form, Fld::Dst>]] = V;
    return {V, A};
  } else if constexpr (Form == HOp::LDG) {
    // The byte fixes the width; values are zero-extended.
    UInt<D.Field> W;
    std::memcpy(&W, M.Gst + rdU32(P + At<HOp::LDG, Fld::Off>), D.Field);
    R[P[At<HOp::LDG, Fld::Dst>]] = W;
    return {W};
  } else if constexpr (Form == HOp::STG) {
    uint64_t A = opA<HOp::STG, F>(M, P, In);
    auto W = static_cast<UInt<D.Field>>(A);
    std::memcpy(M.Gst + rdU32(P + At<HOp::STG, Fld::Off>), &W, D.Field);
    return {0, A};
  } else if constexpr (Form == HOp::SEL) {
    uint64_t A = opA<HOp::SEL, F>(M, P, In);
    uint64_t V = A ? opB<HOp::SEL, F>(M, P, In) : R[P[At<HOp::SEL, Fld::C>]];
    R[P[At<HOp::SEL, Fld::Dst>]] = V;
    return {V, A};
  } else if constexpr (Form == HOp::JZ) {
    return {opA<HOp::JZ, F>(M, P, In) == 0};
  } else if constexpr (Form == HOp::IMARK) {
    M.CurPC = rdU32(P + At<HOp::IMARK, Fld::Imm32>);
    return {};
  } else if constexpr (Form == HOp::SPILL) {
    uint64_t A = opA<HOp::SPILL, F>(M, P, In);
    M.Frame[rdU32(P + At<HOp::SPILL, Fld::Off>)] = A;
    return {0, A};
  } else {
    static_assert(Form == HOp::RELOAD, "not a groupable instruction");
    uint64_t V = M.Frame[rdU32(P + At<HOp::RELOAD, Fld::Off>)];
    R[P[At<HOp::RELOAD, Fld::Dst>]] = V;
    return {V};
  }
}

/// Where each member of \p D starts, from its first's opcode byte, and
/// (at N) where the group ends.
consteval std::array<unsigned, MaxMembers + 1> memberOffsets(GroupDef D) {
  std::array<unsigned, MaxMembers + 1> Off{};
  for (unsigned J = 0; J != D.N; ++J)
    Off[J + 1] = Off[J] + Lengths[byteOf(opcodeDef(D.Members[J].Byte).Form)];
  return Off;
}

/// Runs the members of \p D laid out from \p Ip on, each on what its
/// predecessor handed on, and returns where execution goes next: past the
/// last member, or a final JZ's target if it jumps.
template <GroupDef D, size_t... J>
[[gnu::always_inline]] inline size_t runSteps(Machine &M, const uint8_t *Code,
                                              size_t Ip,
                                              std::index_sequence<J...>) {
  constexpr auto Off = memberOffsets(D);
  Handed V;
  ((V = step<D.Members[J].Byte, D.Members[J].F>(M, Code + Ip + Off[J], V)),
   ...);
  if constexpr (D.Members[D.N - 1].Byte == byteOf(HOp::JZ)) {
    if (V.Dst)
      return rdU32(Code + Ip + Off[D.N - 1] + At<HOp::JZ, Fld::Label>);
  }
  return Ip + Off[D.N];
}

/// runSteps for row \p D.
template <GroupDef D>
[[gnu::always_inline]] inline size_t runRow(Machine &M, const uint8_t *Code,
                                            size_t Ip) {
  return runSteps<D>(M, Code, Ip, std::make_index_sequence<D.N>{});
}

} // namespace

RunOutcome Executor::run(CodeBlob &Blob, uint64_t ChainBudget) {
  RunOutcome Out;
  CodeBlob *Cur = &Blob;
  if (!ChainFn)
    ChainBudget = 0; // chaining is off: every exit returns
  const uint8_t *Code = Cur->Bytes.data();
  size_t Ip = 0;
  ++Out.BlocksExecuted;

  Machine M{Regs, Ctx.GuestState, Frame, 0};
  uint8_t *Gst = M.Gst;
  GuestMemory &Mem = *Ctx.Mem;
  void *Env = &Ctx;
  uint64_t *R = M.R;

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
#define VG_HVM_X(Name, ...) &&L_G_##Name,
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

  // The groupable instructions: each byte's handler is its step.
#define VG_HVM_STEP(Label, Op)                                                 \
  Label:                                                                       \
  Ip = runRow<row(own(Op))>(M, Code, Ip);                                      \
  DISPATCH();
  VG_HVM_STEP(L_LI, HOp::LI)
  VG_HVM_STEP(L_MOV, HOp::MOV)
  // Generic ALU forms: the long tail of ops, evaluated by ir::evalOp.
  VG_HVM_STEP(L_ALU, HOp::ALU)
  VG_HVM_STEP(L_ALU1, HOp::ALU1)
  VG_HVM_STEP(L_ALUI, HOp::ALUI)
  VG_HVM_STEP(L_ALUIS, HOp::ALUIS)
  VG_HVM_STEP(L_SEL, HOp::SEL)
  VG_HVM_STEP(L_JZ, HOp::JZ)
  VG_HVM_STEP(L_IMARK, HOp::IMARK)
  VG_HVM_STEP(L_SPILL, HOp::SPILL)
  VG_HVM_STEP(L_RELOAD, HOp::RELOAD)
  // Specialised ALU forms and guest-state accesses: the op or the size
  // fixed by the opcode byte.
#define VG_HVM_X(O)                                                            \
  VG_HVM_STEP(L_ALU_##O, SpecOp::ALU_##O)                                      \
  VG_HVM_STEP(L_ALUI_##O, SpecOp::ALUI_##O)                                    \
  VG_HVM_STEP(L_ALUIS_##O, SpecOp::ALUIS_##O)
  VG_HVM_BINOPS(VG_HVM_X)
#undef VG_HVM_X
#define VG_HVM_X(O) VG_HVM_STEP(L_ALU1_##O, SpecOp::ALU1_##O)
  VG_HVM_UNOPS(VG_HVM_X)
#undef VG_HVM_X
#define VG_HVM_LDG(Size) VG_HVM_STEP(L_LDG##Size, SpecOp::LDG##Size)
#define VG_HVM_STG(Size) VG_HVM_STEP(L_STG##Size, SpecOp::STG##Size)

  // Memory accesses may fault, so they are no step: the fault names the
  // guest instruction of the last IMARK.
#define VG_HVM_LDM(Size)                                                       \
  L_LDM##Size: {                                                               \
    uint32_t Addr =                                                            \
        static_cast<uint32_t>(R[Code[Ip + At<HOp::LDM, Fld::A>]]) +            \
        rdU32(Code + Ip + At<HOp::LDM, Fld::Disp>);                            \
    UInt<Size> W = 0;                                                          \
    if (MemFault F = Mem.readT(Addr, W); F.Faulted)                            \
      return memFault(Out, F, /*Write=*/false, M.CurPC);                       \
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
      return memFault(Out, F, /*Write=*/true, M.CurPC);                        \
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
#undef VG_HVM_STEP

  // Superinstruction groups (VG_HVM_GROUPS): each row's handler is its
  // members' steps, one dispatch in all.
#define VG_HVM_X(Name, ...)                                                    \
  L_G_##Name:                                                                  \
  Ip = runRow<GroupDefs[static_cast<unsigned>(Group::Name)]>(M, Code, Ip);     \
  DISPATCH();
  VG_HVM_GROUPS(VG_HVM_X)
#undef VG_HVM_X

L_UNSIZED:
  unreachable("HVM: unsized guest-state or memory access in encoded code");

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
