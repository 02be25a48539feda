//===-- hvm/HostVM.h - Host instruction set and code buffers ----*- C++ -*-==//
///
/// \file
/// The resynthesise half of D&R: the "host machine" targeted by the JIT's
/// back end. HVM is a 16-register, 64-bit machine whose code is encoded
/// into byte buffers (the contents of the code cache) and executed by a
/// threaded interpreter (hvm/Exec.cpp).
///
/// The back-end phases map onto the paper's Phases 6-8:
///   Phase 6 (ISel.cpp):     tree IR -> HInstr list over virtual registers,
///                           via greedy top-down tree matching.
///   Phase 7 (RegAlloc.cpp): linear-scan register allocation with move
///                           coalescing hints and spill slots.
///   Phase 8 (encode()):     HInstr list -> code bytes; each opcode byte
///                           picks the executor handler, for one
///                           instruction or for a superinstruction group.
///
/// Each instruction form's encoded layout is written once, in
/// VG_HVM_FORMS below; the encoder, the operand check's decoder and the
/// executor's handlers all read their offsets and lengths from it.
///
/// Host register conventions (Section 3.4/3.9): registers h0..h9 are
/// allocatable, h10..h13 are spill-reload scratch, h14 conceptually holds
/// the guest program counter between blocks, and h15 is permanently
/// reserved to point at the ThreadState (the executor materialises these
/// last two implicitly).
///
//===----------------------------------------------------------------------===//
#ifndef VG_HVM_HOSTVM_H
#define VG_HVM_HOSTVM_H

#include "ir/IR.h"

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

namespace vg {
namespace hvm {

using RegId = uint32_t;
constexpr RegId NoReg = ~0u;

/// Total architectural host registers.
constexpr unsigned NumHostRegs = 16;
/// h0..h9 are available to the register allocator.
constexpr unsigned NumAllocatable = 10;
/// h0..h5 are caller-saved: a CALL clobbers them (the helper-call ABI).
/// Values live across a call must sit in h6..h9 or be spilled — this is
/// what makes C-call analysis code cost more than inline analysis code
/// (paper Section 5.4, ICntI vs ICntC).
constexpr unsigned NumCallerSaved = 6;
/// h10..h13 are scratch registers used by spill-code rewriting (preserved
/// across CALL).
constexpr unsigned FirstScratch = 10;

/// Virtual register ids start here (before register allocation).
constexpr RegId VirtBase = 0x10000;
inline bool isVirtual(RegId R) { return R >= VirtBase; }

//===----------------------------------------------------------------------===//
// Instruction forms and their layouts
//
// Every encoded instruction is its opcode byte followed by its form's
// fields, packed in the order VG_HVM_FORMS lists them. That list is the one
// statement of each layout: the HOp enum, each form's length (Len, Lengths)
// and each field's offset (At) derive from it, and encode(), the operand
// check's decoder and the executor's handlers read them.
//===----------------------------------------------------------------------===//

/// The kinds of encoded field, each with its width in bytes (widthOf) and
/// the HInstr member it holds:
///  - Dst, A, B, C: a register byte (that member);
///  - OptDst, OptB: a register byte of Dst or B in which 0xFF is NoReg;
///  - Args: Args[0..4) as four register bytes, 0 for NoReg;
///  - IrOp: the ir::Op, 2 bytes;
///  - Imm8, Imm32, Imm64: Imm's low 1, 4 or 8 bytes;
///  - Off, Disp, ChainSlot: 4 bytes; Size, JKind, NArgs: 1 byte;
///  - Label: a JZ's target, written as the target's byte offset, 4 bytes;
///  - Callee: the CalleeFn pointer, 8 bytes.
enum class Fld : uint8_t {
  Dst, A, B, C, OptDst, OptB, Args, IrOp, Imm8, Imm32, Imm64,
  Off, Disp, Size, JKind, ChainSlot, Label, NArgs, Callee,
};

constexpr unsigned widthOf(Fld F) {
  switch (F) {
  case Fld::IrOp:
    return 2;
  case Fld::Args:
  case Fld::Imm32:
  case Fld::Off:
  case Fld::Disp:
  case Fld::ChainSlot:
  case Fld::Label:
    return 4;
  case Fld::Imm64:
  case Fld::Callee:
    return 8;
  default:
    return 1;
  }
}

/// The generic host instruction forms, the ones ISel and the register
/// allocator work with, in opcode-byte order: X(form, its fields in byte
/// order). Each is served by a generic executor handler; encode() writes a
/// specialised byte (SpecOp) instead wherever one exists, so that byte
/// alone selects the handler. SHPROBE is serviced inline by the tool's
/// ShadowMap: no helper call, no caller-saved clobber.
#define VG_HVM_FORMS(X)                                                        \
  X(LI, Dst, Imm64)                    /* Dst = Imm */                         \
  X(MOV, Dst, A)                       /* Dst = A */                           \
  X(ALU, IrOp, Dst, A, B)              /* Dst = IrOp(A, B) */                  \
  X(ALU1, IrOp, Dst, A)                /* Dst = IrOp(A) */                     \
  X(ALUI, IrOp, Dst, A, Imm64)         /* Dst = IrOp(A, Imm), Imm folded */    \
  X(LDG, Dst, Off, Size)               /* Dst = guest_state[Off ..) */         \
  X(STG, A, Off, Size)                 /* guest_state[Off ..) = A */           \
  X(LDM, Dst, A, Disp, Size)           /* Dst = mem[A + Disp], zero-ext. */    \
  X(STM, A, B, Disp, Size)             /* mem[A + Disp] = B */                 \
  X(SEL, Dst, A, B, C)                 /* Dst = A ? B : C */                   \
  X(CALL, Callee, OptDst, NArgs, Args) /* Dst = CalleeFn(Args..) or none */    \
  X(JZ, A, Label)                      /* if (A == 0) goto Label */            \
  X(EXITI, Imm32, JKind, ChainSlot)    /* leave: next PC = Imm, chainable */   \
  X(EXITR, A, JKind)                   /* leave: next PC = A */                \
  X(IMARK, Imm32)                      /* guest instruction at Imm */          \
  X(SPILL, A, Off)                     /* spill_frame[Off] = A */              \
  X(RELOAD, Dst, Off)                  /* Dst = spill_frame[Off] */            \
  X(ALUIS, IrOp, Dst, A, Imm8)         /* ALUI with Imm in [0, 255] */         \
  X(SHPROBE, Dst, A, OptB, Imm8, Size) /* Dst = probe [A]; Imm 1: store B */

/// Host opcodes: the generic forms.
enum class HOp : uint8_t {
#define VG_HVM_X(Name, ...) Name,
  VG_HVM_FORMS(VG_HVM_X)
#undef VG_HVM_X
};

/// FormLayout<Op>::Fields: form Op's fields, in byte order.
template <HOp Op> struct FormLayout;
#define VG_HVM_X(Name, ...)                                                    \
  template <> struct FormLayout<HOp::Name> {                                   \
    using enum Fld;                                                            \
    static constexpr Fld Fields[] = {__VA_ARGS__};                             \
  };
VG_HVM_FORMS(VG_HVM_X)
#undef VG_HVM_X

/// The byte offset of field \p F among \p Fields (the opcode byte is at
/// 0); asking for a field the form lacks fails to compile.
consteval unsigned fieldOffset(const Fld *Fields, size_t N, Fld F) {
  unsigned Pos = 1;
  for (size_t I = 0; I != N; Pos += widthOf(Fields[I++]))
    if (Fields[I] == F)
      return Pos;
  throw "form has no such field";
}

/// Byte offset of field F in a form-Op instruction.
template <HOp Op, Fld F>
constexpr unsigned At = fieldOffset(FormLayout<Op>::Fields,
                                    std::size(FormLayout<Op>::Fields), F);

/// Encoded length of a form-Op instruction, its opcode byte included.
template <HOp Op>
constexpr unsigned Len = [] {
  unsigned L = 1;
  for (Fld F : FormLayout<Op>::Fields)
    L += widthOf(F);
  return L;
}();

/// Len of each form, indexed by HOp.
constexpr uint8_t Lengths[] = {
#define VG_HVM_X(Name, ...) Len<HOp::Name>,
    VG_HVM_FORMS(VG_HVM_X)
#undef VG_HVM_X
};

/// Opcode bytes [0, NumGenericOps) are the HOps themselves.
constexpr unsigned NumGenericOps = std::size(Lengths);

//===----------------------------------------------------------------------===//
// Specialised opcodes (encode-time)
//
// The executor is a threaded interpreter: one computed goto per host
// instruction, or per superinstruction group (below). A generic ALU-form
// handler would pay a second dispatch on the instruction's ir::Op, and an
// access a second dispatch on its size, so encode() picks the handler
// instead: it writes a dedicated opcode byte for every access size of
// LDG/STG/LDM/STM and for every (ir::Op, form) pair listed below. A
// specialised byte keeps its generic form's operand layout (the size or
// ir::Op field stays, unread), so no blob changes length. The generic ALU
// forms serve the long tail of ops. The op lists follow the measured
// host-instruction mix (bench/sec54_hostcode prints the share still left
// on generic handlers).
//===----------------------------------------------------------------------===//

/// Binary ir::Ops with a specialised byte in each binary form: ALU
/// (reg-reg), ALUI (reg-imm64) and ALUIS (reg-imm8).
#define VG_HVM_BINOPS(X)                                                       \
  X(Add32) X(Sub32) X(And32) X(Or32) X(Xor32) X(Mul32) X(Shl32) X(Shr32)       \
  X(Sar32) X(Add64) X(Or64) X(And64) X(CmpEQ32) X(CmpNE32) X(CmpLT32S)         \
  X(CmpLE32S) X(CmpLT32U) X(CmpLE32U) X(AddF64) X(SubF64) X(MulF64)

/// Unary ir::Ops with a specialised ALU1 byte.
#define VG_HVM_UNOPS(X)                                                        \
  X(CmpNEZ32) X(U1to32) X(Neg32) X(CmpNEZ64) X(U1to64) X(Neg64) X(T64to32)     \
  X(T64HIto32) X(T32to8) X(U8to32)

/// Guest-state and memory accesses: X(form, size in bytes). Every size has
/// its own byte, so the generic LDG/STG/LDM/STM bytes never appear in
/// encoded code.
#define VG_HVM_SIZED_OPS(X)                                                    \
  X(LDG, 1) X(LDG, 2) X(LDG, 4) X(LDG, 8)                                      \
  X(STG, 1) X(STG, 2) X(STG, 4) X(STG, 8)                                      \
  X(LDM, 1) X(LDM, 2) X(LDM, 4) X(LDM, 8)                                      \
  X(STM, 1) X(STM, 2) X(STM, 4) X(STM, 8)

/// Specialised opcodes; the byte of SpecOp S is NumGenericOps + S.
enum class SpecOp : uint8_t {
#define VG_HVM_X(Form, Size) Form##Size,
  VG_HVM_SIZED_OPS(VG_HVM_X)
#undef VG_HVM_X
#define VG_HVM_X(O) ALU_##O, ALUI_##O, ALUIS_##O,
  VG_HVM_BINOPS(VG_HVM_X)
#undef VG_HVM_X
#define VG_HVM_X(O) ALU1_##O,
  VG_HVM_UNOPS(VG_HVM_X)
#undef VG_HVM_X
  Count
};

/// The opcode byte of a generic form, of a SpecOp and (below) of a group.
constexpr uint8_t byteOf(HOp Op) { return static_cast<uint8_t>(Op); }
constexpr uint8_t byteOf(SpecOp S) {
  return static_cast<uint8_t>(NumGenericOps + static_cast<unsigned>(S));
}

/// What an opcode byte below the groups selects: its generic form, and the
/// access size or ir::Op (Field) it is specialised for, NoField for a
/// generic form's own byte.
struct OpcodeDef {
  HOp Form;
  unsigned Field;
};
constexpr unsigned NoField = ~0u;

/// Each SpecOp's OpcodeDef, in SpecOp order.
constexpr OpcodeDef SpecDefs[] = {
#define VG_HVM_X(Form, Size) {HOp::Form, Size},
    VG_HVM_SIZED_OPS(VG_HVM_X)
#undef VG_HVM_X
#define VG_HVM_X(O)                                                            \
  {HOp::ALU, unsigned(ir::Op::O)}, {HOp::ALUI, unsigned(ir::Op::O)},           \
      {HOp::ALUIS, unsigned(ir::Op::O)},
    VG_HVM_BINOPS(VG_HVM_X)
#undef VG_HVM_X
#define VG_HVM_X(O) {HOp::ALU1, unsigned(ir::Op::O)},
    VG_HVM_UNOPS(VG_HVM_X)
#undef VG_HVM_X
};
static_assert(std::size(SpecDefs) == static_cast<size_t>(SpecOp::Count),
              "SpecDefs out of step with SpecOp");

/// The OpcodeDef of a generic form's or a SpecOp's byte.
constexpr OpcodeDef opcodeDef(uint8_t Byte) {
  return Byte < NumGenericOps ? OpcodeDef{static_cast<HOp>(Byte), NoField}
                              : SpecDefs[Byte - NumGenericOps];
}

//===----------------------------------------------------------------------===//
// Superinstruction groups (encode-time)
//
// Some runs of adjacent instructions recur as one idiom. Where the
// instruction being encoded starts a listed row, encode() rewrites only its
// opcode byte, to the row's byte; that handler does the work of every
// member and jumps past them all. The members keep their own bytes, so blob
// lengths do not change, a JZ into the middle of a group runs the rest of
// it as encoded, and the opcode walker still visits every instruction.
//
// Each member is written once, as a step (hvm/Exec.cpp): its own byte's
// handler is that step and a dispatch, and a row's handler is its members'
// steps in order. A member whose operand is its predecessor's result gets
// the value in a local instead of reading it back from the register file;
// its row fixes which operand that is (Fwd).
//
// Rules for a row (checkRows below holds each row to all but the fourth
// when compiling; the fourth is the step's, in hvm/Exec.cpp):
//  - it has 2 to 5 members, the first reading nothing forwarded;
//  - no member faults, calls out or leaves the block (no LDM, STM, CALL,
//    SHPROBE, EXITI or EXITR), so fault PCs, the helper-call ABI and
//    chaining are untouched; a JZ may only end a row;
//  - a forwarded operand names a register its member has and a value its
//    predecessor makes; encode() writes the row's byte only where the
//    instructions' registers agree with it (and, for Left, where the Neg32
//    did not overwrite its own operand), and checkOperands checks the same
//    of a stored blob;
//  - the handler still writes every register any member writes (the
//    encoder does no liveness);
//  - no two rows have the same member bytes; where several rows start at
//    one instruction, the longest that fits wins.
//===----------------------------------------------------------------------===//

/// Which of a member's operands is its predecessor's value.
enum class Fwd : uint8_t {
  Own,  ///< none: it reads its registers, if any, from the register file
  A,    ///< its A is the predecessor's Dst
  Left, ///< its A is the predecessor's A and its B the predecessor's Dst:
        ///< Or32 after Neg32, Memcheck's Left (x | -x)
};

/// A row's member: the opcode byte its instruction has alone, and what it
/// takes from its predecessor.
struct Member {
  uint8_t Byte;
  Fwd F = Fwd::Own;
};
template <typename Op> constexpr Member own(Op O) { return {byteOf(O)}; }
template <typename Op> constexpr Member fwdA(Op O) {
  return {byteOf(O), Fwd::A};
}
constexpr Member fwdLeft(SpecOp S) { return {byteOf(S), Fwd::Left}; }

/// X(name, its members in order). The rows come from the measured mix:
/// bench/sec54_hostcode prints the runs of adjacent dispatches left
/// unfused that one row would shorten most, and the share of executed
/// dispatches each row starts, shown after it here (the Table 2 workloads
/// at scale 1, Nulgrind / Memcheck). With these rows a guest instruction
/// costs 2.57 dispatches under Nulgrind and 7.32 under Memcheck; with only
/// LI_STG4, IMARK_LI_STG4, IMARK_LDG4, IMARK_IMARK and GUARD it cost 3.13
/// and 10.03.
#define VG_HVM_GROUPS(X)                                                       \
  /* Guest-state PUTs: constant ones (LI; STG4) of cc_op, cc_ndep and pc, */   \
  /* register ones, and the IMARK between two guest instructions. */           \
  X(LI_STG4, own(HOp::LI), fwdA(SpecOp::STG4)) /* 1.2% / 0.1% */               \
  X(LI_STG4_LI_STG4, own(HOp::LI), fwdA(SpecOp::STG4), own(HOp::LI),           \
    fwdA(SpecOp::STG4)) /* 0.2% / 3.4% */                                      \
  X(STG4_STG4, own(SpecOp::STG4), own(SpecOp::STG4)) /* 0.3% / 4.8% */         \
  X(STG4_LI_STG4_LI_STG4, own(SpecOp::STG4), own(HOp::LI),                     \
    fwdA(SpecOp::STG4), own(HOp::LI), fwdA(SpecOp::STG4)) /* 4.0% / 0.0% */    \
  X(STG4_IMARK_LI_STG4, own(SpecOp::STG4), own(HOp::IMARK), own(HOp::LI),      \
    fwdA(SpecOp::STG4)) /* 3.9% / 0.1% */                                      \
  X(STG4_IMARK_LDG4, own(SpecOp::STG4), own(HOp::IMARK),                       \
    own(SpecOp::LDG4)) /* 2.2% / 0.5% */                                       \
  X(STG8_IMARK, own(SpecOp::STG8), own(HOp::IMARK)) /* 4.9% / 1.7% */          \
  X(ADD32_STG4, own(SpecOp::ALU_Add32), fwdA(SpecOp::STG4)) /* 3.4% / 0.3% */  \
  X(LI_LI, own(HOp::LI), own(HOp::LI)) /* 0.0% / 4.6% */                       \
  /* A guest instruction's start, then a PUT or GET. Of two IMARKs in a */     \
  /* row only the later PC is ever reported. */                                \
  X(IMARK_LI_STG4, own(HOp::IMARK), own(HOp::LI),                              \
    fwdA(SpecOp::STG4)) /* 7.2% / 0.0% */                                      \
  X(IMARK_LI_STG4_LI_STG4, own(HOp::IMARK), own(HOp::LI), fwdA(SpecOp::STG4),  \
    own(HOp::LI), fwdA(SpecOp::STG4)) /* 0.2% / 4.0% */                        \
  X(IMARK_LDG4, own(HOp::IMARK), own(SpecOp::LDG4)) /* 5.1% / 2.1% */          \
  X(IMARK_IMARK, own(HOp::IMARK), own(HOp::IMARK)) /* 5.0% / 1.1% */           \
  /* The guard before each side exit: t is 0 or 1, so g equals t. */           \
  X(GUARD, own(SpecOp::ALU1_U1to32), fwdA(SpecOp::ALU1_CmpNEZ32),              \
    fwdA(HOp::JZ)) /* 5.1% / 1.8% */                                           \
  X(CMPNEZ32_JZ, own(SpecOp::ALU1_CmpNEZ32), fwdA(HOp::JZ)) /* 0.0% / 1.5% */  \
  /* Memcheck's shadow chains: Left (x | -x), the PCast of a UifU */           \
  /* (Or64; CmpNEZ64; U1to64; Neg64), and a V-bit test kept in a */            \
  /* register or spilled. */                                                   \
  X(LEFT32, own(SpecOp::ALU1_Neg32), fwdLeft(SpecOp::ALU_Or32))                \
  /* 0.0% / 3.4% */                                                            \
  X(OR64_PCAST64, own(SpecOp::ALU_Or64), fwdA(SpecOp::ALU1_CmpNEZ64),          \
    fwdA(SpecOp::ALU1_U1to64), fwdA(SpecOp::ALU1_Neg64)) /* 0.0% / 2.0% */     \
  X(CMPNEZ32_MOV, own(SpecOp::ALU1_CmpNEZ32), fwdA(HOp::MOV))                  \
  /* 0.0% / 1.2% */                                                            \
  X(U1TO32_CMPNEZ32_MOV, own(SpecOp::ALU1_U1to32),                             \
    fwdA(SpecOp::ALU1_CmpNEZ32), fwdA(HOp::MOV)) /* 0.0% / 1.8% */             \
  X(MOV_SPILL, own(HOp::MOV), fwdA(HOp::SPILL)) /* 0.0% / 2.4% */

/// Groups; the byte of Group G is FirstGroupByte + G.
enum class Group : uint8_t {
#define VG_HVM_X(Name, ...) Name,
  VG_HVM_GROUPS(VG_HVM_X)
#undef VG_HVM_X
  Count
};

/// The most members a row may have.
constexpr unsigned MaxMembers = 5;

/// One row: its members, Members[0..N).
struct GroupDef {
  Member Members[MaxMembers];
  uint8_t N;
};
template <typename... Ms> constexpr GroupDef row(Ms... Members) {
  return {{Members...}, sizeof...(Members)};
}

/// The rows of VG_HVM_GROUPS, in Group order.
constexpr GroupDef GroupDefs[] = {
#define VG_HVM_X(Name, ...) row(__VA_ARGS__),
    VG_HVM_GROUPS(VG_HVM_X)
#undef VG_HVM_X
};

constexpr unsigned FirstGroupByte =
    NumGenericOps + static_cast<unsigned>(SpecOp::Count);
constexpr uint8_t byteOf(Group G) {
  return static_cast<uint8_t>(FirstGroupByte + static_cast<unsigned>(G));
}

/// Every opcode byte encode() can write lies below this.
constexpr unsigned NumOpcodes =
    FirstGroupByte + static_cast<unsigned>(Group::Count);
static_assert(NumOpcodes <= 256, "opcode bytes overflow");

/// Whether form \p Op has a field of kind \p F.
constexpr bool hasField(HOp Op, Fld F) {
  switch (Op) {
#define VG_HVM_X(Name, ...)                                                    \
  case HOp::Name:                                                              \
    for (Fld G : FormLayout<HOp::Name>::Fields)                                \
      if (G == F)                                                              \
        return true;                                                           \
    return false;
    VG_HVM_FORMS(VG_HVM_X)
#undef VG_HVM_X
  }
  return false;
}

/// Whether an instruction of form \p Form may join a row: it cannot fault,
/// call out or leave the block.
constexpr bool groupable(HOp Form) {
  switch (Form) {
  case HOp::LDM:
  case HOp::STM:
  case HOp::CALL:
  case HOp::SHPROBE:
  case HOp::EXITI:
  case HOp::EXITR:
    return false;
  default:
    return true;
  }
}

/// The group rules above, checked for every row; a row that breaks one
/// fails to compile, naming the rule.
consteval bool checkRows() {
  for (size_t G = 0; G != std::size(GroupDefs); ++G) {
    const GroupDef &D = GroupDefs[G];
    if (D.N < 2)
      throw "a row needs at least two members";
    if (D.Members[0].F != Fwd::Own)
      throw "a row's first member has no predecessor to take a value from";
    for (unsigned J = 0; J != D.N; ++J) {
      Member M = D.Members[J];
      OpcodeDef Def = opcodeDef(M.Byte);
      if (!groupable(Def.Form))
        throw "a member may not fault, call out or leave the block";
      if ((Def.Form == HOp::LDG || Def.Form == HOp::STG) &&
          Def.Field == NoField)
        throw "an access member needs its sized byte";
      if (Def.Form == HOp::JZ && J + 1 != D.N)
        throw "a JZ may only end a row";
      HOp Prev = J ? opcodeDef(D.Members[J - 1].Byte).Form : Def.Form;
      if (M.F != Fwd::Own &&
          (!hasField(Def.Form, Fld::A) || !hasField(Prev, Fld::Dst)))
        throw "a forwarded A needs an A and a predecessor's Dst";
      if (M.F == Fwd::Left &&
          (!hasField(Def.Form, Fld::B) || !hasField(Prev, Fld::A)))
        throw "Left forwarding needs a B and a predecessor's A";
    }
    for (size_t H = 0; H != G; ++H) {
      const GroupDef &E = GroupDefs[H];
      bool Same = E.N == D.N;
      for (unsigned J = 0; Same && J != D.N; ++J)
        Same = E.Members[J].Byte == D.Members[J].Byte;
      if (Same)
        throw "two rows have the same member bytes";
    }
  }
  return true;
}
static_assert(checkRows());

/// One host instruction (pre- or post-register-allocation).
struct HInstr {
  HOp Op;
  ir::Op IrOp{};
  RegId Dst = NoReg, A = NoReg, B = NoReg, C = NoReg;
  uint64_t Imm = 0;
  int32_t Disp = 0;
  uint32_t Off = 0;
  uint8_t Size = 0;
  const ir::Callee *CalleeFn = nullptr;
  RegId Args[4] = {NoReg, NoReg, NoReg, NoReg};
  uint8_t NArgs = 0;
  uint8_t JKind = 0;
  uint32_t ChainSlot = ~0u;
  int32_t Label = -1; ///< JZ: index of the target instruction
};

/// Renders one host instruction (Figure 3 demo and debugging).
std::string toString(const HInstr &I);

/// Chain-slot target sentinel: the exit is not chainable (non-Boring kind).
constexpr uint32_t NoChainTarget = ~0u;

/// A fully lowered block: allocated instructions plus frame metadata.
struct HostCode {
  std::vector<HInstr> Instrs;
  uint32_t NumSpillSlots = 0;
  uint32_t NumChainSlots = 0;
  /// Per chain slot: constant guest target PC (NoChainTarget when the exit
  /// kind can never be chained). Parallel to the slot numbering.
  std::vector<uint32_t> ChainTargets;
  /// Chain slot of the fall-off-the-end exit (~0 when the block ends in a
  /// register-form exit, which takes no slot). Any *other* slot an
  /// execution leaves through is a guarded side exit — the trace tier's
  /// speculation-miss signal.
  uint32_t TerminalChainSlot = ~0u;
};

/// Phase 8: encodes an instruction list into code-cache bytes. JZ labels
/// are resolved to byte offsets; each instruction's opcode byte selects
/// its executor handler: the group it leads, else a SpecOp where one
/// exists, else its generic form.
std::vector<uint8_t> encode(const HostCode &Code);

/// The decoder's view of one opcode byte: the generic form whose operand
/// layout it uses, its encoded length in bytes, the byte its instruction
/// would carry alone (a group byte's lead; else the byte itself), and the
/// bytes one dispatch on it covers (a group's members together; else Len).
/// Length 0 marks a byte encode() never writes (NumOpcodes or above, or an
/// unsized LDG/STG/LDM/STM).
struct OpcodeInfo {
  HOp Form;
  uint8_t Len;
  uint8_t Lead;
  uint8_t GroupLen;
};
OpcodeInfo opcodeInfo(uint8_t Byte);

/// The opcode walker: calls Visit(Offset, Byte, Form) for each instruction
/// of an encoded blob in order. Returns false when the bytes do not decode
/// cleanly (an opcode byte encode() never writes, or a truncated tail).
template <typename Fn>
bool walkOpcodes(const std::vector<uint8_t> &Bytes, Fn &&Visit) {
  for (size_t Off = 0; Off < Bytes.size();) {
    OpcodeInfo Info = opcodeInfo(Bytes[Off]);
    if (Info.Len == 0 || Off + Info.Len > Bytes.size())
      return false;
    Visit(static_cast<uint32_t>(Off), Bytes[Off], Info.Form);
    Off += Info.Len;
  }
  return true;
}

/// Walks the opcode stream of an encoded blob and reports the byte
/// offset of every CALL instruction's 8-byte callee field — the only
/// host-pointer-sized immediate encode() ever emits, and the reason a raw
/// blob is meaningless outside the process that produced it. The
/// persistent translation cache rewrites these fields (pointer <-> callee
/// name index) when serializing. Returns false when the bytes do not
/// decode cleanly (unknown opcode or truncated tail), which load paths
/// must treat as a malformed entry.
bool findCalleeSlots(const std::vector<uint8_t> &Bytes,
                     std::vector<uint32_t> &Slots);

/// The operand check a blob from outside this process (the persistent
/// translation cache) must pass before it may run: every instruction
/// decodes, its opcode byte (a group byte read as its lead's) is the one
/// encode() would write for its size and ir::Op fields, register bytes
/// are below NumHostRegs (0xFF, "no register", in an OptDst or OptB field
/// aside),
/// ir::Ops are real, guest-state accesses end within \p GuestStateSize,
/// spill slots are below \p NumSpillSlots, a CALL has at most 4
/// arguments, every JZ targets the start of a later instruction, each group
/// byte is followed by its group's members, and the last instruction is
/// an EXITI or EXITR. Exits are as ISel makes them: every jump kind is a
/// real ir::JumpKind; the EXITIs take chain slots 0, 1, ... in order, one
/// each, with one slot per entry of \p ChainTargets; and a slot's target is
/// its EXITI's immediate for a Boring exit and NoChainTarget for any other.
/// The executor then touches no host memory outside the guest state, the
/// spill frame, its register file and the blob's chain vectors, cannot run
/// off the end of the blob or loop within it, and a chain slot the
/// translation table links by its target leads where the exit's guest PC
/// says.
bool checkOperands(const std::vector<uint8_t> &Bytes, uint32_t GuestStateSize,
                   uint32_t NumSpillSlots,
                   const std::vector<uint32_t> &ChainTargets);

} // namespace hvm
} // namespace vg

#endif // VG_HVM_HOSTVM_H
