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

#include <cstdint>
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

/// Host opcodes: the instruction forms ISel and the register allocator
/// work with. Each is also an encoded opcode byte, served by a generic
/// executor handler; encode() writes a specialised byte (SpecOp) instead
/// wherever one exists, so that byte alone selects the handler.
enum class HOp : uint8_t {
  LI,     ///< Dst = Imm
  MOV,    ///< Dst = A
  ALU,    ///< Dst = IrOp(A, B)
  ALU1,   ///< Dst = IrOp(A)
  ALUI,   ///< Dst = IrOp(A, Imm)      (immediate folded by tree matching)
  LDG,    ///< Dst = guest_state[Off .. Off+Size)
  STG,    ///< guest_state[Off ..) = A
  LDM,    ///< Dst = guest_mem[A + Disp], Size bytes (zero-extended)
  STM,    ///< guest_mem[A + Disp] = B, Size bytes
  SEL,    ///< Dst = A ? B : C
  CALL,   ///< Dst = CalleeFn(Args[0..NArgs))      (Dst may be NoReg)
  JZ,     ///< if (A == 0) goto Label
  EXITI,  ///< leave block: next guest PC = Imm, kind JKind, chain ChainSlot
  EXITR,  ///< leave block: next guest PC = A, kind JKind
  IMARK,  ///< current guest instruction is at Imm (fault attribution)
  SPILL,  ///< spill_frame[Off] = A
  RELOAD, ///< Dst = spill_frame[Off]
  ALUIS,  ///< Dst = IrOp(A, Imm) with Imm in [0,255] (compact encoding)
  SHPROBE, ///< Dst = shadow probe at [A] (B = V-word for the store form);
           ///< the tool's ShadowMap services it inline — no helper call,
           ///< no caller-saved clobber. Imm bit 0: 1 = store, 0 = load.
};

/// Opcode bytes [0, NumGenericOps) are the HOps themselves.
constexpr unsigned NumGenericOps = static_cast<unsigned>(HOp::SHPROBE) + 1;

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

//===----------------------------------------------------------------------===//
// Superinstruction groups (encode-time)
//
// Some adjacent instructions recur as one idiom. When the instruction being
// encoded starts a listed group, encode() rewrites only its opcode byte, to
// the group's byte; that handler does the work of every member and jumps
// past them all. The members keep their own bytes, so blob lengths do not
// change, a JZ into the middle of a group runs the rest of it member by
// member, and the opcode walker still visits every instruction.
//
// Rules for a group:
//  - no member faults, calls out or leaves the block (no LDM, STM, CALL,
//    SHPROBE, EXITI or EXITR), so fault PCs, the helper-call ABI and
//    chaining are untouched; a JZ may only end a group;
//  - each member that reads a register (A) reads the one its predecessor
//    writes (Dst), where the predecessor writes one; the handler writes
//    every register any member writes (the encoder does no liveness);
//  - the lead byte is chosen while encoding, by looking ahead; a group is
//    named by its first two members' bytes, so at most one can start at
//    an instruction.
//
// The list follows the measured mix: bench/sec54_hostcode prints the most
// executed pairs of adjacent dispatches still left unfused. Shares are of
// all executed dispatches before the groups existed, on the long benchmark
// workloads nulgrind-long / memcheck-long:
//  - LI; STG4, a constant PUT of cc_op, cc_ndep or pc: 13.5% / 11.9%;
//  - U1to32 t, c; CmpNEZ32 g, t; JZ g, the guard before each side exit:
//    each link 3.6% / 3.2% (t is 0 or 1, so g equals t);
//  - IMARK; LI; STG4 and IMARK; LDG4: IMARK->LI 7.3% / 4.2%, IMARK->LDG4
//    5.1% / 3.4%;
//  - IMARK; IMARK: 4.1% / 1.5%; only the later PC is kept.
//
// X(name, lead byte, second byte, third byte or NoMember).
//===----------------------------------------------------------------------===//

constexpr uint8_t NoMember = 0xFF;

#define VG_HVM_GROUPS(X)                                                       \
  X(LI_STG4, byteOf(HOp::LI), byteOf(SpecOp::STG4), NoMember)                  \
  X(GUARD, byteOf(SpecOp::ALU1_U1to32), byteOf(SpecOp::ALU1_CmpNEZ32),         \
    byteOf(HOp::JZ))                                                           \
  X(IMARK_LI_STG4, byteOf(HOp::IMARK), byteOf(HOp::LI), byteOf(SpecOp::STG4))  \
  X(IMARK_LDG4, byteOf(HOp::IMARK), byteOf(SpecOp::LDG4), NoMember)            \
  X(IMARK_IMARK, byteOf(HOp::IMARK), byteOf(HOp::IMARK), NoMember)

/// Groups; the byte of Group G is FirstGroupByte + G.
enum class Group : uint8_t {
#define VG_HVM_X(Name, M0, M1, M2) Name,
  VG_HVM_GROUPS(VG_HVM_X)
#undef VG_HVM_X
  Count
};

constexpr unsigned FirstGroupByte =
    NumGenericOps + static_cast<unsigned>(SpecOp::Count);
constexpr uint8_t byteOf(Group G) {
  return static_cast<uint8_t>(FirstGroupByte + static_cast<unsigned>(G));
}

/// Every opcode byte encode() can write lies below this.
constexpr unsigned NumOpcodes =
    FirstGroupByte + static_cast<unsigned>(Group::Count);
static_assert(NumOpcodes < NoMember, "opcode bytes overflow");

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
/// are below NumHostRegs (CALL's 0xFF "no result" aside),
/// ir::Ops are real, guest-state accesses end within \p GuestStateSize,
/// spill slots are below \p NumSpillSlots, a CALL has at most 4
/// arguments, every JZ targets the start of a later instruction, each group
/// byte is followed by its group's members, and the last instruction is
/// an EXITI or EXITR. The executor then touches no host memory outside the
/// guest state, the spill frame and its register file, and cannot run off
/// the end of the blob or loop within it.
bool checkOperands(const std::vector<uint8_t> &Bytes, uint32_t GuestStateSize,
                   uint32_t NumSpillSlots);

} // namespace hvm
} // namespace vg

#endif // VG_HVM_HOSTVM_H
