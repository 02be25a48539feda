//===-- guest/GuestArch.h - The VG1 guest architecture ----------*- C++ -*-==//
///
/// \file
/// Defines the synthetic guest ISA ("VG1") that stands in for x86 in this
/// reproduction. VG1 is deliberately CISC-flavoured in the ways that matter
/// to the paper:
///
///  - variable-length instruction encodings (1..10 bytes), so IMark lengths
///    are meaningful;
///  - condition codes (NZCV) set as a *side effect* of most ALU operations,
///    which the D&R front end must synthesise explicitly via a CC thunk
///    (CC_OP/CC_DEP1/CC_DEP2), exactly as Valgrind models x86 %eflags
///    (Section 3.7);
///  - a scaled-index addressing mode (LDX/STX) that expands to multiple IR
///    operations, exposing intermediate address values to tools (R3);
///  - FP (F64) and packed-SIMD (4x8-bit lanes) instructions, because the
///    paper stresses that analysis code must be as expressive as client
///    code (Section 5.3);
///  - an unusual architecture-specific instruction (CPUINFO, standing in
///    for x86 cpuid) that the front end handles with an annotated dirty
///    helper call instead of explicit IR (Section 3.6).
///
/// The file also fixes the guest-state layout used by the ThreadState: guest
/// registers first, then (at ShadowOffset) a full shadow copy, making shadow
/// registers first-class (R1).
///
//===----------------------------------------------------------------------===//
#ifndef VG_GUEST_GUESTARCH_H
#define VG_GUEST_GUESTARCH_H

#include <array>
#include <cstdint>

namespace vg {
namespace vg1 {

//===----------------------------------------------------------------------===//
// Registers
//===----------------------------------------------------------------------===//

constexpr unsigned NumGPRs = 16;
constexpr unsigned NumFPRs = 8;

/// r14 is the stack pointer by ABI convention; r15 the link register.
constexpr unsigned RegSP = 14;
constexpr unsigned RegLR = 15;

//===----------------------------------------------------------------------===//
// Guest-state layout (byte offsets into the ThreadState guest area).
//
// The shadow state is a full mirror image at ShadowOffset; a tool GETs the
// shadow of r3 simply by reading offset gpr(3) + ShadowOffset. This is what
// makes shadow registers first-class entities (Section 4, R1).
//===----------------------------------------------------------------------===//
namespace gso {
constexpr uint32_t R0 = 0; // 16 GPRs, 4 bytes each: 0..63
constexpr uint32_t PC = 64;
constexpr uint32_t CC_OP = 68;
constexpr uint32_t CC_DEP1 = 72;
constexpr uint32_t CC_DEP2 = 76;
constexpr uint32_t CC_NDEP = 80;
constexpr uint32_t F0 = 88; // 8 FPRs, 8 bytes each: 88..151
constexpr uint32_t EMNOTE = 152;
constexpr uint32_t GuestStateSize = 160;
/// Offset of the shadow copy of the whole guest state.
constexpr uint32_t ShadowOffset = 192;
/// Total per-thread state area (guest + shadow).
constexpr uint32_t TotalSize = ShadowOffset + GuestStateSize; // 352

constexpr uint32_t gpr(unsigned I) { return R0 + 4 * I; }
constexpr uint32_t fpr(unsigned I) { return F0 + 8 * I; }
} // namespace gso

//===----------------------------------------------------------------------===//
// Condition codes
//===----------------------------------------------------------------------===//

/// NZCV flag bits as packed into a computed flags word.
constexpr uint32_t FlagN = 8;
constexpr uint32_t FlagZ = 4;
constexpr uint32_t FlagC = 2;
constexpr uint32_t FlagV = 1;

/// CC thunk operation kinds. After an ALU instruction the front end stores
/// (CCOp, operand1, operand2) into the thunk instead of eagerly computing
/// NZCV; flags are materialised lazily by calcNZCV, and the IR optimiser
/// can partially evaluate uses when CC_OP is a known constant.
enum class CCOp : uint32_t {
  Copy = 0,  ///< CC_DEP1 already holds the NZCV bits (used by FCMP).
  Add = 1,   ///< Flags of DEP1 + DEP2.
  Sub = 2,   ///< Flags of DEP1 - DEP2 (C set means "no borrow", ARM-style).
  Logic = 3, ///< Flags of a logical result held in DEP1 (C = V = 0).
};

/// Branch condition kinds (Bcc instruction suffixes).
enum class Cond : uint8_t {
  EQ = 0, ///< Z
  NE = 1, ///< !Z
  LTS = 2, ///< N != V
  GES = 3, ///< N == V
  LTU = 4, ///< !C
  GEU = 5, ///< C
  GTS = 6, ///< !Z && N == V
  LES = 7, ///< Z || N != V
  MI = 8, ///< N
  PL = 9, ///< !N
};
constexpr unsigned NumConds = 10;

/// Materialises the NZCV flag word from a CC thunk. This is also the body
/// of the IR helper the front end calls (see frontend/Vg1Frontend.cpp).
inline uint32_t calcNZCV(uint32_t Op, uint32_t Dep1, uint32_t Dep2) {
  uint32_t N = 0, Z = 0, C = 0, V = 0, Res;
  switch (static_cast<CCOp>(Op)) {
  case CCOp::Copy:
    return Dep1 & 0xF;
  case CCOp::Add:
    Res = Dep1 + Dep2;
    N = Res >> 31;
    Z = Res == 0;
    C = Res < Dep1; // carry out
    V = ((Dep1 ^ ~Dep2) & (Dep1 ^ Res)) >> 31;
    break;
  case CCOp::Sub:
    Res = Dep1 - Dep2;
    N = Res >> 31;
    Z = Res == 0;
    C = Dep1 >= Dep2; // C set == no borrow
    V = ((Dep1 ^ Dep2) & (Dep1 ^ Res)) >> 31;
    break;
  case CCOp::Logic:
    Res = Dep1;
    N = Res >> 31;
    Z = Res == 0;
    break;
  }
  return (N ? FlagN : 0) | (Z ? FlagZ : 0) | (C ? FlagC : 0) | (V ? FlagV : 0);
}

/// Evaluates condition \p CondKind against a flag word.
inline bool condHolds(Cond CondKind, uint32_t NZCV) {
  bool N = NZCV & FlagN, Z = NZCV & FlagZ, C = NZCV & FlagC, V = NZCV & FlagV;
  switch (CondKind) {
  case Cond::EQ:
    return Z;
  case Cond::NE:
    return !Z;
  case Cond::LTS:
    return N != V;
  case Cond::GES:
    return N == V;
  case Cond::LTU:
    return !C;
  case Cond::GEU:
    return C;
  case Cond::GTS:
    return !Z && N == V;
  case Cond::LES:
    return Z || N != V;
  case Cond::MI:
    return N;
  case Cond::PL:
    return !N;
  }
  return false;
}

/// One-call helper used both by the reference interpreter and by the IR
/// helper call the front end emits for conditional branches.
inline uint32_t calcCond(uint32_t CondKind, uint32_t Op, uint32_t Dep1,
                         uint32_t Dep2) {
  return condHolds(static_cast<Cond>(CondKind), calcNZCV(Op, Dep1, Dep2)) ? 1
                                                                          : 0;
}

//===----------------------------------------------------------------------===//
// Opcodes and encodings
//===----------------------------------------------------------------------===//

/// The byte layouts an instruction can have ("a:b" packs two 4-bit fields
/// into one byte, high nibble first; immediates are little-endian), and
/// Undefined for a byte that starts no instruction.
enum class Format : uint8_t {
  Undefined,
  None,  ///< [op]                              len 1
  RR,    ///< [op][rd:rs]                       len 2
  RRR,   ///< [op][rd:rs][rt:0]                 len 3
  RRI8,  ///< [op][rd:rs][imm8]                 len 3
  RRD16, ///< [op][rd:rs][disp16]               len 4
  T32,   ///< [op][target32]                    len 5
  RRI32, ///< [op][rd:rs][imm32]                len 6
  RRX,   ///< [op][rd:rs][rt:scale][disp32]     len 7
  FI64,  ///< [op][fd:0][imm64]                 len 10
};
constexpr unsigned formatLen(Format F) {
  constexpr uint8_t Len[] = {0, 1, 2, 3, 3, 4, 5, 6, 7, 10};
  return Len[static_cast<unsigned>(F)];
}

/// Every VG1 instruction, one row each:
///   X(Name, Byte, Format, Asm, SetsFlags)
/// Byte is the opcode byte; Bcc's row covers 0x20 + Cond for every Cond.
/// Asm is how toString renders it: "$d", "$s", "$t", "$c" print Rd, Rs,
/// Rt and Scale; "$i", "$o" and "$x" print Imm as %d, %+d and %x; "$g"
/// prints Imm64 as a double and "$b" the condition's name. SetsFlags says
/// whether it writes the CC thunk. Adding an instruction is one row here
/// plus its semantics in RefInterp and the front end.
#define VG1_OPCODES(X)                                                        \
  X(NOP, 0x00, None, "nop", false)                                            \
  X(HLT, 0x01, None, "hlt", false)                                            \
  X(MOVI, 0x02, RRI32, "movi r$d, 0x$x", false)                               \
  X(MOV, 0x03, RR, "mov r$d, r$s", false)                                     \
  X(ADD, 0x04, RRR, "add r$d, r$s, r$t", true)                                \
  X(SUB, 0x05, RRR, "sub r$d, r$s, r$t", true)                                \
  X(AND, 0x06, RRR, "and r$d, r$s, r$t", true)                                \
  X(OR, 0x07, RRR, "or r$d, r$s, r$t", true)                                  \
  X(XOR, 0x08, RRR, "xor r$d, r$s, r$t", true)                                \
  X(SHL, 0x09, RRR, "shl r$d, r$s, r$t", true)                                \
  X(SHR, 0x0A, RRR, "shr r$d, r$s, r$t", true)                                \
  X(SAR, 0x0B, RRR, "sar r$d, r$s, r$t", true)                                \
  X(MUL, 0x0C, RRR, "mul r$d, r$s, r$t", false)                               \
  X(DIVU, 0x0D, RRR, "divu r$d, r$s, r$t", false)                             \
  X(DIVS, 0x0E, RRR, "divs r$d, r$s, r$t", false)                             \
  X(ADDI, 0x0F, RRI32, "addi r$d, r$s, $i", true)                             \
  X(CMP, 0x10, RR, "cmp r$d, r$s", true)                                      \
  X(CMPI, 0x11, RRI32, "cmpi r$d, $i", true)                                  \
  X(LD, 0x12, RRD16, "ld r$d, [r$s$o]", false)                                \
  X(ST, 0x13, RRD16, "st [r$d$o], r$s", false)                                \
  X(LDX, 0x14, RRX, "ldx r$d, [r$s + r$t<<$c $o]", false)                     \
  X(STX, 0x15, RRX, "stx [r$d + r$t<<$c $o], r$s", false)                     \
  X(LDB, 0x16, RRD16, "ldb r$d, [r$s$o]", false)                              \
  X(LDSB, 0x17, RRD16, "ldsb r$d, [r$s$o]", false)                            \
  X(STB, 0x18, RRD16, "stb [r$d$o], r$s", false)                              \
  X(LDH, 0x19, RRD16, "ldh r$d, [r$s$o]", false)                              \
  X(LDSH, 0x1A, RRD16, "ldsh r$d, [r$s$o]", false)                            \
  X(STH, 0x1B, RRD16, "sth [r$d$o], r$s", false)                              \
  X(SHLI, 0x1C, RRI8, "shli r$d, r$s, $i", true)                              \
  X(SHRI, 0x1D, RRI8, "shri r$d, r$s, $i", true)                              \
  X(SARI, 0x1E, RRI8, "sari r$d, r$s, $i", true)                              \
  X(ANDI, 0x1F, RRI32, "andi r$d, r$s, 0x$x", true)                           \
  X(BCC, 0x20, T32, "b$b 0x$x", false)                                        \
  X(JMP, 0x2E, T32, "jmp 0x$x", false)                                        \
  X(JMPR, 0x2F, RR, "jmp* r$d", false)                                        \
  X(CALL, 0x30, T32, "call 0x$x", false)                                      \
  X(CALLR, 0x31, RR, "call* r$d", false)                                      \
  X(RET, 0x32, None, "ret", false)                                            \
  X(PUSH, 0x33, RR, "push r$d", false)                                        \
  X(POP, 0x34, RR, "pop r$d", false)                                          \
  X(SYS, 0x35, None, "sys", false)                                            \
  X(CPUINFO, 0x36, None, "cpuinfo", false)                                    \
  X(CLREQ, 0x37, None, "clreq", false)                                        \
  X(FADD, 0x40, RRR, "fadd f$d, f$s, f$t", false)                             \
  X(FSUB, 0x41, RRR, "fsub f$d, f$s, f$t", false)                             \
  X(FMUL, 0x42, RRR, "fmul f$d, f$s, f$t", false)                             \
  X(FDIV, 0x43, RRR, "fdiv f$d, f$s, f$t", false)                             \
  X(FNEG, 0x44, RR, "fneg f$d, f$s", false)                                   \
  X(FLD, 0x45, RRD16, "fld f$d, [r$s$o]", false)                              \
  X(FST, 0x46, RRD16, "fst [r$d$o], f$s", false)                              \
  X(FITOD, 0x47, RR, "fitod f$d, r$s", false)                                 \
  X(FDTOI, 0x48, RR, "fdtoi r$d, f$s", false)                                 \
  X(FCMP, 0x49, RR, "fcmp f$d, f$s", true)                                    \
  X(FMOVI, 0x4A, FI64, "fmovi f$d, $g", false)                                \
  X(FMOV, 0x4B, RR, "fmov f$d, f$s", false)                                   \
  X(VADD8, 0x50, RRR, "vadd8 r$d, r$s, r$t", false)                           \
  X(VSUB8, 0x51, RRR, "vsub8 r$d, r$s, r$t", false)                           \
  X(VCMPGT8, 0x52, RRR, "vcmpgt8 r$d, r$s, r$t", false)

enum class Opcode : uint8_t {
#define VG1_OPCODE_ENUM(Name, Byte, Fmt, Asm, Flags) Name = Byte,
  VG1_OPCODES(VG1_OPCODE_ENUM)
#undef VG1_OPCODE_ENUM
};

/// What a first byte starts: its opcode (Bcc for all of 0x20 + Cond), the
/// layout, whether it writes the CC thunk, and its Asm template.
struct OpcodeInfo {
  Opcode Op = Opcode::NOP;
  Format F = Format::Undefined;
  bool SetsFlags = false;
  const char *Asm = nullptr;
};

/// OpcodeInfo for every first byte, built from VG1_OPCODES.
inline constexpr std::array<OpcodeInfo, 256> OpcodeTable = [] {
  std::array<OpcodeInfo, 256> T{};
#define VG1_OPCODE_ROW(Name, Byte, Fmt, Asm, Flags)                           \
  for (unsigned B = Byte;                                                     \
       B != Byte + (Opcode::Name == Opcode::BCC ? NumConds : 1); ++B) {       \
    if (T[B].F != Format::Undefined)                                          \
      throw "two VG1_OPCODES rows claim one byte";                            \
    T[B] = OpcodeInfo{Opcode::Name, Format::Fmt, Flags, Asm};                 \
  }
  VG1_OPCODES(VG1_OPCODE_ROW)
#undef VG1_OPCODE_ROW
  return T;
}();

/// Maximum encoded length of any VG1 instruction (FMOVI).
constexpr unsigned MaxInstrLen = formatLen(Format::FI64);

/// Values CPUINFO deposits in r0/r1 (emulated via a dirty helper under DBI).
constexpr uint32_t CpuInfoMagic = 0x56473100; // "VG1\0"
constexpr uint32_t CpuInfoVersion = 1;

/// A decoded VG1 instruction.
struct Instr {
  Opcode Op = Opcode::NOP;
  uint8_t Len = 0;
  uint8_t Rd = 0, Rs = 0, Rt = 0;
  uint8_t Scale = 0;    ///< LDX/STX index scale (0..3, shift amount)
  Cond BCond = Cond::EQ; ///< Bcc only
  int32_t Imm = 0;       ///< imm32 / disp / imm8 / branch target
  uint64_t Imm64 = 0;    ///< FMOVI payload (IEEE754 bits)
};

/// Whether \p Op writes the condition-code thunk.
inline bool opSetsFlags(Opcode Op) {
  return OpcodeTable[static_cast<uint8_t>(Op)].SetsFlags;
}

} // namespace vg1
} // namespace vg

#endif // VG_GUEST_GUESTARCH_H
