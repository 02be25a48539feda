//===-- guest/Assembler.h - Programmatic VG1 assembler ----------*- C++ -*-==//
///
/// \file
/// A programmatic assembler for VG1. Guest programs (the guest runtime
/// library, examples, tests, and the SPEC-like workloads of the Table 2
/// harness) are written against this API: one method per instruction,
/// forward-referencing labels, data directives, and named symbols that end
/// up in the guest executable image's symbol table (used by function
/// redirection, R8).
///
//===----------------------------------------------------------------------===//
#ifndef VG_GUEST_ASSEMBLER_H
#define VG_GUEST_ASSEMBLER_H

#include "guest/GuestArch.h"

#include <bit>
#include <cassert>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace vg {
namespace vg1 {

/// GPR names for the assembler API.
enum class Reg : uint8_t {
  R0 = 0, R1, R2, R3, R4, R5, R6, R7,
  R8, R9, R10, R11, R12, R13, R14, R15,
  SP = 14,
  LR = 15,
};

/// FPR names for the assembler API.
enum class FReg : uint8_t { F0 = 0, F1, F2, F3, F4, F5, F6, F7 };

/// A forward-referencing code label.
struct Label {
  int Id = -1;
  bool valid() const { return Id >= 0; }
};

/// Assembles a VG1 code+data image based at a fixed guest address.
class Assembler {
public:
  explicit Assembler(uint32_t BaseAddr) : Base(BaseAddr) {}

  uint32_t baseAddr() const { return Base; }
  /// Current guest address (next byte to be emitted).
  uint32_t here() const { return Base + static_cast<uint32_t>(Code.size()); }

  // --- Labels and symbols ---------------------------------------------
  Label newLabel();
  void bind(Label L);
  /// Creates a label already bound at the current position.
  Label boundLabel() {
    Label L = newLabel();
    bind(L);
    return L;
  }
  /// Records a named symbol at the current position (ends up in the image
  /// symbol table; function redirection is keyed on these).
  void symbol(const std::string &Name);
  /// Guest address of a bound label.
  uint32_t labelAddr(Label L) const;

  // --- Moves and ALU ---------------------------------------------------
  void movi(Reg Rd, uint32_t Imm) {
    emit(Opcode::MOVI, n(Rd), 0, 0, static_cast<int32_t>(Imm));
  }
  void mov(Reg Rd, Reg Rs) { emit(Opcode::MOV, n(Rd), n(Rs)); }
  void add(Reg Rd, Reg Rs, Reg Rt) { alu3(Opcode::ADD, Rd, Rs, Rt); }
  void sub(Reg Rd, Reg Rs, Reg Rt) { alu3(Opcode::SUB, Rd, Rs, Rt); }
  void and_(Reg Rd, Reg Rs, Reg Rt) { alu3(Opcode::AND, Rd, Rs, Rt); }
  void or_(Reg Rd, Reg Rs, Reg Rt) { alu3(Opcode::OR, Rd, Rs, Rt); }
  void xor_(Reg Rd, Reg Rs, Reg Rt) { alu3(Opcode::XOR, Rd, Rs, Rt); }
  void shl(Reg Rd, Reg Rs, Reg Rt) { alu3(Opcode::SHL, Rd, Rs, Rt); }
  void shr(Reg Rd, Reg Rs, Reg Rt) { alu3(Opcode::SHR, Rd, Rs, Rt); }
  void sar(Reg Rd, Reg Rs, Reg Rt) { alu3(Opcode::SAR, Rd, Rs, Rt); }
  void mul(Reg Rd, Reg Rs, Reg Rt) { alu3(Opcode::MUL, Rd, Rs, Rt); }
  void divu(Reg Rd, Reg Rs, Reg Rt) { alu3(Opcode::DIVU, Rd, Rs, Rt); }
  void divs(Reg Rd, Reg Rs, Reg Rt) { alu3(Opcode::DIVS, Rd, Rs, Rt); }
  void addi(Reg Rd, Reg Rs, int32_t Imm) {
    emit(Opcode::ADDI, n(Rd), n(Rs), 0, Imm);
  }
  void andi(Reg Rd, Reg Rs, uint32_t Imm) {
    emit(Opcode::ANDI, n(Rd), n(Rs), 0, static_cast<int32_t>(Imm));
  }
  void shli(Reg Rd, Reg Rs, uint8_t Imm) {
    emit(Opcode::SHLI, n(Rd), n(Rs), 0, Imm);
  }
  void shri(Reg Rd, Reg Rs, uint8_t Imm) {
    emit(Opcode::SHRI, n(Rd), n(Rs), 0, Imm);
  }
  void sari(Reg Rd, Reg Rs, uint8_t Imm) {
    emit(Opcode::SARI, n(Rd), n(Rs), 0, Imm);
  }
  void cmp(Reg Rs, Reg Rt) { emit(Opcode::CMP, n(Rs), n(Rt)); }
  void cmpi(Reg Rs, int32_t Imm) { emit(Opcode::CMPI, n(Rs), 0, 0, Imm); }

  // --- Memory ----------------------------------------------------------
  void ld(Reg Rd, Reg Base, int16_t Disp) { mem(Opcode::LD, Rd, Base, Disp); }
  void st(Reg Base, int16_t Disp, Reg Rv) { mem(Opcode::ST, Base, Rv, Disp); }
  void ldb(Reg Rd, Reg B, int16_t D) { mem(Opcode::LDB, Rd, B, D); }
  void ldsb(Reg Rd, Reg B, int16_t D) { mem(Opcode::LDSB, Rd, B, D); }
  void stb(Reg B, int16_t D, Reg Rv) { mem(Opcode::STB, B, Rv, D); }
  void ldh(Reg Rd, Reg B, int16_t D) { mem(Opcode::LDH, Rd, B, D); }
  void ldsh(Reg Rd, Reg B, int16_t D) { mem(Opcode::LDSH, Rd, B, D); }
  void sth(Reg B, int16_t D, Reg Rv) { mem(Opcode::STH, B, Rv, D); }
  void ldx(Reg Rd, Reg Base, Reg Index, uint8_t Scale, int32_t Disp) {
    emit({.Op = Opcode::LDX, .Rd = n(Rd), .Rs = n(Base), .Rt = n(Index),
          .Scale = Scale, .Imm = Disp});
  }
  void stx(Reg Base, Reg Index, uint8_t Scale, int32_t Disp, Reg Rv) {
    emit({.Op = Opcode::STX, .Rd = n(Base), .Rs = n(Rv), .Rt = n(Index),
          .Scale = Scale, .Imm = Disp});
  }
  void push(Reg Rs) { emit(Opcode::PUSH, n(Rs)); }
  void pop(Reg Rd) { emit(Opcode::POP, n(Rd)); }

  // --- Control flow ----------------------------------------------------
  void bcc(Cond C, Label Target) {
    emit({.Op = Opcode::BCC, .BCond = C}, Target);
  }
  void beq(Label T) { bcc(Cond::EQ, T); }
  void bne(Label T) { bcc(Cond::NE, T); }
  void blt(Label T) { bcc(Cond::LTS, T); }
  void bge(Label T) { bcc(Cond::GES, T); }
  void bltu(Label T) { bcc(Cond::LTU, T); }
  void bgeu(Label T) { bcc(Cond::GEU, T); }
  void bgt(Label T) { bcc(Cond::GTS, T); }
  void ble(Label T) { bcc(Cond::LES, T); }
  void jmp(Label Target) { emit({.Op = Opcode::JMP}, Target); }
  void jmpr(Reg Rs) { emit(Opcode::JMPR, n(Rs)); }
  void call(Label Target) { emit({.Op = Opcode::CALL}, Target); }
  void callr(Reg Rs) { emit(Opcode::CALLR, n(Rs)); }
  void ret() { emit(Opcode::RET); }
  void sys() { emit(Opcode::SYS); }
  void cpuinfo() { emit(Opcode::CPUINFO); }
  void clreq() { emit(Opcode::CLREQ); }
  void nop() { emit(Opcode::NOP); }
  void hlt() { emit(Opcode::HLT); }

  // --- Floating point and SIMD ----------------------------------------
  void fadd(FReg Fd, FReg Fs, FReg Ft) { falu3(Opcode::FADD, Fd, Fs, Ft); }
  void fsub(FReg Fd, FReg Fs, FReg Ft) { falu3(Opcode::FSUB, Fd, Fs, Ft); }
  void fmul(FReg Fd, FReg Fs, FReg Ft) { falu3(Opcode::FMUL, Fd, Fs, Ft); }
  void fdiv(FReg Fd, FReg Fs, FReg Ft) { falu3(Opcode::FDIV, Fd, Fs, Ft); }
  void fneg(FReg Fd, FReg Fs) { emit(Opcode::FNEG, n(Fd), n(Fs)); }
  void fmov(FReg Fd, FReg Fs) { emit(Opcode::FMOV, n(Fd), n(Fs)); }
  void fld(FReg Fd, Reg Base, int16_t Disp) {
    emit(Opcode::FLD, n(Fd), n(Base), 0, Disp);
  }
  void fst(Reg Base, int16_t Disp, FReg Fs) {
    emit(Opcode::FST, n(Base), n(Fs), 0, Disp);
  }
  void fitod(FReg Fd, Reg Rs) { emit(Opcode::FITOD, n(Fd), n(Rs)); }
  void fdtoi(Reg Rd, FReg Fs) { emit(Opcode::FDTOI, n(Rd), n(Fs)); }
  void fcmp(FReg Fs, FReg Ft) { emit(Opcode::FCMP, n(Fs), n(Ft)); }
  void fmovi(FReg Fd, double Value) {
    emit({.Op = Opcode::FMOVI, .Rd = n(Fd),
          .Imm64 = std::bit_cast<uint64_t>(Value)});
  }
  void vadd8(Reg Rd, Reg Rs, Reg Rt) { alu3(Opcode::VADD8, Rd, Rs, Rt); }
  void vsub8(Reg Rd, Reg Rs, Reg Rt) { alu3(Opcode::VSUB8, Rd, Rs, Rt); }
  void vcmpgt8(Reg Rd, Reg Rs, Reg Rt) { alu3(Opcode::VCMPGT8, Rd, Rs, Rt); }

  // --- Data directives -------------------------------------------------
  void emitU8(uint8_t V) { Code.push_back(V); }
  void emitU16(uint16_t V);
  void emitU32(uint32_t V);
  void emitU64(uint64_t V);
  void emitF64(double V);
  void emitBytes(const void *Data, size_t Len);
  void emitString(const std::string &S); ///< bytes + NUL terminator
  void emitZeros(size_t Len);
  void align(uint32_t A);
  /// Loads a label's absolute address into a register (a MOVI fixup).
  void leai(Reg Rd, Label L) { emit({.Op = Opcode::MOVI, .Rd = n(Rd)}, L); }

  // --- Finalisation ----------------------------------------------------
  /// Resolves all fixups and returns the image bytes. All referenced labels
  /// must be bound.
  std::vector<uint8_t> finalize();
  const std::map<std::string, uint32_t> &symbols() const { return Symbols; }

private:
  static uint8_t n(Reg R) { return static_cast<uint8_t>(R); }
  static uint8_t n(FReg F) { return static_cast<uint8_t>(F); }
  /// Writes \p I through encodeInstr, one byte at a time. A valid
  /// \p Target is the label whose address finalize() patches into the
  /// instruction's trailing u32 (a branch target or MOVI's immediate).
  void emit(const Instr &I, Label Target = Label());
  void emit(Opcode Op, uint8_t Rd = 0, uint8_t Rs = 0, uint8_t Rt = 0,
            int32_t Imm = 0) {
    emit({.Op = Op, .Rd = Rd, .Rs = Rs, .Rt = Rt, .Imm = Imm});
  }
  void alu3(Opcode Op, Reg Rd, Reg Rs, Reg Rt) {
    emit(Op, n(Rd), n(Rs), n(Rt));
  }
  void falu3(Opcode Op, FReg Fd, FReg Fs, FReg Ft) {
    emit(Op, n(Fd), n(Fs), n(Ft));
  }
  void mem(Opcode Op, Reg A, Reg B, int16_t Disp) {
    emit(Op, n(A), n(B), 0, Disp);
  }
  void addFixup(Label L, size_t Offset);

  struct Fixup {
    int LabelId;
    size_t Offset; ///< byte offset of the u32 to patch
  };

  uint32_t Base;
  std::vector<uint8_t> Code;
  std::vector<int64_t> LabelOffsets; ///< -1 while unbound
  std::vector<Fixup> Fixups;
  std::map<std::string, uint32_t> Symbols;
};

/// Re-encodes a decoded instruction back into machine code. \p Out must
/// have room for MaxInstrLen (10) bytes. Returns the encoded length, or 0
/// if \p I is not encodable (no VG1_OPCODES row, or a field out of range:
/// register > 15, LDX scale > 3, memory displacement outside int16, shift
/// imm8 outside 0..255, Bcc condition >= NumConds).
///
/// This is the inverse of decode(): for every decodable byte sequence B,
/// encodeInstr(decode(B)) reproduces B exactly, up to the don't-care
/// nibbles the decoder ignores (ALU3 byte 2 low nibble, FMOVI byte 1 low
/// nibble), which are re-emitted as 0 — the assembler's canonical form.
/// The round-trip property is enforced over the whole opcode table by
/// tests/RoundTripTests.cpp.
unsigned encodeInstr(const Instr &I, uint8_t *Out);

} // namespace vg1
} // namespace vg

#endif // VG_GUEST_ASSEMBLER_H
