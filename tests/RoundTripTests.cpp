//===-- tests/RoundTripTests.cpp - Assembler/Decoder/Disasm round trips ---==//
///
/// \file
/// Exhaustive encode -> decode -> re-encode round trips over the full VG1
/// opcode table, plus decode(assembler output) identity and disassembly
/// sanity (no decodable instruction renders as "<bad>" or empty). These
/// pin down the encoding contract the differential fuzzer relies on: the
/// Assembler, Decoder, and Disasm can never disagree about an encoding.
///
//===----------------------------------------------------------------------===//

#include "guest/Assembler.h"
#include "guest/Decoder.h"
#include "guest/Disasm.h"

#include "gtest/gtest.h"

#include <cstring>
#include <vector>

using namespace vg;
using namespace vg::vg1;

namespace {

// Every opcode in the table, grouped by encoding form.
const Opcode Len1Ops[] = {Opcode::NOP, Opcode::HLT,     Opcode::RET,
                          Opcode::SYS, Opcode::CPUINFO, Opcode::CLREQ};
const Opcode Len2Ops[] = {Opcode::MOV,   Opcode::CMP,   Opcode::JMPR,
                          Opcode::CALLR, Opcode::PUSH,  Opcode::POP,
                          Opcode::FNEG,  Opcode::FITOD, Opcode::FDTOI,
                          Opcode::FCMP,  Opcode::FMOV};
const Opcode Alu3Ops[] = {Opcode::ADD,   Opcode::SUB,   Opcode::AND,
                          Opcode::OR,    Opcode::XOR,   Opcode::SHL,
                          Opcode::SHR,   Opcode::SAR,   Opcode::MUL,
                          Opcode::DIVU,  Opcode::DIVS,  Opcode::FADD,
                          Opcode::FSUB,  Opcode::FMUL,  Opcode::FDIV,
                          Opcode::VADD8, Opcode::VSUB8, Opcode::VCMPGT8};
const Opcode ShiftIOps[] = {Opcode::SHLI, Opcode::SHRI, Opcode::SARI};
const Opcode MemOps[] = {Opcode::LD,   Opcode::ST,   Opcode::LDB,
                         Opcode::LDSB, Opcode::STB,  Opcode::LDH,
                         Opcode::LDSH, Opcode::STH,  Opcode::FLD,
                         Opcode::FST};
const Opcode Jmp32Ops[] = {Opcode::JMP, Opcode::CALL};
const Opcode Imm32Ops[] = {Opcode::MOVI, Opcode::CMPI, Opcode::ADDI,
                           Opcode::ANDI};
const Opcode IndexOps[] = {Opcode::LDX, Opcode::STX};

// decode(encodeInstr(I)) must reproduce I field-for-field, and re-encoding
// the decode must reproduce the same bytes (full canonical round trip).
void expectRoundTrip(const Instr &I) {
  uint8_t Buf[MaxInstrLen] = {0};
  unsigned Len = encodeInstr(I, Buf);
  ASSERT_NE(Len, 0u) << "unencodable: " << toString(I);

  Instr D;
  ASSERT_TRUE(decode(Buf, Len, D)) << "undecodable: " << toString(I);
  EXPECT_EQ(D.Op, I.Op);
  EXPECT_EQ(D.Len, Len);
  EXPECT_EQ(D.Rd, I.Rd);
  EXPECT_EQ(D.Rs, I.Rs);
  EXPECT_EQ(D.Rt, I.Rt);
  EXPECT_EQ(D.Scale, I.Scale);
  EXPECT_EQ(D.Imm, I.Imm);
  EXPECT_EQ(D.Imm64, I.Imm64);
  if (I.Op == Opcode::BCC) {
    EXPECT_EQ(D.BCond, I.BCond);
  }

  uint8_t Buf2[MaxInstrLen] = {0};
  unsigned Len2 = encodeInstr(D, Buf2);
  ASSERT_EQ(Len2, Len);
  EXPECT_EQ(0, std::memcmp(Buf, Buf2, Len)) << "non-canonical re-encode of "
                                            << toString(I);

  // A truncated buffer must be rejected, never mis-decoded short.
  if (Len > 1) {
    Instr T;
    EXPECT_FALSE(decode(Buf, Len - 1, T)) << toString(I);
    EXPECT_EQ(T.Len, 0);
  }

  // Disassembly must render every decodable instruction.
  std::string S = toString(D);
  EXPECT_FALSE(S.empty());
  EXPECT_EQ(S.find("<bad>"), std::string::npos) << S;
  EXPECT_EQ(S.find("bad"), std::string::npos) << S;
}

Instr mk(Opcode Op, uint8_t Rd = 0, uint8_t Rs = 0, uint8_t Rt = 0,
         int32_t Imm = 0) {
  Instr I;
  I.Op = Op;
  I.Rd = Rd;
  I.Rs = Rs;
  I.Rt = Rt;
  I.Imm = Imm;
  return I;
}

TEST(RoundTrip, NoOperandForms) {
  for (Opcode Op : Len1Ops)
    expectRoundTrip(mk(Op));
}

TEST(RoundTrip, TwoRegForms) {
  for (Opcode Op : Len2Ops)
    for (uint8_t Rd : {0, 1, 7, 14, 15})
      for (uint8_t Rs : {0, 3, 15})
        expectRoundTrip(mk(Op, Rd, Rs));
}

TEST(RoundTrip, Alu3Forms) {
  for (Opcode Op : Alu3Ops)
    for (uint8_t Rd : {0, 5, 15})
      for (uint8_t Rs : {0, 9, 15})
        for (uint8_t Rt : {0, 2, 15})
          expectRoundTrip(mk(Op, Rd, Rs, Rt));
}

TEST(RoundTrip, ShiftImmediateForms) {
  // imm8 is decoded raw (not masked); 32+ and 255 must survive unchanged.
  for (Opcode Op : ShiftIOps)
    for (int32_t Imm : {0, 1, 31, 32, 33, 63, 64, 255})
      expectRoundTrip(mk(Op, 3, 12, 0, Imm));
}

TEST(RoundTrip, MemoryForms) {
  // disp16 edge cases, both signs, including the INT16 extremes.
  for (Opcode Op : MemOps)
    for (int32_t D : {0, 1, -1, 127, -128, 255, 0x7FFF, -0x8000})
      expectRoundTrip(mk(Op, 4, 13, 0, D));
}

TEST(RoundTrip, Branch32Forms) {
  for (Opcode Op : Jmp32Ops)
    for (int32_t T :
         {0, 0x1000, static_cast<int32_t>(0x80000000), -1})
      expectRoundTrip(mk(Op, 0, 0, 0, T));
}

TEST(RoundTrip, ConditionalBranchAllConds) {
  for (unsigned C = 0; C != NumConds; ++C) {
    Instr I = mk(Opcode::BCC, 0, 0, 0, 0x2040);
    I.BCond = static_cast<Cond>(C);
    expectRoundTrip(I);
  }
}

TEST(RoundTrip, Imm32Forms) {
  for (Opcode Op : Imm32Ops) {
    // MOVI/CMPI encode [r:0]; ADDI/ANDI use both register fields.
    bool TwoReg = Op == Opcode::ADDI || Op == Opcode::ANDI;
    for (int32_t Imm : {0, 1, -1, 0x7FFFFFFF, static_cast<int32_t>(0x80000000),
                        static_cast<int32_t>(0xAAAAAAAA)})
      expectRoundTrip(mk(Op, 6, TwoReg ? 11 : 0, 0, Imm));
  }
}

TEST(RoundTrip, ScaledIndexForms) {
  for (Opcode Op : IndexOps)
    for (uint8_t Scale : {0, 1, 2, 3})
      for (int32_t D : {0, -4, 0x7FFFFFFF, static_cast<int32_t>(0x80000000)}) {
        Instr I = mk(Op, 2, 12, 15, D);
        I.Scale = Scale;
        expectRoundTrip(I);
      }
}

TEST(RoundTrip, FMovImmediateBitPatterns) {
  // NaN payloads, infinities, signed zero, denormals — the exact bits must
  // survive (FMOVI carries raw IEEE754, not a value).
  const uint64_t Payloads[] = {
      0x0000000000000000ull, 0x8000000000000000ull, 0x7FF0000000000000ull,
      0xFFF0000000000000ull, 0x7FF8000000000001ull, 0x7FF4DEADBEEF1234ull,
      0x0000000000000001ull, 0x3FF0000000000000ull, 0xFFFFFFFFFFFFFFFFull};
  for (uint64_t Bits : Payloads) {
    Instr I = mk(Opcode::FMOVI, 7);
    I.Imm64 = Bits;
    expectRoundTrip(I);
  }
}

TEST(RoundTrip, EncodeRejectsOutOfRange) {
  uint8_t Buf[MaxInstrLen];
  Instr I = mk(Opcode::ADD, 16, 0, 0);
  EXPECT_EQ(encodeInstr(I, Buf), 0u);
  I = mk(Opcode::SHLI, 1, 2, 0, 256);
  EXPECT_EQ(encodeInstr(I, Buf), 0u);
  I = mk(Opcode::SHLI, 1, 2, 0, -1);
  EXPECT_EQ(encodeInstr(I, Buf), 0u);
  I = mk(Opcode::LD, 1, 2, 0, 0x8000); // > INT16_MAX
  EXPECT_EQ(encodeInstr(I, Buf), 0u);
  I = mk(Opcode::LDX, 1, 2, 3, 0);
  I.Scale = 4;
  EXPECT_EQ(encodeInstr(I, Buf), 0u);
}

// The assembler's own emission must decode to exactly what was asked for,
// and re-encode byte-identically (the assembler emits canonical form).
TEST(RoundTrip, AssemblerOutputIsCanonical) {
  Assembler A(0x1000);
  Label L = A.newLabel();
  A.bind(L);
  A.movi(Reg::R3, 0xDEADBEEF);
  A.addi(Reg::R4, Reg::R3, -1);
  A.andi(Reg::R5, Reg::R4, 0xFF);
  A.shli(Reg::R6, Reg::R5, 33);
  A.ld(Reg::R7, Reg::R12, -32768);
  A.st(Reg::R12, 32767, Reg::R7);
  A.ldx(Reg::R8, Reg::R12, Reg::R2, 3, -4);
  A.stx(Reg::R12, Reg::R2, 2, 0x100, Reg::R8);
  A.cmp(Reg::R3, Reg::R4);
  A.bcc(Cond::LES, L);
  A.fmovi(FReg::F7, -0.0);
  A.fcmp(FReg::F7, FReg::F0);
  A.push(Reg::R15);
  A.pop(Reg::R15);
  A.cpuinfo();
  A.clreq();
  A.jmp(L);
  A.call(L);
  A.ret();
  std::vector<uint8_t> Bytes = A.finalize();

  size_t Off = 0;
  unsigned Count = 0;
  while (Off < Bytes.size()) {
    Instr I;
    ASSERT_TRUE(decode(Bytes.data() + Off, Bytes.size() - Off, I))
        << "assembler emitted undecodable bytes at +" << Off;
    uint8_t Re[MaxInstrLen] = {0};
    unsigned Len = encodeInstr(I, Re);
    ASSERT_EQ(Len, I.Len) << toString(I);
    EXPECT_EQ(0, std::memcmp(Bytes.data() + Off, Re, Len))
        << "non-canonical assembler emission: " << toString(I);
    Off += I.Len;
    ++Count;
  }
  EXPECT_EQ(Count, 19u);
}

// Undefined opcode bytes must decode to false with Len 0 — the fuzzer's
// generator never produces them, so any appearance is a real bug.
TEST(RoundTrip, UndefinedOpcodesRejected) {
  for (unsigned B = 0; B != 256; ++B) {
    uint8_t Buf[MaxInstrLen] = {static_cast<uint8_t>(B), 0, 0, 0, 0,
                                0,                       0, 0, 0, 0};
    Instr I;
    bool Ok = decode(Buf, sizeof(Buf), I);
    uint8_t Op = static_cast<uint8_t>(B);
    bool Defined =
        Op <= 0x1F || (Op >= 0x20 && Op <= 0x29) ||
        (Op >= 0x2E && Op <= 0x37) || (Op >= 0x40 && Op <= 0x4B) ||
        (Op >= 0x50 && Op <= 0x52);
    EXPECT_EQ(Ok, Defined) << "opcode byte 0x" << std::hex << B;
    if (Ok)
      expectRoundTrip(I);
  }
}

} // namespace
