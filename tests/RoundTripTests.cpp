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

#include "fuzz/ProgramGen.h"
#include "guest/Assembler.h"
#include "guest/Decoder.h"
#include "guest/Disasm.h"
#include "support/Hashing.h"
#include "workloads/Workloads.h"

#include "GoldenFile.h"
#include "gtest/gtest.h"

#include <cinttypes>
#include <cstdio>
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

// The tables above, written independently of VG1_OPCODES, must agree with
// it: every opcode in exactly one table, with that table's format.
TEST(RoundTrip, FormTablesMatchTheOpcodeList) {
  struct Form {
    Format F;
    std::vector<Opcode> Ops;
  };
  const Form Forms[] = {
      {Format::None, {std::begin(Len1Ops), std::end(Len1Ops)}},
      {Format::RR, {std::begin(Len2Ops), std::end(Len2Ops)}},
      {Format::RRR, {std::begin(Alu3Ops), std::end(Alu3Ops)}},
      {Format::RRI8, {std::begin(ShiftIOps), std::end(ShiftIOps)}},
      {Format::RRD16, {std::begin(MemOps), std::end(MemOps)}},
      {Format::T32, {Opcode::JMP, Opcode::CALL, Opcode::BCC}},
      {Format::RRI32, {std::begin(Imm32Ops), std::end(Imm32Ops)}},
      {Format::RRX, {std::begin(IndexOps), std::end(IndexOps)}},
      {Format::FI64, {Opcode::FMOVI}},
  };
  unsigned Seen[256] = {};
  for (const Form &Fm : Forms)
    for (Opcode Op : Fm.Ops) {
      uint8_t B = static_cast<uint8_t>(Op);
      ++Seen[B];
      EXPECT_EQ(OpcodeTable[B].F, Fm.F) << "opcode 0x" << std::hex << +B;
    }
  unsigned Listed = 0;
  for (unsigned B = 0; B != 256; ++B) {
    bool Own = OpcodeTable[B].F != Format::Undefined &&
               static_cast<unsigned>(OpcodeTable[B].Op) == B;
    Listed += Own;
    EXPECT_EQ(Seen[B], Own ? 1u : 0u) << "opcode 0x" << std::hex << B;
  }
  EXPECT_EQ(Listed, 58u);
}

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

//===----------------------------------------------------------------------===//
// Identity goldens: what the decoder makes of every first byte, and the
// bytes of every guest image the workloads and the fuzzer build. A change
// to the encoding tables must leave both unchanged.
// Regenerate with: UPDATE_GOLDENS=1 ./tests/test_roundtrip
//===----------------------------------------------------------------------===//

uint64_t mix(uint64_t H, uint64_t V) {
  uint8_t B[8];
  for (int I = 0; I != 8; ++I)
    B[I] = static_cast<uint8_t>(V >> (8 * I));
  return hashBytes(B, 8, H);
}

// One FNV-1a per first byte over decode()'s verdict, every Instr field and
// the rendering, for three operand tails at every available length.
TEST(RoundTrip, DecodeIdentityGolden) {
  const uint8_t Pattern[MaxInstrLen] = {0,    0x5A, 0xC3, 0x81, 0x7E,
                                        0xF0, 0x0F, 0x92, 0x24, 0xB6};
  std::string Out;
  for (unsigned B = 0; B != 256; ++B) {
    uint64_t H = FnvOffsetBasis;
    for (int Tail = 0; Tail != 3; ++Tail) {
      uint8_t Buf[MaxInstrLen];
      for (unsigned I = 1; I != MaxInstrLen; ++I)
        Buf[I] = Tail == 0 ? 0x00 : Tail == 1 ? 0xFF : Pattern[I];
      Buf[0] = static_cast<uint8_t>(B);
      for (size_t Avail = 0; Avail <= MaxInstrLen; ++Avail) {
        Instr I;
        bool Ok = decode(Buf, Avail, I);
        for (uint64_t V :
             {uint64_t(Ok), uint64_t(I.Op), uint64_t(I.Len), uint64_t(I.Rd),
              uint64_t(I.Rs), uint64_t(I.Rt), uint64_t(I.Scale),
              uint64_t(I.BCond), uint64_t(uint32_t(I.Imm)), I.Imm64})
          H = mix(H, V);
        if (Ok) {
          std::string S = toString(I);
          H = hashBytes(reinterpret_cast<const uint8_t *>(S.data()),
                        S.size() + 1, H);
        }
      }
    }
    char Line[64];
    std::snprintf(Line, sizeof(Line), "0x%02x %016" PRIx64 "\n", B, H);
    Out += Line;
  }
  checkGolden("guest_decode", Out);
}

void appendImage(std::string &Out, const std::string &Name,
                 const GuestImage &Img) {
  char Line[160];
  std::snprintf(Line, sizeof(Line), "%s entry=0x%x\n", Name.c_str(),
                Img.Entry);
  Out += Line;
  for (const ImageSegment &S : Img.Segments) {
    std::snprintf(Line, sizeof(Line),
                  "  base=0x%x perms=%u len=%zu fnv=%016" PRIx64 "\n", S.Base,
                  S.Perms, S.Bytes.size(),
                  hashBytes(S.Bytes.data(), S.Bytes.size()));
    Out += Line;
  }
}

// Every segment of every workload at scale 1, and of 50 fuzz programs
// under default options and with signals and SMC forced.
TEST(RoundTrip, ImageIdentityGolden) {
  std::string Out;
  std::vector<std::string> Names;
  for (const WorkloadInfo &W : allWorkloads())
    Names.push_back(W.Name);
  Names.push_back("sigmt");
  Names.push_back("mtcpu");
  for (const std::string &N : Names)
    appendImage(Out, N, buildWorkload(N, 1));
  fuzz::GenOptions Forced;
  Forced.Signals = 2;
  Forced.Smc = 2;
  for (uint64_t S = 1; S <= 50; ++S) {
    appendImage(Out, "fuzz-default-" + std::to_string(S),
                fuzz::render(fuzz::generate(S, fuzz::GenOptions())));
    appendImage(Out, "fuzz-forced-" + std::to_string(S),
                fuzz::render(fuzz::generate(S, Forced)));
  }
  checkGolden("guest_images", Out);
}

} // namespace
