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

#include "fuzz/DiffRunner.h"
#include "fuzz/ProgramGen.h"
#include "guest/Assembler.h"
#include "guest/Decoder.h"
#include "guest/Disasm.h"
#include "support/Hashing.h"
#include "tools/ICnt.h"
#include "tools/Memcheck.h"
#include "tools/ToolFactory.h"
#include "workloads/Workloads.h"

#include "GoldenFile.h"
#include "gtest/gtest.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
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
  for (const WorkloadInfo &W : allWorkloads(/*WithExtras=*/true))
    appendImage(Out, W.Name, buildWorkload(W.Name, 1));
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

//===----------------------------------------------------------------------===//
// The fuzzer's vocabulary: every atom kind's case-file name, weight and
// placement, and every matrix cell with its tool, options, run mode and the
// checks it applies. A refactor of the generator or the matrix must leave
// both goldens unchanged.
//===----------------------------------------------------------------------===//

using fuzz::AtomKind;
using fuzz::FuzzConfig;
using fuzz::FuzzProgram;

std::string atomName(AtomKind K) {
  return fuzz::AtomTable[static_cast<unsigned>(K)].Name;
}

unsigned atomWeight(AtomKind K) {
  return fuzz::AtomTable[static_cast<unsigned>(K)].Weight;
}

const char *atomWhere(AtomKind K) {
  switch (fuzz::AtomTable[static_cast<unsigned>(K)].Where) {
  case fuzz::AtomWhere::Anywhere:
    return "anywhere";
  case fuzz::AtomWhere::Body:
    return "body";
  case fuzz::AtomWhere::BodyWithHandlers:
    return "body-with-handlers";
  case fuzz::AtomWhere::BodyWithLeaves:
    return "body-with-leaves";
  }
  return "?";
}

const char *cellMode(const FuzzConfig &C) {
  switch (C.Mode) {
  case fuzz::RunMode::Once:
    return "once";
  case fuzz::RunMode::CacheTwice:
    return "cache-twice";
  case fuzz::RunMode::ServeTwice:
    return "serve-twice";
  }
  return "?";
}

/// The tool invariants a cell checks on top of the observable behaviour.
std::string cellChecks(const FuzzConfig &C) {
  std::unique_ptr<Tool> T = makeTool(C.ToolName);
  std::string S;
  if (dynamic_cast<const ICnt *>(T.get()))
    S += " insn-count";
  if (dynamic_cast<const Memcheck *>(T.get()))
    S += " memcheck-clean";
  if (fuzz::checksSmcRetrans(C))
    S += " smc-retrans";
  return S.empty() ? " none" : S;
}

AtomKind kind(unsigned K) { return static_cast<AtomKind>(K); }

TEST(FuzzVocabulary, AtomGolden) {
  std::string Out;
  for (unsigned K = 0; K != fuzz::NumAtomKinds; ++K)
    Out += atomName(kind(K)) + " weight=" + std::to_string(atomWeight(kind(K))) +
           " where=" + atomWhere(kind(K)) + "\n";
  checkGolden("fuzz_atoms", Out);
}

// A plain program and one with signals and SMC: the matrix adds
// --smc-check=all to every cell of the second and a signal storm to its
// fault cell.
std::vector<std::pair<std::string, FuzzProgram>> matrixPrograms() {
  fuzz::GenOptions Plain, Forced;
  Plain.Signals = Plain.Smc = 0;
  Forced.Signals = Forced.Smc = 2;
  return {{"plain", fuzz::generate(7, Plain)},
          {"signals-smc", fuzz::generate(7, Forced)}};
}

TEST(FuzzVocabulary, MatrixGolden) {
  std::string Out;
  for (const auto &[Label, P] : matrixPrograms())
    for (const FuzzConfig &C : fuzz::defaultMatrix(P)) {
      Out += Label + " " + C.Name + " tool=" + C.ToolName + " mode=" +
             cellMode(C) + " checks:" + cellChecks(C) + "\n  opts:";
      for (const std::string &O : C.Opts)
        Out += " " + O;
      Out += "\n";
    }
  checkGolden("fuzz_matrix", Out);
}

void expectSameAtoms(const std::vector<fuzz::Atom> &A,
                     const std::vector<fuzz::Atom> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].K, B[I].K) << I;
    EXPECT_EQ(A[I].A, B[I].A) << I;
    EXPECT_EQ(A[I].B, B[I].B) << I;
    EXPECT_EQ(A[I].C, B[I].C) << I;
    EXPECT_EQ(A[I].D, B[I].D) << I;
    EXPECT_EQ(A[I].Imm, B[I].Imm) << I;
  }
}

// parse(serialize(P)) reproduces P field for field, for programs whose body
// and leaves hold every kind with extreme operands.
TEST(FuzzVocabulary, EveryKindSurvivesTheCaseFormat) {
  const int64_t Imms[] = {0, -1, INT64_MIN, INT64_MAX, 0x7FF8000000000001};
  for (uint64_t S = 1; S != 9; ++S) {
    FuzzProgram P = fuzz::generate(S);
    P.Leaves.emplace_back();
    P.Smc = S & 1;
    P.Signals = S & 2;
    for (unsigned K = 0; K != fuzz::NumAtomKinds; ++K) {
      fuzz::Atom At;
      At.K = kind(K);
      At.A = static_cast<uint8_t>(K * S);
      At.B = static_cast<uint8_t>(255 - K);
      At.C = static_cast<uint8_t>(K * 37 + S);
      At.D = static_cast<uint8_t>(S << 5);
      At.Imm = Imms[(K + S) % 5];
      P.Body.push_back(At);
      P.Leaves.back().push_back(At);
    }
    FuzzProgram Q;
    std::string Err;
    ASSERT_TRUE(fuzz::parse(fuzz::serialize(P), Q, Err)) << Err;
    EXPECT_EQ(Q.Seed, P.Seed);
    EXPECT_EQ(Q.LoopCount, P.LoopCount);
    EXPECT_EQ(Q.Signals, P.Signals);
    EXPECT_EQ(Q.Smc, P.Smc);
    EXPECT_EQ(Q.StdinData, P.StdinData);
    expectSameAtoms(Q.Body, P.Body);
    ASSERT_EQ(Q.Leaves.size(), P.Leaves.size());
    for (size_t L = 0; L != P.Leaves.size(); ++L)
      expectSameAtoms(Q.Leaves[L], P.Leaves[L]);
  }
}

/// Instructions in an image's executable segments, decoded in a line (the
/// generator puts no data among its instructions).
unsigned decodedInstrs(const GuestImage &Img) {
  unsigned N = 0;
  for (const ImageSegment &S : Img.Segments) {
    if (!(S.Perms & PermExec))
      continue;
    for (size_t Off = 0; Off < S.Bytes.size(); ++N) {
      Instr I;
      if (!decode(S.Bytes.data() + Off, S.Bytes.size() - Off, I)) {
        ADD_FAILURE() << "undecodable byte at 0x" << std::hex << S.Base + Off;
        return 0;
      }
      Off += I.Len;
    }
  }
  return N;
}

// bodyInstrCount of a one-atom body is what that atom adds to the rendered
// image: every kind, 256 operand values, without leaves and with two.
TEST(FuzzVocabulary, BodyInstrCountMatchesTheRendering) {
  for (size_t NLeaves : {0, 2}) {
    FuzzProgram P;
    P.Seed = 5;
    P.Leaves.resize(NLeaves);
    unsigned Scaffold = decodedInstrs(fuzz::render(P));
    for (unsigned K = 0; K != fuzz::NumAtomKinds; ++K)
      for (unsigned V = 0; V != 256; ++V) {
        fuzz::Atom At;
        At.K = kind(K);
        At.A = static_cast<uint8_t>(V);
        At.B = static_cast<uint8_t>(V * 7 + 1);
        At.C = static_cast<uint8_t>(V * 13 + 2);
        At.D = static_cast<uint8_t>(V * 29 + 3);
        At.Imm = static_cast<int64_t>(V * 0x9E3779B97F4A7C15ull);
        P.Body = {At};
        unsigned Rendered = decodedInstrs(fuzz::render(P)) - Scaffold;
        unsigned Counted = fuzz::bodyInstrCount(P);
        if (Counted != Rendered) {
          ADD_FAILURE() << atomName(At.K) << " with " << NLeaves
                        << " leaves, operands " << V << ": counted "
                        << Counted << ", rendered " << Rendered;
          break;
        }
      }
  }
}

// Every divergence names the cell to shrink against: a cell's own name, a
// two-run cell's name with "-warm" (its second run diverged), or "oracle"
// (the first cell). Any other name is a harness bug and stops the run.
TEST(FuzzVocabulary, EveryDivergenceFindsItsCell) {
  for (const auto &[Label, P] : matrixPrograms()) {
    std::vector<FuzzConfig> M = fuzz::defaultMatrix(P);
    auto cellFor = [&](const std::string &Name) {
      return fuzz::cellFor(P, fuzz::Divergence{Name, "stdout", "", ""});
    };
    unsigned TwoRun = 0;
    for (const FuzzConfig &C : M) {
      FuzzConfig Cold = cellFor(C.Name);
      EXPECT_EQ(Cold.Name, C.Name) << Label;
      EXPECT_EQ(Cold.Opts, C.Opts) << Label;
      if (C.Mode == fuzz::RunMode::Once)
        continue;
      ++TwoRun;
      FuzzConfig Warm = cellFor(C.Name + "-warm");
      EXPECT_EQ(Warm.Name, C.Name) << Label;
      EXPECT_EQ(Warm.Mode, C.Mode) << Label;
      EXPECT_EQ(Warm.Opts, C.Opts) << Label;
    }
    EXPECT_EQ(TwoRun, 3u) << Label;
    EXPECT_EQ(cellFor("oracle").Name, M.front().Name) << Label;
  }
  FuzzProgram P = fuzz::generate(1);
  EXPECT_EXIT(fuzz::cellFor(P, {"nulgrind-warm", "stdout", "", ""}),
              ::testing::ExitedWithCode(1), "no fuzz matrix cell");
  EXPECT_EXIT(fuzz::cellFor(P, {"no-such-cell", "stdout", "", ""}),
              ::testing::ExitedWithCode(1), "no fuzz matrix cell");
}

} // namespace
