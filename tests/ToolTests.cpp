//===-- tests/ToolTests.cpp - TaintGrind, Cachegrind, Massif tests --------==//
///
/// \file
/// Validates the remaining tool plug-ins: taint propagation and sinks,
/// the cache-simulator substrate and its attribution, heap profiling, and
/// the custom-tool API surface (multiple tools over one framework).
///
//===----------------------------------------------------------------------===//

#include "core/Launcher.h"
#include "guestlib/GuestLib.h"
#include "ir/IRPrinter.h"
#include "kernel/SimKernel.h"
#include "tools/Cachegrind.h"
#include "tools/Massif.h"
#include "tools/TaintGrind.h"

#include <gtest/gtest.h>

using namespace vg;
using namespace vg::vg1;

namespace {

constexpr uint32_t CodeBase = 0x1000;
constexpr uint32_t DataBase = 0x100000;

GuestImage buildProgram(
    const std::function<void(Assembler &, Assembler &, GuestLibLabels &)>
        &Body) {
  Assembler Code(CodeBase);
  Assembler Data(DataBase);
  GuestLibLabels Lib = emitGuestLib(Code, Data);
  Label Main = Code.newLabel();
  uint32_t Entry = emitStart(Code, Main);
  Code.bind(Main);
  Body(Code, Data, Lib);
  return GuestImageBuilder().addCode(Code).addData(Data).entry(Entry).build();
}

//===----------------------------------------------------------------------===//
// TaintGrind
//===----------------------------------------------------------------------===//

TEST(TaintGrind, StdinIsTaintSourceAndPropagates) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &Data,
                                   GuestLibLabels &) {
    Label Buf = Data.boundLabel();
    Data.emitZeros(8);
    Code.movi(Reg::R0, SysRead);
    Code.movi(Reg::R1, 0);
    Code.movi(Reg::R2, Data.labelAddr(Buf));
    Code.movi(Reg::R3, 4);
    Code.sys();
    // Propagate through arithmetic and memory, then query via request.
    Code.movi(Reg::R2, Data.labelAddr(Buf));
    Code.ld(Reg::R3, Reg::R2, 0);
    Code.shli(Reg::R3, Reg::R3, 4);
    Code.st(Reg::R2, 4, Reg::R3); // derived value parked at Buf+4
    Code.movi(Reg::R0, TgIsTainted);
    Code.addi(Reg::R1, Reg::R2, 4);
    Code.movi(Reg::R2, 4);
    Code.clreq();
    Code.ret(); // 1 if tainted
  });
  TaintGrind T;
  RunReport R = runUnderCore(Img, &T, {}, "abcd");
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ExitCode, 1);
}

TEST(TaintGrind, ConstantsAndUntaintedFilesAreClean) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &Data,
                                   GuestLibLabels &) {
    Label Buf = Data.boundLabel();
    Data.emitZeros(8);
    Code.movi(Reg::R2, Data.labelAddr(Buf));
    Code.movi(Reg::R3, 1234);
    Code.st(Reg::R2, 0, Reg::R3);
    Code.movi(Reg::R0, TgIsTainted);
    Code.mov(Reg::R1, Reg::R2);
    Code.movi(Reg::R2, 4);
    Code.clreq();
    Code.ret();
  });
  TaintGrind T;
  RunReport R = runUnderCore(Img, &T);
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(TaintGrind, TaintedJumpTargetReported) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &Data,
                                   GuestLibLabels &) {
    Label Buf = Data.boundLabel();
    Data.emitZeros(8);
    Label Target = Code.newLabel();
    Code.movi(Reg::R0, SysRead);
    Code.movi(Reg::R1, 0);
    Code.movi(Reg::R2, Data.labelAddr(Buf));
    Code.movi(Reg::R3, 4);
    Code.sys();
    Code.movi(Reg::R2, Data.labelAddr(Buf));
    Code.ld(Reg::R3, Reg::R2, 0); // tainted 0 (input is "\0\0\0\0")
    Code.leai(Reg::R5, Target);
    Code.add(Reg::R5, Reg::R5, Reg::R3); // tainted target
    Code.jmpr(Reg::R5);
    Code.bind(Target);
    Code.movi(Reg::R0, 0);
    Code.ret();
  });
  TaintGrind T;
  RunReport R = runUnderCore(Img, &T, {}, std::string(4, '\0'));
  ASSERT_TRUE(R.Completed);
  EXPECT_NE(R.ToolOutput.find("Indirect jump/call target depends on tainted"),
            std::string::npos)
      << R.ToolOutput;
}

TEST(TaintGrind, SanitisationClearsTaint) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &Data,
                                   GuestLibLabels &) {
    Label Buf = Data.boundLabel();
    Data.emitZeros(8);
    Code.movi(Reg::R0, SysRead);
    Code.movi(Reg::R1, 0);
    Code.movi(Reg::R2, Data.labelAddr(Buf));
    Code.movi(Reg::R3, 4);
    Code.sys();
    // Sanitise, then ask.
    Code.movi(Reg::R0, TgUntaint);
    Code.movi(Reg::R1, Data.labelAddr(Buf));
    Code.movi(Reg::R2, 4);
    Code.clreq();
    Code.movi(Reg::R0, TgIsTainted);
    Code.movi(Reg::R1, Data.labelAddr(Buf));
    Code.movi(Reg::R2, 4);
    Code.clreq();
    Code.ret();
  });
  TaintGrind T;
  RunReport R = runUnderCore(Img, &T, {}, "xxxx");
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(TaintGrind, TaintedSyscallArgumentReported) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &Data,
                                   GuestLibLabels &) {
    Label Buf = Data.boundLabel();
    Data.emitZeros(8);
    Code.movi(Reg::R0, SysRead);
    Code.movi(Reg::R1, 0);
    Code.movi(Reg::R2, Data.labelAddr(Buf));
    Code.movi(Reg::R3, 4);
    Code.sys();
    Code.movi(Reg::R2, Data.labelAddr(Buf));
    Code.ld(Reg::R1, Reg::R2, 0); // tainted
    Code.movi(Reg::R0, SysNanosleep);
    Code.sys(); // tainted argument to the kernel
    Code.movi(Reg::R0, 0);
    Code.ret();
  });
  TaintGrind T;
  RunReport R = runUnderCore(Img, &T, {}, std::string(4, '\x01'));
  EXPECT_NE(R.ToolOutput.find("Tainted value passed to syscall"),
            std::string::npos)
      << R.ToolOutput;
}

TEST(TaintGrind, NotLeavesTaintInPlace) {
  // Bitwise Not moves no bits, so the shadow is the operand's shadow; the
  // tool must not apply Not to the taint mask (that would taint every
  // clean bit).
  using namespace vg::ir;
  IRSB SB;
  TmpId T0 = SB.wrTmp(SB.get(gso::gpr(1), Ty::I32));
  TmpId T1 = SB.wrTmp(SB.unop(Op::Not32, SB.rdTmp(T0)));
  SB.put(gso::gpr(2), SB.rdTmp(T1));
  SB.setNext(SB.constI32(0x1000), JumpKind::Boring);
  TaintGrind T;
  T.instrument(SB);
  std::string IR = toString(SB);
  EXPECT_EQ(IR.find("Not32"), IR.rfind("Not32")) << IR;
}

TEST(TaintGrind, KernelWrittenMemoryIsUntainted) {
  // R4: gettimeofday overwrites a buffer that held stdin bytes; what the
  // kernel wrote there is trusted.
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &Data,
                                   GuestLibLabels &) {
    Label Buf = Data.boundLabel();
    Data.emitZeros(8);
    Code.movi(Reg::R0, SysRead);
    Code.movi(Reg::R1, 0);
    Code.movi(Reg::R2, Data.labelAddr(Buf));
    Code.movi(Reg::R3, 8);
    Code.sys();
    Code.movi(Reg::R0, SysGettimeofday);
    Code.movi(Reg::R1, Data.labelAddr(Buf));
    Code.sys();
    Code.movi(Reg::R0, TgIsTainted);
    Code.movi(Reg::R1, Data.labelAddr(Buf));
    Code.movi(Reg::R2, 8);
    Code.clreq();
    Code.ret(); // 1 if tainted
  });
  TaintGrind T;
  RunReport R = runUnderCore(Img, &T, {}, "abcdefgh");
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(TaintGrind, KernelWrittenRegisterIsUntainted) {
  // R4: the syscall number is tainted (12 derived from a stdin zero), but
  // the pid the kernel returns in r0 is not.
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &Data,
                                   GuestLibLabels &) {
    Label Buf = Data.boundLabel();
    Data.emitZeros(8);
    Code.movi(Reg::R0, SysRead);
    Code.movi(Reg::R1, 0);
    Code.movi(Reg::R2, Data.labelAddr(Buf));
    Code.movi(Reg::R3, 4);
    Code.sys();
    Code.movi(Reg::R2, Data.labelAddr(Buf));
    Code.ld(Reg::R0, Reg::R2, 0);
    Code.addi(Reg::R0, Reg::R0, SysGetpid); // tainted 12
    Code.sys();
    Code.st(Reg::R2, 4, Reg::R0); // the pid, parked at Buf+4
    Code.movi(Reg::R0, TgIsTainted);
    Code.addi(Reg::R1, Reg::R2, 4);
    Code.movi(Reg::R2, 4);
    Code.clreq();
    Code.ret(); // 1 if tainted
  });
  TaintGrind T;
  RunReport R = runUnderCore(Img, &T, {}, std::string(4, '\0'));
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.ToolOutput.find("Tainted value passed to syscall"),
            std::string::npos)
      << R.ToolOutput;
}

//===----------------------------------------------------------------------===//
// Cachegrind
//===----------------------------------------------------------------------===//

TEST(CacheModel, LruSetAssociativity) {
  CacheModel C(/*Size=*/1024, /*Assoc=*/2, /*Line=*/64); // 8 sets
  EXPECT_FALSE(C.access(0x0000, 4));  // miss
  EXPECT_TRUE(C.access(0x0000, 4));   // hit
  EXPECT_FALSE(C.access(0x2000, 4));  // same set (0x2000/64 % 8 == 0), way 2
  EXPECT_TRUE(C.access(0x0000, 4));   // still resident
  EXPECT_FALSE(C.access(0x4000, 4));  // evicts LRU (0x2000)
  EXPECT_TRUE(C.access(0x0000, 4));   // 0 was MRU: survives
  EXPECT_FALSE(C.access(0x2000, 4));  // was evicted
}

TEST(CacheModel, StraddlingAccessTouchesTwoLines) {
  CacheModel C(1024, 2, 64);
  EXPECT_FALSE(C.access(60, 8)); // lines 0 and 1: both cold
  EXPECT_TRUE(C.access(0, 4));
  EXPECT_TRUE(C.access(64, 4)); // both now resident
}

TEST(Cachegrind, CountsMatchInstructionAndAccessCounts) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &Data,
                                   GuestLibLabels &) {
    Label Cell = Data.boundLabel();
    Data.emitZeros(64);
    Code.movi(Reg::R1, Data.labelAddr(Cell));
    Code.movi(Reg::R2, 0);
    Label Loop = Code.boundLabel();
    Code.st(Reg::R1, 0, Reg::R2);  // 100 writes
    Code.ld(Reg::R3, Reg::R1, 0);  // 100 reads
    Code.addi(Reg::R2, Reg::R2, 1);
    Code.cmpi(Reg::R2, 100);
    Code.blt(Loop);
    Code.movi(Reg::R0, 0);
    Code.ret();
  });
  RunReport Native = runNative(Img);
  Cachegrind T;
  RunReport R = runUnderCore(Img, &T);
  ASSERT_TRUE(R.Completed);
  // Ir equals the dynamic instruction count exactly.
  EXPECT_EQ(T.totals().Ir, Native.NativeInsns);
  EXPECT_GE(T.totals().Dr, 100u);
  EXPECT_GE(T.totals().Dw, 100u);
  // A single hot cell: essentially everything hits after the cold miss.
  EXPECT_LE(T.totals().D1mr + T.totals().D1mw, 8u);
}

TEST(Cachegrind, StridePatternsChangeMissRate) {
  auto MissRate = [](uint32_t Stride) {
    GuestImage Img = buildProgram([Stride](Assembler &Code, Assembler &,
                                           GuestLibLabels &Lib) {
      Code.movi(Reg::R1, 1 << 18);
      Code.call(Lib.Malloc);
      Code.mov(Reg::R6, Reg::R0);
      Code.movi(Reg::R7, 0);
      Label Walk = Code.boundLabel();
      Code.add(Reg::R2, Reg::R6, Reg::R7);
      Code.st(Reg::R2, 0, Reg::R7);
      Code.addi(Reg::R7, Reg::R7, static_cast<int32_t>(Stride));
      Code.cmpi(Reg::R7, 1 << 18);
      Code.bltu(Walk);
      Code.movi(Reg::R0, 0);
      Code.ret();
    });
    Cachegrind T;
    RunReport R = runUnderCore(Img, &T);
    EXPECT_TRUE(R.Completed);
    return static_cast<double>(T.totals().D1mw) /
           static_cast<double>(T.totals().Dw ? T.totals().Dw : 1);
  };
  double Dense = MissRate(4);
  double Sparse = MissRate(64);
  EXPECT_LT(Dense, 0.15);
  EXPECT_GT(Sparse, 0.80);
}

GuestImage exitAtOnce() {
  return buildProgram([](Assembler &Code, Assembler &, GuestLibLabels &) {
    Code.movi(Reg::R0, 0);
    Code.ret();
  });
}

TEST(Cachegrind, AcceptsEveryCacheShapeTheModelCanSimulate) {
  Cachegrind T;
  RunReport R = runUnderCore(exitAtOnce(), &T,
                             {"--I1=16384,4,32", "--D1=64,1,64",
                              "--LL=4194304,64,64"});
  EXPECT_TRUE(R.Completed);
}

// A cache shape the model cannot simulate is a usage error naming the
// option: not a division by zero (no ways, or Assoc * LineSize wrapping to
// 0 in 32 bits), a set index past the last set (size not a power-of-two
// number of sets), a silent default (no numbers), or a line size that is
// not a power of two (which misplaces every line).
TEST(CachegrindDeathTest, BadCacheShapesAreFatal) {
  GuestImage Img = exitAtOnce();
  for (const char *Opt :
       {"--D1=32768,0,64", "--D1=100,8,64", "--D1=bogus", "--D1=32768,8,48",
        "--LL=4294967295,64,67108864", "--I1=32768,8", "--I1=32768,8,64,1",
        "--LL=1048576,128,64", "--I1=32768, 8,64"})
    EXPECT_EXIT(
        {
          Cachegrind T;
          runUnderCore(Img, &T, {Opt});
        },
        ::testing::ExitedWithCode(1),
        std::string(Opt) + ": expected size,assoc,linesize");
}

//===----------------------------------------------------------------------===//
// Massif
//===----------------------------------------------------------------------===//

TEST(Massif, PeakAndTimelineTracked) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &Data,
                                   GuestLibLabels &Lib) {
    // alloc 10 x 1KB, free them all, alloc 1 x 512.
    Label Ptrs = Data.boundLabel();
    Data.emitZeros(10 * 4);
    uint32_t P = Data.labelAddr(Ptrs);
    Code.movi(Reg::R6, 0);
    Label A = Code.boundLabel();
    Code.movi(Reg::R1, 1024);
    Code.call(Lib.Malloc);
    Code.movi(Reg::R2, P);
    Code.stx(Reg::R2, Reg::R6, 2, 0, Reg::R0);
    Code.addi(Reg::R6, Reg::R6, 1);
    Code.cmpi(Reg::R6, 10);
    Code.blt(A);
    Code.movi(Reg::R6, 0);
    Label F = Code.boundLabel();
    Code.movi(Reg::R2, P);
    Code.ldx(Reg::R1, Reg::R2, Reg::R6, 2, 0);
    Code.call(Lib.Free);
    Code.addi(Reg::R6, Reg::R6, 1);
    Code.cmpi(Reg::R6, 10);
    Code.blt(F);
    Code.movi(Reg::R1, 512);
    Code.call(Lib.Malloc);
    Code.movi(Reg::R0, 0);
    Code.ret();
  });
  Massif T;
  RunReport R = runUnderCore(Img, &T);
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(T.peakBytes(), 10240u);
  EXPECT_FALSE(T.snapshots().empty());
  EXPECT_NE(R.ToolOutput.find("peak heap usage: 10240 bytes"),
            std::string::npos)
      << R.ToolOutput;
  // One site still holds 512 bytes at exit.
  uint64_t Live = 0;
  for (auto [Site, Bytes] : T.bytesBySite())
    Live += Bytes;
  EXPECT_EQ(Live, 512u);
}

} // namespace
