//===-- tests/CoreTests.cpp - Core integration tests ----------------------==//
///
/// \file
/// Integration tests for the core: start-up, dispatch, syscalls, the
/// events system, client requests, redirection/wrapping, self-modifying
/// code, signals, threads, and translation-table behaviour.
///
//===----------------------------------------------------------------------===//

#include "GoldenFile.h"

#include "core/ClientRequests.h"
#include "core/Launcher.h"
#include "guestlib/GuestLib.h"
#include "tools/ICnt.h"
#include "tools/Nulgrind.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace vg;
using namespace vg::vg1;

namespace {

constexpr uint32_t CodeBase = 0x1000;
constexpr uint32_t DataBase = 0x100000;

/// Builds an image with guestlib: main is emitted by \p Body(Code, Data,
/// Lib) and must end in ret.
GuestImage buildProgram(
    const std::function<void(Assembler &, Assembler &, GuestLibLabels &)>
        &Body) {
  Assembler Code(CodeBase);
  Assembler Data(DataBase);
  GuestLibLabels Lib = emitGuestLib(Code, Data);
  Label Main = Code.newLabel();
  uint32_t Entry = emitStart(Code, Main);
  Code.bind(Main);
  Code.symbol("main");
  Body(Code, Data, Lib);
  return GuestImageBuilder()
      .addCode(Code)
      .addData(Data)
      .entry(Entry)
      .build();
}

/// A tiny program: print "hello\n", return 7.
GuestImage helloImage() {
  return buildProgram([](Assembler &Code, Assembler &Data,
                         GuestLibLabels &Lib) {
    Label Str = Data.boundLabel();
    Data.emitString("hello\n");
    Code.movi(Reg::R1, Data.labelAddr(Str));
    Code.call(Lib.Print);
    Code.movi(Reg::R0, 7);
    Code.ret();
  });
}

//===----------------------------------------------------------------------===//
// Basic execution
//===----------------------------------------------------------------------===//

TEST(Core, HelloWorldUnderNulgrind) {
  Nulgrind T;
  RunReport R = runUnderCore(helloImage(), &T);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.ExitCode, 7);
  EXPECT_EQ(R.Stdout, "hello\n");
}

TEST(Core, NativeAndCoreAgree) {
  GuestImage Img = helloImage();
  RunReport N = runNative(Img);
  Nulgrind T;
  RunReport C = runUnderCore(Img, &T);
  EXPECT_TRUE(N.Completed);
  EXPECT_TRUE(C.Completed);
  EXPECT_EQ(N.ExitCode, C.ExitCode);
  EXPECT_EQ(N.Stdout, C.Stdout);
}

TEST(Core, RunsWithNoToolAtAll) {
  RunReport R = runUnderCore(helloImage(), nullptr);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.ExitCode, 7);
}

TEST(Core, MallocWorkloadMatchesNative) {
  // Allocate, fill, sum, print: exercises brk, the guest allocator, loops.
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &Data,
                                   GuestLibLabels &Lib) {
    Code.movi(Reg::R1, 4096);
    Code.call(Lib.Malloc);
    Code.mov(Reg::R6, Reg::R0); // buf
    Code.movi(Reg::R7, 0);      // i
    Label Fill = Code.boundLabel();
    Code.mul(Reg::R2, Reg::R7, Reg::R7);
    Code.stx(Reg::R6, Reg::R7, 2, 0, Reg::R2);
    Code.addi(Reg::R7, Reg::R7, 1);
    Code.cmpi(Reg::R7, 1024);
    Code.blt(Fill);
    Code.movi(Reg::R8, 0);
    Code.movi(Reg::R7, 0);
    Label Sum = Code.boundLabel();
    Code.ldx(Reg::R2, Reg::R6, Reg::R7, 2, 0);
    Code.add(Reg::R8, Reg::R8, Reg::R2);
    Code.addi(Reg::R7, Reg::R7, 1);
    Code.cmpi(Reg::R7, 1024);
    Code.blt(Sum);
    Code.mov(Reg::R1, Reg::R8);
    Code.call(Lib.PrintU32);
    Code.movi(Reg::R0, 0);
    Code.ret();
  });
  RunReport N = runNative(Img);
  Nulgrind T;
  RunReport C = runUnderCore(Img, &T);
  ASSERT_TRUE(N.Completed);
  ASSERT_TRUE(C.Completed);
  EXPECT_EQ(N.Stdout, C.Stdout);
  EXPECT_NE(N.Stdout.find("357389824"), std::string::npos)
      << "sum of i^2 for i<1024: " << N.Stdout;
}

TEST(Core, StdinRoundTrip) {
  // Read 5 bytes from stdin, write them back.
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &Data,
                                   GuestLibLabels &Lib) {
    Label Buf = Data.boundLabel();
    Data.emitZeros(16);
    Code.movi(Reg::R0, SysRead);
    Code.movi(Reg::R1, 0);
    Code.movi(Reg::R2, Data.labelAddr(Buf));
    Code.movi(Reg::R3, 5);
    Code.sys();
    Code.mov(Reg::R3, Reg::R0); // bytes read
    Code.movi(Reg::R0, SysWrite);
    Code.movi(Reg::R1, 1);
    Code.sys();
    Code.movi(Reg::R0, 0);
    Code.ret();
  });
  Nulgrind T;
  RunReport R = runUnderCore(Img, &T, {}, "abcdefg");
  EXPECT_EQ(R.Stdout, "abcde");
}

TEST(Core, FatalSegfaultReported) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    Code.movi(Reg::R1, 0x00F00000); // unmapped
    Code.ld(Reg::R2, Reg::R1, 0);
    Code.ret();
  });
  Nulgrind T;
  RunReport R = runUnderCore(Img, &T);
  EXPECT_FALSE(R.Completed);
  EXPECT_EQ(R.FatalSignal, SigSEGV);
  EXPECT_NE(R.ToolOutput.find("fatal signal 11"), std::string::npos);
}

TEST(Core, ICntCountsExactly) {
  // 3 + N*4 + ... deterministic program; compare with native count.
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    Code.movi(Reg::R1, 0);
    Label Loop = Code.boundLabel();
    Code.addi(Reg::R1, Reg::R1, 1);
    Code.cmpi(Reg::R1, 500);
    Code.blt(Loop);
    Code.movi(Reg::R0, 0);
    Code.ret();
  });
  RunReport N = runNative(Img);
  for (ICnt::Mode M : {ICnt::Mode::Inline, ICnt::Mode::CCall}) {
    ICnt T(M);
    RunReport C = runUnderCore(Img, &T);
    ASSERT_TRUE(C.Completed);
    EXPECT_EQ(T.count(), N.NativeInsns)
        << (M == ICnt::Mode::Inline ? "inline" : "ccall");
  }
}

//===----------------------------------------------------------------------===//
// Events (Table 1)
//===----------------------------------------------------------------------===//

/// A tool that records which events fire.
class EventRecorder : public Tool {
public:
  const char *name() const override { return "event-recorder"; }
  void init(Core &C) override {
    EventHub &E = C.events();
    E.PreRegRead = [this](int, uint32_t, uint32_t, const char *) {
      ++PreRegReads;
    };
    E.PostRegWrite = [this](int, uint32_t, uint32_t) { ++PostRegWrites; };
    E.PreMemRead = [this](int, uint32_t, uint32_t, const char *) {
      ++PreMemReads;
    };
    E.PreMemReadAsciiz = [this](int, uint32_t, const char *) {
      ++PreMemAsciiz;
    };
    E.PreMemWrite = [this](int, uint32_t, uint32_t, const char *) {
      ++PreMemWrites;
    };
    E.PostMemWrite = [this](int, uint32_t, uint32_t) { ++PostMemWrites; };
    E.NewMemStartup = [this](uint32_t, uint32_t, uint8_t) { ++NewStartup; };
    E.NewMemMmap = [this](uint32_t A, uint32_t L, uint8_t) {
      ++NewMmap;
      LastMmapAddr = A;
      LastMmapLen = L;
    };
    E.DieMemMunmap = [this](uint32_t, uint32_t) { ++DieMunmap; };
    E.NewMemBrk = [this](uint32_t, uint32_t) { ++NewBrk; };
    E.DieMemBrk = [this](uint32_t, uint32_t) { ++DieBrk; };
    E.CopyMemMremap = [this](uint32_t, uint32_t, uint32_t) { ++CopyMremap; };
    E.NewMemStack = [this](uint32_t, uint32_t L) {
      ++NewStack;
      StackBytesNew += L;
    };
    E.DieMemStack = [this](uint32_t, uint32_t L) {
      ++DieStack;
      StackBytesDied += L;
    };
  }

  int PreRegReads = 0, PostRegWrites = 0, PreMemReads = 0, PreMemAsciiz = 0;
  int PreMemWrites = 0, PostMemWrites = 0, NewStartup = 0, NewMmap = 0;
  int DieMunmap = 0, NewBrk = 0, DieBrk = 0, CopyMremap = 0;
  int NewStack = 0, DieStack = 0;
  uint64_t StackBytesNew = 0, StackBytesDied = 0;
  uint32_t LastMmapAddr = 0, LastMmapLen = 0;
};

TEST(Events, AllTableOneEventsFire) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &Data,
                                   GuestLibLabels &Lib) {
    Label Path = Data.boundLabel();
    Data.emitString("f.txt");
    Label Tv = Data.boundLabel();
    Data.emitZeros(8);
    // mmap 2 pages, munmap them.
    Code.movi(Reg::R0, SysMmap);
    Code.movi(Reg::R1, 0);
    Code.movi(Reg::R2, 8192);
    Code.movi(Reg::R3, 3); // rw
    Code.movi(Reg::R4, 0);
    Code.sys();
    Code.mov(Reg::R6, Reg::R0);
    // mremap to 4 pages (forces a move: copy_mem_mremap).
    Code.movi(Reg::R0, SysMremap);
    Code.mov(Reg::R1, Reg::R6);
    Code.movi(Reg::R2, 8192);
    Code.movi(Reg::R3, 16384);
    Code.sys();
    Code.mov(Reg::R6, Reg::R0);
    Code.movi(Reg::R0, SysMunmap);
    Code.mov(Reg::R1, Reg::R6);
    Code.movi(Reg::R2, 16384);
    Code.sys();
    // brk up, then down.
    Code.movi(Reg::R0, SysBrk);
    Code.movi(Reg::R1, 0);
    Code.sys();
    Code.mov(Reg::R6, Reg::R0);
    Code.addi(Reg::R1, Reg::R6, 8192);
    Code.movi(Reg::R0, SysBrk);
    Code.sys();
    Code.mov(Reg::R1, Reg::R6);
    Code.movi(Reg::R0, SysBrk);
    Code.sys();
    // open (asciiz) + gettimeofday (mem write).
    Code.movi(Reg::R0, SysOpen);
    Code.movi(Reg::R1, Data.labelAddr(Path));
    Code.movi(Reg::R2, 1); // create
    Code.sys();
    Code.movi(Reg::R0, SysGettimeofday);
    Code.movi(Reg::R1, Data.labelAddr(Tv));
    Code.sys();
    // Push/pop drive stack events.
    Code.push(Reg::R1);
    Code.pop(Reg::R1);
    Code.movi(Reg::R0, 0);
    Code.ret();
  });
  EventRecorder T;
  RunReport R = runUnderCore(Img, &T);
  ASSERT_TRUE(R.Completed);
  EXPECT_GT(T.PreRegReads, 10);
  EXPECT_GT(T.PostRegWrites, 3);
  EXPECT_GT(T.PreMemWrites, 0);  // gettimeofday
  EXPECT_GT(T.PostMemWrites, 0); // gettimeofday
  EXPECT_EQ(T.PreMemAsciiz, 1);  // open path
  EXPECT_GE(T.NewStartup, 3);    // text, data, heap, stack area
  EXPECT_EQ(T.NewMmap, 2);       // mmap + mremap new range
  EXPECT_GE(T.DieMunmap, 2);     // mremap old range + munmap
  EXPECT_EQ(T.NewBrk, 1);
  EXPECT_EQ(T.DieBrk, 1);
  EXPECT_EQ(T.CopyMremap, 1);
  EXPECT_GT(T.NewStack, 0);
  EXPECT_GT(T.DieStack, 0);
}

TEST(Events, StackSwitchHeuristicSuppressesEvents) {
  // Move SP by more than the threshold: no stack events must fire for the
  // jump itself (it is treated as a stack switch, Section 3.12).
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    Code.mov(Reg::R6, Reg::SP);
    Code.movi(Reg::R7, 0x40000); // far away (256KB below)
    Code.sub(Reg::R7, Reg::R6, Reg::R7);
    Code.mov(Reg::SP, Reg::R7); // small enough: events fire
    Code.mov(Reg::SP, Reg::R6); // restore
    Code.movi(Reg::R0, 0);
    Code.ret();
  });
  EventRecorder T;
  RunReport R = runUnderCore(
      Img, &T, {"--stack-switch-threshold=65536"});
  ASSERT_TRUE(R.Completed);
  // The 256KB move exceeds the 64KB threshold: treated as a switch, so the
  // only stack events come from calls/pushes (all of them 4-byte sized).
  EXPECT_LT(T.StackBytesNew, 1024u);
  EXPECT_LT(T.StackBytesDied, 1024u);
}

//===----------------------------------------------------------------------===//
// Client requests (Section 3.11)
//===----------------------------------------------------------------------===//

TEST(ClientRequests, RunningOnValgrindAndPrint) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &Data,
                                   GuestLibLabels &) {
    Label Msg = Data.boundLabel();
    Data.emitString("from-guest");
    Code.movi(Reg::R0, CrRunningOnValgrind);
    Code.clreq();
    Code.mov(Reg::R6, Reg::R0);
    Code.movi(Reg::R0, CrPrint);
    Code.movi(Reg::R1, Data.labelAddr(Msg));
    Code.clreq();
    Code.mov(Reg::R0, Reg::R6);
    Code.ret();
  });
  Nulgrind T;
  RunReport C = runUnderCore(Img, &T);
  EXPECT_EQ(C.ExitCode, 1); // running under the core
  EXPECT_NE(C.ToolOutput.find("from-guest"), std::string::npos);

  RunReport N = runNative(Img);
  EXPECT_EQ(N.ExitCode, 0); // natively, CLREQ reads as 0
}

TEST(ClientRequests, ToolRequestsRouted) {
  struct ReqTool : Tool {
    const char *name() const override { return "reqtool"; }
    bool handleClientRequest(int, uint32_t Code, const uint32_t Args[4],
                             uint32_t &Result) override {
      if (Code != vgRequest(vgToolTag('R', 'Q'), 5))
        return false;
      Result = Args[0] * Args[1];
      return true;
    }
  };
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    Code.movi(Reg::R0, vgRequest(vgToolTag('R', 'Q'), 5));
    Code.movi(Reg::R1, 6);
    Code.movi(Reg::R2, 7);
    Code.clreq();
    Code.ret();
  });
  ReqTool T;
  RunReport R = runUnderCore(Img, &T);
  EXPECT_EQ(R.ExitCode, 42);
}

//===----------------------------------------------------------------------===//
// Function replacement and wrapping (Section 3.13)
//===----------------------------------------------------------------------===//

TEST(Redirect, HostReplacementOfGuestFunction) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    Label Victim = Code.newLabel();
    Code.movi(Reg::R1, 10);
    Code.call(Victim);
    Code.ret(); // main returns victim's result
    Code.bind(Victim);
    Code.symbol("victim");
    Code.movi(Reg::R0, 111); // original behaviour
    Code.ret();
  });
  Nulgrind T;
  RunReport R = runUnderCoreWith(
      Img, &T, {}, "", ~0ull, [](Core &C) {
        C.redirectSymbolToHost("victim", [](Core &, ThreadState &TS) {
          TS.setGpr(0, TS.gpr(1) * 3); // replacement: triple the argument
        });
      });
  EXPECT_EQ(R.ExitCode, 30);
}

TEST(Redirect, WrappingCallsThroughToOriginal) {
  // A wrapper that inspects the argument, calls the original, and doubles
  // its result — the Section 3.13 wrapping pattern.
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    Label Victim = Code.newLabel();
    Code.movi(Reg::R1, 5);
    Code.call(Victim);
    Code.ret();
    Code.bind(Victim);
    Code.symbol("victim");
    Code.addi(Reg::R0, Reg::R1, 100); // original: arg + 100
    Code.ret();
  });
  Nulgrind T;
  uint32_t SeenArg = 0;
  RunReport R = runUnderCoreWith(
      Img, &T, {}, "", ~0ull, [&](Core &C) {
        // Re-point the symbol, keeping the original entry for call-through.
        uint32_t Orig = 0;
        // We need the symbol address: look it up from the image later; the
        // dispatcher redirect keys on the entry address, so capture it via
        // the redirect itself.
        C.redirectSymbolToHost("victim",
                               [&SeenArg, Orig](Core &Core_, ThreadState &TS) {
                                 (void)Orig;
                                 SeenArg = TS.gpr(1);
                                 // Call the original body: it is at the
                                 // redirect address itself, but host
                                 // redirects fire on dispatch, so jump past
                                 // is impossible — instead use the address
                                 // stored by the test below.
                               });
      });
  (void)R;
  // This variant is exercised properly in Redirect.WrapViaCallGuest below;
  // here we only assert the wrapper observed the argument.
  EXPECT_EQ(SeenArg, 5u);
}

TEST(Redirect, WrapViaCallGuest) {
  // Full wrapping: the host wrapper calls a *different* guest helper
  // through callGuest, then post-processes.
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    Label Victim = Code.newLabel(), Helper = Code.newLabel();
    Code.movi(Reg::R1, 4);
    Code.call(Victim);
    Code.ret();
    Code.bind(Victim);
    Code.symbol("victim");
    Code.movi(Reg::R0, 999); // replaced away
    Code.ret();
    Code.bind(Helper);
    Code.symbol("helper"); // helper(x) = x*x
    Code.mul(Reg::R0, Reg::R1, Reg::R1);
    Code.ret();
  });
  Nulgrind T;
  uint32_t HelperAddr = Img.symbol("helper");
  ASSERT_NE(HelperAddr, 0u);
  RunReport R = runUnderCoreWith(
      Img, &T, {}, "", ~0ull, [&](Core &C) {
        C.redirectSymbolToHost(
            "victim", [HelperAddr](Core &Core_, ThreadState &TS) {
              uint32_t X = TS.gpr(1);
              uint32_t Sq = Core_.callGuest(TS, HelperAddr, {X});
              TS.setGpr(0, Sq + 1); // wrapper post-processing
            });
      });
  EXPECT_EQ(R.ExitCode, 17); // 4*4 + 1
}

TEST(Redirect, GuestToGuestRedirect) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    Label A = Code.newLabel(), B = Code.newLabel();
    Code.call(A);
    Code.ret();
    Code.bind(A);
    Code.symbol("fnA");
    Code.movi(Reg::R0, 1);
    Code.ret();
    Code.bind(B);
    Code.symbol("fnB");
    Code.movi(Reg::R0, 2);
    Code.ret();
  });
  Nulgrind T;
  uint32_t FromA = Img.symbol("fnA"), ToB = Img.symbol("fnB");
  RunReport R = runUnderCoreWith(Img, &T, {}, "", ~0ull, [&](Core &C) {
    C.redirectGuest(FromA, ToB);
  });
  EXPECT_EQ(R.ExitCode, 2);
}

//===----------------------------------------------------------------------===//
// Self-modifying code (Section 3.16)
//===----------------------------------------------------------------------===//

TEST(Smc, StackTrampolineDetectedByDefault) {
  // Write a tiny function onto the stack, run it, patch it, run again.
  // With the default --smc-check=stack the change must be noticed.
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    // Build "movi r0, 5; ret" on the stack, call it.
    Code.addi(Reg::R6, Reg::SP, -32);
    // movi r0,5 encoding: 02 00 05 00 00 00 ; ret: 32
    Code.movi(Reg::R2, 0x00050002); // bytes 02 00 05 00 (little endian)
    Code.st(Reg::R6, 0, Reg::R2);
    Code.movi(Reg::R2, 0x00320000); // bytes 00 00 32 00
    Code.st(Reg::R6, 4, Reg::R2);
    Code.callr(Reg::R6);
    Code.mov(Reg::R7, Reg::R0); // 5
    // Patch the immediate to 9 and rerun.
    Code.movi(Reg::R2, 0x00090002);
    Code.st(Reg::R6, 0, Reg::R2);
    Code.callr(Reg::R6);
    Code.add(Reg::R0, Reg::R0, Reg::R7); // 9 + 5
    Code.ret();
  });
  // Stack code needs execute permission: relax the whole stack for this
  // test by running code that mprotects it... simpler: the loader maps the
  // stack RW; make it RWX via mprotect from the guest.
  GuestImage Img2 = buildProgram([](Assembler &Code, Assembler &,
                                    GuestLibLabels &) {
    Code.movi(Reg::R0, SysMprotect);
    Code.movi(Reg::R1, ClientStackTop - (1u << 20));
    Code.movi(Reg::R2, 1u << 20);
    Code.movi(Reg::R3, 7); // rwx
    Code.sys();
    Code.addi(Reg::R6, Reg::SP, -32);
    Code.movi(Reg::R2, 0x00050002);
    Code.st(Reg::R6, 0, Reg::R2);
    Code.movi(Reg::R2, 0x00320000);
    Code.st(Reg::R6, 4, Reg::R2);
    Code.callr(Reg::R6);
    Code.mov(Reg::R7, Reg::R0);
    Code.movi(Reg::R2, 0x00090002);
    Code.st(Reg::R6, 0, Reg::R2);
    Code.callr(Reg::R6);
    Code.add(Reg::R0, Reg::R0, Reg::R7);
    Code.ret();
  });
  (void)Img;
  Nulgrind T;
  RunReport R = runUnderCore(Img2, &T, {"--smc-check=stack"});
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ExitCode, 14); // 5 then 9: change detected
  EXPECT_GE(R.Stats.SmcRetranslations, 1u);

  // With --smc-check=none the stale translation keeps running: 5 + 5.
  Nulgrind T2;
  RunReport R2 = runUnderCore(Img2, &T2, {"--smc-check=none"});
  ASSERT_TRUE(R2.Completed);
  EXPECT_EQ(R2.ExitCode, 10);
}

TEST(Smc, DiscardTranslationsRequest) {
  // JIT-style: patch code in the *data* segment (smc-check=stack misses
  // it), then use the DISCARD_TRANSLATIONS client request.
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &Data,
                                   GuestLibLabels &) {
    Label JitBuf = Data.boundLabel();
    Data.emitZeros(32);
    uint32_t Buf = Data.labelAddr(JitBuf);
    Code.movi(Reg::R0, SysMprotect);
    Code.movi(Reg::R1, Buf & ~4095u);
    Code.movi(Reg::R2, 8192);
    Code.movi(Reg::R3, 7);
    Code.sys();
    Code.movi(Reg::R6, Buf);
    Code.movi(Reg::R2, 0x00050002);
    Code.st(Reg::R6, 0, Reg::R2);
    Code.movi(Reg::R2, 0x00320000);
    Code.st(Reg::R6, 4, Reg::R2);
    Code.callr(Reg::R6);
    Code.mov(Reg::R7, Reg::R0); // 5
    Code.movi(Reg::R2, 0x00090002);
    Code.st(Reg::R6, 0, Reg::R2);
    // Without the request the stale translation would run again.
    Code.movi(Reg::R0, CrDiscardTranslations);
    Code.mov(Reg::R1, Reg::R6);
    Code.movi(Reg::R2, 8);
    Code.clreq();
    Code.callr(Reg::R6);
    Code.add(Reg::R0, Reg::R0, Reg::R7);
    Code.ret();
  });
  Nulgrind T;
  RunReport R = runUnderCore(Img, &T, {"--smc-check=none"});
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ExitCode, 14);
}

//===----------------------------------------------------------------------===//
// Signals (Section 3.15)
//===----------------------------------------------------------------------===//

TEST(Signals, HandlerRunsAndSigreturnRestores) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &Data,
                                   GuestLibLabels &) {
    Label Handler = Code.newLabel();
    Label Counter = Data.boundLabel();
    Data.emitZeros(4);
    uint32_t CAddr = Data.labelAddr(Counter);
    // install handler for SIGUSR1
    Code.movi(Reg::R0, SysSigaction);
    Code.movi(Reg::R1, SigUSR1);
    Code.leai(Reg::R2, Handler);
    Code.sys();
    // raise it twice; r6 must survive delivery
    Code.movi(Reg::R6, 1234);
    Code.movi(Reg::R0, SysKill);
    Code.movi(Reg::R1, 0); // self
    Code.movi(Reg::R2, SigUSR1);
    Code.sys();
    Code.movi(Reg::R0, SysKill);
    Code.movi(Reg::R1, 0);
    Code.movi(Reg::R2, SigUSR1);
    Code.sys();
    Code.movi(Reg::R3, CAddr);
    Code.ld(Reg::R0, Reg::R3, 0); // handler ran twice -> 2
    Code.cmpi(Reg::R6, 1234);
    Label Ok = Code.newLabel();
    Code.beq(Ok);
    Code.movi(Reg::R0, 99); // register clobbered: fail
    Code.bind(Ok);
    Code.ret();
    // handler: counter++ (clobbers r6 deliberately; sigreturn must undo)
    Code.bind(Handler);
    Code.movi(Reg::R6, 777);
    Code.movi(Reg::R3, CAddr);
    Code.ld(Reg::R4, Reg::R3, 0);
    Code.addi(Reg::R4, Reg::R4, 1);
    Code.st(Reg::R3, 0, Reg::R4);
    Code.ret(); // returns to the sigreturn trampoline
  });
  Nulgrind T;
  RunReport R = runUnderCore(Img, &T);
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_EQ(R.Stats.SignalsDelivered, 2u);
}

TEST(Signals, SegvHandlerCatchesFault) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &Lib) {
    Label Handler = Code.newLabel();
    Code.movi(Reg::R0, SysSigaction);
    Code.movi(Reg::R1, SigSEGV);
    Code.leai(Reg::R2, Handler);
    Code.sys();
    Code.movi(Reg::R1, 0x00F00000);
    Code.ld(Reg::R2, Reg::R1, 0); // faults; handler exits(55)
    Code.movi(Reg::R0, 1);        // not reached
    Code.ret();
    Code.bind(Handler);
    Code.movi(Reg::R1, 55);
    Code.call(Lib.Exit);
  });
  Nulgrind T;
  RunReport R = runUnderCore(Img, &T);
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ExitCode, 55);
}

//===----------------------------------------------------------------------===//
// Threads (Section 3.14)
//===----------------------------------------------------------------------===//

TEST(Threads, SerialisedExecutionWithClone) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &Data,
                                   GuestLibLabels &) {
    Label ThreadFn = Code.newLabel();
    Label Flag = Data.boundLabel();
    Data.emitZeros(4);
    uint32_t FlagAddr = Data.labelAddr(Flag);
    // mmap a stack for the child.
    Code.movi(Reg::R0, SysMmap);
    Code.movi(Reg::R1, 0);
    Code.movi(Reg::R2, 65536);
    Code.movi(Reg::R3, 3);
    Code.movi(Reg::R4, 0);
    Code.sys();
    Code.addi(Reg::R2, Reg::R0, 65536); // child SP = top
    // clone(entry, stack, arg=21)
    Code.movi(Reg::R0, SysClone);
    Code.leai(Reg::R1, ThreadFn);
    Code.movi(Reg::R3, 21);
    Code.sys();
    // spin until the child stores arg*2
    Code.movi(Reg::R3, FlagAddr);
    Label Wait = Code.boundLabel();
    Code.movi(Reg::R0, SysYield);
    Code.sys();
    Code.ld(Reg::R4, Reg::R3, 0);
    Code.cmpi(Reg::R4, 0);
    Code.beq(Wait);
    Code.mov(Reg::R0, Reg::R4);
    Code.ret();
    // child: flag = arg*2; exit_thread
    Code.bind(ThreadFn);
    Code.shli(Reg::R4, Reg::R1, 1);
    Code.movi(Reg::R3, FlagAddr);
    Code.st(Reg::R3, 0, Reg::R4);
    Code.movi(Reg::R0, SysExitThread);
    Code.movi(Reg::R1, 0);
    Code.sys();
  });
  Nulgrind T;
  RunReport R = runUnderCore(Img, &T);
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ExitCode, 42);
  EXPECT_GE(R.Stats.ThreadSwitches, 1u);
}

//===----------------------------------------------------------------------===//
// Translation table / dispatcher
//===----------------------------------------------------------------------===//

/// 20000 iterations of a one-block loop, then exit(0).
GuestImage tightLoopProgram() {
  return buildProgram([](Assembler &Code, Assembler &, GuestLibLabels &) {
    Code.movi(Reg::R1, 0);
    Label Loop = Code.boundLabel();
    Code.addi(Reg::R1, Reg::R1, 1);
    Code.cmpi(Reg::R1, 20000);
    Code.blt(Loop);
    Code.movi(Reg::R0, 0);
    Code.ret();
  });
}

TEST(Dispatch, FastCacheHitRateIsHigh) {
  // A loopy program: the paper reports ~98% for the direct-mapped cache.
  // The paper's dispatcher is unchained (Section 3.9), so every block
  // comes back through the fast cache; chained, only the compulsory
  // misses would remain.
  Nulgrind T;
  RunReport R = runUnderCore(tightLoopProgram(), &T, {"--chaining=no"});
  ASSERT_TRUE(R.Completed);
  double Hits = static_cast<double>(R.Stats.FastCacheHits);
  double Total = Hits + static_cast<double>(R.Stats.FastCacheMisses);
  EXPECT_GT(Hits / Total, 0.95);
}

TEST(Dispatch, ChainingIsTheDefault) {
  // No options: the loop's back edge is chained, so almost every block is
  // entered without a dispatcher round trip.
  Nulgrind T;
  RunReport R = runUnderCore(tightLoopProgram(), &T);
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_GT(R.Stats.ChainedTransfers, 0u);
  uint64_t Entries = R.Stats.BlocksDispatched - R.Stats.ChainedTransfers;
  EXPECT_LT(Entries * 100, R.Stats.BlocksDispatched);
}

TEST(Dispatch, ChainingReducesDispatches) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    Code.movi(Reg::R1, 0);
    Label Loop = Code.boundLabel();
    Code.addi(Reg::R1, Reg::R1, 1);
    Code.cmpi(Reg::R1, 20000);
    Code.blt(Loop);
    Code.movi(Reg::R0, 77);
    Code.ret();
  });
  Nulgrind T1, T2;
  RunReport Plain = runUnderCore(Img, &T1, {"--chaining=no"});
  RunReport Chained = runUnderCore(Img, &T2, {"--chaining=yes"});
  ASSERT_TRUE(Plain.Completed);
  ASSERT_TRUE(Chained.Completed);
  EXPECT_EQ(Plain.ExitCode, 77);
  EXPECT_EQ(Chained.ExitCode, 77);
  EXPECT_GT(Chained.Stats.ChainedTransfers, 0u);
  // Same blocks executed either way.
  EXPECT_EQ(Plain.Stats.BlocksDispatched, Chained.Stats.BlocksDispatched);
}

TEST(Dispatch, ChainCountsAtDefaultOptions) {
  // Nested loops whose inner body branches both ways: blocks with two
  // chain slots, each entered both from the dispatcher and through chains.
  // At default options no translation is replaced, so every block entry
  // is counted exactly once, in the ExecCount of the translation entered;
  // the per-translation and per-slot counts are pinned to the values the
  // chain thunk kept before chained transfers were followed in the
  // executor (bench/sec54_hostcode weights by ExecCount, and trace
  // formation reads EdgeExecs).
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    Code.movi(Reg::R1, 0);
    Code.movi(Reg::R3, 0);
    Label Outer = Code.boundLabel();
    Code.movi(Reg::R2, 0);
    Label Inner = Code.boundLabel();
    Label Skip = Code.newLabel();
    Code.addi(Reg::R2, Reg::R2, 1);
    Code.cmpi(Reg::R2, 20);
    Code.blt(Skip);
    Code.addi(Reg::R3, Reg::R3, 1);
    Code.bind(Skip);
    Code.cmpi(Reg::R2, 50);
    Code.blt(Inner);
    Code.addi(Reg::R1, Reg::R1, 1);
    Code.cmpi(Reg::R1, 40);
    Code.blt(Outer);
    Code.andi(Reg::R0, Reg::R3, 0x7F);
    Code.ret();
  });
  Nulgrind T;
  Core C(&T);
  C.output().useBuffer();
  C.applyOptions();
  C.loadImage(Img);
  CoreExit E = C.run(~0ull);
  ASSERT_EQ(E.K, CoreExit::Kind::Exited);
  EXPECT_EQ(E.Code, (40 * 31) & 0x7F);

  // One row per resident translation, by address: ExecCount, then the
  // EdgeExecs of each chain slot.
  std::map<uint32_t, std::string> Rows;
  uint64_t Entries = 0;
  C.transTab().forEach([&](const Translation &Tr) {
    std::string &Row = Rows[Tr.Addr] = std::to_string(Tr.Blob.ExecCount);
    for (uint64_t Edge : Tr.Blob.EdgeExecs)
      Row += " " + std::to_string(Edge);
    Entries += Tr.Blob.ExecCount;
  });
  EXPECT_EQ(Entries, C.stats().BlocksDispatched);
  EXPECT_GT(C.stats().ChainedTransfers, Entries / 2);
  std::string Got;
  for (const auto &[Addr, Row] : Rows) {
    char Hex[16];
    std::snprintf(Hex, sizeof(Hex), "0x%x: ", Addr);
    Got += Hex + Row + "\n";
  }
  EXPECT_EQ(Got, "0x11b1: 1 0\n"
                 "0x11b6: 1 0\n"
                 "0x11c0: 1 1 0\n"
                 "0x11cc: 39 39 0\n"
                 "0x11d2: 1960 720 1240\n"
                 "0x11e3: 1240 1200 40\n"
                 "0x11e9: 760 760 0\n"
                 "0x11f4: 40 39 1\n"
                 "0x1205: 1\n");
}

TEST(Dispatch, MunmapInvalidatesTranslations) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    // Run code from an mmap'd page, munmap it, remap and write different
    // code, run again: must not see the old translation.
    Code.movi(Reg::R0, SysMmap);
    Code.movi(Reg::R1, 0x50000000);
    Code.movi(Reg::R2, 4096);
    Code.movi(Reg::R3, 7);
    Code.movi(Reg::R4, 1); // fixed
    Code.sys();
    Code.mov(Reg::R6, Reg::R0);
    Code.movi(Reg::R2, 0x00050002); // movi r0,5 ; ret
    Code.st(Reg::R6, 0, Reg::R2);
    Code.movi(Reg::R2, 0x00320000);
    Code.st(Reg::R6, 4, Reg::R2);
    Code.callr(Reg::R6);
    Code.mov(Reg::R7, Reg::R0);
    Code.movi(Reg::R0, SysMunmap);
    Code.mov(Reg::R1, Reg::R6);
    Code.movi(Reg::R2, 4096);
    Code.sys();
    Code.movi(Reg::R0, SysMmap);
    Code.movi(Reg::R1, 0x50000000);
    Code.movi(Reg::R2, 4096);
    Code.movi(Reg::R3, 7);
    Code.movi(Reg::R4, 1);
    Code.sys();
    Code.mov(Reg::R6, Reg::R0);
    Code.movi(Reg::R2, 0x00090002); // movi r0,9 ; ret
    Code.st(Reg::R6, 0, Reg::R2);
    Code.movi(Reg::R2, 0x00320000);
    Code.st(Reg::R6, 4, Reg::R2);
    Code.callr(Reg::R6);
    Code.add(Reg::R0, Reg::R0, Reg::R7);
    Code.ret();
  });
  Nulgrind T;
  RunReport R = runUnderCore(Img, &T, {"--smc-check=none"});
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ExitCode, 14);
}

TEST(Dispatch, MmapIntoCoreRegionRefused) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    Code.movi(Reg::R0, SysMmap);
    Code.movi(Reg::R1, AddressSpace::CoreBase + 0x100000);
    Code.movi(Reg::R2, 4096);
    Code.movi(Reg::R3, 3);
    Code.movi(Reg::R4, 1); // fixed: must fail (pre-checked, Section 3.10)
    Code.sys();
    Code.ret();
  });
  Nulgrind T;
  RunReport R = runUnderCore(Img, &T);
  EXPECT_EQ(static_cast<uint32_t>(R.ExitCode), SysErr);
}

//===----------------------------------------------------------------------===//
// Additional core behaviours
//===----------------------------------------------------------------------===//

TEST(Core, LogFileOptionRedirectsToolOutput) {
  std::string Path = "/tmp/vg_core_logfile_test.txt";
  std::remove(Path.c_str());
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &Data,
                                   GuestLibLabels &) {
    Label Msg = Data.boundLabel();
    Data.emitString("to-the-log");
    Code.movi(Reg::R0, CrPrint);
    Code.movi(Reg::R1, Data.labelAddr(Msg));
    Code.clreq();
    Code.movi(Reg::R0, 0);
    Code.ret();
  });
  {
    Core C(nullptr);
    C.options().parse({std::string("--log-file=") + Path});
    C.applyOptions();
    C.loadImage(Img);
    C.run();
  }
  std::FILE *F = std::fopen(Path.c_str(), "r");
  ASSERT_NE(F, nullptr);
  char Buf[64] = {};
  [[maybe_unused]] size_t N = std::fread(Buf, 1, sizeof(Buf) - 1, F);
  std::fclose(F);
  std::remove(Path.c_str());
  EXPECT_STREQ(Buf, "to-the-log");
}

TEST(Core, QuantumPreemptsSpinningThread) {
  // Thread A spins forever; the main thread must still make progress and
  // exit the process (the 100k-block quantum forces the switch).
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    Label Spin = Code.newLabel();
    // mmap a stack, clone the spinner.
    Code.movi(Reg::R0, SysMmap);
    Code.movi(Reg::R1, 0);
    Code.movi(Reg::R2, 65536);
    Code.movi(Reg::R3, 3);
    Code.movi(Reg::R4, 0);
    Code.sys();
    Code.addi(Reg::R2, Reg::R0, 65536);
    Code.movi(Reg::R0, SysClone);
    Code.leai(Reg::R1, Spin);
    Code.movi(Reg::R3, 0);
    Code.sys();
    Code.movi(Reg::R0, 42); // exits the whole process via main's return
    Code.ret();
    Code.bind(Spin);
    Label Loop = Code.boundLabel();
    Code.addi(Reg::R4, Reg::R4, 1);
    Code.jmp(Loop);
  });
  Nulgrind T;
  RunReport R = runUnderCore(Img, &T, {}, "", /*MaxBlocks=*/5'000'000);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.ExitCode, 42);
}

TEST(Core, RegisteredAltStackSuppressesSwitchEvents) {
  // Register a small malloc'd region as a stack; moving SP into it must be
  // treated as a stack switch (no die_mem_stack for the jump) even though
  // the delta is below the threshold.
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &Lib) {
    Code.movi(Reg::R1, 4096);
    Code.call(Lib.Malloc);
    Code.addi(Reg::R6, Reg::R0, 4096); // new stack top
    Code.movi(Reg::R0, CrStackRegister);
    Code.mov(Reg::R1, Reg::R6);
    Code.addi(Reg::R1, Reg::R1, -4096);
    Code.mov(Reg::R2, Reg::R6);
    Code.clreq();
    Code.mov(Reg::R7, Reg::SP); // save old SP
    Code.mov(Reg::SP, Reg::R6); // switch!
    Code.push(Reg::R7);         // use the new stack a bit
    Code.pop(Reg::R7);
    Code.mov(Reg::SP, Reg::R7); // switch back
    Code.movi(Reg::R0, 0);
    Code.ret();
  });
  EventRecorder T;
  RunReport R = runUnderCore(Img, &T);
  ASSERT_TRUE(R.Completed);
  // Only small (4-byte) stack events from calls/pushes; the two switches
  // contributed nothing.
  EXPECT_LT(T.StackBytesDied, 4096u);
}

TEST(Core, CallGuestNestsInsideHostReplacement) {
  // Host replacement -> guest helper -> (recursively) another guest call.
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    Label Target = Code.newLabel(), Inc = Code.newLabel();
    Code.movi(Reg::R1, 5);
    Code.call(Target);
    Code.ret();
    Code.bind(Target);
    Code.symbol("target");
    Code.movi(Reg::R0, 0); // replaced
    Code.ret();
    Code.bind(Inc);
    Code.symbol("inc"); // inc(x) = x + 1, calls nothing
    Code.addi(Reg::R0, Reg::R1, 1);
    Code.ret();
  });
  Nulgrind T;
  uint32_t IncAddr = Img.symbol("inc");
  RunReport R = runUnderCoreWith(
      Img, &T, {}, "", ~0ull, [&](Core &C) {
        C.redirectSymbolToHost("target", [IncAddr](Core &Core_,
                                                   ThreadState &TS) {
          // inc(inc(inc(x))): three nested dispatch loops.
          uint32_t V = TS.gpr(1);
          for (int I = 0; I != 3; ++I)
            V = Core_.callGuest(TS, IncAddr, {V});
          TS.setGpr(0, V);
        });
      });
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ExitCode, 8);
}

/// Writes one line per EventHub callback with every argument, plus the
/// marks a test's host code writes around its calls into guest code.
class HubLog : public Tool {
public:
  const char *name() const override { return "hublog"; }
  void init(Core &C) override {
    EventHub &E = C.events();
    E.PreRegRead = [this](int T, uint32_t Off, uint32_t Size, const char *S) {
      line("pre_reg_read", T, {Off, Size}, S);
    };
    E.PostRegWrite = [this](int T, uint32_t Off, uint32_t Size) {
      line("post_reg_write", T, {Off, Size});
    };
    E.PreMemRead = [this](int T, uint32_t A, uint32_t L, const char *S) {
      line("pre_mem_read", T, {A, L}, S);
    };
    E.PreMemReadAsciiz = [this](int T, uint32_t A, const char *S) {
      line("pre_mem_read_asciiz", T, {A}, S);
    };
    E.PreMemWrite = [this](int T, uint32_t A, uint32_t L, const char *S) {
      line("pre_mem_write", T, {A, L}, S);
    };
    E.PostMemWrite = [this](int T, uint32_t A, uint32_t L) {
      line("post_mem_write", T, {A, L});
    };
    E.NewMemStartup = [this](uint32_t A, uint32_t L, uint8_t P) {
      line("new_mem_startup", -1, {A, L, P});
    };
    E.NewMemMmap = [this](uint32_t A, uint32_t L, uint8_t P) {
      line("new_mem_mmap", -1, {A, L, P});
    };
    E.DieMemMunmap = [this](uint32_t A, uint32_t L) {
      line("die_mem_munmap", -1, {A, L});
    };
    E.NewMemBrk = [this](uint32_t A, uint32_t L) {
      line("new_mem_brk", -1, {A, L});
    };
    E.DieMemBrk = [this](uint32_t A, uint32_t L) {
      line("die_mem_brk", -1, {A, L});
    };
    E.CopyMemMremap = [this](uint32_t Src, uint32_t Dst, uint32_t L) {
      line("copy_mem_mremap", -1, {Src, Dst, L});
    };
    E.NewMemStack = [this](uint32_t A, uint32_t L) {
      line("new_mem_stack", -1, {A, L});
    };
    E.DieMemStack = [this](uint32_t A, uint32_t L) {
      line("die_mem_stack", -1, {A, L});
    };
    E.PostFileRead = [this](int T, uint32_t Fd, uint32_t A, uint32_t L,
                            const char *S) {
      line("post_file_read", T, {Fd, A, L}, S);
    };
    E.PreSyscall = [this](int T, uint32_t Num) {
      line("pre_syscall", T, {Num});
    };
    E.PostSyscall = [this](int T, uint32_t Num, uint32_t Result) {
      line("post_syscall", T, {Num, Result});
    };
    E.FaultInjected = [this](int T, uint32_t Kind, uint32_t Arg) {
      line("fault_injected", T, {Kind, Arg});
    };
  }

  void mark(const char *What) { Log += std::string("-- ") + What + "\n"; }

  std::string Log;

private:
  void line(const char *Ev, int Tid, std::initializer_list<uint32_t> Args,
            const char *Name = nullptr) {
    char Buf[64];
    Log += Ev;
    if (Tid >= 0) {
      std::snprintf(Buf, sizeof(Buf), " t%d", Tid);
      Log += Buf;
    }
    for (uint32_t A : Args) {
      std::snprintf(Buf, sizeof(Buf), " 0x%x", A);
      Log += Buf;
    }
    if (Name)
      Log += std::string(" \"") + Name + "\"";
    Log += "\n";
  }
};

// What the core announces when host code enters guest code: a host
// replacement calling a five-argument guest function through callGuest,
// and a wrapped guest function (wrapping reaches the original through
// callGuest too). Each run's whole event stream, in order.
TEST(CallGuest, EventsGolden) {
  std::string Out;
  {
    GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                     GuestLibLabels &) {
      Label Target = Code.newLabel(), Sum = Code.newLabel();
      Code.movi(Reg::R1, 9);
      Code.call(Target);
      Code.ret();
      Code.bind(Target);
      Code.symbol("target");
      Code.movi(Reg::R0, 0); // replaced
      Code.ret();
      Code.bind(Sum);
      Code.symbol("sum5"); // sum5(a, b, c, d, e) = a + b + c + d + e
      Code.push(Reg::R6);
      Code.add(Reg::R0, Reg::R1, Reg::R2);
      Code.add(Reg::R0, Reg::R0, Reg::R3);
      Code.add(Reg::R0, Reg::R0, Reg::R4);
      Code.add(Reg::R0, Reg::R0, Reg::R5);
      Code.pop(Reg::R6);
      Code.ret();
    });
    HubLog T;
    uint32_t SumAddr = Img.symbol("sum5");
    RunReport R = runUnderCoreWith(
        Img, &T, {}, "", ~0ull, [&](Core &C) {
          C.redirectSymbolToHost("target", [&T, SumAddr](Core &Core_,
                                                         ThreadState &TS) {
            T.mark("callGuest sum5(1, 2, 3, 4, 5)");
            uint32_t V = Core_.callGuest(TS, SumAddr, {1, 2, 3, 4, 5});
            T.mark("callGuest returned");
            TS.setGpr(0, V);
          });
        });
    ASSERT_TRUE(R.Completed);
    EXPECT_EQ(R.ExitCode, 15);
    Out += "== callGuest exit=" + std::to_string(R.ExitCode) + "\n" + T.Log;
  }
  {
    GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                     GuestLibLabels &) {
      Label Victim = Code.newLabel();
      Code.movi(Reg::R1, 20);
      Code.movi(Reg::R2, 22);
      Code.call(Victim);
      Code.ret();
      Code.bind(Victim);
      Code.symbol("victim"); // victim(a, b) = a + b
      Code.push(Reg::R6);
      Code.add(Reg::R0, Reg::R1, Reg::R2);
      Code.pop(Reg::R6);
      Code.ret();
    });
    HubLog T;
    RunReport R = runUnderCoreWith(
        Img, &T, {}, "", ~0ull, [&](Core &C) {
          WrapHooks H;
          H.Pre = [&T](Core &, ThreadState &) { T.mark("wrap pre"); };
          H.Post = [&T](Core &, ThreadState &, uint32_t &Result) {
            T.mark("wrap post");
            Result += 1;
          };
          C.wrapSymbolFunction("victim", H);
        });
    ASSERT_TRUE(R.Completed);
    EXPECT_EQ(R.ExitCode, 43);
    Out += "== wrapFunction exit=" + std::to_string(R.ExitCode) + "\n" + T.Log;
  }
  checkGolden("callguest_events", Out);
}

} // namespace
