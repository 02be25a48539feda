//===-- tests/MemcheckTests.cpp - Memcheck + shadow memory tests ----------==//
///
/// \file
/// Validates the flagship shadow-value tool: definedness tracking through
/// registers, memory, and the heap; addressability errors on red zones and
/// freed blocks; syscall parameter checking; leak detection; error
/// deduplication and suppressions; and the ShadowMap substrate itself.
///
//===----------------------------------------------------------------------===//

#include "core/Launcher.h"
#include "guestlib/GuestLib.h"
#include "shadow/ShadowMemory.h"
#include "tools/Memcheck.h"

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
  Code.symbol("main");
  Body(Code, Data, Lib);
  return GuestImageBuilder().addCode(Code).addData(Data).entry(Entry).build();
}

/// Runs under Memcheck; returns (report, #unique errors of each kind seen
/// in the tool output).
struct McRun {
  RunReport R;
  std::string Output;
  bool has(const char *Needle) const {
    return Output.find(Needle) != std::string::npos;
  }
};

McRun runMc(const GuestImage &Img,
            const std::vector<std::string> &Opts = {}) {
  Memcheck T;
  McRun M;
  M.R = runUnderCore(Img, &T, Opts);
  M.Output = M.R.ToolOutput;
  return M;
}

//===----------------------------------------------------------------------===//
// ShadowMap substrate
//===----------------------------------------------------------------------===//

TEST(ShadowMap, DefaultIsNoAccess) {
  ShadowMap SM;
  uint32_t Bad;
  EXPECT_FALSE(SM.isAddressable(0x1000, 4, Bad));
  EXPECT_EQ(Bad, 0x1000u);
  EXPECT_EQ(SM.chunksMaterialised(), 0u);
}

TEST(ShadowMap, RangeTransitions) {
  ShadowMap SM;
  SM.makeUndefined(0x1000, 64);
  uint32_t Bad;
  bool Unaddr;
  EXPECT_TRUE(SM.isAddressable(0x1000, 64, Bad));
  EXPECT_FALSE(SM.isDefined(0x1000, 64, Bad, Unaddr));
  EXPECT_FALSE(Unaddr);
  SM.makeDefined(0x1000, 64);
  EXPECT_TRUE(SM.isDefined(0x1000, 64, Bad, Unaddr));
  SM.makeNoAccess(0x1010, 8);
  EXPECT_FALSE(SM.isAddressable(0x1000, 64, Bad));
  EXPECT_EQ(Bad, 0x1010u);
  // Bytes around the hole unaffected.
  EXPECT_TRUE(SM.isDefined(0x1000, 16, Bad, Unaddr));
  EXPECT_TRUE(SM.isDefined(0x1018, 0x40 - 0x18, Bad, Unaddr));
}

TEST(ShadowMap, WholeChunkOpsStayDistinguished) {
  ShadowMap SM;
  // Chunk-aligned makeDefined uses the shared secondary: no materialise.
  SM.makeDefined(0x30000, ShadowMap::ChunkSize);
  EXPECT_EQ(SM.chunksMaterialised(), 0u);
  uint32_t Bad;
  bool Unaddr;
  EXPECT_TRUE(SM.isDefined(0x30000, ShadowMap::ChunkSize, Bad, Unaddr));
  // A partial write materialises exactly one chunk.
  SM.makeUndefined(0x30010, 4);
  EXPECT_EQ(SM.chunksMaterialised(), 1u);
}

TEST(ShadowMap, LoadStoreVbitsRoundTrip) {
  ShadowMap SM;
  SM.makeUndefined(0x2000, 16);
  AddrCheck Check;
  EXPECT_EQ(SM.loadV(0x2000, 4, Check), 0xFFFFFFFFull);
  EXPECT_TRUE(Check.Ok);
  SM.storeV(0x2000, 4, 0x00FF00FF, Check);
  EXPECT_TRUE(Check.Ok);
  AddrCheck C2;
  EXPECT_EQ(SM.loadV(0x2000, 4, C2), 0x00FF00FFull);
  // Partially unaddressable load: flags the first bad byte, reads 0xFF.
  SM.makeNoAccess(0x2002, 1);
  AddrCheck C3;
  uint64_t V = SM.loadV(0x2000, 4, C3);
  EXPECT_FALSE(C3.Ok);
  EXPECT_EQ(C3.FirstBad, 0x2002u);
  EXPECT_EQ((V >> 16) & 0xFF, 0xFFull);
}

TEST(ShadowMap, CopyRangeMovesBothPlanes) {
  ShadowMap SM;
  SM.makeUndefined(0x1000, 8);
  AddrCheck Check;
  SM.storeV(0x1000, 8, 0x1122334455667788ull, Check);
  SM.makeNoAccess(0x1004, 1);
  SM.copyRange(0x1000, 0x5000, 8);
  EXPECT_EQ(SM.vbyte(0x5001), 0x77);
  EXPECT_FALSE(SM.abit(0x5004));
  EXPECT_TRUE(SM.abit(0x5005));
}

TEST(DirectShadow, WindowSemantics) {
  DirectShadow DS(0x100000, 0x10000);
  EXPECT_TRUE(DS.covers(0x100000, 16));
  EXPECT_FALSE(DS.covers(0xFFFF0, 16));
  DS.makeDefined(0x100100, 64);
  AddrCheck Check;
  EXPECT_EQ(DS.loadV(0x100100, 8, Check), 0ull);
  EXPECT_TRUE(Check.Ok);
  // Outside the window: hard failure (the TaintTrace weakness).
  AddrCheck C2;
  DS.loadV(0x80000, 4, C2);
  EXPECT_FALSE(C2.Ok);
}

//===----------------------------------------------------------------------===//
// Definedness through registers and memory
//===----------------------------------------------------------------------===//

TEST(Memcheck, CleanProgramHasNoErrors) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &) {
    Code.movi(Reg::R1, 1);
    Code.movi(Reg::R2, 2);
    Code.add(Reg::R3, Reg::R1, Reg::R2);
    Code.cmpi(Reg::R3, 3);
    Label L = Code.newLabel();
    Code.beq(L);
    Code.bind(L);
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.R.Completed);
  EXPECT_TRUE(M.has("ERROR SUMMARY: 0 errors"));
}

TEST(Memcheck, BranchOnUninitStackLocal) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &) {
    Code.addi(Reg::SP, Reg::SP, -16); // allocate locals (undefined)
    Code.ld(Reg::R1, Reg::SP, 4);     // read uninitialised local
    Code.cmpi(Reg::R1, 0);            // flags now undefined
    Label L = Code.newLabel();
    Code.beq(L); // ERROR: conditional jump on uninit value
    Code.bind(L);
    Code.addi(Reg::SP, Reg::SP, 16);
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.R.Completed);
  EXPECT_TRUE(M.has("Conditional jump or move depends on uninitialised"))
      << M.Output;
}

TEST(Memcheck, InitialisedLocalIsClean) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &) {
    Code.addi(Reg::SP, Reg::SP, -16);
    Code.movi(Reg::R2, 42);
    Code.st(Reg::SP, 4, Reg::R2); // initialise first
    Code.ld(Reg::R1, Reg::SP, 4);
    Code.cmpi(Reg::R1, 0);
    Label L = Code.newLabel();
    Code.beq(L);
    Code.bind(L);
    Code.addi(Reg::SP, Reg::SP, 16);
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("ERROR SUMMARY: 0 errors")) << M.Output;
}

TEST(Memcheck, CopyingUninitialisedDataIsNotAnError) {
  // Memcheck's precision claim: merely moving undefined values around is
  // fine; only *dangerous uses* are flagged.
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &) {
    Code.addi(Reg::SP, Reg::SP, -32);
    Code.ld(Reg::R1, Reg::SP, 0);  // uninit
    Code.mov(Reg::R2, Reg::R1);    // copy: fine
    Code.add(Reg::R3, Reg::R1, Reg::R2); // arithmetic: fine
    Code.st(Reg::SP, 16, Reg::R3); // store back: fine
    Code.addi(Reg::SP, Reg::SP, 32);
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("ERROR SUMMARY: 0 errors")) << M.Output;
}

TEST(Memcheck, UninitTrackedThroughRegistersAndMemory) {
  // The footnote-1 point: definedness must survive a round trip through
  // registers and memory, then fire exactly at the eventual use.
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &Data,
                                  GuestLibLabels &) {
    Label Cell = Data.boundLabel();
    Data.emitZeros(8);
    Code.addi(Reg::SP, Reg::SP, -16);
    Code.ld(Reg::R1, Reg::SP, 0);          // uninit
    Code.shli(Reg::R2, Reg::R1, 4);        // derived: still uninit
    Code.movi(Reg::R3, Data.labelAddr(Cell));
    Code.st(Reg::R3, 0, Reg::R2);          // park in (defined) data cell
    Code.ld(Reg::R4, Reg::R3, 0);          // reload: uninit again
    Code.cmpi(Reg::R4, 7);
    Label L = Code.newLabel();
    Code.bne(L); // ERROR here, and only here
    Code.bind(L);
    Code.addi(Reg::SP, Reg::SP, 16);
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("Conditional jump or move")) << M.Output;
  EXPECT_TRUE(M.has("ERROR SUMMARY: 1 errors from 1 contexts")) << M.Output;
}

TEST(Memcheck, UninitAddressUse) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &) {
    Code.addi(Reg::SP, Reg::SP, -16);
    Code.ld(Reg::R1, Reg::SP, 0); // uninit
    // Mask it into a mapped data range so the access itself succeeds: the
    // *definedness of the address* is the error.
    Code.andi(Reg::R1, Reg::R1, 0xFFC);
    Code.addi(Reg::R1, Reg::R1, DataBase);
    Code.ld(Reg::R2, Reg::R1, 0); // ERROR: address depends on uninit
    Code.addi(Reg::SP, Reg::SP, 16);
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("Use of uninitialised value")) << M.Output;
}

//===----------------------------------------------------------------------===//
// Heap errors (R8)
//===----------------------------------------------------------------------===//

TEST(Memcheck, MallocMemoryIsUndefinedCallocIsDefined) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &Lib) {
    // calloc: branch on contents is fine.
    Code.movi(Reg::R1, 8);
    Code.movi(Reg::R2, 4);
    Code.call(Lib.Calloc);
    Code.mov(Reg::R7, Reg::R0); // keep for the free below
    Code.ld(Reg::R3, Reg::R0, 0);
    Code.cmpi(Reg::R3, 0);
    Label L1 = Code.newLabel();
    Code.beq(L1);
    Code.bind(L1);
    // malloc: branch on contents errors.
    Code.movi(Reg::R1, 32);
    Code.call(Lib.Malloc);
    Code.ld(Reg::R3, Reg::R0, 0);
    Code.cmpi(Reg::R3, 0);
    Label L2 = Code.newLabel();
    Code.beq(L2);
    Code.bind(L2);
    Code.mov(Reg::R1, Reg::R0);
    Code.call(Lib.Free);
    Code.mov(Reg::R1, Reg::R7);
    Code.call(Lib.Free);
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("Conditional jump or move")) << M.Output;
  EXPECT_TRUE(M.has("ERROR SUMMARY: 1 errors")) << M.Output;
}

TEST(Memcheck, HeapOverrunHitsRedZone) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &Lib) {
    Code.movi(Reg::R1, 16);
    Code.call(Lib.Malloc);
    Code.movi(Reg::R2, 1);
    Code.st(Reg::R0, 16, Reg::R2); // one past the end: red zone
    Code.ld(Reg::R3, Reg::R0, -4); // one before the start
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("Invalid write of size 4")) << M.Output;
  EXPECT_TRUE(M.has("Invalid read of size 4")) << M.Output;
}

TEST(Memcheck, UseAfterFree) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &Lib) {
    Code.movi(Reg::R1, 64);
    Code.call(Lib.Malloc);
    Code.mov(Reg::R6, Reg::R0);
    Code.movi(Reg::R2, 9);
    Code.st(Reg::R6, 0, Reg::R2);
    Code.mov(Reg::R1, Reg::R6);
    Code.call(Lib.Free);
    Code.ld(Reg::R3, Reg::R6, 0); // ERROR: read of freed block
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("Invalid read")) << M.Output;
}

TEST(Memcheck, DoubleFreeAndWildFree) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &Lib) {
    Code.movi(Reg::R1, 16);
    Code.call(Lib.Malloc);
    Code.mov(Reg::R6, Reg::R0);
    Code.mov(Reg::R1, Reg::R6);
    Code.call(Lib.Free);
    Code.mov(Reg::R1, Reg::R6);
    Code.call(Lib.Free); // ERROR: double free
    Code.movi(Reg::R1, DataBase + 128);
    Code.call(Lib.Free); // ERROR: never allocated
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("Invalid free")) << M.Output;
  EXPECT_TRUE(M.has("ERROR SUMMARY: 2 errors from 2 contexts")) << M.Output;
}

TEST(Memcheck, ReallocPreservesDefinedness) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &Lib) {
    Code.movi(Reg::R1, 8);
    Code.call(Lib.Malloc);
    Code.mov(Reg::R6, Reg::R0);
    Code.movi(Reg::R2, 5);
    Code.st(Reg::R6, 0, Reg::R2); // first word defined
    Code.mov(Reg::R1, Reg::R6);
    Code.movi(Reg::R2, 64);
    Code.call(Lib.Realloc);
    Code.mov(Reg::R6, Reg::R0);
    Code.ld(Reg::R3, Reg::R6, 0); // copied word: defined, branch OK
    Code.cmpi(Reg::R3, 5);
    Label L1 = Code.newLabel();
    Code.beq(L1);
    Code.bind(L1);
    Code.ld(Reg::R4, Reg::R6, 32); // fresh tail: undefined
    Code.cmpi(Reg::R4, 0);
    Label L2 = Code.newLabel();
    Code.beq(L2); // ERROR
    Code.bind(L2);
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("ERROR SUMMARY: 1 errors")) << M.Output;
}

//===----------------------------------------------------------------------===//
// Leaks
//===----------------------------------------------------------------------===//

TEST(Memcheck, LeakDetected) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &Lib) {
    Code.movi(Reg::R1, 100);
    Code.call(Lib.Malloc);
    Code.movi(Reg::R0, 0); // drop the only pointer
    Code.ret();
  }));
  EXPECT_TRUE(M.has("definitely lost: 100 bytes in 1 blocks")) << M.Output;
}

TEST(Memcheck, ReachableBlockNotLeaked) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &Data,
                                  GuestLibLabels &Lib) {
    Label Global = Data.boundLabel();
    Data.emitZeros(4);
    Code.movi(Reg::R1, 100);
    Code.call(Lib.Malloc);
    Code.movi(Reg::R3, Data.labelAddr(Global));
    Code.st(Reg::R3, 0, Reg::R0); // keep the pointer in a global
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("definitely lost: 0 bytes in 0 blocks")) << M.Output;
}

TEST(Memcheck, LeakScanAcrossShadowChunks) {
  // Blocks in several 64KB shadow chunks of the replacement heap, a freed
  // 192KB block leaving whole NoAccess chunks in the heap, and a mapping
  // with a NoAccess chunk on each side of the words that hold pointers.
  // Roots are registers and every addressable word outside client text,
  // heap words included.
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &Data,
                                  GuestLibLabels &Lib) {
    Label Globals = Data.boundLabel();
    Data.emitZeros(24);
    auto Malloc = [&](uint32_t Size, Reg Into) {
      Code.movi(Reg::R1, Size);
      Code.call(Lib.Malloc);
      Code.mov(Into, Reg::R0);
    };
    Code.movi(Reg::R13, Data.labelAddr(Globals));
    Malloc(16, Reg::R2); // S: in a global
    Code.st(Reg::R13, 0, Reg::R2);
    Malloc(24, Reg::R3); // held only inside S
    Code.st(Reg::R2, 4, Reg::R3);
    Malloc(40, Reg::R3); // held only by an interior pointer in a global
    Code.addi(Reg::R3, Reg::R3, 8);
    Code.st(Reg::R13, 4, Reg::R3);
    Malloc(72, Reg::R12); // the leak
    // Globals pointing one byte before it and one past its end keep
    // nothing: both land in its red zones.
    Code.addi(Reg::R3, Reg::R12, -1);
    Code.st(Reg::R13, 16, Reg::R3);
    Code.addi(Reg::R3, Reg::R12, 72);
    Code.st(Reg::R13, 20, Reg::R3);
    Malloc(32, Reg::R9);  // held only in r9
    Malloc(0x20000, Reg::R8); // L: in a global, spans three chunks
    Code.st(Reg::R13, 8, Reg::R8);
    // P1 in the last word before the first chunk boundary inside L, P2 in
    // the first word after it.
    Code.addi(Reg::R4, Reg::R8, 0x10000);
    Code.andi(Reg::R4, Reg::R4, 0xFFFF0000u);
    Malloc(8, Reg::R3);
    Code.st(Reg::R4, -4, Reg::R3);
    Malloc(12, Reg::R3);
    Code.st(Reg::R4, 0, Reg::R3);
    // A three-chunk mapping whose first and last chunks are made NoAccess:
    // the only pointers to two more blocks sit in the first and the last
    // word of the middle chunk, and a stale one to the leak in the first.
    constexpr uint32_t Map = 0x50000000;
    Code.movi(Reg::R0, SysMmap);
    Code.movi(Reg::R1, Map);
    Code.movi(Reg::R2, 3 * ShadowMap::ChunkSize);
    Code.movi(Reg::R3, 3);
    Code.movi(Reg::R4, 1); // fixed
    Code.sys();
    Code.movi(Reg::R4, Map + ShadowMap::ChunkSize);
    Malloc(28, Reg::R3);
    Code.st(Reg::R4, 0, Reg::R3);
    Code.movi(Reg::R4, Map + 2 * ShadowMap::ChunkSize);
    Malloc(36, Reg::R3);
    Code.st(Reg::R4, -4, Reg::R3);
    Code.movi(Reg::R4, Map);
    Code.st(Reg::R4, 0, Reg::R12);
    emitClientRequest(Code, McMakeMemNoAccess, Map, ShadowMap::ChunkSize);
    emitClientRequest(Code, McMakeMemNoAccess, Map + 2 * ShadowMap::ChunkSize,
                      ShadowMap::ChunkSize);
    Malloc(0x30000, Reg::R10); // G: freed below
    Malloc(20, Reg::R3);       // past G: in a global
    Code.st(Reg::R13, 12, Reg::R3);
    // Stale pointers to the leak in G's first word and in a chunk G covers
    // whole: freed memory is NoAccess, so neither is a root.
    Code.st(Reg::R10, 0, Reg::R12);
    Code.movi(Reg::R4, 0x10000);
    Code.add(Reg::R4, Reg::R10, Reg::R4);
    Code.st(Reg::R4, 0, Reg::R12);
    Code.mov(Reg::R1, Reg::R10);
    Code.call(Lib.Free);
    for (Reg R : {Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R10, Reg::R12})
      Code.movi(R, 0);
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("in use at exit: 131360 bytes in 11 blocks")) << M.Output;
  EXPECT_TRUE(M.has("definitely lost: 72 bytes in 1 blocks")) << M.Output;
  // The one leak record, at the fourth block's payload.
  EXPECT_TRUE(M.has("72 bytes definitely lost at 0x600000D0")) << M.Output;
  size_t Records = 0;
  for (size_t P = M.Output.find("definitely lost at"); P != std::string::npos;
       P = M.Output.find("definitely lost at", P + 1))
    ++Records;
  EXPECT_EQ(Records, 1u) << M.Output;
}

TEST(Memcheck, LeakCheckCanBeDisabled) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &Lib) {
                    Code.movi(Reg::R1, 100);
                    Code.call(Lib.Malloc);
                    Code.movi(Reg::R0, 0);
                    Code.ret();
                  }),
                  {"--leak-check=no"});
  EXPECT_FALSE(M.has("LEAK SUMMARY"));
  EXPECT_TRUE(M.has("in use at exit: 100 bytes in 1 blocks")) << M.Output;
}

//===----------------------------------------------------------------------===//
// Syscall checking (R4) and client requests
//===----------------------------------------------------------------------===//

TEST(Memcheck, SyscallReadingUninitBufferReported) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &Lib) {
    Code.movi(Reg::R1, 24);
    Code.call(Lib.Malloc);
    // write(1, uninit_buf, 8): the wrapper's pre_mem_read fires.
    Code.mov(Reg::R2, Reg::R0);
    Code.movi(Reg::R0, SysWrite);
    Code.movi(Reg::R1, 1);
    Code.movi(Reg::R3, 8);
    Code.sys();
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("Syscall parameter write(buf)")) << M.Output;
  EXPECT_TRUE(M.has("uninitialised")) << M.Output;
}

TEST(Memcheck, SyscallUninitArgumentRegister) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &) {
    Code.addi(Reg::SP, Reg::SP, -16);
    Code.ld(Reg::R1, Reg::SP, 0); // uninit value...
    Code.movi(Reg::R0, SysNanosleep);
    Code.sys(); // ...passed as a syscall argument register
    Code.addi(Reg::SP, Reg::SP, 16);
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("Syscall parameter")) << M.Output;
}

TEST(Memcheck, ClientRequestsManipulateShadowState) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &Data,
                                  GuestLibLabels &) {
    Label Cell = Data.boundLabel();
    Data.emitZeros(16);
    uint32_t CAddr = Data.labelAddr(Cell);
    // Make a defined global undefined, then branch on it: error.
    Code.movi(Reg::R0, McMakeMemUndefined);
    Code.movi(Reg::R1, CAddr);
    Code.movi(Reg::R2, 4);
    Code.clreq();
    // CHECK_MEM_IS_DEFINED reports the first bad address.
    Code.movi(Reg::R0, McCheckMemIsDefined);
    Code.movi(Reg::R1, CAddr);
    Code.movi(Reg::R2, 4);
    Code.clreq();
    Code.movi(Reg::R2, CAddr);
    Code.cmp(Reg::R0, Reg::R2);
    Label Bad = Code.newLabel();
    Code.bne(Bad);
    // Re-define it; check passes (returns 0).
    Code.movi(Reg::R0, McMakeMemDefined);
    Code.movi(Reg::R1, CAddr);
    Code.movi(Reg::R2, 4);
    Code.clreq();
    Code.movi(Reg::R0, McCheckMemIsDefined);
    Code.movi(Reg::R1, CAddr);
    Code.movi(Reg::R2, 4);
    Code.clreq();
    Code.ret(); // r0 == 0 on success
    Code.bind(Bad);
    Code.movi(Reg::R0, 1);
    Code.ret();
  }));
  EXPECT_TRUE(M.R.Completed);
  EXPECT_EQ(M.R.ExitCode, 0) << M.Output;
}

//===----------------------------------------------------------------------===//
// JIT-inlined shadow fast path
//===----------------------------------------------------------------------===//

TEST(Memcheck, InlineFastPathServicesAlignedWordTraffic) {
  // A loop of aligned, defined 4-byte loads and stores: the SHPROBE fast
  // path should absorb almost all of the shadow traffic, with identical
  // results (no errors, correct data flow).
  Memcheck T;
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &Data,
                                   GuestLibLabels &) {
    Label Buf = Data.boundLabel();
    Data.emitZeros(64); // defined data
    Code.movi(Reg::R6, Data.labelAddr(Buf));
    Code.movi(Reg::R7, 0); // i
    Code.movi(Reg::R8, 0); // sum
    Label Loop = Code.boundLabel();
    Code.ld(Reg::R1, Reg::R6, 0);       // aligned defined load
    Code.add(Reg::R8, Reg::R8, Reg::R1);
    Code.addi(Reg::R1, Reg::R1, 1);
    Code.st(Reg::R6, 0, Reg::R1);       // aligned defined store
    Code.addi(Reg::R7, Reg::R7, 1);
    Code.cmpi(Reg::R7, 100);
    Code.blt(Loop);
    // sum = 0+1+...+99 = 4950; exit 0 if correct.
    Code.cmpi(Reg::R8, 4950);
    Label Ok = Code.newLabel();
    Code.beq(Ok);
    Code.movi(Reg::R0, 1);
    Code.ret();
    Code.bind(Ok);
    Code.movi(Reg::R0, 0);
    Code.ret();
  });
  RunReport R = runUnderCore(Img, &T, {});
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.ExitCode, 0) << R.ToolOutput;
  EXPECT_NE(R.ToolOutput.find("ERROR SUMMARY: 0 errors"), std::string::npos)
      << R.ToolOutput;
  const ShadowStats &St = T.shadow().stats();
  EXPECT_GE(St.FastLoads, 100u) << "probe loads did not take the fast path";
  EXPECT_GE(St.FastStores, 100u) << "probe stores did not take the fast path";
}

TEST(Memcheck, FastPathDoesNotSwallowUndefinedLoads) {
  // The probe must punt on partially/fully undefined words so the helper
  // still returns exact V-bits and the eventual use still errors.
  Memcheck T;
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    Code.addi(Reg::SP, Reg::SP, -16);
    Code.ld(Reg::R1, Reg::SP, 0); // aligned but undefined: probe punts
    Code.cmpi(Reg::R1, 0);
    Label L = Code.newLabel();
    Code.beq(L); // ERROR: branch on uninit
    Code.bind(L);
    Code.addi(Reg::SP, Reg::SP, 16);
    Code.movi(Reg::R0, 0);
    Code.ret();
  });
  RunReport R = runUnderCore(Img, &T, {});
  EXPECT_TRUE(R.Completed);
  EXPECT_NE(R.ToolOutput.find("Conditional jump or move"), std::string::npos)
      << R.ToolOutput;
  EXPECT_GE(T.shadow().stats().SlowLoads, 1u);
}

//===----------------------------------------------------------------------===//
// Error management
//===----------------------------------------------------------------------===//

TEST(Memcheck, RepeatedErrorsDeduplicated) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &) {
    Code.addi(Reg::SP, Reg::SP, -16);
    Code.movi(Reg::R6, 0);
    Label Loop = Code.boundLabel();
    Code.ld(Reg::R1, Reg::SP, 0);
    Code.cmpi(Reg::R1, 0); // same uninit branch, 50 times
    Label L = Code.newLabel();
    Code.beq(L);
    Code.bind(L);
    Code.addi(Reg::R6, Reg::R6, 1);
    Code.cmpi(Reg::R6, 50);
    Code.blt(Loop);
    Code.addi(Reg::SP, Reg::SP, 16);
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("ERROR SUMMARY: 50 errors from 1 contexts")) << M.Output;
}

TEST(Memcheck, SuppressionsSilenceErrors) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    Code.addi(Reg::SP, Reg::SP, -16);
    Code.ld(Reg::R1, Reg::SP, 0);
    Code.cmpi(Reg::R1, 0);
    Label L = Code.newLabel();
    Code.beq(L);
    Code.bind(L);
    Code.addi(Reg::SP, Reg::SP, 16);
    Code.movi(Reg::R0, 0);
    Code.ret();
  });
  McRun M = runMc(Img, {"--suppressions=UninitCondition"});
  EXPECT_TRUE(M.has("ERROR SUMMARY: 0 errors from 0 contexts (suppressed: 1)"))
      << M.Output;
}

TEST(Memcheck, CleanHeapProgramFullyClean) {
  // A real little program: build a linked list, walk it, free it.
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &Lib) {
    // list head in r6; nodes: [value][next]
    Code.movi(Reg::R6, 0);
    Code.movi(Reg::R7, 0); // i
    Label Build = Code.boundLabel();
    Code.movi(Reg::R1, 8);
    Code.call(Lib.Malloc);
    Code.st(Reg::R0, 0, Reg::R7); // value = i
    Code.st(Reg::R0, 4, Reg::R6); // next = head
    Code.mov(Reg::R6, Reg::R0);
    Code.addi(Reg::R7, Reg::R7, 1);
    Code.cmpi(Reg::R7, 20);
    Code.blt(Build);
    // sum values
    Code.movi(Reg::R8, 0);
    Code.mov(Reg::R2, Reg::R6);
    Label Walk = Code.boundLabel();
    Code.cmpi(Reg::R2, 0);
    Label DoneWalk = Code.newLabel();
    Code.beq(DoneWalk);
    Code.ld(Reg::R3, Reg::R2, 0);
    Code.add(Reg::R8, Reg::R8, Reg::R3);
    Code.ld(Reg::R2, Reg::R2, 4);
    Code.jmp(Walk);
    Code.bind(DoneWalk);
    // free all
    Label FreeLoop = Code.boundLabel();
    Code.cmpi(Reg::R6, 0);
    Label DoneFree = Code.newLabel();
    Code.beq(DoneFree);
    Code.ld(Reg::R7, Reg::R6, 4); // next
    Code.mov(Reg::R1, Reg::R6);
    Code.call(Lib.Free);
    Code.mov(Reg::R6, Reg::R7);
    Code.jmp(FreeLoop);
    Code.bind(DoneFree);
    Code.cmpi(Reg::R8, 190); // sum 0..19
    Label Ok = Code.newLabel();
    Code.beq(Ok);
    Code.movi(Reg::R0, 1);
    Code.ret();
    Code.bind(Ok);
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.R.Completed);
  EXPECT_EQ(M.R.ExitCode, 0);
  EXPECT_TRUE(M.has("ERROR SUMMARY: 0 errors")) << M.Output;
  EXPECT_TRUE(M.has("in use at exit: 0 bytes in 0 blocks")) << M.Output;
}

} // namespace
