//===-- tests/KernelTests.cpp - SimKernel and AddressSpace tests ----------==//
///
/// \file
/// Unit tests for the simulated-kernel substrate: the address-space
/// manager's segment algebra and placement policy, the virtual filesystem,
/// the memory syscalls' edge cases, and the virtual clock; plus two
/// goldens: every system call's events, results and output
/// (tests/goldens/syscalls.txt) and the sigmt fault-injection trace
/// (tests/goldens/sigmt_fault_trace.txt). Regenerate with
/// UPDATE_GOLDENS=1 ./tests/test_kernel only for an intended change.
///
//===----------------------------------------------------------------------===//

#include "GoldenFile.h"

#include "core/Events.h"
#include "core/Launcher.h"
#include "core/Tool.h"
#include "guest/Assembler.h"
#include "guest/RefInterp.h"
#include "kernel/SimKernel.h"
#include "support/FaultInject.h"
#include "tools/Memcheck.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

using namespace vg;
using namespace vg::vg1;

namespace {

//===----------------------------------------------------------------------===//
// AddressSpace
//===----------------------------------------------------------------------===//

TEST(AddressSpace, AddRejectsOverlap) {
  AddressSpace AS;
  EXPECT_TRUE(AS.add(0x10000, 0x4000, PermRW, SegKind::ClientData, "a"));
  EXPECT_FALSE(AS.add(0x12000, 0x1000, PermRW, SegKind::ClientData, "b"));
  EXPECT_TRUE(AS.add(0x14000, 0x1000, PermRW, SegKind::ClientData, "c"));
}

TEST(AddressSpace, ReleaseSplitsSegments) {
  AddressSpace AS;
  ASSERT_TRUE(AS.add(0x10000, 0x10000, PermRW, SegKind::ClientMmap, "m"));
  auto Removed = AS.release(0x14000, 0x4000);
  ASSERT_EQ(Removed.size(), 1u);
  EXPECT_EQ(Removed[0].first, 0x14000u);
  EXPECT_EQ(Removed[0].second, 0x18000u);
  // The hole is real: left and right survive.
  EXPECT_NE(AS.segmentAt(0x13000), nullptr);
  EXPECT_EQ(AS.segmentAt(0x15000), nullptr);
  EXPECT_NE(AS.segmentAt(0x19000), nullptr);
  // And the hole can be refilled.
  EXPECT_TRUE(AS.add(0x14000, 0x4000, PermRW, SegKind::ClientMmap, "again"));
}

TEST(AddressSpace, CoreRegionIsUntouchable) {
  AddressSpace AS;
  AS.reserveCoreRegion();
  EXPECT_FALSE(AS.add(AddressSpace::CoreBase + 0x1000, 0x1000, PermRW,
                      SegKind::ClientMmap, "evil"));
  auto Removed = AS.release(AddressSpace::CoreBase, AddressSpace::CoreSize);
  EXPECT_TRUE(Removed.empty());
  EXPECT_NE(AS.segmentAt(AddressSpace::CoreBase), nullptr);
}

TEST(AddressSpace, FindFreeSkipsSegmentsAndCoreRegion) {
  AddressSpace AS;
  AS.reserveCoreRegion();
  ASSERT_TRUE(AS.add(0x40000000, 0x10000, PermRW, SegKind::ClientMmap, "m"));
  uint32_t A = AS.findFree(0x1000, 0x40000000);
  EXPECT_GE(A, 0x40010000u);
  // A hint inside the core region lands after it.
  uint32_t B = AS.findFree(0x1000, AddressSpace::CoreBase + 0x100);
  EXPECT_GE(B, AddressSpace::CoreBase + AddressSpace::CoreSize);
}

TEST(AddressSpace, ResizeRespectsNeighbours) {
  AddressSpace AS;
  ASSERT_TRUE(AS.add(0x10000, 0x1000, PermRW, SegKind::ClientHeap, "brk"));
  ASSERT_TRUE(AS.add(0x20000, 0x1000, PermRW, SegKind::ClientData, "d"));
  EXPECT_TRUE(AS.resize(0x10000, 0x18000));
  EXPECT_FALSE(AS.resize(0x10000, 0x21000)); // would collide
  EXPECT_TRUE(AS.resize(0x10000, 0x11000));  // shrink back
}

//===----------------------------------------------------------------------===//
// SimKernel via the reference interpreter (no core involved)
//===----------------------------------------------------------------------===//

struct Machine {
  GuestMemory Mem;
  AddressSpace AS;
  SimKernel Kernel{AS, nullptr, nullptr};
  RefInterp Cpu{Mem, &Kernel};

  explicit Machine(Assembler &A) {
    AS.reserveCoreRegion();
    std::vector<uint8_t> Img = A.finalize();
    Mem.map(0x1000, static_cast<uint32_t>(Img.size()), PermRX);
    Mem.write(0x1000, Img.data(), static_cast<uint32_t>(Img.size()), true);
    Mem.map(0x8000, 0x1000, PermRW);
    AS.add(0x8000, 0x1000, PermRW, SegKind::ClientData, "data");
    AS.add(0x10000, 0x1000, PermRW, SegKind::ClientHeap, "brk");
    Mem.map(0x10000, 0x1000, PermRW);
    Mem.map(0x1F000, 0x1000, PermRW);
    Cpu.PC = 0x1000;
    Cpu.R[RegSP] = 0x20000;
  }
};

TEST(SimKernel, WriteToStdoutCaptured) {
  Assembler A(0x1000);
  A.movi(Reg::R2, 0x8000);
  A.movi(Reg::R3, 0x6F6C6C65); // "ello"
  A.st(Reg::R2, 0, Reg::R3);
  A.movi(Reg::R0, SysWrite);
  A.movi(Reg::R1, 1);
  A.movi(Reg::R3, 4);
  A.sys();
  A.hlt();
  Machine M(A);
  EXPECT_EQ(M.Cpu.run(100).Status, RunStatus::Halted);
  EXPECT_EQ(M.Kernel.stdoutText(), "ello");
  EXPECT_EQ(M.Cpu.R[0], 4u); // bytes written
}

TEST(SimKernel, FileRoundTripThroughVfs) {
  Assembler A(0x1000);
  Label Path = A.newLabel();
  // open("f", create) -> fd; write(fd, path, 1); close; open read; read.
  A.movi(Reg::R0, SysOpen);
  A.leai(Reg::R1, Path);
  A.movi(Reg::R2, 1);
  A.sys();
  A.mov(Reg::R6, Reg::R0);
  A.movi(Reg::R0, SysWrite);
  A.mov(Reg::R1, Reg::R6);
  A.leai(Reg::R2, Path);
  A.movi(Reg::R3, 1);
  A.sys();
  A.movi(Reg::R0, SysClose);
  A.mov(Reg::R1, Reg::R6);
  A.sys();
  A.movi(Reg::R0, SysOpen);
  A.leai(Reg::R1, Path);
  A.movi(Reg::R2, 0);
  A.sys();
  A.mov(Reg::R6, Reg::R0);
  A.movi(Reg::R0, SysFsize);
  A.mov(Reg::R1, Reg::R6);
  A.sys();
  A.mov(Reg::R7, Reg::R0); // size == 1
  A.hlt();
  A.bind(Path);
  A.emitString("f");
  Machine M(A);
  ASSERT_EQ(M.Cpu.run(100).Status, RunStatus::Halted);
  EXPECT_EQ(M.Cpu.R[7], 1u);
  ASSERT_NE(M.Kernel.file("f"), nullptr);
  EXPECT_EQ(M.Kernel.file("f")->size(), 1u);
}

TEST(SimKernel, OpenMissingFileFails) {
  Assembler A(0x1000);
  Label Path = A.newLabel();
  A.movi(Reg::R0, SysOpen);
  A.leai(Reg::R1, Path);
  A.movi(Reg::R2, 0); // read-only, does not exist
  A.sys();
  A.hlt();
  A.bind(Path);
  A.emitString("missing");
  Machine M(A);
  ASSERT_EQ(M.Cpu.run(100).Status, RunStatus::Halted);
  EXPECT_EQ(M.Cpu.R[0], SysErr);
}

/// A guest that makes one system call and exits with its r0, over 8 KiB
/// of data at 0x100000 that holds no NUL byte.
GuestImage oneCallImage(uint32_t No, uint32_t A1, uint32_t A2) {
  Assembler Code(0x1000);
  Code.movi(Reg::R0, No);
  Code.movi(Reg::R1, A1);
  Code.movi(Reg::R2, A2);
  Code.sys();
  Code.mov(Reg::R1, Reg::R0);
  Code.movi(Reg::R0, SysExit);
  Code.sys();
  Assembler Data(0x100000);
  std::string NoNul(8192, 'a');
  Data.emitBytes(NoNul.data(), NoNul.size());
  return GuestImageBuilder().addCode(Code).addData(Data).entry(0x1000).build();
}

// open(path, create) fails for a path that is unmapped, that runs off the
// end of its mapping before a NUL, or that has no NUL within 4,096 bytes,
// rather than creating a file named by whatever it could read.
TEST(SimKernel, OpenOfAnUnreadablePathFails) {
  for (uint32_t Path : {0x70000000u, 0x100000u + 8192 - 8, 0x100000u}) {
    GuestImage Img = oneCallImage(SysOpen, Path, 1);
    EXPECT_EQ(runNative(Img).ExitCode, -1) << std::hex << Path;
    Memcheck T;
    EXPECT_EQ(runUnderCore(Img, &T).ExitCode, -1) << std::hex << Path;
  }
}

// Only signals 1-63 have handlers: sigaction outside them fails under the
// core, as it does natively, rather than dropping the handler unseen.
TEST(SimKernel, SigactionOutsideSignalsOneToSixtyThreeFails) {
  for (uint32_t Sig : {0u, 64u, 99u}) {
    GuestImage Img = oneCallImage(SysSigaction, Sig, 0x1000);
    EXPECT_EQ(runNative(Img).ExitCode, -1) << Sig;
    Memcheck T;
    EXPECT_EQ(runUnderCore(Img, &T).ExitCode, -1) << Sig;
  }
}

TEST(SimKernel, BrkGrowAndShrink) {
  Assembler A(0x1000);
  A.movi(Reg::R0, SysBrk);
  A.movi(Reg::R1, 0);
  A.sys();
  A.mov(Reg::R6, Reg::R0); // current end
  A.addi(Reg::R1, Reg::R6, 0x3000);
  A.movi(Reg::R0, SysBrk);
  A.sys();
  A.mov(Reg::R7, Reg::R0); // new end
  // Touch the new memory.
  A.addi(Reg::R2, Reg::R6, 0x1000);
  A.movi(Reg::R3, 99);
  A.st(Reg::R2, 0, Reg::R3);
  A.ld(Reg::R8, Reg::R2, 0);
  // Shrink back.
  A.mov(Reg::R1, Reg::R6);
  A.movi(Reg::R0, SysBrk);
  A.sys();
  A.hlt();
  Machine M(A);
  ASSERT_EQ(M.Cpu.run(100).Status, RunStatus::Halted);
  EXPECT_EQ(M.Cpu.R[7], M.Cpu.R[6] + 0x3000);
  EXPECT_EQ(M.Cpu.R[8], 99u);
  // Shrunk memory is unmapped again.
  uint32_t V;
  EXPECT_TRUE(M.Mem.readU32(M.Cpu.R[6] + 0x1000, V).Faulted);
}

TEST(SimKernel, MmapPlacementAndFixedConflicts) {
  Assembler A(0x1000);
  // floating mmap
  A.movi(Reg::R0, SysMmap);
  A.movi(Reg::R1, 0);
  A.movi(Reg::R2, 4096);
  A.movi(Reg::R3, 3);
  A.movi(Reg::R4, 0);
  A.sys();
  A.mov(Reg::R6, Reg::R0);
  // fixed mmap over the same range must fail
  A.movi(Reg::R0, SysMmap);
  A.mov(Reg::R1, Reg::R6);
  A.movi(Reg::R2, 4096);
  A.movi(Reg::R3, 3);
  A.movi(Reg::R4, 1);
  A.sys();
  A.mov(Reg::R7, Reg::R0);
  A.hlt();
  Machine M(A);
  ASSERT_EQ(M.Cpu.run(100).Status, RunStatus::Halted);
  EXPECT_GE(M.Cpu.R[6], AddressSpace::MmapBase);
  EXPECT_EQ(M.Cpu.R[7], SysErr);
}

TEST(SimKernel, VirtualClockAdvancesMonotonically) {
  Assembler A(0x1000);
  A.movi(Reg::R0, SysGettimeofday);
  A.movi(Reg::R1, 0x8000);
  A.sys();
  A.movi(Reg::R0, SysNanosleep);
  A.movi(Reg::R1, 2'000'000); // 2 virtual seconds
  A.sys();
  A.movi(Reg::R0, SysGettimeofday);
  A.movi(Reg::R1, 0x8010);
  A.sys();
  A.hlt();
  Machine M(A);
  ASSERT_EQ(M.Cpu.run(100).Status, RunStatus::Halted);
  uint32_t S0, S1;
  ASSERT_FALSE(M.Mem.readU32(0x8000, S0).Faulted);
  ASSERT_FALSE(M.Mem.readU32(0x8010, S1).Faulted);
  EXPECT_EQ(S1, S0 + 2);
}

TEST(SimKernel, ThreadSyscallsFailWithoutHost) {
  Assembler A(0x1000);
  A.movi(Reg::R0, SysClone);
  A.movi(Reg::R1, 0x1000);
  A.movi(Reg::R2, 0x20000);
  A.sys();
  A.mov(Reg::R6, Reg::R0);
  A.movi(Reg::R0, SysKill);
  A.movi(Reg::R1, 0);
  A.movi(Reg::R2, 10);
  A.sys();
  A.mov(Reg::R7, Reg::R0);
  A.hlt();
  Machine M(A);
  ASSERT_EQ(M.Cpu.run(100).Status, RunStatus::Halted);
  EXPECT_EQ(M.Cpu.R[6], SysErr);
  EXPECT_EQ(M.Cpu.R[7], SysErr);
}

TEST(SimKernel, UnknownSyscallReturnsError) {
  Assembler A(0x1000);
  A.movi(Reg::R0, 9999);
  A.sys();
  A.hlt();
  Machine M(A);
  ASSERT_EQ(M.Cpu.run(100).Status, RunStatus::Halted);
  EXPECT_EQ(M.Cpu.R[0], SysErr);
}

//===----------------------------------------------------------------------===//
// mprotect's range checks, natively and under the core
//===----------------------------------------------------------------------===//

constexpr uint32_t ProtBase = 0x10000;

/// A guest at ProtBase that runs \p Body and exits with r0.
GuestImage exitWithR0After(const std::function<void(Assembler &)> &Body) {
  Assembler A(ProtBase);
  Body(A);
  A.mov(Reg::R1, Reg::R0);
  A.movi(Reg::R0, SysExit);
  A.sys();
  A.hlt();
  return GuestImageBuilder().addCode(A).entry(ProtBase).build();
}

void emitSyscall(Assembler &A, uint32_t No, std::vector<uint32_t> Args) {
  A.movi(Reg::R0, No);
  for (unsigned I = 0; I != Args.size(); ++I)
    A.movi(static_cast<Reg>(1 + I), Args[I]);
  A.sys();
}

/// Runs \p Img natively and under the core; both must exit with SysErr,
/// and under the core the sigreturn trampoline must still be executable.
void expectMprotectFails(const GuestImage &Img) {
  RunReport N = runNative(Img);
  EXPECT_TRUE(N.Completed);
  EXPECT_EQ(N.ExitCode, static_cast<int>(SysErr));
  Core C;
  C.output().useBuffer();
  C.applyOptions();
  C.loadImage(Img);
  CoreExit E = C.run();
  EXPECT_EQ(E.K, CoreExit::Kind::Exited);
  EXPECT_EQ(E.Code, static_cast<int>(SysErr));
  uint8_t Insn[4];
  EXPECT_FALSE(
      C.memory().fetch(AddressSpace::CoreBase, Insn, sizeof(Insn)).Faulted);
}

// A length that runs past 2^32 walked the page table past its end (at
// 0xFFFFFFFF bytes from a mapped page it killed the host).
TEST(SimKernel, MprotectRangeWrappingTheSpaceFails) {
  expectMprotectFails(exitWithR0After([](Assembler &A) {
    emitSyscall(A, SysMprotect, {ProtBase, 0xFFFFFFFFu, 3});
  }));
}

// A client mapping that ends where the core's region begins cannot lend
// its mprotect to the core's trampoline page.
TEST(SimKernel, MprotectCannotReachTheCoreRegion) {
  constexpr uint32_t Below = AddressSpace::CoreBase - 0x10000;
  expectMprotectFails(exitWithR0After([](Assembler &A) {
    emitSyscall(A, SysMmap, {Below, 0x10000, 3, /*fixed=*/1});
    A.mov(Reg::R6, Reg::R0);
    emitSyscall(A, SysMprotect, {Below, 0x11000, 3});
    // r0 + (r6 - Below): SysErr only if the mmap landed and mprotect failed.
    A.add(Reg::R0, Reg::R0, Reg::R6);
    A.movi(Reg::R6, Below);
    A.sub(Reg::R0, Reg::R0, Reg::R6);
  }));
}

//===----------------------------------------------------------------------===//
// write() over a buffer that runs off its mapping
//===----------------------------------------------------------------------===//

/// write(1, buf, \p Len) where buf is a 16-byte data segment, exiting
/// with r0: natively and under Memcheck the call fails and nothing reaches
/// stdout.
void expectOverhangingWriteFails(uint32_t Len) {
  constexpr uint32_t DataBase = 0x100000;
  Assembler Data(DataBase);
  Data.emitString("fifteen bytes..");
  GuestImage Img = exitWithR0After([&](Assembler &A) {
    emitSyscall(A, SysWrite, {1, DataBase, Len});
  });
  Img.Segments.push_back(GuestImageBuilder().addData(Data).build().Segments[0]);
  RunReport N = runNative(Img);
  EXPECT_TRUE(N.Completed);
  EXPECT_EQ(N.ExitCode, static_cast<int>(SysErr));
  EXPECT_EQ(N.Stdout, "");
  Memcheck T;
  RunReport M = runUnderCore(Img, &T);
  EXPECT_TRUE(M.Completed);
  EXPECT_EQ(M.ExitCode, static_cast<int>(SysErr));
  EXPECT_EQ(M.Stdout, "");
}

TEST(SimKernel, WriteOverhangingItsBufferFails) {
  expectOverhangingWriteFails(0x1000000);
}

// Unused where the sanitizer presets skip the test below.
[[noreturn, maybe_unused]] void writeFourGigabytesUnderACap() {
  rlimit Cap{1ull << 30, 1ull << 30};
  setrlimit(RLIMIT_AS, &Cap);
  expectOverhangingWriteFails(0xFFFFFFFFu);
  std::exit(::testing::Test::HasFailure() ? 1 : 0);
}

// The wrapper sized its copy from the guest's length before finding the
// buffer unmapped: at 0xFFFFFFFF it asked the host for 4 GB and died of
// std::bad_alloc under an address-space cap.
TEST(SimKernelDeathTest, WriteOfFourGigabytesFailsWithoutAllocating) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizers reserve far more address space than the cap";
#else
  EXPECT_EXIT(writeFourGigabytesUnderACap(), ::testing::ExitedWithCode(0),
              "");
#endif
}

//===----------------------------------------------------------------------===//
// Wrapper error paths under fault injection: events must describe exactly
// what the kernel touched — nothing for failed syscalls, the transferred
// length for partial ones.
//===----------------------------------------------------------------------===//

/// A Machine with an events recorder and a fault plan attached.
struct EventMachine {
  GuestMemory Mem;
  AddressSpace AS;
  EventHub Hub;
  FaultPlan Faults;
  SimKernel Kernel{AS, &Hub, nullptr};
  RefInterp Cpu{Mem, &Kernel};

  // Recorded event stream.
  std::vector<std::tuple<uint32_t, uint32_t>> PostMemWrites; ///< addr,len
  std::vector<std::tuple<uint32_t, uint32_t>> PostFileReads; ///< addr,len
  unsigned FaultEvents = 0;

  EventMachine(Assembler &A, const std::string &FaultSpec) {
    if (!FaultSpec.empty()) {
      std::string Err;
      if (!Faults.parse(FaultSpec, Err))
        ADD_FAILURE() << "bad fault spec: " << Err;
      Kernel.setFaultPlan(&Faults);
    }
    Hub.PostMemWrite = [this](int, uint32_t Addr, uint32_t Len) {
      PostMemWrites.push_back({Addr, Len});
    };
    Hub.PostFileRead = [this](int, uint32_t, uint32_t Addr, uint32_t Len,
                              const char *) {
      PostFileReads.push_back({Addr, Len});
    };
    Hub.FaultInjected = [this](int, uint32_t, uint32_t) { ++FaultEvents; };
    AS.reserveCoreRegion();
    std::vector<uint8_t> Img = A.finalize();
    Mem.map(0x1000, static_cast<uint32_t>(Img.size()), PermRX);
    Mem.write(0x1000, Img.data(), static_cast<uint32_t>(Img.size()), true);
    Mem.map(0x8000, 0x1000, PermRW);
    AS.add(0x8000, 0x1000, PermRW, SegKind::ClientData, "data");
    Cpu.PC = 0x1000;
    Cpu.R[RegSP] = 0x8F00;
  }
};

/// read(stdin, buf, 4) with every fallible syscall failing: the wrapper
/// must not announce writes to a buffer the kernel never touched.
TEST(FaultPaths, FailedSyscallFiresNoBufferEvents) {
  Assembler A(0x1000);
  A.movi(Reg::R0, SysRead);
  A.movi(Reg::R1, 0);
  A.movi(Reg::R2, 0x8000);
  A.movi(Reg::R3, 4);
  A.sys();
  A.hlt();
  EventMachine M(A, "syscall:1,seed=7");
  M.Kernel.provideStdin("abcd");
  ASSERT_EQ(M.Cpu.run(100).Status, RunStatus::Halted);
  EXPECT_EQ(M.Cpu.R[0], SysErr);
  EXPECT_EQ(M.FaultEvents, 1u);
  EXPECT_TRUE(M.PostMemWrites.empty());
  EXPECT_TRUE(M.PostFileReads.empty());
}

/// A short read must fire post_mem_write (and post_file_read) for exactly
/// the delivered length, not the requested one.
TEST(FaultPaths, ShortReadAnnouncesExactLength) {
  Assembler A(0x1000);
  A.movi(Reg::R0, SysRead);
  A.movi(Reg::R1, 0);
  A.movi(Reg::R2, 0x8000);
  A.movi(Reg::R3, 6);
  A.sys();
  A.hlt();
  EventMachine M(A, "shortio:1,seed=11");
  M.Kernel.provideStdin("abcdef");
  ASSERT_EQ(M.Cpu.run(100).Status, RunStatus::Halted);
  uint32_t N = M.Cpu.R[0];
  ASSERT_GE(N, 1u);
  ASSERT_LT(N, 6u); // rate-1 plan always truncates
  ASSERT_EQ(M.PostMemWrites.size(), 1u);
  EXPECT_EQ(M.PostMemWrites[0], std::make_tuple(0x8000u, N));
  ASSERT_EQ(M.PostFileReads.size(), 1u);
  EXPECT_EQ(M.PostFileReads[0], std::make_tuple(0x8000u, N));
}

/// A short write consumes — and reports — only the transferred prefix.
TEST(FaultPaths, ShortWriteConsumesExactLength) {
  Assembler A(0x1000);
  A.movi(Reg::R2, 0x8000);
  A.movi(Reg::R3, 0x64636261); // "abcd"
  A.st(Reg::R2, 0, Reg::R3);
  A.movi(Reg::R0, SysWrite);
  A.movi(Reg::R1, 1);
  A.movi(Reg::R3, 4);
  A.sys();
  A.hlt();
  EventMachine M(A, "shortio:1,seed=3");
  ASSERT_EQ(M.Cpu.run(100).Status, RunStatus::Halted);
  uint32_t N = M.Cpu.R[0];
  ASSERT_GE(N, 1u);
  ASSERT_LT(N, 4u);
  EXPECT_EQ(M.Kernel.stdoutText(), std::string("abcd").substr(0, N));
}

/// A zero-byte (EOF) read returns 0 and fires no events at all.
TEST(FaultPaths, ZeroByteReadFiresNoEvents) {
  Assembler A(0x1000);
  A.movi(Reg::R0, SysRead);
  A.movi(Reg::R1, 0);
  A.movi(Reg::R2, 0x8000);
  A.movi(Reg::R3, 4);
  A.sys();
  A.hlt();
  EventMachine M(A, ""); // no faults: plain EOF semantics
  ASSERT_EQ(M.Cpu.run(100).Status, RunStatus::Halted);
  EXPECT_EQ(M.Cpu.R[0], 0u);
  EXPECT_TRUE(M.PostMemWrites.empty());
  EXPECT_TRUE(M.PostFileReads.empty());
}

/// gettimeofday whose usec word faults announces only the seconds word
/// that actually landed.
TEST(FaultPaths, GettimeofdayPartialWriteAnnouncesPrefix) {
  Assembler A(0x1000);
  A.movi(Reg::R0, SysGettimeofday);
  A.movi(Reg::R1, 0x8FFC); // tv straddles the end of the data page
  A.sys();
  A.hlt();
  EventMachine M(A, "");
  ASSERT_EQ(M.Cpu.run(100).Status, RunStatus::Halted);
  EXPECT_EQ(M.Cpu.R[0], SysErr);
  ASSERT_EQ(M.PostMemWrites.size(), 1u);
  EXPECT_EQ(M.PostMemWrites[0], std::make_tuple(0x8FFCu, 4u));
}

//===----------------------------------------------------------------------===//
// Every system call's events, results and output, pinned
//===----------------------------------------------------------------------===//

/// Writes one line per EventHub callback, with every argument and, where
/// the event carries one, the syscall name string.
class EventLog : public Tool {
public:
  const char *name() const override { return "eventlog"; }
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

/// The programs' layout: code, one data page, and an address nothing maps.
constexpr uint32_t SysCodeBase = 0x10000;
constexpr uint32_t SysData = 0x100000;
constexpr uint32_t SysHello = SysData;          // "hello, syscalls\n"
constexpr uint32_t SysPath = SysData + 0x18;    // "f"
constexpr uint32_t SysMissing = SysData + 0x20; // "nope"
constexpr uint32_t SysTv = SysData + 0x28;      // 8 bytes
constexpr uint32_t SysFlag = SysData + 0x30;    // set by the clone child
constexpr uint32_t SysBuf = SysData + 0x40;     // 0x40 bytes
constexpr uint32_t SysResults = SysData + 0x100; // r0 after each call
constexpr uint32_t SysMaxCalls = 0x100;
constexpr uint32_t SysThreadSP = SysData + 0xF00;
constexpr uint32_t SysDataLen = 0x1000;
constexpr uint32_t SysUnmapped = 0x70000000;

/// An argument: an immediate, or a register set by an earlier call.
struct SysArg {
  SysArg(uint32_t Imm) : Imm(Imm) {}
  SysArg(Reg R) : IsReg(true), R(R) {}
  bool IsReg = false;
  uint32_t Imm = 0;
  Reg R = Reg::R0;
};

/// A guest that issues system calls one after another, stores r0 after
/// each in SysResults, folds it into r12 (FNV-1a), and ends with
/// exit(r12) (or exit_thread(r12)), so a native run's exit code covers
/// every result too.
struct SysProgram {
  Assembler Code{SysCodeBase};
  unsigned Calls = 0;
  uint32_t ExitNo = SysExit;

  SysProgram() {
    Code.movi(Reg::R12, 0x811C9DC5);
    Code.movi(Reg::R13, SysResults);
  }

  void call(uint32_t No, std::vector<SysArg> Args = {}) {
    for (unsigned I = 0; I != Args.size(); ++I) {
      Reg Dst = static_cast<Reg>(1 + I);
      if (Args[I].IsReg)
        Code.mov(Dst, Args[I].R);
      else
        Code.movi(Dst, Args[I].Imm);
    }
    Code.movi(Reg::R0, No);
    Code.sys();
    Code.st(Reg::R13, static_cast<int16_t>(4 * Calls++), Reg::R0);
    Code.xor_(Reg::R12, Reg::R12, Reg::R0);
    Code.movi(Reg::R11, 16777619);
    Code.mul(Reg::R12, Reg::R12, Reg::R11);
  }
  /// Keeps r0 of the last call in \p R.
  void keep(Reg R) {
    Code.ld(R, Reg::R13, static_cast<int16_t>(4 * (Calls - 1)));
  }

  GuestImage build() {
    Code.mov(Reg::R1, Reg::R12);
    Code.movi(Reg::R0, ExitNo);
    Code.sys();
    Code.hlt();
    Assembler Data(SysData);
    Data.emitString("hello, syscalls\n");
    Data.emitZeros(SysPath - Data.here());
    Data.emitString("f");
    Data.emitZeros(SysMissing - Data.here());
    Data.emitString("nope");
    Data.emitZeros(SysData + SysDataLen - Data.here());
    return GuestImageBuilder()
        .addCode(Code)
        .addData(Data)
        .entry(SysCodeBase)
        .build();
  }
};

/// Files: write, read, open, close and fsize, each valid and with every
/// input its wrapper rejects.
void filesProgram(SysProgram &P) {
  P.call(SysWrite, {1, SysHello, 16});
  P.call(SysWrite, {2, SysHello, 5});
  P.call(SysWrite, {9, SysHello, 4});            // closed fd
  P.call(SysWrite, {0, SysHello, 4});            // stdin is not writable
  P.call(SysWrite, {1, SysUnmapped, 16});        // unmapped buffer
  P.call(SysWrite, {1, SysHello, 0});            // zero length
  P.call(SysWrite, {1, SysData + 0xFF0, 0x100000}); // runs off the page
  P.call(SysWrite, {1, 0xFFFFFFF0u, 0x20});      // wraps past 2^32
  P.call(SysOpen, {SysPath, 1});                 // create
  P.keep(Reg::R6);
  P.call(SysWrite, {Reg::R6, SysHello, 16});
  P.call(SysFsize, {Reg::R6});
  P.call(SysClose, {Reg::R6});
  P.call(SysClose, {Reg::R6}); // already closed
  P.call(SysClose, {1});       // the standard fds stay open
  P.call(SysClose, {99});      // out of range
  P.call(SysOpen, {SysPath, 0}); // read-only, exists
  P.keep(Reg::R7);
  P.call(SysWrite, {Reg::R7, SysHello, 4}); // not writable
  P.call(SysRead, {Reg::R7, SysBuf, 8});
  P.call(SysRead, {Reg::R7, SysBuf, 0x40}); // the rest
  P.call(SysRead, {Reg::R7, SysBuf, 4});    // EOF
  P.call(SysFsize, {1});                    // not a file
  P.call(SysFsize, {99});
  P.call(SysRead, {0, SysBuf, 4});          // stdin
  P.call(SysRead, {0, SysBuf, 0});          // zero length
  P.call(SysRead, {1, SysBuf, 4});          // stdout is not readable
  P.call(SysRead, {99, SysBuf, 4});         // closed fd
  P.call(SysRead, {0, SysUnmapped, 2});     // unmapped buffer
  P.call(SysOpen, {SysMissing, 0});         // ENOENT
  P.call(SysOpen, {SysUnmapped, 0});        // unmapped path
  P.call(SysClose, {Reg::R7});
}

/// Memory: brk, mmap, munmap, mremap and mprotect.
void memoryProgram(SysProgram &P) {
  P.call(SysBrk, {0}); // query
  P.keep(Reg::R6);
  P.Code.addi(Reg::R8, Reg::R6, 0x2000);
  P.call(SysBrk, {Reg::R8});              // grow
  P.call(SysBrk, {Reg::R8});              // no change
  P.call(SysBrk, {Reg::R6});              // shrink
  P.call(SysBrk, {ClientStackTop - 0x1000}); // collides with the stack
  P.call(SysMmap, {0, 0x2000, 3, 0});
  P.keep(Reg::R7);
  P.call(SysMmap, {0, 0, 3, 0});                         // zero length
  P.call(SysMmap, {0, 0x1000, 3, 1});                    // fixed at 0
  P.call(SysMmap, {AddressSpace::CoreBase, 0x1000, 3, 1}); // core region
  P.call(SysMmap, {Reg::R7, 0x1000, 3, 1});              // taken
  P.call(SysMmap, {0x60000000, 0x1000, 0, 1});           // fixed, prot 0
  P.call(SysMmap, {0x50000000, 0x1000, 1, 0});           // hinted
  P.call(SysMprotect, {Reg::R7, 0x1000, 1});
  P.call(SysMprotect, {SysUnmapped, 0x1000, 3});             // unmapped
  P.call(SysMprotect, {AddressSpace::CoreBase, 0x1000, 7});  // core region
  P.call(SysMprotect, {Reg::R7, 0xFFFFFFFFu, 3});            // wraps
  P.call(SysMremap, {Reg::R7, 0x2000, 0x1000}); // shrink in place
  P.call(SysMremap, {Reg::R7, 0x1000, 0x3000}); // grow: moves
  P.keep(Reg::R8);
  P.Code.addi(Reg::R9, Reg::R8, 0x1000);
  P.call(SysMremap, {Reg::R9, 0x1000, 0x2000}); // not a segment start
  P.call(SysMremap, {Reg::R8, 0, 0x1000});      // zero old length
  P.call(SysMremap, {Reg::R8, 0x1000, 0});      // zero new length
  P.call(SysMremap, {SysUnmapped, 0x1000, 0x2000});
  P.call(SysMmap, {0x68000000, 0x1000, 3, 1});
  P.call(SysMremap, {0x68000000, 0x3000, 0x4000}); // old range unreadable
  P.call(SysMunmap, {Reg::R8, 0x3000});
  P.call(SysMunmap, {Reg::R8, 0x3000}); // nothing left to unmap
  P.call(SysMunmap, {0x60000000, 0});   // zero length
  P.call(SysMunmap, {0x60000000, 0x1000});
}

/// Time and process: gettimeofday, settimeofday, time, nanosleep, yield,
/// getpid, and the unassigned numbers 0 and 23.
void timeProgram(SysProgram &P) {
  P.call(SysGettimeofday, {SysTv});
  P.call(SysGettimeofday, {SysUnmapped});
  P.call(SysGettimeofday, {SysData + SysDataLen - 4}); // usec word faults
  P.call(SysSettimeofday, {SysTv});
  P.call(SysSettimeofday, {SysUnmapped});
  P.call(SysTime);
  P.call(SysGetpid);
  P.call(SysNanosleep, {2'000'000});
  P.call(SysNanosleep, {0});
  P.call(SysYield);
  P.call(SysTime);
  P.call(0);
  P.call(23);
}

/// Signals: sigaction, kill (self, bad thread, bad numbers), the handler's
/// sigreturn through the trampoline, and a stray sigreturn.
void signalsProgram(SysProgram &P) {
  Label Handler = P.Code.newLabel(), Over = P.Code.newLabel();
  P.Code.jmp(Over);
  P.Code.bind(Handler);
  P.Code.ret(); // to the core's trampoline: sigreturn
  P.Code.bind(Over);
  P.Code.leai(Reg::R6, Handler);
  P.call(SysSigaction, {10, Reg::R6});
  P.call(SysSigaction, {10, Reg::R6}); // returns the handler just set
  P.call(SysSigaction, {99, Reg::R6}); // out of range: fails
  P.call(SysKill, {0, 10});
  P.call(SysGetpid); // the handler runs before this block
  P.call(SysKill, {5, 10}); // no such thread
  P.call(SysKill, {0, 0});
  P.call(SysKill, {0, 64});
  P.call(SysSigreturn); // no frame to return to
}

/// Threads: clone a child that sets a flag and leaves with exit_thread;
/// the parent yields until the flag is set (skipped where clone fails).
void threadsProgram(SysProgram &P) {
  Label Child = P.Code.newLabel(), Over = P.Code.newLabel();
  P.Code.jmp(Over);
  P.Code.bind(Child);
  P.Code.movi(Reg::R2, SysFlag);
  P.Code.movi(Reg::R3, 1);
  P.Code.st(Reg::R2, 0, Reg::R3);
  P.Code.movi(Reg::R0, SysExitThread);
  P.Code.movi(Reg::R1, 7);
  P.Code.sys();
  P.Code.hlt();
  P.Code.bind(Over);
  P.Code.leai(Reg::R6, Child);
  P.call(SysClone, {Reg::R6, SysThreadSP, 42});
  Label Done = P.Code.newLabel(), Wait = P.Code.newLabel();
  P.Code.movi(Reg::R11, SysErr);
  P.Code.cmp(Reg::R0, Reg::R11);
  P.Code.beq(Done);
  P.Code.bind(Wait);
  P.Code.movi(Reg::R0, SysYield);
  P.Code.sys();
  P.Code.movi(Reg::R2, SysFlag);
  P.Code.ld(Reg::R3, Reg::R2, 0);
  P.Code.cmpi(Reg::R3, 0);
  P.Code.beq(Wait);
  P.Code.bind(Done);
}

/// The main thread leaves through exit_thread.
void exitThreadProgram(SysProgram &P) {
  P.call(SysGetpid);
  P.ExitNo = SysExitThread;
}

std::string escaped(const std::string &S) {
  std::string Out;
  char Buf[8];
  for (unsigned char Ch : S) {
    if (Ch >= 0x20 && Ch < 0x7F && Ch != '\\') {
      Out += static_cast<char>(Ch);
    } else {
      std::snprintf(Buf, sizeof(Buf), "\\x%02x", Ch);
      Out += Buf;
    }
  }
  return Out;
}

constexpr const char *SysStdinText = "abcdef";

/// One program under the core with the event log (and \p Opts), then
/// every call's r0, the exit and both output streams.
std::string underCore(const GuestImage &Img, unsigned Calls,
                      const std::vector<std::string> &Opts) {
  EventLog T;
  Core C(&T);
  C.output().useBuffer();
  EXPECT_TRUE(C.options().parse(Opts).empty());
  C.applyOptions();
  C.kernel().provideStdin(SysStdinText);
  C.loadImage(Img);
  CoreExit E = C.run(100000);
  std::string Out = T.Log;
  char Buf[96];
  for (unsigned I = 0; I != Calls; ++I) {
    uint32_t R0 = 0;
    C.memory().readU32(SysResults + 4 * I, R0);
    std::snprintf(Buf, sizeof(Buf), "r0[%u] 0x%x\n", I, R0);
    Out += Buf;
  }
  std::snprintf(Buf, sizeof(Buf), "exit kind=%d code=%d signal=%d\n",
                static_cast<int>(E.K), E.Code, E.Signal);
  Out += Buf;
  Out += "stdout \"" + escaped(C.kernel().stdoutText()) + "\"\n";
  Out += "stderr \"" + escaped(C.kernel().stderrText()) + "\"\n";
  Out += "tool \"" + escaped(C.output().takeBuffer()) + "\"\n";
  return Out;
}

// Each program three ways: under the core, under the core with every
// fallible call failing (its fault shows, and it reads no argument), and
// natively.
TEST(SyscallGolden, EveryCallsEventsAndResults) {
  struct Prog {
    const char *Name;
    void (*Emit)(SysProgram &);
  };
  const Prog Progs[] = {
      {"files", filesProgram},     {"memory", memoryProgram},
      {"time", timeProgram},       {"signals", signalsProgram},
      {"threads", threadsProgram}, {"exit_thread", exitThreadProgram},
  };
  std::string Out;
  for (const Prog &Pr : Progs) {
    SysProgram P;
    Pr.Emit(P);
    GuestImage Img = P.build();
    RunReport N = runNative(Img, SysStdinText);
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf),
                  "== %s native completed=%d exit=%d syscalls=%llu\n",
                  Pr.Name, N.Completed, N.ExitCode,
                  static_cast<unsigned long long>(N.Syscalls));
    Out += Buf;
    Out += "stdout \"" + escaped(N.Stdout) + "\"\n";
    Out += "stderr \"" + escaped(N.Stderr) + "\"\n";
    Out += std::string("== ") + Pr.Name + " core\n";
    Out += underCore(Img, P.Calls, {});
    Out += std::string("== ") + Pr.Name + " core --fault-inject=syscall:1\n";
    Out += underCore(Img, P.Calls, {"--fault-inject=syscall:1,seed=1"});
  }
  checkGolden("syscalls", Out);
}

// Memcheck on sigmt with every fault kind injected, traced and dumped:
// the run earlier changes compared against their parent by hand. The
// trace's timestamps count blocks, so a change to block formation
// regenerates this on purpose.
TEST(SyscallGolden, SigmtFaultInjectionTrace) {
  Memcheck T;
  RunReport R = runUnderCore(
      buildWorkload("sigmt", 1), &T,
      {"--fault-inject=all,seed=17", "--trace-events=yes", "--trace-dump=yes"});
  checkGolden("sigmt_fault_trace",
              R.ToolOutput + "stdout \"" + escaped(R.Stdout) + "\"\n");
}

} // namespace
