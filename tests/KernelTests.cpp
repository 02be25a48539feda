//===-- tests/KernelTests.cpp - SimKernel and AddressSpace tests ----------==//
///
/// \file
/// Unit tests for the simulated-kernel substrate: the address-space
/// manager's segment algebra and placement policy, the virtual filesystem,
/// the memory syscalls' edge cases, and the virtual clock.
///
//===----------------------------------------------------------------------===//

#include "core/Events.h"
#include "core/Launcher.h"
#include "guest/Assembler.h"
#include "guest/RefInterp.h"
#include "kernel/SimKernel.h"
#include "support/FaultInject.h"

#include <gtest/gtest.h>

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

} // namespace
