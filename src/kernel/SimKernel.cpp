//===-- kernel/SimKernel.cpp - The simulated kernel -----------------------==//

#include "kernel/SimKernel.h"

#include "guest/GuestArch.h"
#include "guest/GuestMemory.h"

using namespace vg;
using namespace vg::vg1;

// A wrapper's head, naming what it is given: the caller's CPU, its thread
// and its arguments A[0..] (r1..).
#define VG_SYSCALL(Name)                                                       \
  SimKernel::SysResult SimKernel::sys##Name(CpuView &Cpu, int Tid,             \
                                            const uint32_t *A)

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

void SimKernel::faultInjected(int Tid, FaultKind K, uint32_t Arg) {
  fire<&EventHub::FaultInjected>(Tid, static_cast<uint32_t>(K), Arg);
}

bool SimKernel::readGuestString(CpuView &Cpu, uint32_t Addr, std::string &S) {
  for (uint32_t I = 0; I != 4096; ++I) {
    uint8_t B;
    if (Cpu.mem().read(Addr + I, &B, 1, /*IgnorePerms=*/true).Faulted)
      return false;
    if (B == 0)
      return true;
    S.push_back(static_cast<char>(B));
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Dispatch
//===----------------------------------------------------------------------===//

SimKernel::Action SimKernel::onSyscall(CpuView &Cpu) {
  ++NumSyscalls;
  ClockUsec += 5; // syscalls take time on the virtual clock
  int Tid = Cpu.threadId();
  fire<&EventHub::PreRegRead>(Tid, gso::gpr(0), 4u, "syscall");
  uint32_t Num = Cpu.readReg(0);
  fire<&EventHub::PreSyscall>(Tid, Num);
  const SyscallDesc *D = Num < SyscallTable.size() && SyscallTable[Num].Name
                             ? &SyscallTable[Num]
                             : nullptr;
  SysResult Result = SysErr; // ENOSYS

  // Injected failure: the call errors before its wrapper runs, so no
  // argument reads happen and no post_mem_write/post_reg_write can fire
  // for work that was never done (only the result register is written).
  if (Faults && D && D->Fallible && Faults->roll(FaultKind::Syscall)) {
    faultInjected(Tid, FaultKind::Syscall, Num);
  } else if (D) {
    uint32_t A[MaxSyscallArgs] = {};
    for (unsigned I = 0; I != MaxSyscallArgs && D->Args[I]; ++I) {
      fire<&EventHub::PreRegRead>(Tid, gso::gpr(1 + I), 4u, D->Args[I]);
      A[I] = Cpu.readReg(1 + I);
    }
    switch (Num) {
#define VG_SYS_CASE(Name, ...)                                                 \
  case Sys##Name:                                                              \
    Result = sys##Name(Cpu, Tid, A);                                           \
    break;
      VG_SYSCALLS(VG_SYS_CASE)
#undef VG_SYS_CASE
    }
  }

  if (Result.K == SysResult::ProcessExit)
    return Action::Exit;
  if (Result.K == SysResult::Value) {
    Cpu.writeReg(0, Result.R);
    fire<&EventHub::PostRegWrite>(Tid, gso::gpr(0), 4u);
    fire<&EventHub::PostSyscall>(Tid, Num, Result.R);
  }
  return Action::Continue;
}

bool SimKernel::release(CpuView &Cpu, uint32_t Addr, uint32_t Len,
                        bool Announce) {
  auto Removed = AS.release(Addr, Len);
  for (auto [Lo, Hi] : Removed) {
    Cpu.mem().unmap(Lo, Hi - Lo);
    if (Announce)
      fire<&EventHub::DieMemMunmap>(Lo, Hi - Lo);
  }
  return !Removed.empty();
}

//===----------------------------------------------------------------------===//
// Process and scheduling syscalls
//===----------------------------------------------------------------------===//

VG_SYSCALL(Exit) {
  TheExitCode = static_cast<int>(A[0]);
  return SysResult::ProcessExit;
}

VG_SYSCALL(ExitThread) {
  if (Host) {
    Host->exitThread(Tid, static_cast<int>(A[0]));
    return SysResult::NoResult;
  }
  // Single-threaded native runs: thread exit is process exit.
  TheExitCode = static_cast<int>(A[0]);
  return SysResult::ProcessExit;
}

VG_SYSCALL(Getpid) {
  return static_cast<uint32_t>(NextPid);
}

VG_SYSCALL(Yield) {
  if (Faults && Faults->roll(FaultKind::Wakeup)) {
    // Spurious return: the caller resumes without the scheduler having
    // been asked to switch away.
    faultInjected(Tid, FaultKind::Wakeup, 0);
  } else if (Host) {
    Host->requestYield(Tid);
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// File syscalls
//===----------------------------------------------------------------------===//

VG_SYSCALL(Write) {
  uint32_t Fd = A[0], Buf = A[1], Len = A[2];
  if (Fd >= Fds.size() || !Fds[Fd].Open)
    return SysErr;
  fire<&EventHub::PreMemRead>(Tid, Buf, Len, SyscallTable[SysWrite].Args[1]);
  // Short write: the kernel consumes only the first N bytes. The pre event
  // still covers the whole buffer (the client asked for all of it to be
  // readable), exactly as real wrappers do.
  uint32_t N = Len;
  if (Faults && Len > 1 && Faults->roll(FaultKind::ShortIO)) {
    N = 1 + Faults->pick(Len - 1);
    faultInjected(Tid, FaultKind::ShortIO, N);
  }
  // EFAULT before the copy is sized: a length the guest chose becomes a
  // host allocation only once every page it covers is known to be mapped.
  uint64_t End = uint64_t{Buf} + N;
  if (End > (1ull << 32))
    return SysErr;
  for (uint64_t P = Buf; P < End;
       P = AddressSpace::pageDown(static_cast<uint32_t>(P)) +
           uint64_t{AddressSpace::PageSize})
    if (!Cpu.mem().isMapped(static_cast<uint32_t>(P)))
      return SysErr;
  std::vector<uint8_t> Data(N);
  Cpu.mem().read(Buf, Data.data(), N, /*IgnorePerms=*/true);
  OpenFd &F = Fds[Fd];
  switch (F.Kind) {
  case FdKind::Stdout:
    StdoutBuf.append(Data.begin(), Data.end());
    return N;
  case FdKind::Stderr:
    StderrBuf.append(Data.begin(), Data.end());
    return N;
  case FdKind::File: {
    if (!F.Writable)
      return SysErr;
    auto &Bytes = Files[F.Name];
    if (Bytes.size() < F.Pos + N)
      Bytes.resize(F.Pos + N);
    std::copy(Data.begin(), Data.end(), Bytes.begin() + F.Pos);
    F.Pos += N;
    return N;
  }
  default:
    return SysErr;
  }
}

VG_SYSCALL(Read) {
  uint32_t Fd = A[0], Buf = A[1], Len = A[2];
  if (Fd >= Fds.size() || !Fds[Fd].Open)
    return SysErr;
  fire<&EventHub::PreMemWrite>(Tid, Buf, Len, SyscallTable[SysRead].Args[1]);
  const uint8_t *Src = nullptr;
  uint32_t Avail = 0;
  OpenFd &F = Fds[Fd];
  if (F.Kind == FdKind::Stdin) {
    Src = StdinBuf.data() + StdinPos;
    Avail = static_cast<uint32_t>(StdinBuf.size() - StdinPos);
  } else if (F.Kind == FdKind::File) {
    auto &Bytes = Files[F.Name];
    Src = Bytes.data() + std::min<size_t>(F.Pos, Bytes.size());
    Avail = F.Pos < Bytes.size()
                ? static_cast<uint32_t>(Bytes.size() - F.Pos)
                : 0;
  } else {
    return SysErr;
  }
  uint32_t N = std::min(Len, Avail);
  // Short read: deliver only the first N' bytes of what is available.
  if (Faults && N > 1 && Faults->roll(FaultKind::ShortIO)) {
    N = 1 + Faults->pick(N - 1);
    faultInjected(Tid, FaultKind::ShortIO, N);
  }
  if (N &&
      Cpu.mem().write(Buf, Src, N, /*IgnorePerms=*/true).Faulted)
    return SysErr;
  if (F.Kind == FdKind::Stdin)
    StdinPos += N;
  else
    F.Pos += N;
  // post_mem_write covers exactly the transferred length — and therefore
  // does not fire at all for a zero-byte (EOF) read.
  if (N) {
    fire<&EventHub::PostMemWrite>(Tid, Buf, N);
    fire<&EventHub::PostFileRead>(Tid, Fd, Buf, N,
                           F.Kind == FdKind::Stdin ? "<stdin>"
                                                   : F.Name.c_str());
  }
  return N;
}

VG_SYSCALL(Open) {
  uint32_t Path = A[0], Flags = A[1];
  fire<&EventHub::PreMemReadAsciiz>(Tid, Path, SyscallTable[SysOpen].Args[0]);
  std::string Name;
  if (!readGuestString(Cpu, Path, Name))
    return SysErr; // EFAULT, or ENAMETOOLONG
  bool Write = Flags & 1;
  if (!Write && !Files.count(Name))
    return SysErr; // ENOENT
  if (Write && !Files.count(Name))
    Files[Name] = {};
  OpenFd F{FdKind::File, Name, 0, true};
  F.Writable = Write;
  for (size_t I = 3; I != Fds.size(); ++I) {
    if (!Fds[I].Open) {
      Fds[I] = F;
      return static_cast<uint32_t>(I);
    }
  }
  Fds.push_back(F);
  return static_cast<uint32_t>(Fds.size() - 1);
}

VG_SYSCALL(Close) {
  uint32_t Fd = A[0];
  if (Fd >= Fds.size() || !Fds[Fd].Open || Fd < 3)
    return SysErr;
  Fds[Fd] = OpenFd{};
  return 0;
}

VG_SYSCALL(Fsize) {
  uint32_t Fd = A[0];
  if (Fd >= Fds.size() || Fds[Fd].Kind != FdKind::File)
    return SysErr;
  return static_cast<uint32_t>(Files[Fds[Fd].Name].size());
}

//===----------------------------------------------------------------------===//
// Memory syscalls (R6 events)
//===----------------------------------------------------------------------===//

VG_SYSCALL(Brk) {
  uint32_t NewEnd = A[0];
  const Segment *Heap = AS.segmentByKind(SegKind::ClientHeap);
  if (!Heap)
    return SysErr;
  uint32_t OldEnd = Heap->End;
  if (NewEnd == 0)
    return OldEnd; // query
  NewEnd = AddressSpace::pageUp(NewEnd);
  if (NewEnd == OldEnd)
    return OldEnd;
  // Injected exhaustion only applies to actual resizes, never queries.
  if (Faults && Faults->roll(FaultKind::MemPressure)) {
    faultInjected(Tid, FaultKind::MemPressure, NewEnd);
    return SysErr;
  }
  if (!AS.resize(Heap->Start, NewEnd))
    return SysErr;
  if (NewEnd > OldEnd) {
    Cpu.mem().map(OldEnd, NewEnd - OldEnd, PermRW);
    fire<&EventHub::NewMemBrk>(OldEnd, NewEnd - OldEnd);
  } else {
    Cpu.mem().unmap(NewEnd, OldEnd - NewEnd);
    fire<&EventHub::DieMemBrk>(NewEnd, OldEnd - NewEnd);
  }
  return NewEnd;
}

VG_SYSCALL(Mmap) {
  uint32_t Addr = A[0], Len = A[1], Prot = A[2], Flags = A[3];
  if (Len == 0)
    return SysErr;
  Len = AddressSpace::pageUp(Len);
  if (Faults && Faults->roll(FaultKind::MemPressure)) {
    faultInjected(Tid, FaultKind::MemPressure, Len);
    return SysErr;
  }
  bool Fixed = Flags & 1;
  if (Fixed) {
    // Pre-check: never allow the client to take the core's region
    // (Section 3.10's conflict avoidance).
    if (Addr == 0 || AS.anyOverlap(Addr, Len))
      return SysErr;
  } else {
    Addr = AS.findFree(Len, Addr ? Addr : AddressSpace::MmapBase);
    if (Addr == 0)
      return SysErr;
  }
  uint8_t Perms = static_cast<uint8_t>(Prot ? Prot : static_cast<uint32_t>(PermRW));
  if (!AS.add(Addr, Len, Perms, SegKind::ClientMmap, "mmap"))
    return SysErr;
  Cpu.mem().map(Addr, Len, Perms);
  fire<&EventHub::NewMemMmap>(Addr, Len, Perms);
  return Addr;
}

VG_SYSCALL(Munmap) {
  uint32_t Addr = A[0], Len = A[1];
  if (Len == 0)
    return SysErr;
  return release(Cpu, Addr, Len, /*Announce=*/true) ? 0 : SysErr;
}

VG_SYSCALL(Mremap) {
  uint32_t Old = A[0];
  uint32_t OldLen = AddressSpace::pageUp(A[1]);
  uint32_t NewLen = AddressSpace::pageUp(A[2]);
  const Segment *S = AS.segmentAt(Old);
  if (!S || S->Start != Old || OldLen == 0 || NewLen == 0)
    return SysErr;
  if (Faults && Faults->roll(FaultKind::MemPressure)) {
    faultInjected(Tid, FaultKind::MemPressure, NewLen);
    return SysErr;
  }
  uint8_t Perms = S->Perms;

  if (NewLen <= OldLen) {
    // Shrink in place.
    release(Cpu, Old + NewLen, OldLen - NewLen, /*Announce=*/true);
    return Old;
  }
  // Grow: move to a fresh range, copying contents (and firing
  // copy_mem_mremap so tools can move shadow memory too).
  uint32_t NewAddr = AS.findFree(NewLen);
  if (NewAddr == 0)
    return SysErr;
  if (!AS.add(NewAddr, NewLen, Perms, SegKind::ClientMmap, "mremap"))
    return SysErr;
  Cpu.mem().map(NewAddr, NewLen, Perms);
  std::vector<uint8_t> Tmp(OldLen);
  if (Cpu.mem().read(Old, Tmp.data(), OldLen, true).Faulted ||
      Cpu.mem().write(NewAddr, Tmp.data(), OldLen, true).Faulted) {
    // Back out the new range. It was never announced (no new_mem_mmap
    // fired), so it must not stay mapped — and its removal needs no
    // die_mem_munmap either.
    release(Cpu, NewAddr, NewLen, /*Announce=*/false);
    return SysErr;
  }
  fire<&EventHub::NewMemMmap>(NewAddr, NewLen, Perms);
  fire<&EventHub::CopyMemMremap>(Old, NewAddr, OldLen);
  release(Cpu, Old, OldLen, /*Announce=*/true);
  return NewAddr;
}

VG_SYSCALL(Mprotect) {
  uint32_t Addr = A[0], Len = A[1], Prot = A[2];
  // The range must not wrap past 2^32 (the page walk would run off the
  // page table) nor reach into the core's region, whose trampoline page
  // must stay executable (Section 3.10). Unmapped pages inside it are
  // skipped.
  uint64_t End = uint64_t{Addr} + Len;
  const Segment *S = AS.segmentAt(Addr);
  if (!S || S->Kind == SegKind::CoreReserved || End > (1ull << 32) ||
      (Addr < AddressSpace::CoreBase + AddressSpace::CoreSize &&
       End > AddressSpace::CoreBase))
    return SysErr;
  Cpu.mem().protect(Addr, Len, static_cast<uint8_t>(Prot));
  return 0;
}

//===----------------------------------------------------------------------===//
// Time syscalls
//===----------------------------------------------------------------------===//

VG_SYSCALL(Gettimeofday) {
  uint32_t Tv = A[0];
  fire<&EventHub::PreMemWrite>(Tid, Tv, 8,
                               SyscallTable[SysGettimeofday].Args[0]);
  uint32_t Sec = static_cast<uint32_t>(ClockUsec / 1'000'000);
  uint32_t Usec = static_cast<uint32_t>(ClockUsec % 1'000'000);
  if (Cpu.mem().writeU32(Tv, Sec).Faulted)
    return SysErr; // nothing landed, nothing to announce
  if (Cpu.mem().writeU32(Tv + 4, Usec).Faulted) {
    fire<&EventHub::PostMemWrite>(Tid, Tv, 4); // only the seconds word landed
    return SysErr;
  }
  fire<&EventHub::PostMemWrite>(Tid, Tv, 8);
  return 0;
}

VG_SYSCALL(Settimeofday) {
  uint32_t Tv = A[0];
  fire<&EventHub::PreMemRead>(Tid, Tv, 8,
                              SyscallTable[SysSettimeofday].Args[0]);
  uint32_t Sec, Usec;
  if (Cpu.mem().readU32(Tv, Sec).Faulted ||
      Cpu.mem().readU32(Tv + 4, Usec).Faulted)
    return SysErr;
  ClockUsec = static_cast<uint64_t>(Sec) * 1'000'000 + Usec;
  return 0;
}

VG_SYSCALL(Time) {
  return static_cast<uint32_t>(ClockUsec / 1'000'000);
}

VG_SYSCALL(Nanosleep) {
  uint32_t Usec = A[0];
  if (Faults && Usec > 0 && Faults->roll(FaultKind::Wakeup)) {
    // Spurious early wakeup: only part of the interval elapses.
    uint32_t Slept = Faults->pick(Usec);
    ClockUsec += Slept;
    faultInjected(Tid, FaultKind::Wakeup, Usec - Slept);
  } else {
    ClockUsec += Usec;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Threads and signals (forwarded to the core)
//===----------------------------------------------------------------------===//

VG_SYSCALL(Kill) {
  if (!Host)
    return SysErr;
  return Host->raiseSignal(static_cast<int>(A[0]), static_cast<int>(A[1]))
             ? 0
             : SysErr;
}

VG_SYSCALL(Sigaction) {
  if (!Host || A[0] - 1 >= 63) // EINVAL outside signals 1-63
    return SysErr;
  int Sig = static_cast<int>(A[0]);
  uint32_t Old = Host->signalHandler(Sig);
  // This is the interception point of Section 3.15: the handler address
  // is recorded by the core, never given to a real kernel, so the client's
  // handler only ever runs under the core's control.
  Host->setSignalHandler(Sig, A[1]);
  return Old;
}

VG_SYSCALL(Sigreturn) {
  if (!Host)
    return SysErr;
  // State was replaced wholesale; do not write a result register.
  Host->sigreturn(Tid);
  return SysResult::NoResult;
}

VG_SYSCALL(Clone) {
  if (!Host)
    return SysErr;
  int NewTid = Host->spawnThread(A[0], A[1], A[2]);
  return NewTid < 0 ? SysErr : static_cast<uint32_t>(NewTid);
}
