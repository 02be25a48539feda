//===-- kernel/SimKernel.cpp - The simulated kernel -----------------------==//

#include "kernel/SimKernel.h"

#include "guest/GuestArch.h"
#include "guest/GuestMemory.h"

using namespace vg;
using namespace vg::vg1;

//===----------------------------------------------------------------------===//
// Event helpers
//===----------------------------------------------------------------------===//

void SimKernel::preRegRead(int Tid, unsigned Reg, const char *Name) {
  if (Events && Events->PreRegRead)
    Events->PreRegRead(Tid, gso::gpr(Reg), 4, Name);
}

void SimKernel::postRegWrite(int Tid, unsigned Reg) {
  if (Events && Events->PostRegWrite)
    Events->PostRegWrite(Tid, gso::gpr(Reg), 4);
}

void SimKernel::preMemRead(int Tid, uint32_t Addr, uint32_t Len,
                           const char *Name) {
  if (Events && Events->PreMemRead)
    Events->PreMemRead(Tid, Addr, Len, Name);
}

void SimKernel::preMemReadAsciiz(int Tid, uint32_t Addr, const char *Name) {
  if (Events && Events->PreMemReadAsciiz)
    Events->PreMemReadAsciiz(Tid, Addr, Name);
}

void SimKernel::preMemWrite(int Tid, uint32_t Addr, uint32_t Len,
                            const char *Name) {
  if (Events && Events->PreMemWrite)
    Events->PreMemWrite(Tid, Addr, Len, Name);
}

void SimKernel::postMemWrite(int Tid, uint32_t Addr, uint32_t Len) {
  if (Events && Events->PostMemWrite)
    Events->PostMemWrite(Tid, Addr, Len);
}

void SimKernel::faultInjected(int Tid, FaultKind K, uint32_t Arg) {
  if (Events && Events->FaultInjected)
    Events->FaultInjected(Tid, static_cast<uint32_t>(K), Arg);
}

std::string SimKernel::readGuestString(CpuView &Cpu, uint32_t Addr) {
  std::string S;
  for (uint32_t I = 0; I != 4096; ++I) {
    uint8_t B;
    if (Cpu.mem().read(Addr + I, &B, 1, /*IgnorePerms=*/true).Faulted ||
        B == 0)
      break;
    S.push_back(static_cast<char>(B));
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Dispatch
//===----------------------------------------------------------------------===//

namespace {

/// Syscalls the --fault-inject plan may fail outright with SysErr. Control
/// transfers (exit/exit_thread/sigreturn) and the scheduling calls (which
/// have their own Wakeup fault kind) are excluded: a client cannot
/// meaningfully retry them, and failing sigreturn would wedge the signal
/// machinery rather than exercise it.
bool isFallibleSyscall(uint32_t Num) {
  switch (Num) {
  case SysWrite:
  case SysRead:
  case SysOpen:
  case SysClose:
  case SysBrk:
  case SysMmap:
  case SysMunmap:
  case SysMremap:
  case SysMprotect:
  case SysGettimeofday:
  case SysSettimeofday:
  case SysKill:
  case SysSigaction:
  case SysClone:
  case SysFsize:
    return true;
  default:
    return false;
  }
}

} // namespace

SimKernel::Action SimKernel::onSyscall(CpuView &Cpu) {
  ++NumSyscalls;
  ClockUsec += 5; // syscalls take time on the virtual clock
  int Tid = Cpu.threadId();
  preRegRead(Tid, 0, "syscall");
  uint32_t Num = Cpu.readReg(0);
  if (Events && Events->PreSyscall)
    Events->PreSyscall(Tid, Num);
  uint32_t Result = SysErr;

  // Injected failure: the call errors before its wrapper runs, so no
  // argument reads happen and no post_mem_write/post_reg_write can fire
  // for work that was never done (only the result register is written).
  if (Faults && isFallibleSyscall(Num) && Faults->roll(FaultKind::Syscall)) {
    faultInjected(Tid, FaultKind::Syscall, Num);
    Cpu.writeReg(0, SysErr);
    postRegWrite(Tid, 0);
    if (Events && Events->PostSyscall)
      Events->PostSyscall(Tid, Num, SysErr);
    return Action::Continue;
  }

  switch (Num) {
  case SysExit:
    preRegRead(Tid, 1, "exit(status)");
    TheExitCode = static_cast<int>(Cpu.readReg(1));
    return Action::Exit;
  case SysWrite:
    Result = doWrite(Cpu);
    break;
  case SysRead:
    Result = doRead(Cpu);
    break;
  case SysOpen:
    Result = doOpen(Cpu);
    break;
  case SysClose:
    Result = doClose(Cpu);
    break;
  case SysBrk:
    Result = doBrk(Cpu);
    break;
  case SysMmap:
    Result = doMmap(Cpu);
    break;
  case SysMunmap:
    Result = doMunmap(Cpu);
    break;
  case SysMremap:
    Result = doMremap(Cpu);
    break;
  case SysMprotect:
    Result = doMprotect(Cpu);
    break;
  case SysGettimeofday:
    Result = doGettimeofday(Cpu);
    break;
  case SysSettimeofday:
    Result = doSettimeofday(Cpu);
    break;
  case SysGetpid:
    Result = static_cast<uint32_t>(NextPid);
    break;
  case SysKill:
    Result = doKill(Cpu);
    break;
  case SysSigaction:
    Result = doSigaction(Cpu);
    break;
  case SysSigreturn:
    if (Host) {
      Host->sigreturn(Tid);
      // State was replaced wholesale; do not write a result register.
      return Action::Continue;
    }
    break;
  case SysClone:
    Result = doClone(Cpu);
    break;
  case SysExitThread:
    preRegRead(Tid, 1, "exit_thread(status)");
    if (Host) {
      Host->exitThread(Tid, static_cast<int>(Cpu.readReg(1)));
      return Action::Continue;
    }
    // Single-threaded native runs: thread exit is process exit.
    TheExitCode = static_cast<int>(Cpu.readReg(1));
    return Action::Exit;
  case SysYield:
    if (Faults && Faults->roll(FaultKind::Wakeup)) {
      // Spurious return: the caller resumes without the scheduler having
      // been asked to switch away.
      faultInjected(Tid, FaultKind::Wakeup, 0);
    } else if (Host) {
      Host->requestYield(Tid);
    }
    Result = 0;
    break;
  case SysNanosleep: {
    preRegRead(Tid, 1, "nanosleep(usec)");
    uint32_t Usec = Cpu.readReg(1);
    if (Faults && Usec > 0 && Faults->roll(FaultKind::Wakeup)) {
      // Spurious early wakeup: only part of the interval elapses.
      uint32_t Slept = Faults->pick(Usec);
      ClockUsec += Slept;
      faultInjected(Tid, FaultKind::Wakeup, Usec - Slept);
    } else {
      ClockUsec += Usec;
    }
    Result = 0;
    break;
  }
  case SysTime:
    Result = static_cast<uint32_t>(ClockUsec / 1'000'000);
    break;
  case SysFsize:
    Result = doFsize(Cpu);
    break;
  default:
    Result = SysErr; // ENOSYS
    break;
  }

  Cpu.writeReg(0, Result);
  postRegWrite(Tid, 0);
  if (Events && Events->PostSyscall)
    Events->PostSyscall(Tid, Num, Result);
  return Action::Continue;
}

//===----------------------------------------------------------------------===//
// File syscalls
//===----------------------------------------------------------------------===//

uint32_t SimKernel::doWrite(CpuView &Cpu) {
  int Tid = Cpu.threadId();
  preRegRead(Tid, 1, "write(fd)");
  preRegRead(Tid, 2, "write(buf)");
  preRegRead(Tid, 3, "write(len)");
  uint32_t Fd = Cpu.readReg(1), Buf = Cpu.readReg(2), Len = Cpu.readReg(3);
  if (Fd >= Fds.size() || !Fds[Fd].Open)
    return SysErr;
  preMemRead(Tid, Buf, Len, "write(buf)");
  // Short write: the kernel consumes only the first N bytes. The pre event
  // still covers the whole buffer (the client asked for all of it to be
  // readable), exactly as real wrappers do.
  uint32_t N = Len;
  if (Faults && Len > 1 && Faults->roll(FaultKind::ShortIO)) {
    N = 1 + Faults->pick(Len - 1);
    faultInjected(Tid, FaultKind::ShortIO, N);
  }
  std::vector<uint8_t> Data(N);
  if (Cpu.mem().read(Buf, Data.data(), N, /*IgnorePerms=*/true).Faulted)
    return SysErr; // EFAULT
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

uint32_t SimKernel::doRead(CpuView &Cpu) {
  int Tid = Cpu.threadId();
  preRegRead(Tid, 1, "read(fd)");
  preRegRead(Tid, 2, "read(buf)");
  preRegRead(Tid, 3, "read(len)");
  uint32_t Fd = Cpu.readReg(1), Buf = Cpu.readReg(2), Len = Cpu.readReg(3);
  if (Fd >= Fds.size() || !Fds[Fd].Open)
    return SysErr;
  preMemWrite(Tid, Buf, Len, "read(buf)");
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
    postMemWrite(Tid, Buf, N);
    if (Events && Events->PostFileRead)
      Events->PostFileRead(Tid, Fd, Buf, N,
                           F.Kind == FdKind::Stdin ? "<stdin>"
                                                   : F.Name.c_str());
  }
  return N;
}

uint32_t SimKernel::doOpen(CpuView &Cpu) {
  int Tid = Cpu.threadId();
  preRegRead(Tid, 1, "open(path)");
  preRegRead(Tid, 2, "open(flags)");
  uint32_t Path = Cpu.readReg(1), Flags = Cpu.readReg(2);
  preMemReadAsciiz(Tid, Path, "open(path)");
  std::string Name = readGuestString(Cpu, Path);
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

uint32_t SimKernel::doClose(CpuView &Cpu) {
  preRegRead(Cpu.threadId(), 1, "close(fd)");
  uint32_t Fd = Cpu.readReg(1);
  if (Fd >= Fds.size() || !Fds[Fd].Open || Fd < 3)
    return SysErr;
  Fds[Fd] = OpenFd{};
  return 0;
}

uint32_t SimKernel::doFsize(CpuView &Cpu) {
  preRegRead(Cpu.threadId(), 1, "fsize(fd)");
  uint32_t Fd = Cpu.readReg(1);
  if (Fd >= Fds.size() || Fds[Fd].Kind != FdKind::File)
    return SysErr;
  return static_cast<uint32_t>(Files[Fds[Fd].Name].size());
}

//===----------------------------------------------------------------------===//
// Memory syscalls (R6 events)
//===----------------------------------------------------------------------===//

uint32_t SimKernel::doBrk(CpuView &Cpu) {
  int Tid = Cpu.threadId();
  preRegRead(Tid, 1, "brk(addr)");
  uint32_t NewEnd = Cpu.readReg(1);
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
    if (Events && Events->NewMemBrk)
      Events->NewMemBrk(OldEnd, NewEnd - OldEnd);
  } else {
    Cpu.mem().unmap(NewEnd, OldEnd - NewEnd);
    if (Events && Events->DieMemBrk)
      Events->DieMemBrk(NewEnd, OldEnd - NewEnd);
  }
  return NewEnd;
}

uint32_t SimKernel::doMmap(CpuView &Cpu) {
  int Tid = Cpu.threadId();
  preRegRead(Tid, 1, "mmap(addr)");
  preRegRead(Tid, 2, "mmap(len)");
  preRegRead(Tid, 3, "mmap(prot)");
  preRegRead(Tid, 4, "mmap(flags)");
  uint32_t Addr = Cpu.readReg(1), Len = Cpu.readReg(2);
  uint32_t Prot = Cpu.readReg(3), Flags = Cpu.readReg(4);
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
  if (Events && Events->NewMemMmap)
    Events->NewMemMmap(Addr, Len, Perms);
  return Addr;
}

uint32_t SimKernel::doMunmap(CpuView &Cpu) {
  int Tid = Cpu.threadId();
  preRegRead(Tid, 1, "munmap(addr)");
  preRegRead(Tid, 2, "munmap(len)");
  uint32_t Addr = Cpu.readReg(1), Len = Cpu.readReg(2);
  if (Len == 0)
    return SysErr;
  auto Removed = AS.release(Addr, Len);
  for (auto [Lo, Hi] : Removed) {
    Cpu.mem().unmap(Lo, Hi - Lo);
    if (Events && Events->DieMemMunmap)
      Events->DieMemMunmap(Lo, Hi - Lo);
  }
  return Removed.empty() ? SysErr : 0;
}

uint32_t SimKernel::doMremap(CpuView &Cpu) {
  int Tid = Cpu.threadId();
  preRegRead(Tid, 1, "mremap(old)");
  preRegRead(Tid, 2, "mremap(oldlen)");
  preRegRead(Tid, 3, "mremap(newlen)");
  uint32_t Old = Cpu.readReg(1);
  uint32_t OldLen = AddressSpace::pageUp(Cpu.readReg(2));
  uint32_t NewLen = AddressSpace::pageUp(Cpu.readReg(3));
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
    auto Removed = AS.release(Old + NewLen, OldLen - NewLen);
    for (auto [Lo, Hi] : Removed) {
      Cpu.mem().unmap(Lo, Hi - Lo);
      if (Events && Events->DieMemMunmap)
        Events->DieMemMunmap(Lo, Hi - Lo);
    }
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
    for (auto [Lo, Hi] : AS.release(NewAddr, NewLen))
      Cpu.mem().unmap(Lo, Hi - Lo);
    return SysErr;
  }
  if (Events && Events->NewMemMmap)
    Events->NewMemMmap(NewAddr, NewLen, Perms);
  if (Events && Events->CopyMemMremap)
    Events->CopyMemMremap(Old, NewAddr, OldLen);
  auto Removed = AS.release(Old, OldLen);
  for (auto [Lo, Hi] : Removed) {
    Cpu.mem().unmap(Lo, Hi - Lo);
    if (Events && Events->DieMemMunmap)
      Events->DieMemMunmap(Lo, Hi - Lo);
  }
  return NewAddr;
}

uint32_t SimKernel::doMprotect(CpuView &Cpu) {
  int Tid = Cpu.threadId();
  preRegRead(Tid, 1, "mprotect(addr)");
  preRegRead(Tid, 2, "mprotect(len)");
  preRegRead(Tid, 3, "mprotect(prot)");
  uint32_t Addr = Cpu.readReg(1), Len = Cpu.readReg(2);
  uint32_t Prot = Cpu.readReg(3);
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

uint32_t SimKernel::doGettimeofday(CpuView &Cpu) {
  int Tid = Cpu.threadId();
  preRegRead(Tid, 1, "gettimeofday(tv)");
  uint32_t Tv = Cpu.readReg(1);
  preMemWrite(Tid, Tv, 8, "gettimeofday(tv)");
  uint32_t Sec = static_cast<uint32_t>(ClockUsec / 1'000'000);
  uint32_t Usec = static_cast<uint32_t>(ClockUsec % 1'000'000);
  if (Cpu.mem().writeU32(Tv, Sec).Faulted)
    return SysErr; // nothing landed, nothing to announce
  if (Cpu.mem().writeU32(Tv + 4, Usec).Faulted) {
    postMemWrite(Tid, Tv, 4); // only the seconds word landed
    return SysErr;
  }
  postMemWrite(Tid, Tv, 8);
  return 0;
}

uint32_t SimKernel::doSettimeofday(CpuView &Cpu) {
  int Tid = Cpu.threadId();
  preRegRead(Tid, 1, "settimeofday(tv)");
  uint32_t Tv = Cpu.readReg(1);
  preMemRead(Tid, Tv, 8, "settimeofday(tv)");
  uint32_t Sec, Usec;
  if (Cpu.mem().readU32(Tv, Sec).Faulted ||
      Cpu.mem().readU32(Tv + 4, Usec).Faulted)
    return SysErr;
  ClockUsec = static_cast<uint64_t>(Sec) * 1'000'000 + Usec;
  return 0;
}

//===----------------------------------------------------------------------===//
// Threads and signals (forwarded to the core)
//===----------------------------------------------------------------------===//

uint32_t SimKernel::doKill(CpuView &Cpu) {
  int Tid = Cpu.threadId();
  preRegRead(Tid, 1, "kill(tid)");
  preRegRead(Tid, 2, "kill(sig)");
  if (!Host)
    return SysErr;
  return Host->raiseSignal(static_cast<int>(Cpu.readReg(1)),
                           static_cast<int>(Cpu.readReg(2)))
             ? 0
             : SysErr;
}

uint32_t SimKernel::doSigaction(CpuView &Cpu) {
  int Tid = Cpu.threadId();
  preRegRead(Tid, 1, "sigaction(sig)");
  preRegRead(Tid, 2, "sigaction(handler)");
  if (!Host)
    return SysErr;
  int Sig = static_cast<int>(Cpu.readReg(1));
  uint32_t Old = Host->signalHandler(Sig);
  // This is the interception point of Section 3.15: the handler address
  // is recorded by the core, never given to a real kernel, so the client's
  // handler only ever runs under the core's control.
  Host->setSignalHandler(Sig, Cpu.readReg(2));
  return Old;
}

uint32_t SimKernel::doClone(CpuView &Cpu) {
  int Tid = Cpu.threadId();
  preRegRead(Tid, 1, "clone(entry)");
  preRegRead(Tid, 2, "clone(stack)");
  preRegRead(Tid, 3, "clone(arg)");
  if (!Host)
    return SysErr;
  int NewTid = Host->spawnThread(Cpu.readReg(1), Cpu.readReg(2),
                                 Cpu.readReg(3));
  return NewTid < 0 ? SysErr : static_cast<uint32_t>(NewTid);
}
