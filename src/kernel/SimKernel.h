//===-- kernel/SimKernel.h - The simulated kernel ---------------*- C++ -*-==//
///
/// \file
/// The substrate standing in for the Linux kernel: 22 system calls over an
/// in-memory virtual filesystem, guest memory (brk/mmap/munmap/mremap), a
/// virtual clock, and hooks into the core for threads and signals.
///
/// Every system call has a *wrapper* that knows exactly which registers and
/// memory ranges the call reads and writes, and fires the corresponding
/// Table 1 events (pre_reg_read, pre_mem_read{,_asciiz}, pre_mem_write,
/// post_mem_write, post_reg_write, new_mem_mmap, die_mem_munmap,
/// new_mem_brk, die_mem_brk, copy_mem_mremap) — the reproduction of
/// Valgrind's 15k lines of syscall wrappers (Section 3.12), scaled to this
/// kernel's surface. Each call is one VG_SYSCALLS row, from which its
/// number, its fault-injection policy, its wrapper's declaration and
/// dispatch, and its register-argument reads all follow; adding a call is
/// one row plus its sys<Name> wrapper.
///
/// The kernel serves both execution engines: under the DBI core (events
/// live, threads/signals via KernelHost) and under the reference
/// interpreter (null events/host — "native" runs).
///
//===----------------------------------------------------------------------===//
#ifndef VG_KERNEL_SIMKERNEL_H
#define VG_KERNEL_SIMKERNEL_H

#include "core/Events.h"
#include "guest/RefInterp.h"
#include "kernel/AddressSpace.h"
#include "support/FaultInject.h"

#include <array>
#include <map>
#include <string>
#include <vector>

namespace vg {

/// The system calls, one row each: X(Name, name, number, fallible,
/// args...). The guest ABI: number in r0, the arguments in r1..r4 in the
/// listed order, the result to r0; errors return SysErr. Name gives
/// SysName and the wrapper SimKernel::sysName; name(arg) is what every
/// event about an argument reports (Memcheck's "Syscall parameter
/// write(buf)"). Fallible calls are the ones --fault-inject may fail
/// outright with SysErr: not the control transfers (exit, exit_thread,
/// sigreturn), which a client cannot meaningfully retry, nor the
/// scheduling calls, which have their own Wakeup fault kind.
#define VG_SYSCALLS(X)                                                         \
  X(Exit, exit, 1, false, status)                                              \
  X(Write, write, 2, true, fd, buf, len)                                       \
  X(Read, read, 3, true, fd, buf, len)                                         \
  X(Open, open, 4, true, path, flags)                                          \
  X(Close, close, 5, true, fd)                                                 \
  X(Brk, brk, 6, true, addr)                                                   \
  X(Mmap, mmap, 7, true, addr, len, prot, flags)                               \
  X(Munmap, munmap, 8, true, addr, len)                                        \
  X(Mremap, mremap, 9, true, old, oldlen, newlen)                              \
  X(Gettimeofday, gettimeofday, 10, true, tv)                                  \
  X(Settimeofday, settimeofday, 11, true, tv)                                  \
  X(Getpid, getpid, 12, false)                                                 \
  X(Kill, kill, 13, true, tid, sig)                                            \
  X(Sigaction, sigaction, 14, true, sig, handler)                              \
  X(Sigreturn, sigreturn, 15, false)                                           \
  X(Clone, clone, 16, true, entry, stack, arg)                                 \
  X(ExitThread, exit_thread, 17, false, status)                                \
  X(Yield, yield, 18, false)                                                   \
  X(Nanosleep, nanosleep, 19, false, usec)                                     \
  X(Time, time, 20, false)                                                     \
  X(Fsize, fsize, 21, true, fd)                                                \
  X(Mprotect, mprotect, 22, true, addr, len, prot)

enum Syscalls : uint32_t {
#define VG_SYS_ENUM(Name, name, Num, ...) Sys##Name = Num,
  VG_SYSCALLS(VG_SYS_ENUM)
#undef VG_SYS_ENUM
};

// "name(arg)" for each of a row's arguments, as string literals.
#define VG_SYS_ARG(n, a) #n "(" #a ")"
#define VG_SYS_ARGS0(n)
#define VG_SYS_ARGS1(n, a) VG_SYS_ARG(n, a)
#define VG_SYS_ARGS2(n, a, ...) VG_SYS_ARG(n, a), VG_SYS_ARGS1(n, __VA_ARGS__)
#define VG_SYS_ARGS3(n, a, ...) VG_SYS_ARG(n, a), VG_SYS_ARGS2(n, __VA_ARGS__)
#define VG_SYS_ARGS4(n, a, ...) VG_SYS_ARG(n, a), VG_SYS_ARGS3(n, __VA_ARGS__)
#define VG_SYS_PICK(_1, _2, _3, _4, M, ...) M
#define VG_SYS_ARGNAMES(n, ...)                                                \
  VG_SYS_PICK(__VA_ARGS__ __VA_OPT__(, ) VG_SYS_ARGS4, VG_SYS_ARGS3,           \
              VG_SYS_ARGS2, VG_SYS_ARGS1, VG_SYS_ARGS0)                        \
  (n __VA_OPT__(, ) __VA_ARGS__)

constexpr unsigned MaxSyscallArgs = 4;

/// One VG_SYSCALLS row, as the kernel reads it.
struct SyscallDesc {
  const char *Name = nullptr; ///< null: no call has this number (ENOSYS)
  bool Fallible = false;
  const char *Args[MaxSyscallArgs] = {}; ///< "name(arg)" for r1.., then null
};

#define VG_SYS_COUNT(...) +1
constexpr unsigned SyscallCount = 0 VG_SYSCALLS(VG_SYS_COUNT);
#undef VG_SYS_COUNT

/// VG_SYSCALLS indexed by number (entry 0 is unassigned).
inline constexpr auto SyscallTable = [] {
  std::array<SyscallDesc, 1 + SyscallCount> T{};
#define VG_SYS_ROW(Name, name, Num, Fallible, ...)                             \
  T[Num] = {#name, Fallible, {VG_SYS_ARGNAMES(name, __VA_ARGS__)}};
  VG_SYSCALLS(VG_SYS_ROW)
#undef VG_SYS_ROW
  return T;
}();

constexpr uint32_t SysErr = 0xFFFFFFFFu;

/// Services only the DBI core can provide (threads, signals, scheduling).
/// Null for "native" runs: the affected syscalls then fail cleanly.
class KernelHost {
public:
  virtual ~KernelHost() = default;
  virtual int spawnThread(uint32_t Entry, uint32_t SP, uint32_t Arg) = 0;
  virtual void exitThread(int Tid, int Code) = 0;
  virtual void setSignalHandler(int Sig, uint32_t Handler) = 0;
  virtual uint32_t signalHandler(int Sig) const = 0;
  virtual bool raiseSignal(int Tid, int Sig) = 0;
  virtual void sigreturn(int Tid) = 0;
  virtual void requestYield(int Tid) = 0;
};

/// The simulated kernel.
class SimKernel : public vg1::SyscallSink {
public:
  SimKernel(AddressSpace &AS, EventHub *Events = nullptr,
            KernelHost *Host = nullptr)
      : AS(AS), Events(Events), Host(Host) {
    Fds.resize(3); // 0 stdin, 1 stdout, 2 stderr
    Fds[0] = OpenFd{FdKind::Stdin, "", 0, true};
    Fds[1] = OpenFd{FdKind::Stdout, "", 0, true};
    Fds[2] = OpenFd{FdKind::Stderr, "", 0, true};
  }

  /// Handles one SYS instruction. Returns Exit for SysExit.
  Action onSyscall(CpuView &Cpu) override;

  /// Installs (or clears) the --fault-inject plan. The kernel consults it
  /// at its decision points: fallible-syscall entry (error return without
  /// running the wrapper), read/write lengths (short transfers),
  /// brk/mmap/mremap (exhaustion), and nanosleep/yield (spurious wakeups).
  void setFaultPlan(FaultPlan *P) { Faults = P; }

  // --- host-visible state (tests, harnesses) -----------------------------
  std::string stdoutText() const { return StdoutBuf; }
  std::string stderrText() const { return StderrBuf; }
  void provideStdin(const std::string &S) {
    StdinBuf.assign(S.begin(), S.end());
  }
  const std::vector<uint8_t> *file(const std::string &Name) const {
    auto It = Files.find(Name);
    return It == Files.end() ? nullptr : &It->second;
  }
  int exitCode() const { return TheExitCode; }
  uint64_t syscallCount() const { return NumSyscalls; }

private:
  enum class FdKind { Closed, Stdin, Stdout, Stderr, File };
  struct OpenFd {
    FdKind Kind = FdKind::Closed;
    std::string Name;
    uint32_t Pos = 0;
    bool Open = false;
    bool Writable = false;
  };

  /// A wrapper's outcome: a result for r0, no result (sigreturn replaced
  /// the caller's state; exit_thread ended its thread), or the end of the
  /// process.
  struct SysResult {
    enum Kind : uint8_t { Value, NoResult, ProcessExit };
    SysResult(uint32_t V) : R(V) {}
    SysResult(Kind K) : K(K) {}
    Kind K = Value;
    uint32_t R = 0;
  };

  // The wrappers, one per VG_SYSCALLS row. \p A holds r1..rN, already
  // announced through pre_reg_read.
#define VG_SYS_DECL(Name, ...)                                                 \
  SysResult sys##Name(CpuView &Cpu, int Tid, const uint32_t *A);
  VG_SYSCALLS(VG_SYS_DECL)
#undef VG_SYS_DECL

  /// Releases [Addr, Addr+Len) from the address space and unmaps what went,
  /// announcing each range as die_mem_munmap when \p Announce. Returns
  /// whether anything was released.
  bool release(CpuView &Cpu, uint32_t Addr, uint32_t Len, bool Announce);

  /// EventHub::fire<Cb>, when there is a hub (a native run has none).
  template <auto Cb, typename... Ts> void fire(Ts... Args) {
    if (Events)
      Events->fire<Cb>(Args...);
  }
  void faultInjected(int Tid, FaultKind K, uint32_t Arg);

  /// Reads the NUL-terminated string at \p Addr into \p S. False when it
  /// faults before its NUL or has none within 4,096 bytes.
  bool readGuestString(CpuView &Cpu, uint32_t Addr, std::string &S);

  AddressSpace &AS;
  EventHub *Events;
  KernelHost *Host;
  FaultPlan *Faults = nullptr;

  std::map<std::string, std::vector<uint8_t>> Files;
  std::vector<OpenFd> Fds;
  std::vector<uint8_t> StdinBuf;
  uint32_t StdinPos = 0;
  std::string StdoutBuf, StderrBuf;

  uint64_t ClockUsec = 1'200'000'000ull * 1'000'000; // an arbitrary epoch
  int TheExitCode = 0;
  uint64_t NumSyscalls = 0;
  int NextPid = 1000;
};

} // namespace vg

#endif // VG_KERNEL_SIMKERNEL_H
