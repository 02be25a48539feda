//===-- support/HubEvents.h - The events system's one list ------*- C++ -*-==//
///
/// \file
/// Every EventHub event (Section 3.12: Table 1 plus four extensions),
/// written once as X(Member, "dump-name", "Req", "trigger site", (params)).
/// EventHub's callbacks (core/Events.h), the tracer's hub kinds and dump
/// names (support/EventTrace.h), its layering over the hub
/// (Core::loadImage) and bench/table1_events' rows expand it. Req is the
/// paper's requirement, empty for an extension. A new event is one row
/// plus its EventHub::fire site. The list is in support, below both of its
/// readers, because support cannot include core.
///
//===----------------------------------------------------------------------===//
#ifndef VG_SUPPORT_HUBEVENTS_H
#define VG_SUPPORT_HUBEVENTS_H

#include <cstdint>

// The fault event is listed apart because the tracer's kinds (and so a
// trace dump's counts) put it after the scheduler kinds.
#define VG_HUB_EVENTS(X) VG_HUB_EVENTS_MAIN(X) VG_HUB_EVENTS_FAULT(X)

#define VG_HUB_EVENTS_MAIN(X)                                                  \
  /* R4: system-call accesses. The wrapper for Syscall is about to read    */ \
  /* Size bytes of guest state at Offset (a register argument).            */ \
  X(PreRegRead, "pre-reg-read", "R4", "every system call wrapper",             \
    (int Tid, uint32_t Offset, uint32_t Size, const char *Syscall))            \
  /* A wrapper, or the core entering guest code, wrote guest state.        */ \
  X(PostRegWrite, "post-reg-write", "R4", "every system call wrapper",         \
    (int Tid, uint32_t Offset, uint32_t Size))                                 \
  /* The kernel is about to read client memory [Addr, Addr+Len).           */ \
  X(PreMemRead, "pre-mem-read", "R4", "many system call wrappers",             \
    (int Tid, uint32_t Addr, uint32_t Len, const char *Syscall))               \
  /* The kernel is about to read a NUL-terminated string at Addr.          */ \
  X(PreMemReadAsciiz, "pre-mem-read-asciiz", "R4", "open wrapper (paths)",     \
    (int Tid, uint32_t Addr, const char *Syscall))                             \
  /* The kernel is about to write client memory [Addr, Addr+Len).          */ \
  X(PreMemWrite, "pre-mem-write", "R4", "many system call wrappers",           \
    (int Tid, uint32_t Addr, uint32_t Len, const char *Syscall))               \
  /* The kernel, or the core entering guest code, wrote [Addr, Addr+Len).  */ \
  X(PostMemWrite, "post-mem-write", "R4", "many system call wrappers",         \
    (int Tid, uint32_t Addr, uint32_t Len))                                    \
  /* R5: the loader mapped [Addr, Addr+Len) at program start-up.           */ \
  X(NewMemStartup, "new-mem-startup", "R5", "the core's code loader",          \
    (uint32_t Addr, uint32_t Len, uint8_t Perms))                              \
  /* R6: system-call (de)allocations.                                      */ \
  X(NewMemMmap, "new-mem-mmap", "R6", "mmap wrapper",                          \
    (uint32_t Addr, uint32_t Len, uint8_t Perms))                              \
  X(DieMemMunmap, "die-mem-munmap", "R6", "munmap wrapper",                    \
    (uint32_t Addr, uint32_t Len))                                             \
  X(NewMemBrk, "new-mem-brk", "R6", "brk wrapper",                             \
    (uint32_t Addr, uint32_t Len))                                             \
  X(DieMemBrk, "die-mem-brk", "R6", "brk wrapper",                             \
    (uint32_t Addr, uint32_t Len))                                             \
  /* mremap moved [Src, Src+Len) to [Dst, Dst+Len): copy its shadow.       */ \
  X(CopyMemMremap, "copy-mem-mremap", "R6", "mremap wrapper",                  \
    (uint32_t Src, uint32_t Dst, uint32_t Len))                                \
  /* R7: stack (de)allocations.                                            */ \
  X(NewMemStack, "new-mem-stack", "R7", "instrumentation of SP changes",       \
    (uint32_t Addr, uint32_t Len))                                             \
  X(DieMemStack, "die-mem-stack", "R7", "instrumentation of SP changes",       \
    (uint32_t Addr, uint32_t Len))                                             \
  /* Extensions. A read() delivered Len bytes from Fd (named Source) into  */ \
  /* client memory: taint tools mark input sources with it.                */ \
  X(PostFileRead, "post-file-read", "", "read wrapper",                        \
    (int Tid, uint32_t Fd, uint32_t Addr, uint32_t Len, const char *Source))   \
  /* A system call is about to be dispatched to its wrapper.               */ \
  X(PreSyscall, "syscall-enter", "", "the system call dispatcher",             \
    (int Tid, uint32_t Num))                                                   \
  /* Its wrapper finished with Result in r0 (not fired for exit,           */ \
  /* exit_thread and sigreturn, which return nothing to the caller).       */ \
  X(PostSyscall, "syscall-exit", "", "the system call dispatcher",             \
    (int Tid, uint32_t Num, uint32_t Result))

#define VG_HUB_EVENTS_FAULT(X)                                                 \
  /* The --fault-inject plan fired: Kind is a FaultKind, Arg a site detail */ \
  /* (syscall number, shortened length, signal, ...).                      */ \
  X(FaultInjected, "fault-injected", "", "the --fault-inject plan",            \
    (int Tid, uint32_t Kind, uint32_t Arg))

#endif // VG_SUPPORT_HUBEVENTS_H
