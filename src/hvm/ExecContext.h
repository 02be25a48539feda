//===-- hvm/ExecContext.h - Helper-call environment -------------*- C++ -*-==//
///
/// \file
/// The environment handed to every IR helper call (clean CCalls and Dirty
/// calls) as its opaque Env pointer. It exposes the executing thread's guest
/// state, guest memory, and an opaque core pointer that tool helpers use to
/// find their own data structures.
///
//===----------------------------------------------------------------------===//
#ifndef VG_HVM_EXECCONTEXT_H
#define VG_HVM_EXECCONTEXT_H

#include <cstdint>

namespace vg {

class GuestMemory;
class ShadowMap;

/// Per-run execution environment visible to IR helpers.
struct ExecContext {
  /// The running thread's guest state area (registers + shadows), laid out
  /// per vg1::gso. Dirty helpers read/write it directly, as declared by
  /// their GuestFx annotations.
  uint8_t *GuestState = nullptr;
  /// The client address space.
  GuestMemory *Mem = nullptr;
  /// The owning core (tools downcast this in their helpers).
  void *Core = nullptr;
  /// The running tool (tool helpers downcast this).
  void *Tool = nullptr;
  /// Guest thread id this context executes. Helpers that need the owning
  /// ThreadState index through this.
  int Tid = 0;
  /// The tool's shadow map, when it has one (Tool::shadowMap()). Services
  /// SHPROBE instructions — the JIT-inlined Memcheck fast path — without a
  /// helper call. Null makes every probe report "take the slow path".
  ShadowMap *ShadowSM = nullptr;
};

} // namespace vg

#endif // VG_HVM_EXECCONTEXT_H
