//===-- core/ThreadState.h - Per-thread guest + shadow state ----*- C++ -*-==//
///
/// \file
/// "Valgrind provides a block of memory per client thread called the
/// ThreadState. Each one contains space for all the thread's guest and
/// shadow registers and is used to hold them at various times, in
/// particular between each code block." (Section 3.4)
///
/// The guest area layout is fixed by vg1::gso; the shadow registers live at
/// gso::ShadowOffset within the same block, which is what makes them
/// first-class (requirement R1): a tool GETs/PUTs them with ordinary IR.
///
//===----------------------------------------------------------------------===//
#ifndef VG_CORE_THREADSTATE_H
#define VG_CORE_THREADSTATE_H

#include "guest/CpuView.h"
#include "guest/GuestArch.h"
#include "guest/GuestMemory.h"

#include <cstring>
#include <vector>

namespace vg {

enum class ThreadStatus : uint8_t {
  Empty,    ///< slot unused
  Runnable, ///< ready to be scheduled
  Exited,   ///< finished (slot awaiting reuse)
};

/// One guest thread: register block plus scheduling metadata.
class ThreadState : public CpuView {
public:
  ThreadState() { std::memset(Guest, 0, sizeof(Guest)); }

  /// Raw guest+shadow register block, laid out per vg1::gso.
  alignas(8) uint8_t Guest[vg1::gso::TotalSize] = {};

  int Tid = -1;
  ThreadStatus Status = ThreadStatus::Empty;
  GuestMemory *Memory = nullptr; ///< shared client address space

  /// Stack bounds for the SMC "stack only" check and the stack-switch
  /// heuristic.
  uint32_t StackBase = 0; ///< highest address (exclusive)
  uint32_t StackLimit = 0;

  /// Core-side copy of the last seen stack pointer, driving
  /// new_mem_stack/die_mem_stack events.
  uint32_t TrackedSP = 0;

  /// Pending (queued, undelivered) signals, delivered only between code
  /// blocks (Section 3.15).
  std::vector<int> PendingSignals;

  /// One in-progress signal delivery: the saved guest+shadow area that
  /// sigreturn restores, tagged with which signal it belongs to so
  /// delivery can mask that signal for the handler's duration.
  struct SignalFrame {
    std::vector<uint8_t> Guest;
    int Sig = 0;
  };

  /// Saved contexts for nested signal deliveries (restored LIFO by
  /// sigreturn).
  std::vector<SignalFrame> SignalFrames;

  /// Bitmask of signals currently masked because their handler is on the
  /// frame stack: a handler is never re-entered while it runs (per-signal
  /// masking, as sigaction without SA_NODEFER).
  uint64_t SigMask = 0;

  bool signalMasked(int Sig) const {
    return Sig >= 0 && Sig < 64 && (SigMask & (1ull << Sig));
  }

  // --- typed accessors ---------------------------------------------------
  uint32_t gpr(unsigned I) const {
    uint32_t V;
    std::memcpy(&V, Guest + vg1::gso::gpr(I), 4);
    return V;
  }
  void setGpr(unsigned I, uint32_t V) {
    std::memcpy(Guest + vg1::gso::gpr(I), &V, 4);
  }
  double fpr(unsigned I) const {
    double V;
    std::memcpy(&V, Guest + vg1::gso::fpr(I), 8);
    return V;
  }
  uint32_t getPC() const {
    uint32_t V;
    std::memcpy(&V, Guest + vg1::gso::PC, 4);
    return V;
  }
  void setPCVal(uint32_t V) { std::memcpy(Guest + vg1::gso::PC, &V, 4); }

  // --- CpuView (used by the simulated kernel) ----------------------------
  uint32_t readReg(unsigned Index) const override { return gpr(Index); }
  void writeReg(unsigned Index, uint32_t Value) override {
    setGpr(Index, Value);
  }
  uint32_t pc() const override { return getPC(); }
  void setPC(uint32_t Value) override { setPCVal(Value); }
  GuestMemory &mem() override { return *Memory; }
  int threadId() const override { return Tid; }
};

} // namespace vg

#endif // VG_CORE_THREADSTATE_H
