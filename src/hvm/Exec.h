//===-- hvm/Exec.h - The HVM executor ---------------------------*- C++ -*-==//
///
/// \file
/// Executes encoded HVM code blobs — the contents of the code cache. Plays
/// the role of the host CPU in this reproduction; the dispatcher/scheduler
/// (core/DispatchLoop.cpp) sits on top, exactly as in Section 3.9. Each
/// opcode byte has its own handler, chosen by the encoder (hvm::SpecOp), so
/// a host instruction costs one dispatch.
///
/// Translation chaining: when a chain resolver is supplied, a Boring
/// constant-target exit whose chain slot has been filled transfers directly
/// to the successor translation without returning to the dispatcher (the
/// technique Valgrind 3.2 lacked). The core supplies one by default;
/// --chaining=no withholds it, giving the paper's unchained dispatcher for
/// bench/sec39_dispatch's ablation.
///
//===----------------------------------------------------------------------===//
#ifndef VG_HVM_EXEC_H
#define VG_HVM_EXEC_H

#include "hvm/ExecContext.h"
#include "hvm/HostVM.h"
#include "ir/IR.h"

#include <cstdint>
#include <vector>

namespace vg {
namespace hvm {

/// An encoded translation: code-cache bytes plus frame metadata.
struct CodeBlob {
  std::vector<uint8_t> Bytes;
  uint32_t NumSpillSlots = 0;
  uint32_t NumChainSlots = 0;
  /// Per chain slot: the constant guest target PC of the exit, or
  /// NoChainTarget for exits chaining can never follow. Lets the
  /// translation table link chain slots eagerly at insertion time instead
  /// of waiting for the dispatcher to observe the edge.
  std::vector<uint32_t> ChainTargets;
  /// Chain slot of the fall-off-the-end exit (~0 for a register-form
  /// ending). Exits through any other slot are guarded side exits.
  uint32_t TerminalChainSlot = ~0u;
  /// Opaque cookie identifying the owning translation (used by chaining).
  void *Cookie = nullptr;
};

/// Resolves a chain slot to the successor translation's blob, or null if
/// the slot is unfilled. \p Cookie identifies the exiting translation.
using ChainResolveFn = const CodeBlob *(*)(void *User, void *Cookie,
                                           uint32_t Slot);

/// Why execution returned to the caller.
struct RunOutcome {
  enum class Kind { BlockEnd, Fault };
  Kind K = Kind::BlockEnd;
  uint32_t NextPC = 0;
  ir::JumpKind JK = ir::JumpKind::Boring;
  // Fault details (K == Fault):
  uint32_t FaultAddr = 0;
  bool FaultWrite = false;
  uint32_t FaultPC = 0; ///< guest PC of the faulting instruction (IMARK)
  /// Translations entered during this run (1 without chaining).
  uint64_t BlocksExecuted = 0;
  /// Identifies the exit site: the cookie of the translation that ended the
  /// run, and its chain slot (~0u for register-target exits). The
  /// dispatcher uses this to fill chain slots lazily.
  void *ExitCookie = nullptr;
  uint32_t ExitSlot = ~0u;
};

/// The executor. Stateless between runs apart from its register file and
/// spill frame, which are scratch.
class Executor {
public:
  /// \p Ctx must outlive run() calls; PCOffset is the guest-state offset of
  /// the program counter (written at every block exit).
  Executor(ExecContext &Ctx, uint32_t PCOffset)
      : Ctx(Ctx), PCOffset(PCOffset) {}

  /// Enables chaining: exits resolve their successors through \p Fn.
  void setChaining(ChainResolveFn Fn, void *User) {
    ChainFn = Fn;
    ChainUser = User;
  }

  /// Runs \p Blob, following chained exits while \p ChainBudget lasts:
  /// it limits how many chained transfers one run may make before
  /// returning (the scheduler's quantum accounting).
  RunOutcome run(const CodeBlob &Blob, uint64_t ChainBudget = 0);

  /// Maximum spill slots a translation may use.
  static constexpr uint32_t MaxSpillSlots = 256;

private:
  ExecContext &Ctx;
  uint32_t PCOffset;
  ChainResolveFn ChainFn = nullptr;
  void *ChainUser = nullptr;
  uint64_t Regs[16] = {};
  uint64_t Frame[MaxSpillSlots] = {};
};

} // namespace hvm
} // namespace vg

#endif // VG_HVM_EXEC_H
