//===-- hvm/Exec.h - The HVM executor ---------------------------*- C++ -*-==//
///
/// \file
/// Executes encoded HVM code blobs — the contents of the code cache. Plays
/// the role of the host CPU in this reproduction; the dispatcher/scheduler
/// (core/DispatchLoop.cpp) sits on top, exactly as in Section 3.9. Each
/// opcode byte has its own handler, chosen by the encoder (hvm::SpecOp), so
/// a host instruction costs one dispatch; a listed group of adjacent
/// instructions (hvm::Group) costs one dispatch in all. A handler reads
/// its operands where the form's layout (hvm::At, from VG_HVM_FORMS)
/// puts them and steps by the form's length (hvm::Len).
///
/// Translation chaining: once the core supplies a callback, a Boring
/// constant-target exit whose chain slot has been filled transfers directly
/// to the successor translation without returning to the dispatcher (the
/// technique Valgrind 3.2 lacked). The executor follows the slot itself: it
/// counts the successor's entry and the slot's edge, charges the chain
/// budget and enters the successor's code, a few loads and increments. It
/// calls back into the core only at a check point (CodeBlob::CheckPoint),
/// where the core has bookkeeping to do or may end the chain. The core
/// supplies the callback by default; --chaining=no withholds it, giving the
/// paper's unchained dispatcher for bench/sec39_dispatch's ablation.
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

/// CodeBlob::CheckPoint of a blob whose chained entries never call back.
constexpr uint64_t NoCheckPoint = ~uint64_t{0};

/// An encoded translation: code-cache bytes plus frame metadata, and the
/// chain state the executor keeps while the blob is resident.
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
  /// Per chain slot: the successor's blob, or null while the slot is
  /// unfilled. The translation table fills and clears the slots.
  std::vector<CodeBlob *> Chain;
  /// Per chain slot: transfers through it, chained or through the
  /// dispatcher (an edge profile; trace formation follows the dominant
  /// edge, which the successor's ExecCount cannot stand for when it has
  /// other predecessors).
  std::vector<uint64_t> EdgeExecs;
  /// Times the blob was entered: dispatcher entries plus chained ones.
  uint64_t ExecCount = 0;
  /// The entry count at which a chained entry into this blob calls back
  /// (ChainResolveFn) instead of entering: a chained transfer whose
  /// successor's next ExecCount would reach its CheckPoint goes through
  /// the callback. 0 also sends every chained exit from this blob through
  /// it. The core sets it; NoCheckPoint never calls back.
  uint64_t CheckPoint = NoCheckPoint;
};

/// The check-point callback: does the core's bookkeeping for a chained
/// transfer out of slot \p Slot of the translation \p Cookie identifies
/// and returns the successor's blob to enter, or null to end the run at
/// that exit.
using ChainResolveFn = CodeBlob *(*)(void *User, void *Cookie, uint32_t Slot);

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
  /// dispatcher counts the edge in that slot's EdgeExecs once it has
  /// dispatched the successor.
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

  /// Enables chaining, with \p Fn as the check-point callback.
  void setChaining(ChainResolveFn Fn, void *User) {
    ChainFn = Fn;
    ChainUser = User;
  }

  /// Runs \p Blob, following filled chain slots while \p ChainBudget
  /// lasts: it limits how many chained transfers one run may make before
  /// returning (the scheduler's quantum accounting). Every EXITI's slot
  /// must index the exiting blob's Chain and EdgeExecs (ISel numbers them
  /// so; hvm::checkOperands holds stored blobs to it).
  RunOutcome run(CodeBlob &Blob, uint64_t ChainBudget = 0);

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
