//===-- support/FaultInject.h - Deterministic fault injection ---*- C++ -*-==//
///
/// \file
/// The --fault-inject subsystem: a seeded plan of adversity that the
/// SimKernel and the core consult at well-defined decision points —
/// syscall error returns, short reads/writes, mmap/brk exhaustion,
/// spurious nanosleep/yield wakeups, signal storms at block boundaries,
/// forced preemption (quantum = 1 slices), and translation-table flush
/// pressure. Every decision comes from the plan's own PRNG, advanced only
/// when consulted, so a run is exactly reproducible from its seed: the
/// same seed against the same image yields the same injections in the
/// same order (and therefore a byte-identical --trace-events dump).
///
/// Spec grammar (the value of --fault-inject=):
///
///   spec    := item ("," item)*
///   item    := kind (":" rate)? | "all" (":" rate)? | "seed=" N
///   kind    := a name in VG_FAULT_KINDS below
///   rate    := decimal "1-in-N" chance per decision point (default per
///              kind, below)
///
/// e.g. --fault-inject=syscall:8,sigstorm:64,seed=42
///      --fault-inject=all,seed=7
///
//===----------------------------------------------------------------------===//
#ifndef VG_SUPPORT_FAULTINJECT_H
#define VG_SUPPORT_FAULTINJECT_H

#include "support/SplitMix64.h"

#include <cstdint>
#include <string>

namespace vg {

/// The injectable fault categories, one row each: X(Kind, "name", rate),
/// with the name specs, traces and the --profile report use, and the
/// default 1-in-N rate. Block-boundary kinds (sigstorm, preempt, ttflush)
/// are consulted once per dispatched block and therefore get much longer
/// odds than the per-syscall kinds.
#define VG_FAULT_KINDS(X)                                                      \
  X(Syscall, "syscall", 16)         /* a syscall fails, doing no work */       \
  X(ShortIO, "shortio", 8)          /* read/write moves fewer bytes */         \
  X(MemPressure, "mempressure", 24) /* mmap/brk/mremap report exhaustion */    \
  X(Wakeup, "wakeup", 4)            /* nanosleep/yield return early */         \
  X(SigStorm, "sigstorm", 512)      /* a handled signal queued at a block */   \
  X(Preempt, "preempt", 1024)       /* a scheduling slice cut to 1 block */    \
  X(TTFlush, "ttflush", 4096)       /* the whole translation table flushed */

enum class FaultKind : unsigned {
#define VG_FAULT_KIND_ENUM(Kind, Name, Rate) Kind,
  VG_FAULT_KINDS(VG_FAULT_KIND_ENUM)
#undef VG_FAULT_KIND_ENUM
  NumKinds
};

constexpr unsigned NumFaultKinds = static_cast<unsigned>(FaultKind::NumKinds);

/// Short stable name ("syscall", "sigstorm", ...) used in specs, traces,
/// and the --profile report.
const char *faultKindName(FaultKind K);

/// A parsed, seeded fault plan. Copyable; all state is inline.
class FaultPlan {
public:
  /// Parses a spec (see file comment). Returns false and sets \p Err on a
  /// malformed spec; the plan is unusable in that case.
  bool parse(const std::string &Spec, std::string &Err);

  uint64_t seed() const { return Seed; }
  bool enabled(FaultKind K) const { return Rate[static_cast<unsigned>(K)] != 0; }

  /// One decision: true with probability 1-in-rate(K). Advances the PRNG
  /// only when the kind is enabled, so disabling a kind does not perturb
  /// the others' sequences... it does shift them; see note in the .cpp —
  /// determinism is per-spec, not across specs.
  bool roll(FaultKind K);

  /// Deterministic value in [0, Bound). Bound must be nonzero.
  uint32_t pick(uint32_t Bound);

  // --- counters (observability; --profile reads these) -------------------
  uint64_t rolls() const { return Rolls; }
  uint64_t injected(FaultKind K) const {
    return Injected[static_cast<unsigned>(K)];
  }
  uint64_t injectedTotal() const;

private:
  uint64_t Seed = 0;
  SplitMix64 Gen{0};
  uint32_t Rate[NumFaultKinds] = {}; // 0 = disabled
  uint64_t Rolls = 0;
  uint64_t Injected[NumFaultKinds] = {};
};

} // namespace vg

#endif // VG_SUPPORT_FAULTINJECT_H
