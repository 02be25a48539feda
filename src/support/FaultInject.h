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
///   kind    := syscall | shortio | mempressure | wakeup | sigstorm
///            | preempt | ttflush
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

/// The injectable fault categories.
enum class FaultKind : unsigned {
  Syscall,     ///< fallible syscall returns 0xFFFFFFFF without doing work
  ShortIO,     ///< read/write transfers fewer bytes than requested
  MemPressure, ///< mmap/brk/mremap report exhaustion
  Wakeup,      ///< nanosleep/yield return early/spuriously
  SigStorm,    ///< an installed-handler signal is queued at a block boundary
  Preempt,     ///< a scheduling slice is cut to quantum = 1
  TTFlush,     ///< the whole translation table is invalidated
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
