//===-- fuzz/DiffRunner.h - Oracle-vs-JIT differential executor -*- C++ -*-==//
///
/// \file
/// Runs one generated program N ways — the reference interpreter as oracle,
/// then the full JIT pipeline across the optimisation/chaining/hot-promotion
/// matrix and under each tool — and compares everything the guest can
/// observe about itself: stdout (which carries the register dump, flag
/// probes, FP dump and memory checksum the generator's epilogue emits),
/// exit status, and completion. On top of that it checks per-config
/// invariants the tools define: ICnt's instruction count must equal the
/// oracle's retired-instruction count, Memcheck must be error-free on
/// hygienic programs, and SMC programs must force at least one
/// retranslation.
///
//===----------------------------------------------------------------------===//
#ifndef VG_FUZZ_DIFFRUNNER_H
#define VG_FUZZ_DIFFRUNNER_H

#include "core/Launcher.h"
#include "fuzz/ProgramGen.h"

namespace vg {
namespace fuzz {

/// How a cell runs the program: once, or cold then warm against one fresh
/// --tt-cache directory or one live translation server (an in-process
/// vgserve daemon on a fresh socket), so that the warm run installs every
/// translation the cold run made from the cache or over the wire. Both runs
/// are diffed against the oracle; the warm run's divergences name
/// "<cell>-warm".
enum class RunMode : uint8_t { Once, CacheTwice, ServeTwice };

/// One cell of the config matrix.
struct FuzzConfig {
  std::string Name;
  std::string ToolName; ///< a makeTool() name
  std::vector<std::string> Opts;
  RunMode Mode = RunMode::Once;
};

/// Whether an SMC program must show >= 1 SmcFail retranslation in the cell:
/// not if its options name --hot-threshold or --fault-inject. Hot promotion
/// (traces included) or an injected ttflush between the patch and the
/// re-execution translates the patched bytes afresh, which is correct but
/// never takes the SmcFail path. Stdout is still compared in every cell.
bool checksSmcRetrans(const FuzzConfig &C);

/// One observed disagreement between the oracle and a config.
struct Divergence {
  std::string Config; ///< cell name (+"-warm" for a warm run), or "oracle"
  std::string Field;  ///< stdout|exit|completed|fatalsig|icnt|mc-errors|smc
  std::string Expect, Got;

  std::string describe() const {
    return Config + ": " + Field + ": expected [" + Expect + "] got [" + Got +
           "]";
  }
};

struct DiffResult {
  std::vector<Divergence> Divs;
  bool ok() const { return Divs.empty(); }
};

/// The default matrix. Signal/SMC-aware: SMC programs get --smc-check=all
/// everywhere; fault-injection seeds derive from the program seed and only
/// use observation-neutral kinds (preempt/ttflush, + sigstorm when the
/// program installs handlers).
std::vector<FuzzConfig> defaultMatrix(const FuzzProgram &P);

/// The cell \p D came from: the cell of that name, or the two-run cell
/// whose warm run diverged ("<name>-warm"). Oracle divergences map to the
/// first cell, the cheapest to shrink against. Any other name is a harness
/// bug, and the process exits with an error.
FuzzConfig cellFor(const FuzzProgram &P, const Divergence &D);

/// Executes the oracle once and every config against it (the shrinker's
/// predicate passes the one failing config).
DiffResult diffRun(const FuzzProgram &P, const std::vector<FuzzConfig> &M);

} // namespace fuzz
} // namespace vg

#endif // VG_FUZZ_DIFFRUNNER_H
