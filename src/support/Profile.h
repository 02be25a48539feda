//===-- support/Profile.h - Dispatcher/translation profiling ---*- C++ -*-==//
///
/// \file
/// The --profile observability layer's own measurements: per-phase
/// translation time (Section 3.7's eight phases) and per-translation
/// execution counts, rendered as the report's first section and its ranked
/// hot-block list. Every section in between is printed by the core
/// straight from the struct that owns its counters. Everything here is off
/// the hot path unless profiling was requested; the core only consults a
/// null-checked pointer otherwise.
///
//===----------------------------------------------------------------------===//
#ifndef VG_SUPPORT_PROFILE_H
#define VG_SUPPORT_PROFILE_H

#include <chrono>
#include <cstdint>
#include <map>

namespace vg {

class OutputSink;

/// Monotonic wall-clock seconds: the one clock every timing here reads.
inline double steadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The translation-pipeline phases timed under --profile (Section 3.7).
enum class ProfPhase : unsigned {
  Disasm,     ///< Phase 1: machine code -> tree IR
  Optimise1,  ///< Phase 2: flatten + optimisation 1
  Instrument, ///< Phase 3: the tool plug-in
  Optimise2,  ///< Phase 4: optimisation 2
  TreeBuild,  ///< Phase 5: tree reconstruction
  ISel,       ///< Phase 6: instruction selection
  RegAlloc,   ///< Phase 7: linear-scan allocation
  Encode,     ///< Phase 8: assembly into code-cache bytes
  NumPhases
};

const char *profPhaseName(ProfPhase P);

/// Per-phase wall time: the pipeline's one phase-time sink
/// (TranslationOptions::PhaseOut).
struct PhaseTimes {
  static constexpr unsigned NPhases =
      static_cast<unsigned>(ProfPhase::NumPhases);
  double Seconds[NPhases] = {};
  uint64_t Counts[NPhases] = {};

  void add(ProfPhase Ph, double S) {
    unsigned I = static_cast<unsigned>(Ph);
    Seconds[I] += S;
    ++Counts[I];
  }
};

/// Accumulates what --profile measures itself for one run.
class Profiler {
public:
  /// Where the pipeline's phase timers land (Core::setupTranslation).
  PhaseTimes &phases() { return Phases; }

  /// One block entry (dispatcher entry or chained transfer) at \p Addr.
  void noteExec(uint32_t Addr) { ++Blocks[Addr].Execs; }

  /// A translation of \p Addr finished (Tier 1 = hot superblock).
  void noteTranslation(uint32_t Addr, uint32_t NumInsns, unsigned Tier,
                       double Seconds);

  /// The report's first section: per-phase translation timings.
  void reportPhases(OutputSink &Out) const;

  /// The report's last section: the TopN blocks ranked by execution count.
  void reportHotBlocks(OutputSink &Out, unsigned TopN = 10) const;

private:
  struct BlockInfo {
    uint64_t Execs = 0;
    uint32_t NumInsns = 0;
    uint32_t Translations = 0; ///< times (re)translated
    unsigned Tier = 0;         ///< highest tier reached
    double TranslateSeconds = 0;
  };

  PhaseTimes Phases;
  std::map<uint32_t, BlockInfo> Blocks; ///< survives eviction, keyed by PC
};

} // namespace vg

#endif // VG_SUPPORT_PROFILE_H
