//===-- tools/Loopgrind.h - The loop/CFG profiler ---------------*- C++ -*-==//
///
/// \file
/// Loopgrind: a loop profiler built on the dispatcher's view of the guest
/// CFG. A dirty call planted at the head of every translated block streams
/// block-entry addresses to the tool, which detects loops dynamically: a
/// transfer to an address at or below the previous block's entry is a
/// back-edge, and consecutive arrivals at the same head are iterations of
/// one run ("trip"). Per loop head it keeps entry count, total iterations,
/// the maximum trip, and a 16-bucket log2 trip-count histogram; fini()
/// reports the hottest loops by iterations and cross-checks them against
/// the translation chain graph (TransTab back-edges weighted by the
/// per-slot EdgeExecs profile the executor and the dispatcher keep anyway).
///
/// Trace-tier caveat: a tier-2 trace executes several former blocks per
/// dispatch but carries one entry dirty call, so interior iterations that
/// never leave the trace count once per trace pass. The chain-graph
/// cross-section in the report is immune (EdgeExecs count every transfer
/// through a slot, whatever the tier).
///
/// Client requests ('L','G' namespace): LgStart/LgStop toggle collection
/// (it starts on), LgAnnotate(head, str) names a loop so the report reads
/// like source. The tool doubles as the worked example of the plug-in
/// surface: tool-tagged requests, dirty-call instrumentation, and a
/// fini-time walk of core data structures.
///
//===----------------------------------------------------------------------===//
#ifndef VG_TOOLS_LOOPGRIND_H
#define VG_TOOLS_LOOPGRIND_H

#include "core/ClientRequests.h"
#include "core/Core.h"
#include "core/Tool.h"

#include <array>
#include <map>
#include <string>

namespace vg {

/// Loopgrind's client-request namespace tag.
constexpr uint32_t LgTag = vgToolTag('L', 'G');

/// Loopgrind's client requests ('L','G' namespace).
enum LoopgrindRequest : uint32_t {
  LgStart = vgRequest(LgTag, 1),    ///< () resume collection
  LgStop = vgRequest(LgTag, 2),     ///< () pause collection
  LgAnnotate = vgRequest(LgTag, 3), ///< (head, strptr) label a loop
};

class Loopgrind : public Tool {
public:
  const char *name() const override { return "loopgrind"; }
  void registerOptions(OptionRegistry &Opts) override;
  void init(Core &Core_) override;
  void instrument(ir::IRSB &SB) override;
  void fini(int ExitCode) override;
  bool handleClientRequest(int Tid, uint32_t Code, const uint32_t Args[4],
                           uint32_t &Result) override;

  // Accessors for tests.
  uint64_t backEdges() const { return BackEdges; }

  static uint64_t helperBlockEntry(void *Env, uint64_t Addr, uint64_t,
                                   uint64_t, uint64_t);

private:
  /// One thread's in-flight loop run.
  struct TidRun {
    uint32_t Last = 0;       ///< previous block-entry address
    uint32_t ActiveHead = 0; ///< loop head of the run in progress (0 none)
    uint64_t Trip = 0;       ///< iterations accumulated in this run
  };

  static constexpr size_t HistBuckets = 16;

  /// Everything known about one loop head.
  struct LoopStat {
    uint64_t Entries = 0;    ///< completed runs
    uint64_t Iterations = 0; ///< total trips across runs
    uint64_t MaxTrip = 0;
    std::array<uint64_t, HistBuckets> Hist{}; ///< bucket k: trip in 2^k..
    std::string Label;                        ///< LgAnnotate name, if any
  };

  void noteBlock(int Tid, uint32_t Addr);
  void flushRun(TidRun &R);

  Core *C = nullptr;
  bool Collecting = true;
  unsigned TopN = 5;
  std::array<TidRun, Core::MaxThreads> Runs;
  std::map<uint32_t, LoopStat> Loops;
  uint64_t BlocksSeen = 0;
  uint64_t BackEdges = 0;
};

} // namespace vg

#endif // VG_TOOLS_LOOPGRIND_H
