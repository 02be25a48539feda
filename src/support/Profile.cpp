//===-- support/Profile.cpp - Dispatcher/translation profiling ------------==//

#include "support/Profile.h"

#include "support/Output.h"

#include <algorithm>
#include <vector>

using namespace vg;

const char *vg::profPhaseName(ProfPhase P) {
  switch (P) {
  case ProfPhase::Disasm:
    return "1 disassembly";
  case ProfPhase::Optimise1:
    return "2 optimisation 1";
  case ProfPhase::Instrument:
    return "3 instrumentation";
  case ProfPhase::Optimise2:
    return "4 optimisation 2";
  case ProfPhase::TreeBuild:
    return "5 tree building";
  case ProfPhase::ISel:
    return "6 isel";
  case ProfPhase::RegAlloc:
    return "7 regalloc";
  case ProfPhase::Encode:
    return "8 assembly";
  case ProfPhase::NumPhases:
    break;
  }
  return "?";
}

void Profiler::noteTranslation(uint32_t Addr, uint32_t NumInsns,
                               unsigned Tier, double Seconds) {
  BlockInfo &B = Blocks[Addr];
  B.NumInsns = NumInsns;
  ++B.Translations;
  B.Tier = std::max(B.Tier, Tier);
  B.TranslateSeconds += Seconds;
}

void Profiler::reportPhases(OutputSink &Out) const {
  Out.printf("== profile: translation phases ==\n");
  Out.printf("%-18s %10s %12s %12s\n", "phase", "runs", "total(us)",
             "mean(us)");
  double Total = 0;
  for (unsigned I = 0; I != PhaseTimes::NPhases; ++I) {
    double S = Phases.Seconds[I];
    uint64_t N = Phases.Counts[I];
    Total += S;
    Out.printf("%-18s %10llu %12.1f %12.3f\n",
               profPhaseName(static_cast<ProfPhase>(I)),
               static_cast<unsigned long long>(N), S * 1e6,
               N ? S * 1e6 / N : 0.0);
  }
  Out.printf("%-18s %10s %12.1f\n", "total", "", Total * 1e6);
}

void Profiler::reportHotBlocks(OutputSink &Out, unsigned TopN) const {
  Out.printf("\n== profile: hot blocks (top %u by executions) ==\n", TopN);
  Out.printf("%4s %-10s %12s %6s %5s %6s %12s\n", "rank", "addr", "execs",
             "insns", "tier", "xlate", "xlate(us)");
  std::vector<std::pair<uint32_t, const BlockInfo *>> Ranked;
  Ranked.reserve(Blocks.size());
  for (const auto &[Addr, B] : Blocks)
    Ranked.push_back({Addr, &B});
  std::sort(Ranked.begin(), Ranked.end(),
            [](const auto &A, const auto &B) {
              return A.second->Execs > B.second->Execs;
            });
  unsigned N = std::min<unsigned>(TopN, static_cast<unsigned>(Ranked.size()));
  for (unsigned I = 0; I != N; ++I) {
    const BlockInfo &B = *Ranked[I].second;
    Out.printf("%4u 0x%08X %12llu %6u %5u %6u %12.1f\n", I + 1,
               Ranked[I].first, static_cast<unsigned long long>(B.Execs),
               B.NumInsns, B.Tier, B.Translations, B.TranslateSeconds * 1e6);
  }
  Out.printf("(%zu blocks profiled)\n", Blocks.size());
}
