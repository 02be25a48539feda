//===-- support/Profile.cpp - Dispatcher/translation profiling ------------==//

#include "support/Profile.h"

#include "support/Output.h"

#include <algorithm>
#include <chrono>
#include <vector>

using namespace vg;

namespace {

double now() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

} // namespace

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

Profiler::Timer::Timer(Profiler *P, ProfPhase Ph)
    : P(P), Ph(Ph), T0(P ? now() : 0) {}

Profiler::Timer::~Timer() {
  if (P)
    P->notePhaseSeconds(Ph, now() - T0);
}

void Profiler::notePhaseSeconds(ProfPhase Ph, double Seconds) {
  unsigned I = static_cast<unsigned>(Ph);
  PhaseSeconds[I] += Seconds;
  ++PhaseCounts[I];
}

void Profiler::noteTranslation(uint32_t Addr, uint32_t NumInsns,
                               unsigned Tier, double Seconds) {
  BlockInfo &B = Blocks[Addr];
  B.NumInsns = NumInsns;
  ++B.Translations;
  B.Tier = std::max(B.Tier, Tier);
  B.TranslateSeconds += Seconds;
}

void Profiler::report(OutputSink &Out, const ProfCounters &C,
                      unsigned TopN) const {
  Out.printf("== profile: translation phases ==\n");
  Out.printf("%-18s %10s %12s %12s\n", "phase", "runs", "total(us)",
             "mean(us)");
  double Total = 0;
  for (unsigned I = 0; I != NPhases; ++I) {
    Total += PhaseSeconds[I];
    Out.printf("%-18s %10llu %12.1f %12.3f\n",
               profPhaseName(static_cast<ProfPhase>(I)),
               static_cast<unsigned long long>(PhaseCounts[I]),
               PhaseSeconds[I] * 1e6,
               PhaseCounts[I] ? PhaseSeconds[I] * 1e6 / PhaseCounts[I] : 0.0);
  }
  Out.printf("%-18s %10s %12.1f\n", "total", "", Total * 1e6);

  Out.printf("\n== profile: dispatcher ==\n");
  Out.printf("blocks=%llu dispatcher-entries=%llu chained=%llu\n",
             static_cast<unsigned long long>(C.BlocksDispatched),
             static_cast<unsigned long long>(C.DispatcherEntries),
             static_cast<unsigned long long>(C.ChainedTransfers));
  uint64_t FC = C.FastCacheHits + C.FastCacheMisses;
  Out.printf("fast-cache hits=%llu misses=%llu (%.2f%%)\n",
             static_cast<unsigned long long>(C.FastCacheHits),
             static_cast<unsigned long long>(C.FastCacheMisses),
             FC ? 100.0 * static_cast<double>(C.FastCacheHits) /
                      static_cast<double>(FC)
                : 0.0);
  Out.printf("table lookups=%llu hits=%llu chains-filled=%llu "
             "unchains=%llu\n",
             static_cast<unsigned long long>(C.TableLookups),
             static_cast<unsigned long long>(C.TableHits),
             static_cast<unsigned long long>(C.ChainsFilled),
             static_cast<unsigned long long>(C.Unchains));
  Out.printf("translations=%llu hot-promotions=%llu eviction-runs=%llu "
             "evicted=%llu invalidated=%llu\n",
             static_cast<unsigned long long>(C.Translations),
             static_cast<unsigned long long>(C.HotPromotions),
             static_cast<unsigned long long>(C.EvictionRuns),
             static_cast<unsigned long long>(C.Evicted),
             static_cast<unsigned long long>(C.Invalidated));
  Out.printf("promotion stall: hot-promotions=%llu inline=%.1fus\n",
             static_cast<unsigned long long>(C.HotPromotions),
             C.PromotionStallSeconds * 1e6);

  if (C.HasShadow) {
    Out.printf("\n== profile: shadow memory ==\n");
    uint64_t Loads = C.ShadowFastLoads + C.ShadowSlowLoads;
    uint64_t Stores = C.ShadowFastStores + C.ShadowSlowStores;
    Out.printf("probe loads fast=%llu slow=%llu (%.2f%% fast)\n",
               static_cast<unsigned long long>(C.ShadowFastLoads),
               static_cast<unsigned long long>(C.ShadowSlowLoads),
               Loads ? 100.0 * static_cast<double>(C.ShadowFastLoads) /
                           static_cast<double>(Loads)
                     : 0.0);
    Out.printf("probe stores fast=%llu slow=%llu (%.2f%% fast)\n",
               static_cast<unsigned long long>(C.ShadowFastStores),
               static_cast<unsigned long long>(C.ShadowSlowStores),
               Stores ? 100.0 * static_cast<double>(C.ShadowFastStores) /
                            static_cast<double>(Stores)
                      : 0.0);
    uint64_t SC = C.ShadowSecCacheHits + C.ShadowSecCacheMisses;
    Out.printf("secondary cache hits=%llu misses=%llu (%.2f%%)\n",
               static_cast<unsigned long long>(C.ShadowSecCacheHits),
               static_cast<unsigned long long>(C.ShadowSecCacheMisses),
               SC ? 100.0 * static_cast<double>(C.ShadowSecCacheHits) /
                        static_cast<double>(SC)
                  : 0.0);
    Out.printf("chunks materialised=%llu reclaimed=%llu live=%llu "
               "high-water=%llu\n",
               static_cast<unsigned long long>(C.ShadowChunksMaterialised),
               static_cast<unsigned long long>(C.ShadowChunksReclaimed),
               static_cast<unsigned long long>(C.ShadowChunksLive),
               static_cast<unsigned long long>(C.ShadowChunksHighWater));
  }

  Out.printf("\n== profile: scheduler/signals ==\n");
  Out.printf("thread-switches=%llu signals delivered=%llu dropped=%llu\n",
             static_cast<unsigned long long>(C.ThreadSwitches),
             static_cast<unsigned long long>(C.SignalsDelivered),
             static_cast<unsigned long long>(C.SignalsDropped));

  if (C.HasFaults) {
    Out.printf("\n== profile: fault injection ==\n");
    uint64_t Injected = 0;
    for (unsigned I = 0; I != 8; ++I)
      Injected += C.FaultsInjected[I];
    Out.printf("rolls=%llu injected=%llu\n",
               static_cast<unsigned long long>(C.FaultRolls),
               static_cast<unsigned long long>(Injected));
    for (unsigned I = 0; I != 8 && C.FaultNames[I]; ++I)
      Out.printf("  %-12s %llu\n", C.FaultNames[I],
                 static_cast<unsigned long long>(C.FaultsInjected[I]));
  }

  if (C.HasTraces) {
    Out.printf("\n== profile: trace tier ==\n");
    Out.printf("requests=%llu traces-formed=%llu aborts=%llu\n",
               static_cast<unsigned long long>(C.TraceRequests),
               static_cast<unsigned long long>(C.TracesFormed),
               static_cast<unsigned long long>(C.TraceAborts));
    Out.printf("trace-execs=%llu side-exits=%llu (%.2f%% side-exit rate)\n",
               static_cast<unsigned long long>(C.TraceExecs),
               static_cast<unsigned long long>(C.TraceSideExits),
               C.TraceExecs ? 100.0 * static_cast<double>(C.TraceSideExits) /
                                  static_cast<double>(C.TraceExecs)
                            : 0.0);
    Out.printf("dead-flag-puts-eliminated=%llu probes-csed=%llu\n",
               static_cast<unsigned long long>(C.TraceDeadFlagPuts),
               static_cast<unsigned long long>(C.TraceProbesCSEd));
  }

  if (C.HasTransCache) {
    Out.printf("\n== profile: translation cache ==\n");
    uint64_t Lookups = C.CacheHits + C.CacheMisses + C.CacheRejects;
    Out.printf("lookups=%llu hits=%llu misses=%llu rejects=%llu "
               "(%.2f%% hit)\n",
               static_cast<unsigned long long>(Lookups),
               static_cast<unsigned long long>(C.CacheHits),
               static_cast<unsigned long long>(C.CacheMisses),
               static_cast<unsigned long long>(C.CacheRejects),
               Lookups ? 100.0 * static_cast<double>(C.CacheHits) /
                             static_cast<double>(Lookups)
                       : 0.0);
    Out.printf("writes=%llu evicted-files=%llu dir-bytes=%llu\n",
               static_cast<unsigned long long>(C.CacheWrites),
               static_cast<unsigned long long>(C.CacheEvictedFiles),
               static_cast<unsigned long long>(C.CacheDirBytes));
    Out.printf("load total=%.1fus mean=%.1fus store total=%.1fus "
               "mean=%.1fus\n",
               C.CacheLoadSeconds * 1e6,
               C.CacheHits ? C.CacheLoadSeconds * 1e6 /
                                 static_cast<double>(C.CacheHits)
                           : 0.0,
               C.CacheStoreSeconds * 1e6,
               C.CacheWrites ? C.CacheStoreSeconds * 1e6 /
                                   static_cast<double>(C.CacheWrites)
                             : 0.0);
  }

  if (C.HasTransServer) {
    Out.printf("\n== profile: translation server ==\n");
    Out.printf("server requests=%llu hits=%llu misses=%llu rejects=%llu "
               "(%.2f%% hit)\n",
               static_cast<unsigned long long>(C.ServerRequests),
               static_cast<unsigned long long>(C.ServerHits),
               static_cast<unsigned long long>(C.ServerMisses),
               static_cast<unsigned long long>(C.ServerRejects),
               C.ServerRequests
                   ? 100.0 * static_cast<double>(C.ServerHits) /
                         static_cast<double>(C.ServerRequests)
                   : 0.0);
    Out.printf("server timeouts=%llu retries=%llu fallbacks=%llu "
               "writes=%llu alive-at-exit=%s\n",
               static_cast<unsigned long long>(C.ServerTimeouts),
               static_cast<unsigned long long>(C.ServerRetries),
               static_cast<unsigned long long>(C.ServerFallbacks),
               static_cast<unsigned long long>(C.ServerWrites),
               C.ServerAlive ? "yes" : "no");
    Out.printf("server bytes fetched=%llu sent=%llu fetch total=%.1fus "
               "mean=%.1fus\n",
               static_cast<unsigned long long>(C.ServerBytesFetched),
               static_cast<unsigned long long>(C.ServerBytesSent),
               C.ServerFetchSeconds * 1e6,
               C.ServerHits ? C.ServerFetchSeconds * 1e6 /
                                  static_cast<double>(C.ServerHits)
                            : 0.0);
  }

  if (C.HasTrace) {
    Out.printf("\n== profile: event trace ==\n");
    Out.printf("recorded=%llu dropped=%llu syscalls=%llu signal-records="
               "%llu\n",
               static_cast<unsigned long long>(C.TraceRecorded),
               static_cast<unsigned long long>(C.TraceDropped),
               static_cast<unsigned long long>(C.TraceSyscalls),
               static_cast<unsigned long long>(C.TraceSignals));
  }

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
