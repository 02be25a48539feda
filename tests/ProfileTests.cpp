//===-- tests/ProfileTests.cpp - Golden tests for the --profile report ----==//
///
/// \file
/// Pins the text of the --profile report against golden files in
/// tests/goldens/. Two deterministic runs between them put every section
/// on the page: Memcheck on vortex with chaining, the hot and trace tiers,
/// the event tracer and fault injection; and Nulgrind on gcc, unchained
/// (the paper's dispatcher), against a fresh --tt-cache directory and a
/// --tt-server socket nobody listens on.
/// Wall-clock figures are masked; every count, ratio and percentage is
/// compared byte for byte.
///
/// TierCounts pins what the hot and trace tiers do to the counts: every
/// workload under Nulgrind and Memcheck with the tiers on (with --profile,
/// with whole-table flushes during promotions, unchained), one line per
/// run with every counter and a hash of each resident translation's
/// entry, edge and check-point state.
///
/// To regenerate after an intentional change to the report or the counts:
///
///   UPDATE_GOLDENS=1 ./build/tests/test_profile
///
//===----------------------------------------------------------------------===//

#include "core/Launcher.h"
#include "support/Hashing.h"
#include "tools/Memcheck.h"
#include "tools/Nulgrind.h"
#include "tools/ToolFactory.h"
#include "workloads/Workloads.h"

#include "GoldenFile.h"
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>

using namespace vg;
namespace fs = std::filesystem;

namespace {

/// The length of the decimal "<digits>.<digits>" at \p Pos of \p S, or 0.
size_t decimalAt(const std::string &S, size_t Pos) {
  auto Digits = [&S](size_t P) {
    return std::min(S.find_first_not_of("0123456789", P), S.size()) - P;
  };
  size_t Int = Digits(Pos);
  if (Int == 0 || S.compare(Pos + Int, 1, ".") != 0)
    return 0;
  size_t Frac = Digits(Pos + Int + 1);
  return Frac == 0 ? 0 : Int + 1 + Frac;
}

/// Replaces the wall-clock figures of a report with '*': every "...us"
/// value, and in the phase and hot-block tables every decimal column (the
/// phase total and mean, the hot blocks' xlate(us)) together with its
/// padding, whose width follows the number.
std::string maskTimings(const std::string &Report) {
  std::istringstream In(Report);
  std::string Out, Line;
  bool TimedTable = false;
  while (std::getline(In, Line)) {
    if (Line.rfind("== profile: ", 0) == 0)
      TimedTable = Line.find("translation phases") != std::string::npos ||
                   Line.find("hot blocks") != std::string::npos;
    // A figure starts a run of digits ("...us"), or follows a run of
    // spaces (a table column); any other run is copied whole.
    const char *Run = TimedTable ? " " : "0123456789";
    for (size_t I = 0; I != Line.size();) {
      if (!std::strchr(Run, Line[I])) {
        Out += Line[I++];
        continue;
      }
      size_t End = std::min(Line.find_first_not_of(Run, I), Line.size());
      size_t Len = decimalAt(Line, TimedTable ? End : I);
      if (TimedTable && Len) {
        Out += " *";
        I = End + Len;
      } else if (!TimedTable && Len && Line.compare(I + Len, 2, "us") == 0) {
        Out += "*us";
        I += Len + 2;
      } else {
        Out.append(Line, I, End - I);
        I = End;
      }
    }
    Out += '\n';
  }
  return Out;
}

TEST(ProfileGolden, MemcheckVortexAllTiersFaultsAndEvents) {
  Memcheck T;
  RunReport R = runUnderCore(
      buildWorkload("vortex"), &T,
      {"--chaining=yes", "--hot-threshold=50", "--trace-tier=yes",
       "--trace-events=yes", "--fault-inject=all,seed=3", "--profile=yes"});
  ASSERT_TRUE(R.Completed);
  checkGolden("profile_memcheck_vortex", maskTimings(R.ToolOutput));
}

TEST(ProfileGolden, NulgrindGccColdCacheAndAbsentServer) {
  fs::path Dir = fs::temp_directory_path() /
                 ("vgprof-test-" + std::to_string(getpid()));
  fs::remove_all(Dir);
  Nulgrind T;
  RunReport R = runUnderCore(buildWorkload("gcc"), &T,
                             {"--chaining=no",
                              "--tt-cache=" + (Dir / "cache").string(),
                              "--tt-server=" + (Dir / "absent.sock").string(),
                              "--profile=yes"});
  fs::remove_all(Dir);
  ASSERT_TRUE(R.Completed);
  checkGolden("profile_nulgrind_gcc_cache_server", maskTimings(R.ToolOutput));
}

/// "Name=v1/v2/..." for a group of counters.
std::string counterGroup(const char *Name,
                         std::initializer_list<uint64_t> Values) {
  std::string Out = std::string(" ") + Name + "=";
  for (uint64_t V : Values)
    Out += std::to_string(V) + "/";
  Out.pop_back();
  return Out;
}

/// FNV-1a over every resident translation in address order: its address,
/// tier, instruction count, entry count, per-slot edge counts, check
/// point, trace backoff and trace constituents.
uint64_t residentTierState(const TransTab &TT) {
  std::vector<const Translation *> Ts;
  TT.forEach([&](const Translation &T) { Ts.push_back(&T); });
  std::sort(Ts.begin(), Ts.end(),
            [](const Translation *A, const Translation *B) {
              return A->Addr < B->Addr;
            });
  uint64_t H = FnvOffsetBasis;
  auto Mix = [&H](uint64_t V) {
    H = hashBytes(reinterpret_cast<const uint8_t *>(&V), sizeof(V), H);
  };
  for (const Translation *T : Ts) {
    for (uint64_t V : {uint64_t{T->Addr}, uint64_t{T->Tier},
                       uint64_t{T->NumInsns}, T->Blob.ExecCount})
      Mix(V);
    Mix(T->Blob.EdgeExecs.size());
    for (uint64_t E : T->Blob.EdgeExecs)
      Mix(E);
    Mix(T->Blob.CheckPoint);
    Mix(T->TraceRetryAt);
    Mix(T->TraceEntries.size());
    for (uint32_t E : T->TraceEntries)
      Mix(E);
  }
  return H;
}

/// One TierCounts row: the run's exit code, its stdout, every CoreStats,
/// TransTab::Stats and JitStats count (timings left out) and the resident
/// translations' tier state.
std::string tierCountsRow(const std::string &ToolName, const char *Config,
                          const std::vector<std::string> &Opts,
                          const std::string &Workload) {
  std::string Run = ToolName + " " + Config + " " + Workload;
  GuestImage Img = buildWorkload(Workload, 1);
  std::unique_ptr<Tool> T = makeTool(ToolName);
  Core C(T.get());
  C.output().useBuffer();
  EXPECT_TRUE(C.options().parse(Opts).empty()) << Run;
  C.applyOptions();
  C.loadImage(Img);
  CoreExit E = C.run(~0ull);
  const std::string &Stdout = C.kernel().stdoutText();
  const CoreStats &S = C.stats();
  const TransTab::Stats &TS = C.transTab().stats();
  const JitStats &J = C.translationService().jitStats();
  if (std::find(Opts.begin(), Opts.end(), "--profile=yes") != Opts.end())
    C.transTab().forEach([&](const Translation &Tr) {
      EXPECT_EQ(Tr.Blob.CheckPoint, 0u) << Run << " @" << Tr.Addr;
    });
  char Hashes[80];
  std::snprintf(Hashes, sizeof(Hashes), " stdout=%016" PRIx64
                " resident=%016" PRIx64,
                hashBytes(reinterpret_cast<const uint8_t *>(Stdout.data()),
                          Stdout.size()),
                residentTierState(C.transTab()));
  return Run + " exit=" + std::to_string(static_cast<int>(E.K)) + "/" +
         std::to_string(E.Code) + "/" + std::to_string(E.Signal) + Hashes +
         counterGroup("core",
                      {S.BlocksDispatched, S.FastCacheHits, S.FastCacheMisses,
                       S.Translations, S.GuestInsnsTranslated,
                       S.ThreadSwitches, S.SignalsDelivered, S.SignalsDropped,
                       S.SmcRetranslations, S.ChainedTransfers,
                       S.HostRedirectCalls, S.HotPromotions, S.TracesFormed,
                       S.TraceExecs, S.TraceSideExits}) +
         counterGroup("tt", {TS.Inserts, TS.Lookups, TS.Hits, TS.FastHits,
                             TS.EvictionRuns, TS.Evicted, TS.Invalidated,
                             TS.ChainsFilled, TS.Unchains}) +
         counterGroup("jit",
                      {J.CacheHits, J.CacheMisses, J.CacheRejects,
                       J.CacheWrites, J.TraceRequests, J.TraceInstalled,
                       J.TraceAborts, J.TraceDeadFlagPuts, J.TraceProbesCSEd,
                       J.ServerRequests, J.ServerHits, J.ServerMisses,
                       J.ServerRejects, J.ServerTimeouts, J.ServerRetries,
                       J.ServerFallbacks, J.ServerWrites,
                       J.ServerBytesFetched, J.ServerBytesSent}) +
         "\n";
}

TEST(ProfileGolden, TierCounts) {
  const std::pair<const char *, std::vector<std::string>> Configs[] = {
      {"hot20", {"--hot-threshold=20"}},
      {"hot20-trace", {"--hot-threshold=20", "--trace-tier=yes"}},
      {"hot20-trace-profile",
       {"--hot-threshold=20", "--trace-tier=yes", "--profile=yes"}},
      {"hot20-trace-ttflush",
       {"--hot-threshold=20", "--trace-tier=yes",
        "--fault-inject=ttflush:8,seed=3"}},
      {"unchained-hot20", {"--chaining=no", "--hot-threshold=20"}},
  };
  std::vector<std::string> Workloads;
  for (const WorkloadInfo &W : allWorkloads(/*WithExtras=*/true))
    Workloads.push_back(W.Name);
  std::string Out =
      "# tool config workload exit=kind/code/signal stdout=<fnv> "
      "resident=<fnv of each translation's addr, tier, insns, execs, edge "
      "execs, check point, trace retry, trace entries>\n"
      "# core=blocks/fast-hits/fast-misses/translations/insns/switches/"
      "sig-delivered/sig-dropped/smc-retrans/chained/host-redirects/"
      "hot-promotions/traces-formed/trace-execs/trace-side-exits\n"
      "# tt=inserts/lookups/hits/fast-hits/eviction-runs/evicted/"
      "invalidated/chains-filled/unchains\n"
      "# jit=cache-hits/misses/rejects/writes/trace-requests/installed/"
      "aborts/dead-flag-puts/probes-csed/server-requests/hits/misses/"
      "rejects/timeouts/retries/fallbacks/writes/bytes-fetched/bytes-sent\n";
  for (const char *ToolName : {"nulgrind", "memcheck"})
    for (const auto &[Config, Opts] : Configs)
      for (const std::string &W : Workloads)
        Out += tierCountsRow(ToolName, Config, Opts, W);
  checkGolden("tier_counts", Out);
}

} // namespace
