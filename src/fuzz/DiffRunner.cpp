//===-- fuzz/DiffRunner.cpp - Oracle-vs-JIT differential executor ---------==//

#include "fuzz/DiffRunner.h"

#include "server/TransServer.h"
#include "support/Errors.h"
#include "tools/ICnt.h"
#include "tools/Memcheck.h"
#include "tools/ToolFactory.h"

#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>

#include <unistd.h>

using namespace vg;
using namespace vg::fuzz;

namespace {

// Generous for hygienic programs (well under 100k retired instructions),
// tight enough that a miscompiled loop surfaces as a "completed" divergence
// in well under a second.
constexpr uint64_t OracleMaxInsns = 20'000'000;
constexpr uint64_t CoreMaxBlocks = 300'000;

std::string brief(const std::string &S) {
  if (S.size() <= 96)
    return S;
  return S.substr(0, 96) + "...(" + std::to_string(S.size()) + "B)";
}

void compareReports(const RunReport &Oracle, const RunReport &Got,
                    const FuzzConfig &C, const std::string &Name,
                    const Tool *T, const FuzzProgram &P,
                    std::vector<Divergence> &Out) {
  auto div = [&](const char *Field, std::string E, std::string G) {
    Out.push_back({Name, Field, std::move(E), std::move(G)});
  };
  if (Oracle.Completed != Got.Completed)
    div("completed", Oracle.Completed ? "completed" : "did-not-complete",
        Got.Completed ? "completed" : "did-not-complete");
  if (Oracle.FatalSignal != Got.FatalSignal)
    div("fatalsig", std::to_string(Oracle.FatalSignal),
        std::to_string(Got.FatalSignal));
  if (Oracle.ExitCode != Got.ExitCode)
    div("exit", std::to_string(Oracle.ExitCode),
        std::to_string(Got.ExitCode));
  if (Oracle.Stdout != Got.Stdout)
    div("stdout", brief(Oracle.Stdout), brief(Got.Stdout));

  // Tool invariants — only meaningful when both runs completed.
  if (!Oracle.Completed || !Got.Completed)
    return;
  // Signal programs execute handler instructions only under the core, so
  // the count equality only holds for signal-free programs.
  const ICnt *Counter = dynamic_cast<const ICnt *>(T);
  if (Counter && !P.Signals && Counter->count() != Oracle.NativeInsns)
    div("icnt", std::to_string(Oracle.NativeInsns),
        std::to_string(Counter->count()));
  const Memcheck *Mc = dynamic_cast<const Memcheck *>(T);
  if (Mc && Mc->uniqueErrors() != 0)
    div("mc-errors", "0", std::to_string(Mc->uniqueErrors()));
  if (P.Smc && checksSmcRetrans(C) && Got.Stats.SmcRetranslations == 0)
    div("smc", ">=1 retranslation", "0");
}

} // namespace

bool vg::fuzz::checksSmcRetrans(const FuzzConfig &C) {
  for (const std::string &O : C.Opts)
    if (O.rfind("--hot-threshold", 0) == 0 ||
        O.rfind("--fault-inject", 0) == 0)
      return false;
  return true;
}

std::vector<FuzzConfig> vg::fuzz::defaultMatrix(const FuzzProgram &P) {
  // Scheduler fuzzing: only observation-neutral fault kinds (preempts,
  // translation-table flushes, and signal storms when handlers exist —
  // anything else perturbs guest-visible results by design); rates are
  // 1-in-N.
  std::ostringstream Fault;
  Fault << "--fault-inject=preempt:20,ttflush:50"
        << (P.Signals ? ",sigstorm:20" : "")
        << ",seed=" << (P.Seed ^ 0xFA01Du);
  using Opts = std::vector<std::string>;
  const Opts Hot2 = {"--chaining=yes", "--hot-threshold=2"};
  const Opts Hot3 = {"--chaining=yes", "--hot-threshold=3"};
  // Trace tier: aggressive thresholds so fuzz-sized loops actually stitch
  // traces.
  const Opts Traces = {"--chaining=yes", "--hot-threshold=2",
                       "--trace-tier=yes", "--trace-threshold=8"};
  std::vector<FuzzConfig> M = {
      // The paper's unchained dispatcher (Section 3.9) stays under the
      // oracle; cells without a --chaining flag run the chained default.
      {"nulgrind", "nulgrind", {"--chaining=no"}},
      {"nulgrind-noopt", "nulgrind", {"--no-iropt"}},
      {"nulgrind-chain", "nulgrind", Hot2},
      {"nulgrind-verify", "nulgrind", {"--verify-ir"}},
      {"nulgrind-fault", "nulgrind", {Fault.str()}},
      {"nulgrind-traces", "nulgrind", Traces},
      {"icnt", "icnt", {}},
      {"icntc", "icntc", {"--chaining=yes"}},
      {"memcheck", "memcheck", Hot3},
      {"memcheck-traces", "memcheck", Traces},
      {"cachegrind", "cachegrind", {}},
      {"taintgrind", "taintgrind", {}},
      // Client-request cell: requests end blocks with JumpKind::ClientReq,
      // and the ClReq/ClReqCore/ClReqTool atoms put them in every program,
      // so this cell drives them across every tier boundary at once —
      // chained blocks, hot promotion, and trace stitching. The JIT and the
      // RefInterp oracle must agree on every request's result.
      {"nulgrind-creq", "nulgrind", Traces},
      // Loopgrind: its entry dirty call rides inside every translation, and
      // the LG-tagged atoms flip collection on and off mid-program. Guest-
      // visible state must be bit-identical to the oracle regardless.
      {"loopgrind", "loopgrind", Traces},
      // Persistent translation cache. SMC programs get --smc-check=all
      // below, which marks every block non-cacheable; the cells then
      // degenerate to plain double runs, still divergence-checked.
      {"nulgrind-cache", "nulgrind", Hot2, RunMode::CacheTwice},
      {"memcheck-cache", "memcheck", Hot3, RunMode::CacheTwice},
      {"nulgrind-served", "nulgrind", Hot2, RunMode::ServeTwice},
  };
  if (P.Smc)
    for (FuzzConfig &C : M)
      C.Opts.push_back("--smc-check=all");
  return M;
}

FuzzConfig vg::fuzz::cellFor(const FuzzProgram &P, const Divergence &D) {
  std::vector<FuzzConfig> M = defaultMatrix(P);
  if (D.Config == "oracle")
    return M.front();
  for (const FuzzConfig &C : M)
    if (D.Config == C.Name ||
        (C.Mode != RunMode::Once && D.Config == C.Name + "-warm"))
      return C;
  fatalError(("no fuzz matrix cell is named '" + D.Config + "'").c_str());
}

/// A unique scratch directory per two-run cell: fuzz processes run in
/// parallel under ctest, so the name carries the pid, and diffRun is
/// re-entered per iteration, so it also carries a process-wide counter.
static std::string freshCacheDir() {
  static std::atomic<uint64_t> Counter{0};
  std::filesystem::path P =
      std::filesystem::temp_directory_path() /
      ("vgfuzz-ttc-" + std::to_string(getpid()) + "-" +
       std::to_string(Counter.fetch_add(1)));
  return P.string();
}

static void runOne(const FuzzProgram &P, const GuestImage &Img,
                   const RunReport &Oracle, const FuzzConfig &C,
                   std::vector<Divergence> &Out) {
  std::vector<std::string> Opts = C.Opts;
  auto runAs = [&](const std::string &Name) {
    std::unique_ptr<Tool> T = makeTool(C.ToolName);
    if (!T) {
      Out.push_back({Name, "config", "known tool", C.ToolName});
      return;
    }
    RunReport Got =
        runUnderCore(Img, T.get(), Opts, P.StdinData, CoreMaxBlocks);
    compareReports(Oracle, Got, C, Name, T.get(), P, Out);
  };
  if (C.Mode == RunMode::Once) {
    runAs(C.Name);
    return;
  }
  std::string Dir = freshCacheDir();
  std::optional<TransServer> Server;
  if (C.Mode == RunMode::ServeTwice) {
    TransServer::Options SO;
    SO.Dir = Dir;
    SO.SocketPath = Dir + ".sock";
    std::string SrvErr;
    if (!Server.emplace(SO).start(SrvErr)) {
      // No socket to serve on (exotic sandbox): the client would just fall
      // back to inline JIT, which the plain cells already cover — skip.
      std::error_code EC;
      std::filesystem::remove_all(Dir, EC);
      return;
    }
    Opts.push_back("--tt-server=" + SO.SocketPath);
  } else {
    Opts.push_back("--tt-cache=" + Dir);
  }
  runAs(C.Name);           // cold: populates the cache or warms the daemon
  runAs(C.Name + "-warm"); // warm: installs what the cold run produced
  if (Server)
    Server->stop();
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

DiffResult vg::fuzz::diffRun(const FuzzProgram &P,
                             const std::vector<FuzzConfig> &M) {
  DiffResult R;
  GuestImage Img = render(P);
  RunReport Oracle = runNative(Img, P.StdinData, OracleMaxInsns);
  if (!Oracle.Completed) {
    // The oracle itself must always terminate cleanly — anything else is a
    // generator-hygiene bug worth shrinking and reporting the same way.
    R.Divs.push_back({"oracle", "completed", "completed",
                      Oracle.FatalSignal
                          ? "fatal signal " + std::to_string(Oracle.FatalSignal)
                          : "did-not-complete"});
    return R;
  }
  for (const FuzzConfig &C : M)
    runOne(P, Img, Oracle, C, R.Divs);
  return R;
}
