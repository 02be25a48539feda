//===-- fuzz/vgfuzz.cpp - Differential fuzzing driver ---------------------==//
///
/// \file
/// The command-line front end of the differential fuzzing subsystem:
///
///   vgfuzz --iters=200 --seed=1          # campaign: generate, diff, shrink
///   vgfuzz --replay=case.vg1             # rerun a saved repro (full matrix)
///   vgfuzz --corpus=fuzz/corpus          # replay every saved repro
///   vgfuzz --self-test --seed=1          # plant an IROpt bug, prove the
///                                        # harness catches + shrinks it
///
/// A campaign renders each seeded program, runs RefInterp as oracle against
/// the full config matrix, and on divergence shrinks to a minimal repro and
/// writes it (with a disassembly listing) to --save-dir. Exit status: 0
/// clean, 1 divergence(s) found / replay failed, 2 usage.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"
#include "fuzz/DiffRunner.h"
#include "fuzz/Shrinker.h"
#include "ir/IROpt.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

using namespace vg;
using namespace vg::fuzz;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: vgfuzz [mode] [options]\n"
      "modes (default: campaign)\n"
      "  --replay=FILE       rerun one saved .vg1 case on the full matrix\n"
      "  --corpus=DIR        replay every .vg1 case in DIR\n"
      "  --self-test         plant an IROpt miscompile; prove it is caught\n"
      "                      and shrunk (the harness's smoke-proof)\n"
      "campaign options\n"
      "  --iters=N           programs to generate (default 100)\n"
      "  --seed=S            base seed; program i uses S+i (default 1)\n"
      "  --min-atoms=N --max-atoms=N   body size range (default 4..40)\n"
      "  --signals=auto|never|always   signal-raising programs (default auto)\n"
      "  --smc=auto|never|always       self-modifying programs (default auto)\n"
      "  --config=NAME       restrict the matrix to cells whose name\n"
      "                      contains NAME\n"
      "  --stop-after=K      stop after K divergences (default 5)\n"
      "  --save-dir=DIR      where minimized repros go (default\n"
      "                      vgfuzz-failures)\n"
      "  --quiet             no per-iteration progress\n");
  return 2;
}

int parseTri(const std::string &V) {
  if (V == "never")
    return 0;
  if (V == "auto")
    return 1;
  if (V == "always")
    return 2;
  return -1;
}

std::vector<FuzzConfig> filteredMatrix(const FuzzProgram &P,
                                       const std::string &Filter) {
  std::vector<FuzzConfig> M = defaultMatrix(P);
  if (Filter.empty())
    return M;
  std::vector<FuzzConfig> Out;
  for (auto &C : M)
    if (C.Name.find(Filter) != std::string::npos)
      Out.push_back(std::move(C));
  return Out;
}

/// Replays one program against the matrix, printing per-config verdicts.
bool replayProgram(const FuzzProgram &P, const std::string &Label,
                   const std::string &Filter) {
  DiffResult R = diffRun(P, filteredMatrix(P, Filter));
  if (R.ok()) {
    std::printf("%s: clean (loop=%u atoms=%u%s%s)\n", Label.c_str(),
                P.LoopCount, P.totalAtoms(), P.Signals ? " signals" : "",
                P.Smc ? " smc" : "");
    return true;
  }
  std::printf("%s: DIVERGED\n", Label.c_str());
  for (const Divergence &D : R.Divs)
    std::printf("  %s\n", D.describe().c_str());
  return false;
}

/// Shrinks a diverging program and saves the minimal repro.
void shrinkAndSave(const FuzzProgram &P, const Divergence &First,
                   const std::string &SaveDir, bool Quiet) {
  ShrinkOutcome S = shrinkProgram(P, cellFor(P, First));
  std::error_code EC;
  std::filesystem::create_directories(SaveDir, EC);
  std::string Path =
      SaveDir + "/seed-" + std::to_string(P.Seed) + "-" + First.Config + "-" +
      First.Field + ".vg1";
  bool Saved = saveCase(Path, S.Minimal);
  std::printf("  shrunk: %u -> %u atoms (%u body instrs) in %u evals\n",
              S.AtomsBefore, S.AtomsAfter, S.InstrsAfter, S.Evals);
  std::printf("  minimal divergence: %s\n", S.Div.describe().c_str());
  std::printf("  %s %s\n", Saved ? "saved:" : "FAILED to save:", Path.c_str());
  if (!Quiet) {
    std::string Text = serialize(S.Minimal, /*WithDisasm=*/false);
    std::printf("---- minimal case ----\n%s----------------------\n",
                Text.c_str());
  }
}

int runCampaign(uint64_t Seed, unsigned Iters, const GenOptions &GO,
                const std::string &Filter, unsigned StopAfter,
                const std::string &SaveDir, bool Quiet) {
  unsigned Diverged = 0;
  for (unsigned I = 0; I < Iters; ++I) {
    uint64_t S = Seed + I;
    FuzzProgram P = generate(S, GO);
    DiffResult R = diffRun(P, filteredMatrix(P, Filter));
    if (!Quiet && (I + 1) % 50 == 0)
      std::printf("... %u/%u programs (seed %llu), %u divergence(s)\n", I + 1,
                  Iters, static_cast<unsigned long long>(S), Diverged);
    if (R.ok())
      continue;
    ++Diverged;
    std::printf("seed %llu: DIVERGED (%zu finding(s))\n",
                static_cast<unsigned long long>(S), R.Divs.size());
    for (const Divergence &D : R.Divs)
      std::printf("  %s\n", D.describe().c_str());
    shrinkAndSave(P, R.Divs.front(), SaveDir, Quiet);
    if (Diverged >= StopAfter) {
      std::printf("stopping after %u divergence(s)\n", Diverged);
      break;
    }
  }
  std::printf("vgfuzz: %u program(s), %u divergence(s)\n", Iters, Diverged);
  return Diverged ? 1 : 0;
}

int runSelfTest(uint64_t Seed, unsigned Iters, const GenOptions &GO) {
  std::printf("self-test: planting IROpt bug (Add32(x,1) -> x) ...\n");
  ir::setFuzzPlant(1);
  for (unsigned I = 0; I < Iters; ++I) {
    uint64_t S = Seed + I;
    FuzzProgram P = generate(S, GO);
    DiffResult R = diffRun(P, defaultMatrix(P));
    if (R.ok())
      continue;
    const Divergence &First = R.Divs.front();
    std::printf("self-test: caught at seed %llu: %s\n",
                static_cast<unsigned long long>(S), First.describe().c_str());
    ShrinkOutcome Sh = shrinkProgram(P, cellFor(P, First));
    std::printf("self-test: shrunk %u -> %u atoms, %u body instrs, %u evals\n",
                Sh.AtomsBefore, Sh.AtomsAfter, Sh.InstrsAfter, Sh.Evals);
    std::printf("---- minimal case ----\n%s----------------------\n",
                serialize(Sh.Minimal, false).c_str());
    // With the plant removed the minimal case must be clean again —
    // proving the divergence was the planted bug, not harness noise.
    ir::setFuzzPlant(0);
    DiffResult Clean = diffRun(Sh.Minimal, defaultMatrix(Sh.Minimal));
    if (!Clean.ok()) {
      std::printf("self-test: FAIL: minimal case still diverges without the "
                  "plant:\n");
      for (const Divergence &D : Clean.Divs)
        std::printf("  %s\n", D.describe().c_str());
      return 1;
    }
    if (Sh.InstrsAfter > 8) {
      std::printf("self-test: FAIL: minimal repro has %u body instrs (> 8)\n",
                  Sh.InstrsAfter);
      return 1;
    }
    std::printf("self-test: PASS: planted bug caught and shrunk to %u body "
                "instr(s) (the scaffold's own loop increment carries the "
                "Add32(x,1) pattern)\n",
                Sh.InstrsAfter);
    return 0;
  }
  ir::setFuzzPlant(0);
  std::printf("self-test: FAIL: planted bug not caught in %u programs\n",
              Iters);
  return 1;
}

} // namespace

int main(int argc, char **argv) {
  uint64_t Seed = 1;
  unsigned Iters = 100, StopAfter = 5;
  GenOptions GO;
  std::string Replay, CorpusDir, Filter, SaveDir = "vgfuzz-failures";
  bool SelfTest = false, Quiet = false;

  for (int I = 1; I != argc; ++I) {
    std::string A = argv[I];
    auto val = [&](const char *Pfx) -> const char * {
      size_t N = std::strlen(Pfx);
      return A.rfind(Pfx, 0) == 0 ? A.c_str() + N : nullptr;
    };
    if (const char *V = val("--iters="))
      Iters = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    else if (const char *V = val("--seed="))
      Seed = std::strtoull(V, nullptr, 10);
    else if (const char *V = val("--min-atoms="))
      GO.MinBodyAtoms = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    else if (const char *V = val("--max-atoms="))
      GO.MaxBodyAtoms = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    else if (const char *V = val("--signals=")) {
      if ((GO.Signals = parseTri(V)) < 0)
        return usage();
    } else if (const char *V = val("--smc=")) {
      if ((GO.Smc = parseTri(V)) < 0)
        return usage();
    } else if (const char *V = val("--config="))
      Filter = V;
    else if (const char *V = val("--stop-after="))
      StopAfter = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    else if (const char *V = val("--save-dir="))
      SaveDir = V;
    else if (const char *V = val("--replay="))
      Replay = V;
    else if (const char *V = val("--corpus="))
      CorpusDir = V;
    else if (A == "--self-test")
      SelfTest = true;
    else if (A == "--quiet")
      Quiet = true;
    else
      return usage();
  }
  if (GO.MinBodyAtoms > GO.MaxBodyAtoms || Iters == 0 || StopAfter == 0)
    return usage();

  if (!Replay.empty()) {
    FuzzProgram P;
    std::string Err;
    if (!loadCase(Replay, P, Err)) {
      std::fprintf(stderr, "vgfuzz: %s\n", Err.c_str());
      return 2;
    }
    return replayProgram(P, Replay, Filter) ? 0 : 1;
  }
  if (!CorpusDir.empty()) {
    std::vector<std::string> Cases = listCases(CorpusDir);
    if (Cases.empty()) {
      std::fprintf(stderr, "vgfuzz: no .vg1 cases under %s\n",
                   CorpusDir.c_str());
      return 2;
    }
    bool AllClean = true;
    for (const std::string &Path : Cases) {
      FuzzProgram P;
      std::string Err;
      if (!loadCase(Path, P, Err)) {
        std::fprintf(stderr, "vgfuzz: %s\n", Err.c_str());
        return 2;
      }
      AllClean &= replayProgram(P, Path, Filter);
    }
    return AllClean ? 0 : 1;
  }
  if (SelfTest)
    return runSelfTest(Seed, std::min(Iters, 50u), GO);
  return runCampaign(Seed, Iters, GO, Filter, StopAfter, SaveDir, Quiet);
}
