//===-- perfbench/harness.cpp - Whole-run benchmark of the framework ------==//
///
/// \file
/// Runs guest programs under a tool the way vgrun does (tool and
/// Core construction, option parse/apply, loadImage, run, tool fini), with
/// each tool's default options, and checks every run against the reference
/// interpreter (runNative): same completion, exit code and stdout, and no
/// Memcheck error.
///
/// A run repeats "passes" over its workload's program set until the time
/// budget is spent and reports medians over passes. Untraced (--trace 0)
/// it prints the end-to-end metrics. Traced (--trace 1) it also runs every
/// program under a timed subclass of the tool and prints the per-layer
/// split, which comes from spans around the calls into each layer (taken
/// here, outside the framework) and from the layers' own statistics structs.
///
/// Usage:
///   vgbench --workload NAME --seed N --seconds S --trace 0|1
///           [--spans FILE]
///
/// The last line of stdout is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
///
//===----------------------------------------------------------------------===//

#include "core/Launcher.h"
#include "core/Translate.h"
#include "fuzz/ProgramGen.h"
#include "tools/Memcheck.h"
#include "tools/Nulgrind.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

using namespace vg;

namespace {

double now() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

enum class ToolKind { Nulgrind, Memcheck };

/// One guest program and what the reference interpreter says it does.
struct Program {
  std::string Name;
  GuestImage Img;
  std::string Stdin;
  RunReport Oracle;
};

struct Workload {
  std::string Name;
  ToolKind Tool = ToolKind::Nulgrind;
  std::vector<std::string> Opts; ///< tool options only; core defaults stay
  uint64_t MaxBlocks = ~0ull;
  std::vector<Program> Programs;
};

/// Scale of the long programs: vortex and swim take ~0.1 s each on
/// RefInterp, past the ~50 ms below which per-run noise swamps the
/// slow-down (mcf, ~0.03 s, is there for its scattered memory accesses).
constexpr uint32_t LongScale = 10;
/// Generated programs per memcheck-short pass.
constexpr unsigned ShortPrograms = 300;

/// RefInterp instruction counts of the long programs at LongScale. A
/// mismatch means the inputs changed: the run fails rather than report a
/// changed workload as a changed speed.
const std::map<std::string, uint64_t> &pinnedInsns() {
  static const std::map<std::string, uint64_t> M = {
      {"vortex", 37098288}, {"mcf", 9000104}, {"swim", 24609835}};
  return M;
}

bool buildWorkloadSet(const std::string &Name, uint64_t Seed, Workload &W) {
  W.Name = Name;
  std::vector<std::string> Long;
  if (Name == "nulgrind-long") {
    W.Tool = ToolKind::Nulgrind;
    Long = {"vortex", "swim"};
  } else if (Name == "memcheck-long") {
    W.Tool = ToolKind::Memcheck;
    Long = {"vortex", "mcf", "swim"};
  } else if (Name == "memcheck-short") {
    W.Tool = ToolKind::Memcheck;
    // Leak check costs ~165 ms of fini per program and would hide every
    // other layer; memcheck-long measures it.
    W.Opts = {"--leak-check=no"};
    W.MaxBlocks = 1'000'000; // a runaway program fails instead of hanging
    fuzz::GenOptions GO;
    GO.Signals = 1; // seed-dependent
    GO.Smc = 0; // SMC programs diverge from RefInterp under --smc-check=stack
    fuzz::Rng R(Seed ^ 0x5EEDBE4C4ull);
    for (unsigned I = 0; I != ShortPrograms; ++I) {
      fuzz::FuzzProgram P = fuzz::generate(R.next(), GO);
      W.Programs.push_back({"fuzz" + std::to_string(I), fuzz::render(P),
                            P.StdinData, {}});
    }
    return true;
  } else {
    return false;
  }
  // The long programs are fixed images that read no input, so the seed
  // does not change them.
  for (const std::string &P : Long)
    W.Programs.push_back({P, buildWorkload(P, LongScale), "", {}});
  return true;
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// In-memory span log, written out when the run ends.
struct Span {
  unsigned Id;        ///< one program run
  const char *Name;
  const char *Parent; ///< null for roots
  double Start, End;
  std::string Counters; ///< JSON object snapshotted at End, or empty
};

struct SpanLog {
  bool Enabled = false;
  unsigned Id = 0; ///< the program being run: its index in the workload
  std::vector<Span> Spans;

  void add(const char *Name, const char *Parent, double S, double E,
           std::string Counters = "") {
    if (Enabled)
      Spans.push_back({Id, Name, Parent, S, E, std::move(Counters)});
  }
};

/// Tool-layer timing by subclassing: Memcheck's helpers recover their tool
/// with static_cast<Memcheck *>(ExecContext::Tool), so the timed object
/// must *be* a Memcheck; a forwarding Tool would break that cast.
template <class T> struct Timed : T {
  SpanLog *Log = nullptr;
  double InstrumentSeconds = 0, FiniSeconds = 0;
  uint64_t InstrumentCalls = 0, HeapEvents = 0;

  void instrument(ir::IRSB &SB) override {
    double T0 = now();
    T::instrument(SB);
    double T1 = now();
    InstrumentSeconds += T1 - T0;
    ++InstrumentCalls;
    Log->add("tool.instrument", "run", T0, T1);
  }
  void fini(int ExitCode) override {
    double T0 = now();
    T::fini(ExitCode);
    double T1 = now();
    FiniSeconds += T1 - T0;
    Log->add("tool.fini", "run", T0, T1);
  }
  void onMalloc(int Tid, uint32_t Addr, uint32_t Size, bool Zeroed) override {
    ++HeapEvents;
    T::onMalloc(Tid, Addr, Size, Zeroed);
  }
  void onFree(int Tid, uint32_t Addr, uint32_t Size) override {
    ++HeapEvents;
    T::onFree(Tid, Addr, Size);
  }
  /// The tool's Phase 3 without the timing above (pipeline replay).
  void instrumentUntimed(ir::IRSB &SB) { T::instrument(SB); }
};

template <class T> constexpr bool IsTimed = false;
template <class T> constexpr bool IsTimed<Timed<T>> = true;

/// Per-layer figures of one traced pass (sums over its programs).
struct LayerSample {
  double Construct = 0, Load = 0, Run = 0;
  double Translate = 0, PromoStall = 0;
  uint64_t Translations = 0, InsnsTranslated = 0;
  PhaseTimes Phases;
  double Instrument = 0, Fini = 0;
  uint64_t InstrumentCalls = 0, HeapEvents = 0, Errors = 0;
  uint64_t Blocks = 0, Chained = 0, FastHits = 0, FastMisses = 0;
  uint64_t Lookups = 0, Hits = 0;
  uint64_t HotPromotions = 0, TracesFormed = 0, TraceExecs = 0,
           TraceSideExits = 0;
  uint64_t FastLoads = 0, SlowLoads = 0, FastStores = 0, SlowStores = 0,
           SecHits = 0, SecMisses = 0, ChunksHighWater = 0;
  uint64_t Syscalls = 0, Signals = 0;
};

/// Re-runs the translation pipeline, with a phase-time sink, over every
/// translation resident at the end of the run, with the same frontend
/// limits the core used for its tier. The core's own SMC/SP instrumentation
/// is not replayed, so translate.s minus the phase sum is its cost.
template <class T>
void replayPipeline(Core &C, Timed<T> &Tool, PhaseTimes &Out) {
  struct Block {
    uint32_t Addr;
    uint8_t Tier;
    std::vector<uint32_t> Entries;
  };
  std::vector<Block> Blocks;
  C.transTab().forEach([&](const Translation &X) {
    Blocks.push_back({X.Addr, X.Tier, X.TraceEntries});
  });
  const GuestMemory &Mem = C.memory();
  FetchFn Fetch = [&Mem](uint32_t Addr, uint8_t *Buf,
                         uint32_t MaxLen) -> uint32_t {
    uint32_t N = 0;
    while (N < MaxLen && !Mem.fetch(Addr + N, Buf + N, 1).Faulted)
      ++N;
    return N;
  };
  for (const Block &B : Blocks) {
    TranslationOptions TO;
    TO.PhaseOut = &Out;
    TO.Instrument = [&Tool](ir::IRSB &SB) { Tool.instrumentUntimed(SB); };
    if (B.Tier >= 1) {
      TO.Frontend.MaxInsns = 200;
      TO.Frontend.MaxChases = 16;
    }
    if (B.Tier == 2) {
      size_t N = B.Entries.size();
      TO.Trace.Entries = B.Entries;
      TO.Frontend.MaxInsns =
          static_cast<uint32_t>(std::min<size_t>(200 * N, 1200));
      TO.Frontend.MaxChases = static_cast<uint32_t>(std::min<size_t>(16 * N, 64));
    }
    translateBlock(B.Addr, Fetch, TO);
  }
}

//===----------------------------------------------------------------------===//
// Passes
//===----------------------------------------------------------------------===//

/// Timing and checks of one tool over one pass of the workload's programs.
struct PassResult {
  double Wall = 0, Setup = 0;
  std::vector<double> ProgramWall; ///< per program, workload order
  unsigned Attempted = 0, Failed = 0;
  LayerSample Layers; ///< traced passes only
};

std::string describeMismatch(const Program &P, const CoreExit &E,
                             const std::string &Stdout, uint64_t Errors) {
  const RunReport &O = P.Oracle;
  if (E.K != CoreExit::Kind::Exited)
    return "did not exit";
  if (E.Code != O.ExitCode)
    return "exit " + std::to_string(E.Code) + " vs " +
           std::to_string(O.ExitCode);
  if (Stdout != O.Stdout)
    return "stdout differs from RefInterp";
  if (Errors)
    return std::to_string(Errors) + " Memcheck errors";
  return "";
}

/// The boundaries of one program run.
struct RunTimes {
  double Start, Constructed, Loaded, Returned;
};

/// A traced run's spans, and its layer counters added to \p L.
template <class T>
void recordLayers(Core &C, Timed<T> &Tl, SpanLog &Log, const RunTimes &Tm,
                  uint64_t Errors, LayerSample &L) {
  const CoreStats &CS = C.stats();
  uint64_t Syscalls = C.kernel().syscallCount();
  std::string Counters;
  if (Log.Enabled) {
    char Buf[256];
    std::snprintf(Buf, sizeof Buf,
                  "{\"blocks\": %llu, \"translations\": %llu, "
                  "\"syscalls\": %llu, \"signals\": %llu}",
                  static_cast<unsigned long long>(CS.BlocksDispatched),
                  static_cast<unsigned long long>(CS.Translations),
                  static_cast<unsigned long long>(Syscalls),
                  static_cast<unsigned long long>(CS.SignalsDelivered));
    Counters = Buf;
  }
  Log.add("setup", nullptr, Tm.Start, Tm.Loaded);
  Log.add("core.construct", "setup", Tm.Start, Tm.Constructed);
  Log.add("core.load_image", "setup", Tm.Constructed, Tm.Loaded);
  Log.add("run", nullptr, Tm.Loaded, Tm.Returned, std::move(Counters));

  const TransTab::Stats &TS = C.transTab().stats();
  const JitStats &JS = C.translationService().jitStats();
  L.Construct += Tm.Constructed - Tm.Start;
  L.Load += Tm.Loaded - Tm.Constructed;
  L.Run += Tm.Returned - Tm.Loaded;
  L.Translate += CS.TranslateSeconds;
  L.PromoStall += JS.SyncPromoStallSeconds;
  L.Translations += CS.Translations;
  L.InsnsTranslated += CS.GuestInsnsTranslated;
  L.Instrument += Tl.InstrumentSeconds;
  L.Fini += Tl.FiniSeconds;
  L.InstrumentCalls += Tl.InstrumentCalls;
  L.HeapEvents += Tl.HeapEvents;
  L.Errors += Errors;
  L.Blocks += CS.BlocksDispatched;
  L.Chained += CS.ChainedTransfers;
  L.FastHits += CS.FastCacheHits;
  L.FastMisses += CS.FastCacheMisses;
  L.Lookups += TS.Lookups;
  L.Hits += TS.Hits;
  L.HotPromotions += CS.HotPromotions;
  L.TracesFormed += CS.TracesFormed;
  L.TraceExecs += CS.TraceExecs;
  L.TraceSideExits += CS.TraceSideExits;
  if (const ShadowMap *SM = Tl.shadowMap()) {
    const ShadowStats &SS = SM->stats();
    L.FastLoads += SS.FastLoads;
    L.SlowLoads += SS.SlowLoads;
    L.FastStores += SS.FastStores;
    L.SlowStores += SS.SlowStores;
    L.SecHits += SS.SecCacheHits;
    L.SecMisses += SS.SecCacheMisses;
    L.ChunksHighWater = std::max<uint64_t>(L.ChunksHighWater, SS.HighWater);
  }
  L.Syscalls += Syscalls;
  L.Signals += CS.SignalsDelivered;
  replayPipeline(C, Tl, L.Phases);
}

/// Runs \p P once under a fresh tool T and adds the outcome to \p R. A
/// Timed<> tool makes this a traced run, which records spans into \p Log
/// and adds to R.Layers.
template <class T>
void runProgram(const Workload &W, const Program &P, SpanLog *Log,
                PassResult &R) {
  double T0 = now();
  auto Tl = std::make_unique<T>();
  if constexpr (IsTimed<T>)
    Tl->Log = Log;
  auto C = std::make_unique<Core>(Tl.get());
  C->output().useBuffer();
  std::vector<std::string> Unknown = C->options().parse(W.Opts);
  if (!Unknown.empty()) {
    std::fprintf(stderr, "vgbench: unknown option %s\n", Unknown[0].c_str());
    std::exit(2);
  }
  C->applyOptions();
  C->kernel().provideStdin(P.Stdin);
  double T1 = now();
  C->loadImage(P.Img);
  double T2 = now();
  CoreExit E = C->run(W.MaxBlocks);
  double T3 = now();

  R.Wall += T3 - T0;
  R.Setup += T2 - T0;
  R.ProgramWall.push_back(T3 - T0);
  uint64_t Errors = 0;
  if constexpr (std::is_base_of_v<Memcheck, T>)
    Errors = Tl->uniqueErrors();
  std::string Bad = describeMismatch(P, E, C->kernel().stdoutText(), Errors);
  ++R.Attempted;
  if (!Bad.empty()) {
    ++R.Failed;
    std::fprintf(stderr, "vgbench: MISMATCH %s/%s: %s\n", W.Name.c_str(),
                 P.Name.c_str(), Bad.c_str());
  }
  if constexpr (IsTimed<T>)
    recordLayers(*C, *Tl, *Log, {T0, T1, T2, T3}, Errors, R.Layers);
}

void runTool(const Workload &W, ToolKind K, const Program &P, SpanLog *Log,
             PassResult &R) {
  if (K == ToolKind::Memcheck && Log)
    runProgram<Timed<Memcheck>>(W, P, Log, R);
  else if (K == ToolKind::Memcheck)
    runProgram<Memcheck>(W, P, nullptr, R);
  else if (Log)
    runProgram<Timed<Nulgrind>>(W, P, Log, R);
  else
    runProgram<Nulgrind>(W, P, nullptr, R);
}

/// One pass over the workload. Each program runs on RefInterp and then
/// under the tool (untraced, then traced when \p Trace), back to back, so
/// that a slow spell of a shared host hits every side of a comparison.
struct Iteration {
  double Native = 0;
  std::vector<double> ProgramNative; ///< per program, workload order
  unsigned NativeFailed = 0;
  PassResult Plain, Traced;
};

Iteration runIteration(const Workload &W, bool Trace, SpanLog &Log) {
  Iteration It;
  for (const Program &P : W.Programs) {
    Log.Id = static_cast<unsigned>(&P - W.Programs.data());
    double T0 = now();
    RunReport R = runNative(P.Img, P.Stdin);
    double T1 = now();
    It.Native += T1 - T0;
    It.ProgramNative.push_back(T1 - T0);
    Log.add("native.run", nullptr, T0, T1);
    if (R.Stdout != P.Oracle.Stdout ||
        R.NativeInsns != P.Oracle.NativeInsns) {
      ++It.NativeFailed;
      std::fprintf(stderr, "vgbench: RefInterp is not deterministic on %s\n",
                   P.Name.c_str());
    }
    runTool(W, W.Tool, P, nullptr, It.Plain);
    if (Trace)
      runTool(W, W.Tool, P, &Log, It.Traced);
  }
  return It;
}

//===----------------------------------------------------------------------===//
// Statistics and output
//===----------------------------------------------------------------------===//

double quantile(std::vector<double> V, double Q) {
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

double ratio(double A, double B) { return B > 0 ? A / B : 0; }

double peakRssMb() {
  std::ifstream F("/proc/self/status");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

/// The result's "metrics" object, in insertion order.
class Metrics {
public:
  void add(const char *Name, double Value, const char *Unit) {
    char Buf[256];
    std::snprintf(Buf, sizeof Buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  Json.empty() ? "" : ", ", Name, Value, Unit);
    Json += Buf;
  }
  std::string json() const { return "{" + Json + "}"; }

private:
  std::string Json;
};

/// Median over passes of one per-pass figure.
template <class F>
double medianOf(const std::vector<PassResult> &Passes, F Get) {
  std::vector<double> V;
  for (const PassResult &P : Passes)
    V.push_back(Get(P.Layers));
  return median(V);
}

void addLayerMetrics(Metrics &Out, const std::vector<PassResult> &Traced,
                     double NativeS, uint64_t GuestInsns) {
  using L = const LayerSample &;
  auto Med = [&](auto Get) { return medianOf(Traced, Get); };
  auto Phase = [](L S, ProfPhase Ph) {
    return S.Phases.Seconds[static_cast<unsigned>(Ph)];
  };
  auto PhaseSum = [&](L S) {
    double Sum = 0;
    for (double X : S.Phases.Seconds)
      Sum += X;
    return Sum;
  };
  // The core's run() self time: everything but translation and tool fini
  // (instrument calls happen inside translation). That is dispatch, HVM
  // execution, helpers, shadow memory, syscalls and signals.
  auto Exec = [](L S) { return S.Run - S.Translate - S.Fini; };
  auto D = [](uint64_t X) { return static_cast<double>(X); };

  Out.add("core.construct_s", Med([](L S) { return S.Construct; }), "s");
  Out.add("core.load_image_s", Med([](L S) { return S.Load; }), "s");
  Out.add("run.s", Med([](L S) { return S.Run; }), "s");
  Out.add("translate.s", Med([](L S) { return S.Translate; }), "s");
  Out.add("translate.run_share",
          Med([](L S) { return ratio(S.Translate, S.Run); }), "ratio");
  Out.add("translate.blocks", Med([&](L S) { return D(S.Translations); }),
          "count");
  Out.add("translate.guest_insns",
          Med([&](L S) { return D(S.InsnsTranslated); }), "count");
  Out.add("translate.us_per_guest_insn", Med([&](L S) {
            return 1e6 * ratio(S.Translate, D(S.InsnsTranslated));
          }),
          "us");
  Out.add("translate.promotion_stall_s",
          Med([](L S) { return S.PromoStall; }), "s");
  static const std::pair<const char *, ProfPhase> Phases[] = {
      {"pipeline.disasm_s", ProfPhase::Disasm},
      {"pipeline.opt1_s", ProfPhase::Optimise1},
      {"pipeline.instrument_s", ProfPhase::Instrument},
      {"pipeline.opt2_s", ProfPhase::Optimise2},
      {"pipeline.treebuild_s", ProfPhase::TreeBuild},
      {"pipeline.isel_s", ProfPhase::ISel},
      {"pipeline.regalloc_s", ProfPhase::RegAlloc},
      {"pipeline.encode_s", ProfPhase::Encode}};
  for (const auto &[Name, Ph] : Phases)
    Out.add(Name, Med([&, Ph = Ph](L S) { return Phase(S, Ph); }), "s");
  Out.add("pipeline.sum_s", Med(PhaseSum), "s");
  Out.add("tool.instrument_s", Med([](L S) { return S.Instrument; }), "s");
  Out.add("tool.instrument_calls",
          Med([&](L S) { return D(S.InstrumentCalls); }), "count");
  Out.add("dispatch.blocks", Med([&](L S) { return D(S.Blocks); }), "count");
  Out.add("dispatch.chained", Med([&](L S) { return D(S.Chained); }),
          "count");
  Out.add("dispatch.fastcache_hit_rate", Med([&](L S) {
            return ratio(D(S.FastHits), D(S.FastHits + S.FastMisses));
          }),
          "ratio");
  Out.add("transtab.lookups", Med([&](L S) { return D(S.Lookups); }),
          "count");
  Out.add("transtab.hit_rate",
          Med([&](L S) { return ratio(D(S.Hits), D(S.Lookups)); }), "ratio");
  Out.add("dispatch.ns_per_block",
          Med([&](L S) { return 1e9 * ratio(Exec(S), D(S.Blocks)); }), "ns");
  Out.add("tiers.hot_promotions",
          Med([&](L S) { return D(S.HotPromotions); }), "count");
  Out.add("tiers.traces_formed", Med([&](L S) { return D(S.TracesFormed); }),
          "count");
  Out.add("tiers.trace_side_exit_rate", Med([&](L S) {
            return ratio(D(S.TraceSideExits), D(S.TraceExecs));
          }),
          "ratio");
  Out.add("hvm.exec_s", Med(Exec), "s");
  Out.add("hvm.ns_per_guest_insn",
          Med([&](L S) { return 1e9 * ratio(Exec(S), D(GuestInsns)); }),
          "ns");
  Out.add("shadow.fast_load_rate", Med([&](L S) {
            return ratio(D(S.FastLoads), D(S.FastLoads + S.SlowLoads));
          }),
          "ratio");
  Out.add("shadow.fast_store_rate", Med([&](L S) {
            return ratio(D(S.FastStores), D(S.FastStores + S.SlowStores));
          }),
          "ratio");
  Out.add("shadow.sec_cache_hit_rate", Med([&](L S) {
            return ratio(D(S.SecHits), D(S.SecHits + S.SecMisses));
          }),
          "ratio");
  Out.add("shadow.chunks_high_water",
          Med([&](L S) { return D(S.ChunksHighWater); }), "count");
  Out.add("tool.fini_s", Med([](L S) { return S.Fini; }), "s");
  Out.add("tool.heap_events", Med([&](L S) { return D(S.HeapEvents); }),
          "count");
  Out.add("tool.errors", Med([&](L S) { return D(S.Errors); }), "count");
  Out.add("kernel.syscalls", Med([&](L S) { return D(S.Syscalls); }),
          "count");
  Out.add("signals.delivered", Med([&](L S) { return D(S.Signals); }),
          "count");
  Out.add("native.run_s", NativeS, "s");
  Out.add("input.guest_insns", D(GuestInsns), "count");
}

void writeSpans(const std::string &Path, const SpanLog &Log, double Epoch) {
  std::ofstream F(Path);
  if (!F) {
    std::fprintf(stderr, "vgbench: cannot write %s\n", Path.c_str());
    return;
  }
  for (const Span &S : Log.Spans) {
    char Buf[256];
    std::snprintf(Buf, sizeof Buf,
                  "{\"id\": %u, \"span\": \"%s\", \"parent\": %s%s%s, "
                  "\"start_us\": %.3f, \"end_us\": %.3f",
                  S.Id, S.Name, S.Parent ? "\"" : "",
                  S.Parent ? S.Parent : "null", S.Parent ? "\"" : "",
                  1e6 * (S.Start - Epoch), 1e6 * (S.End - Epoch));
    F << Buf;
    if (!S.Counters.empty())
      F << ", \"counters\": " << S.Counters;
    F << "}\n";
  }
}

int usage() {
  std::fprintf(stderr, "usage: vgbench --workload nulgrind-long|"
                       "memcheck-long|memcheck-short --seed N --seconds S "
                       "--trace 0|1 [--spans FILE]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  std::string WorkloadName, SpansPath;
  uint64_t Seed = 0;
  double Seconds = 0;
  int Trace = -1;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string K = argv[I], V = argv[I + 1];
    if (K == "--workload")
      WorkloadName = V;
    else if (K == "--seed")
      Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      Seconds = std::strtod(V.c_str(), nullptr);
    else if (K == "--trace")
      Trace = std::atoi(V.c_str());
    else if (K == "--spans")
      SpansPath = V;
    else
      return usage();
  }
  Workload W;
  if (argc % 2 == 0 || Seconds <= 0 || (Trace != 0 && Trace != 1) ||
      !buildWorkloadSet(WorkloadName, Seed, W))
    return usage();

  // Oracle runs: the expected output of every program, and the input check.
  bool Correct = true;
  uint64_t GuestInsns = 0;
  for (Program &P : W.Programs) {
    P.Oracle = runNative(P.Img, P.Stdin);
    GuestInsns += P.Oracle.NativeInsns;
    if (!P.Oracle.Completed) {
      std::fprintf(stderr, "vgbench: %s does not complete under RefInterp\n",
                   P.Name.c_str());
      Correct = false;
    }
    auto Pin = pinnedInsns().find(P.Name);
    if (Pin != pinnedInsns().end() && Pin->second != P.Oracle.NativeInsns) {
      std::fprintf(stderr,
                   "vgbench: INPUT CHANGED: %s runs %llu guest insns, "
                   "pinned %llu\n",
                   P.Name.c_str(),
                   static_cast<unsigned long long>(P.Oracle.NativeInsns),
                   static_cast<unsigned long long>(Pin->second));
      Correct = false;
    }
  }
  std::printf("workload %s seed %llu: %zu programs, %llu guest insns per "
              "pass (RefInterp)\n",
              W.Name.c_str(), static_cast<unsigned long long>(Seed),
              W.Programs.size(), static_cast<unsigned long long>(GuestInsns));

  SpanLog Log;
  Log.Enabled = Trace && !SpansPath.empty();
  std::vector<Iteration> Its;
  double Epoch = now(), Deadline = Epoch + Seconds;
  do {
    Its.push_back(runIteration(W, Trace, Log));
    Log.Enabled = false; // spans of the first pass only
  } while (now() < Deadline);
  double PeakRssMb = peakRssMb(); // before the shape check's extra pass

  unsigned Attempted = 0, Failed = 0;
  std::vector<double> Walls, Setups, Natives, Slowdowns, ProgramP50,
      ProgramP95, ProgramSlowP50, ProgramSlowP95, TraceCosts;
  std::vector<PassResult> TracedPasses;
  for (const Iteration &It : Its) {
    Attempted += It.Plain.Attempted + It.Traced.Attempted;
    Failed += It.NativeFailed + It.Plain.Failed + It.Traced.Failed;
    Walls.push_back(It.Plain.Wall);
    Setups.push_back(It.Plain.Setup);
    Natives.push_back(It.Native);
    Slowdowns.push_back(It.Plain.Wall / It.Native);
    // Per-program percentiles within the pass: the long workloads have two
    // or three programs of different lengths, whose pooled samples would
    // put the median between clusters.
    ProgramP50.push_back(1e3 * quantile(It.Plain.ProgramWall, 0.5));
    ProgramP95.push_back(1e3 * quantile(It.Plain.ProgramWall, 0.95));
    std::vector<double> Ratios;
    for (size_t I = 0; I != W.Programs.size(); ++I)
      Ratios.push_back(It.Plain.ProgramWall[I] / It.ProgramNative[I]);
    ProgramSlowP50.push_back(quantile(Ratios, 0.5));
    ProgramSlowP95.push_back(quantile(Ratios, 0.95));
    if (Trace) {
      TraceCosts.push_back(It.Traced.Wall / It.Plain.Wall - 1);
      TracedPasses.push_back(It.Traced);
    }
  }
  double WallS = median(Walls), NativeS = median(Natives);
  std::printf("%zu passes; median pass: %.4f s under the tool, %.4f s "
              "native; passes (s):",
              Its.size(), WallS, NativeS);
  for (double S : Walls)
    std::printf(" %.4f", S);
  std::printf("\n");

  // The paper's Table 2 shape, Nulgrind << Memcheck: one Nulgrind pass
  // over the same programs must beat Memcheck's median pass.
  if (W.Name == "memcheck-long") {
    PassResult Nul;
    for (const Program &P : W.Programs)
      runTool(W, ToolKind::Nulgrind, P, nullptr, Nul);
    Attempted += Nul.Attempted;
    Failed += Nul.Failed;
    bool Shape = Nul.Wall < WallS;
    std::printf("paper shape: slowdown nulgrind %.2fx < memcheck %.2fx: %s\n",
                Nul.Wall / NativeS, WallS / NativeS,
                Shape ? "holds" : "VIOLATED");
    Correct = Correct && Shape;
  }
  Correct = Correct && Failed == 0;

  // Untraced: the end-to-end metrics. Apart from setup_s they are ratios to
  // RefInterp runs made back to back with the tool's, so a drift in the
  // host's speed cancels. The absolute times follow that drift; the traced
  // run prints them, from its untraced passes, with the layer split.
  Metrics Out;
  if (!Trace) {
    Out.add("slowdown", median(Slowdowns), "x");
    Out.add("program_slowdown_p50", median(ProgramSlowP50), "x");
    Out.add("program_slowdown_p95", median(ProgramSlowP95), "x");
    Out.add("setup_s", median(Setups), "s");
    Out.add("peak_rss_mb", PeakRssMb, "MB");
  } else {
    double Progs = static_cast<double>(W.Programs.size());
    Out.add("wall_s", WallS, "s");
    Out.add("guest_mips", static_cast<double>(GuestInsns) / WallS / 1e6,
            "Minsn/s");
    Out.add("programs_per_s", Progs / WallS, "1/s");
    Out.add("program_ms_p50", median(ProgramP50), "ms");
    Out.add("program_ms_p95", median(ProgramP95), "ms");
    addLayerMetrics(Out, TracedPasses, NativeS, GuestInsns);
    Out.add("trace.overhead_pct", 100 * median(TraceCosts), "%");
    Out.add("fail_rate", ratio(Failed, Attempted), "ratio");
    if (!SpansPath.empty())
      writeSpans(SpansPath, Log, Epoch);
  }
  std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false", Attempted, Failed,
              Out.json().c_str());
  return 0;
}
