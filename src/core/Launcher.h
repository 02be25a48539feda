//===-- core/Launcher.h - One-call program runners --------------*- C++ -*-==//
///
/// \file
/// Convenience entry points used by tests, examples, and the benchmark
/// harness: run a guest image natively (reference interpreter — the
/// "native" baseline of Table 2) or under the core with a tool plugged in,
/// and collect output, statistics, and wall-clock time.
///
//===----------------------------------------------------------------------===//
#ifndef VG_CORE_LAUNCHER_H
#define VG_CORE_LAUNCHER_H

#include "core/Core.h"

#include <string>
#include <vector>

namespace vg {

/// Fixed pieces of the client memory layout shared by both runners.
constexpr uint32_t ClientStackTop = 0xBFFF0000;
constexpr uint32_t ClientInitialSPGap = 64;

/// Where a loaded image's stack lies: [Limit, Top), entered at InitialSP.
struct ClientStack {
  uint32_t Top, Limit, InitialSP;
};

/// The start-up layout both runners share (Section 3.3): maps \p Img's
/// segments, a one-page brk heap one page past the highest of them, and
/// the stack below ClientStackTop into \p Mem and \p AS, announcing each
/// through \p Events' new_mem_startup when given.
ClientStack mapImage(const GuestImage &Img, GuestMemory &Mem, AddressSpace &AS,
                     EventHub *Events = nullptr);

/// Everything a caller might want to know about a finished run.
struct RunReport {
  bool Completed = false; ///< reached exit (not fault/limit)
  int ExitCode = 0;
  int FatalSignal = 0;
  std::string Stdout;
  std::string Stderr;
  std::string ToolOutput; ///< core/tool side channel (R9), buffer mode
  CoreStats Stats;        ///< core runs only
  TransTab::Stats TTStats; ///< translation-table statistics (core runs)
  JitStats Jit;            ///< translation-service counters (core runs)
  uint64_t NativeInsns = 0;
  uint64_t Syscalls = 0;
  double Seconds = 0; ///< wall time of guest execution only
};

/// Runs \p Img on the reference interpreter with a standalone simulated
/// kernel (no events, no tool) — the Table 2 "native" baseline.
RunReport runNative(const GuestImage &Img, const std::string &StdinData = "",
                    uint64_t MaxInsns = ~0ull);

/// Runs \p Img under the core with \p ToolPlugin (may be null = no
/// instrumentation at all, distinct from Nulgrind which is a real tool).
/// \p ExtraOptions are "--name=value" strings.
RunReport runUnderCore(const GuestImage &Img, Tool *ToolPlugin,
                       const std::vector<std::string> &ExtraOptions = {},
                       const std::string &StdinData = "",
                       uint64_t MaxBlocks = ~0ull);

/// Same, but exposes the core for callers that need to configure it
/// between construction and run (tests). \p Setup runs after loadImage.
RunReport runUnderCoreWith(const GuestImage &Img, Tool *ToolPlugin,
                           const std::vector<std::string> &ExtraOptions,
                           const std::string &StdinData, uint64_t MaxBlocks,
                           const std::function<void(Core &)> &Setup);

} // namespace vg

#endif // VG_CORE_LAUNCHER_H
