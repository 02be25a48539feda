//===-- frontend/Vg1Frontend.h - Phase 1: VG1 -> tree IR --------*- C++ -*-==//
///
/// \file
/// The disassemble half of disassemble-and-resynthesise (Section 3.5):
/// converts VG1 machine code into tree IR, one superblock at a time. All of
/// the original code's effects on guest state — including condition-code
/// setting — are represented explicitly, because the original instructions
/// are discarded and final code is generated purely from the IR.
///
/// Superblock formation follows the paper's policy (Section 3.7): follow
/// instructions until (a) an instruction limit (~50) is reached, (b) a
/// conditional branch is hit, (c) a branch to an unknown target is hit, or
/// (d) more than three unconditional branches to known targets have been
/// chased. A target the core vetoes (FrontendConfig::ChaseOk) ends the
/// block like (d).
///
/// Condition codes use a lazy thunk (CC_OP/CC_DEP1/CC_DEP2) exactly as
/// Valgrind models x86 %eflags; conditional branches call a clean helper
/// which the optimiser can partially evaluate via vg1SpecFn().
///
/// The architecture-specific CPUINFO instruction is not modelled in IR;
/// it becomes an annotated dirty helper call (Section 3.6's cpuid
/// treatment), so tools still see which registers it writes.
///
//===----------------------------------------------------------------------===//
#ifndef VG_FRONTEND_VG1FRONTEND_H
#define VG_FRONTEND_VG1FRONTEND_H

#include "ir/IR.h"
#include "ir/IROpt.h"

#include <functional>
#include <memory>
#include <vector>

namespace vg {

/// Reads guest code bytes for disassembly. Returns how many bytes starting
/// at \p Addr were copied into \p Buf (0 if the address is not executable).
using FetchFn =
    std::function<uint32_t(uint32_t Addr, uint8_t *Buf, uint32_t MaxLen)>;

/// Output of Phase 1 for one superblock.
struct DisasmResult {
  std::unique_ptr<ir::IRSB> SB; ///< tree IR
  uint32_t Addr = 0;            ///< guest address of the block entry
  uint32_t NumInsns = 0;
  /// Guest byte ranges covered (more than one when unconditional branches
  /// were chased). Used for SMC hashing and translation invalidation.
  std::vector<std::pair<uint32_t, uint32_t>> Extents;
  /// True if the block ends because the next instruction failed to decode;
  /// the block then ends with a NoDecode jump.
  bool DecodeFailed = false;
  /// Trace stitching only: entry PCs of every constituent superblock the
  /// trace actually includes, in path order (the first element is Addr).
  /// Empty for plain superblocks.
  std::vector<uint32_t> TraceEntries;
};

/// Superblock formation limits.
struct FrontendConfig {
  unsigned MaxInsns = 50;
  unsigned MaxChases = 3;
  /// Chase veto (VEX's chase_into_ok): when set and it returns false for
  /// an unconditional branch target, the block ends there with a Boring
  /// exit instead of inlining the target. The core vetoes redirected
  /// addresses, whose code must be entered through the dispatcher.
  bool (*ChaseOk)(void *Ctx, uint32_t Target) = nullptr;
  void *ChaseCtx = nullptr;
};

/// Disassembles one superblock starting at \p Addr.
DisasmResult disassembleSB(uint32_t Addr, const FetchFn &Fetch,
                           const FrontendConfig &Cfg = FrontendConfig());

/// A hot path of chained superblocks to stitch into one trace (tier 2).
struct TraceSpec {
  /// Constituent entry PCs in execution order; Entries[0] is the trace
  /// head. Chosen by the core from the chain graph's execution counts.
  std::vector<uint32_t> Entries;
  /// Where the path goes after the last constituent (~0 = unknown). When
  /// it is the taken side of the last BCC, the trace ends with that
  /// direction as its chainable terminal (a loop back to Entries[0] then
  /// self-chains without a dispatcher round trip).
  uint32_t PreferredFinal = ~0u;
};

/// Disassembles the \p Spec path into a single superblock: at each
/// conditional branch whose likely direction continues the path, the
/// unlikely direction becomes a guarded side exit and disassembly carries
/// on across the seam. Degrades gracefully — if the code no longer matches
/// the path (SMC, stale counts), the result is a valid trace over the
/// prefix that still matches, never an error.
DisasmResult disassembleTrace(const TraceSpec &Spec, const FetchFn &Fetch,
                              const FrontendConfig &Cfg = FrontendConfig());

/// Proves the CC thunk dead at \p PC: every path from \p PC overwrites the
/// whole thunk (an opSetsFlags instruction) before reading it (BCC) and
/// before leaving straight-line code (limit 16 instructions, 2 chased
/// JMPs; anything else — SYS, calls, returns, decode failure — is
/// conservatively "live"). On success appends the scanned byte ranges to
/// \p Scanned so the proof is covered by SMC hashing and invalidation.
bool flagsDeadAt(uint32_t PC, const FetchFn &Fetch,
                 std::vector<std::pair<uint32_t, uint32_t>> &Scanned);

/// The clean helper evaluating VG1 conditions from the CC thunk:
/// vg1_calc_cond(cond, cc_op, cc_dep1, cc_dep2) -> 0/1.
const ir::Callee *calcCondCallee();

/// The dirty helper emulating CPUINFO (writes guest r0/r1).
const ir::Callee *cpuinfoCallee();

/// Partial evaluator for calcCond calls with constant cond/cc_op — the
/// reproduction of the %eflags specialisation hook (Section 3.7, Phase 2).
ir::SpecFn vg1SpecFn();

} // namespace vg

#endif // VG_FRONTEND_VG1FRONTEND_H
