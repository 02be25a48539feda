//===-- tools/Cachegrind.h - Cache profiler ---------------------*- C++ -*-==//
///
/// \file
/// Cachegrind reproduced: simulates an I1/D1/LL cache hierarchy
/// (set-associative, LRU) and attributes hits/misses to guest code
/// addresses. Every instruction fetch and every data access is
/// instrumented with a call into the simulator — the "lightweight tools
/// add a lot of highly uniform analysis code" end of the paper's spectrum
/// (Section 1.2), in contrast to Memcheck.
///
/// The cache model is itself a substrate: bench/sec51_codesize counts it
/// separately, mirroring the paper's "Cachegrind is 2,431 lines" datum.
///
//===----------------------------------------------------------------------===//
#ifndef VG_TOOLS_CACHEGRIND_H
#define VG_TOOLS_CACHEGRIND_H

#include "core/Core.h"
#include "core/Tool.h"

#include <map>

namespace vg {

/// One set-associative, LRU, write-allocate cache level.
class CacheModel {
public:
  CacheModel(uint32_t SizeBytes, uint32_t Assoc, uint32_t LineSize);

  /// Touches the line(s) covering [Addr, Addr+Len); returns true on a full
  /// hit (an access spanning two lines hits only if both do).
  bool access(uint32_t Addr, uint32_t Len);

private:
  bool touchLine(uint32_t LineAddr);

  uint32_t LineSize, NumSets, Assoc;
  /// Per set: tags in LRU order (front = most recent). ~0u = invalid.
  std::vector<std::vector<uint32_t>> Sets;
};

/// Per-PC event counts (the cachegrind.out rows).
struct CacheLineCounts {
  uint64_t Ir = 0, I1mr = 0, ILmr = 0;
  uint64_t Dr = 0, D1mr = 0, DLmr = 0;
  uint64_t Dw = 0, D1mw = 0, DLmw = 0;
};

class Cachegrind : public Tool {
public:
  Cachegrind();

  const char *name() const override { return "cachegrind"; }
  void registerOptions(OptionRegistry &Opts) override;
  void init(Core &C) override;
  void instrument(ir::IRSB &SB) override;
  void fini(int ExitCode) override;

  const CacheLineCounts &totals() const { return Totals; }

  // Helpers bound into Callee descriptors.
  static uint64_t helperInstr(void *Env, uint64_t PC, uint64_t Size,
                              uint64_t, uint64_t);
  static uint64_t helperRead(void *Env, uint64_t Addr, uint64_t Size,
                             uint64_t PC, uint64_t);
  static uint64_t helperWrite(void *Env, uint64_t Addr, uint64_t Size,
                              uint64_t PC, uint64_t);

private:
  void simInstr(uint32_t PC, uint32_t Size);
  void simData(uint32_t PC, uint32_t Addr, uint32_t Size, bool Write);

  Core *C = nullptr;
  std::unique_ptr<CacheModel> I1, D1, LL;
  CacheLineCounts Totals;
  std::map<uint32_t, CacheLineCounts> PerPC;
};

} // namespace vg

#endif // VG_TOOLS_CACHEGRIND_H
