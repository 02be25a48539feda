//===-- support/SplitMix64.h - Seeded PRNG ----------------------*- C++ -*-==//
///
/// \file
/// splitmix64: tiny, fast, and fully determined by its seed. The fuzzer
/// draws its programs from it (fuzz::Rng) and --fault-inject its decisions
/// (FaultPlan), so one seed reproduces a run exactly.
///
//===----------------------------------------------------------------------===//
#ifndef VG_SUPPORT_SPLITMIX64_H
#define VG_SUPPORT_SPLITMIX64_H

#include <cstdint>

namespace vg {

struct SplitMix64 {
  uint64_t State;
  explicit SplitMix64(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }
};

} // namespace vg

#endif // VG_SUPPORT_SPLITMIX64_H
