//===-- workloads/Workloads.h - SPEC-like synthetic workloads ---*- C++ -*-==//
///
/// \file
/// Fourteen synthetic guest programs mimicking the computational character
/// of the SPEC CPU2000 benchmarks used in the paper's Table 2 — the
/// substitution for the real suite (see DESIGN.md). Integer workloads are
/// listed before floating-point ones, as in the paper.
///
///   bzip2    run-length compress/decompress of pseudo-random bytes
///   crafty   bitboard-style bit manipulation
///   gcc      branchy interpretation of a random bytecode program
///   gzip     LZ-style window matching (nested byte-compare loops)
///   mcf      pointer chasing through a shuffled linked list
///   parser   tokenising and dictionary matching over text
///   perlbmk  string hashing into chained buckets
///   vortex   open-addressing hash table insert/lookup mix
///   ammp     pairwise-force inner loops (FP)
///   applu    Jacobi sweeps over a 2D grid (FP)
///   art      dot products and winner-take-all scans (FP)
///   equake   1D wave-equation stencil steps (FP)
///   mesa     vertex transform with int<->FP conversions (mixed)
///   swim     elementwise triple-array updates (FP)
///
/// Every workload prints a checksum (so runs are comparable across
/// engines/tools) and heap users allocate through the guest library, so
/// tools with heap replacement see realistic allocation traffic.
///
//===----------------------------------------------------------------------===//
#ifndef VG_WORKLOADS_WORKLOADS_H
#define VG_WORKLOADS_WORKLOADS_H

#include "core/GuestImage.h"

#include <string>
#include <vector>

namespace vg {

struct WorkloadInfo {
  std::string Name;
  bool IsFP; ///< listed after integer workloads, as in Table 2
};

/// The Table 2 workloads, integer first (Table 2 ordering); with
/// \p WithExtras also sigmt and mtcpu, which are runnable by name but stay
/// out of Table 2.
const std::vector<WorkloadInfo> &allWorkloads(bool WithExtras = false);

/// Builds the named workload. \p Scale multiplies the iteration count
/// (1 = a few million native instructions). Unknown names abort.
GuestImage buildWorkload(const std::string &Name, uint32_t Scale = 1);

} // namespace vg

#endif // VG_WORKLOADS_WORKLOADS_H
