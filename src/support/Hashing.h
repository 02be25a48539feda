//===-- support/Hashing.h - Code hashing utilities --------------*- C++ -*-==//
///
/// \file
/// Hash functions used by the translation system: a 64-bit FNV-1a hash over
/// original guest code bytes (self-modifying-code checks, Section 3.16) and
/// the address hash for the linear-probe translation table (Section 3.8).
///
//===----------------------------------------------------------------------===//
#ifndef VG_SUPPORT_HASHING_H
#define VG_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>

namespace vg {

constexpr uint64_t FnvOffsetBasis = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a over a byte range. Cheap and adequate for detecting that
/// translated guest bytes changed underneath a cached translation. Pass
/// the previous result as \p H to hash a sequence of ranges as one.
inline uint64_t hashBytes(const uint8_t *Data, size_t Len,
                          uint64_t H = FnvOffsetBasis) {
  for (size_t I = 0; I != Len; ++I) {
    H ^= Data[I];
    H *= 0x100000001b3ULL;
  }
  return H;
}

/// Mixes a 32-bit guest address into a well-distributed hash for the
/// translation table and the dispatcher's direct-mapped fast cache.
inline uint32_t hashAddr(uint32_t Addr) {
  uint32_t H = Addr;
  H ^= H >> 16;
  H *= 0x7feb352dU;
  H ^= H >> 15;
  H *= 0x846ca68bU;
  H ^= H >> 16;
  return H;
}

} // namespace vg

#endif // VG_SUPPORT_HASHING_H
