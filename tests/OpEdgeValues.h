//===-- tests/OpEdgeValues.h - Operand values for op sweeps -----*- C++ -*-==//
///
/// \file
/// The operand values every sweep over the IR's primitive ops uses:
/// test_hvm's OpProperty runs each op through the back end on every pair,
/// and test_irgolden's OpIdentity hashes ir::evalOp over the same pairs.
///
//===----------------------------------------------------------------------===//
#ifndef VG_TESTS_OPEDGEVALUES_H
#define VG_TESTS_OPEDGEVALUES_H

#include <cstdint>

/// Operand values that sit on the edges the handlers must get right:
/// sign and width boundaries, shift counts of 32 and more, and F64 NaN
/// payloads, signed zeros and infinities (as raw bits).
inline constexpr uint64_t EdgeValues[] = {
    0,
    1,
    0x7FFFFFFFull,
    0x80000000ull,
    0xFFFFFFFFull,
    1ull << 32,
    ~0ull,
    31,
    32,
    33,
    63,
    64,
    255,
    0x7FF8000000000001ull, // quiet NaN with a payload
    0xFFF8000000000000ull, // negative quiet NaN
    0x7FF0000000000001ull, // signalling NaN
    0x8000000000000000ull, // -0.0
    0x3FF0000000000000ull, // 1.0
    0x7FF0000000000000ull, // +inf
};

#endif // VG_TESTS_OPEDGEVALUES_H
