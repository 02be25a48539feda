//===-- ir/OpEval.h - What each primitive op computes -----------*- C++ -*-==//
///
/// \file
/// The semantics of every IR op, written once: each family that exists at
/// several widths (IR.h's OpFam) as one template over its operand width's
/// own integer type, each single-width op on its own. evalOpAt<O> is op O
/// with the op fixed at compile time, so each switch below folds away and
/// what is left is the operation itself. ir::evalOp (the constant folder,
/// the executor's generic handlers, the tests) switches over the op list
/// to it; the executor's specialised handlers call it with their own op.
///
/// Operand and result values are zero-extended into 64 bits, F64 as raw
/// IEEE754 bits. An operand may carry bits above its type's width: an op
/// reads only its operand type's bits, and a shift amount only the bits
/// below the shifted width.
///
/// The reference interpreter (guest/RefInterp) shares none of this: it is
/// the oracle the JIT is checked against.
///
//===----------------------------------------------------------------------===//
#ifndef VG_IR_OPEVAL_H
#define VG_IR_OPEVAL_H

#include "ir/IR.h"
#include "support/FpCanon.h"

#include <bit>
#include <climits>
#include <cmath>
#include <type_traits>

namespace vg {
namespace ir {
namespace opeval {

/// The unsigned integer type that holds a value of type T (I1 as the low
/// bit of a word).
template <Ty T> struct UIntOf { using Type = uint64_t; };
template <> struct UIntOf<Ty::I8> { using Type = uint8_t; };
template <> struct UIntOf<Ty::I16> { using Type = uint16_t; };
template <> struct UIntOf<Ty::I32> { using Type = uint32_t; };
template <Ty T> using UInt = typename UIntOf<T>::Type;
template <Ty T> using SInt = std::make_signed_t<UInt<T>>;

/// The bits of \p V a value of type T holds.
template <Ty T> [[gnu::always_inline]] inline UInt<T> narrow(uint64_t V) {
  return static_cast<UInt<T>>(T == Ty::I1 ? V & 1 : V);
}

/// Family \p F at operand type \p T. Arithmetic runs in W, at least an
/// unsigned int, so that no narrow operand is promoted to a signed int. Shl
/// shifts, and CmpNEZ masks, the whole word \p A: the result is the same,
/// in shorter code.
template <Ty T>
[[gnu::always_inline]] inline uint64_t widthOp(OpFam F, uint64_t A,
                                               uint64_t B) {
  using U = UInt<T>;
  using W = std::common_type_t<U, unsigned>;
  constexpr unsigned Amount = tySizeBits(T) - 1; // shift amounts wrap
  U X = narrow<T>(A), Y = narrow<T>(B);
  switch (F) {
  case OpFam::Add:
    return U(W(X) + W(Y));
  case OpFam::Sub:
    return U(W(X) - W(Y));
  case OpFam::Mul:
    return U(W(X) * W(Y));
  case OpFam::And:
    return U(X & Y);
  case OpFam::Or:
    return U(X | Y);
  case OpFam::Xor:
    return U(X ^ Y);
  case OpFam::Shl:
    return U(A << (B & Amount));
  case OpFam::Shr:
    return U(X >> (B & Amount));
  case OpFam::Sar:
    return U(SInt<T>(X) >> (B & Amount));
  case OpFam::Not:
    return U(~X);
  case OpFam::Neg:
    return U(W(0) - W(X));
  case OpFam::CmpEQ:
    return X == Y;
  case OpFam::CmpNE:
    return X != Y;
  case OpFam::CmpLTS:
    return SInt<T>(X) < SInt<T>(Y);
  case OpFam::CmpLES:
    return SInt<T>(X) <= SInt<T>(Y);
  case OpFam::CmpLTU:
    return X < Y;
  case OpFam::CmpLEU:
    return X <= Y;
  case OpFam::CmpNEZ:
    return (A & truncToTy(~0ull, T)) != 0;
  default:
    unreachable("widthOp: not an ALU family");
  }
}

/// Conversion family \p F from type \p From to type \p To.
template <Ty From, Ty To>
[[gnu::always_inline]] inline uint64_t convertOp(OpFam F, uint64_t A) {
  switch (F) {
  case OpFam::ZExt:
    return narrow<From>(A);
  case OpFam::SExt:
    return UInt<To>(SInt<From>(narrow<From>(A)));
  case OpFam::Trunc:
    return narrow<To>(A);
  default:
    unreachable("convertOp: not a conversion family");
  }
}

[[gnu::always_inline]] inline double asF64(uint64_t Bits) {
  return std::bit_cast<double>(Bits);
}
[[gnu::always_inline]] inline uint64_t fromF64(double D) {
  return std::bit_cast<uint64_t>(D);
}

/// \p Fn on each of the four 8-bit lanes of \p A and \p B.
template <typename LaneFn>
[[gnu::always_inline]] inline uint64_t lanes8(uint64_t A, uint64_t B,
                                              LaneFn Fn) {
  uint32_t Out = 0;
  for (int L = 0; L != 4; ++L)
    Out |= uint32_t(uint8_t(Fn(uint8_t(A >> (8 * L)), uint8_t(B >> (8 * L)))))
           << (8 * L);
  return Out;
}

/// A family that exists at one width.
[[gnu::always_inline]] inline uint64_t singleOp(OpFam F, uint64_t A,
                                                uint64_t B) {
  switch (F) {
  case OpFam::DivU32:
    return uint32_t(B) == 0 ? 0xFFFFFFFFull : uint32_t(A) / uint32_t(B);
  case OpFam::DivS32: {
    int32_t N = int32_t(A), D = int32_t(B);
    if (D == 0)
      return uint32_t(-1);
    return uint32_t(N == INT32_MIN && D == -1 ? INT32_MIN : N / D);
  }
  case OpFam::MullU32:
    return uint64_t(uint32_t(A)) * uint32_t(B);
  case OpFam::MullS32:
    return uint64_t(int64_t(int32_t(A)) * int32_t(B));
  case OpFam::T64HIto32:
    return uint32_t(A >> 32);
  case OpFam::Concat32HLto64:
    return (A << 32) | uint32_t(B);
  // Arithmetic results are NaN-canonicalised (support/FpCanon.h): which
  // input payload propagates is IEEE-unspecified, so without this the JIT
  // and the reference interpreter can legally disagree bit-for-bit.
  case OpFam::AddF64:
    return fromF64(canonF64(asF64(A) + asF64(B)));
  case OpFam::SubF64:
    return fromF64(canonF64(asF64(A) - asF64(B)));
  case OpFam::MulF64:
    return fromF64(canonF64(asF64(A) * asF64(B)));
  case OpFam::DivF64:
    return fromF64(canonF64(asF64(A) / asF64(B)));
  case OpFam::NegF64: // sign-bit op: fully determined, never canonicalised
    return fromF64(-asF64(A));
  case OpFam::AbsF64: // sign-bit op, as above
    return fromF64(std::fabs(asF64(A)));
  case OpFam::SqrtF64:
    return fromF64(canonF64(std::sqrt(asF64(A))));
  case OpFam::I32StoF64:
    return fromF64(static_cast<double>(int32_t(A)));
  case OpFam::F64toI32S: {
    double D = asF64(A);
    if (std::isnan(D) || D >= 2147483648.0 || D < -2147483648.0)
      return uint32_t(INT32_MIN);
    return uint32_t(static_cast<int32_t>(D));
  }
  case OpFam::CmpF64: {
    // Produces the VG1 NZCV word, matching RefInterp's FCMP.
    double X = asF64(A), Y = asF64(B);
    if (std::isnan(X) || std::isnan(Y))
      return 1; // FlagV
    return (X == Y ? 4 : 0) | (X < Y ? 8 : 0) | (X >= Y ? 2 : 0); // Z, N, C
  }
  case OpFam::Reinterp:
    return A;
  case OpFam::Add8x4:
    return lanes8(A, B, [](uint8_t X, uint8_t Y) { return X + Y; });
  case OpFam::Sub8x4:
    return lanes8(A, B, [](uint8_t X, uint8_t Y) { return X - Y; });
  case OpFam::CmpGT8Sx4:
    return lanes8(A, B, [](uint8_t X, uint8_t Y) {
      return int8_t(X) > int8_t(Y) ? 0xFF : 0;
    });
  default:
    unreachable("singleOp: a family with several widths");
  }
}

} // namespace opeval

/// Op \p O on \p A and \p B (unary ops ignore \p B).
template <Op O>
[[gnu::always_inline]] inline uint64_t evalOpAt(uint64_t A, uint64_t B) {
  constexpr OpFam F = opFam(O);
  if constexpr (F == OpFam::ZExt || F == OpFam::SExt || F == OpFam::Trunc)
    return opeval::convertOp<opArgTy(O, 0), opResultTy(O)>(F, A);
  else if constexpr (isMultiWidth(F))
    return opeval::widthOp<opArgTy(O, 0)>(F, A, B);
  else
    return opeval::singleOp(F, A, B);
}

} // namespace ir
} // namespace vg

#endif // VG_IR_OPEVAL_H
