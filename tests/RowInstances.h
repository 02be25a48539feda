//===-- tests/RowInstances.h - Instances of the superinstruction rows -----==//
///
/// \file
/// Builds, from VG_HVM_GROUPS alone, one instance of every superinstruction
/// row and its near misses, so that the encoder, executor and --tt-cache
/// operand-check tests cover a row as soon as it is listed.
///
//===----------------------------------------------------------------------===//
#ifndef VG_TESTS_ROWINSTANCES_H
#define VG_TESTS_ROWINSTANCES_H

#include "hvm/HostVM.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace vg {
namespace rowcases {

using namespace vg::hvm;

/// The registers of a row instance: member J writes h(2 + J); an operand
/// its row does not forward reads h1 (the lead's A, the test's input), h7
/// (a later member's A), h8 (B) or h0 (C). No instance touches h9, the
/// separator's register.
constexpr RegId InputReg = 1, OwnA = 7, OwnB = 8, OwnC = 0, SepReg = 9;

inline std::string rowName(unsigned G) {
  static const char *const Names[] = {
#define VG_HVM_X(Name, ...) #Name,
      VG_HVM_GROUPS(VG_HVM_X)
#undef VG_HVM_X
  };
  return Names[G];
}

/// Member \p M at position \p J of a row, its registers as above and its
/// forwarded operands taken from \p Prev as M's Fwd says; a JZ targets
/// instruction \p Target.
inline HInstr memberInstance(Member M, unsigned J, const HInstr *Prev,
                             int32_t Target) {
  OpcodeDef D = opcodeDef(M.Byte);
  HInstr I;
  I.Op = D.Form;
  if (hasField(D.Form, Fld::Size))
    I.Size = static_cast<uint8_t>(D.Field);
  if (hasField(D.Form, Fld::IrOp))
    I.IrOp = D.Field != NoField ? static_cast<ir::Op>(D.Field)
             : D.Form == HOp::ALU1 ? ir::Op::Not32
                                   : ir::Op::Xor64;
  if (hasField(D.Form, Fld::Dst))
    I.Dst = 2 + J;
  if (hasField(D.Form, Fld::A))
    I.A = J ? OwnA : InputReg;
  if (hasField(D.Form, Fld::B))
    I.B = OwnB;
  if (hasField(D.Form, Fld::C))
    I.C = OwnC;
  switch (D.Form) {
  case HOp::LI:
    I.Imm = 0xF0E1D2C3B4A59687ull ^ (J * 0x1111);
    break;
  case HOp::ALUI:
    I.Imm = 0x100000003ull + J; // too wide for ALUIS
    break;
  case HOp::ALUIS:
    I.Imm = 3 + J;
    break;
  case HOp::LDG:
    I.Off = 8 + 8 * J;
    break;
  case HOp::STG:
    I.Off = 64 + 8 * J;
    break;
  case HOp::JZ:
    I.Label = Target;
    break;
  case HOp::IMARK:
    I.Imm = 0x4000 + 4 * J;
    break;
  case HOp::SPILL:
  case HOp::RELOAD:
    I.Off = J;
    break;
  case HOp::MOV:
  case HOp::ALU:
  case HOp::ALU1:
  case HOp::SEL:
    break;
  default:
    ADD_FAILURE() << "no instance for a member of form " << unsigned(D.Form);
  }
  if (M.F == Fwd::A) {
    I.A = Prev->Dst;
  } else if (M.F == Fwd::Left) {
    I.A = Prev->A;
    I.B = Prev->Dst;
  }
  return I;
}

/// One instance of row \p G; a final JZ targets instruction \p Target.
inline std::vector<HInstr> rowInstance(const GroupDef &G, int32_t Target) {
  std::vector<HInstr> Is;
  for (unsigned J = 0; J != G.N; ++J)
    Is.push_back(
        memberInstance(G.Members[J], J, J ? &Is[J - 1] : nullptr, Target));
  return Is;
}

/// An instance of a row with one thing wrong, and what.
struct NearMiss {
  std::string What;
  std::vector<HInstr> Is;
};

/// The near misses of row \p G, for each member after the lead: a wrong
/// member byte (another size or op, or another form); a broken forwarding
/// chain; and the forwarded register in another operand. A Left member
/// also gets its operands swapped, and a predecessor that overwrites its
/// own operand.
inline std::vector<NearMiss> nearMisses(const GroupDef &G, int32_t Target) {
  const std::vector<HInstr> Is = rowInstance(G, Target);
  std::vector<NearMiss> Misses;
  for (unsigned J = 1; J != G.N; ++J) {
    std::string At = ", member " + std::to_string(J);
    std::vector<HInstr> M = Is;
    HInstr &I = M[J];
    if (hasField(I.Op, Fld::Size)) {
      I.Size = I.Size == 4 ? 8 : 4;
    } else if (hasField(I.Op, Fld::IrOp)) {
      I.IrOp = I.Op == HOp::ALU1 ? ir::Op::Not32 : ir::Op::Xor64;
    } else {
      HInstr Other;
      Other.Op = HOp::ALU1, Other.IrOp = ir::Op::Not32;
      Other.Dst = I.Dst == NoReg ? 2 + J : I.Dst;
      Other.A = I.A == NoReg ? OwnA : I.A;
      I = Other;
    }
    Misses.push_back({"wrong member byte" + At, M});
    const HInstr &Prev = Is[J - 1];
    if (G.Members[J].F == Fwd::A) {
      M = Is;
      M[J].A = OwnA;
      Misses.push_back({"broken chain" + At, M});
      M = Is;
      if (hasField(M[J].Op, Fld::B))
        M[J].B = Prev.Dst;
      else if (hasField(M[J].Op, Fld::Dst))
        M[J].Dst = Prev.Dst;
      else
        continue; // A is its only register operand
      M[J].A = OwnA;
      Misses.push_back({"forwarded register in another operand" + At, M});
    } else if (G.Members[J].F == Fwd::Left) {
      M = Is;
      M[J].A = OwnA;
      Misses.push_back({"broken chain in A" + At, M});
      M = Is;
      M[J].B = OwnB;
      Misses.push_back({"broken chain in B" + At, M});
      M = Is;
      std::swap(M[J].A, M[J].B);
      Misses.push_back({"operands swapped" + At, M});
      M = Is;
      M[J - 1].Dst = M[J - 1].A;
      M[J].B = M[J - 1].Dst;
      Misses.push_back({"predecessor overwrote its operand" + At, M});
    }
  }
  return Misses;
}

} // namespace rowcases
} // namespace vg

#endif // VG_TESTS_ROWINSTANCES_H
