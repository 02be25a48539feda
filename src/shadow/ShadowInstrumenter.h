//===-- shadow/ShadowInstrumenter.h - Shadow-value Phase 3 ------*- C++ -*-==//
///
/// \file
/// The Phase 3 every shadow-value tool shares (paper Section 4): each guest
/// operation is preceded by a shadow operation over first-class shadow
/// registers (R1) and shadow temporaries (R3). Every tool uses one shadow
/// encoding: a shadow bit per guest bit, 0 = clean (defined, untainted),
/// F64 shadowed as I64.
///
/// The scaffold owns the statement walk, the shadow-temp map, UifU and
/// PCast, and every rule that does not depend on what a dirty bit means:
/// Put, IMark, Dirty (written guest state becomes clean), the WrTmp cases
/// for Const, RdTmp, Get, ITE and CCall, and the side-exit and
/// indirect-jump checks (each tool names the callees). A tool derives with
/// CRTP and supplies the rest:
///
///   Expr *shadowUnop(Op O, Expr *V);
///   Expr *shadowBinop(const Expr *D, Expr *V1, Expr *V2);
///   Expr *shadowLoad(const Expr *D);
///   void instrumentStore(Stmt *S); // runs before S is appended
///
/// and may hide shadowIte.
///
//===----------------------------------------------------------------------===//
#ifndef VG_SHADOW_SHADOWINSTRUMENTER_H
#define VG_SHADOW_SHADOWINSTRUMENTER_H

#include "guest/GuestArch.h"
#include "ir/IR.h"

#include <vector>

namespace vg {

template <typename Derived> class ShadowInstrumenter {
public:
  /// Instruments the superblock in place.
  void run() {
    std::vector<ir::Stmt *> Old;
    Old.swap(SB.stmts()); // factories now append to the fresh list
    for (ir::Stmt *S : Old)
      visit(S);
    // Indirect block ends: check the target's shadow.
    ir::Expr *Next = SB.next();
    if (Next->isRdTmp()) {
      ir::Expr *VN = vAtom(Next);
      ir::Expr *G = atom(SB.unop(ir::Op::CmpNEZ32, VN));
      SB.dirty(JumpCheck, {SB.constI64(CurPC)}, ir::NoTmp, G);
    }
  }

protected:
  using Expr = ir::Expr;
  using Op = ir::Op;
  using OpFam = ir::OpFam;
  using Stmt = ir::Stmt;
  using Ty = ir::Ty;

  /// \p JumpCheck runs before an indirect block end whose target has a
  /// dirty shadow; \p ExitCheck (optional) before a side exit whose guard
  /// has one. Both take the guest PC.
  ShadowInstrumenter(ir::IRSB &SB, const ir::Callee *JumpCheck,
                     const ir::Callee *ExitCheck)
      : SB(SB), JumpCheck(JumpCheck), ExitCheck(ExitCheck) {}

  static Ty shTy(Ty T) { return T == Ty::F64 ? Ty::I64 : T; }
  static uint32_t sizeOfTy(Ty T) { return ir::tySizeBits(T) / 8; }

  ir::TmpId shadowOf(ir::TmpId T) {
    if (T >= ShadowTmp.size())
      ShadowTmp.resize(T + 1, ir::NoTmp);
    if (ShadowTmp[T] == ir::NoTmp)
      ShadowTmp[T] = SB.newTmp(shTy(SB.typeOfTmp(T)));
    return ShadowTmp[T];
  }

  /// Shadow value of an original-program atom.
  Expr *vAtom(const Expr *A) {
    if (A->isConst())
      return SB.mkConst(shTy(A->T), 0); // literals are clean
    return SB.rdTmp(shadowOf(A->Tmp));
  }

  /// Materialises an expression into an atom (emitting a WrTmp).
  Expr *atom(Expr *E) {
    if (E->isAtom())
      return E;
    return SB.rdTmp(SB.wrTmp(E));
  }

  /// UifU: dirty if either input is (paper Figure 2, "shadow addl 1/3").
  Expr *uifu(Ty T, Expr *A, Expr *B) {
    return atom(SB.binop(ir::opFor(OpFam::Or, T), A, B));
  }

  /// PCast: if any input bit is dirty, every output bit is. The dirty bit
  /// C becomes all ones as Neg(U1toN(C)); with no U1to16, I16 takes I32's
  /// and truncates.
  Expr *pcast(Ty From, Ty To, Expr *V) {
    Expr *C =
        From == Ty::I1 ? V : atom(SB.unop(ir::opFor(OpFam::CmpNEZ, From), V));
    if (To == Ty::I1)
      return C;
    Ty W = To == Ty::I16 ? Ty::I32 : To;
    Op Widen = W == Ty::I8 ? Op::U1to8 : W == Ty::I32 ? Op::U1to32 : Op::U1to64;
    Expr *N = atom(SB.unop(ir::opFor(OpFam::Neg, W), atom(SB.unop(Widen, C))));
    return To == Ty::I16 ? atom(SB.unop(Op::T32to16, N)) : N;
  }

  /// Zero/sign extensions and truncations: the same conversion applied to
  /// the shadow keeps every shadow bit with its guest bit.
  static bool isWidthConversion(Op O) {
    OpFam F = ir::opFam(O);
    return F == OpFam::ZExt || F == OpFam::SExt || F == OpFam::Trunc ||
           F == OpFam::T64HIto32;
  }

  /// The selected arm's shadow, dirtied wholesale by a dirty condition.
  Expr *shadowIte(const Expr *D) {
    Expr *VC = vAtom(D->Arg[0]);
    Expr *VT = vAtom(D->Arg[1]);
    Expr *VF = vAtom(D->Arg[2]);
    Expr *Sel = atom(SB.ite(D->Arg[0], VT, VF));
    return uifu(shTy(D->T), Sel, pcast(Ty::I1, shTy(D->T), VC));
  }

  ir::IRSB &SB;
  uint32_t CurPC = 0;

private:
  Derived &self() { return static_cast<Derived &>(*this); }

  Expr *shadowRhs(Expr *D) {
    switch (D->Kind) {
    case ir::ExprKind::Const:
    case ir::ExprKind::RdTmp:
      return vAtom(D);
    case ir::ExprKind::Get:
      return atom(SB.get(D->Offset + vg1::gso::ShadowOffset, shTy(D->T)));
    case ir::ExprKind::Unop:
      return self().shadowUnop(D->Opc, vAtom(D->Arg[0]));
    case ir::ExprKind::Binop:
      return self().shadowBinop(D, vAtom(D->Arg[0]), vAtom(D->Arg[1]));
    case ir::ExprKind::Load:
      return self().shadowLoad(D);
    case ir::ExprKind::ITE:
      return self().shadowIte(D);
    case ir::ExprKind::CCall: {
      // Conservative: any dirty argument bit dirties the whole result.
      Expr *Acc = SB.constI32(0);
      for (const Expr *A : D->CallArgs) {
        Expr *VA = vAtom(A);
        Expr *C1 = pcast(shTy(A->T), Ty::I32, VA);
        Acc = uifu(Ty::I32, Acc, C1);
      }
      return pcast(Ty::I32, shTy(D->T), Acc);
    }
    }
    unreachable("shadowRhs: bad expression kind");
  }

  void visit(Stmt *S) {
    switch (S->Kind) {
    case ir::StmtKind::NoOp:
      return;
    case ir::StmtKind::IMark:
      CurPC = S->IAddr;
      SB.append(S);
      return;
    case ir::StmtKind::Put:
      // Shadow register write first (paper: every operation on guest
      // values is preceded by the shadow operation).
      SB.put(S->Offset + vg1::gso::ShadowOffset, vAtom(S->Data));
      SB.append(S);
      return;
    case ir::StmtKind::WrTmp: {
      Expr *V = shadowRhs(S->Data);
      SB.wrTmpTo(shadowOf(S->Tmp), V);
      SB.append(S);
      return;
    }
    case ir::StmtKind::Store:
      self().instrumentStore(S);
      SB.append(S);
      return;
    case ir::StmtKind::Dirty:
      SB.append(S);
      // Trust the helper's effect annotations: written guest-state regions
      // become clean, and so does a destination temporary.
      for (const ir::GuestFx &F : S->Fx) {
        if (!F.IsWrite)
          continue;
        uint32_t Off = F.Offset + vg1::gso::ShadowOffset;
        if (F.Size == 4)
          SB.put(Off, SB.constI32(0));
        else if (F.Size == 8)
          SB.put(Off, SB.constI64(0));
        else
          for (uint32_t I = 0; I != F.Size; ++I)
            SB.put(Off + I, SB.constI8(0));
      }
      if (S->Tmp != ir::NoTmp)
        SB.wrTmpTo(shadowOf(S->Tmp),
                   SB.mkConst(shTy(SB.typeOfTmp(S->Tmp)), 0));
      return;
    case ir::StmtKind::Exit:
      if (ExitCheck) {
        Expr *VG = vAtom(S->Guard); // I1
        SB.dirty(ExitCheck, {SB.constI64(CurPC)}, ir::NoTmp, VG);
      }
      SB.append(S);
      return;
    case ir::StmtKind::ShadowProbe:
      // Only Memcheck's loads and stores create probes, and no
      // instrumenter sees its own output.
      unreachable("shadow probe in uninstrumented IR");
    }
  }

  const ir::Callee *JumpCheck;
  const ir::Callee *ExitCheck;
  std::vector<ir::TmpId> ShadowTmp;
};

} // namespace vg

#endif // VG_SHADOW_SHADOWINSTRUMENTER_H
