//===-- ir/IROpt.cpp - IR optimisation passes -----------------------------==//

#include "ir/IROpt.h"

#include <algorithm>
#include <map>
#include <string>

using namespace vg;
using namespace vg::ir;

//===----------------------------------------------------------------------===//
// Fuzz self-test plant
//===----------------------------------------------------------------------===//

static int FuzzPlantKind = 0;

void vg::ir::setFuzzPlant(int Kind) { FuzzPlantKind = Kind; }
int vg::ir::fuzzPlant() { return FuzzPlantKind; }

//===----------------------------------------------------------------------===//
// Flattening: tree IR -> flat IR
//===----------------------------------------------------------------------===//

namespace {

class Flattener {
public:
  Flattener(const IRSB &In, IRSB &Out) : In(In), Out(Out) {}

  void run() {
    for (const Stmt *S : In.stmts())
      flattenStmt(S);
    Out.setNext(atomize(In.next()), In.endJumpKind());
  }

private:
  TmpId mapTmp(TmpId Old) {
    if (Old >= TmpMap.size())
      TmpMap.resize(Old + 1, NoTmp);
    if (TmpMap[Old] == NoTmp)
      TmpMap[Old] = Out.newTmp(In.typeOfTmp(Old));
    return TmpMap[Old];
  }

  /// Returns an atom (tmp/const) in Out that evaluates \p E, emitting WrTmp
  /// statements for interior nodes.
  Expr *atomize(const Expr *E) {
    if (E->Kind == ExprKind::Const)
      return Out.mkConst(E->T, E->ConstVal);
    if (E->Kind == ExprKind::RdTmp)
      return Out.rdTmp(mapTmp(E->Tmp));
    Expr *Shallow = shallowClone(E);
    return Out.rdTmp(Out.wrTmp(Shallow));
  }

  /// Clones one level of \p E with atomised operands.
  Expr *shallowClone(const Expr *E) {
    switch (E->Kind) {
    case ExprKind::Const:
      return Out.mkConst(E->T, E->ConstVal);
    case ExprKind::RdTmp:
      return Out.rdTmp(mapTmp(E->Tmp));
    case ExprKind::Get:
      return Out.get(E->Offset, E->T);
    case ExprKind::Unop:
      return Out.unop(E->Opc, atomize(E->Arg[0]));
    case ExprKind::Binop:
      return Out.binop(E->Opc, atomize(E->Arg[0]), atomize(E->Arg[1]));
    case ExprKind::Load:
      return Out.load(E->T, atomize(E->Arg[0]));
    case ExprKind::ITE:
      return Out.ite(atomize(E->Arg[0]), atomize(E->Arg[1]),
                     atomize(E->Arg[2]));
    case ExprKind::CCall: {
      std::vector<Expr *> Args;
      for (const Expr *A : E->CallArgs)
        Args.push_back(atomize(A));
      return Out.ccall(E->CalleeFn, E->T, std::move(Args));
    }
    }
    unreachable("shallowClone: bad expr kind");
  }

  void flattenStmt(const Stmt *S) {
    switch (S->Kind) {
    case StmtKind::NoOp:
      return; // dropped
    case StmtKind::IMark:
      Out.imark(S->IAddr, S->ILen);
      return;
    case StmtKind::Put:
      Out.put(S->Offset, atomize(S->Data));
      return;
    case StmtKind::WrTmp:
      Out.wrTmpTo(mapTmp(S->Tmp), shallowClone(S->Data));
      return;
    case StmtKind::Store: {
      Expr *A = atomize(S->Addr);
      Expr *D = atomize(S->Data);
      Out.store(A, D);
      return;
    }
    case StmtKind::Dirty: {
      std::vector<Expr *> Args;
      for (const Expr *A : S->CallArgs)
        Args.push_back(atomize(A));
      Expr *G = S->Guard ? atomize(S->Guard) : nullptr;
      Out.dirty(S->CalleeFn, std::move(Args),
                S->Tmp == NoTmp ? NoTmp : mapTmp(S->Tmp), G, S->Fx);
      return;
    }
    case StmtKind::Exit:
      Out.exit(atomize(S->Guard), S->DstPC, S->JK);
      return;
    case StmtKind::ShadowProbe: {
      Expr *A = atomize(S->Addr);
      Expr *D = S->Data ? atomize(S->Data) : nullptr;
      Out.shadowProbe(A, D, mapTmp(S->Tmp), S->AccSize);
      return;
    }
    }
  }

  const IRSB &In;
  IRSB &Out;
  std::vector<TmpId> TmpMap;
};

} // namespace

std::unique_ptr<IRSB> ir::flatten(const IRSB &In) {
  auto Out = std::make_unique<IRSB>();
  Flattener F(In, *Out);
  F.run();
  return Out;
}

//===----------------------------------------------------------------------===//
// Shared pass machinery
//===----------------------------------------------------------------------===//

namespace {

/// Byte ranges of guest state, for Get/Put conflict analysis.
struct Range {
  uint32_t Lo, Hi; // [Lo, Hi)
  bool overlaps(Range O) const { return Lo < O.Hi && O.Lo < Hi; }
  bool covers(Range O) const { return Lo <= O.Lo && O.Hi <= Hi; }
};

Range rangeOfPut(const Stmt *S) {
  return {S->Offset, S->Offset + tySizeBits(S->Data->T) / 8};
}

Range rangeOfGet(const Expr *E) {
  return {E->Offset, E->Offset + tySizeBits(E->T) / 8};
}

/// Forward constant/copy propagation + folding + algebraic simplification +
/// helper-call specialisation. Rewrites in place; removes WrTmps that became
/// pure atom copies.
class PropFold {
public:
  PropFold(IRSB &SB, const SpecFn &Spec) : SB(SB), Spec(Spec) {}

  void run() {
    std::vector<Stmt *> NewStmts;
    NewStmts.reserve(SB.stmts().size());
    Out = &NewStmts;
    for (Stmt *S : SB.stmts()) {
      if (!rewriteStmt(S))
        continue; // absorbed into environment
      NewStmts.push_back(S);
    }
    SB.setStmts(std::move(NewStmts));
    SB.setNext(subst(SB.next()), SB.endJumpKind());
  }

private:
  /// Re-flattens an expression the spec hook may have returned as a small
  /// tree: interior nodes get their own WrTmp emitted before the current
  /// statement, so the block stays flat.
  Expr *atomizeOperand(Expr *E) {
    if (E->isAtom())
      return E;
    Expr *N = simplify(normalizeRhs(E));
    if (N->isAtom())
      return N;
    TmpId T = SB.newTmp(N->T);
    Stmt *S = SB.allocStmt();
    S->Kind = StmtKind::WrTmp;
    S->Tmp = T;
    S->Data = N;
    Out->push_back(S);
    return SB.rdTmp(T);
  }

  /// Makes all operands of \p E atoms (recursively flattening sub-trees).
  Expr *normalizeRhs(Expr *E) {
    forEachOperand(*E, [&](Expr *&A) { A = atomizeOperand(A); });
    return E;
  }

  /// Resolves an atom through the tmp environment.
  Expr *subst(Expr *E) {
    while (E->Kind == ExprKind::RdTmp) {
      auto It = Env.find(E->Tmp);
      if (It == Env.end())
        break;
      E = It->second;
    }
    return E;
  }

  /// Simplifies a one-level expression whose operands are already resolved.
  /// Returns the (possibly new) expression.
  Expr *simplify(Expr *E) {
    switch (E->Kind) {
    case ExprKind::Unop: {
      Expr *A = E->Arg[0];
      if (A->isConst())
        return SB.mkConst(E->T, evalOp(E->Opc, A->ConstVal, 0));
      return E;
    }
    case ExprKind::Binop: {
      Expr *A = E->Arg[0], *B = E->Arg[1];
      if (A->isConst() && B->isConst())
        return SB.mkConst(E->T, evalOp(E->Opc, A->ConstVal, B->ConstVal));
      // Algebraic identities (a representative, conservative set).
      OpFam F = opFam(E->Opc);
      bool SameTmp = A->isRdTmp() && B->isRdTmp() && A->Tmp == B->Tmp;
      switch (F) {
      case OpFam::Add:
      case OpFam::Or:
      case OpFam::Xor:
        if (B->isConst(0))
          return A;
        if (A->isConst(0))
          return B;
        // Deliberately-planted miscompile for vgfuzz --self-test (off in
        // normal operation; see setFuzzPlant in IROpt.h).
        if (fuzzPlant() == 1 && E->Opc == Op::Add32 && B->isConst(1))
          return A;
        break;
      case OpFam::Sub:
      case OpFam::Shl:
      case OpFam::Shr:
      case OpFam::Sar:
        if (B->isConst(0))
          return A;
        break;
      case OpFam::And:
        if (B->isConst(0) || A->isConst(0))
          return SB.mkConst(E->T, 0);
        if (B->isConst(truncToTy(~0ull, E->T)))
          return A;
        if (A->isConst(truncToTy(~0ull, E->T)))
          return B;
        if (SameTmp)
          return A;
        break;
      case OpFam::Mul:
        if (B->isConst(1))
          return A;
        if (A->isConst(1))
          return B;
        if (B->isConst(0) || A->isConst(0))
          return SB.mkConst(E->T, 0);
        break;
      default:
        break;
      }
      // Or/Xor/Sub/CmpEQ/CmpNE with identical tmps.
      if (SameTmp) {
        switch (F) {
        case OpFam::Or:
          return A;
        case OpFam::Xor:
        case OpFam::Sub:
          return SB.mkConst(E->T, 0);
        case OpFam::CmpEQ:
          return SB.constI1(true);
        case OpFam::CmpNE:
          return SB.constI1(false);
        default:
          break;
        }
      }
      return E;
    }
    case ExprKind::ITE:
      if (E->Arg[0]->isConst())
        return E->Arg[0]->ConstVal ? E->Arg[1] : E->Arg[2];
      if (E->Arg[1]->isRdTmp() && E->Arg[2]->isRdTmp() &&
          E->Arg[1]->Tmp == E->Arg[2]->Tmp)
        return E->Arg[1];
      return E;
    case ExprKind::CCall:
      if (Spec) {
        if (Expr *R = Spec(SB, E->CalleeFn, E->CallArgs))
          return R;
      }
      return E;
    default:
      return E;
    }
  }

  /// Rewrites operands of \p S through the environment; returns false if the
  /// statement should be dropped (its value captured in the environment).
  bool rewriteStmt(Stmt *S) {
    if (S->Kind == StmtKind::NoOp)
      return false;
    auto Subst = [&](Expr *&E) { E = subst(E); };
    if (S->Kind != StmtKind::WrTmp) {
      forEachExpr(*S, Subst);
      // A statically false guard drops the statement: the Dirty call never
      // runs, the Exit is never taken.
      return !(S->Guard && S->Guard->isConst(0));
    }
    Expr *D = S->Data;
    if (D->isAtom())
      D = subst(D);
    else
      forEachOperand(*D, Subst);
    D = simplify(D);
    if (D->isAtom()) {
      Env[S->Tmp] = D;
      return false;
    }
    S->Data = normalizeRhs(D); // spec results may be small trees
    return true;
  }

  IRSB &SB;
  const SpecFn &Spec;
  std::map<TmpId, Expr *> Env;
  std::vector<Stmt *> *Out = nullptr;
};

/// Redundant Get elimination: forward pass tracking the current contents of
/// guest-state slots, from PUTs seen and previous GETs.
class RedundantGet {
public:
  RedundantGet(IRSB &SB, const TraceOptConfig *Trace = nullptr)
      : SB(SB), Trace(Trace) {}

  void run() {
    for (Stmt *S : SB.stmts()) {
      switch (S->Kind) {
      case StmtKind::WrTmp:
        if (S->Data->Kind == ExprKind::Get) {
          Range R = rangeOfGet(S->Data);
          if (Expr *Known = findExact(R, S->Data->T)) {
            // Replace the Get with the known atom; PropFold then propagates.
            S->Data = Known;
          } else {
            record(R, SB.rdTmp(S->Tmp));
          }
        }
        break;
      case StmtKind::Put: {
        Range R = rangeOfPut(S);
        invalidate(R);
        if (S->Data->isAtom())
          record(R, S->Data);
        break;
      }
      case StmtKind::Dirty:
        // An unannotated helper may touch any guest-state slot. Trace tier
        // only: a helper declared StateFxComplete is exactly its Fx list,
        // so probe/check calls between former block seams stop killing
        // Get/Put forwarding (gated on Trace to keep tiers 0/1 untouched).
        if (S->Fx.empty() &&
            !(Trace && S->CalleeFn && S->CalleeFn->StateFxComplete)) {
          Slots.clear();
        } else {
          for (const GuestFx &F : S->Fx)
            if (F.IsWrite)
              invalidate(Range{F.Offset, F.Offset + F.Size});
        }
        break;
      default:
        break;
      }
    }
  }

private:
  struct Slot {
    Range R;
    Expr *Val;
  };

  Expr *findExact(Range R, Ty T) {
    for (const Slot &S : Slots)
      if (S.R.Lo == R.Lo && S.R.Hi == R.Hi && S.Val->T == T)
        return S.Val;
    return nullptr;
  }

  void invalidate(Range R) {
    for (size_t I = 0; I != Slots.size();) {
      if (Slots[I].R.overlaps(R)) {
        Slots[I] = Slots.back();
        Slots.pop_back();
      } else {
        ++I;
      }
    }
  }

  void record(Range R, Expr *Val) {
    invalidate(R);
    Slots.push_back(Slot{R, Val});
  }

  IRSB &SB;
  const TraceOptConfig *Trace;
  std::vector<Slot> Slots;
};

/// Redundant Put elimination (backward): a PUT whose slot is overwritten by
/// a later PUT before any observation (Get, Dirty, Exit, or block end) is
/// dead. This is what removes the intermediate %pc writes in Figure 1's
/// optimisation (paper Section 3.7, Phase 2).
class DeadPut {
public:
  DeadPut(IRSB &SB, const PreservedPuts &Preserve,
          const TraceOptConfig *Trace = nullptr)
      : SB(SB), Preserve(Preserve), Trace(Trace) {}

  void run() {
    auto &Stmts = SB.stmts();
    std::vector<Stmt *> Kept;
    Kept.reserve(Stmts.size());
    // Walk backwards. Pending = slots that will be overwritten.
    if (Trace)
      Pending = takenPendingRanges(nullptr); // liveness at the block end
    for (size_t I = Stmts.size(); I-- > 0;) {
      Stmt *S = Stmts[I];
      bool Keep = true;
      switch (S->Kind) {
      case StmtKind::Put: {
        Range R = rangeOfPut(S);
        if (!Preserve.covers(S->Offset) && isFullyPending(R)) {
          Keep = false;
          if (Trace && Trace->Stats && overlapsCC(R))
            ++Trace->Stats->DeadFlagPuts;
        } else {
          addPending(R);
        }
        break;
      }
      case StmtKind::WrTmp:
        if (S->Data->Kind == ExprKind::Get)
          removePending(rangeOfGet(S->Data));
        break;
      case StmtKind::Dirty:
        // See RedundantGet: a StateFxComplete helper is its Fx list.
        if (S->Fx.empty() &&
            !(Trace && S->CalleeFn && S->CalleeFn->StateFxComplete)) {
          Pending.clear();
        } else {
          for (const GuestFx &F : S->Fx)
            removePending(Range{F.Offset, F.Offset + F.Size});
        }
        break;
      case StmtKind::Exit:
        if (Trace) {
          // A side exit is a jump with known downstream liveness, not a
          // barrier: a Put is dead only if overwritten on the taken path
          // (exit-target liveness) AND on the fall-through path (current
          // Pending), so intersect the two sets.
          std::vector<Range> Taken = takenPendingRanges(S);
          std::vector<Range> Isect;
          for (Range T : Taken)
            for (Range P : Pending) {
              Range R{std::max(T.Lo, P.Lo), std::min(T.Hi, P.Hi)};
              if (R.Lo < R.Hi)
                Isect.push_back(R);
            }
          Pending = std::move(Isect);
        } else {
          Pending.clear();
        }
        break;
      default:
        break;
      }
      if (Keep)
        Kept.push_back(S);
    }
    std::reverse(Kept.begin(), Kept.end());
    SB.setStmts(std::move(Kept));
  }

private:
  bool isFullyPending(Range R) {
    for (Range P : Pending)
      if (P.covers(R))
        return true;
    return false;
  }

  /// Guest-state ranges guaranteed to be overwritten, before any read,
  /// once this exit is taken (\p S null = the fall-off-the-end next).
  /// The PC slot is unconditional: every executor exit path rewrites it.
  /// The CC thunk (and its shadow mirror) joins when the proven-Boring
  /// target overwrites the whole thunk before reading it.
  std::vector<Range> takenPendingRanges(const Stmt *S) const {
    std::vector<Range> T;
    if (Trace->PCHi > Trace->PCLo)
      T.push_back(Range{Trace->PCLo, Trace->PCHi});
    bool CCDead = S ? (S->JK == JumpKind::Boring &&
                       Trace->flagsDeadAtTarget(S->DstPC))
                    : Trace->FlagsDeadAtEnd;
    if (CCDead && Trace->CCHi > Trace->CCLo) {
      T.push_back(Range{Trace->CCLo, Trace->CCHi});
      if (Trace->ShadowOffset)
        T.push_back(Range{Trace->CCLo + Trace->ShadowOffset,
                          Trace->CCHi + Trace->ShadowOffset});
    }
    return T;
  }

  bool overlapsCC(Range R) const {
    if (Trace->CCHi == Trace->CCLo)
      return false;
    Range CC{Trace->CCLo, Trace->CCHi};
    Range SCC{Trace->CCLo + Trace->ShadowOffset,
              Trace->CCHi + Trace->ShadowOffset};
    return CC.overlaps(R) || (Trace->ShadowOffset && SCC.overlaps(R));
  }

  void addPending(Range R) { Pending.push_back(R); }

  void removePending(Range R) {
    for (size_t I = 0; I != Pending.size();) {
      if (Pending[I].overlaps(R)) {
        Pending[I] = Pending.back();
        Pending.pop_back();
      } else {
        ++I;
      }
    }
  }

  IRSB &SB;
  const PreservedPuts &Preserve;
  const TraceOptConfig *Trace;
  std::vector<Range> Pending;
};

/// Local common-subexpression elimination over pure flat-IR right-hand
/// sides (Unop/Binop/ITE/CCall). Loads are not CSEd (stores would have to
/// invalidate them); Gets are handled by RedundantGet instead.
class CSE {
public:
  explicit CSE(IRSB &SB) : SB(SB) {}

  void run() {
    for (Stmt *S : SB.stmts()) {
      if (S->Kind != StmtKind::WrTmp)
        continue;
      Expr *D = S->Data;
      if (D->Kind != ExprKind::Unop && D->Kind != ExprKind::Binop &&
          D->Kind != ExprKind::ITE && D->Kind != ExprKind::CCall)
        continue;
      std::string Key = keyOf(D);
      auto [It, Inserted] = Table.try_emplace(Key, S->Tmp);
      if (!Inserted)
        S->Data = SB.rdTmp(It->second); // PropFold folds the copy away
    }
  }

private:
  static void atomKey(const Expr *E, std::string &K) {
    if (E->isConst()) {
      K += 'c';
      K += std::to_string(E->ConstVal);
    } else {
      K += 't';
      K += std::to_string(E->Tmp);
    }
    K += '.';
  }

  /// \p D is a Unop, Binop, ITE or CCall (see run()).
  static std::string keyOf(const Expr *D) {
    std::string K;
    if (D->Kind == ExprKind::ITE) {
      K += 'i';
    } else if (D->Kind == ExprKind::CCall) {
      K += 'h';
      K += std::to_string(reinterpret_cast<uintptr_t>(D->CalleeFn));
      K += '.';
    } else {
      K += 'o';
      K += std::to_string(static_cast<unsigned>(D->Opc));
      K += '.';
    }
    forEachOperand(*D, [&](const Expr *A) { atomKey(A, K); });
    return K;
  }

  IRSB &SB;
  std::map<std::string, TmpId> Table;
};

/// Dead code elimination: removes WrTmps whose temporaries are never used
/// (backwards liveness in one pass, since flat IR defs precede uses).
class DeadCode {
public:
  explicit DeadCode(IRSB &SB) : SB(SB) {}

  void run() {
    Live.assign(SB.numTmps(), false);
    markExpr(SB.next());
    auto &Stmts = SB.stmts();
    std::vector<Stmt *> Kept;
    Kept.reserve(Stmts.size());
    for (size_t I = Stmts.size(); I-- > 0;) {
      Stmt *S = Stmts[I];
      if (S->Kind == StmtKind::NoOp)
        continue;
      if (S->Kind == StmtKind::WrTmp && !Live[S->Tmp])
        continue; // dead def of a pure value
      forEachExpr(*S, [&](const Expr *E) { markExpr(E); });
      Kept.push_back(S);
    }
    std::reverse(Kept.begin(), Kept.end());
    SB.setStmts(std::move(Kept));
  }

private:
  void markExpr(const Expr *E) {
    if (E->isRdTmp())
      Live[E->Tmp] = true;
    forEachOperand(*E, [&](const Expr *A) { markExpr(A); });
  }

  IRSB &SB;
  std::vector<bool> Live;
};

/// Trace tier only: CSE of ShadowProbe *load* probes across former block
/// seams. When a trace re-checks an address its earlier constituent
/// already probed, the probe result (V-word or punt marker) is unchanged
/// provided nothing in between can write tool shadow state, so the second
/// probe collapses to a tmp copy (guard hoisting: the check runs once at
/// the first access). Store-form probes and Dirty calls without
/// Callee::PreservesShadow clobber the table; guest Put/Store/Load/Exit
/// never touch the shadow map (on a taken side exit the rewritten copy is
/// simply not reached). A punting address stays a punt both times, so the
/// slow-path helper still runs per access and error counts are unchanged.
class ShadowProbeCSE {
public:
  ShadowProbeCSE(IRSB &SB, TraceOptStats *Stats) : SB(SB), Stats(Stats) {}

  void run() {
    for (Stmt *S : SB.stmts()) {
      switch (S->Kind) {
      case StmtKind::ShadowProbe: {
        if (S->Data) { // store form: writes V-bits
          Table.clear();
          break;
        }
        std::string Key = keyOfAddr(S->Addr, S->AccSize);
        auto [It, Inserted] = Table.try_emplace(Key, S->Tmp);
        if (!Inserted) {
          S->Kind = StmtKind::WrTmp;
          S->Data = SB.rdTmp(It->second);
          S->Addr = nullptr;
          if (Stats)
            ++Stats->ProbesCSEd;
        }
        break;
      }
      case StmtKind::Dirty:
        if (!S->CalleeFn || !S->CalleeFn->PreservesShadow)
          Table.clear();
        break;
      default:
        break;
      }
    }
  }

private:
  static std::string keyOfAddr(const Expr *Addr, uint8_t Size) {
    std::string K;
    if (Addr->isConst()) {
      K += 'c';
      K += std::to_string(Addr->ConstVal);
    } else {
      K += 't';
      K += std::to_string(Addr->Tmp);
    }
    K += '.';
    K += std::to_string(Size);
    return K;
  }

  IRSB &SB;
  TraceOptStats *Stats;
  std::map<std::string, TmpId> Table;
};

void optRound(IRSB &SB, const SpecFn &Spec, const PreservedPuts &Preserve,
              const TraceOptConfig *Trace) {
  PropFold(SB, Spec).run();
  RedundantGet(SB, Trace).run();
  PropFold(SB, Spec).run();
  CSE(SB).run();
  PropFold(SB, Spec).run();
  DeadPut(SB, Preserve, Trace).run();
  DeadCode(SB).run();
}

} // namespace

void ir::optimise1(IRSB &SB, const SpecFn &Spec,
                   const PreservedPuts &Preserve,
                   const TraceOptConfig *Trace) {
  // Two rounds reach a fixpoint on all blocks the front end produces.
  for (int Round = 0; Round != 2; ++Round)
    optRound(SB, Spec, Preserve, Trace);
}

void ir::optimise2(IRSB &SB, const SpecFn &Spec,
                   const PreservedPuts &Preserve,
                   const TraceOptConfig *Trace) {
  // Analysis code benefits from Get/Put forwarding just like client code
  // (Section 4 R1: "shadow operations benefit fully from Valgrind's
  // post-instrumentation IR optimiser") — e.g. per-instruction inline
  // counters collapse to one load, N adds, and one store per block.
  optRound(SB, Spec, Preserve, Trace);
  if (Trace) {
    // Cross-seam probe dedup exposes fresh copies and common guard
    // expressions; one more round folds and sweeps them.
    ShadowProbeCSE(SB, Trace->Stats).run();
    optRound(SB, Spec, Preserve, Trace);
  }
}

//===----------------------------------------------------------------------===//
// Tree building: flat IR -> tree IR (Phase 5)
//===----------------------------------------------------------------------===//

namespace {

/// Rebuilds expression trees by substituting single-use temporaries into
/// their use points. Loads are never moved past stores; Gets never past
/// conflicting Puts; nothing is carried across a Dirty call; load-bearing
/// trees are not carried across guarded exits (fault-timing preservation).
class TreeBuilder {
public:
  explicit TreeBuilder(IRSB &SB) : SB(SB) {}

  void run() {
    countUses();
    std::vector<Stmt *> NewStmts;
    NewStmts.reserve(SB.stmts().size());
    Emit = &NewStmts;

    for (Stmt *S : SB.stmts()) {
      forEachExpr(*S, [&](Expr *&E) { E = substitute(E); });
      switch (S->Kind) {
      case StmtKind::NoOp:
        continue;
      case StmtKind::IMark:
        break;
      case StmtKind::WrTmp:
        if (UseCount[S->Tmp] == 1) {
          hold(S);
          continue;
        }
        break;
      case StmtKind::Put:
        flushConflicting(/*OnStore=*/false, /*OnPut=*/true,
                         rangeOfPut(S), /*All=*/false, /*OnExit=*/false);
        break;
      case StmtKind::Store:
        flushConflicting(/*OnStore=*/true, false, {}, false, false);
        break;
      case StmtKind::Dirty:
        flushConflicting(false, false, {}, /*All=*/true, false);
        break;
      case StmtKind::Exit:
        flushConflicting(false, false, {}, false, /*OnExit=*/true);
        break;
      case StmtKind::ShadowProbe:
        // Touches only shadow state, so held guest loads/gets may cross it.
        break;
      }
      NewStmts.push_back(S);
    }

    SB.setNext(substitute(SB.next()), SB.endJumpKind());
    // Emit any still-held defs whose value is (somehow) still needed.
    for (Pending &P : Held)
      if (!P.Consumed && UseCount[P.Def->Tmp] > 0)
        NewStmts.push_back(P.Def);
    SB.setStmts(std::move(NewStmts));
  }

private:
  struct Pending {
    Stmt *Def;
    bool HasLoad = false;
    bool HasGet = false;
    std::vector<Range> GetRanges;
    bool Consumed = false;
  };

  void countExpr(const Expr *E) {
    if (E->isRdTmp()) {
      if (E->Tmp >= UseCount.size())
        UseCount.resize(E->Tmp + 1, 0);
      ++UseCount[E->Tmp];
    }
    forEachOperand(*E, [&](const Expr *A) { countExpr(A); });
  }

  void countUses() {
    UseCount.assign(SB.numTmps(), 0);
    for (const Stmt *S : SB.stmts())
      forEachExpr(*S, [&](const Expr *E) { countExpr(E); });
    countExpr(SB.next());
  }

  static void scanExpr(const Expr *E, Pending &P) {
    if (E->Kind == ExprKind::Load) {
      P.HasLoad = true;
    } else if (E->Kind == ExprKind::Get) {
      P.HasGet = true;
      P.GetRanges.push_back(rangeOfGet(E));
    }
    forEachOperand(*E, [&](const Expr *A) { scanExpr(A, P); });
  }

  void hold(Stmt *Def) {
    Pending P;
    P.Def = Def;
    scanExpr(Def->Data, P);
    Held.push_back(std::move(P));
  }

  /// Splices held single-use defs into \p E where their tmp is read.
  Expr *substitute(Expr *E) {
    if (E->isRdTmp()) {
      for (Pending &P : Held) {
        if (!P.Consumed && P.Def->Tmp == E->Tmp) {
          P.Consumed = true;
          return P.Def->Data; // already tree-substituted when held
        }
      }
      return E;
    }
    forEachOperand(*E, [&](Expr *&A) { A = substitute(A); });
    return E;
  }

  /// Emits (in order) all held defs that cannot legally cross the current
  /// barrier statement.
  void flushConflicting(bool OnStore, bool OnPut, Range PutRange, bool All,
                        bool OnExit) {
    std::vector<Pending> Still;
    for (Pending &P : Held) {
      if (P.Consumed)
        continue;
      bool Conflicts = All;
      if (OnStore && P.HasLoad)
        Conflicts = true;
      if (OnExit && P.HasLoad)
        Conflicts = true;
      if (OnPut && P.HasGet)
        for (Range R : P.GetRanges)
          if (R.overlaps(PutRange))
            Conflicts = true;
      if (Conflicts)
        Emit->push_back(P.Def);
      else
        Still.push_back(std::move(P));
    }
    Held = std::move(Still);
  }

  IRSB &SB;
  std::vector<uint32_t> UseCount;
  std::vector<Pending> Held;
  std::vector<Stmt *> *Emit = nullptr;
};

} // namespace

void ir::buildTrees(IRSB &SB) { TreeBuilder(SB).run(); }
