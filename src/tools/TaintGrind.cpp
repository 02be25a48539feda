//===-- tools/TaintGrind.cpp - Taint tracker ------------------------------==//

#include "tools/TaintGrind.h"

#include "guest/GuestArch.h"

#include <cstring>

using namespace vg;
using namespace vg::ir;
using namespace vg::vg1;

//===----------------------------------------------------------------------===//
// TaintMap
//===----------------------------------------------------------------------===//

void TaintMap::set(uint32_t Addr, uint32_t Len, bool Tainted) {
  for (uint32_t I = 0; I != Len; ++I) {
    uint32_t A = Addr + I;
    auto &Page = Pages[A >> PageBits];
    Page[A & (PageSize - 1)] = Tainted ? 0xFF : 0;
  }
}

bool TaintMap::any(uint32_t Addr, uint32_t Len) const {
  for (uint32_t I = 0; I != Len; ++I) {
    uint32_t A = Addr + I;
    auto It = Pages.find(A >> PageBits);
    if (It != Pages.end() && It->second[A & (PageSize - 1)])
      return true;
  }
  return false;
}

uint64_t TaintMap::load(uint32_t Addr, uint32_t Size) const {
  uint64_t M = 0;
  for (uint32_t I = 0; I != Size; ++I) {
    uint32_t A = Addr + I;
    auto It = Pages.find(A >> PageBits);
    if (It != Pages.end())
      M |= static_cast<uint64_t>(It->second[A & (PageSize - 1)]) << (8 * I);
  }
  return M;
}

void TaintMap::store(uint32_t Addr, uint32_t Size, uint64_t Mask) {
  for (uint32_t I = 0; I != Size; ++I) {
    uint32_t A = Addr + I;
    uint8_t B = static_cast<uint8_t>(Mask >> (8 * I));
    auto It = Pages.find(A >> PageBits);
    if (It == Pages.end()) {
      if (!B)
        continue; // stay sparse for untainted stores
      It = Pages.try_emplace(A >> PageBits).first;
    }
    It->second[A & (PageSize - 1)] = B;
  }
}

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

namespace {
TaintGrind *toolOf(void *Env) {
  return static_cast<TaintGrind *>(static_cast<ExecContext *>(Env)->Tool);
}
} // namespace

uint64_t TaintGrind::helperLoadT(void *Env, uint64_t Addr, uint64_t Size,
                                 uint64_t, uint64_t) {
  return toolOf(Env)->TM.load(static_cast<uint32_t>(Addr),
                              static_cast<uint32_t>(Size));
}

uint64_t TaintGrind::helperStoreT(void *Env, uint64_t Addr, uint64_t Mask,
                                  uint64_t Size, uint64_t) {
  toolOf(Env)->TM.store(static_cast<uint32_t>(Addr),
                        static_cast<uint32_t>(Size), Mask);
  return 0;
}

uint64_t TaintGrind::helperTaintedJump(void *Env, uint64_t PC, uint64_t,
                                       uint64_t, uint64_t) {
  TaintGrind *T = toolOf(Env);
  T->report("TaintedJump",
            "Indirect jump/call target depends on tainted input",
            static_cast<uint32_t>(PC));
  return 0;
}

uint64_t TaintGrind::helperTaintedBranch(void *Env, uint64_t PC, uint64_t,
                                         uint64_t, uint64_t) {
  TaintGrind *T = toolOf(Env);
  T->report("TaintedControl", "Conditional branch depends on tainted input",
            static_cast<uint32_t>(PC));
  return 0;
}

namespace {
const Callee LoadTCallee = {"tg_LOADT", &TaintGrind::helperLoadT, 0};
const Callee StoreTCallee = {"tg_STORET", &TaintGrind::helperStoreT, 0};
const Callee TaintedJumpCallee = {"tg_tainted_jump",
                                  &TaintGrind::helperTaintedJump, 0};
const Callee TaintedBranchCallee = {"tg_tainted_branch",
                                    &TaintGrind::helperTaintedBranch, 0};
const ir::CalleeRegistrar RegisterCallees{&LoadTCallee, &StoreTCallee,
                                          &TaintedJumpCallee,
                                          &TaintedBranchCallee};
} // namespace

//===----------------------------------------------------------------------===//
// Instrumentation: pure UifU shadow propagation
//===----------------------------------------------------------------------===//

namespace {

class TgInstrumenter {
public:
  TgInstrumenter(IRSB &SB, bool CheckBranches)
      : SB(SB), CheckBranches(CheckBranches) {}

  void run() {
    std::vector<Stmt *> Old;
    Old.swap(SB.stmts());
    for (Stmt *S : Old)
      visit(S);
    Expr *Next = SB.next();
    if (Next->isRdTmp()) {
      Expr *TN = tAtom(Next);
      Expr *G = atom(SB.unop(Op::CmpNEZ32, TN));
      SB.dirty(&TaintedJumpCallee, {SB.constI64(CurPC)}, NoTmp, G);
    }
  }

private:
  static Ty shTy(Ty T) { return T == Ty::F64 ? Ty::I64 : T; }

  TmpId taintOf(TmpId T) {
    if (T >= TaintTmp.size())
      TaintTmp.resize(T + 1, NoTmp);
    if (TaintTmp[T] == NoTmp)
      TaintTmp[T] = SB.newTmp(shTy(SB.typeOfTmp(T)));
    return TaintTmp[T];
  }

  Expr *tAtom(const Expr *A) {
    if (A->isConst())
      return SB.mkConst(shTy(A->T), 0);
    return SB.rdTmp(taintOf(A->Tmp));
  }

  Expr *atom(Expr *E) { return E->isAtom() ? E : SB.rdTmp(SB.wrTmp(E)); }

  static Op cmpNEZOp(Ty T) {
    switch (T) {
    case Ty::I8:
      return Op::CmpNEZ8;
    case Ty::I16:
      return Op::CmpNEZ16;
    case Ty::I32:
      return Op::CmpNEZ32;
    default:
      return Op::CmpNEZ64;
    }
  }

  /// Taint-cast: any tainted input byte taints the whole result.
  Expr *tcast(Ty From, Ty To, Expr *V) {
    Expr *C = From == Ty::I1 ? V : atom(SB.unop(cmpNEZOp(From), V));
    switch (To) {
    case Ty::I1:
      return C;
    case Ty::I8:
      return atom(SB.unop(Op::Neg8, atom(SB.unop(Op::U1to8, C))));
    case Ty::I16:
      return atom(SB.unop(
          Op::T32to16,
          atom(SB.unop(Op::Neg32, atom(SB.unop(Op::U1to32, C))))));
    case Ty::I32:
      return atom(SB.unop(Op::Neg32, atom(SB.unop(Op::U1to32, C))));
    default:
      return atom(SB.unop(Op::Neg64, atom(SB.unop(Op::U1to64, C))));
    }
  }

  Expr *taintForRhs(Expr *D) {
    switch (D->Kind) {
    case ExprKind::Const:
      return SB.mkConst(shTy(D->T), 0);
    case ExprKind::RdTmp:
      return tAtom(D);
    case ExprKind::Get:
      return atom(SB.get(D->Offset + gso::ShadowOffset, shTy(D->T)));
    case ExprKind::Unop: {
      Expr *V = tAtom(D->Arg[0]);
      // Conversions carry taint bytes with them; everything else t-casts.
      switch (D->Opc) {
      case Op::U1to8:
      case Op::U1to32:
      case Op::U1to64:
      case Op::U8to16:
      case Op::U8to32:
      case Op::S8to32:
      case Op::U8to64:
      case Op::U16to32:
      case Op::S16to32:
      case Op::U16to64:
      case Op::U32to64:
      case Op::S32to64:
      case Op::T16to8:
      case Op::T32to8:
      case Op::T32to16:
      case Op::T64to32:
      case Op::T64HIto32:
      case Op::T32to1:
      case Op::T64to1:
      case Op::Not8:
      case Op::Not16:
      case Op::Not32:
      case Op::Not64:
        return atom(SB.unop(D->Opc == Op::Not8 || D->Opc == Op::Not16 ||
                                    D->Opc == Op::Not32 || D->Opc == Op::Not64
                                ? D->Opc // Not: taint unchanged? keep width
                                : D->Opc,
                            V));
      case Op::ReinterpF64asI64:
      case Op::ReinterpI64asF64:
        return V;
      default:
        return tcast(shTy(opArgTy(D->Opc, 0)), shTy(D->T), V);
      }
    }
    case ExprKind::Binop: {
      Expr *V1 = tAtom(D->Arg[0]);
      Expr *V2 = tAtom(D->Arg[1]);
      Ty A0 = shTy(D->Arg[0]->T), A1 = shTy(D->Arg[1]->T);
      Ty RT = shTy(D->T);
      // Bring both to the result width, then UifU.
      Expr *W1 = A0 == RT ? V1 : tcast(A0, RT, V1);
      Expr *W2 = A1 == RT ? V2 : tcast(A1, RT, V2);
      Op OrO = RT == Ty::I8    ? Op::Or8
               : RT == Ty::I16 ? Op::Or16
               : RT == Ty::I32 ? Op::Or32
                               : Op::Or64;
      if (RT == Ty::I1)
        return tcast(Ty::I32, Ty::I1,
                     atom(SB.binop(Op::Or32, tcast(A0, Ty::I32, V1),
                                   tcast(A1, Ty::I32, V2))));
      return atom(SB.binop(OrO, W1, W2));
    }
    case ExprKind::Load: {
      TmpId TV = SB.newTmp(shTy(D->T));
      SB.dirty(&LoadTCallee,
               {D->Arg[0], SB.constI64(tySizeBits(D->T) / 8)}, TV);
      return SB.rdTmp(TV);
    }
    case ExprKind::ITE: {
      Expr *Sel = atom(SB.ite(D->Arg[0], tAtom(D->Arg[1]), tAtom(D->Arg[2])));
      Expr *TC = tcast(Ty::I1, shTy(D->T), tAtom(D->Arg[0]));
      Op OrO = shTy(D->T) == Ty::I64 ? Op::Or64 : Op::Or32;
      if (shTy(D->T) == Ty::I1)
        return atom(SB.ite(tAtom(D->Arg[0]), SB.constI1(true), Sel));
      return atom(SB.binop(OrO, Sel, TC));
    }
    case ExprKind::CCall: {
      Expr *Acc = SB.constI32(0);
      for (const Expr *A : D->CallArgs)
        Acc = atom(SB.binop(Op::Or32, Acc,
                            tcast(shTy(A->T), Ty::I32, tAtom(A))));
      return tcast(Ty::I32, shTy(D->T), Acc);
    }
    }
    unreachable("taintForRhs: bad kind");
  }

  void visit(Stmt *S) {
    switch (S->Kind) {
    case StmtKind::NoOp:
      return;
    case StmtKind::IMark:
      CurPC = S->IAddr;
      SB.append(S);
      return;
    case StmtKind::Put:
      SB.put(S->Offset + gso::ShadowOffset, tAtom(S->Data));
      SB.append(S);
      return;
    case StmtKind::WrTmp: {
      Expr *T = taintForRhs(S->Data);
      SB.wrTmpTo(taintOf(S->Tmp), T);
      SB.append(S);
      return;
    }
    case StmtKind::Store:
      SB.dirty(&StoreTCallee,
               {S->Addr, tAtom(S->Data),
                SB.constI64(tySizeBits(S->Data->T) / 8)});
      SB.append(S);
      return;
    case StmtKind::Dirty:
      SB.append(S);
      for (const GuestFx &F : S->Fx) {
        if (!F.IsWrite)
          continue;
        uint32_t Off = F.Offset + gso::ShadowOffset;
        if (F.Size == 4)
          SB.put(Off, SB.constI32(0));
        else if (F.Size == 8)
          SB.put(Off, SB.constI64(0));
      }
      if (S->Tmp != NoTmp)
        SB.wrTmpTo(taintOf(S->Tmp),
                   SB.mkConst(shTy(SB.typeOfTmp(S->Tmp)), 0));
      return;
    case StmtKind::Exit:
      if (CheckBranches) {
        Expr *TG = tAtom(S->Guard);
        SB.dirty(&TaintedBranchCallee, {SB.constI64(CurPC)}, NoTmp, TG);
      }
      SB.append(S);
      return;
    case StmtKind::ShadowProbe:
      // Only Memcheck's instrumenter creates probes.
      unreachable("TaintGrind: shadow probe in uninstrumented IR");
    }
  }

  IRSB &SB;
  bool CheckBranches;
  std::vector<TmpId> TaintTmp;
  uint32_t CurPC = 0;
};

} // namespace

void TaintGrind::instrument(IRSB &SB) {
  TgInstrumenter(SB, CheckBranches).run();
}

//===----------------------------------------------------------------------===//
// Tool plumbing
//===----------------------------------------------------------------------===//

void TaintGrind::registerOptions(OptionRegistry &Opts) {
  Opts.addOption("taint-branches", "no",
                 "also flag conditional branches on tainted data");
}

void TaintGrind::init(Core &Core_) {
  C = &Core_;
  CheckBranches = C->options().getBool("taint-branches");
  EventHub &E = C->events();
  E.PostFileRead = [this](int Tid, uint32_t Fd, uint32_t Addr, uint32_t Len,
                          const char *Source) {
    bool Untrusted =
        Fd == 0 || std::strncmp(Source, "tainted:", 8) == 0;
    if (!Untrusted)
      return;
    TM.set(Addr, Len, true);
    TaintedInputBytes += Len;
  };
  E.PreRegRead = [this](int Tid, uint32_t Off, uint32_t Size,
                        const char *Sys) {
    ThreadState &TS = C->thread(Tid);
    for (uint32_t I = 0; I != Size; ++I) {
      if (TS.Guest[vg1::gso::ShadowOffset + Off + I]) {
        report("TaintedSyscall",
               std::string("Tainted value passed to syscall parameter ") +
                   Sys,
               TS.getPC());
        return;
      }
    }
  };
  // Taint dies with the memory holding it.
  E.DieMemMunmap = [this](uint32_t A, uint32_t L) { TM.set(A, L, false); };
  E.DieMemStack = [this](uint32_t A, uint32_t L) { TM.set(A, L, false); };
}

bool TaintGrind::handleClientRequest(int Tid, uint32_t Code,
                                     const uint32_t Args[4],
                                     uint32_t &Result) {
  switch (Code) {
  case TgTaint:
  case TgLegacyTaint:
    TM.set(Args[0], Args[1], true);
    return true;
  case TgUntaint:
  case TgLegacyUntaint:
    TM.set(Args[0], Args[1], false);
    return true;
  case TgIsTainted:
  case TgLegacyIsTainted:
    Result = TM.any(Args[0], Args[1]) ? 1 : 0;
    return true;
  default:
    return false;
  }
}

void TaintGrind::report(const char *Kind, const std::string &Msg,
                        uint32_t PC) {
  bool IsNew = C->errors().record(Kind, "==taintgrind== " + Msg, PC);
  if (IsNew)
    C->output().printf("==taintgrind== %s\n==taintgrind==    at 0x%08X\n",
                       Msg.c_str(), PC);
}

void TaintGrind::fini(int ExitCode) {
  C->output().printf("==taintgrind== tainted input bytes: %llu\n",
                     static_cast<unsigned long long>(TaintedInputBytes));
  C->errors().printSummary(C->output());
}
