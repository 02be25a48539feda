//===-- ir/IR.cpp - IR factories, typing, and evaluation ------------------==//

#include "ir/IR.h"
#include "ir/OpEval.h"

#include <map>
#include <mutex>

using namespace vg;
using namespace vg::ir;

//===----------------------------------------------------------------------===//
// Helper-callee registry
//===----------------------------------------------------------------------===//

namespace {

struct CalleeRegistry {
  std::mutex Mu;
  std::map<std::string, const Callee *> ByName;
  std::map<const Callee *, const char *> ByPtr;
};

CalleeRegistry &calleeRegistry() {
  static CalleeRegistry R; // never destroyed before the registrar statics
  return R;
}

} // namespace

void ir::registerCallee(const Callee *C) {
  if (!C || !C->Name)
    return;
  CalleeRegistry &R = calleeRegistry();
  std::lock_guard<std::mutex> L(R.Mu);
  auto [It, Inserted] = R.ByName.emplace(C->Name, C);
  if (!Inserted && It->second != C)
    unreachable("two helper callees registered under one name");
  R.ByPtr.emplace(C, C->Name);
}

const Callee *ir::findCalleeByName(const std::string &Name) {
  CalleeRegistry &R = calleeRegistry();
  std::lock_guard<std::mutex> L(R.Mu);
  auto It = R.ByName.find(Name);
  return It == R.ByName.end() ? nullptr : It->second;
}

const char *ir::registeredCalleeName(const Callee *C) {
  CalleeRegistry &R = calleeRegistry();
  std::lock_guard<std::mutex> L(R.Mu);
  auto It = R.ByPtr.find(C);
  return It == R.ByPtr.end() ? nullptr : It->second;
}

//===----------------------------------------------------------------------===//
// Types and op metadata
//===----------------------------------------------------------------------===//

const char *ir::tyName(Ty T) {
  static const char *const Names[] = {"I1", "I8", "I16", "I32", "I64", "F64"};
  return Names[static_cast<unsigned>(T)];
}

const char *ir::jumpKindName(JumpKind K) {
  switch (K) {
  case JumpKind::Boring:
    return "Boring";
  case JumpKind::Call:
    return "Call";
  case JumpKind::Ret:
    return "Ret";
  case JumpKind::Syscall:
    return "Syscall";
  case JumpKind::ClientReq:
    return "ClientReq";
  case JumpKind::Yield:
    return "Yield";
  case JumpKind::NoDecode:
    return "NoDecode";
  case JumpKind::SigSEGV:
    return "SigSEGV";
  case JumpKind::Exit:
    return "Exit";
  case JumpKind::SmcFail:
    return "SmcFail";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Op evaluation (shared by folder, executor, tests)
//===----------------------------------------------------------------------===//

uint64_t ir::evalOp(Op O, uint64_t A, uint64_t B) {
  switch (O) {
#define X(name, ...)                                                           \
  case Op::name:                                                               \
    return evalOpAt<Op::name>(A, B);
    VG_IROP_LIST(X)
#undef X
  }
  unreachable("evalOp: unhandled op");
}

//===----------------------------------------------------------------------===//
// IRSB factories
//===----------------------------------------------------------------------===//

Expr *IRSB::mkConst(Ty T, uint64_t Bits) {
  Expr *E = alloc();
  E->Kind = ExprKind::Const;
  E->T = T;
  E->ConstVal = truncToTy(Bits, T);
  return E;
}

Expr *IRSB::rdTmp(TmpId T) {
  assert(T < TmpTypes.size() && "RdTmp of unallocated temporary");
  Expr *E = alloc();
  E->Kind = ExprKind::RdTmp;
  E->T = TmpTypes[T];
  E->Tmp = T;
  return E;
}

Expr *IRSB::get(uint32_t Offset, Ty T) {
  Expr *E = alloc();
  E->Kind = ExprKind::Get;
  E->T = T;
  E->Offset = Offset;
  return E;
}

Expr *IRSB::unop(Op O, Expr *A) {
  assert(opArity(O) == 1 && "unop with non-unary op");
  Expr *E = alloc();
  E->Kind = ExprKind::Unop;
  E->T = opResultTy(O);
  E->Opc = O;
  E->Arg[0] = A;
  return E;
}

Expr *IRSB::binop(Op O, Expr *A, Expr *B) {
  assert(opArity(O) == 2 && "binop with non-binary op");
  Expr *E = alloc();
  E->Kind = ExprKind::Binop;
  E->T = opResultTy(O);
  E->Opc = O;
  E->Arg[0] = A;
  E->Arg[1] = B;
  return E;
}

Expr *IRSB::load(Ty T, Expr *Addr) {
  Expr *E = alloc();
  E->Kind = ExprKind::Load;
  E->T = T;
  E->Arg[0] = Addr;
  return E;
}

Expr *IRSB::ite(Expr *Cond, Expr *IfTrue, Expr *IfFalse) {
  assert(Cond->T == Ty::I1 && "ITE condition must be I1");
  Expr *E = alloc();
  E->Kind = ExprKind::ITE;
  E->T = IfTrue->T;
  E->Arg[0] = Cond;
  E->Arg[1] = IfTrue;
  E->Arg[2] = IfFalse;
  return E;
}

Expr *IRSB::ccall(const Callee *C, Ty RetTy, std::vector<Expr *> Args) {
  assert(Args.size() <= 4 && "helper ABI allows at most 4 arguments");
  Expr *E = alloc();
  E->Kind = ExprKind::CCall;
  E->T = RetTy;
  E->CalleeFn = C;
  E->CallArgs = std::move(Args);
  return E;
}

void IRSB::noop() {
  Stmt *S = allocStmt();
  S->Kind = StmtKind::NoOp;
  Statements.push_back(S);
}

void IRSB::imark(uint32_t Addr, uint8_t Len) {
  Stmt *S = allocStmt();
  S->Kind = StmtKind::IMark;
  S->IAddr = Addr;
  S->ILen = Len;
  Statements.push_back(S);
}

void IRSB::put(uint32_t Offset, Expr *Data) {
  Stmt *S = allocStmt();
  S->Kind = StmtKind::Put;
  S->Offset = Offset;
  S->Data = Data;
  Statements.push_back(S);
}

TmpId IRSB::wrTmp(Expr *Data) {
  TmpId T = newTmp(Data->T);
  wrTmpTo(T, Data);
  return T;
}

void IRSB::wrTmpTo(TmpId T, Expr *Data) {
  assert(typeOfTmp(T) == Data->T && "WrTmp type mismatch");
  Stmt *S = allocStmt();
  S->Kind = StmtKind::WrTmp;
  S->Tmp = T;
  S->Data = Data;
  Statements.push_back(S);
}

void IRSB::store(Expr *Addr, Expr *Data) {
  assert(Addr->T == Ty::I32 && "store address must be I32 (guest pointers)");
  Stmt *S = allocStmt();
  S->Kind = StmtKind::Store;
  S->Addr = Addr;
  S->Data = Data;
  Statements.push_back(S);
}

void IRSB::dirty(const Callee *C, std::vector<Expr *> Args, TmpId Dst,
                 Expr *Guard, std::vector<GuestFx> Fx) {
  assert(Args.size() <= 4 && "helper ABI allows at most 4 arguments");
  Stmt *S = allocStmt();
  S->Kind = StmtKind::Dirty;
  S->CalleeFn = C;
  S->CallArgs = std::move(Args);
  S->Tmp = Dst;
  S->Guard = Guard;
  S->Fx = std::move(Fx);
  Statements.push_back(S);
}

void IRSB::shadowProbe(Expr *Addr, Expr *Data, TmpId Dst, uint8_t Size) {
  assert(Addr->T == Ty::I32 && "probe address must be I32 (guest pointers)");
  assert(typeOfTmp(Dst) == Ty::I64 && "probe destination must be I64");
  Stmt *S = allocStmt();
  S->Kind = StmtKind::ShadowProbe;
  S->Addr = Addr;
  S->Data = Data;
  S->Tmp = Dst;
  S->AccSize = Size;
  Statements.push_back(S);
}

void IRSB::exit(Expr *Guard, uint32_t DstPC, JumpKind K) {
  assert(Guard->T == Ty::I1 && "exit guard must be I1");
  Stmt *S = allocStmt();
  S->Kind = StmtKind::Exit;
  S->Guard = Guard;
  S->DstPC = DstPC;
  S->JK = K;
  Statements.push_back(S);
}

//===----------------------------------------------------------------------===//
// Typechecker
//===----------------------------------------------------------------------===//

namespace {

struct Checker {
  const IRSB &SB;
  bool RequireFlat;
  std::string Diag;

  bool fail(const std::string &Msg) {
    if (Diag.empty())
      Diag = Msg;
    return false;
  }

  bool checkExpr(const Expr *E, bool MustBeAtom) {
    if (!E)
      return fail("null expression");
    if (MustBeAtom && !E->isAtom())
      return fail("non-atom operand in flat IR");
    switch (E->Kind) {
    case ExprKind::Const:
      if (E->ConstVal != truncToTy(E->ConstVal, E->T))
        return fail("constant wider than its type");
      return true;
    case ExprKind::RdTmp:
      if (E->Tmp >= SB.numTmps())
        return fail("RdTmp of out-of-range temporary");
      if (SB.typeOfTmp(E->Tmp) != E->T)
        return fail("RdTmp type disagrees with type environment");
      return true;
    case ExprKind::Get:
      return true;
    case ExprKind::Unop:
      if (opArity(E->Opc) != 1)
        return fail("unop node with binary opcode");
      if (E->T != opResultTy(E->Opc))
        return fail("unop result type mismatch");
      if (!checkExpr(E->Arg[0], RequireFlat))
        return false;
      if (E->Arg[0]->T != opArgTy(E->Opc, 0))
        return fail(std::string("unop arg type mismatch for ") +
                    opName(E->Opc));
      return true;
    case ExprKind::Binop:
      if (opArity(E->Opc) != 2)
        return fail("binop node with unary opcode");
      if (E->T != opResultTy(E->Opc))
        return fail("binop result type mismatch");
      for (unsigned I = 0; I != 2; ++I) {
        if (!checkExpr(E->Arg[I], RequireFlat))
          return false;
        if (E->Arg[I]->T != opArgTy(E->Opc, I))
          return fail(std::string("binop arg type mismatch for ") +
                      opName(E->Opc));
      }
      return true;
    case ExprKind::Load:
      if (!checkExpr(E->Arg[0], RequireFlat))
        return false;
      if (E->Arg[0]->T != Ty::I32)
        return fail("load address must be I32");
      return true;
    case ExprKind::ITE:
      if (!checkExpr(E->Arg[0], RequireFlat) ||
          !checkExpr(E->Arg[1], RequireFlat) ||
          !checkExpr(E->Arg[2], RequireFlat))
        return false;
      if (E->Arg[0]->T != Ty::I1)
        return fail("ITE condition must be I1");
      if (E->Arg[1]->T != E->T || E->Arg[2]->T != E->T)
        return fail("ITE arm type mismatch");
      return true;
    case ExprKind::CCall:
      if (!E->CalleeFn)
        return fail("CCall without callee");
      for (const Expr *A : E->CallArgs)
        if (!checkExpr(A, RequireFlat))
          return false;
      return true;
    }
    return fail("corrupt expression kind");
  }

  bool checkStmt(const Stmt *S) {
    switch (S->Kind) {
    case StmtKind::NoOp:
    case StmtKind::IMark:
      return true;
    case StmtKind::Put:
      return checkExpr(S->Data, RequireFlat);
    case StmtKind::WrTmp:
      if (S->Tmp >= SB.numTmps())
        return fail("WrTmp to out-of-range temporary");
      // The RHS of a WrTmp may be a (one-level or tree) expression; in flat
      // IR its *operands* must be atoms, which checkExpr enforces, so a
      // flat RHS is exactly one operation deep.
      if (!checkExpr(S->Data, false))
        return false;
      if (SB.typeOfTmp(S->Tmp) != S->Data->T)
        return fail("WrTmp type disagrees with type environment");
      return true;
    case StmtKind::Store:
      return checkExpr(S->Addr, RequireFlat) && checkExpr(S->Data, RequireFlat);
    case StmtKind::Dirty:
      if (!S->CalleeFn)
        return fail("Dirty without callee");
      for (const Expr *A : S->CallArgs)
        if (!checkExpr(A, RequireFlat))
          return false;
      if (S->Guard && !checkExpr(S->Guard, RequireFlat))
        return false;
      if (S->Guard && S->Guard->T != Ty::I1)
        return fail("Dirty guard must be I1");
      if (S->Tmp != NoTmp && S->Tmp >= SB.numTmps())
        return fail("Dirty destination out of range");
      return true;
    case StmtKind::Exit:
      if (!checkExpr(S->Guard, RequireFlat))
        return false;
      if (S->Guard->T != Ty::I1)
        return fail("Exit guard must be I1");
      return true;
    case StmtKind::ShadowProbe:
      if (!checkExpr(S->Addr, RequireFlat))
        return false;
      if (S->Addr->T != Ty::I32)
        return fail("ShadowProbe address must be I32");
      if (S->Data) {
        if (!checkExpr(S->Data, RequireFlat))
          return false;
        if (S->Data->T != Ty::I32)
          return fail("ShadowProbe store data must be I32");
      }
      if (S->Tmp >= SB.numTmps())
        return fail("ShadowProbe destination out of range");
      if (SB.typeOfTmp(S->Tmp) != Ty::I64)
        return fail("ShadowProbe destination must be I64");
      if (S->AccSize != 4)
        return fail("ShadowProbe only supports 4-byte accesses");
      return true;
    }
    return fail("corrupt statement kind");
  }
};

} // namespace

std::string IRSB::typecheck(bool RequireFlat) const {
  Checker C{*this, RequireFlat, {}};
  for (const Stmt *S : Statements)
    if (!C.checkStmt(S))
      return C.Diag;
  if (!Next)
    return "superblock has no next expression";
  if (!C.checkExpr(Next, RequireFlat))
    return C.Diag;
  if (Next->T != Ty::I32)
    return "next expression must be an I32 guest address";
  return {};
}
