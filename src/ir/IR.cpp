//===-- ir/IR.cpp - IR factories, typing, and evaluation ------------------==//

#include "ir/IR.h"

#include "support/FpCanon.h"

#include <cmath>
#include <cstring>
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
  switch (T) {
  case Ty::I1:
    return "I1";
  case Ty::I8:
    return "I8";
  case Ty::I16:
    return "I16";
  case Ty::I32:
    return "I32";
  case Ty::I64:
    return "I64";
  case Ty::F64:
    return "F64";
  }
  return "?";
}

unsigned ir::tySizeBits(Ty T) {
  switch (T) {
  case Ty::I1:
    return 1;
  case Ty::I8:
    return 8;
  case Ty::I16:
    return 16;
  case Ty::I32:
    return 32;
  case Ty::I64:
  case Ty::F64:
    return 64;
  }
  return 0;
}

namespace {
struct OpInfo {
  const char *Name;
  Ty Ret;
  unsigned NArgs;
  Ty A1, A2;
};
const OpInfo OpTable[] = {
#define X(name, rt, n, a1, a2) {#name, Ty::rt, n, Ty::a1, Ty::a2},
    VG_IROP_LIST(X)
#undef X
};
} // namespace

const char *ir::opName(Op O) { return OpTable[static_cast<unsigned>(O)].Name; }
Ty ir::opResultTy(Op O) { return OpTable[static_cast<unsigned>(O)].Ret; }
unsigned ir::opArity(Op O) { return OpTable[static_cast<unsigned>(O)].NArgs; }
Ty ir::opArgTy(Op O, unsigned Idx) {
  const OpInfo &I = OpTable[static_cast<unsigned>(O)];
  return Idx == 0 ? I.A1 : I.A2;
}

uint64_t ir::truncToTy(uint64_t V, Ty T) {
  switch (T) {
  case Ty::I1:
    return V & 1;
  case Ty::I8:
    return V & 0xFF;
  case Ty::I16:
    return V & 0xFFFF;
  case Ty::I32:
    return V & 0xFFFFFFFFull;
  case Ty::I64:
  case Ty::F64:
    return V;
  }
  return V;
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

namespace {

double asF64(uint64_t Bits) {
  double D;
  std::memcpy(&D, &Bits, 8);
  return D;
}

uint64_t fromF64(double D) {
  uint64_t Bits;
  std::memcpy(&Bits, &D, 8);
  return Bits;
}

uint64_t lanes8(uint64_t A, uint64_t B, int Mode) {
  uint32_t Out = 0;
  for (int L = 0; L != 4; ++L) {
    uint8_t X = static_cast<uint8_t>(A >> (8 * L));
    uint8_t Y = static_cast<uint8_t>(B >> (8 * L));
    uint8_t R = 0;
    switch (Mode) {
    case 0:
      R = static_cast<uint8_t>(X + Y);
      break;
    case 1:
      R = static_cast<uint8_t>(X - Y);
      break;
    case 2:
      R = static_cast<int8_t>(X) > static_cast<int8_t>(Y) ? 0xFF : 0;
      break;
    }
    Out |= static_cast<uint32_t>(R) << (8 * L);
  }
  return Out;
}

} // namespace

uint64_t ir::evalOp(Op O, uint64_t A, uint64_t B) {
  Ty RT = opResultTy(O);
  auto T = [&](uint64_t V) { return truncToTy(V, RT); };
  switch (O) {
  case Op::Add8:
  case Op::Add16:
  case Op::Add32:
  case Op::Add64:
    return T(A + B);
  case Op::Sub8:
  case Op::Sub16:
  case Op::Sub32:
  case Op::Sub64:
    return T(A - B);
  case Op::Mul8:
  case Op::Mul16:
  case Op::Mul32:
  case Op::Mul64:
    return T(A * B);
  case Op::And8:
  case Op::And16:
  case Op::And32:
  case Op::And64:
    return T(A & B);
  case Op::Or8:
  case Op::Or16:
  case Op::Or32:
  case Op::Or64:
    return T(A | B);
  case Op::Xor8:
  case Op::Xor16:
  case Op::Xor32:
  case Op::Xor64:
    return T(A ^ B);
  case Op::Shl8:
    return T(A << (B & 7));
  case Op::Shr8:
    return T((A & 0xFF) >> (B & 7));
  case Op::Sar8:
    return T(static_cast<uint64_t>(
        static_cast<int64_t>(static_cast<int8_t>(A)) >> (B & 7)));
  case Op::Shl16:
    return T(A << (B & 15));
  case Op::Shr16:
    return T((A & 0xFFFF) >> (B & 15));
  case Op::Sar16:
    return T(static_cast<uint64_t>(
        static_cast<int64_t>(static_cast<int16_t>(A)) >> (B & 15)));
  case Op::Shl32:
    return T(A << (B & 31));
  case Op::Shr32:
    return T((A & 0xFFFFFFFFull) >> (B & 31));
  case Op::Sar32:
    return T(static_cast<uint64_t>(
        static_cast<int64_t>(static_cast<int32_t>(A)) >> (B & 31)));
  case Op::Shl64:
    return A << (B & 63);
  case Op::Shr64:
    return A >> (B & 63);
  case Op::Sar64:
    return static_cast<uint64_t>(static_cast<int64_t>(A) >> (B & 63));
  case Op::DivU32: {
    uint32_t D = static_cast<uint32_t>(B);
    return D == 0 ? 0xFFFFFFFFull : (static_cast<uint32_t>(A) / D);
  }
  case Op::DivS32: {
    int32_t N = static_cast<int32_t>(A), D = static_cast<int32_t>(B);
    int32_t Q;
    if (D == 0)
      Q = -1;
    else if (N == INT32_MIN && D == -1)
      Q = INT32_MIN;
    else
      Q = N / D;
    return static_cast<uint32_t>(Q);
  }
  case Op::Not8:
  case Op::Not16:
  case Op::Not32:
  case Op::Not64:
    return T(~A);
  case Op::Neg8:
  case Op::Neg16:
  case Op::Neg32:
  case Op::Neg64:
    return T(0 - A);
  case Op::MullU32:
    return (A & 0xFFFFFFFFull) * (B & 0xFFFFFFFFull);
  case Op::MullS32:
    return static_cast<uint64_t>(
        static_cast<int64_t>(static_cast<int32_t>(A)) *
        static_cast<int64_t>(static_cast<int32_t>(B)));
  case Op::CmpEQ8:
    return static_cast<uint8_t>(A) == static_cast<uint8_t>(B);
  case Op::CmpNE8:
    return static_cast<uint8_t>(A) != static_cast<uint8_t>(B);
  case Op::CmpEQ16:
    return static_cast<uint16_t>(A) == static_cast<uint16_t>(B);
  case Op::CmpNE16:
    return static_cast<uint16_t>(A) != static_cast<uint16_t>(B);
  case Op::CmpEQ32:
    return static_cast<uint32_t>(A) == static_cast<uint32_t>(B);
  case Op::CmpNE32:
    return static_cast<uint32_t>(A) != static_cast<uint32_t>(B);
  case Op::CmpEQ64:
    return A == B;
  case Op::CmpNE64:
    return A != B;
  case Op::CmpLT32S:
    return static_cast<int32_t>(A) < static_cast<int32_t>(B);
  case Op::CmpLE32S:
    return static_cast<int32_t>(A) <= static_cast<int32_t>(B);
  case Op::CmpLT32U:
    return static_cast<uint32_t>(A) < static_cast<uint32_t>(B);
  case Op::CmpLE32U:
    return static_cast<uint32_t>(A) <= static_cast<uint32_t>(B);
  case Op::CmpLT64S:
    return static_cast<int64_t>(A) < static_cast<int64_t>(B);
  case Op::CmpLE64S:
    return static_cast<int64_t>(A) <= static_cast<int64_t>(B);
  case Op::CmpLT64U:
    return A < B;
  case Op::CmpLE64U:
    return A <= B;
  case Op::CmpNEZ8:
    return (A & 0xFF) != 0;
  case Op::CmpNEZ16:
    return (A & 0xFFFF) != 0;
  case Op::CmpNEZ32:
    return (A & 0xFFFFFFFFull) != 0;
  case Op::CmpNEZ64:
    return A != 0;
  case Op::U1to8:
  case Op::U1to32:
  case Op::U1to64:
    return A & 1;
  case Op::U8to16:
  case Op::U8to32:
  case Op::U8to64:
    return A & 0xFF;
  case Op::S8to32:
    return truncToTy(
        static_cast<uint64_t>(static_cast<int64_t>(static_cast<int8_t>(A))),
        Ty::I32);
  case Op::U16to32:
  case Op::U16to64:
    return A & 0xFFFF;
  case Op::S16to32:
    return truncToTy(
        static_cast<uint64_t>(static_cast<int64_t>(static_cast<int16_t>(A))),
        Ty::I32);
  case Op::U32to64:
    return A & 0xFFFFFFFFull;
  case Op::S32to64:
    return static_cast<uint64_t>(
        static_cast<int64_t>(static_cast<int32_t>(A)));
  case Op::T16to8:
    return A & 0xFF;
  case Op::T32to8:
    return A & 0xFF;
  case Op::T32to16:
    return A & 0xFFFF;
  case Op::T64to32:
    return A & 0xFFFFFFFFull;
  case Op::T64HIto32:
    return (A >> 32) & 0xFFFFFFFFull;
  case Op::T32to1:
  case Op::T64to1:
    return A & 1;
  case Op::Concat32HLto64:
    return (A << 32) | (B & 0xFFFFFFFFull);
  // Arithmetic results are NaN-canonicalised (support/FpCanon.h): which
  // input payload propagates is IEEE-unspecified, so without this the JIT
  // and the reference interpreter can legally disagree bit-for-bit.
  case Op::AddF64:
    return fromF64(canonF64(asF64(A) + asF64(B)));
  case Op::SubF64:
    return fromF64(canonF64(asF64(A) - asF64(B)));
  case Op::MulF64:
    return fromF64(canonF64(asF64(A) * asF64(B)));
  case Op::DivF64:
    return fromF64(canonF64(asF64(A) / asF64(B)));
  case Op::NegF64: // sign-bit op: fully determined, never canonicalised
    return fromF64(-asF64(A));
  case Op::AbsF64: // sign-bit op, as above
    return fromF64(std::fabs(asF64(A)));
  case Op::SqrtF64:
    return fromF64(canonF64(std::sqrt(asF64(A))));
  case Op::I32StoF64:
    return fromF64(static_cast<double>(static_cast<int32_t>(A)));
  case Op::F64toI32S: {
    double D = asF64(A);
    int32_t V;
    if (std::isnan(D) || D >= 2147483648.0 || D < -2147483648.0)
      V = INT32_MIN;
    else
      V = static_cast<int32_t>(D);
    return static_cast<uint32_t>(V);
  }
  case Op::CmpF64: {
    // Produces the VG1 NZCV word, matching RefInterp's FCMP.
    double X = asF64(A), Y = asF64(B);
    if (std::isnan(X) || std::isnan(Y))
      return 1; // FlagV
    uint32_t Fl = 0;
    if (X == Y)
      Fl |= 4; // FlagZ
    if (X < Y)
      Fl |= 8; // FlagN
    if (X >= Y)
      Fl |= 2; // FlagC
    return Fl;
  }
  case Op::ReinterpF64asI64:
  case Op::ReinterpI64asF64:
    return A;
  case Op::Add8x4:
    return lanes8(A, B, 0);
  case Op::Sub8x4:
    return lanes8(A, B, 1);
  case Op::CmpGT8Sx4:
    return lanes8(A, B, 2);
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
