//===-- ir/IR.h - The architecture-neutral D&R IR ---------------*- C++ -*-==//
///
/// \file
/// Valgrind's single-static-assignment-flavoured intermediate representation
/// (Section 3.6), reproduced. The unit of translation is a superblock
/// (IRSB): a single-entry, multiple-exit list of statements. Statements are
/// operations with side effects (register writes via Put, memory stores,
/// assignments to temporaries, dirty helper calls, guarded exits);
/// expressions are pure values (constants, temporary reads, register reads
/// via Get, loads, arithmetic, conditional ITE, clean helper calls).
///
/// Expressions may be arbitrary trees ("tree IR") or flattened so that all
/// operands are temporaries or constants ("flat IR"); tools always see flat
/// IR (Section 3.7, Phase 3). The IR is load/store and RISC-like: complex
/// guest instructions become multiple operations, exposing intermediate
/// values (such as scaled-index address arithmetic) to instrumentation.
///
/// All nodes are arena-allocated inside their owning IRSB, so tools freely
/// share subexpressions when instrumenting without ownership bookkeeping —
/// mirroring Valgrind's single-IRSB allocation discipline.
///
//===----------------------------------------------------------------------===//
#ifndef VG_IR_IR_H
#define VG_IR_IR_H

#include "support/Errors.h"

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <string>
#include <vector>

namespace vg {
namespace ir {

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

/// Value types. I1 is the type of guards and comparison results.
enum class Ty : uint8_t { I1, I8, I16, I32, I64, F64 };

const char *tyName(Ty T);

constexpr unsigned tySizeBits(Ty T) {
  constexpr unsigned Bits[] = {1, 8, 16, 32, 64, 64};
  return Bits[static_cast<unsigned>(T)];
}

/// Truncates \p V to the bit width of \p T (canonical constant form).
constexpr uint64_t truncToTy(uint64_t V, Ty T) {
  return tySizeBits(T) == 64 ? V : V & ((1ull << tySizeBits(T)) - 1);
}

//===----------------------------------------------------------------------===//
// Primitive operations
//
// VG_IROP_LIST is the one statement of each op's types and family; the op
// enum, the printer, the typechecker and the metadata below derive from
// it. Grouped as in VEX: integer ALU per size, widening multiplies,
// comparisons, conversions, FP, and packed-SIMD lanes.
//===----------------------------------------------------------------------===//

/// An op apart from its width (paper Section 3.6's typed ops come in
/// families such as Add8..Add64). Each family is evaluated (OpEval.h),
/// folded and shadowed by one rule; opFor() picks a family's op at a width.
enum class OpFam : uint8_t {
  // Ops that exist at several widths, each evaluated by one template over
  // its operand width. The conversions come last.
  Add, Sub, Mul, And, Or, Xor, Shl, Shr, Sar, Not, Neg,
  CmpEQ, CmpNE, CmpLTS, CmpLES, CmpLTU, CmpLEU, CmpNEZ,
  ZExt, SExt, Trunc,
  // Ops that exist at one width: a family each, the reinterprets apart.
  DivU32, DivS32, MullU32, MullS32, T64HIto32, Concat32HLto64,
  AddF64, SubF64, MulF64, DivF64, NegF64, AbsF64, SqrtF64, I32StoF64,
  F64toI32S, CmpF64, Reinterp, Add8x4, Sub8x4, CmpGT8Sx4,
};

/// Whether \p F exists at several widths.
constexpr bool isMultiWidth(OpFam F) { return F <= OpFam::Trunc; }

// X(name, result-type, nargs, arg1-type, arg2-type, family)
#define VG_IROP_LIST(X)                                                        \
  /* --- integer ALU, I8 --- */                                                \
  X(Add8, I8, 2, I8, I8, Add)                                                  \
  X(Sub8, I8, 2, I8, I8, Sub)                                                  \
  X(Mul8, I8, 2, I8, I8, Mul)                                                  \
  X(And8, I8, 2, I8, I8, And)                                                  \
  X(Or8, I8, 2, I8, I8, Or)                                                    \
  X(Xor8, I8, 2, I8, I8, Xor)                                                  \
  X(Shl8, I8, 2, I8, I8, Shl)                                                  \
  X(Shr8, I8, 2, I8, I8, Shr)                                                  \
  X(Sar8, I8, 2, I8, I8, Sar)                                                  \
  X(Not8, I8, 1, I8, I8, Not)                                                  \
  X(Neg8, I8, 1, I8, I8, Neg)                                                  \
  /* --- integer ALU, I16 --- */                                               \
  X(Add16, I16, 2, I16, I16, Add)                                              \
  X(Sub16, I16, 2, I16, I16, Sub)                                              \
  X(Mul16, I16, 2, I16, I16, Mul)                                              \
  X(And16, I16, 2, I16, I16, And)                                              \
  X(Or16, I16, 2, I16, I16, Or)                                                \
  X(Xor16, I16, 2, I16, I16, Xor)                                              \
  X(Shl16, I16, 2, I16, I16, Shl)                                              \
  X(Shr16, I16, 2, I16, I16, Shr)                                              \
  X(Sar16, I16, 2, I16, I16, Sar)                                              \
  X(Not16, I16, 1, I16, I16, Not)                                              \
  X(Neg16, I16, 1, I16, I16, Neg)                                              \
  /* --- integer ALU, I32 --- */                                               \
  X(Add32, I32, 2, I32, I32, Add)                                              \
  X(Sub32, I32, 2, I32, I32, Sub)                                              \
  X(Mul32, I32, 2, I32, I32, Mul)                                              \
  X(And32, I32, 2, I32, I32, And)                                              \
  X(Or32, I32, 2, I32, I32, Or)                                                \
  X(Xor32, I32, 2, I32, I32, Xor)                                              \
  X(Shl32, I32, 2, I32, I8, Shl)                                               \
  X(Shr32, I32, 2, I32, I8, Shr)                                               \
  X(Sar32, I32, 2, I32, I8, Sar)                                               \
  X(DivU32, I32, 2, I32, I32, DivU32)                                          \
  X(DivS32, I32, 2, I32, I32, DivS32)                                          \
  X(Not32, I32, 1, I32, I32, Not)                                              \
  X(Neg32, I32, 1, I32, I32, Neg)                                              \
  /* --- integer ALU, I64 --- */                                               \
  X(Add64, I64, 2, I64, I64, Add)                                              \
  X(Sub64, I64, 2, I64, I64, Sub)                                              \
  X(Mul64, I64, 2, I64, I64, Mul)                                              \
  X(And64, I64, 2, I64, I64, And)                                              \
  X(Or64, I64, 2, I64, I64, Or)                                                \
  X(Xor64, I64, 2, I64, I64, Xor)                                              \
  X(Shl64, I64, 2, I64, I8, Shl)                                               \
  X(Shr64, I64, 2, I64, I8, Shr)                                               \
  X(Sar64, I64, 2, I64, I8, Sar)                                               \
  X(Not64, I64, 1, I64, I64, Not)                                              \
  X(Neg64, I64, 1, I64, I64, Neg)                                              \
  /* --- widening multiplies --- */                                            \
  X(MullU32, I64, 2, I32, I32, MullU32)                                        \
  X(MullS32, I64, 2, I32, I32, MullS32)                                        \
  /* --- comparisons (result I1) --- */                                        \
  X(CmpEQ8, I1, 2, I8, I8, CmpEQ)                                              \
  X(CmpNE8, I1, 2, I8, I8, CmpNE)                                              \
  X(CmpEQ16, I1, 2, I16, I16, CmpEQ)                                           \
  X(CmpNE16, I1, 2, I16, I16, CmpNE)                                           \
  X(CmpEQ32, I1, 2, I32, I32, CmpEQ)                                           \
  X(CmpNE32, I1, 2, I32, I32, CmpNE)                                           \
  X(CmpEQ64, I1, 2, I64, I64, CmpEQ)                                           \
  X(CmpNE64, I1, 2, I64, I64, CmpNE)                                           \
  X(CmpLT32S, I1, 2, I32, I32, CmpLTS)                                         \
  X(CmpLE32S, I1, 2, I32, I32, CmpLES)                                         \
  X(CmpLT32U, I1, 2, I32, I32, CmpLTU)                                         \
  X(CmpLE32U, I1, 2, I32, I32, CmpLEU)                                         \
  X(CmpLT64S, I1, 2, I64, I64, CmpLTS)                                         \
  X(CmpLE64S, I1, 2, I64, I64, CmpLES)                                         \
  X(CmpLT64U, I1, 2, I64, I64, CmpLTU)                                         \
  X(CmpLE64U, I1, 2, I64, I64, CmpLEU)                                         \
  X(CmpNEZ8, I1, 1, I8, I8, CmpNEZ)                                            \
  X(CmpNEZ16, I1, 1, I16, I16, CmpNEZ)                                         \
  X(CmpNEZ32, I1, 1, I32, I32, CmpNEZ)                                         \
  X(CmpNEZ64, I1, 1, I64, I64, CmpNEZ)                                         \
  /* --- widening conversions --- */                                           \
  X(U1to8, I8, 1, I1, I1, ZExt)                                                \
  X(U1to32, I32, 1, I1, I1, ZExt)                                              \
  X(U1to64, I64, 1, I1, I1, ZExt)                                              \
  X(U8to16, I16, 1, I8, I8, ZExt)                                              \
  X(U8to32, I32, 1, I8, I8, ZExt)                                              \
  X(S8to32, I32, 1, I8, I8, SExt)                                              \
  X(U8to64, I64, 1, I8, I8, ZExt)                                              \
  X(U16to32, I32, 1, I16, I16, ZExt)                                           \
  X(S16to32, I32, 1, I16, I16, SExt)                                           \
  X(U16to64, I64, 1, I16, I16, ZExt)                                           \
  X(U32to64, I64, 1, I32, I32, ZExt)                                           \
  X(S32to64, I64, 1, I32, I32, SExt)                                           \
  /* --- narrowing conversions --- */                                          \
  X(T16to8, I8, 1, I16, I16, Trunc)                                            \
  X(T32to8, I8, 1, I32, I32, Trunc)                                            \
  X(T32to16, I16, 1, I32, I32, Trunc)                                          \
  X(T64to32, I32, 1, I64, I64, Trunc)                                          \
  X(T64HIto32, I32, 1, I64, I64, T64HIto32)                                    \
  X(T32to1, I1, 1, I32, I32, Trunc)                                            \
  X(T64to1, I1, 1, I64, I64, Trunc)                                            \
  X(Concat32HLto64, I64, 2, I32, I32, Concat32HLto64)                          \
  /* --- floating point (F64) --- */                                           \
  X(AddF64, F64, 2, F64, F64, AddF64)                                          \
  X(SubF64, F64, 2, F64, F64, SubF64)                                          \
  X(MulF64, F64, 2, F64, F64, MulF64)                                          \
  X(DivF64, F64, 2, F64, F64, DivF64)                                          \
  X(NegF64, F64, 1, F64, F64, NegF64)                                          \
  X(AbsF64, F64, 1, F64, F64, AbsF64)                                          \
  X(SqrtF64, F64, 1, F64, F64, SqrtF64)                                        \
  X(I32StoF64, F64, 1, I32, I32, I32StoF64)                                    \
  X(F64toI32S, I32, 1, F64, F64, F64toI32S)                                    \
  X(CmpF64, I32, 2, F64, F64, CmpF64)                                          \
  X(ReinterpF64asI64, I64, 1, F64, F64, Reinterp)                              \
  X(ReinterpI64asF64, F64, 1, I64, I64, Reinterp)                              \
  /* --- packed SIMD: 4 x I8 lanes in an I32 --- */                            \
  X(Add8x4, I32, 2, I32, I32, Add8x4)                                          \
  X(Sub8x4, I32, 2, I32, I32, Sub8x4)                                          \
  X(CmpGT8Sx4, I32, 2, I32, I32, CmpGT8Sx4)

/// Primitive operation opcodes (~100 distinct operations).
enum class Op : uint16_t {
#define X(name, ...) name,
  VG_IROP_LIST(X)
#undef X
};

/// One row of VG_IROP_LIST.
struct OpInfo {
  const char *Name;
  Ty Ret;
  unsigned NArgs;
  Ty A1, A2;
  OpFam Fam;
};

inline constexpr OpInfo OpTable[] = {
#define X(name, rt, n, a1, a2, fam)                                            \
  {#name, Ty::rt, n, Ty::a1, Ty::a2, OpFam::fam},
    VG_IROP_LIST(X)
#undef X
};
inline constexpr unsigned NumOps = sizeof(OpTable) / sizeof(OpTable[0]);

constexpr const char *opName(Op O) {
  return OpTable[static_cast<unsigned>(O)].Name;
}
constexpr Ty opResultTy(Op O) { return OpTable[static_cast<unsigned>(O)].Ret; }
constexpr unsigned opArity(Op O) {
  return OpTable[static_cast<unsigned>(O)].NArgs;
}
constexpr Ty opArgTy(Op O, unsigned Idx) {
  const OpInfo &I = OpTable[static_cast<unsigned>(O)];
  return Idx == 0 ? I.A1 : I.A2;
}
constexpr OpFam opFam(Op O) { return OpTable[static_cast<unsigned>(O)].Fam; }

namespace detail {
constexpr unsigned NumFams = static_cast<unsigned>(OpFam::CmpGT8Sx4) + 1;

/// Column of opFor's table: the operand width, I1 and F64 as I64.
constexpr unsigned widthCol(Ty T) {
  return T == Ty::I8 ? 0 : T == Ty::I16 ? 1 : T == Ty::I32 ? 2 : 3;
}

/// Each family's op at each operand width, NumOps where it has none.
struct OpsByWidth {
  Op At[NumFams][4];
};
constexpr OpsByWidth opsByWidth() {
  OpsByWidth T{};
  for (auto &Row : T.At)
    for (Op &O : Row)
      O = static_cast<Op>(NumOps);
  for (unsigned I = 0; I != NumOps; ++I) {
    Op &Slot = T.At[static_cast<unsigned>(OpTable[I].Fam)]
                   [widthCol(OpTable[I].A1)];
    if (Slot == static_cast<Op>(NumOps))
      Slot = static_cast<Op>(I);
  }
  return T;
}
inline constexpr OpsByWidth OpsByFamWidth = opsByWidth();
} // namespace detail

/// The op of family \p F over operands of type \p T (a conversion family:
/// its first op from \p T). I1, I64 and F64 take the 64-bit op.
constexpr Op opFor(OpFam F, Ty T) {
  return detail::OpsByFamWidth
      .At[static_cast<unsigned>(F)][detail::widthCol(T)];
}

/// Evaluates a primitive op on constant bits (the constant folder, the HVM
/// executor's generic handlers and the tests; OpEval.h's evalOpAt is the
/// same with the op fixed at compile time). Operand and result values are
/// zero-extended into 64 bits; F64 travels as raw IEEE754 bits.
uint64_t evalOp(Op O, uint64_t A, uint64_t B);

//===----------------------------------------------------------------------===//
// Helper callees
//===----------------------------------------------------------------------===//

/// C helper function callable from IR. Clean calls (CCall expressions) must
/// be pure; dirty calls may read/write guest state and memory, described by
/// their effect annotations on the Dirty statement.
///
/// All helpers share one host ABI: up to four u64 arguments plus an opaque
/// environment pointer (the executing core), returning u64.
using HelperFn = uint64_t (*)(void *Env, uint64_t, uint64_t, uint64_t,
                              uint64_t);

struct Callee {
  const char *Name;
  HelperFn Fn;
  /// Identifier used by the optimiser's platform-specific partial
  /// evaluation hook (Section 3.7 Phase 2's %eflags specialisation).
  uint32_t SpecKey = 0;
  /// The helper never writes tool shadow state (shadow memory or shadow
  /// registers), so a cached ShadowProbe result stays valid across the
  /// call. Pure readers like Memcheck's LOADV qualify; anything that can
  /// mark memory defined/undefined (STOREV, stack events) must not.
  bool PreservesShadow = false;
  /// The helper's guest-register-state effects are fully described by the
  /// Dirty statement's Fx list (an empty list meaning "touches none").
  /// Lets the trace-tier optimiser keep Get/Put facts live across the
  /// call instead of treating it as a full barrier.
  bool StateFxComplete = false;
};

/// Process-wide registry of helper-callee descriptors, keyed by name.
/// Encoded host code embeds raw Callee pointers (HOp::CALL), which makes a
/// blob meaningless outside the process that emitted it; the persistent
/// translation cache serializes CALL targets as registered names and
/// resolves them back through this table at load time. Every Callee that
/// can appear in cacheable code must therefore be registered (via a
/// CalleeRegistrar static next to its definition). Thread-safe.
void registerCallee(const Callee *C);
/// Null when no callee of that name was registered.
const Callee *findCalleeByName(const std::string &Name);
/// The registered name for \p C, or null when \p C was never registered
/// (a translation calling it can then not be serialized).
const char *registeredCalleeName(const Callee *C);

/// Registers a set of Callee descriptors at static-initialisation time.
/// Place one of these in an anonymous namespace next to the descriptors:
///
///   const ir::CalleeRegistrar Reg{&LoadVCallee, &StoreVCallee};
struct CalleeRegistrar {
  CalleeRegistrar(std::initializer_list<const Callee *> Cs) {
    for (const Callee *C : Cs)
      registerCallee(C);
  }
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

using TmpId = uint32_t;
constexpr TmpId NoTmp = ~0u;

enum class ExprKind : uint8_t { Const, RdTmp, Get, Unop, Binop, Load, ITE,
                                CCall };

/// A pure value. Tagged union; fields are valid according to Kind.
struct Expr {
  ExprKind Kind;
  Ty T;                     ///< result type
  Op Opc{};                 ///< Unop/Binop
  TmpId Tmp = NoTmp;        ///< RdTmp
  uint64_t ConstVal = 0;    ///< Const (truncated to T's width)
  uint32_t Offset = 0;      ///< Get: guest-state byte offset
  Expr *Arg[3] = {};        ///< Unop: [0]; Binop: [0],[1]; Load: addr [0];
                            ///< ITE: cond,[1]=iftrue,[2]=iffalse
  const Callee *CalleeFn = nullptr; ///< CCall
  std::vector<Expr *> CallArgs;     ///< CCall

  bool isConst() const { return Kind == ExprKind::Const; }
  bool isConst(uint64_t V) const { return isConst() && ConstVal == V; }
  bool isRdTmp() const { return Kind == ExprKind::RdTmp; }
  /// Flat-IR "atom": RdTmp or Const.
  bool isAtom() const { return isConst() || isRdTmp(); }
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

/// Why control leaves a superblock. Mirrors VEX's IRJumpKind: the dispatcher
/// uses this to route to the scheduler for non-Boring events (Section 3.9).
enum class JumpKind : uint8_t {
  Boring,    ///< ordinary jump
  Call,      ///< guest call (informational)
  Ret,       ///< guest return (informational)
  Syscall,   ///< SYS: hand to the syscall machinery
  ClientReq, ///< CLREQ trap-door (Section 3.11)
  Yield,     ///< voluntary yield hint
  NoDecode,  ///< undecodable instruction at the target
  SigSEGV,   ///< deliberate fault (used by core-generated blocks)
  Exit,      ///< HLT: terminate the program
  SmcFail,   ///< self-modifying-code hash check failed: retranslate
};

const char *jumpKindName(JumpKind K);

enum class StmtKind : uint8_t {
  NoOp,
  IMark,
  Put,
  WrTmp,
  Store,
  Dirty,
  Exit,
  /// Non-faulting shadow-memory probe (the JIT-inlined Memcheck fast
  /// path). Load form (Data == null): Tmp:I64 receives the V-word
  /// zero-extended on success, or a value with bit 32 set when the access
  /// must take the helper slow path. Store form (Data != null): attempts
  /// to store the V-word Data; Tmp:I64 receives 0 on success, 1 to punt.
  /// Touches only tool shadow state — never guest registers or memory.
  ShadowProbe,
};

/// Effect annotation on a Dirty call: a guest-state region the helper reads
/// (RdFX) or writes (WrFX), so tools see through the call (Section 3.6's
/// cpuid discussion).
struct GuestFx {
  uint32_t Offset;
  uint32_t Size;
  bool IsWrite;
};

/// An operation with side effects.
struct Stmt {
  StmtKind Kind;
  // IMark
  uint32_t IAddr = 0; ///< guest address of the original instruction
  uint8_t ILen = 0;   ///< its encoded length in bytes
  // Put / WrTmp / Store / Dirty (fields shared where sensible)
  uint32_t Offset = 0;     ///< Put: guest-state byte offset
  TmpId Tmp = NoTmp;       ///< WrTmp dst; Dirty optional dst
  Expr *Data = nullptr;    ///< Put/WrTmp data; Store data
  Expr *Addr = nullptr;    ///< Store address
  // Dirty
  const Callee *CalleeFn = nullptr;
  std::vector<Expr *> CallArgs;
  Expr *Guard = nullptr; ///< Dirty: only run if guard (I1) is 1; Exit: cond
  std::vector<GuestFx> Fx;
  // Exit
  uint32_t DstPC = 0;
  JumpKind JK = JumpKind::Boring;
  // ShadowProbe
  uint8_t AccSize = 0; ///< access size in bytes (currently always 4)
};

//===----------------------------------------------------------------------===//
// Operand visitors
//
// The one statement of which Expr and Stmt fields are operands, and in what
// order. A pass that only recurses into or rewrites operands walks them
// with these; a pass whose cases each do different work keeps its own
// switch. Each slot is passed by reference (Expr *& through a mutable
// node, Expr *const & through a const one); null slots are skipped. The
// order is part of the contract: PropFold allocates temporaries and
// TreeBuilder consumes held definitions in it.
//===----------------------------------------------------------------------===//

/// Calls \p F on each operand slot of \p E: Arg[0] of a Unop or Load,
/// Arg[0..1] of a Binop, Arg[0..2] of an ITE, the CallArgs of a CCall.
template <typename ExprT, typename Fn> void forEachOperand(ExprT &E, Fn &&F) {
  auto Visit = [&F](auto &Slot) {
    if (Slot)
      F(Slot);
  };
  switch (E.Kind) {
  case ExprKind::Const:
  case ExprKind::RdTmp:
  case ExprKind::Get:
    return;
  case ExprKind::Unop:
  case ExprKind::Load:
    Visit(E.Arg[0]);
    return;
  case ExprKind::Binop:
    Visit(E.Arg[0]);
    Visit(E.Arg[1]);
    return;
  case ExprKind::ITE:
    Visit(E.Arg[0]);
    Visit(E.Arg[1]);
    Visit(E.Arg[2]);
    return;
  case ExprKind::CCall:
    for (auto &A : E.CallArgs)
      Visit(A);
    return;
  }
}

/// Calls \p F on each expression slot of \p S: the Data of a Put or WrTmp,
/// Addr then Data of a Store or ShadowProbe (no Data in a load-form
/// probe), CallArgs then Guard of a Dirty (no Guard when unguarded), the
/// Guard of an Exit.
template <typename StmtT, typename Fn> void forEachExpr(StmtT &S, Fn &&F) {
  auto Visit = [&F](auto &Slot) {
    if (Slot)
      F(Slot);
  };
  switch (S.Kind) {
  case StmtKind::NoOp:
  case StmtKind::IMark:
    return;
  case StmtKind::Put:
  case StmtKind::WrTmp:
    Visit(S.Data);
    return;
  case StmtKind::Store:
  case StmtKind::ShadowProbe:
    Visit(S.Addr);
    Visit(S.Data);
    return;
  case StmtKind::Dirty:
    for (auto &A : S.CallArgs)
      Visit(A);
    Visit(S.Guard);
    return;
  case StmtKind::Exit:
    Visit(S.Guard);
    return;
  }
}

//===----------------------------------------------------------------------===//
// Superblocks
//===----------------------------------------------------------------------===//

/// A single-entry, multiple-exit code block plus its type environment.
/// Owns all Expr/Stmt nodes reachable from it.
class IRSB {
public:
  IRSB() = default;
  IRSB(const IRSB &) = delete;
  IRSB &operator=(const IRSB &) = delete;

  // --- type environment -------------------------------------------------
  TmpId newTmp(Ty T) {
    TmpTypes.push_back(T);
    return static_cast<TmpId>(TmpTypes.size() - 1);
  }
  Ty typeOfTmp(TmpId T) const {
    assert(T < TmpTypes.size() && "temporary out of range");
    return TmpTypes[T];
  }
  size_t numTmps() const { return TmpTypes.size(); }

  // --- expression factories ---------------------------------------------
  Expr *constI1(bool V) { return mkConst(Ty::I1, V ? 1 : 0); }
  Expr *constI8(uint8_t V) { return mkConst(Ty::I8, V); }
  Expr *constI32(uint32_t V) { return mkConst(Ty::I32, V); }
  Expr *constI64(uint64_t V) { return mkConst(Ty::I64, V); }
  Expr *mkConst(Ty T, uint64_t Bits);
  Expr *rdTmp(TmpId T);
  Expr *get(uint32_t Offset, Ty T);
  Expr *unop(Op O, Expr *A);
  Expr *binop(Op O, Expr *A, Expr *B);
  Expr *load(Ty T, Expr *Addr);
  Expr *ite(Expr *Cond, Expr *IfTrue, Expr *IfFalse);
  Expr *ccall(const Callee *C, Ty RetTy, std::vector<Expr *> Args);

  // --- statement factories (appended to the block) ----------------------
  void noop();
  void imark(uint32_t Addr, uint8_t Len);
  void put(uint32_t Offset, Expr *Data);
  /// Allocates a fresh tmp of the expression's type and assigns it.
  TmpId wrTmp(Expr *Data);
  void wrTmpTo(TmpId T, Expr *Data);
  void store(Expr *Addr, Expr *Data);
  /// Dirty helper call. \p Dst may be NoTmp; \p Guard may be null (always
  /// run).
  void dirty(const Callee *C, std::vector<Expr *> Args, TmpId Dst = NoTmp,
             Expr *Guard = nullptr, std::vector<GuestFx> Fx = {});
  void exit(Expr *Guard, uint32_t DstPC, JumpKind K = JumpKind::Boring);
  /// Shadow probe (see StmtKind::ShadowProbe). \p Data is null for the
  /// load form; \p Dst must be an I64 temporary.
  void shadowProbe(Expr *Addr, Expr *Data, TmpId Dst, uint8_t Size);

  /// Appends an externally built statement (used by instrumenters that
  /// rebuild statement lists).
  void append(Stmt *S) { Statements.push_back(S); }
  /// Allocates an uninitialised statement in this block's arena.
  Stmt *allocStmt() {
    StmtArena.emplace_back();
    return &StmtArena.back();
  }

  // --- block structure ---------------------------------------------------
  std::vector<Stmt *> &stmts() { return Statements; }
  const std::vector<Stmt *> &stmts() const { return Statements; }
  /// Replaces the statement list (instrumentation passes build new lists
  /// reusing this block's arena-owned expressions).
  void setStmts(std::vector<Stmt *> S) { Statements = std::move(S); }

  Expr *next() const { return Next; }
  void setNext(Expr *E, JumpKind K) {
    Next = E;
    EndJK = K;
  }
  JumpKind endJumpKind() const { return EndJK; }

  /// Verifies flatness/typing invariants; returns an empty string when OK,
  /// otherwise a diagnostic. \p RequireFlat additionally enforces that all
  /// statement operands are atoms.
  std::string typecheck(bool RequireFlat) const;

private:
  Expr *alloc() {
    ExprArena.emplace_back();
    return &ExprArena.back();
  }

  std::deque<Expr> ExprArena; // deque: stable addresses
  std::deque<Stmt> StmtArena;
  std::vector<Stmt *> Statements;
  std::vector<Ty> TmpTypes;
  Expr *Next = nullptr;
  JumpKind EndJK = JumpKind::Boring;
};

} // namespace ir
} // namespace vg

#endif // VG_IR_IR_H
