//===-- tools/Memcheck.cpp - The definedness checker ----------------------==//

#include "tools/Memcheck.h"

#include "guest/GuestArch.h"
#include "shadow/ShadowInstrumenter.h"

#include <algorithm>
#include <cinttypes>

using namespace vg;
using namespace vg::ir;
using namespace vg::vg1;

//===----------------------------------------------------------------------===//
// Helpers called from generated code
//===----------------------------------------------------------------------===//

namespace {

Memcheck *toolOf(void *Env) {
  return static_cast<Memcheck *>(static_cast<ExecContext *>(Env)->Tool);
}

int tidOf(void *Env) { return static_cast<ExecContext *>(Env)->Tid; }

std::string hexAddr(uint32_t A) {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "0x%08X", A);
  return Buf;
}

} // namespace

uint64_t Memcheck::helperLoadV(void *Env, uint64_t Addr, uint64_t Size,
                               uint64_t PC, uint64_t) {
  Memcheck *MC = toolOf(Env);
  AddrCheck Check;
  uint64_t V = MC->SM.loadV(static_cast<uint32_t>(Addr),
                            static_cast<uint32_t>(Size), Check);
  if (!Check.Ok) {
    MC->reportError("InvalidRead",
                    "Invalid read of size " + std::to_string(Size) + " at " +
                        hexAddr(static_cast<uint32_t>(Addr)),
                    static_cast<uint32_t>(PC), tidOf(Env));
  }
  return V;
}

uint64_t Memcheck::helperStoreV(void *Env, uint64_t Addr, uint64_t Vbits,
                                uint64_t Size, uint64_t PC) {
  Memcheck *MC = toolOf(Env);
  AddrCheck Check;
  MC->SM.storeV(static_cast<uint32_t>(Addr), static_cast<uint32_t>(Size),
                Vbits, Check);
  if (!Check.Ok) {
    MC->reportError("InvalidWrite",
                    "Invalid write of size " + std::to_string(Size) + " at " +
                        hexAddr(static_cast<uint32_t>(Addr)),
                    static_cast<uint32_t>(PC), tidOf(Env));
  }
  return 0;
}

uint64_t Memcheck::helperValueCheckFail(void *Env, uint64_t PC, uint64_t Size,
                                        uint64_t, uint64_t) {
  Memcheck *MC = toolOf(Env);
  MC->reportError("UninitValue",
                  "Use of uninitialised value of size " +
                      std::to_string(Size) + " (memory address)",
                  static_cast<uint32_t>(PC), tidOf(Env));
  return 0;
}

uint64_t Memcheck::helperCondUndef(void *Env, uint64_t PC, uint64_t, uint64_t,
                                   uint64_t) {
  Memcheck *MC = toolOf(Env);
  MC->reportError(
      "UninitCondition",
      "Conditional jump or move depends on uninitialised value(s)",
      static_cast<uint32_t>(PC), tidOf(Env));
  return 0;
}

uint64_t Memcheck::helperJumpUndef(void *Env, uint64_t PC, uint64_t, uint64_t,
                                   uint64_t) {
  Memcheck *MC = toolOf(Env);
  MC->reportError("UninitJumpTarget",
                  "Jump to an uninitialised target address",
                  static_cast<uint32_t>(PC), tidOf(Env));
  return 0;
}

namespace {
// All five helpers touch only shadow memory and the error log — never
// guest registers (StateFxComplete) — and only STOREV writes V-bits, so
// the others additionally preserve cached ShadowProbe results.
const Callee LoadVCallee = {"mc_LOADV", &Memcheck::helperLoadV, 0,
                            /*PreservesShadow=*/true,
                            /*StateFxComplete=*/true};
const Callee StoreVCallee = {"mc_STOREV", &Memcheck::helperStoreV, 0,
                             /*PreservesShadow=*/false,
                             /*StateFxComplete=*/true};
const Callee ValueCheckFailCallee = {"mc_value_check_fail",
                                     &Memcheck::helperValueCheckFail, 0,
                                     /*PreservesShadow=*/true,
                                     /*StateFxComplete=*/true};
const Callee CondUndefCallee = {"mc_cond_undef", &Memcheck::helperCondUndef,
                                0, /*PreservesShadow=*/true,
                                /*StateFxComplete=*/true};
const Callee JumpUndefCallee = {"mc_jump_undef", &Memcheck::helperJumpUndef,
                                0, /*PreservesShadow=*/true,
                                /*StateFxComplete=*/true};
const ir::CalleeRegistrar RegisterCallees{
    &LoadVCallee, &StoreVCallee, &ValueCheckFailCallee, &CondUndefCallee,
    &JumpUndefCallee};
} // namespace

//===----------------------------------------------------------------------===//
// The instrumenter (translation Phase 3; paper Figure 2)
//===----------------------------------------------------------------------===//

namespace {

/// Memcheck's V-bit rules on the shared shadow-value scaffold.
class McInstrumenter : public ShadowInstrumenter<McInstrumenter> {
public:
  explicit McInstrumenter(IRSB &SB)
      : ShadowInstrumenter(SB, &JumpUndefCallee, &CondUndefCallee) {}

private:
  friend ShadowInstrumenter;

  /// Left: smear undefinedness towards the MSB — Or(x, Neg(x)) (Figure 2,
  /// "shadow addl 2/3 and 3/3": carries propagate leftward).
  Expr *left(Ty T, Expr *V) {
    Expr *N = atom(SB.unop(opFor(OpFam::Neg, T), V));
    return atom(SB.binop(opFor(OpFam::Or, T), V, N));
  }

  /// Shadow for a unary operation.
  Expr *shadowUnop(Op O, Expr *V) {
    // Conversions: the same conversion on V-bits preserves per-bit
    // correspondence (sign-extension deliberately smears an undefined
    // sign bit).
    if (isWidthConversion(O))
      return atom(SB.unop(O, V));
    switch (opFam(O)) {
    case OpFam::Not:
    case OpFam::NegF64: // sign-bit flip: V-bits unchanged
    case OpFam::AbsF64:
    case OpFam::Reinterp:
      return V;
    case OpFam::Neg:
      return left(opResultTy(O), V);
    default:
      // CmpNEZ, int/FP conversions, sqrt: PCast.
      return pcast(shTy(opArgTy(O, 0)), shTy(opResultTy(O)), V);
    }
  }

  /// Shadow for a binary operation.
  Expr *shadowBinop(const Expr *D, Expr *V1, Expr *V2) {
    Op O = D->Opc;
    Ty RT = shTy(opResultTy(O));
    switch (opFam(O)) {
    case OpFam::And:
    case OpFam::Or:
    case OpFam::Xor:
      return uifu(RT, V1, V2);
    case OpFam::Add:
    case OpFam::Sub:
    case OpFam::Mul:
    case OpFam::Add8x4:
    case OpFam::Sub8x4:
    case OpFam::CmpGT8Sx4:
      return left(RT, uifu(RT, V1, V2));
    case OpFam::Shl:
    case OpFam::Shr:
    case OpFam::Sar:
      if (D->Arg[1]->isConst()) {
        // Constant shift: shift the V-bits identically.
        return atom(
            SB.binop(O, V1, SB.constI8(static_cast<uint8_t>(
                                D->Arg[1]->ConstVal))));
      }
      // Variable shift: any undefinedness in the amount poisons all.
      return pcast(RT, RT,
                   uifu(RT, V1, pcast(Ty::I8, RT, V2)));
    case OpFam::Concat32HLto64:
      return atom(SB.binop(O, V1, V2));
    default: {
      // Comparisons, divisions, widening multiplies, FP arithmetic: PCast
      // of the operands' combined V-bits.
      Ty AT = shTy(opArgTy(O, 0));
      return pcast(AT, RT, uifu(AT, V1, V2));
    }
    }
  }

  /// Emits the "is this address fully defined?" check before a memory
  /// access (paper Figure 2, statements 15-16).
  void emitAddrCheck(Expr *AddrAtom, uint32_t Size) {
    Expr *VA = vAtom(AddrAtom);
    Expr *G = atom(SB.unop(Op::CmpNEZ32, VA));
    SB.dirty(&ValueCheckFailCallee, {SB.constI64(CurPC), SB.constI64(Size)},
             NoTmp, G);
  }

  Expr *shadowLoad(const Expr *D) {
    emitAddrCheck(D->Arg[0], sizeOfTy(D->T));
    if (D->T == Ty::I32) {
      // JIT-inlined fast path (Section 5.4): a non-faulting probe
      // resolves aligned, fully-addressable, fully-defined words
      // without leaving generated code. The probe result has bit 32
      // set when it punted; only then does the guarded mc_LOADV call
      // run (errors, partial definedness, unaligned, chunk edges).
      TmpId TP = SB.newTmp(Ty::I64);
      SB.shadowProbe(D->Arg[0], nullptr, TP, 4);
      Expr *Hi = atom(SB.unop(Op::T64HIto32, SB.rdTmp(TP)));
      Expr *G = atom(SB.unop(Op::CmpNEZ32, Hi));
      // TSlow is defined only by the guarded call; the SEL discards
      // its (unwritten) value whenever the fast path was taken.
      TmpId TSlow = SB.newTmp(Ty::I64);
      SB.dirty(&LoadVCallee,
               {D->Arg[0], SB.constI64(4), SB.constI64(CurPC)}, TSlow, G);
      // Select in I64 and truncate once (one op fewer than truncating
      // both arms).
      Expr *Sel = atom(SB.ite(G, SB.rdTmp(TSlow), SB.rdTmp(TP)));
      return atom(SB.unop(Op::T64to32, Sel));
    }
    TmpId TV = SB.newTmp(shTy(D->T));
    SB.dirty(&LoadVCallee,
             {D->Arg[0], SB.constI64(sizeOfTy(D->T)), SB.constI64(CurPC)},
             TV);
    return SB.rdTmp(TV);
  }

  void instrumentStore(Stmt *S) {
    uint32_t Size = sizeOfTy(S->Data->T);
    emitAddrCheck(S->Addr, Size);
    if (S->Data->T == Ty::I32) {
      // Store-form probe: writes the V-word inline when the chunk is
      // fully addressable and writable without CoW (or the store is a
      // no-op on the Defined DSM); returns nonzero to punt.
      Expr *VD = vAtom(S->Data);
      TmpId TP = SB.newTmp(Ty::I64);
      SB.shadowProbe(S->Addr, VD, TP, 4);
      Expr *G = atom(SB.unop(Op::CmpNEZ64, SB.rdTmp(TP)));
      SB.dirty(&StoreVCallee,
               {S->Addr, VD, SB.constI64(4), SB.constI64(CurPC)}, NoTmp, G);
      return;
    }
    SB.dirty(&StoreVCallee, {S->Addr, vAtom(S->Data), SB.constI64(Size),
                             SB.constI64(CurPC)});
  }
};

} // namespace

void Memcheck::instrument(IRSB &SB) {
  McInstrumenter In(SB);
  In.run();
}

//===----------------------------------------------------------------------===//
// Tool plumbing: options, events, heap, client requests, reports
//===----------------------------------------------------------------------===//

void Memcheck::registerOptions(OptionRegistry &Opts) {
  Opts.addOption("leak-check", "yes", "search for leaked heap blocks at exit");
}

void Memcheck::init(Core &Core_) {
  C = &Core_;
  FinalErrors = NoFinalErrors;
  LeakCheckEnabled = C->options().getBool("leak-check");
  EventHub &E = C->events();

  // R5/R6: allocation state from the loader and the syscall wrappers.
  E.NewMemStartup = [this](uint32_t A, uint32_t L, uint8_t) {
    SM.makeDefined(A, L);
  };
  E.NewMemMmap = [this](uint32_t A, uint32_t L, uint8_t) {
    SM.makeDefined(A, L); // the simulated kernel zero-fills
  };
  E.DieMemMunmap = [this](uint32_t A, uint32_t L) { SM.makeNoAccess(A, L); };
  E.NewMemBrk = [this](uint32_t A, uint32_t L) { SM.makeUndefined(A, L); };
  E.DieMemBrk = [this](uint32_t A, uint32_t L) { SM.makeNoAccess(A, L); };
  E.CopyMemMremap = [this](uint32_t S, uint32_t D, uint32_t L) {
    SM.copyRange(S, D, L);
  };

  // R7: the stack breathes.
  E.NewMemStack = [this](uint32_t A, uint32_t L) { SM.makeUndefined(A, L); };
  E.DieMemStack = [this](uint32_t A, uint32_t L) { SM.makeNoAccess(A, L); };

  // R4: syscall accesses.
  E.PreRegRead = [this](int Tid, uint32_t Off, uint32_t Size,
                        const char *Sys) {
    ThreadState &TS = C->thread(Tid);
    for (uint32_t I = 0; I != Size; ++I) {
      if (TS.Guest[gso::ShadowOffset + Off + I]) {
        reportError("UninitSyscall",
                    std::string("Syscall parameter ") + Sys +
                        " contains uninitialised byte(s)",
                    TS.getPC(), Tid);
        return;
      }
    }
  };
  E.PostRegWrite = [this](int Tid, uint32_t Off, uint32_t Size) {
    ThreadState &TS = C->thread(Tid);
    std::memset(TS.Guest + gso::ShadowOffset + Off, 0, Size);
  };
  E.PreMemRead = [this](int Tid, uint32_t Addr, uint32_t Len,
                        const char *Sys) {
    checkDefinedRange(Tid, Addr, Len, Sys);
  };
  E.PreMemReadAsciiz = [this](int Tid, uint32_t Addr, const char *Sys) {
    // Walk to the NUL, checking as we go.
    for (uint32_t I = 0;; ++I) {
      uint32_t Bad;
      bool Unaddr;
      if (!SM.isDefined(Addr + I, 1, Bad, Unaddr)) {
        reportError(Unaddr ? "InvalidRead" : "UninitSyscall",
                    std::string("Syscall parameter ") + Sys +
                        " string is bad at " + hexAddr(Bad),
                    C->thread(Tid).getPC(), Tid);
        return;
      }
      uint8_t B;
      if (C->memory().read(Addr + I, &B, 1, true).Faulted || B == 0)
        return;
    }
  };
  E.PreMemWrite = [this](int Tid, uint32_t Addr, uint32_t Len,
                         const char *Sys) {
    uint32_t Bad;
    if (!SM.isAddressable(Addr, Len, Bad)) {
      reportError("InvalidWrite",
                  std::string("Syscall parameter ") + Sys +
                      " points to unaddressable byte(s) at " + hexAddr(Bad),
                  C->thread(Tid).getPC(), Tid);
    }
  };
  E.PostMemWrite = [this](int, uint32_t Addr, uint32_t Len) {
    SM.makeDefined(Addr, Len);
  };

  // R8 note: the heap redirection itself (malloc/free/calloc/realloc ->
  // the core's replacement allocator) is installed by the core because
  // this tool returns tracksHeap() — see Core::loadImage.
}

void Memcheck::checkDefinedRange(int Tid, uint32_t Addr, uint32_t Len,
                                 const char *What) {
  uint32_t Bad;
  bool Unaddr;
  if (SM.isDefined(Addr, Len, Bad, Unaddr))
    return;
  if (Unaddr) {
    reportError("InvalidRead",
                std::string("Syscall parameter ") + What +
                    " points to unaddressable byte(s) at " + hexAddr(Bad),
                C->thread(Tid).getPC(), Tid);
  } else {
    reportError("UninitSyscall",
                std::string("Syscall parameter ") + What +
                    " points to uninitialised byte(s) at " + hexAddr(Bad),
                C->thread(Tid).getPC(), Tid);
  }
}

void Memcheck::onMalloc(int Tid, uint32_t Addr, uint32_t Size, bool Zeroed) {
  if (Zeroed)
    SM.makeDefined(Addr, Size);
  else
    SM.makeUndefined(Addr, Size);
}

void Memcheck::onFree(int Tid, uint32_t Addr, uint32_t Size) {
  SM.makeNoAccess(Addr, Size);
}

void Memcheck::onBadFree(int Tid, uint32_t Addr) {
  // Attribute the error to the call site: free() is entered via CALL, so
  // the caller's return address is on top of the stack.
  ThreadState &TS = C->thread(Tid);
  uint32_t Site = TS.getPC();
  uint32_t Ret;
  if (!C->memory().read(TS.gpr(vg1::RegSP), &Ret, 4, true).Faulted)
    Site = Ret;
  reportError("InvalidFree",
              "Invalid free() / delete of " + hexAddr(Addr) +
                  " (not a live heap block)",
              Site, Tid);
}

bool Memcheck::handleClientRequest(int Tid, uint32_t Code,
                                   const uint32_t Args[4], uint32_t &Result) {
  switch (Code) {
  case McMakeMemDefined:
    SM.makeDefined(Args[0], Args[1]);
    return true;
  case McMakeMemUndefined:
    SM.makeUndefined(Args[0], Args[1]);
    return true;
  case McMakeMemNoAccess:
    SM.makeNoAccess(Args[0], Args[1]);
    return true;
  case McCheckMemIsDefined: {
    uint32_t Bad;
    bool Unaddr;
    Result = SM.isDefined(Args[0], Args[1], Bad, Unaddr) ? 0 : Bad;
    return true;
  }
  case McCheckMemIsAddressable: {
    uint32_t Bad;
    Result = SM.isAddressable(Args[0], Args[1], Bad) ? 0 : Bad;
    return true;
  }
  case McCountErrors:
    Result = static_cast<uint32_t>(C->errors().uniqueErrors());
    return true;
  default:
    return false;
  }
}

void Memcheck::reportError(const char *Kind, const std::string &Msg,
                           uint32_t PC, int Tid) {
  if (Tid < 0)
    Tid = C->currentTid();
  bool IsNew = C->errors().record(Kind, "==memcheck== " + Msg, PC,
                                  C->captureStackTrace(C->thread(Tid)));
  if (IsNew) {
    C->output().printf("==memcheck== %s\n==memcheck==    at %s\n",
                       Msg.c_str(), hexAddr(PC).c_str());
  }
}

uint64_t Memcheck::uniqueErrors() const {
  return FinalErrors != NoFinalErrors ? FinalErrors
                                      : C->errors().uniqueErrors();
}

void Memcheck::leakCheck() {
  const auto &Blocks = C->heapBlocks();
  if (Blocks.empty())
    return;
  // Conservative pointer scan: any aligned word anywhere in addressable
  // memory or in the registers that points into a block keeps it. (Real
  // Memcheck distinguishes start/interior pointers; we treat both as
  // reachable.)
  std::vector<std::pair<uint32_t, uint32_t>> Ranges; // payload, size
  for (auto [A, S] : Blocks)
    Ranges.push_back({A, S});
  // Ranges is sorted by payload (heapBlocks() is a map) and blocks never
  // overlap, so only the last block starting at or below V can hold it.
  auto FindBlock = [&](uint32_t V) -> int {
    auto It = std::upper_bound(Ranges.begin(), Ranges.end(),
                               std::make_pair(V, UINT32_MAX));
    if (It == Ranges.begin())
      return -1;
    --It;
    return V - It->first < It->second ? static_cast<int>(It - Ranges.begin())
                                      : -1;
  };

  std::vector<bool> Reached(Ranges.size(), false);
  auto ScanWord = [&](uint32_t V) {
    if (int I = FindBlock(V); I >= 0)
      Reached[static_cast<size_t>(I)] = true;
  };

  // Registers of all live threads.
  for (int T = 0; T != Core::MaxThreads; ++T) {
    ThreadState &TS = C->thread(T);
    if (TS.Status != ThreadStatus::Runnable)
      continue;
    for (unsigned R = 0; R != NumGPRs; ++R)
      ScanWord(TS.gpr(R));
  }
  // All client segments (data, stack, heap, mmaps).
  for (const Segment &S : C->addressSpace().segments()) {
    if (S.Kind == SegKind::CoreReserved || S.Kind == SegKind::ClientText)
      continue;
    for (uint32_t A = S.Start; A + 4 <= S.End; A += 4) {
      if (SM.chunkIsNoAccess(A)) {
        // No word of a NoAccess chunk (most of the replacement heap's
        // arena) can be a root: resume at the next chunk, where the
        // per-word walk below would have resumed too.
        uint64_t Next =
            (static_cast<uint64_t>(A) | (ShadowMap::ChunkSize - 1)) + 1;
        if (Next + 4 > S.End)
          break;
        A = static_cast<uint32_t>(Next) - 4;
        continue;
      }
      uint32_t Bad;
      if (!SM.isAddressable(A, 4, Bad)) {
        A = (Bad & ~3u); // skip to the next aligned word after the hole
        continue;
      }
      uint32_t V;
      if (!C->memory().read(A, &V, 4, true).Faulted)
        ScanWord(V);
    }
  }

  uint64_t LostBytes = 0, LostBlocks = 0;
  for (size_t I = 0; I != Ranges.size(); ++I) {
    if (!Reached[I]) {
      ++LostBlocks;
      LostBytes += Ranges[I].second;
      C->errors().record("Leak",
                         "==memcheck== " + std::to_string(Ranges[I].second) +
                             " bytes definitely lost at " +
                             hexAddr(Ranges[I].first),
                         Ranges[I].first);
    }
  }
  C->output().printf("==memcheck== LEAK SUMMARY: definitely lost: %llu "
                     "bytes in %llu blocks\n",
                     static_cast<unsigned long long>(LostBytes),
                     static_cast<unsigned long long>(LostBlocks));
}

void Memcheck::fini(int ExitCode) {
  C->output().printf(
      "==memcheck== HEAP SUMMARY: in use at exit: %llu bytes in %zu blocks\n",
      static_cast<unsigned long long>(C->heapBytesLive()),
      C->heapBlocks().size());
  if (LeakCheckEnabled)
    leakCheck();
  C->errors().printSummary(C->output());
  FinalErrors = static_cast<uint32_t>(C->errors().uniqueErrors());
}
