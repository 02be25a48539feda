//===-- tools/TaintGrind.cpp - Taint tracker ------------------------------==//

#include "tools/TaintGrind.h"

#include "guest/GuestArch.h"
#include "shadow/ShadowInstrumenter.h"

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
    auto It = Pages.find(A >> PageBits);
    if (It == Pages.end()) {
      if (!Tainted)
        continue; // an absent page is already untainted
      It = Pages.try_emplace(A >> PageBits).first;
    }
    It->second[A & (PageSize - 1)] = Tainted ? 0xFF : 0;
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

/// TaintGrind's taint rules on the shared shadow-value scaffold.
class TgInstrumenter : public ShadowInstrumenter<TgInstrumenter> {
public:
  TgInstrumenter(IRSB &SB, bool CheckBranches)
      : ShadowInstrumenter(SB, &TaintedJumpCallee,
                           CheckBranches ? &TaintedBranchCallee : nullptr) {}

private:
  friend ShadowInstrumenter;

  Expr *shadowUnop(Op O, Expr *V) {
    // Conversions carry taint bytes with them, Not and reinterpretations
    // leave them in place, and everything else PCasts.
    if (isWidthConversion(O))
      return atom(SB.unop(O, V));
    if (opFam(O) == OpFam::Not || opFam(O) == OpFam::Reinterp)
      return V;
    return pcast(shTy(opArgTy(O, 0)), shTy(opResultTy(O)), V);
  }

  Expr *shadowBinop(const Expr *D, Expr *V1, Expr *V2) {
    Ty A0 = shTy(D->Arg[0]->T), A1 = shTy(D->Arg[1]->T);
    Ty RT = shTy(D->T);
    if (RT == Ty::I1)
      return pcast(Ty::I32, Ty::I1,
                   atom(SB.binop(Op::Or32, pcast(A0, Ty::I32, V1),
                                 pcast(A1, Ty::I32, V2))));
    // Bring both to the result width, then UifU.
    Expr *W1 = A0 == RT ? V1 : pcast(A0, RT, V1);
    Expr *W2 = A1 == RT ? V2 : pcast(A1, RT, V2);
    return uifu(RT, W1, W2);
  }

  /// An I1 result is tainted outright by a tainted condition.
  Expr *shadowIte(const Expr *D) {
    if (shTy(D->T) != Ty::I1)
      return ShadowInstrumenter::shadowIte(D);
    Expr *Sel = atom(SB.ite(D->Arg[0], vAtom(D->Arg[1]), vAtom(D->Arg[2])));
    return atom(SB.ite(vAtom(D->Arg[0]), SB.constI1(true), Sel));
  }

  Expr *shadowLoad(const Expr *D) {
    TmpId TV = SB.newTmp(shTy(D->T));
    SB.dirty(&LoadTCallee, {D->Arg[0], SB.constI64(sizeOfTy(D->T))}, TV);
    return SB.rdTmp(TV);
  }

  void instrumentStore(Stmt *S) {
    SB.dirty(&StoreTCallee, {S->Addr, vAtom(S->Data),
                             SB.constI64(sizeOfTy(S->Data->T))});
  }
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
  // R4: what the kernel (or the core) writes is trusted. A read() of
  // untrusted input fires PostFileRead right after PostMemWrite, which
  // taints the range again.
  E.PostMemWrite = [this](int, uint32_t Addr, uint32_t Len) {
    TM.set(Addr, Len, false);
  };
  E.PostRegWrite = [this](int Tid, uint32_t Off, uint32_t Size) {
    ThreadState &TS = C->thread(Tid);
    std::memset(TS.Guest + vg1::gso::ShadowOffset + Off, 0, Size);
  };
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
    TM.set(Args[0], Args[1], true);
    return true;
  case TgUntaint:
    TM.set(Args[0], Args[1], false);
    return true;
  case TgIsTainted:
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
