//===-- hvm/RegAlloc.cpp - Phase 7: linear-scan register allocation -------==//
///
/// Linear-scan allocation in the style of Traub et al. (the paper's cited
/// algorithm [26]): live intervals over the instruction list, an active set
/// ordered by interval end, furthest-end spilling, and move-coalescing
/// hints so that "the register allocator can remove many register-to-
/// register moves" (Figure 3).
///
//===----------------------------------------------------------------------===//

#include "hvm/ISel.h"

#include <algorithm>
#include <map>

using namespace vg;
using namespace vg::hvm;

namespace {

struct Interval {
  RegId VR;
  int Start = -1, End = -1;
  RegId HintVR = NoReg; ///< prefer this vreg's assignment (MOV coalescing)
  RegId Phys = NoReg;
  int Slot = -1; ///< spill slot when >= 0
};

struct UseDef {
  RegId *Regs[8];
  bool IsDef[8];
  unsigned N = 0;
  void add(RegId &R, bool Def) {
    if (R == NoReg || !isVirtual(R))
      return;
    Regs[N] = &R;
    IsDef[N] = Def;
    ++N;
  }
};

/// Collects the virtual-register operands of an instruction: the uses A,
/// B, C and Args[0..NArgs), then the def Dst. A form leaves the registers
/// it lacks NoReg, so one order serves every form.
UseDef operands(HInstr &I) {
  UseDef U;
  U.add(I.A, false);
  U.add(I.B, false);
  U.add(I.C, false);
  for (unsigned J = 0; J != I.NArgs; ++J)
    U.add(I.Args[J], false);
  U.add(I.Dst, true);
  return U;
}

} // namespace

unsigned hvm::allocateRegisters(HostCode &Code) {
  auto &Ins = Code.Instrs;

  // --- build live intervals ---------------------------------------------
  std::map<RegId, Interval> Ivals;
  std::vector<int> CallPositions;
  for (size_t Idx = 0; Idx != Ins.size(); ++Idx) {
    if (Ins[Idx].Op == HOp::CALL)
      CallPositions.push_back(static_cast<int>(Idx));
    UseDef U = operands(Ins[Idx]);
    for (unsigned J = 0; J != U.N; ++J) {
      RegId VR = *U.Regs[J];
      Interval &IV = Ivals.try_emplace(VR, Interval{VR}).first->second;
      if (IV.Start < 0)
        IV.Start = static_cast<int>(Idx);
      IV.End = static_cast<int>(Idx);
    }
    // Coalescing hint: MOV dst,src prefers sharing src's register.
    if (Ins[Idx].Op == HOp::MOV && isVirtual(Ins[Idx].Dst) &&
        isVirtual(Ins[Idx].A))
      Ivals[Ins[Idx].Dst].HintVR = Ins[Idx].A;
  }

  // --- linear scan --------------------------------------------------------
  std::vector<Interval *> Order;
  Order.reserve(Ivals.size());
  for (auto &[VR, IV] : Ivals)
    Order.push_back(&IV);
  std::sort(Order.begin(), Order.end(), [](const Interval *A,
                                           const Interval *B) {
    return A->Start != B->Start ? A->Start < B->Start : A->VR < B->VR;
  });

  std::vector<Interval *> Active; // kept sorted by End
  bool FreeReg[NumAllocatable];
  std::fill(std::begin(FreeReg), std::end(FreeReg), true);
  uint32_t NextSlot = 0;

  auto Expire = [&](int Now) {
    size_t Keep = 0;
    for (Interval *A : Active) {
      if (A->End < Now)
        FreeReg[A->Phys] = true;
      else
        Active[Keep++] = A;
    }
    Active.resize(Keep);
  };

  auto InsertActive = [&](Interval *IV) {
    auto It = std::lower_bound(
        Active.begin(), Active.end(), IV,
        [](const Interval *A, const Interval *B) { return A->End < B->End; });
    Active.insert(It, IV);
  };

  // An interval strictly spanning a CALL cannot live in a caller-saved
  // register (the call clobbers h0..h5).
  auto SpansCall = [&](const Interval *IV) {
    for (int C : CallPositions)
      if (IV->Start < C && C < IV->End)
        return true;
    return false;
  };

  for (Interval *IV : Order) {
    Expire(IV->Start);
    bool NeedCalleeSaved = !CallPositions.empty() && SpansCall(IV);
    unsigned FirstOk = NeedCalleeSaved ? NumCallerSaved : 0;
    // Try the coalescing hint first. The common case is that the source of
    // the MOV dies exactly at the MOV (End == our Start): its register can
    // be taken over directly, which later deletes the MOV.
    RegId Chosen = NoReg;
    if (IV->HintVR != NoReg) {
      auto HIt = Ivals.find(IV->HintVR);
      if (HIt != Ivals.end() && HIt->second.Phys != NoReg &&
          HIt->second.Phys >= FirstOk) {
        Interval &H = HIt->second;
        if (FreeReg[H.Phys]) {
          Chosen = H.Phys;
        } else if (H.End <= IV->Start) {
          // Take over the dying source's register; drop it from the active
          // list so its (already transferred) register is not re-freed.
          Chosen = H.Phys;
          auto AIt = std::find(Active.begin(), Active.end(), &H);
          if (AIt != Active.end())
            Active.erase(AIt);
        }
      }
    }
    if (Chosen == NoReg) {
      for (unsigned R = FirstOk; R != NumAllocatable; ++R) {
        if (FreeReg[R]) {
          Chosen = R;
          break;
        }
      }
    }
    if (Chosen != NoReg) {
      IV->Phys = Chosen;
      FreeReg[Chosen] = false;
      InsertActive(IV);
      continue;
    }
    // No usable register free: spill the eligible interval ending furthest
    // away (or this one).
    Interval *Victim = nullptr;
    for (auto It = Active.rbegin(); It != Active.rend(); ++It) {
      if ((*It)->Phys >= FirstOk) {
        Victim = *It;
        break;
      }
    }
    if (Victim && Victim->End > IV->End) {
      IV->Phys = Victim->Phys;
      Victim->Phys = NoReg;
      Victim->Slot = static_cast<int>(NextSlot++);
      Active.erase(std::find(Active.begin(), Active.end(), Victim));
      InsertActive(IV);
    } else {
      IV->Slot = static_cast<int>(NextSlot++);
    }
  }

  // --- rewrite: apply assignments, insert spill code, coalesce moves -----
  std::vector<HInstr> Out;
  Out.reserve(Ins.size());
  std::vector<int32_t> NewIndex(Ins.size() + 1, 0);
  unsigned Coalesced = 0;

  for (size_t Idx = 0; Idx != Ins.size(); ++Idx) {
    NewIndex[Idx] = static_cast<int32_t>(Out.size());
    HInstr I = Ins[Idx];
    UseDef U = operands(I);
    unsigned ScratchNext = FirstScratch;
    HInstr DeferredSpill;
    bool HaveSpillAfter = false;

    for (unsigned J = 0; J != U.N; ++J) {
      RegId VR = *U.Regs[J];
      Interval &IV = Ivals[VR];
      if (IV.Phys != NoReg) {
        *U.Regs[J] = IV.Phys;
        continue;
      }
      // Spilled virtual register.
      assert(IV.Slot >= 0 && "spilled interval without a slot");
      RegId S = ScratchNext++;
      assert(S < NumHostRegs && "ran out of scratch registers");
      if (U.IsDef[J]) {
        *U.Regs[J] = S;
        DeferredSpill = HInstr();
        DeferredSpill.Op = HOp::SPILL;
        DeferredSpill.A = S;
        DeferredSpill.Off = static_cast<uint32_t>(IV.Slot);
        HaveSpillAfter = true;
      } else {
        HInstr R;
        R.Op = HOp::RELOAD;
        R.Dst = S;
        R.Off = static_cast<uint32_t>(IV.Slot);
        Out.push_back(R);
        *U.Regs[J] = S;
      }
    }

    // Coalesce now-trivial moves.
    if (I.Op == HOp::MOV && I.Dst == I.A) {
      ++Coalesced;
      continue;
    }
    Out.push_back(I);
    if (HaveSpillAfter)
      Out.push_back(DeferredSpill);
  }
  NewIndex[Ins.size()] = static_cast<int32_t>(Out.size());

  // Fix JZ targets (instruction indices moved).
  for (HInstr &I : Out)
    if (I.Op == HOp::JZ)
      I.Label = NewIndex[I.Label];

  Code.Instrs = std::move(Out);
  Code.NumSpillSlots = NextSlot;
  return Coalesced;
}
