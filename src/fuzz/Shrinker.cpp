//===-- fuzz/Shrinker.cpp - ddmin repro minimisation ----------------------==//

#include "fuzz/Shrinker.h"

#include <algorithm>

using namespace vg;
using namespace vg::fuzz;

namespace {

struct Shrinker {
  const FuzzConfig &Cfg;
  unsigned MaxEvals;
  unsigned Evals = 0;
  Divergence LastDiv;

  Shrinker(const FuzzConfig &C, unsigned Max) : Cfg(C), MaxEvals(Max) {}

  bool budget() const { return Evals < MaxEvals; }

  /// The predicate: still diverges on the failing config?
  bool fails(const FuzzProgram &P) {
    ++Evals;
    DiffResult R = diffRun(P, {Cfg});
    if (!R.ok())
      LastDiv = R.Divs.front();
    return !R.ok();
  }

  /// Classic ddmin over one atom list; mutates \p Atoms in place inside
  /// \p P (the caller passes a member of P by reference).
  bool ddminList(FuzzProgram &P, std::vector<Atom> &Atoms) {
    bool Shrunk = false;
    size_t Chunk = (Atoms.size() + 1) / 2;
    while (Chunk >= 1 && !Atoms.empty() && budget()) {
      bool Removed = false;
      for (size_t Start = 0; Start < Atoms.size() && budget();) {
        size_t End = std::min(Start + Chunk, Atoms.size());
        std::vector<Atom> Saved(Atoms.begin() + Start, Atoms.begin() + End);
        Atoms.erase(Atoms.begin() + Start, Atoms.begin() + End);
        if (fails(P)) {
          Removed = Shrunk = true; // keep removal, retry same position
        } else {
          Atoms.insert(Atoms.begin() + Start, Saved.begin(), Saved.end());
          Start += Chunk;
        }
      }
      if (!Removed) {
        if (Chunk == 1)
          break;
        Chunk = (Chunk + 1) / 2;
      }
    }
    return Shrunk;
  }

  void run(FuzzProgram &P) {
    // 1. Loop count: smaller is simpler and faster to triage.
    for (uint32_t LC : {1u, 2u, 4u}) {
      if (P.LoopCount <= LC || !budget())
        break;
      FuzzProgram Q = P;
      Q.LoopCount = LC;
      if (fails(Q)) {
        P = std::move(Q);
        break;
      }
    }

    // 2. Drop leaves wholesale (calls to an empty leaf are call+ret).
    for (auto &Leaf : P.Leaves) {
      if (Leaf.empty() || !budget())
        continue;
      FuzzProgram Q = P;
      Q.Leaves[&Leaf - &P.Leaves[0]].clear();
      if (fails(Q))
        Leaf.clear();
    }

    // 3/4. ddmin the body and each leaf to fixpoint.
    bool Progress = true;
    while (Progress && budget()) {
      Progress = ddminList(P, P.Body);
      for (auto &Leaf : P.Leaves)
        if (budget())
          Progress |= ddminList(P, Leaf);
    }

    // 5. Feature flags off if the divergence survives without them.
    if (P.Signals && budget()) {
      // The generator only emits SysKill atoms when handlers are installed:
      // an unhandled kill is fatal under the core but a SysErr natively, so
      // Signals=false + SysKill diverges by design, not by bug. Clearing the
      // flag therefore has to drop those atoms too, or the shrink transmutes
      // the real divergence into that known engine difference.
      FuzzProgram Q = P;
      Q.Signals = false;
      auto DropKills = [](std::vector<Atom> &Atoms) {
        Atoms.erase(std::remove_if(Atoms.begin(), Atoms.end(),
                                   [](const Atom &At) {
                                     return At.K == AtomKind::SysKill;
                                   }),
                    Atoms.end());
      };
      DropKills(Q.Body);
      for (auto &Leaf : Q.Leaves)
        DropKills(Leaf);
      if (fails(Q))
        P = std::move(Q);
    }
    if (P.Smc && budget()) {
      FuzzProgram Q = P;
      Q.Smc = false;
      if (fails(Q))
        P.Smc = false;
    }

    // 6. Stdin truncation.
    while (!P.StdinData.empty() && budget()) {
      FuzzProgram Q = P;
      Q.StdinData.resize(Q.StdinData.size() / 2);
      if (!fails(Q))
        break;
      P.StdinData = Q.StdinData;
    }

    // Re-establish LastDiv for the final minimal program.
    fails(P);
  }
};

} // namespace

ShrinkOutcome vg::fuzz::shrinkProgram(const FuzzProgram &P,
                                      const FuzzConfig &FailingConfig,
                                      unsigned MaxEvals) {
  ShrinkOutcome Out;
  Out.AtomsBefore = P.totalAtoms();
  FuzzProgram Min = P;
  Shrinker S(FailingConfig, MaxEvals);
  S.run(Min);
  Out.Minimal = std::move(Min);
  Out.Div = S.LastDiv;
  Out.Evals = S.Evals;
  Out.AtomsAfter = Out.Minimal.totalAtoms();
  Out.InstrsAfter = bodyInstrCount(Out.Minimal);
  return Out;
}
