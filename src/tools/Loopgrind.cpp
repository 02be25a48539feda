//===-- tools/Loopgrind.cpp - The loop/CFG profiler -----------------------==//

#include "tools/Loopgrind.h"

#include "core/TransTab.h"
#include "hvm/ExecContext.h"

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace vg;
using namespace vg::ir;

uint64_t Loopgrind::helperBlockEntry(void *Env, uint64_t Addr, uint64_t,
                                     uint64_t, uint64_t) {
  auto *Ctx = static_cast<ExecContext *>(Env);
  static_cast<Loopgrind *>(Ctx->Tool)
      ->noteBlock(Ctx->Tid, static_cast<uint32_t>(Addr));
  return 0;
}

namespace {
const Callee EntryCallee = {"loopgrind_entry", &Loopgrind::helperBlockEntry,
                            0};
const ir::CalleeRegistrar RegisterCallees{&EntryCallee};
} // namespace

void Loopgrind::registerOptions(OptionRegistry &Opts) {
  Opts.addOption("loop-top", "5", "loops to list in the report");
}

void Loopgrind::init(Core &Core_) {
  C = &Core_;
  TopN = static_cast<unsigned>(
      C->options().getIntChecked("loop-top", 1, 1000));
}

void Loopgrind::instrument(IRSB &SB) {
  // The block's entry address is its first IMark; the dirty call goes
  // right after it so the helper fires exactly once per block entry,
  // before any guest work.
  std::vector<Stmt *> Old;
  Old.swap(SB.stmts());
  bool Planted = false;
  for (Stmt *S : Old) {
    SB.append(S);
    if (!Planted && S->Kind == StmtKind::IMark) {
      SB.dirty(&EntryCallee, {SB.constI64(S->IAddr)});
      Planted = true;
    }
  }
}

void Loopgrind::noteBlock(int Tid, uint32_t Addr) {
  TidRun &R = Runs[Tid];
  if (!Collecting) {
    R.Last = Addr;
    return;
  }
  ++BlocksSeen;
  if (Addr <= R.Last) { // backwards transfer: we arrived at a loop head
    ++BackEdges;
    if (Addr == R.ActiveHead) {
      ++R.Trip;
    } else {
      flushRun(R);
      R.ActiveHead = Addr;
      R.Trip = 1;
    }
  }
  R.Last = Addr;
}

void Loopgrind::flushRun(TidRun &R) {
  if (!R.ActiveHead || !R.Trip)
    return;
  LoopStat &L = Loops[R.ActiveHead];
  ++L.Entries;
  L.Iterations += R.Trip;
  L.MaxTrip = std::max(L.MaxTrip, R.Trip);
  unsigned B = 0;
  while ((R.Trip >> (B + 1)) && B + 1 < HistBuckets)
    ++B;
  ++L.Hist[B];
  R.ActiveHead = 0;
  R.Trip = 0;
}

bool Loopgrind::handleClientRequest(int Tid, uint32_t Code,
                                    const uint32_t Args[4],
                                    uint32_t &Result) {
  switch (Code) {
  case LgStart:
    Collecting = true;
    return true;
  case LgStop:
    // Close out in-flight runs so a Stop/Start pair cannot weld two
    // distinct runs of the same head into one trip count.
    for (TidRun &R : Runs)
      flushRun(R);
    Collecting = false;
    return true;
  case LgAnnotate: {
    char Buf[64] = {};
    for (uint32_t I = 0; I + 1 < sizeof(Buf); ++I) {
      if (C->memory().read(Args[1] + I, &Buf[I], 1, true).Faulted ||
          !Buf[I])
        break;
    }
    Loops[Args[0]].Label = Buf;
    return true;
  }
  default:
    return false;
  }
}

void Loopgrind::fini(int ExitCode) {
  for (TidRun &R : Runs)
    flushRun(R);
  OutputSink &Out = C->output();
  Out.printf("==loopgrind== blocks entered: %llu, back-edges: %llu\n",
             static_cast<unsigned long long>(BlocksSeen),
             static_cast<unsigned long long>(BackEdges));

  std::vector<std::pair<uint64_t, uint32_t>> Order;
  for (const auto &[Head, L] : Loops)
    Order.push_back({L.Iterations, Head});
  std::sort(Order.rbegin(), Order.rend());

  Out.printf("==loopgrind== hottest loops (by iterations):\n");
  for (size_t I = 0; I != Order.size() && I != TopN; ++I) {
    const LoopStat &L = Loops[Order[I].second];
    double Avg = L.Entries ? static_cast<double>(L.Iterations) /
                                 static_cast<double>(L.Entries)
                           : 0.0;
    Out.printf("==loopgrind==   head 0x%08X  entries %llu  iters %llu  "
               "avg %.1f  max %llu%s%s\n",
               Order[I].second, static_cast<unsigned long long>(L.Entries),
               static_cast<unsigned long long>(L.Iterations), Avg,
               static_cast<unsigned long long>(L.MaxTrip),
               L.Label.empty() ? "" : "  ", L.Label.c_str());
    // Trip histogram, nonzero buckets only: "2^k" means trip counts in
    // [2^k, 2^(k+1)).
    std::string Hist;
    for (unsigned B = 0; B != HistBuckets; ++B)
      if (L.Hist[B]) {
        char Cell[48];
        std::snprintf(Cell, sizeof(Cell), " 2^%u:%llu", B,
                      static_cast<unsigned long long>(L.Hist[B]));
        Hist += Cell;
      }
    if (!Hist.empty())
      Out.printf("==loopgrind==     trips:%s\n", Hist.c_str());
  }

  // Cross-check against the chain graph: a filled chain slot whose target
  // is at or below the source's own entry is the JIT's view of the same
  // back-edge, with the exact transfer count the chain thunks profiled.
  std::vector<std::pair<uint64_t, std::pair<uint32_t, uint32_t>>> Edges;
  C->transTab().forEach([&](const Translation &T) {
    for (size_t S = 0; S != T.Chain.size(); ++S) {
      const Translation *To = T.Chain[S];
      if (!To || To->Addr > T.Addr)
        continue;
      uint64_t N = S < T.EdgeExecs.size() ? T.EdgeExecs[S] : 0;
      if (N)
        Edges.push_back({N, {T.Addr, To->Addr}});
    }
  });
  std::sort(Edges.rbegin(), Edges.rend());
  Out.printf("==loopgrind== chain-graph back-edges: %llu\n",
             static_cast<unsigned long long>(Edges.size()));
  for (size_t I = 0; I != Edges.size() && I != TopN; ++I)
    Out.printf("==loopgrind==   0x%08X -> 0x%08X  transfers %llu\n",
               Edges[I].second.first, Edges[I].second.second,
               static_cast<unsigned long long>(Edges[I].first));
}
