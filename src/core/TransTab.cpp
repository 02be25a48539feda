//===-- core/TransTab.cpp - Translation storage ---------------------------==//

#include "core/TransTab.h"

#include "support/Errors.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>

using namespace vg;

TransTab::TransTab(size_t CapacityPow2) {
  assert((CapacityPow2 & (CapacityPow2 - 1)) == 0 &&
         "table capacity must be a power of two");
  Slots.resize(CapacityPow2);
}

size_t TransTab::probeFor(uint32_t Addr) const {
  size_t Mask = Slots.size() - 1;
  size_t Idx = hashAddr(Addr) & Mask;
  size_t FirstTomb = NoSlot;
  for (size_t Step = 0; Step != Slots.size(); ++Step) {
    const Slot &S = Slots[Idx];
    if (S.St == Slot::State::Empty)
      return FirstTomb != NoSlot ? FirstTomb : Idx;
    if (S.St == Slot::State::Tomb) {
      if (FirstTomb == NoSlot)
        FirstTomb = Idx;
    } else if (S.T->Addr == Addr) {
      return Idx;
    }
    Idx = (Idx + 1) & Mask;
  }
  // Wrapped the whole table: at best a tomb is reusable; NoSlot tells the
  // caller there is no home at all (never hand back an unrelated slot).
  return FirstTomb;
}

Translation *TransTab::find(uint32_t Addr) const {
  size_t Idx = probeFor(Addr);
  if (Idx == NoSlot)
    return nullptr;
  const Slot &Sl = Slots[Idx];
  if (Sl.St == Slot::State::Full && Sl.T->Addr == Addr)
    return Sl.T.get();
  return nullptr;
}

Translation *TransTab::lookup(uint32_t Addr) {
  ++S.Lookups;
  Translation *T = find(Addr);
  if (T)
    ++S.Hits;
  return T;
}

Translation *TransTab::insert(std::unique_ptr<Translation> T) {
  // Keep occupancy (counting the incoming translation) at or below 80% so
  // the table can never fill completely and probes stay short.
  if ((Count + 1) * 10 > Slots.size() * 8)
    evictChunk();
  T->Seq = NextSeq++;
  T->Blob.Cookie = T.get();

  size_t Idx = probeFor(T->Addr);
  if (Idx != NoSlot && Slots[Idx].St == Slot::State::Full) {
    // Replacing an existing translation for the same address (probeFor
    // only returns a full slot on an exact address match).
    assert(Slots[Idx].T->Addr == T->Addr && "probe returned unrelated slot");
    eraseSlot(Idx);
  }
  if (Idx == NoSlot) {
    // No free slot on the probe path: make room and try again rather than
    // overwriting whatever lives at slot 0 (the seed's latent bug).
    evictChunk();
    Idx = probeFor(T->Addr);
  }
  if (Idx == NoSlot || Slots[Idx].St == Slot::State::Full)
    fatalError("TransTab::insert: no free slot after eviction");

  Slot &Sl = Slots[Idx];
  Sl.T = std::move(T);
  Sl.St = Slot::State::Full;
  ++Count;
  ++S.Inserts;
  linkChains(Sl.T.get());
  return Sl.T.get();
}

void TransTab::eraseSlot(size_t Idx) {
  Slot &Sl = Slots[Idx];
  assert(Sl.St == Slot::State::Full && "erasing non-full slot");
  unlinkChains(Sl.T.get());
#ifndef NDEBUG
  // A waiter whose From is the translation being retired would later be
  // filled against freed memory; unlinkChains must have cancelled them all.
  for (auto &[Key, W] : Pending)
    for (auto &[From, S2] : W) {
      (void)Key;
      (void)S2;
      assert(From != Sl.T.get() && "stale waiter survives retirement");
    }
#endif
  Sl.T.reset();
  Sl.St = Slot::State::Tomb;
  --Count;
  ++Gen;
}

void TransTab::evictChunk() {
  ++S.EvictionRuns;
  // FIFO: evict exactly the N oldest resident translations (N = 1/8th of
  // the residents). The seed compared Seq <= threshold over the whole
  // table, which over-evicts whenever the threshold partition is uneven.
  struct Victim {
    uint64_t Seq;
    size_t Idx;
  };
  std::vector<Victim> Victims;
  Victims.reserve(Count);
  for (size_t I = 0; I != Slots.size(); ++I)
    if (Slots[I].St == Slot::State::Full)
      Victims.push_back({Slots[I].T->Seq, I});
  if (Victims.empty())
    return;
  size_t N = std::max<size_t>(1, Victims.size() / 8);
  std::nth_element(Victims.begin(), Victims.begin() + (N - 1), Victims.end(),
                   [](const Victim &A, const Victim &B) { return A.Seq < B.Seq; });
  uint64_t Before = S.Evicted;
  for (size_t I = 0; I != N; ++I)
    eraseSlot(Victims[I].Idx);
  S.Evicted += N;
  assert(S.Evicted == Before + N && "eviction run must evict exactly N");
  (void)Before;
  rehash();
}

void TransTab::rehash() {
  // Collect survivors, clear every slot (tombs included), and re-place.
  // Translation pointers are stable across the move, so chain pointers,
  // back-edges, and the dispatcher's fast cache stay valid.
  std::vector<std::unique_ptr<Translation>> Live;
  Live.reserve(Count);
  for (Slot &Sl : Slots) {
    if (Sl.St == Slot::State::Full)
      Live.push_back(std::move(Sl.T));
    Sl.T.reset();
    Sl.St = Slot::State::Empty;
  }
  for (std::unique_ptr<Translation> &T : Live) {
    size_t Idx = probeFor(T->Addr);
    assert(Idx != NoSlot && Slots[Idx].St == Slot::State::Empty &&
           "rehash of a non-full table must find an empty slot");
    Slots[Idx].T = std::move(T);
    Slots[Idx].St = Slot::State::Full;
  }
}

unsigned TransTab::invalidateRange(uint32_t Addr, uint32_t Len) {
  // End as a 64-bit bound: a range reaching the top of the guest space
  // (Addr + Len == 2^32) must cover the final byte 0xFFFFFFFF rather than
  // wrapping to 0 and matching nothing.
  uint64_t End = static_cast<uint64_t>(Addr) + Len;
  unsigned N = 0;
  for (size_t I = 0; I != Slots.size(); ++I) {
    if (Slots[I].St != Slot::State::Full)
      continue;
    for (auto [Lo, Hi] : Slots[I].T->Extents) {
      if (Lo < End && Addr < Hi) {
        eraseSlot(I);
        ++N;
        ++S.Invalidated;
        break;
      }
    }
  }
  return N;
}

void TransTab::invalidateAll() {
  for (size_t I = 0; I != Slots.size(); ++I) {
    if (Slots[I].St == Slot::State::Full) {
      eraseSlot(I);
      ++S.Invalidated;
    }
  }
  rehash(); // purge the tombs
  assert(Pending.empty() && "waiters must not outlive their translations");
}

//===----------------------------------------------------------------------===//
// The chain graph (Section 3.9)
//===----------------------------------------------------------------------===//

void TransTab::removeWaiter(uint32_t Target, const Translation *From,
                            uint32_t Slot) {
  auto It = Pending.find(Target);
  if (It == Pending.end())
    return;
  auto &W = It->second;
  W.erase(std::remove_if(W.begin(), W.end(),
                         [&](const std::pair<Translation *, uint32_t> &P) {
                           return P.first == From && P.second == Slot;
                         }),
          W.end());
  if (W.empty())
    Pending.erase(It);
}

void TransTab::chainTo(Translation *From, uint32_t Slot, Translation *To) {
  if (!From || !To || To->NoChainIn || Slot >= From->Blob.Chain.size())
    return;
  hvm::CodeBlob *&Link = From->Blob.Chain[Slot];
  if (Link == &To->Blob)
    return;
  assert(!Link && "chain slot already linked elsewhere");
  if (Slot < From->Blob.ChainTargets.size())
    removeWaiter(From->Blob.ChainTargets[Slot], From, Slot);
  Link = &To->Blob;
  To->ChainedFrom.push_back(From);
  ++S.ChainsFilled;
}

void TransTab::linkChains(Translation *T) {
  // Outgoing: link against resident successors, park waiters otherwise.
  const std::vector<uint32_t> &Targets = T->Blob.ChainTargets;
  for (uint32_t Slot = 0; Slot != T->Blob.Chain.size(); ++Slot) {
    if (Slot >= Targets.size() || Targets[Slot] == hvm::NoChainTarget)
      continue;
    if (Translation *Succ = find(Targets[Slot]))
      chainTo(T, Slot, Succ);
    else
      Pending[Targets[Slot]].push_back({T, Slot});
  }
  // Incoming: everything that was waiting for this address links up now.
  auto It = Pending.find(T->Addr);
  if (It == Pending.end())
    return;
  std::vector<std::pair<Translation *, uint32_t>> Waiters =
      std::move(It->second);
  Pending.erase(It);
  for (auto &[From, Slot] : Waiters)
    chainTo(From, Slot, T);
}

void TransTab::unlinkChains(Translation *T) {
  // Incoming edges: null every predecessor slot pointing at T and re-park
  // it, so a retranslation of T->Addr relinks the predecessors eagerly.
  for (Translation *P : T->ChainedFrom) {
    for (uint32_t Slot = 0; Slot != P->Blob.Chain.size(); ++Slot) {
      if (P->Blob.Chain[Slot] == &T->Blob) {
        P->Blob.Chain[Slot] = nullptr;
        ++S.Unchains;
        Pending[T->Addr].push_back({P, Slot});
      }
    }
  }
  T->ChainedFrom.clear();
  // Outgoing edges: drop our back-edges from successors; cancel waiters
  // for slots that never linked.
  const std::vector<uint32_t> &Targets = T->Blob.ChainTargets;
  for (uint32_t Slot = 0; Slot != T->Blob.Chain.size(); ++Slot) {
    if (Translation *Succ = T->succ(Slot)) {
      auto &BF = Succ->ChainedFrom;
      auto It = std::find(BF.begin(), BF.end(), T);
      if (It != BF.end())
        BF.erase(It);
      T->Blob.Chain[Slot] = nullptr;
    } else if (Slot < Targets.size() &&
               Targets[Slot] != hvm::NoChainTarget) {
      removeWaiter(Targets[Slot], T, Slot);
    }
  }
}
