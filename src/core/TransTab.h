//===-- core/TransTab.h - Translation storage (Section 3.8) -----*- C++ -*-==//
///
/// \file
/// Stores translations in a fixed-size, linear-probe hash table. When the
/// table passes 80% occupancy, translations are evicted in chunks of 1/8th
/// of the table using a FIFO policy — "chosen over the more obvious LRU
/// policy because it is simpler and still does a fairly good job".
/// Translations are also evicted when client code is unloaded (munmap) or
/// made obsolete by self-modifying code (Section 3.16), via
/// invalidateRange().
///
/// The table also owns the translation chain graph (Section 3.9): every
/// filled chain slot (a constant Boring exit patched to jump straight into
/// its successor) is recorded as a back-edge on the successor, so evicting
/// a translation unlinks its predecessors in O(degree) rather than by
/// scanning the whole table. Slots whose successor does not exist yet are
/// parked in a pending-waiter map and filled eagerly the moment the
/// successor is inserted — including re-insertion after SMC invalidation or
/// hot-tier retranslation — so every chainable slot is linked while both
/// ends are resident; the dispatcher never links one.
///
//===----------------------------------------------------------------------===//
#ifndef VG_CORE_TRANSTAB_H
#define VG_CORE_TRANSTAB_H

#include "hvm/Exec.h"

#include <functional>
#include <map>
#include <memory>
#include <vector>

namespace vg {

/// One stored translation. Its chain state (successor slots, per-slot
/// EdgeExecs, the entry count ExecCount that drives hot-tier promotion,
/// and the check point) lives in the blob, where the executor keeps it.
struct Translation {
  uint32_t Addr = 0;     ///< guest entry address
  uint32_t NumInsns = 0;
  /// Encoded host code (Blob.Cookie == this). Its chain slots are filled
  /// eagerly by TransTab when the successor exists; otherwise parked as a
  /// pending waiter and filled on the successor's insertion.
  hvm::CodeBlob Blob;
  /// Guest ranges the translation was made from (for invalidation and SMC
  /// hashing; more than one when branches were chased).
  std::vector<std::pair<uint32_t, uint32_t>> Extents;
  uint64_t CodeHash = 0; ///< FNV-1a over the original guest bytes
  uint64_t Seq = 0; ///< insertion order (FIFO eviction key)
  /// 0 = baseline block, 1 = hot superblock (branch-chasing
  /// retranslation), 2 = trace (stitched hot path over several former
  /// superblocks; Extents then cover every constituent, so SMC or
  /// invalidateRange poisoning any one of them evicts the whole trace).
  uint8_t Tier = 0;
  /// Tier 2 only: constituent entry PCs in path order (TraceEntries[0] ==
  /// Addr). Empty below tier 2.
  std::vector<uint32_t> TraceEntries;
  /// Tier 1 only: do not re-attempt trace formation until ExecCount
  /// reaches this (backoff after an unbiased chain graph or a failed
  /// stitch). 0 = eligible immediately once over the trace threshold.
  uint64_t TraceRetryAt = 0;
  /// The blob is position-independent (no SMC-check prelude, which embeds
  /// this Translation's own address as an immediate), so it may be served
  /// from or written to the persistent translation cache. Decided by the
  /// host in setupTranslation; false is always the safe default.
  bool Cacheable = false;
  /// Entering this address must go through the dispatcher, which runs the
  /// redirect registered there (RedirectEngine::isRedirected): the table
  /// never links an exit into this translation. Set by the host in
  /// setupTranslation; the translation itself exists only because a
  /// wrapper's one-shot bypass dispatched the original.
  bool NoChainIn = false;
  /// Back-edges: one entry per filled chain slot pointing at this
  /// translation (duplicates allowed when a predecessor has several slots
  /// targeting us). Maintained by TransTab; makes unchaining O(degree).
  std::vector<Translation *> ChainedFrom;

  /// Frees ChainedFrom and the blob's EdgeExecs and Chain before the other
  /// members, the order in which they went when those two vectors were
  /// this struct's last members: until ROADMAP item 1 lifts the allocation
  /// freeze, a translation must make exactly the heap calls it made then.
  ~Translation() {
    std::vector<Translation *>().swap(ChainedFrom);
    std::vector<uint64_t>().swap(Blob.EdgeExecs);
    std::vector<hvm::CodeBlob *>().swap(Blob.Chain);
  }

  /// The translation chained through \p Slot, or null while it is unfilled.
  Translation *succ(uint32_t Slot) const {
    const hvm::CodeBlob *B = Blob.Chain[Slot];
    return B ? static_cast<Translation *>(B->Cookie) : nullptr;
  }
};

/// The fixed-size, linear-probe translation table.
class TransTab {
public:
  explicit TransTab(size_t CapacityPow2 = 1u << 14);

  Translation *lookup(uint32_t Addr);

  /// Stats-free lookup (internal plumbing and eager chain resolution; does
  /// not perturb the Lookups/Hits counters the benches report).
  Translation *find(uint32_t Addr) const;

  /// Takes ownership; may trigger a FIFO eviction run first. Returns the
  /// stored translation. Re-inserting an address replaces (and properly
  /// unchains) the previous translation. Outgoing chain slots are linked
  /// eagerly against resident translations, and any waiters parked on this
  /// address are linked to the new translation.
  Translation *insert(std::unique_ptr<Translation> T);

  /// Discards translations whose extents intersect [Addr, Addr+Len).
  /// Returns how many were discarded.
  unsigned invalidateRange(uint32_t Addr, uint32_t Len);

  void invalidateAll();

  /// The dispatcher's fast cache resolved a block without consulting the
  /// table; fold the hit into the same statistics view so reported hit
  /// rates are honest.
  void countFastHit() {
    ++S.Lookups;
    ++S.Hits;
    ++S.FastHits;
  }

  size_t size() const { return Count; }
  size_t capacity() const { return Slots.size(); }

  /// Visits every resident translation, insertion-order agnostic. The
  /// visitor must not mutate the table.
  void forEach(const std::function<void(const Translation &)> &Fn) const {
    for (const Slot &S : Slots)
      if (S.St == Slot::State::Full)
        Fn(*S.T);
  }

  // Statistics for bench/sec39_dispatch.
  struct Stats {
    uint64_t Inserts = 0;
    uint64_t Lookups = 0;  ///< includes fast-cache hits (see countFastHit)
    uint64_t Hits = 0;     ///< includes fast-cache hits
    uint64_t FastHits = 0; ///< the fast-cache share of Hits
    uint64_t EvictionRuns = 0;
    uint64_t Evicted = 0;
    uint64_t Invalidated = 0;
    uint64_t ChainsFilled = 0; ///< chain slots linked
    uint64_t Unchains = 0;     ///< chain slots nulled by eviction
  };
  const Stats &stats() const { return S; }

  /// Generation counter bumped on any eviction/invalidation so the
  /// dispatcher's fast cache can drop stale pointers.
  uint64_t generation() const { return Gen; }

private:
  struct Slot {
    enum class State : uint8_t { Empty, Full, Tomb };
    State St = State::Empty;
    std::unique_ptr<Translation> T;
  };

  /// No usable slot: the probe wrapped a table with no empty and no tomb.
  /// (The seed returned slot 0 here, letting insert() silently destroy an
  /// unrelated address's translation.)
  static constexpr size_t NoSlot = SIZE_MAX;

  size_t probeFor(uint32_t Addr) const;
  void evictChunk();
  void eraseSlot(size_t Idx);
  /// Rebuilds the table in place after an eviction run, turning tombs back
  /// into empties (tombs otherwise accumulate forever and drive every
  /// missed probe to a full-table scan). Translation pointers are stable.
  void rehash();
  /// Fills one chain slot. Records the back-edge and removes any pending
  /// waiter for the slot. No-op if the slot is out of range, already
  /// chained to \p To, or \p To is marked NoChainIn (a chained jump would
  /// skip its redirect).
  void chainTo(Translation *From, uint32_t Slot, Translation *To);
  /// Links \p T's outgoing slots against resident successors (or parks
  /// waiters) and resolves waiters parked on T->Addr.
  void linkChains(Translation *T);
  /// Severs every chain edge touching \p T: predecessors' slots are nulled
  /// and re-parked as waiters on T->Addr; successors drop their back-edges;
  /// T's own unfilled waiters are cancelled. O(degree of T).
  void unlinkChains(Translation *T);
  void removeWaiter(uint32_t Target, const Translation *From, uint32_t Slot);

  std::vector<Slot> Slots;
  size_t Count = 0;
  uint64_t NextSeq = 0;
  uint64_t Gen = 0;
  /// target guest address -> (translation, slot) pairs waiting for a
  /// translation of that address to appear.
  std::map<uint32_t, std::vector<std::pair<Translation *, uint32_t>>> Pending;
  Stats S;
};

} // namespace vg

#endif // VG_CORE_TRANSTAB_H
