//===-- core/TranslationService.h - Tiered translation service -*- C++ -*-==//
///
/// \file
/// The translation layer extracted from the Core monolith: owns the
/// translation table and the eight-phase pipeline entry points, and puts
/// the persistent translation cache (--tt-cache) and the translation
/// server client (--tt-server) in front of the pipeline. Translation runs
/// synchronously, on the thread that needs the code, at a dispatch
/// boundary (Section 3.7): hot promotions and trace formations stall the
/// guest for the length of one pipeline run.
///
//===----------------------------------------------------------------------===//
#ifndef VG_CORE_TRANSLATIONSERVICE_H
#define VG_CORE_TRANSLATIONSERVICE_H

#include "core/TransCache.h"
#include "core/TransTab.h"
#include "core/Translate.h"
#include "guest/GuestMemory.h"
#include "ir/IROpt.h"
#include "server/TransServerClient.h"

#include <memory>
#include <vector>

namespace vg {

/// Translation-service counters.
struct JitStats {
  double SyncPromoStallSeconds = 0; ///< guest time lost to hot promotion
  // Persistent translation cache (--tt-cache). Every lookup settles into
  // exactly one bucket: CacheHits + CacheMisses + CacheRejects equals the
  // number of lookups, and a hit was *installed* — there is no "hit but
  // not used" state.
  uint64_t CacheHits = 0;    ///< validated entries installed from disk
  uint64_t CacheMisses = 0;  ///< no entry on disk; pipeline ran
  uint64_t CacheRejects = 0; ///< entry malformed/stale/poisoned; pipeline ran
  uint64_t CacheWrites = 0;  ///< translations persisted after install
  double CacheLoadSeconds = 0;  ///< guest time in lookup+validate+install
  double CacheStoreSeconds = 0; ///< guest time serializing write-backs
  // Trace tier (--trace-tier). A stitch that overflows the executor frame
  // counts as a TraceAbort. Traces are never cached, so the cache counters
  // above never move for them.
  uint64_t TraceRequests = 0;  ///< trace formations attempted
  uint64_t TraceInstalled = 0; ///< traces published into the TT
  uint64_t TraceAborts = 0;    ///< spill overflow
  uint64_t TraceDeadFlagPuts = 0; ///< dead CC-thunk writes deleted
  uint64_t TraceProbesCSEd = 0;   ///< shadow probes CSE'd across seams
  // Translation server (--tt-server). The daemon is consulted only after
  // the local cache misses, so ServerHits is a subset of CacheHits and the
  // cache identity above still holds. The server's own identity:
  // ServerRequests == ServerHits + ServerMisses + ServerRejects +
  // ServerFallbacks — every lookup settles into exactly one bucket, and a
  // Fallback (timeout/EOF/malformed/dead daemon) degrades to the local
  // pipeline, never to a stall. Timeouts/Retries also cover write-back
  // PUT traffic; the hit/miss buckets never do.
  uint64_t ServerRequests = 0;  ///< server lookups settled (incl. dead skips)
  uint64_t ServerHits = 0;      ///< fetched, validated, and installed
  uint64_t ServerMisses = 0;    ///< daemon had no entry under the key
  uint64_t ServerRejects = 0;   ///< fetched but failed validation; pipeline ran
  uint64_t ServerTimeouts = 0;  ///< per-request deadlines that fired
  uint64_t ServerRetries = 0;   ///< re-attempts after a failed attempt
  uint64_t ServerFallbacks = 0; ///< lookups that degraded down the ladder
  uint64_t ServerWrites = 0;    ///< translations pushed to the daemon
  uint64_t ServerBytesFetched = 0;
  uint64_t ServerBytesSent = 0;
  double ServerFetchSeconds = 0; ///< guest time in server lookups
  /// Always zero: holds the size of the removed background-JIT counters.
  /// RunReport embeds JitStats, and shrinking it by these 96 bytes moves
  /// glibc's heap layout in perfbench's memcheck-long run so that the
  /// interpreter's 2 MB decode cache no longer fits a freed hole: peak RSS
  /// goes from 7.6 to 9.4 MB with the same live bytes. Remove once that
  /// probe no longer depends on heap layout (ROADMAP item 1).
  uint64_t Reserved[12] = {};
};

/// The hooks the service needs from its host (the Core). Small enough that
/// tests can drive the service with a stub host and no full Core.
class TranslationHost {
public:
  virtual ~TranslationHost();

  /// Fills the pipeline options for translating the block at \p PC,
  /// binding the instrument hook against \p Raw (the Translation under
  /// construction — the SMC prelude embeds its address).
  virtual void setupTranslation(TranslationOptions &TO, uint32_t PC,
                                bool Hot, Translation *Raw) = 0;

  /// Accounting for one installed translation, called right after the
  /// pipeline (or the cache load) that produced it.
  virtual void noteTranslation(uint32_t PC, const Translation &T,
                               double Seconds) = 0;
};

/// The tiered translation service. One instance per Core; owns the
/// TransTab for its whole lifetime.
class TranslationService {
public:
  TranslationService(TranslationHost &Host, GuestMemory &Memory,
                     size_t TTCapacityPow2 = 1u << 14);
  ~TranslationService();

  TranslationService(const TranslationService &) = delete;
  TranslationService &operator=(const TranslationService &) = delete;

  TransTab &transTab() { return TT; }
  const JitStats &jitStats() const { return JS; }

  /// Attaches the persistent translation cache (--tt-cache). Call before
  /// execution starts. Lookups happen in translateSync, write-backs right
  /// after an install.
  void attachCache(std::unique_ptr<TransCache> C) { Cache = std::move(C); }
  TransCache *cache() { return Cache.get(); }
  const TransCache *cache() const { return Cache.get(); }

  /// Attaches the translation-server client (--tt-server). Call before
  /// execution starts. \p ConfigHash is the same fingerprint the cache
  /// uses — with both attached it MUST be the value the cache was built
  /// with, so local files and served images decode under one key space.
  void attachServer(std::unique_ptr<TransServerClient> S,
                    uint64_t ConfigHash) {
    Server = std::move(S);
    ServerCfg = ConfigHash;
  }
  TransServerClient *server() { return Server.get(); }
  const TransServerClient *server() const { return Server.get(); }

  /// Invalidation entry point hosts use instead of raw TT.invalidateRange:
  /// discards the translations AND poisons the cache (or the server-only
  /// poison set) so a redirected/unmapped address can't be re-served this
  /// run, AND notifies the daemon (best-effort, bounded) so it evicts
  /// entries intersecting the range.
  unsigned invalidate(uint32_t Addr, uint32_t Len);

  /// Full-address-space invalidation. A Len parameter cannot express the
  /// whole 4GB guest space in 32 bits, and invalidate(0, 0xFFFFFFFF)
  /// silently missed translations covering the final guest byte — the
  /// fault-injected TT flush used exactly that spelling. Every translation
  /// discarded, the whole cache poisoned.
  void invalidateAll();

  /// The one way into the table, at every tier: translate the block at
  /// \p PC (tier 0; \p Hot = chase branches into a tier-1 superblock; a
  /// \p Trace, whose Entries[0] is \p PC, stitches that hot path into a
  /// tier-2 trace), hash its bytes, account it through the host, and
  /// insert it into the table, replacing any translation of \p PC. With a
  /// cache attached, an eligible PC is first looked up on disk (a
  /// validated hit skips the pipeline entirely) and a fresh translation is
  /// written back after install. A trace never consults or feeds the
  /// cache: it encodes this run's branch bias and chain graph, which no
  /// cache key captures. Returns null only for a trace whose register
  /// allocation overflows the executor frame (the only way a stitch can
  /// fail once the frontend has a path); the tier-1 head stays resident.
  /// A hot request's own time is the guest's promotion stall.
  Translation *translateSync(uint32_t PC, bool Hot,
                             const TraceSpec *Trace = nullptr);

  /// FNV-1a over the live guest bytes of \p Extents, in order: a
  /// translation's CodeHash at install, and what the SMC check and a cache
  /// hit compare against it.
  static uint64_t
  hashLive(GuestMemory &Mem,
           const std::vector<std::pair<uint32_t, uint32_t>> &Extents);

private:
  /// FNV-1a over the first (up to) 64 live guest bytes at \p PC — the
  /// content component of the cache key. Short reads (unmapped tail) just
  /// shorten the window; see TransCache::entryKey for why any window is
  /// correct.
  uint64_t cachePrefixHash(uint32_t PC) const;
  /// On Found+validated: fills \p T's code, extents and hash, accounts
  /// the hit, sets \p Seconds to the load time and returns true. False on
  /// miss/reject (\p T stays as it was, for the pipeline).
  bool loadFromCache(Translation &T, uint64_t Key, uint32_t PC, bool Hot,
                     double &Seconds);
  /// Fetches \p Key from the daemon and decodes it. NotFound on miss or
  /// any transport failure (the ladder's "degrade" rung), Malformed when
  /// the daemon returned bytes that fail validation. On Found, \p Image
  /// keeps the pristine pre-callee-patch file bytes for write-through and
  /// \p FromServer is set so the caller attributes the install (or the
  /// reject — FromServer is set for Malformed too).
  TransCache::LoadResult loadFromServer(uint64_t Key, TransCacheEntry &E,
                                        std::vector<uint8_t> &Image,
                                        bool &FromServer);
  /// The run's semantic-invalidation check: the cache's poison set when a
  /// cache is attached, the service-level set in server-only mode.
  bool poisonedExtents(
      const std::vector<std::pair<uint32_t, uint32_t>> &Extents) const {
    return Cache ? Cache->poisoned(Extents) : ServerPoison.poisoned(Extents);
  }
  /// Serializes an installed translation under \p Key: encoded once, then
  /// published to the local cache (counts CacheWrites) and pushed to the
  /// daemon (counts ServerWrites).
  void writeBackToCache(uint64_t Key, const Translation &T);
  /// Moves the pipeline's code and metadata into \p T and sizes its chain
  /// state. \p TB is taken by value so that its leftovers are freed here,
  /// before the install: the order of heap calls on the benchmark path is
  /// pinned until ROADMAP item 1 lands.
  static void fillTranslation(Translation &T, uint32_t PC,
                              TranslatedBlock TB);
  TranslationHost &Host;
  GuestMemory &Memory;
  TransTab TT;

  /// Persistent translation cache, or null.
  std::unique_ptr<TransCache> Cache;

  /// Translation-server client (--tt-server), or null.
  std::unique_ptr<TransServerClient> Server;
  uint64_t ServerCfg = 0; ///< config fingerprint sent with every request
  /// Same-run poison bookkeeping for server-only mode (--tt-server with no
  /// local --tt-cache): without a TransCache to own the set, redirects and
  /// unmaps must still reject served entries for the rest of the run.
  PoisonSet ServerPoison;

  JitStats JS;
};

} // namespace vg

#endif // VG_CORE_TRANSLATIONSERVICE_H
