//===-- core/TranslationService.cpp - Tiered translation service ----------==//

#include "core/TranslationService.h"

#include "support/Hashing.h"

using namespace vg;

TranslationHost::~TranslationHost() = default;

TranslationService::TranslationService(TranslationHost &Host,
                                       GuestMemory &Memory,
                                       size_t TTCapacityPow2)
    : Host(Host), Memory(Memory), TT(TTCapacityPow2) {}

TranslationService::~TranslationService() = default;

//===----------------------------------------------------------------------===//
// The pipeline
//===----------------------------------------------------------------------===//

void TranslationService::fillTranslation(Translation &T, uint32_t PC,
                                         bool Hot, TranslatedBlock TB) {
  T.Addr = PC;
  // A trace pipeline marks its result through the disassembly metadata;
  // the extents then span every constituent, so invalidateRange poisoning
  // any one of them evicts the whole trace.
  if (!TB.Meta.TraceEntries.empty()) {
    T.Tier = 2;
    T.TraceEntries = TB.Meta.TraceEntries;
  } else {
    T.Tier = Hot ? 1 : 0;
  }
  T.Blob = std::move(TB.Blob);
  T.Extents = TB.Meta.Extents;
  if (T.Extents.empty())
    T.Extents.push_back({PC, PC + 1}); // NoDecode-at-entry blocks
  T.NumInsns = TB.Meta.NumInsns;
  T.Blob.Chain.assign(T.Blob.NumChainSlots, nullptr);
  T.Blob.EdgeExecs.assign(T.Blob.NumChainSlots, 0);
}

uint64_t TranslationService::hashLive(
    GuestMemory &Mem,
    const std::vector<std::pair<uint32_t, uint32_t>> &Extents) {
  uint64_t H = FnvOffsetBasis;
  for (auto [Lo, Hi] : Extents) {
    for (uint32_t A = Lo; A != Hi; ++A) {
      uint8_t B = 0;
      Mem.read(A, &B, 1, /*IgnorePerms=*/true);
      H = hashBytes(&B, 1, H);
    }
  }
  return H;
}

uint64_t TranslationService::cachePrefixHash(uint32_t PC) const {
  uint64_t H = FnvOffsetBasis;
  for (uint32_t I = 0; I != 64; ++I) {
    uint8_t B = 0;
    if (Memory.read(PC + I, &B, 1, /*IgnorePerms=*/true).Faulted)
      break;
    H = hashBytes(&B, 1, H);
  }
  return H;
}

unsigned TranslationService::invalidate(uint32_t Addr, uint32_t Len) {
  if (Cache)
    Cache->poison(Addr, Len);
  else if (Server)
    ServerPoison.poison(Addr, Len);
  if (Server)
    Server->poison(ServerCfg, Addr, Len); // daemon eviction, best-effort
  return TT.invalidateRange(Addr, Len);
}

unsigned TranslationService::invalidateAll() {
  if (Cache)
    Cache->poisonAll();
  else if (Server)
    ServerPoison.poisonAll();
  if (Server)
    Server->poisonAll(ServerCfg); // best-effort
  unsigned N = static_cast<unsigned>(TT.size());
  TT.invalidateAll();
  return N;
}

TransCache::LoadResult
TranslationService::loadFromServer(uint64_t Key, TransCacheEntry &E,
                                   std::vector<uint8_t> &Image,
                                   bool &FromServer) {
  double T0 = steadySeconds();
  ++JS.ServerRequests;
  TransServerClient::CallStats CS;
  TransServerClient::FetchResult FR = Server->get(ServerCfg, Key, Image, &CS);
  JS.ServerRetries += CS.Retries;
  JS.ServerTimeouts += CS.Timeouts;
  JS.ServerFetchSeconds += steadySeconds() - T0;
  switch (FR) {
  case TransServerClient::FetchResult::Failed:
    // Timeout / EOF / malformed frame / dead-latched daemon: the ladder's
    // degrade rung. Indistinguishable from a miss above here — the caller
    // falls through to the inline pipeline, never stalls.
    ++JS.ServerFallbacks;
    return TransCache::LoadResult::NotFound;
  case TransServerClient::FetchResult::Miss:
    ++JS.ServerMisses;
    return TransCache::LoadResult::NotFound;
  case TransServerClient::FetchResult::Hit:
    break;
  }
  FromServer = true;
  JS.ServerBytesFetched += Image.size();
  // The socket adds no trust: the image runs through exactly the decode a
  // local --tt-cache file gets (header, checksum, callee resolution), and
  // the caller still applies the live-hash and poison gauntlet on top.
  return TransCache::decodeEntryFile(Image, ServerCfg, Key, E,
                                     /*ResolveCallees=*/true);
}

Translation *
TranslationService::installFromCache(std::unique_ptr<Translation> &TPtr,
                                     uint64_t Key, uint32_t PC, bool Hot) {
  double T0 = steadySeconds();
  TransCacheEntry E;
  TransCache::LoadResult R = TransCache::LoadResult::NotFound;
  if (Cache)
    R = Cache->load(Key, E);
  // The daemon is strictly behind the local cache: consulted only when no
  // local entry exists at all (a local Malformed entry is a reject, not a
  // licence to try the network).
  bool FromServer = false;
  std::vector<uint8_t> ServerImage;
  if (R == TransCache::LoadResult::NotFound && Server)
    R = loadFromServer(Key, E, ServerImage, FromServer);
  if (R == TransCache::LoadResult::NotFound) {
    ++JS.CacheMisses;
    JS.CacheLoadSeconds += steadySeconds() - T0;
    return nullptr;
  }
  // Found entries still run a gauntlet before install: the live guest
  // bytes must hash to what the entry was translated from,
  // and no same-run invalidation (redirect/unmap/flush) may have poisoned
  // the range. Anything else is a reject — fall through to the pipeline.
  if (R == TransCache::LoadResult::Malformed || E.Addr != PC ||
      E.Tier != (Hot ? 1 : 0) || E.Extents.empty() ||
      hashLive(Memory, E.Extents) != E.CodeHash ||
      poisonedExtents(E.Extents)) {
    ++JS.CacheRejects;
    if (FromServer)
      ++JS.ServerRejects;
    JS.CacheLoadSeconds += steadySeconds() - T0;
    return nullptr;
  }
  if (FromServer) {
    ++JS.ServerHits;
    // Write-through AFTER the full gauntlet passed, using the pristine
    // file image (decode patches callee indexes to live pointers in its
    // own copy; the image on disk must keep the indexes).
    if (Cache)
      Cache->storeFile(Key, ServerImage);
  }

  Translation *Raw = TPtr.get();
  Raw->Addr = PC;
  Raw->Tier = Hot ? 1 : 0;
  Raw->Extents = std::move(E.Extents);
  Raw->CodeHash = E.CodeHash;
  Raw->NumInsns = E.NumInsns;
  Raw->Blob.Bytes = std::move(E.Bytes);
  Raw->Blob.NumSpillSlots = E.NumSpillSlots;
  Raw->Blob.NumChainSlots = E.NumChainSlots;
  Raw->Blob.ChainTargets = std::move(E.ChainTargets);
  Raw->Blob.Chain.assign(Raw->Blob.NumChainSlots, nullptr);
  Raw->Blob.EdgeExecs.assign(Raw->Blob.NumChainSlots, 0);

  ++JS.CacheHits;
  double Seconds = steadySeconds() - T0;
  JS.CacheLoadSeconds += Seconds;
  Host.noteTranslation(PC, *Raw, Seconds);
  return TT.insert(std::move(TPtr));
}

void TranslationService::writeBackToCache(uint64_t Key, const Translation &T) {
  double T0 = steadySeconds();
  TransCacheEntry E;
  E.Addr = T.Addr;
  E.Tier = T.Tier;
  E.NumInsns = T.NumInsns;
  E.CodeHash = T.CodeHash;
  E.Extents = T.Extents;
  E.NumSpillSlots = T.Blob.NumSpillSlots;
  E.NumChainSlots = T.Blob.NumChainSlots;
  E.ChainTargets = T.Blob.ChainTargets;
  E.Bytes = T.Blob.Bytes;
  // One encode feeds both sinks: the local cache file and the daemon PUT
  // carry byte-identical images, so a future client fetching this entry
  // re-validates exactly what a local warm run would read.
  uint64_t CH = Cache ? Cache->configHashValue() : ServerCfg;
  std::vector<uint8_t> File;
  if (!TransCache::encodeEntryFile(CH, Key, E, File)) {
    if (Cache)
      Cache->noteWriteFailure();
    JS.CacheStoreSeconds += steadySeconds() - T0;
    return;
  }
  if (Cache && Cache->storeFile(Key, File))
    ++JS.CacheWrites;
  if (Server) {
    TransServerClient::CallStats CS;
    bool Ok = Server->put(ServerCfg, Key, File, &CS);
    JS.ServerRetries += CS.Retries;
    JS.ServerTimeouts += CS.Timeouts;
    if (Ok) {
      ++JS.ServerWrites;
      JS.ServerBytesSent += File.size();
    }
  }
  JS.CacheStoreSeconds += steadySeconds() - T0;
}

Translation *TranslationService::translateSync(uint32_t PC, bool Hot) {
  auto TPtr = std::make_unique<Translation>();
  Translation *Raw = TPtr.get();

  TranslationOptions TO;
  Host.setupTranslation(TO, PC, Hot, Raw);

  // The persistent cache sits in front of the pipeline. Eligibility
  // (Raw->Cacheable) was just decided by setupTranslation, so
  // position-dependent blobs (SMC prelude) never consult the disk.
  uint64_t Key = 0;
  bool UseCache = (Cache || Server) && Raw->Cacheable;
  if (UseCache) {
    Key = TransCache::entryKey(PC, Hot, cachePrefixHash(PC));
    if (Translation *T = installFromCache(TPtr, Key, PC, Hot))
      return T;
  }

  FetchFn Fetch = [this](uint32_t Addr, uint8_t *Buf,
                         uint32_t MaxLen) -> uint32_t {
    uint32_t N = 0;
    while (N < MaxLen && !Memory.fetch(Addr + N, Buf + N, 1).Faulted)
      ++N;
    return N;
  };

  // Timed unconditionally (not just under --profile): CoreStats carries
  // the total so the warm-start bench can compare pipeline time against
  // cache-load time. Two clock reads per translation is noise next to the
  // eight-phase pipeline they bracket.
  double T0 = steadySeconds();
  TranslatedBlock TB = translateBlock(PC, Fetch, TO);
  fillTranslation(*Raw, PC, Hot, std::move(TB));
  Raw->CodeHash = hashLive(Memory, Raw->Extents);
  Host.noteTranslation(PC, *Raw, steadySeconds() - T0);
  Translation *Res = TT.insert(std::move(TPtr));
  if (UseCache && !poisonedExtents(Res->Extents))
    writeBackToCache(Key, *Res);
  return Res;
}

Translation *TranslationService::translateTrace(const TraceSpec &Spec) {
  auto TPtr = std::make_unique<Translation>();
  Translation *Raw = TPtr.get();
  uint32_t PC = Spec.Entries.at(0);

  TranslationOptions TO;
  // The spec must be pinned before setupTranslation: the host scales the
  // frontend limits off it, forces Cacheable off, and binds the seam list
  // into the instrument hook (per-seam SMC checks).
  TO.Trace = Spec;
  ir::TraceOptStats TS;
  TO.TraceStats = &TS;
  Host.setupTranslation(TO, PC, /*Hot=*/true, Raw);
  ++JS.TraceRequests;

  FetchFn Fetch = [this](uint32_t Addr, uint8_t *Buf,
                         uint32_t MaxLen) -> uint32_t {
    uint32_t N = 0;
    while (N < MaxLen && !Memory.fetch(Addr + N, Buf + N, 1).Faulted)
      ++N;
    return N;
  };

  double T0 = steadySeconds();
  TranslatedBlock TB = translateBlock(PC, Fetch, TO);
  if (TB.SpillOverflow) {
    ++JS.TraceAborts;
    return nullptr; // keep running the constituent tier-1 blocks
  }
  fillTranslation(*Raw, PC, /*Hot=*/true, std::move(TB));
  Raw->CodeHash = hashLive(Memory, Raw->Extents);
  Host.noteTranslation(PC, *Raw, steadySeconds() - T0);
  JS.TraceDeadFlagPuts += TS.DeadFlagPuts;
  JS.TraceProbesCSEd += TS.ProbesCSEd;
  uint64_t GenBefore = TT.generation();
  Translation *Res = TT.insert(std::move(TPtr));
  ++JS.TraceInstalled;
  Host.promotionInstalled(Res, GenBefore);
  return Res;
}
