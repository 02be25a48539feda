//===-- core/TransCache.cpp - Persistent translation cache ----------------==//

#include "core/TransCache.h"

#include "guest/GuestArch.h"
#include "hvm/Exec.h"
#include "ir/IR.h"
#include "support/Hashing.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>

#include <unistd.h>

using namespace vg;

namespace fs = std::filesystem;

namespace {

constexpr char Magic[4] = {'V', 'G', 'T', 'C'};
constexpr size_t HeaderSize = 4 + 4 + 8 + 8 + 4 + 8;

void putU32(std::vector<uint8_t> &B, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    B.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void putU64(std::vector<uint8_t> &B, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    B.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

/// Bounds-checked little-endian reader; any overrun marks the cursor bad
/// and every subsequent read returns 0, so parse code can check Ok once.
struct Cursor {
  const uint8_t *P;
  size_t N, Off = 0;
  bool Ok = true;

  bool take(size_t K) {
    if (!Ok || K > N - Off) {
      Ok = false;
      return false;
    }
    return true;
  }
  uint8_t u8() {
    if (!take(1))
      return 0;
    return P[Off++];
  }
  uint32_t u32() {
    if (!take(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(P[Off + I]) << (8 * I);
    Off += 4;
    return V;
  }
  uint64_t u64() {
    if (!take(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(P[Off + I]) << (8 * I);
    Off += 8;
    return V;
  }
};

uint64_t readFieldU64(const uint8_t *P) {
  uint64_t V = 0;
  for (int I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(P[I]) << (8 * I);
  return V;
}

void writeFieldU64(uint8_t *P, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    P[I] = static_cast<uint8_t>(V >> (8 * I));
}

std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

bool readWholeFile(const std::string &Path, std::vector<uint8_t> &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  std::fseek(F, 0, SEEK_END);
  long Sz = std::ftell(F);
  std::fseek(F, 0, SEEK_SET);
  if (Sz < 0 || Sz > (64l << 20)) { // an entry is never remotely this big
    std::fclose(F);
    return false;
  }
  Out.resize(static_cast<size_t>(Sz));
  size_t Got = Sz ? std::fread(Out.data(), 1, Out.size(), F) : 0;
  std::fclose(F);
  return Got == Out.size();
}

} // namespace

TransCache::TransCache(std::string DirIn, uint64_t MaxBytesIn,
                       uint64_t ConfigHashIn)
    : Dir(std::move(DirIn)), MaxBytes(MaxBytesIn), ConfigHash(ConfigHashIn) {
  std::error_code EC;
  fs::create_directories(Dir, EC);
  for (const auto &DE : fs::directory_iterator(Dir, EC)) {
    if (!DE.is_regular_file(EC) || DE.path().extension() != ".vgtc")
      continue;
    TotalBytes += static_cast<uint64_t>(DE.file_size(EC));
  }
}

uint64_t TransCache::entryKey(uint32_t PC, bool Hot, uint64_t PrefixHash) {
  uint8_t Seed[13];
  for (int I = 0; I != 4; ++I)
    Seed[I] = static_cast<uint8_t>(PC >> (8 * I));
  Seed[4] = Hot ? 1 : 0;
  for (int I = 0; I != 8; ++I)
    Seed[5 + I] = static_cast<uint8_t>(PrefixHash >> (8 * I));
  return hashBytes(Seed, sizeof(Seed));
}

uint64_t TransCache::configHash(
    const std::string &ToolId,
    const std::vector<std::pair<std::string, std::string>> &Options) {
  uint64_t H =
      hashBytes(reinterpret_cast<const uint8_t *>(&TransCacheFormatVersion),
                sizeof(TransCacheFormatVersion));
  H = hashBytes(reinterpret_cast<const uint8_t *>(ToolId.data()),
                ToolId.size(), H);
  for (const auto &[Name, Value] : Options) {
    std::string Item = Name + "=" + Value + "\n";
    H = hashBytes(reinterpret_cast<const uint8_t *>(Item.data()), Item.size(),
                  H);
  }
  return H;
}

std::string TransCache::entryFileName(uint64_t ConfigHash, uint64_t Key) {
  return hex16(ConfigHash) + "-" + hex16(Key) + ".vgtc";
}

std::string TransCache::entryPath(uint64_t Key) const {
  return Dir + "/" + entryFileName(ConfigHash, Key);
}

TransCache::LoadResult TransCache::load(uint64_t Key, TransCacheEntry &Out) {
  std::vector<uint8_t> File;
  if (!readWholeFile(entryPath(Key), File))
    return LoadResult::NotFound;
  return decodeEntryFile(File, ConfigHash, Key, Out, /*ResolveCallees=*/true);
}

TransCache::LoadResult
TransCache::decodeEntryFile(const std::vector<uint8_t> &File,
                            uint64_t ConfigHash, uint64_t Key,
                            TransCacheEntry &Out, bool ResolveCallees) {
  // A zero-length file is what an interrupted writer or an aggressive
  // truncation leaves behind. It must settle as Malformed (a reject) —
  // an entry that exists but carries no translation can never be a hit
  // candidate. Pinned by TransCacheTests.ZeroLengthEntryIsMalformed.
  if (File.empty() || File.size() < HeaderSize)
    return LoadResult::Malformed;
  Cursor H{File.data(), HeaderSize};
  uint8_t M[4] = {H.u8(), H.u8(), H.u8(), H.u8()};
  if (std::memcmp(M, Magic, 4) != 0 || H.u32() != TransCacheFormatVersion ||
      H.u64() != ConfigHash || H.u64() != Key)
    return LoadResult::Malformed;
  uint32_t PayloadLen = H.u32();
  uint64_t Checksum = H.u64();
  if (!H.Ok || File.size() != HeaderSize + PayloadLen)
    return LoadResult::Malformed;
  const uint8_t *Payload = File.data() + HeaderSize;
  if (hashBytes(Payload, PayloadLen) != Checksum)
    return LoadResult::Malformed;

  Cursor C{Payload, PayloadLen};
  TransCacheEntry E;
  E.Addr = C.u32();
  E.Tier = C.u8();
  E.NumInsns = C.u32();
  E.CodeHash = C.u64();
  E.NumSpillSlots = C.u32();
  E.NumChainSlots = C.u32();
  uint32_t NExtents = C.u32();
  for (uint32_t I = 0; I != NExtents && C.Ok; ++I) {
    uint32_t Lo = C.u32(), Hi = C.u32();
    E.Extents.push_back({Lo, Hi});
  }
  uint32_t NTargets = C.u32();
  for (uint32_t I = 0; I != NTargets && C.Ok; ++I)
    E.ChainTargets.push_back(C.u32());
  std::vector<std::string> Names;
  uint32_t NNames = C.u32();
  for (uint32_t I = 0; I != NNames && C.Ok; ++I) {
    uint32_t Len = C.u32();
    if (!C.take(Len))
      break;
    Names.emplace_back(reinterpret_cast<const char *>(C.P + C.Off), Len);
    C.Off += Len;
  }
  uint32_t NBytes = C.u32();
  if (C.take(NBytes)) {
    E.Bytes.assign(C.P + C.Off, C.P + C.Off + NBytes);
    C.Off += NBytes;
  }
  if (!C.Ok || C.Off != C.N || E.ChainTargets.size() != E.NumChainSlots)
    return LoadResult::Malformed;

  // Re-walk the blob with the same decoder encodeEntryFile() used, so a
  // stored entry whose bytes do not decode, whose operands would take the
  // executor outside the guest state, the spill frame or the blob, or
  // that somehow smuggled an unpatched field, can never reach the
  // executor. The structural walk, the operand check and the index bounds
  // checks always run; only the name -> live pointer patch is skipped for
  // out-of-process validators (the server daemon, where this process's
  // Callee addresses mean nothing).
  if (E.NumSpillSlots > hvm::Executor::MaxSpillSlots ||
      !hvm::checkOperands(E.Bytes, vg1::gso::TotalSize, E.NumSpillSlots))
    return LoadResult::Malformed;
  std::vector<uint32_t> Slots;
  if (!hvm::findCalleeSlots(E.Bytes, Slots))
    return LoadResult::Malformed;
  for (uint32_t Off : Slots) {
    uint64_t Idx = readFieldU64(E.Bytes.data() + Off);
    if (Idx >= Names.size())
      return LoadResult::Malformed;
    if (!ResolveCallees)
      continue;
    const ir::Callee *Callee = ir::findCalleeByName(Names[Idx]);
    if (!Callee)
      return LoadResult::Malformed; // helper unknown to this process
    writeFieldU64(E.Bytes.data() + Off,
                  static_cast<uint64_t>(reinterpret_cast<uintptr_t>(Callee)));
  }

  Out = std::move(E);
  return LoadResult::Found;
}

bool TransCache::encodeEntryFile(uint64_t ConfigHash, uint64_t Key,
                                 const TransCacheEntry &E,
                                 std::vector<uint8_t> &File) {
  // Make the blob position-independent: every CALL's pointer field becomes
  // an index into the serialized name table.
  std::vector<uint32_t> Slots;
  if (!hvm::findCalleeSlots(E.Bytes, Slots))
    return false;
  std::vector<uint8_t> Bytes = E.Bytes;
  std::vector<std::string> Names;
  std::map<uint64_t, uint64_t> NameIdx; // pointer bits -> table index
  for (uint32_t Off : Slots) {
    uint64_t Ptr = readFieldU64(Bytes.data() + Off);
    auto It = NameIdx.find(Ptr);
    if (It == NameIdx.end()) {
      const char *Name = ir::registeredCalleeName(
          reinterpret_cast<const ir::Callee *>(static_cast<uintptr_t>(Ptr)));
      if (!Name)
        return false; // anonymous helper: entry cannot leave the process
      It = NameIdx.emplace(Ptr, Names.size()).first;
      Names.push_back(Name);
    }
    writeFieldU64(Bytes.data() + Off, It->second);
  }

  std::vector<uint8_t> Payload;
  putU32(Payload, E.Addr);
  Payload.push_back(E.Tier);
  putU32(Payload, E.NumInsns);
  putU64(Payload, E.CodeHash);
  putU32(Payload, E.NumSpillSlots);
  putU32(Payload, E.NumChainSlots);
  putU32(Payload, static_cast<uint32_t>(E.Extents.size()));
  for (auto [Lo, Hi] : E.Extents) {
    putU32(Payload, Lo);
    putU32(Payload, Hi);
  }
  putU32(Payload, static_cast<uint32_t>(E.ChainTargets.size()));
  for (uint32_t T : E.ChainTargets)
    putU32(Payload, T);
  putU32(Payload, static_cast<uint32_t>(Names.size()));
  for (const std::string &N : Names) {
    putU32(Payload, static_cast<uint32_t>(N.size()));
    Payload.insert(Payload.end(), N.begin(), N.end());
  }
  putU32(Payload, static_cast<uint32_t>(Bytes.size()));
  Payload.insert(Payload.end(), Bytes.begin(), Bytes.end());

  File.clear();
  File.reserve(HeaderSize + Payload.size());
  File.insert(File.end(), Magic, Magic + 4);
  putU32(File, TransCacheFormatVersion);
  putU64(File, ConfigHash);
  putU64(File, Key);
  putU32(File, static_cast<uint32_t>(Payload.size()));
  putU64(File, hashBytes(Payload.data(), Payload.size()));
  File.insert(File.end(), Payload.begin(), Payload.end());
  return true;
}

bool TransCache::storeFile(uint64_t Key, const std::vector<uint8_t> &File) {
  std::string Path = entryPath(Key);
  std::error_code EC;
  uint64_t OldSize = static_cast<uint64_t>(fs::file_size(Path, EC));
  if (EC)
    OldSize = 0;
  if (MaxBytes)
    evictToFit(File.size() > OldSize ? File.size() - OldSize : 0);

  // Atomic publication: a crash mid-write leaves only a temp file the next
  // construction ignores (wrong extension), never a torn entry. The temp
  // name carries pid + a process-wide counter: two writers racing on the
  // same key (two processes warming one directory, or two threads with
  // separate TransCache instances) must each stage into a private file —
  // a shared temp name would interleave their writes and rename(2) could
  // then publish the torn mix under the valid name. Pinned by
  // TransCacheTests.TwoWritersSameKeyNeverTearAnEntry.
  static std::atomic<uint64_t> TmpCounter{0};
  std::string Tmp = Path + "." + std::to_string(getpid()) + "-" +
                    std::to_string(TmpCounter.fetch_add(1)) + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F) {
    ++WriteFailures;
    return false;
  }
  size_t Put = std::fwrite(File.data(), 1, File.size(), F);
  bool Flushed = std::fclose(F) == 0 && Put == File.size();
  if (!Flushed) {
    fs::remove(Tmp, EC);
    ++WriteFailures;
    return false;
  }
  fs::rename(Tmp, Path, EC);
  if (EC) {
    fs::remove(Tmp, EC);
    ++WriteFailures;
    return false;
  }
  TotalBytes += File.size();
  TotalBytes -= std::min<uint64_t>(TotalBytes, OldSize);
  return true;
}

void TransCache::evictToFit(uint64_t NeedBytes) {
  if (TotalBytes + NeedBytes <= MaxBytes)
    return;
  // Oldest-first by mtime; rarely taken, so the directory scan is fine.
  struct Victim {
    fs::file_time_type When;
    uint64_t Size;
    fs::path Path;
  };
  std::vector<Victim> Vs;
  std::error_code EC;
  for (const auto &DE : fs::directory_iterator(Dir, EC)) {
    if (!DE.is_regular_file(EC) || DE.path().extension() != ".vgtc")
      continue;
    Vs.push_back({DE.last_write_time(EC), static_cast<uint64_t>(DE.file_size(EC)),
                  DE.path()});
  }
  std::sort(Vs.begin(), Vs.end(),
            [](const Victim &A, const Victim &B) { return A.When < B.When; });
  for (const Victim &V : Vs) {
    if (TotalBytes + NeedBytes <= MaxBytes)
      break;
    if (fs::remove(V.Path, EC)) {
      TotalBytes -= std::min(TotalBytes, V.Size);
      ++EvictedFiles;
    }
  }
}

void PoisonSet::poison(uint32_t Addr, uint32_t Len) {
  if (Len == 0)
    return;
  // 64-bit exclusive end: Addr + Len may legitimately equal 2^32 (a range
  // ending at the top of the guest space), which must cover the final
  // byte 0xFFFFFFFF rather than being clipped or wrapping.
  uint64_t Hi = std::min<uint64_t>(static_cast<uint64_t>(Addr) + Len,
                                   0x100000000ull);
  Ranges.push_back({Addr, Hi});
}

bool PoisonSet::poisoned(
    const std::vector<std::pair<uint32_t, uint32_t>> &Extents) const {
  if (All)
    return !Extents.empty();
  for (auto [Lo, Hi] : Extents)
    for (auto [PLo, PHi] : Ranges)
      if (Lo < PHi && PLo < Hi)
        return true;
  return false;
}

void TransCache::poison(uint32_t Addr, uint32_t Len) {
  Poison.poison(Addr, Len);
}

void TransCache::poisonAll() { Poison.poisonAll(); }

bool TransCache::poisoned(
    const std::vector<std::pair<uint32_t, uint32_t>> &Extents) const {
  return Poison.poisoned(Extents);
}
