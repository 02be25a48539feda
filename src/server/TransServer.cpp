//===-- server/TransServer.cpp - The vgserve daemon core ------------------==//

#include "server/TransServer.h"

#include "core/TransCache.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace vg;
using namespace vg::srv;

namespace fs = std::filesystem;

namespace {

bool readWholeFile(const std::string &Path, std::vector<uint8_t> &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  std::fseek(F, 0, SEEK_END);
  long Sz = std::ftell(F);
  std::fseek(F, 0, SEEK_SET);
  if (Sz < 0 || Sz > (64l << 20)) {
    std::fclose(F);
    return false;
  }
  Out.resize(static_cast<size_t>(Sz));
  size_t Got = Sz ? std::fread(Out.data(), 1, Out.size(), F) : 0;
  std::fclose(F);
  return Got == Out.size();
}

bool writeFileAtomic(const std::string &Path, const uint8_t *Data,
                     size_t Len) {
  // Unique temp name: concurrent PUTs of the same key must each stage
  // privately (same rationale as TransCache::storeFile).
  static std::atomic<uint64_t> Counter{0};
  std::string Tmp = Path + "." + std::to_string(getpid()) + "-" +
                    std::to_string(Counter.fetch_add(1)) + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return false;
  size_t Put = Len ? std::fwrite(Data, 1, Len, F) : 0;
  bool Ok = std::fclose(F) == 0 && Put == Len;
  std::error_code EC;
  if (!Ok) {
    fs::remove(Tmp, EC);
    return false;
  }
  fs::rename(Tmp, Path, EC);
  if (EC) {
    fs::remove(Tmp, EC);
    return false;
  }
  return true;
}

/// Parses "hex16-hex16" from an entry filename stem; false on anything
/// that is not exactly a TransCache entry name.
bool parseEntryStem(const std::string &Stem, uint64_t &Cfg, uint64_t &Key) {
  if (Stem.size() != 33 || Stem[16] != '-')
    return false;
  auto hex = [](const std::string &S, uint64_t &V) {
    V = 0;
    for (char C : S) {
      V <<= 4;
      if (C >= '0' && C <= '9')
        V |= static_cast<uint64_t>(C - '0');
      else if (C >= 'a' && C <= 'f')
        V |= static_cast<uint64_t>(C - 'a' + 10);
      else
        return false;
    }
    return true;
  };
  return hex(Stem.substr(0, 16), Cfg) && hex(Stem.substr(17), Key);
}

} // namespace

TransServer::~TransServer() { stop(); }

void TransServer::scanDir() {
  std::error_code EC;
  fs::create_directories(O.Dir, EC);
  for (const auto &DE : fs::directory_iterator(O.Dir, EC)) {
    if (!DE.is_regular_file(EC) || DE.path().extension() != ".vgtc")
      continue;
    uint64_t Cfg = 0, Key = 0;
    if (!parseEntryStem(DE.path().stem().string(), Cfg, Key))
      continue;
    std::vector<uint8_t> Image;
    if (!readWholeFile(DE.path().string(), Image))
      continue;
    // Only entries that survive the full structural walk are served. A
    // malformed file (torn by a crashed writer, bit-rotted, truncated)
    // is left on disk but never indexed — a GET for it is a Miss, so a
    // client can never be handed bytes the daemon already knows are bad.
    TransCacheEntry E;
    if (TransCache::decodeEntryFile(Image, Cfg, Key, E,
                                    /*ResolveCallees=*/false) !=
        TransCache::LoadResult::Found)
      continue;
    Entry &Ent = Index[{Cfg, Key}];
    Ent.Path = DE.path().string();
    Ent.Size = Image.size();
    Ent.Extents = std::move(E.Extents);
    TotalBytes += Ent.Size;
  }
}

bool TransServer::start(std::string &Err) {
  if (Running) {
    Err = "already running";
    return false;
  }
  StopFlag = false;
  scanDir();
  ListenFd = listenUnix(O.SocketPath, 64);
  if (ListenFd < 0) {
    Err = "cannot bind/listen on '" + O.SocketPath + "'";
    return false;
  }
  if (pipe2(WakeFds, O_CLOEXEC) < 0) {
    close(ListenFd);
    ListenFd = -1;
    Err = "cannot create the acceptor's wake pipe";
    return false;
  }
  Running = true;
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void TransServer::stop() {
  if (!Running)
    return;
  StopFlag = true;
  // Wake the acceptor's poll now rather than at its next timeout.
  char Wake = 0;
  [[maybe_unused]] ssize_t N = write(WakeFds[1], &Wake, 1);
  if (Acceptor.joinable())
    Acceptor.join();
  close(WakeFds[0]);
  close(WakeFds[1]);
  WakeFds[0] = WakeFds[1] = -1;
  // The acceptor closed the listen socket on its way out; now every
  // connection thread notices StopFlag at its next idle slice.
  std::map<uint64_t, std::thread> ToJoin;
  {
    std::lock_guard<std::mutex> L(Mu);
    ToJoin.swap(Conns);
    FinishedConns.clear();
  }
  for (auto &[Id, T] : ToJoin)
    if (T.joinable())
      T.join();
  unlink(O.SocketPath.c_str());
  Running = false;
}

uint64_t TransServer::indexedEntries() const {
  std::lock_guard<std::mutex> L(Mu);
  return Index.size();
}

uint64_t TransServer::totalBytes() const {
  std::lock_guard<std::mutex> L(Mu);
  return TotalBytes;
}

TransServer::Stats TransServer::stats() const {
  Stats S;
  S.Connections = St.Connections.load(std::memory_order_relaxed);
  S.Requests = St.Requests.load(std::memory_order_relaxed);
  S.Hits = St.Hits.load(std::memory_order_relaxed);
  S.Misses = St.Misses.load(std::memory_order_relaxed);
  S.Coalesced = St.Coalesced.load(std::memory_order_relaxed);
  S.Puts = St.Puts.load(std::memory_order_relaxed);
  S.PutRejects = St.PutRejects.load(std::memory_order_relaxed);
  S.Poisons = St.Poisons.load(std::memory_order_relaxed);
  S.Evicted = St.Evicted.load(std::memory_order_relaxed);
  S.MalformedFrames = St.MalformedFrames.load(std::memory_order_relaxed);
  S.BytesIn = St.BytesIn.load(std::memory_order_relaxed);
  S.BytesOut = St.BytesOut.load(std::memory_order_relaxed);
  return S;
}

void TransServer::acceptLoop() {
  while (!StopFlag) {
    // The timeout only paces the reaping below; stop() wakes the poll
    // through the pipe.
    struct pollfd P[2] = {{ListenFd, POLLIN, 0}, {WakeFds[0], POLLIN, 0}};
    int R = poll(P, 2, 100);
    if (R < 0 && errno != EINTR)
      break;
    // Reap connection threads that announced completion, so a long-lived
    // daemon's thread table stays bounded by its *live* connections.
    {
      std::lock_guard<std::mutex> L(Mu);
      for (uint64_t Id : FinishedConns) {
        auto It = Conns.find(Id);
        if (It != Conns.end()) {
          It->second.detach(); // already past its last shared access
          Conns.erase(It);
        }
      }
      FinishedConns.clear();
    }
    if (R <= 0 || !(P[0].revents & POLLIN))
      continue;
    int Fd = accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    St.Connections.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> L(Mu);
    uint64_t Id = NextConnId++;
    Conns.emplace(Id, std::thread([this, Fd, Id] {
                    serveConnection(Fd, Id);
                  }));
  }
  close(ListenFd);
  ListenFd = -1;
}

void TransServer::serveConnection(int Fd, uint64_t Id) {
  for (;;) {
    Frame F;
    IoResult R = readFrame(Fd, F, O.IdleSliceMs);
    if (R == IoResult::Timeout) {
      if (StopFlag)
        break;
      continue; // idle connection: keep it open
    }
    if (R != IoResult::Ok) {
      if (R == IoResult::Malformed)
        St.MalformedFrames.fetch_add(1, std::memory_order_relaxed);
      break; // EOF, error, or garbage: drop the connection
    }
    St.BytesIn.fetch_add(FrameHeaderSize + F.Body.size(),
                         std::memory_order_relaxed);
    if (!handleFrame(Fd, F))
      break;
  }
  close(Fd);
  std::lock_guard<std::mutex> L(Mu);
  FinishedConns.push_back(Id);
}

bool TransServer::reply(int Fd, MsgType T, const uint8_t *Body, size_t Len) {
  // A bounded send: a client that stops draining its socket mid-reply is
  // dropped rather than wedging this connection thread.
  if (writeFrame(Fd, T, Body, Len, 5000) != IoResult::Ok)
    return false;
  St.BytesOut.fetch_add(FrameHeaderSize + Len, std::memory_order_relaxed);
  return true;
}

bool TransServer::handleFrame(int Fd, const Frame &F) {
  const uint8_t *B = F.Body.data();
  switch (F.Type) {
  case MsgType::Get:
    if (F.Body.size() != 16) {
      St.MalformedFrames.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return handleGet(Fd, getU64(B), getU64(B + 8));
  case MsgType::Put:
    if (F.Body.size() < 16) {
      St.MalformedFrames.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return handlePut(Fd, getU64(B), getU64(B + 8), B + 16,
                     F.Body.size() - 16);
  case MsgType::Poison:
    if (F.Body.size() != 17) {
      St.MalformedFrames.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (!handlePoison(getU64(B), B[8] != 0, getU32(B + 9), getU32(B + 13)))
      return false;
    return reply(Fd, MsgType::Ok, nullptr, 0);
  case MsgType::Ping:
    return reply(Fd, MsgType::Ok, nullptr, 0);
  default:
    // A response type (or junk) arriving as a request is a protocol
    // violation, not a servable frame.
    St.MalformedFrames.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
}

bool TransServer::handleGet(int Fd, uint64_t Cfg, uint64_t Key) {
  St.Requests.fetch_add(1, std::memory_order_relaxed);
  KeyT K{Cfg, Key};
  std::shared_ptr<Pending> P;
  std::string Path;
  bool Leader = false;
  {
    std::unique_lock<std::mutex> L(Mu);
    auto InIt = InFlight.find(K);
    if (InIt != InFlight.end()) {
      // Coalesce: share the in-flight read instead of hitting the disk
      // again for the same key.
      P = InIt->second;
      St.Coalesced.fetch_add(1, std::memory_order_relaxed);
      P->CV.wait(L, [&] { return P->Done; });
    } else {
      auto It = Index.find(K);
      if (It == Index.end()) {
        St.Misses.fetch_add(1, std::memory_order_relaxed);
        L.unlock();
        return reply(Fd, MsgType::Miss, nullptr, 0);
      }
      P = std::make_shared<Pending>();
      InFlight.emplace(K, P);
      Path = It->second.Path;
      Leader = true;
    }
  }
  if (Leader) {
    if (O.ReadDelayMs > 0)
      usleep(static_cast<useconds_t>(O.ReadDelayMs) * 1000);
    auto Bytes = std::make_shared<std::vector<uint8_t>>();
    bool Ok = readWholeFile(Path, *Bytes);
    {
      std::lock_guard<std::mutex> L(Mu);
      P->Done = true;
      P->Bytes = Ok ? Bytes : nullptr;
      InFlight.erase(K);
      if (!Ok)
        dropEntryLocked(K); // vanished or unreadable underneath us
    }
    P->CV.notify_all();
  }
  if (!P->Bytes) {
    St.Misses.fetch_add(1, std::memory_order_relaxed);
    return reply(Fd, MsgType::Miss, nullptr, 0);
  }
  St.Hits.fetch_add(1, std::memory_order_relaxed);
  return reply(Fd, MsgType::Hit, P->Bytes->data(), P->Bytes->size());
}

bool TransServer::handlePut(int Fd, uint64_t Cfg, uint64_t Key,
                            const uint8_t *Image, size_t Len) {
  // Validation before storage: the image must decode end to end (header,
  // checksum, payload walk, callee-index bounds) for THIS (cfg, key).
  // Pointers are not resolved — they are meaningless here — but nothing
  // structurally unsound ever lands in the directory.
  std::vector<uint8_t> File(Image, Image + Len);
  TransCacheEntry E;
  if (TransCache::decodeEntryFile(File, Cfg, Key, E,
                                  /*ResolveCallees=*/false) !=
      TransCache::LoadResult::Found) {
    St.PutRejects.fetch_add(1, std::memory_order_relaxed);
    return reply(Fd, MsgType::Err, nullptr, 0);
  }
  KeyT K{Cfg, Key};
  std::string Path =
      O.Dir + "/" + TransCache::entryFileName(Cfg, Key);
  {
    std::lock_guard<std::mutex> L(Mu);
    auto It = Index.find(K);
    uint64_t OldSize = It != Index.end() ? It->second.Size : 0;
    if (O.MaxBytes)
      evictToFitLocked(Len > OldSize ? Len - OldSize : 0);
    if (!writeFileAtomic(Path, File.data(), File.size())) {
      St.PutRejects.fetch_add(1, std::memory_order_relaxed);
      return reply(Fd, MsgType::Err, nullptr, 0);
    }
    // Re-find: eviction above may have dropped the old slot.
    Entry &Ent = Index[K];
    TotalBytes += Len;
    TotalBytes -= std::min<uint64_t>(TotalBytes, Ent.Size);
    Ent.Path = Path;
    Ent.Size = Len;
    Ent.Extents = std::move(E.Extents);
  }
  St.Puts.fetch_add(1, std::memory_order_relaxed);
  return reply(Fd, MsgType::Ok, nullptr, 0);
}

bool TransServer::handlePoison(uint64_t Cfg, bool All, uint32_t Addr,
                               uint32_t Len) {
  St.Poisons.fetch_add(1, std::memory_order_relaxed);
  uint64_t Lo = Addr;
  uint64_t Hi = std::min<uint64_t>(static_cast<uint64_t>(Addr) + Len,
                                   0x100000000ull);
  std::lock_guard<std::mutex> L(Mu);
  std::vector<KeyT> Victims;
  for (const auto &[K, Ent] : Index) {
    if (K.first != Cfg)
      continue;
    if (All) {
      Victims.push_back(K);
      continue;
    }
    for (auto [ELo, EHi] : Ent.Extents)
      if (ELo < Hi && Lo < EHi) {
        Victims.push_back(K);
        break;
      }
  }
  for (const KeyT &K : Victims)
    dropEntryLocked(K);
  return true;
}

void TransServer::dropEntryLocked(const KeyT &K) {
  auto It = Index.find(K);
  if (It == Index.end())
    return;
  std::error_code EC;
  fs::remove(It->second.Path, EC);
  TotalBytes -= std::min<uint64_t>(TotalBytes, It->second.Size);
  Index.erase(It);
  St.Evicted.fetch_add(1, std::memory_order_relaxed);
}

void TransServer::evictToFitLocked(uint64_t NeedBytes) {
  if (TotalBytes + NeedBytes <= O.MaxBytes)
    return;
  struct Victim {
    fs::file_time_type When;
    KeyT K;
  };
  std::vector<Victim> Vs;
  std::error_code EC;
  for (const auto &[K, Ent] : Index)
    Vs.push_back({fs::last_write_time(Ent.Path, EC), K});
  std::sort(Vs.begin(), Vs.end(),
            [](const Victim &A, const Victim &B) { return A.When < B.When; });
  for (const Victim &V : Vs) {
    if (TotalBytes + NeedBytes <= O.MaxBytes)
      break;
    dropEntryLocked(V.K);
  }
}
