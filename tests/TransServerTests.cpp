//===-- tests/TransServerTests.cpp - Translation server -------------------==//
///
/// \file
/// Tests for the --tt-server subsystem, bottom-up: the VGTP framing and
/// daemon protocol (hit/miss/put/poison round trips, malformed and
/// truncated frames dropping the connection, PUT validation), the client
/// transport robustness (per-request deadline, bounded retries with
/// backoff, the dead-daemon latch — every failure degrades to the local
/// cache or the inline JIT with byte-identical guest output, never a
/// stall), write-through into the local cache, the request-coalescing
/// hammer (the TSan target of the `concurrency`/`server` ctest labels),
/// the daemon's poison eviction and byte budget, and the end-to-end
/// acceptance bar: a fresh run against a warmed daemon installs >= 90% of
/// its translations from the server.
///
//===----------------------------------------------------------------------===//

#include "core/Launcher.h"
#include "core/TransCache.h"
#include "core/TranslationService.h"
#include "guestlib/GuestLib.h"
#include "server/TransProto.h"
#include "server/TransServer.h"
#include "server/TransServerClient.h"
#include "tools/Nulgrind.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

using namespace vg;
using namespace vg::vg1;

namespace {

namespace fs = std::filesystem;

/// Fresh per-test directory, removed on scope exit.
struct ScratchDir {
  fs::path Path;
  ScratchDir() {
    static int Counter = 0;
    Path = fs::temp_directory_path() /
           ("vgtsrv-test-" + std::to_string(getpid()) + "-" +
            std::to_string(Counter++));
    fs::remove_all(Path);
  }
  ~ScratchDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

/// Fresh socket path in /tmp (sun_path is short; scratch dirs can nest).
std::string freshSockPath() {
  static int Counter = 0;
  return (fs::temp_directory_path() /
          ("vgtsrv-" + std::to_string(getpid()) + "-" +
           std::to_string(Counter++) + ".sock"))
      .string();
}

/// An in-process daemon over \p Dir, stopped (and socket unlinked) on
/// scope exit.
struct Daemon {
  std::string Sock = freshSockPath();
  TransServer Server;
  explicit Daemon(const std::string &Dir, uint64_t MaxBytes = 0,
                  int ReadDelayMs = 0)
      : Server([&] {
          TransServer::Options O;
          O.SocketPath = Sock;
          O.Dir = Dir;
          O.MaxBytes = MaxBytes;
          O.ReadDelayMs = ReadDelayMs;
          return O;
        }()) {
    std::string Err;
    if (!Server.start(Err))
      ADD_FAILURE() << "daemon start failed: " << Err;
  }
  ~Daemon() { Server.stop(); }
};

TransServerClient::Config clientConfig(const std::string &Sock,
                                       int TimeoutMs = 2000) {
  TransServerClient::Config C;
  C.SocketPath = Sock;
  C.TimeoutMs = TimeoutMs;
  return C;
}

//===----------------------------------------------------------------------===//
// Making real entry images: a cold service run against a local cache dir
//===----------------------------------------------------------------------===//

constexpr uint32_t CodeBase = 0x1000;
constexpr uint64_t TestCfg = 1; ///< the fixture's config fingerprint

struct StubHost : TranslationHost {
  unsigned Notes = 0;
  void setupTranslation(TranslationOptions &, uint32_t, bool,
                        Translation *Raw) override {
    Raw->Cacheable = true;
  }
  void noteTranslation(uint32_t, const Translation &, double) override {
    ++Notes;
  }
};

/// A bank of tiny blocks plus a service wired to a local cache dir and/or
/// a daemon socket (empty string = not attached), both under TestCfg.
struct ServiceFixture {
  GuestMemory Mem;
  StubHost Host;
  TranslationService XS;
  std::vector<uint32_t> Blocks;

  ServiceFixture(const std::string &CacheDir, const std::string &Sock,
                 unsigned NBlocks = 4, int TimeoutMs = 2000)
      : XS(Host, Mem) {
    Assembler Code(CodeBase);
    for (unsigned I = 0; I != NBlocks; ++I) {
      Blocks.push_back(Code.here());
      Code.movi(Reg::R0, I);
      Code.ret();
    }
    GuestImage Img = GuestImageBuilder().addCode(Code).entry(CodeBase).build();
    for (const ImageSegment &S : Img.Segments) {
      Mem.map(S.Base, static_cast<uint32_t>(S.Bytes.size()), S.Perms);
      Mem.write(S.Base, S.Bytes.data(), static_cast<uint32_t>(S.Bytes.size()),
                /*IgnorePerms=*/true);
    }
    if (!CacheDir.empty())
      XS.attachCache(std::make_unique<TransCache>(CacheDir, 0, TestCfg));
    if (!Sock.empty())
      XS.attachServer(std::make_unique<TransServerClient>(
                          clientConfig(Sock, TimeoutMs)),
                      TestCfg);
  }
};

struct EntryImage {
  uint64_t Cfg = 0;
  uint64_t Key = 0;
  std::vector<uint8_t> Bytes;
};

/// Reads every .vgtc image from \p Dir, keys parsed from the filenames.
std::vector<EntryImage> collectImages(const fs::path &Dir) {
  std::vector<EntryImage> Out;
  for (const auto &DE : fs::directory_iterator(Dir)) {
    if (DE.path().extension() != ".vgtc")
      continue;
    std::string Stem = DE.path().stem().string();
    if (Stem.size() != 33 || Stem[16] != '-')
      continue;
    EntryImage E;
    E.Cfg = std::strtoull(Stem.substr(0, 16).c_str(), nullptr, 16);
    E.Key = std::strtoull(Stem.substr(17).c_str(), nullptr, 16);
    std::ifstream F(DE.path(), std::ios::binary);
    E.Bytes.assign(std::istreambuf_iterator<char>(F),
                   std::istreambuf_iterator<char>());
    Out.push_back(std::move(E));
  }
  return Out;
}

/// Populates \p Dir with NBlocks real entry images via a cold service run.
std::vector<EntryImage> makeImages(const ScratchDir &Dir,
                                   unsigned NBlocks = 2) {
  ServiceFixture Cold(Dir.str(), "", NBlocks);
  for (uint32_t PC : Cold.Blocks)
    Cold.XS.translateSync(PC, /*Hot=*/false);
  EXPECT_EQ(Cold.XS.jitStats().CacheWrites, NBlocks);
  return collectImages(Dir.Path);
}

//===----------------------------------------------------------------------===//
// Protocol round trip
//===----------------------------------------------------------------------===//

TEST(TransServerProtocol, RoundTripHitMissPutPoison) {
  ScratchDir SrcDir;
  std::vector<EntryImage> Images = makeImages(SrcDir, 2);
  ASSERT_EQ(Images.size(), 2u);

  ScratchDir SrvDir;
  Daemon D(SrvDir.str());
  TransServerClient C(clientConfig(D.Sock));

  // Empty daemon: every key is a miss.
  std::vector<uint8_t> Fetched;
  EXPECT_EQ(C.get(Images[0].Cfg, Images[0].Key, Fetched),
            TransServerClient::FetchResult::Miss);

  // PUT both images, GET them back byte-identical.
  for (const EntryImage &E : Images)
    EXPECT_TRUE(C.put(E.Cfg, E.Key, E.Bytes));
  EXPECT_EQ(D.Server.indexedEntries(), 2u);
  for (const EntryImage &E : Images) {
    Fetched.clear();
    ASSERT_EQ(C.get(E.Cfg, E.Key, Fetched),
              TransServerClient::FetchResult::Hit);
    EXPECT_EQ(Fetched, E.Bytes);
  }

  // The served image decodes under the same validation a local file gets.
  TransCacheEntry E;
  EXPECT_EQ(TransCache::decodeEntryFile(Images[0].Bytes, Images[0].Cfg,
                                        Images[0].Key, E,
                                        /*ResolveCallees=*/true),
            TransCache::LoadResult::Found);
  ASSERT_FALSE(E.Extents.empty());

  // Poisoning the entry's range evicts it (reply-acknowledged, so the
  // eviction is complete when poison() returns); the other entry stays.
  C.poison(Images[0].Cfg, E.Extents[0].first, 1);
  Fetched.clear();
  EXPECT_EQ(C.get(Images[0].Cfg, Images[0].Key, Fetched),
            TransServerClient::FetchResult::Miss);
  EXPECT_EQ(C.get(Images[1].Cfg, Images[1].Key, Fetched),
            TransServerClient::FetchResult::Hit);

  TransServer::Stats S = D.Server.stats();
  EXPECT_EQ(S.Puts, 2u);
  EXPECT_EQ(S.Hits, 3u);
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.Poisons, 1u);
  EXPECT_EQ(S.Evicted, 1u);
  EXPECT_EQ(S.PutRejects, 0u);
  EXPECT_EQ(S.MalformedFrames, 0u);
}

TEST(TransServerProtocol, ServerDirSurvivesRestartAndSkipsGarbage) {
  ScratchDir SrvDir;
  std::vector<EntryImage> Images;
  {
    ScratchDir SrcDir;
    Images = makeImages(SrcDir, 2);
    Daemon D(SrvDir.str());
    TransServerClient C(clientConfig(D.Sock));
    for (const EntryImage &E : Images)
      ASSERT_TRUE(C.put(E.Cfg, E.Key, E.Bytes));
  }
  // Plant junk the startup scan must skip: a non-entry file and a
  // truncated (torn-writer) entry under a plausible name.
  std::ofstream(SrvDir.Path / "junk.vgtc") << "not an entry";
  std::ofstream(SrvDir.Path /
                "00000000000000aa-00000000000000bb.vgtc")
      << "VG"; // truncated far below HeaderSize
  Daemon D2(SrvDir.str());
  EXPECT_EQ(D2.Server.indexedEntries(), 2u);
  TransServerClient C(clientConfig(D2.Sock));
  std::vector<uint8_t> Fetched;
  EXPECT_EQ(C.get(Images[0].Cfg, Images[0].Key, Fetched),
            TransServerClient::FetchResult::Hit);
  EXPECT_EQ(Fetched, Images[0].Bytes);
  // The planted names are not in the index, so they are plain misses.
  EXPECT_EQ(C.get(0xaa, 0xbb, Fetched), TransServerClient::FetchResult::Miss);
}

TEST(TransServerProtocol, PutOfUndecodableImageIsRejected) {
  ScratchDir SrcDir;
  std::vector<EntryImage> Images = makeImages(SrcDir, 1);
  ASSERT_EQ(Images.size(), 1u);

  ScratchDir SrvDir;
  Daemon D(SrvDir.str());
  TransServerClient C(clientConfig(D.Sock));

  // A checksum-corrupt image must never land in the directory.
  EntryImage Bad = Images[0];
  Bad.Bytes.back() ^= 0x40;
  EXPECT_FALSE(C.put(Bad.Cfg, Bad.Key, Bad.Bytes));
  EXPECT_EQ(D.Server.indexedEntries(), 0u);
  // An image stored under the wrong key is equally unservable.
  EXPECT_FALSE(C.put(Images[0].Cfg, Images[0].Key ^ 1, Images[0].Bytes));
  // Empty and sub-header images too.
  EXPECT_FALSE(C.put(1, 2, {}));
  TransServer::Stats S = D.Server.stats();
  EXPECT_EQ(S.PutRejects, 3u);
  EXPECT_EQ(S.Puts, 0u);
  EXPECT_EQ(D.Server.indexedEntries(), 0u);
  // The connection survived: rejects are polite Err replies, not drops.
  EXPECT_TRUE(C.put(Images[0].Cfg, Images[0].Key, Images[0].Bytes));
}

//===----------------------------------------------------------------------===//
// Malformed and truncated frames
//===----------------------------------------------------------------------===//

void sendRaw(int Fd, const void *Buf, size_t Len) {
  const uint8_t *P = static_cast<const uint8_t *>(Buf);
  while (Len) {
    ssize_t K = send(Fd, P, Len, 0);
    ASSERT_GT(K, 0);
    P += K;
    Len -= static_cast<size_t>(K);
  }
}

/// Polls \p Cond for up to ~5s (the daemon processes asynchronously).
template <typename F> bool eventually(F Cond) {
  for (int I = 0; I != 500; ++I) {
    if (Cond())
      return true;
    usleep(10 * 1000);
  }
  return Cond();
}

TEST(TransServerProtocol, MalformedMagicDropsConnection) {
  ScratchDir SrvDir;
  Daemon D(SrvDir.str());
  int Fd = srv::connectUnix(D.Sock);
  ASSERT_GE(Fd, 0);
  sendRaw(Fd, "XXXXXXXXXXXXXXXX", 16);
  // The daemon drops us. Our next read sees EOF — or ECONNRESET (Error)
  // when the close outran our unread bytes — never a reply frame and
  // never a stall. A fresh connection still works: one bad peer poisons
  // nothing shared.
  srv::Frame F;
  srv::IoResult R = srv::readFrame(Fd, F, 5000);
  EXPECT_TRUE(R == srv::IoResult::Eof || R == srv::IoResult::Error)
      << static_cast<int>(R);
  close(Fd);
  EXPECT_TRUE(eventually(
      [&] { return D.Server.stats().MalformedFrames >= 1; }));
  TransServerClient C(clientConfig(D.Sock));
  std::vector<uint8_t> Fetched;
  EXPECT_EQ(C.get(1, 2, Fetched), TransServerClient::FetchResult::Miss);
}

TEST(TransServerProtocol, TruncatedBodyDropsConnection) {
  ScratchDir SrvDir;
  Daemon D(SrvDir.str());
  int Fd = srv::connectUnix(D.Sock);
  ASSERT_GE(Fd, 0);
  // A valid GET header promising a 16-byte body, then only 4 bytes and a
  // close: the daemon must treat the stream as unrecoverable, not wait
  // forever and not interpret garbage.
  std::vector<uint8_t> Buf = {'V', 'G', 'T', 'P',
                              static_cast<uint8_t>(srv::MsgType::Get)};
  srv::putU32(Buf, 16);
  Buf.insert(Buf.end(), {1, 2, 3, 4});
  sendRaw(Fd, Buf.data(), Buf.size());
  close(Fd);
  EXPECT_TRUE(eventually(
      [&] { return D.Server.stats().MalformedFrames >= 1; }));
  EXPECT_EQ(D.Server.stats().Requests, 0u);
}

TEST(TransServerProtocol, OversizedBodyLengthIsMalformed) {
  ScratchDir SrvDir;
  Daemon D(SrvDir.str());
  int Fd = srv::connectUnix(D.Sock);
  ASSERT_GE(Fd, 0);
  std::vector<uint8_t> Buf = {'V', 'G', 'T', 'P',
                              static_cast<uint8_t>(srv::MsgType::Get)};
  srv::putU32(Buf, (64u << 20) + 1); // over MaxFrameBody
  sendRaw(Fd, Buf.data(), Buf.size());
  srv::Frame F;
  EXPECT_EQ(srv::readFrame(Fd, F, 5000), srv::IoResult::Eof);
  close(Fd);
  EXPECT_TRUE(eventually(
      [&] { return D.Server.stats().MalformedFrames >= 1; }));
}

//===----------------------------------------------------------------------===//
// Service-level: fetch, validate, install, write-through
//===----------------------------------------------------------------------===//

TEST(TransServerService, ServerOnlyWarmRunInstallsFromDaemon) {
  ScratchDir SrvDir;
  {
    // Cold run writes straight into the daemon's directory — a --tt-cache
    // dir IS a servable dir.
    ServiceFixture Cold(SrvDir.str(), "", 3);
    for (uint32_t PC : Cold.Blocks)
      Cold.XS.translateSync(PC, false);
  }
  Daemon D(SrvDir.str());
  ServiceFixture Warm("", D.Sock, 3);
  for (uint32_t PC : Warm.Blocks)
    ASSERT_NE(Warm.XS.translateSync(PC, false), nullptr);
  const JitStats &J = Warm.XS.jitStats();
  EXPECT_EQ(J.ServerHits, 3u);
  EXPECT_EQ(J.CacheHits, 3u); // server hits are cache hits
  EXPECT_EQ(J.ServerMisses, 0u);
  EXPECT_EQ(J.ServerFallbacks, 0u);
  EXPECT_EQ(J.ServerRejects, 0u);
  EXPECT_GT(J.ServerBytesFetched, 0u);
  // The server identity: every lookup settled into exactly one bucket.
  EXPECT_EQ(J.ServerRequests,
            J.ServerHits + J.ServerMisses + J.ServerRejects +
                J.ServerFallbacks);
}

TEST(TransServerService, ColdRunWarmsTheDaemonViaPuts) {
  ScratchDir SrvDir;
  Daemon D(SrvDir.str());
  {
    ServiceFixture Cold("", D.Sock, 3);
    for (uint32_t PC : Cold.Blocks)
      Cold.XS.translateSync(PC, false);
    EXPECT_EQ(Cold.XS.jitStats().ServerWrites, 3u);
    EXPECT_EQ(Cold.XS.jitStats().ServerMisses, 3u);
  }
  EXPECT_EQ(D.Server.indexedEntries(), 3u);
  ServiceFixture Warm("", D.Sock, 3);
  for (uint32_t PC : Warm.Blocks)
    Warm.XS.translateSync(PC, false);
  EXPECT_EQ(Warm.XS.jitStats().ServerHits, 3u);
}

TEST(TransServerService, ServerHitWritesThroughToLocalCache) {
  ScratchDir SrvDir;
  {
    ServiceFixture Cold(SrvDir.str(), "", 2);
    for (uint32_t PC : Cold.Blocks)
      Cold.XS.translateSync(PC, false);
  }
  Daemon D(SrvDir.str());
  ScratchDir LocalDir;
  {
    ServiceFixture Warm(LocalDir.str(), D.Sock, 2);
    for (uint32_t PC : Warm.Blocks)
      Warm.XS.translateSync(PC, false);
    EXPECT_EQ(Warm.XS.jitStats().ServerHits, 2u);
    // No pipeline ran, so no write-backs — the local copies below came
    // from the write-through path.
    EXPECT_EQ(Warm.XS.jitStats().CacheWrites, 0u);
  }
  // The written-through images are byte-identical to the served ones.
  std::vector<EntryImage> Local = collectImages(LocalDir.Path);
  std::vector<EntryImage> Served = collectImages(SrvDir.Path);
  ASSERT_EQ(Local.size(), 2u);
  auto find = [&](const EntryImage &E) {
    for (const EntryImage &S : Served)
      if (S.Cfg == E.Cfg && S.Key == E.Key)
        return S.Bytes == E.Bytes;
    return false;
  };
  for (const EntryImage &E : Local)
    EXPECT_TRUE(find(E)) << "written-through image diverged from served";

  // Third run, local cache only: everything local now, daemon untouched.
  D.Server.stop();
  ServiceFixture Third(LocalDir.str(), "", 2);
  for (uint32_t PC : Third.Blocks)
    Third.XS.translateSync(PC, false);
  EXPECT_EQ(Third.XS.jitStats().CacheHits, 2u);
}

TEST(TransServerService, CorruptServedBlobIsRejectedThenJitted) {
  ScratchDir SrvDir;
  {
    ServiceFixture Cold(SrvDir.str(), "", 2);
    for (uint32_t PC : Cold.Blocks)
      Cold.XS.translateSync(PC, false);
  }
  Daemon D(SrvDir.str());
  // Corrupt the files AFTER the startup scan indexed them: the daemon now
  // serves bytes whose checksum cannot verify — exactly what a disk gone
  // bad under a live daemon produces. The client must reject and JIT.
  for (const auto &DE : fs::directory_iterator(SrvDir.Path)) {
    std::fstream F(DE.path(), std::ios::in | std::ios::out | std::ios::binary);
    F.seekp(static_cast<std::streamoff>(fs::file_size(DE.path()) / 2));
    F.put('\x55');
  }
  ServiceFixture Warm("", D.Sock, 2);
  for (uint32_t PC : Warm.Blocks)
    ASSERT_NE(Warm.XS.translateSync(PC, false), nullptr);
  const JitStats &J = Warm.XS.jitStats();
  EXPECT_EQ(J.ServerHits, 0u);
  EXPECT_EQ(J.ServerRejects, 2u);
  EXPECT_EQ(J.CacheRejects, 2u);
}

TEST(TransServerService, PoisonEvictsFromDaemonAndBlocksInstall) {
  ScratchDir SrvDir;
  {
    ServiceFixture Cold(SrvDir.str(), "", 2);
    for (uint32_t PC : Cold.Blocks)
      Cold.XS.translateSync(PC, false);
  }
  Daemon D(SrvDir.str());
  ServiceFixture Warm("", D.Sock, 2);
  // A redirect-style invalidation: rejected locally for the rest of the
  // run AND evicted from the daemon.
  Warm.XS.invalidate(Warm.Blocks[0], 4);
  EXPECT_TRUE(eventually([&] { return D.Server.stats().Evicted >= 1; }));
  Warm.XS.translateSync(Warm.Blocks[0], false);
  Warm.XS.translateSync(Warm.Blocks[1], false);
  const JitStats &J = Warm.XS.jitStats();
  EXPECT_EQ(J.ServerHits, 1u);          // only the unpoisoned block
  EXPECT_EQ(J.ServerMisses, 1u);        // the evicted one
  EXPECT_EQ(J.CacheRejects, 0u);
  EXPECT_EQ(D.Server.indexedEntries(), 1u);
}

//===----------------------------------------------------------------------===//
// Transport robustness: the degradation ladder never stalls or crashes
//===----------------------------------------------------------------------===//

TEST(TransServerService, DeadSocketFallsBackToInlineJit) {
  // No daemon ever listened here: every lookup degrades instantly (the
  // connect fails), the dead-latch engages, and the run JITs everything.
  ServiceFixture F("", freshSockPath(), 3, /*TimeoutMs=*/100);
  for (uint32_t PC : F.Blocks)
    ASSERT_NE(F.XS.translateSync(PC, false), nullptr);
  const JitStats &J = F.XS.jitStats();
  EXPECT_EQ(J.ServerHits, 0u);
  EXPECT_GT(J.ServerFallbacks, 0u);
  EXPECT_EQ(J.ServerFallbacks, J.ServerRequests);
  EXPECT_FALSE(F.XS.server()->alive()); // the latch engaged
}

TEST(TransServerService, StalledDaemonDeadlineFiresThenBacksOffThenJits) {
  // A listener that accepts (kernel backlog) but never serves: requests
  // reach the socket, the per-request deadline fires, bounded retries back
  // off, and after MaxStrikes the client latches dead — the guest makes
  // progress on the inline JIT throughout.
  std::string Sock = freshSockPath();
  int ListenFd = srv::listenUnix(Sock, 8);
  ASSERT_GE(ListenFd, 0);
  ServiceFixture F("", Sock, 4, /*TimeoutMs=*/50);
  for (uint32_t PC : F.Blocks)
    ASSERT_NE(F.XS.translateSync(PC, false), nullptr);
  const JitStats &J = F.XS.jitStats();
  EXPECT_EQ(J.ServerHits, 0u);
  EXPECT_GT(J.ServerTimeouts, 0u);
  EXPECT_GT(J.ServerRetries, 0u);
  EXPECT_GT(J.ServerFallbacks, 0u);
  EXPECT_FALSE(F.XS.server()->alive());
  // Once dead, lookups skip the socket: the tail blocks fell back without
  // new timeouts (requests stopped reaching the transport).
  EXPECT_LT(J.ServerTimeouts,
            J.ServerRequests * static_cast<uint64_t>(
                                   F.XS.server()->config().MaxRetries + 1));
  close(ListenFd);
  unlink(Sock.c_str());
}

//===----------------------------------------------------------------------===//
// Concurrency: coalescing under a client hammer (TSan target)
//===----------------------------------------------------------------------===//

TEST(TransServerConcurrency, ConcurrentClientsCoalesceAndAgree) {
  ScratchDir SrvDir;
  std::vector<EntryImage> Images;
  {
    ScratchDir SrcDir;
    Images = makeImages(SrcDir, 2);
    ServiceFixture Cold(SrvDir.str(), "", 2);
    for (uint32_t PC : Cold.Blocks)
      Cold.XS.translateSync(PC, false);
  }
  // ReadDelayMs widens the leader's disk-read window so follower GETs for
  // the same key reliably coalesce instead of racing past each other.
  Daemon D(SrvDir.str(), /*MaxBytes=*/0, /*ReadDelayMs=*/20);
  std::vector<EntryImage> Served = collectImages(SrvDir.Path);
  ASSERT_EQ(Served.size(), 2u);

  constexpr int NThreads = 8;
  constexpr int NRounds = 5;
  std::atomic<int> Bad{0};
  std::vector<std::thread> Ts;
  for (int I = 0; I != NThreads; ++I)
    Ts.emplace_back([&, I] {
      TransServerClient C(clientConfig(D.Sock, 10000));
      for (int R = 0; R != NRounds; ++R) {
        const EntryImage &E = Served[(I + R) % 2 == 0 ? 0 : 1];
        std::vector<uint8_t> Fetched;
        if (C.get(E.Cfg, E.Key, Fetched) !=
                TransServerClient::FetchResult::Hit ||
            Fetched != E.Bytes)
          Bad.fetch_add(1);
      }
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(Bad.load(), 0);
  TransServer::Stats S = D.Server.stats();
  EXPECT_EQ(S.Hits, static_cast<uint64_t>(NThreads * NRounds));
  EXPECT_GE(S.Coalesced, 1u) << "no GETs shared a disk read";
  EXPECT_EQ(S.Connections, static_cast<uint64_t>(NThreads));
}

//===----------------------------------------------------------------------===//
// Daemon byte budget
//===----------------------------------------------------------------------===//

TEST(TransServerDaemon, EvictionHonoursByteBudget) {
  ScratchDir SrcDir;
  std::vector<EntryImage> Images = makeImages(SrcDir, 4);
  ASSERT_EQ(Images.size(), 4u);
  uint64_t OneEntry = Images[0].Bytes.size();

  ScratchDir SrvDir;
  Daemon D(SrvDir.str(), /*MaxBytes=*/2 * OneEntry + OneEntry / 2);
  TransServerClient C(clientConfig(D.Sock));
  for (const EntryImage &E : Images)
    EXPECT_TRUE(C.put(E.Cfg, E.Key, E.Bytes));
  TransServer::Stats S = D.Server.stats();
  EXPECT_EQ(S.Puts, 4u);
  EXPECT_GT(S.Evicted, 0u);
  EXPECT_LE(D.Server.totalBytes(), 2 * OneEntry + OneEntry / 2);
  EXPECT_LT(D.Server.indexedEntries(), 4u);
}

TEST(TransServerDaemon, StopWakesAnIdleAcceptor) {
  // stop() must not wait out the acceptor's poll timeout (100 ms): a
  // caller that starts and stops a daemon per run pays it every time.
  // Without the wake every stop of an idle daemon waits about 90 ms; with
  // it a stop takes well under a millisecond, but one stop on a host busy
  // with parallel tests can still take tens. So the bound is on the median
  // of ten start / idle / stop cycles.
  ScratchDir Dir;
  std::vector<double> Ms;
  for (int I = 0; I != 10; ++I) {
    Daemon D(Dir.str());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    auto T0 = std::chrono::steady_clock::now();
    D.Server.stop();
    std::chrono::duration<double, std::milli> Took =
        std::chrono::steady_clock::now() - T0;
    Ms.push_back(Took.count());
    EXPECT_FALSE(D.Server.running());
  }
  std::nth_element(Ms.begin(), Ms.begin() + Ms.size() / 2, Ms.end());
  EXPECT_LT(Ms[Ms.size() / 2], 50.0);
}

//===----------------------------------------------------------------------===//
// End-to-end under a full Core: the acceptance bar
//===----------------------------------------------------------------------===//

constexpr uint32_t ProgCodeBase = 0x1000;
constexpr uint32_t ProgDataBase = 0x100000;

GuestImage loopProgram() {
  Assembler Code(ProgCodeBase);
  Assembler Data(ProgDataBase);
  GuestLibLabels Lib = emitGuestLib(Code, Data);
  Label Main = Code.newLabel();
  uint32_t Entry = emitStart(Code, Main);
  Code.bind(Main);
  Code.symbol("main");
  Label Str = Data.boundLabel();
  Data.emitString("done\n");
  Code.movi(Reg::R1, 0);
  Label Outer = Code.boundLabel();
  Code.movi(Reg::R2, 0);
  Label Inner = Code.boundLabel();
  Code.addi(Reg::R2, Reg::R2, 1);
  Code.cmpi(Reg::R2, 50);
  Code.blt(Inner);
  Code.addi(Reg::R1, Reg::R1, 1);
  Code.cmpi(Reg::R1, 200);
  Code.blt(Outer);
  Code.movi(Reg::R1, Data.labelAddr(Str));
  Code.call(Lib.Print);
  Code.movi(Reg::R0, 5);
  Code.ret();
  return GuestImageBuilder()
      .addCode(Code)
      .addData(Data)
      .entry(Entry)
      .build();
}

TEST(TransServerEndToEnd, WarmDaemonServesAtLeastNinetyPercent) {
  ScratchDir Dir;
  GuestImage Img = loopProgram();
  // Cold run populates the directory through the ordinary local cache;
  // --tt-cache / --tt-server are excluded from the config fingerprint, so
  // the warm run's keys match even though its option line differs.
  Nulgrind T1, T2;
  RunReport Cold = runUnderCore(
      Img, &T1,
      {"--chaining=yes", "--hot-threshold=2", "--tt-cache=" + Dir.str()});
  ASSERT_TRUE(Cold.Completed);
  ASSERT_GT(Cold.Jit.CacheWrites, 0u);

  Daemon D(Dir.str());
  RunReport Warm = runUnderCore(Img, &T2,
                                {"--chaining=yes", "--hot-threshold=2",
                                 "--tt-server=" + D.Sock});
  ASSERT_TRUE(Warm.Completed);
  EXPECT_EQ(Warm.Stdout, Cold.Stdout);
  EXPECT_EQ(Warm.ExitCode, Cold.ExitCode);
  const JitStats &J = Warm.Jit;
  EXPECT_EQ(J.ServerFallbacks, 0u);
  EXPECT_EQ(J.ServerRejects, 0u);
  EXPECT_GT(J.ServerHits, 0u);
  // The acceptance bar: >= 90% of the run's translation installs came
  // from the daemon (all cache-path lookups settled as server hits).
  uint64_t Lookups = J.CacheHits + J.CacheMisses + J.CacheRejects;
  ASSERT_GT(Lookups, 0u);
  EXPECT_GE(10 * J.ServerHits, 9 * Lookups)
      << "served " << J.ServerHits << " of " << Lookups;
}

TEST(TransServerEndToEnd, DaemonDeathMidRunDegradesByteIdentically) {
  ScratchDir Dir;
  GuestImage Img = loopProgram();
  std::vector<std::string> BaseOpts = {"--chaining=yes", "--hot-threshold=2"};
  Nulgrind T0;
  RunReport Baseline = runUnderCore(Img, &T0, BaseOpts);
  ASSERT_TRUE(Baseline.Completed);

  // Cold-populate, then serve — but kill the daemon before the client's
  // run ends. stop() drops every connection mid-whatever-it-was-doing;
  // with the socket then unlinked, later lookups fail to connect. Either
  // way the run must settle down the ladder with identical guest output.
  {
    Nulgrind T1;
    ASSERT_TRUE(runUnderCore(Img, &T1,
                             {"--chaining=yes", "--hot-threshold=2",
                              "--tt-cache=" + Dir.str()})
                    .Completed);
  }
  Daemon D(Dir.str());
  std::string Sock = D.Sock;
  // Let the very first lookup race the shutdown: stop the daemon from a
  // side thread while the run starts. The precise interleaving varies by
  // scheduling — every outcome (some hits then fallbacks, all fallbacks)
  // must produce the same guest-visible behaviour.
  std::thread Killer([&] { D.Server.stop(); });
  std::vector<std::string> Opts = BaseOpts;
  Opts.push_back("--tt-server=" + Sock);
  Opts.push_back("--tt-server-timeout-ms=50");
  Nulgrind T2;
  RunReport R = runUnderCore(Img, &T2, Opts);
  Killer.join();
  ASSERT_TRUE(R.Completed) << "run must never hang or die with the daemon";
  EXPECT_EQ(R.Stdout, Baseline.Stdout);
  EXPECT_EQ(R.ExitCode, Baseline.ExitCode);
  EXPECT_EQ(R.Jit.ServerRejects, 0u);
  // Accounting stayed coherent whichever rung each lookup reached.
  EXPECT_EQ(R.Jit.ServerRequests, R.Jit.ServerHits + R.Jit.ServerMisses +
                                      R.Jit.ServerRejects +
                                      R.Jit.ServerFallbacks);
}

TEST(TransServerEndToEnd, LocalCachePlusServerPrefersLocal) {
  ScratchDir SrvDir;
  GuestImage Img = loopProgram();
  {
    Nulgrind T1;
    ASSERT_TRUE(runUnderCore(Img, &T1,
                             {"--chaining=yes", "--hot-threshold=2",
                              "--tt-cache=" + SrvDir.str()})
                    .Completed);
  }
  Daemon D(SrvDir.str());
  ScratchDir LocalDir;
  std::vector<std::string> Opts = {"--chaining=yes", "--hot-threshold=2",
                                   "--tt-cache=" + LocalDir.str(),
                                   "--tt-server=" + D.Sock};
  // First run: local cache empty, everything arrives from the daemon and
  // writes through.
  Nulgrind T2, T3;
  RunReport First = runUnderCore(Img, &T2, Opts);
  ASSERT_TRUE(First.Completed);
  EXPECT_GT(First.Jit.ServerHits, 0u);
  // Second run: the write-throughs satisfy every lookup locally; the
  // daemon is consulted only on local misses, of which there are none.
  RunReport Second = runUnderCore(Img, &T3, Opts);
  ASSERT_TRUE(Second.Completed);
  EXPECT_EQ(Second.Stdout, First.Stdout);
  EXPECT_GT(Second.Jit.CacheHits, 0u);
  EXPECT_EQ(Second.Jit.ServerRequests, 0u);
}

} // namespace
