//===-- server/TransServer.h - The vgserve daemon core ---------*- C++ -*-==//
///
/// \file
/// The translation server: owns a TransCache-format directory (one .vgtc
/// file per entry, named hex16(config)-hex16(key)) and serves the raw file
/// images over a Unix-domain socket with the TransProto framing. Because
/// the payload is exactly the on-disk format, a --tt-cache directory from
/// any cold run can be served as-is, and everything a client fetches is
/// re-validated on the client with the same checks a local file gets.
/// Those checks bound what a blob can touch, not what it computes
/// (TransCache.h), so the daemon must be as trusted as the binary.
///
/// Embeddable by design: tests, the fuzz harness, and the warm-start
/// bench run a TransServer in-process on a scratch socket; the standalone
/// `vgserve` binary is a thin main() around this class.
///
/// Daemon-side behaviour:
///
///  - accept loop + one thread per connection, each reading frames under
///    an idle-tolerant deadline (idle connections stay open; a peer that
///    stalls mid-frame or sends garbage is dropped);
///  - request coalescing: concurrent GETs for the same in-flight key
///    share one disk read (the followers park on a condvar);
///  - PUT payloads are structurally validated (decode walk, operand
///    check, FNV checksum, callee-name indexes bounds-checked) before
///    they are stored — a malicious or buggy client cannot plant a blob
///    that does not decode or that reaches outside its guest state;
///  - poison notifications evict entries of that config whose extents
///    intersect the range (the in-memory extents index is built from a
///    startup scan and maintained on PUT);
///  - a byte budget evicts oldest-mtime entries, mirroring TransCache.
///
//===----------------------------------------------------------------------===//
#ifndef VG_SERVER_TRANSSERVER_H
#define VG_SERVER_TRANSSERVER_H

#include "server/TransProto.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace vg {

class TransServer {
public:
  struct Options {
    std::string SocketPath;
    std::string Dir;
    uint64_t MaxBytes = 256ull << 20; ///< 0 = unbounded
    /// Per-read slice while a connection is idle; shutdown latency is
    /// bounded by this. A peer mid-frame still gets the full slice.
    int IdleSliceMs = 200;
    /// Test hook: stall this long before each GET's disk read, so the
    /// coalescing window is wide enough to assert on deterministically.
    int ReadDelayMs = 0;
  };

  /// Counter snapshot (internally atomics; reads are relaxed).
  struct Stats {
    uint64_t Connections = 0;
    uint64_t Requests = 0; ///< GET frames handled
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Coalesced = 0; ///< GETs that shared another GET's disk read
    uint64_t Puts = 0;
    uint64_t PutRejects = 0; ///< PUT payloads that failed validation
    uint64_t Poisons = 0;
    uint64_t Evicted = 0; ///< entries dropped by poison or the byte budget
    uint64_t MalformedFrames = 0;
    uint64_t BytesIn = 0;
    uint64_t BytesOut = 0;
  };

  explicit TransServer(Options O) : O(std::move(O)) {}
  ~TransServer();

  TransServer(const TransServer &) = delete;
  TransServer &operator=(const TransServer &) = delete;

  /// Scans the directory (creating it if missing), indexes every entry
  /// that validates, binds the socket, and starts the accept thread.
  /// False with \p Err set on bind/listen failure.
  bool start(std::string &Err);

  /// Stops accepting, drops every connection at its next read slice,
  /// joins all threads, and unlinks the socket. Idempotent.
  void stop();

  bool running() const { return Running; }
  uint64_t indexedEntries() const;
  uint64_t totalBytes() const;
  Stats stats() const;
  const Options &options() const { return O; }

private:
  struct Entry {
    std::string Path;
    uint64_t Size = 0;
    std::vector<std::pair<uint32_t, uint32_t>> Extents;
  };
  /// A GET's shared disk read: followers for the same key wait on CV
  /// (guarded by Mu) instead of issuing their own read.
  struct Pending {
    bool Done = false;
    std::shared_ptr<std::vector<uint8_t>> Bytes; ///< null = read failed
    std::condition_variable CV;
  };
  using KeyT = std::pair<uint64_t, uint64_t>; ///< (config hash, entry key)

  void scanDir();
  void acceptLoop();
  void serveConnection(int Fd, uint64_t Id);
  /// True to keep the connection; false to drop it.
  bool handleFrame(int Fd, const srv::Frame &F);
  bool handleGet(int Fd, uint64_t Cfg, uint64_t Key);
  bool handlePut(int Fd, uint64_t Cfg, uint64_t Key,
                 const uint8_t *Image, size_t Len);
  bool handlePoison(uint64_t Cfg, bool All, uint32_t Addr, uint32_t Len);
  /// Drops the entry (file + index); Mu must be held.
  void dropEntryLocked(const KeyT &K);
  /// Mu must be held. Evicts oldest-mtime entries until NeedBytes fit.
  void evictToFitLocked(uint64_t NeedBytes);
  bool reply(int Fd, srv::MsgType T, const uint8_t *Body, size_t Len);

  Options O;
  std::atomic<bool> Running{false};
  std::atomic<bool> StopFlag{false};
  int ListenFd = -1;
  int WakeFds[2] = {-1, -1}; ///< self-pipe: stop() writes, acceptLoop polls
  std::thread Acceptor;

  mutable std::mutex Mu;
  std::map<KeyT, Entry> Index;                      ///< guarded by Mu
  std::map<KeyT, std::shared_ptr<Pending>> InFlight; ///< guarded by Mu
  uint64_t TotalBytes = 0;                          ///< guarded by Mu
  std::map<uint64_t, std::thread> Conns;            ///< guarded by Mu
  std::vector<uint64_t> FinishedConns;              ///< guarded by Mu
  uint64_t NextConnId = 0;

  struct {
    std::atomic<uint64_t> Connections{0}, Requests{0}, Hits{0}, Misses{0},
        Coalesced{0}, Puts{0}, PutRejects{0}, Poisons{0}, Evicted{0},
        MalformedFrames{0}, BytesIn{0}, BytesOut{0};
  } St;
};

} // namespace vg

#endif // VG_SERVER_TRANSSERVER_H
