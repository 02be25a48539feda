//===-- server/TransServerClient.h - --tt-server client ---------*- C++ -*-==//
///
/// \file
/// The vgrun side of the translation server: fetches entry file images by
/// content-hash key on a local-cache miss, pushes freshly-compiled images
/// back (that is how a daemon warms), and forwards poison notifications.
///
/// The transport carries production-shape robustness so a sick daemon can
/// never stall or crash a guest run:
///
///  - every request runs under a per-request deadline (poll-based, never
///    a blocking read);
///  - a failed attempt is retried a bounded number of times with
///    exponential backoff, reconnecting each time;
///  - after MaxStrikes *consecutive* failed requests the client latches
///    dead for the rest of the run — subsequent lookups skip the socket
///    entirely (counted as fallbacks) and settle from the local cache or
///    the inline JIT. The degradation ladder never goes the other way:
///    a translation is installed from the server only after the SAME
///    validation a local --tt-cache file gets.
///
/// Called only from the translation service: lookups happen in
/// translateSync and write-backs after installs, so no locking is needed.
///
//===----------------------------------------------------------------------===//
#ifndef VG_SERVER_TRANSSERVERCLIENT_H
#define VG_SERVER_TRANSSERVERCLIENT_H

#include "server/TransProto.h"

#include <cstdint>
#include <string>
#include <vector>

namespace vg {

class TransServerClient {
public:
  struct Config {
    std::string SocketPath;
    int TimeoutMs = 200; ///< per-request deadline (--tt-server-timeout-ms)
    int MaxRetries = 2;  ///< re-attempts after a failed attempt
    int MaxStrikes = 3;  ///< consecutive failed requests before latching dead
    int BackoffBaseMs = 1; ///< backoff = base << attempt, capped at 50ms
  };

  enum class FetchResult {
    Hit,    ///< image returned (caller still validates + live-hash checks)
    Miss,   ///< daemon has no entry under that key
    Failed, ///< timeout/EOF/malformed/dead — degrade down the ladder
  };

  /// Per-call transport detail, folded into JitStats by the service so the
  /// profile counters stay guest-thread-owned plain fields.
  struct CallStats {
    bool Attempted = false; ///< the socket was actually tried (not dead-skip)
    uint32_t Retries = 0;
    uint32_t Timeouts = 0;
  };

  /// Lifetime totals (protocol-level tests read these directly).
  struct Stats {
    uint64_t Requests = 0; ///< requests that reached the transport
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Timeouts = 0;
    uint64_t Retries = 0;
    uint64_t Fallbacks = 0; ///< requests that settled as Failed (incl. dead skips)
    uint64_t Puts = 0;
    uint64_t PutFailures = 0;
    uint64_t Reconnects = 0;
    uint64_t BytesFetched = 0;
    uint64_t BytesSent = 0;
  };

  explicit TransServerClient(Config C) : C(std::move(C)) {}
  ~TransServerClient();

  TransServerClient(const TransServerClient &) = delete;
  TransServerClient &operator=(const TransServerClient &) = delete;

  /// False once the strike budget is spent: the daemon is treated as gone
  /// for the rest of the run and every call degrades instantly.
  bool alive() const { return !Dead; }

  /// Fetches the entry image under (\p Cfg, \p Key). On Hit, \p Image
  /// holds the raw VGTC file bytes — NOT yet validated; the caller runs
  /// them through TransCache::decodeEntryFile plus the live-hash check
  /// before anything installs.
  FetchResult get(uint64_t Cfg, uint64_t Key, std::vector<uint8_t> &Image,
                  CallStats *CS = nullptr);

  /// Pushes a freshly-encoded image (best-effort; false on any failure).
  bool put(uint64_t Cfg, uint64_t Key, const std::vector<uint8_t> &Image,
           CallStats *CS = nullptr);

  /// Poison notifications: the daemon evicts entries of this config whose
  /// extents intersect (or all of them). Best-effort, bounded like any
  /// other request; failures are swallowed — local poison bookkeeping is
  /// what guarantees correctness, this only keeps the daemon fresh.
  void poison(uint64_t Cfg, uint32_t Addr, uint32_t Len,
              CallStats *CS = nullptr);
  void poisonAll(uint64_t Cfg, CallStats *CS = nullptr);

  const Stats &stats() const { return S; }
  const Config &config() const { return C; }

private:
  /// One deadline-bounded, retried request/response exchange. False when
  /// every attempt failed (the strike path).
  bool request(srv::MsgType Type, const std::vector<uint8_t> &Body,
               srv::Frame &Reply, CallStats *CS);
  void closeFd();

  Config C;
  Stats S;
  int Fd = -1;
  int Strikes = 0;
  bool Dead = false;
};

} // namespace vg

#endif // VG_SERVER_TRANSSERVERCLIENT_H
