//===-- core/TransCache.h - Persistent translation cache --------*- C++ -*-==//
///
/// \file
/// The on-disk translation cache behind --tt-cache=<dir>: finished
/// translations are serialized one file per entry, keyed by (guest
/// code-byte hash, tool id, option fingerprint, format version), so a
/// later run of the same binary under the same configuration can install
/// host code without paying the eight-phase pipeline again.
///
/// Safety is by construction, not by trust in the directory contents:
///
///  - The cache key includes a hash of the live guest bytes at the entry
///    PC, and a loaded entry is only ever installed after the same
///    hashLive(Extents) == CodeHash check against the live guest bytes —
///    different code at the same address can never be served.
///  - Encoded blobs embed raw host Callee pointers (HOp::CALL), which are
///    meaningless across processes. encodeEntryFile() rewrites every
///    callee field into an index into a serialized name table; load()
///    resolves the names back through the ir callee registry. A file
///    therefore never contains a host pointer, and an unresolvable name
///    rejects the entry.
///  - Translations whose blob is position-dependent (the SMC-check
///    prelude embeds the owning Translation's address) are never stored;
///    see Translation::Cacheable.
///  - Every entry carries a whole-payload FNV-1a checksum. Truncated,
///    bit-flipped, or otherwise malformed files are reported as Malformed
///    (counted as CacheRejects by the service) and fall through to the
///    normal pipeline.
///  - The checksum only catches accidents, so the blob itself is checked
///    too (hvm::checkOperands): every opcode byte is one the encoder
///    writes, agrees with its size and op fields, and is followed by its
///    group's members; registers, guest-state offsets, spill slots and
///    call arities are in range; every JZ lands on a later instruction;
///    the blob ends in an exit; every jump kind is a real one; and the
///    exits take the entry's chain slots one each, in order, each slot's
///    target being its exit's PC when the exit is Boring and NoChainTarget
///    otherwise. A blob that passes cannot make the executor touch host
///    memory outside the guest state, the spill frame, its registers and
///    the translation's chain slots, and a slot the table links by its
///    target leads where the exit says. What it computes is not checked: a
///    well-formed blob with the wrong semantics for its guest code still
///    installs, which is why a cache directory must be as trusted as the
///    binary.
///  - Writes go to a temporary file and are renamed into place, so a
///    crashed writer leaves no half-written entry under the real name.
///
/// Same-run invalidation (redirects, munmap, ttflush — meaning changes
/// even when bytes do not) is handled by an in-memory poison-range set:
/// the service routes every invalidateRange through poison(), and a hit
/// whose extents intersect a poisoned range is rejected for the rest of
/// the run. On-disk entries are content-keyed, so they need no versioning
/// across runs: a future run installs its own redirects and re-poisons.
///
//===----------------------------------------------------------------------===//
#ifndef VG_CORE_TRANSCACHE_H
#define VG_CORE_TRANSCACHE_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace vg {

/// Bump on any change to the entry layout or to anything that alters
/// generated code without being captured by the option fingerprint. 2:
/// blobs carry specialised HVM opcode bytes (hvm::SpecOp), which a
/// version-1 build cannot decode. 3: they carry superinstruction group
/// bytes (hvm::Group), which a version-2 build cannot decode. 4: the group
/// bytes name the rows of a longer list.
constexpr uint32_t TransCacheFormatVersion = 4;

/// Same-run semantic-invalidation ranges. Redirects, unmaps, and TT
/// flushes change what an address *means* without changing its bytes, so
/// content checks cannot catch them; every invalidateRange poisons here
/// and a hit whose extents intersect is rejected for the rest of the run.
/// Shared by TransCache (--tt-cache) and by the server-only client path
/// (--tt-server without a local cache directory).
struct PoisonSet {
  /// [lo, hi) ranges; hi is 64-bit so a range reaching the top of the
  /// guest space covers byte 0xFFFFFFFF (hi == 2^32) instead of being
  /// clipped one byte short.
  std::vector<std::pair<uint32_t, uint64_t>> Ranges;
  bool All = false; ///< whole-space poison (full TT flush)

  void poison(uint32_t Addr, uint32_t Len);
  void poisonAll() { All = true; }
  bool poisoned(
      const std::vector<std::pair<uint32_t, uint32_t>> &Extents) const;
};

/// One translation in its process-independent form. Bytes hold callee
/// *name indexes* on disk; load() returns them patched back to live
/// pointers, ready for CodeBlob::Bytes.
struct TransCacheEntry {
  uint32_t Addr = 0;
  uint8_t Tier = 0;
  uint32_t NumInsns = 0;
  uint64_t CodeHash = 0;
  std::vector<std::pair<uint32_t, uint32_t>> Extents;
  uint32_t NumSpillSlots = 0;
  uint32_t NumChainSlots = 0;
  std::vector<uint32_t> ChainTargets;
  std::vector<uint8_t> Bytes;
};

class TransCache {
public:
  enum class LoadResult {
    NotFound,  ///< no entry under that key (a plain miss)
    Malformed, ///< entry exists but failed validation (a reject)
    Found,     ///< decoded and callee-resolved; caller still live-hash checks
  };

  /// \p Dir is created if missing. \p MaxBytes bounds the directory's
  /// total entry size (0 = unbounded); the oldest entries are evicted to
  /// make room. \p ConfigHash folds tool id, option fingerprint, and
  /// format version — entries from other configurations are invisible.
  TransCache(std::string Dir, uint64_t MaxBytes, uint64_t ConfigHash);

  /// The lookup key for a translation of \p PC at tier \p Hot whose guest
  /// code starts with bytes hashing to \p PrefixHash. The prefix hash only
  /// affects the hit rate, never correctness: a colliding entry either
  /// covers identical guest bytes (and is the correct, deterministic
  /// pipeline output for them) or fails the caller's live-hash check.
  static uint64_t entryKey(uint32_t PC, bool Hot, uint64_t PrefixHash);

  /// Fingerprint for the run configuration. \p Options are (name, value)
  /// pairs of every option that can influence generated code.
  static uint64_t configHash(
      const std::string &ToolId,
      const std::vector<std::pair<std::string, std::string>> &Options);

  LoadResult load(uint64_t Key, TransCacheEntry &Out);

  /// Serializes \p E into the complete on-disk file image (header +
  /// checksummed payload) under (\p ConfigHash, \p Key). Callee pointers
  /// are rewritten into name-table indexes, so the image is position- and
  /// process-independent — the form that crosses the translation-server
  /// wire. False when the entry cannot leave the process.
  static bool encodeEntryFile(uint64_t ConfigHash, uint64_t Key,
                              const TransCacheEntry &E,
                              std::vector<uint8_t> &File);

  /// Validates and decodes a file image produced by encodeEntryFile — the
  /// byte-level half of load(), shared with the translation-server client
  /// (which receives images over a socket instead of from disk) and the
  /// server daemon (which validates PUT payloads before storing them).
  /// A zero-length or truncated image is Malformed, never a hit candidate.
  /// \p ResolveCallees patches name indexes back to live pointers (what an
  /// installing client needs); the daemon passes false — pointers are
  /// meaningless in its process, but the structural walk, bounds checks,
  /// and checksum still run.
  static LoadResult decodeEntryFile(const std::vector<uint8_t> &File,
                                    uint64_t ConfigHash, uint64_t Key,
                                    TransCacheEntry &Out,
                                    bool ResolveCallees);

  /// Atomically publishes a file image from encodeEntryFile (or a
  /// validated server-fetched one) under \p Key, honouring the size
  /// budget. False when the write failed; the run simply continues
  /// without persisting that translation.
  bool storeFile(uint64_t Key, const std::vector<uint8_t> &File);

  /// The filename an entry lives under: hex16(config)-hex16(key).vgtc.
  /// Shared with the server daemon so a server directory IS a cache
  /// directory (a cold run's --tt-cache output can be served directly).
  static std::string entryFileName(uint64_t ConfigHash, uint64_t Key);

  /// Marks [Addr, Addr+Len) semantically invalid for the rest of this
  /// run: redirects and unmaps change what an address *means* without
  /// changing its bytes, so the content checks cannot catch them.
  void poison(uint32_t Addr, uint32_t Len);
  /// Marks the entire guest space invalid for the rest of this run (a full
  /// TT flush). A dedicated whole-space flag rather than poison(0, ~0u):
  /// a 32-bit length cannot express the full 4GB, so a range-based
  /// encoding would always exclude the final guest byte 0xFFFFFFFF.
  void poisonAll();
  bool poisoned(
      const std::vector<std::pair<uint32_t, uint32_t>> &Extents) const;

  /// The file an entry under \p Key lives in (tests inject corruption
  /// through this).
  std::string entryPath(uint64_t Key) const;

  const std::string &dir() const { return Dir; }
  uint64_t configHashValue() const { return ConfigHash; }
  uint64_t totalBytes() const { return TotalBytes; }
  uint64_t evictedFiles() const { return EvictedFiles; }
  uint64_t writeFailures() const { return WriteFailures; }
  /// Accounts an encodeEntryFile failure in the service's write-back.
  void noteWriteFailure() { ++WriteFailures; }

private:
  void evictToFit(uint64_t NeedBytes);

  std::string Dir;
  uint64_t MaxBytes = 0;
  uint64_t ConfigHash = 0;
  uint64_t TotalBytes = 0; ///< current on-disk usage of this config's entries
  uint64_t EvictedFiles = 0;
  uint64_t WriteFailures = 0;
  PoisonSet Poison; ///< same-run semantic invalidation
};

} // namespace vg

#endif // VG_CORE_TRANSCACHE_H
