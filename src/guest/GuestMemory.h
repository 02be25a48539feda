//===-- guest/GuestMemory.h - Sparse paged guest address space --*- C++ -*-==//
///
/// \file
/// The client's user-mode address space (the "S" of Section 2): a sparse,
/// demand-allocated, 4KB-paged 32-bit memory with per-page permissions.
/// All guest loads/stores — from the reference interpreter, the HVM-executed
/// translations, and the simulated kernel — go through this object, so a
/// single permission model yields guest SIGSEGVs uniformly.
///
/// The page table is a two-level radix tree (1024 x 1024 leaves covering
/// the 2^20 pages), so a lookup is two loads and costs nothing for the
/// unmapped expanse of a sparse address space.
///
//===----------------------------------------------------------------------===//
#ifndef VG_GUEST_GUESTMEMORY_H
#define VG_GUEST_GUESTMEMORY_H

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>

namespace vg {

/// Page permission bits.
enum MemPerm : uint8_t {
  PermNone = 0,
  PermRead = 1,
  PermWrite = 2,
  PermExec = 4,
  PermRW = PermRead | PermWrite,
  PermRX = PermRead | PermExec,
  PermRWX = PermRead | PermWrite | PermExec,
};

/// Result of a guest memory access attempt.
struct MemFault {
  bool Faulted = false;
  uint32_t Addr = 0;     ///< first faulting byte
  bool WasWrite = false; ///< access direction
};

/// Sparse paged 32-bit guest memory.
class GuestMemory {
public:
  static constexpr uint32_t PageSize = 4096;
  static constexpr uint32_t PageShift = 12;

  GuestMemory() = default;
  GuestMemory(const GuestMemory &) = delete;
  GuestMemory &operator=(const GuestMemory &) = delete;

  /// Maps [Addr, Addr+Len) with \p Perms, zero-filling fresh pages.
  /// Page-granular; Addr/Len are rounded outward. Re-mapping an existing
  /// page just updates its permissions (contents preserved).
  void map(uint32_t Addr, uint32_t Len, uint8_t Perms);

  /// Unmaps (discards) all pages intersecting [Addr, Addr+Len).
  void unmap(uint32_t Addr, uint32_t Len);

  /// Changes permissions on already-mapped pages in the range. Pages not
  /// mapped are skipped.
  void protect(uint32_t Addr, uint32_t Len, uint8_t Perms);

  bool isMapped(uint32_t Addr) const { return lookup(Addr >> PageShift); }

  /// Reads \p Len bytes. Requires PermRead on every page unless
  /// \p IgnorePerms (used by kernel/tool accesses which are not subject to
  /// guest protections). Returns fault info.
  MemFault read(uint32_t Addr, void *Out, uint32_t Len,
                bool IgnorePerms = false) const;

  /// Writes \p Len bytes, requiring PermWrite unless \p IgnorePerms.
  MemFault write(uint32_t Addr, const void *Data, uint32_t Len,
                 bool IgnorePerms = false);

  /// Instruction fetch: requires PermExec.
  MemFault fetch(uint32_t Addr, void *Out, uint32_t Len) const;

  // Typed convenience accessors (checked; return fault). Within-page
  // accesses take a fixed-size fast path; page-straddling ones fall back
  // to the generic byte-exact walker.
  template <typename T> MemFault readT(uint32_t A, T &V) const {
    Page *P = lookup(A >> PageShift);
    uint32_t Off = A & (PageSize - 1);
    if (P && (P->Perms & PermRead) && Off <= PageSize - sizeof(T)) {
      std::memcpy(&V, P->Data.data() + Off, sizeof(T));
      return MemFault{};
    }
    return read(A, &V, sizeof(T));
  }
  template <typename T> MemFault writeT(uint32_t A, T V) {
    Page *P = lookup(A >> PageShift);
    uint32_t Off = A & (PageSize - 1);
    if (P && (P->Perms & PermWrite) && Off <= PageSize - sizeof(T)) {
      std::memcpy(P->Data.data() + Off, &V, sizeof(T));
      return MemFault{};
    }
    return write(A, &V, sizeof(T));
  }
  MemFault readU8(uint32_t A, uint8_t &V) const { return readT(A, V); }
  MemFault readU16(uint32_t A, uint16_t &V) const { return readT(A, V); }
  MemFault readU32(uint32_t A, uint32_t &V) const { return readT(A, V); }
  MemFault readU64(uint32_t A, uint64_t &V) const { return readT(A, V); }
  MemFault writeU8(uint32_t A, uint8_t V) { return writeT(A, V); }
  MemFault writeU16(uint32_t A, uint16_t V) { return writeT(A, V); }
  MemFault writeU32(uint32_t A, uint32_t V) { return writeT(A, V); }
  MemFault writeU64(uint32_t A, uint64_t V) { return writeT(A, V); }

  uint64_t pagesAllocated() const { return PageCount; }

private:
  struct Page {
    std::array<uint8_t, PageSize> Data{}; ///< zero-filled on map
    uint8_t Perms = PermNone;
  };

  // Two-level radix split of the 20-bit page index.
  static constexpr uint32_t TopBits = 10;
  static constexpr uint32_t LeafBits = 10;
  static constexpr uint32_t TopSize = 1u << TopBits;
  static constexpr uint32_t LeafSize = 1u << LeafBits;

  struct Leaf {
    std::array<std::unique_ptr<Page>, LeafSize> Slots;
  };

  Page *lookup(uint32_t PageIdx) const {
    const Leaf *L = Top[PageIdx >> LeafBits].get();
    return L ? L->Slots[PageIdx & (LeafSize - 1)].get() : nullptr;
  }

  /// The page slot for \p PageIdx, allocating its leaf if absent.
  std::unique_ptr<Page> &slot(uint32_t PageIdx);

  template <bool IsWrite>
  MemFault access(uint32_t Addr, void *Buf, uint32_t Len,
                  uint8_t NeedPerm) const;

  std::array<std::unique_ptr<Leaf>, TopSize> Top;
  uint64_t PageCount = 0;
};

} // namespace vg

#endif // VG_GUEST_GUESTMEMORY_H
