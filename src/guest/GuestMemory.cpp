//===-- guest/GuestMemory.cpp - Sparse paged guest address space ----------==//

#include "guest/GuestMemory.h"

#include <algorithm>
#include <cassert>

using namespace vg;

std::unique_ptr<GuestMemory::Page> &GuestMemory::slot(uint32_t PageIdx) {
  std::unique_ptr<Leaf> &L = Top[PageIdx >> LeafBits];
  if (!L)
    L = std::make_unique<Leaf>();
  return L->Slots[PageIdx & (LeafSize - 1)];
}

void GuestMemory::map(uint32_t Addr, uint32_t Len, uint8_t Perms) {
  if (Len == 0)
    return;
  assert(uint64_t{Addr} + Len <= (1ull << 32) && "range wraps the space");
  uint32_t First = Addr >> PageShift;
  uint32_t Last = (Addr + Len - 1) >> PageShift;
  for (uint32_t PI = First;; ++PI) {
    std::unique_ptr<Page> &P = slot(PI);
    if (!P) {
      P = std::make_unique<Page>();
      ++PageCount;
    }
    P->Perms = Perms;
    if (PI == Last)
      break;
  }
}

void GuestMemory::unmap(uint32_t Addr, uint32_t Len) {
  if (Len == 0)
    return;
  assert(uint64_t{Addr} + Len <= (1ull << 32) && "range wraps the space");
  uint32_t First = Addr >> PageShift;
  uint32_t Last = (Addr + Len - 1) >> PageShift;
  for (uint32_t PI = First;; ++PI) {
    if (Leaf *L = Top[PI >> LeafBits].get()) {
      std::unique_ptr<Page> &P = L->Slots[PI & (LeafSize - 1)];
      if (P) {
        P.reset();
        --PageCount;
      }
    }
    if (PI == Last)
      break;
  }
}

void GuestMemory::protect(uint32_t Addr, uint32_t Len, uint8_t Perms) {
  if (Len == 0)
    return;
  assert(uint64_t{Addr} + Len <= (1ull << 32) && "range wraps the space");
  uint32_t First = Addr >> PageShift;
  uint32_t Last = (Addr + Len - 1) >> PageShift;
  for (uint32_t PI = First;; ++PI) {
    if (Page *Pg = lookup(PI))
      Pg->Perms = Perms;
    if (PI == Last)
      break;
  }
}

template <bool IsWrite>
MemFault GuestMemory::access(uint32_t Addr, void *Buf, uint32_t Len,
                             uint8_t NeedPerm) const {
  uint8_t *Bytes = static_cast<uint8_t *>(Buf);
  uint32_t Done = 0;
  while (Done != Len) {
    uint32_t A = Addr + Done;
    Page *P = lookup(A >> PageShift);
    if (!P || (NeedPerm && !(P->Perms & NeedPerm)))
      return MemFault{true, A, IsWrite};
    uint32_t Off = A & (PageSize - 1);
    uint32_t Chunk = std::min(Len - Done, PageSize - Off);
    if constexpr (IsWrite)
      std::memcpy(P->Data.data() + Off, Bytes + Done, Chunk);
    else
      std::memcpy(Bytes + Done, P->Data.data() + Off, Chunk);
    Done += Chunk;
  }
  return MemFault{};
}

MemFault GuestMemory::read(uint32_t Addr, void *Out, uint32_t Len,
                           bool IgnorePerms) const {
  return access<false>(Addr, Out, Len,
                       IgnorePerms ? 0 : static_cast<uint8_t>(PermRead));
}

MemFault GuestMemory::write(uint32_t Addr, const void *Data, uint32_t Len,
                            bool IgnorePerms) {
  return access<true>(Addr, const_cast<void *>(Data), Len,
                      IgnorePerms ? 0 : static_cast<uint8_t>(PermWrite));
}

MemFault GuestMemory::fetch(uint32_t Addr, void *Out, uint32_t Len) const {
  return access<false>(Addr, Out, Len, PermExec);
}
