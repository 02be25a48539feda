//===-- core/ClientRequestEngine.cpp - Client-request dispatch ------------==//

#include "core/ClientRequestEngine.h"

#include "core/ClientRequests.h"
#include "core/Core.h"

#include <algorithm>

using namespace vg;

void ClientRequestEngine::handle(ThreadState &TS) {
  uint32_t Code = TS.gpr(0);
  uint32_t Args[4] = {TS.gpr(1), TS.gpr(2), TS.gpr(3), TS.gpr(4)};
  uint32_t Result = 0;

  switch (Code) {
  case CrDiscardTranslations:
    C.discardTranslations(Args[0], Args[1]);
    break;
  case CrStackRegister: {
    AltStacks.push_back(RegisteredStack{NextStackId, Args[0], Args[1]});
    Result = NextStackId++;
    break;
  }
  case CrStackDeregister:
    AltStacks.erase(std::remove_if(AltStacks.begin(), AltStacks.end(),
                                   [&](const RegisteredStack &R) {
                                     return R.Id == Args[0];
                                   }),
                    AltStacks.end());
    break;
  case CrStackChange:
    for (RegisteredStack &R : AltStacks) {
      if (R.Id == Args[0]) {
        R.Start = Args[1];
        R.End = Args[2];
      }
    }
    break;
  case CrPrint: {
    std::string S;
    for (uint32_t I = 0; I != 4096; ++I) {
      uint8_t B;
      if (C.Memory.read(Args[0] + I, &B, 1, true).Faulted || B == 0)
        break;
      S.push_back(static_cast<char>(B));
    }
    C.Out.printf("%s", S.c_str());
    break;
  }
  case CrRunningOnValgrind:
    Result = 1;
    break;
  case CrMalloc:
    Result = clientMalloc(TS.Tid, Args[0], /*Zeroed=*/false);
    break;
  case CrFree:
    clientFree(TS.Tid, Args[0]);
    break;
  case CrCalloc: {
    uint64_t Total = static_cast<uint64_t>(Args[0]) * Args[1];
    Result = Total > 0xFFFFFFFFull
                 ? 0
                 : clientMalloc(TS.Tid, static_cast<uint32_t>(Total),
                                /*Zeroed=*/true);
    break;
  }
  case CrRealloc:
    Result = clientRealloc(TS.Tid, Args[0], Args[1]);
    break;
  default:
    // Not a core request: offer it to the tool, which services its own
    // tagged namespace.
    if (C.ToolPlugin &&
        C.ToolPlugin->handleClientRequest(TS.Tid, Code, Args, Result))
      break;
    ++UnknownRequests;
    Result = 0; // unknown requests read as 0, like native CLREQ
    break;
  }
  TS.setGpr(0, Result);
}

int ClientRequestEngine::stackIdOf(uint32_t Addr) const {
  for (const RegisteredStack &R : AltStacks)
    if (Addr >= R.Start && Addr < R.End)
      return static_cast<int>(R.Id);
  return -1;
}

bool ClientRequestEngine::onRegisteredStack(uint32_t Addr) const {
  for (const RegisteredStack &R : AltStacks)
    if (Addr >= R.Start && Addr < R.End)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// The replacement allocator (R8)
//===----------------------------------------------------------------------===//

namespace {
constexpr uint32_t HeapArenaSize = 64u << 20;
constexpr uint32_t HeapChunk = 1u << 20;
uint32_t align16(uint32_t V) { return (V + 15) & ~15u; }
} // namespace

uint32_t ClientRequestEngine::clientMalloc(int Tid, uint32_t Size,
                                           bool Zeroed) {
  if (HeapArenaBase == 0) {
    HeapArenaBase = C.AS.findFree(HeapArenaSize, 0x60000000);
    if (!HeapArenaBase ||
        !C.AS.add(HeapArenaBase, HeapArenaSize, PermRW, SegKind::ClientMmap,
                  "replacement-heap"))
      return 0;
    HeapArenaEnd = HeapArenaBase + HeapArenaSize;
    HeapBump = HeapArenaBase;
    HeapMapped = HeapArenaBase;
  }
  uint32_t RZ = (C.ToolPlugin && C.ToolPlugin->tracksHeap())
                    ? C.ToolPlugin->redzoneBytes()
                    : 0;
  uint32_t RawSize = align16(std::max<uint32_t>(Size, 1) + 2 * RZ);

  uint32_t Raw = 0;
  // First fit over the free list.
  for (size_t I = 0; I != HeapFree.size(); ++I) {
    if (HeapFree[I].second >= RawSize) {
      Raw = HeapFree[I].first;
      if (HeapFree[I].second > RawSize) {
        HeapFree[I].first += RawSize;
        HeapFree[I].second -= RawSize;
      } else {
        HeapFree.erase(HeapFree.begin() + static_cast<long>(I));
      }
      break;
    }
  }
  if (!Raw) {
    if (HeapBump + RawSize > HeapArenaEnd)
      return 0; // arena exhausted
    Raw = HeapBump;
    HeapBump += RawSize;
    while (HeapMapped < HeapBump) {
      C.Memory.map(HeapMapped, HeapChunk, PermRW);
      HeapMapped += HeapChunk;
    }
  }

  uint32_t Payload = Raw + RZ;
  HeapLive[Payload] = Size;
  HeapMeta[Payload] = {Raw, RawSize};
  HeapLiveBytes += Size;
  if (Zeroed) {
    std::vector<uint8_t> Z(Size, 0);
    C.Memory.write(Payload, Z.data(), Size, /*IgnorePerms=*/true);
  }
  if (C.ToolPlugin)
    C.ToolPlugin->onMalloc(Tid, Payload, Size, Zeroed);
  return Payload;
}

bool ClientRequestEngine::clientFree(int Tid, uint32_t Addr) {
  if (Addr == 0)
    return true; // free(NULL)
  auto It = HeapLive.find(Addr);
  if (It == HeapLive.end()) {
    if (C.ToolPlugin)
      C.ToolPlugin->onBadFree(Tid, Addr);
    return false;
  }
  uint32_t Size = It->second;
  if (C.ToolPlugin)
    C.ToolPlugin->onFree(Tid, Addr, Size);
  auto Meta = HeapMeta[Addr];
  HeapFree.push_back(Meta);
  HeapLive.erase(It);
  HeapMeta.erase(Addr);
  HeapLiveBytes -= Size;
  return true;
}

uint32_t ClientRequestEngine::clientRealloc(int Tid, uint32_t Addr,
                                            uint32_t NewSize) {
  if (Addr == 0)
    return clientMalloc(Tid, NewSize, false);
  auto It = HeapLive.find(Addr);
  if (It == HeapLive.end()) {
    if (C.ToolPlugin)
      C.ToolPlugin->onBadFree(Tid, Addr);
    return 0;
  }
  uint32_t OldSize = It->second;
  uint32_t NewAddr = clientMalloc(Tid, NewSize, false);
  if (!NewAddr)
    return 0;
  // Copy the payload (like mremap, tools see onMalloc+onFree; Memcheck's
  // definedness copy rides on its own onMalloc/Free handling plus this
  // byte copy happening through IgnorePerms writes).
  uint32_t N = std::min(OldSize, NewSize);
  std::vector<uint8_t> Tmp(N);
  C.Memory.read(Addr, Tmp.data(), N, true);
  C.Memory.write(NewAddr, Tmp.data(), N, true);
  if (C.Events.CopyMemMremap)
    C.Events.CopyMemMremap(Addr, NewAddr, N);
  clientFree(Tid, Addr);
  return NewAddr;
}

uint32_t ClientRequestEngine::heapBlockSize(uint32_t Addr) const {
  auto It = HeapLive.find(Addr);
  return It == HeapLive.end() ? 0 : It->second;
}
