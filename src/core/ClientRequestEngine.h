//===-- core/ClientRequestEngine.h - Client-request dispatch ----*- C++ -*-==//
///
/// \file
/// The client-request trap door of Section 3.11, extracted from the Core
/// monolith. A guest CLREQ lands here (between code blocks): the engine
/// decodes the 16-bit namespace tag, services the core's own 'C','R'
/// requests, and offers everything else to the running tool. Unrecognised
/// requests return 0 — exactly what CLREQ yields when run natively — and
/// are counted, never fatal.
///
/// The engine owns the registered-stack table (CrStackRegister and
/// friends, consulted by the stack-switch heuristic) and the replacement
/// allocator (R8), which the host redirects of the program's malloc, free,
/// calloc and realloc symbols reach (Core::loadImage).
///
//===----------------------------------------------------------------------===//
#ifndef VG_CORE_CLIENTREQUESTENGINE_H
#define VG_CORE_CLIENTREQUESTENGINE_H

#include <cstdint>
#include <map>
#include <vector>

namespace vg {

class Core;
class ThreadState;

class ClientRequestEngine {
public:
  explicit ClientRequestEngine(Core &C) : C(C) {}

  /// Services the CLREQ the thread just executed: request code in r0,
  /// arguments in r1..r4, result written back to r0.
  void handle(ThreadState &TS);

  /// Requests no namespace recognised (returned 0 to the guest).
  uint64_t unknownRequests() const { return UnknownRequests; }

  // --- registered alternative stacks (Section 3.12) ----------------------
  /// Id of the registered stack containing \p Addr, -1 if none (the
  /// SP-tracking helper's stack-switch heuristic).
  int stackIdOf(uint32_t Addr) const;
  /// True when \p Addr lies in any registered stack (SMC stack policy).
  bool onRegisteredStack(uint32_t Addr) const;

  // --- replacement allocator (R8) ----------------------------------------
  uint32_t clientMalloc(int Tid, uint32_t Size, bool Zeroed);
  bool clientFree(int Tid, uint32_t Addr);
  uint32_t clientRealloc(int Tid, uint32_t Addr, uint32_t NewSize);
  const std::map<uint32_t, uint32_t> &heapBlocks() const { return HeapLive; }
  uint64_t heapBytesLive() const { return HeapLiveBytes; }

private:
  Core &C;

  struct RegisteredStack {
    uint32_t Id, Start, End;
  };
  std::vector<RegisteredStack> AltStacks;
  uint32_t NextStackId = 1;

  uint64_t UnknownRequests = 0;

  // Replacement allocator state.
  uint32_t HeapArenaBase = 0, HeapArenaEnd = 0, HeapBump = 0;
  uint32_t HeapMapped = 0; ///< arena pages are mapped lazily up to here
  std::map<uint32_t, uint32_t> HeapLive; ///< payload addr -> size
  /// payload addr -> (raw start, raw size), including red zones.
  std::map<uint32_t, std::pair<uint32_t, uint32_t>> HeapMeta;
  std::vector<std::pair<uint32_t, uint32_t>> HeapFree; ///< addr,size (raw)
  uint64_t HeapLiveBytes = 0;
};

} // namespace vg

#endif // VG_CORE_CLIENTREQUESTENGINE_H
