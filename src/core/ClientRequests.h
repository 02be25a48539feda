//===-- core/ClientRequests.h - The client-request trap door ----*- C++ -*-==//
///
/// \file
/// Client requests (Section 3.11): a guest program executes CLREQ with a
/// request code in r0 and arguments in r1..r4; the result is returned in
/// r0. Running natively (no Valgrind), CLREQ returns 0 — exactly the
/// behaviour of the real macros outside Valgrind.
///
/// Request codes are namespaced the way real Valgrind's VG_USERREQ codes
/// are: the top 16 bits carry a two-character owner tag and the low 16
/// bits the request number within that namespace —
///
///     code = (tag << 16) | number,   tag = (first << 8) | second
///
/// The core owns the 'C','R' namespace; each tool claims its own tag
/// ('M','C' for Memcheck, 'T','G' for TaintGrind, 'L','G' for Loopgrind).
/// ClientRequestEngine decodes the tag and routes: core-tagged requests
/// are serviced in the core, anything else is offered to the running
/// tool's Tool::handleClientRequest(); unrecognised requests return 0 and
/// are counted, never fatal.
///
//===----------------------------------------------------------------------===//
#ifndef VG_CORE_CLIENTREQUESTS_H
#define VG_CORE_CLIENTREQUESTS_H

#include <cstdint>

namespace vg {

/// Builds a 16-bit namespace tag from two printable characters — the
/// VG_USERREQ_TOOL_BASE('X','Y') of the real macros.
constexpr uint32_t vgToolTag(char First, char Second) {
  return (static_cast<uint32_t>(static_cast<uint8_t>(First)) << 8) |
         static_cast<uint8_t>(Second);
}

/// Builds a full request code from a namespace tag and a request number.
constexpr uint32_t vgRequest(uint32_t Tag, uint32_t Number) {
  return (Tag << 16) | (Number & 0xFFFFu);
}

/// The namespace tag of a request code.
constexpr uint32_t vgRequestTag(uint32_t Code) { return Code >> 16; }

/// The core's own namespace.
constexpr uint32_t CrCoreTag = vgToolTag('C', 'R');

enum ClientRequest : uint32_t {
  /// Discard cached translations of [arg1, arg1+arg2) — for dynamic code
  /// generators (Section 3.16).
  CrDiscardTranslations = vgRequest(CrCoreTag, 0x0001),
  /// Register a stack [arg1=start(low), arg2=end(high)); returns an id.
  /// (Section 3.12: help for stack-switch detection in tricky cases.)
  CrStackRegister = vgRequest(CrCoreTag, 0x0002),
  /// Deregister stack arg1.
  CrStackDeregister = vgRequest(CrCoreTag, 0x0003),
  /// Change stack arg1 to [arg2, arg3).
  CrStackChange = vgRequest(CrCoreTag, 0x0004),
  /// Print the NUL-terminated string at arg1 on the tool output channel.
  CrPrint = vgRequest(CrCoreTag, 0x0005),
  /// True (1) when running under the core — lets guest code detect it.
  CrRunningOnValgrind = vgRequest(CrCoreTag, 0x0006),

  // --- replacement-allocator requests (issued by guestlib malloc etc.,
  //     the moral equivalent of Valgrind's vgpreload stubs; R8) ----------
  CrMalloc = vgRequest(CrCoreTag, 0x0101),  ///< arg1=size -> payload (0=OOM)
  CrFree = vgRequest(CrCoreTag, 0x0102),    ///< arg1=addr
  CrCalloc = vgRequest(CrCoreTag, 0x0103),  ///< arg1=n, arg2=sz -> zeroed
  CrRealloc = vgRequest(CrCoreTag, 0x0104), ///< arg1=addr, arg2=newsize
};

} // namespace vg

#endif // VG_CORE_CLIENTREQUESTS_H
