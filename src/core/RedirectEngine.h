//===-- core/RedirectEngine.h - Replacement and wrapping --------*- C++ -*-==//
///
/// \file
/// Function redirection, replacement, and wrapping (Section 3.13),
/// extracted from the Core monolith. The engine owns the redirection
/// tables the dispatch engines consult at every dispatcher entry:
///
///   guest->guest   calls to From run To instead (redirectGuest)
///   guest->host    the function at Addr is replaced by host code
///                  (redirectToHost / redirectSymbolToHost)
///   wrapping       pre/post hooks around the original guest function,
///                  layered on a host redirect that calls back into the
///                  guest (wrap / wrapSymbol)
///
/// Wrapping protocol: the wrapper's host redirect runs the Pre hook, then
/// re-enters the wrapped guest function via Core::callGuest with a
/// one-shot redirect bypass (so the dispatcher does not loop back into the
/// wrapper), then runs the Post hook with the original's result, which it
/// may rewrite.
///
/// Registering any redirect invalidates existing translations of the
/// target byte: a predecessor chained straight into the old code would
/// bypass the dispatcher's redirect check.
///
//===----------------------------------------------------------------------===//
#ifndef VG_CORE_REDIRECTENGINE_H
#define VG_CORE_REDIRECTENGINE_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>

namespace vg {

class Core;
class ThreadState;

/// A host-side function replacement: runs instead of a guest function.
/// Reads its arguments from the thread's registers (r1..), writes its
/// result to r0. Entered via the guest CALL convention; the core performs
/// the return.
using HostReplacementFn = std::function<void(Core &C, ThreadState &TS)>;

/// Wrapping hooks (Section 3.13 "function wrapping"). Pre runs before the
/// wrapped function with the thread state at call entry (arguments in
/// r1..r5); Post runs after it and may rewrite the result the caller sees.
struct WrapHooks {
  std::function<void(Core &C, ThreadState &TS)> Pre;
  std::function<void(Core &C, ThreadState &TS, uint32_t &Result)> Post;
};

class RedirectEngine {
public:
  explicit RedirectEngine(Core &C) : C(C) {}

  // --- registration ------------------------------------------------------
  void redirectToHost(uint32_t Addr, HostReplacementFn Fn);
  void redirectSymbolToHost(const std::string &Symbol, HostReplacementFn Fn);
  void redirectGuest(uint32_t From, uint32_t To);
  /// Wraps the guest function at \p Addr with pre/post hooks; the original
  /// still runs (via call-into-guest) between them.
  void wrap(uint32_t Addr, WrapHooks Hooks);
  /// Like wrap, resolved against the image symbol table (before or after
  /// loadImage).
  void wrapSymbol(const std::string &Symbol, WrapHooks Hooks);

  /// loadImage hands the image's symbol table over; pending symbol
  /// redirects/wraps resolve here and later registrations resolve
  /// immediately.
  void setImageSymbols(const std::map<std::string, uint32_t> &Symbols);
  /// Resolved address of \p Symbol (0 if unknown).
  uint32_t symbolAddr(const std::string &Symbol) const;

  // --- dispatcher queries (every dispatcher entry; keep inline) ----------
  /// Guest->guest redirect target for \p PC, or null.
  const uint32_t *guestTarget(uint32_t PC) const {
    auto It = GuestRedirects.find(PC);
    return It == GuestRedirects.end() ? nullptr : &It->second;
  }
  /// Host replacement registered at \p PC, or null. Consumes the one-shot
  /// wrapping bypass: the first dispatch of the bypass address after a
  /// wrapper armed it sees no replacement (that is how the wrapper's
  /// call-into-guest reaches the original instead of itself).
  const HostReplacementFn *hostReplacement(uint32_t PC) {
    if (PC == BypassOnce) {
      BypassOnce = NoBypass;
      return nullptr;
    }
    auto It = HostRedirects.find(PC);
    return It == HostRedirects.end() ? nullptr : &It->second;
  }

private:
  static constexpr uint32_t NoBypass = 0xFFFFFFFFu;

  Core &C;
  std::map<uint32_t, HostReplacementFn> HostRedirects;
  std::map<std::string, HostReplacementFn> PendingSymbolRedirects;
  std::map<std::string, WrapHooks> PendingSymbolWraps;
  std::map<uint32_t, uint32_t> GuestRedirects;
  std::map<std::string, uint32_t> ImageSymbols;
  /// One-shot wrapping bypass address (see hostReplacement above).
  uint32_t BypassOnce = NoBypass;
};

} // namespace vg

#endif // VG_CORE_REDIRECTENGINE_H
