//===-- core/Events.h - The events system (Table 1) -------------*- C++ -*-==//
///
/// \file
/// Valgrind's events system (Section 3.12): the IR cannot describe guest
/// state changes made by system calls, start-up allocations, or stack
/// growth, so the core describes them through these callbacks. A tool
/// registers a callback per event; the core and the system-call wrappers
/// fire them. The events, with each one's requirement and trigger site,
/// are the rows of VG_HUB_EVENTS (support/HubEvents.h).
///
//===----------------------------------------------------------------------===//
#ifndef VG_CORE_EVENTS_H
#define VG_CORE_EVENTS_H

#include "support/HubEvents.h"

#include <functional>
#include <type_traits>

namespace vg {

/// Event callbacks a tool may register. Null members are simply skipped,
/// so lightweight tools pay nothing for events they ignore.
struct EventHub {
#define VG_HUB_MEMBER(Member, Dump, Req, Trigger, Params)                      \
  std::function<void Params> Member;
  VG_HUB_EVENTS(VG_HUB_MEMBER)
#undef VG_HUB_MEMBER

  /// True when a tool wants stack events: the core only instruments SP
  /// changes in that case (they are frequent and therefore costly,
  /// Section 2 R7).
  bool wantsStackEvents() const {
    return static_cast<bool>(NewMemStack) || static_cast<bool>(DieMemStack);
  }

  /// Fires callback \p Cb (e.g. &EventHub::NewMemStack) with \p Args, if
  /// one is registered.
  template <auto Cb, typename... Ts> void fire(Ts... Args) const {
    if (this->*Cb)
      (this->*Cb)(Args...);
  }

  /// Puts a listener in front of callback \p Cb: from now on each firing
  /// calls Fn()(Ctx, args...), then whatever was registered before. \p Fn
  /// must be captureless; the new callback holds \p Ctx and a copy of the
  /// old one.
  template <auto Cb, typename Ctx, typename Fn> void layer(Ctx *C, Fn) {
    static_assert(std::is_empty_v<Fn>, "a listener carries no state");
    auto &Hook = this->*Cb;
    auto Prev = Hook;
    Hook = [C, Prev](auto... As) {
      Fn()(C, As...);
      if (Prev)
        Prev(As...);
    };
  }
};

} // namespace vg

#endif // VG_CORE_EVENTS_H
