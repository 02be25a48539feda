//===-- core/TracerHooks.cpp - Event-trace layering -----------------------==//

#include "core/TracerHooks.h"

#include "core/Events.h"
#include "support/EventTrace.h"

#include <type_traits>

using namespace vg;

namespace {

/// Records one event: a leading int argument is the thread id (0 when the
/// callback has none), and the integer arguments after it, in order, are
/// A, B and C. Names (const char *) are not recorded.
template <typename First, typename... Rest>
void record(EventTracer *Tr, TraceEvent E, First F, Rest... R) {
  static_assert((std::is_integral_v<First> + ... + std::is_integral_v<Rest>) <=
                    3 + std::is_same_v<First, int>,
                "a trace record holds three arguments after the thread id");
  uint32_t V[3] = {};
  unsigned N = 0;
  auto Add = [&](auto X) {
    if constexpr (std::is_integral_v<decltype(X)>)
      V[N++] = static_cast<uint32_t>(X);
  };
  int Tid = 0;
  if constexpr (std::is_same_v<First, int>)
    Tid = F;
  else
    Add(F);
  (Add(R), ...);
  Tr->record(Tid, E, V[0], V[1], V[2]);
}

/// Replaces \p Hook with one that records \p E and then calls \p Hook.
template <TraceEvent E, typename... Args>
void layer(std::function<void(Args...)> &Hook, EventTracer *Tr) {
  auto Prev = Hook;
  Hook = [Tr, Prev](Args... As) {
    record(Tr, E, As...);
    if (Prev)
      Prev(As...);
  };
}

} // namespace

void vg::installTracerHooks(EventHub &Events, EventTracer *Tr) {
  if (!Tr)
    return;
  layer<TraceEvent::PreRegRead>(Events.PreRegRead, Tr);
  layer<TraceEvent::PostRegWrite>(Events.PostRegWrite, Tr);
  layer<TraceEvent::PreMemRead>(Events.PreMemRead, Tr);
  layer<TraceEvent::PreMemReadAsciiz>(Events.PreMemReadAsciiz, Tr);
  layer<TraceEvent::PreMemWrite>(Events.PreMemWrite, Tr);
  layer<TraceEvent::PostMemWrite>(Events.PostMemWrite, Tr);
  layer<TraceEvent::NewMemStartup>(Events.NewMemStartup, Tr);
  layer<TraceEvent::NewMemMmap>(Events.NewMemMmap, Tr);
  layer<TraceEvent::DieMemMunmap>(Events.DieMemMunmap, Tr);
  layer<TraceEvent::NewMemBrk>(Events.NewMemBrk, Tr);
  layer<TraceEvent::DieMemBrk>(Events.DieMemBrk, Tr);
  layer<TraceEvent::CopyMemMremap>(Events.CopyMemMremap, Tr);
  layer<TraceEvent::NewMemStack>(Events.NewMemStack, Tr);
  layer<TraceEvent::DieMemStack>(Events.DieMemStack, Tr);
  layer<TraceEvent::PostFileRead>(Events.PostFileRead, Tr);
  layer<TraceEvent::SyscallEnter>(Events.PreSyscall, Tr);
  layer<TraceEvent::SyscallExit>(Events.PostSyscall, Tr);
  layer<TraceEvent::FaultInjected>(Events.FaultInjected, Tr);
}
