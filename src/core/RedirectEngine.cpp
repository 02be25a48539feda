//===-- core/RedirectEngine.cpp - Replacement and wrapping ----------------==//

#include "core/RedirectEngine.h"

#include "core/Core.h"

using namespace vg;

void RedirectEngine::redirectToHost(uint32_t Addr, HostReplacementFn Fn) {
  HostRedirects[Addr] = std::move(Fn);
  // Drop any pre-redirect translation of Addr (and cancel chain waiters
  // parked on it): a predecessor chained straight into the old code would
  // bypass the dispatcher's redirect check.
  C.XS->invalidate(Addr, 1);
}

void RedirectEngine::redirectSymbolToHost(const std::string &Symbol,
                                          HostReplacementFn Fn) {
  if (auto It = ImageSymbols.find(Symbol); It != ImageSymbols.end()) {
    HostRedirects[It->second] = std::move(Fn);
    C.XS->invalidate(It->second, 1); // drop any pre-redirect translation
    return;
  }
  PendingSymbolRedirects[Symbol] = std::move(Fn);
}

void RedirectEngine::redirectGuest(uint32_t From, uint32_t To) {
  GuestRedirects[From] = To;
  // Any existing translation entered at From must go (and chasing through
  // From could have inlined it elsewhere, so scrub the byte too).
  C.XS->invalidate(From, 1);
}

void RedirectEngine::wrap(uint32_t Addr, WrapHooks Hooks) {
  // The wrapper is an ordinary host replacement whose body is: Pre hook,
  // call the original (arming the one-shot bypass so the dispatch at Addr
  // reaches the real code instead of recursing into this wrapper), Post
  // hook with the original's result, which it may rewrite. Recursion in
  // the wrapped function is safe: the inner dispatch of Addr sees the
  // replacement again and re-wraps, exactly like the outer call did.
  redirectToHost(
      Addr, [this, Addr, Hooks = std::move(Hooks)](Core &Core_,
                                                   ThreadState &TS) {
        if (Hooks.Pre)
          Hooks.Pre(Core_, TS);
        std::vector<uint32_t> Args = {TS.gpr(1), TS.gpr(2), TS.gpr(3),
                                      TS.gpr(4), TS.gpr(5)};
        BypassOnce = Addr;
        uint32_t Result = Core_.callGuest(TS, Addr, Args);
        if (Hooks.Post)
          Hooks.Post(Core_, TS, Result);
        TS.setGpr(0, Result);
      });
}

void RedirectEngine::wrapSymbol(const std::string &Symbol, WrapHooks Hooks) {
  if (auto It = ImageSymbols.find(Symbol); It != ImageSymbols.end()) {
    wrap(It->second, std::move(Hooks));
    return;
  }
  PendingSymbolWraps[Symbol] = std::move(Hooks);
}

void RedirectEngine::setImageSymbols(
    const std::map<std::string, uint32_t> &Symbols) {
  ImageSymbols = Symbols;
  for (auto &[Sym, Fn] : PendingSymbolRedirects)
    if (auto It = ImageSymbols.find(Sym); It != ImageSymbols.end())
      HostRedirects[It->second] = Fn;
  for (auto &[Sym, Hooks] : PendingSymbolWraps)
    if (ImageSymbols.count(Sym))
      wrap(ImageSymbols.at(Sym), Hooks);
  PendingSymbolWraps.clear();
}
