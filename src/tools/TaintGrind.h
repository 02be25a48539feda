//===-- tools/TaintGrind.h - Taint tracker ----------------------*- C++ -*-==//
///
/// \file
/// A TaintCheck-style tool (paper Section 1.2): tracks which byte values
/// are *tainted* (from an untrusted source, or derived from tainted
/// values) and reports dangerous uses:
///
///   TaintedJump     an indirect jump/call whose target is tainted —
///                   TaintCheck's exploit-detection signal
///   TaintedControl  a conditional branch on tainted data (optional,
///                   --taint-branches=yes)
///   TaintedSyscall  a tainted value passed to the kernel
///
/// Sources: all bytes read from stdin and from files whose name starts
/// with "tainted:", plus the TAINT client request. The MAKE_UNTAINTED
/// request models sanitisation.
///
/// Shadow plumbing is Memcheck's: the same Phase 3 scaffold
/// (shadow/ShadowInstrumenter.h) with TaintGrind's own rules, taint
/// registers in the same first-class shadow slots (only one tool runs at a
/// time), taint memory in a page-hashed map. Propagation is pure UifU —
/// one taint bit per byte, like TaintCheck, which is why such tools run
/// faster than Memcheck (paper Section 5.4). What the kernel or the core
/// writes (post_mem_write, post_reg_write) is untainted.
///
//===----------------------------------------------------------------------===//
#ifndef VG_TOOLS_TAINTGRIND_H
#define VG_TOOLS_TAINTGRIND_H

#include "core/ClientRequests.h"
#include "core/Core.h"
#include "core/Tool.h"

#include <unordered_map>

namespace vg {

/// TaintGrind's client-request namespace tag.
constexpr uint32_t TgTag = vgToolTag('T', 'G');

/// TaintGrind's client requests ('T','G' namespace).
enum TaintRequest : uint32_t {
  TgTaint = vgRequest(TgTag, 1),     ///< (addr, len)
  TgUntaint = vgRequest(TgTag, 2),   ///< (addr, len)
  TgIsTainted = vgRequest(TgTag, 3), ///< (addr, len) -> nonzero if any
};

/// Sparse byte-granular taint plane (default: untainted).
class TaintMap {
public:
  static constexpr uint32_t PageBits = 12;
  static constexpr uint32_t PageSize = 1u << PageBits;

  void set(uint32_t Addr, uint32_t Len, bool Tainted);
  bool any(uint32_t Addr, uint32_t Len) const;
  uint64_t load(uint32_t Addr, uint32_t Size) const; ///< mask per byte
  void store(uint32_t Addr, uint32_t Size, uint64_t Mask);

private:
  std::unordered_map<uint32_t, std::array<uint8_t, PageSize>> Pages;
};

class TaintGrind : public Tool {
public:
  const char *name() const override { return "taintgrind"; }
  void registerOptions(OptionRegistry &Opts) override;
  void init(Core &C) override;
  void instrument(ir::IRSB &SB) override;
  void fini(int ExitCode) override;
  bool handleClientRequest(int Tid, uint32_t Code, const uint32_t Args[4],
                           uint32_t &Result) override;

  TaintMap &taint() { return TM; }

  static uint64_t helperLoadT(void *Env, uint64_t Addr, uint64_t Size,
                              uint64_t, uint64_t);
  static uint64_t helperStoreT(void *Env, uint64_t Addr, uint64_t Mask,
                               uint64_t Size, uint64_t);
  static uint64_t helperTaintedJump(void *Env, uint64_t PC, uint64_t,
                                    uint64_t, uint64_t);
  static uint64_t helperTaintedBranch(void *Env, uint64_t PC, uint64_t,
                                      uint64_t, uint64_t);

private:
  void report(const char *Kind, const std::string &Msg, uint32_t PC);

  Core *C = nullptr;
  TaintMap TM;
  bool CheckBranches = false;
  uint64_t TaintedInputBytes = 0;
};

} // namespace vg

#endif // VG_TOOLS_TAINTGRIND_H
