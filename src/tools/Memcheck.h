//===-- tools/Memcheck.h - The definedness checker --------------*- C++ -*-==//
///
/// \file
/// Memcheck reproduced: tracks which bit values are undefined
/// (uninitialised or derived from undefined values) and which byte
/// addresses are accessible, and reports dangerous uses:
///
///   UninitValue      an undefined value used as a load/store address
///   UninitCondition  a conditional branch depending on undefined bits
///   UninitJumpTarget an indirect jump to an undefined address
///   UninitSyscall    a syscall reading undefined registers or memory
///   InvalidRead/Write  access to unaddressable memory (heap red zones,
///                      freed blocks, below-stack, unmapped)
///   InvalidFree      free() of a non-heap pointer (or double free)
///   Leak             blocks still reachable from nowhere at exit
///
/// Mechanically it is the paper's Figure 2 instrumentation: every value
/// carries shadow V-bits (one per bit, stored one shadow byte per byte);
/// shadow registers live in the ThreadState at gso::ShadowOffset (R1);
/// shadow memory is the two-level ShadowMap (R2); every load/store is
/// instrumented (R3); syscall accesses are checked through the events
/// system (R4); allocations come from Table 1 events (R5-R7); heap
/// tracking uses the redirected allocator with red zones (R8); reports go
/// through the core's output sink and error manager (R9).
///
/// Propagation policy (documented approximations of Memcheck's exact
/// rules):
///   and/or/xor           UifU      (OR of operand V-bits)
///   add/sub/mul          Left(UifU)  — Or(x, Neg(x)) upward smear
///   shifts by constants  same shift of the V-bits
///   comparisons, FP ops, calls, widening muls: PCast (any undefined bit
///   poisons the whole result)
///   conversions          the same conversion applied to V-bits
///
//===----------------------------------------------------------------------===//
#ifndef VG_TOOLS_MEMCHECK_H
#define VG_TOOLS_MEMCHECK_H

#include "core/ClientRequests.h"
#include "core/Core.h"
#include "core/Tool.h"
#include "shadow/ShadowMemory.h"

namespace vg {

/// Memcheck's client-request namespace tag.
constexpr uint32_t McTag = vgToolTag('M', 'C');

/// Memcheck's client requests ('M','C' namespace).
enum MemcheckRequest : uint32_t {
  McMakeMemDefined = vgRequest(McTag, 1),   ///< (addr, len)
  McMakeMemUndefined = vgRequest(McTag, 2), ///< (addr, len)
  McMakeMemNoAccess = vgRequest(McTag, 3),  ///< (addr, len)
  McCheckMemIsDefined = vgRequest(McTag, 4), ///< (addr, len) -> 0 ok/first bad
  McCheckMemIsAddressable = vgRequest(McTag, 5),
  McCountErrors = vgRequest(McTag, 6), ///< () -> unique error count
};

/// Pre-namespacing flat codes (CrToolBase+N). Old guest binaries still
/// issue these; handleClientRequest keeps alias cases for them.
enum LegacyMemcheckRequest : uint32_t {
  McLegacyMakeMemDefined = CrToolBase + 1,
  McLegacyMakeMemUndefined = CrToolBase + 2,
  McLegacyMakeMemNoAccess = CrToolBase + 3,
  McLegacyCheckMemIsDefined = CrToolBase + 4,
  McLegacyCheckMemIsAddressable = CrToolBase + 5,
  McLegacyCountErrors = CrToolBase + 6,
};

class Memcheck : public Tool {
public:
  Memcheck() = default;

  const char *name() const override { return "memcheck"; }
  void registerOptions(OptionRegistry &Opts) override;
  void init(Core &C) override;
  void instrument(ir::IRSB &SB) override;
  void fini(int ExitCode) override;
  bool handleClientRequest(int Tid, uint32_t Code, const uint32_t Args[4],
                           uint32_t &Result) override;
  // Heap replacement (R8).
  bool tracksHeap() const override { return true; }
  uint32_t redzoneBytes() const override { return 16; }
  void onMalloc(int Tid, uint32_t Addr, uint32_t Size, bool Zeroed) override;
  void onFree(int Tid, uint32_t Addr, uint32_t Size) override;
  void onBadFree(int Tid, uint32_t Addr) override;

  ShadowMap *shadowMap() override { return &SM; }
  ShadowMap &shadow() { return SM; }
  uint64_t uniqueErrors() const;

  // --- helpers called from generated code (public: bound into Callee
  //     descriptors at namespace scope) ----------------------------------
  static uint64_t helperLoadV(void *Env, uint64_t Addr, uint64_t Size,
                              uint64_t PC, uint64_t);
  static uint64_t helperStoreV(void *Env, uint64_t Addr, uint64_t Vbits,
                               uint64_t SizePC, uint64_t);
  static uint64_t helperValueCheckFail(void *Env, uint64_t PC, uint64_t Size,
                                       uint64_t, uint64_t);
  static uint64_t helperCondUndef(void *Env, uint64_t PC, uint64_t,
                                  uint64_t, uint64_t);
  static uint64_t helperJumpUndef(void *Env, uint64_t PC, uint64_t, uint64_t,
                                  uint64_t);

private:
  /// Records (and on first sight prints) an error with the guest stack of
  /// thread \p Tid; -1 means the scheduler's current thread.
  void reportError(const char *Kind, const std::string &Msg, uint32_t PC,
                   int Tid = -1);
  void checkDefinedRange(int Tid, uint32_t Addr, uint32_t Len,
                         const char *What);
  void leakCheck();

  Core *C = nullptr;
  ShadowMap SM;
  bool LeakCheckEnabled = true;
};

} // namespace vg

#endif // VG_TOOLS_MEMCHECK_H
