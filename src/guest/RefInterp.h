//===-- guest/RefInterp.h - Reference VG1 interpreter -----------*- C++ -*-==//
///
/// \file
/// The reference interpreter: a direct, uninstrumented executor of VG1
/// machine code. It plays two roles in the reproduction:
///
///  1. "Native" execution for the Table 2 slow-down measurements — the
///     fastest way this repo can run guest code, standing in for direct
///     hardware execution.
///  2. A differential-testing oracle: tests run the same programs here and
///     under the DBI core and require identical architectural results.
///
/// It deliberately shares the decoder and flag semantics (guest/GuestArch.h)
/// with the D&R front end so the two engines cannot diverge on encodings.
///
//===----------------------------------------------------------------------===//
#ifndef VG_GUEST_REFINTERP_H
#define VG_GUEST_REFINTERP_H

#include "guest/CpuView.h"
#include "guest/GuestArch.h"
#include "guest/GuestMemory.h"

#include <vector>

namespace vg {
namespace vg1 {

/// Receives SYS instructions from the interpreter. The SimKernel implements
/// this; tests may supply stubs.
class SyscallSink {
public:
  enum class Action { Continue, Exit };
  virtual ~SyscallSink() = default;
  /// Handles one syscall. Register/memory access happens through \p Cpu.
  virtual Action onSyscall(CpuView &Cpu) = 0;
};

/// Why a run() call returned.
enum class RunStatus {
  InsnLimit, ///< executed MaxInsns instructions
  Halted,    ///< HLT instruction
  Exited,    ///< syscall sink requested exit
  Faulted,   ///< memory fault or arithmetic fault
  BadInstr,  ///< undecodable instruction
};

/// Result of a run() call.
struct RunResult {
  RunStatus Status = RunStatus::InsnLimit;
  uint64_t InsnsExecuted = 0;
  MemFault Fault;        ///< valid when Status == Faulted (memory)
  uint32_t FaultPC = 0;  ///< PC of faulting/bad instruction
};

/// Direct interpreter of VG1 code over a GuestMemory.
///
/// To be a credible stand-in for hardware execution (Table 2's "native"
/// baseline), fetch/decode is amortised through a direct-mapped predecoded
/// instruction cache — the software analogue of an instruction cache plus
/// hardware decoders. The cache is not coherent with code stores (real
/// hardware needs an explicit flush on most architectures too, Section
/// 3.16). It is direct-mapped on the low 16 address bits, so a program
/// that rewrites code it has run evicts the stale entries by running code
/// at the rewritten bytes' +64 KiB alias first, as the fuzzer's SMC atoms
/// do (DCacheAlias in fuzz/ProgramGen.cpp).
class RefInterp : public CpuView {
public:
  RefInterp(GuestMemory &Mem, SyscallSink *Sys = nullptr)
      : Memory(Mem), Sys(Sys), DCache(DCacheSize) {}

  /// Runs until HLT, exit, fault, or \p MaxInsns instructions.
  RunResult run(uint64_t MaxInsns);

  // CpuView implementation.
  uint32_t readReg(unsigned Index) const override { return R[Index]; }
  void writeReg(unsigned Index, uint32_t Value) override { R[Index] = Value; }
  uint32_t pc() const override { return PC; }
  void setPC(uint32_t Value) override { PC = Value; }
  GuestMemory &mem() override { return Memory; }

  // Architectural state (public for test assertions and result snapshots).
  uint32_t R[NumGPRs] = {};
  uint32_t PC = 0;
  uint32_t CCOpVal = 0, CCDep1 = 0, CCDep2 = 0;
  double F[NumFPRs] = {};

  /// Current NZCV, materialised from the thunk.
  uint32_t flags() const { return calcNZCV(CCOpVal, CCDep1, CCDep2); }

private:
  struct DEntry {
    uint32_t Addr = ~0u;
    Instr I;
  };
  static constexpr size_t DCacheSize = 1u << 16; // direct-mapped

  GuestMemory &Memory;
  SyscallSink *Sys;
  std::vector<DEntry> DCache;
};

} // namespace vg1
} // namespace vg

#endif // VG_GUEST_REFINTERP_H
