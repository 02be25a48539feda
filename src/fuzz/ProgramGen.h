//===-- fuzz/ProgramGen.h - Seeded VG1 program generator --------*- C++ -*-==//
///
/// \file
/// Generates well-formed, terminating, encodable VG1 guest programs for
/// differential fuzzing (RefInterp oracle vs. the D&R JIT pipeline). A
/// program is a list of *atoms* — small instruction templates with enforced
/// hygiene — wrapped in a fixed scaffold (buffer allocation, a bounded
/// loop, and an observation epilogue that prints registers, flag probes,
/// an FP dump and a memory checksum to stdout).
///
/// The hygiene rules exist because the two engines run the same program at
/// *different heap addresses* (a heap-tracking tool redirects malloc to the
/// core's replacement allocator, Section 3.13). Hence:
///
///  - r1..r9 are data registers: observed in the epilogue, never hold an
///    address. Atoms that must route an address through one (syscall args)
///    re-materialise it with a constant afterwards.
///  - r10 is the loop counter, r11 the address temporary, r12 the
///    checksummed buffer base, r13 the scratch base (never checksummed) —
///    none of them observed.
///  - All generated loads/stores mask their offset into the buffer, so no
///    atom can fault or touch an absolute address.
///  - Syscall results that are legitimately nondeterministic across
///    engines (pids, clocks, kill/sigaction status with no KernelHost) are
///    overwritten with seeded constants immediately after the SYS.
///  - Signal handlers only write to scratch: natively (no KernelHost) they
///    never run, so their effects must be invisible to the observation.
///  - Self-modifying code (behind a flag) patches a block and then runs a
///    NOP sled at a decode-cache-aliasing address (+64 KiB) before
///    re-executing it — the VG1 "icache flush" idiom that makes native
///    semantics well-defined (RefInterp's predecode cache is not coherent
///    with stores, like real hardware; guest/RefInterp.h).
///
//===----------------------------------------------------------------------===//
#ifndef VG_FUZZ_PROGRAMGEN_H
#define VG_FUZZ_PROGRAMGEN_H

#include "core/GuestImage.h"
#include "support/SplitMix64.h"

#include <cstdint>
#include <string>
#include <vector>

namespace vg {
namespace fuzz {

/// Where generate() may place an atom kind.
enum class AtomWhere : uint8_t {
  Anywhere,         ///< the body or a leaf function
  Body,             ///< the body only: not leaf-safe
  BodyWithHandlers, ///< the body, when signal handlers are installed
  BodyWithLeaves,   ///< the body, when there are leaf functions to call
};

/// The atoms, one row per kind in draw order: X(Kind, "name in .vg1 case
/// files", Weight in generate()'s draws, Where). A row with a nonzero weight
/// changes every generated program. emitAtom (ProgramGen.cpp) expands each
/// kind to 1..7 instructions with the hygiene rules above baked in, reducing
/// the operand fields modulo their legal ranges, so every (Kind, A, B, C, D,
/// Imm) tuple is valid: the shrinker can mutate freely.
#define VG_FUZZ_ATOMS(X)                                                       \
  /* A=subop(14: add..divs,vadd8..vcmpgt8) B=rd C=rs D=rt */                   \
  X(Alu3, "alu3", 20, Anywhere)                                                \
  /* A=subop(5: addi,andi,shli,shri,sari) B=rd C=rs Imm */                     \
  X(AluImm, "aluimm", 12, Anywhere)                                            \
  X(MovImm, "movimm", 6, Anywhere)       /* B=rd, Imm */                       \
  X(MovReg, "movreg", 3, Anywhere)       /* B=rd, C=rs */                      \
  X(CmpRR, "cmprr", 4, Anywhere)         /* C=rs, D=rt */                      \
  X(CmpImm, "cmpimm", 4, Anywhere)       /* C=rs, Imm */                       \
  /* A=width(0=ld 1=ldb 2=ldsb 3=ldh 4=ldsh) B=rd C=src Imm=disp */            \
  X(Load, "load", 8, Anywhere)                                                 \
  /* A=width(0=st 1=stb 2=sth) C=src D=rv Imm=disp */                          \
  X(Store, "store", 8, Anywhere)                                               \
  /* A=scale B=rd C=idxsrc Imm=disp (4-aligned) */                             \
  X(LoadX, "loadx", 5, Anywhere)                                               \
  /* A=scale C=idxsrc D=rv Imm=disp (4-aligned) */                             \
  X(StoreX, "storex", 5, Anywhere)                                             \
  X(PushPop, "pushpop", 3, Anywhere)     /* push C; pop B */                   \
  X(SkipInc, "skipinc", 6, Anywhere)     /* cmp C,D; b<A> over; addi B,B,1 */  \
  /* movi r11,Imm(tag); b<A> over; st [r12+slot], r11 */                       \
  X(FlagProbe, "flagprobe", 6, Anywhere)                                       \
  /* A=subop(4: fadd,fsub,fmul,fdiv) B=fd C=fs D=ft */                         \
  X(FAlu3, "falu3", 5, Anywhere)                                               \
  /* A=subop(0=fneg 1=fmov) B=fd C=fs */                                       \
  X(FUnary, "funary", 2, Anywhere)                                             \
  X(FMovImm, "fmovimm", 3, Anywhere)     /* B=fd, Imm=raw IEEE754 bits */      \
  X(FConvI2D, "fconvi2d", 2, Anywhere)   /* fitod: B=fd C=rs */                \
  X(FConvD2I, "fconvd2i", 3, Anywhere)   /* fdtoi: B=rd C=fs (saturating) */   \
  X(FCmp, "fcmp", 3, Anywhere)           /* C=fs D=ft */                       \
  X(FLoad, "fload", 2, Anywhere)         /* B=fd C=src Imm=disp (8-aligned) */ \
  X(FStore, "fstore", 2, Anywhere)       /* C=src D=fs Imm=disp (8-aligned) */ \
  /* cpuinfo (r0/r1 get the architectural constants) */                        \
  X(CpuInfo, "cpuinfo", 1, Anywhere)                                           \
  /* movi r0,0; clreq (unknown request: returns 0 everywhere) */               \
  X(ClReq, "clreq", 1, Anywhere)                                               \
  /* write(1, buf+off, len): A=len Imm=off */                                  \
  X(SysWrite, "syswrite", 2, Body)                                             \
  /* read(0, scratch+io+off, len): A=len Imm=off */                            \
  X(SysRead, "sysread", 2, Body)                                               \
  /* ld B, [r13 + io + Imm] (deterministic stdin-backed bytes) */              \
  X(LoadIo, "loadio", 2, Anywhere)                                             \
  /* gettimeofday into scratch; r0/r1 renormalised */                          \
  X(SysTime, "systime", 1, Body)                                               \
  X(SysGetpid, "sysgetpid", 1, Body)     /* getpid; r0 renormalised */         \
  X(SysYield, "sysyield", 1, Body)       /* yield; r0 renormalised */          \
  /* kill(0, USR1/USR2): A=sig-select; r0..r2 renormalised */                  \
  X(SysKill, "syskill", 3, BodyWithHandlers)                                   \
  X(CallFn, "callfn", 3, BodyWithLeaves) /* call leaf function A */            \
  X(CallrFn, "callrfn", 2, BodyWithLeaves) /* leai r11, leaf A; callr r11 */   \
  /* leai r11,L; jmpr r11; movi B,Imm(poison); L: */                           \
  X(JmprSkip, "jmprskip", 2, Anywhere)                                         \
  /* RUNNING_ON_VALGRIND, or for odd A an unclaimed code; r0 renormed */       \
  X(ClReqCore, "clreqcore", 1, Anywhere)                                       \
  /* tool-tagged request (LG start/stop or unknown 'Z','Z') */                 \
  X(ClReqTool, "clreqtool", 1, Anywhere)

enum class AtomKind : uint8_t {
#define VG_FUZZ_ATOM_KIND(Kind, Name, Weight, Where) Kind,
  VG_FUZZ_ATOMS(VG_FUZZ_ATOM_KIND)
#undef VG_FUZZ_ATOM_KIND
};

/// What VG_FUZZ_ATOMS says about one kind.
struct AtomInfo {
  const char *Name;
  unsigned Weight;
  AtomWhere Where;
};

/// AtomInfo for every kind, indexed by AtomKind.
inline constexpr AtomInfo AtomTable[] = {
#define VG_FUZZ_ATOM_INFO(Kind, Name, Weight, Where)                           \
  {Name, Weight, AtomWhere::Where},
    VG_FUZZ_ATOMS(VG_FUZZ_ATOM_INFO)
#undef VG_FUZZ_ATOM_INFO
};
constexpr unsigned NumAtomKinds = sizeof(AtomTable) / sizeof(AtomTable[0]);

/// One generated atom. All fields are free-form; render() maps them into
/// the legal ranges.
struct Atom {
  AtomKind K = AtomKind::MovImm;
  uint8_t A = 0, B = 0, C = 0, D = 0;
  int64_t Imm = 0;
};

/// A complete generated program (plus its input). Rendering is a pure
/// function of this struct, so serialising it reproduces the run exactly.
struct FuzzProgram {
  uint64_t Seed = 0;      ///< seeds register/FPR init constants
  uint32_t LoopCount = 1; ///< body loop iterations (kept small)
  bool Signals = false;   ///< install handlers; SysKill atoms get targets
  bool Smc = false;       ///< append the self-modifying epilogue section
  std::vector<Atom> Body;
  std::vector<std::vector<Atom>> Leaves; ///< callable leaf functions
  std::string StdinData;

  unsigned totalAtoms() const {
    size_t N = Body.size();
    for (const auto &L : Leaves)
      N += L.size();
    return static_cast<unsigned>(N);
  }
};

/// Generation knobs.
struct GenOptions {
  unsigned MinBodyAtoms = 4;
  unsigned MaxBodyAtoms = 40;
  unsigned MaxLeaves = 2;
  unsigned MaxLoop = 12;
  /// 0 = never, 1 = seed-dependent (~1 in 5), 2 = always.
  int Signals = 1;
  int Smc = 1;
};

/// Deterministic generator: same (Seed, Opts) -> same program.
FuzzProgram generate(uint64_t Seed, const GenOptions &Opts = GenOptions());

/// Renders the program to a loadable image (pure function of \p P).
GuestImage render(const FuzzProgram &P);

/// Number of instructions the body's and leaves' atoms render to (the
/// repro size metric quoted by the shrinker).
unsigned bodyInstrCount(const FuzzProgram &P);

/// Textual .vg1 case format: header, atoms, and (on save) a disassembly
/// appended as comments. parse() ignores comments/blank lines.
std::string serialize(const FuzzProgram &P, bool WithDisasm = true);
bool parse(const std::string &Text, FuzzProgram &Out, std::string &Err);

/// The fuzz subsystem's PRNG.
using Rng = SplitMix64;

} // namespace fuzz
} // namespace vg

#endif // VG_FUZZ_PROGRAMGEN_H
