//===-- fuzz/ProgramGen.cpp - Seeded VG1 program generator ----------------==//

#include "fuzz/ProgramGen.h"

#include "core/ClientRequests.h"
#include "core/Core.h"
#include "guest/Decoder.h"
#include "guest/Disasm.h"
#include "guest/GuestMemory.h"
#include "guestlib/GuestLib.h"
#include "kernel/SimKernel.h"
#include "support/Errors.h"

#include <cstring>
#include <sstream>

using namespace vg;
using namespace vg::fuzz;
using vg1::Assembler;
using vg1::Cond;
using vg1::FReg;
using vg1::Label;
using vg1::Reg;

//===----------------------------------------------------------------------===//
// Fixed layout of the generated program
//===----------------------------------------------------------------------===//

namespace {

// Checksummed buffer (r12): atom load/store playground, then the
// observation areas the epilogue fills.
constexpr uint32_t BodyBytes = 0x1000;       // atom load/store region
constexpr uint32_t FpDumpBase = 0x1000;      // 8 F64 slots
constexpr uint32_t ProbeBase = 0x1040;       // 16 in-body flag-probe slots
constexpr uint32_t FinalFlagBase = 0x1080;   // 10 final condition slots
constexpr uint32_t BufBytes = 0x10A8;        // total (4-byte multiple)

// Scratch (r13): never checksummed. [0,16) syscall sink + handler slot,
// [16, 0x200) deterministic I/O area (read(2) target, LoadIo source).
constexpr uint32_t ScratchBytes = 0x200;
constexpr uint32_t IoBase = 16;

// RefInterp's predecode cache is direct-mapped on the low 16 address bits;
// executing code at +64 KiB evicts the aliased entries (the "icache
// flush" idiom the SMC section relies on).
constexpr uint32_t DCacheAlias = 1u << 16;

constexpr uint32_t NumProbeSlots = 16;

Reg dataReg(unsigned V) { return static_cast<Reg>(1 + V % 9); }
FReg fpReg(unsigned V) { return static_cast<FReg>(V % 8); }
Cond cond(unsigned V) { return static_cast<Cond>(V % vg1::NumConds); }

/// Non-negative modulo of the (possibly negative) atom immediate — every
/// derived displacement must stay inside the buffer.
uint32_t umod(int64_t Imm, uint32_t M) {
  return static_cast<uint32_t>(static_cast<uint64_t>(Imm) % M);
}

/// Deterministic per-atom constant used to renormalise registers that held
/// engine-dependent values (addresses, kernel results).
uint32_t normConst(const Atom &At, uint32_t Salt) {
  uint64_t H = Salt * 0x9E3779B97F4A7C15ull;
  H ^= (uint64_t)At.A << 8 | (uint64_t)At.B << 16 | (uint64_t)At.C << 24;
  H ^= (uint64_t)At.Imm * 0xBF58476D1CE4E5B9ull;
  H ^= H >> 29;
  return static_cast<uint32_t>(H * 0x94D049BB133111EBull >> 32);
}

//===----------------------------------------------------------------------===//
// Atom rendering
//===----------------------------------------------------------------------===//

struct RenderCtx {
  Assembler &Code;
  std::vector<Label> LeafL;
  unsigned ProbeSlot = 0;

  explicit RenderCtx(Assembler &C) : Code(C) {}

  void emitAtom(const Atom &At) {
    Assembler &A = Code;
    Reg Rd = dataReg(At.B), Rs = dataReg(At.C), Rt = dataReg(At.D);
    switch (At.K) {
    case AtomKind::Alu3:
      switch (At.A % 14) {
      case 0: A.add(Rd, Rs, Rt); break;
      case 1: A.sub(Rd, Rs, Rt); break;
      case 2: A.and_(Rd, Rs, Rt); break;
      case 3: A.or_(Rd, Rs, Rt); break;
      case 4: A.xor_(Rd, Rs, Rt); break;
      case 5: A.shl(Rd, Rs, Rt); break;
      case 6: A.shr(Rd, Rs, Rt); break;
      case 7: A.sar(Rd, Rs, Rt); break;
      case 8: A.mul(Rd, Rs, Rt); break;
      case 9: A.divu(Rd, Rs, Rt); break;
      case 10: A.divs(Rd, Rs, Rt); break;
      case 11: A.vadd8(Rd, Rs, Rt); break;
      case 12: A.vsub8(Rd, Rs, Rt); break;
      case 13: A.vcmpgt8(Rd, Rs, Rt); break;
      }
      break;
    case AtomKind::AluImm:
      switch (At.A % 5) {
      case 0: A.addi(Rd, Rs, static_cast<int32_t>(At.Imm)); break;
      case 1: A.andi(Rd, Rs, static_cast<uint32_t>(At.Imm)); break;
      // imm8 deliberately unreduced: amounts >= 32 probe the shift-mask
      // agreement between RefInterp, evalOp and the host JIT.
      case 2: A.shli(Rd, Rs, static_cast<uint8_t>(At.Imm)); break;
      case 3: A.shri(Rd, Rs, static_cast<uint8_t>(At.Imm)); break;
      case 4: A.sari(Rd, Rs, static_cast<uint8_t>(At.Imm)); break;
      }
      break;
    case AtomKind::MovImm:
      A.movi(Rd, static_cast<uint32_t>(At.Imm));
      break;
    case AtomKind::MovReg:
      A.mov(Rd, Rs);
      break;
    case AtomKind::CmpRR:
      A.cmp(Rs, Rt);
      break;
    case AtomKind::CmpImm:
      A.cmpi(Rs, static_cast<int32_t>(At.Imm));
      break;
    case AtomKind::Load: {
      // r11 = r12 + (rs & mask); then a displaced (possibly unaligned)
      // load that stays inside [0, BodyBytes).
      unsigned W = At.A % 5;
      A.andi(Reg::R11, Rs, 0xFF8);
      A.add(Reg::R11, Reg::R11, Reg::R12);
      switch (W) {
      case 0: // word: disp 0..4 covers unaligned accesses
        A.ld(Rd, Reg::R11, static_cast<int16_t>(umod(At.Imm, 5)));
        break;
      case 1:
        A.ldb(Rd, Reg::R11, static_cast<int16_t>(umod(At.Imm, 8)));
        break;
      case 2:
        A.ldsb(Rd, Reg::R11, static_cast<int16_t>(umod(At.Imm, 8)));
        break;
      case 3:
        A.ldh(Rd, Reg::R11, static_cast<int16_t>(umod(At.Imm, 7)));
        break;
      case 4:
        A.ldsh(Rd, Reg::R11, static_cast<int16_t>(umod(At.Imm, 7)));
        break;
      }
      break;
    }
    case AtomKind::Store: {
      unsigned W = At.A % 3;
      A.andi(Reg::R11, Rs, 0xFF8);
      A.add(Reg::R11, Reg::R11, Reg::R12);
      switch (W) {
      case 0:
        A.st(Reg::R11, static_cast<int16_t>(umod(At.Imm, 5)), Rt);
        break;
      case 1:
        A.stb(Reg::R11, static_cast<int16_t>(umod(At.Imm, 8)), Rt);
        break;
      case 2:
        A.sth(Reg::R11, static_cast<int16_t>(umod(At.Imm, 7)), Rt);
        break;
      }
      break;
    }
    case AtomKind::LoadX: {
      uint8_t S = At.A % 4;
      A.andi(Reg::R11, Rs, 0xFC); // 4-aligned index, (0xFC<<3)+60 < BodyBytes
      A.ldx(Rd, Reg::R12, Reg::R11, S,
            static_cast<int32_t>(umod(At.Imm, 16) * 4));
      break;
    }
    case AtomKind::StoreX: {
      uint8_t S = At.A % 4;
      A.andi(Reg::R11, Rs, 0xFC);
      A.stx(Reg::R12, Reg::R11, S, static_cast<int32_t>(umod(At.Imm, 16) * 4),
            Rt);
      break;
    }
    case AtomKind::PushPop:
      A.push(Rs);
      A.pop(Rd);
      break;
    case AtomKind::SkipInc: {
      Label L = A.newLabel();
      A.cmp(Rs, Rt);
      A.bcc(cond(At.A), L);
      A.addi(Rd, Rd, 1);
      A.bind(L);
      break;
    }
    case AtomKind::FlagProbe: {
      // Records "condition was false" for whatever thunk the previous
      // atoms left, into a dedicated slot (movi/bcc/st set no flags).
      unsigned Slot = ProbeSlot++ % NumProbeSlots;
      Label L = A.newLabel();
      A.movi(Reg::R11, static_cast<uint32_t>(At.Imm) | 1);
      A.bcc(cond(At.A), L);
      A.st(Reg::R12, static_cast<int16_t>(ProbeBase + Slot * 4), Reg::R11);
      A.bind(L);
      break;
    }
    case AtomKind::FAlu3: {
      FReg Fd = fpReg(At.B), Fs = fpReg(At.C), Ft = fpReg(At.D);
      switch (At.A % 4) {
      case 0: A.fadd(Fd, Fs, Ft); break;
      case 1: A.fsub(Fd, Fs, Ft); break;
      case 2: A.fmul(Fd, Fs, Ft); break;
      case 3: A.fdiv(Fd, Fs, Ft); break;
      }
      break;
    }
    case AtomKind::FUnary:
      if (At.A % 2)
        A.fmov(fpReg(At.B), fpReg(At.C));
      else
        A.fneg(fpReg(At.B), fpReg(At.C));
      break;
    case AtomKind::FMovImm: {
      double V;
      uint64_t Bits = static_cast<uint64_t>(At.Imm);
      std::memcpy(&V, &Bits, 8);
      A.fmovi(fpReg(At.B), V);
      break;
    }
    case AtomKind::FConvI2D:
      A.fitod(fpReg(At.B), Rs);
      break;
    case AtomKind::FConvD2I:
      A.fdtoi(Rd, fpReg(At.C));
      break;
    case AtomKind::FCmp:
      A.fcmp(fpReg(At.C), fpReg(At.D));
      break;
    case AtomKind::FLoad:
      A.andi(Reg::R11, Rs, 0x7F8);
      A.add(Reg::R11, Reg::R11, Reg::R12);
      A.fld(fpReg(At.B), Reg::R11,
            static_cast<int16_t>(umod(At.Imm, 0x100) & ~7u));
      break;
    case AtomKind::FStore:
      A.andi(Reg::R11, Rs, 0x7F8);
      A.add(Reg::R11, Reg::R11, Reg::R12);
      A.fst(Reg::R11, static_cast<int16_t>(umod(At.Imm, 0x100) & ~7u),
            fpReg(At.D));
      break;
    case AtomKind::CpuInfo:
      A.cpuinfo();
      break;
    case AtomKind::ClReq:
      // Request code 0 is unknown everywhere: returns 0 both natively
      // (RefInterp's no-op contract) and under the core.
      A.movi(Reg::R0, 0);
      A.clreq();
      break;
    case AtomKind::ClReqCore:
      // RUNNING_ON_VALGRIND, whose answer differs by construction (1 under
      // the core, 0 natively), or for odd A the untagged code 0x1006, which
      // no namespace claims and every engine answers with 0. Either way r0
      // is renormalised to a seeded constant.
      A.movi(Reg::R0, (At.A & 1) ? 0x1006u
                                 : static_cast<uint32_t>(CrRunningOnValgrind));
      A.clreq();
      A.movi(Reg::R0, normConst(At, 0x43));
      break;
    case AtomKind::ClReqTool: {
      // A tool-namespace request: Loopgrind's start/stop (side effects
      // only — harmless under every other tool, which just declines it) or
      // a code in the unclaimed 'Z','Z' namespace. All of them return 0
      // everywhere today, but tools own their namespaces, so r0 is
      // renormalised rather than relied on.
      uint32_t Code;
      switch (At.A & 3) {
      case 0:
        Code = vgRequest(vgToolTag('L', 'G'), 1); // LgStart
        break;
      case 1:
        Code = vgRequest(vgToolTag('L', 'G'), 2); // LgStop
        break;
      default:
        Code = vgRequest(vgToolTag('Z', 'Z'), umod(At.Imm, 0x10000));
        break;
      }
      A.movi(Reg::R0, Code);
      A.clreq();
      A.movi(Reg::R0, normConst(At, 0x5A));
      break;
    }
    case AtomKind::SysWrite: {
      uint32_t Off = static_cast<uint32_t>(At.Imm) & 0xFC0;
      A.movi(Reg::R0, SysWrite);
      A.movi(Reg::R1, 1);
      A.addi(Reg::R2, Reg::R12, static_cast<int32_t>(Off));
      A.movi(Reg::R3, 1 + At.A % 32);
      A.sys();
      A.movi(Reg::R2, normConst(At, 0x57)); // r2 held an address
      break;
    }
    case AtomKind::SysRead: {
      uint32_t Off = static_cast<uint32_t>(At.Imm) & 0x1C0;
      A.movi(Reg::R0, SysRead);
      A.movi(Reg::R1, 0);
      A.addi(Reg::R2, Reg::R13, static_cast<int32_t>(IoBase + Off));
      A.movi(Reg::R3, 1 + At.A % 32);
      A.sys();
      A.movi(Reg::R2, normConst(At, 0x52));
      break;
    }
    case AtomKind::LoadIo: {
      uint32_t Off = umod(At.Imm, 0x1E9) & ~3u;
      A.addi(Reg::R11, Reg::R13, static_cast<int32_t>(IoBase + Off));
      A.ld(Rd, Reg::R11, 0);
      break;
    }
    case AtomKind::SysTime:
      A.movi(Reg::R0, SysGettimeofday);
      A.mov(Reg::R1, Reg::R13); // sink: scratch[0..8), never observed
      A.sys();
      A.movi(Reg::R1, normConst(At, 0x71));
      A.movi(Reg::R0, normConst(At, 0x72)); // virtual clocks may drift
      break;
    case AtomKind::SysGetpid:
      A.movi(Reg::R0, SysGetpid);
      A.sys();
      A.movi(Reg::R0, normConst(At, 0x9D));
      break;
    case AtomKind::SysYield:
      A.movi(Reg::R0, SysYield);
      A.sys();
      A.movi(Reg::R0, normConst(At, 0x91));
      break;
    case AtomKind::SysKill:
      // Natively there is no KernelHost: kill fails with SysErr and no
      // handler ever runs, so both the result and every handler effect
      // must be invisible to the observation epilogue.
      A.movi(Reg::R0, SysKill);
      A.movi(Reg::R1, 0); // main thread
      A.movi(Reg::R2, At.A % 2 ? SigUSR2 : SigUSR1);
      A.sys();
      A.movi(Reg::R0, normConst(At, 0xA1));
      A.movi(Reg::R1, normConst(At, 0xA2));
      A.movi(Reg::R2, normConst(At, 0xA3));
      break;
    case AtomKind::CallFn:
      if (LeafL.empty())
        A.nop();
      else
        A.call(LeafL[At.A % LeafL.size()]);
      break;
    case AtomKind::CallrFn:
      if (LeafL.empty()) {
        A.nop();
      } else {
        A.leai(Reg::R11, LeafL[At.A % LeafL.size()]);
        A.callr(Reg::R11);
      }
      break;
    case AtomKind::JmprSkip: {
      // The poison movi must never execute; a fallthrough bug in either
      // engine shows up as Rd == poison in the register dump.
      Label L = A.newLabel();
      A.leai(Reg::R11, L);
      A.jmpr(Reg::R11);
      A.movi(Rd, static_cast<uint32_t>(At.Imm) | 0xDEAD0000);
      A.bind(L);
      break;
    }
    }
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// render
//===----------------------------------------------------------------------===//

GuestImage vg::fuzz::render(const FuzzProgram &P) {
  Assembler Code(0x1000);
  Assembler Data(0x100000);
  GuestLibLabels Lib = emitGuestLib(Code, Data);
  Label Main = Code.newLabel();
  uint32_t Entry = emitStart(Code, Main);

  Rng R(P.Seed ^ 0xC0FFEEull); // render-time constants
  RenderCtx Ctx(Code);

  // --- leaf functions ----------------------------------------------------
  for (const auto &Leaf : P.Leaves) {
    Ctx.LeafL.push_back(Code.boundLabel());
    for (const Atom &At : Leaf)
      Ctx.emitAtom(At);
    Code.ret();
  }

  Label Handler = Code.newLabel();
  if (P.Signals) {
    // Handler effects are confined to scratch; sigreturn restores the
    // full interrupted context, so register clobbers are invisible.
    Code.bind(Handler);
    Code.movi(Reg::R11, 0x51);
    Code.st(Reg::R13, 8, Reg::R11);
    Code.movi(Reg::R0, SysSigreturn);
    Code.sys();
    Code.hlt(); // not reached
  }

  // --- main ---------------------------------------------------------------
  Code.bind(Main);
  // r12 = calloc(1, BufBytes): zeroed AND marked defined under Memcheck.
  Code.movi(Reg::R1, 1);
  Code.movi(Reg::R2, BufBytes);
  Code.call(Lib.Calloc);
  Code.mov(Reg::R12, Reg::R0);
  Code.movi(Reg::R1, 1);
  Code.movi(Reg::R2, ScratchBytes);
  Code.call(Lib.Calloc);
  Code.mov(Reg::R13, Reg::R0);

  if (P.Signals) {
    // Install after r12/r13 are valid: delivery can interrupt anything
    // that follows, and the handler dereferences r13.
    for (int Sig : {SigUSR1, SigUSR2}) {
      Code.movi(Reg::R0, SysSigaction);
      Code.movi(Reg::R1, static_cast<uint32_t>(Sig));
      Code.leai(Reg::R2, Handler);
      Code.sys();
    }
    Code.movi(Reg::R0, 0); // old-handler result differs native vs core
  }

  // Seeded initial data state (same derivation order every render).
  for (unsigned I = 1; I <= 9; ++I)
    Code.movi(static_cast<Reg>(I), static_cast<uint32_t>(R.next()));
  for (unsigned I = 0; I < 8; ++I) {
    static const uint64_t Specials[] = {
        0x0000000000000000ull, // 0.0
        0x8000000000000000ull, // -0.0
        0x3FF0000000000000ull, // 1.0
        0xBFF8000000000000ull, // -1.5
        0x7FF0000000000000ull, // +inf
        0x7FF8000000000001ull, // NaN
        0x41DFFFFFFFC00000ull, // 2147483647.0
        0xC1E0000000000000ull, // -2147483648.0
    };
    uint64_t Bits = R.below(2) ? Specials[R.below(8)] : R.next();
    double V;
    std::memcpy(&V, &Bits, 8);
    Code.fmovi(static_cast<FReg>(I), V);
  }
  Code.movi(Reg::R10, 0);
  // Normalise the CC thunk before the first body atom runs. Without this,
  // flag-reading atoms observe whatever NZCV the *allocator* left behind —
  // and heap-tracking tools run their replacement allocator, which leaves
  // different flags than the guestlib one. (Found by the fuzzer: seed 11's
  // one-atom flagprobe repro diverged under memcheck for exactly this.)
  Code.cmpi(Reg::R10, 0);

  // --- the loop -----------------------------------------------------------
  Label LoopTop = Code.boundLabel();
  for (const Atom &At : P.Body)
    Ctx.emitAtom(At);
  Code.addi(Reg::R10, Reg::R10, 1);
  Code.cmpi(Reg::R10, static_cast<int32_t>(P.LoopCount ? P.LoopCount : 1));
  Code.blt(LoopTop);

  // --- observation epilogue ----------------------------------------------
  // 1. Final flag probes: the loop-exit thunk, before anything perturbs it
  //    (movi/bcc/st set no flags).
  Code.movi(Reg::R11, 1);
  for (unsigned C = 0; C < vg1::NumConds; ++C) {
    Label L = Code.newLabel();
    Code.bcc(static_cast<Cond>(C), L);
    Code.st(Reg::R12, static_cast<int16_t>(FinalFlagBase + C * 4), Reg::R11);
    Code.bind(L);
  }

  // 2. Self-modifying section: run a tiny function, patch its MOVI
  //    immediate in place, flush via the +64 KiB NOP-sled alias, rerun.
  //    Correct SMC handling (native flush idiom, --smc-check=all under the
  //    core) leaves NewImm in the data register; a stale translation or
  //    stale predecode leaves OldImm.
  Label SmcFunc = Code.newLabel(), FlushFunc = Code.newLabel();
  Reg SmcRd = dataReg(static_cast<unsigned>(R.below(9)));
  uint32_t SmcOld = static_cast<uint32_t>(R.next());
  uint32_t SmcNew = static_cast<uint32_t>(R.next());
  if (P.Smc) {
    Code.call(SmcFunc);
    Code.movi(Reg::R10, SmcNew);
    Code.leai(Reg::R11, SmcFunc);
    Code.st(Reg::R11, 2, Reg::R10); // patch the MOVI imm32 field
    Code.call(FlushFunc);
    Code.call(SmcFunc);
  }

  // 3. FP dump into the checksummed buffer.
  for (unsigned I = 0; I < 8; ++I)
    Code.fst(Reg::R12, static_cast<int16_t>(FpDumpBase + I * 8),
             static_cast<FReg>(I));

  // 4. Register dump r9..r1 (push all first: print_u32 clobbers r0..r5).
  for (unsigned I = 1; I <= 9; ++I)
    Code.push(static_cast<Reg>(I));
  for (unsigned I = 0; I < 9; ++I) {
    Code.pop(Reg::R1);
    Code.call(Lib.PrintU32);
  }

  // 5. Memory checksum over the whole buffer; digest printed and folded
  //    into the exit status.
  Code.movi(Reg::R1, 0);
  Code.movi(Reg::R2, 0);
  Code.movi(Reg::R4, 0x01000193);
  Label CsLoop = Code.boundLabel();
  Code.ldx(Reg::R3, Reg::R12, Reg::R2, 0, 0);
  Code.mul(Reg::R1, Reg::R1, Reg::R4);
  Code.add(Reg::R1, Reg::R1, Reg::R3);
  Code.addi(Reg::R2, Reg::R2, 4);
  Code.cmpi(Reg::R2, BufBytes);
  Code.blt(CsLoop);
  Code.mov(Reg::R6, Reg::R1);
  Code.call(Lib.PrintU32);
  Code.andi(Reg::R0, Reg::R6, 0x7F);
  Code.ret();

  if (P.Smc) {
    uint32_t PatchAddr = Code.here();
    Code.bind(SmcFunc);
    Code.movi(SmcRd, SmcOld);
    Code.ret();
    // NOP-sled flusher at the decode-cache alias of the patched bytes.
    Code.emitZeros(PatchAddr + DCacheAlias - Code.here());
    Code.bind(FlushFunc);
    for (int I = 0; I < 8; ++I)
      Code.nop();
    Code.ret();
  }

  if (!P.Smc)
    return GuestImageBuilder()
        .addCode(Code)
        .addData(Data)
        .entry(Entry)
        .build();

  // SMC programs need a writable code segment; build the image by hand.
  GuestImage Img;
  Img.Entry = Entry;
  ImageSegment CS;
  CS.Base = Code.baseAddr();
  CS.Perms = PermRWX;
  for (const auto &[Name, Addr] : Code.symbols())
    Img.Symbols[Name] = Addr;
  CS.Bytes = Code.finalize();
  Img.Segments.push_back(std::move(CS));
  ImageSegment DS;
  DS.Base = Data.baseAddr();
  DS.Perms = PermRW;
  for (const auto &[Name, Addr] : Data.symbols())
    Img.Symbols[Name] = Addr;
  DS.Bytes = Data.finalize();
  Img.Segments.push_back(std::move(DS));
  return Img;
}

//===----------------------------------------------------------------------===//
// generate
//===----------------------------------------------------------------------===//

namespace {

constexpr unsigned TotalWeight = [] {
  unsigned T = 0;
  for (const AtomInfo &I : AtomTable)
    T += I.Weight;
  return T;
}();

int64_t interestingImm(Rng &R) {
  static const int64_t Pool[] = {
      0,          1,          2,          -1,         0x7FFFFFFF, INT64_C(0x80000000),
      0xFFFF,     0x10000,    31,         32,         33,         64,
      0xAAAAAAAA, 0x55555555, 0x01000193, -0x800000,
  };
  return R.below(2) ? Pool[R.below(sizeof(Pool) / sizeof(Pool[0]))]
                    : static_cast<int64_t>(R.next());
}

Atom randomAtom(Rng &R, bool InLeaf, bool Signals, unsigned NLeaves) {
  for (;;) {
    uint64_t Pick = R.below(TotalWeight);
    unsigned K = 0;
    while (Pick >= AtomTable[K].Weight)
      Pick -= AtomTable[K++].Weight;
    // Leaves take only Anywhere kinds; the body also takes the others,
    // given the handlers or leaves they need.
    AtomWhere W = AtomTable[K].Where;
    if (W != AtomWhere::Anywhere &&
        (InLeaf || (W == AtomWhere::BodyWithHandlers && !Signals) ||
         (W == AtomWhere::BodyWithLeaves && NLeaves == 0)))
      continue;
    Atom At;
    At.K = static_cast<AtomKind>(K);
    At.A = static_cast<uint8_t>(R.next());
    At.B = static_cast<uint8_t>(R.next());
    At.C = static_cast<uint8_t>(R.next());
    At.D = static_cast<uint8_t>(R.next());
    At.Imm = interestingImm(R);
    if (At.K == AtomKind::FMovImm && R.below(2)) {
      static const uint64_t Doubles[] = {
          0x0000000000000000ull, 0x8000000000000000ull, 0x3FF0000000000000ull,
          0x7FF0000000000000ull, 0xFFF0000000000000ull, 0x7FF8000000000001ull,
          0x0000000000000001ull, // denormal
          0x41DFFFFFFFC00000ull, 0xC1E0000000000000ull, 0x3FE0000000000000ull,
      };
      At.Imm = static_cast<int64_t>(Doubles[R.below(10)]);
    }
    return At;
  }
}

} // namespace

FuzzProgram vg::fuzz::generate(uint64_t Seed, const GenOptions &O) {
  Rng R(Seed);
  FuzzProgram P;
  P.Seed = Seed;
  P.LoopCount = 1 + static_cast<uint32_t>(R.below(O.MaxLoop));
  P.Signals = O.Signals == 2 || (O.Signals == 1 && R.below(5) == 0);
  P.Smc = O.Smc == 2 || (O.Smc == 1 && R.below(5) == 0);

  unsigned NLeaves = static_cast<unsigned>(R.below(O.MaxLeaves + 1));
  for (unsigned I = 0; I < NLeaves; ++I) {
    std::vector<Atom> Leaf;
    unsigned N = 1 + static_cast<unsigned>(R.below(8));
    for (unsigned J = 0; J < N; ++J)
      Leaf.push_back(randomAtom(R, /*InLeaf=*/true, P.Signals, 0));
    P.Leaves.push_back(std::move(Leaf));
  }

  unsigned Span = O.MaxBodyAtoms - O.MinBodyAtoms + 1;
  unsigned NBody = O.MinBodyAtoms + static_cast<unsigned>(R.below(Span));
  for (unsigned I = 0; I < NBody; ++I)
    P.Body.push_back(randomAtom(R, /*InLeaf=*/false, P.Signals, NLeaves));

  unsigned StdinLen = static_cast<unsigned>(R.below(33));
  for (unsigned I = 0; I < StdinLen; ++I)
    P.StdinData.push_back(static_cast<char>(R.next()));
  return P;
}

//===----------------------------------------------------------------------===//
// Instruction-count metric
//===----------------------------------------------------------------------===//

unsigned vg::fuzz::bodyInstrCount(const FuzzProgram &P) {
  // Render the atoms alone, after a RET for each leaf to call, and decode.
  Assembler Code(0x1000);
  RenderCtx Ctx(Code);
  for (size_t I = 0; I != P.Leaves.size(); ++I) {
    Ctx.LeafL.push_back(Code.boundLabel());
    Code.ret();
  }
  size_t Off = Code.here() - Code.baseAddr();
  for (const Atom &At : P.Body)
    Ctx.emitAtom(At);
  for (const auto &L : P.Leaves)
    for (const Atom &At : L)
      Ctx.emitAtom(At);
  std::vector<uint8_t> Bytes = Code.finalize();
  unsigned N = 0;
  for (; Off < Bytes.size(); ++N) {
    vg1::Instr I;
    if (!vg1::decode(Bytes.data() + Off, Bytes.size() - Off, I))
      unreachable("the assembler emitted an undecodable atom");
    Off += I.Len;
  }
  return N;
}

//===----------------------------------------------------------------------===//
// Serialisation (.vg1 case files)
//===----------------------------------------------------------------------===//

static void serializeAtoms(std::ostringstream &OS,
                           const std::vector<Atom> &Atoms) {
  for (const Atom &At : Atoms)
    OS << "atom " << AtomTable[static_cast<unsigned>(At.K)].Name << ' '
       << unsigned(At.A) << ' ' << unsigned(At.B) << ' ' << unsigned(At.C)
       << ' ' << unsigned(At.D) << ' ' << At.Imm << '\n';
}

std::string vg::fuzz::serialize(const FuzzProgram &P, bool WithDisasm) {
  std::ostringstream OS;
  OS << "vg1fuzz 1\n";
  OS << "seed " << P.Seed << '\n';
  OS << "loop " << P.LoopCount << '\n';
  OS << "signals " << (P.Signals ? 1 : 0) << '\n';
  OS << "smc " << (P.Smc ? 1 : 0) << '\n';
  OS << "stdin ";
  if (P.StdinData.empty()) {
    OS << '-';
  } else {
    static const char *Hex = "0123456789ABCDEF";
    for (char C : P.StdinData) {
      uint8_t B = static_cast<uint8_t>(C);
      OS << Hex[B >> 4] << Hex[B & 15];
    }
  }
  OS << '\n';
  for (size_t I = 0; I < P.Leaves.size(); ++I) {
    OS << "leaf " << I << ' ' << P.Leaves[I].size() << '\n';
    serializeAtoms(OS, P.Leaves[I]);
  }
  OS << "body " << P.Body.size() << '\n';
  serializeAtoms(OS, P.Body);
  OS << "end\n";

  if (WithDisasm) {
    OS << "#\n# --- rendered image (triage aid; parse() ignores this) ---\n";
    GuestImage Img = render(P);
    for (const ImageSegment &S : Img.Segments) {
      if (!(S.Perms & PermExec))
        continue;
      std::string Listing =
          vg1::disassembleRange(S.Bytes.data(), S.Bytes.size(), S.Base);
      std::istringstream LS(Listing);
      std::string Line;
      unsigned Count = 0;
      while (std::getline(LS, Line)) {
        if (++Count > 1500) {
          OS << "# ... (truncated)\n";
          break;
        }
        OS << "# " << Line << '\n';
      }
    }
  }
  return OS.str();
}

bool vg::fuzz::parse(const std::string &Text, FuzzProgram &Out,
                     std::string &Err) {
  FuzzProgram P;
  std::istringstream IS(Text);
  std::string Line;
  std::vector<Atom> *Target = nullptr;
  bool SawHeader = false, SawEnd = false;
  int LineNo = 0;
  auto fail = [&](const std::string &M) {
    Err = "line " + std::to_string(LineNo) + ": " + M;
    return false;
  };
  while (std::getline(IS, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    if (SawEnd)
      continue; // trailing comments only
    std::istringstream LS(Line);
    std::string Tok;
    LS >> Tok;
    if (Tok == "vg1fuzz") {
      int V = 0;
      LS >> V;
      if (V != 1)
        return fail("unsupported version");
      SawHeader = true;
    } else if (Tok == "seed") {
      LS >> P.Seed;
    } else if (Tok == "loop") {
      LS >> P.LoopCount;
    } else if (Tok == "signals") {
      int V = 0;
      LS >> V;
      P.Signals = V != 0;
    } else if (Tok == "smc") {
      int V = 0;
      LS >> V;
      P.Smc = V != 0;
    } else if (Tok == "stdin") {
      std::string H;
      LS >> H;
      if (H != "-") {
        if (H.size() % 2)
          return fail("odd stdin hex length");
        auto Nib = [](char C) -> int {
          if (C >= '0' && C <= '9')
            return C - '0';
          if (C >= 'A' && C <= 'F')
            return C - 'A' + 10;
          if (C >= 'a' && C <= 'f')
            return C - 'a' + 10;
          return -1;
        };
        for (size_t I = 0; I < H.size(); I += 2) {
          int Hi = Nib(H[I]), Lo = Nib(H[I + 1]);
          if (Hi < 0 || Lo < 0)
            return fail("bad stdin hex");
          P.StdinData.push_back(static_cast<char>(Hi << 4 | Lo));
        }
      }
    } else if (Tok == "leaf") {
      size_t Idx = 0, N = 0;
      LS >> Idx >> N;
      if (Idx != P.Leaves.size())
        return fail("leaves out of order");
      P.Leaves.emplace_back();
      Target = &P.Leaves.back();
    } else if (Tok == "body") {
      Target = &P.Body;
    } else if (Tok == "atom") {
      if (!Target)
        return fail("atom before body/leaf");
      std::string Name;
      unsigned A, B, C, D;
      long long Imm;
      LS >> Name >> A >> B >> C >> D >> Imm;
      if (LS.fail())
        return fail("malformed atom");
      unsigned K = 0;
      while (K != NumAtomKinds && Name != AtomTable[K].Name)
        ++K;
      if (K == NumAtomKinds)
        return fail("unknown atom kind '" + Name + "'");
      Atom At;
      At.K = static_cast<AtomKind>(K);
      At.A = static_cast<uint8_t>(A);
      At.B = static_cast<uint8_t>(B);
      At.C = static_cast<uint8_t>(C);
      At.D = static_cast<uint8_t>(D);
      At.Imm = Imm;
      Target->push_back(At);
    } else if (Tok == "end") {
      SawEnd = true;
    } else {
      return fail("unknown directive '" + Tok + "'");
    }
  }
  if (!SawHeader)
    return fail("missing vg1fuzz header");
  if (!SawEnd)
    return fail("missing end");
  Out = std::move(P);
  return true;
}
