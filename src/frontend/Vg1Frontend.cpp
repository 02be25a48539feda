//===-- frontend/Vg1Frontend.cpp - Phase 1: VG1 -> tree IR ----------------==//

#include "frontend/Vg1Frontend.h"

#include "guest/Decoder.h"
#include "guest/GuestArch.h"
#include "hvm/ExecContext.h"

#include <cstring>

using namespace vg;
using namespace vg::ir;
using namespace vg::vg1;

//===----------------------------------------------------------------------===//
// Helpers callable from IR
//===----------------------------------------------------------------------===//

namespace {

uint64_t helperCalcCond(void *, uint64_t Cond, uint64_t Op, uint64_t Dep1,
                        uint64_t Dep2) {
  return calcCond(static_cast<uint32_t>(Cond), static_cast<uint32_t>(Op),
                  static_cast<uint32_t>(Dep1), static_cast<uint32_t>(Dep2));
}

uint64_t helperCpuInfo(void *Env, uint64_t, uint64_t, uint64_t, uint64_t) {
  auto *Ctx = static_cast<ExecContext *>(Env);
  uint32_t Magic = CpuInfoMagic, Version = CpuInfoVersion;
  std::memcpy(Ctx->GuestState + gso::gpr(0), &Magic, 4);
  std::memcpy(Ctx->GuestState + gso::gpr(1), &Version, 4);
  return 0;
}

constexpr uint32_t SpecKeyCalcCond = 1;

const Callee CalcCondCallee = {"vg1_calc_cond", helperCalcCond,
                               SpecKeyCalcCond};
const Callee CpuInfoCallee = {"vg1_cpuinfo", helperCpuInfo, 0};
const ir::CalleeRegistrar RegisterCallees{&CalcCondCallee, &CpuInfoCallee};

} // namespace

const Callee *vg::calcCondCallee() { return &CalcCondCallee; }
const Callee *vg::cpuinfoCallee() { return &CpuInfoCallee; }

//===----------------------------------------------------------------------===//
// The per-superblock translator
//===----------------------------------------------------------------------===//

namespace {

class Translator {
public:
  Translator(uint32_t Addr, const FetchFn &Fetch, const FrontendConfig &Cfg,
             const TraceSpec *Trace = nullptr)
      : Entry(Addr), Fetch(Fetch), Cfg(Cfg), Trace(Trace) {
    Res.SB = std::make_unique<IRSB>();
    Res.Addr = Addr;
    if (Trace)
      Res.TraceEntries.push_back(Addr);
  }

  DisasmResult run() {
    uint32_t PC = Entry;
    uint32_t ExtentStart = PC;
    unsigned Chases = 0;

    for (;;) {
      // A constituent may end in a straight line (the original superblock
      // hit its instruction limit): crossing the next entry's PC advances
      // the path position without any seam to stitch.
      if (Trace && CurEntry + 1 < Trace->Entries.size() &&
          PC == Trace->Entries[CurEntry + 1]) {
        ++CurEntry;
        Res.TraceEntries.push_back(PC);
      }

      if (Res.NumInsns >= Cfg.MaxInsns) {
        endBlock(PC, JumpKind::Boring);
        closeExtent(ExtentStart, PC);
        return std::move(Res);
      }

      uint8_t Buf[MaxInstrLen];
      uint32_t Got = Fetch(PC, Buf, MaxInstrLen);
      Instr I;
      if (Got == 0 || !decode(Buf, Got, I)) {
        // The dispatcher turns a NoDecode block end into a SIGILL-style
        // event when it is actually reached.
        Res.DecodeFailed = true;
        endBlock(PC, JumpKind::NoDecode);
        closeExtent(ExtentStart, PC);
        return std::move(Res);
      }

      IRSB &SB = *Res.SB;
      SB.imark(PC, I.Len);
      // Keep the guest PC in the ThreadState current at instruction
      // granularity (paper Figure 1, statements 5/15); the optimiser
      // removes the writes it can prove redundant.
      if (Res.NumInsns > 0)
        SB.put(gso::PC, SB.constI32(PC));
      ++Res.NumInsns;

      uint32_t Next = PC + I.Len;
      switch (translateInsn(I, PC, Next)) {
      case InsnEnd::Fallthrough:
        PC = Next;
        continue;
      case InsnEnd::BlockDone:
        closeExtent(ExtentStart, Next);
        return std::move(Res);
      case InsnEnd::SeamTo:
        // The likely direction of the constituent's ending branch: the
        // unlikely side exit is already emitted; carry on across the seam.
        closeExtent(ExtentStart, Next);
        ++CurEntry;
        Res.TraceEntries.push_back(ChaseTarget);
        PC = ChaseTarget;
        ExtentStart = PC;
        continue;
      case InsnEnd::ChaseTo:
        closeExtent(ExtentStart, Next);
        if (Trace && ChaseTarget == Entry) {
          // A jump back to the trace head: end here so the trace chains
          // to itself instead of unrolling the loop.
          endBlock(ChaseTarget, JumpKind::Boring);
          return std::move(Res);
        }
        if (Chases >= Cfg.MaxChases ||
            (Cfg.ChaseOk && !Cfg.ChaseOk(Cfg.ChaseCtx, ChaseTarget))) {
          endBlock(ChaseTarget, JumpKind::Boring);
          return std::move(Res);
        }
        ++Chases;
        PC = ChaseTarget;
        ExtentStart = PC;
        continue;
      }
    }
  }

private:
  enum class InsnEnd { Fallthrough, BlockDone, ChaseTo, SeamTo };

  /// Where the hot path continues after the current constituent (~0 when
  /// following a plain superblock or past the end of the spec).
  uint32_t preferredNext() const {
    if (!Trace)
      return ~0u;
    if (CurEntry + 1 < Trace->Entries.size())
      return Trace->Entries[CurEntry + 1];
    return Trace->PreferredFinal;
  }

  bool atLastEntry() const {
    return Trace && CurEntry + 1 >= Trace->Entries.size();
  }

  void closeExtent(uint32_t Start, uint32_t End) {
    if (End > Start)
      Res.Extents.push_back({Start, End});
  }

  void endBlock(uint32_t NextPC, JumpKind K) {
    Res.SB->setNext(Res.SB->constI32(NextPC), K);
  }

  // --- small IR-building conveniences -----------------------------------

  Expr *gpr(unsigned I) { return Res.SB->get(gso::gpr(I), Ty::I32); }
  Expr *fpr(unsigned I) { return Res.SB->get(gso::fpr(I), Ty::F64); }
  void putGpr(unsigned I, Expr *E) { Res.SB->put(gso::gpr(I), E); }
  void putFpr(unsigned I, Expr *E) { Res.SB->put(gso::fpr(I), E); }

  /// Captures a guest register read in a temporary — required when the
  /// value is used after a Put that might alias the source register.
  Expr *gprT(unsigned I) {
    IRSB &SB = *Res.SB;
    return SB.rdTmp(SB.wrTmp(gpr(I)));
  }

  void setThunk(CCOp Op, Expr *Dep1, Expr *Dep2) {
    IRSB &SB = *Res.SB;
    SB.put(gso::CC_OP, SB.constI32(static_cast<uint32_t>(Op)));
    SB.put(gso::CC_DEP1, Dep1);
    SB.put(gso::CC_DEP2, Dep2);
    SB.put(gso::CC_NDEP, SB.constI32(0));
  }

  /// I8-typed shift amount from a register (low 5 bits are significant).
  Expr *shiftAmt(unsigned RegIdx) {
    IRSB &SB = *Res.SB;
    return SB.unop(Op::T32to8, gpr(RegIdx));
  }

  InsnEnd translateInsn(const Instr &I, uint32_t PC, uint32_t Next) {
    IRSB &SB = *Res.SB;
    switch (I.Op) {
    case vg1::Opcode::NOP:
      return InsnEnd::Fallthrough;

    case vg1::Opcode::HLT:
      endBlock(Next, JumpKind::Exit);
      return InsnEnd::BlockDone;

    case vg1::Opcode::MOVI:
      putGpr(I.Rd, SB.constI32(static_cast<uint32_t>(I.Imm)));
      return InsnEnd::Fallthrough;

    case vg1::Opcode::MOV:
      putGpr(I.Rd, gpr(I.Rs));
      return InsnEnd::Fallthrough;

    case vg1::Opcode::ADD:
    case vg1::Opcode::SUB: {
      Expr *A = gprT(I.Rs), *B = gprT(I.Rt);
      bool IsAdd = I.Op == vg1::Opcode::ADD;
      TmpId T = SB.wrTmp(SB.binop(IsAdd ? Op::Add32 : Op::Sub32, A, B));
      setThunk(IsAdd ? CCOp::Add : CCOp::Sub, A, B);
      putGpr(I.Rd, SB.rdTmp(T));
      return InsnEnd::Fallthrough;
    }

    case vg1::Opcode::AND:
    case vg1::Opcode::OR:
    case vg1::Opcode::XOR: {
      Op O = I.Op == vg1::Opcode::AND  ? Op::And32
             : I.Op == vg1::Opcode::OR ? Op::Or32
                                       : Op::Xor32;
      TmpId T = SB.wrTmp(SB.binop(O, gpr(I.Rs), gpr(I.Rt)));
      setThunk(CCOp::Logic, SB.rdTmp(T), SB.constI32(0));
      putGpr(I.Rd, SB.rdTmp(T));
      return InsnEnd::Fallthrough;
    }

    case vg1::Opcode::SHL:
    case vg1::Opcode::SHR:
    case vg1::Opcode::SAR: {
      Op O = I.Op == vg1::Opcode::SHL   ? Op::Shl32
             : I.Op == vg1::Opcode::SHR ? Op::Shr32
                                        : Op::Sar32;
      TmpId T = SB.wrTmp(SB.binop(O, gpr(I.Rs), shiftAmt(I.Rt)));
      setThunk(CCOp::Logic, SB.rdTmp(T), SB.constI32(0));
      putGpr(I.Rd, SB.rdTmp(T));
      return InsnEnd::Fallthrough;
    }

    case vg1::Opcode::MUL:
      putGpr(I.Rd, SB.binop(Op::Mul32, gpr(I.Rs), gpr(I.Rt)));
      return InsnEnd::Fallthrough;
    case vg1::Opcode::DIVU:
      putGpr(I.Rd, SB.binop(Op::DivU32, gpr(I.Rs), gpr(I.Rt)));
      return InsnEnd::Fallthrough;
    case vg1::Opcode::DIVS:
      putGpr(I.Rd, SB.binop(Op::DivS32, gpr(I.Rs), gpr(I.Rt)));
      return InsnEnd::Fallthrough;

    case vg1::Opcode::ADDI: {
      Expr *A = gprT(I.Rs);
      Expr *B = SB.constI32(static_cast<uint32_t>(I.Imm));
      TmpId T = SB.wrTmp(SB.binop(Op::Add32, A, B));
      setThunk(CCOp::Add, A, B);
      putGpr(I.Rd, SB.rdTmp(T));
      return InsnEnd::Fallthrough;
    }

    case vg1::Opcode::ANDI: {
      TmpId T = SB.wrTmp(SB.binop(Op::And32, gpr(I.Rs),
                                  SB.constI32(static_cast<uint32_t>(I.Imm))));
      setThunk(CCOp::Logic, SB.rdTmp(T), SB.constI32(0));
      putGpr(I.Rd, SB.rdTmp(T));
      return InsnEnd::Fallthrough;
    }

    case vg1::Opcode::SHLI:
    case vg1::Opcode::SHRI:
    case vg1::Opcode::SARI: {
      Op O = I.Op == vg1::Opcode::SHLI   ? Op::Shl32
             : I.Op == vg1::Opcode::SHRI ? Op::Shr32
                                         : Op::Sar32;
      TmpId T = SB.wrTmp(
          SB.binop(O, gpr(I.Rs), SB.constI8(static_cast<uint8_t>(I.Imm))));
      setThunk(CCOp::Logic, SB.rdTmp(T), SB.constI32(0));
      putGpr(I.Rd, SB.rdTmp(T));
      return InsnEnd::Fallthrough;
    }

    case vg1::Opcode::CMP:
      setThunk(CCOp::Sub, gpr(I.Rd), gpr(I.Rs));
      return InsnEnd::Fallthrough;
    case vg1::Opcode::CMPI:
      setThunk(CCOp::Sub, gpr(I.Rd),
               SB.constI32(static_cast<uint32_t>(I.Imm)));
      return InsnEnd::Fallthrough;

    case vg1::Opcode::LD:
    case vg1::Opcode::LDB:
    case vg1::Opcode::LDSB:
    case vg1::Opcode::LDH:
    case vg1::Opcode::LDSH: {
      Expr *Addr = SB.binop(Op::Add32, gpr(I.Rs),
                            SB.constI32(static_cast<uint32_t>(I.Imm)));
      TmpId TA = SB.wrTmp(Addr);
      Expr *Val;
      switch (I.Op) {
      case vg1::Opcode::LD:
        Val = SB.load(Ty::I32, SB.rdTmp(TA));
        break;
      case vg1::Opcode::LDB:
        Val = SB.unop(Op::U8to32, SB.load(Ty::I8, SB.rdTmp(TA)));
        break;
      case vg1::Opcode::LDSB:
        Val = SB.unop(Op::S8to32, SB.load(Ty::I8, SB.rdTmp(TA)));
        break;
      case vg1::Opcode::LDH:
        Val = SB.unop(Op::U16to32, SB.load(Ty::I16, SB.rdTmp(TA)));
        break;
      default:
        Val = SB.unop(Op::S16to32, SB.load(Ty::I16, SB.rdTmp(TA)));
        break;
      }
      putGpr(I.Rd, Val);
      return InsnEnd::Fallthrough;
    }

    case vg1::Opcode::ST:
    case vg1::Opcode::STB:
    case vg1::Opcode::STH: {
      Expr *Addr = SB.binop(Op::Add32, gpr(I.Rd),
                            SB.constI32(static_cast<uint32_t>(I.Imm)));
      Expr *Val = gpr(I.Rs);
      if (I.Op == vg1::Opcode::STB)
        Val = SB.unop(Op::T32to8, Val);
      else if (I.Op == vg1::Opcode::STH)
        Val = SB.unop(Op::T32to16, Val);
      SB.store(Addr, Val);
      return InsnEnd::Fallthrough;
    }

    case vg1::Opcode::LDX: {
      // The CISC addressing mode becomes an explicit address tree, exposing
      // the intermediate address to tools (paper Figure 1, statement 2).
      Expr *Addr = SB.binop(
          Op::Add32,
          SB.binop(Op::Add32, gpr(I.Rs),
                   SB.binop(Op::Shl32, gpr(I.Rt), SB.constI8(I.Scale))),
          SB.constI32(static_cast<uint32_t>(I.Imm)));
      TmpId TA = SB.wrTmp(Addr);
      putGpr(I.Rd, SB.load(Ty::I32, SB.rdTmp(TA)));
      return InsnEnd::Fallthrough;
    }

    case vg1::Opcode::STX: {
      Expr *Addr = SB.binop(
          Op::Add32,
          SB.binop(Op::Add32, gpr(I.Rd),
                   SB.binop(Op::Shl32, gpr(I.Rt), SB.constI8(I.Scale))),
          SB.constI32(static_cast<uint32_t>(I.Imm)));
      SB.store(Addr, gpr(I.Rs));
      return InsnEnd::Fallthrough;
    }

    case vg1::Opcode::BCC: {
      Expr *CondE = SB.ccall(
          &CalcCondCallee, Ty::I32,
          {SB.constI32(static_cast<uint32_t>(I.BCond)),
           SB.get(gso::CC_OP, Ty::I32), SB.get(gso::CC_DEP1, Ty::I32),
           SB.get(gso::CC_DEP2, Ty::I32)});
      TmpId TC = SB.wrTmp(CondE);
      uint32_t Target = static_cast<uint32_t>(I.Imm);
      uint32_t Pref = preferredNext();
      if (Trace && Pref == Target && Target != Next) {
        // Speculate taken: the fall-through becomes the guarded side
        // exit and disassembly continues at the branch target.
        SB.exit(SB.binop(Op::CmpEQ32, SB.rdTmp(TC), SB.constI32(0)), Next,
                JumpKind::Boring);
        if (atLastEntry()) {
          endBlock(Target, JumpKind::Boring);
          return InsnEnd::BlockDone;
        }
        ChaseTarget = Target;
        return InsnEnd::SeamTo;
      }
      SB.exit(SB.unop(Op::CmpNEZ32, SB.rdTmp(TC)), Target,
              JumpKind::Boring);
      if (Trace && Pref == Next && !atLastEntry()) {
        // Speculate not-taken: the taken side exit above guards the seam.
        ChaseTarget = Next;
        return InsnEnd::SeamTo;
      }
      // Plain superblock end — also the trace's graceful degradation when
      // the code no longer matches the recorded hot path.
      endBlock(Next, JumpKind::Boring);
      return InsnEnd::BlockDone;
    }

    case vg1::Opcode::JMP:
      ChaseTarget = static_cast<uint32_t>(I.Imm);
      return InsnEnd::ChaseTo;

    case vg1::Opcode::JMPR:
      Res.SB->setNext(gpr(I.Rd), JumpKind::Boring);
      return InsnEnd::BlockDone;

    case vg1::Opcode::CALL:
    case vg1::Opcode::CALLR: {
      Expr *Target = I.Op == vg1::Opcode::CALL
                         ? SB.constI32(static_cast<uint32_t>(I.Imm))
                         : gprT(I.Rd);
      TmpId NewSP =
          SB.wrTmp(SB.binop(Op::Sub32, gpr(RegSP), SB.constI32(4)));
      // SP is updated before the store so stack-allocation events (R7)
      // precede the write: the return address slot becomes active, then
      // defined.
      SB.put(gso::gpr(RegSP), SB.rdTmp(NewSP));
      SB.store(SB.rdTmp(NewSP), SB.constI32(Next));
      SB.setNext(Target, JumpKind::Call);
      return InsnEnd::BlockDone;
    }

    case vg1::Opcode::RET: {
      TmpId SP = SB.wrTmp(gpr(RegSP));
      TmpId RetAddr = SB.wrTmp(SB.load(Ty::I32, SB.rdTmp(SP)));
      SB.put(gso::gpr(RegSP),
             SB.binop(Op::Add32, SB.rdTmp(SP), SB.constI32(4)));
      SB.setNext(SB.rdTmp(RetAddr), JumpKind::Ret);
      return InsnEnd::BlockDone;
    }

    case vg1::Opcode::PUSH: {
      // Capture the value first (push sp must push the OLD sp), update SP
      // (firing stack events), then store.
      Expr *Val = gprT(I.Rd);
      TmpId NewSP =
          SB.wrTmp(SB.binop(Op::Sub32, gpr(RegSP), SB.constI32(4)));
      SB.put(gso::gpr(RegSP), SB.rdTmp(NewSP));
      SB.store(SB.rdTmp(NewSP), Val);
      return InsnEnd::Fallthrough;
    }

    case vg1::Opcode::POP: {
      TmpId SP = SB.wrTmp(gpr(RegSP));
      TmpId Val = SB.wrTmp(SB.load(Ty::I32, SB.rdTmp(SP)));
      SB.put(gso::gpr(RegSP),
             SB.binop(Op::Add32, SB.rdTmp(SP), SB.constI32(4)));
      putGpr(I.Rd, SB.rdTmp(Val)); // pop into SP: loaded value wins
      return InsnEnd::Fallthrough;
    }

    case vg1::Opcode::SYS:
      endBlock(Next, JumpKind::Syscall);
      return InsnEnd::BlockDone;

    case vg1::Opcode::CPUINFO:
      SB.dirty(&CpuInfoCallee, {}, NoTmp, nullptr,
               {{gso::gpr(0), 4, true}, {gso::gpr(1), 4, true}});
      return InsnEnd::Fallthrough;

    case vg1::Opcode::CLREQ:
      endBlock(Next, JumpKind::ClientReq);
      return InsnEnd::BlockDone;

    case vg1::Opcode::FADD:
    case vg1::Opcode::FSUB:
    case vg1::Opcode::FMUL:
    case vg1::Opcode::FDIV: {
      Op O = I.Op == vg1::Opcode::FADD   ? Op::AddF64
             : I.Op == vg1::Opcode::FSUB ? Op::SubF64
             : I.Op == vg1::Opcode::FMUL ? Op::MulF64
                                         : Op::DivF64;
      putFpr(I.Rd, SB.binop(O, fpr(I.Rs), fpr(I.Rt)));
      return InsnEnd::Fallthrough;
    }

    case vg1::Opcode::FNEG:
      putFpr(I.Rd, SB.unop(Op::NegF64, fpr(I.Rs)));
      return InsnEnd::Fallthrough;
    case vg1::Opcode::FMOV:
      putFpr(I.Rd, fpr(I.Rs));
      return InsnEnd::Fallthrough;

    case vg1::Opcode::FLD: {
      Expr *Addr = SB.binop(Op::Add32, gpr(I.Rs),
                            SB.constI32(static_cast<uint32_t>(I.Imm)));
      putFpr(I.Rd, SB.load(Ty::F64, Addr));
      return InsnEnd::Fallthrough;
    }
    case vg1::Opcode::FST: {
      Expr *Addr = SB.binop(Op::Add32, gpr(I.Rd),
                            SB.constI32(static_cast<uint32_t>(I.Imm)));
      SB.store(Addr, fpr(I.Rs));
      return InsnEnd::Fallthrough;
    }

    case vg1::Opcode::FITOD:
      putFpr(I.Rd, SB.unop(Op::I32StoF64, gpr(I.Rs)));
      return InsnEnd::Fallthrough;
    case vg1::Opcode::FDTOI:
      putGpr(I.Rd, SB.unop(Op::F64toI32S, fpr(I.Rs)));
      return InsnEnd::Fallthrough;

    case vg1::Opcode::FCMP:
      setThunk(CCOp::Copy, SB.binop(Op::CmpF64, fpr(I.Rd), fpr(I.Rs)),
               SB.constI32(0));
      return InsnEnd::Fallthrough;

    case vg1::Opcode::FMOVI:
      putFpr(I.Rd, SB.mkConst(Ty::F64, I.Imm64));
      return InsnEnd::Fallthrough;

    case vg1::Opcode::VADD8:
      putGpr(I.Rd, SB.binop(Op::Add8x4, gpr(I.Rs), gpr(I.Rt)));
      return InsnEnd::Fallthrough;
    case vg1::Opcode::VSUB8:
      putGpr(I.Rd, SB.binop(Op::Sub8x4, gpr(I.Rs), gpr(I.Rt)));
      return InsnEnd::Fallthrough;
    case vg1::Opcode::VCMPGT8:
      putGpr(I.Rd, SB.binop(Op::CmpGT8Sx4, gpr(I.Rs), gpr(I.Rt)));
      return InsnEnd::Fallthrough;
    }
    unreachable("translateInsn: unhandled opcode");
  }

  uint32_t Entry;
  const FetchFn &Fetch;
  const FrontendConfig &Cfg;
  const TraceSpec *Trace;
  size_t CurEntry = 0;
  DisasmResult Res;
  uint32_t ChaseTarget = 0;
};

} // namespace

DisasmResult vg::disassembleSB(uint32_t Addr, const FetchFn &Fetch,
                               const FrontendConfig &Cfg) {
  Translator T(Addr, Fetch, Cfg);
  return T.run();
}

DisasmResult vg::disassembleTrace(const TraceSpec &Spec, const FetchFn &Fetch,
                                  const FrontendConfig &Cfg) {
  Translator T(Spec.Entries.at(0), Fetch, Cfg, &Spec);
  return T.run();
}

bool vg::flagsDeadAt(uint32_t PC, const FetchFn &Fetch,
                     std::vector<std::pair<uint32_t, uint32_t>> &Scanned) {
  std::vector<std::pair<uint32_t, uint32_t>> Local;
  uint32_t RunStart = PC, Cur = PC;
  unsigned Chases = 0;
  for (unsigned N = 0; N != 16; ++N) {
    uint8_t Buf[MaxInstrLen];
    uint32_t Got = Fetch(Cur, Buf, MaxInstrLen);
    Instr I;
    if (Got == 0 || !decode(Buf, Got, I))
      return false;
    uint32_t End = Cur + I.Len;
    if (opSetsFlags(I.Op)) {
      // Full thunk overwrite before any read: proof complete. Record the
      // scanned bytes so retranslation is forced if they change.
      Local.push_back({RunStart, End});
      Scanned.insert(Scanned.end(), Local.begin(), Local.end());
      return true;
    }
    switch (I.Op) {
    case vg1::Opcode::JMP:
      if (++Chases > 2)
        return false;
      Local.push_back({RunStart, End});
      Cur = static_cast<uint32_t>(I.Imm);
      RunStart = Cur;
      break;
    case vg1::Opcode::BCC:    // reads the thunk
    case vg1::Opcode::JMPR:   // leaves straight-line code:
    case vg1::Opcode::CALL:   // the continuation is unknown or the
    case vg1::Opcode::CALLR:  // kernel/handler may observe the thunk
    case vg1::Opcode::RET:
    case vg1::Opcode::SYS:
    case vg1::Opcode::HLT:
    case vg1::Opcode::CLREQ:
      return false;
    default:
      Cur = End;
      break;
    }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Partial evaluation of vg1_calc_cond (the %eflags specialisation hook)
//===----------------------------------------------------------------------===//

namespace {

/// Builds U1to32(Cmp...) so the replacement has the helper's I32 type.
Expr *widen(IRSB &SB, Expr *I1E) { return SB.unop(Op::U1to32, I1E); }

Expr *specSub(IRSB &SB, Cond C, Expr *D1, Expr *D2) {
  switch (C) {
  case Cond::EQ:
    return widen(SB, SB.binop(Op::CmpEQ32, D1, D2));
  case Cond::NE:
    return widen(SB, SB.binop(Op::CmpNE32, D1, D2));
  case Cond::LTS:
    return widen(SB, SB.binop(Op::CmpLT32S, D1, D2));
  case Cond::GES:
    return widen(SB, SB.binop(Op::CmpLE32S, D2, D1));
  case Cond::LTU:
    return widen(SB, SB.binop(Op::CmpLT32U, D1, D2));
  case Cond::GEU:
    return widen(SB, SB.binop(Op::CmpLE32U, D2, D1));
  case Cond::GTS:
    return widen(SB, SB.binop(Op::CmpLT32S, D2, D1));
  case Cond::LES:
    return widen(SB, SB.binop(Op::CmpLE32S, D1, D2));
  case Cond::MI:
    return widen(SB, SB.binop(Op::CmpLT32S, SB.binop(Op::Sub32, D1, D2),
                              SB.constI32(0)));
  case Cond::PL:
    return widen(SB, SB.binop(Op::CmpLE32S, SB.constI32(0),
                              SB.binop(Op::Sub32, D1, D2)));
  }
  return nullptr;
}

Expr *specLogic(IRSB &SB, Cond C, Expr *D1) {
  Expr *Zero = SB.constI32(0);
  switch (C) {
  case Cond::EQ:
    return widen(SB, SB.binop(Op::CmpEQ32, D1, Zero));
  case Cond::NE:
    return widen(SB, SB.binop(Op::CmpNE32, D1, Zero));
  case Cond::MI:
  case Cond::LTS: // V=0 after logic ops, so LTS degenerates to N
    return widen(SB, SB.binop(Op::CmpLT32S, D1, Zero));
  case Cond::PL:
  case Cond::GES:
    return widen(SB, SB.binop(Op::CmpLE32S, Zero, D1));
  case Cond::GTS:
    return widen(SB, SB.binop(Op::CmpLT32S, Zero, D1));
  case Cond::LES:
    return widen(SB, SB.binop(Op::CmpLE32S, D1, Zero));
  case Cond::LTU: // C=0 after logic ops: LTU (= !C) is always true
    return SB.constI32(1);
  case Cond::GEU:
    return SB.constI32(0);
  }
  return nullptr;
}

Expr *specAdd(IRSB &SB, Cond C, Expr *D1, Expr *D2) {
  Expr *Sum = SB.binop(Op::Add32, D1, D2);
  Expr *Zero = SB.constI32(0);
  switch (C) {
  case Cond::EQ:
    return widen(SB, SB.binop(Op::CmpEQ32, Sum, Zero));
  case Cond::NE:
    return widen(SB, SB.binop(Op::CmpNE32, Sum, Zero));
  case Cond::MI:
    return widen(SB, SB.binop(Op::CmpLT32S, Sum, Zero));
  case Cond::PL:
    return widen(SB, SB.binop(Op::CmpLE32S, Zero, Sum));
  default:
    return nullptr; // carry/overflow conditions keep the helper call
  }
}

Expr *specCopy(IRSB &SB, Cond C, Expr *D1) {
  auto BitSet = [&](uint32_t Bit) {
    return widen(SB, SB.binop(Op::CmpNE32,
                              SB.binop(Op::And32, D1, SB.constI32(Bit)),
                              SB.constI32(0)));
  };
  auto BitClear = [&](uint32_t Bit) {
    return widen(SB, SB.binop(Op::CmpEQ32,
                              SB.binop(Op::And32, D1, SB.constI32(Bit)),
                              SB.constI32(0)));
  };
  switch (C) {
  case Cond::EQ:
    return BitSet(FlagZ);
  case Cond::NE:
    return BitClear(FlagZ);
  case Cond::MI:
    return BitSet(FlagN);
  case Cond::PL:
    return BitClear(FlagN);
  case Cond::LTU:
    return BitClear(FlagC);
  case Cond::GEU:
    return BitSet(FlagC);
  case Cond::LTS:
    return widen(SB,
                 SB.binop(Op::CmpNE32,
                          SB.binop(Op::And32,
                                   SB.binop(Op::Shr32, D1, SB.constI8(3)),
                                   SB.constI32(1)),
                          SB.binop(Op::And32, D1, SB.constI32(1))));
  case Cond::GES:
    return widen(SB,
                 SB.binop(Op::CmpEQ32,
                          SB.binop(Op::And32,
                                   SB.binop(Op::Shr32, D1, SB.constI8(3)),
                                   SB.constI32(1)),
                          SB.binop(Op::And32, D1, SB.constI32(1))));
  default:
    return nullptr; // GTS/LES on raw flags keep the helper call
  }
}

} // namespace

SpecFn vg::vg1SpecFn() {
  return [](IRSB &SB, const Callee *C,
            const std::vector<Expr *> &Args) -> Expr * {
    if (C->SpecKey != SpecKeyCalcCond || Args.size() != 4)
      return nullptr;
    Expr *CondA = Args[0], *OpA = Args[1], *D1 = Args[2], *D2 = Args[3];
    if (!CondA->isConst() || !OpA->isConst())
      return nullptr;
    // Fully constant: evaluate outright.
    if (D1->isConst() && D2->isConst())
      return SB.constI32(static_cast<uint32_t>(
          calcCond(static_cast<uint32_t>(CondA->ConstVal),
                   static_cast<uint32_t>(OpA->ConstVal),
                   static_cast<uint32_t>(D1->ConstVal),
                   static_cast<uint32_t>(D2->ConstVal))));
    Cond CC = static_cast<Cond>(CondA->ConstVal);
    switch (static_cast<CCOp>(OpA->ConstVal)) {
    case CCOp::Sub:
      return specSub(SB, CC, D1, D2);
    case CCOp::Logic:
      return specLogic(SB, CC, D1);
    case CCOp::Add:
      return specAdd(SB, CC, D1, D2);
    case CCOp::Copy:
      return specCopy(SB, CC, D1);
    }
    return nullptr;
  };
}
