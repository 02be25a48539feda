//===-- hvm/HostVM.cpp - Encoding (Phase 8) and printing ------------------==//

#include "hvm/HostVM.h"

#include <cassert>
#include <cstdio>
#include <cstring>
#include <iterator>

using namespace vg;
using namespace vg::hvm;

namespace {

unsigned encodedSizeFor(HOp Op) {
  switch (Op) {
  case HOp::LI:
    return 10;
  case HOp::MOV:
    return 3;
  case HOp::ALU:
    return 6;
  case HOp::ALU1:
    return 5;
  case HOp::ALUI:
    return 13;
  case HOp::LDG:
  case HOp::STG:
    return 7;
  case HOp::LDM:
  case HOp::STM:
    return 8;
  case HOp::SEL:
    return 5;
  case HOp::CALL:
    return 15;
  case HOp::JZ:
    return 6;
  case HOp::EXITI:
    return 10;
  case HOp::EXITR:
    return 3;
  case HOp::IMARK:
    return 5;
  case HOp::SPILL:
  case HOp::RELOAD:
    return 6;
  case HOp::ALUIS:
    return 6;
  case HOp::SHPROBE:
    return 6;
  }
  return 0;
}

unsigned encodedSize(const HInstr &I) { return encodedSizeFor(I.Op); }

/// Generic form of each specialised opcode, in SpecOp order.
constexpr HOp SpecForm[] = {
#define VG_HVM_X(Form, Size) HOp::Form,
    VG_HVM_SIZED_OPS(VG_HVM_X)
#undef VG_HVM_X
#define VG_HVM_X(O) HOp::ALU, HOp::ALUI, HOp::ALUIS,
    VG_HVM_BINOPS(VG_HVM_X)
#undef VG_HVM_X
#define VG_HVM_X(O) HOp::ALU1,
    VG_HVM_UNOPS(VG_HVM_X)
#undef VG_HVM_X
};
static_assert(std::size(SpecForm) == static_cast<size_t>(SpecOp::Count),
              "SpecForm out of step with SpecOp");

bool isAccess(HOp Op) {
  return Op == HOp::LDG || Op == HOp::STG || Op == HOp::LDM || Op == HOp::STM;
}

/// An instruction form paired with the field that picks its specialised
/// opcode: the access size, or the ir::Op.
constexpr uint32_t specKey(HOp Form, uint32_t Field) {
  return static_cast<uint32_t>(Form) << 16 | Field;
}
constexpr uint32_t specKey(HOp Form, ir::Op O) {
  return specKey(Form, static_cast<uint32_t>(O));
}

constexpr uint8_t specByte(SpecOp S) {
  return static_cast<uint8_t>(NumGenericOps + static_cast<unsigned>(S));
}

/// The opcode byte that selects \p I's handler: its specialised opcode
/// where one exists, else its generic form.
uint8_t opcodeByte(const HInstr &I) {
  bool Sized = isAccess(I.Op);
  switch (specKey(I.Op, Sized ? I.Size : static_cast<uint32_t>(I.IrOp))) {
#define VG_HVM_X(Form, Size)                                                   \
  case specKey(HOp::Form, Size):                                               \
    return specByte(SpecOp::Form##Size);
    VG_HVM_SIZED_OPS(VG_HVM_X)
#undef VG_HVM_X
#define VG_HVM_X(O)                                                            \
  case specKey(HOp::ALU, ir::Op::O):                                           \
    return specByte(SpecOp::ALU_##O);                                          \
  case specKey(HOp::ALUI, ir::Op::O):                                          \
    return specByte(SpecOp::ALUI_##O);                                         \
  case specKey(HOp::ALUIS, ir::Op::O):                                         \
    return specByte(SpecOp::ALUIS_##O);
    VG_HVM_BINOPS(VG_HVM_X)
#undef VG_HVM_X
#define VG_HVM_X(O)                                                            \
  case specKey(HOp::ALU1, ir::Op::O):                                          \
    return specByte(SpecOp::ALU1_##O);
    VG_HVM_UNOPS(VG_HVM_X)
#undef VG_HVM_X
  }
  assert(!Sized && "access of unsupported size reaches encoder");
  return static_cast<uint8_t>(I.Op);
}

void putU16(std::vector<uint8_t> &B, uint16_t V) {
  B.push_back(static_cast<uint8_t>(V));
  B.push_back(static_cast<uint8_t>(V >> 8));
}

void putU32(std::vector<uint8_t> &B, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    B.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void putU64(std::vector<uint8_t> &B, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    B.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

uint8_t r8(RegId R) {
  assert(!isVirtual(R) && R < NumHostRegs && "unallocated register reaches encoder");
  return static_cast<uint8_t>(R);
}

} // namespace

std::vector<uint8_t> hvm::encode(const HostCode &CodeIn) {
  // Immediate-form selection: ALUI with a byte-sized immediate uses the
  // compact ALUIS encoding (6 bytes instead of 13).
  HostCode Code = CodeIn;
  for (HInstr &I : Code.Instrs)
    if (I.Op == HOp::ALUI && I.Imm <= 0xFF)
      I.Op = HOp::ALUIS;

  // First pass: byte offset of every instruction (for JZ targets).
  std::vector<uint32_t> Offset(Code.Instrs.size() + 1, 0);
  uint32_t Pos = 0;
  for (size_t I = 0; I != Code.Instrs.size(); ++I) {
    Offset[I] = Pos;
    Pos += encodedSize(Code.Instrs[I]);
  }
  Offset[Code.Instrs.size()] = Pos;

  std::vector<uint8_t> B;
  B.reserve(Pos);
  for (const HInstr &I : Code.Instrs) {
    B.push_back(opcodeByte(I));
    switch (I.Op) {
    case HOp::LI:
      B.push_back(r8(I.Dst));
      putU64(B, I.Imm);
      break;
    case HOp::MOV:
      B.push_back(r8(I.Dst));
      B.push_back(r8(I.A));
      break;
    case HOp::ALU:
      putU16(B, static_cast<uint16_t>(I.IrOp));
      B.push_back(r8(I.Dst));
      B.push_back(r8(I.A));
      B.push_back(r8(I.B));
      break;
    case HOp::ALU1:
      putU16(B, static_cast<uint16_t>(I.IrOp));
      B.push_back(r8(I.Dst));
      B.push_back(r8(I.A));
      break;
    case HOp::ALUI:
      putU16(B, static_cast<uint16_t>(I.IrOp));
      B.push_back(r8(I.Dst));
      B.push_back(r8(I.A));
      putU64(B, I.Imm);
      break;
    case HOp::LDG:
      B.push_back(r8(I.Dst));
      putU32(B, I.Off);
      B.push_back(I.Size);
      break;
    case HOp::STG:
      B.push_back(r8(I.A));
      putU32(B, I.Off);
      B.push_back(I.Size);
      break;
    case HOp::LDM:
      B.push_back(r8(I.Dst));
      B.push_back(r8(I.A));
      putU32(B, static_cast<uint32_t>(I.Disp));
      B.push_back(I.Size);
      break;
    case HOp::STM:
      B.push_back(r8(I.A));
      B.push_back(r8(I.B));
      putU32(B, static_cast<uint32_t>(I.Disp));
      B.push_back(I.Size);
      break;
    case HOp::SEL:
      B.push_back(r8(I.Dst));
      B.push_back(r8(I.A));
      B.push_back(r8(I.B));
      B.push_back(r8(I.C));
      break;
    case HOp::CALL:
      putU64(B, reinterpret_cast<uint64_t>(I.CalleeFn));
      B.push_back(I.Dst == NoReg ? 0xFF : r8(I.Dst));
      B.push_back(I.NArgs);
      for (int J = 0; J != 4; ++J)
        B.push_back(I.Args[J] == NoReg ? 0 : r8(I.Args[J]));
      break;
    case HOp::JZ:
      B.push_back(r8(I.A));
      assert(I.Label >= 0 &&
             static_cast<size_t>(I.Label) < Offset.size() &&
             "JZ with unresolved label");
      putU32(B, Offset[I.Label]);
      break;
    case HOp::EXITI:
      putU32(B, static_cast<uint32_t>(I.Imm));
      B.push_back(I.JKind);
      putU32(B, I.ChainSlot);
      break;
    case HOp::EXITR:
      B.push_back(r8(I.A));
      B.push_back(I.JKind);
      break;
    case HOp::IMARK:
      putU32(B, static_cast<uint32_t>(I.Imm));
      break;
    case HOp::SPILL:
      B.push_back(r8(I.A));
      putU32(B, I.Off);
      break;
    case HOp::RELOAD:
      B.push_back(r8(I.Dst));
      putU32(B, I.Off);
      break;
    case HOp::ALUIS:
      putU16(B, static_cast<uint16_t>(I.IrOp));
      B.push_back(r8(I.Dst));
      B.push_back(r8(I.A));
      B.push_back(static_cast<uint8_t>(I.Imm));
      break;
    case HOp::SHPROBE:
      B.push_back(r8(I.Dst));
      B.push_back(r8(I.A));
      B.push_back(I.B == NoReg ? 0xFF : r8(I.B));
      B.push_back(static_cast<uint8_t>(I.Imm)); // bit 0: store form
      B.push_back(I.Size);
      break;
    }
  }
  return B;
}

OpcodeInfo hvm::opcodeInfo(uint8_t Byte) {
  if (Byte >= NumOpcodes)
    return {HOp::LI, 0};
  HOp Form = Byte < NumGenericOps ? static_cast<HOp>(Byte)
                                  : SpecForm[Byte - NumGenericOps];
  // Accesses are always encoded with their size-specialised byte.
  if (Byte < NumGenericOps && isAccess(Form))
    return {Form, 0};
  return {Form, static_cast<uint8_t>(encodedSizeFor(Form))};
}

bool hvm::findCalleeSlots(const std::vector<uint8_t> &Bytes,
                          std::vector<uint32_t> &Slots) {
  Slots.clear();
  return walkOpcodes(Bytes, [&](uint32_t Off, uint8_t, HOp Form) {
    if (Form == HOp::CALL)
      Slots.push_back(Off + 1); // field follows opcode
  });
}

std::string hvm::toString(const HInstr &I) {
  char Buf[160];
  auto RN = [](RegId R) {
    static thread_local char N[4][16];
    static thread_local int Slot = 0;
    char *P = N[Slot];
    Slot = (Slot + 1) & 3;
    if (R == NoReg)
      std::snprintf(P, 16, "-");
    else if (isVirtual(R))
      std::snprintf(P, 16, "%%%%vr%u", R - VirtBase);
    else
      std::snprintf(P, 16, "h%u", R);
    return P;
  };
  switch (I.Op) {
  case HOp::LI:
    std::snprintf(Buf, sizeof(Buf), "li    %s, 0x%llx", RN(I.Dst),
                  static_cast<unsigned long long>(I.Imm));
    break;
  case HOp::MOV:
    std::snprintf(Buf, sizeof(Buf), "mov   %s, %s", RN(I.Dst), RN(I.A));
    break;
  case HOp::ALU:
    std::snprintf(Buf, sizeof(Buf), "%-5s %s, %s, %s", ir::opName(I.IrOp),
                  RN(I.Dst), RN(I.A), RN(I.B));
    break;
  case HOp::ALU1:
    std::snprintf(Buf, sizeof(Buf), "%-5s %s, %s", ir::opName(I.IrOp),
                  RN(I.Dst), RN(I.A));
    break;
  case HOp::ALUI:
  case HOp::ALUIS:
    std::snprintf(Buf, sizeof(Buf), "%-5s %s, %s, 0x%llx", ir::opName(I.IrOp),
                  RN(I.Dst), RN(I.A),
                  static_cast<unsigned long long>(I.Imm));
    break;
  case HOp::LDG:
    std::snprintf(Buf, sizeof(Buf), "ldg   %s, gst[%u], %u", RN(I.Dst), I.Off,
                  I.Size);
    break;
  case HOp::STG:
    std::snprintf(Buf, sizeof(Buf), "stg   gst[%u], %s, %u", I.Off, RN(I.A),
                  I.Size);
    break;
  case HOp::LDM:
    std::snprintf(Buf, sizeof(Buf), "ldm   %s, [%s%+d], %u", RN(I.Dst),
                  RN(I.A), I.Disp, I.Size);
    break;
  case HOp::STM:
    std::snprintf(Buf, sizeof(Buf), "stm   [%s%+d], %s, %u", RN(I.A), I.Disp,
                  RN(I.B), I.Size);
    break;
  case HOp::SEL:
    std::snprintf(Buf, sizeof(Buf), "sel   %s, %s, %s, %s", RN(I.Dst),
                  RN(I.A), RN(I.B), RN(I.C));
    break;
  case HOp::CALL:
    std::snprintf(Buf, sizeof(Buf), "call  %s = %s/%u", RN(I.Dst),
                  I.CalleeFn ? I.CalleeFn->Name : "?", I.NArgs);
    break;
  case HOp::JZ:
    std::snprintf(Buf, sizeof(Buf), "jz    %s, @%d", RN(I.A), I.Label);
    break;
  case HOp::EXITI:
    std::snprintf(Buf, sizeof(Buf), "exiti 0x%llx, %s",
                  static_cast<unsigned long long>(I.Imm),
                  ir::jumpKindName(static_cast<ir::JumpKind>(I.JKind)));
    break;
  case HOp::EXITR:
    std::snprintf(Buf, sizeof(Buf), "exitr %s, %s", RN(I.A),
                  ir::jumpKindName(static_cast<ir::JumpKind>(I.JKind)));
    break;
  case HOp::IMARK:
    std::snprintf(Buf, sizeof(Buf), "imark 0x%llx",
                  static_cast<unsigned long long>(I.Imm));
    break;
  case HOp::SPILL:
    std::snprintf(Buf, sizeof(Buf), "spill frame[%u], %s", I.Off, RN(I.A));
    break;
  case HOp::RELOAD:
    std::snprintf(Buf, sizeof(Buf), "reload %s, frame[%u]", RN(I.Dst), I.Off);
    break;
  case HOp::SHPROBE:
    if (I.Imm & 1)
      std::snprintf(Buf, sizeof(Buf), "shprobe.st%u %s, [%s], %s", I.Size,
                    RN(I.Dst), RN(I.A), RN(I.B));
    else
      std::snprintf(Buf, sizeof(Buf), "shprobe.ld%u %s, [%s]", I.Size,
                    RN(I.Dst), RN(I.A));
    break;
  }
  return Buf;
}
