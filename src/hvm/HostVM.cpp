//===-- hvm/HostVM.cpp - Encoding (Phase 8) and printing ------------------==//

#include "hvm/HostVM.h"

#include <algorithm>
#include <array>
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

/// How many ir::Ops there are.
constexpr unsigned NumIrOps =
#define X(Name, RT, N, A1, A2) +1
    0 VG_IROP_LIST(X);
#undef X

/// Columns of SpecBytes: every access size and every ir::Op has one.
constexpr unsigned SpecCols = 128;
static_assert(NumIrOps <= SpecCols, "ir::Ops overflow SpecBytes");

/// SpecBytes[Form][Field]: the specialised opcode byte of a Form
/// instruction whose access size or ir::Op is Field, or 0 where it has
/// none. A table, not a switch: the encoder looks it up for every
/// instruction it writes and for the members of each group it checks.
constexpr auto SpecBytes = [] {
  std::array<std::array<uint8_t, SpecCols>, NumGenericOps> T{};
  auto Set = [&](HOp Form, unsigned Field, SpecOp S) {
    T[byteOf(Form)][Field] = byteOf(S);
  };
#define VG_HVM_X(Form, Size) Set(HOp::Form, Size, SpecOp::Form##Size);
  VG_HVM_SIZED_OPS(VG_HVM_X)
#undef VG_HVM_X
#define VG_HVM_X(O)                                                            \
  Set(HOp::ALU, static_cast<unsigned>(ir::Op::O), SpecOp::ALU_##O);            \
  Set(HOp::ALUI, static_cast<unsigned>(ir::Op::O), SpecOp::ALUI_##O);          \
  Set(HOp::ALUIS, static_cast<unsigned>(ir::Op::O), SpecOp::ALUIS_##O);
  VG_HVM_BINOPS(VG_HVM_X)
#undef VG_HVM_X
#define VG_HVM_X(O)                                                            \
  Set(HOp::ALU1, static_cast<unsigned>(ir::Op::O), SpecOp::ALU1_##O);
  VG_HVM_UNOPS(VG_HVM_X)
#undef VG_HVM_X
  return T;
}();

/// The opcode byte that selects \p I's handler when it runs alone: its
/// specialised opcode where one exists, else its generic form (for an
/// access of a size without one, a byte no walker accepts).
uint8_t opcodeByte(const HInstr &I) {
  unsigned Field = isAccess(I.Op) ? I.Size : static_cast<unsigned>(I.IrOp);
  uint8_t Spec = Field < SpecCols ? SpecBytes[byteOf(I.Op)][Field] : 0;
  return Spec ? Spec : byteOf(I.Op);
}

/// The member opcode bytes of each group, in Group order.
struct GroupDef {
  uint8_t Members[3];
  size_t size() const { return Members[2] == NoMember ? 2 : 3; }
};
constexpr GroupDef GroupDefs[] = {
#define VG_HVM_X(Name, M0, M1, M2) {{M0, M1, M2}},
    VG_HVM_GROUPS(VG_HVM_X)
#undef VG_HVM_X
};
static_assert(std::size(GroupDefs) == static_cast<size_t>(Group::Count),
              "GroupDefs out of step with Group");

/// A group is named by its first two members' bytes: chooseByte tries only
/// the one group they name.
constexpr bool firstTwoMembersUnique(const GroupDef *Defs, size_t N) {
  for (size_t A = 0; A != N; ++A)
    for (size_t B = A + 1; B != N; ++B)
      if (Defs[A].Members[0] == Defs[B].Members[0] &&
          Defs[A].Members[1] == Defs[B].Members[1])
        return false;
  return true;
}
static_assert(firstTwoMembersUnique(GroupDefs, std::size(GroupDefs)),
              "two groups start with the same two opcode bytes");

/// Whether \p Is[0..N), whose own opcode bytes are \p Bytes, begin with
/// \p G's members: each has its member's byte, and each that reads a
/// register (A) reads the one its predecessor writes (Dst), if any. The
/// encoder asks this of the instructions it is about to write, and
/// checkOperands of the instructions behind a group byte.
bool fits(const GroupDef &G, const HInstr *Is, const uint8_t *Bytes,
          size_t N) {
  if (G.size() > N)
    return false;
  for (size_t J = 0; J != G.size(); ++J)
    if (Bytes[J] != G.Members[J] ||
        (J && Is[J - 1].Dst != NoReg && Is[J].A != NoReg &&
         Is[J].A != Is[J - 1].Dst))
      return false;
  return true;
}

/// Whether some group's lead has this opcode byte.
constexpr std::array<bool, 256> LeadsGroup = [] {
  std::array<bool, 256> T{};
  for (const GroupDef &G : GroupDefs)
    T[G.Members[0]] = true;
  return T;
}();

/// The byte encode() writes for \p Is[0], whose own byte is \p Own: the
/// group whose members are \p Is[0..N) (N at most 3), else Own.
uint8_t chooseByte(const HInstr *Is, uint8_t Own, size_t N) {
  if (!LeadsGroup[Own] || N < 2)
    return Own;
  uint8_t Bytes[3] = {Own, opcodeByte(Is[1]), NoMember};
  for (size_t G = 0; G != std::size(GroupDefs); ++G) {
    const GroupDef &D = GroupDefs[G];
    if (D.Members[0] != Own || D.Members[1] != Bytes[1])
      continue;
    if (N == 3)
      Bytes[2] = opcodeByte(Is[2]);
    return fits(D, Is, Bytes, N) ? byteOf(static_cast<Group>(G)) : Own;
  }
  return Own;
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

template <typename T> T rd(const uint8_t *P) {
  T V;
  std::memcpy(&V, P, sizeof(V));
  return V;
}

uint8_t r8(RegId R) {
  assert(!isVirtual(R) && R < NumHostRegs && "unallocated register reaches encoder");
  return static_cast<uint8_t>(R);
}

/// Decodes the instruction at \p P, which the opcode walker has checked:
/// the inverse of encode() for one instruction (a group byte decodes as
/// its lead). Register bytes come back as written (CALL's and SHPROBE's
/// 0xFF as NoReg), a JZ's Label is its target's byte offset, and a CALL's
/// callee field is not read (findCalleeSlots finds it).
HInstr decodeInstr(const uint8_t *P) {
  HInstr I;
  I.Op = opcodeInfo(P[0]).Form;
  auto Reg = [](uint8_t R) { return R == 0xFF ? NoReg : RegId{R}; };
  switch (I.Op) {
  case HOp::LI:
    I.Dst = P[1];
    I.Imm = rd<uint64_t>(P + 2);
    break;
  case HOp::MOV:
    I.Dst = P[1];
    I.A = P[2];
    break;
  case HOp::ALU:
  case HOp::ALU1:
  case HOp::ALUI:
  case HOp::ALUIS:
    I.IrOp = static_cast<ir::Op>(rd<uint16_t>(P + 1));
    I.Dst = P[3];
    I.A = P[4];
    if (I.Op == HOp::ALU)
      I.B = P[5];
    else if (I.Op == HOp::ALUI)
      I.Imm = rd<uint64_t>(P + 5);
    else if (I.Op == HOp::ALUIS)
      I.Imm = P[5];
    break;
  case HOp::LDG:
    I.Dst = P[1];
    I.Off = rd<uint32_t>(P + 2);
    I.Size = P[6];
    break;
  case HOp::STG:
    I.A = P[1];
    I.Off = rd<uint32_t>(P + 2);
    I.Size = P[6];
    break;
  case HOp::LDM:
    I.Dst = P[1];
    I.A = P[2];
    I.Disp = rd<int32_t>(P + 3);
    I.Size = P[7];
    break;
  case HOp::STM:
    I.A = P[1];
    I.B = P[2];
    I.Disp = rd<int32_t>(P + 3);
    I.Size = P[7];
    break;
  case HOp::SEL:
    I.Dst = P[1];
    I.A = P[2];
    I.B = P[3];
    I.C = P[4];
    break;
  case HOp::CALL:
    I.Dst = Reg(P[9]);
    I.NArgs = P[10];
    for (int J = 0; J != 4; ++J)
      I.Args[J] = P[11 + J];
    break;
  case HOp::JZ:
    I.A = P[1];
    I.Label = rd<int32_t>(P + 2);
    break;
  case HOp::EXITI:
    I.Imm = rd<uint32_t>(P + 1);
    I.JKind = P[5];
    I.ChainSlot = rd<uint32_t>(P + 6);
    break;
  case HOp::EXITR:
    I.A = P[1];
    I.JKind = P[2];
    break;
  case HOp::IMARK:
    I.Imm = rd<uint32_t>(P + 1);
    break;
  case HOp::SPILL:
    I.A = P[1];
    I.Off = rd<uint32_t>(P + 2);
    break;
  case HOp::RELOAD:
    I.Dst = P[1];
    I.Off = rd<uint32_t>(P + 2);
    break;
  case HOp::SHPROBE:
    I.Dst = P[1];
    I.A = P[2];
    I.B = Reg(P[3]);
    I.Imm = P[4];
    I.Size = P[5];
    break;
  }
  return I;
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
  const size_t N = Code.Instrs.size();
  for (size_t K = 0; K != N; ++K) {
    const HInstr &I = Code.Instrs[K];
    B.push_back(chooseByte(&I, opcodeByte(I), std::min<size_t>(3, N - K)));
    assert(opcodeInfo(B.back()).Len &&
           "access of unsupported size reaches encoder");
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
    return {HOp::LI, 0, Byte, 0};
  if (Byte >= FirstGroupByte) {
    const GroupDef &G = GroupDefs[Byte - FirstGroupByte];
    OpcodeInfo Info = opcodeInfo(G.Members[0]);
    for (size_t J = 1; J != G.size(); ++J)
      Info.GroupLen += opcodeInfo(G.Members[J]).Len;
    return Info;
  }
  HOp Form = Byte < NumGenericOps ? static_cast<HOp>(Byte)
                                  : SpecForm[Byte - NumGenericOps];
  // Accesses are always encoded with their size-specialised byte.
  if (Byte < NumGenericOps && isAccess(Form))
    return {Form, 0, Byte, 0};
  auto Len = static_cast<uint8_t>(encodedSizeFor(Form));
  return {Form, Len, Byte, Len};
}

bool hvm::checkOperands(const std::vector<uint8_t> &Bytes,
                        uint32_t GuestStateSize, uint32_t NumSpillSlots,
                        const std::vector<uint32_t> &ChainTargets) {
  std::vector<uint32_t> Starts;
  if (!walkOpcodes(Bytes, [&](uint32_t Off, uint8_t, HOp) {
        Starts.push_back(Off);
      }) ||
      Starts.empty())
    return false;
  std::vector<HInstr> Is;
  Is.reserve(Starts.size());
  for (uint32_t Off : Starts)
    Is.push_back(decodeInstr(Bytes.data() + Off));

  auto RegOk = [](RegId R) { return R == NoReg || R < NumHostRegs; };
  auto KindOk = [](uint8_t JK) {
    return JK <= static_cast<uint8_t>(ir::JumpKind::SmcFail);
  };
  uint32_t NextSlot = 0; // ISel numbers the EXITIs' chain slots in order
  for (size_t K = 0; K != Is.size(); ++K) {
    const HInstr &I = Is[K];
    OpcodeInfo Info = opcodeInfo(Bytes[Starts[K]]);
    if (opcodeByte(I) != Info.Lead ||
        static_cast<unsigned>(I.IrOp) >= NumIrOps || !RegOk(I.Dst) ||
        !RegOk(I.A) || !RegOk(I.B) || !RegOk(I.C))
      return false;
    switch (I.Op) {
    case HOp::LDG:
    case HOp::STG:
      if (uint64_t{I.Off} + I.Size > GuestStateSize)
        return false;
      break;
    case HOp::SPILL:
    case HOp::RELOAD:
      if (I.Off >= NumSpillSlots)
        return false;
      break;
    case HOp::CALL:
      if (I.NArgs > 4 ||
          !std::all_of(std::begin(I.Args), std::end(I.Args),
                       [](RegId R) { return R < NumHostRegs; }))
        return false;
      break;
    case HOp::JZ: {
      auto Target = static_cast<uint32_t>(I.Label);
      if (Target <= Starts[K] ||
          !std::binary_search(Starts.begin(), Starts.end(), Target))
        return false;
      break;
    }
    case HOp::SHPROBE:
      if ((I.Imm & 1) && I.B == NoReg) // the store form reads its V-word
        return false;
      break;
    case HOp::EXITI: {
      // The executor indexes the blob's chain vectors by this slot, and
      // the translation table links it by ChainTargets[slot].
      bool Boring = I.JKind == static_cast<uint8_t>(ir::JumpKind::Boring);
      if (!KindOk(I.JKind) || I.ChainSlot != NextSlot++ ||
          I.ChainSlot >= ChainTargets.size() ||
          ChainTargets[I.ChainSlot] !=
              (Boring ? static_cast<uint32_t>(I.Imm) : NoChainTarget))
        return false;
      break;
    }
    case HOp::EXITR:
      if (!KindOk(I.JKind))
        return false;
      break;
    default:
      break;
    }
    if (Bytes[Starts[K]] >= FirstGroupByte) {
      const GroupDef &G = GroupDefs[Bytes[Starts[K]] - FirstGroupByte];
      size_t N = std::min<size_t>(G.size(), Is.size() - K);
      uint8_t Own[3] = {};
      for (size_t J = 0; J != N; ++J)
        Own[J] = opcodeInfo(Bytes[Starts[K + J]]).Lead;
      if (!fits(G, &Is[K], Own, N))
        return false;
    }
  }
  HOp Last = Is.back().Op;
  return (Last == HOp::EXITI || Last == HOp::EXITR) &&
         NextSlot == ChainTargets.size();
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
