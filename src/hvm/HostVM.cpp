//===-- hvm/HostVM.cpp - Encoding (Phase 8) and printing ------------------==//

#include "hvm/HostVM.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <type_traits>
#include <utility>

using namespace vg;
using namespace vg::hvm;

namespace {

constexpr bool isAccess(HOp Op) {
  return Op == HOp::LDG || Op == HOp::STG || Op == HOp::LDM || Op == HOp::STM;
}

/// Columns of SpecBytes: every access size and every ir::Op has one.
constexpr unsigned SpecCols = 128;
static_assert(ir::NumOps <= SpecCols, "ir::Ops overflow SpecBytes");

/// SpecBytes[Form][Field]: the specialised opcode byte of a Form
/// instruction whose access size or ir::Op is Field, or 0 where it has
/// none. A table, not a switch: the encoder looks it up for every
/// instruction it writes.
constexpr auto SpecBytes = [] {
  std::array<std::array<uint8_t, SpecCols>, NumGenericOps> T{};
  for (size_t S = 0; S != std::size(SpecDefs); ++S)
    T[byteOf(SpecDefs[S].Form)][SpecDefs[S].Field] =
        byteOf(static_cast<SpecOp>(S));
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

/// What the row rules ask of up to MaxMembers adjacent instructions,
/// packed into a word: instruction J's own opcode byte in bits [8J, 8J + 8)
/// (0xFF past the end, which no member has), and for J >= 1, at bit
/// RelBit + 2(J - 1), whether its A is instruction J - 1's Dst (Fwd::A
/// holds) and, at the next bit, whether Fwd::Left holds.
using Window = uint64_t;
constexpr unsigned RelBit = 8 * MaxMembers;
constexpr Window NoBytes = (Window{1} << RelBit) - 1;
static_assert(FirstGroupByte <= 0xFF, "0xFF must not be a member byte");

/// The relation bits of \p I to the instruction \p P before it.
Window relation(const HInstr &P, const HInstr &I) {
  return Window(I.A == P.Dst) |
         Window((I.A == P.A) & (I.B == P.Dst) & (P.A != P.Dst)) << 1;
}

/// The window of \p Is[0..N), whose J-th own byte is Byte(J).
template <typename Fn>
Window windowOf(const HInstr *Is, size_t N, Fn &&Byte) {
  Window W = NoBytes;
  N = N < MaxMembers ? N : MaxMembers;
  for (size_t J = N; J--;)
    W = W << 8 | Byte(J);
  W &= NoBytes;
  for (size_t J = 1; J < N; ++J)
    W |= relation(Is[J - 1], Is[J]) << (RelBit + 2 * (J - 1));
  return W;
}

/// Each row as a Window: its member bytes and forwarding relations, and
/// the mask of what it constrains.
struct RowKey {
  Window Bits, Mask;
};
constexpr auto RowKeys = [] {
  std::array<RowKey, std::size(GroupDefs)> T{};
  for (size_t G = 0; G != T.size(); ++G) {
    const GroupDef &D = GroupDefs[G];
    T[G].Mask = (Window{1} << (8 * D.N)) - 1;
    for (unsigned J = 0; J != D.N; ++J) {
      T[G].Bits |= Window{D.Members[J].Byte} << (8 * J);
      if (D.Members[J].F == Fwd::Own)
        continue;
      Window Rel = Window{D.Members[J].F == Fwd::A ? 1u : 2u}
                   << (RelBit + 2 * (J - 1));
      T[G].Bits |= Rel;
      T[G].Mask |= Rel;
    }
  }
  return T;
}();

/// Whether the instructions window \p W describes begin with row \p G:
/// each has its member's byte, and each forwarded operand is the register
/// the row names (for Left, the Neg32 also did not overwrite its operand).
/// The encoder asks this of the instructions it is about to write, and
/// checkOperands of the instructions behind a group byte.
bool fits(unsigned G, Window W) {
  return (W & RowKeys[G].Mask) == RowKeys[G].Bits;
}

/// Per opcode byte below the groups, the rows it leads, longest first
/// (ties in list order), at most MaxRowsPerLead: their keys (an unused
/// slot's matches no window) and bytes, and after them the lead's own
/// byte. A table over every own byte, not a lookup of the leads: a branch
/// per instruction on whether it leads a row, and one per row, doubled the
/// matcher's share of encode time on memcheck-short.
constexpr unsigned MaxRowsPerLead = 4;
struct LeadRows {
  RowKey Keys[MaxRowsPerLead];
  uint8_t Bytes[MaxRowsPerLead + 1];
};
constexpr auto Leads = [] {
  std::array<LeadRows, FirstGroupByte> T{};
  for (unsigned L = 0; L != T.size(); ++L) {
    for (RowKey &K : T[L].Keys)
      K = {~Window{0}, ~Window{0}};
    for (uint8_t &B : T[L].Bytes)
      B = static_cast<uint8_t>(L);
  }
  std::array<uint8_t, std::size(GroupDefs)> Order{};
  for (size_t G = 0; G != Order.size(); ++G)
    Order[G] = static_cast<uint8_t>(G);
  std::sort(Order.begin(), Order.end(), [](uint8_t X, uint8_t Y) {
    return GroupDefs[X].N != GroupDefs[Y].N ? GroupDefs[X].N > GroupDefs[Y].N
                                            : X < Y;
  });
  std::array<uint8_t, FirstGroupByte> Used{};
  for (uint8_t G : Order) {
    uint8_t L = GroupDefs[G].Members[0].Byte;
    if (Used[L] == MaxRowsPerLead)
      throw "more rows share a lead byte than MaxRowsPerLead";
    T[L].Keys[Used[L]] = RowKeys[G];
    T[L].Bytes[Used[L]++] = byteOf(static_cast<Group>(G));
  }
  return T;
}();

/// The byte encode() writes for the first of the instructions \p W
/// describes: the longest row they begin with, else its own byte. Every
/// row its byte leads is compared, and none is branched on.
uint8_t chooseByte(Window W) {
  assert(static_cast<uint8_t>(W) < FirstGroupByte && "not an own byte");
  const LeadRows &R = Leads[static_cast<uint8_t>(W)];
  unsigned Hits = 1u << MaxRowsPerLead;
  for (unsigned J = 0; J != MaxRowsPerLead; ++J)
    Hits |= unsigned((W & R.Keys[J].Mask) == R.Keys[J].Bits) << J;
  return R.Bytes[std::countr_zero(Hits)];
}

uint8_t r8(RegId R) {
  assert(!isVirtual(R) && R < NumHostRegs && "unallocated register reaches encoder");
  return static_cast<uint8_t>(R);
}

/// The HInstr member a field of kind F holds.
template <Fld F, typename Instr> auto &member(Instr &In) {
  if constexpr (F == Fld::Dst || F == Fld::OptDst)
    return In.Dst;
  else if constexpr (F == Fld::A)
    return In.A;
  else if constexpr (F == Fld::B || F == Fld::OptB)
    return In.B;
  else if constexpr (F == Fld::C)
    return In.C;
  else if constexpr (F == Fld::Args)
    return In.Args;
  else if constexpr (F == Fld::IrOp)
    return In.IrOp;
  else if constexpr (F == Fld::Imm8 || F == Fld::Imm32 || F == Fld::Imm64)
    return In.Imm;
  else if constexpr (F == Fld::Off)
    return In.Off;
  else if constexpr (F == Fld::Disp)
    return In.Disp;
  else if constexpr (F == Fld::Size)
    return In.Size;
  else if constexpr (F == Fld::JKind)
    return In.JKind;
  else if constexpr (F == Fld::ChainSlot)
    return In.ChainSlot;
  else if constexpr (F == Fld::Label)
    return In.Label;
  else if constexpr (F == Fld::NArgs)
    return In.NArgs;
  else {
    static_assert(F == Fld::Callee, "field kind without an HInstr member");
    return In.CalleeFn;
  }
}

constexpr bool isReg(Fld F) {
  return F == Fld::Dst || F == Fld::A || F == Fld::B || F == Fld::C;
}
constexpr bool isOptReg(Fld F) { return F == Fld::OptDst || F == Fld::OptB; }

/// Appends field F of \p I, little-endian; \p Offset maps instruction
/// indices to byte offsets (for a JZ's Label).
template <Fld F>
[[gnu::always_inline]] inline void
putField(std::vector<uint8_t> &B, const HInstr &I,
         const std::vector<uint32_t> &Offset) {
  const auto &M = member<F>(I);
  if constexpr (F == Fld::Args) {
    for (RegId R : M)
      B.push_back(R == NoReg ? 0 : r8(R));
  } else if constexpr (isReg(F)) {
    B.push_back(r8(M));
  } else if constexpr (isOptReg(F)) {
    B.push_back(M == NoReg ? 0xFF : r8(M));
  } else {
    uint64_t V;
    if constexpr (F == Fld::Label) {
      assert(M >= 0 && static_cast<size_t>(M) < Offset.size() &&
             "JZ with unresolved label");
      V = Offset[M];
    } else if constexpr (F == Fld::Callee) {
      V = reinterpret_cast<uint64_t>(M);
    } else {
      V = static_cast<uint64_t>(M);
    }
    for (unsigned K = 0; K != widthOf(F); ++K)
      B.push_back(static_cast<uint8_t>(V >> (8 * K)));
  }
}

/// Reads field F, which starts at \p P, into \p I: the inverse of
/// putField (a Label reads back as its target's byte offset). Register
/// bytes come back as written, so that checkOperands sees them; only
/// OptDst and OptB read 0xFF as NoReg.
template <Fld F> void getField(HInstr &I, const uint8_t *P) {
  auto &M = member<F>(I);
  if constexpr (F == Fld::Args) {
    for (int J = 0; J != 4; ++J)
      M[J] = P[J];
  } else if constexpr (isOptReg(F)) {
    M = *P == 0xFF ? NoReg : RegId{*P};
  } else {
    uint64_t V = 0;
    std::memcpy(&V, P, widthOf(F)); // V's low bytes, on a little-endian host
    if constexpr (F == Fld::Callee)
      M = reinterpret_cast<const ir::Callee *>(V);
    else
      M = static_cast<std::remove_reference_t<decltype(M)>>(V);
  }
}

template <HOp Op>
using FieldIndices =
    std::make_index_sequence<std::size(FormLayout<Op>::Fields)>;

/// Appends \p I's fields, form Op's layout unrolled: one inlined copy per
/// form, so encode() switches on the form once, not on every field.
template <HOp Op, size_t... K>
[[gnu::always_inline]] inline void
putFields(std::vector<uint8_t> &B, const HInstr &I,
          const std::vector<uint32_t> &Offset, std::index_sequence<K...>) {
  (putField<FormLayout<Op>::Fields[K]>(B, I, Offset), ...);
}

/// Reads form Op's fields of the instruction at \p P into \p I.
template <HOp Op, size_t... K>
void getFields(HInstr &I, const uint8_t *P, std::index_sequence<K...>) {
  (getField<FormLayout<Op>::Fields[K]>(
       I, P + At<Op, FormLayout<Op>::Fields[K]>),
   ...);
}

/// Decodes the instruction at \p P, which the opcode walker has checked:
/// the inverse of encode() for one instruction (a group byte decodes as
/// its lead, and a JZ's Label is its target's byte offset).
HInstr decodeInstr(const uint8_t *P) {
  HInstr I;
  I.Op = opcodeInfo(P[0]).Form;
  switch (I.Op) {
#define VG_HVM_X(Name, ...)                                                    \
  case HOp::Name:                                                              \
    getFields<HOp::Name>(I, P, FieldIndices<HOp::Name>{});                     \
    break;
    VG_HVM_FORMS(VG_HVM_X)
#undef VG_HVM_X
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
    Pos += Lengths[byteOf(Code.Instrs[I].Op)];
  }
  Offset[Code.Instrs.size()] = Pos;

  std::vector<uint8_t> B;
  B.reserve(Pos);
  const size_t N = Code.Instrs.size();
  // What the rows ask of the instructions from K on: each own byte and
  // relation is computed once, as its instruction enters the window.
  Window W = windowOf(Code.Instrs.data(), N,
                      [&](size_t J) { return opcodeByte(Code.Instrs[J]); });
  for (size_t K = 0; K != N; ++K) {
    const HInstr &I = Code.Instrs[K];
    B.push_back(chooseByte(W));
    assert(opcodeInfo(B.back()).Len &&
           "access of unsupported size reaches encoder");
    switch (I.Op) {
#define VG_HVM_X(Name, ...)                                                    \
  case HOp::Name:                                                              \
    putFields<HOp::Name>(B, I, Offset, FieldIndices<HOp::Name>{});             \
    break;
      VG_HVM_FORMS(VG_HVM_X)
#undef VG_HVM_X
    }
    // Slide the window on: instruction K + MaxMembers enters its last
    // slot, past the end 0xFF with no relation.
    Window Bytes = (W & NoBytes) >> 8, Rels = W >> (RelBit + 2);
    if (K + MaxMembers < N) {
      const HInstr &Next = Code.Instrs[K + MaxMembers];
      Bytes |= Window{opcodeByte(Next)} << (8 * (MaxMembers - 1));
      Rels |= relation(Code.Instrs[K + MaxMembers - 1], Next)
              << (2 * (MaxMembers - 2));
    } else {
      Bytes |= Window{0xFF} << (8 * (MaxMembers - 1));
    }
    W = Bytes | Rels << RelBit;
  }
  return B;
}

/// opcodeInfo of every byte: a group byte reads as its lead, with the
/// length of all its members beside it.
constexpr auto OpcodeInfos = [] {
  std::array<OpcodeInfo, 256> T{};
  for (unsigned Byte = 0; Byte != T.size(); ++Byte) {
    if (Byte >= FirstGroupByte) {
      T[Byte] = {HOp::LI, 0, static_cast<uint8_t>(Byte), 0};
      continue;
    }
    HOp Form = opcodeDef(static_cast<uint8_t>(Byte)).Form;
    // Accesses are always encoded with their size-specialised byte.
    uint8_t Len =
        Byte < NumGenericOps && isAccess(Form) ? 0 : Lengths[byteOf(Form)];
    T[Byte] = {Form, Len, static_cast<uint8_t>(Byte), Len};
  }
  for (unsigned G = 0; G != std::size(GroupDefs); ++G) {
    const GroupDef &D = GroupDefs[G];
    OpcodeInfo &Info = T[byteOf(static_cast<Group>(G))];
    Info = T[D.Members[0].Byte];
    for (unsigned J = 1; J != D.N; ++J)
      Info.GroupLen += T[D.Members[J].Byte].Len;
  }
  return T;
}();

OpcodeInfo hvm::opcodeInfo(uint8_t Byte) { return OpcodeInfos[Byte]; }

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
        static_cast<unsigned>(I.IrOp) >= ir::NumOps || !RegOk(I.Dst) ||
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
    if (Bytes[Starts[K]] >= FirstGroupByte &&
        !fits(Bytes[Starts[K]] - FirstGroupByte,
              windowOf(&Is[K], Is.size() - K, [&](size_t J) {
                return opcodeInfo(Bytes[Starts[K + J]]).Lead;
              })))
      return false;
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
      Slots.push_back(Off + At<HOp::CALL, Fld::Callee>);
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
