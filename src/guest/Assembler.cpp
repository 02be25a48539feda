//===-- guest/Assembler.cpp - Programmatic VG1 assembler ------------------==//

#include "guest/Assembler.h"

#include "support/Errors.h"

using namespace vg;
using namespace vg::vg1;

Label Assembler::newLabel() {
  Label L;
  L.Id = static_cast<int>(LabelOffsets.size());
  LabelOffsets.push_back(-1);
  return L;
}

void Assembler::bind(Label L) {
  assert(L.valid() && "binding an invalid label");
  assert(LabelOffsets[L.Id] < 0 && "label bound twice");
  LabelOffsets[L.Id] = static_cast<int64_t>(Code.size());
}

void Assembler::symbol(const std::string &Name) { Symbols[Name] = here(); }

uint32_t Assembler::labelAddr(Label L) const {
  assert(L.valid() && LabelOffsets[L.Id] >= 0 && "label not bound");
  return Base + static_cast<uint32_t>(LabelOffsets[L.Id]);
}

void Assembler::addFixup(Label L, size_t Offset) {
  assert(L.valid() && "fixup against invalid label");
  Fixups.push_back(Fixup{L.Id, Offset});
}

void Assembler::emit(const Instr &I, Label Target) {
  uint8_t Bytes[MaxInstrLen];
  unsigned Len = encodeInstr(I, Bytes);
  if (Len == 0)
    fatalError("assembler: unencodable instruction");
  for (unsigned K = 0; K != Len; ++K) {
    if (Target.valid() && K + 4 == Len)
      addFixup(Target, Code.size());
    Code.push_back(Bytes[K]);
  }
}

void Assembler::emitU16(uint16_t V) {
  Code.push_back(static_cast<uint8_t>(V));
  Code.push_back(static_cast<uint8_t>(V >> 8));
}

void Assembler::emitU32(uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Code.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void Assembler::emitU64(uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Code.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void Assembler::emitF64(double V) { emitU64(std::bit_cast<uint64_t>(V)); }

void Assembler::emitBytes(const void *Data, size_t Len) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  Code.insert(Code.end(), P, P + Len);
}

void Assembler::emitString(const std::string &S) {
  emitBytes(S.data(), S.size());
  Code.push_back(0);
}

void Assembler::emitZeros(size_t Len) { Code.insert(Code.end(), Len, 0); }

void Assembler::align(uint32_t A) {
  while (here() % A != 0)
    Code.push_back(0);
}

std::vector<uint8_t> Assembler::finalize() {
  for (const Fixup &F : Fixups) {
    if (LabelOffsets[F.LabelId] < 0)
      fatalError("assembler: unbound label referenced");
    uint32_t Addr = Base + static_cast<uint32_t>(LabelOffsets[F.LabelId]);
    for (int I = 0; I != 4; ++I)
      Code[F.Offset + I] = static_cast<uint8_t>(Addr >> (8 * I));
  }
  Fixups.clear();
  return Code;
}

//===----------------------------------------------------------------------===//
// encodeInstr — the inverse of decode()
//===----------------------------------------------------------------------===//

namespace {

void putLE(uint8_t *P, uint64_t V, unsigned Bytes) {
  for (unsigned I = 0; I != Bytes; ++I)
    P[I] = static_cast<uint8_t>(V >> (8 * I));
}

} // namespace

unsigned vg1::encodeInstr(const Instr &I, uint8_t *Out) {
  if (I.Rd > 15 || I.Rs > 15 || I.Rt > 15 || I.Scale > 3)
    return 0;
  // Only an opcode's own byte names it, not one inside Bcc's range.
  const OpcodeInfo &Info = OpcodeTable[static_cast<uint8_t>(I.Op)];
  if (Info.Op != I.Op)
    return 0;
  uint8_t RdRs = static_cast<uint8_t>((I.Rd << 4) | I.Rs);
  uint32_t Imm = static_cast<uint32_t>(I.Imm);
  Out[0] = static_cast<uint8_t>(I.Op);

  switch (Info.F) {
  case Format::Undefined:
    return 0;
  case Format::None:
    break;
  case Format::RR:
    Out[1] = RdRs;
    break;
  case Format::RRR:
    Out[1] = RdRs;
    Out[2] = static_cast<uint8_t>(I.Rt << 4);
    break;
  case Format::RRI8:
    if (I.Imm < 0 || I.Imm > 0xFF)
      return 0;
    Out[1] = RdRs;
    Out[2] = static_cast<uint8_t>(Imm);
    break;
  case Format::RRD16:
    if (I.Imm < INT16_MIN || I.Imm > INT16_MAX)
      return 0;
    Out[1] = RdRs;
    putLE(Out + 2, Imm, 2);
    break;
  case Format::T32:
    // Bcc's condition is part of its byte.
    if (I.Op == Opcode::BCC) {
      if (static_cast<uint8_t>(I.BCond) >= NumConds)
        return 0;
      Out[0] += static_cast<uint8_t>(I.BCond);
    }
    putLE(Out + 1, Imm, 4);
    break;
  case Format::RRI32:
    Out[1] = RdRs;
    putLE(Out + 2, Imm, 4);
    break;
  case Format::RRX:
    Out[1] = RdRs;
    Out[2] = static_cast<uint8_t>((I.Rt << 4) | I.Scale);
    putLE(Out + 3, Imm, 4);
    break;
  case Format::FI64:
    Out[1] = static_cast<uint8_t>(I.Rd << 4);
    putLE(Out + 2, I.Imm64, 8);
    break;
  }
  return formatLen(Info.F);
}
