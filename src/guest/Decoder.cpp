//===-- guest/Decoder.cpp - VG1 instruction decoder -----------------------==//

#include "guest/Decoder.h"

#include <cstring>

using namespace vg;
using namespace vg::vg1;

namespace {

uint32_t readU32(const uint8_t *P) {
  uint32_t V;
  std::memcpy(&V, P, 4);
  return V;
}

uint64_t readU64(const uint8_t *P) {
  uint64_t V;
  std::memcpy(&V, P, 8);
  return V;
}

int16_t readS16(const uint8_t *P) {
  uint16_t V;
  std::memcpy(&V, P, 2);
  return static_cast<int16_t>(V);
}

} // namespace

bool vg1::decode(const uint8_t *Buf, size_t Avail, Instr &Out) {
  Out = Instr();
  if (Avail == 0)
    return false;
  const OpcodeInfo &Info = OpcodeTable[Buf[0]];
  if (Avail < formatLen(Info.F))
    return false;
  auto RegsAB = [&](uint8_t Byte, uint8_t &A, uint8_t &B) {
    A = Byte >> 4;
    B = Byte & 0xF;
  };

  switch (Info.F) {
  case Format::Undefined:
    return false;
  case Format::None:
    break;
  case Format::RR:
    RegsAB(Buf[1], Out.Rd, Out.Rs);
    break;
  case Format::RRR:
    RegsAB(Buf[1], Out.Rd, Out.Rs);
    Out.Rt = Buf[2] >> 4;
    break;
  case Format::RRI8:
    RegsAB(Buf[1], Out.Rd, Out.Rs);
    Out.Imm = Buf[2];
    break;
  case Format::RRD16:
    RegsAB(Buf[1], Out.Rd, Out.Rs);
    Out.Imm = readS16(Buf + 2);
    break;
  case Format::T32:
    Out.Imm = static_cast<int32_t>(readU32(Buf + 1));
    break;
  case Format::RRI32:
    RegsAB(Buf[1], Out.Rd, Out.Rs);
    Out.Imm = static_cast<int32_t>(readU32(Buf + 2));
    break;
  case Format::RRX:
    RegsAB(Buf[1], Out.Rd, Out.Rs);
    RegsAB(Buf[2], Out.Rt, Out.Scale);
    Out.Scale &= 0x3;
    Out.Imm = static_cast<int32_t>(readU32(Buf + 3));
    break;
  case Format::FI64:
    Out.Rd = Buf[1] >> 4;
    Out.Imm64 = readU64(Buf + 2);
    break;
  }
  Out.Op = Info.Op;
  // Bcc's condition is the byte's distance from 0x20; 0 (EQ) for the rest.
  Out.BCond = static_cast<Cond>(Buf[0] - static_cast<uint8_t>(Info.Op));
  Out.Len = static_cast<uint8_t>(formatLen(Info.F));
  return true;
}
