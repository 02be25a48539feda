//===-- guest/Disasm.cpp - VG1 disassembly printing -----------------------==//

#include "guest/Disasm.h"

#include "guest/Decoder.h"

#include <bit>
#include <cstdarg>
#include <cstdio>

using namespace vg;
using namespace vg::vg1;

namespace {

std::string fmt(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char *Fmt, ...) {
  char Buf[256];
  va_list Ap;
  va_start(Ap, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  return Buf;
}

const char *condName(Cond C) {
  static const char *Names[] = {"eq", "ne", "lt", "ge", "ltu",
                                "geu", "gt", "le", "mi", "pl"};
  return Names[static_cast<unsigned>(C)];
}

} // namespace

std::string vg1::toString(const Instr &I) {
  const OpcodeInfo &Info = OpcodeTable[static_cast<uint8_t>(I.Op)];
  if (Info.Op != I.Op)
    return "<bad>";
  // Expand the opcode's Asm template (VG1_OPCODES).
  std::string Out;
  for (const char *P = Info.Asm; *P; ++P) {
    if (*P != '$') {
      Out += *P;
      continue;
    }
    switch (*++P) {
    case 'd':
      Out += fmt("%u", unsigned(I.Rd));
      break;
    case 's':
      Out += fmt("%u", unsigned(I.Rs));
      break;
    case 't':
      Out += fmt("%u", unsigned(I.Rt));
      break;
    case 'c':
      Out += fmt("%u", unsigned(I.Scale));
      break;
    case 'i':
      Out += fmt("%d", I.Imm);
      break;
    case 'o':
      Out += fmt("%+d", I.Imm);
      break;
    case 'x':
      Out += fmt("%x", static_cast<uint32_t>(I.Imm));
      break;
    case 'g':
      Out += fmt("%g", std::bit_cast<double>(I.Imm64));
      break;
    case 'b':
      Out += condName(I.BCond);
      break;
    }
  }
  return Out;
}

std::string vg1::disassembleRange(const uint8_t *Bytes, size_t Len,
                                  uint32_t BaseAddr) {
  std::string Out;
  size_t Off = 0;
  while (Off < Len) {
    Instr I;
    if (!decode(Bytes + Off, Len - Off, I))
      break;
    Out += fmt("0x%08x: %s\n", BaseAddr + static_cast<uint32_t>(Off),
               toString(I).c_str());
    Off += I.Len;
  }
  return Out;
}
