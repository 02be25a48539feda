//===-- guest/Decoder.h - VG1 instruction decoder ---------------*- C++ -*-==//
///
/// \file
/// Decodes VG1 machine code into Instr records. Shared by the reference
/// interpreter ("native" execution) and the D&R front end (Phase 1
/// disassembly), so the two cannot disagree about encodings.
///
//===----------------------------------------------------------------------===//
#ifndef VG_GUEST_DECODER_H
#define VG_GUEST_DECODER_H

#include "guest/GuestArch.h"

#include <cstddef>

namespace vg {
namespace vg1 {

/// Decodes one instruction from \p Buf (at most \p Avail valid bytes).
/// Returns false on an undefined opcode or a truncated encoding; \p Out.Len
/// is left 0 in that case.
bool decode(const uint8_t *Buf, size_t Avail, Instr &Out);

} // namespace vg1
} // namespace vg

#endif // VG_GUEST_DECODER_H
