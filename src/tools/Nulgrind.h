//===-- tools/Nulgrind.h - The null tool ------------------------*- C++ -*-==//
///
/// \file
/// Nulgrind: the tool that adds no analysis code (Section 5.4's baseline).
/// Its cost is therefore the cost of the framework itself: D&R translation,
/// ThreadState-resident registers, and dispatch.
///
//===----------------------------------------------------------------------===//
#ifndef VG_TOOLS_NULGRIND_H
#define VG_TOOLS_NULGRIND_H

#include "core/Tool.h"

namespace vg {

class Nulgrind : public Tool {
public:
  const char *name() const override { return "nulgrind"; }
};

} // namespace vg

#endif // VG_TOOLS_NULGRIND_H
