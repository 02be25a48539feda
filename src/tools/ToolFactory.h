//===-- tools/ToolFactory.h - Every tool plug-in by name --------*- C++ -*-==//
///
/// \file
/// The one table from a --tool=<name> to its plug-in (Section 3.3), shared
/// by the vgrun driver and the differential fuzzer's config matrix.
///
//===----------------------------------------------------------------------===//
#ifndef VG_TOOLS_TOOLFACTORY_H
#define VG_TOOLS_TOOLFACTORY_H

#include "core/Tool.h"

#include <memory>
#include <string>

namespace vg {

/// A fresh instance of the tool called \p Name: nulgrind (alias none),
/// memcheck, icnt, icntc, cachegrind, massif, taintgrind or loopgrind.
/// Null for any other name.
std::unique_ptr<Tool> makeTool(const std::string &Name);

} // namespace vg

#endif // VG_TOOLS_TOOLFACTORY_H
