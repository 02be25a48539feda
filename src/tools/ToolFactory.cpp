//===-- tools/ToolFactory.cpp - Every tool plug-in by name ----------------==//

#include "tools/ToolFactory.h"

#include "tools/Cachegrind.h"
#include "tools/ICnt.h"
#include "tools/Loopgrind.h"
#include "tools/Massif.h"
#include "tools/Memcheck.h"
#include "tools/Nulgrind.h"
#include "tools/TaintGrind.h"

using namespace vg;

std::unique_ptr<Tool> vg::makeTool(const std::string &Name) {
  if (Name == "nulgrind" || Name == "none")
    return std::make_unique<Nulgrind>();
  if (Name == "memcheck")
    return std::make_unique<Memcheck>();
  if (Name == "icnt")
    return std::make_unique<ICnt>(ICnt::Mode::Inline);
  if (Name == "icntc")
    return std::make_unique<ICnt>(ICnt::Mode::CCall);
  if (Name == "cachegrind")
    return std::make_unique<Cachegrind>();
  if (Name == "massif")
    return std::make_unique<Massif>();
  if (Name == "taintgrind")
    return std::make_unique<TaintGrind>();
  if (Name == "loopgrind")
    return std::make_unique<Loopgrind>();
  return nullptr;
}
