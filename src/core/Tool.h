//===-- core/Tool.h - The tool plug-in interface ----------------*- C++ -*-==//
///
/// \file
/// "Valgrind core + tool plug-in = Valgrind tool" (Section 3.1). A tool's
/// main job is instrument(): transforming each flat superblock the core
/// hands it (translation Phase 3). Everything else is optional: event
/// callbacks (registered on the core's EventHub in init()), heap
/// replacement (R8), client-request handling, command-line options, and a
/// fini() hook for end-of-run reports (R9 output goes through the core's
/// OutputSink).
///
//===----------------------------------------------------------------------===//
#ifndef VG_CORE_TOOL_H
#define VG_CORE_TOOL_H

#include "ir/IR.h"
#include "support/Options.h"

#include <cstdint>

namespace vg {

class Core;
class ShadowMap;

/// Base class for tool plug-ins.
class Tool {
public:
  virtual ~Tool();

  virtual const char *name() const = 0;

  /// Registers tool-specific command-line options (called before parse).
  virtual void registerOptions(OptionRegistry &Opts) {}

  /// Called once after command-line processing, before the client runs.
  /// Tools register event callbacks on C.events() here.
  virtual void init(Core &C) {}

  /// Phase 3: instrument one flat superblock in place. The default adds no
  /// analysis code (Nulgrind behaviour).
  virtual void instrument(ir::IRSB &SB) {}

  /// Called at client exit, before the core prints its summary.
  virtual void fini(int ExitCode) {}

  /// The tool's shadow memory map, when it keeps one. The executor services
  /// SHPROBE instructions (the JIT-inlined shadow fast path) against it
  /// directly; returning null makes every probe punt to the helper call.
  virtual ShadowMap *shadowMap() { return nullptr; }

  /// Tool client requests: every code outside the core's 'C','R'
  /// namespace, as the guest issued it. Returns true if the request was
  /// recognised.
  virtual bool handleClientRequest(int Tid, uint32_t Code,
                                   const uint32_t Args[4],
                                   uint32_t &Result) {
    return false;
  }

  // --- heap replacement (R8) --------------------------------------------
  /// When true, the core's replacement allocator pads client blocks with
  /// red zones of redzoneBytes() and routes allocation events to the
  /// on*() callbacks below.
  virtual bool tracksHeap() const { return false; }
  virtual uint32_t redzoneBytes() const { return 16; }
  /// A heap block was handed to the client. \p Zeroed is true for calloc.
  virtual void onMalloc(int Tid, uint32_t Addr, uint32_t Size, bool Zeroed) {}
  /// A heap block is being returned by the client.
  virtual void onFree(int Tid, uint32_t Addr, uint32_t Size) {}
  /// free()/realloc() of a pointer that is not a live block.
  virtual void onBadFree(int Tid, uint32_t Addr) {}
};

} // namespace vg

#endif // VG_CORE_TOOL_H
