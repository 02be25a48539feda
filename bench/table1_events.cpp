//===-- bench/table1_events.cpp - Reproduces Table 1 ----------------------==//
///
/// \file
/// Regenerates the paper's Table 1: the events system. Runs a program that
/// exercises every trigger site (system calls, the loader, stack-pointer
/// changes) under --trace-events and prints each Table 1 row of
/// VG_HUB_EVENTS with its requirement, trigger location, Memcheck's
/// handling callback, and the observed fire count — demonstrating that
/// every Table 1 row is live in this reproduction.
///
//===----------------------------------------------------------------------===//

#include "core/Core.h"
#include "guestlib/GuestLib.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>

using namespace vg;
using namespace vg::vg1;

int main() {
  // A program touching every trigger: files, mmap/mremap/munmap, brk both
  // ways, gettimeofday, and plenty of stack motion.
  Assembler Code(0x1000);
  Assembler Data(0x100000);
  [[maybe_unused]] GuestLibLabels Lib = emitGuestLib(Code, Data);
  Label Main = Code.newLabel();
  uint32_t Entry = emitStart(Code, Main);
  Code.bind(Main);
  Label Path = Data.boundLabel();
  Data.emitString("t1.dat");
  Label Tv = Data.boundLabel();
  Data.emitZeros(8);
  Code.movi(Reg::R0, SysMmap);
  Code.movi(Reg::R1, 0);
  Code.movi(Reg::R2, 8192);
  Code.movi(Reg::R3, 3);
  Code.movi(Reg::R4, 0);
  Code.sys();
  Code.mov(Reg::R6, Reg::R0);
  Code.movi(Reg::R0, SysMremap);
  Code.mov(Reg::R1, Reg::R6);
  Code.movi(Reg::R2, 8192);
  Code.movi(Reg::R3, 16384);
  Code.sys();
  Code.mov(Reg::R6, Reg::R0);
  Code.movi(Reg::R0, SysMunmap);
  Code.mov(Reg::R1, Reg::R6);
  Code.movi(Reg::R2, 16384);
  Code.sys();
  Code.movi(Reg::R0, SysBrk);
  Code.movi(Reg::R1, 0);
  Code.sys();
  Code.mov(Reg::R6, Reg::R0);
  Code.addi(Reg::R1, Reg::R6, 8192);
  Code.movi(Reg::R0, SysBrk);
  Code.sys();
  Code.mov(Reg::R1, Reg::R6);
  Code.movi(Reg::R0, SysBrk);
  Code.sys();
  Code.movi(Reg::R0, SysOpen);
  Code.movi(Reg::R1, Data.labelAddr(Path));
  Code.movi(Reg::R2, 1);
  Code.sys();
  Code.movi(Reg::R0, SysGettimeofday);
  Code.movi(Reg::R1, Data.labelAddr(Tv));
  Code.sys();
  // write() pre-reads the buffer it sends (pre_mem_read).
  Code.movi(Reg::R0, SysWrite);
  Code.movi(Reg::R1, 1);
  Code.movi(Reg::R2, Data.labelAddr(Path));
  Code.movi(Reg::R3, 6);
  Code.sys();
  Code.push(Reg::R1);
  Code.push(Reg::R2);
  Code.pop(Reg::R2);
  Code.pop(Reg::R1);
  Code.movi(Reg::R0, 0);
  Code.ret();
  GuestImage Img =
      GuestImageBuilder().addCode(Code).addData(Data).entry(Entry).build();

  // Every fire is counted by --trace-events, which layers over each
  // callback of the hub.
  Core C;
  C.options().parse({"--trace-events=yes"});
  C.applyOptions();
  C.loadImage(Img);
  if (C.run().K != CoreExit::Kind::Exited) {
    std::printf("exercise program failed\n");
    return 1;
  }

  struct Row {
    const char *Req, *Dump, *Trigger;
    TraceEvent E;
  };
  static const Row Rows[] = {
#define VG_ROW(Member, Dump, Req, Trigger, ...)                                \
  {Req, Dump, Trigger, TraceEvent::Member},
      VG_HUB_EVENTS(VG_ROW)
#undef VG_ROW
  };
  // Memcheck's handler for each Table 1 row (a row with a requirement),
  // in the list's order.
  static constexpr const char *McCallbacks[] = {
      "check shadow reg defined", "make_reg_defined",
      "check_mem_is_defined",     "check_mem_is_defined_asciiz",
      "check_mem_is_addressable", "make_mem_defined",
      "make_mem_defined",         "make_mem_defined",
      "make_mem_noaccess",        "make_mem_undefined",
      "make_mem_noaccess",        "copy_range",
      "make_mem_undefined",       "make_mem_noaccess",
  };
#define VG_IN_TABLE1(Member, Dump, Req, ...) +(Req[0] != 0)
  static_assert(std::size(McCallbacks) == 0 VG_HUB_EVENTS(VG_IN_TABLE1));
#undef VG_IN_TABLE1

  std::printf("== Table 1: Valgrind events, trigger sites, Memcheck "
              "callbacks, observed fires ==\n");
  std::printf("%-4s %-20s %-34s %-30s %8s\n", "Req", "Event", "Called from",
              "Memcheck callback", "fires");
  bool AllFired = true;
  const char *const *Mc = McCallbacks;
  for (const Row &R : Rows) {
    if (!*R.Req)
      continue;
    // The paper's event names are the dump names with underscores.
    std::string Event = R.Dump;
    std::replace(Event.begin(), Event.end(), '-', '_');
    uint64_t N = C.tracer()->count(R.E);
    AllFired = AllFired && N > 0;
    std::printf("%-4s %-20s %-34s %-30s %8llu\n", R.Req, Event.c_str(),
                R.Trigger, *Mc++, static_cast<unsigned long long>(N));
  }
  std::printf("\nall %zu events fired: %s\n", std::size(McCallbacks),
              AllFired ? "YES" : "NO");
  return AllFired ? 0 : 1;
}
