//===-- examples/vgrun.cpp - The command-line driver ----------------------==//
///
/// \file
/// The analogue of the `valgrind` wrapper executable (Section 3.3): parses
/// --tool=<name> plus core and tool options from the command line, selects
/// the tool plug-in, loads the named guest program, and runs it — printing
/// the client's stdout and the tool's report.
///
/// Usage:
///   vgrun [--tool=memcheck|nulgrind|icnt|icntc|cachegrind|massif|
///          taintgrind|loopgrind] [core/tool options] <program> [--scale=N]
///          [--stdin=TEXT] [--native]
///
/// <program> is one of the built-in workloads (bzip2, crafty, gcc, gzip,
/// mcf, parser, perlbmk, vortex, ammp, applu, art, equake, mesa, swim) or
/// "demo" (a small buggy program that gives every tool something to say).
///
//===----------------------------------------------------------------------===//

#include "core/Launcher.h"
#include "guestlib/GuestLib.h"
#include "tools/ToolFactory.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstring>
#include <memory>

using namespace vg;

namespace {

GuestImage demoImage() {
  using namespace vg::vg1;
  Assembler Code(0x1000);
  Assembler Data(0x100000);
  GuestLibLabels Lib = emitGuestLib(Code, Data);
  Label Main = Code.newLabel();
  uint32_t Entry = emitStart(Code, Main);
  Code.bind(Main);
  Label Msg = Data.boundLabel();
  Data.emitString("demo: allocating, looping, leaking\n");
  Code.movi(Reg::R1, Data.labelAddr(Msg));
  Code.call(Lib.Print);
  Code.movi(Reg::R1, 64);
  Code.call(Lib.Malloc);
  Code.mov(Reg::R6, Reg::R0);
  Code.movi(Reg::R7, 0);
  Label Loop = Code.boundLabel();
  Code.stx(Reg::R6, Reg::R7, 2, 0, Reg::R7);
  Code.addi(Reg::R7, Reg::R7, 1);
  Code.cmpi(Reg::R7, 16);
  Code.blt(Loop);
  Code.ld(Reg::R2, Reg::R6, 64); // one past the end
  Code.movi(Reg::R6, 0);         // drop the only pointer: a true leak
  Code.movi(Reg::R0, 0);
  Code.ret();
  return GuestImageBuilder().addCode(Code).addData(Data).entry(Entry).build();
}

int usage() {
  std::fprintf(stderr,
               "usage: vgrun [--tool=NAME] [core/tool options] PROGRAM\n"
               "  tools: nulgrind memcheck icnt icntc cachegrind massif "
               "taintgrind loopgrind\n  programs: demo, or a workload name (");
  for (const WorkloadInfo &W : allWorkloads())
    std::fprintf(stderr, "%s ", W.Name.c_str());
  std::fprintf(stderr, "sigmt mtcpu)\n"
                       "  extras: --scale=N --stdin=TEXT --native\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  std::string ToolName = "memcheck", Program, StdinText;
  uint32_t Scale = 1;
  bool Native = false;
  std::vector<std::string> PassThrough;

  for (int I = 1; I != argc; ++I) {
    std::string A = argv[I];
    if (A.rfind("--tool=", 0) == 0)
      ToolName = A.substr(7);
    else if (A.rfind("--scale=", 0) == 0)
      Scale = static_cast<uint32_t>(std::atoi(A.c_str() + 8));
    else if (A.rfind("--stdin=", 0) == 0)
      StdinText = A.substr(8);
    else if (A == "--native")
      Native = true;
    else if (A.rfind("--", 0) == 0)
      PassThrough.push_back(A); // core/tool option
    else if (Program.empty())
      Program = A;
    else
      return usage();
  }
  if (Program.empty())
    return usage();

  GuestImage Img;
  if (Program == "demo") {
    Img = demoImage();
  } else {
    // "sigmt" and "mtcpu" are runnable by name but kept out of
    // allWorkloads() so they never perturb the Table 2 benchmark set.
    bool Known = Program == "sigmt" || Program == "mtcpu";
    for (const WorkloadInfo &W : allWorkloads())
      Known = Known || W.Name == Program;
    if (!Known)
      return usage();
    Img = buildWorkload(Program, Scale);
  }

  if (Native) {
    RunReport R = runNative(Img, StdinText);
    std::fputs(R.Stdout.c_str(), stdout);
    std::fprintf(stderr, "(native: %llu instructions, %.3fs, exit %d)\n",
                 static_cast<unsigned long long>(R.NativeInsns), R.Seconds,
                 R.ExitCode);
    return R.ExitCode;
  }

  std::unique_ptr<Tool> T = makeTool(ToolName);
  if (!T)
    return usage();
  RunReport R = runUnderCore(Img, T.get(), PassThrough, StdinText);
  std::fputs(R.Stdout.c_str(), stdout);
  std::fputs(R.ToolOutput.c_str(), stderr);
  std::fprintf(stderr,
               "(vgrun: tool=%s blocks=%llu translations=%llu %.3fs%s)\n",
               ToolName.c_str(),
               static_cast<unsigned long long>(R.Stats.BlocksDispatched),
               static_cast<unsigned long long>(R.Stats.Translations),
               R.Seconds, R.Completed ? "" : " [did not complete]");
  return R.Completed ? R.ExitCode : 1;
}
