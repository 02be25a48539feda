//===-- core/Launcher.cpp - One-call program runners ----------------------==//

#include "core/Launcher.h"

#include "support/Profile.h"

using namespace vg;
using namespace vg::vg1;

ClientStack vg::mapImage(const GuestImage &Img, GuestMemory &Mem,
                         AddressSpace &AS, EventHub *Events) {
  auto Startup = [Events](uint32_t Addr, uint32_t Len, uint8_t Perms) {
    if (Events)
      Events->fire<&EventHub::NewMemStartup>(Addr, Len, Perms);
  };
  uint32_t HighestEnd = 0;
  for (const ImageSegment &S : Img.Segments) {
    uint32_t Len = static_cast<uint32_t>(S.Bytes.size());
    bool Text = S.Perms & PermExec;
    Mem.map(S.Base, Len, S.Perms);
    Mem.write(S.Base, S.Bytes.data(), Len, /*IgnorePerms=*/true);
    AS.add(S.Base, Len, S.Perms,
           Text ? SegKind::ClientText : SegKind::ClientData,
           Text ? "text" : "data");
    Startup(S.Base, Len, S.Perms);
    HighestEnd = std::max(HighestEnd, S.Base + Len);
  }

  // The brk segment starts one page past the highest load segment.
  uint32_t HeapStart =
      AddressSpace::pageUp(HighestEnd) + AddressSpace::PageSize;
  AS.add(HeapStart, AddressSpace::PageSize, PermRW, SegKind::ClientHeap,
         "brk");
  Mem.map(HeapStart, AddressSpace::PageSize, PermRW);
  Startup(HeapStart, AddressSpace::PageSize, PermRW);

  uint32_t StackSize = AddressSpace::pageUp(Img.StackSize);
  ClientStack St{ClientStackTop, ClientStackTop - StackSize,
                 ClientStackTop - ClientInitialSPGap};
  Mem.map(St.Limit, StackSize, PermRW);
  AS.add(St.Limit, StackSize, PermRW, SegKind::ClientStack, "stack");
  Startup(St.InitialSP, ClientInitialSPGap, PermRW); // start-up setup area
  return St;
}

RunReport vg::runNative(const GuestImage &Img, const std::string &StdinData,
                        uint64_t MaxInsns) {
  RunReport R;
  GuestMemory Mem;
  AddressSpace AS;
  AS.reserveCoreRegion(); // same layout constraints as under the core
  SimKernel Kernel(AS, /*Events=*/nullptr, /*Host=*/nullptr);
  Kernel.provideStdin(StdinData);
  ClientStack St = mapImage(Img, Mem, AS);

  RefInterp Cpu(Mem, &Kernel);
  Cpu.PC = Img.Entry;
  Cpu.R[RegSP] = St.InitialSP;

  double T0 = steadySeconds();
  RunResult RR = Cpu.run(MaxInsns);
  R.Seconds = steadySeconds() - T0;

  R.NativeInsns = RR.InsnsExecuted;
  R.Syscalls = Kernel.syscallCount();
  R.Completed =
      RR.Status == RunStatus::Exited || RR.Status == RunStatus::Halted;
  R.ExitCode = Kernel.exitCode();
  R.Stdout = Kernel.stdoutText();
  R.Stderr = Kernel.stderrText();
  return R;
}

RunReport vg::runUnderCoreWith(const GuestImage &Img, Tool *ToolPlugin,
                               const std::vector<std::string> &ExtraOptions,
                               const std::string &StdinData,
                               uint64_t MaxBlocks,
                               const std::function<void(Core &)> &Setup) {
  RunReport R;
  Core C(ToolPlugin);
  C.output().useBuffer();
  std::vector<std::string> Unknown = C.options().parse(ExtraOptions);
  if (!Unknown.empty())
    fatalError(("unknown option: " + Unknown[0]).c_str());
  C.applyOptions();
  C.kernel().provideStdin(StdinData);
  C.loadImage(Img);
  if (Setup)
    Setup(C);

  double T0 = steadySeconds();
  CoreExit E = C.run(MaxBlocks);
  R.Seconds = steadySeconds() - T0;

  R.Completed = E.K == CoreExit::Kind::Exited;
  R.ExitCode = E.Code;
  R.FatalSignal = E.Signal;
  R.Stdout = C.kernel().stdoutText();
  R.Stderr = C.kernel().stderrText();
  R.ToolOutput = C.output().takeBuffer();
  R.Stats = C.stats();
  R.TTStats = C.transTab().stats();
  R.Jit = C.translationService().jitStats();
  R.Syscalls = C.kernel().syscallCount();
  return R;
}

RunReport vg::runUnderCore(const GuestImage &Img, Tool *ToolPlugin,
                           const std::vector<std::string> &ExtraOptions,
                           const std::string &StdinData, uint64_t MaxBlocks) {
  return runUnderCoreWith(Img, ToolPlugin, ExtraOptions, StdinData, MaxBlocks,
                          nullptr);
}
