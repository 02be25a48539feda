//===-- core/Launcher.cpp - One-call program runners ----------------------==//

#include "core/Launcher.h"

#include "support/Profile.h"

using namespace vg;
using namespace vg::vg1;

RunReport vg::runNative(const GuestImage &Img, const std::string &StdinData,
                        uint64_t MaxInsns) {
  RunReport R;
  GuestMemory Mem;
  AddressSpace AS;
  AS.reserveCoreRegion(); // same layout constraints as under the core
  SimKernel Kernel(AS, /*Events=*/nullptr, /*Host=*/nullptr);
  Kernel.provideStdin(StdinData);

  uint32_t HighestEnd = 0;
  for (const ImageSegment &S : Img.Segments) {
    uint32_t Len = static_cast<uint32_t>(S.Bytes.size());
    Mem.map(S.Base, Len, S.Perms);
    Mem.write(S.Base, S.Bytes.data(), Len, /*IgnorePerms=*/true);
    AS.add(S.Base, Len, S.Perms,
           (S.Perms & PermExec) ? SegKind::ClientText : SegKind::ClientData,
           "seg");
    HighestEnd = std::max(HighestEnd, S.Base + Len);
  }
  uint32_t HeapStart =
      AddressSpace::pageUp(HighestEnd) + AddressSpace::PageSize;
  AS.add(HeapStart, AddressSpace::PageSize, PermRW, SegKind::ClientHeap,
         "brk");
  Mem.map(HeapStart, AddressSpace::PageSize, PermRW);
  uint32_t StackSize = AddressSpace::pageUp(Img.StackSize);
  Mem.map(ClientStackTop - StackSize, StackSize, PermRW);
  AS.add(ClientStackTop - StackSize, StackSize, PermRW, SegKind::ClientStack,
         "stack");

  RefInterp Cpu(Mem, &Kernel);
  Cpu.PC = Img.Entry;
  Cpu.R[RegSP] = ClientStackTop - ClientInitialSPGap;

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
