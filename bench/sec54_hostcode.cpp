//===-- bench/sec54_hostcode.cpp - Section 5.4: executed host-code mix ----==//
///
/// \file
/// Measures the host code behind Section 5.4's tool costs: how many HVM
/// host instructions each guest instruction costs under Nulgrind and under
/// Memcheck, their ratio (the shadow-operation overhead, and ROADMAP item
/// 6's gate metric), and what share of ALU-family and sized-access host
/// instructions still runs on a generic executor handler instead of one
/// the encoder specialised (hvm::SpecOp).
///
/// Method: each Table 2 workload runs at scale 1 in a Core under each
/// tool. Afterwards every resident translation's blob is walked with the
/// HVM opcode walker, and each host instruction is weighted by the
/// translation's ExecCount (dispatcher entries plus chained ones); guest
/// instructions count NumInsns x ExecCount. A block left through a side
/// exit is counted whole, so these are estimates of the executed mix.
///
/// Contract: the aggregate generic share is at most 2%; the program exits
/// non-zero otherwise, or if a workload's output differs from native.
///
//===----------------------------------------------------------------------===//

#include "core/Launcher.h"
#include "tools/Memcheck.h"
#include "tools/Nulgrind.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace vg;

namespace {

/// Executed-instruction counts of one run.
struct Mix {
  double Guest = 0;
  double Host = 0;
  double Family = 0;  ///< ALU-family and sized-access host instructions
  double Generic = 0; ///< the part of Family on a generic handler

  double hostPerGuest() const { return Guest ? Host / Guest : 0; }
  double genericPct() const { return Family ? 100 * Generic / Family : 0; }
  void add(const Mix &M) {
    Guest += M.Guest;
    Host += M.Host;
    Family += M.Family;
    Generic += M.Generic;
  }
};

bool hasSpecialisedForms(hvm::HOp Form) {
  switch (Form) {
  case hvm::HOp::ALU:
  case hvm::HOp::ALU1:
  case hvm::HOp::ALUI:
  case hvm::HOp::ALUIS:
  case hvm::HOp::LDG:
  case hvm::HOp::STG:
  case hvm::HOp::LDM:
  case hvm::HOp::STM:
    return true;
  default:
    return false;
  }
}

/// Runs \p Img under \p T and weighs its resident translations. Returns
/// false if the run does not reproduce \p NativeStdout or a blob does not
/// decode.
bool measure(const GuestImage &Img, Tool &T,
             const std::vector<std::string> &Opts,
             const std::string &NativeStdout, Mix &M) {
  Core C(&T);
  C.output().useBuffer();
  if (!C.options().parse(Opts).empty())
    return false;
  C.applyOptions();
  C.loadImage(Img);
  CoreExit E = C.run();
  bool Ok = E.K == CoreExit::Kind::Exited &&
            C.kernel().stdoutText() == NativeStdout;
  C.transTab().forEach([&](const Translation &Tr) {
    double W = static_cast<double>(Tr.ExecCount);
    M.Guest += W * Tr.NumInsns;
    Ok &= hvm::walkOpcodes(
        Tr.Blob.Bytes, [&](uint32_t, uint8_t Byte, hvm::HOp Form) {
          M.Host += W;
          if (!hasSpecialisedForms(Form))
            return;
          M.Family += W;
          if (Byte < hvm::NumGenericOps)
            M.Generic += W;
        });
  });
  return Ok;
}

} // namespace

int main() {
  constexpr double MaxGenericPct = 2.0;
  std::printf("== Section 5.4: executed host instructions per guest "
              "instruction (scale 1) ==\n");
  std::printf("%-10s %10s %10s %10s %10s %10s\n", "workload", "Nulg.",
              "Memc.", "Memc/Nulg", "gen%Nulg", "gen%Memc");

  Mix Total[2];
  bool AllOk = true;
  for (const WorkloadInfo &W : allWorkloads()) {
    GuestImage Img = buildWorkload(W.Name, 1);
    std::string NativeStdout = runNative(Img).Stdout;
    Mix M[2];
    Nulgrind Nul;
    Memcheck Mc;
    bool Ok = measure(Img, Nul, {}, NativeStdout, M[0]) &&
              measure(Img, Mc, {"--leak-check=no"}, NativeStdout, M[1]);
    AllOk &= Ok;
    Total[0].add(M[0]);
    Total[1].add(M[1]);
    double Ratio = M[0].hostPerGuest() ? M[1].hostPerGuest() /
                                             M[0].hostPerGuest()
                                       : 0;
    std::printf("%-10s %10.2f %10.2f %10.2f %9.2f%% %9.2f%%%s\n",
                W.Name.c_str(), M[0].hostPerGuest(), M[1].hostPerGuest(),
                Ratio, M[0].genericPct(), M[1].genericPct(),
                Ok ? "" : "  FAILED");
  }

  Mix All = Total[0];
  All.add(Total[1]);
  std::printf("%-10s %10.2f %10.2f %10.2f %9.2f%% %9.2f%%\n", "all",
              Total[0].hostPerGuest(), Total[1].hostPerGuest(),
              Total[1].hostPerGuest() / Total[0].hostPerGuest(),
              Total[0].genericPct(), Total[1].genericPct());
  std::printf("\nALU-family and sized host instructions on a generic "
              "handler: %.2f%% of %.0f (contract: at most %.0f%%)\n",
              All.genericPct(), All.Family, MaxGenericPct);
  if (!AllOk) {
    std::printf("FAILED: a workload did not reproduce its native output\n");
    return 1;
  }
  if (All.genericPct() > MaxGenericPct) {
    std::printf("FAILED: generic share above %.0f%%\n", MaxGenericPct);
    return 1;
  }
  return 0;
}
