//===-- bench/sec54_hostcode.cpp - Section 5.4: executed host-code mix ----==//
///
/// \file
/// Measures the host code behind Section 5.4's tool costs: how many HVM
/// host instructions each guest instruction costs under Nulgrind and under
/// Memcheck, their ratio (the shadow-operation overhead, and ROADMAP item
/// 6's gate metric), how many executor dispatches that takes (a
/// superinstruction group, hvm::Group, entered at its lead is one), what
/// share of ALU-family and sized-access host instructions still runs on a
/// generic executor handler instead of one the encoder specialised
/// (hvm::SpecOp), and the ten most-executed pairs of adjacent dispatches:
/// the candidates for the next group.
///
/// Method: each Table 2 workload runs at scale 1 in a Core under each
/// tool. Afterwards every resident translation's blob is walked with the
/// HVM opcode walker, and each host instruction is weighted by the
/// translation's ExecCount (dispatcher entries plus chained ones); guest
/// instructions count NumInsns x ExecCount. A block left through a side
/// exit is counted whole, and a JZ is taken to fall through, so these are
/// estimates of the executed mix.
///
/// Contract: the aggregate generic share is at most 2%; the program exits
/// non-zero otherwise, or if a workload's output differs from native.
///
//===----------------------------------------------------------------------===//

#include "core/Launcher.h"
#include "tools/Memcheck.h"
#include "tools/Nulgrind.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

using namespace vg;

namespace {

/// Executed-instruction counts of one run.
struct Mix {
  double Guest = 0;
  double Host = 0;
  double Dispatch = 0;
  double Family = 0;  ///< ALU-family and sized-access host instructions
  double Generic = 0; ///< the part of Family on a generic handler
  /// Adjacent dispatches (handler byte, next handler byte) -> executions.
  std::map<std::pair<uint8_t, uint8_t>, double> Pairs;

  double hostPerGuest() const { return Guest ? Host / Guest : 0; }
  double dispatchPerGuest() const { return Guest ? Dispatch / Guest : 0; }
  double genericPct() const { return Family ? 100 * Generic / Family : 0; }
  void add(const Mix &M) {
    Guest += M.Guest;
    Host += M.Host;
    Dispatch += M.Dispatch;
    Family += M.Family;
    Generic += M.Generic;
    for (const auto &[Pair, W] : M.Pairs)
      Pairs[Pair] += W;
  }
};

/// The handler an opcode byte selects, by name.
std::string handlerName(uint8_t Byte) {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> N = {
        "LI",  "MOV",  "ALU",   "ALU1",  "ALUI",  "LDG",   "STG",
        "LDM", "STM",  "SEL",   "CALL",  "JZ",    "EXITI", "EXITR",
        "IMARK", "SPILL", "RELOAD", "ALUIS", "SHPROBE"};
#define VG_HVM_X(Form, Size) N.push_back(#Form #Size);
    VG_HVM_SIZED_OPS(VG_HVM_X)
#undef VG_HVM_X
#define VG_HVM_X(O)                                                            \
  N.push_back("ALU_" #O);                                                      \
  N.push_back("ALUI_" #O);                                                     \
  N.push_back("ALUIS_" #O);
    VG_HVM_BINOPS(VG_HVM_X)
#undef VG_HVM_X
#define VG_HVM_X(O) N.push_back("ALU1_" #O);
    VG_HVM_UNOPS(VG_HVM_X)
#undef VG_HVM_X
#define VG_HVM_X(Name, M0, M1, M2) N.push_back("group " #Name);
    VG_HVM_GROUPS(VG_HVM_X)
#undef VG_HVM_X
    return N;
  }();
  return Byte < Names.size() ? Names[Byte] : "?";
}

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
    double W = static_cast<double>(Tr.Blob.ExecCount);
    M.Guest += W * Tr.NumInsns;
    uint32_t GroupEnd = 0; // members before this ran in their group
    int Prev = -1;         // the previous dispatch's byte, if it falls through
    Ok &= hvm::walkOpcodes(
        Tr.Blob.Bytes, [&](uint32_t Off, uint8_t Byte, hvm::HOp Form) {
          hvm::OpcodeInfo Info = hvm::opcodeInfo(Byte);
          M.Host += W;
          if (Off >= GroupEnd) {
            M.Dispatch += W;
            GroupEnd = Off + Info.GroupLen;
            if (Prev >= 0)
              M.Pairs[{static_cast<uint8_t>(Prev), Byte}] += W;
            Prev = Form == hvm::HOp::EXITI || Form == hvm::HOp::EXITR
                       ? -1
                       : Byte;
          }
          if (!hasSpecialisedForms(Form))
            return;
          M.Family += W;
          if (Info.Lead < hvm::NumGenericOps)
            M.Generic += W;
        });
  });
  return Ok;
}

} // namespace

int main() {
  constexpr double MaxGenericPct = 2.0;
  std::printf("== Section 5.4: executed host instructions and dispatches "
              "per guest instruction (scale 1) ==\n");
  std::printf("%-10s %10s %10s %10s %10s %10s %10s %10s\n", "workload",
              "Nulg.", "Memc.", "Memc/Nulg", "disp.Nulg", "disp.Memc",
              "gen%Nulg", "gen%Memc");

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
    std::printf("%-10s %10.2f %10.2f %10.2f %10.2f %10.2f %9.2f%% "
                "%9.2f%%%s\n",
                W.Name.c_str(), M[0].hostPerGuest(), M[1].hostPerGuest(),
                Ratio, M[0].dispatchPerGuest(), M[1].dispatchPerGuest(),
                M[0].genericPct(), M[1].genericPct(), Ok ? "" : "  FAILED");
  }

  Mix All = Total[0];
  All.add(Total[1]);
  std::printf("%-10s %10.2f %10.2f %10.2f %10.2f %10.2f %9.2f%% %9.2f%%\n",
              "all", Total[0].hostPerGuest(), Total[1].hostPerGuest(),
              Total[1].hostPerGuest() / Total[0].hostPerGuest(),
              Total[0].dispatchPerGuest(), Total[1].dispatchPerGuest(),
              Total[0].genericPct(), Total[1].genericPct());

  std::vector<std::pair<double, std::pair<uint8_t, uint8_t>>> Ranked;
  for (const auto &[Pair, W] : All.Pairs)
    Ranked.push_back({W, Pair});
  std::sort(Ranked.rbegin(), Ranked.rend());
  std::printf("\nMost-executed adjacent dispatch pairs left unfused "
              "(share of each tool's dispatches):\n");
  std::printf("%-40s %10s %10s\n", "pair", "Nulg.", "Memc.");
  for (size_t I = 0; I != std::min<size_t>(10, Ranked.size()); ++I) {
    auto [A, B] = Ranked[I].second;
    auto Share = [&](const Mix &M) {
      auto It = M.Pairs.find({A, B});
      return It == M.Pairs.end() ? 0.0 : 100 * It->second / M.Dispatch;
    };
    std::printf("%-40s %9.2f%% %9.2f%%\n",
                (handlerName(A) + " -> " + handlerName(B)).c_str(),
                Share(Total[0]), Share(Total[1]));
  }
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
