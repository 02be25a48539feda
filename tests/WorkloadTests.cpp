//===-- tests/WorkloadTests.cpp - Workload validation ---------------------==//
///
/// \file
/// The Table 2 harness only means something if every synthetic workload
/// (a) terminates, (b) produces the same checksum natively and under the
/// core, and (c) is Memcheck-clean. These parameterised suites enforce (a)
/// and (b) for the fourteen Table 2 workloads, and (c) for those and the
/// two threaded ones, sigmt and mtcpu, with and without the fast tiers.
///
//===----------------------------------------------------------------------===//

#include "core/Launcher.h"
#include "tools/Memcheck.h"
#include "tools/Nulgrind.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

using namespace vg;

namespace {

class WorkloadSuite : public ::testing::TestWithParam<int> {
protected:
  std::string name() const { return allWorkloads()[GetParam()].Name; }
};

TEST_P(WorkloadSuite, NativeAndNulgrindAgree) {
  GuestImage Img = buildWorkload(name(), 1);
  RunReport N = runNative(Img);
  ASSERT_TRUE(N.Completed) << name() << " did not complete natively";
  ASSERT_FALSE(N.Stdout.empty()) << name() << " printed no checksum";
  Nulgrind T;
  RunReport C = runUnderCore(Img, &T);
  ASSERT_TRUE(C.Completed) << name() << " did not complete under the core";
  EXPECT_EQ(N.Stdout, C.Stdout) << name() << " checksum differs";
  EXPECT_EQ(N.ExitCode, C.ExitCode);
  EXPECT_GT(N.NativeInsns, 100'000u) << name() << " is suspiciously small";
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadSuite,
                         ::testing::Range(0, 14),
                         [](const ::testing::TestParamInfo<int> &I) {
                           return allWorkloads()[I.param].Name;
                         });

// Memcheck cleanliness of every workload, under default options and with
// the hot and trace tiers on: Memcheck prints what Nulgrind prints and
// reports no error.
std::vector<std::string> allNames() {
  std::vector<std::string> Names;
  for (const WorkloadInfo &W : allWorkloads())
    Names.push_back(W.Name);
  Names.push_back("sigmt");
  Names.push_back("mtcpu");
  return Names;
}

class WorkloadMemcheck
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(WorkloadMemcheck, IsMemcheckClean) {
  auto [Name, Tiers] = GetParam();
  std::vector<std::string> Opts;
  if (Tiers)
    Opts = {"--hot-threshold=20", "--trace-tier=yes"};
  GuestImage Img = buildWorkload(Name, 1);
  Nulgrind TN;
  RunReport N = runUnderCore(Img, &TN, Opts);
  Memcheck T;
  RunReport C = runUnderCore(Img, &T, Opts);
  ASSERT_TRUE(C.Completed);
  EXPECT_EQ(N.Stdout, C.Stdout) << "checksum differs under Memcheck";
  EXPECT_NE(C.ToolOutput.find("ERROR SUMMARY: 0 errors"), std::string::npos)
      << Name << " output:\n"
      << C.ToolOutput;
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadMemcheck,
    ::testing::Combine(::testing::ValuesIn(allNames()), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, bool>> &I) {
      return std::get<0>(I.param) +
             (std::get<1>(I.param) ? "_hot20_trace" : "_default");
    });

} // namespace
