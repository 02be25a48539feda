//===-- tests/MtSchedTests.cpp - Multi-threaded guest under the scheduler -==//
///
/// \file
/// mtcpu (four cloned guest threads, each hash-mixing its own buffer) under
/// the big-lock scheduler of Section 3.14. It is selectable only by name,
/// so no workload sweep covers it: Nulgrind and Memcheck must print the
/// same checksum, and Memcheck must report no errors.
///
//===----------------------------------------------------------------------===//

#include "core/Launcher.h"
#include "tools/Memcheck.h"
#include "tools/Nulgrind.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <string>

using namespace vg;

TEST(MtSched, FourGuestThreadsSameChecksumUnderNulgrindAndMemcheck) {
  GuestImage Img = buildWorkload("mtcpu", 8);
  Nulgrind TN;
  Memcheck TM;
  RunReport Nul = runUnderCore(Img, &TN, {});
  RunReport Mc = runUnderCore(Img, &TM, {});
  for (const RunReport *R : {&Nul, &Mc}) {
    EXPECT_TRUE(R->Completed);
    EXPECT_EQ(R->FatalSignal, 0);
    EXPECT_EQ(R->ExitCode, 0);
  }
  EXPECT_FALSE(Nul.Stdout.empty()); // the workload prints its checksum
  EXPECT_EQ(Mc.Stdout, Nul.Stdout);
  EXPECT_NE(Mc.ToolOutput.find("ERROR SUMMARY: 0 errors"), std::string::npos)
      << Mc.ToolOutput;
}
