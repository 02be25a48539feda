//===-- tests/ProfileTests.cpp - Golden tests for the --profile report ----==//
///
/// \file
/// Pins the text of the --profile report against golden files in
/// tests/goldens/. Two deterministic runs between them put every section
/// on the page: Memcheck on vortex with chaining, the hot and trace tiers,
/// the event tracer and fault injection; and Nulgrind on gcc, unchained
/// (the paper's dispatcher), against a fresh --tt-cache directory and a
/// --tt-server socket nobody listens on.
/// Wall-clock figures are masked; every count, ratio and percentage is
/// compared byte for byte.
///
/// To regenerate after an intentional change to the report:
///
///   UPDATE_GOLDENS=1 ./build/tests/test_profile
///
//===----------------------------------------------------------------------===//

#include "core/Launcher.h"
#include "tools/Memcheck.h"
#include "tools/Nulgrind.h"
#include "workloads/Workloads.h"

#include "GoldenFile.h"
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <unistd.h>

using namespace vg;
namespace fs = std::filesystem;

namespace {

/// Replaces the wall-clock figures of a report with '*': every "...us"
/// value, and in the phase and hot-block tables every decimal column (the
/// phase total and mean, the hot blocks' xlate(us)) together with its
/// padding, whose width follows the number.
std::string maskTimings(const std::string &Report) {
  static const std::regex Micros("[0-9]+\\.[0-9]+us");
  static const std::regex Column(" +[0-9]+\\.[0-9]+");
  std::istringstream In(Report);
  std::string Out, Line;
  bool TimedTable = false;
  while (std::getline(In, Line)) {
    if (Line.rfind("== profile: ", 0) == 0)
      TimedTable = Line.find("translation phases") != std::string::npos ||
                   Line.find("hot blocks") != std::string::npos;
    Out += TimedTable ? std::regex_replace(Line, Column, " *")
                      : std::regex_replace(Line, Micros, "*us");
    Out += '\n';
  }
  return Out;
}

TEST(ProfileGolden, MemcheckVortexAllTiersFaultsAndEvents) {
  Memcheck T;
  RunReport R = runUnderCore(
      buildWorkload("vortex"), &T,
      {"--chaining=yes", "--hot-threshold=50", "--trace-tier=yes",
       "--trace-events=yes", "--fault-inject=all,seed=3", "--profile=yes"});
  ASSERT_TRUE(R.Completed);
  checkGolden("profile_memcheck_vortex", maskTimings(R.ToolOutput));
}

TEST(ProfileGolden, NulgrindGccColdCacheAndAbsentServer) {
  fs::path Dir = fs::temp_directory_path() /
                 ("vgprof-test-" + std::to_string(getpid()));
  fs::remove_all(Dir);
  Nulgrind T;
  RunReport R = runUnderCore(buildWorkload("gcc"), &T,
                             {"--chaining=no",
                              "--tt-cache=" + (Dir / "cache").string(),
                              "--tt-server=" + (Dir / "absent.sock").string(),
                              "--profile=yes"});
  fs::remove_all(Dir);
  ASSERT_TRUE(R.Completed);
  checkGolden("profile_nulgrind_gcc_cache_server", maskTimings(R.ToolOutput));
}

} // namespace
