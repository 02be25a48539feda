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

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>

using namespace vg;
namespace fs = std::filesystem;

namespace {

/// The length of the decimal "<digits>.<digits>" at \p Pos of \p S, or 0.
size_t decimalAt(const std::string &S, size_t Pos) {
  auto Digits = [&S](size_t P) {
    return std::min(S.find_first_not_of("0123456789", P), S.size()) - P;
  };
  size_t Int = Digits(Pos);
  if (Int == 0 || S.compare(Pos + Int, 1, ".") != 0)
    return 0;
  size_t Frac = Digits(Pos + Int + 1);
  return Frac == 0 ? 0 : Int + 1 + Frac;
}

/// Replaces the wall-clock figures of a report with '*': every "...us"
/// value, and in the phase and hot-block tables every decimal column (the
/// phase total and mean, the hot blocks' xlate(us)) together with its
/// padding, whose width follows the number.
std::string maskTimings(const std::string &Report) {
  std::istringstream In(Report);
  std::string Out, Line;
  bool TimedTable = false;
  while (std::getline(In, Line)) {
    if (Line.rfind("== profile: ", 0) == 0)
      TimedTable = Line.find("translation phases") != std::string::npos ||
                   Line.find("hot blocks") != std::string::npos;
    // A figure starts a run of digits ("...us"), or follows a run of
    // spaces (a table column); any other run is copied whole.
    const char *Run = TimedTable ? " " : "0123456789";
    for (size_t I = 0; I != Line.size();) {
      if (!std::strchr(Run, Line[I])) {
        Out += Line[I++];
        continue;
      }
      size_t End = std::min(Line.find_first_not_of(Run, I), Line.size());
      size_t Len = decimalAt(Line, TimedTable ? End : I);
      if (TimedTable && Len) {
        Out += " *";
        I = End + Len;
      } else if (!TimedTable && Len && Line.compare(I + Len, 2, "us") == 0) {
        Out += "*us";
        I += Len + 2;
      } else {
        Out.append(Line, I, End - I);
        I = End;
      }
    }
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
