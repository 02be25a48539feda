//===-- tests/GoldenFile.h - Golden-file comparison -------------*- C++ -*-==//
///
/// \file
/// Compares a test's rendered output with tests/goldens/<Name>.txt (the
/// VG_TEST_GOLDEN_DIR a test target defines), or rewrites that file when
/// UPDATE_GOLDENS is set in the environment.
///
//===----------------------------------------------------------------------===//
#ifndef VG_TESTS_GOLDENFILE_H
#define VG_TESTS_GOLDENFILE_H

#include "gtest/gtest.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef VG_TEST_GOLDEN_DIR
#error "VG_TEST_GOLDEN_DIR must point at tests/goldens"
#endif

/// Compares \p Actual against the named golden (or rewrites it under
/// UPDATE_GOLDENS=1). On mismatch the first differing line and the full
/// actual text are printed, so the diff is inspectable from the test log.
inline void checkGolden(const std::string &Name, const std::string &Actual) {
  std::string Path = std::string(VG_TEST_GOLDEN_DIR) + "/" + Name + ".txt";
  if (std::getenv("UPDATE_GOLDENS")) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out) << "cannot write " << Path;
    Out << Actual;
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In) << "missing golden " << Path
                  << " (run with UPDATE_GOLDENS=1 to create)";
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Expect = SS.str();
  if (Expect == Actual)
    return;
  std::istringstream EL(Expect), AL(Actual);
  std::string E, A;
  unsigned Line = 1;
  while (std::getline(EL, E) && std::getline(AL, A) && E == A)
    ++Line;
  FAIL() << Name << ": output diverges from golden at line " << Line
         << "\n  golden: " << E << "\n  actual: " << A
         << "\nFull actual output:\n"
         << Actual << "\n(UPDATE_GOLDENS=1 regenerates " << Path << ")";
}

#endif // VG_TESTS_GOLDENFILE_H
