//===-- bench/sec51_codesize.cpp - Section 5.1: tool-writing ease ---------==//
///
/// \file
/// Reproduces the Section 5.1 measurement: lines of code of the core
/// versus each tool plug-in, the paper's proxy for tool-writing effort.
/// The paper's numbers (Valgrind 3.2.1): core 170,280 + 3,207 asm;
/// Memcheck 10,509; Cachegrind 2,431; Massif 1,764; Nulgrind 39. The
/// reproduction target is the *ratio* story: tools are one to three
/// orders of magnitude smaller than the framework they plug into.
///
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#ifndef VG_SOURCE_DIR
#define VG_SOURCE_DIR "."
#endif

namespace {

namespace fs = std::filesystem;

uint64_t countLines(const fs::path &P) {
  std::ifstream In(P);
  uint64_t N = 0;
  std::string Line;
  while (std::getline(In, Line))
    ++N;
  return N;
}

uint64_t countGroup(const std::vector<std::string> &Patterns) {
  uint64_t Total = 0;
  fs::path Root = fs::path(VG_SOURCE_DIR) / "src";
  for (const auto &Entry : fs::recursive_directory_iterator(Root)) {
    if (!Entry.is_regular_file())
      continue;
    std::string Rel = fs::relative(Entry.path(), Root).string();
    for (const std::string &Pat : Patterns) {
      if (Rel.rfind(Pat, 0) == 0) {
        Total += countLines(Entry.path());
        break;
      }
    }
  }
  return Total;
}

} // namespace

int main() {
  struct Group {
    const char *Name;
    std::vector<std::string> Pats;
    const char *PaperDatum;
  };
  const std::vector<Group> Groups = {
      {"core (framework)",
       {"support/", "guest/", "ir/", "frontend/", "hvm/", "core/",
        "kernel/", "guestlib/"},
       "170,280 C + 3,207 asm"},
      {"shadow-value support", {"shadow/"}, "(part of Memcheck)"},
      {"memcheck", {"tools/Memcheck"}, "10,509"},
      {"cachegrind", {"tools/Cachegrind"}, "2,431"},
      {"massif", {"tools/Massif"}, "1,764"},
      {"taintgrind", {"tools/TaintGrind"}, "(TaintCheck-analogue)"},
      {"icnt (both)", {"tools/ICnt"}, "(paper's ICntI/ICntC)"},
      {"nulgrind", {"tools/Nulgrind"}, "39"},
  };

  std::printf("== Section 5.1: code sizes (this reproduction vs the "
              "paper) ==\n");
  std::printf("%-26s %10s   %s\n", "component", "lines", "paper (3.2.1)");
  uint64_t CoreLines = 0;
  for (const Group &G : Groups) {
    uint64_t N = countGroup(G.Pats);
    if (std::string(G.Name).rfind("core", 0) == 0)
      CoreLines = N;
    std::printf("%-26s %10llu   %s\n", G.Name,
                static_cast<unsigned long long>(N), G.PaperDatum);
  }
  uint64_t Nul = countGroup({"tools/Nulgrind"});
  uint64_t Mc = countGroup({"tools/Memcheck"});
  if (Nul && Mc && CoreLines) {
    std::printf("\ncore : memcheck : nulgrind ratio = %.0f : %.0f : 1\n",
                static_cast<double>(CoreLines) / static_cast<double>(Nul),
                static_cast<double>(Mc) / static_cast<double>(Nul));
    std::printf("(paper: 170,280 : 10,509 : 39  ~=  4366 : 269 : 1 — the "
                "framework dwarfs the tools,\n and heavyweight tools dwarf "
                "trivial ones; \"the benefit of using Valgrind is clear\")\n");
  }
  return 0;
}
