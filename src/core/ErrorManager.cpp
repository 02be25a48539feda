//===-- core/ErrorManager.cpp - Error recording and suppression -----------==//

#include "core/ErrorManager.h"

#include <cstdlib>
#include <sstream>

using namespace vg;

bool ErrorManager::record(const std::string &Kind, const std::string &Message,
                          uint32_t PC, std::vector<uint32_t> Stack) {
  if (matchesSuppression(Kind, PC)) {
    ++NumSuppressed;
    return false;
  }
  for (ErrorRecord &R : Records) {
    if (R.Kind == Kind && R.PC == PC) {
      ++R.Count;
      return false;
    }
  }
  ErrorRecord R;
  R.Kind = Kind;
  R.Message = Message;
  R.PC = PC;
  R.Stack = std::move(Stack);
  R.Count = 1;
  Records.push_back(std::move(R));
  return true;
}

bool ErrorManager::matchesSuppression(const std::string &Kind,
                                      uint32_t PC) const {
  for (const Suppression &S : Sups)
    if (S.Kind == Kind && PC >= S.Lo && PC <= S.Hi)
      return true;
  return false;
}

unsigned ErrorManager::parseSuppressions(const std::string &Text) {
  std::istringstream In(Text);
  std::string Line;
  unsigned Added = 0;
  while (std::getline(In, Line)) {
    // Strip comments and whitespace.
    if (size_t H = Line.find('#'); H != std::string::npos)
      Line = Line.substr(0, H);
    size_t B = Line.find_first_not_of(" \t");
    if (B == std::string::npos)
      continue;
    size_t E = Line.find_last_not_of(" \t");
    Line = Line.substr(B, E - B + 1);
    Suppression S;
    if (size_t Colon = Line.find(':'); Colon != std::string::npos) {
      S.Kind = Line.substr(0, Colon);
      std::string Range = Line.substr(Colon + 1);
      size_t Dash = Range.find('-');
      if (Dash == std::string::npos)
        continue; // malformed: skip
      S.Lo = static_cast<uint32_t>(
          std::strtoul(Range.substr(0, Dash).c_str(), nullptr, 0));
      S.Hi = static_cast<uint32_t>(
          std::strtoul(Range.substr(Dash + 1).c_str(), nullptr, 0));
    } else {
      S.Kind = Line;
    }
    addSuppression(S);
    ++Added;
  }
  return Added;
}

uint64_t ErrorManager::uniqueErrors() const {
  return static_cast<uint64_t>(Records.size());
}

uint64_t ErrorManager::totalOccurrences() const {
  uint64_t N = 0;
  for (const ErrorRecord &R : Records)
    N += R.Count;
  return N;
}

void ErrorManager::printSummary(OutputSink &Out) const {
  for (const ErrorRecord &R : Records) {
    Out.printf("%s (x%llu)\n", R.Message.c_str(),
               static_cast<unsigned long long>(R.Count));
    Out.printf("   at 0x%08X\n", R.PC);
    for (uint32_t A : R.Stack)
      Out.printf("   by 0x%08X\n", A);
  }
  Out.printf("ERROR SUMMARY: %llu errors from %llu contexts (suppressed: "
             "%llu)\n",
             static_cast<unsigned long long>(totalOccurrences()),
             static_cast<unsigned long long>(uniqueErrors()),
             static_cast<unsigned long long>(suppressedCount()));
}
