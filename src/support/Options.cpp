//===-- support/Options.cpp - Command-line option handling ----------------==//

#include "support/Options.h"

#include "support/Errors.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace vg;

void OptionRegistry::addOption(const std::string &Name,
                               const std::string &Default,
                               const std::string &Help) {
  Entry E;
  E.Value = Default;
  E.Default = Default;
  E.Help = Help;
  Entries[Name] = E;
}

std::vector<std::string>
OptionRegistry::parse(const std::vector<std::string> &Args) {
  std::vector<std::string> Unknown;
  for (const auto &Arg : Args) {
    if (Arg.size() < 3 || Arg[0] != '-' || Arg[1] != '-') {
      Unknown.push_back(Arg);
      continue;
    }
    std::string Body = Arg.substr(2);
    std::string Name = Body, Value = "yes";
    if (size_t Eq = Body.find('='); Eq != std::string::npos) {
      Name = Body.substr(0, Eq);
      Value = Body.substr(Eq + 1);
    }
    auto It = Entries.find(Name);
    if (It == Entries.end()) {
      Unknown.push_back(Arg);
      continue;
    }
    It->second.Value = Value;
  }
  return Unknown;
}

std::string OptionRegistry::getString(const std::string &Name) const {
  auto It = Entries.find(Name);
  if (It == Entries.end())
    unreachable("lookup of unregistered option");
  return It->second.Value;
}

int64_t OptionRegistry::getIntChecked(const std::string &Name, int64_t Lo,
                                      int64_t Hi) const {
  std::string S = getString(Name);
  const char *C = S.c_str();
  char *End = nullptr;
  errno = 0;
  long long V = std::strtoll(C, &End, 0);
  if (S.empty() || End == C || *End != '\0' || errno == ERANGE || V < Lo ||
      V > Hi) {
    char Msg[256];
    std::snprintf(Msg, sizeof(Msg),
                  "--%s=%s: expected an integer in [%lld, %lld]",
                  Name.c_str(), S.c_str(), static_cast<long long>(Lo),
                  static_cast<long long>(Hi));
    fatalError(Msg);
  }
  return V;
}

std::vector<std::pair<std::string, std::string>>
OptionRegistry::items() const {
  std::vector<std::pair<std::string, std::string>> Out;
  Out.reserve(Entries.size());
  for (const auto &[Name, E] : Entries)
    Out.push_back({Name, E.Value});
  return Out;
}

bool OptionRegistry::getBool(const std::string &Name) const {
  std::string V = getString(Name);
  if (V == "yes" || V == "true" || V == "1" || V == "on")
    return true;
  if (V == "no" || V == "false" || V == "0" || V == "off")
    return false;
  char Msg[256];
  std::snprintf(Msg, sizeof(Msg),
                "--%s=%s: expected yes|no (or true|false, 1|0, on|off)",
                Name.c_str(), V.c_str());
  fatalError(Msg);
}

std::string OptionRegistry::helpText() const {
  std::string Out;
  for (const auto &[Name, E] : Entries) {
    Out += "  --" + Name + " (default: " + E.Default + ")\n      " + E.Help +
           "\n";
  }
  return Out;
}
