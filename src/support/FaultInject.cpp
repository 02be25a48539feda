//===-- support/FaultInject.cpp - Deterministic fault injection -----------==//

#include "support/FaultInject.h"

#include <cerrno>
#include <cstdlib>

using namespace vg;

const char *vg::faultKindName(FaultKind K) {
  switch (K) {
  case FaultKind::Syscall:
    return "syscall";
  case FaultKind::ShortIO:
    return "shortio";
  case FaultKind::MemPressure:
    return "mempressure";
  case FaultKind::Wakeup:
    return "wakeup";
  case FaultKind::SigStorm:
    return "sigstorm";
  case FaultKind::Preempt:
    return "preempt";
  case FaultKind::TTFlush:
    return "ttflush";
  case FaultKind::NumKinds:
    break;
  }
  return "?";
}

namespace {

/// Default 1-in-N rates per kind. Block-boundary kinds (sigstorm, preempt,
/// ttflush) are consulted once per dispatched block and therefore get much
/// longer odds than the per-syscall kinds.
constexpr uint32_t DefaultRate[NumFaultKinds] = {
    /*syscall=*/16,  /*shortio=*/8,    /*mempressure=*/24,
    /*wakeup=*/4,    /*sigstorm=*/512, /*preempt=*/1024,
    /*ttflush=*/4096};

int kindFromName(const std::string &Name) {
  for (unsigned I = 0; I != NumFaultKinds; ++I)
    if (Name == faultKindName(static_cast<FaultKind>(I)))
      return static_cast<int>(I);
  return -1;
}

/// Hard-validated unsigned parse: the whole string must be a digit-leading
/// integer (0x... accepted) with no sign and no trailing garbage. The
/// lenient strtoull it replaces turned "seed=abc" into seed=0 — a silently
/// different fuzz campaign than the one the user asked for.
bool parseU64Checked(const char *C, uint64_t &Out) {
  if (*C < '0' || *C > '9')
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(C, &End, 0);
  if (*End != '\0' || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

} // namespace

bool FaultPlan::parse(const std::string &Spec, std::string &Err) {
  for (uint32_t &R : Rate)
    R = 0;
  Seed = 0;
  bool AnyKind = false;

  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    std::string Item = Spec.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    Pos = Comma == std::string::npos ? Spec.size() + 1 : Comma + 1;
    if (Item.empty())
      continue;

    if (Item.rfind("seed=", 0) == 0) {
      if (!parseU64Checked(Item.c_str() + 5, Seed)) {
        Err = "bad fault-inject seed in '" + Item + "'";
        return false;
      }
      continue;
    }

    std::string Name = Item;
    uint32_t R = 0; // 0 = use per-kind default
    if (size_t Colon = Item.find(':'); Colon != std::string::npos) {
      Name = Item.substr(0, Colon);
      uint64_t Parsed = 0;
      if (!parseU64Checked(Item.c_str() + Colon + 1, Parsed) ||
          Parsed == 0 || Parsed > 0xFFFFFFFFull) {
        Err = "bad fault-inject rate in '" + Item + "'";
        return false;
      }
      R = static_cast<uint32_t>(Parsed);
    }

    if (Name == "all") {
      for (unsigned I = 0; I != NumFaultKinds; ++I)
        Rate[I] = R ? R : DefaultRate[I];
      AnyKind = true;
      continue;
    }
    int K = kindFromName(Name);
    if (K < 0) {
      Err = "unknown fault-inject kind '" + Name + "'";
      return false;
    }
    Rate[K] = R ? R : DefaultRate[K];
    AnyKind = true;
  }

  if (!AnyKind) {
    Err = "fault-inject spec enables no fault kinds";
    return false;
  }
  // splitmix64 wants a nonzero-ish starting point; golden-ratio-stir the
  // seed so seed=0 and seed=1 diverge immediately.
  Gen.State = Seed + 0x9E3779B97F4A7C15ULL;
  return true;
}

bool FaultPlan::roll(FaultKind K) {
  unsigned I = static_cast<unsigned>(K);
  if (Rate[I] == 0)
    return false;
  ++Rolls;
  bool Hit = Gen.next() % Rate[I] == 0;
  if (Hit)
    ++Injected[I];
  return Hit;
}

uint32_t FaultPlan::pick(uint32_t Bound) {
  return static_cast<uint32_t>(Gen.next() % Bound);
}

uint64_t FaultPlan::injectedTotal() const {
  uint64_t N = 0;
  for (uint64_t V : Injected)
    N += V;
  return N;
}
