//===-- tools/Cachegrind.cpp - Cache profiler -----------------------------==//

#include "tools/Cachegrind.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdio>

using namespace vg;
using namespace vg::ir;

//===----------------------------------------------------------------------===//
// The cache model substrate
//===----------------------------------------------------------------------===//

CacheModel::CacheModel(uint32_t SizeBytes, uint32_t Assoc, uint32_t LineSz)
    : LineSize(LineSz), NumSets(SizeBytes / (Assoc * LineSz)), Assoc(Assoc) {
  assert(NumSets > 0 && (NumSets & (NumSets - 1)) == 0 &&
         "cache geometry must give a power-of-two set count");
  Sets.assign(NumSets, std::vector<uint32_t>(Assoc, ~0u));
}

bool CacheModel::touchLine(uint32_t LineAddr) {
  uint32_t SetIdx = (LineAddr / LineSize) & (NumSets - 1);
  std::vector<uint32_t> &Set = Sets[SetIdx];
  auto It = std::find(Set.begin(), Set.end(), LineAddr);
  if (It != Set.end()) {
    // Hit: move to MRU position.
    std::rotate(Set.begin(), It, It + 1);
    return true;
  }
  // Miss: evict LRU.
  std::rotate(Set.begin(), Set.end() - 1, Set.end());
  Set.front() = LineAddr;
  return false;
}

bool CacheModel::access(uint32_t Addr, uint32_t Len) {
  uint32_t First = Addr & ~(LineSize - 1);
  uint32_t Last = (Addr + (Len ? Len - 1 : 0)) & ~(LineSize - 1);
  bool Hit = touchLine(First);
  if (Last != First)
    Hit = touchLine(Last) && Hit;
  return Hit;
}

//===----------------------------------------------------------------------===//
// The tool
//===----------------------------------------------------------------------===//

namespace {

Cachegrind *toolOf(void *Env) {
  return static_cast<Cachegrind *>(static_cast<ExecContext *>(Env)->Tool);
}

} // namespace

uint64_t Cachegrind::helperInstr(void *Env, uint64_t PC, uint64_t Size,
                                 uint64_t, uint64_t) {
  toolOf(Env)->simInstr(static_cast<uint32_t>(PC),
                        static_cast<uint32_t>(Size));
  return 0;
}

uint64_t Cachegrind::helperRead(void *Env, uint64_t Addr, uint64_t Size,
                                uint64_t PC, uint64_t) {
  toolOf(Env)->simData(static_cast<uint32_t>(PC),
                       static_cast<uint32_t>(Addr),
                       static_cast<uint32_t>(Size), /*Write=*/false);
  return 0;
}

uint64_t Cachegrind::helperWrite(void *Env, uint64_t Addr, uint64_t Size,
                                 uint64_t PC, uint64_t) {
  toolOf(Env)->simData(static_cast<uint32_t>(PC),
                       static_cast<uint32_t>(Addr),
                       static_cast<uint32_t>(Size), /*Write=*/true);
  return 0;
}

namespace {
const Callee InstrCallee = {"cg_instr", &Cachegrind::helperInstr, 0};
const Callee ReadCallee = {"cg_read", &Cachegrind::helperRead, 0};
const Callee WriteCallee = {"cg_write", &Cachegrind::helperWrite, 0};
const ir::CalleeRegistrar RegisterCallees{&InstrCallee, &ReadCallee,
                                         &WriteCallee};
} // namespace

Cachegrind::Cachegrind() = default;

void Cachegrind::registerOptions(OptionRegistry &Opts) {
  Opts.addOption("I1", "32768,8,64", "I1 cache: size,assoc,linesize");
  Opts.addOption("D1", "32768,8,64", "D1 cache: size,assoc,linesize");
  Opts.addOption("LL", "1048576,16,64", "LL cache: size,assoc,linesize");
}

namespace {

/// Bounds on a simulated cache's shape.
constexpr uint64_t MaxSets = 1u << 20, MaxAssoc = 64;

/// Reads "size,assoc,linesize": three positive decimal integers, each
/// below 2^32, and nothing else (no sign, space or trailing text).
bool parseGeometry(const std::string &S, uint64_t (&V)[3]) {
  const char *P = S.data(), *End = P + S.size();
  for (int I = 0; I != 3; ++I) {
    if (I && (P == End || *P++ != ','))
      return false;
    auto [Next, Err] = std::from_chars(P, End, V[I]);
    if (Err != std::errc() || V[I] == 0 || V[I] > UINT32_MAX)
      return false;
    P = Next;
  }
  return P == End;
}

} // namespace

void Cachegrind::init(Core &Core_) {
  C = &Core_;
  // A line size that is a power of two, and a size that is a power-of-two
  // number of sets of Assoc lines; checked in 64 bits, where Assoc *
  // LineSize cannot wrap to 0. Anything else is a usage error.
  auto Parse = [&](const char *Name) {
    std::string S = C->options().getString(Name);
    uint64_t V[3] = {};
    bool Ok = parseGeometry(S, V);
    uint64_t SetBytes = Ok ? V[1] * V[2] : 1;
    Ok = Ok && std::has_single_bit(V[2]) && V[1] <= MaxAssoc &&
         V[0] % SetBytes == 0 && std::has_single_bit(V[0] / SetBytes) &&
         V[0] / SetBytes <= MaxSets;
    if (!Ok) {
      char Msg[320];
      std::snprintf(Msg, sizeof(Msg),
                    "--%s=%s: expected size,assoc,linesize: positive "
                    "integers, linesize a power of two, assoc at most %llu, "
                    "size / (assoc * linesize) a power of two at most %llu",
                    Name, S.c_str(), static_cast<unsigned long long>(MaxAssoc),
                    static_cast<unsigned long long>(MaxSets));
      fatalError(Msg);
    }
    return std::make_unique<CacheModel>(static_cast<uint32_t>(V[0]),
                                        static_cast<uint32_t>(V[1]),
                                        static_cast<uint32_t>(V[2]));
  };
  I1 = Parse("I1");
  D1 = Parse("D1");
  LL = Parse("LL");
}

void Cachegrind::simInstr(uint32_t PC, uint32_t Size) {
  CacheLineCounts &L = PerPC[PC];
  ++L.Ir;
  ++Totals.Ir;
  if (!I1->access(PC, Size)) {
    ++L.I1mr;
    ++Totals.I1mr;
    if (!LL->access(PC, Size)) {
      ++L.ILmr;
      ++Totals.ILmr;
    }
  }
}

void Cachegrind::simData(uint32_t PC, uint32_t Addr, uint32_t Size,
                         bool Write) {
  CacheLineCounts &L = PerPC[PC];
  if (Write) {
    ++L.Dw;
    ++Totals.Dw;
    if (!D1->access(Addr, Size)) {
      ++L.D1mw;
      ++Totals.D1mw;
      if (!LL->access(Addr, Size)) {
        ++L.DLmw;
        ++Totals.DLmw;
      }
    }
  } else {
    ++L.Dr;
    ++Totals.Dr;
    if (!D1->access(Addr, Size)) {
      ++L.D1mr;
      ++Totals.D1mr;
      if (!LL->access(Addr, Size)) {
        ++L.DLmr;
        ++Totals.DLmr;
      }
    }
  }
}

void Cachegrind::instrument(IRSB &SB) {
  std::vector<Stmt *> Old;
  Old.swap(SB.stmts());
  uint32_t CurPC = 0;
  for (Stmt *S : Old) {
    switch (S->Kind) {
    case StmtKind::IMark:
      CurPC = S->IAddr;
      SB.append(S);
      SB.dirty(&InstrCallee, {SB.constI64(S->IAddr), SB.constI64(S->ILen)});
      continue;
    case StmtKind::WrTmp:
      if (S->Data->Kind == ExprKind::Load) {
        SB.dirty(&ReadCallee,
                 {S->Data->Arg[0],
                  SB.constI64(tySizeBits(S->Data->T) / 8),
                  SB.constI64(CurPC)});
      }
      SB.append(S);
      continue;
    case StmtKind::Store:
      SB.dirty(&WriteCallee, {S->Addr, SB.constI64(tySizeBits(S->Data->T) / 8),
                              SB.constI64(CurPC)});
      SB.append(S);
      continue;
    default:
      SB.append(S);
      continue;
    }
  }
}

void Cachegrind::fini(int ExitCode) {
  OutputSink &Out = C->output();
  auto Pct = [](uint64_t Miss, uint64_t Total) {
    return Total ? 100.0 * static_cast<double>(Miss) /
                       static_cast<double>(Total)
                 : 0.0;
  };
  Out.printf("==cachegrind== I   refs:      %llu\n",
             static_cast<unsigned long long>(Totals.Ir));
  Out.printf("==cachegrind== I1  miss rate: %.2f%%\n",
             Pct(Totals.I1mr, Totals.Ir));
  Out.printf("==cachegrind== D   refs:      %llu (%llu rd + %llu wr)\n",
             static_cast<unsigned long long>(Totals.Dr + Totals.Dw),
             static_cast<unsigned long long>(Totals.Dr),
             static_cast<unsigned long long>(Totals.Dw));
  Out.printf("==cachegrind== D1  miss rate: %.2f%%\n",
             Pct(Totals.D1mr + Totals.D1mw, Totals.Dr + Totals.Dw));
  Out.printf("==cachegrind== LL  misses:    %llu\n",
             static_cast<unsigned long long>(Totals.ILmr + Totals.DLmr +
                                             Totals.DLmw));
  // Top 5 instruction addresses by data misses (the annotation view).
  std::vector<std::pair<uint64_t, uint32_t>> Hot;
  for (const auto &[PC, L] : PerPC)
    if (uint64_t M = L.D1mr + L.D1mw)
      Hot.push_back({M, PC});
  std::sort(Hot.rbegin(), Hot.rend());
  for (size_t I = 0; I != Hot.size() && I != 5; ++I)
    Out.printf("==cachegrind==   hot: 0x%08X  D1 misses %llu\n",
               Hot[I].second, static_cast<unsigned long long>(Hot[I].first));
}
