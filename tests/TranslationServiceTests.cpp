//===-- tests/TranslationServiceTests.cpp - Tiered translation tests ------==//
///
/// \file
/// Tests for the TranslationService: the synchronous pipeline (baseline,
/// hot superblock, and trace translations), the persistent cache's
/// hit/miss/write accounting on those paths, and byte-identical
/// --trace-events replay under a full Core.
///
//===----------------------------------------------------------------------===//

#include "core/Launcher.h"
#include "core/TranslationService.h"
#include "guestlib/GuestLib.h"
#include "tools/Nulgrind.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include <unistd.h>

using namespace vg;
using namespace vg::vg1;

namespace {

//===----------------------------------------------------------------------===//
// Service-level harness: a stub host and a bank of tiny guest blocks
//===----------------------------------------------------------------------===//

constexpr uint32_t CodeBase = 0x1000;

/// Minimal host: counts the callbacks.
struct StubHost : TranslationHost {
  bool MarkCacheable = false; ///< mimic the Core's no-SMC-prelude decision
  unsigned Notes = 0;

  void setupTranslation(TranslationOptions &, uint32_t, bool,
                        Translation *Raw) override {
    Raw->Cacheable = MarkCacheable;
  }
  void noteTranslation(uint32_t, const Translation &, double) override {
    ++Notes;
  }
};

/// GuestMemory pre-loaded with \p NBlocks independent blocks
/// ("movi r0, i; ret"), each a complete translation unit.
struct ServiceFixture {
  GuestMemory Mem;
  StubHost Host;
  TranslationService XS;
  std::vector<uint32_t> Blocks;

  explicit ServiceFixture(unsigned NBlocks = 8, size_t TTCap = 1u << 8)
      : XS(Host, Mem, TTCap) {
    Assembler Code(CodeBase);
    for (unsigned I = 0; I != NBlocks; ++I) {
      Blocks.push_back(Code.here());
      Code.movi(Reg::R0, I);
      Code.ret();
    }
    GuestImage Img = GuestImageBuilder().addCode(Code).entry(CodeBase).build();
    for (const ImageSegment &S : Img.Segments) {
      Mem.map(S.Base, static_cast<uint32_t>(S.Bytes.size()), S.Perms);
      Mem.write(S.Base, S.Bytes.data(), static_cast<uint32_t>(S.Bytes.size()),
                /*IgnorePerms=*/true);
    }
  }
};

//===----------------------------------------------------------------------===//
// The synchronous pipeline
//===----------------------------------------------------------------------===//

TEST(TranslationService, SyncTranslateInsertsAndAccounts) {
  ServiceFixture F;
  Translation *T = F.XS.translateSync(F.Blocks[0], /*Hot=*/false);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(F.XS.transTab().find(F.Blocks[0]), T);
  EXPECT_EQ(T->Tier, 0u);
  EXPECT_EQ(F.Host.Notes, 1u);

  // A hot retranslation replaces the cold block in place.
  Translation *T2 = F.XS.translateSync(F.Blocks[0], /*Hot=*/true);
  EXPECT_EQ(F.XS.transTab().find(F.Blocks[0]), T2);
  EXPECT_EQ(T2->Tier, 1u);
  EXPECT_EQ(F.Host.Notes, 2u);
}

//===----------------------------------------------------------------------===//
// Traces (tier 2)
//===----------------------------------------------------------------------===//

/// Two superblocks that chain A -> B (A ends at a BCC whose fall-through
/// is B), so a TraceSpec{A, B} is a real stitchable path.
struct TraceFixture {
  GuestMemory Mem;
  StubHost Host;
  TranslationService XS;
  uint32_t A = 0, B = 0;
  TraceSpec Spec;

  TraceFixture() : XS(Host, Mem, 1u << 8) {
    Assembler Code(CodeBase);
    Label Done = Code.newLabel();
    A = Code.here();
    Code.cmpi(Reg::R1, 0);
    Code.beq(Done); // unlikely side exit; superblock A ends here
    B = Code.here();
    Code.addi(Reg::R0, Reg::R0, 1);
    Code.ret();
    Code.bind(Done);
    Code.ret();
    GuestImage Img = GuestImageBuilder().addCode(Code).entry(CodeBase).build();
    for (const ImageSegment &S : Img.Segments) {
      Mem.map(S.Base, static_cast<uint32_t>(S.Bytes.size()), S.Perms);
      Mem.write(S.Base, S.Bytes.data(), static_cast<uint32_t>(S.Bytes.size()),
                /*IgnorePerms=*/true);
    }
    Spec.Entries = {A, B};
  }
};

// A trace request installs the stitched path over its head immediately,
// accounts it through the host like any other translation, and hands it
// back to the caller.
TEST(TranslationService, SyncTranslateTraceInstallsImmediately) {
  TraceFixture F;
  F.XS.translateSync(F.A, /*Hot=*/true);
  F.XS.translateSync(F.B, /*Hot=*/true);
  double Stall = F.XS.jitStats().SyncPromoStallSeconds;
  Translation *Tr = F.XS.translateSync(F.A, /*Hot=*/true, &F.Spec);
  ASSERT_NE(Tr, nullptr);
  EXPECT_EQ(Tr->Tier, 2u);
  EXPECT_EQ(Tr->TraceEntries, (std::vector<uint32_t>{F.A, F.B}));
  EXPECT_EQ(F.XS.transTab().find(F.A), Tr);
  EXPECT_EQ(F.Host.Notes, 3u);
  // A trace request is not a hot promotion.
  EXPECT_EQ(F.XS.jitStats().SyncPromoStallSeconds, Stall);
  // The tail constituent stays resident for side exits.
  ASSERT_NE(F.XS.transTab().find(F.B), nullptr);
  EXPECT_EQ(F.XS.transTab().find(F.B)->Tier, 1u);
  EXPECT_EQ(F.XS.jitStats().TraceRequests, 1u);
  EXPECT_EQ(F.XS.jitStats().TraceInstalled, 1u);
  EXPECT_EQ(F.XS.jitStats().TraceAborts, 0u);
}

//===----------------------------------------------------------------------===//
// The persistent cache on the service's paths (accounting audit)
//===----------------------------------------------------------------------===//

/// Scratch --tt-cache directory, removed on scope exit.
struct CacheDir {
  std::filesystem::path Path;
  CacheDir() {
    static int Counter = 0;
    Path = std::filesystem::temp_directory_path() /
           ("vgxs-cache-" + std::to_string(getpid()) + "-" +
            std::to_string(Counter++));
    std::filesystem::remove_all(Path);
  }
  ~CacheDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

// A trace request never consults or feeds the cache, even through a host
// that marks it cacheable: a trace encodes this run's branch bias and
// chain graph, which no cache key captures.
TEST(TranslationService, TraceRequestBypassesTheCache) {
  CacheDir Dir;
  TraceFixture F;
  F.Host.MarkCacheable = true;
  F.XS.attachCache(std::make_unique<TransCache>(Dir.str(), 0, /*CH=*/1));
  F.XS.translateSync(F.A, /*Hot=*/true);
  F.XS.translateSync(F.B, /*Hot=*/true);
  const JitStats Before = F.XS.jitStats();
  ASSERT_NE(F.XS.translateSync(F.A, /*Hot=*/true, &F.Spec), nullptr);
  const JitStats &J = F.XS.jitStats();
  EXPECT_EQ(J.CacheHits + J.CacheMisses + J.CacheRejects,
            Before.CacheHits + Before.CacheMisses + Before.CacheRejects);
  EXPECT_EQ(J.CacheWrites, Before.CacheWrites);
  EXPECT_EQ(J.TraceInstalled, 1u);
}

// Every cache lookup settles into exactly one of hit/miss/reject, every
// pipeline run is written back, and a hot promotion whose superblock is on
// disk installs from the cache over the resident tier-0 block.
TEST(TranslationService, CacheAccountingOnColdHotAndWarmPaths) {
  CacheDir Dir;
  {
    ServiceFixture F;
    F.Host.MarkCacheable = true;
    F.XS.attachCache(std::make_unique<TransCache>(Dir.str(), 0, /*CH=*/1));
    for (unsigned I = 0; I != 3; ++I)
      F.XS.translateSync(F.Blocks[I], /*Hot=*/false);
    F.XS.translateSync(F.Blocks[2], /*Hot=*/true);
    const JitStats &J = F.XS.jitStats();
    EXPECT_EQ(J.CacheMisses, 4u);
    EXPECT_EQ(J.CacheHits, 0u);
    EXPECT_EQ(J.CacheRejects, 0u);
    EXPECT_EQ(J.CacheWrites, 4u);
  }
  ServiceFixture W;
  W.Host.MarkCacheable = true;
  W.XS.attachCache(std::make_unique<TransCache>(Dir.str(), 0, /*CH=*/1));
  Translation *Cold = W.XS.translateSync(W.Blocks[2], /*Hot=*/false);
  Translation *Hot = W.XS.translateSync(W.Blocks[2], /*Hot=*/true);
  ASSERT_NE(Hot, nullptr);
  EXPECT_NE(Hot, Cold); // replaced the resident tier-0 block
  EXPECT_EQ(Hot->Tier, 1u);
  EXPECT_EQ(W.XS.transTab().find(W.Blocks[2]), Hot);
  // A PC never translated on the cold run is a plain miss.
  W.XS.translateSync(W.Blocks[5], /*Hot=*/false);
  const JitStats &J = W.XS.jitStats();
  EXPECT_EQ(J.CacheHits, 2u);
  EXPECT_EQ(J.CacheMisses, 1u);
  EXPECT_EQ(J.CacheRejects, 0u);
  EXPECT_EQ(J.CacheWrites, 1u); // only the miss ran the pipeline
}

//===----------------------------------------------------------------------===//
// End-to-end determinism under a full Core
//===----------------------------------------------------------------------===//

constexpr uint32_t ProgCodeBase = 0x1000;
constexpr uint32_t ProgDataBase = 0x100000;

GuestImage loopProgram() {
  Assembler Code(ProgCodeBase);
  Assembler Data(ProgDataBase);
  GuestLibLabels Lib = emitGuestLib(Code, Data);
  Label Main = Code.newLabel();
  uint32_t Entry = emitStart(Code, Main);
  Code.bind(Main);
  Code.symbol("main");
  Label Str = Data.boundLabel();
  Data.emitString("done\n");
  // Nested loops: the inner body and the outer body both cross any small
  // hot threshold, producing several promotion requests.
  Code.movi(Reg::R1, 0);
  Label Outer = Code.boundLabel();
  Code.movi(Reg::R2, 0);
  Label Inner = Code.boundLabel();
  Code.addi(Reg::R2, Reg::R2, 1);
  Code.cmpi(Reg::R2, 50);
  Code.blt(Inner);
  Code.addi(Reg::R1, Reg::R1, 1);
  Code.cmpi(Reg::R1, 400);
  Code.blt(Outer);
  Code.movi(Reg::R1, Data.labelAddr(Str));
  Code.call(Lib.Print);
  Code.movi(Reg::R0, 5);
  Code.ret();
  return GuestImageBuilder()
      .addCode(Code)
      .addData(Data)
      .entry(Entry)
      .build();
}

std::string extractTrace(const std::string &Output) {
  size_t Begin = Output.find("=== event trace");
  if (Begin == std::string::npos)
    return "";
  const char *EndMark = "=== end event trace ===";
  size_t End = Output.find(EndMark, Begin);
  if (End == std::string::npos)
    return "";
  return Output.substr(Begin, End + std::string(EndMark).size() - Begin);
}

// Same options, same program: same stdout and a byte-identical recorded
// event trace, run after run. Hot promotion stalls the guest for every
// superblock it builds.
TEST(TranslationService, TraceEventsReplayIsDeterministic) {
  GuestImage Img = loopProgram();
  std::vector<std::string> Opts = {"--chaining=yes", "--hot-threshold=3",
                                   "--trace-events=yes", "--trace-dump=yes"};

  Nulgrind T1, T2;
  RunReport A = runUnderCore(Img, &T1, Opts);
  RunReport B = runUnderCore(Img, &T2, Opts);
  ASSERT_TRUE(A.Completed);
  ASSERT_TRUE(B.Completed);
  EXPECT_EQ(A.ExitCode, 5);
  EXPECT_EQ(A.Stdout, "done\n");
  EXPECT_EQ(A.Stdout, B.Stdout);

  std::string TA = extractTrace(A.ToolOutput);
  ASSERT_FALSE(TA.empty());
  EXPECT_EQ(TA, extractTrace(B.ToolOutput)) << "replay must be identical";

  EXPECT_GT(A.Stats.HotPromotions, 0u);
  EXPECT_GT(A.Jit.SyncPromoStallSeconds, 0.0);
}

} // namespace
