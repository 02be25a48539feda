//===-- tests/SupportTests.cpp - Support-library unit tests ---------------==//
///
/// \file
/// Unit tests for the small substrates: option parsing, output sinks (R9),
/// error recording/deduplication/suppressions, hashing, and guest images.
///
//===----------------------------------------------------------------------===//

#include "core/Core.h"
#include "core/ErrorManager.h"
#include "core/GuestImage.h"
#include "guest/GuestMemory.h"
#include "support/EventTrace.h"
#include "support/FaultInject.h"
#include "support/Hashing.h"
#include "support/Options.h"
#include "support/Output.h"

#include <gtest/gtest.h>

#include <set>

using namespace vg;

namespace {

//===----------------------------------------------------------------------===//
// OptionRegistry
//===----------------------------------------------------------------------===//

TEST(Options, ParseTypedValues) {
  OptionRegistry O;
  O.addOption("leak-check", "yes", "");
  O.addOption("threshold", "2097152", "");
  O.addOption("log-file", "", "");
  auto Unknown = O.parse({"--leak-check=no", "--threshold=0x1000",
                          "--log-file=/tmp/x", "--bogus=1", "stray"});
  EXPECT_FALSE(O.getBool("leak-check"));
  EXPECT_EQ(O.getIntChecked("threshold", 0, INT64_MAX), 0x1000);
  EXPECT_EQ(O.getString("log-file"), "/tmp/x");
  ASSERT_EQ(Unknown.size(), 2u);
  EXPECT_EQ(Unknown[0], "--bogus=1");
  EXPECT_EQ(Unknown[1], "stray");
}

TEST(Options, BareFlagMeansYes) {
  OptionRegistry O;
  O.addOption("chaining", "no", "");
  O.parse({"--chaining"});
  EXPECT_TRUE(O.getBool("chaining"));
}

TEST(Options, YesNoSpellings) {
  OptionRegistry O;
  O.addOption("flag", "no", "");
  const std::pair<const char *, bool> Spellings[] = {
      {"yes", true}, {"true", true},   {"1", true}, {"on", true},
      {"no", false}, {"false", false}, {"0", false}, {"off", false}};
  for (auto [V, Want] : Spellings) {
    O.parse({std::string("--flag=") + V});
    EXPECT_EQ(O.getBool("flag"), Want) << V;
  }
}

TEST(Options, DefaultsSurviveAndHelpRendered) {
  OptionRegistry O;
  O.addOption("smc-check", "stack", "when to check for SMC");
  EXPECT_EQ(O.getString("smc-check"), "stack");
  std::string H = O.helpText();
  EXPECT_NE(H.find("--smc-check"), std::string::npos);
  EXPECT_NE(H.find("default: stack"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// OutputSink (R9)
//===----------------------------------------------------------------------===//

TEST(Output, BufferModeCapturesAndClears) {
  OutputSink S;
  S.useBuffer();
  S.printf("x=%d %s", 42, "ok");
  EXPECT_EQ(S.buffer(), "x=42 ok");
  EXPECT_EQ(S.takeBuffer(), "x=42 ok");
  EXPECT_TRUE(S.buffer().empty());
}

TEST(Output, FileModeWrites) {
  std::string Path = "/tmp/vg_output_test.txt";
  {
    OutputSink S;
    ASSERT_TRUE(S.openFile(Path));
    S.printf("line %d\n", 1);
  } // destructor flushes/closes
  std::FILE *F = std::fopen(Path.c_str(), "r");
  ASSERT_NE(F, nullptr);
  char Buf[32] = {};
  [[maybe_unused]] size_t N = std::fread(Buf, 1, sizeof(Buf) - 1, F);
  std::fclose(F);
  std::remove(Path.c_str());
  EXPECT_STREQ(Buf, "line 1\n");
}

//===----------------------------------------------------------------------===//
// ErrorManager
//===----------------------------------------------------------------------===//

TEST(Errors, DeduplicatesByKindAndPC) {
  ErrorManager E;
  EXPECT_TRUE(E.record("UninitValue", "m", 0x100));
  EXPECT_FALSE(E.record("UninitValue", "m", 0x100)); // same site
  EXPECT_TRUE(E.record("UninitValue", "m", 0x200));  // new site
  EXPECT_TRUE(E.record("InvalidRead", "m", 0x100));  // new kind
  EXPECT_EQ(E.uniqueErrors(), 3u);
  EXPECT_EQ(E.totalOccurrences(), 4u);
}

TEST(Errors, SuppressionsByKindAndRange) {
  ErrorManager E;
  EXPECT_EQ(E.parseSuppressions("# comment\nUninitValue\n"
                                "InvalidRead:0x1000-0x1FFF\n\n"),
            2u);
  EXPECT_FALSE(E.record("UninitValue", "m", 0x5));      // kind-wide
  EXPECT_FALSE(E.record("InvalidRead", "m", 0x1234));   // in range
  EXPECT_TRUE(E.record("InvalidRead", "m", 0x3000));    // out of range
  EXPECT_EQ(E.suppressedCount(), 2u);
  EXPECT_EQ(E.uniqueErrors(), 1u);
}

TEST(Errors, SummaryFormat) {
  ErrorManager E;
  E.record("K", "msg text", 0x42, {0x10, 0x20});
  E.record("K", "msg text", 0x42);
  OutputSink S;
  S.useBuffer();
  E.printSummary(S);
  std::string Out = S.takeBuffer();
  EXPECT_NE(Out.find("msg text (x2)"), std::string::npos);
  EXPECT_NE(Out.find("by 0x00000010"), std::string::npos);
  EXPECT_NE(Out.find("ERROR SUMMARY: 2 errors from 1 contexts"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Hashing
//===----------------------------------------------------------------------===//

TEST(Hashing, ByteHashSensitivity) {
  uint8_t A[] = {1, 2, 3, 4};
  uint8_t B[] = {1, 2, 3, 5};
  EXPECT_NE(hashBytes(A, 4), hashBytes(B, 4));
  EXPECT_EQ(hashBytes(A, 4), hashBytes(A, 4));
  EXPECT_NE(hashBytes(A, 3), hashBytes(A, 4));
}

TEST(Hashing, AddrHashSpreadsNeighbours) {
  // Adjacent block addresses must not collide in a 2^13 cache.
  std::set<uint32_t> Buckets;
  for (uint32_t A = 0x1000; A != 0x1000 + 64 * 8; A += 8)
    Buckets.insert(hashAddr(A) & 0x1FFF);
  EXPECT_GE(Buckets.size(), 60u); // near-perfect spread of 64 inputs
}

//===----------------------------------------------------------------------===//
// GuestImage
//===----------------------------------------------------------------------===//

TEST(GuestImage, BuilderCollectsSegmentsAndSymbols) {
  vg1::Assembler Code(0x1000);
  Code.symbol("entry");
  Code.nop();
  Code.symbol("fn2");
  Code.hlt();
  vg1::Assembler Data(0x8000);
  Data.symbol("glob");
  Data.emitU32(7);
  GuestImage Img = GuestImageBuilder()
                       .addCode(Code)
                       .addData(Data)
                       .entry(0x1000)
                       .stackSize(64 * 1024)
                       .build();
  ASSERT_EQ(Img.Segments.size(), 2u);
  EXPECT_EQ(Img.Segments[0].Base, 0x1000u);
  EXPECT_EQ(Img.Segments[0].Perms & PermExec, PermExec);
  EXPECT_EQ(Img.Segments[1].Perms & PermWrite, PermWrite);
  EXPECT_EQ(Img.symbol("entry"), 0x1000u);
  EXPECT_EQ(Img.symbol("fn2"), 0x1001u);
  EXPECT_EQ(Img.symbol("glob"), 0x8000u);
  EXPECT_EQ(Img.symbol("nope"), 0u);
  EXPECT_EQ(Img.StackSize, 64u * 1024);
}

//===----------------------------------------------------------------------===//
// FaultPlan (--fault-inject)
//===----------------------------------------------------------------------===//

TEST(FaultPlan, ParsesKindsRatesAndSeed) {
  FaultPlan P;
  std::string Err;
  ASSERT_TRUE(P.parse("syscall:8,sigstorm,seed=42", Err)) << Err;
  EXPECT_EQ(P.seed(), 42u);
  EXPECT_TRUE(P.enabled(FaultKind::Syscall));
  EXPECT_TRUE(P.enabled(FaultKind::SigStorm));
  EXPECT_FALSE(P.enabled(FaultKind::ShortIO));
  EXPECT_FALSE(P.enabled(FaultKind::Preempt));
}

TEST(FaultPlan, AllEnablesEveryKind) {
  FaultPlan P;
  std::string Err;
  ASSERT_TRUE(P.parse("all,seed=1", Err)) << Err;
  for (unsigned I = 0; I != NumFaultKinds; ++I)
    EXPECT_TRUE(P.enabled(static_cast<FaultKind>(I)))
        << faultKindName(static_cast<FaultKind>(I));
}

// The option's help text is written out by hand; it must name every kind
// VG_FAULT_KINDS lists.
TEST(FaultPlan, HelpTextNamesEveryKind) {
  Core C;
  std::string H = C.options().helpText();
  size_t At = H.find("--fault-inject ");
  ASSERT_NE(At, std::string::npos) << H;
  std::string Entry = H.substr(At, H.find("\n  --", At) - At);
  for (unsigned I = 0; I != NumFaultKinds; ++I) {
    const char *Name = faultKindName(static_cast<FaultKind>(I));
    EXPECT_NE(Entry.find(Name), std::string::npos) << Name << " in " << Entry;
  }
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  std::string Err;
  EXPECT_FALSE(FaultPlan().parse("bogus", Err));
  EXPECT_FALSE(FaultPlan().parse("syscall:0", Err)); // rate 0 is not a rate
  EXPECT_FALSE(FaultPlan().parse("syscall:8x", Err));
  EXPECT_FALSE(FaultPlan().parse("seed=42", Err)); // no kinds enabled
  EXPECT_FALSE(FaultPlan().parse("", Err));
}

TEST(FaultPlan, SameSeedSameDecisionSequence) {
  FaultPlan A, B;
  std::string Err;
  ASSERT_TRUE(A.parse("all,seed=99", Err));
  ASSERT_TRUE(B.parse("all,seed=99", Err));
  for (int I = 0; I != 1000; ++I) {
    FaultKind K = static_cast<FaultKind>(I % NumFaultKinds);
    ASSERT_EQ(A.roll(K), B.roll(K)) << "diverged at decision " << I;
    ASSERT_EQ(A.pick(17), B.pick(17)) << "diverged at decision " << I;
  }
  EXPECT_EQ(A.rolls(), B.rolls());
  EXPECT_EQ(A.injectedTotal(), B.injectedTotal());
}

TEST(FaultPlan, DifferentSeedsDiverge) {
  FaultPlan A, B;
  std::string Err;
  ASSERT_TRUE(A.parse("all:2,seed=1", Err));
  ASSERT_TRUE(B.parse("all:2,seed=2", Err));
  bool Diverged = false;
  for (int I = 0; I != 256 && !Diverged; ++I)
    Diverged = A.roll(FaultKind::Syscall) != B.roll(FaultKind::Syscall);
  EXPECT_TRUE(Diverged);
}

TEST(FaultPlan, DisabledKindNeverFiresOrAdvances) {
  FaultPlan P;
  std::string Err;
  ASSERT_TRUE(P.parse("syscall:1,seed=5", Err));
  for (int I = 0; I != 64; ++I)
    EXPECT_FALSE(P.roll(FaultKind::SigStorm));
  EXPECT_EQ(P.rolls(), 0u); // disabled rolls are not decisions
  EXPECT_TRUE(P.roll(FaultKind::Syscall)); // rate 1 always fires
  EXPECT_EQ(P.injected(FaultKind::Syscall), 1u);
}

//===----------------------------------------------------------------------===//
// EventTracer (--trace-events)
//===----------------------------------------------------------------------===//

TEST(EventTracer, RecordsAndCounts) {
  EventTracer T(16);
  uint64_t Clock = 7;
  T.setClock(&Clock);
  T.record(0, TraceEvent::PreSyscall, 2);
  Clock = 9;
  T.record(1, TraceEvent::SigDeliver, 10, 0x2000);
  EXPECT_EQ(T.recorded(), 2u);
  EXPECT_EQ(T.dropped(), 0u);
  EXPECT_EQ(T.count(TraceEvent::PreSyscall), 1u);
  EXPECT_EQ(T.count(TraceEvent::SigDeliver), 1u);
  std::string S = T.serialize();
  EXPECT_NE(S.find("=== event trace (records=2 dropped=0) ==="),
            std::string::npos);
  EXPECT_NE(S.find("=== end event trace ==="), std::string::npos);
  EXPECT_NE(S.find("@0000000007 t0 syscall-enter"), std::string::npos);
  EXPECT_NE(S.find("@0000000009 t1 sig-deliver"), std::string::npos);
}

TEST(EventTracer, RingWrapKeepsNewestAndCountsDropped) {
  EventTracer T(4);
  for (int I = 0; I != 10; ++I)
    T.record(0, TraceEvent::PreSyscall, static_cast<uint32_t>(I));
  EXPECT_EQ(T.recorded(), 10u);
  EXPECT_EQ(T.dropped(), 6u);
  std::string S = T.serialize();
  EXPECT_EQ(S.find("a=0x5"), std::string::npos);  // oldest overwritten
  EXPECT_NE(S.find("a=0x6"), std::string::npos);  // four newest retained
  EXPECT_NE(S.find("a=0x9"), std::string::npos);
  EXPECT_EQ(T.count(TraceEvent::PreSyscall), 10u); // counts are total
}

TEST(EventTracer, ZeroCapacityClampsToOne) {
  EventTracer T(0);
  EXPECT_EQ(T.capacity(), 1u);
  T.record(0, TraceEvent::ThreadExit);
  EXPECT_EQ(T.recorded(), 1u);
}

} // namespace
