//===-- tests/TransCacheTests.cpp - Persistent translation cache ----------==//
///
/// \file
/// Tests for the --tt-cache subsystem: key/fingerprint derivation, the
/// serialize -> deserialize -> install round trip at the service level,
/// rejection of stale/poisoned/corrupt entries (truncations and bit flips
/// must be misses, never crashes, never garbage installs), size-budget
/// eviction, the hard option-validation errors, and end-to-end cold/warm
/// equivalence under a full Core. The two-writer race on one entry is the
/// ThreadSanitizer target of the `concurrency` ctest label.
///
//===----------------------------------------------------------------------===//

#include "core/Launcher.h"
#include "core/TransCache.h"
#include "core/TranslationService.h"
#include "guestlib/GuestLib.h"
#include "hvm/HostVM.h"
#include "tools/Memcheck.h"
#include "tools/Nulgrind.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

#include <unistd.h>

using namespace vg;
using namespace vg::vg1;

namespace {

namespace fs = std::filesystem;

/// Fresh per-test cache directory, removed on scope exit.
struct ScratchDir {
  fs::path Path;
  ScratchDir() {
    static int Counter = 0;
    Path = fs::temp_directory_path() /
           ("vgttc-test-" + std::to_string(getpid()) + "-" +
            std::to_string(Counter++));
    fs::remove_all(Path);
  }
  ~ScratchDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

//===----------------------------------------------------------------------===//
// Keys and fingerprints
//===----------------------------------------------------------------------===//

TEST(TransCache, EntryKeyIsContentSensitive) {
  uint64_t K = TransCache::entryKey(0x1000, false, 0xABCD);
  EXPECT_EQ(K, TransCache::entryKey(0x1000, false, 0xABCD));
  EXPECT_NE(K, TransCache::entryKey(0x1004, false, 0xABCD));
  EXPECT_NE(K, TransCache::entryKey(0x1000, true, 0xABCD));
  EXPECT_NE(K, TransCache::entryKey(0x1000, false, 0xABCE));
}

TEST(TransCache, ConfigHashCoversToolAndOptions) {
  std::vector<std::pair<std::string, std::string>> A = {{"chaining", "yes"}};
  std::vector<std::pair<std::string, std::string>> B = {{"chaining", "no"}};
  uint64_t HA = TransCache::configHash("nulgrind", A);
  EXPECT_EQ(HA, TransCache::configHash("nulgrind", A));
  EXPECT_NE(HA, TransCache::configHash("memcheck", A));
  EXPECT_NE(HA, TransCache::configHash("nulgrind", B));
}

//===----------------------------------------------------------------------===//
// Service-level round trip (no full Core)
//===----------------------------------------------------------------------===//

constexpr uint32_t CodeBase = 0x1000;

/// Stub host that marks every translation cacheable (the real Core does
/// this for all blocks without an SMC prelude).
struct CacheStubHost : TranslationHost {
  unsigned Notes = 0;
  unsigned Installs = 0;
  void setupTranslation(TranslationOptions &, uint32_t, bool,
                        Translation *Raw) override {
    Raw->Cacheable = true;
  }
  void noteTranslation(uint32_t, const Translation &, double) override {
    ++Notes;
  }
  void promotionInstalled(Translation *, uint64_t) override { ++Installs; }
};

/// A bank of tiny blocks plus a service with a cache attached to \p Dir.
struct CacheFixture {
  GuestMemory Mem;
  CacheStubHost Host;
  TranslationService XS;
  std::vector<uint32_t> Blocks;

  explicit CacheFixture(const std::string &Dir, uint64_t MaxBytes = 0,
                        unsigned NBlocks = 4)
      : XS(Host, Mem) {
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
    XS.attachCache(std::make_unique<TransCache>(Dir, MaxBytes, /*CH=*/1));
  }
};

TEST(TransCache, StoreThenLoadRoundTripInstalls) {
  ScratchDir Dir;
  uint64_t CodeHash, NumInsns;
  {
    CacheFixture Cold(Dir.str());
    Translation *T = Cold.XS.translateSync(Cold.Blocks[0], /*Hot=*/false);
    ASSERT_NE(T, nullptr);
    CodeHash = T->CodeHash;
    NumInsns = T->NumInsns;
    EXPECT_EQ(Cold.XS.jitStats().CacheMisses, 1u);
    EXPECT_EQ(Cold.XS.jitStats().CacheWrites, 1u);
    EXPECT_EQ(Cold.XS.jitStats().CacheHits, 0u);
  }
  CacheFixture Warm(Dir.str());
  Translation *T = Warm.XS.translateSync(Warm.Blocks[0], /*Hot=*/false);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(Warm.XS.jitStats().CacheHits, 1u);
  EXPECT_EQ(Warm.XS.jitStats().CacheMisses, 0u);
  EXPECT_EQ(Warm.XS.jitStats().CacheWrites, 0u); // hits are not re-written
  // The deserialized translation is the real thing, installed and
  // accounted like a pipeline product.
  EXPECT_EQ(T->CodeHash, CodeHash);
  EXPECT_EQ(T->NumInsns, NumInsns);
  EXPECT_EQ(Warm.XS.transTab().find(Warm.Blocks[0]), T);
  EXPECT_EQ(Warm.Host.Notes, 1u);
}

TEST(TransCache, ChangedGuestBytesRejectEntry) {
  ScratchDir Dir;
  {
    CacheFixture Cold(Dir.str());
    Cold.XS.translateSync(Cold.Blocks[0], false);
  }
  CacheFixture Warm(Dir.str());
  // Same addresses, different code: patch the first block's immediate.
  // The key's prefix hash changes with the bytes, so this is a plain miss;
  // the stale entry must never be installed.
  uint32_t Clobber = 0x00FFu;
  Warm.Mem.write(Warm.Blocks[0] + 1, &Clobber, 2, /*IgnorePerms=*/true);
  Translation *T = Warm.XS.translateSync(Warm.Blocks[0], false);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(Warm.XS.jitStats().CacheHits, 0u);
  EXPECT_EQ(Warm.XS.jitStats().CacheMisses +
                Warm.XS.jitStats().CacheRejects,
            1u);
}

TEST(TransCache, PoisonedRangeBlocksLoadAndStore) {
  ScratchDir Dir;
  {
    CacheFixture Cold(Dir.str());
    Cold.XS.translateSync(Cold.Blocks[0], false);
    EXPECT_EQ(Cold.XS.jitStats().CacheWrites, 1u);
  }
  CacheFixture Warm(Dir.str());
  // A redirect-style invalidation changes what the address *means* without
  // changing its bytes: the on-disk entry must be refused for the rest of
  // this run, and the retranslation must not be written back over it.
  Warm.XS.invalidate(Warm.Blocks[0], 4);
  Translation *T = Warm.XS.translateSync(Warm.Blocks[0], false);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(Warm.XS.jitStats().CacheHits, 0u);
  EXPECT_EQ(Warm.XS.jitStats().CacheRejects, 1u);
  EXPECT_EQ(Warm.XS.jitStats().CacheWrites, 0u);
  // A non-overlapping block is unaffected.
  Warm.XS.translateSync(Warm.Blocks[1], false);
  EXPECT_EQ(Warm.XS.jitStats().CacheWrites, 1u);
}

//===----------------------------------------------------------------------===//
// Corruption: truncations and bit flips are misses, never crashes
//===----------------------------------------------------------------------===//

TEST(TransCache, TruncatedEntryIsRejectedNotCrash) {
  ScratchDir Dir;
  uint64_t Key;
  {
    CacheFixture Cold(Dir.str());
    Cold.XS.translateSync(Cold.Blocks[0], false);
    Key = TransCache::entryKey(
        Cold.Blocks[0], false,
        [&] {
          // Recompute the prefix hash the way the service does: FNV-1a over
          // the live bytes (both blocks fit comfortably in the window).
          uint64_t H = 0xcbf29ce484222325ull;
          for (uint32_t I = 0; I != 64; ++I) {
            uint8_t B = 0;
            if (Cold.Mem.read(Cold.Blocks[0] + I, &B, 1,
                              /*IgnorePerms=*/true)
                    .Faulted)
              break;
            H = (H ^ B) * 0x100000001b3ull;
          }
          return H;
        }());
    std::string Path = Cold.XS.cache()->entryPath(Key);
    ASSERT_TRUE(fs::exists(Path));
    // Chop the file mid-payload.
    fs::resize_file(Path, fs::file_size(Path) / 2);
  }
  CacheFixture Warm(Dir.str());
  Translation *T = Warm.XS.translateSync(Warm.Blocks[0], false);
  ASSERT_NE(T, nullptr); // pipeline fallback, correct translation
  EXPECT_EQ(Warm.XS.jitStats().CacheHits, 0u);
  EXPECT_EQ(Warm.XS.jitStats().CacheRejects, 1u);
}

TEST(TransCache, BitFlippedEntriesAreRejectedNotCrash) {
  ScratchDir Dir;
  {
    CacheFixture Cold(Dir.str(), 0, /*NBlocks=*/4);
    for (uint32_t PC : Cold.Blocks)
      Cold.XS.translateSync(PC, false);
    EXPECT_EQ(Cold.XS.jitStats().CacheWrites, 4u);
  }
  // Flip one byte at a different offset in every cached file: header,
  // payload, and checksum corruption are all covered across the set.
  unsigned N = 0;
  for (const auto &DE : fs::directory_iterator(Dir.Path)) {
    std::fstream F(DE.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(F.good());
    uint64_t Size = fs::file_size(DE.path());
    uint64_t Off = (N * 13 + 3) % Size;
    F.seekg(static_cast<std::streamoff>(Off));
    char C = 0;
    F.get(C);
    F.seekp(static_cast<std::streamoff>(Off));
    F.put(static_cast<char>(C ^ 0x40));
    ++N;
  }
  ASSERT_EQ(N, 4u);
  CacheFixture Warm(Dir.str());
  for (uint32_t PC : Warm.Blocks)
    ASSERT_NE(Warm.XS.translateSync(PC, false), nullptr);
  EXPECT_EQ(Warm.XS.jitStats().CacheHits, 0u);
  // Every corrupted entry was detected (reject) or its key no longer
  // matched its filename (miss); either way nothing installed from disk.
  EXPECT_EQ(Warm.XS.jitStats().CacheMisses +
                Warm.XS.jitStats().CacheRejects,
            4u);
  EXPECT_GT(Warm.XS.jitStats().CacheRejects, 0u);
}

TEST(TransCache, GarbageFilesInDirAreIgnored) {
  ScratchDir Dir;
  fs::create_directories(Dir.Path);
  std::ofstream(Dir.Path / "junk.vgtc") << "not a cache entry";
  std::ofstream(Dir.Path / "README.txt") << "hello";
  CacheFixture F(Dir.str());
  Translation *T = F.XS.translateSync(F.Blocks[0], false);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(F.XS.jitStats().CacheHits, 0u);
}

// A zero-length entry file — what a writer killed between open and first
// write leaves behind — must be Malformed (a reject), never a hit
// candidate and never a crash. Pinned both at the decode layer and
// through the full service path.
TEST(TransCache, ZeroLengthEntryIsMalformed) {
  TransCacheEntry E;
  EXPECT_EQ(TransCache::decodeEntryFile({}, /*ConfigHash=*/1, /*Key=*/2, E,
                                        /*ResolveCallees=*/true),
            TransCache::LoadResult::Malformed);

  ScratchDir Dir;
  {
    CacheFixture Cold(Dir.str());
    Cold.XS.translateSync(Cold.Blocks[0], false);
    EXPECT_EQ(Cold.XS.jitStats().CacheWrites, 1u);
  }
  unsigned N = 0;
  for (const auto &DE : fs::directory_iterator(Dir.Path)) {
    fs::resize_file(DE.path(), 0);
    ++N;
  }
  ASSERT_EQ(N, 1u);
  CacheFixture Warm(Dir.str());
  Translation *T = Warm.XS.translateSync(Warm.Blocks[0], false);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(Warm.XS.jitStats().CacheHits, 0u);
  EXPECT_EQ(Warm.XS.jitStats().CacheRejects, 1u);
}

//===----------------------------------------------------------------------===//
// Operand checks: a checksum-valid blob that would take the executor
// outside the guest state, the spill frame or the blob is Malformed
//===----------------------------------------------------------------------===//

using hvm::Fld;
using hvm::HInstr;
using hvm::HOp;

HInstr hinstr(HOp Op, hvm::RegId Dst = hvm::NoReg, hvm::RegId A = hvm::NoReg) {
  HInstr I;
  I.Op = Op, I.Dst = Dst, I.A = A;
  return I;
}

HInstr exitInstr() {
  HInstr I = hinstr(HOp::EXITI);
  I.Imm = 0x1004, I.ChainSlot = 0;
  return I;
}

/// Encodes \p Instrs with their exits' chain slots numbered in order and
/// one chain target per EXITI, as ISel makes them; lets \p Patch rewrite
/// the entry (it gets the byte offset of each instruction); and decodes the
/// result as an otherwise valid, checksummed entry.
TransCache::LoadResult decodeCraftedEntry(
    std::vector<HInstr> Instrs,
    const std::function<void(TransCacheEntry &,
                             const std::vector<uint32_t> &)> &Patch,
    uint32_t NumSpillSlots = 1) {
  hvm::HostCode HC;
  HC.Instrs = std::move(Instrs);
  TransCacheEntry E;
  E.Addr = 0x1000;
  E.NumInsns = 1;
  E.Extents = {{0x1000, 0x1004}};
  E.NumSpillSlots = NumSpillSlots;
  for (HInstr &I : HC.Instrs) {
    if (I.Op != HOp::EXITI)
      continue;
    I.ChainSlot = E.NumChainSlots++;
    E.ChainTargets.push_back(
        I.JKind == static_cast<uint8_t>(ir::JumpKind::Boring)
            ? static_cast<uint32_t>(I.Imm)
            : hvm::NoChainTarget);
  }
  E.Bytes = hvm::encode(HC);
  std::vector<uint32_t> Starts;
  EXPECT_TRUE(hvm::walkOpcodes(E.Bytes, [&](uint32_t Off, uint8_t, HOp) {
    Starts.push_back(Off);
  }));
  Patch(E, Starts);
  std::vector<uint8_t> File;
  EXPECT_TRUE(TransCache::encodeEntryFile(/*ConfigHash=*/1, /*Key=*/2, E,
                                          File));
  TransCacheEntry Out;
  return TransCache::decodeEntryFile(File, 1, 2, Out,
                                     /*ResolveCallees=*/true);
}

/// decodeCraftedEntry with a \p Patch that rewrites only the bytes.
TransCache::LoadResult
decodeCrafted(std::vector<HInstr> Instrs,
              const std::function<void(std::vector<uint8_t> &,
                                       const std::vector<uint32_t> &)> &Patch,
              uint32_t NumSpillSlots = 1) {
  return decodeCraftedEntry(
      std::move(Instrs),
      [&](TransCacheEntry &E, const std::vector<uint32_t> &Start) {
        Patch(E.Bytes, Start);
      },
      NumSpillSlots);
}

void writeU32(std::vector<uint8_t> &B, uint32_t Off, uint32_t V) {
  std::memcpy(B.data() + Off, &V, 4);
}

auto NoPatch = [](std::vector<uint8_t> &, const std::vector<uint32_t> &) {};
constexpr auto Found = TransCache::LoadResult::Found;
constexpr auto Malformed = TransCache::LoadResult::Malformed;

TEST(TransCacheOperands, RegisterBytesAreHostRegisters) {
  HInstr Ld = hinstr(HOp::LDG, /*Dst=*/1);
  Ld.Size = 4;
  std::vector<HInstr> Code = {Ld, exitInstr()};
  EXPECT_EQ(decodeCrafted(Code, NoPatch), Found);
  for (uint8_t Reg : {16, 0x40, 0xFF})
    EXPECT_EQ(decodeCrafted(Code,
                            [&](std::vector<uint8_t> &B,
                                const std::vector<uint32_t> &Start) {
                              B[Start[0] + hvm::At<HOp::LDG, Fld::Dst>] = Reg;
                            }),
              Malformed)
        << unsigned(Reg);
}

/// Writes 16 and then 0xFF into each register byte of an otherwise valid
/// instruction of form \p Op with fields \p Fields, expecting each entry to
/// be Malformed. Only OptDst and OptB may hold 0xFF ("no register"); the
/// decoder must hand every other register byte to the check as written.
/// Returns how many register bytes it tried.
template <size_t N>
unsigned expectRegisterBytesChecked(HOp Op, const Fld (&Fields)[N]) {
  HInstr I = hinstr(Op, /*Dst=*/1, /*A=*/2);
  I.B = 3, I.C = 4;
  I.IrOp = Op == HOp::ALU1 ? ir::Op::Neg32 : ir::Op::Add32;
  I.Imm = Op == HOp::ALUIS || Op == HOp::SHPROBE ? 1 : 0x1004;
  I.Size = 4;
  I.CalleeFn = ir::findCalleeByName("vg1_calc_cond");
  I.NArgs = 4;
  for (hvm::RegId J = 0; J != 4; ++J)
    I.Args[J] = J;
  I.Label = 1; // a JZ skips to the exit after it
  std::vector<HInstr> Code = {I};
  if (Op != HOp::EXITI && Op != HOp::EXITR)
    Code.push_back(exitInstr());
  EXPECT_EQ(decodeCrafted(Code, NoPatch), Found) << unsigned(Op);
  unsigned Tried = 0;
  uint32_t Pos = 1;
  for (Fld F : Fields) {
    bool Reg = F == Fld::Dst || F == Fld::A || F == Fld::B || F == Fld::C ||
               F == Fld::Args;
    for (uint32_t J = 0; Reg && J != hvm::widthOf(F); ++J) {
      ++Tried;
      for (uint8_t Bad : {16, 0xFF})
        EXPECT_EQ(decodeCrafted(Code,
                                [&](std::vector<uint8_t> &B,
                                    const std::vector<uint32_t> &Start) {
                                  B[Start[0] + Pos + J] = Bad;
                                }),
                  Malformed)
            << "form " << unsigned(Op) << ", byte " << Pos + J << " = "
            << unsigned(Bad);
    }
    Pos += hvm::widthOf(F);
  }
  return Tried;
}

TEST(TransCacheOperands, EveryRegisterByteOfEveryFormIsChecked) {
  unsigned Tried = 0;
#define VG_HVM_X(Name, ...)                                                    \
  Tried += expectRegisterBytesChecked(HOp::Name,                               \
                                      hvm::FormLayout<HOp::Name>::Fields);
  VG_HVM_FORMS(VG_HVM_X)
#undef VG_HVM_X
  // Dst, A, B and C bytes plus CALL's four argument bytes, over all forms.
  EXPECT_EQ(Tried, 32u);
}

TEST(TransCacheOperands, GuestStateAccessesEndInsideTheGuestState) {
  HInstr St = hinstr(HOp::STG, hvm::NoReg, /*A=*/1);
  St.Size = 4;
  St.Off = vg1::gso::TotalSize - 4;
  std::vector<HInstr> Code = {St, exitInstr()};
  EXPECT_EQ(decodeCrafted(Code, NoPatch), Found);
  for (uint32_t Off : {vg1::gso::TotalSize - 3, 0x7fffff00u})
    EXPECT_EQ(decodeCrafted(Code,
                            [&](std::vector<uint8_t> &B,
                                const std::vector<uint32_t> &Start) {
                              writeU32(
                                  B, Start[0] + hvm::At<HOp::STG, Fld::Off>,
                                  Off);
                            }),
              Malformed)
        << Off;
}

TEST(TransCacheOperands, OpcodeBytesAgreeWithTheirSizeAndOpFields) {
  // An STG4 byte whose size field says 8, and a generic ALU whose ir::Op
  // is no op at all.
  HInstr St = hinstr(HOp::STG, hvm::NoReg, /*A=*/1);
  St.Size = 4;
  EXPECT_EQ(decodeCrafted({St, exitInstr()},
                          [](std::vector<uint8_t> &B,
                             const std::vector<uint32_t> &Start) {
                            B[Start[0] + hvm::At<HOp::STG, Fld::Size>] = 8;
                          }),
            Malformed);
  HInstr Alu = hinstr(HOp::ALU, /*Dst=*/1, /*A=*/2);
  Alu.B = 3, Alu.IrOp = ir::Op::Sub64; // not specialised: a generic byte
  std::vector<HInstr> Code = {Alu, exitInstr()};
  EXPECT_EQ(decodeCrafted(Code, NoPatch), Found);
  EXPECT_EQ(decodeCrafted(Code,
                          [](std::vector<uint8_t> &B,
                             const std::vector<uint32_t> &Start) {
                            uint32_t Op =
                                Start[0] + hvm::At<HOp::ALU, Fld::IrOp>;
                            B[Op] = 0xFF, B[Op + 1] = 0x7F;
                          }),
            Malformed);
}

TEST(TransCacheOperands, SpillSlotsAreInsideTheFrame) {
  HInstr Sp = hinstr(HOp::SPILL, hvm::NoReg, /*A=*/1);
  Sp.Off = 3;
  std::vector<HInstr> Code = {Sp, exitInstr()};
  EXPECT_EQ(decodeCrafted(Code, NoPatch, /*NumSpillSlots=*/4), Found);
  EXPECT_EQ(decodeCrafted(Code, NoPatch, /*NumSpillSlots=*/3), Malformed);
  EXPECT_EQ(decodeCrafted(Code,
                          [](std::vector<uint8_t> &B,
                             const std::vector<uint32_t> &Start) {
                            writeU32(
                                B, Start[0] + hvm::At<HOp::SPILL, Fld::Off>,
                                0x40000000);
                          },
                          /*NumSpillSlots=*/4),
            Malformed);
  // More slots than the executor's frame holds.
  Sp.Off = 0;
  EXPECT_EQ(decodeCrafted({Sp, exitInstr()}, NoPatch,
                          /*NumSpillSlots=*/100000),
            Malformed);
}

TEST(TransCacheOperands, CallsTakeAtMostFourArguments) {
  HInstr Call = hinstr(HOp::CALL); // no result: its register byte is 0xFF
  Call.CalleeFn = ir::findCalleeByName("vg1_calc_cond");
  ASSERT_NE(Call.CalleeFn, nullptr);
  Call.NArgs = 4;
  for (hvm::RegId J = 0; J != 4; ++J)
    Call.Args[J] = J;
  std::vector<HInstr> Code = {Call, exitInstr()};
  EXPECT_EQ(decodeCrafted(Code, NoPatch), Found);
  EXPECT_EQ(decodeCrafted(Code,
                          [](std::vector<uint8_t> &B,
                             const std::vector<uint32_t> &Start) {
                            B[Start[0] + hvm::At<HOp::CALL, Fld::NArgs>] = 5;
                          }),
            Malformed);
}

TEST(TransCacheOperands, JumpsLandOnALaterInstruction) {
  HInstr Jz = hinstr(HOp::JZ, hvm::NoReg, /*A=*/1);
  Jz.Label = 2;
  std::vector<HInstr> Code = {hinstr(HOp::MOV, 1, 1), Jz, exitInstr(),
                              exitInstr()};
  EXPECT_EQ(decodeCrafted(Code, NoPatch), Found);
  // Into the middle of an exit, past the end, and back to the start.
  for (int Where : {1, 100, -1})
    EXPECT_EQ(decodeCrafted(Code,
                            [&](std::vector<uint8_t> &B,
                                const std::vector<uint32_t> &Start) {
                              uint32_t Target = Where < 0   ? Start[0]
                                                : Where > 50 ? 1000
                                                             : Start[3] + 1;
                              writeU32(
                                  B, Start[1] + hvm::At<HOp::JZ, Fld::Label>,
                                  Target);
                            }),
              Malformed)
        << Where;
}

TEST(TransCacheOperands, BlobsEndInAnExit) {
  std::vector<HInstr> Code = {hinstr(HOp::MOV, 1, 1), exitInstr()};
  EXPECT_EQ(decodeCrafted(Code, NoPatch), Found);
  Code.pop_back();
  EXPECT_EQ(decodeCrafted(Code, NoPatch), Malformed);
  HInstr ExitR = hinstr(HOp::EXITR, hvm::NoReg, /*A=*/1);
  Code.push_back(ExitR);
  EXPECT_EQ(decodeCrafted(Code, NoPatch), Found);
}

TEST(TransCacheOperands, GroupBytesAreFollowedByTheirMembers) {
  // LI h1, 5; STG4 gst[0], h1 encodes as a group; storing h2 instead
  // breaks the register chain its handler relies on.
  HInstr Li = hinstr(HOp::LI, /*Dst=*/1);
  Li.Imm = 5;
  HInstr St = hinstr(HOp::STG, hvm::NoReg, /*A=*/1);
  St.Size = 4;
  std::vector<HInstr> Code = {Li, St, exitInstr()};
  EXPECT_EQ(decodeCrafted(Code, NoPatch), Found);
  EXPECT_EQ(decodeCrafted(Code,
                          [](std::vector<uint8_t> &B,
                             const std::vector<uint32_t> &Start) {
                            B[Start[1] + hvm::At<HOp::STG, Fld::A>] = 2;
                          }),
            Malformed);
}

TEST(TransCacheOperands, ShadowProbeStoresHaveAValueRegister) {
  HInstr Probe = hinstr(HOp::SHPROBE, /*Dst=*/1, /*A=*/2);
  Probe.B = 3, Probe.Imm = 1, Probe.Size = 4; // the store form
  std::vector<HInstr> Code = {Probe, exitInstr()};
  EXPECT_EQ(decodeCrafted(Code, NoPatch), Found);
  EXPECT_EQ(decodeCrafted(Code,
                          [](std::vector<uint8_t> &B,
                             const std::vector<uint32_t> &Start) {
                            B[Start[0] + hvm::At<HOp::SHPROBE, Fld::OptB>] =
                                0xFF;
                          }),
            Malformed);
}

// The executor indexes the exiting blob's chain vectors by an EXITI's
// slot, and the table links that slot by its chain target: a stored exit
// must name a slot of its own, in ISel's order, whose target is its PC.
TEST(TransCacheOperands, ExitsTakeTheirOwnChainSlotsInOrder) {
  HInstr Jz = hinstr(HOp::JZ, hvm::NoReg, /*A=*/1);
  Jz.Label = 2;
  std::vector<HInstr> Code = {hinstr(HOp::MOV, 1, 1), Jz, exitInstr(),
                              exitInstr()};
  EXPECT_EQ(decodeCrafted(Code, NoPatch), Found);
  // Slot 7 of a two-slot blob; both exits in slot 0; slots swapped.
  for (auto [First, Second] : {std::pair{0u, 7u}, {0u, 0u}, {1u, 0u}})
    EXPECT_EQ(decodeCrafted(Code,
                            [&](std::vector<uint8_t> &B,
                                const std::vector<uint32_t> &Start) {
                              constexpr unsigned Slot =
                                  hvm::At<HOp::EXITI, Fld::ChainSlot>;
                              writeU32(B, Start[2] + Slot, First);
                              writeU32(B, Start[3] + Slot, Second);
                            }),
              Malformed)
        << First << ", " << Second;
  // A one-slot blob whose exit names slot 7.
  EXPECT_EQ(decodeCrafted({exitInstr()},
                          [](std::vector<uint8_t> &B,
                             const std::vector<uint32_t> &Start) {
                            writeU32(
                                B,
                                Start[0] + hvm::At<HOp::EXITI, Fld::ChainSlot>,
                                7);
                          }),
            Malformed);
  // A slot no exit takes.
  EXPECT_EQ(decodeCraftedEntry({exitInstr()},
                               [](TransCacheEntry &E,
                                  const std::vector<uint32_t> &) {
                                 E.NumChainSlots = 2;
                                 E.ChainTargets.push_back(0x2000);
                               }),
            Malformed);
}

TEST(TransCacheOperands, JumpKindsAreJumpKinds) {
  uint8_t Last = static_cast<uint8_t>(ir::JumpKind::SmcFail);
  HInstr Exit = exitInstr();
  Exit.JKind = Last;
  EXPECT_EQ(decodeCrafted({Exit}, NoPatch), Found);
  HInstr ExitR = hinstr(HOp::EXITR, hvm::NoReg, /*A=*/1);
  ExitR.JKind = Last;
  EXPECT_EQ(decodeCrafted({ExitR}, NoPatch), Found);
  for (uint8_t JK : {uint8_t(Last + 1), uint8_t(0xFF)}) {
    EXPECT_EQ(decodeCrafted({Exit},
                            [&](std::vector<uint8_t> &B,
                                const std::vector<uint32_t> &Start) {
                              B[Start[0] +
                                hvm::At<HOp::EXITI, Fld::JKind>] = JK;
                            }),
              Malformed)
        << "EXITI " << unsigned(JK);
    EXPECT_EQ(decodeCrafted({ExitR},
                            [&](std::vector<uint8_t> &B,
                                const std::vector<uint32_t> &Start) {
                              B[Start[0] +
                                hvm::At<HOp::EXITR, Fld::JKind>] = JK;
                            }),
              Malformed)
        << "EXITR " << unsigned(JK);
  }
}

TEST(TransCacheOperands, ChainTargetsAreTheExitsTargets) {
  std::vector<HInstr> Code = {exitInstr()};
  // A Boring exit to 0x1008 whose slot the table would link to 0x1004.
  EXPECT_EQ(decodeCrafted(Code,
                          [](std::vector<uint8_t> &B,
                             const std::vector<uint32_t> &Start) {
                            writeU32(
                                B, Start[0] + hvm::At<HOp::EXITI, Fld::Imm32>,
                                0x1008);
                          }),
            Malformed);
  // A Syscall exit whose slot carries a target: any kind but Boring
  // must say NoChainTarget.
  EXPECT_EQ(decodeCrafted(Code,
                          [](std::vector<uint8_t> &B,
                             const std::vector<uint32_t> &Start) {
                            B[Start[0] + hvm::At<HOp::EXITI, Fld::JKind>] =
                                static_cast<uint8_t>(ir::JumpKind::Syscall);
                          }),
            Malformed);
  HInstr Sys = exitInstr();
  Sys.JKind = static_cast<uint8_t>(ir::JumpKind::Syscall);
  EXPECT_EQ(decodeCrafted({Sys}, NoPatch), Found);
  // ... and a Boring exit must not.
  EXPECT_EQ(decodeCraftedEntry(Code,
                               [](TransCacheEntry &E,
                                  const std::vector<uint32_t> &) {
                                 E.ChainTargets[0] = hvm::NoChainTarget;
                               }),
            Malformed);
}

//===----------------------------------------------------------------------===//
// Two writers, one key: temp-file+rename must never publish a torn entry
//===----------------------------------------------------------------------===//

// Two cache instances (standing in for two processes racing on a shared
// --tt-cache directory) hammer the SAME key with images of different
// sizes while a reader polls the published file. Every observation must
// be one complete image — a shared temp-file name would let the writers
// interleave and rename a torn mix into place, which the whole-payload
// checksum then exposes as Malformed.
TEST(TransCacheConcurrency, TwoWritersSameKeyNeverTearAnEntry) {
  // Two valid images of different lengths, made by translating blocks of
  // different instruction counts through a cold service run.
  ScratchDir SrcDir;
  struct Image {
    uint64_t Key;
    std::vector<uint8_t> Bytes;
  };
  std::vector<Image> Images;
  {
    GuestMemory Mem;
    CacheStubHost Host;
    TranslationService XS(Host, Mem);
    Assembler Code(CodeBase);
    std::vector<uint32_t> Blocks;
    for (unsigned I = 0; I != 2; ++I) {
      Blocks.push_back(Code.here());
      for (unsigned K = 0; K != 1 + 8 * I; ++K)
        Code.movi(Reg::R0, K);
      Code.ret();
    }
    GuestImage Img = GuestImageBuilder().addCode(Code).entry(CodeBase).build();
    for (const ImageSegment &S : Img.Segments) {
      Mem.map(S.Base, static_cast<uint32_t>(S.Bytes.size()), S.Perms);
      Mem.write(S.Base, S.Bytes.data(), static_cast<uint32_t>(S.Bytes.size()),
                /*IgnorePerms=*/true);
    }
    XS.attachCache(std::make_unique<TransCache>(SrcDir.str(), 0, /*CH=*/1));
    for (uint32_t PC : Blocks)
      XS.translateSync(PC, false);
    for (const auto &DE : fs::directory_iterator(SrcDir.Path)) {
      std::string Stem = DE.path().stem().string();
      ASSERT_EQ(Stem.size(), 33u);
      Image I;
      I.Key = std::strtoull(Stem.substr(17).c_str(), nullptr, 16);
      std::ifstream F(DE.path(), std::ios::binary);
      I.Bytes.assign(std::istreambuf_iterator<char>(F),
                     std::istreambuf_iterator<char>());
      Images.push_back(std::move(I));
    }
  }
  ASSERT_EQ(Images.size(), 2u);
  ASSERT_NE(Images[0].Bytes.size(), Images[1].Bytes.size());

  ScratchDir Dir;
  constexpr uint64_t SharedKey = 0x5EED;
  constexpr int Rounds = 300;
  std::atomic<bool> WritersDone{false};
  std::atomic<int> Torn{0};
  auto writer = [&](const Image &I) {
    TransCache C(Dir.str(), 0, /*ConfigHash=*/1);
    for (int R = 0; R != Rounds; ++R)
      ASSERT_TRUE(C.storeFile(SharedKey, I.Bytes));
  };
  std::thread W1(writer, std::cref(Images[0]));
  std::thread W2(writer, std::cref(Images[1]));
  std::thread Reader([&] {
    std::string Path =
        Dir.str() + "/" + TransCache::entryFileName(1, SharedKey);
    while (!WritersDone.load(std::memory_order_acquire)) {
      std::ifstream F(Path, std::ios::binary);
      if (!F.good())
        continue; // nothing published yet
      std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(F)),
                                 std::istreambuf_iterator<char>());
      // Whichever writer's rename won, the file must be one of the two
      // complete images: decode it against the key its SIZE claims it is.
      const Image *Want = nullptr;
      for (const Image &I : Images)
        if (I.Bytes.size() == Bytes.size())
          Want = &I;
      TransCacheEntry E;
      if (!Want ||
          TransCache::decodeEntryFile(Bytes, 1, Want->Key, E,
                                      /*ResolveCallees=*/false) !=
              TransCache::LoadResult::Found)
        Torn.fetch_add(1);
    }
  });
  W1.join();
  W2.join();
  WritersDone.store(true, std::memory_order_release);
  Reader.join();
  EXPECT_EQ(Torn.load(), 0) << "a reader observed a torn/mixed entry";
  // Every unique temp file was consumed by its rename.
  for (const auto &DE : fs::directory_iterator(Dir.Path))
    EXPECT_EQ(DE.path().extension(), ".vgtc")
        << "leftover temp file: " << DE.path();
}

//===----------------------------------------------------------------------===//
// Size budget
//===----------------------------------------------------------------------===//

// Eviction is oldest-mtime-first, not insertion- or directory-order:
// stamp the files with a fake clock (explicit last_write_time values in
// reverse creation order) and check the stamped-oldest files are the ones
// that go when a new store pushes the directory over budget.
TEST(TransCache, StaleMtimeEvictionUnderFakeClock) {
  ScratchDir Dir;
  uint64_t OneEntry;
  {
    CacheFixture Warm(Dir.str(), 0, /*NBlocks=*/4);
    for (uint32_t PC : Warm.Blocks)
      Warm.XS.translateSync(PC, false);
    ASSERT_EQ(Warm.XS.jitStats().CacheWrites, 4u);
    OneEntry = Warm.XS.cache()->totalBytes() / 4;
  }
  // Fake clock: sort by name, stamp [0] stalest, [3] freshest — an order
  // deliberately unrelated to when the files were actually written.
  std::vector<fs::path> Files;
  for (const auto &DE : fs::directory_iterator(Dir.Path))
    Files.push_back(DE.path());
  ASSERT_EQ(Files.size(), 4u);
  std::sort(Files.begin(), Files.end());
  fs::file_time_type Now = fs::file_time_type::clock::now();
  for (size_t I = 0; I != Files.size(); ++I)
    fs::last_write_time(Files[I],
                        Now - std::chrono::hours(24 * (4 - I)));
  // Reopen with room for ~3 entries and store a fifth block: the budget
  // forces eviction, which must pick the stamped-stalest files first.
  {
    GuestMemory Mem;
    CacheStubHost Host;
    TranslationService XS(Host, Mem);
    std::vector<uint32_t> Blocks;
    Assembler Code(CodeBase);
    for (unsigned I = 0; I != 5; ++I) {
      Blocks.push_back(Code.here());
      Code.movi(Reg::R0, I);
      Code.ret();
    }
    uint32_t FifthPC = Blocks[4];
    GuestImage Img =
        GuestImageBuilder().addCode(Code).entry(CodeBase).build();
    for (const ImageSegment &S : Img.Segments) {
      Mem.map(S.Base, static_cast<uint32_t>(S.Bytes.size()), S.Perms);
      Mem.write(S.Base, S.Bytes.data(),
                static_cast<uint32_t>(S.Bytes.size()),
                /*IgnorePerms=*/true);
    }
    XS.attachCache(std::make_unique<TransCache>(
        Dir.str(), 3 * OneEntry + OneEntry / 2, /*CH=*/1));
    XS.translateSync(FifthPC, false);
    EXPECT_EQ(XS.jitStats().CacheWrites, 1u);
    EXPECT_GT(XS.cache()->evictedFiles(), 0u);
  }
  // The stalest-stamped file went first; the freshest survived.
  EXPECT_FALSE(fs::exists(Files[0]));
  EXPECT_TRUE(fs::exists(Files[3]));
}

TEST(TransCache, EvictionHonoursByteBudget) {
  ScratchDir Dir;
  uint64_t OneEntry;
  {
    CacheFixture Probe(Dir.str());
    Probe.XS.translateSync(Probe.Blocks[0], false);
    OneEntry = Probe.XS.cache()->totalBytes();
    ASSERT_GT(OneEntry, 0u);
  }
  fs::remove_all(Dir.Path);
  // Budget for two entries; store four. The oldest files must go.
  CacheFixture F(Dir.str(), /*MaxBytes=*/2 * OneEntry + OneEntry / 2);
  for (uint32_t PC : F.Blocks)
    F.XS.translateSync(PC, false);
  EXPECT_EQ(F.XS.jitStats().CacheWrites, 4u);
  EXPECT_GT(F.XS.cache()->evictedFiles(), 0u);
  EXPECT_LE(F.XS.cache()->totalBytes(), 2 * OneEntry + OneEntry / 2);
}

//===----------------------------------------------------------------------===//
// Hard option validation (the getIntClamped bugfix)
//===----------------------------------------------------------------------===//

GuestImage trivialProgram() {
  Assembler Code(CodeBase);
  Code.movi(Reg::R0, 0);
  Code.ret();
  return GuestImageBuilder().addCode(Code).entry(CodeBase).build();
}

using OptionDeathTest = ::testing::Test;

TEST(OptionDeathTest, NonNumericTraceMaxBlocksIsFatal) {
  GuestImage Img = trivialProgram();
  Nulgrind T;
  EXPECT_EXIT(runUnderCore(Img, &T, {"--trace-max-blocks=abc"}),
              ::testing::ExitedWithCode(1),
              "--trace-max-blocks=abc: expected an integer in \\[2, 8\\]");
}

TEST(OptionDeathTest, NegativeTraceMaxBlocksIsFatal) {
  GuestImage Img = trivialProgram();
  Nulgrind T;
  EXPECT_EXIT(runUnderCore(Img, &T, {"--trace-max-blocks=-1"}),
              ::testing::ExitedWithCode(1),
              "--trace-max-blocks=-1: expected an integer in \\[2, 8\\]");
}

TEST(OptionDeathTest, NonNumericCacheBudgetIsFatal) {
  ScratchDir Dir;
  GuestImage Img = trivialProgram();
  Nulgrind T;
  EXPECT_EXIT(runUnderCore(Img, &T,
                           {"--tt-cache=" + Dir.str(),
                            "--tt-cache-max-mb=xyz"}),
              ::testing::ExitedWithCode(1),
              "--tt-cache-max-mb=xyz: expected an integer");
}

TEST(OptionDeathTest, TrailingJunkAndRangeViolationsAreFatal) {
  GuestImage Img = trivialProgram();
  Nulgrind T;
  EXPECT_EXIT(runUnderCore(Img, &T, {"--trace-max-blocks=2x"}),
              ::testing::ExitedWithCode(1), "expected an integer");
  EXPECT_EXIT(runUnderCore(Img, &T, {"--trace-max-blocks=9"}),
              ::testing::ExitedWithCode(1), "expected an integer");
}

// The scheduler and JIT run on the one host thread; the options that once
// asked for more are gone and fail like any other unknown option.
TEST(OptionDeathTest, RemovedThreadOptionsAreUnknown) {
  GuestImage Img = trivialProgram();
  Nulgrind T;
  for (const char *Opt :
       {"--sched-threads=1", "--jit-threads=0", "--jit-queue-depth=8"})
    EXPECT_EXIT(runUnderCore(Img, &T, {Opt}), ::testing::ExitedWithCode(1),
                std::string("unknown option: ") + Opt);
}

TEST(OptionDeathTest, NonNumericHotAndTraceThresholdsAreFatal) {
  GuestImage Img = trivialProgram();
  Nulgrind T;
  EXPECT_EXIT(runUnderCore(Img, &T, {"--hot-threshold=5x"}),
              ::testing::ExitedWithCode(1),
              "--hot-threshold=5x: expected an integer");
  EXPECT_EXIT(runUnderCore(Img, &T, {"--trace-threshold=-3"}),
              ::testing::ExitedWithCode(1),
              "--trace-threshold=-3: expected an integer");
}

TEST(OptionDeathTest, ZeroTraceEventsIsFatal) {
  GuestImage Img = trivialProgram();
  Nulgrind T;
  EXPECT_EXIT(runUnderCore(Img, &T, {"--trace-events=0"}),
              ::testing::ExitedWithCode(1),
              "--trace-events=0: expected an integer in \\[1,");
}

// A yes/no option takes yes|no, true|false, 1|0 or on|off; anything else
// is a usage error, so a typo such as --chaining=ye cannot silently pick
// the unchained dispatcher.
TEST(OptionDeathTest, MalformedYesNoValuesAreFatal) {
  GuestImage Img = trivialProgram();
  Nulgrind N;
  EXPECT_EXIT(runUnderCore(Img, &N, {"--chaining=bogus"}),
              ::testing::ExitedWithCode(1),
              "--chaining=bogus: expected yes\\|no");
  Memcheck M;
  EXPECT_EXIT(runUnderCore(Img, &M, {"--leak-check=maybe"}),
              ::testing::ExitedWithCode(1),
              "--leak-check=maybe: expected yes\\|no");
}

// Core::applyOptions() itself rejects a bad core option, before any image
// is loaded: --verify-ir and --no-iropt must not wait for the first
// translation, and --stack-switch-threshold=abc must not read as 0 (every
// SP move a stack switch, so no stack events fire).
void applyOnly(const char *Opt) {
  Memcheck M;
  Core C(&M);
  C.options().parse({Opt});
  C.applyOptions();
}

TEST(OptionDeathTest, ApplyOptionsRejectsBadStackSwitchThreshold) {
  EXPECT_EXIT(applyOnly("--stack-switch-threshold=abc"),
              ::testing::ExitedWithCode(1),
              "--stack-switch-threshold=abc: expected an integer in "
              "\\[1, 4294967295\\]");
  EXPECT_EXIT(applyOnly("--stack-switch-threshold=4294967296"),
              ::testing::ExitedWithCode(1), "expected an integer");
}

TEST(OptionDeathTest, ApplyOptionsRejectsBadNoIROpt) {
  EXPECT_EXIT(applyOnly("--no-iropt=bogus"), ::testing::ExitedWithCode(1),
              "--no-iropt=bogus: expected yes\\|no");
}

TEST(OptionDeathTest, ApplyOptionsRejectsBadVerifyIR) {
  EXPECT_EXIT(applyOnly("--verify-ir=bogus"), ::testing::ExitedWithCode(1),
              "--verify-ir=bogus: expected yes\\|no");
}

// --smc-check=al must not quietly become the default mode, stack.
TEST(OptionDeathTest, ApplyOptionsRejectsUnknownSmcCheck) {
  for (const char *Opt : {"--smc-check=al", "--smc-check=", "--smc-check=ALL"})
    EXPECT_EXIT(applyOnly(Opt), ::testing::ExitedWithCode(1),
                std::string(Opt) + ": expected none\\|stack\\|all");
}

TEST(OptionDeathTest, MalformedFaultInjectSpecIsFatal) {
  GuestImage Img = trivialProgram();
  Nulgrind T;
  EXPECT_EXIT(runUnderCore(Img, &T, {"--fault-inject=seed=abc"}),
              ::testing::ExitedWithCode(1),
              "bad fault-inject seed in 'seed=abc'");
  EXPECT_EXIT(runUnderCore(Img, &T, {"--fault-inject=preempt:0"}),
              ::testing::ExitedWithCode(1),
              "bad fault-inject rate in 'preempt:0'");
}

//===----------------------------------------------------------------------===//
// End-to-end: cold/warm equivalence under a full Core
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
  Code.movi(Reg::R1, 0);
  Label Outer = Code.boundLabel();
  Code.movi(Reg::R2, 0);
  Label Inner = Code.boundLabel();
  Code.addi(Reg::R2, Reg::R2, 1);
  Code.cmpi(Reg::R2, 50);
  Code.blt(Inner);
  Code.addi(Reg::R1, Reg::R1, 1);
  Code.cmpi(Reg::R1, 200);
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

// Valid values at the range edges still work (the check is not
// over-eager): hex syntax parses and the run behaves like
// --trace-max-blocks=8.
TEST(TransCacheEndToEnd, ValidOptionValuesStillParse) {
  GuestImage Img = loopProgram();
  Nulgrind T;
  RunReport R = runUnderCore(Img, &T, {"--trace-max-blocks=0x8"});
  EXPECT_TRUE(R.Completed);
}

TEST(TransCacheEndToEnd, WarmRunSkipsPipelineAndMatchesCold) {
  ScratchDir Dir;
  GuestImage Img = loopProgram();
  std::vector<std::string> Opts = {"--chaining=yes", "--hot-threshold=2",
                                   "--tt-cache=" + Dir.str()};
  Nulgrind T1, T2;
  RunReport Cold = runUnderCore(Img, &T1, Opts);
  ASSERT_TRUE(Cold.Completed);
  EXPECT_GT(Cold.Jit.CacheWrites, 0u);
  EXPECT_EQ(Cold.Jit.CacheHits, 0u);

  RunReport Warm = runUnderCore(Img, &T2, Opts);
  ASSERT_TRUE(Warm.Completed);
  EXPECT_EQ(Warm.Stdout, Cold.Stdout);
  EXPECT_EQ(Warm.ExitCode, Cold.ExitCode);
  EXPECT_EQ(Warm.Jit.CacheMisses, 0u);
  EXPECT_EQ(Warm.Jit.CacheRejects, 0u);
  EXPECT_GT(Warm.Jit.CacheHits, 0u);
  EXPECT_EQ(Warm.Jit.CacheHits, Cold.Jit.CacheWrites);
  // Nothing new to persist on a fully warm run.
  EXPECT_EQ(Warm.Jit.CacheWrites, 0u);
}

TEST(TransCacheEndToEnd, MemcheckWarmRunIsEquivalent) {
  ScratchDir Dir;
  GuestImage Img = loopProgram();
  std::vector<std::string> Opts = {"--chaining=yes", "--hot-threshold=3",
                                   "--tt-cache=" + Dir.str()};
  Memcheck T1, T2;
  RunReport Cold = runUnderCore(Img, &T1, Opts);
  RunReport Warm = runUnderCore(Img, &T2, Opts);
  ASSERT_TRUE(Cold.Completed);
  ASSERT_TRUE(Warm.Completed);
  EXPECT_EQ(Warm.Stdout, Cold.Stdout);
  EXPECT_EQ(Warm.ExitCode, Cold.ExitCode);
  EXPECT_GT(Warm.Jit.CacheHits, 0u);
  EXPECT_EQ(T1.uniqueErrors(), T2.uniqueErrors());
}

// Different tools must not share entries: the config fingerprint keys the
// filenames, so a Memcheck run against a Nulgrind-written directory sees
// only misses (not rejects, not garbage installs).
TEST(TransCacheEndToEnd, ToolsDoNotShareEntries) {
  ScratchDir Dir;
  GuestImage Img = loopProgram();
  std::vector<std::string> Opts = {"--tt-cache=" + Dir.str()};
  Nulgrind TN;
  Memcheck TM;
  RunReport A = runUnderCore(Img, &TN, Opts);
  RunReport B = runUnderCore(Img, &TM, Opts);
  ASSERT_TRUE(A.Completed);
  ASSERT_TRUE(B.Completed);
  EXPECT_EQ(B.Jit.CacheHits, 0u);
  EXPECT_EQ(B.Jit.CacheRejects, 0u);
  EXPECT_GT(B.Jit.CacheWrites, 0u);
}

// SMC: with --smc-check=all every block carries a position-dependent
// prelude and must bypass the cache entirely — and self-modified code must
// still retranslate correctly on a warm run.
TEST(TransCacheEndToEnd, SmcCheckedBlocksBypassCache) {
  ScratchDir Dir;
  GuestImage Img = loopProgram();
  std::vector<std::string> Opts = {"--smc-check=all",
                                   "--tt-cache=" + Dir.str()};
  Nulgrind T1, T2;
  RunReport Cold = runUnderCore(Img, &T1, Opts);
  RunReport Warm = runUnderCore(Img, &T2, Opts);
  ASSERT_TRUE(Cold.Completed);
  ASSERT_TRUE(Warm.Completed);
  EXPECT_EQ(Cold.Jit.CacheWrites, 0u);
  EXPECT_EQ(Warm.Jit.CacheHits + Warm.Jit.CacheMisses +
                Warm.Jit.CacheRejects,
            0u);
  EXPECT_EQ(Warm.Stdout, Cold.Stdout);
}

// Trace-tier translations are excluded from the persistent cache in both
// directions: a trace inlines guest bytes from every constituent and its
// formation depends on run-specific edge profiles, so it is neither
// written back on the cold run nor served from disk on the warm run — the
// warm run re-forms its traces from its own profile.
TEST(TransCacheEndToEnd, TraceTierTranslationsBypassCache) {
  ScratchDir Dir;
  GuestImage Img = buildWorkload("bzip2", 1);
  std::vector<std::string> Opts = {"--chaining=yes", "--hot-threshold=2",
                                   "--trace-tier=yes", "--trace-threshold=16",
                                   "--tt-cache=" + Dir.str()};
  Nulgrind T1, T2;
  RunReport Cold = runUnderCore(Img, &T1, Opts);
  ASSERT_TRUE(Cold.Completed);
  ASSERT_GT(Cold.Stats.TracesFormed, 0u) << "test needs traces to form";
  ASSERT_GT(Cold.Jit.CacheWrites, 0u);

  RunReport Warm = runUnderCore(Img, &T2, Opts);
  ASSERT_TRUE(Warm.Completed);
  EXPECT_EQ(Warm.Stdout, Cold.Stdout);
  // Not stored: every cold write validates and installs on the warm run —
  // a persisted trace would be rejected here (tier mismatch at load).
  EXPECT_EQ(Warm.Jit.CacheRejects, 0u);
  EXPECT_EQ(Warm.Jit.CacheHits, Cold.Jit.CacheWrites);
  // Not loaded: the warm run still had to form its traces itself.
  EXPECT_GT(Warm.Stats.TracesFormed, 0u);
  // And nothing about the warm run's traces was newly persisted either.
  EXPECT_EQ(Warm.Jit.CacheWrites, 0u);
}

} // namespace
