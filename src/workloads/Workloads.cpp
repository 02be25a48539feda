//===-- workloads/Workloads.cpp - SPEC-like synthetic workloads -----------==//

#include "workloads/Workloads.h"

#include "core/Core.h"
#include "guestlib/GuestLib.h"
#include "kernel/SimKernel.h"
#include "support/Errors.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <random>

using namespace vg;
using namespace vg::vg1;

namespace {

constexpr uint32_t CodeBase = 0x1000;
constexpr uint32_t DataBase = 0x100000;

using BodyFn = std::function<void(Assembler &Code, Assembler &Data,
                                  GuestLibLabels &Lib, uint32_t Scale)>;

GuestImage build(const BodyFn &Body, uint32_t Scale) {
  Assembler Code(CodeBase);
  Assembler Data(DataBase);
  GuestLibLabels Lib = emitGuestLib(Code, Data);
  Label Main = Code.newLabel();
  uint32_t Entry = emitStart(Code, Main);
  Code.bind(Main);
  Code.symbol("main");
  Body(Code, Data, Lib, Scale);
  return GuestImageBuilder().addCode(Code).addData(Data).entry(Entry).build();
}

/// Emits "checksum in r11 -> print, return 0".
void epilogue(Assembler &C, GuestLibLabels &Lib) {
  C.mov(Reg::R1, Reg::R11);
  C.call(Lib.PrintU32);
  C.movi(Reg::R0, 0);
  C.ret();
}

//===----------------------------------------------------------------------===//
// Integer workloads
//===----------------------------------------------------------------------===//

/// bzip2: run-length encode a byte buffer, checksum the encoding.
void wlBzip2(Assembler &C, Assembler &D, GuestLibLabels &Lib,
             uint32_t Scale) {
  const uint32_t N = 4096;
  C.movi(Reg::R1, N + 3); // the word accesses at src[N-1] end 3 bytes on
  C.call(Lib.Malloc);
  C.mov(Reg::R6, Reg::R0); // src
  C.movi(Reg::R1, 2 * N + 16); // +16: the last 32-bit emit may overhang
  C.call(Lib.Malloc);
  C.mov(Reg::R7, Reg::R0); // dst
  // fill src with runs: b = ((i*i) >> 4) & 0xFF
  C.movi(Reg::R2, 0);
  Label Fill = C.boundLabel();
  C.mul(Reg::R3, Reg::R2, Reg::R2);
  C.shri(Reg::R3, Reg::R3, 4);
  C.stx(Reg::R6, Reg::R2, 0, 0, Reg::R3);
  C.addi(Reg::R2, Reg::R2, 1);
  C.cmpi(Reg::R2, N);
  C.blt(Fill);

  C.movi(Reg::R11, 0);                 // checksum
  C.movi(Reg::R12, 6 * Scale);         // outer
  Label Outer = C.boundLabel();
  C.movi(Reg::R8, 0); // i
  C.movi(Reg::R9, 0); // j (output cursor)
  Label Encode = C.boundLabel();
  C.ldx(Reg::R2, Reg::R6, Reg::R8, 0, 0); // b = src[i] (byte via mask)
  C.andi(Reg::R2, Reg::R2, 0xFF);
  C.movi(Reg::R3, 1); // run
  Label RunLoop = C.boundLabel();
  C.add(Reg::R4, Reg::R8, Reg::R3);
  C.cmpi(Reg::R4, N);
  Label RunDone = C.newLabel();
  C.bge(RunDone);
  C.cmpi(Reg::R3, 255);
  C.bge(RunDone);
  C.ldx(Reg::R5, Reg::R6, Reg::R4, 0, 0);
  C.andi(Reg::R5, Reg::R5, 0xFF);
  C.cmp(Reg::R5, Reg::R2);
  C.bne(RunDone);
  C.addi(Reg::R3, Reg::R3, 1);
  C.jmp(RunLoop);
  C.bind(RunDone);
  C.stx(Reg::R7, Reg::R9, 0, 0, Reg::R3); // dst[j] = run (byte store ok via stx low byte? use stb)
  C.add(Reg::R11, Reg::R11, Reg::R3);
  C.add(Reg::R11, Reg::R11, Reg::R2);
  C.addi(Reg::R9, Reg::R9, 2);
  C.add(Reg::R8, Reg::R8, Reg::R3);
  C.cmpi(Reg::R8, N);
  C.blt(Encode);
  C.addi(Reg::R12, Reg::R12, -1);
  C.cmpi(Reg::R12, 0);
  C.bgt(Outer);
  C.andi(Reg::R11, Reg::R11, 0x7FFFFFFF);
  epilogue(C, Lib);
}

/// crafty: bitboard-style bit twiddling (popcounts, rotates, mixes).
void wlCrafty(Assembler &C, Assembler &D, GuestLibLabels &Lib,
              uint32_t Scale) {
  C.movi(Reg::R6, 0x12345678); // x
  C.movi(Reg::R11, 0);         // acc
  C.movi(Reg::R12, 60000 * Scale);
  Label Loop = C.boundLabel();
  // popcount(x) into r4 (classic SWAR)
  C.shri(Reg::R2, Reg::R6, 1);
  C.movi(Reg::R3, 0x55555555);
  C.and_(Reg::R2, Reg::R2, Reg::R3);
  C.sub(Reg::R4, Reg::R6, Reg::R2);
  C.movi(Reg::R3, 0x33333333);
  C.and_(Reg::R2, Reg::R4, Reg::R3);
  C.shri(Reg::R4, Reg::R4, 2);
  C.and_(Reg::R4, Reg::R4, Reg::R3);
  C.add(Reg::R4, Reg::R4, Reg::R2);
  C.shri(Reg::R2, Reg::R4, 4);
  C.add(Reg::R4, Reg::R4, Reg::R2);
  C.movi(Reg::R3, 0x0F0F0F0F);
  C.and_(Reg::R4, Reg::R4, Reg::R3);
  C.movi(Reg::R3, 0x01010101);
  C.mul(Reg::R4, Reg::R4, Reg::R3);
  C.shri(Reg::R4, Reg::R4, 24);
  C.add(Reg::R11, Reg::R11, Reg::R4);
  // rotate-left 7 and mix
  C.shli(Reg::R2, Reg::R6, 7);
  C.shri(Reg::R3, Reg::R6, 25);
  C.or_(Reg::R6, Reg::R2, Reg::R3);
  C.movi(Reg::R3, 0x9E3779B9);
  C.xor_(Reg::R6, Reg::R6, Reg::R3);
  C.vadd8(Reg::R6, Reg::R6, Reg::R4); // a dash of SIMD
  C.addi(Reg::R12, Reg::R12, -1);
  C.cmpi(Reg::R12, 0);
  C.bgt(Loop);
  C.andi(Reg::R11, Reg::R11, 0x7FFFFFFF);
  epilogue(C, Lib);
}

/// gcc: interpret a random bytecode program (heavily branchy).
void wlGcc(Assembler &C, Assembler &D, GuestLibLabels &Lib, uint32_t Scale) {
  // 256 bytecodes, generated deterministically at build time.
  D.align(4);
  Label Prog = D.boundLabel();
  std::mt19937 Rng(42);
  for (int I = 0; I != 256; ++I)
    D.emitU8(static_cast<uint8_t>(Rng() & 0xFF));
  for (int I = 0; I != 3; ++I) // the last bytecode's word load ends here
    D.emitU8(0);
  uint32_t ProgAddr = D.labelAddr(Prog);

  C.movi(Reg::R6, 1);  // a
  C.movi(Reg::R7, 2);  // b
  C.movi(Reg::R8, 0);  // vpc
  C.movi(Reg::R11, 0); // acc
  C.movi(Reg::R12, 50000 * Scale);
  C.movi(Reg::R9, ProgAddr);
  Label Loop = C.boundLabel();
  C.ldx(Reg::R2, Reg::R9, Reg::R8, 0, 0);
  C.andi(Reg::R2, Reg::R2, 0xFF); // op
  C.addi(Reg::R8, Reg::R8, 1);
  C.andi(Reg::R8, Reg::R8, 255);
  C.andi(Reg::R3, Reg::R2, 7);
  Label Next = C.newLabel();
  Label C1 = C.newLabel(), C2 = C.newLabel(), C3 = C.newLabel(),
        C4 = C.newLabel(), C5 = C.newLabel(), C6 = C.newLabel(),
        C7 = C.newLabel();
  C.cmpi(Reg::R3, 1);
  C.beq(C1);
  C.cmpi(Reg::R3, 2);
  C.beq(C2);
  C.cmpi(Reg::R3, 3);
  C.beq(C3);
  C.cmpi(Reg::R3, 4);
  C.beq(C4);
  C.cmpi(Reg::R3, 5);
  C.beq(C5);
  C.cmpi(Reg::R3, 6);
  C.beq(C6);
  C.cmpi(Reg::R3, 7);
  C.beq(C7);
  C.add(Reg::R6, Reg::R6, Reg::R7); // case 0
  C.jmp(Next);
  C.bind(C1);
  C.xor_(Reg::R7, Reg::R7, Reg::R6);
  C.jmp(Next);
  C.bind(C2);
  C.shli(Reg::R6, Reg::R6, 1);
  C.jmp(Next);
  C.bind(C3);
  C.cmp(Reg::R6, Reg::R7);
  Label NoSwap = C.newLabel();
  C.bge(NoSwap);
  C.xor_(Reg::R6, Reg::R6, Reg::R7);
  C.xor_(Reg::R7, Reg::R7, Reg::R6);
  C.xor_(Reg::R6, Reg::R6, Reg::R7);
  C.bind(NoSwap);
  C.jmp(Next);
  C.bind(C4);
  C.sub(Reg::R6, Reg::R6, Reg::R7);
  C.jmp(Next);
  C.bind(C5);
  C.add(Reg::R7, Reg::R7, Reg::R2);
  C.jmp(Next);
  C.bind(C6);
  C.shri(Reg::R6, Reg::R6, 1);
  C.jmp(Next);
  C.bind(C7);
  C.movi(Reg::R4, 5);
  C.mul(Reg::R7, Reg::R7, Reg::R4);
  C.addi(Reg::R7, Reg::R7, 1);
  C.bind(Next);
  C.add(Reg::R11, Reg::R11, Reg::R6);
  C.addi(Reg::R12, Reg::R12, -1);
  C.cmpi(Reg::R12, 0);
  C.bgt(Loop);
  C.andi(Reg::R11, Reg::R11, 0x7FFFFFFF);
  epilogue(C, Lib);
}

/// gzip: LZ-style window matching over text-ish data.
void wlGzip(Assembler &C, Assembler &D, GuestLibLabels &Lib, uint32_t Scale) {
  const uint32_t N = 2048;
  D.align(4);
  Label Buf = D.boundLabel();
  std::mt19937 Rng(7);
  for (uint32_t I = 0; I != N; ++I)
    D.emitU8(static_cast<uint8_t>('a' + (Rng() % 6))); // small alphabet
  uint32_t BufAddr = D.labelAddr(Buf);

  C.movi(Reg::R6, BufAddr);
  C.movi(Reg::R11, 0);
  C.movi(Reg::R12, 2 * Scale);
  Label Outer = C.boundLabel();
  C.movi(Reg::R7, 64); // pos
  Label PosLoop = C.boundLabel();
  C.movi(Reg::R8, 0); // best
  C.movi(Reg::R9, 1); // off
  Label OffLoop = C.boundLabel();
  C.movi(Reg::R10, 0); // l
  Label MatchLoop = C.boundLabel();
  C.cmpi(Reg::R10, 8);
  Label MatchDone = C.newLabel();
  C.bge(MatchDone);
  // buf[pos - off + l] vs buf[pos + l]
  C.sub(Reg::R2, Reg::R7, Reg::R9);
  C.add(Reg::R2, Reg::R2, Reg::R10);
  C.ldx(Reg::R3, Reg::R6, Reg::R2, 0, 0);
  C.andi(Reg::R3, Reg::R3, 0xFF);
  C.add(Reg::R2, Reg::R7, Reg::R10);
  C.ldx(Reg::R4, Reg::R6, Reg::R2, 0, 0);
  C.andi(Reg::R4, Reg::R4, 0xFF);
  C.cmp(Reg::R3, Reg::R4);
  C.bne(MatchDone);
  C.addi(Reg::R10, Reg::R10, 1);
  C.jmp(MatchLoop);
  C.bind(MatchDone);
  C.cmp(Reg::R10, Reg::R8);
  Label NotBest = C.newLabel();
  C.ble(NotBest);
  C.mov(Reg::R8, Reg::R10);
  C.bind(NotBest);
  C.addi(Reg::R9, Reg::R9, 1);
  C.cmpi(Reg::R9, 32);
  C.blt(OffLoop);
  C.add(Reg::R11, Reg::R11, Reg::R8);
  C.addi(Reg::R7, Reg::R7, 1);
  C.cmpi(Reg::R7, N - 8);
  C.blt(PosLoop);
  C.addi(Reg::R12, Reg::R12, -1);
  C.cmpi(Reg::R12, 0);
  C.bgt(Outer);
  C.andi(Reg::R11, Reg::R11, 0x7FFFFFFF);
  epilogue(C, Lib);
}

/// mcf: pointer chasing through a shuffled singly linked list.
void wlMcf(Assembler &C, Assembler &D, GuestLibLabels &Lib, uint32_t Scale) {
  const uint32_t Nodes = 4096;
  // Node layout: [next:4][val:4], precomputed in a shuffled cycle.
  D.align(8);
  Label NodesL = D.boundLabel();
  uint32_t Base = D.labelAddr(NodesL);
  std::vector<uint32_t> Perm(Nodes);
  for (uint32_t I = 0; I != Nodes; ++I)
    Perm[I] = I;
  std::mt19937 Rng(99);
  std::shuffle(Perm.begin() + 1, Perm.end(), Rng); // keep 0 first
  // Node Perm[I] points at node Perm[(I+1) % Nodes]: one shuffled cycle.
  std::vector<uint32_t> NextOf(Nodes), ValOf(Nodes);
  for (uint32_t I = 0; I != Nodes; ++I) {
    NextOf[Perm[I]] = Base + Perm[(I + 1) % Nodes] * 8;
    ValOf[Perm[I]] = Perm[I] * 2654435761u;
  }
  for (uint32_t I = 0; I != Nodes; ++I) {
    D.emitU32(NextOf[I]);
    D.emitU32(ValOf[I]);
  }

  C.movi(Reg::R6, Base); // p
  C.movi(Reg::R11, 0);
  C.movi(Reg::R12, 150000 * Scale);
  Label Loop = C.boundLabel();
  C.ld(Reg::R2, Reg::R6, 4);
  C.add(Reg::R11, Reg::R11, Reg::R2);
  C.ld(Reg::R6, Reg::R6, 0); // p = p->next
  C.addi(Reg::R12, Reg::R12, -1);
  C.cmpi(Reg::R12, 0);
  C.bgt(Loop);
  C.andi(Reg::R11, Reg::R11, 0x7FFFFFFF);
  epilogue(C, Lib);
}

/// parser: tokenise text and match words against a dictionary.
void wlParser(Assembler &C, Assembler &D, GuestLibLabels &Lib,
              uint32_t Scale) {
  static const char *Dict[8] = {"the",  "cat",  "sat",   "on",
                                "mat",  "with", "hat",   "bat"};
  std::mt19937 Rng(5);
  std::string Text;
  for (int I = 0; I != 400; ++I) {
    Text += Dict[Rng() % 8];
    Text += ' ';
  }
  D.align(4);
  Label TextL = D.boundLabel();
  D.emitString(Text);
  uint32_t TextAddr = D.labelAddr(TextL);
  Label DictL = D.boundLabel();
  for (const char *W : Dict)
    for (int I = 0; I != 8; ++I)
      D.emitU8(static_cast<uint8_t>(I < static_cast<int>(strlen(W))
                                        ? W[I]
                                        : 0)); // fixed 8-byte slots
  uint32_t DictAddr = D.labelAddr(DictL);

  C.movi(Reg::R11, 0);
  C.movi(Reg::R12, 12 * Scale);
  Label Outer = C.boundLabel();
  C.movi(Reg::R6, TextAddr); // cursor
  Label Scan = C.boundLabel();
  C.ldb(Reg::R2, Reg::R6, 0);
  C.cmpi(Reg::R2, 0);
  Label EndText = C.newLabel();
  C.beq(EndText);
  C.cmpi(Reg::R2, ' ');
  Label NotSpace = C.newLabel();
  C.bne(NotSpace);
  C.addi(Reg::R6, Reg::R6, 1);
  C.jmp(Scan);
  C.bind(NotSpace);
  // compare the word at r6 against each dictionary slot
  C.movi(Reg::R7, 0); // dict index
  Label DictLoop = C.boundLabel();
  C.shli(Reg::R8, Reg::R7, 3);
  C.movi(Reg::R2, DictAddr);
  C.add(Reg::R8, Reg::R8, Reg::R2); // slot
  C.movi(Reg::R9, 0);               // char index
  Label CmpLoop = C.boundLabel();
  C.ldx(Reg::R2, Reg::R8, Reg::R9, 0, 0);
  C.andi(Reg::R2, Reg::R2, 0xFF);
  C.ldx(Reg::R3, Reg::R6, Reg::R9, 0, 0);
  C.andi(Reg::R3, Reg::R3, 0xFF);
  Label Mismatch = C.newLabel(), WordEnd = C.newLabel();
  Label Matched = C.newLabel(), AfterDict = C.newLabel();
  C.cmpi(Reg::R2, 0);
  C.beq(WordEnd); // dict word ended: check text char is space/NUL
  C.cmp(Reg::R2, Reg::R3);
  C.bne(Mismatch);
  C.addi(Reg::R9, Reg::R9, 1);
  C.jmp(CmpLoop);
  C.bind(WordEnd);
  C.cmpi(Reg::R3, ' ');
  C.beq(Matched);
  C.cmpi(Reg::R3, 0);
  C.beq(Matched);
  C.jmp(Mismatch);
  C.bind(Matched);
  C.addi(Reg::R11, Reg::R11, 1);
  C.jmp(AfterDict);
  C.bind(Mismatch);
  C.addi(Reg::R7, Reg::R7, 1);
  C.cmpi(Reg::R7, 8);
  C.blt(DictLoop);
  C.bind(AfterDict);
  // skip the word
  Label Skip = C.boundLabel();
  C.ldb(Reg::R2, Reg::R6, 0);
  C.cmpi(Reg::R2, ' ');
  Label SkipDone = C.newLabel();
  C.beq(SkipDone);
  C.cmpi(Reg::R2, 0);
  C.beq(EndText);
  C.addi(Reg::R6, Reg::R6, 1);
  C.jmp(Skip);
  C.bind(SkipDone);
  C.jmp(Scan);
  C.bind(EndText);
  C.addi(Reg::R12, Reg::R12, -1);
  C.cmpi(Reg::R12, 0);
  C.bgt(Outer);
  C.andi(Reg::R11, Reg::R11, 0x7FFFFFFF);
  epilogue(C, Lib);
}

/// perlbmk: string hashing into chained buckets.
void wlPerlbmk(Assembler &C, Assembler &D, GuestLibLabels &Lib,
               uint32_t Scale) {
  std::mt19937 Rng(11);
  D.align(4);
  Label Keys = D.boundLabel();
  for (int K = 0; K != 64; ++K)
    for (int I = 0; I != 8; ++I)
      D.emitU8(static_cast<uint8_t>(I < 7 ? 'a' + (Rng() % 26) : 0));
  uint32_t KeysAddr = D.labelAddr(Keys);
  Label Counts = D.boundLabel();
  D.emitZeros(64 * 4);
  uint32_t CountsAddr = D.labelAddr(Counts);

  C.movi(Reg::R11, 0);
  C.movi(Reg::R12, 250 * Scale);
  Label Outer = C.boundLabel();
  C.movi(Reg::R6, 0); // key index
  Label KeyLoop = C.boundLabel();
  C.shli(Reg::R7, Reg::R6, 3);
  C.movi(Reg::R2, KeysAddr);
  C.add(Reg::R7, Reg::R7, Reg::R2); // key ptr
  C.movi(Reg::R8, 0);               // h
  C.movi(Reg::R9, 0);               // i
  Label HashLoop = C.boundLabel();
  C.ldx(Reg::R2, Reg::R7, Reg::R9, 0, 0);
  C.andi(Reg::R2, Reg::R2, 0xFF);
  C.cmpi(Reg::R2, 0);
  Label HashDone = C.newLabel();
  C.beq(HashDone);
  C.movi(Reg::R3, 31);
  C.mul(Reg::R8, Reg::R8, Reg::R3);
  C.add(Reg::R8, Reg::R8, Reg::R2);
  C.addi(Reg::R9, Reg::R9, 1);
  C.jmp(HashLoop);
  C.bind(HashDone);
  C.andi(Reg::R8, Reg::R8, 63);
  C.movi(Reg::R2, CountsAddr);
  C.ldx(Reg::R3, Reg::R2, Reg::R8, 2, 0);
  C.addi(Reg::R3, Reg::R3, 1);
  C.stx(Reg::R2, Reg::R8, 2, 0, Reg::R3);
  C.add(Reg::R11, Reg::R11, Reg::R8);
  C.addi(Reg::R6, Reg::R6, 1);
  C.cmpi(Reg::R6, 64);
  C.blt(KeyLoop);
  C.addi(Reg::R12, Reg::R12, -1);
  C.cmpi(Reg::R12, 0);
  C.bgt(Outer);
  C.andi(Reg::R11, Reg::R11, 0x7FFFFFFF);
  epilogue(C, Lib);
}

/// vortex: open-addressing hash table insert/lookup mix (heap allocated).
void wlVortex(Assembler &C, Assembler &D, GuestLibLabels &Lib,
              uint32_t Scale) {
  const uint32_t Slots = 1024;
  C.movi(Reg::R1, Slots);
  C.movi(Reg::R2, 4);
  C.call(Lib.Calloc); // zeroed table
  C.mov(Reg::R6, Reg::R0);
  C.movi(Reg::R7, 12345); // lcg seed
  C.movi(Reg::R11, 0);
  C.movi(Reg::R12, 6000 * Scale);
  Label Loop = C.boundLabel();
  // k = lcg()
  C.movi(Reg::R2, 1103515245);
  C.mul(Reg::R7, Reg::R7, Reg::R2);
  C.addi(Reg::R7, Reg::R7, 12345);
  C.shri(Reg::R8, Reg::R7, 8);
  C.andi(Reg::R8, Reg::R8, 0xFFFF);
  C.addi(Reg::R8, Reg::R8, 1); // key != 0
  // idx = (k * 2654435761) >> 22
  C.movi(Reg::R2, 0x9E3779B1);
  C.mul(Reg::R9, Reg::R8, Reg::R2);
  C.shri(Reg::R9, Reg::R9, 22);
  C.movi(Reg::R10, 0); // probe bound: a full table must not livelock
  Label Probe = C.boundLabel();
  C.ldx(Reg::R3, Reg::R6, Reg::R9, 2, 0);
  C.cmpi(Reg::R3, 0);
  Label Insert = C.newLabel(), Done = C.newLabel();
  C.beq(Insert);
  C.cmp(Reg::R3, Reg::R8);
  Label Found = C.newLabel();
  C.beq(Found);
  C.addi(Reg::R9, Reg::R9, 1);
  C.andi(Reg::R9, Reg::R9, Slots - 1);
  C.addi(Reg::R10, Reg::R10, 1);
  C.cmpi(Reg::R10, 64);
  C.bge(Insert); // give up: overwrite the current slot
  C.jmp(Probe);
  C.bind(Insert);
  C.stx(Reg::R6, Reg::R9, 2, 0, Reg::R8);
  C.addi(Reg::R11, Reg::R11, 1);
  C.jmp(Done);
  C.bind(Found);
  C.addi(Reg::R11, Reg::R11, 3);
  C.bind(Done);
  // occasionally clear a slot to keep load factor stable
  C.andi(Reg::R2, Reg::R7, 3);
  C.cmpi(Reg::R2, 0);
  Label NoClear = C.newLabel();
  C.bne(NoClear);
  C.movi(Reg::R3, 0);
  C.stx(Reg::R6, Reg::R9, 2, 0, Reg::R3);
  C.bind(NoClear);
  C.addi(Reg::R12, Reg::R12, -1);
  C.cmpi(Reg::R12, 0);
  C.bgt(Loop);
  C.andi(Reg::R11, Reg::R11, 0x7FFFFFFF);
  epilogue(C, Lib);
}

//===----------------------------------------------------------------------===//
// Floating-point workloads
//===----------------------------------------------------------------------===//

/// Emits "allocate N doubles, fill f(i) = i * <Mult> + <Add>", returning in
/// \p Dst the base register.
void emitFpFill(Assembler &C, GuestLibLabels &Lib, Reg Dst, uint32_t N,
                double Mult, double Add) {
  C.movi(Reg::R1, N * 8);
  C.call(Lib.Malloc);
  C.mov(Dst, Reg::R0);
  C.movi(Reg::R2, 0);
  C.fmovi(FReg::F6, Mult);
  C.fmovi(FReg::F7, Add);
  Label Fill = C.boundLabel();
  C.fitod(FReg::F0, Reg::R2);
  C.fmul(FReg::F0, FReg::F0, FReg::F6);
  C.fadd(FReg::F0, FReg::F0, FReg::F7);
  C.shli(Reg::R3, Reg::R2, 3);
  C.add(Reg::R3, Reg::R3, Dst);
  C.fst(Reg::R3, 0, FReg::F0);
  C.addi(Reg::R2, Reg::R2, 1);
  C.cmpi(Reg::R2, static_cast<int32_t>(N));
  C.blt(Fill);
}

/// Common FP epilogue: checksum = (int)(f0 saturated into [0, 2^31)).
void fpEpilogue(Assembler &C, GuestLibLabels &Lib) {
  C.fdtoi(Reg::R11, FReg::F5);
  C.andi(Reg::R11, Reg::R11, 0x7FFFFFFF);
  epilogue(C, Lib);
}

/// ammp: pairwise interactions.
void wlAmmp(Assembler &C, Assembler &D, GuestLibLabels &Lib,
            uint32_t Scale) {
  const uint32_t N = 48;
  emitFpFill(C, Lib, Reg::R6, N, 0.37, 1.0);
  C.fmovi(FReg::F5, 0.0); // energy
  C.fmovi(FReg::F4, 1.0);
  C.movi(Reg::R12, 80 * Scale);
  Label Outer = C.boundLabel();
  C.movi(Reg::R7, 0); // i
  Label ILoop = C.boundLabel();
  C.shli(Reg::R2, Reg::R7, 3);
  C.add(Reg::R2, Reg::R2, Reg::R6);
  C.fld(FReg::F0, Reg::R2, 0); // x[i]
  C.movi(Reg::R8, 0);          // j
  Label JLoop = C.boundLabel();
  C.shli(Reg::R2, Reg::R8, 3);
  C.add(Reg::R2, Reg::R2, Reg::R6);
  C.fld(FReg::F1, Reg::R2, 0); // x[j]
  C.fsub(FReg::F2, FReg::F0, FReg::F1);
  C.fmul(FReg::F3, FReg::F2, FReg::F2);
  C.fadd(FReg::F3, FReg::F3, FReg::F4); // dx^2 + 1
  C.fdiv(FReg::F3, FReg::F4, FReg::F3); // 1 / (dx^2 + 1)
  C.fadd(FReg::F5, FReg::F5, FReg::F3);
  C.addi(Reg::R8, Reg::R8, 1);
  C.cmpi(Reg::R8, N);
  C.blt(JLoop);
  C.addi(Reg::R7, Reg::R7, 1);
  C.cmpi(Reg::R7, N);
  C.blt(ILoop);
  C.addi(Reg::R12, Reg::R12, -1);
  C.cmpi(Reg::R12, 0);
  C.bgt(Outer);
  fpEpilogue(C, Lib);
}

/// applu: Jacobi sweeps over a 2D grid.
void wlApplu(Assembler &C, Assembler &D, GuestLibLabels &Lib,
             uint32_t Scale) {
  const uint32_t W = 64, H = 48;
  emitFpFill(C, Lib, Reg::R6, W * H, 0.001, 0.0);
  C.fmovi(FReg::F6, 0.25);
  C.movi(Reg::R12, 10 * Scale);
  Label Sweep = C.boundLabel();
  C.movi(Reg::R7, 1); // y
  Label YLoop = C.boundLabel();
  C.movi(Reg::R8, 1); // x
  Label XLoop = C.boundLabel();
  // addr = base + (y*W + x)*8
  C.movi(Reg::R2, W);
  C.mul(Reg::R3, Reg::R7, Reg::R2);
  C.add(Reg::R3, Reg::R3, Reg::R8);
  C.shli(Reg::R3, Reg::R3, 3);
  C.add(Reg::R3, Reg::R3, Reg::R6);
  C.fld(FReg::F0, Reg::R3, -8);
  C.fld(FReg::F1, Reg::R3, 8);
  C.fld(FReg::F2, Reg::R3, -8 * static_cast<int16_t>(W));
  C.fld(FReg::F3, Reg::R3, 8 * static_cast<int16_t>(W));
  C.fadd(FReg::F0, FReg::F0, FReg::F1);
  C.fadd(FReg::F2, FReg::F2, FReg::F3);
  C.fadd(FReg::F0, FReg::F0, FReg::F2);
  C.fmul(FReg::F0, FReg::F0, FReg::F6);
  C.fst(Reg::R3, 0, FReg::F0);
  C.addi(Reg::R8, Reg::R8, 1);
  C.cmpi(Reg::R8, W - 1);
  C.blt(XLoop);
  C.addi(Reg::R7, Reg::R7, 1);
  C.cmpi(Reg::R7, H - 1);
  C.blt(YLoop);
  C.addi(Reg::R12, Reg::R12, -1);
  C.cmpi(Reg::R12, 0);
  C.bgt(Sweep);
  // checksum: centre value * 1e6
  C.movi(Reg::R2, (W * (H / 2) + W / 2) * 8);
  C.add(Reg::R2, Reg::R2, Reg::R6);
  C.fld(FReg::F5, Reg::R2, 0);
  C.fmovi(FReg::F0, 1e6);
  C.fmul(FReg::F5, FReg::F5, FReg::F0);
  fpEpilogue(C, Lib);
}

/// art: dot products + winner-take-all.
void wlArt(Assembler &C, Assembler &D, GuestLibLabels &Lib, uint32_t Scale) {
  const uint32_t N = 256;
  emitFpFill(C, Lib, Reg::R6, N, 0.003, 0.1); // input
  emitFpFill(C, Lib, Reg::R7, N, -0.002, 0.5); // weights
  C.fmovi(FReg::F5, 0.0);
  C.movi(Reg::R12, 250 * Scale);
  Label Outer = C.boundLabel();
  C.fmovi(FReg::F2, 0.0); // dot
  C.movi(Reg::R8, 0);
  Label Dot = C.boundLabel();
  C.shli(Reg::R2, Reg::R8, 3);
  C.add(Reg::R3, Reg::R2, Reg::R6);
  C.add(Reg::R4, Reg::R2, Reg::R7);
  C.fld(FReg::F0, Reg::R3, 0);
  C.fld(FReg::F1, Reg::R4, 0);
  C.fmul(FReg::F0, FReg::F0, FReg::F1);
  C.fadd(FReg::F2, FReg::F2, FReg::F0);
  C.addi(Reg::R8, Reg::R8, 1);
  C.cmpi(Reg::R8, N);
  C.blt(Dot);
  // winner-take-all-ish: F5 = max(F5 * 0.999, dot)
  C.fmovi(FReg::F3, 0.999);
  C.fmul(FReg::F5, FReg::F5, FReg::F3);
  C.fcmp(FReg::F2, FReg::F5);
  Label NoMax = C.newLabel();
  C.ble(NoMax);
  C.fmov(FReg::F5, FReg::F2);
  C.bind(NoMax);
  C.addi(Reg::R12, Reg::R12, -1);
  C.cmpi(Reg::R12, 0);
  C.bgt(Outer);
  C.fmovi(FReg::F0, 1000.0);
  C.fmul(FReg::F5, FReg::F5, FReg::F0);
  fpEpilogue(C, Lib);
}

/// equake: 1D wave-equation stencil.
void wlEquake(Assembler &C, Assembler &D, GuestLibLabels &Lib,
              uint32_t Scale) {
  const uint32_t N = 512;
  emitFpFill(C, Lib, Reg::R6, N, 0.01, 0.0);  // u
  emitFpFill(C, Lib, Reg::R7, N, 0.01, 0.0);  // u_prev
  C.fmovi(FReg::F6, 0.25); // c
  C.fmovi(FReg::F7, 2.0);
  C.movi(Reg::R12, 300 * Scale);
  Label Step = C.boundLabel();
  C.movi(Reg::R8, 1);
  Label ILoop = C.boundLabel();
  C.shli(Reg::R2, Reg::R8, 3);
  C.add(Reg::R3, Reg::R2, Reg::R6); // &u[i]
  C.add(Reg::R4, Reg::R2, Reg::R7); // &up[i]
  C.fld(FReg::F0, Reg::R3, 0);
  C.fld(FReg::F1, Reg::R3, -8);
  C.fld(FReg::F2, Reg::R3, 8);
  C.fld(FReg::F3, Reg::R4, 0);
  // unew = 2u - up + c*(u[-1] - 2u + u[+1])
  C.fmul(FReg::F4, FReg::F0, FReg::F7);
  C.fsub(FReg::F4, FReg::F4, FReg::F3);
  C.fadd(FReg::F1, FReg::F1, FReg::F2);
  C.fsub(FReg::F1, FReg::F1, FReg::F0);
  C.fsub(FReg::F1, FReg::F1, FReg::F0);
  C.fmul(FReg::F1, FReg::F1, FReg::F6);
  C.fadd(FReg::F4, FReg::F4, FReg::F1);
  C.fst(Reg::R4, 0, FReg::F4); // up[i] = unew (double-buffer swap by role)
  C.addi(Reg::R8, Reg::R8, 1);
  C.cmpi(Reg::R8, N - 1);
  C.blt(ILoop);
  // swap u and up
  C.mov(Reg::R2, Reg::R6);
  C.mov(Reg::R6, Reg::R7);
  C.mov(Reg::R7, Reg::R2);
  C.addi(Reg::R12, Reg::R12, -1);
  C.cmpi(Reg::R12, 0);
  C.bgt(Step);
  C.fld(FReg::F5, Reg::R6, 8 * 100);
  C.fmovi(FReg::F0, 1e4);
  C.fmul(FReg::F5, FReg::F5, FReg::F0);
  fpEpilogue(C, Lib);
}

/// mesa: vertex transform with conversions.
void wlMesa(Assembler &C, Assembler &D, GuestLibLabels &Lib,
            uint32_t Scale) {
  const uint32_t N = 256;
  emitFpFill(C, Lib, Reg::R6, N * 2, 0.005, -0.4); // x,y interleaved
  C.movi(Reg::R11, 0);
  C.fmovi(FReg::F6, 0.7071);  // cos
  C.fmovi(FReg::F7, -0.7071); // -sin
  C.movi(Reg::R12, 300 * Scale);
  Label Outer = C.boundLabel();
  C.movi(Reg::R7, 0);
  Label VLoop = C.boundLabel();
  C.shli(Reg::R2, Reg::R7, 4); // 16 bytes per vertex
  C.add(Reg::R2, Reg::R2, Reg::R6);
  C.fld(FReg::F0, Reg::R2, 0);
  C.fld(FReg::F1, Reg::R2, 8);
  // rotate
  C.fmul(FReg::F2, FReg::F0, FReg::F6);
  C.fmul(FReg::F3, FReg::F1, FReg::F7);
  C.fadd(FReg::F2, FReg::F2, FReg::F3); // x'
  C.fmul(FReg::F3, FReg::F0, FReg::F7);
  C.fmul(FReg::F4, FReg::F1, FReg::F6);
  C.fsub(FReg::F3, FReg::F4, FReg::F3); // y'
  C.fst(Reg::R2, 0, FReg::F2);
  C.fst(Reg::R2, 8, FReg::F3);
  // fixed-point rasterise-ish step
  C.fmovi(FReg::F4, 256.0);
  C.fmul(FReg::F2, FReg::F2, FReg::F4);
  C.fdtoi(Reg::R3, FReg::F2);
  C.add(Reg::R11, Reg::R11, Reg::R3);
  C.addi(Reg::R7, Reg::R7, 1);
  C.cmpi(Reg::R7, N);
  C.blt(VLoop);
  C.addi(Reg::R12, Reg::R12, -1);
  C.cmpi(Reg::R12, 0);
  C.bgt(Outer);
  C.andi(Reg::R11, Reg::R11, 0x7FFFFFFF);
  epilogue(C, Lib);
}

/// swim: elementwise triple-array updates.
void wlSwim(Assembler &C, Assembler &D, GuestLibLabels &Lib,
            uint32_t Scale) {
  const uint32_t N = 1024;
  emitFpFill(C, Lib, Reg::R6, N, 0.002, 0.3); // a
  emitFpFill(C, Lib, Reg::R7, N, -0.001, 0.9); // b
  emitFpFill(C, Lib, Reg::R8, N, 0.004, -0.2); // c
  C.fmovi(FReg::F6, 0.5);
  C.fmovi(FReg::F7, 0.25);
  C.movi(Reg::R12, 150 * Scale);
  Label Sweep = C.boundLabel();
  C.movi(Reg::R9, 0);
  Label ILoop = C.boundLabel();
  C.shli(Reg::R2, Reg::R9, 3);
  C.add(Reg::R3, Reg::R2, Reg::R6);
  C.add(Reg::R4, Reg::R2, Reg::R7);
  C.add(Reg::R5, Reg::R2, Reg::R8);
  C.fld(FReg::F0, Reg::R4, 0);
  C.fld(FReg::F1, Reg::R5, 0);
  C.fmul(FReg::F0, FReg::F0, FReg::F6);
  C.fmul(FReg::F1, FReg::F1, FReg::F7);
  C.fadd(FReg::F0, FReg::F0, FReg::F1);
  C.fst(Reg::R3, 0, FReg::F0); // a = b*0.5 + c*0.25
  C.fld(FReg::F2, Reg::R3, 0);
  C.fsub(FReg::F2, FReg::F2, FReg::F1);
  C.fst(Reg::R4, 0, FReg::F2); // b = a - c*0.25
  C.addi(Reg::R9, Reg::R9, 1);
  C.cmpi(Reg::R9, N);
  C.blt(ILoop);
  C.addi(Reg::R12, Reg::R12, -1);
  C.cmpi(Reg::R12, 0);
  C.bgt(Sweep);
  C.fld(FReg::F5, Reg::R6, 8 * 17);
  C.fmovi(FReg::F0, 1e5);
  C.fmul(FReg::F5, FReg::F5, FReg::F0);
  fpEpilogue(C, Lib);
}

//===----------------------------------------------------------------------===//
// Scheduler/signal soak workload (not part of the Table 2 set)
//===----------------------------------------------------------------------===//

/// sigmt: two cloned children storm each other and the main thread with
/// SIGUSR1/SIGUSR2 while interleaving compute, yields, nanosleeps and the
/// occasional write. Every fallible syscall either retries on SysErr
/// (sigaction/mmap/clone are load-bearing) or ignores failure (kill), so
/// the program exits 0 under any --fault-inject plan. Built by name only;
/// deliberately absent from allWorkloads() so it never perturbs the
/// Table 2 benchmark set.
void wlSigMt(Assembler &C, Assembler &D, GuestLibLabels &Lib,
             uint32_t Scale) {
  Label Handler1 = C.newLabel();
  Label Handler2 = C.newLabel();
  Label Child = C.newLabel();
  Label Over = C.newLabel();

  Label HC1 = D.boundLabel();
  D.emitZeros(4); // SIGUSR1 deliveries (all threads)
  Label HC2 = D.boundLabel();
  D.emitZeros(4); // SIGUSR2 deliveries (all threads)
  Label Done = D.boundLabel();
  D.emitZeros(8); // per-child done flags
  Label Sums = D.boundLabel();
  D.emitZeros(8); // per-child hash results
  Label Tids = D.boundLabel();
  D.emitZeros(8); // child tids, written before Go
  Label Go = D.boundLabel();
  D.emitZeros(4); // children may start
  uint32_t HC1A = D.labelAddr(HC1), HC2A = D.labelAddr(HC2);
  uint32_t DoneA = D.labelAddr(Done), SumsA = D.labelAddr(Sums);
  uint32_t TidsA = D.labelAddr(Tids), GoA = D.labelAddr(Go);
  uint32_t Iters = 48 * Scale;

  // Install both handlers; injection can fail sigaction, so retry.
  auto installHandler = [&](int Sig, Label H) {
    Label Retry = C.boundLabel();
    C.movi(Reg::R0, SysSigaction);
    C.movi(Reg::R1, static_cast<uint32_t>(Sig));
    C.leai(Reg::R2, H);
    C.sys();
    C.cmpi(Reg::R0, -1);
    C.beq(Retry);
  };
  installHandler(SigUSR1, Handler1);
  installHandler(SigUSR2, Handler2);

  // Spawn two children: mmap a stack then clone, both with retry loops.
  for (uint32_t Idx = 0; Idx != 2; ++Idx) {
    Label MapRetry = C.boundLabel();
    C.movi(Reg::R0, SysMmap);
    C.movi(Reg::R1, 0);
    C.movi(Reg::R2, 65536);
    C.movi(Reg::R3, 3);
    C.movi(Reg::R4, 0);
    C.sys();
    C.cmpi(Reg::R0, -1);
    C.beq(MapRetry);
    C.addi(Reg::R9, Reg::R0, 65536); // child SP = top of mapping
    Label CloneRetry = C.boundLabel();
    C.movi(Reg::R0, SysClone);
    C.leai(Reg::R1, Child);
    C.mov(Reg::R2, Reg::R9);
    C.movi(Reg::R3, Idx); // child arg = its index
    C.sys();
    C.cmpi(Reg::R0, -1);
    C.beq(CloneRetry);
    C.movi(Reg::R3, TidsA);
    C.st(Reg::R3, static_cast<int16_t>(4 * Idx), Reg::R0);
  }
  // Release the children only once both tids are published.
  C.movi(Reg::R2, 1);
  C.movi(Reg::R3, GoA);
  C.st(Reg::R3, 0, Reg::R2);

  // Main joins the storm: signal both children while they run.
  C.movi(Reg::R7, 0);
  {
    Label MLoop = C.boundLabel();
    C.movi(Reg::R3, TidsA);
    C.ld(Reg::R1, Reg::R3, 0);
    C.movi(Reg::R0, SysKill);
    C.movi(Reg::R2, SigUSR1);
    C.sys(); // failure/late-exit tolerated
    C.movi(Reg::R3, TidsA);
    C.ld(Reg::R1, Reg::R3, 4);
    C.movi(Reg::R0, SysKill);
    C.movi(Reg::R2, SigUSR2);
    C.sys();
    C.movi(Reg::R0, SysYield);
    C.sys();
    C.addi(Reg::R7, Reg::R7, 1);
    C.cmpi(Reg::R7, 16 * Scale);
    C.blt(MLoop);
  }

  // Wait for both children, yielding; spurious wakeups just re-loop.
  {
    Label Wait = C.boundLabel();
    C.movi(Reg::R0, SysYield);
    C.sys();
    C.movi(Reg::R3, DoneA);
    C.ld(Reg::R2, Reg::R3, 0);
    C.ld(Reg::R4, Reg::R3, 4);
    C.add(Reg::R2, Reg::R2, Reg::R4);
    C.cmpi(Reg::R2, 2);
    C.bne(Wait);
  }

  // Checksum only the compute results: they are signal-independent, so
  // stdout is stable across fault plans (modulo short writes).
  C.movi(Reg::R3, SumsA);
  C.ld(Reg::R11, Reg::R3, 0);
  C.ld(Reg::R4, Reg::R3, 4);
  C.movi(Reg::R5, 5);
  C.mul(Reg::R4, Reg::R4, Reg::R5);
  C.xor_(Reg::R11, Reg::R11, Reg::R4);
  C.jmp(Over);

  // handler(USR1): ++HC1. Leaf; sigreturn restores any clobbers.
  C.bind(Handler1);
  C.movi(Reg::R3, HC1A);
  C.ld(Reg::R4, Reg::R3, 0);
  C.addi(Reg::R4, Reg::R4, 1);
  C.st(Reg::R3, 0, Reg::R4);
  C.ret();

  // handler(USR2): ++HC2.
  C.bind(Handler2);
  C.movi(Reg::R3, HC2A);
  C.ld(Reg::R4, Reg::R3, 0);
  C.addi(Reg::R4, Reg::R4, 1);
  C.st(Reg::R3, 0, Reg::R4);
  C.ret();

  // child(idx in r1): wait for Go, then hash-mix while signalling the
  // sibling and main; finish by publishing the hash and a done flag.
  C.bind(Child);
  C.mov(Reg::R6, Reg::R1); // idx
  {
    Label Spin = C.boundLabel();
    C.movi(Reg::R0, SysYield);
    C.sys();
    C.movi(Reg::R3, GoA);
    C.ld(Reg::R2, Reg::R3, 0);
    C.cmpi(Reg::R2, 0);
    C.beq(Spin);
  }
  C.movi(Reg::R7, 0);                 // i
  C.movi(Reg::R8, 0x9E37);            // hash
  C.add(Reg::R8, Reg::R8, Reg::R6);
  {
    Label CLoop = C.boundLabel();
    C.movi(Reg::R2, 33);
    C.mul(Reg::R8, Reg::R8, Reg::R2);
    C.xor_(Reg::R8, Reg::R8, Reg::R7);
    // kill(main, USR1) -- ignore failures.
    C.movi(Reg::R0, SysKill);
    C.movi(Reg::R1, 0);
    C.movi(Reg::R2, SigUSR1);
    C.sys();
    // kill(sibling, USR2) -- sibling may already have exited.
    C.movi(Reg::R2, 1);
    C.sub(Reg::R2, Reg::R2, Reg::R6);
    C.movi(Reg::R4, TidsA);
    C.ldx(Reg::R1, Reg::R4, Reg::R2, 2, 0);
    C.movi(Reg::R0, SysKill);
    C.movi(Reg::R2, SigUSR2);
    C.sys();
    // every 4th iteration: yield; every 16th: nanosleep(30us).
    Label NoYield = C.newLabel();
    C.andi(Reg::R2, Reg::R7, 3);
    C.cmpi(Reg::R2, 0);
    C.bne(NoYield);
    C.movi(Reg::R0, SysYield);
    C.sys();
    C.bind(NoYield);
    Label NoSleep = C.newLabel();
    C.andi(Reg::R2, Reg::R7, 15);
    C.cmpi(Reg::R2, 0);
    C.bne(NoSleep);
    C.movi(Reg::R0, SysNanosleep);
    C.movi(Reg::R1, 30);
    C.sys();
    C.bind(NoSleep);
    C.addi(Reg::R7, Reg::R7, 1);
    C.cmpi(Reg::R7, Iters);
    C.blt(CLoop);
  }
  C.movi(Reg::R3, SumsA);
  C.stx(Reg::R3, Reg::R6, 2, 0, Reg::R8);
  C.movi(Reg::R2, 1);
  C.movi(Reg::R3, DoneA);
  C.stx(Reg::R3, Reg::R6, 2, 0, Reg::R2);
  C.movi(Reg::R0, SysExitThread);
  C.movi(Reg::R1, 0);
  C.sys();

  C.bind(Over);
  epilogue(C, Lib);
}

/// mtcpu: four cloned children, each hash-mixing over its own private
/// mmap'd buffer — CPU-bound, no shared writable data beyond the go/done
/// handshake, and each child's sum is deterministic regardless of how the
/// threads interleave, so Nulgrind and Memcheck must print the same sum.
void wlMtCpu(Assembler &C, Assembler &D, GuestLibLabels &Lib,
             uint32_t Scale) {
  constexpr uint32_t NumChildren = 4;
  Label ChildFn = C.newLabel();
  Label Over = C.newLabel();

  Label Done = D.boundLabel();
  D.emitZeros(4 * NumChildren); // per-child done flags
  Label Sums = D.boundLabel();
  D.emitZeros(4 * NumChildren); // per-child hash results
  Label Go = D.boundLabel();
  D.emitZeros(4); // children may start
  uint32_t DoneA = D.labelAddr(Done), SumsA = D.labelAddr(Sums);
  uint32_t GoA = D.labelAddr(Go);
  uint32_t Iters = 4096 * Scale;

  // Spawn the children: mmap a stack then clone, both with retry loops
  // (fault injection can fail either).
  for (uint32_t Idx = 0; Idx != NumChildren; ++Idx) {
    Label MapRetry = C.boundLabel();
    C.movi(Reg::R0, SysMmap);
    C.movi(Reg::R1, 0);
    C.movi(Reg::R2, 65536);
    C.movi(Reg::R3, 3);
    C.movi(Reg::R4, 0);
    C.sys();
    C.cmpi(Reg::R0, -1);
    C.beq(MapRetry);
    C.addi(Reg::R9, Reg::R0, 65536); // child SP = top of mapping
    Label CloneRetry = C.boundLabel();
    C.movi(Reg::R0, SysClone);
    C.leai(Reg::R1, ChildFn);
    C.mov(Reg::R2, Reg::R9);
    C.movi(Reg::R3, Idx); // child arg = its index
    C.sys();
    C.cmpi(Reg::R0, -1);
    C.beq(CloneRetry);
  }
  C.movi(Reg::R2, 1);
  C.movi(Reg::R3, GoA);
  C.st(Reg::R3, 0, Reg::R2);

  // Wait for all children, yielding between polls.
  {
    Label Wait = C.boundLabel();
    C.movi(Reg::R0, SysYield);
    C.sys();
    C.movi(Reg::R3, DoneA);
    C.ld(Reg::R2, Reg::R3, 0);
    C.ld(Reg::R4, Reg::R3, 4);
    C.add(Reg::R2, Reg::R2, Reg::R4);
    C.ld(Reg::R4, Reg::R3, 8);
    C.add(Reg::R2, Reg::R2, Reg::R4);
    C.ld(Reg::R4, Reg::R3, 12);
    C.add(Reg::R2, Reg::R2, Reg::R4);
    C.cmpi(Reg::R2, NumChildren);
    C.bne(Wait);
  }

  // checksum: fold the four sums with distinct odd multipliers so a swap
  // of two children's results cannot cancel out.
  C.movi(Reg::R3, SumsA);
  C.ld(Reg::R11, Reg::R3, 0);
  static const uint32_t Mults[] = {5, 9, 13};
  for (uint32_t I = 0; I != 3; ++I) {
    C.ld(Reg::R4, Reg::R3, static_cast<int16_t>(4 * (I + 1)));
    C.movi(Reg::R5, Mults[I]);
    C.mul(Reg::R4, Reg::R4, Reg::R5);
    C.xor_(Reg::R11, Reg::R11, Reg::R4);
  }
  C.jmp(Over);

  // child(idx in r1): mmap a private scratch buffer, wait for go, then a
  // store/load/hash loop with no syscalls — pure compute.
  C.bind(ChildFn);
  C.mov(Reg::R6, Reg::R1); // idx
  {
    Label BufRetry = C.boundLabel();
    C.movi(Reg::R0, SysMmap);
    C.movi(Reg::R1, 0);
    C.movi(Reg::R2, 65536);
    C.movi(Reg::R3, 3);
    C.movi(Reg::R4, 0);
    C.sys();
    C.cmpi(Reg::R0, -1);
    C.beq(BufRetry);
    C.mov(Reg::R9, Reg::R0); // buffer base
  }
  {
    Label Spin = C.boundLabel();
    C.movi(Reg::R0, SysYield);
    C.sys();
    C.movi(Reg::R3, GoA);
    C.ld(Reg::R2, Reg::R3, 0);
    C.cmpi(Reg::R2, 0);
    C.beq(Spin);
  }
  C.movi(Reg::R7, 0);      // i
  C.movi(Reg::R8, 0x9E37); // hash
  C.add(Reg::R8, Reg::R8, Reg::R6);
  {
    Label CLoop = C.boundLabel();
    C.movi(Reg::R2, 33);
    C.mul(Reg::R8, Reg::R8, Reg::R2);
    C.xor_(Reg::R8, Reg::R8, Reg::R7);
    // buf[i & 0x3FFF] = hash (word-indexed; 4 * 0x3FFF < 64KB).
    C.andi(Reg::R2, Reg::R7, 0x3FFF);
    C.stx(Reg::R9, Reg::R2, 2, 0, Reg::R8);
    // hash ^= buf[(7i + 1) & 0x3FFF] — a different, older slot (zero
    // until the buffer wraps), so loads feed the hash too.
    C.movi(Reg::R4, 7);
    C.mul(Reg::R4, Reg::R7, Reg::R4);
    C.addi(Reg::R4, Reg::R4, 1);
    C.andi(Reg::R4, Reg::R4, 0x3FFF);
    C.ldx(Reg::R5, Reg::R9, Reg::R4, 2, 0);
    C.xor_(Reg::R8, Reg::R8, Reg::R5);
    C.addi(Reg::R7, Reg::R7, 1);
    C.cmpi(Reg::R7, Iters);
    C.blt(CLoop);
  }
  C.movi(Reg::R3, SumsA);
  C.stx(Reg::R3, Reg::R6, 2, 0, Reg::R8);
  C.movi(Reg::R2, 1);
  C.movi(Reg::R3, DoneA);
  C.stx(Reg::R3, Reg::R6, 2, 0, Reg::R2);
  C.movi(Reg::R0, SysExitThread);
  C.movi(Reg::R1, 0);
  C.sys();

  C.bind(Over);
  epilogue(C, Lib);
}

/// Every workload, one row each: its name, its body, whether it is a
/// Table 2 row (sigmt and mtcpu are runnable by name but stay out of the
/// benchmark set), and whether it is floating-point.
struct WorkloadRow {
  const char *Name;
  void (*Body)(Assembler &, Assembler &, GuestLibLabels &, uint32_t);
  bool InTable2;
  bool IsFP;
};
constexpr WorkloadRow Workloads[] = {
    {"bzip2", wlBzip2, true, false},    {"crafty", wlCrafty, true, false},
    {"gcc", wlGcc, true, false},        {"gzip", wlGzip, true, false},
    {"mcf", wlMcf, true, false},        {"parser", wlParser, true, false},
    {"perlbmk", wlPerlbmk, true, false}, {"vortex", wlVortex, true, false},
    {"ammp", wlAmmp, true, true},       {"applu", wlApplu, true, true},
    {"art", wlArt, true, true},         {"equake", wlEquake, true, true},
    {"mesa", wlMesa, true, true},       {"swim", wlSwim, true, true},
    {"sigmt", wlSigMt, false, false},   {"mtcpu", wlMtCpu, false, false},
};

} // namespace

const std::vector<WorkloadInfo> &vg::allWorkloads(bool WithExtras) {
  static const auto Lists = [] {
    std::vector<WorkloadInfo> Table2, All;
    for (const WorkloadRow &W : Workloads) {
      if (W.InTable2)
        Table2.push_back({W.Name, W.IsFP});
      All.push_back({W.Name, W.IsFP});
    }
    return std::array{Table2, All};
  }();
  return Lists[WithExtras];
}

GuestImage vg::buildWorkload(const std::string &Name, uint32_t Scale) {
  for (const WorkloadRow &W : Workloads)
    if (Name == W.Name)
      return build(W.Body, Scale ? Scale : 1);
  fatalError(("unknown workload: " + Name).c_str());
}
