#!/usr/bin/env sh
# Tier-1 verification: configure, build, run the full test suite (whose
# fuzz label runs the 200-program vgfuzz campaign, the planted-bug
# self-test and the corpus replay), then smoke-run the dispatcher and
# slow-down benches (a crash or a hang here is a regression even when the
# unit tests pass). The benches that write a BENCH_*.json run from build/,
# so the run leaves the working tree as it found it; it fails if
# `git status` differs at the end.
#
#   --fuzz-soak   additionally run the full differential-fuzzing soak
#                 (the 2000-iteration acceptance campaign plus forced
#                 signal/SMC variants); minutes, not seconds.
set -eu

cd "$(dirname "$0")/.."

# What `git status` and the tracked files' contents are at the start.
tree_state() {
  git status --porcelain --untracked-files=all
  git diff HEAD --no-ext-diff | cksum
}
TREE_BEFORE=$(tree_state)

FUZZ_SOAK=0
for arg in "$@"; do
  case "$arg" in
    --fuzz-soak) FUZZ_SOAK=1 ;;
    *) echo "verify.sh: unknown option '$arg'" >&2; exit 2 ;;
  esac
done

# Any compiler warning fails the build (the IR and instruction-format
# switches have no default:, so -Wswitch flags a missing case).
cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
cmake --build build -j >/dev/null
ctest --test-dir build --output-on-failure -j

echo "== smoke: sec39_dispatch =="
./build/bench/sec39_dispatch

echo "== smoke: trace tier (third-tier JIT) =="
# A hot multi-block workload with the trace tier on must actually stitch
# traces: the --profile report's trace section is the contract.
TF=$(./build/examples/vgrun --tool=nulgrind --chaining=yes \
    --hot-threshold=50 --trace-tier=yes --profile=yes vortex 2>&1 \
    | sed -n 's/.*traces-formed=\([0-9]*\).*/\1/p')
[ "${TF:-0}" -gt 0 ] || {
  echo "trace smoke: expected traces-formed > 0, got '${TF:-none}'" >&2
  exit 1
}
echo "traces formed: $TF"

echo "== smoke: table2_slowdown =="
(cd build && ./bench/table2_slowdown)

echo "== smoke: sec33_warmstart (persistent translation cache) =="
# Cold-then-warm runs of the table2 trio against one --tt-cache directory.
# The bench itself enforces the contract: warm hit rate >= 70%, zero
# rejects, and byte-identical stdout between cold and warm.
(cd build && ./bench/sec33_warmstart)

echo "== smoke: translation server (vgserve) =="
# Cold run populates a cache directory, a vgserve daemon takes it over,
# and a fresh client (no local cache) must install everything over the
# socket: >= 1 server hit, zero inline-JIT fallbacks.
TTDIR=$(mktemp -d "${TMPDIR:-/tmp}/vg-verify-tts.XXXXXX")
TTSOCK="$TTDIR/vgserve.sock"
./build/examples/vgrun --tool=nulgrind --chaining=yes --hot-threshold=2 \
    --tt-cache="$TTDIR/cache" vortex >/dev/null 2>&1
./build/src/vgserve --socket="$TTSOCK" --dir="$TTDIR/cache" --quiet &
VGSERVE_PID=$!
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
  [ -S "$TTSOCK" ] && break
  sleep 0.1
done
SRVPROF=$(./build/examples/vgrun --tool=nulgrind --chaining=yes \
    --hot-threshold=2 --tt-server="$TTSOCK" --profile=yes vortex 2>&1 \
    | sed -n 's/^server \(requests\|timeouts\)/server \1/p')
kill "$VGSERVE_PID" 2>/dev/null || true
wait "$VGSERVE_PID" 2>/dev/null || true
rm -rf "$TTDIR"
echo "$SRVPROF"
SRVHITS=$(echo "$SRVPROF" | sed -n 's/^server requests=[0-9]* hits=\([0-9]*\).*/\1/p')
SRVFALL=$(echo "$SRVPROF" | sed -n 's/.*fallbacks=\([0-9]*\).*/\1/p')
[ "${SRVHITS:-0}" -gt 0 ] || {
  echo "server smoke: expected server hits > 0, got '${SRVHITS:-none}'" >&2
  exit 1
}
[ "${SRVFALL:-1}" -eq 0 ] || {
  echo "server smoke: expected 0 fallbacks, got '${SRVFALL:-none}'" >&2
  exit 1
}

echo "== smoke: loopgrind (tool plug-in surface) =="
# The demo tool built on the opened plug-in surface must produce a loop
# report on a loopy workload: back-edges and at least one hot loop head.
LGOUT=$(./build/examples/vgrun --tool=loopgrind --chaining=yes \
    --loop-top=3 vortex 2>&1)
echo "$LGOUT" | grep -q '^==loopgrind== blocks entered:' || {
  echo "loopgrind smoke: missing report header" >&2
  exit 1
}
LGBE=$(echo "$LGOUT" \
    | sed -n 's/^==loopgrind== blocks entered: [0-9]*, back-edges: \([0-9]*\).*/\1/p')
[ "${LGBE:-0}" -gt 0 ] || {
  echo "loopgrind smoke: expected back-edges > 0, got '${LGBE:-none}'" >&2
  exit 1
}
echo "loopgrind back-edges: $LGBE"

echo "== smoke: sec314_sched (quick soak) =="
# 5 seeds instead of 50; still checks clean exits, zero Memcheck errors,
# and byte-identical trace replay per seed.
VG_SOAK_QUICK=1 ./build/bench/sec314_sched

echo "== smoke: sec54_shadowmem (quick) =="
# Quick mode: every layout x pattern cell runs and BENCH_shadowmem.json is
# written (to build/), but the micro cells use fewer ops and the vortex
# macro comparison is skipped.
(cd build && VG_SEC54_QUICK=1 ./bench/sec54_shadowmem \
    --benchmark_min_time=0.05)

echo "== smoke: sec54_hostcode (executed host-code mix) =="
# Host instructions and dispatches per guest instruction under Nulgrind
# and Memcheck on every Table 2 workload; the bench fails if more than 2%
# of ALU-family and sized host instructions run on a generic executor
# handler, or if either tool's dispatches per guest instruction rise above
# their ceiling (a superinstruction row undone).
./build/bench/sec54_hostcode

echo "== smoke: ThreadSanitizer (concurrency label) =="
# The only tests that still start host threads: concurrent --tt-cache
# writers and the vgserve daemon with its clients (everything carrying the
# `concurrency` ctest label, via the tsan preset). Warnings fail this
# build too.
cmake --preset tsan -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
cmake --build --preset tsan -j \
    --target test_transcache --target test_transserver >/dev/null
ctest --preset tsan

echo "== smoke: AddressSanitizer + UBSan (unit tests, fuzz corpus) =="
# Every test_* binary plus the committed fuzz corpus replay, built with
# -fsanitize=address,undefined: use-after-free, out-of-bounds access and
# calls through destroyed objects fail the run. The whole tree is rebuilt
# instrumented, so the job count is bounded; warnings fail it, as above.
cmake --preset asan -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
cmake --build --preset asan -j "$(nproc)" >/dev/null
ctest --preset asan

if [ "$FUZZ_SOAK" = "1" ]; then
  echo "== fuzz soak: 2000-iteration acceptance campaign =="
  ./build/src/vgfuzz --iters=2000 --seed=1 --quiet
  echo "== fuzz soak: forced signals =="
  ./build/src/vgfuzz --iters=300 --seed=77 --signals=always --quiet
  echo "== fuzz soak: forced self-modifying code =="
  ./build/src/vgfuzz --iters=300 --seed=99 --smc=always --quiet
fi

echo "== working tree unchanged =="
if [ "$(tree_state)" != "$TREE_BEFORE" ]; then
  echo "verify.sh: the run changed the working tree:" >&2
  git status --porcelain --untracked-files=all >&2
  exit 1
fi

echo "verify: OK"
