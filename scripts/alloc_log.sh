#!/usr/bin/env sh
# Allocation-identity check for changes on the benchmark path.
#
#   scripts/alloc_log.sh PARENT_VGBENCH CHANGE_VGBENCH [WORKLOAD...]
#
# perfbench's peak_rss_mb follows glibc's heap layout, not just live bytes
# (ROADMAP item 1), so until it is measured independently of that layout a
# change on the benchmark path must make exactly the heap calls its parent
# makes. This script builds the LD_PRELOAD shim scripts/alloc_log_shim.c,
# runs one --seconds 0.001 pass of each workload (default: all three) at
# seed 1 under each vgbench binary, and logs the size of every
# malloc/calloc/realloc/free. For each workload it prints the event count,
# where the harness reads /proc/self/status (the peak-RSS read, after the
# timed passes and before memcheck-long's shape-check pass), and the first
# event that differs, if any, with its distance from that read and from
# the end of the log. The result line's JSON is built after the last Core
# is freed, and its string sizes follow the printed numbers, so a
# difference there (a few dozen events after the read, or after the
# shape-check pass on memcheck-long) is expected; only the workload's
# programs are freed after it.
#
# Build the two binaries from two checkouts, e.g. for the parent commit:
#   git archive HEAD~1 | tar -x -C /tmp/parent
#   cmake -S /tmp/parent/perfbench -B /tmp/parent-bench \
#       -DCMAKE_BUILD_TYPE=RelWithDebInfo
#   cmake --build /tmp/parent-bench --target vgbench -j4
# and the same for this checkout (or use .bench_build/perfbench/vgbench
# after `python3 perfbench/run.py ...`). The logs stay in the printed
# directory for inspection.
set -eu

if [ $# -lt 2 ]; then
  sed -n '2,4p' "$0" >&2
  exit 2
fi
PARENT=$1
CHANGE=$2
shift 2
WORKLOADS=${*:-nulgrind-long memcheck-long memcheck-short}

OUT=$(mktemp -d "${TMPDIR:-/tmp}/alloc-log.XXXXXX")
cc -O2 -shared -fPIC -o "$OUT/shim.so" "$(dirname "$0")/alloc_log_shim.c" -ldl
echo "alloc_log: logs in $OUT"

STATUS=0
for W in $WORKLOADS; do
  for SIDE in parent change; do
    if [ "$SIDE" = parent ]; then BIN=$PARENT; else BIN=$CHANGE; fi
    ALLOC_LOG="$OUT/$W.$SIDE.log" LD_PRELOAD="$OUT/shim.so" "$BIN" \
        --workload "$W" --seed 1 --seconds 0.001 --trace 0 \
        >"$OUT/$W.$SIDE.out" 2>&1 || {
      echo "$W: $SIDE vgbench failed; see $OUT/$W.$SIDE.out" >&2
      exit 1
    }
  done
  TOTAL=$(wc -l <"$OUT/$W.parent.log")
  awk -v W="$W" -v A="$OUT/$W.parent.log" -v B="$OUT/$W.change.log" \
      -v TOTAL="$TOTAL" '
    function where(n) {
      if (!status)
        return "before the /proc/self/status read"
      return (n - status) " events after the /proc/self/status read, " \
          (TOTAL - n) " before the end of the parent log"
    }
    BEGIN {
      n = 0
      status = 0
      while ((ra = (getline a < A)) > 0) {
        rb = (getline b < B)
        n++
        if (rb <= 0) {
          printf "%s: first difference at event %d (%s): parent \"%s\", change has no more events\n", W, n, where(n), a
          exit 1
        }
        if (a != b) {
          printf "%s: first difference at event %d (%s): parent \"%s\", change \"%s\"\n", W, n, where(n), a, b
          exit 1
        }
        if (a == "S" && !status)
          status = n
      }
      if ((getline b < B) > 0) {
        printf "%s: first difference at event %d (%s): parent has no more events, change \"%s\"\n", W, n + 1, where(n + 1), b
        exit 1
      }
      printf "%s: identical, %d events (/proc/self/status read at event %d)\n", W, n, status
    }' || STATUS=1
done
exit $STATUS
