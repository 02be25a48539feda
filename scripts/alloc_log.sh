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
# the end of the log.
#
# A workload passes when its two logs agree through the /proc/self/status
# read: nothing after it can move peak_rss_mb. A later difference is still
# printed. The result line's JSON is built after the last Core is freed and
# its string sizes follow the printed numbers, so a binary run against
# itself differs there (a few dozen events after the read, or after the
# shape-check pass on memcheck-long). The script exits 0 when every
# workload passes and then deletes its logs; otherwise it exits 1 and
# keeps them in the directory it prints.
#
# Build the two binaries from two checkouts, e.g. for the parent commit:
#   git archive HEAD~1 | tar -x -C /tmp/parent
#   cmake -S /tmp/parent/perfbench -B /tmp/parent-bench \
#       -DCMAKE_BUILD_TYPE=RelWithDebInfo
#   cmake --build /tmp/parent-bench --target vgbench -j4
# and the same for this checkout (or use .bench_build/perfbench/vgbench
# after `python3 perfbench/run.py ...`).
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

STATUS=0
for W in $WORKLOADS; do
  for SIDE in parent change; do
    if [ "$SIDE" = parent ]; then BIN=$PARENT; else BIN=$CHANGE; fi
    ALLOC_LOG="$OUT/$W.$SIDE.log" LD_PRELOAD="$OUT/shim.so" "$BIN" \
        --workload "$W" --seed 1 --seconds 0.001 --trace 0 \
        >"$OUT/$W.$SIDE.out" 2>&1 || {
      echo "$W: $SIDE vgbench failed; see $OUT/$W.$SIDE.out" >&2
      echo "alloc_log: logs kept in $OUT" >&2
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
    # Reports the first difference; it fails the workload only before the
    # status read.
    function differ(n, what) {
      printf "%s: %s at event %d (%s): %s\n", W, \
          status ? "identical through the /proc/self/status read; first difference" \
                 : "first difference", n, where(n), what
      exit status ? 0 : 1
    }
    BEGIN {
      n = 0
      status = 0
      while ((ra = (getline a < A)) > 0) {
        rb = (getline b < B)
        n++
        if (rb <= 0)
          differ(n, "parent \"" a "\", change has no more events")
        if (a != b)
          differ(n, "parent \"" a "\", change \"" b "\"")
        if (a == "S" && !status)
          status = n
      }
      if ((getline b < B) > 0)
        differ(n + 1, "parent has no more events, change \"" b "\"")
      printf "%s: identical, %d events (/proc/self/status read at event %d)\n", W, n, status
    }' || STATUS=1
done
if [ $STATUS -eq 0 ]; then
  rm -rf "$OUT"
else
  echo "alloc_log: logs kept in $OUT" >&2
fi
exit $STATUS
