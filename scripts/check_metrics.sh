#!/usr/bin/env bash
# Observability smoke gate (docs/OBSERVABILITY.md): runs the same end-to-end
# clone search through asteria-cli at --threads=1 and --threads=8 with
# --metrics_out, then
#   1. asserts the deterministic slice of the two snapshots is identical —
#      counter values, histogram observation counts, value-deterministic
#      bucket tallies, span counts, and pipeline rows must not depend on the
#      thread count (only latency-valued fields may differ);
#   2. asserts the snapshot actually observed the run: nonzero encode.fast
#      counter and decompile/encode/search span entries;
#   3. asserts encode.tape is zero: every CLI encode runs the fused kernel,
#      and the autograd reference path is reachable only from tests and
#      bench/perf's train-epoch.
#
# Usage: scripts/check_metrics.sh [build-dir]   (default: build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
. "$ROOT/scripts/lib.sh"
BUILD="$ROOT/${1:-build}"
make_work_dir

cmake -S "$ROOT" -B "$BUILD" >/dev/null
cmake --build "$BUILD" -j "$(nproc)" --target asteria-cli

CLI="$BUILD/tools/asteria-cli"

"$CLI" gen 42 > "$WORK/prog.mc"
# First function of the generated package is the query.
FN="$(first_fn "$WORK/prog.mc")"
[ -n "$FN" ] || { echo "FAIL: no function found in generated program" >&2; exit 1; }

for threads in 1 8; do
  "$CLI" search "$WORK/prog.mc" "$FN" x86 \
         --threads=$threads --metrics_out="$WORK/m$threads.json" >/dev/null
done

# The deterministic slice (scripts/lib.sh) must be identical across thread
# counts.
metrics_det_slice "$WORK/m1.json" > "$WORK/m1.det"
metrics_det_slice "$WORK/m8.json" > "$WORK/m8.det"
if ! diff -u "$WORK/m1.det" "$WORK/m8.det"; then
  echo "FAIL: deterministic metrics slice differs between --threads=1 and --threads=8" >&2
  exit 1
fi

# The snapshot must have actually observed the run.
grep -qE '"encode\.fast": [1-9]' "$WORK/m1.json" \
  || { echo "FAIL: encode.fast counter is zero or missing" >&2; exit 1; }
for span in decompile encode search; do
  grep -q "\"$span\": {" "$WORK/m1.json" \
    || { echo "FAIL: span '$span' missing from snapshot" >&2; exit 1; }
done
TAPE="$(counter "$WORK/m1.json" 'encode\.tape')"
[ "$TAPE" -eq 0 ] \
  || { echo "FAIL: encode.tape=$TAPE: a CLI encode took the tape path" >&2
       exit 1; }

echo "OK: metrics snapshot deterministic across thread counts and complete"
