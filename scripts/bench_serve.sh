#!/usr/bin/env bash
# Serving-path smoke benchmark (docs/SERVING.md): measures what the daemon
# exists to eliminate — per-query startup cost. The cold path runs
# `asteria-cli index-query` from scratch N times (each run re-loads the
# model and the INDX snapshot before scoring one query); the warm path
# starts one asteria-serve daemon over the same snapshot and sends the same
# query N times over the socket (`asteria-cli query --repeat=N`), so the
# load happens once and each query pays only framing + batch scoring.
# Writes the machine-readable result to BENCH_serve.json at the repo root
# and fails unless warm mean latency beats cold mean latency by at least
# MIN_SERVE_SPEEDUP x.
#
# Usage: scripts/bench_serve.sh [build-dir]   (default: build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
. "$ROOT/scripts/lib.sh"
BUILD="$ROOT/${1:-build}"
MIN_SERVE_SPEEDUP="${MIN_SERVE_SPEEDUP:-50}"
COLD_RUNS="${COLD_RUNS:-5}"
WARM_RUNS="${WARM_RUNS:-50}"
make_work_dir

cmake -S "$ROOT" -B "$BUILD" >/dev/null
cmake --build "$BUILD" -j "$(nproc)" --target asteria-cli asteria-serve

CLI="$BUILD/tools/asteria-cli"
SERVE="$BUILD/tools/asteria-serve"
SOCK="$WORK/serve.sock"

"$CLI" gen 42 > "$WORK/prog.mc"
FN="$(first_fn "$WORK/prog.mc")"
[ -n "$FN" ] || { echo "FAIL: no function found in generated program" >&2; exit 1; }
"$CLI" index-build "$WORK/prog.mc" "$WORK/prog.idx" >/dev/null 2>&1

# Cold path: every run pays model + snapshot load before the one query.
COLD_TOTAL_NANOS=0
for _ in $(seq "$COLD_RUNS"); do
  START="$(date +%s%N)"
  "$CLI" index-query "$WORK/prog.idx" "$WORK/prog.mc" "$FN" x86 5 \
      >/dev/null 2>&1
  END="$(date +%s%N)"
  COLD_TOTAL_NANOS=$((COLD_TOTAL_NANOS + END - START))
done
COLD_MEAN_NANOS=$((COLD_TOTAL_NANOS / COLD_RUNS))

# Warm path: one daemon, N queries over the socket.
"$SERVE" --socket="$SOCK" --index="$WORK/prog.idx" --workers=2 \
    >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!
await_ping "$SOCK" \
  || { echo "FAIL: daemon did not come up"; cat "$WORK/serve.log" >&2; exit 1; }

"$CLI" query "$WORK/prog.mc" "$FN" x86 5 --socket="$SOCK" \
    --repeat="$WARM_RUNS" > "$WORK/warm.txt" 2>/dev/null
WARM_MEAN_NANOS="$(grep -oE 'mean_nanos=[0-9.]+' "$WORK/warm.txt" \
                   | cut -d= -f2 | cut -d. -f1)"
[ -n "$WARM_MEAN_NANOS" ] \
  || { echo "FAIL: no mean_nanos line from --repeat run" >&2; exit 1; }

"$CLI" ctl shutdown --socket="$SOCK" >/dev/null
wait "$SERVE_PID"
SERVE_PID=""

SPEEDUP="$(awk -v c="$COLD_MEAN_NANOS" -v w="$WARM_MEAN_NANOS" \
           'BEGIN { printf "%.1f", c / w }')"
cat > "$ROOT/BENCH_serve.json" <<EOF
{
  "workload": "top-5 clone query, cold index-query vs warm asteria-serve",
  "cold_runs": $COLD_RUNS,
  "warm_runs": $WARM_RUNS,
  "cold_mean_nanos": $COLD_MEAN_NANOS,
  "warm_mean_nanos": $WARM_MEAN_NANOS,
  "speedup": $SPEEDUP
}
EOF
echo
cat "$ROOT/BENCH_serve.json"

awk -v s="$SPEEDUP" -v min="$MIN_SERVE_SPEEDUP" \
    'BEGIN { exit (s + 0 >= min + 0) ? 0 : 1 }' \
  || { echo "FAIL: warm daemon only ${SPEEDUP}x faster than cold" \
            "index-query (need >= ${MIN_SERVE_SPEEDUP}x)" >&2; exit 1; }
echo "OK: warm daemon query >= ${MIN_SERVE_SPEEDUP}x faster than cold index-query"
