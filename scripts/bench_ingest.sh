#!/usr/bin/env bash
# Streaming-ingest smoke benchmark (docs/ARCHITECTURE.md "Incremental
# ingest"): measures what the ingest subsystem exists to eliminate — paying
# for the whole fleet every time one image arrives. The full path rebuilds
# a fresh sharded index over all FLEET+1 images from scratch (every
# function re-encoded, the §V batch workflow). The incremental path starts
# from an index that already holds the FLEET images and ingests only the
# new arrival into it, with a live asteria-serve daemon attached so the
# measured interval is arrival -> queryable: the command returns only after
# the new shard is published AND the daemon has swapped it in (the reload
# poke is synchronous).
# Writes the machine-readable result to BENCH_ingest.json at the repo root
# and fails unless the incremental path beats the full rebuild by at least
# MIN_INGEST_SPEEDUP x.
#
# Usage: scripts/bench_ingest.sh [build-dir]   (default: build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
. "$ROOT/scripts/lib.sh"
BUILD="$ROOT/${1:-build}"
MIN_INGEST_SPEEDUP="${MIN_INGEST_SPEEDUP:-10}"
FLEET="${FLEET:-32}"
RUNS="${RUNS:-3}"
make_work_dir

cmake -S "$ROOT" -B "$BUILD" >/dev/null
cmake --build "$BUILD" -j "$(nproc)" --target asteria-cli asteria-serve

CLI="$BUILD/tools/asteria-cli"
SERVE="$BUILD/tools/asteria-serve"
SOCK="$WORK/ingest.sock"

"$CLI" fw-gen "$WORK/fleet" "$FLEET" 31 >/dev/null
"$CLI" fw-gen "$WORK/arrivals" "$RUNS" 77 >/dev/null

# Full path: every arrival triggers a from-scratch rebuild over the fleet
# plus the new image (fresh directory, nothing cached).
FULL_TOTAL_NANOS=0
for run in $(seq 0 $((RUNS - 1))); do
  rm -rf "$WORK/full_idx"
  START=$(date +%s%N)
  "$CLI" ingest "$WORK/full_idx" --drop_dir="$WORK/fleet" \
         "$WORK/arrivals/img-77-$run.fw" >/dev/null 2>&1
  END=$(date +%s%N)
  FULL_TOTAL_NANOS=$((FULL_TOTAL_NANOS + END - START))
done
FULL_MEAN_NANOS=$((FULL_TOTAL_NANOS / RUNS))

# Incremental path: the fleet is already indexed and served; each arrival
# pays for itself only. The poke is synchronous, so command exit ==
# queryable.
"$CLI" ingest "$WORK/inc_idx" --drop_dir="$WORK/fleet" >/dev/null 2>&1
"$SERVE" --socket="$SOCK" --index="$WORK/inc_idx/manifest.mani" \
    >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!
await_ping "$SOCK" \
  || { echo "FAIL: daemon did not come up"; cat "$WORK/serve.log" >&2; exit 1; }

INC_TOTAL_NANOS=0
for run in $(seq 0 $((RUNS - 1))); do
  START=$(date +%s%N)
  "$CLI" ingest "$WORK/inc_idx" "$WORK/arrivals/img-77-$run.fw" \
         --socket="$SOCK" >/dev/null 2>&1
  END=$(date +%s%N)
  INC_TOTAL_NANOS=$((INC_TOTAL_NANOS + END - START))
done
INC_MEAN_NANOS=$((INC_TOTAL_NANOS / RUNS))

# The daemon must actually have swapped the arrivals in.
grep -c "reloaded" "$WORK/serve.log" | grep -q "^$RUNS$" \
  || { echo "FAIL: expected $RUNS daemon reloads" >&2
       cat "$WORK/serve.log" >&2; exit 1; }

"$CLI" ctl shutdown --socket="$SOCK" >/dev/null
wait "$SERVE_PID"
SERVE_PID=""

SPEEDUP="$(awk -v f="$FULL_MEAN_NANOS" -v i="$INC_MEAN_NANOS" \
           'BEGIN { printf "%.1f", f / i }')"
cat > "$ROOT/BENCH_ingest.json" <<EOF
{
  "workload": "one firmware arrival over a $FLEET-image fleet, full rebuild vs incremental ingest (arrival -> queryable, live daemon poke)",
  "fleet_images": $FLEET,
  "arrivals": $RUNS,
  "full_rebuild_mean_nanos": $FULL_MEAN_NANOS,
  "incremental_mean_nanos": $INC_MEAN_NANOS,
  "speedup": $SPEEDUP
}
EOF
echo
cat "$ROOT/BENCH_ingest.json"

awk -v s="$SPEEDUP" -v min="$MIN_INGEST_SPEEDUP" \
    'BEGIN { exit (s + 0 >= min + 0) ? 0 : 1 }' \
  || { echo "FAIL: incremental ingest only ${SPEEDUP}x faster than full" \
            "rebuild (need >= ${MIN_INGEST_SPEEDUP}x)" >&2; exit 1; }
echo "OK: incremental ingest >= ${MIN_INGEST_SPEEDUP}x faster than full rebuild"
