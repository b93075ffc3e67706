#!/usr/bin/env bash
# Batched-search throughput gate (docs/PERFORMANCE.md): runs bench_search —
# a >= 50k-entry synthetic index queried with a >= 16-query batch — and
# compares the packed/pruned TopKBatch sweep against the per-query
# brute-force reference. The bench itself verifies the two paths return
# bitwise-identical hits before timing anything, so this gate enforces both
# the exactness contract and the speedup floor. Writes the machine-readable
# result to <build-dir>/bench_out/BENCH_search.json (the committed
# BENCH_search.json at the repo root is the recorded result, never
# rewritten by a gate run) and fails unless the batched path is at least
# MIN_SEARCH_SPEEDUP x faster per query.
#
# Usage: scripts/bench_search.sh [build-dir]   (default: build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/${1:-build}"
MIN_SEARCH_SPEEDUP="${MIN_SEARCH_SPEEDUP:-4}"
ENTRIES="${ENTRIES:-50000}"
BATCH="${BATCH:-32}"
TOPK="${TOPK:-10}"
THREADS="${THREADS:-$(nproc)}"

cmake -S "$ROOT" -B "$BUILD" >/dev/null
cmake --build "$BUILD" -j "$(nproc)" --target bench_search

OUT="$("$BUILD/bench/bench_search" --entries="$ENTRIES" --batch="$BATCH" \
       --topk="$TOPK" --threads="$THREADS" --log_level=warn | tail -1)"
echo "$OUT"

get() { echo "$OUT" | grep -oE "$1=[0-9.]+" | cut -d= -f2; }
BRUTE="$(get brute_nanos_per_query)"
BATCHED="$(get batch_nanos_per_query)"
SPEEDUP="$(get speedup)"
SCORED="$(get scored_fraction)"
IDENTICAL="$(get bitwise_identical)"
[ -n "$SPEEDUP" ] && [ -n "$IDENTICAL" ] \
  || { echo "FAIL: no machine-readable line from bench_search" >&2; exit 1; }

[ "$IDENTICAL" = "1" ] \
  || { echo "FAIL: batched sweep is not bitwise identical to brute force" >&2
       exit 1; }

OUT_JSON="$BUILD/bench_out/BENCH_search.json"
mkdir -p "$(dirname "$OUT_JSON")"
cat > "$OUT_JSON" <<EOF
{
  "workload": "top-$TOPK batch of $BATCH queries over $ENTRIES synthetic entries, packed/pruned TopKBatch vs per-query brute force",
  "entries": $ENTRIES,
  "batch": $BATCH,
  "topk": $TOPK,
  "threads": $THREADS,
  "brute_nanos_per_query": $BRUTE,
  "batch_nanos_per_query": $BATCHED,
  "scored_fraction": $SCORED,
  "bitwise_identical": true,
  "speedup": $SPEEDUP
}
EOF
echo
cat "$OUT_JSON"

awk -v s="$SPEEDUP" -v min="$MIN_SEARCH_SPEEDUP" \
    'BEGIN { exit (s + 0 >= min + 0) ? 0 : 1 }' \
  || { echo "FAIL: batched search only ${SPEEDUP}x faster than per-query" \
            "brute force (need >= ${MIN_SEARCH_SPEEDUP}x)" >&2; exit 1; }
echo "OK: batched search >= ${MIN_SEARCH_SPEEDUP}x faster than brute force (bitwise identical)"
