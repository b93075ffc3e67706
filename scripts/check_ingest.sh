#!/usr/bin/env bash
# Streaming-ingest determinism gate (docs/ARCHITECTURE.md "Incremental
# ingest"): ingests the same firmware drop directory at --threads=1 and
# --threads=8 into two sharded index directories, then
#   1. asserts the published artifacts are byte-identical — the MANI
#      manifest and every shard snapshot must not depend on the encode
#      thread count (the ParallelFor static-partition contract extended to
#      the ingest write path);
#   2. asserts `index-info` and a sharded `index-query` read back
#      identically from both directories, and that delta vuln search over
#      the two produces byte-identical reports and advances both manifests
#      to byte-identical states;
#   3. asserts the deterministic slice of the two --metrics_out snapshots
#      matches (scripts/lib.sh metrics_det_slice: latency-valued fields
#      stripped, counts kept) and that the ingest.* counters actually
#      observed the run.
#
# Usage: scripts/check_ingest.sh [build-dir]   (default: build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
. "$ROOT/scripts/lib.sh"
BUILD="$ROOT/${1:-build}"
make_work_dir

cmake -S "$ROOT" -B "$BUILD" >/dev/null
cmake --build "$BUILD" -j "$(nproc)" --target asteria-cli

CLI="$BUILD/tools/asteria-cli"

"$CLI" fw-gen "$WORK/drop" 4 21 >/dev/null
"$CLI" gen 3 > "$WORK/query.mc"
# First function of the generated package is the query.
FN="$(first_fn "$WORK/query.mc")"
[ -n "$FN" ] || { echo "FAIL: no function in generated query program" >&2; exit 1; }

for threads in 1 8; do
  "$CLI" ingest "$WORK/idx$threads" --drop_dir="$WORK/drop" \
         --threads=$threads --metrics_out="$WORK/m$threads.json" \
         > "$WORK/ingest$threads.out"
done

# 1. Published artifacts are byte-identical across thread counts.
cmp "$WORK/idx1/manifest.mani" "$WORK/idx8/manifest.mani" \
  || { echo "FAIL: manifest differs between --threads=1 and --threads=8" >&2
       exit 1; }
for shard in "$WORK"/idx1/shard-*.idx; do
  cmp "$shard" "$WORK/idx8/$(basename "$shard")" \
    || { echo "FAIL: $(basename "$shard") differs between thread counts" >&2
         exit 1; }
done
diff "$WORK/ingest1.out" "$WORK/ingest8.out" \
  || { echo "FAIL: ingest summary differs between thread counts" >&2; exit 1; }

# 2. Reads and the delta vuln sweep are identical too.
# The outputs quote the directory they read from; rewrite both to a common
# placeholder so the diff compares content, not paths.
for threads in 1 8; do
  "$CLI" index-info "$WORK/idx$threads/manifest.mani" \
    | sed "s|$WORK/idx$threads|IDX|g" > "$WORK/info$threads.out"
  "$CLI" index-query "$WORK/idx$threads/manifest.mani" "$WORK/query.mc" \
         "$FN" x86 5 --threads=$threads \
    | sed "s|$WORK/idx$threads|IDX|g" > "$WORK/query$threads.out"
  "$CLI" delta-search "$WORK/idx$threads" 0.7 --threads=$threads \
    | sed "s|$WORK/idx$threads|IDX|g" > "$WORK/delta$threads.out"
done
diff "$WORK/info1.out" "$WORK/info8.out" \
  || { echo "FAIL: index-info differs between thread counts" >&2; exit 1; }
diff "$WORK/query1.out" "$WORK/query8.out" \
  || { echo "FAIL: sharded index-query differs between thread counts" >&2
       exit 1; }
diff "$WORK/delta1.out" "$WORK/delta8.out" \
  || { echo "FAIL: delta-search differs between thread counts" >&2; exit 1; }
cmp "$WORK/idx1/manifest.mani" "$WORK/idx8/manifest.mani" \
  || { echo "FAIL: manifests diverged after delta-search" >&2; exit 1; }

# 3. Metrics: the deterministic slice (scripts/lib.sh) must be identical
# across thread counts.
metrics_det_slice "$WORK/m1.json" > "$WORK/m1.det"
metrics_det_slice "$WORK/m8.json" > "$WORK/m8.det"
if ! diff -u "$WORK/m1.det" "$WORK/m8.det"; then
  echo "FAIL: deterministic metrics slice differs between thread counts" >&2
  exit 1
fi

grep -qE '"ingest\.images": 4' "$WORK/m1.json" \
  || { echo "FAIL: ingest.images counter did not observe the 4 images" >&2
       exit 1; }
grep -qE '"ingest\.functions_encoded": [1-9]' "$WORK/m1.json" \
  || { echo "FAIL: ingest.functions_encoded counter is zero or missing" >&2
       exit 1; }
grep -qE '"ingest\.shards": 4' "$WORK/m1.json" \
  || { echo "FAIL: ingest.shards gauge is not 4" >&2; exit 1; }

echo "OK: ingest artifacts, queries, and metrics deterministic across thread counts"
