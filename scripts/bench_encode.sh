#!/usr/bin/env bash
# Encode-kernel smoke benchmark: A/B-times the autograd-tape path against
# the fused TreeLstmFastEncoder (docs/PERFORMANCE.md) on a small generated
# corpus at the paper's embedding size with a widened hidden state, asserts
# the two produce bitwise-identical embeddings, and fails unless the fused
# kernel is at least MIN_SPEEDUP x faster single-threaded. Writes the
# machine-readable result to BENCH_encode.json at the repo root and the
# run's metrics snapshot (docs/OBSERVABILITY.md) to
# <build>/bench_out/metrics_encode.json, then sanity-checks the snapshot:
# the bench must have actually driven the fused kernel (nonzero encode.fast,
# and more fused encodes than tape encodes — the tape path runs only as the
# A/B reference).
#
# Usage: scripts/bench_encode.sh [build-dir]   (default: build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
. "$ROOT/scripts/lib.sh"
BUILD="$ROOT/${1:-build}"
MIN_SPEEDUP="${MIN_SPEEDUP:-3}"
METRICS="$BUILD/bench_out/metrics_encode.json"

cmake -S "$ROOT" -B "$BUILD" >/dev/null
cmake --build "$BUILD" -j "$(nproc)" --target bench_fig10b_offline_time

"$BUILD/bench/bench_fig10b_offline_time" \
    --packages=4 --hidden=64 --quiet=1 \
    --out="$BUILD/bench_out" \
    --encode_json="$ROOT/BENCH_encode.json" \
    --min_encode_speedup="$MIN_SPEEDUP" \
    --metrics_out="$METRICS"

FAST="$(counter "$METRICS" 'encode\.fast')"
TAPE="$(counter "$METRICS" 'encode\.tape')"
if [ "$FAST" -eq 0 ]; then
  echo "FAIL: metrics snapshot shows zero fused encodes (encode.fast)" >&2
  exit 1
fi
if [ "$FAST" -le "$TAPE" ]; then
  echo "FAIL: expected more fused encodes than tape encodes, got fast=$FAST tape=$TAPE" >&2
  exit 1
fi

echo
cat "$ROOT/BENCH_encode.json"
echo "metrics snapshot: $METRICS (encode.fast=$FAST, encode.tape=$TAPE)"
echo "OK: fused encode kernel >= ${MIN_SPEEDUP}x vs tape, bitwise identical"
