#!/usr/bin/env bash
# Builds the perf benchmark from source and runs it (bench/perf/README.md).
#
#   bench/perf/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last stdout line is its JSON result
#   bench/perf/run.sh --all [--seed N] [--seconds S]
#       every workload once, untraced
#   bench/perf/run.sh --traced [--seed N] [--seconds S]
#       every workload untraced then traced: layer tables + tracing overhead
#   bench/perf/run.sh --calibrate [--runs N] [--seconds S]
#       noise calibration: N runs per workload in alternating order, writes
#       bench/perf/baseline.json and the bounds in BENCHMARK.json
#   bench/perf/run.sh --sweep [--seed N]
#       query-topk latency against offered load, 50..400 qps (not gated)
#   bench/perf/run.sh --smoke
#       all four workloads at toy sizes, correctness only
#
# Builds into .bench_build/perf under the source root; generated inputs are
# cached in .bench_build/perf/inputs, results land in .bench_build/perf/results.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
HERE="$ROOT/bench/perf"
BUILD="$ROOT/.bench_build/perf"

if [ ! -f "$ROOT/src/CMakeLists.txt" ] || [ ! -f "$ROOT/tools/asteria_serve.cpp" ]; then
  echo "run.sh: no asteria sources under $ROOT; nothing to benchmark" >&2
  exit 1
fi

# Keep the compiler's temporary files inside the tree as well.
export TMPDIR="$BUILD/tmp"
mkdir -p "$TMPDIR"
if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  cmake -S "$HERE" -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$BUILD" -j "$(nproc)" --target bench_perf asteria-serve >&2

COMMIT=unknown
if TOP="$(git -C "$ROOT" rev-parse --show-toplevel 2>/dev/null)" && [ "$TOP" = "$ROOT" ]; then
  COMMIT="$(git -C "$ROOT" rev-parse HEAD)"
  git -C "$ROOT" diff --quiet HEAD -- 2>/dev/null || COMMIT="$COMMIT-dirty"
fi

COMMON=(--serve_bin "$BUILD/asteria-serve" --work_dir "$BUILD/work"
        --cache_dir "$BUILD/inputs" --results_dir "$BUILD/results"
        --commit "$COMMIT")

case "${1:-}" in
  --smoke)
    exec "$BUILD/bench_perf" --smoke --serve_bin "$BUILD/asteria-serve" \
      --work_dir "$BUILD/work"
    ;;
  --sweep)
    shift
    exec "$BUILD/bench_perf" --workload query-topk --sweep "${COMMON[@]}" "$@"
    ;;
  --all|--traced|--calibrate)
    MODE="${1#--}"
    shift
    exec python3 "$HERE/ledger.py" "$MODE" --bin "$BUILD/bench_perf" \
      --root "$ROOT" "$@" -- "${COMMON[@]}"
    ;;
  *)
    exec "$BUILD/bench_perf" "${COMMON[@]}" "$@"
    ;;
esac
