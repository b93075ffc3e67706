#!/usr/bin/env bash
# The pre-PR gate: one command that runs everything CI runs. In order:
#   1. the tier-1 build + ctest suite (the floor no change may lower),
#   2. the concurrency suites under TSan (check_sanitize.sh thread),
#   3. the same suites under ASan + UBSan (check_sanitize.sh address),
#   4. the metrics determinism gate (check_metrics.sh),
#   5. the serving determinism gate (check_serve.sh),
#   6. the streaming-ingest determinism gate (check_ingest.sh),
#   7. the overload/request-lifecycle chaos gate (check_chaos.sh),
#   8. the per-request tracing gate (check_trace.sh),
#   9. the perf harness smoke run (bench/perf/run.sh --smoke): all four
#      workloads at toy sizes with their output checks, so the harness that
#      owns the timing ratios builds and runs before every change.
# Each gate reuses its own build directory (gate 9: the gitignored
# .bench_build/perf), so a warm tree pays mostly test time. Fail-fast: the
# first failing gate stops the run; either way a per-gate PASS/FAIL/skipped
# summary table prints at the end, so a red run still says exactly where it
# died.
#
# Usage: scripts/check_all.sh [build-dir]   (default: build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-build}"
BUILD="$ROOT/$BUILD_DIR"

GATE_NAMES=()
GATE_RESULTS=()

summary() {
  echo
  echo "== check_all summary =="
  printf '%-22s %s\n' "gate" "result"
  printf '%-22s %s\n' "----" "------"
  for i in "${!GATE_NAMES[@]}"; do
    printf '%-22s %s\n' "${GATE_NAMES[$i]}" "${GATE_RESULTS[$i]}"
  done
}
trap summary EXIT

# Runs one gate and records PASS/FAIL. Fail-fast: a failing gate stops the
# run; the EXIT trap still prints the table, with every unreached gate
# marked skipped.
REMAINING_GATES=("build+ctest" "sanitize(thread)" "sanitize(address)"
                 "metrics" "serve" "ingest" "chaos" "trace" "perf-smoke")
gate() {
  local name="$1"
  shift
  echo "== check_all: $name =="
  GATE_NAMES+=("$name")
  REMAINING_GATES=("${REMAINING_GATES[@]:1}")
  if "$@"; then
    GATE_RESULTS+=("PASS")
  else
    GATE_RESULTS+=("FAIL")
    for remaining in "${REMAINING_GATES[@]+"${REMAINING_GATES[@]}"}"; do
      GATE_NAMES+=("$remaining")
      GATE_RESULTS+=("skipped")
    done
    exit 1
  fi
}

tier1() {
  cmake -S "$ROOT" -B "$BUILD" >/dev/null \
    && cmake --build "$BUILD" -j "$(nproc)" \
    && ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"
}

gate "build+ctest" tier1
gate "sanitize(thread)" "$ROOT/scripts/check_sanitize.sh" thread
gate "sanitize(address)" "$ROOT/scripts/check_sanitize.sh" address
gate "metrics" "$ROOT/scripts/check_metrics.sh" "$BUILD_DIR"
gate "serve" "$ROOT/scripts/check_serve.sh" "$BUILD_DIR"
gate "ingest" "$ROOT/scripts/check_ingest.sh" "$BUILD_DIR"
gate "chaos" "$ROOT/scripts/check_chaos.sh" "$BUILD_DIR"
gate "trace" "$ROOT/scripts/check_trace.sh" "$BUILD_DIR"
gate "perf-smoke" "$ROOT/bench/perf/run.sh" --smoke

echo
echo "OK: all gates green"
