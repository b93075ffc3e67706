#!/usr/bin/env bash
# Per-request tracing gate (docs/OBSERVABILITY.md "Per-request tracing").
# Three halves:
#
#   1. The tracing test matrix — request-log ring (seqlock, wrap, concurrent
#      appenders), trace-id echo (and the client failing a reply that does
#      not echo it), record completeness (one record per frame, unknown
#      types included, and under shed/deadline/cancel at workers 1/2/8),
#      the health probe's totals and latency percentiles, and the
#      slow-query capture — under BOTH TSan and ASan+UBSan: the wait-free
#      Append path must be provably race-free.
#
#   2. An end-to-end chaos storm: a stalled, admission-limited daemon takes
#      concurrent no-retry clients plus a doomed --deadline_ms=1 query, every
#      client dumps its per-attempt records (--trace_out), the daemon dumps
#      its ring on SIGTERM (--request_log_out). Every client record whose
#      outcome implies a daemon reply (ok / shed / deadline_exceeded /
#      shutting_down) must join EXACTLY ONE server record by its 16-hex
#      trace id — no orphans, no duplicates — and the storm must exercise
#      ok, shed, and deadline joins at least once each.
#
#   3. Tracing must not perturb determinism: the same scripted session with
#      the full tracing stack armed (--slow_query_ms=0, slow log, request
#      ring) yields an identical deterministic metrics slice at --workers=1
#      and --workers=2, the slow log parses cleanly, and `ctl top` answers.
#
# Usage: scripts/check_trace.sh [build-dir]   (default: build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
. "$ROOT/scripts/lib.sh"
BUILD="$ROOT/${1:-build}"
make_work_dir

TRACE_FILTER='RequestLogTest.*:ServeTest.TraceIdIsEchoed*'
TRACE_FILTER+=':ServeTest.ClientRejectsARepliedTraceId*'
TRACE_FILTER+=':ServeTest.ClientAndServerRecords*'
TRACE_FILTER+=':ServeTest.RequestLogComplete*'
TRACE_FILTER+=':ServeTest.HealthProbeReportsCumulative*'
TRACE_FILTER+=':ServeTest.SlowQueryCapture*'

# -- 1. Sanitized tracing matrix --------------------------------------------

for sanitizer in thread address; do
  echo "== check_trace: $sanitizer tracing matrix =="
  san_build "$sanitizer" serve_test request_log_test >/dev/null
  "$SAN_BUILD/tests/request_log_test" --gtest_brief=1
  "$SAN_BUILD/tests/serve_test" --gtest_brief=1 \
      --gtest_filter="$TRACE_FILTER"
done

# -- Shared fixtures ---------------------------------------------------------

cmake -S "$ROOT" -B "$BUILD" >/dev/null
cmake --build "$BUILD" -j "$(nproc)" --target asteria-cli asteria-serve \
      >/dev/null
CLI="$BUILD/tools/asteria-cli"
SERVE="$BUILD/tools/asteria-serve"

"$CLI" gen 42 > "$WORK/prog.mc"
FN1="$(first_fn "$WORK/prog.mc")"
[ -n "$FN1" ] \
  || { echo "FAIL: no function in the generated program" >&2; exit 1; }
"$CLI" index-build "$WORK/prog.mc" "$WORK/prog.idx" >/dev/null 2>&1
"$CLI" index-query "$WORK/prog.idx" "$WORK/prog.mc" "$FN1" x86 5 \
    > "$WORK/direct.txt" 2>/dev/null

# Record dumps are CRC-framed "SLOW <crc> <json>" lines with a fixed key
# order; flatten each to "trace op outcome" for the joins.
records() {
  grep -hoE '"trace":"[0-9a-f]{16}","op":"[^"]*","outcome":"[^"]*"' "$@" \
    | sed -E 's/"trace":"([0-9a-f]+)","op":"([^"]*)","outcome":"([^"]*)"/\1 \2 \3/'
}

# -- 2. Chaos storm: 1:1 client<->server join by trace id --------------------

echo "== check_trace: chaos storm join =="
SOCK="$WORK/storm.sock"
"$SERVE" --socket="$SOCK" --index="$WORK/prog.idx" --workers=1 \
    --batch_max=1 --queue_high_water=1 --drain_timeout_ms=2000 \
    --failpoints=serve.stall_worker=always \
    --request_log_out="$WORK/server.jsonl" >"$WORK/storm.log" 2>&1 &
SERVE_PID=$!
await_ping "$SOCK" || { echo "FAIL: stalled daemon is deaf" >&2; exit 1; }

declare -a STORM_PIDS=()
for i in $(seq 6); do
  "$CLI" query "$WORK/prog.mc" "$FN1" x86 5 --socket="$SOCK" --retries=0 \
      --trace_out="$WORK/client$i.jsonl" \
      > "$WORK/storm$i.out" 2> "$WORK/storm$i.err" &
  STORM_PIDS+=($!)
done
ANSWERED=0
SHED=0
for i in $(seq 6); do
  if wait "${STORM_PIDS[$((i - 1))]}"; then
    diff -u "$WORK/direct.txt" "$WORK/storm$i.out" >/dev/null \
      || { echo "FAIL: an answered query under overload was wrong" >&2
           exit 1; }
    ANSWERED=$((ANSWERED + 1))
  else
    SHED=$((SHED + 1))
  fi
done
[ "$ANSWERED" -ge 1 ] && [ "$SHED" -ge 1 ] \
  || { echo "FAIL: storm split answered=$ANSWERED shed=$SHED (want both)" >&2
       exit 1; }
# A 1 ms deadline against a 250 ms stall must come back deadline-exceeded —
# and that refusal must be traced on both sides too.
if "$CLI" query "$WORK/prog.mc" "$FN1" x86 5 --socket="$SOCK" \
    --deadline_ms=1 --retries=0 --trace_out="$WORK/client_ddl.jsonl" \
    > /dev/null 2> "$WORK/ddl.err"; then
  echo "FAIL: a 1 ms deadline against a stalled daemon succeeded" >&2
  exit 1
fi
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "FAIL: storm daemon died dirty" >&2; exit 1; }
SERVE_PID=""

records "$WORK"/client*.jsonl > "$WORK/client.rec"
records "$WORK/server.jsonl" > "$WORK/server.rec"
[ -s "$WORK/server.rec" ] \
  || { echo "FAIL: --request_log_out dump is empty or unparseable" >&2
       exit 1; }
# The join: every client record whose outcome implies the daemon answered
# must match exactly one server record on its nonzero trace id.
awk '
  NR == FNR { server[$1]++; next }
  $2 !~ /^client\./ { next }
  $3 != "ok" && $3 != "shed" && $3 != "deadline_exceeded" \
      && $3 != "shutting_down" { next }
  {
    joinable++
    seen[$3]++
    if ($1 == "0000000000000000") {
      print "FAIL: client record with a zero trace id (" $2 " " $3 ")"
      bad = 1
    } else if (server[$1] != 1) {
      print "FAIL: trace " $1 " (" $2 " " $3 ") joins " server[$1] + 0 \
            " server records, want exactly 1"
      bad = 1
    }
  }
  END {
    if (joinable == 0) { print "FAIL: no joinable client records"; bad = 1 }
    if (seen["ok"] < 1)   { print "FAIL: no ok join exercised"; bad = 1 }
    if (seen["shed"] < 1) { print "FAIL: no shed join exercised"; bad = 1 }
    if (seen["deadline_exceeded"] < 1) {
      print "FAIL: no deadline join exercised"; bad = 1
    }
    exit bad
  }
' "$WORK/server.rec" "$WORK/client.rec" \
  || { echo "FAIL: client<->server trace join broken" >&2; exit 1; }

# -- 3. Determinism with the tracing stack armed -----------------------------

echo "== check_trace: determinism with tracing armed =="

for workers in 1 2; do
  SOCK="$WORK/det$workers.sock"
  "$SERVE" --socket="$SOCK" --index="$WORK/prog.idx" --workers=$workers \
      --batch_max=4 \
      --slow_query_ms=0 --slow_log="$WORK/slow$workers.jsonl" \
      --metrics_out="$WORK/m$workers.json" \
      --request_log_out="$WORK/ring$workers.jsonl" \
      >"$WORK/det$workers.log" 2>&1 &
  SERVE_PID=$!
  await_ping "$SOCK" \
    || { echo "FAIL: traced daemon (workers=$workers) never answered" >&2
         cat "$WORK/det$workers.log" >&2; exit 1; }
  {
    "$CLI" query "$WORK/prog.mc" "$FN1" x86 5 --socket="$SOCK"
    "$CLI" query "$WORK/prog.mc" "$FN1" ARM 3 --socket="$SOCK"
    "$CLI" query "$WORK/prog.mc" "$FN1" PPC 7 --socket="$SOCK"
  } > "$WORK/out$workers.txt" \
    || { echo "FAIL: traced session failed at workers=$workers" >&2
         cat "$WORK/det$workers.log" >&2; exit 1; }
  "$CLI" ctl top --socket="$SOCK" > "$WORK/top$workers.txt" \
    || { echo "FAIL: ctl top failed at workers=$workers" >&2; exit 1; }
  grep -q 'p50_ms=' "$WORK/top$workers.txt" \
    && grep -q 'qps=' "$WORK/top$workers.txt" \
    || { echo "FAIL: ctl top output incomplete:" >&2
         cat "$WORK/top$workers.txt" >&2; exit 1; }
  "$CLI" ctl shutdown --socket="$SOCK" >/dev/null \
    || { echo "FAIL: ctl shutdown failed" >&2; exit 1; }
  wait "$SERVE_PID"
  SERVE_PID=""
  # Every answered query spilled to the slow log (threshold 0), parseably.
  SLOW_OK="$(records "$WORK/slow$workers.jsonl" \
             | awk '$2 == "serve.topk" && $3 == "ok"' | wc -l)"
  [ "$SLOW_OK" -ge 3 ] \
    || { echo "FAIL: slow log holds $SLOW_OK ok records, want >= 3" >&2
         exit 1; }
done

if ! diff -u "$WORK/out1.txt" "$WORK/out2.txt"; then
  echo "FAIL: query results differ between --workers=1 and --workers=2" >&2
  exit 1
fi
metrics_det_slice "$WORK/m1.json" serve > "$WORK/m1.det"
metrics_det_slice "$WORK/m2.json" serve > "$WORK/m2.det"
if ! diff -u "$WORK/m1.det" "$WORK/m2.det"; then
  echo "FAIL: deterministic metrics slice differs with tracing armed" >&2
  exit 1
fi

echo "OK: tracing matrix sanitizer-clean; client<->server records join 1:1" \
     "by trace id; determinism slice unchanged with tracing armed"
