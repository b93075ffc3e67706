#!/usr/bin/env bash
# Chaos gate for the overload / request-lifecycle layer (docs/ROBUSTNESS.md
# "Overload & request lifecycle"). Two halves:
#
#   1. The failpoint-driven chaos matrix in serve_test — admission-control
#      shed, deadline expiry at dequeue, disconnect-epoch and explicit
#      cancellation, slow-writer io timeout, drain-window expiry, and the
#      retrying client — under BOTH TSan and ASan. The overload test
#      internally sweeps --workers at 1/2/8 and asserts every answered
#      query is bitwise-identical to direct SearchIndex::TopK while every
#      shed query gets kOverloaded.
#
#   2. An end-to-end daemon session over the new flags:
#      a. a well-behaved session (deadline'd, retrying client) against
#         --queue_high_water/--io_timeout_ms/--max_conns/--drain_timeout_ms
#         answers bitwise-identically to the direct index query, keeps every
#         chaos counter (serve.shed/cancelled/deadline_exceeded/io_timeouts/
#         conn_rejected/drain_dropped) at zero, and its deterministic
#         metrics slice is identical at --workers=1 and --workers=8;
#      b. SIGTERM drains and exits 0, and a restarted daemon on the same
#         socket serves again;
#      c. with serve.stall_worker armed and --queue_high_water=1, a burst of
#         concurrent no-retry clients splits into bounded-time kOverloaded
#         rejections plus correct answers — never hangs, never drops
#         silently — and a --deadline_ms=1 query is refused as
#         deadline-exceeded without being scored; serve.shed and
#         serve.deadline_exceeded account for exactly what the clients saw.
#
# Usage: scripts/check_chaos.sh [build-dir]   (default: build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
. "$ROOT/scripts/lib.sh"
BUILD="$ROOT/${1:-build}"
make_work_dir

CHAOS_FILTER='ServeTest.OverloadSheds*:ServeTest.ExpiredAtDequeue*'
CHAOS_FILTER+=':ServeTest.DisconnectCancels*:ServeTest.ExplicitCancel*'
CHAOS_FILTER+=':ServeTest.SlowWriter*:ServeTest.DrainWindow*'
CHAOS_FILTER+=':ServeTest.RetryBackoff*:ServeTest.ClientReconnects*'
CHAOS_FILTER+=':ServeTest.Mutations*:ServeTest.HealthProbe*'
CHAOS_FILTER+=':ServeTest.MaxConns*:MpmcQueueTest.TryPush*'

# -- 1. Sanitized chaos matrix ----------------------------------------------

for sanitizer in thread address; do
  echo "== check_chaos: $sanitizer chaos matrix =="
  san_build "$sanitizer" serve_test util_test >/dev/null
  "$SAN_BUILD/tests/serve_test" --gtest_brief=1 \
      --gtest_filter="$CHAOS_FILTER"
  "$SAN_BUILD/tests/util_test" --gtest_brief=1 \
      --gtest_filter="$CHAOS_FILTER"
done

# -- 2. End-to-end daemon session -------------------------------------------

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

# -- 2a. Well-behaved session: parity, zero chaos counters, determinism.
for workers in 1 8; do
  SOCK="$WORK/clean$workers.sock"
  "$SERVE" --socket="$SOCK" --index="$WORK/prog.idx" --workers=$workers \
      --batch_max=4 --queue_high_water=8 --io_timeout_ms=2000 \
      --max_conns=8 --drain_timeout_ms=500 \
      --metrics_out="$WORK/clean$workers.json" \
      >"$WORK/clean$workers.log" 2>&1 &
  SERVE_PID=$!
  await_ping "$SOCK" \
    || { echo "FAIL: daemon (workers=$workers) never answered ping" >&2
         cat "$WORK/clean$workers.log" >&2; exit 1; }
  "$CLI" ctl health --socket="$SOCK" > "$WORK/health$workers.txt" \
    || { echo "FAIL: ctl health failed" >&2; exit 1; }
  grep -q 'draining=0' "$WORK/health$workers.txt" \
    || { echo "FAIL: health says draining on a live daemon" >&2; exit 1; }
  "$CLI" query "$WORK/prog.mc" "$FN1" x86 5 --socket="$SOCK" \
      --deadline_ms=30000 --retries=3 --retry_seed=1 \
      > "$WORK/daemon$workers.txt" \
    || { echo "FAIL: deadline'd retrying query failed" >&2
         cat "$WORK/clean$workers.log" >&2; exit 1; }
  # SIGTERM must drain and exit 0 — the graceful path, not a crash.
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID" \
    || { echo "FAIL: SIGTERM exit was non-zero at workers=$workers" >&2
         cat "$WORK/clean$workers.log" >&2; exit 1; }
  SERVE_PID=""
  if ! diff -u "$WORK/direct.txt" "$WORK/daemon$workers.txt"; then
    echo "FAIL: daemon (workers=$workers) differs from direct TopK" >&2
    exit 1
  fi
  for name in 'serve\.shed' 'serve\.cancelled' 'serve\.deadline_exceeded' \
              'serve\.io_timeouts' 'serve\.conn_rejected' \
              'serve\.drain_dropped'; do
    VALUE="$(counter "$WORK/clean$workers.json" "$name")"
    [ "$VALUE" -eq 0 ] \
      || { echo "FAIL: $name is $VALUE on a well-behaved session" >&2
           exit 1; }
  done
done
metrics_det_slice "$WORK/clean1.json" serve > "$WORK/clean1.det"
metrics_det_slice "$WORK/clean8.json" serve > "$WORK/clean8.det"
if ! diff -u "$WORK/clean1.det" "$WORK/clean8.det"; then
  echo "FAIL: deterministic metrics slice differs across worker counts" >&2
  exit 1
fi

# -- 2b. Restart on the same socket serves again.
SOCK="$WORK/restart.sock"
"$SERVE" --socket="$SOCK" --index="$WORK/prog.idx" --workers=1 \
    >"$WORK/restart.log" 2>&1 &
SERVE_PID=$!
await_ping "$SOCK" || { echo "FAIL: restarted daemon is deaf" >&2; exit 1; }
"$CLI" query "$WORK/prog.mc" "$FN1" x86 5 --socket="$SOCK" --retries=2 \
    > "$WORK/restart.txt"
diff -u "$WORK/direct.txt" "$WORK/restart.txt" >/dev/null \
  || { echo "FAIL: post-restart results differ from direct TopK" >&2
       exit 1; }
kill -TERM "$SERVE_PID"; wait "$SERVE_PID"; SERVE_PID=""

# -- 2c. Forced overload: shed is explicit, bounded, and accounted for.
SOCK="$WORK/storm.sock"
"$SERVE" --socket="$SOCK" --index="$WORK/prog.idx" --workers=1 \
    --batch_max=1 --queue_high_water=1 --drain_timeout_ms=2000 \
    --failpoints=serve.stall_worker=always \
    --metrics_out="$WORK/storm.json" >"$WORK/storm.log" 2>&1 &
SERVE_PID=$!
await_ping "$SOCK" || { echo "FAIL: stalled daemon is deaf" >&2; exit 1; }

declare -a STORM_PIDS=()
for i in $(seq 6); do
  "$CLI" query "$WORK/prog.mc" "$FN1" x86 5 --socket="$SOCK" --retries=0 \
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
    grep -q 'overloaded' "$WORK/storm$i.err" \
      || { echo "FAIL: a failed query did not report overload:" >&2
           cat "$WORK/storm$i.err" >&2; exit 1; }
    SHED=$((SHED + 1))
  fi
done
[ "$ANSWERED" -ge 1 ] && [ "$SHED" -ge 1 ] \
  || { echo "FAIL: storm split answered=$ANSWERED shed=$SHED (want both)" >&2
       exit 1; }

# An already-exhausted deadline is refused at dequeue, never scored.
if "$CLI" query "$WORK/prog.mc" "$FN1" x86 5 --socket="$SOCK" \
    --deadline_ms=1 --retries=0 > /dev/null 2> "$WORK/deadline.err"; then
  echo "FAIL: a 1 ms deadline against a stalled daemon succeeded" >&2
  exit 1
fi
grep -qi 'deadline' "$WORK/deadline.err" \
  || { echo "FAIL: deadline failure not reported as such:" >&2
       cat "$WORK/deadline.err" >&2; exit 1; }

kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "FAIL: stalled daemon died dirty" >&2; exit 1; }
SERVE_PID=""
STORM_SHED="$(counter "$WORK/storm.json" 'serve\.shed')"
[ "$STORM_SHED" -eq "$SHED" ] \
  || { echo "FAIL: serve.shed=$STORM_SHED but clients saw $SHED" >&2
       exit 1; }
DDL="$(counter "$WORK/storm.json" 'serve\.deadline_exceeded')"
[ "$DDL" -ge 1 ] \
  || { echo "FAIL: serve.deadline_exceeded is zero after an expiry" >&2
       exit 1; }

echo "OK: chaos matrix clean under both sanitizers; shed/deadline/drain" \
     "behavior verified end to end"
