#!/usr/bin/env bash
# Serving smoke gate (docs/SERVING.md): runs the same scripted client
# session — ping, top-k and reload control frames, more queries, shutdown —
# against an asteria-serve daemon at --workers=1 and --workers=8, then
#   1. asserts the query output (the ranked hit tables, scores included) is
#      byte-identical across worker counts — batching and dispatch order
#      must never leak into results (same contract check_metrics.sh makes
#      for --threads);
#   2. asserts the deterministic slice of the two --metrics_out snapshots is
#      identical: serve.* counters, per-request histogram observation
#      counts, and the serve.index_size gauge. Batch-shaped histograms
#      (*batch*: how requests coalesced) and the span profile are dropped
#      wholesale — their counts depend on arrival timing by design;
#   3. asserts the snapshot observed the session: nonzero serve.accepted,
#      serve.requests, serve.replies, serve.reloads, serve.reload_shards_read
#      (the INDX reload reads its one file), and zero serve.errors /
#      serve.bad_frames on this well-formed session.
#
# Usage: scripts/check_serve.sh [build-dir]   (default: build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
. "$ROOT/scripts/lib.sh"
BUILD="$ROOT/${1:-build}"
make_work_dir

cmake -S "$ROOT" -B "$BUILD" >/dev/null
cmake --build "$BUILD" -j "$(nproc)" --target asteria-cli asteria-serve

CLI="$BUILD/tools/asteria-cli"
SERVE="$BUILD/tools/asteria-serve"

"$CLI" gen 42 > "$WORK/prog.mc"
FN1="$(first_fn "$WORK/prog.mc")"
FN2="$(first_fn "$WORK/prog.mc" 2)"
[ -n "$FN1" ] && [ -n "$FN2" ] \
  || { echo "FAIL: need two functions in the generated program" >&2; exit 1; }
"$CLI" index-build "$WORK/prog.mc" "$WORK/prog.idx" >/dev/null 2>&1

# One scripted session: queries across ISAs, a reload mid-stream, queries
# after it, clean shutdown. Output goes to $1 for the cross-worker diff.
session() {
  local out="$1" sock="$2"
  {
    "$CLI" ctl ping --socket="$sock"
    "$CLI" query "$WORK/prog.mc" "$FN1" x86 5 --socket="$sock"
    "$CLI" query "$WORK/prog.mc" "$FN2" ARM 3 --socket="$sock"
    "$CLI" query "$WORK/prog.mc" "$FN1" PPC 7 --socket="$sock"
    "$CLI" ctl reload --socket="$sock"
    "$CLI" query "$WORK/prog.mc" "$FN1" x64 5 --socket="$sock"
    "$CLI" query "$WORK/prog.mc" "$FN2" x86 4 --socket="$sock"
    "$CLI" ctl shutdown --socket="$sock"
  } > "$out"
}

for workers in 1 8; do
  SOCK="$WORK/serve$workers.sock"
  "$SERVE" --socket="$SOCK" --index="$WORK/prog.idx" --workers=$workers \
      --batch_max=4 --metrics_out="$WORK/m$workers.json" \
      >"$WORK/serve$workers.log" 2>&1 &
  SERVE_PID=$!
  await_ping "$SOCK" \
    || { echo "FAIL: daemon (workers=$workers) never answered ping" >&2
         cat "$WORK/serve$workers.log" >&2; exit 1; }
  session "$WORK/out$workers.txt" "$SOCK" \
    || { echo "FAIL: session failed at workers=$workers" >&2
         cat "$WORK/serve$workers.log" >&2; exit 1; }
  wait "$SERVE_PID"
  SERVE_PID=""
done

if ! diff -u "$WORK/out1.txt" "$WORK/out8.txt"; then
  echo "FAIL: query results differ between --workers=1 and --workers=8" >&2
  exit 1
fi

# Deterministic metrics slice (scripts/lib.sh, serve mode: the spans
# section and every *batch* histogram go too, since their counts encode
# arrival timing). Everything that survives must be identical across worker
# counts.

metrics_det_slice "$WORK/m1.json" serve > "$WORK/m1.det"
metrics_det_slice "$WORK/m8.json" serve > "$WORK/m8.det"
if ! diff -u "$WORK/m1.det" "$WORK/m8.det"; then
  echo "FAIL: deterministic metrics slice differs between --workers=1 and --workers=8" >&2
  exit 1
fi

for name in 'serve\.accepted' 'serve\.requests' 'serve\.replies' \
            'serve\.reloads' 'serve\.reload_shards_read'; do
  VALUE="$(counter "$WORK/m1.json" "$name")"
  [ "$VALUE" -gt 0 ] \
    || { echo "FAIL: counter $name is zero or missing" >&2; exit 1; }
done
for name in 'serve\.errors' 'serve\.bad_frames'; do
  VALUE="$(counter "$WORK/m1.json" "$name")"
  [ "$VALUE" -eq 0 ] \
    || { echo "FAIL: counter $name is $VALUE on a well-formed session" >&2
         exit 1; }
done

echo "OK: daemon results and metrics deterministic across worker counts"
