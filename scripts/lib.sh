# Shared helpers for the gate scripts. Source it; do not run it:
#
#   . "$(dirname "$0")/lib.sh"

# metrics_det_slice SNAPSHOT [serve]
#
# Prints the deterministic slice of an --metrics_out snapshot JSON: it drops
# the latency-valued (machine- and schedule-dependent) fields, so what is
# left must not depend on the thread or worker count:
#   - sum/min/max/p50/p95/p99 of every histogram (nanos histograms time
#     real work),
#   - total_seconds/mean_seconds of every span,
#   - per-bucket tallies of *_nanos histograms (observation values are
#     timings, so bucket placement is nondeterministic; counts are not).
# Counter values, histogram observation counts, value-deterministic bucket
# tallies, span counts and pipeline rows survive.
#
# The `serve` mode also drops the whole span profile and every batch-shaped
# (*batch*) histogram: how a daemon's requests coalesce depends on arrival
# timing by design, and so do the spans its batches open.
metrics_det_slice() {
  awk -v mode="${2:-}" '
    mode == "serve" && /^  "spans": \{$/              { in_spans = 1 }
    in_spans && /^  \},?$/                            { in_spans = 0; next }
    in_spans                                          { next }
    mode == "serve" && /^    "[^"]*batch[^"]*": \{$/  { in_batch = 1 }
    in_batch && /^    \},?$/                          { in_batch = 0; next }
    in_batch                                          { next }
    /^    "[a-z_.]*_nanos": \{$/ { in_nanos = 1 }
    in_nanos && /^    \}/        { in_nanos = 0 }
    /"(sum|min|max|p50|p95|p99|total_seconds|mean_seconds)":/ { next }
    in_nanos && /"buckets":/     { next }
    { print }
  ' "$1"
}

# make_work_dir
#
# Creates the scratch directory $WORK and arms an EXIT trap that deletes
# it, first stopping the daemon whose pid is in $SERVE_PID if one is still
# running. A script sets SERVE_PID after starting asteria-serve in the
# background and clears it once it has waited for the daemon itself.
make_work_dir() {
  WORK="$(mktemp -d)"
  SERVE_PID=""
  trap cleanup_work_dir EXIT
}

cleanup_work_dir() {
  if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}

# first_fn FILE [N]
#
# Prints the name of the Nth (default: first) `int f(` definition in the
# MiniC program FILE, or nothing when FILE has fewer than N of them.
first_fn() {
  { grep -oE '^int [A-Za-z_][A-Za-z0-9_]*\(' "$1" || true; } \
    | sed -nE "${2:-1}s/^int ([A-Za-z0-9_]+)\(/\1/p"
}

# await_ping SOCK
#
# Pings the daemon on SOCK through $CLI (asteria-cli) every 0.1 s for up
# to 5 s. Returns non-zero if it never answers.
await_ping() {
  for _ in $(seq 50); do
    if "$CLI" ctl ping --socket="$1" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  return 1
}

# counter JSON NAME
#
# Prints the value of counter NAME (an ERE, e.g. 'serve\.shed') from a
# --metrics_out snapshot, or 0 when the snapshot lacks it.
counter() {
  grep -oE "\"$2\": [0-9]+" "$1" | grep -oE '[0-9]+$' || echo 0
}

# san_build thread|address TARGET...
#
# Configures $ROOT/build-tsan or $ROOT/build-asan with the sanitizer on
# (RelWithDebInfo) and warnings fatal (-Werror: a sanitizer build that
# warns, e.g. -Wtsan about a construct TSan cannot model, fails), builds
# TARGET... there, sets SAN_BUILD to that directory, and exports the
# sanitizer options that turn any report into a non-zero exit. The address
# build also carries UBSan with no recovery, so every script sharing
# build-asan configures it the same way.
san_build() {
  local sanitizer="$1" flags="-Werror"
  shift
  case "$sanitizer" in
    thread) SAN_BUILD="$ROOT/build-tsan" ;;
    address)
      SAN_BUILD="$ROOT/build-asan"
      flags="$flags -fsanitize=undefined -fno-sanitize-recover=undefined"
      ;;
    *) echo "san_build: unknown sanitizer '$sanitizer'" >&2; return 2 ;;
  esac
  export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
  export ASAN_OPTIONS="halt_on_error=1 detect_leaks=0"
  export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1"
  cmake -S "$ROOT" -B "$SAN_BUILD" -DASTERIA_SANITIZE="$sanitizer" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCMAKE_CXX_FLAGS="$flags" \
        >/dev/null
  cmake --build "$SAN_BUILD" -j "$(nproc)" --target "$@"
}
