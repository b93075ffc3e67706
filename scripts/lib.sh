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
