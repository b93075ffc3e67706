#!/usr/bin/env bash
# Builds the concurrency-sensitive targets under a sanitizer and runs the
# tests that exercise util::ThreadPool and the parallel SearchIndex/corpus
# paths. The determinism tests assert parallel == serial bitwise; running
# them under TSan additionally proves the parallel sections are data-race
# free. robustness_test's corruption sweep (byte flips and truncations of
# every container kind) runs here under ASan/UBSan so "fails cleanly" also
# means no out-of-bounds read on adversarial inputs (docs/ROBUSTNESS.md).
# The address build also carries UBSan (-fsanitize=undefined, no
# recovery), so the same sweeps fail on signed overflow, bad shifts or
# out-of-range conversions — e.g. a hostile wire deadline_ms that would
# overflow the daemon's clock arithmetic unclamped.
# metrics_test hammers the striped counters/histograms and trace spans from
# ParallelFor workers while snapshots race the writers (docs/OBSERVABILITY.md).
# serve_test runs the asteria-serve daemon in-process — hostile-frame sweep,
# concurrent clients against worker pools, and snapshot swap under load — so
# ASan covers the wire parsers on adversarial bytes and TSan covers the
# reader/queue/worker handoff and the atomic snapshot publish
# (docs/SERVING.md). ingest_test runs the streaming-ingest pipeline —
# sharded loads at several thread counts, AppendTo compaction, the
# crash-publish failpoint matrix, and an in-process daemon reload poke —
# under both sanitizers (docs/ARCHITECTURE.md "Incremental ingest").
# search_index_test runs the packed/pruned TopK differential battery —
# blocked-GEMM sweep vs brute-force reference at threads 1/2/8 on monolithic
# and sharded indexes — so TSan covers the lazy side-index rebuild and the
# shard-local heap merge (docs/PERFORMANCE.md "Sub-linear TopK").
# train_test runs the fused training kernel against the tape oracle, so
# ASan+UBSan check its arena indexing (node id x h, position x width, the
# 6h x n gradient matrix) on every config, a single-node tree and a
# 2,000-node LCRS chain (docs/PERFORMANCE.md "The training path").
# firmware_test runs the extraction recipe (decompiler::ExtractModule), the
# shared isolated encode loop (core::EncodeIsolated) and the SearchIndex-
# backed Table IV search against its scalar oracle, so both sanitizers see
# the §V path end to end.
# CI-friendly: exits non-zero on build failure, test failure, or any
# sanitizer report.
#
# Usage: scripts/check_sanitize.sh [thread|address]   (default: thread)
set -euo pipefail

SANITIZER="${1:-thread}"
case "$SANITIZER" in
  thread|address) ;;
  *) echo "usage: $0 [thread|address]" >&2; exit 2 ;;
esac

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
. "$ROOT/scripts/lib.sh"

TESTS=(util_test determinism_test core_test dataset_test store_test
       search_index_test robustness_test fast_encoder_test metrics_test
       serve_test ingest_test train_test firmware_test)
# san_build (scripts/lib.sh) also exports the halt_on_error options: any
# sanitizer report is a non-zero exit even if the race would not otherwise
# crash the test.
san_build "$SANITIZER" "${TESTS[@]}"

for test in "${TESTS[@]}"; do
  echo "== $SANITIZER: $test =="
  "$SAN_BUILD/tests/$test" --gtest_brief=1
done

echo "OK: all concurrency tests clean under ${SANITIZER} sanitizer"
