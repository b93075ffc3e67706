// Batched TopK throughput: packed/pruned sweep vs per-query brute force.
//
// The workload of §V at firmware scale: one index holding tens of
// thousands of encoded functions, queried in batches. "Brute" is
// oracle::TopKReference (tests/search_oracle.h) — the pre-packing
// implementation that scores every entry one pair at a time. "Batch" is
// TopKBatch — the deduplicated encode columns swept once per batch with
// blocked-GEMM scoring and the exact leaf prune. The bench asserts the
// two return bitwise identical hits (same entries, same score bits, same
// order) before it reports any timing, so the speedup can never come from
// a wrong answer.
//
// Entries are synthetic encodings (AddEncoded, no per-entry model run) so
// a >= 50k-entry index builds in milliseconds; queries are real ASTs
// through the real encoder.
//
// CSV: bench_out/search.csv
//   entries, batch, topk, threads, brute_nanos_per_query,
//   batch_nanos_per_query, speedup, scored_fraction, bitwise_identical
// stdout also carries a machine-readable line for scripts/bench_search.sh:
//   entries=... batch=... brute_nanos_per_query=... batch_nanos_per_query=...
//   speedup=... bitwise_identical=...
#include <cstdio>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "common.h"
#include "core/search_index.h"
#include "search_oracle.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/timer.h"

namespace asteria {
namespace {

ast::Ast QueryTree(int variant) {
  // (block (asg x (num)) (return (add|mul (x) (num+variant)))) — enough
  // structural variety that every query encodes differently.
  ast::Ast tree;
  auto v1 = tree.AddVar("x");
  auto n1 = tree.AddNum(3 + variant % 5);
  auto asg = tree.AddNode(ast::NodeKind::kAsg, {v1, n1});
  auto v2 = tree.AddVar("x");
  auto n2 = tree.AddNum(4 + variant);
  ast::NodeId inner;
  if (variant % 2 == 0) {
    inner = tree.AddNode(ast::NodeKind::kAdd, {v2, n2});
  } else {
    inner = tree.AddNode(ast::NodeKind::kMul, {v2, n2});
  }
  auto ret = tree.AddNode(ast::NodeKind::kReturn, {inner});
  auto block = tree.AddNode(ast::NodeKind::kBlock, {asg, ret});
  tree.set_root(block);
  return tree;
}

int Run(int argc, char** argv) {
  util::Flags flags;
  bench::DefineObservabilityFlags(&flags);
  flags.DefineInt("entries", 50000, "synthetic index size");
  flags.DefineInt("batch", 32, "queries per batch (>= 16 for the gate)");
  flags.DefineInt("topk", 10, "k per query");
  flags.DefineInt("threads", 1, "worker threads for both paths");
  flags.DefineInt("hidden", 16, "encoder embedding/hidden size");
  flags.DefineInt("reps", 3, "timed repetitions of the batched sweep");
  flags.DefineString("out", "bench_out", "CSV output directory");
  if (!flags.Parse(argc, argv)) return 1;
  bench::ApplyCommonFlags(flags);

  const int entries = static_cast<int>(flags.GetInt("entries"));
  const int batch = static_cast<int>(flags.GetInt("batch"));
  const int topk = static_cast<int>(flags.GetInt("topk"));
  const int threads = static_cast<int>(flags.GetInt("threads"));
  const int reps = static_cast<int>(flags.GetInt("reps"));

  core::AsteriaConfig config;
  config.siamese.encoder.embedding_dim =
      static_cast<int>(flags.GetInt("hidden"));
  config.siamese.encoder.hidden_dim = config.siamese.encoder.embedding_dim;
  core::AsteriaModel model(config);

  // Synthetic corpus: spread encodings, callee counts uniform in [0, 64).
  core::SearchIndex index(model, threads);
  util::Rng rng(0xbe5c4a11dULL);
  const int h = config.siamese.encoder.hidden_dim;
  util::Timer build_timer;
  for (int i = 0; i < entries; ++i) {
    nn::Matrix enc(h, 1);
    for (int r = 0; r < h; ++r) {
      enc(r, 0) = static_cast<double>(rng.NextBounded(2000)) / 1000.0 - 1.0;
    }
    if (index.AddEncoded("fn" + std::to_string(i), enc,
                         static_cast<int>(rng.NextBounded(64))) < 0) {
      std::fprintf(stderr, "AddEncoded rejected entry %d\n", i);
      return 1;
    }
  }
  ASTERIA_LOG(Info) << "built synthetic index: " << index.size()
                    << " entries in " << build_timer.ElapsedSeconds() << "s";

  std::vector<core::FunctionFeature> queries(static_cast<std::size_t>(batch));
  for (int q = 0; q < batch; ++q) {
    queries[static_cast<std::size_t>(q)].name = "query" + std::to_string(q);
    queries[static_cast<std::size_t>(q)].tree =
        core::AsteriaModel::Preprocess(QueryTree(q));
    queries[static_cast<std::size_t>(q)].callee_count =
        static_cast<int>(rng.NextBounded(64));
  }
  std::vector<const core::FunctionFeature*> query_ptrs;
  for (const core::FunctionFeature& q : queries) query_ptrs.push_back(&q);
  const std::vector<int> ks(queries.size(), topk);

  // Correctness first: the batched sweep must be bitwise identical to the
  // brute-force reference for every query (this also warms both paths).
  const auto batch_hits = index.TopKBatch(query_ptrs, ks);
  bool identical = true;
  for (int q = 0; q < batch; ++q) {
    const auto brute = core::oracle::TopKReference(
        index, model, queries[static_cast<std::size_t>(q)], topk);
    if (!core::oracle::SameHits(batch_hits[static_cast<std::size_t>(q)],
                                brute)) {
      identical = false;
      std::fprintf(stderr, "MISMATCH: query %d differs from brute force\n", q);
    }
  }

  // Brute-force baseline: per-query scoring of every entry (the pre-packing
  // online path), timed over the whole batch.
  util::Timer brute_timer;
  for (const core::FunctionFeature& q : queries) {
    const auto hits = core::oracle::TopKReference(index, model, q, topk);
    if (hits.size() != static_cast<std::size_t>(topk)) {
      std::fprintf(stderr, "brute path returned %zu hits\n", hits.size());
      return 1;
    }
  }
  const double brute_nanos_per_query =
      static_cast<double>(brute_timer.ElapsedNanos()) / batch;

  // Batched packed sweep, best-of-reps to shave scheduler noise.
  double batch_nanos_total = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    util::Timer batch_timer;
    const auto hits = index.TopKBatch(query_ptrs, ks);
    batch_nanos_total += static_cast<double>(batch_timer.ElapsedNanos());
    if (hits.size() != queries.size()) return 1;
  }
  const double batch_nanos_per_query =
      batch_nanos_total / (static_cast<double>(reps) * batch);
  const double speedup = brute_nanos_per_query / batch_nanos_per_query;

  // How much of the brute-force work the prefilter actually skipped.
  const util::MetricsSnapshot snapshot = util::SnapshotMetrics();
  double scored = 0.0, pruned = 0.0;
  for (const util::CounterValue& counter : snapshot.counters) {
    if (counter.name == "search.scored_pairs") {
      scored = static_cast<double>(counter.value);
    } else if (counter.name == "search.pruned_pairs") {
      pruned = static_cast<double>(counter.value);
    }
  }
  const double scored_fraction =
      scored + pruned > 0.0 ? scored / (scored + pruned) : 1.0;

  ::mkdir(bench::OutDir().c_str(), 0755);
  const std::string csv_path = bench::OutDir() + "/search.csv";
  if (std::FILE* csv = std::fopen(csv_path.c_str(), "w")) {
    std::fprintf(csv,
                 "entries,batch,topk,threads,brute_nanos_per_query,"
                 "batch_nanos_per_query,speedup,scored_fraction,"
                 "bitwise_identical\n");
    std::fprintf(csv, "%d,%d,%d,%d,%.0f,%.0f,%.2f,%.4f,%d\n", entries, batch,
                 topk, threads, brute_nanos_per_query, batch_nanos_per_query,
                 speedup, scored_fraction, identical ? 1 : 0);
    std::fclose(csv);
  }
  std::printf(
      "entries=%d batch=%d topk=%d threads=%d brute_nanos_per_query=%.0f "
      "batch_nanos_per_query=%.0f speedup=%.2f scored_fraction=%.4f "
      "bitwise_identical=%d\n",
      entries, batch, topk, threads, brute_nanos_per_query,
      batch_nanos_per_query, speedup, scored_fraction, identical ? 1 : 0);
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace asteria

int main(int argc, char** argv) { return asteria::Run(argc, argv); }
