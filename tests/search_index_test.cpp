// Differential tests for the deduplicated, leaf-pruned SearchIndex sweep.
//
// The contract under test is bitwise identity: TopK, TopKBatch,
// AboveThreshold, and AboveThresholdBatch — the one blocked-GEMM sweep over
// leaves of distinct columns, bounded by eq. (8) over each leaf's box and
// by S, under its keep-k and threshold floor policies — must return the
// same hits, the same scores (bit for bit), and the same order as the
// brute-force oracle (tests/search_oracle.h), at every thread count, on
// monolithic, sharded and reloaded indexes, for both siamese heads,
// untrained and trained, and on adversarial indexes: equal or extreme
// callee counts, duplicate-heavy and all-identical columns, one-column
// leaves whose bounds tie the floor, and encodings where sigma saturates.
// Per-query pair accounting is checked alongside.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/asteria.h"
#include "core/search_index.h"
#include "search_oracle.h"
#include "store/manifest.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace asteria::core {
namespace {

using ::testing::TempDir;

std::string TempPath(const std::string& name) { return TempDir() + name; }

ast::Ast SmallTree(int variant) {
  ast::Ast tree;
  auto v1 = tree.AddVar("x");
  auto n1 = tree.AddNum(3);
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

FunctionFeature MakeQuery(int variant, int callees) {
  FunctionFeature f;
  f.name = "query" + std::to_string(variant);
  f.tree = AsteriaModel::Preprocess(SmallTree(variant));
  f.callee_count = callees;
  return f;
}

AsteriaConfig SmallConfig(SiameseHead head = SiameseHead::kClassification) {
  AsteriaConfig config;
  config.siamese.encoder.embedding_dim = 8;
  config.siamese.encoder.hidden_dim = 8;
  config.siamese.head = head;
  return config;
}

// Fills the index with `n` synthetic (but finite, well-spread) encodings
// via AddEncoded — no per-entry model evaluation, so tests can afford
// corpora large enough to arm the prefilter (>= 2048 entries). `callee_of`
// maps the entry number to its callee count.
template <typename CalleeFn>
void FillSynthetic(SearchIndex* index, const AsteriaModel& model, int n,
                   CalleeFn&& callee_of) {
  const int h = model.config().siamese.encoder.hidden_dim;
  util::Rng rng(0xa57e41a5eedULL);
  for (int i = 0; i < n; ++i) {
    nn::Matrix enc(h, 1);
    for (int r = 0; r < h; ++r) {
      enc(r, 0) = static_cast<double>(rng.NextBounded(2000)) / 1000.0 - 1.0;
    }
    ASSERT_GE(index->AddEncoded("fn" + std::to_string(i), enc, callee_of(i)),
              0);
  }
}

std::uint64_t CounterValueOf(const std::string& name) {
  for (const util::CounterValue& counter : util::SnapshotMetrics().counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

// Per-query pair accounting of one batch call: query i accounts for exactly
// want_pairs[i] pairs as scored or pruned (every entry when it scores at
// all, none for k = 0), and the batch totals equal the search.scored_pairs
// / search.pruned_pairs counter deltas since the given baselines.
void ExpectPairAccounting(
    const std::vector<SearchIndex::QuerySearchStats>& stats,
    const std::vector<std::uint64_t>& want_pairs, std::uint64_t scored_before,
    std::uint64_t pruned_before, const std::string& label) {
  ASSERT_EQ(stats.size(), want_pairs.size()) << label;
  std::uint64_t scored = 0, pruned = 0;
  for (std::size_t i = 0; i < stats.size(); ++i) {
    EXPECT_EQ(stats[i].scored_pairs + stats[i].pruned_pairs, want_pairs[i])
        << label << " query " << i;
    scored += stats[i].scored_pairs;
    pruned += stats[i].pruned_pairs;
  }
  EXPECT_EQ(CounterValueOf("search.scored_pairs") - scored_before, scored)
      << label;
  EXPECT_EQ(CounterValueOf("search.pruned_pairs") - pruned_before, pruned)
      << label;
}

// Runs the full differential battery for one index + query set: TopK and
// AboveThreshold against the oracle, batch against single, and the batch
// pair accounting, at thread counts 1, 2, and 8. The TopK batch carries one
// extra k = 0 query, which must score nothing.
void RunDifferential(SearchIndex* index, const AsteriaModel& model,
                     const std::vector<FunctionFeature>& queries, int k,
                     double threshold, const std::string& label) {
  // References are computed once (they are thread-count invariant too, but
  // one fixed configuration keeps the oracle simple).
  index->set_threads(1);
  std::vector<std::vector<SearchHit>> want_topk, want_above;
  for (const FunctionFeature& q : queries) {
    want_topk.push_back(oracle::TopKReference(*index, model, q, k));
    want_above.push_back(
        oracle::AboveThresholdReference(*index, model, q, threshold));
  }
  const std::uint64_t n = static_cast<std::uint64_t>(index->size());
  for (int threads : {1, 2, 8}) {
    index->set_threads(threads);
    const std::string tag = label + " threads=" + std::to_string(threads);
    std::vector<const FunctionFeature*> ptrs;
    for (const FunctionFeature& q : queries) ptrs.push_back(&q);
    const std::vector<double> thresholds(queries.size(), threshold);
    std::vector<int> ks(queries.size(), k);
    std::vector<std::uint64_t> topk_pairs(queries.size(), n);
    std::vector<const FunctionFeature*> topk_ptrs = ptrs;
    topk_ptrs.push_back(&queries[0]);
    ks.push_back(0);
    topk_pairs.push_back(0);

    std::vector<SearchIndex::QuerySearchStats> stats;
    std::uint64_t scored0 = CounterValueOf("search.scored_pairs");
    std::uint64_t pruned0 = CounterValueOf("search.pruned_pairs");
    const auto got_topk_batch = index->TopKBatch(topk_ptrs, ks, &stats);
    ExpectPairAccounting(stats, topk_pairs, scored0, pruned0,
                         tag + " topk-batch");
    EXPECT_TRUE(got_topk_batch.back().empty()) << tag << " k=0";

    scored0 = CounterValueOf("search.scored_pairs");
    pruned0 = CounterValueOf("search.pruned_pairs");
    const auto got_above_batch =
        index->AboveThresholdBatch(ptrs, thresholds, &stats);
    ExpectPairAccounting(stats, std::vector<std::uint64_t>(queries.size(), n),
                         scored0, pruned0, tag + " above-batch");

    for (std::size_t i = 0; i < queries.size(); ++i) {
      const std::string qtag = tag + " query=" + std::to_string(i);
      EXPECT_EQ(oracle::HitsMismatch(index->TopK(queries[i], k), want_topk[i]),
                "")
          << qtag << " topk";
      EXPECT_EQ(oracle::HitsMismatch(got_topk_batch[i], want_topk[i]), "")
          << qtag << " topk-batch";
      EXPECT_EQ(oracle::HitsMismatch(
                    index->AboveThreshold(queries[i], threshold), want_above[i]),
                "")
          << qtag << " above";
      EXPECT_EQ(oracle::HitsMismatch(got_above_batch[i], want_above[i]), "")
          << qtag << " above-batch";
    }
  }
}

TEST(SearchIndexTest, EdgeCases) {
  const AsteriaConfig config = SmallConfig();
  AsteriaModel model(config);
  SearchIndex index(model);
  const FunctionFeature query = MakeQuery(0, 1);

  // Empty index: every path returns empty.
  EXPECT_TRUE(index.TopK(query, 5).empty());
  EXPECT_TRUE(oracle::TopKReference(index, model, query, 5).empty());
  EXPECT_TRUE(index.AboveThreshold(query, 0.0).empty());
  std::vector<const FunctionFeature*> one{&query};
  EXPECT_TRUE(index.TopKBatch(one, {5})[0].empty());
  EXPECT_TRUE(index.AboveThresholdBatch(one, {0.0})[0].empty());

  FillSynthetic(&index, model, 10, [](int i) { return i; });

  // k = 0 and negative k: empty, not a crash.
  EXPECT_TRUE(index.TopK(query, 0).empty());
  EXPECT_TRUE(index.TopK(query, -3).empty());
  EXPECT_TRUE(index.TopKBatch(one, {0})[0].empty());

  // k > size clips to size.
  EXPECT_EQ(index.TopK(query, 100).size(), 10u);
  EXPECT_EQ(index.TopKBatch(one, {100})[0].size(), 10u);

  // A threshold of 0.0 keeps everything (scores are non-negative); an
  // impossible threshold keeps nothing.
  EXPECT_EQ(index.AboveThreshold(query, 0.0).size(), 10u);
  EXPECT_TRUE(index.AboveThreshold(query, 2.0).empty());

  // Mixed batch: per-query k values are honored independently.
  const FunctionFeature query2 = MakeQuery(1, 5);
  std::vector<const FunctionFeature*> two{&query, &query2};
  const auto mixed = index.TopKBatch(two, {0, 3});
  EXPECT_TRUE(mixed[0].empty());
  EXPECT_EQ(mixed[1].size(), 3u);
}

TEST(SearchIndexTest, IdenticalScoresTiebreakByInsertionIndex) {
  const AsteriaConfig config = SmallConfig();
  AsteriaModel model(config);
  SearchIndex index(model);
  // Identical encodings and callee counts: every entry scores identically,
  // so the strict total order must fall back to insertion index.
  const int h = config.siamese.encoder.hidden_dim;
  nn::Matrix enc(h, 1);
  for (int r = 0; r < h; ++r) enc(r, 0) = 0.25 * (r + 1);
  for (int i = 0; i < 12; ++i) {
    ASSERT_GE(index.AddEncoded("clone" + std::to_string(i), enc, 2), 0);
  }
  const FunctionFeature query = MakeQuery(0, 2);
  const auto top = index.TopK(query, 5);
  ASSERT_EQ(top.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(top[static_cast<std::size_t>(i)].index, i);
    EXPECT_EQ(top[static_cast<std::size_t>(i)].score, top[0].score);
  }
  EXPECT_EQ(oracle::HitsMismatch(top, oracle::TopKReference(index, model,
                                                            query, 5)),
            "");
}

// Adversarial distribution 1: every entry has the same callee count — S is
// 1 for every leaf, so only the box bounds can prune.
TEST(SearchIndexTest, PrefilterParityAllEqualCallees) {
  const AsteriaConfig config = SmallConfig();
  AsteriaModel model(config);
  SearchIndex index(model);
  FillSynthetic(&index, model, 2500, [](int) { return 7; });
  const std::vector<FunctionFeature> queries{MakeQuery(0, 7), MakeQuery(1, 0),
                                             MakeQuery(2, 1000)};
  RunDifferential(&index, model, queries, 10, 0.4, "all-equal");
}

// Adversarial distribution 2: extreme spread — callee counts span the full
// int range, so e^{-|dC|} underflows for almost every pair and the prune is
// maximally aggressive. Exactness must survive the aggression.
TEST(SearchIndexTest, PrefilterParityExtremeSpread) {
  const AsteriaConfig config = SmallConfig();
  AsteriaModel model(config);
  SearchIndex index(model);
  FillSynthetic(&index, model, 2500, [](int i) {
    switch (i % 4) {
      case 0:
        return i % 50;                 // a near-query cluster
      case 1:
        return 1000 + i % 97;          // a mid cluster
      case 2:
        return 2000000000 - (i % 13);  // near INT_MAX
      default:
        return 0;
    }
  });
  const std::vector<FunctionFeature> queries{
      MakeQuery(0, 25), MakeQuery(1, 2000000000), MakeQuery(2, 1040)};
  RunDifferential(&index, model, queries, 10, 0.3, "extreme-spread");
}

// Uniformly spread counts with a corpus large enough to arm the prefilter:
// the main regression test that the pruned sweep equals brute force.
TEST(SearchIndexTest, PrunedSweepMatchesReferenceUniformCallees) {
  const AsteriaConfig config = SmallConfig();
  AsteriaModel model(config);
  SearchIndex index(model);
  FillSynthetic(&index, model, 3000, [](int i) { return i % 64; });
  const std::vector<FunctionFeature> queries{MakeQuery(0, 10), MakeQuery(1, 63),
                                             MakeQuery(2, 0)};
  RunDifferential(&index, model, queries, 25, 0.5, "uniform");
  // k above the prune cap (kMaxPruneK) still matches: the sweep falls back
  // to scoring every leaf.
  index.set_threads(2);
  const FunctionFeature big = MakeQuery(3, 31);
  EXPECT_EQ(oracle::HitsMismatch(index.TopK(big, 600),
                                 oracle::TopKReference(index, model, big, 600)),
            "")
      << "uniform k=600";
}

// Regression head: M is a rescaled cosine that can exceed 1.0 by rounding
// ulps, which is exactly what SiameseModel::kMaxSimilarity's margin is for;
// its leaves are bounded by S alone.
TEST(SearchIndexTest, RegressionHeadParity) {
  const AsteriaConfig config = SmallConfig(SiameseHead::kRegression);
  AsteriaModel model(config);
  SearchIndex index(model);
  FillSynthetic(&index, model, 2200, [](int i) { return i % 16; });
  const std::vector<FunctionFeature> queries{MakeQuery(0, 8), MakeQuery(1, 15)};
  RunDifferential(&index, model, queries, 12, 0.6, "regression");
}

// Sharded (MANI) index: two shards whose concatenation equals the
// monolithic index must produce bitwise-identical search results.
TEST(SearchIndexTest, ShardedIndexMatchesMonolithic) {
  const AsteriaConfig config = SmallConfig();
  AsteriaModel model(config);

  SearchIndex mono(model);
  FillSynthetic(&mono, model, 2400, [](int i) { return (i * 7) % 48; });

  // Rebuild the same entries as two shard snapshots plus a manifest.
  const std::string dir = TempPath("search_index_sharded/");
  std::remove((dir + "shard0.idx").c_str());
  std::remove((dir + "shard1.idx").c_str());
  std::remove((dir + store::kManifestFileName).c_str());
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  const int half = mono.size() / 2;
  std::string error;
  {
    SearchIndex shard(model);
    for (int i = 0; i < half; ++i) {
      ASSERT_GE(shard.AddEncoded(mono.name(i), mono.encoding(i),
                                 mono.callee_count(i)),
                0);
    }
    ASSERT_TRUE(shard.Save(dir + "shard0.idx", &error)) << error;
  }
  {
    SearchIndex shard(model);
    for (int i = half; i < mono.size(); ++i) {
      ASSERT_GE(shard.AddEncoded(mono.name(i), mono.encoding(i),
                                 mono.callee_count(i)),
                0);
    }
    ASSERT_TRUE(shard.Save(dir + "shard1.idx", &error)) << error;
  }
  store::ShardManifest manifest;
  manifest.model_fingerprint = model.WeightsFingerprint();
  manifest.sequence = 1;
  store::ShardRecord rec0, rec1;
  rec0.file = "shard0.idx";
  rec0.entries = static_cast<std::uint64_t>(half);
  rec1.file = "shard1.idx";
  rec1.entries = static_cast<std::uint64_t>(mono.size() - half);
  manifest.shards = {rec0, rec1};
  ASSERT_TRUE(store::SaveManifest(manifest, dir + store::kManifestFileName,
                                  &error))
      << error;

  SearchIndex sharded(model);
  ASSERT_TRUE(sharded.Open(dir + store::kManifestFileName, &error)) << error;
  ASSERT_EQ(sharded.size(), mono.size());

  const std::vector<FunctionFeature> queries{MakeQuery(0, 20), MakeQuery(1, 3)};
  // Sharded results differential against both its own reference and the
  // monolithic pruned path.
  RunDifferential(&sharded, model, queries, 15, 0.45, "sharded");
  for (int threads : {1, 2, 8}) {
    mono.set_threads(threads);
    sharded.set_threads(threads);
    for (const FunctionFeature& q : queries) {
      EXPECT_EQ(oracle::HitsMismatch(sharded.TopK(q, 15), mono.TopK(q, 15)), "")
          << "sharded-vs-mono threads=" << threads;
    }
  }
}

// Snapshot round trip of a packed index: save, load, and get bitwise the
// same encodings and search results.
TEST(SearchIndexTest, SnapshotRoundTripPreservesPackedResults) {
  const AsteriaConfig config = SmallConfig();
  AsteriaModel model(config);
  SearchIndex index(model);
  FillSynthetic(&index, model, 2100, [](int i) { return i % 32; });
  const std::string path = TempPath("search_index_packed.idx");
  std::string error;
  ASSERT_TRUE(index.Save(path, &error)) << error;

  SearchIndex loaded(model);
  ASSERT_TRUE(loaded.Load(path, &error)) << error;
  ASSERT_EQ(loaded.size(), index.size());
  for (int i : {0, 1, 1024, 2099}) {
    const nn::Matrix a = index.encoding(i);
    const nn::Matrix b = loaded.encoding(i);
    for (int r = 0; r < a.rows(); ++r) EXPECT_EQ(a(r, 0), b(r, 0));
  }
  const FunctionFeature query = MakeQuery(2, 11);
  EXPECT_EQ(oracle::HitsMismatch(loaded.TopK(query, 20), index.TopK(query, 20)),
            "")
      << "round-trip";
  EXPECT_EQ(
      oracle::HitsMismatch(loaded.TopK(query, 20),
                           oracle::TopKReference(index, model, query, 20)),
      "")
      << "round-trip-vs-reference";
}

TEST(SearchIndexTest, AddEncodedRejectsBadEncodings) {
  const AsteriaConfig config = SmallConfig();
  AsteriaModel model(config);
  SearchIndex index(model);
  const int h = config.siamese.encoder.hidden_dim;
  nn::Matrix wrong_shape(h + 1, 1);
  EXPECT_EQ(index.AddEncoded("bad-shape", wrong_shape, 0), -1);
  nn::Matrix non_finite(h, 1);
  non_finite(0, 0) = std::nan("");
  EXPECT_EQ(index.AddEncoded("bad-nan", non_finite, 0), -1);
  EXPECT_EQ(index.size(), 0);
  nn::Matrix good(h, 1);
  EXPECT_EQ(index.AddEncoded("good", good, 0), 0);
  EXPECT_EQ(index.size(), 1);
}

// Per-query scored pairs of one TopKBatch at k — the prune's footprint,
// which must be a pure function of the entries and the query.
std::vector<std::uint64_t> ScoredPairs(SearchIndex* index,
                                       const std::vector<FunctionFeature>& queries,
                                       int k) {
  std::vector<const FunctionFeature*> ptrs;
  for (const FunctionFeature& q : queries) ptrs.push_back(&q);
  std::vector<SearchIndex::QuerySearchStats> stats;
  index->TopKBatch(ptrs, std::vector<int>(queries.size(), k), &stats);
  std::vector<std::uint64_t> scored;
  for (const SearchIndex::QuerySearchStats& s : stats) {
    scored.push_back(s.scored_pairs);
  }
  return scored;
}

// Distinct (encoding bits, callee count) keys among `index`'s entries.
std::size_t DistinctKeys(const SearchIndex& index) {
  std::set<std::pair<std::string, int>> keys;
  for (int i = 0; i < index.size(); ++i) {
    const nn::Matrix enc = index.encoding(i);
    keys.insert({std::string(reinterpret_cast<const char*>(enc.data()),
                             enc.size() * sizeof(double)),
                 index.callee_count(i)});
  }
  return keys.size();
}

// Saves entries [begin, end) of `index` as shard `file` under `dir`.
store::ShardRecord WriteShard(const SearchIndex& index,
                              const AsteriaModel& model,
                              const std::string& dir, const std::string& file,
                              int begin, int end) {
  SearchIndex shard(model);
  for (int i = begin; i < end; ++i) {
    EXPECT_GE(shard.AddEncoded(index.name(i), index.encoding(i),
                               index.callee_count(i)),
              0);
  }
  std::string error;
  EXPECT_TRUE(shard.Save(dir + file, &error)) << error;
  store::ShardRecord record;
  record.file = file;
  record.entries = static_cast<std::uint64_t>(end - begin);
  return record;
}

void WriteManifest(const AsteriaModel& model, const std::string& dir,
                   const std::vector<store::ShardRecord>& shards) {
  store::ShardManifest manifest;
  manifest.model_fingerprint = model.WeightsFingerprint();
  manifest.sequence = shards.size();
  manifest.shards = shards;
  std::string error;
  ASSERT_TRUE(store::SaveManifest(manifest, dir + store::kManifestFileName,
                                  &error))
      << error;
}

// Duplicate-heavy fleet: most entries repeat one of 40 encodings, under
// one of three callee counts — the same encoding both shares columns
// (equal counts) and splits into distinct ones (different counts) — and
// every fifth entry is unique. Member groups straddle every shard boundary
// below, and k = 40 is larger than any group while k = 3 is smaller.
TEST(SearchIndexTest, DuplicateHeavyIndexAcrossShardsAndReload) {
  const AsteriaConfig config = SmallConfig();
  AsteriaModel model(config);
  const int h = config.siamese.encoder.hidden_dim;
  util::Rng rng(0xd0b1e5ULL);
  std::vector<nn::Matrix> pool(40, nn::Matrix(h, 1));
  for (nn::Matrix& enc : pool) {
    for (int r = 0; r < h; ++r) {
      enc(r, 0) = static_cast<double>(rng.NextBounded(2000)) / 1000.0 - 1.0;
    }
  }
  SearchIndex mono(model);
  std::vector<nn::Matrix> added;
  for (int i = 0; i < 2600; ++i) {
    nn::Matrix enc = pool[rng.NextBounded(40)];
    if (i % 5 == 4) {
      for (int r = 0; r < h; ++r) {
        enc(r, 0) = static_cast<double>(rng.NextBounded(2000)) / 1000.0 - 1.0;
      }
    }
    ASSERT_GE(mono.AddEncoded("fn" + std::to_string(i), enc,
                              static_cast<int>(rng.NextBounded(3))),
              0);
    added.push_back(enc);
  }
  ASSERT_EQ(static_cast<std::size_t>(mono.distinct_columns()),
            DistinctKeys(mono));
  ASSERT_LT(mono.distinct_columns(), 700);
  for (int i = 0; i < mono.size(); ++i) {
    EXPECT_EQ(std::memcmp(mono.encoding(i).data(),
                          added[static_cast<std::size_t>(i)].data(),
                          static_cast<std::size_t>(h) * sizeof(double)),
              0)
        << i;
  }
  const std::vector<FunctionFeature> queries{MakeQuery(0, 0), MakeQuery(1, 1),
                                             MakeQuery(2, 2), MakeQuery(3, 9)};
  RunDifferential(&mono, model, queries, 3, 0.45, "dup-heavy k=3");
  RunDifferential(&mono, model, queries, 40, 0.6, "dup-heavy k=40");

  // The same entries as three shards: first opened from a two-shard
  // manifest and queried (its leaves built), then reloaded from the
  // three-shard manifest with that index as the base.
  const std::string dir = TempPath("search_index_dups/");
  ASSERT_EQ(std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str()), 0);
  const store::ShardRecord s0 = WriteShard(mono, model, dir, "s0.idx", 0, 1000);
  const store::ShardRecord s1 =
      WriteShard(mono, model, dir, "s1.idx", 1000, 2550);
  const store::ShardRecord s2 =
      WriteShard(mono, model, dir, "s2.idx", 2550, 2600);
  WriteManifest(model, dir, {s0, s1});
  std::string error;
  SearchIndex base(model);
  ASSERT_TRUE(base.Open(dir + store::kManifestFileName, &error)) << error;
  ASSERT_EQ(base.size(), 2550);
  EXPECT_EQ(oracle::HitsMismatch(base.TopK(queries[0], 10),
                                 oracle::TopKReference(base, model,
                                                       queries[0], 10)),
            "");
  WriteManifest(model, dir, {s0, s1, s2});
  SearchIndex reloaded(model);
  ASSERT_TRUE(reloaded.Open(dir + store::kManifestFileName, &error, &base))
      << error;
  EXPECT_EQ(reloaded.shards_reused(), 2);
  EXPECT_EQ(reloaded.shards_read(), 1);
  ASSERT_EQ(reloaded.size(), mono.size());
  EXPECT_EQ(reloaded.distinct_columns(), mono.distinct_columns());
  RunDifferential(&reloaded, model, queries, 10, 0.45, "dup-heavy reloaded");

  // Reloading onto itself keeps its entries and columns.
  ASSERT_TRUE(reloaded.Open(dir + store::kManifestFileName, &error, &reloaded))
      << error;
  EXPECT_EQ(reloaded.shards_reused(), 3);
  EXPECT_EQ(reloaded.distinct_columns(), mono.distinct_columns());

  SearchIndex sharded(model);
  ASSERT_TRUE(sharded.Open(dir + store::kManifestFileName, &error)) << error;
  RunDifferential(&sharded, model, queries, 10, 0.45, "dup-heavy sharded");
  for (int threads : {1, 2, 8}) {
    for (SearchIndex* index : {&mono, &sharded, &reloaded, &base}) {
      index->set_threads(threads);
    }
    const auto want = ScoredPairs(&mono, queries, 10);
    EXPECT_EQ(ScoredPairs(&sharded, queries, 10), want) << threads;
    EXPECT_EQ(ScoredPairs(&reloaded, queries, 10), want) << threads;
    for (const FunctionFeature& q : queries) {
      EXPECT_EQ(oracle::HitsMismatch(reloaded.TopK(q, 10), mono.TopK(q, 10)),
                "")
          << "reloaded-vs-mono threads=" << threads;
    }
  }
}

// Every entry one column: one leaf, one scored pair per query, and the
// members come back in insertion order. With the counts split four ways,
// each encoding keeps four columns.
TEST(SearchIndexTest, AllIdenticalColumns) {
  const AsteriaConfig config = SmallConfig();
  AsteriaModel model(config);
  const int h = config.siamese.encoder.hidden_dim;
  nn::Matrix enc(h, 1);
  for (int r = 0; r < h; ++r) enc(r, 0) = 0.125 * (r - 3);
  SearchIndex same(model), split(model);
  for (int i = 0; i < 2500; ++i) {
    ASSERT_GE(same.AddEncoded("clone" + std::to_string(i), enc, 2), 0);
    ASSERT_GE(split.AddEncoded("clone" + std::to_string(i), enc, i % 4), 0);
  }
  EXPECT_EQ(same.distinct_columns(), 1);
  EXPECT_EQ(split.distinct_columns(), 4);
  const std::vector<FunctionFeature> queries{MakeQuery(0, 2), MakeQuery(1, 0),
                                             MakeQuery(2, 5000)};
  RunDifferential(&same, model, queries, 10, 0.3, "all-identical");
  RunDifferential(&split, model, queries, 10, 0.3, "all-identical split");
  for (std::uint64_t scored : ScoredPairs(&same, queries, 10)) {
    EXPECT_EQ(scored, 1u);
  }
  const auto top = same.TopK(queries[0], 10);
  ASSERT_EQ(top.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(top[static_cast<std::size_t>(i)].index, i);
  }
}

// Every column its own callee count, so every leaf holds one column, and
// counts fall as insertion index rises, so the lowest-index entries sit in
// the last leaves. A query far from every count scores all of them 0: the
// floor is 0 and every leaf's bound ties it, so a sweep that skipped a
// leaf at bound == floor would lose the insertion-index tiebreak.
TEST(SearchIndexTest, OneColumnLeavesKeepTiesWithTheFloor) {
  const AsteriaConfig config = SmallConfig();
  AsteriaModel model(config);
  SearchIndex index(model);
  FillSynthetic(&index, model, 2200, [](int i) { return (2200 - i) * 3; });
  const std::vector<FunctionFeature> queries{
      MakeQuery(0, 1000000000), MakeQuery(1, 3300), MakeQuery(2, 0)};
  RunDifferential(&index, model, queries, 10, 0.0, "one-column leaves");
  RunDifferential(&index, model, queries, 25, 0.2, "one-column leaves k=25");
  const auto far = index.TopK(queries[0], 10);
  ASSERT_EQ(far.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(far[static_cast<std::size_t>(i)].index, i);
    EXPECT_EQ(far[static_cast<std::size_t>(i)].score, 0.0);
  }
}

// Encodings far outside the Tree-LSTM's (-1, 1): |x - y| and x * y drive
// sigma to exactly 0 or 1 (and exp to inf), inside leaves whose boxes also
// hold ordinary columns. Both heads.
TEST(SearchIndexTest, SaturatingEncodings) {
  for (SiameseHead head :
       {SiameseHead::kClassification, SiameseHead::kRegression}) {
    const AsteriaConfig config = SmallConfig(head);
    AsteriaModel model(config);
    const int h = config.siamese.encoder.hidden_dim;
    const double levels[] = {-1000.0, -40.0, -1.0, 0.0, 0.5, 40.0, 1000.0};
    util::Rng rng(0x5a7ULL);
    SearchIndex index(model);
    for (int i = 0; i < 2300; ++i) {
      nn::Matrix enc(h, 1);
      for (int r = 0; r < h; ++r) {
        enc(r, 0) = i % 2 == 0
                        ? levels[rng.NextBounded(7)]
                        : static_cast<double>(rng.NextBounded(2000)) / 1000.0 -
                              1.0;
      }
      ASSERT_GE(index.AddEncoded("fn" + std::to_string(i), enc, i % 5), 0);
    }
    const std::vector<FunctionFeature> queries{MakeQuery(0, 1), MakeQuery(1, 4),
                                               MakeQuery(2, 2)};
    RunDifferential(&index, model, queries, 10, 0.4,
                    head == SiameseHead::kRegression ? "saturating regression"
                                                     : "saturating");
  }
}

// Trained weights: a few TrainPair epochs move W off its Xavier init, so
// W[:,1] - W[:,0] no longer has the untrained sign pattern the bound was
// first measured on.
TEST(SearchIndexTest, TrainedModelParity) {
  const AsteriaConfig config = SmallConfig();
  AsteriaModel model(config);
  std::vector<FunctionFeature> trees;
  for (int v = 0; v < 6; ++v) trees.push_back(MakeQuery(v, 0));
  for (int epoch = 0; epoch < 4; ++epoch) {
    for (int a = 0; a < 6; ++a) {
      for (int b = 0; b < 6; ++b) {
        model.TrainPair(trees[static_cast<std::size_t>(a)].tree,
                        trees[static_cast<std::size_t>(b)].tree,
                        a % 2 == b % 2);
      }
    }
  }
  SearchIndex index(model);
  FillSynthetic(&index, model, 2300, [](int i) { return (i * 5) % 24; });
  for (int i = 0; i < 300; ++i) {
    ASSERT_GE(index.AddEncoded("dup" + std::to_string(i), index.encoding(i * 3),
                               index.callee_count(i * 3)),
              0);
  }
  const std::vector<FunctionFeature> queries{MakeQuery(0, 3), MakeQuery(1, 12),
                                             MakeQuery(4, 23)};
  RunDifferential(&index, model, queries, 10, 0.5, "trained");
}

}  // namespace
}  // namespace asteria::core
