// Prune effectiveness of the SearchIndex leaf sweep.
//
// search_index_test proves the sweep exact on synthetic and adversarial
// indexes; this test pins how much it prunes, on two workloads:
//   - the data it exists for: a seeded fleet of generated firmware images
//     (firmware::BuildFirmwareCorpus: GenerateFirmware, then
//     decompiler::ExtractModule), whose shared library builds repeat
//     entries exactly, encoded under the default untrained model and
//     queried at k = 10 with functions of disjoint images;
//   - scale: 50,000 synthetic encodings, all distinct, so the packed
//     columns span many 4,096-column blocks.
// The pair count (search.scored_pairs) is a pure function of the entries
// and the queries, so it is identical at every thread count and can carry
// a fixed ceiling — a noise-free gate, unlike a timing ratio.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/asteria.h"
#include "core/search_index.h"
#include "firmware/search.h"
#include "search_oracle.h"
#include "util/rng.h"

namespace asteria::core {
namespace {

constexpr int kTopK = 10;

// Runs `queries` through TopKBatch at threads 1, 2 and 8: every hit list
// must be bitwise the brute-force oracle's, and the scored pair count must
// not depend on the thread count. Returns that count.
std::uint64_t ScoredPairsMatchingOracle(
    SearchIndex& index, const AsteriaModel& model,
    const std::vector<FunctionFeature>& queries) {
  std::vector<std::vector<SearchHit>> want;
  for (const FunctionFeature& q : queries) {
    want.push_back(oracle::TopKReference(index, model, q, kTopK));
  }
  std::vector<const FunctionFeature*> ptrs;
  for (const FunctionFeature& q : queries) ptrs.push_back(&q);
  const std::vector<int> ks(queries.size(), kTopK);

  const std::uint64_t pairs =
      static_cast<std::uint64_t>(queries.size()) *
      static_cast<std::uint64_t>(index.size());
  std::uint64_t scored_at_one_thread = 0;
  for (int threads : {1, 2, 8}) {
    index.set_threads(threads);
    std::vector<SearchIndex::QuerySearchStats> stats;
    const auto got = index.TopKBatch(ptrs, ks, &stats);
    std::uint64_t scored = 0, pruned = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(oracle::HitsMismatch(got[i], want[i]), "")
          << "threads=" << threads << " query=" << i;
      scored += stats[i].scored_pairs;
      pruned += stats[i].pruned_pairs;
    }
    EXPECT_EQ(scored + pruned, pairs) << "threads=" << threads;
    if (threads == 1) scored_at_one_thread = scored;
    EXPECT_EQ(scored, scored_at_one_thread) << "threads=" << threads;
  }
  return scored_at_one_thread;
}

std::vector<FunctionFeature> CorpusFeatures(int images, std::uint64_t seed) {
  firmware::FirmwareCorpusConfig config;
  config.images = images;
  config.seed = seed;
  const firmware::FirmwareCorpus corpus =
      firmware::BuildFirmwareCorpus(config);
  std::vector<FunctionFeature> features;
  for (const firmware::FirmwareFunction& fn : corpus.functions) {
    features.push_back(fn.feature);
  }
  return features;
}

// The fleet: 180 images (seed 2024) hold 2,098 entries in 1,514 distinct
// (encoding, callee count) columns. 32 queries from 40 images of another
// seed ask for the top 10 each: 67,136 (query, entry) pairs. The
// callee-distance prune this sweep replaced (S = e^{-|C1-C2|} alone bounding
// F, floored by the k callee-nearest entries) scored 27,113 of them
// (40.4%); the leaf sweep scores 10,501 (15.6%). The ceiling leaves room
// for a different leaf size or seed count, not for a return to S-only
// pruning.
constexpr std::uint64_t kScoredPairsCeiling = 12000;

TEST(SearchPruneTest, FleetLeafSweepScoresFewPairsAndMatchesOracle) {
  const std::vector<FunctionFeature> fleet = CorpusFeatures(180, 2024);
  const std::vector<FunctionFeature> pool = CorpusFeatures(40, 4048);
  ASSERT_GE(fleet.size(), 2048u);
  ASSERT_GE(pool.size(), 64u);
  std::vector<FunctionFeature> queries;
  for (std::size_t i = 0; i < 32; ++i) {
    queries.push_back(pool[i * pool.size() / 32]);
  }

  const AsteriaModel model{AsteriaConfig{}};
  SearchIndex index(model);
  ASSERT_EQ(index.AddAll(fleet).failed, 0);
  ASSERT_EQ(index.size(), static_cast<int>(fleet.size()));
  EXPECT_LT(index.distinct_columns(), index.size()) << "no duplicates";

  const std::uint64_t scored = ScoredPairsMatchingOracle(index, model, queries);
  EXPECT_LE(scored, kScoredPairsCeiling)
      << "scored " << scored << " of " << queries.size() * fleet.size()
      << " pairs";
}

// (block (asg x (num)) (return (add|mul (x) (num)))), varied by `variant`
// so that every query encodes differently.
ast::Ast SyntheticQueryTree(int variant) {
  ast::Ast tree;
  const ast::NodeId asg = tree.AddNode(
      ast::NodeKind::kAsg, {tree.AddVar("x"), tree.AddNum(3 + variant % 5)});
  const ast::NodeId inner = tree.AddNode(
      variant % 2 == 0 ? ast::NodeKind::kAdd : ast::NodeKind::kMul,
      {tree.AddVar("x"), tree.AddNum(4 + variant)});
  const ast::NodeId ret = tree.AddNode(ast::NodeKind::kReturn, {inner});
  tree.set_root(tree.AddNode(ast::NodeKind::kBlock, {asg, ret}));
  return tree;
}

// 50,000 synthetic entries at e = h = 16: each coordinate is uniform on a
// 0.001 grid in [-1, 1), each callee count uniform in [0, 64). 32 queries
// (real ASTs through the encoder, callee counts from the same stream) ask
// for the top 10 each: 1,600,000 pairs, of which the leaf sweep scores
// 24,736 (1.5%). The ceiling leaves the fleet case's ~15% headroom.
constexpr std::uint64_t kSyntheticScoredPairsCeiling = 28500;

TEST(SearchPruneTest, FiftyThousandEntryLeafSweepMatchesOracle) {
  const AsteriaModel model{AsteriaConfig{}};
  const int h = model.config().siamese.encoder.hidden_dim;
  ASSERT_EQ(h, 16);
  SearchIndex index(model);
  util::Rng rng(0xbe5c4a11dULL);
  for (int i = 0; i < 50000; ++i) {
    nn::Matrix encoding(h, 1);
    for (int r = 0; r < h; ++r) {
      encoding(r, 0) =
          static_cast<double>(rng.NextBounded(2000)) / 1000.0 - 1.0;
    }
    ASSERT_GE(index.AddEncoded("fn" + std::to_string(i), encoding,
                               static_cast<int>(rng.NextBounded(64))),
              0);
  }
  ASSERT_GT(index.distinct_columns(), 2 * 4096) << "fits in two blocks";

  std::vector<FunctionFeature> queries(32);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    queries[q].name = "query" + std::to_string(q);
    queries[q].tree =
        AsteriaModel::Preprocess(SyntheticQueryTree(static_cast<int>(q)));
    queries[q].callee_count = static_cast<int>(rng.NextBounded(64));
  }

  const std::uint64_t scored = ScoredPairsMatchingOracle(index, model, queries);
  EXPECT_LE(scored, kSyntheticScoredPairsCeiling)
      << "scored " << scored << " of " << queries.size() * 50000 << " pairs";
}

}  // namespace
}  // namespace asteria::core
