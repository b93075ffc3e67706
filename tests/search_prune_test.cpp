// Prune effectiveness of the SearchIndex leaf sweep on a firmware fleet.
//
// search_index_test proves the sweep exact on synthetic and adversarial
// indexes; this test pins how much it prunes on the data it exists for: a
// seeded fleet of generated firmware images (firmware::BuildFirmwareCorpus:
// GenerateFirmware, then decompiler::ExtractModule), whose shared library
// builds repeat entries exactly, encoded under the default untrained model
// and queried at k = 10 with functions of disjoint images. The pair count
// (search.scored_pairs) is a pure function of the entries and the queries,
// so it is identical at every thread count and can carry a fixed ceiling —
// a noise-free gate, unlike a timing ratio.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/asteria.h"
#include "core/search_index.h"
#include "firmware/search.h"
#include "search_oracle.h"

namespace asteria::core {
namespace {

constexpr int kTopK = 10;

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
  EXPECT_LE(scored_at_one_thread, kScoredPairsCeiling)
      << "scored " << scored_at_one_thread << " of " << pairs << " pairs";
}

}  // namespace
}  // namespace asteria::core
