// Differential net for the fused tape-free inference kernel: over randomized
// ASTs, payload embedding on/off, leaf-init zeros/ones, rectangular dims, and
// thread counts 1/2/8, TreeLstmFastEncoder must produce embeddings bitwise
// identical to the autograd-tape reference TreeLstmEncoder::EncodeVector —
// including after training steps and checkpoint loads (the refresh rule) and
// across warm/cold SearchIndex snapshot round trips (docs/PERFORMANCE.md).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/asteria.h"
#include "core/search_index.h"
#include "core/tree_lstm.h"
#include "core/tree_lstm_fast.h"
#include "util/rng.h"

namespace asteria {
namespace {

// Random n-ary AST with payload-carrying leaves (numbers and strings), so
// the preprocessed BinaryAst exercises nonzero payload buckets.
ast::Ast SyntheticTree(int nodes, util::Rng& rng) {
  ast::Ast tree;
  std::vector<ast::NodeId> pool;
  pool.push_back(tree.AddVar("x"));
  while (tree.size() < nodes) {
    const auto pick = rng.NextBounded(8);
    if (pick == 0) {
      pool.push_back(tree.AddNum(rng.NextInt(-100000, 100000)));
      continue;
    }
    if (pick == 1) {
      pool.push_back(tree.AddStr("s" + std::to_string(rng.NextBounded(50))));
      continue;
    }
    const auto kind = static_cast<ast::NodeKind>(
        rng.NextBounded(static_cast<std::uint64_t>(ast::kNumNodeKinds)));
    const int arity = static_cast<int>(rng.NextBounded(3));
    std::vector<ast::NodeId> children;
    for (int i = 0; i < arity && !pool.empty(); ++i) {
      children.push_back(pool.back());
      pool.pop_back();
    }
    pool.push_back(tree.AddNode(kind, std::move(children)));
  }
  const ast::NodeId root = tree.AddNode(ast::NodeKind::kBlock, pool);
  tree.set_root(root);
  return tree;
}

bool BitwiseEqual(const nn::Matrix& a, const nn::Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Cartesian sweep: payloads x leaf-init x (square and rectangular dims),
// many random trees per configuration.
TEST(FastEncoder, BitwiseIdenticalToTapeReference) {
  struct Dim {
    int embedding;
    int hidden;
  };
  const Dim dims[] = {{16, 16}, {8, 24}, {16, 64}};
  for (bool payloads : {false, true}) {
    for (bool leaf_ones : {false, true}) {
      for (const Dim& dim : dims) {
        core::TreeLstmConfig config;
        config.embedding_dim = dim.embedding;
        config.hidden_dim = dim.hidden;
        config.embed_payloads = payloads;
        config.leaf_init_ones = leaf_ones;
        nn::ParameterStore store;
        util::Rng init_rng(
            util::Rng::DeriveSeed(0xfa57, static_cast<std::uint64_t>(
                                              dim.hidden + (payloads ? 1000 : 0) +
                                              (leaf_ones ? 2000 : 0))));
        core::TreeLstmEncoder tape_encoder(config, &store, init_rng);
        core::TreeLstmFastEncoder fast_encoder(config, store);
        util::Rng tree_rng(7);
        for (int trial = 0; trial < 12; ++trial) {
          const ast::BinaryAst tree = core::AsteriaModel::Preprocess(
              SyntheticTree(5 + static_cast<int>(tree_rng.NextBounded(120)),
                            tree_rng));
          const nn::Matrix reference = tape_encoder.EncodeVector(tree);
          const nn::Matrix fast = fast_encoder.EncodeVector(tree);
          ASSERT_TRUE(BitwiseEqual(reference, fast))
              << "trial " << trial << " payloads=" << payloads
              << " leaf_ones=" << leaf_ones << " h=" << dim.hidden;
        }
      }
    }
  }
}

TEST(FastEncoder, EmptyTreeMatchesReference) {
  core::TreeLstmConfig config;
  nn::ParameterStore store;
  util::Rng rng(3);
  core::TreeLstmEncoder tape_encoder(config, &store, rng);
  core::TreeLstmFastEncoder fast_encoder(config, store);
  const ast::BinaryAst empty;
  EXPECT_TRUE(
      BitwiseEqual(tape_encoder.EncodeVector(empty), fast_encoder.EncodeVector(empty)));
}

// RefreshFrom picks up mutated weights: perturb a parameter in place, then
// the fast path must track the tape path again after a refresh.
TEST(FastEncoder, RefreshTracksParameterUpdates) {
  core::TreeLstmConfig config;
  nn::ParameterStore store;
  util::Rng rng(11);
  core::TreeLstmEncoder tape_encoder(config, &store, rng);
  core::TreeLstmFastEncoder fast_encoder(config, store);
  util::Rng tree_rng(12);
  const ast::BinaryAst tree =
      core::AsteriaModel::Preprocess(SyntheticTree(60, tree_rng));
  ASSERT_TRUE(BitwiseEqual(tape_encoder.EncodeVector(tree),
                           fast_encoder.EncodeVector(tree)));
  for (nn::Parameter* param : store.parameters()) {
    param->value.Scale(1.25);
  }
  fast_encoder.RefreshFrom(store);
  EXPECT_TRUE(BitwiseEqual(tape_encoder.EncodeVector(tree),
                           fast_encoder.EncodeVector(tree)));
}

std::vector<core::FunctionFeature> MakeFeatures(int count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<core::FunctionFeature> features;
  features.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    core::FunctionFeature feature;
    feature.name = "fn" + std::to_string(i);
    feature.tree = core::AsteriaModel::Preprocess(
        SyntheticTree(10 + static_cast<int>(rng.NextBounded(80)), rng));
    feature.callee_count = static_cast<int>(rng.NextBounded(8));
    features.push_back(std::move(feature));
  }
  return features;
}

// SiameseModel::Encode with the fast path on must equal the tape path after
// training (the per-step refresh) — two models with identical seeds and
// identical training diverge only in their encode kernel.
TEST(FastEncoder, ModelEncodeRefreshesAfterTraining) {
  core::AsteriaConfig fast_config;
  fast_config.siamese.use_fast_encoder = true;
  core::AsteriaConfig tape_config;
  tape_config.siamese.use_fast_encoder = false;
  core::AsteriaModel fast_model(fast_config);
  core::AsteriaModel tape_model(tape_config);

  const auto features = MakeFeatures(8, 21);
  // Encode once pre-training (builds the fused copies), then train both
  // models identically and re-encode: the fast model must refresh.
  ASSERT_TRUE(BitwiseEqual(tape_model.Encode(features[0].tree),
                           fast_model.Encode(features[0].tree)));
  for (int step = 0; step < 6; ++step) {
    const auto& a = features[static_cast<std::size_t>(step % 4)];
    const auto& b = features[static_cast<std::size_t>(4 + step % 4)];
    const double loss_fast = fast_model.TrainPair(a.tree, b.tree, step % 2 == 0);
    const double loss_tape = tape_model.TrainPair(a.tree, b.tree, step % 2 == 0);
    ASSERT_EQ(loss_fast, loss_tape);
  }
  for (const core::FunctionFeature& feature : features) {
    EXPECT_TRUE(BitwiseEqual(tape_model.Encode(feature.tree),
                             fast_model.Encode(feature.tree)));
  }
}

// Checkpoint loads refresh the fused copies too.
TEST(FastEncoder, ModelEncodeRefreshesAfterLoad) {
  const std::string path = testing::TempDir() + "/fast_encoder_ckpt.bin";
  core::AsteriaConfig config;
  config.seed = 5;
  core::AsteriaModel trained(config);
  const auto features = MakeFeatures(4, 31);
  for (int step = 0; step < 4; ++step) {
    trained.TrainPair(features[0].tree, features[1].tree, step % 2 == 0);
  }
  ASSERT_TRUE(trained.Save(path));

  core::AsteriaConfig other_config;
  other_config.seed = 99;  // different init; Load must override it
  core::AsteriaModel loaded(other_config);
  (void)loaded.Encode(features[2].tree);  // build fused copies pre-load
  ASSERT_TRUE(loaded.Load(path));
  for (const core::FunctionFeature& feature : features) {
    EXPECT_TRUE(BitwiseEqual(trained.Encode(feature.tree),
                             loaded.Encode(feature.tree)));
  }
}

// Warm/cold TopK across thread counts 1/2/8: the fast-path index must be
// bitwise identical to the tape-path index — encodings, scores, and order —
// and a snapshot round trip (warm start) must preserve that.
TEST(FastEncoder, SearchIndexWarmColdParityAcrossThreads) {
  core::AsteriaConfig tape_config;
  tape_config.siamese.use_fast_encoder = false;
  core::AsteriaModel tape_model(tape_config);
  core::AsteriaConfig fast_config;
  fast_config.siamese.use_fast_encoder = true;
  core::AsteriaModel fast_model(fast_config);

  const auto features = MakeFeatures(24, 41);
  core::FunctionFeature query = features[3];

  core::SearchIndex tape_index(tape_model, 1);
  tape_index.AddAll(features);
  const auto tape_top = tape_index.TopK(query, 5);
  ASSERT_EQ(tape_top.size(), 5u);

  for (int threads : {1, 2, 8}) {
    core::SearchIndex cold_index(fast_model, threads);
    cold_index.AddAll(features);
    ASSERT_EQ(cold_index.size(), tape_index.size()) << threads << " threads";
    for (int i = 0; i < cold_index.size(); ++i) {
      ASSERT_TRUE(BitwiseEqual(tape_index.encoding(i), cold_index.encoding(i)))
          << "entry " << i << ", " << threads << " threads";
    }
    const auto cold_top = cold_index.TopK(query, 5);
    ASSERT_EQ(cold_top.size(), tape_top.size());
    for (std::size_t i = 0; i < cold_top.size(); ++i) {
      EXPECT_EQ(cold_top[i].index, tape_top[i].index);
      EXPECT_EQ(cold_top[i].score, tape_top[i].score);
    }

    // Warm start: snapshot the fast index and reload it.
    const std::string path = testing::TempDir() + "/fast_encoder_idx_" +
                             std::to_string(threads) + ".idx";
    std::string error;
    ASSERT_TRUE(cold_index.Save(path, &error)) << error;
    core::SearchIndex warm_index(fast_model, threads);
    ASSERT_TRUE(warm_index.Load(path, &error)) << error;
    const auto warm_top = warm_index.TopK(query, 5);
    ASSERT_EQ(warm_top.size(), tape_top.size());
    for (std::size_t i = 0; i < warm_top.size(); ++i) {
      EXPECT_EQ(warm_top[i].index, tape_top[i].index);
      EXPECT_EQ(warm_top[i].score, tape_top[i].score);
    }
  }
}

}  // namespace
}  // namespace asteria
