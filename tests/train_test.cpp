// Differential net for the fused training step: SiameseModel's tape-free
// forward + backward (TreeLstmFastEncoder::TrainForward/TrainBackward and
// the hand-written heads) must add bitwise the same gradients, return
// bitwise the same losses and leave bitwise the same weights as the
// autograd-tape oracle (tests/train_oracle.h) — over both heads, leaf-0 and
// leaf-1, payload embeddings on and off, rectangular dims, and edge-shaped
// trees (docs/PERFORMANCE.md "The training path").
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/asteria.h"
#include "store/checkpoint.h"
#include "train_oracle.h"
#include "util/rng.h"

namespace asteria::core {
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
  tree.set_root(tree.AddNode(ast::NodeKind::kBlock, pool));
  return tree;
}

std::vector<ast::BinaryAst> SyntheticTrees(int count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<ast::BinaryAst> trees;
  for (int i = 0; i < count; ++i) {
    trees.push_back(AsteriaModel::Preprocess(
        SyntheticTree(5 + static_cast<int>(rng.NextBounded(120)), rng)));
  }
  return trees;
}

// A block with `n` leaf children: its LCRS form is a right-sibling chain n
// deep.
ast::BinaryAst Chain(int n) {
  ast::Ast tree;
  std::vector<ast::NodeId> children;
  for (int i = 0; i < n; ++i) {
    children.push_back(i % 3 == 0 ? tree.AddNum(i) : tree.AddVar("v"));
  }
  tree.set_root(tree.AddNode(ast::NodeKind::kBlock, std::move(children)));
  return AsteriaModel::Preprocess(tree);
}

ast::BinaryAst SingleNode() {
  ast::Ast tree;
  tree.set_root(tree.AddVar("x"));
  return AsteriaModel::Preprocess(tree);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The fused model and the tape oracle, built from the same seed.
struct Trainers {
  Trainers(const SiameseConfig& config, std::uint64_t seed)
      : model_rng(seed), tape_rng(seed), model(config, model_rng),
        tape(config, tape_rng) {}

  // One step on both; false (with a gtest failure) if the losses differ.
  bool Step(const ast::BinaryAst& a, const ast::BinaryAst& b, bool homologous,
            const std::string& where) {
    const double fused = model.TrainPair(a, b, homologous);
    const double reference = tape.TrainPair(a, b, homologous);
    EXPECT_TRUE(SameBits(fused, reference))
        << where << ": loss " << fused << " vs tape " << reference;
    return SameBits(fused, reference);
  }

  bool SameWeights() const {
    return store::WeightsFingerprint(model.parameters()) ==
           tape.WeightsFingerprint();
  }

  util::Rng model_rng;
  util::Rng tape_rng;
  SiameseModel model;
  oracle::TapeTrainer tape;
};

struct Case {
  SiameseHead head;
  bool leaf_ones;
  bool payloads;
  int embedding;
  int hidden;
};

std::string Describe(const Case& c) {
  return std::string(c.head == SiameseHead::kRegression ? "regression"
                                                        : "classification") +
         " leaf=" + (c.leaf_ones ? "1" : "0") +
         " payloads=" + (c.payloads ? "on" : "off") +
         " e=" + std::to_string(c.embedding) + " h=" + std::to_string(c.hidden);
}

SiameseConfig ConfigFor(const Case& c) {
  SiameseConfig config;
  config.head = c.head;
  config.encoder.leaf_init_ones = c.leaf_ones;
  config.encoder.embed_payloads = c.payloads;
  config.encoder.embedding_dim = c.embedding;
  config.encoder.hidden_dim = c.hidden;
  return config;
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (SiameseHead head : {SiameseHead::kClassification, SiameseHead::kRegression}) {
    for (bool leaf_ones : {false, true}) {
      for (bool payloads : {false, true}) {
        cases.push_back({head, leaf_ones, payloads, 16, 16});
      }
    }
    cases.push_back({head, false, true, 8, 12});
    cases.push_back({head, true, true, 6, 7});  // widths that are not x4
  }
  return cases;
}

// Gradient level: before any step, every Parameter::grad the fused backward
// adds over three pairs equals the tape's, bit for bit.
TEST(TrainKernel, GradientsMatchTapeBitwise) {
  const auto trees = SyntheticTrees(6, 5);
  for (const Case& c : AllCases()) {
    Trainers both(ConfigFor(c), 17);
    for (int i = 0; i < 3; ++i) {
      const auto& a = trees[static_cast<std::size_t>(2 * i)];
      const auto& b = trees[static_cast<std::size_t>(2 * i + 1)];
      const double fused = both.model.AccumulateGradients(a, b, i % 2 == 0);
      const double reference = both.tape.AccumulateGradients(a, b, i % 2 == 0);
      ASSERT_TRUE(SameBits(fused, reference)) << Describe(c) << " pair " << i;
    }
    const auto& got = both.model.parameters().parameters();
    const auto& want = both.tape.parameters().parameters();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t p = 0; p < got.size(); ++p) {
      ASSERT_EQ(got[p]->name, want[p]->name);
      ASSERT_TRUE(got[p]->grad.SameShape(want[p]->grad));
      for (std::size_t i = 0; i < got[p]->grad.size(); ++i) {
        ASSERT_TRUE(SameBits(got[p]->grad[i], want[p]->grad[i]))
            << Describe(c) << " " << got[p]->name << "[" << i
            << "]: " << got[p]->grad[i] << " vs tape " << want[p]->grad[i];
      }
    }
  }
}

// Two seeded epochs over synthetic pairs: every per-pair loss and the final
// weights equal the tape oracle's.
TEST(TrainKernel, TwoEpochsMatchTapeBitwise) {
  const auto trees = SyntheticTrees(10, 7);
  std::vector<LabeledPair> pairs;
  for (int i = 0; i < 10; ++i) {
    pairs.push_back({i, (i + 1) % 10, i % 2 == 0});
    pairs.push_back({i, (i + 3) % 10, i % 3 == 0});
  }
  for (const Case& c : AllCases()) {
    Trainers both(ConfigFor(c), 23);
    util::Rng order_rng(29);
    for (int epoch = 0; epoch < 2; ++epoch) {
      std::vector<LabeledPair> order = pairs;
      order_rng.Shuffle(order);
      for (std::size_t i = 0; i < order.size(); ++i) {
        ASSERT_TRUE(both.Step(trees[static_cast<std::size_t>(order[i].a)],
                              trees[static_cast<std::size_t>(order[i].b)],
                              order[i].homologous,
                              Describe(c) + " epoch " + std::to_string(epoch) +
                                  " pair " + std::to_string(i)));
      }
      ASSERT_TRUE(both.SameWeights()) << Describe(c) << " epoch " << epoch;
    }
  }
}

// A pair (x, x) sharing one tree object, a single-node tree, and a
// 2,000-node LCRS chain (deeper than any recursion budget), for each head
// and leaf init (payloads on, e = h = 16).
TEST(TrainKernel, EdgeTreesMatchTapeBitwise) {
  const auto trees = SyntheticTrees(2, 11);
  const ast::BinaryAst single = SingleNode();
  const ast::BinaryAst chain = Chain(2000);
  ASSERT_EQ(chain.Depth(), 2001);  // the block, then its 2,000 children
  for (const Case& c : AllCases()) {
    if (!c.payloads || c.hidden != 16) continue;
    Trainers both(ConfigFor(c), 31);
    for (int step = 0; step < 2; ++step) {
      ASSERT_TRUE(both.Step(trees[0], trees[0], true, Describe(c) + " (x, x)"));
      ASSERT_TRUE(both.Step(trees[1], trees[1], false, Describe(c) + " (y, y) negative"));
      ASSERT_TRUE(both.Step(single, trees[0], false, Describe(c) + " single"));
      ASSERT_TRUE(both.Step(single, single, true, Describe(c) + " (single, single)"));
      ASSERT_TRUE(both.Step(chain, trees[1], step == 0, Describe(c) + " chain"));
      ASSERT_TRUE(both.Step(trees[1], chain, step == 1, Describe(c) + " chain second"));
    }
    ASSERT_TRUE(both.SameWeights()) << Describe(c);
  }
}

}  // namespace
}  // namespace asteria::core
