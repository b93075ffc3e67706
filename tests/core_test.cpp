// Core (Asteria) tests: Tree-LSTM gradient check through a real AST,
// siamese heads, calibration math, preprocessing, and a learnability
// integration test (loss decreases, homologous > non-homologous).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "compiler/compile.h"
#include "core/asteria.h"
#include "core/search_index.h"
#include "decompiler/decompile.h"
#include "minic/parser.h"
#include "minic/sema.h"

namespace asteria::core {
namespace {

ast::Ast SmallTree(int variant) {
  // (block (asg (var) (num)) (return (add (var) (num+variant))))
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

TEST(Calibration, Equation9And10) {
  EXPECT_DOUBLE_EQ(CalleeSimilarity(3, 3), 1.0);
  EXPECT_DOUBLE_EQ(CalleeSimilarity(3, 5), std::exp(-2.0));
  EXPECT_DOUBLE_EQ(CalleeSimilarity(5, 3), std::exp(-2.0));
  EXPECT_DOUBLE_EQ(CalibratedSimilarity(0.8, 2, 2), 0.8);
  EXPECT_NEAR(CalibratedSimilarity(0.8, 2, 4), 0.8 * std::exp(-2.0), 1e-12);
}

TEST(Preprocess, ProducesBinaryTreeOfSameSize) {
  ast::Ast tree = SmallTree(0);
  ast::BinaryAst binary = AsteriaModel::Preprocess(tree);
  EXPECT_EQ(binary.size(), tree.size());
}

TEST(Siamese, OutputIsProbability) {
  AsteriaConfig config;
  AsteriaModel model(config);
  const auto a = AsteriaModel::Preprocess(SmallTree(0));
  const auto b = AsteriaModel::Preprocess(SmallTree(1));
  const double sim = model.AstSimilarity(a, b);
  EXPECT_GE(sim, 0.0);
  EXPECT_LE(sim, 1.0);
  // Symmetric-ish inputs: similarity of a tree with itself should exceed
  // similarity with a different tree after training; untrained it is just
  // a probability.
  const double self_sim = model.AstSimilarity(a, a);
  EXPECT_GE(self_sim, 0.0);
  EXPECT_LE(self_sim, 1.0);
}

TEST(Siamese, EncodingPathMatchesFullPath) {
  AsteriaConfig config;
  AsteriaModel model(config);
  const auto a = AsteriaModel::Preprocess(SmallTree(0));
  const auto b = AsteriaModel::Preprocess(SmallTree(1));
  const double full = model.AstSimilarity(a, b);
  const double split =
      model.SimilarityFromEncodings(model.Encode(a), model.Encode(b));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(full),
            std::bit_cast<std::uint64_t>(split));
}

TEST(Siamese, RegressionHeadAlsoWorks) {
  AsteriaConfig config;
  config.siamese.head = SiameseHead::kRegression;
  AsteriaModel model(config);
  const auto a = AsteriaModel::Preprocess(SmallTree(0));
  const auto b = AsteriaModel::Preprocess(SmallTree(1));
  const double sim = model.AstSimilarity(a, b);
  EXPECT_GE(sim, 0.0);
  EXPECT_LE(sim, 1.0);
  const double split =
      model.SimilarityFromEncodings(model.Encode(a), model.Encode(b));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sim),
            std::bit_cast<std::uint64_t>(split));
}

TEST(PayloadEmbedding, DistinguishesConstantsWhenEnabled) {
  // Two trees identical except for the numeric constant: the paper's
  // digitalization maps them to the same input; the §VII extension does not.
  ast::Ast t1, t2;
  for (ast::Ast* tree : {&t1, &t2}) {
    const auto v = tree->AddVar("x");
    const auto n = tree->AddNum(tree == &t1 ? 1 : 1'000'000);
    const auto add = tree->AddNode(ast::NodeKind::kAdd, {v, n});
    const auto ret = tree->AddNode(ast::NodeKind::kReturn, {add});
    tree->set_root(tree->AddNode(ast::NodeKind::kBlock, {ret}));
  }
  const auto b1 = AsteriaModel::Preprocess(t1);
  const auto b2 = AsteriaModel::Preprocess(t2);

  AsteriaConfig plain_config;
  AsteriaModel plain(plain_config);
  // Without payloads the encodings are bit-identical.
  const nn::Matrix e1 = plain.Encode(b1);
  const nn::Matrix e2 = plain.Encode(b2);
  EXPECT_EQ(Sub(e1, e2).MaxAbs(), 0.0);

  AsteriaConfig payload_config;
  payload_config.siamese.encoder.embed_payloads = true;
  AsteriaModel with_payloads(payload_config);
  const nn::Matrix p1 = with_payloads.Encode(b1);
  const nn::Matrix p2 = with_payloads.Encode(b2);
  EXPECT_GT(Sub(p1, p2).MaxAbs(), 0.0);
}

TEST(PayloadEmbedding, ModelTrainsAndSaves) {
  AsteriaConfig config;
  config.siamese.encoder.embedding_dim = 8;
  config.siamese.encoder.hidden_dim = 8;
  config.siamese.encoder.embed_payloads = true;
  AsteriaModel model(config);
  const auto a = AsteriaModel::Preprocess(SmallTree(0));
  const auto b = AsteriaModel::Preprocess(SmallTree(2));
  const auto c = AsteriaModel::Preprocess(SmallTree(1));
  double first = 0.0, last = 0.0;
  for (int step = 0; step < 25; ++step) {
    const double loss =
        model.TrainPair(a, b, true) + model.TrainPair(a, c, false);
    if (step == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first);
  const std::string path = "/tmp/asteria_payload_model.bin";
  ASSERT_TRUE(model.Save(path));
  AsteriaModel loaded(config);
  ASSERT_TRUE(loaded.Load(path));
  EXPECT_NEAR(loaded.AstSimilarity(a, b), model.AstSimilarity(a, b), 1e-12);
  std::remove(path.c_str());
}

TEST(TreeLstm, GradientCheckThroughSmallAst) {
  // Full analytic-vs-numeric check of the Tree-LSTM + classification head
  // on a real (tiny) AST. Checks a sample of weights from each parameter.
  util::Rng rng(3);
  nn::ParameterStore store;
  TreeLstmConfig config;
  config.embedding_dim = 4;
  config.hidden_dim = 4;
  TreeLstmEncoder encoder(config, &store, rng);
  const auto tree = AsteriaModel::Preprocess(SmallTree(0));
  const auto tree2 = AsteriaModel::Preprocess(SmallTree(1));
  nn::Parameter* w_out = store.CreateXavier("W", 8, 2, rng);

  nn::Matrix target(2, 1);
  target(1, 0) = 1.0;
  auto graph = [&](nn::Tape& t) {
    nn::Var e1 = encoder.Encode(&t, tree);
    nn::Var e2 = encoder.Encode(&t, tree2);
    nn::Var features =
        t.Sigmoid(t.ConcatRows(t.Abs(t.Sub(e1, e2)), t.Hadamard(e1, e2)));
    nn::Var out = t.Softmax(t.MatMulTransA(t.Param(w_out), features));
    return t.BceLoss(out, target);
  };

  nn::Tape tape;
  nn::Var loss = graph(tape);
  store.ZeroGrads();
  tape.Backward(loss);

  const double eps = 1e-5;
  for (nn::Parameter* p : store.parameters()) {
    // Sample a handful of indices per parameter to keep runtime sane.
    for (std::size_t i = 0; i < p->value.size();
         i += std::max<std::size_t>(1, p->value.size() / 5)) {
      const double saved = p->value[i];
      p->value[i] = saved + eps;
      nn::Tape t1;
      const double up = t1.value(graph(t1))(0, 0);
      p->value[i] = saved - eps;
      nn::Tape t2;
      const double down = t2.value(graph(t2))(0, 0);
      p->value[i] = saved;
      EXPECT_NEAR(p->grad[i], (up - down) / (2 * eps), 1e-5)
          << p->name << "[" << i << "]";
    }
  }
}

// The pair loss SiameseModel trains on, recomputed from Similarity(): the
// mean BCE of [1 - M, M] against the one-hot target (both elements give
// -log of the target class's probability), or (cos - (±1))^2.
double PairLoss(const SiameseModel& model, const ast::BinaryAst& a,
                const ast::BinaryAst& b, bool homologous) {
  const double sim = model.Similarity(a, b);
  if (model.config().head == SiameseHead::kRegression) {
    const double diff = (2.0 * sim - 1.0) - (homologous ? 1.0 : -1.0);
    return diff * diff;
  }
  const double p = homologous ? sim : 1.0 - sim;
  return -std::log(p);
}

// Central differences against the fused training kernel's gradient
// (SiameseModel::AccumulateGradients, the gradient half of TrainPair):
// every weight of every parameter, payload_embedding and siamese.W
// included, for both heads, leaf-0 and leaf-1, at a non-square e = 4,
// h = 6. The numeric side goes through the tape encoder
// (use_fast_encoder = false), which reads the perturbed weights directly;
// the fused copies keep the unperturbed ones the gradient was taken at.
TEST(TreeLstm, FusedGradientCheckThroughSmallAst) {
  const auto tree = AsteriaModel::Preprocess(SmallTree(0));
  const auto tree2 = AsteriaModel::Preprocess(SmallTree(1));
  for (SiameseHead head : {SiameseHead::kClassification, SiameseHead::kRegression}) {
    for (bool leaf_ones : {false, true}) {
      SiameseConfig config;
      config.head = head;
      config.encoder.embedding_dim = 4;
      config.encoder.hidden_dim = 6;
      config.encoder.embed_payloads = true;
      config.encoder.leaf_init_ones = leaf_ones;
      config.use_fast_encoder = false;
      util::Rng rng(5);
      SiameseModel model(config, rng);
      const bool homologous = leaf_ones;
      const double loss = model.AccumulateGradients(tree, tree2, homologous);
      ASSERT_NEAR(loss, PairLoss(model, tree, tree2, homologous), 1e-9);

      const double eps = 1e-5;
      for (nn::Parameter* p : model.parameters().parameters()) {
        EXPECT_GT(p->grad.MaxAbs(), 0.0) << p->name << " got no gradient";
        for (std::size_t i = 0; i < p->value.size(); ++i) {
          const double saved = p->value[i];
          p->value[i] = saved + eps;
          const double up = PairLoss(model, tree, tree2, homologous);
          p->value[i] = saved - eps;
          const double down = PairLoss(model, tree, tree2, homologous);
          p->value[i] = saved;
          EXPECT_NEAR(p->grad[i], (up - down) / (2 * eps), 1e-7)
              << p->name << "[" << i << "] head=" << static_cast<int>(head)
              << " leaf_ones=" << leaf_ones;
        }
      }
    }
  }
}

TEST(Training, LossDecreasesAndSeparates) {
  // Tiny synthetic task: variants 0/2/4 (add-shaped) vs 1/3/5 (mul-shaped).
  AsteriaConfig config;
  config.siamese.encoder.embedding_dim = 8;
  config.siamese.encoder.hidden_dim = 8;
  AsteriaModel model(config);

  std::vector<FunctionFeature> features;
  for (int v = 0; v < 6; ++v) {
    FunctionFeature f;
    f.name = "f" + std::to_string(v);
    f.tree = AsteriaModel::Preprocess(SmallTree(v));
    features.push_back(std::move(f));
  }
  std::vector<LabeledPair> pairs;
  for (int a = 0; a < 6; ++a) {
    for (int b = 0; b < 6; ++b) {
      if (a == b) continue;
      pairs.push_back({a, b, (a % 2) == (b % 2)});
    }
  }
  util::Rng rng(7);
  double first_loss = 0.0, last_loss = 0.0;
  for (int epoch = 0; epoch < 30; ++epoch) {
    const double loss = model.TrainEpoch(features, pairs, rng);
    if (epoch == 0) first_loss = loss;
    last_loss = loss;
  }
  EXPECT_LT(last_loss, first_loss);
  // Homologous (same parity) pairs should now score higher.
  const double same = model.AstSimilarity(features[0].tree, features[2].tree);
  const double diff = model.AstSimilarity(features[0].tree, features[1].tree);
  EXPECT_GT(same, diff);
}

TEST(SearchIndex, TopKAndThreshold) {
  AsteriaConfig config;
  config.siamese.encoder.embedding_dim = 8;
  config.siamese.encoder.hidden_dim = 8;
  AsteriaModel model(config);

  std::vector<FunctionFeature> corpus;
  for (int v = 0; v < 6; ++v) {
    FunctionFeature f;
    f.name = "fn" + std::to_string(v);
    f.tree = AsteriaModel::Preprocess(SmallTree(v));
    f.callee_count = v % 2;
    corpus.push_back(std::move(f));
  }
  // Teach the model the parity task so ranking is meaningful.
  for (int step = 0; step < 20; ++step) {
    model.TrainPair(corpus[0].tree, corpus[2].tree, true);
    model.TrainPair(corpus[0].tree, corpus[1].tree, false);
  }
  SearchIndex index(model);
  index.AddAll(corpus);
  EXPECT_EQ(index.size(), 6);

  FunctionFeature query;
  query.name = "query";
  query.tree = AsteriaModel::Preprocess(SmallTree(4));  // even variant
  query.callee_count = 0;
  const auto top = index.TopK(query, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_GE(top[0].score, top[1].score);
  EXPECT_GE(top[1].score, top[2].score);
  // k larger than the corpus clips cleanly.
  EXPECT_EQ(index.TopK(query, 100).size(), 6u);
  // Threshold filtering agrees with TopK scores.
  const auto above = index.AboveThreshold(query, top[0].score);
  ASSERT_GE(above.size(), 1u);
  // Ties are possible (variants 0/2/4 digitalize identically), so compare
  // scores rather than names.
  EXPECT_DOUBLE_EQ(above[0].score, top[0].score);
  for (const auto& hit : above) EXPECT_GE(hit.score, top[0].score);
}

TEST(Integration, EndToEndPipelineSimilarity) {
  // Compile the same source for two ISAs, decompile, preprocess, score.
  const std::string source = R"(
    int f(int n) {
      int s = 0;
      int i;
      for (i = 0; i < n; i++) { s += i * 3; }
      return s;
    }
    int g(int a[], int n) {
      int i;
      for (i = 0; i < n; i++) { a[i] = a[i] ^ (i << 1); }
      return n;
    }
  )";
  minic::Program program;
  std::string error;
  ASSERT_TRUE(minic::Parse(source, &program, &error)) << error;
  ASSERT_TRUE(minic::Check(program, &error)) << error;
  auto x86 = compiler::CompileProgram(program, binary::Isa::kX86, "m");
  auto ppc = compiler::CompileProgram(program, binary::Isa::kPpc, "m");
  ASSERT_TRUE(x86.ok && ppc.ok);
  auto d_x86 = decompiler::DecompileModule(x86.module);
  auto d_ppc = decompiler::DecompileModule(ppc.module);

  AsteriaConfig config;
  AsteriaModel model(config);
  const auto fx = AsteriaModel::Preprocess(d_x86[0].tree);
  const auto fp = AsteriaModel::Preprocess(d_ppc[0].tree);
  const auto gx = AsteriaModel::Preprocess(d_x86[1].tree);
  // Train briefly on this toy task to make homologous pairs score high.
  for (int step = 0; step < 60; ++step) {
    model.TrainPair(fx, fp, true);
    model.TrainPair(fx, gx, false);
    model.TrainPair(AsteriaModel::Preprocess(d_ppc[1].tree), gx, true);
    model.TrainPair(AsteriaModel::Preprocess(d_ppc[1].tree), fx, false);
  }
  EXPECT_GT(model.AstSimilarity(fx, fp), model.AstSimilarity(fx, gx));
}

}  // namespace
}  // namespace asteria::core
