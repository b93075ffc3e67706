// Figure 10(c): online-phase similarity-calculation time per pair
// (google-benchmark microbenchmarks).
//
//   ASTERIA : eq. (8) replay on two precomputed encodings (paper: 8e-9 s)
//   Gemini  : cosine over two structure2vec embeddings    (paper: 6e-5 s)
//   Diaphora: prime-product / multiset comparison         (paper: 4e-3 s)
// The paper's shape: ASTERIA's online phase is orders of magnitude faster
// than Diaphora and much faster than Gemini at their native embedding
// sizes (Gemini embeddings are 4x wider; Diaphora compares bignums).
//
// BM_SearchTopK additionally times a whole top-10 query against a prebuilt
// SearchIndex, sharded over worker threads: /1 is the serial baseline and
// /0 resolves to the --threads=N flag (stripped before gbench parsing).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "baselines/diaphora.h"
#include "baselines/gemini.h"
#include "core/asteria.h"
#include "core/search_index.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace asteria {

// Set by --threads=N in main(); consumed by BM_SearchTopK/0.
int g_flag_threads = 1;

namespace {

ast::Ast SyntheticTree(int nodes, util::Rng& rng) {
  ast::Ast tree;
  std::vector<ast::NodeId> pool;
  pool.push_back(tree.AddVar("x"));
  while (tree.size() < nodes) {
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

const core::AsteriaModel& Model() {
  static core::AsteriaModel* model =
      new core::AsteriaModel(core::AsteriaConfig{});
  return *model;
}

void BM_AsteriaOnline(benchmark::State& state) {
  util::Rng rng(1);
  const auto t1 = core::AsteriaModel::Preprocess(SyntheticTree(80, rng));
  const auto t2 = core::AsteriaModel::Preprocess(SyntheticTree(80, rng));
  const nn::Matrix e1 = Model().Encode(t1);
  const nn::Matrix e2 = Model().Encode(t2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Model().SimilarityFromEncodings(e1, e2));
  }
}
BENCHMARK(BM_AsteriaOnline);

void BM_AsteriaOnlineCalibrated(benchmark::State& state) {
  util::Rng rng(2);
  const auto t1 = core::AsteriaModel::Preprocess(SyntheticTree(80, rng));
  const auto t2 = core::AsteriaModel::Preprocess(SyntheticTree(80, rng));
  const nn::Matrix e1 = Model().Encode(t1);
  const nn::Matrix e2 = Model().Encode(t2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::CalibratedSimilarity(
        Model().SimilarityFromEncodings(e1, e2), 3, 5));
  }
}
BENCHMARK(BM_AsteriaOnlineCalibrated);

void BM_GeminiOnline(benchmark::State& state) {
  // Gemini's native 64-dim embeddings compared with cosine.
  util::Rng rng(3);
  nn::Matrix e1(64, 1), e2(64, 1);
  for (int i = 0; i < 64; ++i) {
    e1(i, 0) = rng.NextDouble(-1, 1);
    e2(i, 0) = rng.NextDouble(-1, 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        baselines::GeminiModel::CosineSimilarity(e1, e2));
  }
}
BENCHMARK(BM_GeminiOnline);

void BM_DiaphoraOnline(benchmark::State& state) {
  // What Diaphora actually does per pair: its database stores only the
  // prime products, so comparison factorizes both bignums first.
  util::Rng rng(4);
  const auto s1 = baselines::DiaphoraHash(SyntheticTree(80, rng));
  const auto s2 = baselines::DiaphoraHash(SyntheticTree(80, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        baselines::DiaphoraProductSimilarity(s1.product, s2.product));
  }
}
BENCHMARK(BM_DiaphoraOnline);

void BM_DiaphoraOnlinePrefactored(benchmark::State& state) {
  // Lower bound when histograms are cached instead of products.
  util::Rng rng(4);
  const auto s1 = baselines::DiaphoraHash(SyntheticTree(80, rng));
  const auto s2 = baselines::DiaphoraHash(SyntheticTree(80, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::DiaphoraSimilarity(s1, s2));
  }
}
BENCHMARK(BM_DiaphoraOnlinePrefactored);

// Offline encoding cost for context (one 80-node AST).
void BM_AsteriaEncodeOffline(benchmark::State& state) {
  util::Rng rng(5);
  const auto tree = core::AsteriaModel::Preprocess(
      SyntheticTree(static_cast<int>(state.range(0)), rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Model().Encode(tree));
  }
}
BENCHMARK(BM_AsteriaEncodeOffline)->Arg(20)->Arg(80)->Arg(200);

// A 512-function index built once; each TopK call re-scores the whole
// corpus, so this is the full online phase of a clone-search query.
core::SearchIndex& SharedIndex() {
  static core::SearchIndex* index = [] {
    util::Rng rng(6);
    std::vector<core::FunctionFeature> features;
    features.reserve(512);
    for (int i = 0; i < 512; ++i) {
      core::FunctionFeature feature;
      feature.name = "fn" + std::to_string(i);
      feature.tree = core::AsteriaModel::Preprocess(SyntheticTree(60, rng));
      feature.callee_count = static_cast<int>(rng.NextBounded(8));
      features.push_back(std::move(feature));
    }
    auto* built = new core::SearchIndex(Model(), 1);
    built->AddAll(features);
    return built;
  }();
  return *index;
}

void BM_SearchTopK(benchmark::State& state) {
  const int threads = state.range(0) > 0 ? static_cast<int>(state.range(0))
                                         : g_flag_threads;
  core::SearchIndex& index = SharedIndex();
  index.set_threads(threads);
  util::Rng rng(7);
  core::FunctionFeature query;
  query.name = "query";
  query.tree = core::AsteriaModel::Preprocess(SyntheticTree(60, rng));
  query.callee_count = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.TopK(query, 10));
  }
  state.counters["threads"] = threads;
}
BENCHMARK(BM_SearchTopK)->Arg(1)->Arg(0);

}  // namespace
}  // namespace asteria

int main(int argc, char** argv) {
  std::string metrics_out;
  // Strip our flags before google-benchmark sees the args.
  // Parsed strictly: garbage is an error, not a silent 1.
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      char* end = nullptr;
      const long threads = std::strtol(argv[i] + 10, &end, 10);
      if (end == argv[i] + 10 || *end != '\0' || threads < 1) {
        std::fprintf(stderr, "bad --threads value '%s'\n", argv[i] + 10);
        return 1;
      }
      asteria::g_flag_threads = static_cast<int>(threads);
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    } else if (std::strncmp(argv[i], "--log_level=", 12) == 0) {
      asteria::util::LogLevel level = asteria::util::LogLevel::kInfo;
      if (!asteria::util::ParseLogLevel(argv[i] + 12, &level)) {
        std::fprintf(stderr,
                     "bad --log_level value '%s' (debug|info|warn|error)\n",
                     argv[i] + 12);
        return 1;
      }
      asteria::util::SetLogLevel(level);
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    } else if (std::strncmp(argv[i], "--metrics_out=", 14) == 0) {
      metrics_out = argv[i] + 14;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!metrics_out.empty()) {
    std::string error;
    if (!asteria::util::SnapshotMetrics().WriteJson(metrics_out, &error)) {
      std::fprintf(stderr, "cannot write --metrics_out: %s\n", error.c_str());
      return 1;
    }
  }
  return 0;
}
