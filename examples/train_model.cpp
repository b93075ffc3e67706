// Train an ASTERIA model on a generated cross-architecture corpus and save
// the weights for reuse by other tools.
//
//   ./build/examples/train_model --packages=24 --epochs=8 --save=asteria.weights
//
// Prints per-epoch loss and the held-out AUC, then writes the weights.
#include <cstdio>

#include "core/asteria.h"
#include "dataset/corpus.h"
#include "eval/roc.h"
#include "util/flags.h"
#include "util/log.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace asteria;
  util::Flags flags;
  flags.DefineInt("packages", 16, "corpus packages");
  flags.DefineInt("pairs_per_comb", 250, "pairs per ISA combination");
  flags.DefineInt("epochs", 6, "training epochs");
  flags.DefineInt("embedding", 16, "embedding/hidden size");
  flags.DefineInt("seed", 7, "seed");
  flags.DefineString("save", "asteria.weights", "output weight file");
  flags.DefineString("load", "",
                     "warm-start from an existing container checkpoint");
  if (!flags.Parse(argc, argv)) return 1;

  dataset::CorpusConfig corpus_config;
  corpus_config.packages = static_cast<int>(flags.GetInt("packages"));
  corpus_config.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  util::Timer timer;
  dataset::Corpus corpus = dataset::BuildCorpus(corpus_config);
  std::printf("corpus: %zu functions (%.1fs)\n", corpus.functions.size(),
              timer.ElapsedSeconds());

  util::Rng rng(corpus_config.seed + 1);
  auto all_pairs = dataset::MakeMixedPairs(
      corpus, rng, static_cast<int>(flags.GetInt("pairs_per_comb")));
  std::vector<dataset::CorpusPair> train, test;
  dataset::SplitPairs(std::move(all_pairs), rng, &train, &test);
  std::printf("pairs: %zu train / %zu test\n", train.size(), test.size());

  core::AsteriaConfig config;
  config.siamese.encoder.embedding_dim =
      static_cast<int>(flags.GetInt("embedding"));
  config.siamese.encoder.hidden_dim = config.siamese.encoder.embedding_dim;
  config.seed = corpus_config.seed;
  core::AsteriaModel model(config);
  std::printf("model: %zu weights\n", model.TotalWeights());
  if (!flags.GetString("load").empty()) {
    if (!model.Load(flags.GetString("load"))) {
      std::fprintf(stderr, "failed to load %s\n",
                   flags.GetString("load").c_str());
      return 1;
    }
    std::printf("warm-started from %s\n", flags.GetString("load").c_str());
  }

  std::vector<core::FunctionFeature> features;
  for (const dataset::CorpusFunction& fn : corpus.functions) {
    core::FunctionFeature feature;
    feature.name = fn.package + "::" + fn.function;
    feature.tree = fn.preprocessed;
    feature.callee_count = fn.callee_count;
    features.push_back(std::move(feature));
  }
  std::vector<core::LabeledPair> train_pairs;
  for (const auto& pair : train) {
    train_pairs.push_back({pair.a, pair.b, pair.homologous});
  }

  for (int epoch = 0; epoch < static_cast<int>(flags.GetInt("epochs"));
       ++epoch) {
    timer.Reset();
    const double loss = model.TrainEpoch(features, train_pairs, rng);
    // Held-out AUC with calibration.
    std::vector<eval::Scored> scored;
    for (const auto& pair : test) {
      const auto& fa = features[static_cast<std::size_t>(pair.a)];
      const auto& fb = features[static_cast<std::size_t>(pair.b)];
      scored.push_back({model.FunctionSimilarity(fa, fb), pair.homologous});
    }
    std::printf("epoch %d: loss=%.5f test AUC=%.4f (%.1fs)\n", epoch, loss,
                eval::Auc(scored), timer.ElapsedSeconds());
  }

  const std::string& path = flags.GetString("save");
  if (!model.Save(path)) {
    std::fprintf(stderr, "failed to save %s\n", path.c_str());
    return 1;
  }
  std::printf("weights saved to %s\n", path.c_str());
  return 0;
}
