// train-epoch: TrainEpoch over the fig6 default corpus — 576 mixed
// cross-ISA pairs, batch 1, AdaGrad — repeated for the measured window.
// Only the nn autograd tape and the optimizer run here.
#include <cmath>

#include "dataset/corpus.h"
#include "inputs.h"
#include "util/rng.h"
#include "workloads.h"

namespace asteria::perf {
namespace {

constexpr int kPairsPerIsaCombination = 120;  // bench_fig6 default
constexpr int kForwardSample = 64;

struct TrainSet {
  std::vector<core::FunctionFeature> features;
  std::vector<core::LabeledPair> pairs;
};

// bench/common.cpp BuildSetup + TrainAsteria's feature view.
TrainSet BuildTrainSet(const dataset::CorpusConfig& config) {
  const dataset::Corpus corpus = dataset::BuildCorpus(config);
  util::Rng rng(config.seed ^ 0xabcdef);
  std::vector<dataset::CorpusPair> train, test;
  dataset::SplitPairs(
      dataset::MakeMixedPairs(corpus, rng, kPairsPerIsaCombination), rng,
      &train, &test);
  TrainSet set;
  for (const dataset::CorpusFunction& fn : corpus.functions) {
    core::FunctionFeature feature;
    feature.name = fn.package + "::" + fn.function;
    feature.tree = fn.preprocessed;
    feature.callee_count = fn.callee_count;
    set.features.push_back(std::move(feature));
  }
  for (const dataset::CorpusPair& pair : train) {
    set.pairs.push_back({pair.a, pair.b, pair.homologous});
  }
  return set;
}

}  // namespace

RunResult RunTrainEpoch(const Options& opt) {
  RunResult result;
  const dataset::CorpusConfig config = Fig6CorpusConfig(opt.smoke ? 3 : 12);
  const int min_epochs = opt.smoke ? 1 : 3;

  // Set-up: corpus build (compile, decompile, preprocess), pairing, model.
  std::vector<double> setups;
  TrainSet set;
  for (int i = 0; i < 3; ++i) {
    const std::int64_t t0 = NowNanos();
    set = BuildTrainSet(config);
    const core::AsteriaModel model(BenchModelConfig());
    setups.push_back(static_cast<double>(NowNanos() - t0) * 1e-9);
  }
  if (set.pairs.empty()) {
    result.Fail("train-epoch: no training pairs");
    return result;
  }
  double nodes_per_epoch = 0.0;
  for (const core::LabeledPair& pair : set.pairs) {
    nodes_per_epoch += set.features[static_cast<std::size_t>(pair.a)].tree.size() +
                       set.features[static_cast<std::size_t>(pair.b)].tree.size();
  }

  core::AsteriaModel model(BenchModelConfig());
  util::Rng rng(util::Rng::DeriveSeed(opt.seed, 0x7a1));
  ResetSelfPeakRss();
  std::vector<double> epoch_ms;
  double trained = 0.0, skipped = 0.0, total_s = 0.0;
  const std::int64_t start = NowNanos();
  int epochs = 0;
  while (epochs < min_epochs ||
         static_cast<double>(NowNanos() - start) * 1e-9 < opt.seconds) {
    util::PipelineReport report;
    const std::int64_t t0 = NowNanos();
    const double loss = model.TrainEpoch(set.features, set.pairs, rng, &report);
    const std::int64_t t1 = NowNanos();
    ++epochs;
    epoch_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    total_s += static_cast<double>(t1 - t0) * 1e-9;
    trained += static_cast<double>(report.ok);
    skipped += static_cast<double>(report.skipped + report.failed);
    result.attempted += static_cast<std::int64_t>(set.pairs.size());
    result.failed += report.failed;
    if (!std::isfinite(loss) ||
        report.ok + report.skipped != static_cast<std::int64_t>(set.pairs.size())) {
      result.Fail("train-epoch: epoch " + std::to_string(epochs) +
                  " loss " + std::to_string(loss) + ", " + report.Summary());
    }
  }
  const double peak_rss = SelfPeakRssMb();
  const double pairs_per_s = total_s > 0 ? trained / total_s : 0.0;
  std::vector<double> epoch_rates;
  for (double ms : epoch_ms) {
    epoch_rates.push_back(static_cast<double>(set.pairs.size()) / (ms * 1e-3));
  }

  result.end_to_end = {
      MakeMetric("setup_s", "s", Percentile(setups, 0.5), setups),
      MakeMetric("p50_ms", "ms", Percentile(epoch_ms, 0.5), epoch_ms),
      MakeMetric("tail_ms", "ms", Percentile(epoch_ms, 1.0), epoch_ms),
      MakeMetric("rate_per_s", "1/s", pairs_per_s, epoch_rates),
      MakeMetric("peak_rss_mb", "MiB", peak_rss, {peak_rss}),
  };
  result.named = {
      MakeMetric("train_pairs_per_s", "1/s", pairs_per_s, epoch_rates),
      MakeMetric("epoch_ms", "ms", Percentile(epoch_ms, 0.5), epoch_ms),
      MakeMetric("failed_frac", "ratio",
                 static_cast<double>(result.failed) /
                     static_cast<double>(result.attempted),
                 {}),
  };
  result.notes["pairs"] = std::to_string(set.pairs.size());
  result.notes["epochs"] = std::to_string(epochs);
  result.notes["nodes_per_epoch"] =
      std::to_string(static_cast<long long>(nodes_per_epoch));

  if (opt.traced) {
    result.layers["core.train.ns_per_node"] =
        total_s * 1e9 / (nodes_per_epoch * epochs);
    result.layers["core.train.skipped_pairs"] = skipped;
    // Forward share: the tape encode of both trees against a whole
    // TrainPair step, on a seeded sample of pairs.
    core::AsteriaConfig tape_config = BenchModelConfig();
    tape_config.siamese.use_fast_encoder = false;
    const core::AsteriaModel tape(tape_config);
    core::AsteriaModel stepper(BenchModelConfig());
    double forward_ns = 0.0, step_ns = 0.0;
    for (int i = 0; i < kForwardSample; ++i) {
      const core::LabeledPair& pair =
          set.pairs[rng.NextBounded(set.pairs.size())];
      const auto& a = set.features[static_cast<std::size_t>(pair.a)].tree;
      const auto& b = set.features[static_cast<std::size_t>(pair.b)].tree;
      const std::int64_t t0 = NowNanos();
      tape.Encode(a);
      tape.Encode(b);
      const std::int64_t t1 = NowNanos();
      stepper.TrainPair(a, b, pair.homologous);
      const std::int64_t t2 = NowNanos();
      forward_ns += static_cast<double>(t1 - t0);
      step_ns += static_cast<double>(t2 - t1);
    }
    result.layers["core.train.forward_share"] =
        step_ns > 0 ? forward_ns / step_ns : 0.0;
  }
  return result;
}

}  // namespace asteria::perf
