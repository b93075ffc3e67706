#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "dataset/corpus_io.h"
#include "util/failpoint.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/table.h"
#include "util/timer.h"

namespace asteria::bench {

void DefineObservabilityFlags(util::Flags* flags) {
  flags->DefineString("log_level", "",
                      "minimum emitted log level (debug|info|warn|error); "
                      "empty keeps the default (info)");
  flags->DefineString("metrics_out", "",
                      "write the process metrics snapshot (counters, "
                      "histograms, span times) as JSON to this path on exit");
}

void DefineCommonFlags(util::Flags* flags) {
  DefineObservabilityFlags(flags);
  flags->DefineInt("packages", 12, "number of generated packages (Buildroot-like corpus)");
  flags->DefineInt("pairs_per_comb", 120, "max labeled pairs per ISA combination (0 = all)");
  flags->DefineInt("epochs", 5, "training epochs (paper: 60; defaults sized for one CPU core)");
  flags->DefineInt("seed", 1, "experiment seed");
  flags->DefineInt("embedding", 16, "Tree-LSTM embedding/hidden size");
  flags->DefineInt("hidden", 0,
                   "Tree-LSTM hidden size (0 = same as --embedding)");
  flags->DefineString("out", "bench_out", "CSV output directory");
  flags->DefineBool("quiet", false, "suppress progress logging");
  flags->DefineInt("threads", 1,
                   "worker threads for corpus generation and offline "
                   "encoding (deterministic: results are bitwise identical "
                   "for any value)");
  flags->DefineString("corpus_cache", "",
                      "path of a corpus snapshot to reuse (empty = rebuild "
                      "every run); a stale or corrupt snapshot is detected "
                      "by its config fingerprint/CRCs, quarantined, and "
                      "rebuilt");
  flags->DefineString("failpoints", "",
                      "fault-injection spec, e.g. 'store.write=once,"
                      "corpus.function=every:3' (see docs/ROBUSTNESS.md)");
}

namespace {
std::string g_out_dir = "bench_out";
std::string g_metrics_out;  // written by the atexit hook when non-empty
bool g_flags_applied = false;

void WriteMetricsAtExit() {
  if (g_metrics_out.empty()) return;
  std::string error;
  if (!util::SnapshotMetrics().WriteJson(g_metrics_out, &error)) {
    std::fprintf(stderr, "cannot write --metrics_out: %s\n", error.c_str());
  }
}
}  // namespace

std::string OutDir() { return g_out_dir; }

void ApplyCommonFlags(const util::Flags& flags) {
  if (g_flags_applied) return;
  g_flags_applied = true;
  if (flags.Has("out")) g_out_dir = flags.GetString("out");
  if (flags.Has("log_level")) {
    if (const std::string name = flags.GetString("log_level"); !name.empty()) {
      util::LogLevel level = util::LogLevel::kInfo;
      if (!util::ParseLogLevel(name, &level)) {
        std::fprintf(stderr,
                     "bad --log_level value '%s' (debug|info|warn|error)\n",
                     name.c_str());
        std::exit(2);
      }
      util::SetLogLevel(level);
    }
  }
  // --quiet outranks --log_level: scripts rely on it silencing progress.
  if (flags.Has("quiet") && flags.GetBool("quiet")) {
    util::SetLogLevel(util::LogLevel::kWarn);
  }
  if (flags.Has("failpoints")) {
    if (const std::string spec = flags.GetString("failpoints"); !spec.empty()) {
      std::string error;
      if (!util::ConfigureFailpoints(spec, &error)) {
        std::fprintf(stderr, "bad --failpoints spec: %s\n", error.c_str());
        std::exit(2);
      }
    }
  }
  if (flags.Has("metrics_out")) {
    g_metrics_out = flags.GetString("metrics_out");
    // atexit (not an eager write) so the snapshot reflects the whole run,
    // including whatever the bench does after BuildSetup.
    if (!g_metrics_out.empty()) std::atexit(WriteMetricsAtExit);
  }
}

void ApplyEncoderFlags(const util::Flags& flags, core::AsteriaConfig* config) {
  const int embedding = static_cast<int>(flags.GetInt("embedding"));
  const int hidden = static_cast<int>(flags.GetInt("hidden"));
  config->siamese.encoder.embedding_dim = embedding;
  config->siamese.encoder.hidden_dim = hidden > 0 ? hidden : embedding;
}

ExperimentSetup BuildSetup(const util::Flags& flags) {
  ApplyCommonFlags(flags);
  dataset::CorpusConfig config;
  config.packages = static_cast<int>(flags.GetInt("packages"));
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed")) * 1000003 + 17;
  config.threads = static_cast<int>(flags.GetInt("threads"));
  util::Timer timer;
  ExperimentSetup setup;
  setup.corpus =
      dataset::BuildOrLoadCorpus(config, flags.GetString("corpus_cache"));
  if (!setup.corpus.report.Clean()) {
    ASTERIA_LOG(Warn) << setup.corpus.report.Summary();
  }
  ASTERIA_LOG(Info) << "corpus: " << setup.corpus.functions.size()
                    << " functions from " << config.packages
                    << " packages x 4 ISAs in "
                    << util::FormatSeconds(timer.ElapsedSeconds());
  util::Rng rng(config.seed ^ 0xabcdef);
  auto pairs = dataset::MakeMixedPairs(
      setup.corpus, rng, static_cast<int>(flags.GetInt("pairs_per_comb")));
  dataset::SplitPairs(std::move(pairs), rng, &setup.train, &setup.test);
  ASTERIA_LOG(Info) << "pairs: " << setup.train.size() << " train / "
                    << setup.test.size() << " test (mixed cross-arch)";
  return setup;
}

std::vector<double> TrainAsteria(core::AsteriaModel* model,
                                 const ExperimentSetup& setup, int epochs,
                                 util::Rng* rng) {
  // Adapt corpus entries to the model's feature type (no copies of trees:
  // build a feature view once).
  std::vector<core::FunctionFeature> features;
  features.reserve(setup.corpus.functions.size());
  for (const dataset::CorpusFunction& fn : setup.corpus.functions) {
    core::FunctionFeature feature;
    feature.name = fn.package + "::" + fn.function;
    feature.tree = fn.preprocessed;
    feature.callee_count = fn.callee_count;
    features.push_back(std::move(feature));
  }
  std::vector<core::LabeledPair> pairs;
  pairs.reserve(setup.train.size());
  for (const dataset::CorpusPair& pair : setup.train) {
    pairs.push_back({pair.a, pair.b, pair.homologous});
  }
  std::vector<double> losses;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    util::Timer timer;
    util::PipelineReport report;
    const double loss = model->TrainEpoch(features, pairs, *rng, &report);
    losses.push_back(loss);
    ASTERIA_LOG(Info) << "asteria epoch " << epoch << ": loss=" << loss
                      << " (" << util::FormatSeconds(timer.ElapsedSeconds())
                      << ")";
    if (report.failed > 0) {
      ASTERIA_LOG(Warn) << report.Summary();
    }
  }
  return losses;
}

std::vector<double> TrainGemini(baselines::GeminiModel* model,
                                const ExperimentSetup& setup, int epochs,
                                util::Rng* rng) {
  std::vector<double> losses;
  std::vector<dataset::CorpusPair> pairs = setup.train;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    util::Timer timer;
    rng->Shuffle(pairs);
    double total = 0.0;
    for (const dataset::CorpusPair& pair : pairs) {
      const auto& a = setup.corpus.functions[static_cast<std::size_t>(pair.a)];
      const auto& b = setup.corpus.functions[static_cast<std::size_t>(pair.b)];
      total += model->TrainPair(a.acfg, b.acfg, pair.homologous ? 1 : -1);
    }
    const double loss = pairs.empty() ? 0.0 : total / static_cast<double>(pairs.size());
    losses.push_back(loss);
    ASTERIA_LOG(Info) << "gemini epoch " << epoch << ": loss=" << loss << " ("
                      << util::FormatSeconds(timer.ElapsedSeconds()) << ")";
  }
  return losses;
}

std::vector<eval::Scored> ScoreAsteria(
    const core::AsteriaModel& model, const dataset::Corpus& corpus,
    const std::vector<dataset::CorpusPair>& pairs, bool calibrated) {
  // Offline phase: encode each referenced function once.
  std::unordered_map<int, nn::Matrix> encodings;
  for (const dataset::CorpusPair& pair : pairs) {
    for (int idx : {pair.a, pair.b}) {
      if (!encodings.count(idx)) {
        encodings.emplace(
            idx, model.Encode(
                     corpus.functions[static_cast<std::size_t>(idx)].preprocessed));
      }
    }
  }
  std::vector<eval::Scored> scored;
  scored.reserve(pairs.size());
  for (const dataset::CorpusPair& pair : pairs) {
    double score = model.SimilarityFromEncodings(encodings.at(pair.a),
                                                 encodings.at(pair.b));
    if (calibrated) {
      score = core::CalibratedSimilarity(
          score,
          corpus.functions[static_cast<std::size_t>(pair.a)].callee_count,
          corpus.functions[static_cast<std::size_t>(pair.b)].callee_count);
    }
    scored.push_back({score, pair.homologous});
  }
  return scored;
}

std::vector<eval::Scored> ScoreGemini(
    const baselines::GeminiModel& model, const dataset::Corpus& corpus,
    const std::vector<dataset::CorpusPair>& pairs) {
  std::unordered_map<int, nn::Matrix> encodings;
  for (const dataset::CorpusPair& pair : pairs) {
    for (int idx : {pair.a, pair.b}) {
      if (!encodings.count(idx)) {
        encodings.emplace(
            idx,
            model.Encode(corpus.functions[static_cast<std::size_t>(idx)].acfg));
      }
    }
  }
  std::vector<eval::Scored> scored;
  scored.reserve(pairs.size());
  for (const dataset::CorpusPair& pair : pairs) {
    scored.push_back({baselines::GeminiModel::CosineSimilarity(
                          encodings.at(pair.a), encodings.at(pair.b)),
                      pair.homologous});
  }
  return scored;
}

std::vector<eval::Scored> ScoreDiaphora(
    const dataset::Corpus& corpus,
    const std::vector<dataset::CorpusPair>& pairs) {
  std::unordered_map<int, baselines::DiaphoraSignature> signatures;
  auto signature_of = [&](int idx) -> const baselines::DiaphoraSignature& {
    auto it = signatures.find(idx);
    if (it == signatures.end()) {
      const auto& fn = corpus.functions[static_cast<std::size_t>(idx)];
      // Label histogram (index = label = kind + 1) -> kind histogram.
      const std::vector<int> labels = fn.preprocessed.LabelHistogram();
      std::vector<int> kinds(ast::kNumNodeKinds, 0);
      for (int label = 1; label <= ast::kMaxNodeLabel; ++label) {
        kinds[static_cast<std::size_t>(label - 1)] =
            labels[static_cast<std::size_t>(label)];
      }
      it = signatures
               .emplace(idx, baselines::DiaphoraHashFromHistogram(kinds))
               .first;
    }
    return it->second;
  };
  std::vector<eval::Scored> scored;
  scored.reserve(pairs.size());
  for (const dataset::CorpusPair& pair : pairs) {
    scored.push_back({baselines::DiaphoraSimilarity(signature_of(pair.a),
                                                    signature_of(pair.b)),
                      pair.homologous});
  }
  return scored;
}

std::vector<dataset::CorpusPair> FilterPairs(
    const dataset::Corpus& corpus,
    const std::vector<dataset::CorpusPair>& pairs, int isa_a, int isa_b) {
  std::vector<dataset::CorpusPair> out;
  for (const dataset::CorpusPair& pair : pairs) {
    const int a = corpus.functions[static_cast<std::size_t>(pair.a)].isa;
    const int b = corpus.functions[static_cast<std::size_t>(pair.b)].isa;
    if ((a == isa_a && b == isa_b) || (a == isa_b && b == isa_a)) {
      out.push_back(pair);
    }
  }
  return out;
}

}  // namespace asteria::bench
