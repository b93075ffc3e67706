// Figure 8: model performance across embedding sizes (paper: 8..128; best
// AUC 0.985 at 16, lowest 0.976 at 128).
//
// Retrains the Tree-LSTM for each size on the same split and reports the
// best test AUC over epochs (the paper takes the best epoch), plus the
// per-epoch loss/AUC curve (§IV-E2a). CSV: bench_out/fig8_embedding.csv,
// fig8_epochs.csv.
#include <cstdio>

#include "common.h"
#include "util/table.h"
#include "util/timer.h"

namespace asteria {
namespace {

int Run(int argc, char** argv) {
  util::Flags flags;
  // Cheaper sweep defaults: the 128-dim point costs 64x the 16-dim point.
  flags.DefineInt("packages", 8, "corpus packages (sweep default)");
  flags.DefineInt("pairs_per_comb", 50, "pairs per combination (sweep default)");
  flags.DefineInt("epochs", 3, "epochs per size (sweep default)");
  bench::DefineCommonFlags(&flags);
  flags.DefineString("sizes", "8,16,32,64,128", "embedding sizes to sweep");
  if (!flags.Parse(argc, argv)) return 1;
  bench::ApplyCommonFlags(flags);
  bench::ExperimentSetup setup = bench::BuildSetup(flags);
  const int epochs = static_cast<int>(flags.GetInt("epochs"));

  std::vector<int> sizes;
  {
    const std::string& spec = flags.GetString("sizes");
    std::size_t start = 0;
    while (start < spec.size()) {
      std::size_t comma = spec.find(',', start);
      if (comma == std::string::npos) comma = spec.size();
      sizes.push_back(std::stoi(spec.substr(start, comma - start)));
      start = comma + 1;
    }
  }

  std::printf("\n== Figure 8: embedding size sweep ==\n\n");
  util::TextTable table({"embedding", "best AUC", "last AUC", "weights",
                         "train time"});
  util::TextTable epochs_csv({"embedding", "epoch", "loss", "test_auc"});
  for (int size : sizes) {
    core::AsteriaConfig config;
    config.siamese.encoder.embedding_dim = size;
    config.siamese.encoder.hidden_dim = size;
    config.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
    core::AsteriaModel model(config);
    util::Rng rng(static_cast<std::uint64_t>(flags.GetInt("seed")) + size);
    util::Timer timer;
    double best_auc = 0.0, last_auc = 0.0;
    for (int epoch = 0; epoch < epochs; ++epoch) {
      const auto losses = bench::TrainAsteria(&model, setup, 1, &rng);
      const double auc = eval::Auc(
          bench::ScoreAsteria(model, setup.corpus, setup.test, true));
      best_auc = std::max(best_auc, auc);
      last_auc = auc;
      epochs_csv.AddRow({std::to_string(size), std::to_string(epoch),
                         util::FormatDouble(losses[0], 5),
                         util::FormatDouble(auc)});
    }
    table.AddRow({std::to_string(size), util::FormatDouble(best_auc),
                  util::FormatDouble(last_auc),
                  std::to_string(model.TotalWeights()),
                  util::FormatSeconds(timer.ElapsedSeconds())});
  }
  std::fputs(table.ToString().c_str(), stdout);
  std::printf("\n(paper: AUC peaks at embedding size 16 and dips at 128)\n");
  table.WriteCsv(bench::OutDir() + "/fig8_embedding.csv");
  epochs_csv.WriteCsv(bench::OutDir() + "/fig8_epochs.csv");
  return 0;
}

}  // namespace
}  // namespace asteria

int main(int argc, char** argv) { return asteria::Run(argc, argv); }
