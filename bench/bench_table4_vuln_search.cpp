// Table IV: vulnerability search in the firmware dataset (§V).
//
// Pipeline: build the firmware corpus (planted CVE functions), train the
// model on a Buildroot-like corpus *plus* cross-ISA CVE pairs, pick the
// detection threshold via the Youden index on validation pairs (the paper
// lands on 0.84), search, and report per-CVE candidate/confirmed counts and
// affected vendor models. CSV: bench_out/table4_vuln.csv.
#include <cstdio>

#include "common.h"
#include "firmware/search.h"
#include "util/log.h"
#include "util/table.h"

namespace asteria {
namespace {

int Run(int argc, char** argv) {
  util::Flags flags;
  bench::DefineCommonFlags(&flags);
  flags.DefineInt("images", 40, "number of firmware images");
  flags.DefineString("encodings_cache", "",
                     "path of a firmware-encodings snapshot to reuse "
                     "(empty = encode every run); invalidated automatically "
                     "on model or corpus changes");
  if (!flags.Parse(argc, argv)) return 1;
  bench::ApplyCommonFlags(flags);
  bench::ExperimentSetup setup = bench::BuildSetup(flags);
  const int epochs = static_cast<int>(flags.GetInt("epochs"));
  util::Rng rng(static_cast<std::uint64_t>(flags.GetInt("seed")) + 5);

  core::AsteriaConfig config;
  bench::ApplyEncoderFlags(flags, &config);
  core::AsteriaModel model(config);
  bench::TrainAsteria(&model, setup, epochs, &rng);

  // Fine-tune on cross-ISA pairs of the CVE library itself (the paper's
  // model has seen OpenSSL-scale code; our corpus is synthetic, so give the
  // model the same advantage explicitly).
  std::vector<ast::BinaryAst> cve_trees;
  for (const firmware::VulnSpec& spec : firmware::VulnLibrary()) {
    for (int isa = 0; isa < binary::kNumIsas; ++isa) {
      core::FunctionFeature query;
      std::string why;
      if (firmware::BuildCveQuery(spec, static_cast<binary::Isa>(isa),
                                  decompiler::kDefaultBeta, &query, &why)) {
        cve_trees.push_back(std::move(query.tree));
      }
    }
  }
  for (int round = 0; round < 10; ++round) {
    for (std::size_t i = 0; i < cve_trees.size(); ++i) {
      const std::size_t same_cve = (i / 4) * 4 + (i + 1) % 4;
      model.TrainPair(cve_trees[i], cve_trees[same_cve], true);
      const std::size_t other = (i + 4) % cve_trees.size();
      model.TrainPair(cve_trees[i], cve_trees[other], false);
    }
  }

  // Threshold via Youden index on the validation pairs (§V).
  const auto validation =
      bench::ScoreAsteria(model, setup.corpus, setup.test, true);
  const eval::RocResult roc = eval::ComputeRoc(validation);
  const double threshold = eval::YoudenThreshold(roc);
  ASTERIA_LOG(Info) << "validation AUC=" << roc.auc
                    << " Youden threshold=" << threshold
                    << " (paper: 0.84)";

  firmware::FirmwareCorpusConfig fw_config;
  fw_config.images = static_cast<int>(flags.GetInt("images"));
  fw_config.seed = static_cast<std::uint64_t>(flags.GetInt("seed")) + 99;
  firmware::FirmwareCorpus corpus = firmware::BuildFirmwareCorpus(fw_config);
  ASTERIA_LOG(Info) << "firmware corpus: " << corpus.images.size()
                    << " images, " << corpus.functions.size() << " functions";
  if (!corpus.report.Clean()) {
    ASTERIA_LOG(Warn) << corpus.report.Summary();
  }

  firmware::VulnSearchResult result = firmware::RunVulnSearch(
      model, corpus, threshold, flags.GetString("encodings_cache"));

  std::printf("\n== Table IV: vulnerability search results ==\n");
  std::printf("(threshold %.3f from Youden index; paper found 75 vulnerable "
              "functions from 7 CVEs)\n\n", threshold);
  util::TextTable table({"CVE", "software", "vulnerable function",
                         "candidates", "crit-A", "crit-B", "confirmed",
                         "affected models"});
  for (const firmware::CveSearchResult& row : result.per_cve) {
    std::string models;
    for (std::size_t i = 0; i < row.affected_models.size(); ++i) {
      if (i) models += ", ";
      models += row.affected_models[i];
    }
    table.AddRow({row.cve, row.software, row.function,
                  std::to_string(row.candidates),
                  std::to_string(row.criteria_a),
                  std::to_string(row.criteria_b),
                  std::to_string(row.confirmed), models});
  }
  std::fputs(table.ToString().c_str(), stdout);
  int planted_vulnerable = 0;
  for (const firmware::FirmwareFunction& fn : corpus.functions) {
    if (!fn.truth_cve.empty() && !fn.patched) ++planted_vulnerable;
  }
  std::printf("\ntotal candidates: %d, total confirmed: %d / %d planted "
              "vulnerable instances\n",
              result.total_candidates, result.total_confirmed,
              planted_vulnerable);
  if (!result.report.Clean()) {
    std::printf("%s\n", result.report.Summary().c_str());
  }
  table.WriteCsv(bench::OutDir() + "/table4_vuln.csv");
  return 0;
}

}  // namespace
}  // namespace asteria

int main(int argc, char** argv) { return asteria::Run(argc, argv); }
