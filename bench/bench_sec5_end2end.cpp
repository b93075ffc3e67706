// §V end-to-end comparison: time and top-10 retrieval accuracy of ASTERIA
// vs Gemini for the vulnerable-function search.
//
// For each CVE query we rank all firmware functions by similarity and check
// whether genuinely vulnerable instances appear in the top 10 (the paper:
// ASTERIA 78.7% top-10 accuracy @ 0.414 s/pair end-to-end, Gemini 20% @
// 0.159 s/pair with most true hits ranked beyond 10000).
// CSV: bench_out/sec5_end2end.csv.
#include <algorithm>
#include <cstdio>

#include "common.h"
#include "compiler/compile.h"
#include "firmware/search.h"
#include "minic/parser.h"
#include "util/table.h"
#include "util/timer.h"

namespace asteria {
namespace {

int Run(int argc, char** argv) {
  util::Flags flags;
  bench::DefineCommonFlags(&flags);
  flags.DefineInt("images", 30, "number of firmware images");
  if (!flags.Parse(argc, argv)) return 1;
  bench::ApplyCommonFlags(flags);
  bench::ExperimentSetup setup = bench::BuildSetup(flags);
  const int epochs = static_cast<int>(flags.GetInt("epochs"));
  util::Rng rng(static_cast<std::uint64_t>(flags.GetInt("seed")) + 8);

  core::AsteriaConfig config;
  bench::ApplyEncoderFlags(flags, &config);
  core::AsteriaModel asteria_model(config);
  bench::TrainAsteria(&asteria_model, setup, epochs, &rng);
  baselines::GeminiConfig gemini_config;
  util::Rng gemini_rng(9);
  baselines::GeminiModel gemini(gemini_config, gemini_rng);
  bench::TrainGemini(&gemini, setup, epochs, &rng);

  firmware::FirmwareCorpusConfig fw_config;
  fw_config.images = static_cast<int>(flags.GetInt("images"));
  fw_config.seed = static_cast<std::uint64_t>(flags.GetInt("seed")) + 55;
  fw_config.software_probability = 1.0;
  firmware::FirmwareCorpus corpus = firmware::BuildFirmwareCorpus(fw_config);

  // Gemini's ACFG of every firmware function, from the positions the
  // extraction recorded.
  std::vector<cfg::Acfg> acfgs;
  for (const firmware::FirmwareFunction& fn : corpus.functions) {
    const binary::BinModule& module =
        corpus.images[static_cast<std::size_t>(fn.image)]
            .modules[static_cast<std::size_t>(fn.module_index)];
    acfgs.push_back(cfg::BuildAcfg(
        module.functions[static_cast<std::size_t>(fn.function_index)]));
  }

  util::TextTable table({"method", "top-10 accuracy", "offline s/fn",
                         "online s/pair", "queries"});
  struct MethodResult {
    double accuracy;
    double offline_per_fn;
    double online_per_pair;
  };

  auto evaluate = [&](bool use_asteria) {
    util::Timer offline_timer;
    std::vector<nn::Matrix> encodings;
    if (use_asteria) {
      for (const firmware::FirmwareFunction& fn : corpus.functions) {
        encodings.push_back(asteria_model.Encode(fn.feature.tree));
      }
    } else {
      for (const cfg::Acfg& acfg : acfgs) encodings.push_back(gemini.Encode(acfg));
    }
    const double offline = offline_timer.ElapsedSeconds() /
                           static_cast<double>(corpus.functions.size());

    int hits = 0, queries = 0;
    util::Timer online_timer;
    std::size_t comparisons = 0;
    for (const firmware::VulnSpec& spec : firmware::VulnLibrary()) {
      // Is at least one true instance present at all?
      bool present = false;
      for (const firmware::FirmwareFunction& fn : corpus.functions) {
        if (fn.truth_cve == spec.cve && !fn.patched) present = true;
      }
      if (!present) continue;
      ++queries;
      core::FunctionFeature query;
      nn::Matrix query_encoding;
      if (use_asteria) {
        std::string why;
        if (!firmware::BuildCveQuery(
                spec, static_cast<binary::Isa>(firmware::kQueryIsa),
                corpus.beta, &query, &why)) {
          continue;
        }
        query_encoding = asteria_model.Encode(query.tree);
      } else {
        minic::Program program;
        std::string error;
        if (!minic::Parse(spec.vulnerable_source, &program, &error)) continue;
        auto compiled = compiler::CompileProgram(
            program, static_cast<binary::Isa>(firmware::kQueryIsa),
            spec.software);
        const int fn_index = compiled.module.FindFunction(spec.function);
        if (fn_index < 0) continue;
        query_encoding = gemini.Encode(cfg::BuildAcfg(
            compiled.module.functions[static_cast<std::size_t>(fn_index)]));
      }
      std::vector<std::pair<double, std::size_t>> ranked;
      for (std::size_t i = 0; i < corpus.functions.size(); ++i) {
        double score;
        if (use_asteria) {
          score = core::CalibratedSimilarity(
              asteria_model.SimilarityFromEncodings(query_encoding,
                                                    encodings[i]),
              query.callee_count, corpus.functions[i].feature.callee_count);
        } else {
          score = baselines::GeminiModel::CosineSimilarity(query_encoding,
                                                           encodings[i]);
        }
        ranked.push_back({score, i});
        ++comparisons;
      }
      std::partial_sort(ranked.begin(),
                        ranked.begin() + std::min<std::size_t>(10, ranked.size()),
                        ranked.end(), std::greater<>());
      bool hit = false;
      for (std::size_t k = 0; k < std::min<std::size_t>(10, ranked.size()); ++k) {
        const firmware::FirmwareFunction& fn =
            corpus.functions[ranked[k].second];
        if (fn.truth_cve == spec.cve && !fn.patched) hit = true;
      }
      if (hit) ++hits;
    }
    const double online =
        comparisons ? online_timer.ElapsedSeconds() / static_cast<double>(comparisons) : 0.0;
    return MethodResult{queries ? 100.0 * hits / queries : 0.0, offline,
                        online};
  };

  const MethodResult asteria_result = evaluate(true);
  const MethodResult gemini_result = evaluate(false);
  std::printf("\n== Section V: end-to-end vulnerable-function retrieval ==\n\n");
  table.AddRow({"ASTERIA",
                util::FormatDouble(asteria_result.accuracy, 1) + "%",
                util::FormatSeconds(asteria_result.offline_per_fn),
                util::FormatSeconds(asteria_result.online_per_pair), "7"});
  table.AddRow({"Gemini", util::FormatDouble(gemini_result.accuracy, 1) + "%",
                util::FormatSeconds(gemini_result.offline_per_fn),
                util::FormatSeconds(gemini_result.online_per_pair), "7"});
  std::fputs(table.ToString().c_str(), stdout);
  std::printf("\n(paper: ASTERIA 78.7%% vs Gemini 20%% top-10 accuracy)\n");
  table.WriteCsv(bench::OutDir() + "/sec5_end2end.csv");
  return 0;
}

}  // namespace
}  // namespace asteria

int main(int argc, char** argv) { return asteria::Run(argc, argv); }
