// Firmware vulnerability search (the §V pipeline in miniature).
//
// Builds a small firmware corpus with planted CVE functions, trains a model
// on cross-ISA CVE pairs, searches every firmware function against the CVE
// library, and prints the hits with ground-truth verification.
//
//   ./build/examples/vuln_search --images=12 --threshold=0.6
#include <cstdio>

#include "firmware/search.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace asteria;
  util::Flags flags;
  flags.DefineInt("images", 12, "firmware images to generate");
  flags.DefineDouble("threshold", 0.6, "similarity threshold");
  flags.DefineInt("seed", 21, "seed");
  flags.DefineString("encodings_cache", "",
                     "reuse/persist firmware encodings at this path");
  if (!flags.Parse(argc, argv)) return 1;

  firmware::FirmwareCorpusConfig corpus_config;
  corpus_config.images = static_cast<int>(flags.GetInt("images"));
  corpus_config.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  firmware::FirmwareCorpus corpus =
      firmware::BuildFirmwareCorpus(corpus_config);
  std::printf("firmware corpus: %zu images, %zu functions (%d unpack failures)\n",
              corpus.images.size(), corpus.functions.size(),
              corpus.unpack_failures);

  // Train on cross-ISA variants of the CVE library (a pretrained corpus
  // model works too; see bench_table4_vuln_search for the full protocol).
  core::AsteriaConfig model_config;
  core::AsteriaModel model(model_config);
  std::vector<ast::BinaryAst> trees;
  for (const firmware::VulnSpec& spec : firmware::VulnLibrary()) {
    for (int isa = 0; isa < binary::kNumIsas; ++isa) {
      core::FunctionFeature query;
      std::string why;
      if (firmware::BuildCveQuery(spec, static_cast<binary::Isa>(isa),
                                  corpus.beta, &query, &why)) {
        trees.push_back(std::move(query.tree));
      }
    }
  }
  std::printf("training on %zu cross-ISA CVE variants...\n", trees.size());
  for (int round = 0; round < 25; ++round) {
    for (std::size_t i = 0; i < trees.size(); ++i) {
      model.TrainPair(trees[i], trees[(i / 4) * 4 + (i + 1) % 4], true);
      model.TrainPair(trees[i], trees[(i + 4) % trees.size()], false);
    }
  }

  firmware::VulnSearchResult result = firmware::RunVulnSearch(
      model, corpus, flags.GetDouble("threshold"),
      flags.GetString("encodings_cache"));
  std::printf("\nsearch results at threshold %.2f:\n",
              flags.GetDouble("threshold"));
  for (const firmware::CveSearchResult& row : result.per_cve) {
    std::printf("  %-15s %-28s candidates=%-3d confirmed=%-3d", row.cve.c_str(),
                row.function.c_str(), row.candidates, row.confirmed);
    if (!row.affected_models.empty()) {
      std::printf(" models:");
      for (const std::string& device : row.affected_models) {
        std::printf(" %s", device.c_str());
      }
    }
    std::printf("\n");
  }
  std::printf("total: %d candidates, %d confirmed vulnerable\n",
              result.total_candidates, result.total_confirmed);
  return 0;
}
