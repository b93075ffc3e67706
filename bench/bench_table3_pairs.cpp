// Table III: number of function pairs per architecture combination used for
// model training and testing (after the node-count >= 5 filter).
// CSV: bench_out/table3_pairs.csv.
#include <cstdio>

#include "common.h"
#include "decompiler/decompile.h"
#include "util/table.h"

namespace asteria {
namespace {

int Run(int argc, char** argv) {
  util::Flags flags;
  bench::DefineCommonFlags(&flags);
  if (!flags.Parse(argc, argv)) return 1;
  bench::ApplyCommonFlags(flags);

  dataset::CorpusConfig config;
  config.packages = static_cast<int>(flags.GetInt("packages"));
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed")) * 1000003 + 17;
  dataset::Corpus corpus = dataset::BuildCorpus(config);
  util::Rng rng(config.seed ^ 0xabcdef);

  std::printf("\n== Table III: function pairs per architecture combination ==\n\n");
  util::TextTable table({"Arch-Comb", "# of pairs"});
  const std::pair<int, int> kCombos[] = {{0, 2}, {2, 3}, {0, 3},
                                         {2, 1}, {0, 1}, {3, 1}};
  std::size_t total = 0;
  for (const auto& [a, b] : kCombos) {
    const auto pairs = dataset::MakePairs(
        corpus, a, b, rng, static_cast<int>(flags.GetInt("pairs_per_comb")));
    const std::string name =
        std::string(binary::IsaName(static_cast<binary::Isa>(a))) + "-" +
        std::string(binary::IsaName(static_cast<binary::Isa>(b)));
    table.AddRow({name, std::to_string(pairs.size())});
    total += pairs.size();
  }
  table.AddRow({"Total", std::to_string(total)});
  std::fputs(table.ToString().c_str(), stdout);
  std::printf("\n(%d functions dropped by the node-count >= %d filter)\n",
              corpus.filtered_small, decompiler::kMinAstSize);
  table.WriteCsv(flags.GetString("out") + "/table3_pairs.csv");
  return 0;
}

}  // namespace
}  // namespace asteria

int main(int argc, char** argv) { return asteria::Run(argc, argv); }
