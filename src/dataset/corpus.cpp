#include "dataset/corpus.h"

#include <algorithm>
#include <array>
#include <set>

#include "compiler/compile.h"
#include "decompiler/decompile.h"
#include "minic/sema.h"
#include "util/failpoint.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace asteria::dataset {

namespace {

// Injects a per-function failure into corpus generation, exercising the
// fault-isolation path (function skipped + counted, build continues).
util::Failpoint fp_corpus_function("corpus.function");

// AST sizes are deterministic per seed, so this histogram's buckets are
// identical across runs and thread counts (the determinism contract).
util::Histogram h_ast_size("corpus.ast_size");

// Everything one package contributes to the corpus, accumulated privately
// per package index so generation can run on any number of threads and be
// merged in package order afterwards.
struct PackageResult {
  std::vector<CorpusFunction> functions;
  std::array<int, 4> binaries_per_isa{};
  std::array<int, 4> functions_per_isa{};
  util::PipelineReport report;
};

PackageResult BuildPackage(const CorpusConfig& config, int pkg) {
  PackageResult result;
  const std::string package = "pkg" + std::to_string(pkg);
  // Independent per-package stream: sequential and parallel builds see the
  // exact same draws (util::Rng::DeriveSeed is a pure function of its args).
  util::Rng rng(util::Rng::DeriveSeed(config.seed, static_cast<std::uint64_t>(pkg)));
  minic::Program program = GenerateProgram(config.generator, rng);
  std::string error;
  if (!minic::Check(program, &error)) {
    // Generator invariant violation; skip the package but scream.
    ASTERIA_LOG(Error) << "generated package failed sema: " << error;
    result.report.AddFailed(package + ": sema check failed: " + error);
    return result;
  }
  for (int isa = 0; isa < binary::kNumIsas; ++isa) {
    auto compiled = compiler::CompileProgram(
        program, static_cast<binary::Isa>(isa), package);
    if (!compiled.ok) {
      ASTERIA_LOG(Error) << "compile failed: " << compiled.error;
      result.report.AddFailed(package + ": compile failed: " + compiled.error);
      continue;
    }
    ++result.binaries_per_isa[static_cast<std::size_t>(isa)];
    result.functions_per_isa[static_cast<std::size_t>(isa)] +=
        static_cast<int>(compiled.module.functions.size());
    for (decompiler::ExtractedFunction& extracted : decompiler::ExtractModule(
             compiled.module, config.beta, decompiler::kMinAstSize,
             &result.report, &fp_corpus_function)) {
      decompiler::DecompiledFunction& df = extracted.decompiled;
      h_ast_size.Observe(static_cast<std::uint64_t>(df.tree.size()));
      CorpusFunction entry;
      entry.package = package;
      entry.function = df.name;
      entry.isa = isa;
      entry.preprocessed = std::move(extracted.lcrs);
      entry.ast_size = df.tree.size();
      entry.callee_count = df.callee_count;
      entry.callee_sizes = std::move(df.callee_sizes);
      entry.instruction_count = df.instruction_count;
      entry.acfg = cfg::BuildAcfg(
          compiled.module.functions[static_cast<std::size_t>(extracted.index)]);
      if (config.keep_source_ast) entry.tree = std::move(df.tree);
      result.functions.push_back(std::move(entry));
    }
  }
  return result;
}

}  // namespace

Corpus BuildCorpus(const CorpusConfig& config) {
  ASTERIA_SPAN("corpus-build");
  std::vector<PackageResult> results(
      static_cast<std::size_t>(std::max(0, config.packages)));
  util::ParallelFor(config.packages, config.threads, [&](std::int64_t pkg) {
    results[static_cast<std::size_t>(pkg)] =
        BuildPackage(config, static_cast<int>(pkg));
  });
  // Merge in package order; indices match the sequential build exactly.
  Corpus corpus;
  corpus.report.stage = "corpus-build";
  for (PackageResult& result : results) {
    corpus.report.Merge(result.report);
    for (int isa = 0; isa < binary::kNumIsas; ++isa) {
      corpus.binaries_per_isa[static_cast<std::size_t>(isa)] +=
          result.binaries_per_isa[static_cast<std::size_t>(isa)];
      corpus.functions_per_isa[static_cast<std::size_t>(isa)] +=
          result.functions_per_isa[static_cast<std::size_t>(isa)];
    }
    for (CorpusFunction& entry : result.functions) {
      corpus.index[{entry.package, entry.function, entry.isa}] =
          static_cast<int>(corpus.functions.size());
      corpus.functions.push_back(std::move(entry));
    }
  }
  // The size filter is the build's only source of skips.
  corpus.filtered_small = static_cast<int>(corpus.report.skipped);
  util::PublishPipelineReport(corpus.report);
  return corpus;
}

std::vector<CorpusPair> MakePairs(const Corpus& corpus, int isa_a, int isa_b,
                                  util::Rng& rng, int max_pairs) {
  std::vector<CorpusPair> pairs;
  // Homologous: same (package, function) under both ISAs.
  std::vector<int> pool_b;  // candidate partners for negatives
  for (const auto& [key, idx] : corpus.index) {
    if (std::get<2>(key) == isa_b) pool_b.push_back(idx);
  }
  if (pool_b.empty()) return pairs;
  for (const auto& [key, idx_a] : corpus.index) {
    if (std::get<2>(key) != isa_a) continue;
    const int idx_b =
        corpus.Find(std::get<0>(key), std::get<1>(key), isa_b);
    if (idx_b < 0) continue;
    pairs.push_back({idx_a, idx_b, true});
    // One negative per positive: a random non-matching isa_b function,
    // preferring a size-matched candidate (the hard negatives that dominate
    // a real clone-search corpus; trivially size-mismatched negatives would
    // make every method look perfect).
    const int size_a =
        corpus.functions[static_cast<std::size_t>(idx_a)].ast_size;
    int fallback = -1;
    double best_ratio = -1.0;
    for (int attempt = 0; attempt < 24; ++attempt) {
      const int other = pool_b[rng.NextBounded(pool_b.size())];
      const CorpusFunction& cand = corpus.functions[static_cast<std::size_t>(other)];
      if (cand.package == std::get<0>(key) &&
          cand.function == std::get<1>(key)) {
        continue;
      }
      // Prefer same-package negatives (the paper's non-homologous pairs
      // come from the same binaries) and similar AST sizes; keep the best
      // candidate seen.
      double ratio =
          static_cast<double>(std::min(size_a, cand.ast_size)) /
          static_cast<double>(std::max(size_a, cand.ast_size));
      if (cand.package == std::get<0>(key)) ratio += 0.15;
      if (ratio > best_ratio) {
        best_ratio = ratio;
        fallback = other;
      }
      if (best_ratio >= 0.95) break;
    }
    if (fallback >= 0) pairs.push_back({idx_a, fallback, false});
  }
  rng.Shuffle(pairs);
  if (max_pairs > 0 && static_cast<int>(pairs.size()) > max_pairs) {
    pairs.resize(static_cast<std::size_t>(max_pairs));
  }
  return pairs;
}

std::vector<CorpusPair> MakeMixedPairs(const Corpus& corpus, util::Rng& rng,
                                       int max_pairs_per_comb) {
  std::vector<CorpusPair> all;
  for (int a = 0; a < binary::kNumIsas; ++a) {
    for (int b = a + 1; b < binary::kNumIsas; ++b) {
      auto pairs = MakePairs(corpus, a, b, rng, max_pairs_per_comb);
      all.insert(all.end(), pairs.begin(), pairs.end());
    }
  }
  rng.Shuffle(all);
  return all;
}

void SplitPairs(std::vector<CorpusPair> pairs, util::Rng& rng,
                std::vector<CorpusPair>* train,
                std::vector<CorpusPair>* test) {
  rng.Shuffle(pairs);
  const std::size_t train_count = pairs.size() * 8 / 10;
  train->assign(pairs.begin(), pairs.begin() + static_cast<std::ptrdiff_t>(train_count));
  test->assign(pairs.begin() + static_cast<std::ptrdiff_t>(train_count), pairs.end());
}

}  // namespace asteria::dataset
