// Corpus construction: generate packages, compile for all four ISAs,
// decompile, preprocess — the Buildroot/OpenSSL dataset substitute (§IV-B).
//
// Ground truth follows the paper: functions are keyed by (package,
// function-name); the same key under two ISAs is a homologous pair,
// different keys are non-homologous. ASTs with fewer than
// decompiler::kMinAstSize nodes are dropped, as in the paper.
#pragma once

#include <array>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "ast/lcrs.h"
#include "cfg/acfg.h"
#include "dataset/generator.h"
#include "minic/ast.h"
#include "util/pipeline_report.h"

namespace asteria::dataset {

struct CorpusConfig {
  int packages = 40;
  GeneratorConfig generator;
  std::uint64_t seed = 1234;
  int beta = 4;          // callee-filter threshold (§III-C)
  bool keep_source_ast = false;  // retain the n-ary decompiled tree
  // Worker threads for package generation. Each package draws from an
  // independent Rng stream derived via util::Rng::DeriveSeed(seed, pkg), so
  // the corpus is bitwise identical for every thread count.
  int threads = 1;
};

// One decompiled function under one ISA.
struct CorpusFunction {
  std::string package;
  std::string function;
  int isa = 0;                  // binary::Isa as int
  ast::Ast tree;                // decompiled AST (kept if keep_source_ast)
  ast::BinaryAst preprocessed;  // digitalized + LCRS
  int ast_size = 0;
  int callee_count = 0;         // β-filtered |χ|
  std::vector<int> callee_sizes;  // distinct callee sizes (β re-filterable)
  int instruction_count = 0;
  cfg::Acfg acfg;               // Gemini feature
};

struct Corpus {
  std::vector<CorpusFunction> functions;
  // (package, function, isa) -> index into `functions`.
  std::map<std::tuple<std::string, std::string, int>, int> index;
  // Per-ISA binary/function counts (Table II rows).
  std::array<int, 4> binaries_per_isa{};
  std::array<int, 4> functions_per_isa{};
  // Number of functions dropped by the min-size filter.
  int filtered_small = 0;
  // Per-function outcome accounting (stage "corpus-build"): a package that
  // fails sema or a function that fails compilation/decompilation is
  // isolated and counted here instead of aborting the build.
  util::PipelineReport report;

  int Find(const std::string& package, const std::string& function,
           int isa) const {
    auto it = index.find({package, function, isa});
    return it == index.end() ? -1 : it->second;
  }
};

// Builds a corpus; deterministic for a given config.
Corpus BuildCorpus(const CorpusConfig& config);

// Labeled cross-architecture pair over corpus indices.
struct CorpusPair {
  int a = 0;
  int b = 0;
  bool homologous = false;
};

// Constructs pairs for a specific ISA combination: every homologous pair
// present under both ISAs plus an equal number of random non-homologous
// pairs (capped by max_pairs; 0 = no cap).
std::vector<CorpusPair> MakePairs(const Corpus& corpus, int isa_a, int isa_b,
                                  util::Rng& rng, int max_pairs = 0);

// All six ISA combinations mixed together (Fig. 6 protocol).
std::vector<CorpusPair> MakeMixedPairs(const Corpus& corpus, util::Rng& rng,
                                       int max_pairs_per_comb = 0);

// Deterministic 8:2 train/test split (shuffles with `rng`).
void SplitPairs(std::vector<CorpusPair> pairs, util::Rng& rng,
                std::vector<CorpusPair>* train, std::vector<CorpusPair>* test);

}  // namespace asteria::dataset
