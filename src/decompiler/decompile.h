// Top-level decompilation: BinFunction -> Table-I AST + callee features.
//
// The IDA Pro + Hex-Rays substitute of the reproduction (DESIGN.md §2):
// machine CFG -> block lifting -> structuring -> ast::Ast, plus the callee
// statistics the paper's calibration consumes (§III-C): the callee set χ of
// a function keeps only callees with at least `beta` instructions (smaller
// ones are considered inlining candidates and filtered out).
#pragma once

#include <string>
#include <vector>

#include "ast/ast.h"
#include "ast/lcrs.h"
#include "binary/module.h"
#include "util/failpoint.h"
#include "util/pipeline_report.h"

namespace asteria::decompiler {

inline constexpr int kDefaultBeta = 4;

// §IV-B drops functions whose AST has fewer than 5 nodes.
inline constexpr int kMinAstSize = 5;

struct DecompiledFunction {
  std::string name;
  ast::Ast tree;
  // |χ|: distinct callees with >= beta instructions (eq. (9) input).
  int callee_count = 0;
  // Distinct callees before the β filter.
  int callee_count_raw = 0;
  // Machine instruction count of the function itself.
  int instruction_count = 0;
  // Instruction counts of each distinct callee (lets callers re-apply the
  // β filter with other thresholds, e.g. the β-sweep ablation bench).
  std::vector<int> callee_sizes;
  // Non-empty when decompilation degraded (e.g. the structurer hit its
  // nesting bound and flattened to gotos). The tree is still valid;
  // pipelines decide whether to keep or isolate the function.
  std::string error;
};

// Re-applies the β filter: |{s in callee_sizes : s >= beta}|.
inline int CalleeCountAtBeta(const std::vector<int>& callee_sizes, int beta) {
  int count = 0;
  for (int size : callee_sizes) {
    if (size >= beta) ++count;
  }
  return count;
}

// Decompiles one function of `module`.
DecompiledFunction DecompileFunction(const binary::BinModule& module,
                                     int fn_index, int beta = kDefaultBeta);

// Decompiles every function of `module`.
std::vector<DecompiledFunction> DecompileModule(
    const binary::BinModule& module, int beta = kDefaultBeta);

// One function kept by ExtractModule.
struct ExtractedFunction {
  int index = 0;  // position in module.functions
  DecompiledFunction decompiled;
  ast::BinaryAst lcrs;
};

// The offline extraction recipe: decompiles every function of `module` and
// returns, in order, the ones neither failed — `failpoint` (nullable) fired
// or the decompile reported an error, as "<module>/<fn>: <why>" — nor
// skipped for an AST under `min_ast_size` nodes. Outcomes go to `report`
// when non-null.
std::vector<ExtractedFunction> ExtractModule(
    const binary::BinModule& module, int beta, int min_ast_size,
    util::PipelineReport* report, util::Failpoint* failpoint = nullptr);

}  // namespace asteria::decompiler
