#include "decompiler/decompile.h"

#include <set>

#include "decompiler/lifter.h"
#include "decompiler/machine_cfg.h"
#include "decompiler/structurer.h"
#include "util/metrics.h"

namespace asteria::decompiler {

namespace {

util::Counter c_functions("decompile.functions");
util::Counter c_goto_degradations("decompile.goto_degradations");

// Copies the (possibly DAG-shaped) DNode tree rooted at `id` into a fresh
// ast::Ast arena; sharing expands into distinct subtrees, so the result is
// a proper tree. Iterative to survive deep statement chains.
ast::NodeId CopyToAst(const DPool& pool, int id, ast::Ast* out) {
  struct Frame {
    int src;
    ast::NodeId dst;
    std::size_t next_child;
  };
  const auto make_node = [&](int src) {
    const DNode& n = pool.node(src);
    const ast::NodeId dst = out->AddNode(n.kind);
    out->node(dst).value = n.value;
    out->node(dst).text = n.text;
    return dst;
  };
  const ast::NodeId root = make_node(id);
  std::vector<Frame> stack{{id, root, 0}};
  while (!stack.empty()) {
    Frame& top = stack.back();
    const DNode& src = pool.node(top.src);
    if (top.next_child >= src.children.size()) {
      stack.pop_back();
      continue;
    }
    const int child_src = src.children[top.next_child++];
    const ast::NodeId child_dst = make_node(child_src);
    out->AddChild(top.dst, child_dst);
    stack.push_back({child_src, child_dst, 0});
  }
  return root;
}

}  // namespace

DecompiledFunction DecompileFunction(const binary::BinModule& module,
                                     int fn_index, int beta) {
  ASTERIA_SPAN("decompile");
  c_functions.Increment();
  const binary::BinFunction& fn =
      module.functions[static_cast<std::size_t>(fn_index)];
  DecompiledFunction out;
  out.name = fn.name;
  out.instruction_count = fn.size();
  if (fn.code.empty()) {
    out.tree.set_root(out.tree.AddNode(ast::NodeKind::kBlock));
    return out;
  }

  MachineCfg cfg(fn);
  DPool pool;
  const LiftedFunction lifted = LiftFunction(module, cfg, &pool);
  const int root = StructureFunction(cfg, lifted, &pool, &out.error);
  if (!out.error.empty()) c_goto_degradations.Increment();
  out.tree.set_root(CopyToAst(pool, root, &out.tree));

  // Callee features for the calibration (§III-C).
  std::set<std::int64_t> callees;
  for (const binary::Instruction& insn : fn.code) {
    if (insn.op == binary::Opcode::kCall) callees.insert(insn.imm);
  }
  out.callee_count_raw = static_cast<int>(callees.size());
  for (std::int64_t callee : callees) {
    if (callee < 0 ||
        callee >= static_cast<std::int64_t>(module.functions.size())) {
      continue;
    }
    const int size = module.functions[static_cast<std::size_t>(callee)].size();
    out.callee_sizes.push_back(size);
    if (size >= beta) ++out.callee_count;
  }
  return out;
}

std::vector<DecompiledFunction> DecompileModule(const binary::BinModule& module,
                                                int beta) {
  std::vector<DecompiledFunction> out;
  out.reserve(module.functions.size());
  for (std::size_t i = 0; i < module.functions.size(); ++i) {
    out.push_back(DecompileFunction(module, static_cast<int>(i), beta));
  }
  return out;
}

std::vector<ExtractedFunction> ExtractModule(const binary::BinModule& module,
                                             int beta, int min_ast_size,
                                             util::PipelineReport* report,
                                             util::Failpoint* failpoint) {
  util::PipelineReport discard;
  util::PipelineReport& outcomes = report != nullptr ? *report : discard;
  std::vector<DecompiledFunction> decompiled = DecompileModule(module, beta);
  std::vector<ExtractedFunction> kept;
  for (std::size_t f = 0; f < decompiled.size(); ++f) {
    DecompiledFunction& df = decompiled[f];
    if (failpoint != nullptr && failpoint->ShouldFail()) {
      outcomes.AddFailed(module.name + "/" + df.name +
                         ": injected failure (failpoint " +
                         failpoint->name() + ")");
    } else if (!df.error.empty()) {
      outcomes.AddFailed(module.name + "/" + df.name + ": " + df.error);
    } else if (df.tree.size() < min_ast_size) {
      outcomes.AddSkipped();
    } else {
      outcomes.AddOk();
      ast::BinaryAst lcrs = ast::ToLeftChildRightSibling(df.tree);
      kept.push_back({static_cast<int>(f), std::move(df), std::move(lcrs)});
    }
  }
  return kept;
}

}  // namespace asteria::decompiler
