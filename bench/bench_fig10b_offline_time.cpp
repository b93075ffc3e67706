// Figure 10(b): offline-phase time per function, bucketed by AST size:
//   A-D  decompilation        A-P  preprocessing      A-E  Tree-LSTM encoding
//   D-H  Diaphora AST hash    G-EX ACFG extraction    G-EN Gemini encoding
// The paper's qualitative result: Asteria's offline stages cost the most
// (decompile + sequential Tree-LSTM), Diaphora hashing is cheap, Gemini
// extraction/encoding in between. CSV: bench_out/fig10b_offline.csv.
//
// A second section measures the whole-corpus offline encoding phase
// (SearchIndex::AddAll) single- vs multi-threaded (--threads), asserts the
// embeddings and top-k results are bitwise identical, and writes the
// speedup to bench_out/fig10b_offline_threads.csv.
#include <cstdio>
#include <cstring>
#include <map>

#include "common.h"
#include "compiler/compile.h"
#include "core/search_index.h"
#include "decompiler/decompile.h"
#include "util/table.h"
#include "util/timer.h"

namespace asteria {
namespace {

struct Bucket {
  util::TimingStats decompile, preprocess, encode, diaphora, acfg_extract,
      gemini_encode;
};

int Run(int argc, char** argv) {
  util::Flags flags;
  bench::DefineCommonFlags(&flags);
  if (!flags.Parse(argc, argv)) return 1;
  bench::ApplyCommonFlags(flags);

  // Build raw modules (we need the machine code, not just the corpus
  // features, to time decompilation itself).
  dataset::GeneratorConfig generator_config;
  util::Rng rng(static_cast<std::uint64_t>(flags.GetInt("seed")) + 777);
  std::vector<binary::BinModule> modules;
  for (int pkg = 0; pkg < static_cast<int>(flags.GetInt("packages")); ++pkg) {
    minic::Program program = dataset::GenerateProgram(generator_config, rng);
    for (int isa = 0; isa < binary::kNumIsas; ++isa) {
      auto compiled = compiler::CompileProgram(
          program, static_cast<binary::Isa>(isa), "t" + std::to_string(pkg));
      if (compiled.ok) modules.push_back(std::move(compiled.module));
    }
  }

  core::AsteriaConfig model_config;
  bench::ApplyEncoderFlags(flags, &model_config);
  core::AsteriaModel model(model_config);
  util::Rng gemini_rng(3);
  baselines::GeminiConfig gemini_config;
  baselines::GeminiModel gemini(gemini_config, gemini_rng);

  std::map<int, Bucket> buckets;  // keyed by AST-size bucket upper bound
  auto bucket_of = [](int size) {
    for (int bound : {20, 40, 80, 150, 300}) {
      if (size < bound) return bound;
    }
    return 1000000;
  };

  std::vector<core::FunctionFeature> features;  // for the threading section
  util::Timer timer;
  for (const binary::BinModule& module : modules) {
    for (std::size_t f = 0; f < module.functions.size(); ++f) {
      // A-D: decompilation.
      timer.Reset();
      auto decompiled =
          decompiler::DecompileFunction(module, static_cast<int>(f));
      const double t_decompile = timer.ElapsedSeconds();
      if (decompiled.tree.size() < decompiler::kMinAstSize) continue;
      Bucket& bucket = buckets[bucket_of(decompiled.tree.size())];
      bucket.decompile.Add(t_decompile);
      // A-P: preprocessing (digitalization + LCRS).
      timer.Reset();
      const ast::BinaryAst tree = core::AsteriaModel::Preprocess(decompiled.tree);
      bucket.preprocess.Add(timer.ElapsedSeconds());
      // A-E: Tree-LSTM encoding.
      timer.Reset();
      (void)model.Encode(tree);
      bucket.encode.Add(timer.ElapsedSeconds());
      features.push_back({decompiled.name, tree, decompiled.callee_count});
      // D-H: Diaphora prime-product hash.
      timer.Reset();
      (void)baselines::DiaphoraHash(decompiled.tree);
      bucket.diaphora.Add(timer.ElapsedSeconds());
      // G-EX: ACFG extraction.
      timer.Reset();
      const cfg::Acfg acfg = cfg::BuildAcfg(module.functions[f]);
      bucket.acfg_extract.Add(timer.ElapsedSeconds());
      // G-EN: Gemini graph embedding.
      timer.Reset();
      (void)gemini.Encode(acfg);
      bucket.gemini_encode.Add(timer.ElapsedSeconds());
    }
  }

  std::printf("\n== Figure 10(b): offline time per function by AST size ==\n\n");
  util::TextTable table({"AST size", "A-D", "A-P", "A-E", "D-H", "G-EX",
                         "G-EN", "#fns"});
  for (const auto& [bound, bucket] : buckets) {
    const std::string label =
        bound == 1000000 ? ">=300" : "<" + std::to_string(bound);
    table.AddRow({label, util::FormatSeconds(bucket.decompile.mean()),
                  util::FormatSeconds(bucket.preprocess.mean()),
                  util::FormatSeconds(bucket.encode.mean()),
                  util::FormatSeconds(bucket.diaphora.mean()),
                  util::FormatSeconds(bucket.acfg_extract.mean()),
                  util::FormatSeconds(bucket.gemini_encode.mean()),
                  std::to_string(bucket.decompile.count())});
  }
  std::fputs(table.ToString().c_str(), stdout);
  std::printf("\n(paper shape: Tree-LSTM encoding ~ decompilation cost, both >> Diaphora hash)\n");
  table.WriteCsv(flags.GetString("out") + "/fig10b_offline.csv");

  // ---- parallel offline encoding (--threads) -----------------------------
  const int threads = static_cast<int>(flags.GetInt("threads"));
  std::printf("\n== Offline corpus encoding: 1 vs %d thread(s), %zu functions ==\n\n",
              threads, features.size());
  core::SearchIndex serial_index(model, 1);
  timer.Reset();
  serial_index.AddAll(features);
  const double serial_seconds = timer.ElapsedSeconds();
  core::SearchIndex parallel_index(model, threads);
  timer.Reset();
  parallel_index.AddAll(features);
  const double parallel_seconds = timer.ElapsedSeconds();

  // Determinism check: embeddings and top-k must be bitwise identical.
  bool identical = serial_index.size() == parallel_index.size();
  for (int i = 0; identical && i < serial_index.size(); ++i) {
    const nn::Matrix& a = serial_index.encoding(i);
    const nn::Matrix& b = parallel_index.encoding(i);
    identical = a.SameShape(b) &&
                std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  }
  if (identical && !features.empty()) {
    const auto top_serial = serial_index.TopK(features.front(), 10);
    const auto top_parallel = parallel_index.TopK(features.front(), 10);
    identical = top_serial.size() == top_parallel.size();
    for (std::size_t i = 0; identical && i < top_serial.size(); ++i) {
      identical = top_serial[i].index == top_parallel[i].index &&
                  top_serial[i].score == top_parallel[i].score;
    }
  }

  const double speedup =
      parallel_seconds > 0 ? serial_seconds / parallel_seconds : 0.0;
  util::TextTable threads_table({"threads", "encode time", "speedup",
                                 "bitwise identical"});
  threads_table.AddRow({"1", util::FormatSeconds(serial_seconds), "1.00x",
                        "yes"});
  char speedup_text[32];
  std::snprintf(speedup_text, sizeof(speedup_text), "%.2fx", speedup);
  threads_table.AddRow({std::to_string(threads),
                        util::FormatSeconds(parallel_seconds), speedup_text,
                        identical ? "yes" : "NO"});
  std::fputs(threads_table.ToString().c_str(), stdout);
  threads_table.WriteCsv(flags.GetString("out") + "/fig10b_offline_threads.csv");
  if (!identical) {
    std::fprintf(stderr, "FAIL: parallel encodings diverge from serial\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace asteria

int main(int argc, char** argv) { return asteria::Run(argc, argv); }
