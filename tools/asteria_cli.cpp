// asteria-cli — command-line front end to the pipeline substrates.
//
//   asteria-cli gen [seed]                     generate a random MiniC package
//   asteria-cli compile <file> [isa]           compile and disassemble
//   asteria-cli decompile <file> [isa] [fn]    decompile to Table-I s-exprs
//   asteria-cli dot <file> <fn> [isa]          decompiled AST as Graphviz dot
//   asteria-cli stats <file>                   per-ISA AST size/callee table
//                                              plus the metrics snapshot of
//                                              the run (counters/spans)
//   asteria-cli sim <file> <fnA> <isaA> <fnB> <isaB> [weights]
//                                              similarity of two functions
//   asteria-cli search <file> <fn> <isa> [k] [weights]
//                                              top-k clone search: query one
//                                              function against every function
//                                              of every ISA build of <file>
//   asteria-cli index-build <file> <out.idx> [weights]
//                                              offline phase: encode every
//                                              function of every ISA build and
//                                              save a CRC-checked snapshot
//   asteria-cli index-info <idx>               inspect a snapshot (or any
//                                              container artifact) without
//                                              loading a model
//   asteria-cli index-query <idx> <file> <fn> <isa> [k] [weights]
//                                              online phase: load the snapshot
//                                              (no re-encoding) and run top-k;
//                                              --batch_file=FILE queries every
//                                              listed function in one batched
//                                              sweep, --repeat=N re-runs it and
//                                              reports the first (cold) batch
//                                              and the warm ones' latency
//   asteria-cli run <file> <fn> [args...]      execute in the interpreter
//   asteria-cli failpoints                     list registered failpoints
//   asteria-cli query <file> <fn> <isa> [k] --socket=PATH
//                                              send a top-k query to a running
//                                              asteria-serve daemon
//   asteria-cli ctl <ping|health|top|reload|shutdown> --socket=PATH
//                                              control a running daemon;
//                                              `health` prints index size,
//                                              queue depth, connection count,
//                                              uptime, answered/shed/deadline
//                                              totals, and whether it is
//                                              draining; `top` prints the
//                                              live-telemetry view (QPS and
//                                              shed/deadline rates over
//                                              500 ms between two health
//                                              probes, p50/p95/p99 latency)
//                                              — with --repeat=N it
//                                              refreshes N times
//   asteria-cli fw-gen <out_dir> <count> [seed]
//                                              pack synthetic firmware images
//                                              as <out_dir>/img-<seed>-<i>.fw
//                                              drop files for `ingest`
//   asteria-cli ingest <index_dir> [image.fw ...] [--drop_dir=DIR]
//               [--compact] [--weights=FILE] [--socket=PATH]
//                                              streaming ingest: decompile +
//                                              encode each NEW image (content
//                                              digest dedup, FENC cache
//                                              reuse), publish it as a shard
//                                              under <index_dir>/manifest.mani
//                                              and poke a running daemon's
//                                              reload path (--socket). With
//                                              --drop_dir, sweep DIR for
//                                              *.fw files; with --compact,
//                                              fold adjacent small shards
//                                              afterwards.
//   asteria-cli delta-search <index_dir> [threshold] [--weights=FILE]
//                                              re-run the CVE library queries
//                                              against only the shards newer
//                                              than the manifest's searched
//                                              high-water mark, append every
//                                              hit to the persistent
//                                              <index_dir>/alerts.jsonl CVE
//                                              log, then advance the mark
//   asteria-cli alerts <index_dir>             print the accumulated CVE-alert
//                                              log (crash-torn or corrupted
//                                              lines are skipped and counted)
//
// Client request-lifecycle flags for `query` and `ctl` (docs/SERVING.md):
// --deadline_ms=N stamps each request's frame header with a time budget the
// daemon enforces at dequeue; --retries=N retries idempotent operations
// (never reload/shutdown) with jittered exponential backoff over reconnect,
// shed (kOverloaded), and drain (kShuttingDown); --retry_seed=N pins the
// jitter rng for reproducible timing.
//
// ISAs: x86 x64 ARM PPC (default x86).
//
// A --threads=N flag (anywhere on the command line) sets the worker-thread
// count for offline encoding and query scoring; results are bitwise
// identical for any value (util::ThreadPool determinism contract) — and a
// snapshot round trip preserves that: index-query over a loaded snapshot
// returns bitwise-identical TopK results to a fresh index-build.
//
// A --failpoints=SPEC flag (or the ASTERIA_FAILPOINTS env var) arms
// fault-injection points, e.g. --failpoints=store.write=once (see
// docs/ROBUSTNESS.md); --failpoints=list prints the registered names.
//
// A --log_level={debug,info,warn,error} flag sets the logger's minimum
// emitted level (default info). Each line carries a thread ordinal.
//
// A --metrics_out=FILE flag writes the process metrics snapshot (counters,
// histograms, per-stage span times, pipeline reports) as JSON after the
// command finishes, whatever its exit code — see docs/OBSERVABILITY.md.
//
// A --trace_out=FILE flag dumps this process's wide-event request log (one
// CRC-framed record per client attempt / ingest op) the same way — the
// client half of the per-request trace join (docs/OBSERVABILITY.md
// "Per-request tracing").
#include <sys/stat.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "binary/disasm.h"
#include "compiler/compile.h"
#include "core/asteria.h"
#include "core/search_index.h"
#include "decompiler/decompile.h"
#include "firmware/image.h"
#include "firmware/search.h"
#include "ingest/ingest.h"
#include "store/manifest.h"
#include "minic/interp.h"
#include "minic/parser.h"
#include "minic/printer.h"
#include "minic/sema.h"
#include "dataset/generator.h"
#include "serve/client.h"
#include "store/container.h"
#include "util/failpoint.h"
#include "util/timer.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/request_log.h"
#include "util/table.h"

namespace {

using namespace asteria;

int g_threads = 1;           // set by --threads=N
std::string g_metrics_out;   // set by --metrics_out=FILE
std::string g_trace_out;     // set by --trace_out=FILE
std::string g_socket;        // set by --socket=PATH (query/ctl/ingest)
long g_repeat = 1;           // set by --repeat=N (index-query, ctl top)
std::string g_batch_file;    // set by --batch_file=FILE (index-query)
std::string g_weights;       // set by --weights=FILE (ingest/delta-search)
std::string g_drop_dir;      // set by --drop_dir=DIR (ingest)
bool g_compact = false;      // set by --compact (ingest)
long g_deadline_ms = 0;      // set by --deadline_ms=N (query/ctl)
long g_retries = 0;          // set by --retries=N (query/ctl)
long g_retry_seed = 0;       // set by --retry_seed=N (query/ctl)

// Client options for `query`/`ctl`, folding in the request-lifecycle flags.
serve::ClientOptions CliClientOptions() {
  serve::ClientOptions options;
  options.deadline_ms = static_cast<std::uint64_t>(g_deadline_ms);
  options.max_retries = static_cast<int>(g_retries);
  options.retry_seed = static_cast<std::uint64_t>(g_retry_seed);
  return options;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: asteria-cli <gen|compile|decompile|dot|stats|sim|search|"
      "index-build|index-info|index-query|query|ctl|run|failpoints|"
      "fw-gen|ingest|delta-search|alerts> "
      "[--threads=N] [--failpoints=SPEC] "
      "[--log_level=LEVEL] [--metrics_out=FILE] [--trace_out=FILE] "
      "[--socket=PATH] "
      "[--repeat=N] [--batch_file=FILE] [--weights=FILE] [--drop_dir=DIR] "
      "[--compact] "
      "[--deadline_ms=N] [--retries=N] [--retry_seed=N] ...\n"
      "see the header of tools/asteria_cli.cpp for details\n");
  return 2;
}

// Strict base-10 integer parse: the whole token must be digits (optionally
// signed); anything else is an error, not silently clamped garbage.
bool ParseInt(const char* text, long* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') return false;
  *out = value;
  return true;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool LoadProgram(const std::string& path, minic::Program* program) {
  std::string source, error;
  if (!ReadFile(path, &source)) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  if (!minic::Parse(source, program, &error) ||
      !minic::Check(*program, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

binary::Isa ParseIsa(const std::string& name) {
  const binary::Isa isa = binary::IsaFromName(name);
  if (isa == binary::Isa::kIsaCount) {
    std::fprintf(stderr, "unknown ISA '%s' (x86|x64|ARM|PPC)\n", name.c_str());
    std::exit(2);
  }
  return isa;
}

int CmdFailpoints() {
  for (const std::string& name : util::ListFailpoints()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

int CmdGen(int argc, char** argv) {
  std::uint64_t seed = 42;
  if (argc > 2) {
    long value = 0;
    if (!ParseInt(argv[2], &value) || value < 0) {
      std::fprintf(stderr, "bad seed '%s' (expected a non-negative integer)\n",
                   argv[2]);
      return 2;
    }
    seed = static_cast<std::uint64_t>(value);
  }
  dataset::GeneratorConfig config;
  util::Rng rng(seed);
  minic::Program program = dataset::GenerateProgram(config, rng);
  std::fputs(minic::Print(program).c_str(), stdout);
  return 0;
}

int CmdCompile(int argc, char** argv) {
  if (argc < 3) return Usage();
  minic::Program program;
  if (!LoadProgram(argv[2], &program)) return 1;
  const binary::Isa isa = argc > 3 ? ParseIsa(argv[3]) : binary::Isa::kX86;
  auto result = compiler::CompileProgram(program, isa, argv[2]);
  if (!result.ok) {
    std::fprintf(stderr, "compile error: %s\n", result.error.c_str());
    return 1;
  }
  std::fputs(binary::DisasmModule(result.module).c_str(), stdout);
  std::fprintf(stderr, "; %zu instructions, %d calls inlined\n",
               result.module.TotalInstructions(), result.inlined_calls);
  return 0;
}

int CmdDecompile(int argc, char** argv) {
  if (argc < 3) return Usage();
  minic::Program program;
  if (!LoadProgram(argv[2], &program)) return 1;
  const binary::Isa isa = argc > 3 ? ParseIsa(argv[3]) : binary::Isa::kX86;
  const std::string only = argc > 4 ? argv[4] : "";
  auto result = compiler::CompileProgram(program, isa, argv[2]);
  if (!result.ok) {
    std::fprintf(stderr, "compile error: %s\n", result.error.c_str());
    return 1;
  }
  for (std::size_t f = 0; f < result.module.functions.size(); ++f) {
    if (!only.empty() && result.module.functions[f].name != only) continue;
    auto decompiled =
        decompiler::DecompileFunction(result.module, static_cast<int>(f));
    std::printf("; %s  (AST size %d, depth %d, |chi|=%d)\n",
                decompiled.name.c_str(), decompiled.tree.size(),
                decompiled.tree.Depth(), decompiled.callee_count);
    std::printf("%s\n\n", decompiled.tree.ToSExpr().c_str());
  }
  return 0;
}

int CmdDot(int argc, char** argv) {
  if (argc < 4) return Usage();
  minic::Program program;
  if (!LoadProgram(argv[2], &program)) return 1;
  const binary::Isa isa = argc > 4 ? ParseIsa(argv[4]) : binary::Isa::kX86;
  auto result = compiler::CompileProgram(program, isa, argv[2]);
  if (!result.ok) return 1;
  const int fn = result.module.FindFunction(argv[3]);
  if (fn < 0) {
    std::fprintf(stderr, "no function '%s'\n", argv[3]);
    return 1;
  }
  auto decompiled = decompiler::DecompileFunction(result.module, fn);
  std::fputs(decompiled.tree.ToDot(argv[3]).c_str(), stdout);
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (argc < 3) return Usage();
  minic::Program program;
  if (!LoadProgram(argv[2], &program)) return 1;
  util::TextTable table({"function", "ISA", "instructions", "AST size",
                         "AST depth", "|chi|"});
  for (int isa = 0; isa < binary::kNumIsas; ++isa) {
    auto result =
        compiler::CompileProgram(program, static_cast<binary::Isa>(isa), argv[2]);
    if (!result.ok) continue;
    auto decompiled = decompiler::DecompileModule(result.module);
    for (std::size_t f = 0; f < decompiled.size(); ++f) {
      table.AddRow(
          {decompiled[f].name,
           std::string(binary::IsaName(static_cast<binary::Isa>(isa))),
           std::to_string(decompiled[f].instruction_count),
           std::to_string(decompiled[f].tree.size()),
           std::to_string(decompiled[f].tree.Depth()),
           std::to_string(decompiled[f].callee_count)});
    }
  }
  std::fputs(table.ToString().c_str(), stdout);
  // The decompiles above populated the metrics registry; print the run's
  // snapshot (counters, spans, pipeline reports) below the AST table.
  std::printf("\n%s", util::SnapshotMetrics().ToText().c_str());
  return 0;
}

// firmware::BuildQueryFeature, reporting a missing function on stderr.
bool BuildQueryOrWarn(const binary::BinModule& module, const std::string& fn,
                      core::FunctionFeature* query) {
  std::string why;
  if (firmware::BuildQueryFeature(module, fn, decompiler::kDefaultBeta, query,
                                  &why)) {
    return true;
  }
  std::fprintf(stderr, "%s\n", why.c_str());
  return false;
}

int CmdSim(int argc, char** argv) {
  if (argc < 7) return Usage();
  minic::Program program;
  if (!LoadProgram(argv[2], &program)) return 1;
  const std::string fn_a = argv[3];
  const binary::Isa isa_a = ParseIsa(argv[4]);
  const std::string fn_b = argv[5];
  const binary::Isa isa_b = ParseIsa(argv[6]);

  core::AsteriaModel model{core::AsteriaConfig{}};
  if (argc > 7) {
    if (!model.Load(argv[7])) {
      std::fprintf(stderr, "cannot load weights from %s\n", argv[7]);
      return 1;
    }
  } else {
    std::fprintf(stderr,
                 "warning: scoring with UNTRAINED weights; pass a weight "
                 "file (see examples/train_model)\n");
  }

  auto feature = [&](const std::string& fn_name, binary::Isa isa,
                     core::FunctionFeature* out) {
    auto result = compiler::CompileProgram(program, isa, "cli");
    return result.ok && BuildQueryOrWarn(result.module, fn_name, out);
  };
  core::FunctionFeature a, b;
  if (!feature(fn_a, isa_a, &a) || !feature(fn_b, isa_b, &b)) return 1;
  const double m = model.AstSimilarity(a.tree, b.tree);
  const double f = core::CalibratedSimilarity(m, a.callee_count, b.callee_count);
  std::printf("M(T1,T2) = %.6f   S(C1=%d, C2=%d) = %.6f   F = %.6f\n", m,
              a.callee_count, b.callee_count,
              core::CalleeSimilarity(a.callee_count, b.callee_count), f);
  return 0;
}

// Loads weights into `model` when a path is given; warns otherwise.
bool LoadWeightsOrWarn(core::AsteriaModel* model, const char* path) {
  if (path != nullptr) {
    if (!model->Load(path)) {
      std::fprintf(stderr, "cannot load weights from %s\n", path);
      return false;
    }
    return true;
  }
  std::fprintf(stderr,
               "warning: scoring with UNTRAINED weights; pass a weight "
               "file (see examples/train_model)\n");
  return true;
}

// Offline phase of `search`/`index-build`: every function of every ISA
// build of `program` becomes one feature, named "<fn>@<ISA>". When
// `query_fn` is non-empty, also extracts the matching query feature.
bool CollectFeatures(const minic::Program& program, const char* source_path,
                     const std::string& query_fn, binary::Isa query_isa,
                     std::vector<core::FunctionFeature>* features,
                     core::FunctionFeature* query, bool* have_query) {
  if (have_query != nullptr) *have_query = false;
  for (int isa = 0; isa < binary::kNumIsas; ++isa) {
    auto result = compiler::CompileProgram(
        program, static_cast<binary::Isa>(isa), source_path);
    const std::string isa_name(binary::IsaName(static_cast<binary::Isa>(isa)));
    if (!result.ok) {
      std::fprintf(stderr, "compile error (%s): %s\n", isa_name.c_str(),
                   result.error.c_str());
      return false;
    }
    auto decompiled = decompiler::DecompileModule(result.module);
    for (decompiler::DecompiledFunction& df : decompiled) {
      core::FunctionFeature feature;
      feature.name = df.name + "@" + isa_name;
      feature.tree = core::AsteriaModel::Preprocess(df.tree);
      feature.callee_count = df.callee_count;
      if (!query_fn.empty() && static_cast<binary::Isa>(isa) == query_isa &&
          df.name == query_fn) {
        *query = feature;
        *have_query = true;
      }
      features->push_back(std::move(feature));
    }
  }
  if (!query_fn.empty() && have_query != nullptr && !*have_query) {
    std::fprintf(stderr, "no function '%s' under %s\n", query_fn.c_str(),
                 std::string(binary::IsaName(query_isa)).c_str());
    return false;
  }
  return true;
}

void PrintHits(const std::vector<core::SearchHit>& hits) {
  util::TextTable table({"rank", "function", "F"});
  for (std::size_t i = 0; i < hits.size(); ++i) {
    char score[32];
    std::snprintf(score, sizeof(score), "%.6f", hits[i].score);
    table.AddRow({std::to_string(i + 1), hits[i].name, score});
  }
  std::fputs(table.ToString().c_str(), stdout);
}

bool ParseTopK(int argc, char** argv, int arg_index, int* k) {
  if (argc <= arg_index) return true;  // keep the default
  long value = 0;
  if (!ParseInt(argv[arg_index], &value) || value < 1) {
    std::fprintf(stderr, "bad k '%s' (expected a positive integer)\n",
                 argv[arg_index]);
    return false;
  }
  *k = static_cast<int>(value);
  return true;
}

int CmdSearch(int argc, char** argv) {
  if (argc < 5) return Usage();
  minic::Program program;
  if (!LoadProgram(argv[2], &program)) return 1;
  const std::string query_fn = argv[3];
  const binary::Isa query_isa = ParseIsa(argv[4]);
  int k = 10;
  if (!ParseTopK(argc, argv, 5, &k)) return 1;

  core::AsteriaModel model{core::AsteriaConfig{}};
  if (!LoadWeightsOrWarn(&model, argc > 6 ? argv[6] : nullptr)) return 1;

  std::vector<core::FunctionFeature> features;
  core::FunctionFeature query;
  bool have_query = false;
  if (!CollectFeatures(program, argv[2], query_fn, query_isa, &features,
                       &query, &have_query)) {
    return 1;
  }
  core::SearchIndex index(model, g_threads);
  const util::PipelineReport report = index.AddAll(features);
  if (!report.Clean()) {
    std::fprintf(stderr, "%s\n", report.Summary().c_str());
  }
  PrintHits(index.TopK(query, k));
  return 0;
}

int CmdIndexBuild(int argc, char** argv) {
  if (argc < 4) return Usage();
  minic::Program program;
  if (!LoadProgram(argv[2], &program)) return 1;
  const std::string out_path = argv[3];

  core::AsteriaModel model{core::AsteriaConfig{}};
  if (!LoadWeightsOrWarn(&model, argc > 4 ? argv[4] : nullptr)) return 1;

  std::vector<core::FunctionFeature> features;
  if (!CollectFeatures(program, argv[2], "", binary::Isa::kX86, &features,
                       nullptr, nullptr)) {
    return 1;
  }
  core::SearchIndex index(model, g_threads);
  const util::PipelineReport report = index.AddAll(features);
  if (!report.Clean()) {
    std::fprintf(stderr, "%s\n", report.Summary().c_str());
  }
  std::string error;
  if (!index.Save(out_path, &error)) {
    std::fprintf(stderr, "cannot save index: %s\n", error.c_str());
    return 1;
  }
  std::printf("indexed %d functions -> %s\n", index.size(), out_path.c_str());
  return 0;
}

int CmdIndexInfo(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::string error;
  store::Reader reader;
  if (!reader.Open(argv[2], 0, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("%s: %s container, format v%u, %zu chunks\n", argv[2],
              store::FourCcName(reader.kind()).c_str(), reader.version(),
              reader.chunks().size());
  util::TextTable table({"chunk", "tag", "payload bytes", "crc32"});
  std::size_t verified = 0;
  std::vector<std::uint8_t> payload;
  for (std::size_t i = 0; i < reader.chunks().size(); ++i) {
    const store::ChunkInfo& info = reader.chunks()[i];
    char crc[16];
    std::snprintf(crc, sizeof(crc), "%08x", info.crc32);
    table.AddRow({std::to_string(i), store::FourCcName(info.tag),
                  std::to_string(info.size), crc});
    if (!reader.ReadChunk(i, &payload, &error)) {
      std::fputs(table.ToString().c_str(), stdout);
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    ++verified;
  }
  std::fputs(table.ToString().c_str(), stdout);
  std::printf("all %zu chunk CRCs verified\n", verified);

  // A MANI manifest gets a decoded per-shard view on top of the raw chunk
  // table, so operators can see the compaction state of a sharded index.
  if (reader.kind() == store::kKindManifest) {
    store::ShardManifest manifest;
    if (!store::LoadManifest(&manifest, argv[2], &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf(
        "\nsharded index: sequence %llu, searched_seq %llu, model "
        "fingerprint %08x\n",
        static_cast<unsigned long long>(manifest.sequence),
        static_cast<unsigned long long>(manifest.searched_seq),
        manifest.model_fingerprint);
    util::TextTable shards(
        {"shard", "file", "entries", "bytes", "created_seq", "sources"});
    for (std::size_t i = 0; i < manifest.shards.size(); ++i) {
      const store::ShardRecord& shard = manifest.shards[i];
      shards.AddRow({std::to_string(i), shard.file,
                     std::to_string(shard.entries),
                     std::to_string(shard.bytes),
                     std::to_string(shard.created_seq),
                     std::to_string(shard.sources.size())});
    }
    std::fputs(shards.ToString().c_str(), stdout);
    std::printf("%zu shard(s), %llu entries total\n", manifest.shards.size(),
                static_cast<unsigned long long>(manifest.TotalEntries()));
  }
  return 0;
}

int CmdIndexQuery(int argc, char** argv) {
  if (argc < 6) return Usage();
  const std::string index_path = argv[2];
  minic::Program program;
  if (!LoadProgram(argv[3], &program)) return 1;
  const std::string query_fn = argv[4];
  const binary::Isa query_isa = ParseIsa(argv[5]);
  int k = 10;
  if (!ParseTopK(argc, argv, 6, &k)) return 1;

  core::AsteriaModel model{core::AsteriaConfig{}};
  if (!LoadWeightsOrWarn(&model, argc > 7 ? argv[7] : nullptr)) return 1;

  core::SearchIndex index(model, g_threads);
  std::string error;
  // Open dispatches on the container kind, so <idx> may be a monolithic
  // INDX snapshot or a MANI shard manifest — same results either way.
  if (!index.Open(index_path, &error)) {
    std::fprintf(stderr, "cannot load index: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "loaded %d encoded functions from %s (no re-encode)\n",
               index.size(), index_path.c_str());

  // Only the query functions need compiling/encoding now. With
  // --batch_file=FILE the queried names come from the file (one per line,
  // '#' comments allowed) and the positional <fn> is just the default when
  // the file is empty of names; all queries go through one TopKBatch sweep.
  std::vector<std::string> names;
  if (!g_batch_file.empty()) {
    std::string listing;
    if (!ReadFile(g_batch_file, &listing)) {
      std::fprintf(stderr, "cannot read --batch_file %s\n",
                   g_batch_file.c_str());
      return 1;
    }
    std::istringstream lines(listing);
    std::string line;
    while (std::getline(lines, line)) {
      const std::size_t start = line.find_first_not_of(" \t\r");
      if (start == std::string::npos || line[start] == '#') continue;
      const std::size_t stop = line.find_last_not_of(" \t\r");
      names.push_back(line.substr(start, stop - start + 1));
    }
  }
  if (names.empty()) names.push_back(query_fn);

  auto result = compiler::CompileProgram(program, query_isa, argv[3]);
  if (!result.ok) {
    std::fprintf(stderr, "compile error: %s\n", result.error.c_str());
    return 1;
  }
  std::vector<core::FunctionFeature> queries(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (!BuildQueryOrWarn(result.module, names[i], &queries[i])) return 1;
  }
  std::vector<const core::FunctionFeature*> query_ptrs(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) query_ptrs[i] = &queries[i];
  const std::vector<int> ks(queries.size(), k);

  // The first batch after Open also builds the search leaves, so it is
  // reported alone; mean/min/max cover the warm repetitions 2..N.
  util::Timer timer;
  std::vector<std::vector<core::SearchHit>> results =
      index.TopKBatch(query_ptrs, ks);
  const std::int64_t first_nanos = timer.ElapsedNanos();
  util::TimingStats latency;
  for (long rep = 1; rep < g_repeat; ++rep) {
    timer.Reset();
    results = index.TopKBatch(query_ptrs, ks);
    latency.Add(static_cast<double>(timer.ElapsedNanos()));
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results.size() > 1) std::printf("== %s ==\n", queries[i].name.c_str());
    PrintHits(results[i]);
  }
  if (g_repeat > 1) {
    std::printf(
        "repeat=%ld batch=%zu first_nanos=%lld mean_nanos=%.0f "
        "min_nanos=%.0f max_nanos=%.0f\n",
        g_repeat, queries.size(), static_cast<long long>(first_nanos),
        latency.mean(), latency.min(), latency.max());
  }
  return 0;
}

// Online path against a running asteria-serve daemon: only the query is
// compiled and shipped; the daemon already holds the index and the model.
int CmdQuery(int argc, char** argv) {
  if (argc < 5) return Usage();
  if (g_socket.empty()) {
    std::fprintf(stderr, "query: --socket=PATH is required\n");
    return 2;
  }
  minic::Program program;
  if (!LoadProgram(argv[2], &program)) return 1;
  const std::string query_fn = argv[3];
  const binary::Isa query_isa = ParseIsa(argv[4]);
  int k = 10;
  if (!ParseTopK(argc, argv, 5, &k)) return 1;

  auto result = compiler::CompileProgram(program, query_isa, argv[2]);
  if (!result.ok) {
    std::fprintf(stderr, "compile error: %s\n", result.error.c_str());
    return 1;
  }
  core::FunctionFeature query;
  if (!BuildQueryOrWarn(result.module, query_fn, &query)) return 1;

  serve::Client client;
  std::string error;
  if (!client.Connect(g_socket, CliClientOptions(), &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::vector<core::SearchHit> hits;
  if (!client.TopK(query, k, &hits, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  PrintHits(hits);
  return 0;
}

int CmdCtl(int argc, char** argv) {
  if (argc < 3) return Usage();
  if (g_socket.empty()) {
    std::fprintf(stderr, "ctl: --socket=PATH is required\n");
    return 2;
  }
  const std::string action = argv[2];
  serve::Client client;
  std::string error;
  if (!client.Connect(g_socket, CliClientOptions(), &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  bool ok = false;
  if (action == "ping") ok = client.Ping(&error);
  else if (action == "health") {
    serve::HealthInfo info;
    if (!client.Health(&info, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf(
        "health: index_size=%llu queue_depth=%llu connections=%llu "
        "draining=%d uptime_ms=%llu answered=%llu shed=%llu "
        "deadline_exceeded=%llu\n",
        static_cast<unsigned long long>(info.index_size),
        static_cast<unsigned long long>(info.queue_depth),
        static_cast<unsigned long long>(info.connections),
        info.draining ? 1 : 0,
        static_cast<unsigned long long>(info.uptime_ms),
        static_cast<unsigned long long>(info.answered),
        static_cast<unsigned long long>(info.shed),
        static_cast<unsigned long long>(info.deadline_exceeded));
    return 0;
  } else if (action == "top" || action == "stats") {
    // Live telemetry view: each refresh takes a health probe 500 ms after
    // the previous one and differences the two probes' cumulative totals
    // over the daemon's own uptime clock.
    serve::HealthInfo older;
    if (!client.Health(&older, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    for (long iter = 0; iter < g_repeat; ++iter) {
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
      serve::HealthInfo info;
      if (!client.Health(&info, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      }
      const double dt = (static_cast<double>(info.uptime_ms) -
                         static_cast<double>(older.uptime_ms)) /
                        1000.0;
      // A daemon restarted between the probes resets its totals: no rate.
      const auto rate = [dt](std::uint64_t newer, std::uint64_t before) {
        return dt > 0 && newer >= before
                   ? static_cast<double>(newer - before) / dt
                   : 0.0;
      };
      std::printf(
          "top: uptime_ms=%llu index_size=%llu connections=%llu "
          "queue_depth=%llu\n"
          "     requests=%llu replies=%llu shed=%llu cancelled=%llu "
          "deadline_exceeded=%llu\n"
          "     p50_ms=%.3f p95_ms=%.3f p99_ms=%.3f\n"
          "     qps=%.1f shed_per_s=%.1f deadline_per_s=%.1f\n",
          static_cast<unsigned long long>(info.uptime_ms),
          static_cast<unsigned long long>(info.index_size),
          static_cast<unsigned long long>(info.connections),
          static_cast<unsigned long long>(info.queue_depth),
          static_cast<unsigned long long>(info.requests),
          static_cast<unsigned long long>(info.answered),
          static_cast<unsigned long long>(info.shed),
          static_cast<unsigned long long>(info.cancelled),
          static_cast<unsigned long long>(info.deadline_exceeded),
          static_cast<double>(info.p50_nanos) / 1e6,
          static_cast<double>(info.p95_nanos) / 1e6,
          static_cast<double>(info.p99_nanos) / 1e6,
          rate(info.answered, older.answered), rate(info.shed, older.shed),
          rate(info.deadline_exceeded, older.deadline_exceeded));
      std::fflush(stdout);
      older = info;
    }
    return 0;
  } else if (action == "reload") ok = client.Reload(&error);
  else if (action == "shutdown") ok = client.Shutdown(&error);
  else {
    std::fprintf(stderr,
                 "ctl: unknown action '%s' "
                 "(ping|health|top|reload|shutdown)\n",
                 action.c_str());
    return 2;
  }
  if (!ok) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("%s: ok\n", action.c_str());
  return 0;
}

int CmdRun(int argc, char** argv) {
  if (argc < 4) return Usage();
  minic::Program program;
  if (!LoadProgram(argv[2], &program)) return 1;
  std::vector<minic::ArgValue> args;
  for (int i = 4; i < argc; ++i) {
    long value = 0;
    if (!ParseInt(argv[i], &value)) {
      std::fprintf(stderr, "bad argument '%s' (expected an integer)\n",
                   argv[i]);
      return 2;
    }
    args.push_back(minic::ArgValue::Scalar(value));
  }
  minic::Interpreter interp(program);
  const auto result = interp.Call(argv[3], std::move(args));
  if (!result.ok) {
    std::fprintf(stderr, "trap: %s\n", result.trap.c_str());
    return 1;
  }
  std::printf("%lld\n", static_cast<long long>(result.value));
  return 0;
}

// Packs synthetic firmware images (firmware::GenerateFirmware) into
// <out_dir>/img-<seed>-<i>.fw — the drop files `ingest` consumes. The
// output is a pure function of (count, seed).
int CmdFwGen(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string out_dir = argv[2];
  long count = 0;
  if (!ParseInt(argv[3], &count) || count < 1) {
    std::fprintf(stderr, "bad count '%s' (expected a positive integer)\n",
                 argv[3]);
    return 2;
  }
  long seed = 7;
  if (argc > 4 && (!ParseInt(argv[4], &seed) || seed < 0)) {
    std::fprintf(stderr, "bad seed '%s' (expected a non-negative integer)\n",
                 argv[4]);
    return 2;
  }
  firmware::FirmwareCorpusConfig config;
  config.images = static_cast<int>(count);
  config.seed = static_cast<std::uint64_t>(seed);
  const firmware::FirmwareCorpus corpus = firmware::GenerateFirmware(config);
  if (::mkdir(out_dir.c_str(), 0777) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(),
                 std::strerror(errno));
    return 1;
  }
  int written = 0;
  for (std::size_t i = 0; i < corpus.images.size(); ++i) {
    const std::vector<std::uint8_t> blob = firmware::Pack(corpus.images[i]);
    const std::string path = out_dir + "/img-" + std::to_string(seed) + "-" +
                             std::to_string(i) + ".fw";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr ||
        std::fwrite(blob.data(), 1, blob.size(), f) != blob.size()) {
      if (f != nullptr) std::fclose(f);
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::fclose(f);
    ++written;
  }
  std::printf("packed %d firmware images -> %s\n", written, out_dir.c_str());
  return 0;
}

int CmdIngest(int argc, char** argv) {
  if (argc < 3) return Usage();
  core::AsteriaModel model{core::AsteriaConfig{}};
  if (!LoadWeightsOrWarn(&model, g_weights.empty() ? nullptr
                                                   : g_weights.c_str())) {
    return 1;
  }
  ingest::IngestConfig ingest_config;
  ingest_config.index_dir = argv[2];
  ingest_config.threads = g_threads;
  ingest_config.serve_socket = g_socket;
  ingest::IngestService service(model, ingest_config);
  std::string error;
  if (!service.Open(&error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  ingest::IngestStats stats;
  int rc = 0;
  for (int i = 3; i < argc; ++i) {
    if (!service.IngestFile(argv[i], &stats, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      rc = 1;
    }
  }
  if (!g_drop_dir.empty()) service.ScanDropDir(g_drop_dir, &stats);
  if (g_compact) {
    int merged_runs = 0;
    if (!service.Compact(&merged_runs, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      rc = 1;
    } else if (merged_runs > 0) {
      std::printf("compacted %d shard run(s)\n", merged_runs);
    }
  }
  if (!stats.report.Clean()) {
    std::fprintf(stderr, "%s\n", stats.report.Summary().c_str());
  }
  std::printf(
      "ingested %d image(s) (%d deduped, %d failed): %d functions indexed, "
      "%d encoded, %d cache hit(s)\n",
      stats.images_published, stats.images_deduped, stats.images_failed,
      stats.functions_indexed, stats.functions_encoded, stats.cache_hits);
  const store::ShardManifest& manifest = service.manifest();
  std::printf("manifest: sequence %llu, %zu shard(s), %llu entries\n",
              static_cast<unsigned long long>(manifest.sequence),
              manifest.shards.size(),
              static_cast<unsigned long long>(manifest.TotalEntries()));
  return rc;
}

int CmdDeltaSearch(int argc, char** argv) {
  if (argc < 3) return Usage();
  double threshold = 0.9;
  if (argc > 3) {
    char* end = nullptr;
    errno = 0;
    threshold = std::strtod(argv[3], &end);
    if (errno != 0 || end == argv[3] || *end != '\0' || threshold < 0.0 ||
        threshold > 1.0) {
      std::fprintf(stderr, "bad threshold '%s' (expected 0..1)\n", argv[3]);
      return 2;
    }
  }
  core::AsteriaModel model{core::AsteriaConfig{}};
  if (!LoadWeightsOrWarn(&model, g_weights.empty() ? nullptr
                                                   : g_weights.c_str())) {
    return 1;
  }
  ingest::DeltaVulnResult result;
  std::string error;
  if (!ingest::DeltaVulnSearch(model, argv[2], threshold, /*beta=*/4,
                               g_threads, &result, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf(
      "delta vuln search: %d shard(s), %d entries newer than seq %llu\n",
      result.shards_searched, result.entries_searched,
      static_cast<unsigned long long>(result.from_seq));
  util::TextTable table({"CVE", "software", "candidates", "top hit", "F"});
  for (const ingest::DeltaCveRow& row : result.per_cve) {
    std::string top = "-";
    std::string score = "-";
    if (!row.hits.empty()) {
      top = row.hits.front().name;
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.6f", row.hits.front().score);
      score = buffer;
    }
    table.AddRow({row.cve, row.software, std::to_string(row.hits.size()),
                  top, score});
  }
  std::fputs(table.ToString().c_str(), stdout);
  if (!result.report.Clean()) {
    std::fprintf(stderr, "%s\n", result.report.Summary().c_str());
  }
  std::printf("searched high-water mark advanced to seq %llu\n",
              static_cast<unsigned long long>(result.to_seq));
  return 0;
}

// Prints the persistent CVE-alert log accumulated by delta-search runs.
// Crash-torn or corrupted lines are skipped by the reader and only
// counted, so a dirty log is still fully consultable.
int CmdAlerts(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::vector<ingest::AlertRecord> alerts;
  int corrupt_lines = 0;
  std::string error;
  if (!ingest::ReadAlertLog(argv[2], &alerts, &corrupt_lines, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  util::TextTable table({"seq", "CVE", "software", "function", "hit", "F"});
  for (const ingest::AlertRecord& alert : alerts) {
    char score[32];
    std::snprintf(score, sizeof(score), "%.6f", alert.score);
    table.AddRow({std::to_string(alert.seq), alert.cve, alert.software,
                  alert.function, alert.hit, score});
  }
  std::fputs(table.ToString().c_str(), stdout);
  std::printf("%zu alert(s)", alerts.size());
  if (corrupt_lines > 0) {
    std::printf(", %d corrupt line(s) skipped", corrupt_lines);
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Extract --threads=N wherever it appears; commands see positional args
  // only. The value is parsed strictly: non-numeric input is an error, not
  // something to clamp to 1 and silently run with.
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      long threads = 0;
      if (!ParseInt(argv[i] + 10, &threads) || threads < 1) {
        std::fprintf(stderr,
                     "bad --threads value '%s' (expected a positive integer)\n",
                     argv[i] + 10);
        return 2;
      }
      g_threads = static_cast<int>(threads);
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    } else if (std::strncmp(argv[i], "--failpoints=", 13) == 0) {
      const std::string spec = argv[i] + 13;
      if (spec == "list") return CmdFailpoints();
      std::string error;
      if (!util::ConfigureFailpoints(spec, &error)) {
        std::fprintf(stderr, "bad --failpoints spec: %s\n", error.c_str());
        return 2;
      }
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    } else if (std::strncmp(argv[i], "--log_level=", 12) == 0) {
      util::LogLevel level = util::LogLevel::kInfo;
      if (!util::ParseLogLevel(argv[i] + 12, &level)) {
        std::fprintf(stderr,
                     "bad --log_level value '%s' (debug|info|warn|error)\n",
                     argv[i] + 12);
        return 2;
      }
      util::SetLogLevel(level);
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    } else if (std::strncmp(argv[i], "--metrics_out=", 14) == 0) {
      g_metrics_out = argv[i] + 14;
      if (g_metrics_out.empty()) {
        std::fprintf(stderr, "bad --metrics_out value (expected a path)\n");
        return 2;
      }
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    } else if (std::strncmp(argv[i], "--trace_out=", 12) == 0) {
      g_trace_out = argv[i] + 12;
      if (g_trace_out.empty()) {
        std::fprintf(stderr, "bad --trace_out value (expected a path)\n");
        return 2;
      }
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    } else if (std::strncmp(argv[i], "--socket=", 9) == 0) {
      g_socket = argv[i] + 9;
      if (g_socket.empty()) {
        std::fprintf(stderr, "bad --socket value (expected a path)\n");
        return 2;
      }
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    } else if (std::strncmp(argv[i], "--repeat=", 9) == 0) {
      if (!ParseInt(argv[i] + 9, &g_repeat) || g_repeat < 1) {
        std::fprintf(stderr,
                     "bad --repeat value '%s' (expected a positive integer)\n",
                     argv[i] + 9);
        return 2;
      }
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    } else if (std::strncmp(argv[i], "--batch_file=", 13) == 0) {
      g_batch_file = argv[i] + 13;
      if (g_batch_file.empty()) {
        std::fprintf(stderr, "bad --batch_file value (expected a path)\n");
        return 2;
      }
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    } else if (std::strncmp(argv[i], "--weights=", 10) == 0) {
      g_weights = argv[i] + 10;
      if (g_weights.empty()) {
        std::fprintf(stderr, "bad --weights value (expected a path)\n");
        return 2;
      }
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    } else if (std::strncmp(argv[i], "--drop_dir=", 11) == 0) {
      g_drop_dir = argv[i] + 11;
      if (g_drop_dir.empty()) {
        std::fprintf(stderr, "bad --drop_dir value (expected a path)\n");
        return 2;
      }
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    } else if (std::strcmp(argv[i], "--compact") == 0) {
      g_compact = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    } else if (std::strncmp(argv[i], "--deadline_ms=", 14) == 0) {
      if (!ParseInt(argv[i] + 14, &g_deadline_ms) || g_deadline_ms < 0) {
        std::fprintf(
            stderr,
            "bad --deadline_ms value '%s' (expected a non-negative integer)\n",
            argv[i] + 14);
        return 2;
      }
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    } else if (std::strncmp(argv[i], "--retries=", 10) == 0) {
      if (!ParseInt(argv[i] + 10, &g_retries) || g_retries < 0) {
        std::fprintf(
            stderr,
            "bad --retries value '%s' (expected a non-negative integer)\n",
            argv[i] + 10);
        return 2;
      }
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    } else if (std::strncmp(argv[i], "--retry_seed=", 13) == 0) {
      if (!ParseInt(argv[i] + 13, &g_retry_seed) || g_retry_seed < 0) {
        std::fprintf(
            stderr,
            "bad --retry_seed value '%s' (expected a non-negative integer)\n",
            argv[i] + 13);
        return 2;
      }
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    }
  }
  int rc = 2;
  if (argc < 2) {
    rc = Usage();
  } else {
    const std::string command = argv[1];
    if (command == "failpoints") rc = CmdFailpoints();
    else if (command == "gen") rc = CmdGen(argc, argv);
    else if (command == "compile") rc = CmdCompile(argc, argv);
    else if (command == "decompile") rc = CmdDecompile(argc, argv);
    else if (command == "dot") rc = CmdDot(argc, argv);
    else if (command == "stats") rc = CmdStats(argc, argv);
    else if (command == "sim") rc = CmdSim(argc, argv);
    else if (command == "search") rc = CmdSearch(argc, argv);
    else if (command == "index-build") rc = CmdIndexBuild(argc, argv);
    else if (command == "index-info") rc = CmdIndexInfo(argc, argv);
    else if (command == "index-query") rc = CmdIndexQuery(argc, argv);
    else if (command == "query") rc = CmdQuery(argc, argv);
    else if (command == "ctl") rc = CmdCtl(argc, argv);
    else if (command == "run") rc = CmdRun(argc, argv);
    else if (command == "fw-gen") rc = CmdFwGen(argc, argv);
    else if (command == "ingest") rc = CmdIngest(argc, argv);
    else if (command == "delta-search") rc = CmdDeltaSearch(argc, argv);
    else if (command == "alerts") rc = CmdAlerts(argc, argv);
    else rc = Usage();
  }
  // Emit the snapshot even when the command failed: a run that tripped a
  // failpoint or hit corruption is exactly the one worth inspecting.
  if (!g_metrics_out.empty()) {
    std::string error;
    if (!util::SnapshotMetrics().WriteJson(g_metrics_out, &error)) {
      std::fprintf(stderr, "cannot write --metrics_out: %s\n", error.c_str());
      if (rc == 0) rc = 1;
    }
  }
  if (!g_trace_out.empty()) {
    std::string error;
    if (!util::WriteRequestLogFile(g_trace_out,
                                   util::GlobalRequestLog().Snapshot(),
                                   &error)) {
      std::fprintf(stderr, "cannot write --trace_out: %s\n", error.c_str());
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}
