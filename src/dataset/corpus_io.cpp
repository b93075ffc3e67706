#include "dataset/corpus_io.h"

#include <cstdio>
#include <utility>
#include <vector>

#include "decompiler/decompile.h"
#include "store/container.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace asteria::dataset {

namespace {

util::Counter c_cache_hit("corpus.cache_hit");
util::Counter c_cache_miss("corpus.cache_miss");
util::Counter c_cache_quarantined("corpus.cache_quarantined");

bool FileExists(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  std::fclose(file);
  return true;
}

constexpr std::uint32_t kTagCorpusMeta = store::FourCc('C', 'M', 'E', 'T');
constexpr std::uint32_t kTagCorpusFunction = store::FourCc('F', 'U', 'N', 'C');
constexpr std::uint32_t kCorpusSchemaVersion = 1;

// Serializes the config fields that determine the built corpus (threads
// excluded: it never changes the output by the determinism contract).
void PutConfig(const CorpusConfig& config, store::ChunkBuilder* out) {
  out->PutI32(config.packages);
  out->PutU64(config.seed);
  // The AST-size floor keeps its slot, so cache fingerprints are unchanged.
  out->PutI32(decompiler::kMinAstSize);
  out->PutI32(config.beta);
  const GeneratorConfig& g = config.generator;
  out->PutI32(g.min_functions);
  out->PutI32(g.max_functions);
  out->PutI32(g.max_block_stmts);
  out->PutI32(g.max_stmt_depth);
  out->PutI32(g.max_expr_depth);
  out->PutI32(g.max_loop_trip);
  out->PutI32(g.max_call_nesting);
  out->PutF64(g.call_probability);
  out->PutF64(g.array_probability);
  out->PutF64(g.goto_probability);
  out->PutF64(g.switch_probability);
}

void PutBinaryAst(const ast::BinaryAst& tree, store::ChunkBuilder* out) {
  out->PutU32(static_cast<std::uint32_t>(tree.size()));
  out->PutI32(tree.root());
  for (ast::NodeId id = 0; id < tree.size(); ++id) {
    const ast::BinaryNode& node = tree.node(id);
    out->PutI32(node.label);
    out->PutI32(node.payload_bucket);
    out->PutI32(node.left);
    out->PutI32(node.right);
  }
}

bool GetBinaryAst(store::ChunkParser* parser, ast::BinaryAst* tree,
                  std::string* error) {
  std::uint32_t count = 0;
  ast::NodeId root = ast::kInvalidNode;
  if (!parser->GetU32(&count, error) || !parser->GetI32(&root, error)) {
    return false;
  }
  // 16 payload bytes per node bounds `count` against the chunk size.
  if (static_cast<std::uint64_t>(count) * 16 > parser->remaining()) {
    *error = "binary AST declares " + std::to_string(count) +
             " nodes but the chunk is too small — corrupted";
    return false;
  }
  std::vector<ast::BinaryNode> nodes(count);
  for (ast::BinaryNode& node : nodes) {
    if (!parser->GetI32(&node.label, error) ||
        !parser->GetI32(&node.payload_bucket, error) ||
        !parser->GetI32(&node.left, error) ||
        !parser->GetI32(&node.right, error)) {
      return false;
    }
  }
  if (count > 0 && (root < 0 || root >= static_cast<ast::NodeId>(count))) {
    *error = "binary AST root " + std::to_string(root) + " out of range";
    return false;
  }
  *tree = ast::BinaryAst(std::move(nodes), root);
  return true;
}

void PutAcfg(const cfg::Acfg& acfg, store::ChunkBuilder* out) {
  out->PutU32(static_cast<std::uint32_t>(acfg.nodes.size()));
  for (const cfg::AcfgNode& node : acfg.nodes) {
    out->PutF64Array(node.features.data(), node.features.size());
  }
  for (const std::vector<int>& successors : acfg.adjacency) {
    out->PutU32(static_cast<std::uint32_t>(successors.size()));
    for (int succ : successors) out->PutI32(succ);
  }
}

bool GetAcfg(store::ChunkParser* parser, cfg::Acfg* acfg, std::string* error) {
  std::uint32_t count = 0;
  if (!parser->GetU32(&count, error)) return false;
  if (static_cast<std::uint64_t>(count) * cfg::kAcfgFeatureDim * 8 >
      parser->remaining()) {
    *error = "ACFG declares " + std::to_string(count) +
             " nodes but the chunk is too small — corrupted";
    return false;
  }
  acfg->nodes.resize(count);
  for (cfg::AcfgNode& node : acfg->nodes) {
    if (!parser->GetF64Array(node.features.data(), node.features.size(),
                             error)) {
      return false;
    }
  }
  acfg->adjacency.resize(count);
  for (std::vector<int>& successors : acfg->adjacency) {
    std::uint32_t degree = 0;
    if (!parser->GetU32(&degree, error)) return false;
    if (static_cast<std::uint64_t>(degree) * 4 > parser->remaining()) {
      *error = "ACFG adjacency list truncated";
      return false;
    }
    successors.resize(degree);
    for (int& succ : successors) {
      if (!parser->GetI32(&succ, error)) return false;
      if (succ < 0 || succ >= static_cast<int>(count)) {
        *error = "ACFG successor " + std::to_string(succ) + " out of range";
        return false;
      }
    }
  }
  return true;
}

}  // namespace

std::uint32_t CorpusConfigFingerprint(const CorpusConfig& config) {
  store::ChunkBuilder fields;
  PutConfig(config, &fields);
  return store::Crc32(fields.bytes().data(), fields.size());
}

bool SaveCorpus(const Corpus& corpus, const CorpusConfig& config,
                const std::string& path, std::string* error) {
  if (config.keep_source_ast) {
    *error = "corpus snapshots do not persist the source n-ary AST; build "
             "with keep_source_ast=false to cache";
    return false;
  }
  store::Writer writer;
  if (!writer.Open(path, store::kKindCorpus, error)) return false;

  store::ChunkBuilder meta;
  meta.PutU32(kCorpusSchemaVersion);
  meta.PutU32(CorpusConfigFingerprint(config));
  for (int count : corpus.binaries_per_isa) meta.PutI32(count);
  for (int count : corpus.functions_per_isa) meta.PutI32(count);
  meta.PutI32(corpus.filtered_small);
  meta.PutU64(corpus.functions.size());
  if (!writer.WriteChunk(kTagCorpusMeta, meta, error)) return false;

  for (const CorpusFunction& fn : corpus.functions) {
    store::ChunkBuilder chunk;
    chunk.PutString(fn.package);
    chunk.PutString(fn.function);
    chunk.PutI32(fn.isa);
    chunk.PutI32(fn.ast_size);
    chunk.PutI32(fn.callee_count);
    chunk.PutU32(static_cast<std::uint32_t>(fn.callee_sizes.size()));
    for (int size : fn.callee_sizes) chunk.PutI32(size);
    chunk.PutI32(fn.instruction_count);
    PutBinaryAst(fn.preprocessed, &chunk);
    PutAcfg(fn.acfg, &chunk);
    if (!writer.WriteChunk(kTagCorpusFunction, chunk, error)) return false;
  }
  return writer.Finish(error);
}

bool LoadCorpus(Corpus* corpus, const CorpusConfig& config,
                const std::string& path, std::string* error) {
  store::Reader reader;
  if (!reader.Open(path, store::kKindCorpus, error)) return false;

  Corpus loaded;
  loaded.report.stage = "corpus-load";
  std::uint64_t declared_functions = 0;
  bool saw_meta = false;
  std::vector<std::uint8_t> payload;
  for (std::size_t i = 0; i < reader.chunks().size(); ++i) {
    const store::ChunkInfo& info = reader.chunks()[i];
    if (info.tag != kTagCorpusMeta && info.tag != kTagCorpusFunction) continue;
    if (!reader.ReadChunk(i, &payload, error)) return false;
    store::ChunkParser parser(payload);
    if (info.tag == kTagCorpusMeta) {
      std::uint32_t schema = 0, fingerprint = 0;
      if (!parser.GetU32(&schema, error) ||
          !parser.GetU32(&fingerprint, error)) {
        return false;
      }
      if (schema != kCorpusSchemaVersion) {
        *error = path + ": unsupported corpus snapshot version " +
                 std::to_string(schema);
        return false;
      }
      if (fingerprint != CorpusConfigFingerprint(config)) {
        *error = path + ": snapshot was built from a different CorpusConfig "
                        "(fingerprint mismatch) — stale cache";
        return false;
      }
      for (int& count : loaded.binaries_per_isa) {
        if (!parser.GetI32(&count, error)) return false;
      }
      for (int& count : loaded.functions_per_isa) {
        if (!parser.GetI32(&count, error)) return false;
      }
      if (!parser.GetI32(&loaded.filtered_small, error) ||
          !parser.GetU64(&declared_functions, error)) {
        return false;
      }
      saw_meta = true;
      continue;
    }
    if (!saw_meta) {
      *error = path + ": FUNC chunk before CMET metadata";
      return false;
    }
    CorpusFunction fn;
    std::uint32_t callee_sizes = 0;
    if (!parser.GetString(&fn.package, error) ||
        !parser.GetString(&fn.function, error) ||
        !parser.GetI32(&fn.isa, error) ||
        !parser.GetI32(&fn.ast_size, error) ||
        !parser.GetI32(&fn.callee_count, error) ||
        !parser.GetU32(&callee_sizes, error)) {
      return false;
    }
    if (static_cast<std::uint64_t>(callee_sizes) * 4 > parser.remaining()) {
      *error = path + ": callee-size list truncated";
      return false;
    }
    fn.callee_sizes.resize(callee_sizes);
    for (int& size : fn.callee_sizes) {
      if (!parser.GetI32(&size, error)) return false;
    }
    if (!parser.GetI32(&fn.instruction_count, error) ||
        !GetBinaryAst(&parser, &fn.preprocessed, error) ||
        !GetAcfg(&parser, &fn.acfg, error)) {
      return false;
    }
    loaded.index[{fn.package, fn.function, fn.isa}] =
        static_cast<int>(loaded.functions.size());
    loaded.functions.push_back(std::move(fn));
    loaded.report.AddOk();
  }
  if (!saw_meta) {
    *error = path + ": missing CMET metadata chunk";
    return false;
  }
  if (loaded.functions.size() != declared_functions) {
    *error = path + ": CMET declares " + std::to_string(declared_functions) +
             " functions but " + std::to_string(loaded.functions.size()) +
             " FUNC chunks were found";
    return false;
  }
  *corpus = std::move(loaded);
  return true;
}

Corpus BuildOrLoadCorpus(const CorpusConfig& config,
                         const std::string& cache_path) {
  if (cache_path.empty()) return BuildCorpus(config);
  std::string error;
  Corpus corpus;
  util::Timer timer;
  if (LoadCorpus(&corpus, config, cache_path, &error)) {
    c_cache_hit.Increment();
    ASTERIA_LOG(Info) << "corpus cache hit: " << cache_path << " ("
                      << corpus.functions.size() << " functions in "
                      << timer.ElapsedSeconds() << "s)";
    return corpus;
  }
  c_cache_miss.Increment();
  ASTERIA_LOG(Info) << "corpus cache miss (" << error << "); rebuilding";
  // A cache that exists but failed to load is corrupt or stale: move it
  // aside (never silently delete evidence) so the rebuild below can write a
  // fresh snapshot in its place.
  if (FileExists(cache_path)) {
    std::string quarantined;
    if (store::QuarantineFile(cache_path, &quarantined)) {
      c_cache_quarantined.Increment();
      ASTERIA_LOG(Warn) << "quarantined corrupt corpus cache to "
                        << quarantined;
    }
  }
  corpus = BuildCorpus(config);
  if (!SaveCorpus(corpus, config, cache_path, &error)) {
    ASTERIA_LOG(Warn) << "corpus cache write failed: " << error;
  } else {
    ASTERIA_LOG(Info) << "corpus cached to " << cache_path;
  }
  return corpus;
}

}  // namespace asteria::dataset
