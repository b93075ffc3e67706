// Fault-injection and corruption robustness tests (docs/ROBUSTNESS.md).
//
// Three contracts are pinned here:
//  1. Crash safety: every container write goes through temp-file + atomic
//     rename, so a simulated crash (store.crash failpoint) or any injected
//     I/O failure never leaves a file that opens as a valid container, and
//     never damages the previous snapshot.
//  2. Corruption tolerance: a byte-flipped or truncated artifact of any of
//     the four kinds (MODL/INDX/CORP/FENC) either loads cleanly or fails
//     cleanly with a descriptive error — it never crashes or commits
//     partial state. The sweep runs under ASan/UBSan via
//     scripts/check_sanitize.sh.
//  3. Fault isolation: one poisoned item (corpus function, encoding,
//     training pair) is skipped and counted in a PipelineReport; the batch
//     survives and the degraded results stay deterministic.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "binary/module.h"
#include "core/asteria.h"
#include "core/search_index.h"
#include "dataset/corpus.h"
#include "dataset/corpus_io.h"
#include "decompiler/decompile.h"
#include "decompiler/lifter.h"
#include "decompiler/machine_cfg.h"
#include "decompiler/structurer.h"
#include "firmware/search.h"
#include "nn/parameter.h"
#include "store/checkpoint.h"
#include "store/container.h"
#include "train_oracle.h"
#include "util/failpoint.h"
#include "util/pipeline_report.h"
#include "util/rng.h"

namespace asteria {
namespace {

using ::testing::TempDir;

std::string TempPath(const std::string& name) { return TempDir() + name; }

std::vector<std::uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

// Every test arms its own failpoints; make sure none leak across cases.
class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override { util::ClearFailpoints(); }
  void TearDown() override { util::ClearFailpoints(); }
};

void Arm(const std::string& spec) {
  std::string error;
  ASSERT_TRUE(util::ConfigureFailpoints(spec, &error)) << error;
}

// ---------------------------------------------------------------------------
// Shared small fixtures

core::AsteriaConfig SmallModelConfig(std::uint64_t seed = 1) {
  core::AsteriaConfig config;
  config.siamese.encoder.embedding_dim = 8;
  config.siamese.encoder.hidden_dim = 8;
  config.seed = seed;
  return config;
}

ast::Ast SyntheticTree(int nodes, util::Rng& rng) {
  ast::Ast tree;
  std::vector<ast::NodeId> pool;
  pool.push_back(tree.AddVar("x"));
  while (tree.size() < nodes) {
    const auto kind = static_cast<ast::NodeKind>(
        rng.NextBounded(static_cast<std::uint64_t>(ast::kNumNodeKinds)));
    const int arity = static_cast<int>(rng.NextBounded(3));
    std::vector<ast::NodeId> children;
    for (int i = 0; i < arity && !pool.empty(); ++i) {
      children.push_back(pool.back());
      pool.pop_back();
    }
    pool.push_back(tree.AddNode(kind, std::move(children)));
  }
  tree.set_root(tree.AddNode(ast::NodeKind::kBlock, pool));
  return tree;
}

std::vector<core::FunctionFeature> SyntheticFeatures(int count,
                                                     std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<core::FunctionFeature> features;
  features.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    core::FunctionFeature feature;
    feature.name = "fn" + std::to_string(i);
    feature.tree = core::AsteriaModel::Preprocess(SyntheticTree(8, rng));
    feature.callee_count = static_cast<int>(rng.NextBounded(6));
    features.push_back(std::move(feature));
  }
  return features;
}

void FillStore(nn::ParameterStore* params, std::uint64_t seed) {
  util::Rng rng(seed);
  params->CreateXavier("w_left", 3, 4, rng);
  params->CreateXavier("b_out", 4, 1, rng);
}

firmware::FirmwareCorpusConfig TinyFirmwareConfig() {
  firmware::FirmwareCorpusConfig config;
  config.images = 4;
  config.seed = 7;
  config.filler_packages_per_image = 1;
  return config;
}

// ---------------------------------------------------------------------------
// 1. Crash safety and injected I/O failures

TEST_F(RobustnessTest, WriterOpenWriteRenameFailuresLeaveNoValidFile) {
  for (const char* point : {"store.open", "store.write", "store.rename"}) {
    util::ClearFailpoints();
    Arm(std::string(point) + "=always");
    const std::string path = TempPath(std::string("io_fail_") + point + ".bin");
    std::remove(path.c_str());

    store::ChunkBuilder chunk;
    chunk.PutString("payload");
    store::Writer writer;
    std::string error;
    bool ok = writer.Open(path, store::kKindModel, &error);
    if (ok) ok = writer.WriteChunk(store::FourCc('D', 'A', 'T', 'A'), chunk,
                                   &error);
    if (ok) ok = writer.Finish(&error);
    EXPECT_FALSE(ok) << point;
    EXPECT_FALSE(error.empty()) << point;
    // Nothing at the final path may open as a container.
    std::uint32_t kind = 0;
    EXPECT_FALSE(store::PeekKind(path, &kind, &error)) << point;
    EXPECT_FALSE(FileExists(path)) << point;
  }
}

TEST_F(RobustnessTest, CrashFailpointKeepsPreviousSnapshotIntact) {
  const std::string path = TempPath("crash_snapshot.bin");
  std::string error;
  {
    store::ChunkBuilder chunk;
    chunk.PutU32(1);
    store::Writer writer;
    ASSERT_TRUE(writer.Open(path, store::kKindIndex, &error)) << error;
    ASSERT_TRUE(writer.WriteChunk(store::FourCc('D', 'A', 'T', 'A'), chunk,
                                  &error))
        << error;
    ASSERT_TRUE(writer.Finish(&error)) << error;
  }
  const std::vector<std::uint8_t> before = ReadAll(path);

  // Crash between "temp fully written" and "renamed over the snapshot".
  Arm("store.crash=once");
  {
    store::ChunkBuilder chunk;
    chunk.PutU32(2);
    store::Writer writer;
    ASSERT_TRUE(writer.Open(path, store::kKindIndex, &error)) << error;
    ASSERT_TRUE(writer.WriteChunk(store::FourCc('D', 'A', 'T', 'A'), chunk,
                                  &error))
        << error;
    EXPECT_FALSE(writer.Finish(&error));
    EXPECT_NE(error.find("crash"), std::string::npos) << error;
  }
  EXPECT_EQ(util::FailpointFireCount("store.crash"), 1u);
  // A real crash leaves the temp file behind; the snapshot is untouched,
  // byte for byte.
  EXPECT_TRUE(FileExists(path + ".tmp"));
  EXPECT_EQ(ReadAll(path), before);
  store::Reader reader;
  ASSERT_TRUE(reader.Open(path, store::kKindIndex, &error)) << error;
  std::remove((path + ".tmp").c_str());

  // After "recovery" (failpoint cleared) the same write goes through.
  util::ClearFailpoints();
  {
    store::ChunkBuilder chunk;
    chunk.PutU32(2);
    store::Writer writer;
    ASSERT_TRUE(writer.Open(path, store::kKindIndex, &error)) << error;
    ASSERT_TRUE(writer.WriteChunk(store::FourCc('D', 'A', 'T', 'A'), chunk,
                                  &error))
        << error;
    ASSERT_TRUE(writer.Finish(&error)) << error;
  }
  EXPECT_FALSE(FileExists(path + ".tmp"));
  EXPECT_NE(ReadAll(path), before);
}

TEST_F(RobustnessTest, ReaderFailpointsFailCleanly) {
  const std::string path = TempPath("read_fail.bin");
  std::string error;
  {
    store::ChunkBuilder chunk;
    chunk.PutU32(7);
    store::Writer writer;
    ASSERT_TRUE(writer.Open(path, store::kKindModel, &error)) << error;
    ASSERT_TRUE(writer.WriteChunk(store::FourCc('D', 'A', 'T', 'A'), chunk,
                                  &error))
        << error;
    ASSERT_TRUE(writer.Finish(&error)) << error;
  }
  Arm("store.read_open=always");
  store::Reader reader;
  EXPECT_FALSE(reader.Open(path, store::kKindModel, &error));

  util::ClearFailpoints();
  Arm("store.read=always");
  store::Reader reader2;
  ASSERT_TRUE(reader2.Open(path, store::kKindModel, &error)) << error;
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(reader2.ReadChunk(0, &payload, &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(RobustnessTest, CheckpointSaveFailuresNeverClobberPrevious) {
  const std::string path = TempPath("ckpt_io_fail.bin");
  nn::ParameterStore params;
  FillStore(&params, 11);
  std::string error;
  ASSERT_TRUE(store::SaveModelCheckpoint(params, path, &error)) << error;
  const std::vector<std::uint8_t> before = ReadAll(path);

  for (const char* spec :
       {"store.open=always", "store.write=always", "store.rename=always",
        "store.crash=once"}) {
    util::ClearFailpoints();
    Arm(spec);
    error.clear();
    EXPECT_FALSE(store::SaveModelCheckpoint(params, path, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
    EXPECT_EQ(ReadAll(path), before) << spec;
    std::remove((path + ".tmp").c_str());
  }
  util::ClearFailpoints();
  nn::ParameterStore loaded;
  FillStore(&loaded, 99);
  ASSERT_TRUE(store::LoadModelCheckpoint(&loaded, path, &error)) << error;
}

TEST_F(RobustnessTest, CheckpointReadFailpointLeavesTargetUntouched) {
  const std::string path = TempPath("ckpt_read_fail.bin");
  nn::ParameterStore saved;
  FillStore(&saved, 11);
  std::string error;
  ASSERT_TRUE(store::SaveModelCheckpoint(saved, path, &error)) << error;

  nn::ParameterStore loaded;
  FillStore(&loaded, 99);
  const std::uint32_t before = store::WeightsFingerprint(loaded);
  Arm("store.read=always");
  EXPECT_FALSE(store::LoadModelCheckpoint(&loaded, path, &error));
  EXPECT_EQ(store::WeightsFingerprint(loaded), before);
}

TEST_F(RobustnessTest, NanCheckpointRefusedOnLoad) {
  const std::string path = TempPath("ckpt_nan.bin");
  nn::ParameterStore poisoned;
  FillStore(&poisoned, 11);
  poisoned.parameters()[0]->value[2] =
      std::numeric_limits<double>::quiet_NaN();
  std::string error;
  ASSERT_TRUE(store::SaveModelCheckpoint(poisoned, path, &error)) << error;

  nn::ParameterStore loaded;
  FillStore(&loaded, 99);
  const std::uint32_t before = store::WeightsFingerprint(loaded);
  EXPECT_FALSE(store::LoadModelCheckpoint(&loaded, path, &error));
  EXPECT_NE(error.find("non-finite"), std::string::npos) << error;
  EXPECT_EQ(store::WeightsFingerprint(loaded), before);
}

// ---------------------------------------------------------------------------
// 2. Corruption sweep: all four container kinds, byte flips + truncations

// Each artifact kind provides a writer (make a small valid file) and a
// loader ("true" = loaded cleanly). The sweep asserts the disjunction:
// loads cleanly or fails cleanly — anything else (crash, OOM, hang) is
// caught by the test runner / sanitizers.
struct ArtifactKind {
  const char* label;
  void (*write)(const std::string& path);
  bool (*load)(const std::string& path, std::string* error);
};

void WriteModelArtifact(const std::string& path) {
  nn::ParameterStore params;
  FillStore(&params, 11);
  std::string error;
  ASSERT_TRUE(store::SaveModelCheckpoint(params, path, &error)) << error;
}
bool LoadModelArtifact(const std::string& path, std::string* error) {
  nn::ParameterStore params;
  FillStore(&params, 99);
  return store::LoadModelCheckpoint(&params, path, error);
}

void WriteIndexArtifact(const std::string& path) {
  core::AsteriaModel model(SmallModelConfig());
  core::SearchIndex index(model);
  index.AddAll(SyntheticFeatures(3, 3));
  std::string error;
  ASSERT_TRUE(index.Save(path, &error)) << error;
}
bool LoadIndexArtifact(const std::string& path, std::string* error) {
  core::AsteriaModel model(SmallModelConfig());
  core::SearchIndex index(model);
  return index.Load(path, error);
}

dataset::CorpusConfig TinyCorpusConfig() {
  dataset::CorpusConfig config;
  config.packages = 1;
  config.seed = 777;
  return config;
}
void WriteCorpusArtifact(const std::string& path) {
  const dataset::CorpusConfig config = TinyCorpusConfig();
  const dataset::Corpus built = dataset::BuildCorpus(config);
  std::string error;
  ASSERT_TRUE(dataset::SaveCorpus(built, config, path, &error)) << error;
}
bool LoadCorpusArtifact(const std::string& path, std::string* error) {
  dataset::Corpus corpus;
  return dataset::LoadCorpus(&corpus, TinyCorpusConfig(), path, error);
}

void WriteEncodingsArtifact(const std::string& path) {
  core::AsteriaModel model(SmallModelConfig());
  firmware::FirmwareCorpus corpus;
  corpus.functions.resize(3);
  for (std::size_t i = 0; i < corpus.functions.size(); ++i) {
    corpus.functions[i].feature = SyntheticFeatures(1, 40 + i)[0];
  }
  const auto encodings = firmware::EncodeFirmwareCorpus(model, corpus);
  std::string error;
  ASSERT_TRUE(firmware::SaveFirmwareEncodings(encodings, model, path, &error))
      << error;
}
bool LoadEncodingsArtifact(const std::string& path, std::string* error) {
  core::AsteriaModel model(SmallModelConfig());
  std::vector<nn::Matrix> encodings;
  return firmware::LoadFirmwareEncodings(&encodings, model, 3, path, error);
}

constexpr ArtifactKind kArtifacts[] = {
    {"model", WriteModelArtifact, LoadModelArtifact},
    {"index", WriteIndexArtifact, LoadIndexArtifact},
    {"corpus", WriteCorpusArtifact, LoadCorpusArtifact},
    {"encodings", WriteEncodingsArtifact, LoadEncodingsArtifact},
};

TEST_F(RobustnessTest, ByteFlipSweepLoadsCleanlyOrFailsCleanly) {
  for (const ArtifactKind& kind : kArtifacts) {
    const std::string path =
        TempPath(std::string("sweep_flip_") + kind.label + ".bin");
    kind.write(path);
    const std::vector<std::uint8_t> pristine = ReadAll(path);
    ASSERT_GT(pristine.size(), 0u) << kind.label;

    // Flip one byte at a spread of offsets covering header, chunk headers,
    // and payload; every bit position gets exercised across the sweep.
    const std::size_t step =
        pristine.size() < 64 ? 1 : pristine.size() / 64;
    int clean_failures = 0;
    for (std::size_t offset = 0; offset < pristine.size(); offset += step) {
      std::vector<std::uint8_t> bytes = pristine;
      bytes[offset] ^= static_cast<std::uint8_t>(1u << (offset % 8));
      WriteAll(path, bytes);
      std::string error;
      if (!kind.load(path, &error)) {
        EXPECT_FALSE(error.empty())
            << kind.label << ": silent failure at offset " << offset;
        ++clean_failures;
      }
    }
    // CRCs make nearly every flip detectable; at minimum the sweep must
    // have seen real rejections (a sweep that "passes" by loading every
    // corrupt file would mean the checks are dead).
    EXPECT_GT(clean_failures, 0) << kind.label;

    WriteAll(path, pristine);
    std::string error;
    EXPECT_TRUE(kind.load(path, &error)) << kind.label << ": " << error;
  }
}

TEST_F(RobustnessTest, TruncationSweepLoadsCleanlyOrFailsCleanly) {
  for (const ArtifactKind& kind : kArtifacts) {
    const std::string path =
        TempPath(std::string("sweep_trunc_") + kind.label + ".bin");
    kind.write(path);
    const std::vector<std::uint8_t> pristine = ReadAll(path);
    ASSERT_GT(pristine.size(), 0u) << kind.label;

    const std::size_t step =
        pristine.size() < 32 ? 1 : pristine.size() / 32;
    for (std::size_t keep = 0; keep < pristine.size(); keep += step) {
      std::vector<std::uint8_t> bytes(pristine.begin(),
                                      pristine.begin() +
                                          static_cast<std::ptrdiff_t>(keep));
      WriteAll(path, bytes);
      std::string error;
      // A strict prefix can never be a valid artifact of these formats
      // (chunk table and CRCs cover the tail).
      EXPECT_FALSE(kind.load(path, &error))
          << kind.label << ": truncation to " << keep << " bytes accepted";
      EXPECT_FALSE(error.empty()) << kind.label << " at " << keep;
    }
  }
}

TEST_F(RobustnessTest, DeclaredSizeLargerThanFileIsRejectedWithoutAllocating) {
  // A chunk header claiming a huge payload must be rejected by validation
  // against the actual remaining bytes — not by attempting the allocation.
  const std::string path = TempPath("huge_declared_size.bin");
  {
    store::ChunkBuilder chunk;
    chunk.PutString("tiny");
    store::Writer writer;
    std::string error;
    ASSERT_TRUE(writer.Open(path, store::kKindModel, &error)) << error;
    ASSERT_TRUE(writer.WriteChunk(store::FourCc('D', 'A', 'T', 'A'), chunk,
                                  &error))
        << error;
    ASSERT_TRUE(writer.Finish(&error)) << error;
  }
  std::vector<std::uint8_t> bytes = ReadAll(path);
  // Chunk size field sits right after the header's 20 bytes + 4-byte tag.
  const std::size_t size_offset = 20 + 4;
  const std::uint64_t absurd = 1ull << 60;
  std::memcpy(bytes.data() + size_offset, &absurd, sizeof(absurd));
  WriteAll(path, bytes);

  store::Reader reader;
  std::string error;
  EXPECT_FALSE(reader.Open(path, store::kKindModel, &error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// 3. Cache degradation: quarantine + rebuild

TEST_F(RobustnessTest, CorruptCorpusCacheIsQuarantinedAndRebuilt) {
  const std::string path = TempPath("cache_quarantine.snapshot");
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
  const dataset::CorpusConfig config = TinyCorpusConfig();
  const dataset::Corpus cold = dataset::BuildOrLoadCorpus(config, path);
  std::uint32_t kind = 0;
  std::string error;
  ASSERT_TRUE(store::PeekKind(path, &kind, &error)) << error;

  // Corrupt the cache in place.
  std::vector<std::uint8_t> bytes = ReadAll(path);
  bytes[bytes.size() / 2] ^= 0x20;
  WriteAll(path, bytes);

  const dataset::Corpus rebuilt = dataset::BuildOrLoadCorpus(config, path);
  // The bad cache was moved aside, a fresh one written, and the rebuilt
  // corpus matches the cold build exactly.
  EXPECT_TRUE(FileExists(path + ".corrupt"));
  EXPECT_TRUE(store::PeekKind(path, &kind, &error)) << error;
  ASSERT_EQ(rebuilt.functions.size(), cold.functions.size());
  for (std::size_t i = 0; i < cold.functions.size(); ++i) {
    EXPECT_EQ(rebuilt.functions[i].function, cold.functions[i].function);
    EXPECT_EQ(rebuilt.functions[i].ast_size, cold.functions[i].ast_size);
  }
}

TEST_F(RobustnessTest, CorruptIndexSnapshotRebuildMatchesColdTopKBitwise) {
  const std::string path = TempPath("index_quarantine.snapshot");
  core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(20, 17);
  core::SearchIndex cold(model);
  cold.AddAll(features);
  std::string error;
  ASSERT_TRUE(cold.Save(path, &error)) << error;

  std::vector<std::uint8_t> bytes = ReadAll(path);
  bytes[bytes.size() - 3] ^= 0x08;
  WriteAll(path, bytes);

  // The degradation path the benches use: load fails -> quarantine ->
  // re-save from the in-memory index -> load again.
  core::SearchIndex warm(model);
  ASSERT_FALSE(warm.Load(path, &error));
  std::string quarantined;
  ASSERT_TRUE(store::QuarantineFile(path, &quarantined));
  EXPECT_TRUE(FileExists(quarantined));
  ASSERT_TRUE(cold.Save(path, &error)) << error;
  ASSERT_TRUE(warm.Load(path, &error)) << error;

  const auto expected = cold.TopK(features.front(), 10);
  const auto actual = warm.TopK(features.front(), 10);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].index, expected[i].index);
    EXPECT_EQ(actual[i].score, expected[i].score);  // bitwise
  }
}

TEST_F(RobustnessTest, CorruptFirmwareEncodingsCacheRebuildsIdentically) {
  const std::string path = TempPath("fw_cache_quarantine.bin");
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
  core::AsteriaModel model(SmallModelConfig());
  firmware::FirmwareCorpus corpus =
      firmware::BuildFirmwareCorpus(TinyFirmwareConfig());
  ASSERT_GT(corpus.functions.size(), 0u);

  const firmware::VulnSearchResult cold =
      firmware::RunVulnSearch(model, corpus, 0.5, path);
  ASSERT_TRUE(FileExists(path));

  std::vector<std::uint8_t> bytes = ReadAll(path);
  bytes[bytes.size() / 3] ^= 0x04;
  WriteAll(path, bytes);

  const firmware::VulnSearchResult warm =
      firmware::RunVulnSearch(model, corpus, 0.5, path);
  EXPECT_TRUE(FileExists(path + ".corrupt"));
  ASSERT_EQ(warm.per_cve.size(), cold.per_cve.size());
  EXPECT_EQ(warm.total_candidates, cold.total_candidates);
  EXPECT_EQ(warm.total_confirmed, cold.total_confirmed);
}

// ---------------------------------------------------------------------------
// 4. Fault-isolated pipelines

TEST_F(RobustnessTest, CorpusBuildIsolatesFailingFunctions) {
  const dataset::CorpusConfig config = TinyCorpusConfig();
  const dataset::Corpus clean = dataset::BuildCorpus(config);
  ASSERT_GT(clean.functions.size(), 1u);
  EXPECT_EQ(clean.report.failed, 0);
  EXPECT_EQ(clean.report.ok,
            static_cast<std::int64_t>(clean.functions.size()));

  Arm("corpus.function=every:2");
  const dataset::Corpus degraded = dataset::BuildCorpus(config);
  EXPECT_GT(degraded.report.failed, 0);
  EXPECT_LT(degraded.functions.size(), clean.functions.size());
  EXPECT_FALSE(degraded.report.reasons.empty());
  EXPECT_EQ(degraded.report.total(), clean.report.total());
}

TEST_F(RobustnessTest, SearchIndexIsolatesFailingEncodings) {
  core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(10, 5);

  core::SearchIndex clean(model);
  const util::PipelineReport clean_report = clean.AddAll(features);
  EXPECT_TRUE(clean_report.Clean());
  EXPECT_EQ(clean.size(), 10);

  Arm("search.encode=every:3");
  core::SearchIndex degraded(model);  // threads=1: deterministic fire order
  const util::PipelineReport report = degraded.AddAll(features);
  EXPECT_EQ(report.failed, 3);
  EXPECT_EQ(report.ok, 7);
  EXPECT_EQ(degraded.size(), 7);
  // Surviving entries are the non-fired ones, in input order, with
  // encodings identical to the clean run's.
  int degraded_idx = 0;
  for (int i = 0; i < clean.size(); ++i) {
    if ((i + 1) % 3 == 0) continue;  // fired
    ASSERT_LT(degraded_idx, degraded.size());
    EXPECT_EQ(degraded.name(degraded_idx), clean.name(i));
    EXPECT_EQ(std::memcmp(degraded.encoding(degraded_idx).data(),
                          clean.encoding(i).data(),
                          clean.encoding(i).size() * sizeof(double)),
              0);
    ++degraded_idx;
  }
}

TEST_F(RobustnessTest, EmptyTreeIsSkippedNotFailed) {
  core::AsteriaModel model(SmallModelConfig());
  auto features = SyntheticFeatures(3, 5);
  features[1].tree = ast::BinaryAst();  // empty
  core::SearchIndex index(model);
  const util::PipelineReport report = index.AddAll(features);
  EXPECT_EQ(report.ok, 2);
  EXPECT_EQ(report.skipped, 1);
  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(index.size(), 2);
}

TEST_F(RobustnessTest, EncodeFailpointPicksTheSameFeaturesAtEveryThreadCount) {
  // EncodeIsolated asks the failpoint once per non-empty feature, in input
  // order, before any worker starts: every:3 fails the 3rd, 6th, ...
  // non-empty feature whatever the thread count.
  core::AsteriaModel model(SmallModelConfig());
  auto features = SyntheticFeatures(10, 7);
  features[1].tree = ast::BinaryAst();  // empty: skipped, never a hit
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    util::ClearFailpoints();
    Arm("search.encode=every:3");
    core::SearchIndex index(model, threads);
    const util::PipelineReport report = index.AddAll(features);
    EXPECT_EQ(report.skipped, 1);
    EXPECT_EQ(report.failed, 3);
    EXPECT_EQ(report.ok, 6);
    ASSERT_EQ(report.reasons.size(), 4u);
    EXPECT_EQ(report.reasons[0], features[1].name + ": empty AST");
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(report.reasons[k + 1],
                features[3 + 3 * k].name +
                    ": injected failure (failpoint search.encode)");
    }
  }
}

TEST_F(RobustnessTest, FirmwareEncodingFailuresKeepPositionalAlignment) {
  core::AsteriaModel model(SmallModelConfig());
  firmware::FirmwareCorpus corpus =
      firmware::BuildFirmwareCorpus(TinyFirmwareConfig());
  ASSERT_GT(corpus.functions.size(), 3u);

  const firmware::VulnSearchResult clean =
      firmware::RunVulnSearch(model, corpus, 0.5);

  Arm("firmware.encode=every:4");
  util::PipelineReport report;
  const auto encodings =
      firmware::EncodeFirmwareCorpus(model, corpus, &report);
  // Placeholders keep corpus order: slot i still belongs to function i.
  ASSERT_EQ(encodings.size(), corpus.functions.size());
  EXPECT_GT(report.failed, 0);
  for (std::size_t i = 0; i < encodings.size(); ++i) {
    if ((i + 1) % 4 == 0) {
      EXPECT_EQ(encodings[i].size(), 0u) << i;
    } else {
      EXPECT_GT(encodings[i].size(), 0u) << i;
    }
  }
  util::ClearFailpoints();
  const firmware::VulnSearchResult degraded =
      firmware::RunVulnSearch(model, corpus, encodings, 0.5);
  // The search survives the holes and reports the exclusions.
  EXPECT_GT(degraded.report.skipped, 0);
  EXPECT_EQ(degraded.per_cve.size(), clean.per_cve.size());
}

TEST_F(RobustnessTest, TrainingSkipsNonFiniteLossAndKeepsGoing) {
  const core::AsteriaConfig config = SmallModelConfig();
  core::AsteriaModel model(config);
  // The tape oracle from the same seed, trained only on the pairs the
  // failpoint lets through: a skipped pair must leave no trace — no weight
  // change, and no gradient carried into the next pair's step.
  util::Rng oracle_init(config.seed);
  core::oracle::TapeTrainer oracle(config.siamese, oracle_init);
  const auto features = SyntheticFeatures(6, 9);
  std::vector<core::LabeledPair> pairs;
  for (int i = 0; i < 6; ++i) {
    pairs.push_back({i, (i + 1) % 6, i % 2 == 0});
  }
  auto train_oracle = [&](const core::LabeledPair& pair) {
    return oracle.TrainPair(features[static_cast<std::size_t>(pair.a)].tree,
                            features[static_cast<std::size_t>(pair.b)].tree,
                            pair.homologous);
  };

  // Pair by pair: every second pair is skipped and leaves the weights
  // exactly as they were; the others match the oracle's losses.
  Arm("train.loss=every:2");
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const core::LabeledPair& pair = pairs[i];
    const std::uint32_t before = model.WeightsFingerprint();
    const double loss =
        model.TrainPair(features[static_cast<std::size_t>(pair.a)].tree,
                        features[static_cast<std::size_t>(pair.b)].tree,
                        pair.homologous);
    if (i % 2 == 1) {
      EXPECT_TRUE(std::isnan(loss)) << "pair " << i;
      EXPECT_EQ(model.WeightsFingerprint(), before) << "skipped pair " << i;
    } else {
      EXPECT_EQ(loss, train_oracle(pair)) << "pair " << i;
    }
  }
  EXPECT_EQ(model.WeightsFingerprint(), oracle.WeightsFingerprint());

  // A whole epoch with the same skips: TrainEpoch shuffles a copy of the
  // pairs with `rng`, so the oracle replays that order and skips the same
  // (every second) positions.
  util::ClearFailpoints();
  Arm("train.loss=every:2");
  util::Rng rng(3);
  util::Rng oracle_rng(3);
  util::PipelineReport report;
  const double loss = model.TrainEpoch(features, pairs, rng, &report);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_EQ(report.failed, 3);
  EXPECT_EQ(report.ok, 3);
  EXPECT_FALSE(report.reasons.empty());
  std::vector<core::LabeledPair> order = pairs;
  oracle_rng.Shuffle(order);
  for (std::size_t i = 0; i < order.size(); i += 2) train_oracle(order[i]);
  EXPECT_EQ(model.WeightsFingerprint(), oracle.WeightsFingerprint());

  // The model survived: a clean epoch afterwards trains every pair, still
  // in step with the oracle.
  util::ClearFailpoints();
  util::PipelineReport clean;
  const double loss2 = model.TrainEpoch(features, pairs, rng, &clean);
  EXPECT_TRUE(std::isfinite(loss2));
  EXPECT_EQ(clean.ok, 6);
  EXPECT_EQ(clean.failed, 0);
  order = pairs;
  oracle_rng.Shuffle(order);
  for (const core::LabeledPair& pair : order) train_oracle(pair);
  EXPECT_EQ(model.WeightsFingerprint(), oracle.WeightsFingerprint());
}

TEST_F(RobustnessTest, PipelineReportMergesInOrder) {
  util::PipelineReport a;
  a.stage = "stage";
  a.AddOk();
  a.AddFailed("first");
  util::PipelineReport b;
  b.AddSkipped("second");
  b.AddFailed("third");
  a.Merge(b);
  EXPECT_EQ(a.ok, 1);
  EXPECT_EQ(a.skipped, 1);
  EXPECT_EQ(a.failed, 2);
  EXPECT_EQ(a.total(), 4);
  ASSERT_EQ(a.reasons.size(), 3u);
  EXPECT_EQ(a.reasons[0], "first");
  EXPECT_EQ(a.reasons[1], "second");
  EXPECT_EQ(a.reasons[2], "third");
  EXPECT_NE(a.Summary().find("stage"), std::string::npos);
  EXPECT_FALSE(a.Clean());
}

// ---------------------------------------------------------------------------
// 5. Structurer depth bound

TEST_F(RobustnessTest, StructurerDepthBoundDegradesToGotosCleanly) {
  // A chain of N conditional branches, each skipping to the final return,
  // structures as N nested if-then's — deeper than a tiny budget allows.
  using binary::Instruction;
  using binary::Opcode;
  constexpr int kLevels = 24;
  binary::BinModule module;
  module.isa = binary::Isa::kX64;
  binary::BinFunction fn;
  fn.name = "deep";
  fn.num_params = 1;
  fn.param_is_array.assign(1, 0);
  fn.frame_words = 5;
  const int ret_pc = 2 * kLevels + 1;
  fn.code.push_back(Instruction::Make(Opcode::kLoadI, 1,
                                      binary::kFramePointerReg, 0, 0));
  for (int i = 0; i < kLevels; ++i) {
    fn.code.push_back(Instruction::Make(Opcode::kCmpI, 1, 0, 0, i));
    fn.code.push_back(Instruction::Make(Opcode::kBrCond, 0, 0, 0, ret_pc,
                                        binary::Cond::kLt));
  }
  fn.code.push_back(Instruction::Make(Opcode::kRet, 0));
  module.functions.push_back(std::move(fn));

  const auto& bin_fn = module.functions[0];
  decompiler::MachineCfg cfg(bin_fn);
  decompiler::DPool pool;
  const auto lifted = decompiler::LiftFunction(module, cfg, &pool);

  // Generous budget: structures fully, no diagnostic.
  std::string error;
  const int root_ok =
      decompiler::StructureFunction(cfg, lifted, &pool, &error);
  EXPECT_GE(root_ok, 0);
  EXPECT_TRUE(error.empty()) << error;

  // Tiny budget: must terminate (no stack blowup / infinite re-queue),
  // yield a usable tree, and report the degradation.
  decompiler::DPool bounded_pool;
  const auto bounded_lifted =
      decompiler::LiftFunction(module, cfg, &bounded_pool);
  error.clear();
  const int root_bounded = decompiler::StructureFunction(
      cfg, bounded_lifted, &bounded_pool, &error, /*max_depth=*/3);
  EXPECT_GE(root_bounded, 0);
  EXPECT_NE(error.find("depth"), std::string::npos) << error;

  // The public path surfaces the same diagnostic on DecompiledFunction.
  const auto decompiled = decompiler::DecompileFunction(module, 0);
  std::string validate_error;
  EXPECT_TRUE(decompiled.tree.Validate(&validate_error)) << validate_error;
}

}  // namespace
}  // namespace asteria
