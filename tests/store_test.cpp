// Persistence-layer tests: the chunked container format, model
// checkpoints, SearchIndex snapshots, and corpus caches. The recurring
// theme is the error contract: corruption, truncation, and mismatched
// artifacts must fail loudly with a descriptive reason and never commit
// partial state.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/asteria.h"
#include "core/search_index.h"
#include "dataset/corpus.h"
#include "dataset/corpus_io.h"
#include "nn/parameter.h"
#include "store/checkpoint.h"
#include "store/container.h"
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

// ---------------------------------------------------------------------------
// Container layer

TEST(Crc32, MatchesKnownVectors) {
  // The canonical IEEE check value for "123456789".
  EXPECT_EQ(store::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(store::Crc32("", 0), 0u);
  // Chaining two halves must equal one pass.
  const std::uint32_t half = store::Crc32("12345", 5);
  EXPECT_EQ(store::Crc32("6789", 4, half), 0xCBF43926u);
}

TEST(Container, RoundTripsScalarsStringsAndArrays) {
  const std::string path = TempPath("container_roundtrip.bin");
  const std::uint32_t kTag = store::FourCc('T', 'E', 'S', 'T');
  const double values[3] = {1.5, -2.25, 3.75};
  {
    store::ChunkBuilder chunk;
    chunk.PutU8(7);
    chunk.PutU32(0xDEADBEEFu);
    chunk.PutU64(1ull << 40);
    chunk.PutI32(-42);
    chunk.PutI64(-(1ll << 40));
    chunk.PutF64(-0.125);
    chunk.PutString("asteria");
    chunk.PutF64Array(values, 3);

    store::Writer writer;
    std::string error;
    ASSERT_TRUE(writer.Open(path, store::kKindModel, &error)) << error;
    ASSERT_TRUE(writer.WriteChunk(kTag, chunk, &error)) << error;
    ASSERT_TRUE(writer.Finish(&error)) << error;
  }

  store::Reader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(path, store::kKindModel, &error)) << error;
  EXPECT_EQ(reader.kind(), store::kKindModel);
  EXPECT_EQ(reader.version(), store::kContainerVersion);
  ASSERT_EQ(reader.chunks().size(), 1u);
  EXPECT_EQ(reader.chunks()[0].tag, kTag);

  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(reader.ReadChunk(0, &payload, &error)) << error;
  store::ChunkParser parser(payload);
  std::uint8_t u8 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::int32_t i32 = 0;
  std::int64_t i64 = 0;
  double f64 = 0;
  std::string text;
  double array[3] = {0, 0, 0};
  ASSERT_TRUE(parser.GetU8(&u8, &error)) << error;
  ASSERT_TRUE(parser.GetU32(&u32, &error)) << error;
  ASSERT_TRUE(parser.GetU64(&u64, &error)) << error;
  ASSERT_TRUE(parser.GetI32(&i32, &error)) << error;
  ASSERT_TRUE(parser.GetI64(&i64, &error)) << error;
  ASSERT_TRUE(parser.GetF64(&f64, &error)) << error;
  ASSERT_TRUE(parser.GetString(&text, &error)) << error;
  ASSERT_TRUE(parser.GetF64Array(array, 3, &error)) << error;
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 1ull << 40);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(i64, -(1ll << 40));
  EXPECT_EQ(f64, -0.125);
  EXPECT_EQ(text, "asteria");
  EXPECT_EQ(array[0], 1.5);
  EXPECT_EQ(array[1], -2.25);
  EXPECT_EQ(array[2], 3.75);
  EXPECT_TRUE(parser.AtEnd());
  // Reading past the end is a clean failure, not a wild read.
  EXPECT_FALSE(parser.GetU32(&u32, &error));
  EXPECT_NE(error.find("overrun"), std::string::npos) << error;
}

TEST(Container, RejectsBadMagic) {
  const std::string path = TempPath("container_bad_magic.bin");
  WriteAll(path, {'n', 'o', 't', 'a', 's', 't', 'o', 'r', 0, 0, 0, 0,
                  0, 0, 0, 0, 0, 0, 0, 0});
  std::uint32_t kind = 0;
  std::string error;
  EXPECT_FALSE(store::PeekKind(path, &kind, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
  store::Reader reader;
  error.clear();
  EXPECT_FALSE(reader.Open(path, store::kKindModel, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(Container, PeekKindReadsTheHeaderAlone) {
  const std::string path = TempPath("container_peek.bin");
  {
    store::Writer writer;
    std::string error;
    ASSERT_TRUE(writer.Open(path, store::kKindManifest, &error)) << error;
    ASSERT_TRUE(writer.Finish(&error)) << error;
  }
  // A dangling chunk frame after the header: Reader::Open's framing scan
  // rejects the file, the header-only peek still names its kind.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("SHRD\x01\x00", 6);
  }
  std::uint32_t kind = 0;
  std::string error;
  ASSERT_TRUE(store::PeekKind(path, &kind, &error)) << error;
  EXPECT_EQ(kind, store::kKindManifest);
  store::Reader reader;
  EXPECT_FALSE(reader.Open(path, 0, &error));

  WriteAll(path, {'A', 'S', 'T'});
  EXPECT_FALSE(store::PeekKind(path, &kind, &error));
  EXPECT_NE(error.find("too small"), std::string::npos) << error;
  EXPECT_FALSE(store::PeekKind(TempPath("container_peek_missing.bin"), &kind,
                               &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(Container, RejectsWrongKind) {
  const std::string path = TempPath("container_wrong_kind.bin");
  store::Writer writer;
  std::string error;
  ASSERT_TRUE(writer.Open(path, store::kKindModel, &error)) << error;
  ASSERT_TRUE(writer.Finish(&error)) << error;

  store::Reader reader;
  EXPECT_FALSE(reader.Open(path, store::kKindIndex, &error));
  EXPECT_NE(error.find("kind"), std::string::npos) << error;
  // expected_kind 0 accepts anything (index-info style inspection).
  store::Reader any;
  EXPECT_TRUE(any.Open(path, 0, &error)) << error;
  EXPECT_EQ(any.kind(), store::kKindModel);
}

TEST(Container, RejectsFutureVersion) {
  const std::string path = TempPath("container_future_version.bin");
  std::vector<std::uint8_t> header = {'A', 'S', 'T', 'R', 'S', 'T', 'O', 'R',
                                      99, 0, 0, 0,   // version 99
                                      'M', 'O', 'D', 'L',
                                      1, 0, 0, 0};   // endian tag + reserved
  WriteAll(path, header);
  store::Reader reader;
  std::string error;
  EXPECT_FALSE(reader.Open(path, store::kKindModel, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(Container, BitFlipFailsCrcCheck) {
  const std::string path = TempPath("container_bitflip.bin");
  {
    store::ChunkBuilder chunk;
    chunk.PutString("payload that will be corrupted");
    store::Writer writer;
    std::string error;
    ASSERT_TRUE(writer.Open(path, store::kKindModel, &error)) << error;
    ASSERT_TRUE(writer.WriteChunk(store::FourCc('D', 'A', 'T', 'A'), chunk,
                                  &error))
        << error;
    ASSERT_TRUE(writer.Finish(&error)) << error;
  }
  std::vector<std::uint8_t> bytes = ReadAll(path);
  bytes.back() ^= 0x01;  // single bit flip in the last payload byte
  WriteAll(path, bytes);

  // The chunk table still scans (sizes are intact)...
  store::Reader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(path, store::kKindModel, &error)) << error;
  // ...but handing out the payload fails the CRC, loudly.
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(reader.ReadChunk(0, &payload, &error));
  EXPECT_NE(error.find("CRC32 mismatch"), std::string::npos) << error;
}

TEST(Container, TruncationFailsCleanly) {
  const std::string path = TempPath("container_truncated.bin");
  {
    store::ChunkBuilder chunk;
    chunk.PutString("some payload long enough to truncate");
    store::Writer writer;
    std::string error;
    ASSERT_TRUE(writer.Open(path, store::kKindModel, &error)) << error;
    ASSERT_TRUE(writer.WriteChunk(store::FourCc('D', 'A', 'T', 'A'), chunk,
                                  &error))
        << error;
    ASSERT_TRUE(writer.Finish(&error)) << error;
  }
  std::vector<std::uint8_t> bytes = ReadAll(path);
  bytes.resize(bytes.size() - 10);
  WriteAll(path, bytes);

  store::Reader reader;
  std::string error;
  EXPECT_FALSE(reader.Open(path, store::kKindModel, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;

  // Appending to a truncated container is refused, not papered over.
  store::Writer append;
  error.clear();
  EXPECT_FALSE(append.OpenAppend(path, store::kKindModel, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST(Container, AppendExtendsChunkSequence) {
  const std::string path = TempPath("container_append.bin");
  const std::uint32_t kTag = store::FourCc('D', 'A', 'T', 'A');
  std::string error;
  {
    store::ChunkBuilder chunk;
    chunk.PutU32(1);
    store::Writer writer;
    ASSERT_TRUE(writer.Open(path, store::kKindIndex, &error)) << error;
    ASSERT_TRUE(writer.WriteChunk(kTag, chunk, &error)) << error;
    ASSERT_TRUE(writer.Finish(&error)) << error;
  }
  {
    store::ChunkBuilder chunk;
    chunk.PutU32(2);
    store::Writer writer;
    ASSERT_TRUE(writer.OpenAppend(path, store::kKindIndex, &error)) << error;
    ASSERT_TRUE(writer.WriteChunk(kTag, chunk, &error)) << error;
    ASSERT_TRUE(writer.Finish(&error)) << error;
  }
  store::Reader reader;
  ASSERT_TRUE(reader.Open(path, store::kKindIndex, &error)) << error;
  ASSERT_EQ(reader.chunks().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(reader.ReadChunk(i, &payload, &error)) << error;
    store::ChunkParser parser(payload);
    std::uint32_t value = 0;
    ASSERT_TRUE(parser.GetU32(&value, &error)) << error;
    EXPECT_EQ(value, i + 1);
  }
}

// ---------------------------------------------------------------------------
// Model checkpoints

// A small two-parameter store with deterministic values.
void FillStore(nn::ParameterStore* params, std::uint64_t seed) {
  util::Rng rng(seed);
  params->CreateXavier("w_left", 3, 4, rng);
  params->CreateXavier("b_out", 4, 1, rng);
}

bool SameValues(const nn::ParameterStore& a, const nn::ParameterStore& b) {
  if (a.parameters().size() != b.parameters().size()) return false;
  for (std::size_t i = 0; i < a.parameters().size(); ++i) {
    const nn::Parameter* pa = a.parameters()[i];
    const nn::Parameter* pb = b.parameters()[i];
    if (pa->name != pb->name || pa->value.size() != pb->value.size() ||
        std::memcmp(pa->value.data(), pb->value.data(),
                    pa->value.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(Checkpoint, RoundTripsBitwise) {
  const std::string path = TempPath("checkpoint_roundtrip.bin");
  nn::ParameterStore saved;
  FillStore(&saved, 11);
  std::string error;
  ASSERT_TRUE(store::SaveModelCheckpoint(saved, path, &error)) << error;

  nn::ParameterStore loaded;
  FillStore(&loaded, 99);  // different init — must be fully overwritten
  ASSERT_FALSE(SameValues(saved, loaded));
  ASSERT_TRUE(store::LoadModelCheckpoint(&loaded, path, &error)) << error;
  EXPECT_TRUE(SameValues(saved, loaded));
  EXPECT_EQ(store::WeightsFingerprint(saved),
            store::WeightsFingerprint(loaded));
}

TEST(Checkpoint, RejectsShapeMismatchWithoutMutating) {
  const std::string path = TempPath("checkpoint_shape_mismatch.bin");
  nn::ParameterStore saved;
  FillStore(&saved, 11);
  std::string error;
  ASSERT_TRUE(store::SaveModelCheckpoint(saved, path, &error)) << error;

  nn::ParameterStore other;
  util::Rng rng(5);
  other.CreateXavier("w_left", 3, 4, rng);
  other.CreateXavier("b_out", 2, 1, rng);  // wrong shape
  const std::uint32_t before = store::WeightsFingerprint(other);
  EXPECT_FALSE(store::LoadModelCheckpoint(&other, path, &error));
  EXPECT_EQ(store::WeightsFingerprint(other), before);
}

TEST(Checkpoint, BitFlipRejected) {
  const std::string path = TempPath("checkpoint_bitflip.bin");
  nn::ParameterStore saved;
  FillStore(&saved, 11);
  std::string error;
  ASSERT_TRUE(store::SaveModelCheckpoint(saved, path, &error)) << error;
  std::vector<std::uint8_t> bytes = ReadAll(path);
  bytes[bytes.size() / 2] ^= 0x10;
  WriteAll(path, bytes);

  nn::ParameterStore loaded;
  FillStore(&loaded, 99);
  const std::uint32_t before = store::WeightsFingerprint(loaded);
  EXPECT_FALSE(store::LoadModelCheckpoint(&loaded, path, &error));
  EXPECT_EQ(store::WeightsFingerprint(loaded), before);
}

TEST(Checkpoint, RejectsNonContainerWeightsWithoutMutating) {
  // The old text-header weights codec: header line, count, then per
  // parameter "name rows cols\n", raw doubles and "\n". Only the container
  // format loads; these bytes fail its magic check before a value is read.
  const std::string path = TempPath("checkpoint_text_weights.params");
  const double values[4] = {0.5, -1.0, 2.0, -4.0};
  {
    std::ofstream out(path, std::ios::binary);
    out << "asteria-params v1\n1\nw 2 2\n";
    out.write(reinterpret_cast<const char*>(values), sizeof(values));
    out << "\n";
  }
  nn::ParameterStore params;
  util::Rng rng(5);
  params.CreateXavier("w", 2, 2, rng);
  const std::uint32_t before = store::WeightsFingerprint(params);
  std::string error;
  EXPECT_FALSE(store::LoadModelCheckpoint(&params, path, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
  EXPECT_EQ(store::WeightsFingerprint(params), before);
}

// ---------------------------------------------------------------------------
// SearchIndex snapshots

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

core::AsteriaConfig SmallModelConfig(std::uint64_t seed = 1) {
  core::AsteriaConfig config;
  config.siamese.encoder.embedding_dim = 8;
  config.siamese.encoder.hidden_dim = 8;
  config.seed = seed;
  return config;
}

bool SameIndex(const core::SearchIndex& a, const core::SearchIndex& b) {
  if (a.size() != b.size()) return false;
  for (int i = 0; i < a.size(); ++i) {
    if (a.name(i) != b.name(i) || a.callee_count(i) != b.callee_count(i)) {
      return false;
    }
    const nn::Matrix& ea = a.encoding(i);
    const nn::Matrix& eb = b.encoding(i);
    if (!ea.SameShape(eb) ||
        (ea.size() != 0 && std::memcmp(ea.data(), eb.data(),
                                       ea.size() * sizeof(double)) != 0)) {
      return false;
    }
  }
  return true;
}

TEST(IndexSnapshot, RoundTripsEmptyIndex) {
  const std::string path = TempPath("index_empty.snapshot");
  core::AsteriaModel model(SmallModelConfig());
  core::SearchIndex index(model);
  std::string error;
  ASSERT_TRUE(index.Save(path, &error)) << error;

  core::SearchIndex loaded(model);
  ASSERT_TRUE(loaded.Load(path, &error)) << error;
  EXPECT_EQ(loaded.size(), 0);
}

TEST(IndexSnapshot, RoundTripsSingleEntry) {
  const std::string path = TempPath("index_one.snapshot");
  core::AsteriaModel model(SmallModelConfig());
  core::SearchIndex index(model);
  index.AddAll(SyntheticFeatures(1, 3));
  std::string error;
  ASSERT_TRUE(index.Save(path, &error)) << error;

  core::SearchIndex loaded(model);
  ASSERT_TRUE(loaded.Load(path, &error)) << error;
  EXPECT_TRUE(SameIndex(index, loaded));
}

TEST(IndexSnapshot, RoundTripsThousandEntries) {
  const std::string path = TempPath("index_1k.snapshot");
  core::AsteriaModel model(SmallModelConfig());
  core::SearchIndex index(model, 4);
  const auto features = SyntheticFeatures(1000, 17);
  index.AddAll(features);
  std::string error;
  ASSERT_TRUE(index.Save(path, &error)) << error;

  core::SearchIndex loaded(model, 4);
  ASSERT_TRUE(loaded.Load(path, &error)) << error;
  ASSERT_TRUE(SameIndex(index, loaded));

  // Bitwise-identical online phase from the loaded snapshot.
  const auto expected = index.TopK(features.front(), 10);
  const auto actual = loaded.TopK(features.front(), 10);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].index, expected[i].index);
    EXPECT_EQ(actual[i].name, expected[i].name);
    EXPECT_EQ(actual[i].score, expected[i].score);
  }
}

TEST(IndexSnapshot, RejectsDifferentModelWeights) {
  const std::string path = TempPath("index_wrong_model.snapshot");
  core::AsteriaModel model(SmallModelConfig(1));
  core::SearchIndex index(model);
  index.AddAll(SyntheticFeatures(4, 3));
  std::string error;
  ASSERT_TRUE(index.Save(path, &error)) << error;

  core::AsteriaModel other(SmallModelConfig(2));
  core::SearchIndex loaded(other);
  loaded.AddAll(SyntheticFeatures(2, 5));
  EXPECT_FALSE(loaded.Load(path, &error));
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
  EXPECT_EQ(loaded.size(), 2);  // untouched on failure
}

TEST(IndexSnapshot, BitFlipRejectedWithCrcError) {
  const std::string path = TempPath("index_bitflip.snapshot");
  core::AsteriaModel model(SmallModelConfig());
  core::SearchIndex index(model);
  index.AddAll(SyntheticFeatures(4, 3));
  std::string error;
  ASSERT_TRUE(index.Save(path, &error)) << error;
  std::vector<std::uint8_t> bytes = ReadAll(path);
  bytes[bytes.size() - 5] ^= 0x40;  // inside the last entry's payload
  WriteAll(path, bytes);

  core::SearchIndex loaded(model);
  EXPECT_FALSE(loaded.Load(path, &error));
  EXPECT_NE(error.find("CRC32 mismatch"), std::string::npos) << error;
  EXPECT_EQ(loaded.size(), 0);
}

TEST(IndexSnapshot, TruncationRejectedCleanly) {
  const std::string path = TempPath("index_truncated.snapshot");
  core::AsteriaModel model(SmallModelConfig());
  core::SearchIndex index(model);
  index.AddAll(SyntheticFeatures(4, 3));
  std::string error;
  ASSERT_TRUE(index.Save(path, &error)) << error;
  std::vector<std::uint8_t> bytes = ReadAll(path);
  bytes.resize(bytes.size() * 2 / 3);
  WriteAll(path, bytes);

  core::SearchIndex loaded(model);
  EXPECT_FALSE(loaded.Load(path, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  EXPECT_EQ(loaded.size(), 0);
}

TEST(IndexSnapshot, AppendEqualsFullRebuild) {
  const std::string path = TempPath("index_append.snapshot");
  core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(10, 23);

  // Snapshot of the first 6 entries...
  core::SearchIndex partial(model);
  partial.AddAll({features.begin(), features.begin() + 6});
  std::string error;
  ASSERT_TRUE(partial.Save(path, &error)) << error;

  // ...extended in place with the remaining 4 (no re-encoding of the 6).
  core::SearchIndex full(model);
  full.AddAll(features);
  ASSERT_TRUE(full.AppendTo(path, 6, &error)) << error;

  core::SearchIndex loaded(model);
  ASSERT_TRUE(loaded.Load(path, &error)) << error;
  EXPECT_TRUE(SameIndex(full, loaded));
}

TEST(IndexSnapshot, AppendRefusesDifferentModelWeights) {
  const std::string path = TempPath("index_append_wrong_model.snapshot");
  core::AsteriaModel model(SmallModelConfig(1));
  core::SearchIndex index(model);
  index.AddAll(SyntheticFeatures(4, 3));
  std::string error;
  ASSERT_TRUE(index.Save(path, &error)) << error;

  core::AsteriaModel other(SmallModelConfig(2));
  core::SearchIndex extender(other);
  extender.AddAll(SyntheticFeatures(6, 7));
  EXPECT_FALSE(extender.AppendTo(path, 4, &error));
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Corpus cache

dataset::CorpusConfig TinyCorpusConfig() {
  dataset::CorpusConfig config;
  config.packages = 2;
  config.seed = 777;
  return config;
}

void ExpectSameCorpus(const dataset::Corpus& a, const dataset::Corpus& b) {
  ASSERT_EQ(a.functions.size(), b.functions.size());
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.binaries_per_isa, b.binaries_per_isa);
  EXPECT_EQ(a.functions_per_isa, b.functions_per_isa);
  EXPECT_EQ(a.filtered_small, b.filtered_small);
  for (std::size_t i = 0; i < a.functions.size(); ++i) {
    const dataset::CorpusFunction& fa = a.functions[i];
    const dataset::CorpusFunction& fb = b.functions[i];
    ASSERT_EQ(fa.package, fb.package);
    ASSERT_EQ(fa.function, fb.function);
    ASSERT_EQ(fa.isa, fb.isa);
    ASSERT_EQ(fa.ast_size, fb.ast_size);
    ASSERT_EQ(fa.callee_count, fb.callee_count);
    ASSERT_EQ(fa.callee_sizes, fb.callee_sizes);
    ASSERT_EQ(fa.instruction_count, fb.instruction_count);
    ASSERT_EQ(fa.preprocessed.size(), fb.preprocessed.size());
    ASSERT_EQ(fa.preprocessed.root(), fb.preprocessed.root());
    for (int n = 0; n < fa.preprocessed.size(); ++n) {
      const ast::BinaryNode& na = fa.preprocessed.node(n);
      const ast::BinaryNode& nb = fb.preprocessed.node(n);
      ASSERT_EQ(na.label, nb.label);
      ASSERT_EQ(na.payload_bucket, nb.payload_bucket);
      ASSERT_EQ(na.left, nb.left);
      ASSERT_EQ(na.right, nb.right);
    }
  }
}

TEST(CorpusCache, RoundTripsBuiltCorpus) {
  const std::string path = TempPath("corpus_roundtrip.snapshot");
  const dataset::CorpusConfig config = TinyCorpusConfig();
  const dataset::Corpus built = dataset::BuildCorpus(config);
  ASSERT_GT(built.functions.size(), 0u);
  std::string error;
  ASSERT_TRUE(dataset::SaveCorpus(built, config, path, &error)) << error;

  dataset::Corpus loaded;
  ASSERT_TRUE(dataset::LoadCorpus(&loaded, config, path, &error)) << error;
  ExpectSameCorpus(built, loaded);
}

TEST(CorpusCache, RejectsStaleConfigFingerprint) {
  const std::string path = TempPath("corpus_stale.snapshot");
  const dataset::CorpusConfig config = TinyCorpusConfig();
  const dataset::Corpus built = dataset::BuildCorpus(config);
  std::string error;
  ASSERT_TRUE(dataset::SaveCorpus(built, config, path, &error)) << error;

  dataset::CorpusConfig other = config;
  other.seed += 1;
  EXPECT_NE(dataset::CorpusConfigFingerprint(config),
            dataset::CorpusConfigFingerprint(other));
  dataset::Corpus loaded;
  EXPECT_FALSE(dataset::LoadCorpus(&loaded, other, path, &error));
  EXPECT_TRUE(loaded.functions.empty());

  // Thread count must NOT invalidate the cache (determinism contract).
  dataset::CorpusConfig threaded = config;
  threaded.threads = 8;
  EXPECT_EQ(dataset::CorpusConfigFingerprint(config),
            dataset::CorpusConfigFingerprint(threaded));
}

TEST(CorpusCache, BuildOrLoadWritesThenReusesCache) {
  const std::string path = TempPath("corpus_build_or_load.snapshot");
  std::remove(path.c_str());
  const dataset::CorpusConfig config = TinyCorpusConfig();
  const dataset::Corpus first = dataset::BuildOrLoadCorpus(config, path);
  // The miss must have written a cache...
  std::uint32_t kind = 0;
  std::string error;
  ASSERT_TRUE(store::PeekKind(path, &kind, &error)) << error;
  // ...that the second call loads to the same corpus.
  const dataset::Corpus second = dataset::BuildOrLoadCorpus(config, path);
  ExpectSameCorpus(first, second);
}

}  // namespace
}  // namespace asteria
