// Streaming-ingest test net (docs/ARCHITECTURE.md "Incremental ingest").
//
// Five contracts are pinned here:
//  1. Shard equivalence: an index assembled from per-image shards via
//     OpenSharded answers TopK/TopKBatch bitwise identical to a monolithic
//     index built from the same functions, at thread counts 1/2/8 — and the
//     stored encodings themselves are bitwise equal. The streaming
//     extraction yields the batch firmware corpus's features, in order.
//  2. Crash-publish: a failpoint-injected crash at every ingest.* point
//     (and at the store layer's own crash point) leaves the previously
//     published manifest loading bitwise-intact, a dedup republishes
//     nothing, and a retry after an ingest.publish crash reuses the
//     already-written FENC cache instead of re-encoding.
//  3. Compaction: SearchIndex::AppendTo folds shard B into shard A with
//     queries bitwise identical to a fresh A∪B build (threads 1/2/8, the
//     check_sanitize.sh sweep runs this under ASan and TSan), and
//     IngestService::Compact preserves every TopK result while deleting
//     the replaced shard files.
//  4. Staleness: a retrained model refuses a foreign manifest, quarantines
//     a stale FENC cache and rebuilds it; delta vuln search scans only the
//     shards above the searched_seq high-water mark; a publish pokes a
//     live asteria-serve daemon so new entries are queryable immediately.
//  5. Incremental reload: after every poke the daemon's served snapshot is
//     bitwise a fresh OpenSharded of the manifest; an append-only publish
//     reads just the new shard, while compaction and a wiped-and-reingested
//     directory take the full load (serve.reload_shards_* counters), and a
//     foreign-fingerprint manifest leaves the old snapshot serving.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/asteria.h"
#include "core/search_index.h"
#include "decompiler/decompile.h"
#include "firmware/image.h"
#include "firmware/search.h"
#include "ingest/ingest.h"
#include "serve/client.h"
#include "serve/server.h"
#include "crc_line_cases.h"
#include "store/manifest.h"
#include "util/crc_lines.h"
#include "util/failpoint.h"
#include "util/metrics.h"

namespace asteria {
namespace {

using ::testing::TempDir;

std::string TempPath(const std::string& name) { return TempDir() + name; }

core::AsteriaConfig SmallModelConfig(std::uint64_t seed = 1) {
  core::AsteriaConfig config;
  config.siamese.encoder.embedding_dim = 8;
  config.siamese.encoder.hidden_dim = 8;
  config.seed = seed;
  return config;
}

void Arm(const std::string& spec) {
  std::string error;
  ASSERT_TRUE(util::ConfigureFailpoints(spec, &error)) << error;
}

bool FileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

// Deletes `dir` and everything under it (one level of subdirectories is
// all an ingest dir ever has). TempDir() contents survive across runs, and
// a stale manifest from a previous execution would turn every re-ingest
// into a dedup — each test gets a directory that provably does not exist.
void RemoveTree(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return;
  while (dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    const std::string path = dir + "/" + name;
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      RemoveTree(path);
    } else {
      std::remove(path.c_str());
    }
  }
  ::closedir(handle);
  ::rmdir(dir.c_str());
}

// A guaranteed-absent index directory under TempDir().
std::string FreshDir(const std::string& name) {
  const std::string dir = TempPath(name);
  RemoveTree(dir);
  EXPECT_FALSE(FileExists(dir));
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteBlob(const std::string& path, const std::vector<std::uint8_t>& blob) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
  ASSERT_TRUE(out.good()) << "short write to " << path;
}

void ExpectSameHits(const std::vector<core::SearchHit>& got,
                    const std::vector<core::SearchHit>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index) << "rank " << i;
    EXPECT_EQ(got[i].name, want[i].name) << "rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;  // bitwise
  }
}

void ExpectSameEncoding(const nn::Matrix& got, const nn::Matrix& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.data()[i], want.data()[i]) << "element " << i;  // bitwise
  }
}

// Packs `count` corpus images to <prefix>-<i>.fw files and returns the
// paths in image order (the order every test ingests in).
std::vector<std::string> PackImages(const firmware::FirmwareCorpus& corpus,
                                    const std::string& prefix, int count) {
  std::vector<std::string> paths;
  for (int i = 0; i < count; ++i) {
    const std::string path = prefix + "-" + std::to_string(i) + ".fw";
    WriteBlob(path, firmware::Pack(
                        corpus.images[static_cast<std::size_t>(i)]));
    paths.push_back(path);
  }
  return paths;
}

// What IngestFile indexes for the packed images at `paths`: each image
// unpacked and run through IngestService::DecompileImage, the extraction
// step IngestFile itself calls. The references below therefore pin what
// IngestFile does after extraction (encode, cache, shard, publish);
// BatchCorpusAndStreamingExtractionAgree pins the extraction itself
// against the batch firmware corpus.
std::vector<core::FunctionFeature> ReferenceFeatures(
    const std::vector<std::string>& paths, int beta, int min_ast_size) {
  std::vector<core::FunctionFeature> features;
  for (const std::string& path : paths) {
    const std::string bytes = ReadFileBytes(path);
    std::vector<std::uint8_t> blob(bytes.begin(), bytes.end());
    auto image = firmware::Unpack(blob);
    EXPECT_TRUE(image.has_value()) << path << " does not unpack";
    if (!image.has_value()) continue;
    auto extracted = ingest::IngestService::DecompileImage(
        *image, beta, min_ast_size, nullptr);
    features.insert(features.end(), extracted.begin(), extracted.end());
  }
  return features;
}

class IngestTest : public ::testing::Test {
 protected:
  void SetUp() override { util::ClearFailpoints(); }
  void TearDown() override { util::ClearFailpoints(); }

  // A small corpus is enough: every image still carries several non-trivial
  // functions after the min_ast_size filter.
  firmware::FirmwareCorpus MakeCorpus(int images, std::uint64_t seed) {
    firmware::FirmwareCorpusConfig config;
    config.images = images;
    config.seed = seed;
    return firmware::BuildFirmwareCorpus(config);
  }

  ingest::IngestConfig MakeConfig(const std::string& index_dir) {
    ingest::IngestConfig config;
    config.index_dir = index_dir;
    return config;
  }

  std::string ManifestPath(const std::string& index_dir) {
    return index_dir + "/" + store::kManifestFileName;
  }
};

// -- 1. Shard equivalence ---------------------------------------------------

TEST_F(IngestTest, ShardedBitwiseIdenticalToMonolithic) {
  core::AsteriaModel model(SmallModelConfig());
  const auto corpus = MakeCorpus(4, 11);
  const auto paths = PackImages(corpus, TempPath("shardeq"), 4);

  const std::string dir = FreshDir("shardeq_idx");
  ingest::IngestService service(model, MakeConfig(dir));
  std::string error;
  ASSERT_TRUE(service.Open(&error)) << error;
  ingest::IngestStats stats;
  for (const std::string& path : paths) {
    ASSERT_TRUE(service.IngestFile(path, &stats, &error)) << error;
  }
  EXPECT_EQ(stats.images_published, 4);
  EXPECT_EQ(service.manifest().shards.size(), 4u);

  const auto features = ReferenceFeatures(paths, 4, 5);
  ASSERT_FALSE(features.empty());
  core::SearchIndex mono(model);
  mono.AddAll(features);
  ASSERT_EQ(mono.size(), static_cast<int>(features.size()));
  EXPECT_EQ(stats.functions_indexed, mono.size());

  std::vector<const core::FunctionFeature*> queries;
  std::vector<int> ks;
  for (std::size_t i = 0; i < features.size() && i < 6; ++i) {
    queries.push_back(&features[i]);
    ks.push_back(5);
  }
  const auto want_batch = mono.TopKBatch(queries, ks);

  for (int threads : {1, 2, 8}) {
    core::SearchIndex sharded(model, threads);
    ASSERT_TRUE(sharded.OpenSharded(ManifestPath(dir), &error))
        << "threads=" << threads << ": " << error;
    ASSERT_EQ(sharded.size(), mono.size()) << "threads=" << threads;
    for (int i = 0; i < sharded.size(); ++i) {
      EXPECT_EQ(sharded.name(i), mono.name(i)) << "entry " << i;
      EXPECT_EQ(sharded.callee_count(i), mono.callee_count(i)) << i;
      ExpectSameEncoding(sharded.encoding(i), mono.encoding(i));
    }
    for (const auto* query : queries) {
      ExpectSameHits(sharded.TopK(*query, 5), mono.TopK(*query, 5));
    }
    const auto got_batch = sharded.TopKBatch(queries, ks);
    ASSERT_EQ(got_batch.size(), want_batch.size());
    for (std::size_t q = 0; q < got_batch.size(); ++q) {
      ExpectSameHits(got_batch[q], want_batch[q]);
    }
  }

  // The kind-sniffing Open dispatches a manifest path to OpenSharded.
  core::SearchIndex opened(model);
  ASSERT_TRUE(opened.Open(ManifestPath(dir), &error)) << error;
  EXPECT_EQ(opened.size(), mono.size());
}

TEST_F(IngestTest, BatchCorpusAndStreamingExtractionAgree) {
  // BuildFirmwareCorpus (batch) and DecompileImage over the same unpacked
  // images (streaming) yield the same features in the same order.
  const auto corpus = MakeCorpus(6, 23);
  const auto paths = PackImages(corpus, TempPath("extract"), 6);
  const auto streamed =
      ReferenceFeatures(paths, corpus.beta, decompiler::kMinAstSize);
  ASSERT_EQ(streamed.size(), corpus.functions.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    const core::FunctionFeature& batch = corpus.functions[i].feature;
    EXPECT_EQ(streamed[i].name, batch.name) << i;
    EXPECT_EQ(streamed[i].callee_count, batch.callee_count) << i;
    ASSERT_EQ(streamed[i].tree.size(), batch.tree.size()) << i;
    EXPECT_EQ(streamed[i].tree.root(), batch.tree.root()) << i;
    for (ast::NodeId id = 0; id < batch.tree.size(); ++id) {
      const ast::BinaryNode& got = streamed[i].tree.node(id);
      const ast::BinaryNode& want = batch.tree.node(id);
      EXPECT_EQ(got.label, want.label) << i << "/" << id;
      EXPECT_EQ(got.payload_bucket, want.payload_bucket) << i << "/" << id;
      EXPECT_EQ(got.left, want.left) << i << "/" << id;
      EXPECT_EQ(got.right, want.right) << i << "/" << id;
    }
  }
}

// -- 2. Crash-publish contract ----------------------------------------------

TEST_F(IngestTest, IngestDedupsByContentDigest) {
  core::AsteriaModel model(SmallModelConfig());
  const auto corpus = MakeCorpus(2, 12);
  const auto paths = PackImages(corpus, TempPath("dedup"), 2);

  const std::string dir = FreshDir("dedup_idx");
  ingest::IngestService service(model, MakeConfig(dir));
  std::string error;
  ASSERT_TRUE(service.Open(&error)) << error;
  ingest::IngestStats stats;
  ASSERT_TRUE(service.IngestFile(paths[0], &stats, &error)) << error;
  ASSERT_TRUE(service.IngestFile(paths[1], &stats, &error)) << error;
  EXPECT_EQ(stats.images_published, 2);
  const std::string manifest_bytes = ReadFileBytes(ManifestPath(dir));

  // Same bytes under a different name still dedup: the digest is over
  // content, not the path.
  const std::string copy = TempPath("dedup-copy.fw");
  {
    const std::string bytes = ReadFileBytes(paths[0]);
    std::vector<std::uint8_t> blob(bytes.begin(), bytes.end());
    WriteBlob(copy, blob);
  }
  ingest::IngestStats again;
  ASSERT_TRUE(service.IngestFile(paths[0], &again, &error)) << error;
  ASSERT_TRUE(service.IngestFile(copy, &again, &error)) << error;
  EXPECT_EQ(again.images_published, 0);
  EXPECT_EQ(again.images_deduped, 2);
  EXPECT_EQ(again.functions_encoded, 0);

  // A dedup publishes nothing: the manifest is bitwise untouched.
  EXPECT_EQ(ReadFileBytes(ManifestPath(dir)), manifest_bytes);
  EXPECT_EQ(service.manifest().sequence, 2u);
}

TEST_F(IngestTest, CrashAtEveryFailpointLeavesManifestIntact) {
  core::AsteriaModel model(SmallModelConfig());
  const auto corpus = MakeCorpus(3, 13);
  const auto paths = PackImages(corpus, TempPath("crash"), 3);

  const std::string dir = FreshDir("crash_idx");
  ingest::IngestService service(model, MakeConfig(dir));
  std::string error;
  ASSERT_TRUE(service.Open(&error)) << error;
  ingest::IngestStats stats;
  ASSERT_TRUE(service.IngestFile(paths[0], &stats, &error)) << error;
  ASSERT_TRUE(service.IngestFile(paths[1], &stats, &error)) << error;

  const std::string manifest_bytes = ReadFileBytes(ManifestPath(dir));
  const auto features = ReferenceFeatures({paths[0], paths[1]}, 4, 5);
  ASSERT_FALSE(features.empty());
  core::SearchIndex baseline(model);
  ASSERT_TRUE(baseline.OpenSharded(ManifestPath(dir), &error)) << error;
  const auto want = baseline.TopK(features[0], 5);

  // Each spec models dying at one point of the third image's ingest —
  // before the manifest rename, the single commit point. store.crash is
  // the container layer's own "temp file written, rename never happened".
  const std::vector<std::string> specs = {
      "ingest.read=once",        "ingest.decompile=once",
      "ingest.shard_write=once", "store.crash=once",
      "ingest.publish=once",
  };
  for (const std::string& spec : specs) {
    util::ClearFailpoints();
    Arm(spec);
    ingest::IngestStats crashed;
    std::string crash_error;
    EXPECT_FALSE(service.IngestFile(paths[2], &crashed, &crash_error))
        << spec << " did not fail the ingest";
    EXPECT_EQ(crashed.images_failed, 1) << spec;
    const std::string name = spec.substr(0, spec.find('='));
    EXPECT_GE(util::FailpointFireCount(name), 1u) << spec << " never fired";

    // The previously published manifest is bitwise intact and still loads
    // with identical query results.
    EXPECT_EQ(ReadFileBytes(ManifestPath(dir)), manifest_bytes) << spec;
    core::SearchIndex reopened(model);
    ASSERT_TRUE(reopened.OpenSharded(ManifestPath(dir), &error))
        << spec << ": " << error;
    EXPECT_EQ(reopened.size(), baseline.size()) << spec;
    ExpectSameHits(reopened.TopK(features[0], 5), want);
  }

  // With the faults cleared the same image ingests cleanly: orphaned
  // shard/cache files from the crashed attempts are simply overwritten.
  util::ClearFailpoints();
  ingest::IngestStats retry;
  ASSERT_TRUE(service.IngestFile(paths[2], &retry, &error)) << error;
  EXPECT_EQ(retry.images_published, 1);
  EXPECT_EQ(service.manifest().sequence, 3u);
  EXPECT_EQ(service.manifest().shards.size(), 3u);
}

TEST_F(IngestTest, CrashRetryReusesEncodeCache) {
  core::AsteriaModel model(SmallModelConfig());
  const auto corpus = MakeCorpus(1, 14);
  const auto paths = PackImages(corpus, TempPath("cachereuse"), 1);

  const std::string dir = FreshDir("cachereuse_idx");
  ingest::IngestService service(model, MakeConfig(dir));
  std::string error;
  ASSERT_TRUE(service.Open(&error)) << error;

  // Die after the shard and FENC cache are written but before the rename.
  Arm("ingest.publish=once");
  ingest::IngestStats crashed;
  EXPECT_FALSE(service.IngestFile(paths[0], &crashed, &error));
  EXPECT_GT(crashed.functions_encoded, 0);
  EXPECT_FALSE(FileExists(ManifestPath(dir)));

  // The retry finds the cache: zero re-encodes, one cache hit.
  util::ClearFailpoints();
  ingest::IngestStats retry;
  ASSERT_TRUE(service.IngestFile(paths[0], &retry, &error)) << error;
  EXPECT_EQ(retry.images_published, 1);
  EXPECT_EQ(retry.cache_hits, 1);
  EXPECT_EQ(retry.functions_encoded, 0);
  EXPECT_EQ(retry.functions_indexed, crashed.functions_encoded);
}

TEST_F(IngestTest, EncodeFailureIsolatesOneFunction) {
  core::AsteriaModel model(SmallModelConfig());
  const auto corpus = MakeCorpus(1, 15);
  const auto paths = PackImages(corpus, TempPath("encfail"), 1);
  const auto features = ReferenceFeatures(paths, 4, 5);
  ASSERT_GT(features.size(), 1u);

  const std::string dir = FreshDir("encfail_idx");
  ingest::IngestService service(model, MakeConfig(dir));
  std::string error;
  ASSERT_TRUE(service.Open(&error)) << error;

  // One function's encode dies; the image still publishes without it.
  Arm("ingest.encode=hit:2");
  ingest::IngestStats stats;
  ASSERT_TRUE(service.IngestFile(paths[0], &stats, &error)) << error;
  EXPECT_EQ(stats.images_published, 1);
  EXPECT_EQ(stats.functions_encoded, static_cast<int>(features.size()) - 1);
  EXPECT_EQ(stats.functions_indexed, static_cast<int>(features.size()) - 1);
  EXPECT_EQ(stats.report.failed, 1);
  EXPECT_EQ(service.manifest().TotalEntries(), features.size() - 1);
}

// -- 3. Compaction ----------------------------------------------------------

TEST_F(IngestTest, AppendToCompactionBitwiseIdenticalToFreshBuild) {
  core::AsteriaModel model(SmallModelConfig());
  const auto corpus = MakeCorpus(2, 16);
  const auto paths = PackImages(corpus, TempPath("appendto"), 2);
  const auto features_a = ReferenceFeatures({paths[0]}, 4, 5);
  const auto features_b = ReferenceFeatures({paths[1]}, 4, 5);
  ASSERT_FALSE(features_a.empty());
  ASSERT_FALSE(features_b.empty());

  // Shard A saved, then B's entries appended in place — the compaction
  // write path.
  const std::string path = TempPath("appendto.idx");
  core::SearchIndex grower(model);
  grower.AddAll(features_a);
  const int first_index = grower.size();
  std::string error;
  ASSERT_TRUE(grower.Save(path, &error)) << error;
  grower.AddAll(features_b);
  ASSERT_TRUE(grower.AppendTo(path, first_index, &error)) << error;

  // Reference: one fresh A∪B build that never touched AppendTo.
  std::vector<core::FunctionFeature> both = features_a;
  both.insert(both.end(), features_b.begin(), features_b.end());
  core::SearchIndex fresh(model);
  fresh.AddAll(both);

  for (int threads : {1, 2, 8}) {
    core::SearchIndex loaded(model, threads);
    ASSERT_TRUE(loaded.Load(path, &error))
        << "threads=" << threads << ": " << error;
    ASSERT_EQ(loaded.size(), fresh.size()) << "threads=" << threads;
    for (int i = 0; i < loaded.size(); ++i) {
      EXPECT_EQ(loaded.name(i), fresh.name(i)) << "entry " << i;
      ExpectSameEncoding(loaded.encoding(i), fresh.encoding(i));
    }
    for (std::size_t q = 0; q < both.size() && q < 4; ++q) {
      ExpectSameHits(loaded.TopK(both[q], 5), fresh.TopK(both[q], 5));
    }
  }
}

TEST_F(IngestTest, CompactionPreservesQueryResultsBitwise) {
  core::AsteriaModel model(SmallModelConfig());
  const auto corpus = MakeCorpus(4, 17);
  const auto paths = PackImages(corpus, TempPath("compact"), 4);

  const std::string dir = FreshDir("compact_idx");
  ingest::IngestService service(model, MakeConfig(dir));
  std::string error;
  ASSERT_TRUE(service.Open(&error)) << error;
  ingest::IngestStats stats;
  for (const std::string& path : paths) {
    ASSERT_TRUE(service.IngestFile(path, &stats, &error)) << error;
  }
  ASSERT_EQ(service.manifest().shards.size(), 4u);
  const std::uint64_t entries_before = service.manifest().TotalEntries();
  std::vector<std::string> old_files;
  for (const auto& shard : service.manifest().shards) {
    old_files.push_back(dir + "/" + shard.file);
  }

  const auto features = ReferenceFeatures(paths, 4, 5);
  core::SearchIndex before(model);
  ASSERT_TRUE(before.OpenSharded(ManifestPath(dir), &error)) << error;
  std::vector<std::vector<core::SearchHit>> want;
  for (std::size_t q = 0; q < features.size() && q < 6; ++q) {
    want.push_back(before.TopK(features[q], 5));
  }

  // A crash mid-compaction (before the manifest rename) changes nothing.
  const std::string manifest_bytes = ReadFileBytes(ManifestPath(dir));
  Arm("ingest.compact=once");
  int merged = 0;
  EXPECT_FALSE(service.Compact(&merged, &error));
  EXPECT_EQ(ReadFileBytes(ManifestPath(dir)), manifest_bytes);
  for (const std::string& file : old_files) {
    EXPECT_TRUE(FileExists(file)) << file;
  }

  // The real compaction folds all four small shards into one run.
  util::ClearFailpoints();
  ASSERT_TRUE(service.Compact(&merged, &error)) << error;
  EXPECT_EQ(merged, 1);
  ASSERT_EQ(service.manifest().shards.size(), 1u);
  EXPECT_EQ(service.manifest().TotalEntries(), entries_before);

  core::SearchIndex after(model);
  ASSERT_TRUE(after.OpenSharded(ManifestPath(dir), &error)) << error;
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t q = 0; q < want.size(); ++q) {
    ExpectSameHits(after.TopK(features[q], 5), want[q]);
  }

  // The replaced shard files are gone; the merged one exists.
  for (const std::string& file : old_files) {
    EXPECT_FALSE(FileExists(file)) << file << " should have been deleted";
  }
  EXPECT_TRUE(FileExists(dir + "/" + service.manifest().shards[0].file));
}

// -- 4. Staleness: retrained model, delta search, serve poke ----------------

TEST_F(IngestTest, RetrainedModelRefusesManifestAndRebuildsStaleCache) {
  core::AsteriaModel old_model(SmallModelConfig(1));
  core::AsteriaModel new_model(SmallModelConfig(2));
  ASSERT_NE(old_model.WeightsFingerprint(), new_model.WeightsFingerprint());

  const auto corpus = MakeCorpus(1, 18);
  const auto paths = PackImages(corpus, TempPath("stale"), 1);

  const std::string old_dir = FreshDir("stale_old_idx");
  ingest::IngestService old_service(old_model, MakeConfig(old_dir));
  std::string error;
  ASSERT_TRUE(old_service.Open(&error)) << error;
  ingest::IngestStats stats;
  ASSERT_TRUE(old_service.IngestFile(paths[0], &stats, &error)) << error;
  EXPECT_GT(stats.functions_encoded, 0);

  // The manifest pins the weights fingerprint: the retrained model may not
  // keep appending to the old model's shards.
  ingest::IngestService mismatched(new_model, MakeConfig(old_dir));
  EXPECT_FALSE(mismatched.Open(&error));
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;

  // A stale FENC cache smuggled into a fresh directory is quarantined and
  // rebuilt, never trusted: the digest-named cache file is the same, the
  // weights behind it are not.
  const std::string bytes = ReadFileBytes(paths[0]);
  const std::uint64_t digest = store::ContentDigest64(bytes.data(),
                                                      bytes.size());
  char cache_name[64];
  std::snprintf(cache_name, sizeof(cache_name), "cache/fenc-%016llx.fenc",
                static_cast<unsigned long long>(digest));
  const std::string new_dir = FreshDir("stale_new_idx");
  ingest::IngestService new_service(new_model, MakeConfig(new_dir));
  ASSERT_TRUE(new_service.Open(&error)) << error;
  {
    const std::string stale = ReadFileBytes(old_dir + "/" + cache_name);
    std::vector<std::uint8_t> blob(stale.begin(), stale.end());
    WriteBlob(new_dir + "/" + cache_name, blob);
  }
  ingest::IngestStats rebuilt;
  ASSERT_TRUE(new_service.IngestFile(paths[0], &rebuilt, &error)) << error;
  EXPECT_EQ(rebuilt.cache_hits, 0);
  EXPECT_GT(rebuilt.functions_encoded, 0);
  EXPECT_TRUE(FileExists(new_dir + "/" + cache_name + ".corrupt"))
      << "stale cache was not quarantined";

  // The rebuilt cache is trusted on the next pass (publish-crash + retry).
  EXPECT_EQ(new_service.manifest().sequence, 1u);
}

TEST_F(IngestTest, DeltaVulnSearchScansOnlyNewShards) {
  core::AsteriaModel model(SmallModelConfig());
  const auto corpus = MakeCorpus(3, 19);
  const auto paths = PackImages(corpus, TempPath("delta"), 3);
  const std::string dir = FreshDir("delta_idx");
  std::string error;

  {
    ingest::IngestService service(model, MakeConfig(dir));
    ASSERT_TRUE(service.Open(&error)) << error;
    ingest::IngestStats stats;
    ASSERT_TRUE(service.IngestFile(paths[0], &stats, &error)) << error;
    ASSERT_TRUE(service.IngestFile(paths[1], &stats, &error)) << error;
  }

  // First sweep sees everything and advances the mark.
  ingest::DeltaVulnResult first;
  ASSERT_TRUE(ingest::DeltaVulnSearch(model, dir, 0.95, 4, 1, &first,
                                      &error))
      << error;
  EXPECT_EQ(first.from_seq, 0u);
  EXPECT_EQ(first.to_seq, 2u);
  EXPECT_EQ(first.shards_searched, 2);
  EXPECT_GT(first.entries_searched, 0);
  EXPECT_FALSE(first.per_cve.empty());

  // The third image arrives; a fresh service re-reads the republished
  // manifest (searched_seq advanced past the first two shards).
  int third_entries = 0;
  {
    ingest::IngestService service(model, MakeConfig(dir));
    ASSERT_TRUE(service.Open(&error)) << error;
    EXPECT_EQ(service.manifest().searched_seq, 2u);
    ingest::IngestStats stats;
    ASSERT_TRUE(service.IngestFile(paths[2], &stats, &error)) << error;
    third_entries = stats.functions_indexed;
  }

  // The second sweep scans exactly the new shard...
  ingest::DeltaVulnResult second;
  ASSERT_TRUE(ingest::DeltaVulnSearch(model, dir, 0.95, 4, 1, &second,
                                      &error))
      << error;
  EXPECT_EQ(second.from_seq, 2u);
  EXPECT_EQ(second.shards_searched, 1);
  EXPECT_EQ(second.entries_searched, third_entries);

  // ...and a third sweep has nothing left to do.
  ingest::DeltaVulnResult third;
  ASSERT_TRUE(ingest::DeltaVulnSearch(model, dir, 0.95, 4, 1, &third,
                                      &error))
      << error;
  EXPECT_EQ(third.shards_searched, 0);
  EXPECT_EQ(third.entries_searched, 0);
}

// -- Persistent CVE-alert log ------------------------------------------------

TEST_F(IngestTest, AlertLogRoundTripsAcrossAppends) {
  const std::string dir = FreshDir("alert_rt_idx");
  ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
  std::string error;

  // A missing log is an empty log, not an error.
  std::vector<ingest::AlertRecord> read;
  int corrupt = -1;
  ASSERT_TRUE(ingest::ReadAlertLog(dir, &read, &corrupt, &error)) << error;
  EXPECT_TRUE(read.empty());
  EXPECT_EQ(corrupt, 0);

  // Two appends accumulate in order; strings with JSON-hostile characters
  // ("quotes", backslashes, control bytes) survive the codec bitwise.
  ingest::AlertRecord first;
  first.seq = 3;
  first.cve = "CVE-2020-0001";
  first.software = "open\"ssl\\lib";
  first.function = "tls_\x01parse";
  first.hit = "fn42";
  first.score = 0.987654321012345678;
  ingest::AlertRecord second;
  second.seq = 3;
  second.cve = "CVE-2020-0002";
  second.software = "busybox";
  second.function = "ash_eval";
  second.hit = "fn7";
  second.score = 1.0;
  ASSERT_TRUE(ingest::AppendAlerts(dir, {first, second}, &error)) << error;
  ingest::AlertRecord third = first;
  third.seq = 5;
  ASSERT_TRUE(ingest::AppendAlerts(dir, {third}, &error)) << error;

  ASSERT_TRUE(ingest::ReadAlertLog(dir, &read, &corrupt, &error)) << error;
  EXPECT_EQ(corrupt, 0);
  ASSERT_EQ(read.size(), 3u);
  const std::vector<ingest::AlertRecord> want = {first, second, third};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(read[i].seq, want[i].seq) << "record " << i;
    EXPECT_EQ(read[i].cve, want[i].cve) << "record " << i;
    EXPECT_EQ(read[i].software, want[i].software) << "record " << i;
    EXPECT_EQ(read[i].function, want[i].function) << "record " << i;
    EXPECT_EQ(read[i].hit, want[i].hit) << "record " << i;
    EXPECT_EQ(read[i].score, want[i].score) << "record " << i;  // bitwise
  }
}

TEST_F(IngestTest, AlertLogSkipsTornAndCorruptLinesWithoutFailing) {
  const std::string dir = FreshDir("alert_torn_idx");
  ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
  std::string error;
  ingest::AlertRecord good;
  good.seq = 1;
  good.cve = "CVE-2020-0001";
  good.software = "openssl";
  good.function = "tls_parse";
  good.hit = "fn1";
  good.score = 0.5;
  ASSERT_TRUE(ingest::AppendAlerts(dir, {good}, &error)) << error;

  // Simulated disk corruption (CRC mismatch on a framed line) and a
  // simulated crash mid-append (an unterminated tail).
  {
    std::ofstream out(ingest::AlertLogPath(dir),
                      std::ios::binary | std::ios::app);
    ASSERT_TRUE(out.good());
    out << "ALRT deadbeef {\"seq\":9,\"cve\":\"x\",\"software\":\"y\","
           "\"function\":\"z\",\"hit\":\"w\",\"score\":1}\n";
  }
  // Framed with their true CRC, but spelled other than the writer spells
  // them: strtoul/strtoull/strtod-style parsing would have accepted every
  // one.
  std::string good_line;
  {
    std::ifstream in(ingest::AlertLogPath(dir), std::ios::binary);
    ASSERT_TRUE(std::getline(in, good_line));
  }
  const std::string good_json = good_line.substr(14);
  const auto respelled = [&](const std::string& from, const std::string& to) {
    std::string json = good_json;
    json.replace(json.find(from), from.size(), to);
    return util::CrcLine("ALRT", json);
  };
  std::vector<std::string> misspelled = {
      respelled("\"seq\":1", "\"seq\":-1"),
      respelled("\"seq\":1", "\"seq\":+1"),
      respelled("\"seq\":1", "\"seq\": 1"),
      respelled("\"score\":0.5", "\"score\": 0.5"),
      respelled("\"score\":0.5", "\"score\":+0.5"),
      respelled("\"score\":0.5", "\"score\":0x1p-1"),
      respelled("\"score\":0.5", "\"score\":inf"),
      respelled("\"score\":0.5", "\"score\":nan"),
      util::CrcLine("SLOW", good_json),  // the request log's tag
  };
  for (const std::string& line :
       MisspelledCrcLines("ALRT", [](int i) {
         return "{\"seq\":" + std::to_string(i) +
                ",\"cve\":\"x\",\"software\":\"y\",\"function\":\"z\","
                "\"hit\":\"w\",\"score\":1}";
       })) {
    misspelled.push_back(line);
  }
  {
    std::ofstream out(ingest::AlertLogPath(dir),
                      std::ios::binary | std::ios::app);
    ASSERT_TRUE(out.good());
    for (const std::string& line : misspelled) out << line;
    out << "ALRT 00000000 {\"seq\":9,\"cve\":\"tor";  // no newline: torn
  }
  std::vector<ingest::AlertRecord> read;
  int corrupt = 0;
  ASSERT_TRUE(ingest::ReadAlertLog(dir, &read, &corrupt, &error)) << error;
  ASSERT_EQ(read.size(), 1u);
  EXPECT_EQ(read[0].cve, good.cve);
  EXPECT_EQ(corrupt, 2 + static_cast<int>(misspelled.size()));
}

TEST_F(IngestTest, DeltaVulnSearchAppendsAlertsAtLeastOnceAcrossCrashes) {
  core::AsteriaModel model(SmallModelConfig());
  const auto corpus = MakeCorpus(2, 23);
  const auto paths = PackImages(corpus, TempPath("alertd"), 2);
  const std::string dir = FreshDir("alertd_idx");
  std::string error;
  {
    ingest::IngestService service(model, MakeConfig(dir));
    ASSERT_TRUE(service.Open(&error)) << error;
    ingest::IngestStats stats;
    ASSERT_TRUE(service.IngestFile(paths[0], &stats, &error)) << error;
    ASSERT_TRUE(service.IngestFile(paths[1], &stats, &error)) << error;
  }

  // A crash in the append itself fails the run before the mark moves: no
  // alerts written, nothing marked searched. Threshold 0.0 guarantees hits.
  Arm("ingest.alert_append=once");
  ingest::DeltaVulnResult crashed;
  EXPECT_FALSE(
      ingest::DeltaVulnSearch(model, dir, 0.0, 4, 1, &crashed, &error));
  EXPECT_NE(error.find("alert_append"), std::string::npos) << error;
  std::vector<ingest::AlertRecord> read;
  int corrupt = 0;
  ASSERT_TRUE(ingest::ReadAlertLog(dir, &read, &corrupt, &error)) << error;
  EXPECT_TRUE(read.empty());

  // A crash after the append but before the manifest publish leaves the
  // alerts durable and the mark unmoved...
  Arm("ingest.publish=once");
  ingest::DeltaVulnResult torn;
  EXPECT_FALSE(ingest::DeltaVulnSearch(model, dir, 0.0, 4, 1, &torn, &error));
  ASSERT_TRUE(ingest::ReadAlertLog(dir, &read, &corrupt, &error)) << error;
  const std::size_t per_run = read.size();
  ASSERT_GT(per_run, 0u);
  EXPECT_EQ(corrupt, 0);

  // ...so the retry re-searches the same shards and re-appends the same
  // records: duplicates (same seq), never lost alerts.
  util::ClearFailpoints();
  ingest::DeltaVulnResult retried;
  ASSERT_TRUE(
      ingest::DeltaVulnSearch(model, dir, 0.0, 4, 1, &retried, &error))
      << error;
  EXPECT_EQ(retried.from_seq, 0u);  // the torn run never advanced the mark
  ASSERT_TRUE(ingest::ReadAlertLog(dir, &read, &corrupt, &error)) << error;
  ASSERT_EQ(read.size(), 2 * per_run);
  for (std::size_t i = 0; i < per_run; ++i) {
    EXPECT_EQ(read[i].seq, read[per_run + i].seq);
    EXPECT_EQ(read[i].cve, read[per_run + i].cve);
    EXPECT_EQ(read[i].hit, read[per_run + i].hit);
    EXPECT_EQ(read[i].score, read[per_run + i].score);
  }

  // A clean follow-up sweep finds nothing new and appends nothing.
  ingest::DeltaVulnResult idle;
  ASSERT_TRUE(ingest::DeltaVulnSearch(model, dir, 0.0, 4, 1, &idle, &error))
      << error;
  EXPECT_EQ(idle.shards_searched, 0);
  std::vector<ingest::AlertRecord> again;
  ASSERT_TRUE(ingest::ReadAlertLog(dir, &again, &corrupt, &error)) << error;
  EXPECT_EQ(again.size(), 2 * per_run);
}

std::uint64_t CounterValue(const std::string& name) {
  for (const util::CounterValue& counter : util::SnapshotMetrics().counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

TEST_F(IngestTest, ServeReloadPokeMakesNewShardsQueryable) {
  core::AsteriaModel model(SmallModelConfig());
  const auto corpus = MakeCorpus(2, 20);
  const auto paths = PackImages(corpus, TempPath("poke"), 2);
  const std::string dir = FreshDir("poke_idx");
  const std::string socket = TempPath("poke.sock");
  std::string error;

  ingest::IngestConfig config = MakeConfig(dir);
  config.serve_socket = socket;
  ingest::IngestService service(model, config);
  ASSERT_TRUE(service.Open(&error)) << error;

  // First publish happens before the daemon exists: the poke must degrade
  // to a warning, never an ingest failure.
  ingest::IngestStats stats;
  ASSERT_TRUE(service.IngestFile(paths[0], &stats, &error)) << error;
  const int first_entries = stats.functions_indexed;

  serve::ServerConfig server_config;
  server_config.socket_path = socket;
  server_config.index_path = ManifestPath(dir);
  serve::Server server(model, server_config);
  ASSERT_TRUE(server.Start(&error)) << error;
  std::thread runner([&server] { server.Run(); });

  const auto features = ReferenceFeatures({paths[0]}, 4, 5);
  ASSERT_FALSE(features.empty());
  serve::Client client;
  ASSERT_TRUE(client.Connect(socket, &error, 30)) << error;
  std::vector<core::SearchHit> hits;
  ASSERT_TRUE(client.AboveThreshold(features[0], -1.0, &hits, &error))
      << error;
  EXPECT_EQ(static_cast<int>(hits.size()), first_entries);

  // The second publish pokes the daemon's reload path synchronously: by
  // the time IngestFile returns, the new shard is queryable, and the poke
  // made exactly one reload.
  const std::uint64_t reloads = CounterValue("serve.reloads");
  ingest::IngestStats more;
  ASSERT_TRUE(service.IngestFile(paths[1], &more, &error)) << error;
  EXPECT_EQ(CounterValue("serve.reloads"), reloads + 1);
  ASSERT_TRUE(client.AboveThreshold(features[0], -1.0, &hits, &error))
      << error;
  EXPECT_EQ(static_cast<int>(hits.size()),
            first_entries + more.functions_indexed);

  client.Close();
  server.RequestStop();
  runner.join();
}

// -- 5. Incremental reload ---------------------------------------------------

// Cumulative serve.reload_shards_{reused,read}: the deltas across one
// reload say which path it took.
struct ReloadSplit {
  std::uint64_t reused = 0;
  std::uint64_t read = 0;
};

ReloadSplit ReloadCounters() {
  return {CounterValue("serve.reload_shards_reused"),
          CounterValue("serve.reload_shards_read")};
}

void ExpectReloadSplit(const ReloadSplit& before, std::uint64_t reused,
                       std::uint64_t read, const std::string& step) {
  const ReloadSplit after = ReloadCounters();
  EXPECT_EQ(after.reused - before.reused, reused) << step;
  EXPECT_EQ(after.read - before.read, read) << step;
}

// The daemon's served snapshot must be bitwise the index a fresh
// OpenSharded of the same manifest builds: entries (names, callee counts,
// encoding bits) and TopK / AboveThreshold hits, with the fresh side at
// threads 1, 2 and 8.
void ExpectServedMatchesFreshOpen(
    const core::AsteriaModel& model, const serve::Server& server,
    const std::string& manifest_path,
    const std::vector<core::FunctionFeature>& queries,
    const std::string& step) {
  const std::shared_ptr<const core::SearchIndex> served = server.snapshot();
  std::string error;
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(step + " threads=" + std::to_string(threads));
    core::SearchIndex fresh(model, threads);
    ASSERT_TRUE(fresh.OpenSharded(manifest_path, &error)) << error;
    ASSERT_EQ(served->size(), fresh.size());
    for (int i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(served->name(i), fresh.name(i)) << "entry " << i;
      EXPECT_EQ(served->callee_count(i), fresh.callee_count(i)) << i;
      ExpectSameEncoding(served->encoding(i), fresh.encoding(i));
    }
    for (const core::FunctionFeature& query : queries) {
      ExpectSameHits(served->TopK(query, 5), fresh.TopK(query, 5));
      ExpectSameHits(served->AboveThreshold(query, 0.5),
                     fresh.AboveThreshold(query, 0.5));
    }
  }
}

TEST_F(IngestTest, OpenShardedAgainstBaseReadsOnlyAppendedShards) {
  core::AsteriaModel model(SmallModelConfig());
  const auto paths = PackImages(MakeCorpus(3, 27), TempPath("base"), 3);
  const std::string dir = FreshDir("base_idx");
  ingest::IngestService service(model, MakeConfig(dir));
  std::string error;
  ASSERT_TRUE(service.Open(&error)) << error;
  ingest::IngestStats stats;
  ASSERT_TRUE(service.IngestFile(paths[0], &stats, &error)) << error;
  ASSERT_TRUE(service.IngestFile(paths[1], &stats, &error)) << error;

  core::SearchIndex index(model);
  ASSERT_TRUE(index.OpenSharded(ManifestPath(dir), &error)) << error;
  EXPECT_EQ(index.shards_reused(), 0);
  EXPECT_EQ(index.shards_read(), 2);

  // The index may be its own base: it keeps its two shards, reads one.
  ASSERT_TRUE(service.IngestFile(paths[2], &stats, &error)) << error;
  ASSERT_TRUE(index.OpenSharded(ManifestPath(dir), &error, &index)) << error;
  EXPECT_EQ(index.shards_reused(), 2);
  EXPECT_EQ(index.shards_read(), 1);
  core::SearchIndex fresh(model);
  ASSERT_TRUE(fresh.OpenSharded(ManifestPath(dir), &error)) << error;
  ASSERT_EQ(index.size(), fresh.size());
  for (int i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(index.name(i), fresh.name(i)) << "entry " << i;
    ExpectSameEncoding(index.encoding(i), fresh.encoding(i));
  }

  // An INDX-loaded base holds no shard records: nothing to reuse.
  core::SearchIndex snapshot(model);
  ASSERT_TRUE(snapshot.Load(
      dir + "/" + service.manifest().shards[0].file, &error))
      << error;
  EXPECT_EQ(snapshot.shards_read(), 1);
  core::SearchIndex from_snapshot(model);
  ASSERT_TRUE(from_snapshot.Open(ManifestPath(dir), &error, &snapshot))
      << error;
  EXPECT_EQ(from_snapshot.shards_reused(), 0);
  EXPECT_EQ(from_snapshot.shards_read(), 3);
}

TEST_F(IngestTest, IncrementalReloadMatchesFreshOpenAcrossPokesAndCompaction) {
  core::AsteriaModel model(SmallModelConfig());
  constexpr int kImages = 5;
  const auto corpus = MakeCorpus(kImages, 24);
  const auto paths = PackImages(corpus, TempPath("incr"), kImages);
  const auto queries = ReferenceFeatures({paths[0], paths[3]}, 4, 5);
  ASSERT_FALSE(queries.empty());
  const std::string dir = FreshDir("incr_idx");
  const std::string socket = TempPath("incr.sock");
  std::string error;

  ingest::IngestConfig config = MakeConfig(dir);
  config.serve_socket = socket;
  ingest::IngestService service(model, config);
  ASSERT_TRUE(service.Open(&error)) << error;
  ingest::IngestStats stats;
  ASSERT_TRUE(service.IngestFile(paths[0], &stats, &error)) << error;

  serve::ServerConfig server_config;
  server_config.socket_path = socket;
  server_config.index_path = ManifestPath(dir);
  server_config.score_threads = 2;
  serve::Server server(model, server_config);
  ASSERT_TRUE(server.Start(&error)) << error;
  std::thread runner([&server] { server.Run(); });

  // Each publish pokes a reload that keeps every shard the live snapshot
  // holds and reads exactly the one appended.
  for (int i = 1; i < kImages; ++i) {
    const ReloadSplit before = ReloadCounters();
    ASSERT_TRUE(service.IngestFile(paths[static_cast<std::size_t>(i)], &stats,
                                   &error))
        << error;
    const std::string step = "poke " + std::to_string(i);
    ExpectReloadSplit(before, static_cast<std::uint64_t>(i), 1, step);
    ExpectServedMatchesFreshOpen(model, server, ManifestPath(dir), queries,
                                 step);
  }

  // Compaction rewrites the shard list from the first record on: nothing
  // is shared, so the poke reads every shard of the new manifest.
  {
    const ReloadSplit before = ReloadCounters();
    int merged = 0;
    ASSERT_TRUE(service.Compact(&merged, &error)) << error;
    ASSERT_GE(merged, 1);
    ExpectReloadSplit(before, 0, service.manifest().shards.size(),
                      "compaction");
    ExpectServedMatchesFreshOpen(model, server, ManifestPath(dir), queries,
                                 "compaction");
  }

  // A manifest published for other weights fails the reload; the live
  // snapshot keeps serving, untouched.
  {
    const std::shared_ptr<const core::SearchIndex> live = server.snapshot();
    const auto want = live->TopK(queries[0], 5);
    store::ShardManifest foreign = service.manifest();
    foreign.model_fingerprint ^= 1u;
    ASSERT_TRUE(store::SaveManifest(foreign, ManifestPath(dir), &error))
        << error;
    const ReloadSplit before = ReloadCounters();
    serve::Client client;
    ASSERT_TRUE(client.Connect(socket, &error, 30)) << error;
    EXPECT_FALSE(client.Reload(&error));
    EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
    ExpectReloadSplit(before, 0, 0, "fingerprint mismatch");
    EXPECT_EQ(server.snapshot(), live);
    std::vector<core::SearchHit> hits;
    ASSERT_TRUE(client.TopK(queries[0], 5, &hits, &error)) << error;
    ExpectSameHits(hits, want);
  }

  server.RequestStop();
  runner.join();
}

TEST_F(IngestTest, ReingestedDirectoryUnderSameShardNamesTakesFullReload) {
  core::AsteriaModel model(SmallModelConfig());
  const auto first = PackImages(MakeCorpus(2, 25), TempPath("wipe-a"), 2);
  const auto second = PackImages(MakeCorpus(2, 26), TempPath("wipe-b"), 2);
  const auto queries = ReferenceFeatures({first[0], second[0]}, 4, 5);
  ASSERT_FALSE(queries.empty());
  const std::string dir = FreshDir("wipe_idx");
  const std::string socket = TempPath("wipe.sock");
  std::string error;

  store::ShardManifest served_from;
  {
    ingest::IngestService service(model, MakeConfig(dir));
    ASSERT_TRUE(service.Open(&error)) << error;
    ingest::IngestStats stats;
    for (const std::string& path : first) {
      ASSERT_TRUE(service.IngestFile(path, &stats, &error)) << error;
    }
    served_from = service.manifest();
  }

  serve::ServerConfig server_config;
  server_config.socket_path = socket;
  server_config.index_path = ManifestPath(dir);
  serve::Server server(model, server_config);
  ASSERT_TRUE(server.Start(&error)) << error;
  std::thread runner([&server] { server.Run(); });

  // Wipe the directory and ingest different images: the new manifest names
  // the same shard files at the same sequence numbers, but their sources
  // differ, so the first poke shares no prefix and reads from scratch.
  RemoveTree(dir);
  ingest::IngestConfig config = MakeConfig(dir);
  config.serve_socket = socket;
  ingest::IngestService service(model, config);
  ASSERT_TRUE(service.Open(&error)) << error;
  ingest::IngestStats stats;
  ReloadSplit before = ReloadCounters();
  ASSERT_TRUE(service.IngestFile(second[0], &stats, &error)) << error;
  const store::ShardRecord& reborn = service.manifest().shards.at(0);
  EXPECT_EQ(reborn.file, served_from.shards[0].file);
  EXPECT_EQ(reborn.created_seq, served_from.shards[0].created_seq);
  EXPECT_NE(reborn.sources, served_from.shards[0].sources);
  ExpectReloadSplit(before, 0, 1, "first re-ingest");
  ExpectServedMatchesFreshOpen(model, server, ManifestPath(dir), queries,
                               "first re-ingest");

  // From there on the new lineage grows incrementally again.
  before = ReloadCounters();
  ASSERT_TRUE(service.IngestFile(second[1], &stats, &error)) << error;
  ExpectReloadSplit(before, 1, 1, "second re-ingest");
  ExpectServedMatchesFreshOpen(model, server, ManifestPath(dir), queries,
                               "second re-ingest");

  server.RequestStop();
  runner.join();
}

}  // namespace
}  // namespace asteria
