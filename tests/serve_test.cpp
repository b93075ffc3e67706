// asteria-serve protocol/concurrency test net (docs/SERVING.md).
//
// Four contracts are pinned here:
//  1. Protocol conformance: well-formed frames round-trip; every hostile
//     frame — byte-flipped, truncated, oversized-declared-length, wrong
//     version, structurally invalid AST — yields a clean kError reply or a
//     clean close, never a crash, hang, or partial read. The sweep runs
//     under ASan and TSan via scripts/check_sanitize.sh (the on-the-wire
//     sibling of robustness_test's container corruption sweep).
//  2. Concurrency determinism: M client threads against worker pools of
//     1/2/8 return results bitwise identical to direct single-threaded
//     SearchIndex::TopK — batching and dispatch order must never leak into
//     scores or ranking.
//  3. Snapshot swap: queries racing a (failpoint-delayed) reload see either
//     the old index or the new one, bitwise — never a torn mix; after the
//     swap quiesces, everyone sees the new one.
//  4. Lifecycle: shutdown with connections open and requests queued drains
//     cleanly; injected accept/read failures degrade one connection, not
//     the daemon.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/asteria.h"
#include "core/search_index.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "store/container.h"
#include "store/manifest.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/request_log.h"
#include "util/rng.h"

namespace asteria {
namespace {

using ::testing::TempDir;

std::string TempPath(const std::string& name) { return TempDir() + name; }

// -- Shared fixtures (the synthetic-AST recipe from robustness_test) --------

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

void ExpectSameHits(const std::vector<core::SearchHit>& got,
                    const std::vector<core::SearchHit>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index) << "rank " << i;
    EXPECT_EQ(got[i].name, want[i].name) << "rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;  // bitwise
  }
}

bool SameHits(const std::vector<core::SearchHit>& a,
              const std::vector<core::SearchHit>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index || a[i].name != b[i].name ||
        a[i].score != b[i].score) {
      return false;
    }
  }
  return true;
}

// In-process daemon around a snapshot file: Start() + Run() on a thread,
// stopped and joined by the destructor.
class Harness {
 public:
  // `tweak` mutates the assembled config before Start() — how the overload
  // tests dial in queue_high_water / io_timeout_ms / max_conns /
  // drain_timeout_ms without a constructor parameter per knob.
  Harness(const core::AsteriaModel& model, const std::string& index_path,
          const std::string& socket_path, int workers, int batch_max = 8,
          std::function<void(serve::ServerConfig*)> tweak = nullptr)
      : server_(model, MakeConfig(index_path, socket_path, workers, batch_max,
                                  std::move(tweak))) {
    std::string error;
    started_ = server_.Start(&error);
    EXPECT_TRUE(started_) << error;
    if (started_) {
      thread_ = std::thread([this] { server_.Run(); });
    }
  }

  ~Harness() { Stop(); }

  void Stop() {
    if (thread_.joinable()) {
      server_.RequestStop();
      thread_.join();
    }
  }

  bool started() const { return started_; }
  serve::Server& server() { return server_; }

 private:
  static serve::ServerConfig MakeConfig(
      const std::string& index_path, const std::string& socket_path,
      int workers, int batch_max,
      std::function<void(serve::ServerConfig*)> tweak) {
    serve::ServerConfig config;
    config.socket_path = socket_path;
    config.index_path = index_path;
    config.workers = workers;
    config.batch_max = batch_max;
    config.queue_capacity = 64;
    if (tweak) tweak(&config);
    return config;
  }

  serve::Server server_;
  std::thread thread_;
  bool started_ = false;
};

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override { util::ClearFailpoints(); }
  void TearDown() override { util::ClearFailpoints(); }
};

void Arm(const std::string& spec) {
  std::string error;
  ASSERT_TRUE(util::ConfigureFailpoints(spec, &error)) << error;
}

// Builds an index over `features`, saves it, and returns the entry count.
int SaveIndexSnapshot(const core::AsteriaModel& model,
                      const std::vector<core::FunctionFeature>& features,
                      const std::string& path) {
  core::SearchIndex index(model);
  index.AddAll(features);
  std::string error;
  EXPECT_TRUE(index.Save(path, &error)) << error;
  return index.size();
}

// -- Raw-socket helpers for the hostile sweep -------------------------------

int ConnectRaw(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  timeval timeout{};  // a wedged daemon must fail the test, not hang it
  timeout.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void PutLe32(std::uint32_t v, std::vector<std::uint8_t>* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void PutLe64(std::uint64_t v, std::vector<std::uint8_t>* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

// The byte-exact frame layout from docs/SERVING.md, hard-coded on purpose:
// this is the conformance side of the spec, independent of WriteFrame. The
// 40-byte header is written whatever `version` says, so a bad-version frame
// is otherwise byte-plausible.
std::vector<std::uint8_t> BuildFrameBytes(std::uint32_t magic,
                                          std::uint32_t version,
                                          std::uint32_t type,
                                          const store::ChunkBuilder& payload,
                                          std::uint64_t deadline_ms = 0,
                                          std::uint64_t trace_id = 0) {
  std::vector<std::uint8_t> frame;
  PutLe32(magic, &frame);
  PutLe32(version, &frame);
  PutLe32(type, &frame);
  PutLe32(store::Crc32(payload.bytes().data(), payload.size()), &frame);
  PutLe64(payload.size(), &frame);
  PutLe64(deadline_ms, &frame);
  PutLe64(trace_id, &frame);
  frame.insert(frame.end(), payload.bytes().begin(), payload.bytes().end());
  return frame;
}

std::vector<std::uint8_t> BuildTopKFrameBytes(
    const core::FunctionFeature& query, int k, std::uint64_t id = 7,
    std::uint64_t deadline_ms = 0, std::uint64_t trace_id = 0) {
  store::ChunkBuilder payload;
  serve::PutQuery(id, query, k, 0.0, serve::FrameType::kTopK, &payload);
  return BuildFrameBytes(serve::kServeMagic, serve::kProtocolVersion,
                         static_cast<std::uint32_t>(serve::FrameType::kTopK),
                         payload, deadline_ms, trace_id);
}

std::vector<std::uint8_t> BuildAboveThresholdFrameBytes(
    const core::FunctionFeature& query, double threshold, std::uint64_t id,
    std::uint64_t trace_id = 0) {
  store::ChunkBuilder payload;
  serve::PutQuery(id, query, 0, threshold, serve::FrameType::kAboveThreshold,
                  &payload);
  return BuildFrameBytes(
      serve::kServeMagic, serve::kProtocolVersion,
      static_cast<std::uint32_t>(serve::FrameType::kAboveThreshold), payload,
      /*deadline_ms=*/0, trace_id);
}

bool SendAll(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + done, bytes.size() - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

// What a hostile frame earned: a reply frame, a clean close, or a hang
// (recv timeout) — the last one fails the test.
enum class Outcome { kReply, kClosed, kHang };

Outcome AwaitOutcome(int fd) {
  // Half-close our side so a server draining to EOF sees it.
  ::shutdown(fd, SHUT_WR);
  std::uint8_t buffer[512];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n > 0) return Outcome::kReply;
    if (n == 0) return Outcome::kClosed;
    if (errno == EINTR) continue;
    return Outcome::kHang;
  }
}

// -- Metric probes for the overload tests -----------------------------------

std::uint64_t CounterValueOf(const util::MetricsSnapshot& snapshot,
                             const std::string& name) {
  for (const util::CounterValue& counter : snapshot.counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

std::uint64_t SpanCountOf(const util::MetricsSnapshot& snapshot,
                          const std::string& stage) {
  for (const util::StageTiming& span : snapshot.spans) {
    if (span.stage == stage) return span.count;
  }
  return 0;
}

// Polls SnapshotMetrics until `name` has grown by at least `delta` over
// `baseline`, failing the test after ~5s. Used where the observable effect
// (a cancelled query) produces no reply frame to wait on.
void AwaitCounterDelta(const std::string& name, std::uint64_t baseline,
                       std::uint64_t delta) {
  for (int i = 0; i < 500; ++i) {
    if (CounterValueOf(util::SnapshotMetrics(), name) >= baseline + delta) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << name << " never reached +" << delta;
}

// Sends `bytes` as one hostile connection and requires a reply or a clean
// close. Then proves the daemon survived: a fresh, well-formed query on a
// fresh connection still answers correctly.
void ExpectSurvives(const std::string& socket_path,
                    const std::vector<std::uint8_t>& bytes,
                    const std::string& what) {
  const int fd = ConnectRaw(socket_path);
  ASSERT_GE(fd, 0) << what << ": connect failed";
  // The server may hang up mid-send (e.g. after rejecting an oversized
  // declared length); a send failure is fine, a hang is not.
  SendAll(fd, bytes);
  EXPECT_NE(AwaitOutcome(fd), Outcome::kHang) << what << ": daemon hung";
  ::close(fd);
}

// Sends `bytes` as one connection and requires what a framing violation
// earns: one kError whose message contains `expect`, then a hang-up.
void ExpectRejected(const std::string& socket_path,
                    const std::vector<std::uint8_t>& bytes,
                    const std::string& expect) {
  const int fd = ConnectRaw(socket_path);
  ASSERT_GE(fd, 0) << expect << ": connect failed";
  SendAll(fd, bytes);
  serve::FrameType type = serve::FrameType::kPing;
  std::vector<std::uint8_t> reply;
  std::string error;
  ASSERT_EQ(serve::ReadFrame(fd, &type, &reply, &error),
            serve::ReadStatus::kFrame)
      << expect << ": " << error;
  EXPECT_EQ(type, serve::FrameType::kError) << expect;
  std::uint64_t id = 0;
  std::string message;
  ASSERT_TRUE(serve::GetError(reply, &id, &message, &error)) << error;
  EXPECT_NE(message.find(expect), std::string::npos) << message;
  // EOF, or ECONNRESET when the daemon closed with frame bytes unread.
  std::uint8_t byte = 0;
  const ssize_t n = ::recv(fd, &byte, 1, 0);
  EXPECT_TRUE(n == 0 || (n < 0 && errno == ECONNRESET))
      << expect << ": connection not closed after the kError";
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Core batched-scoring entry point (no daemon involved)

TEST_F(ServeTest, TopKBatchBitwiseMatchesSequentialTopK) {
  const core::AsteriaModel model(SmallModelConfig());
  const std::vector<core::FunctionFeature> corpus = SyntheticFeatures(40, 11);
  const std::vector<core::FunctionFeature> queries = SyntheticFeatures(9, 99);
  for (const int threads : {1, 2, 8}) {
    core::SearchIndex index(model, threads);
    index.AddAll(corpus);
    std::vector<const core::FunctionFeature*> query_ptrs;
    std::vector<int> ks;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      query_ptrs.push_back(&queries[q]);
      ks.push_back(1 + static_cast<int>(q % 7));  // mixed per-query k
    }
    const auto batched = index.TopKBatch(query_ptrs, ks);
    ASSERT_EQ(batched.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      ExpectSameHits(batched[q], index.TopK(queries[q], ks[q]));
    }
  }
}

TEST_F(ServeTest, TopKBatchHandlesEmptyAndZeroK) {
  const core::AsteriaModel model(SmallModelConfig());
  core::SearchIndex index(model);
  index.AddAll(SyntheticFeatures(5, 3));
  EXPECT_TRUE(index.TopKBatch({}, {}).empty());
  const std::vector<core::FunctionFeature> queries = SyntheticFeatures(1, 4);
  const auto results = index.TopKBatch({&queries[0]}, {0});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].empty());
}

// ---------------------------------------------------------------------------
// Round trips

TEST_F(ServeTest, PingQueryAndShutdownRoundTrip) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(20, 5);
  const std::string index_path = TempPath("serve_rt.idx");
  SaveIndexSnapshot(model, features, index_path);
  const std::string socket_path = TempPath("serve_rt.sock");
  Harness harness(model, index_path, socket_path, /*workers=*/2);
  ASSERT_TRUE(harness.started());

  core::SearchIndex reference(model);
  std::string error;
  ASSERT_TRUE(reference.Load(index_path, &error)) << error;

  serve::Client client;
  ASSERT_TRUE(client.Connect(socket_path, &error)) << error;
  EXPECT_TRUE(client.Ping(&error)) << error;

  const auto queries = SyntheticFeatures(3, 77);
  std::vector<core::SearchHit> hits;
  for (const core::FunctionFeature& query : queries) {
    ASSERT_TRUE(client.TopK(query, 5, &hits, &error)) << error;
    ExpectSameHits(hits, reference.TopK(query, 5));
    ASSERT_TRUE(client.AboveThreshold(query, 0.5, &hits, &error)) << error;
    ExpectSameHits(hits, reference.AboveThreshold(query, 0.5));
  }
  // Shutdown via control frame: Run() must return without RequestStop().
  EXPECT_TRUE(client.Shutdown(&error)) << error;
}

TEST_F(ServeTest, SemanticErrorsKeepTheConnectionUsable) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(10, 6);
  const std::string index_path = TempPath("serve_sem.idx");
  SaveIndexSnapshot(model, features, index_path);
  const std::string socket_path = TempPath("serve_sem.sock");
  Harness harness(model, index_path, socket_path, 1);
  ASSERT_TRUE(harness.started());

  serve::Client client;
  std::string error;
  ASSERT_TRUE(client.Connect(socket_path, &error)) << error;
  const auto queries = SyntheticFeatures(1, 8);
  std::vector<core::SearchHit> hits;

  // k < 1 and an empty AST are semantic faults: error reply, same socket.
  EXPECT_FALSE(client.TopK(queries[0], 0, &hits, &error));
  EXPECT_NE(error.find("k must be >= 1"), std::string::npos) << error;
  core::FunctionFeature empty;
  empty.name = "empty";
  EXPECT_FALSE(client.TopK(empty, 3, &hits, &error));
  EXPECT_NE(error.find("empty"), std::string::npos) << error;

  ASSERT_TRUE(client.TopK(queries[0], 3, &hits, &error)) << error;
  EXPECT_EQ(hits.size(), 3u);
}

// ---------------------------------------------------------------------------
// Concurrency determinism

TEST_F(ServeTest, ConcurrentClientsMatchDirectTopKAtEveryWorkerCount) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(30, 21);
  const std::string index_path = TempPath("serve_det.idx");
  SaveIndexSnapshot(model, features, index_path);

  core::SearchIndex reference(model);  // single-threaded direct scoring
  std::string error;
  ASSERT_TRUE(reference.Load(index_path, &error)) << error;
  const auto queries = SyntheticFeatures(12, 123);
  constexpr int kTop = 7;
  std::vector<std::vector<core::SearchHit>> expected;
  for (const core::FunctionFeature& query : queries) {
    expected.push_back(reference.TopK(query, kTop));
  }

  for (const int workers : {1, 2, 8}) {
    const std::string socket_path =
        TempPath("serve_det" + std::to_string(workers) + ".sock");
    Harness harness(model, index_path, socket_path, workers, /*batch_max=*/4);
    ASSERT_TRUE(harness.started());
    constexpr int kClientThreads = 4;
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < kClientThreads; ++t) {
      clients.emplace_back([&, t] {
        serve::Client client;
        std::string client_error;
        if (!client.Connect(socket_path, &client_error)) {
          ++failures;
          return;
        }
        // Interleave: each thread walks the query set from its own offset.
        for (std::size_t step = 0; step < queries.size(); ++step) {
          const std::size_t q =
              (static_cast<std::size_t>(t) + step) % queries.size();
          std::vector<core::SearchHit> hits;
          if (!client.TopK(queries[q], kTop, &hits, &client_error) ||
              !SameHits(hits, expected[q])) {
            ++failures;
            return;
          }
        }
      });
    }
    for (std::thread& thread : clients) thread.join();
    EXPECT_EQ(failures.load(), 0)
        << "non-identical results at workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// Snapshot swap

TEST_F(ServeTest, SwapUnderLoadServesOldOrNewNeverTorn) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features_v1 = SyntheticFeatures(25, 31);
  auto features_v2 = SyntheticFeatures(25, 31);
  const auto extra = SyntheticFeatures(10, 32);
  features_v2.insert(features_v2.end(), extra.begin(), extra.end());

  const std::string index_path = TempPath("serve_swap.idx");
  SaveIndexSnapshot(model, features_v1, index_path);
  const std::string socket_path = TempPath("serve_swap.sock");
  Harness harness(model, index_path, socket_path, /*workers=*/2,
                  /*batch_max=*/4);
  ASSERT_TRUE(harness.started());

  core::SearchIndex ref_old(model), ref_new(model);
  std::string error;
  ASSERT_TRUE(ref_old.Load(index_path, &error)) << error;
  // Overwrite the serving snapshot with v2; the daemon still serves v1
  // until a reload publishes the new file.
  SaveIndexSnapshot(model, features_v2, index_path);
  ASSERT_TRUE(ref_new.Load(index_path, &error)) << error;

  const auto queries = SyntheticFeatures(6, 41);
  constexpr int kTop = 5;
  std::vector<std::vector<core::SearchHit>> expect_old, expect_new;
  for (const core::FunctionFeature& query : queries) {
    expect_old.push_back(ref_old.TopK(query, kTop));
    expect_new.push_back(ref_new.TopK(query, kTop));
    // The two references must differ, or "old or new" proves nothing.
    ASSERT_FALSE(SameHits(expect_old.back(), expect_new.back()));
  }

  // Delay every swap publish by 50ms (serve.swap failpoint) so in-flight
  // queries genuinely race it.
  Arm("serve.swap=always");
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> checked{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      serve::Client client;
      std::string client_error;
      if (!client.Connect(socket_path, &client_error)) {
        ++failures;
        return;
      }
      std::size_t q = static_cast<std::size_t>(t);
      while (!stop.load(std::memory_order_acquire)) {
        q = (q + 1) % queries.size();
        std::vector<core::SearchHit> hits;
        if (!client.TopK(queries[q], kTop, &hits, &client_error)) {
          ++failures;
          return;
        }
        if (!SameHits(hits, expect_old[q]) && !SameHits(hits, expect_new[q])) {
          ++failures;  // a torn snapshot would land here
          return;
        }
        ++checked;
      }
    });
  }
  serve::Client control;
  ASSERT_TRUE(control.Connect(socket_path, &error)) << error;
  for (int reload = 0; reload < 3; ++reload) {
    ASSERT_TRUE(control.Reload(&error)) << error;
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(checked.load(), 0);

  // Quiesced: every post-reload query must now see v2 exactly.
  std::vector<core::SearchHit> hits;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ASSERT_TRUE(control.TopK(queries[q], kTop, &hits, &error)) << error;
    ExpectSameHits(hits, expect_new[q]);
  }
}

// Publishes `features` as one more INDX shard of the sharded index in
// `dir`: the shard file first, then the manifest naming it (the ingest
// publish order, so the daemon never sees a record without its file).
void AppendShard(const core::AsteriaModel& model,
                 const std::vector<core::FunctionFeature>& features,
                 const std::string& dir, store::ShardManifest* manifest) {
  store::ShardRecord record;
  record.created_seq = manifest->sequence + 1;
  record.file = "shard-" + std::to_string(record.created_seq) + ".idx";
  const std::string path = dir + "/" + record.file;
  record.entries =
      static_cast<std::uint64_t>(SaveIndexSnapshot(model, features, path));
  record.bytes = static_cast<std::uint64_t>(
      std::ifstream(path, std::ios::binary | std::ios::ate).tellg());
  manifest->model_fingerprint = model.WeightsFingerprint();
  manifest->sequence = record.created_seq;
  manifest->shards.push_back(std::move(record));
  std::string error;
  ASSERT_TRUE(store::SaveManifest(
      *manifest, dir + "/" + store::kManifestFileName, &error))
      << error;
}

TEST_F(ServeTest, SwapUnderLoadOverManifestServesOldOrNewNeverTorn) {
  const core::AsteriaModel model(SmallModelConfig());
  const std::string dir = TempPath("serve_swap_mani");
  ::mkdir(dir.c_str(), 0777);  // reruns overwrite every file it holds
  const std::string manifest_path = dir + "/" + store::kManifestFileName;
  constexpr int kReloads = 3;
  std::vector<std::vector<core::FunctionFeature>> shards;
  shards.push_back(SyntheticFeatures(20, 33));
  for (int r = 0; r < kReloads; ++r) {
    shards.push_back(SyntheticFeatures(8, 34 + static_cast<std::uint64_t>(r)));
  }
  store::ShardManifest manifest;
  AppendShard(model, shards[0], dir, &manifest);
  const std::string socket_path = TempPath("serve_swap_mani.sock");
  Harness harness(model, manifest_path, socket_path, /*workers=*/2,
                  /*batch_max=*/4);
  ASSERT_TRUE(harness.started());

  // expect[v][q]: query q against version v (the first shard plus v
  // appended ones), from an in-memory index of the same entries in the
  // same order. k exceeds every version's size, so each append changes
  // every reply and "old or new" is a sharp check.
  const auto queries = SyntheticFeatures(6, 41);
  constexpr int kTop = 64;
  std::vector<std::vector<std::vector<core::SearchHit>>> expect;
  {
    core::SearchIndex reference(model);
    for (const auto& shard : shards) {
      reference.AddAll(shard);
      expect.emplace_back();
      for (const core::FunctionFeature& query : queries) {
        expect.back().push_back(reference.TopK(query, kTop));
      }
    }
  }

  // Every reply must be the version published when it was sent, or a
  // later one no further than one reload past what was published when it
  // returned — never a torn mix. The serve.swap failpoint holds each built
  // replacement unpublished for 50ms so in-flight queries race the swap.
  Arm("serve.swap=always");
  std::atomic<int> published{0};
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> checked{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      serve::Client client;
      std::string client_error;
      if (!client.Connect(socket_path, &client_error)) {
        ++failures;
        return;
      }
      std::size_t q = static_cast<std::size_t>(t);
      while (!stop.load(std::memory_order_acquire)) {
        q = (q + 1) % queries.size();
        const int lo = published.load(std::memory_order_acquire);
        std::vector<core::SearchHit> hits;
        if (!client.TopK(queries[q], kTop, &hits, &client_error)) {
          ++failures;
          return;
        }
        const int hi =
            std::min(published.load(std::memory_order_acquire) + 1, kReloads);
        bool matched = false;
        for (int v = lo; v <= hi && !matched; ++v) {
          matched = SameHits(hits, expect[static_cast<std::size_t>(v)][q]);
        }
        if (!matched) {
          ++failures;  // a torn or stale snapshot would land here
          return;
        }
        ++checked;
      }
    });
  }
  const auto before = util::SnapshotMetrics();
  serve::Client control;
  std::string error;
  bool reloaded = control.Connect(socket_path, &error);
  for (int r = 1; r <= kReloads && reloaded; ++r) {
    AppendShard(model, shards[static_cast<std::size_t>(r)], dir, &manifest);
    reloaded = control.Reload(&error);
    published.store(r, std::memory_order_release);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& thread : clients) thread.join();
  ASSERT_TRUE(reloaded) << error;
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(checked.load(), 0);

  // Reload r kept the r shards the live snapshot held and read one.
  const auto after = util::SnapshotMetrics();
  EXPECT_EQ(CounterValueOf(after, "serve.reload_shards_reused") -
                CounterValueOf(before, "serve.reload_shards_reused"),
            static_cast<std::uint64_t>(kReloads * (kReloads + 1) / 2));
  EXPECT_EQ(CounterValueOf(after, "serve.reload_shards_read") -
                CounterValueOf(before, "serve.reload_shards_read"),
            static_cast<std::uint64_t>(kReloads));

  // Quiesced: every query now sees the last version exactly.
  std::vector<core::SearchHit> hits;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ASSERT_TRUE(control.TopK(queries[q], kTop, &hits, &error)) << error;
    ExpectSameHits(hits, expect[kReloads][q]);
  }
}

TEST_F(ServeTest, ReloadFailureKeepsServingTheOldSnapshot) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(12, 51);
  const std::string index_path = TempPath("serve_rfail.idx");
  SaveIndexSnapshot(model, features, index_path);
  const std::string socket_path = TempPath("serve_rfail.sock");
  Harness harness(model, index_path, socket_path, 1);
  ASSERT_TRUE(harness.started());

  core::SearchIndex reference(model);
  std::string error;
  ASSERT_TRUE(reference.Load(index_path, &error)) << error;

  // Corrupt the snapshot file on disk; reload must fail loudly and leave
  // the in-memory snapshot serving.
  {
    std::ofstream out(index_path, std::ios::binary | std::ios::trunc);
    out << "not a container";
  }
  serve::Client client;
  ASSERT_TRUE(client.Connect(socket_path, &error)) << error;
  EXPECT_FALSE(client.Reload(&error));
  EXPECT_NE(error.find("daemon error"), std::string::npos) << error;

  const auto queries = SyntheticFeatures(2, 52);
  std::vector<core::SearchHit> hits;
  ASSERT_TRUE(client.TopK(queries[0], 4, &hits, &error)) << error;
  ExpectSameHits(hits, reference.TopK(queries[0], 4));
}

// ---------------------------------------------------------------------------
// Hostile input sweep

class HostileTest : public ServeTest {
 protected:
  void StartDaemon(const std::string& tag) {
    model_ = std::make_unique<core::AsteriaModel>(SmallModelConfig());
    features_ = SyntheticFeatures(15, 61);
    index_path_ = TempPath("serve_hostile_" + tag + ".idx");
    SaveIndexSnapshot(*model_, features_, index_path_);
    socket_path_ = TempPath("serve_hostile_" + tag + ".sock");
    harness_ = std::make_unique<Harness>(*model_, index_path_, socket_path_,
                                         /*workers=*/2);
    ASSERT_TRUE(harness_->started());
    reference_ = std::make_unique<core::SearchIndex>(*model_);
    std::string error;
    ASSERT_TRUE(reference_->Load(index_path_, &error)) << error;
    queries_ = SyntheticFeatures(2, 62);
  }

  // The daemon must still answer a well-formed query correctly.
  void ExpectStillServing() {
    serve::Client client;
    std::string error;
    ASSERT_TRUE(client.Connect(socket_path_, &error)) << error;
    std::vector<core::SearchHit> hits;
    ASSERT_TRUE(client.TopK(queries_[0], 3, &hits, &error)) << error;
    ExpectSameHits(hits, reference_->TopK(queries_[0], 3));
  }

  std::unique_ptr<core::AsteriaModel> model_;
  std::vector<core::FunctionFeature> features_;
  std::vector<core::FunctionFeature> queries_;
  std::string index_path_;
  std::string socket_path_;
  std::unique_ptr<Harness> harness_;
  std::unique_ptr<core::SearchIndex> reference_;
};

TEST_F(HostileTest, MalformedHeadersAreRejectedCleanly) {
  StartDaemon("hdr");
  store::ChunkBuilder ping;
  serve::PutControl(1, &ping);

  // Wrong magic.
  ExpectSurvives(socket_path_,
                 BuildFrameBytes(0xdeadbeef, serve::kProtocolVersion,
                                 static_cast<std::uint32_t>(
                                     serve::FrameType::kPing),
                                 ping),
                 "wrong magic");
  // Any version but the current one is a framing violation, whatever
  // header length it implies: the daemon reads the full 40-byte header,
  // answers kError and hangs up. A TopK frame in the retired v1 layout
  // (24-byte header) and v2 layout (32-byte header) is long enough to fill
  // it.
  const std::vector<std::uint8_t> topk = BuildTopKFrameBytes(queries_[0], 3);
  std::vector<std::uint8_t> v1 = topk;
  v1[4] = 1;
  v1.erase(v1.begin() + 24, v1.begin() + 40);
  ExpectRejected(socket_path_, v1, "unsupported protocol version 1");
  std::vector<std::uint8_t> v2 = topk;
  v2[4] = 2;
  v2.erase(v2.begin() + 32, v2.begin() + 40);
  ExpectRejected(socket_path_, v2, "unsupported protocol version 2");
  ExpectRejected(socket_path_,
                 BuildFrameBytes(serve::kServeMagic, 99,
                                 static_cast<std::uint32_t>(
                                     serve::FrameType::kPing),
                                 ping),
                 "unsupported protocol version 99");
  // Unknown frame type (well-formed otherwise).
  ExpectSurvives(socket_path_,
                 BuildFrameBytes(serve::kServeMagic, serve::kProtocolVersion,
                                 12345, ping),
                 "unknown type");
  // Oversized declared payload: a full header whose length is over the cap
  // is refused before any allocation.
  {
    std::vector<std::uint8_t> frame;
    PutLe32(serve::kServeMagic, &frame);
    PutLe32(serve::kProtocolVersion, &frame);
    PutLe32(static_cast<std::uint32_t>(serve::FrameType::kTopK), &frame);
    PutLe32(0, &frame);
    PutLe64(serve::kMaxFramePayload + 1, &frame);
    PutLe64(0, &frame);  // deadline_ms
    PutLe64(0, &frame);  // trace_id
    ASSERT_EQ(frame.size(), serve::kFrameHeaderSize);
    ExpectRejected(socket_path_, frame, "frame cap");
  }
  ExpectStillServing();
}

TEST_F(HostileTest, TruncationsAreRejectedCleanly) {
  StartDaemon("trunc");
  const std::vector<std::uint8_t> frame = BuildTopKFrameBytes(queries_[0], 3);
  // Every prefix class: mid-header, exact header (payload missing), and
  // mid-payload. AwaitOutcome half-closes, so the server sees EOF where the
  // declared bytes should be.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{1}, std::size_t{10},
        std::size_t{serve::kFrameHeaderSize},
        std::size_t{serve::kFrameHeaderSize + 5}, frame.size() - 1}) {
    ASSERT_LT(keep, frame.size());
    const std::vector<std::uint8_t> truncated(frame.begin(),
                                              frame.begin() + keep);
    ExpectSurvives(socket_path_, truncated,
                   "truncated at byte " + std::to_string(keep));
  }
  ExpectStillServing();
}

TEST_F(HostileTest, ByteFlipSweepNeverCrashesOrHangs) {
  StartDaemon("flip");
  const std::vector<std::uint8_t> frame = BuildTopKFrameBytes(queries_[1], 4);
  // Flip one bit in every byte of the frame — header fields, payload
  // scalars, AST bytes — and require a reply or clean close each time.
  // (CRC coverage means any payload flip must be caught; header flips are
  // caught field by field.)
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::vector<std::uint8_t> corrupted = frame;
    corrupted[i] ^= 0x20;
    ExpectSurvives(socket_path_, corrupted,
                   "bit flip at byte " + std::to_string(i));
  }
  ExpectStillServing();
}

TEST_F(HostileTest, StructurallyInvalidAstsAreRejected) {
  StartDaemon("ast");
  // Hand-build query payloads with valid framing + CRC but broken trees;
  // these must die in validation with an error reply, and the connection
  // must stay usable (the stream is still aligned).
  struct Case {
    std::string name;
    std::uint32_t count;
    std::int32_t root;
    std::vector<std::array<std::int32_t, 4>> nodes;  // label,payload,left,right
  };
  const std::vector<Case> cases = {
      {"root out of range", 2, 5, {{1, 0, -1, -1}, {1, 0, -1, -1}}},
      {"child out of range", 2, 0, {{1, 0, 7, -1}, {1, 0, -1, -1}}},
      {"negative child", 2, 0, {{1, 0, -3, -1}, {1, 0, -1, -1}}},
      {"two parents", 3, 0, {{1, 0, 1, 2}, {1, 0, 2, -1}, {1, 0, -1, -1}}},
      {"root is a child", 2, 0, {{1, 0, 1, -1}, {1, 0, 0, -1}}},
      {"self cycle", 1, 0, {{1, 0, 0, -1}}},
  };
  for (const Case& test_case : cases) {
    const int fd = ConnectRaw(socket_path_);
    ASSERT_GE(fd, 0);
    store::ChunkBuilder payload;
    payload.PutU64(3);
    payload.PutString("hostile");
    payload.PutI32(0);  // callee_count
    payload.PutI32(5);  // k
    payload.PutU32(test_case.count);
    payload.PutI32(test_case.root);
    for (const auto& node : test_case.nodes) {
      for (const std::int32_t field : node) payload.PutI32(field);
    }
    ASSERT_TRUE(SendAll(
        fd, BuildFrameBytes(serve::kServeMagic, serve::kProtocolVersion,
                            static_cast<std::uint32_t>(serve::FrameType::kTopK),
                            payload)))
        << test_case.name;
    // Expect a kError reply frame on the still-open connection.
    serve::FrameType type = serve::FrameType::kPing;
    std::vector<std::uint8_t> reply;
    std::string error;
    ASSERT_EQ(serve::ReadFrame(fd, &type, &reply, &error), serve::ReadStatus::kFrame)
        << test_case.name << ": " << error;
    EXPECT_EQ(type, serve::FrameType::kError) << test_case.name;
    std::uint64_t id = 0;
    std::string message;
    ASSERT_TRUE(serve::GetError(reply, &id, &message, &error));
    EXPECT_EQ(id, 3u) << test_case.name;
    ::close(fd);
  }
  // A declared node count bigger than the payload must also die cleanly.
  {
    store::ChunkBuilder payload;
    payload.PutU64(4);
    payload.PutString("hostile");
    payload.PutI32(0);
    payload.PutI32(5);
    payload.PutU32(1000000);  // declares 16MB of nodes, sends none
    payload.PutI32(0);
    ExpectSurvives(
        socket_path_,
        BuildFrameBytes(serve::kServeMagic, serve::kProtocolVersion,
                        static_cast<std::uint32_t>(serve::FrameType::kTopK),
                        payload),
        "overdeclared node count");
  }
  // Trailing garbage after a valid query payload.
  {
    store::ChunkBuilder payload;
    serve::PutQuery(5, queries_[0], 3, 0.0, serve::FrameType::kTopK, &payload);
    payload.PutU32(0xabcdef01);
    ExpectSurvives(
        socket_path_,
        BuildFrameBytes(serve::kServeMagic, serve::kProtocolVersion,
                        static_cast<std::uint32_t>(serve::FrameType::kTopK),
                        payload),
        "trailing bytes");
  }
  ExpectStillServing();
}

// ---------------------------------------------------------------------------
// Injected faults

TEST_F(ServeTest, ReadFailpointKillsOneConnectionNotTheDaemon) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(10, 71);
  const std::string index_path = TempPath("serve_fpread.idx");
  SaveIndexSnapshot(model, features, index_path);
  const std::string socket_path = TempPath("serve_fpread.sock");
  Harness harness(model, index_path, socket_path, 1);
  ASSERT_TRUE(harness.started());

  Arm("serve.read=once");
  serve::Client doomed;
  std::string error;
  ASSERT_TRUE(doomed.Connect(socket_path, &error)) << error;
  EXPECT_FALSE(doomed.Ping(&error));  // injected read failure on the server

  serve::Client healthy;
  ASSERT_TRUE(healthy.Connect(socket_path, &error)) << error;
  EXPECT_TRUE(healthy.Ping(&error)) << error;
}

TEST_F(ServeTest, AcceptFailpointDropsOneConnectionNotTheDaemon) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(10, 81);
  const std::string index_path = TempPath("serve_fpacc.idx");
  SaveIndexSnapshot(model, features, index_path);
  const std::string socket_path = TempPath("serve_fpacc.sock");
  Harness harness(model, index_path, socket_path, 1);
  ASSERT_TRUE(harness.started());

  Arm("serve.accept=once");
  serve::Client dropped;
  std::string error;
  // connect() itself succeeds against the listen backlog; the daemon then
  // closes the accepted fd, so the first round trip fails.
  if (dropped.Connect(socket_path, &error)) {
    EXPECT_FALSE(dropped.Ping(&error));
  }
  serve::Client healthy;
  ASSERT_TRUE(healthy.Connect(socket_path, &error)) << error;
  EXPECT_TRUE(healthy.Ping(&error)) << error;
}

TEST_F(ServeTest, StartFailsCleanlyOnMissingOrCorruptSnapshot) {
  const core::AsteriaModel model(SmallModelConfig());
  serve::ServerConfig config;
  config.socket_path = TempPath("serve_nostart.sock");
  config.index_path = TempPath("serve_nostart_missing.idx");
  {
    serve::Server server(model, config);
    std::string error;
    EXPECT_FALSE(server.Start(&error));
    EXPECT_FALSE(error.empty());
  }
  // Fingerprint mismatch: snapshot built by different weights.
  const core::AsteriaModel other(SmallModelConfig(/*seed=*/999));
  const std::string index_path = TempPath("serve_nostart_mismatch.idx");
  SaveIndexSnapshot(other, SyntheticFeatures(4, 91), index_path);
  config.index_path = index_path;
  serve::Server server(model, config);
  std::string error;
  EXPECT_FALSE(server.Start(&error));
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
}

TEST_F(ServeTest, ShutdownDrainsQueuedRequests) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(20, 95);
  const std::string index_path = TempPath("serve_drain.idx");
  SaveIndexSnapshot(model, features, index_path);
  const std::string socket_path = TempPath("serve_drain.sock");
  auto harness = std::make_unique<Harness>(model, index_path, socket_path,
                                           /*workers=*/2);
  ASSERT_TRUE(harness->started());

  // Pipeline several queries raw (no reply waits), then a shutdown frame on
  // another connection; every pipelined query must still get its reply.
  const int fd = ConnectRaw(socket_path);
  ASSERT_GE(fd, 0);
  const auto queries = SyntheticFeatures(4, 96);
  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(
        SendAll(fd, BuildTopKFrameBytes(queries[i], 3, /*id=*/100 + i)));
  }
  serve::Client control;
  std::string error;
  ASSERT_TRUE(control.Connect(socket_path, &error)) << error;
  ASSERT_TRUE(control.Shutdown(&error)) << error;

  std::vector<bool> answered(queries.size(), false);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    serve::FrameType type = serve::FrameType::kPing;
    std::vector<std::uint8_t> payload;
    ASSERT_EQ(serve::ReadFrame(fd, &type, &payload, &error),
              serve::ReadStatus::kFrame)
        << error;
    ASSERT_EQ(type, serve::FrameType::kHits);
    std::uint64_t id = 0;
    std::vector<core::SearchHit> hits;
    ASSERT_TRUE(serve::GetHits(payload, &id, &hits, &error)) << error;
    ASSERT_GE(id, 100u);
    ASSERT_LT(id - 100, answered.size());
    EXPECT_FALSE(answered[id - 100]);
    answered[id - 100] = true;
    EXPECT_EQ(hits.size(), 3u);
  }
  ::close(fd);
  harness.reset();  // joins Run(); must not deadlock with queued work
}

// ---------------------------------------------------------------------------
// Overload & request lifecycle (docs/ROBUSTNESS.md "Overload & request
// lifecycle"): admission control, deadlines, cancellation, io timeouts,
// drain windows, and the retrying client. Chaos pacing comes from the
// serve.stall_worker failpoint (250 ms at every DispatchBatch entry), which
// holds workers still long enough for queues to fill, deadlines to lapse,
// and cancels to land — deterministically, not by racing the scheduler.

TEST_F(ServeTest, OverloadShedsWithKOverloadedAtEveryWorkerCount) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(20, 141);
  const std::string index_path = TempPath("serve_shed.idx");
  SaveIndexSnapshot(model, features, index_path);
  core::SearchIndex reference(model);
  std::string error;
  ASSERT_TRUE(reference.Load(index_path, &error)) << error;
  const auto queries = SyntheticFeatures(40, 142);
  std::vector<std::vector<core::SearchHit>> expected;
  for (const core::FunctionFeature& query : queries) {
    expected.push_back(reference.TopK(query, 3));
  }

  for (const int workers : {1, 2, 8}) {
    Arm("serve.stall_worker=always");
    const std::string socket_path =
        TempPath("serve_shed" + std::to_string(workers) + ".sock");
    // batch_max=2 bounds what stalled workers can absorb: at most
    // workers*2 in flight + 4 queued, so a 40-query burst must shed.
    Harness harness(model, index_path, socket_path, workers, /*batch_max=*/2,
                    [](serve::ServerConfig* config) {
                      config->queue_high_water = 4;
                    });
    ASSERT_TRUE(harness.started());
    const auto before = util::SnapshotMetrics();

    const int fd = ConnectRaw(socket_path);
    ASSERT_GE(fd, 0);
    for (std::uint64_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(SendAll(fd, BuildTopKFrameBytes(queries[i], 3, 300 + i)));
    }
    // Exactly one reply per query — kHits for the admitted, kOverloaded for
    // the shed — and every answered query is bitwise-identical to direct
    // TopK. Nothing is silently dropped, nothing is wrong-but-fast.
    int answered = 0;
    int shed = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      serve::FrameType type = serve::FrameType::kPing;
      std::vector<std::uint8_t> payload;
      ASSERT_EQ(serve::ReadFrame(fd, &type, &payload, &error),
                serve::ReadStatus::kFrame)
          << "workers=" << workers << ": " << error;
      std::uint64_t id = 0;
      if (type == serve::FrameType::kHits) {
        std::vector<core::SearchHit> hits;
        ASSERT_TRUE(serve::GetHits(payload, &id, &hits, &error)) << error;
        ASSERT_GE(id, 300u);
        ASSERT_LT(id - 300, expected.size());
        ExpectSameHits(hits, expected[id - 300]);
        ++answered;
      } else {
        ASSERT_EQ(type, serve::FrameType::kOverloaded)
            << "workers=" << workers;
        ASSERT_TRUE(serve::GetControl(payload, &id, &error)) << error;
        ++shed;
      }
    }
    ::close(fd);
    EXPECT_EQ(answered + shed, static_cast<int>(queries.size()));
    EXPECT_GT(answered, 0) << "workers=" << workers;
    EXPECT_GT(shed, 0) << "workers=" << workers;
    const auto after = util::SnapshotMetrics();
    EXPECT_EQ(CounterValueOf(after, "serve.shed") -
                  CounterValueOf(before, "serve.shed"),
              static_cast<std::uint64_t>(shed))
        << "workers=" << workers;
    util::ClearFailpoints();
  }
}

TEST_F(ServeTest, ExpiredAtDequeueAnswersDeadlineExceededWithoutEncoding) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(15, 151);
  const std::string index_path = TempPath("serve_ddl.idx");
  SaveIndexSnapshot(model, features, index_path);
  core::SearchIndex reference(model);
  std::string error;
  ASSERT_TRUE(reference.Load(index_path, &error)) << error;
  const std::string socket_path = TempPath("serve_ddl.sock");
  Harness harness(model, index_path, socket_path, /*workers=*/1);
  ASSERT_TRUE(harness.started());
  const auto queries = SyntheticFeatures(2, 152);

  // A 1 ms deadline against a 250 ms worker stall: expired long before the
  // worker triages it, so the daemon must answer kDeadlineExceeded without
  // ever encoding the query.
  Arm("serve.stall_worker=always");
  const auto before = util::SnapshotMetrics();
  const int fd = ConnectRaw(socket_path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(
      fd, BuildTopKFrameBytes(queries[0], 3, /*id=*/9, /*deadline_ms=*/1)));
  serve::FrameType type = serve::FrameType::kPing;
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(serve::ReadFrame(fd, &type, &payload, &error),
            serve::ReadStatus::kFrame)
      << error;
  EXPECT_EQ(type, serve::FrameType::kDeadlineExceeded);
  std::uint64_t id = 0;
  ASSERT_TRUE(serve::GetControl(payload, &id, &error)) << error;
  EXPECT_EQ(id, 9u);
  const auto after = util::SnapshotMetrics();
  EXPECT_EQ(SpanCountOf(after, "encode"), SpanCountOf(before, "encode"))
      << "an expired query was encoded anyway";
  EXPECT_EQ(CounterValueOf(after, "serve.deadline_exceeded") -
                CounterValueOf(before, "serve.deadline_exceeded"),
            1u);

  // The connection survived the expiry; an undeadlined query on the same
  // socket still answers bitwise-correctly.
  util::ClearFailpoints();
  ASSERT_TRUE(SendAll(fd, BuildTopKFrameBytes(queries[1], 3, /*id=*/10)));
  ASSERT_EQ(serve::ReadFrame(fd, &type, &payload, &error),
            serve::ReadStatus::kFrame)
      << error;
  ASSERT_EQ(type, serve::FrameType::kHits);
  std::vector<core::SearchHit> hits;
  ASSERT_TRUE(serve::GetHits(payload, &id, &hits, &error)) << error;
  EXPECT_EQ(id, 10u);
  ExpectSameHits(hits, reference.TopK(queries[1], 3));
  ::close(fd);
}

TEST_F(ServeTest, MaximalWireDeadlineIsClampedAndAnswered) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(15, 153);
  const std::string index_path = TempPath("serve_maxddl.idx");
  SaveIndexSnapshot(model, features, index_path);
  core::SearchIndex reference(model);
  std::string error;
  ASSERT_TRUE(reference.Load(index_path, &error)) << error;
  const auto queries = SyntheticFeatures(1, 154);
  const std::vector<std::uint8_t> frame = BuildTopKFrameBytes(
      queries[0], 3, /*id=*/12, /*deadline_ms=*/0xFFFFFFFFFFFFFFFFull);

  // ReadFrame hands out the documented ceiling, not the raw field.
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  ASSERT_TRUE(SendAll(pair[0], frame));
  serve::FrameType type = serve::FrameType::kPing;
  std::vector<std::uint8_t> payload;
  std::uint64_t deadline_ms = 0;
  ASSERT_EQ(serve::ReadFrame(pair[1], &type, &payload, &error, &deadline_ms),
            serve::ReadStatus::kFrame)
      << error;
  EXPECT_EQ(deadline_ms, serve::kMaxDeadlineMs);
  ::close(pair[0]);
  ::close(pair[1]);

  // The daemon admits it as an ordinary, far-off deadline and answers.
  const std::string socket_path = TempPath("serve_maxddl.sock");
  Harness harness(model, index_path, socket_path, /*workers=*/1);
  ASSERT_TRUE(harness.started());
  const int fd = ConnectRaw(socket_path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, frame));
  ASSERT_EQ(serve::ReadFrame(fd, &type, &payload, &error),
            serve::ReadStatus::kFrame)
      << error;
  ASSERT_EQ(type, serve::FrameType::kHits);
  std::uint64_t id = 0;
  std::vector<core::SearchHit> hits;
  ASSERT_TRUE(serve::GetHits(payload, &id, &hits, &error)) << error;
  EXPECT_EQ(id, 12u);
  ExpectSameHits(hits, reference.TopK(queries[0], 3));
  ::close(fd);
}

TEST_F(ServeTest, DisconnectCancelsQueuedQueriesViaEpoch) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(15, 161);
  const std::string index_path = TempPath("serve_epoch.idx");
  SaveIndexSnapshot(model, features, index_path);
  core::SearchIndex reference(model);
  std::string error;
  ASSERT_TRUE(reference.Load(index_path, &error)) << error;
  const std::string socket_path = TempPath("serve_epoch.sock");
  Harness harness(model, index_path, socket_path, /*workers=*/1);
  ASSERT_TRUE(harness.started());

  // Pipeline six queries into a stalled daemon, then vanish. The reader
  // sees EOF while the worker is still sleeping, bumps the connection's
  // cancel epoch, and every one of the six is skipped at dispatch — the
  // daemon never scores work nobody is waiting for.
  Arm("serve.stall_worker=always");
  const std::uint64_t cancelled_before =
      CounterValueOf(util::SnapshotMetrics(), "serve.cancelled");
  const auto queries = SyntheticFeatures(6, 162);
  const int fd = ConnectRaw(socket_path);
  ASSERT_GE(fd, 0);
  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(SendAll(fd, BuildTopKFrameBytes(queries[i], 3, 400 + i)));
  }
  ::close(fd);
  AwaitCounterDelta("serve.cancelled", cancelled_before, queries.size());
  util::ClearFailpoints();

  // The daemon is unharmed: a healthy client gets bitwise-correct results.
  serve::Client healthy;
  ASSERT_TRUE(healthy.Connect(socket_path, &error)) << error;
  std::vector<core::SearchHit> hits;
  ASSERT_TRUE(healthy.TopK(queries[0], 3, &hits, &error)) << error;
  ExpectSameHits(hits, reference.TopK(queries[0], 3));
}

TEST_F(ServeTest, ExplicitCancelFrameSkipsTheQueryBeforeScoring) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(15, 171);
  const std::string index_path = TempPath("serve_cancel.idx");
  SaveIndexSnapshot(model, features, index_path);
  core::SearchIndex reference(model);
  std::string error;
  ASSERT_TRUE(reference.Load(index_path, &error)) << error;
  const std::string socket_path = TempPath("serve_cancel.sock");
  Harness harness(model, index_path, socket_path, /*workers=*/1);
  ASSERT_TRUE(harness.started());
  const auto queries = SyntheticFeatures(2, 172);

  Arm("serve.stall_worker=always");
  const std::uint64_t cancelled_before =
      CounterValueOf(util::SnapshotMetrics(), "serve.cancelled");
  const int fd = ConnectRaw(socket_path);
  ASSERT_GE(fd, 0);
  // Query 42 goes into the stalled daemon; the kCancel for it is processed
  // by the reader (kOk ack) before any worker can triage it.
  ASSERT_TRUE(SendAll(fd, BuildTopKFrameBytes(queries[0], 3, /*id=*/42)));
  store::ChunkBuilder cancel_payload;
  serve::PutControl(42, &cancel_payload);
  ASSERT_TRUE(SendAll(
      fd, BuildFrameBytes(serve::kServeMagic, serve::kProtocolVersion,
                          static_cast<std::uint32_t>(serve::FrameType::kCancel),
                          cancel_payload)));
  serve::FrameType type = serve::FrameType::kPing;
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(serve::ReadFrame(fd, &type, &payload, &error),
            serve::ReadStatus::kFrame)
      << error;
  EXPECT_EQ(type, serve::FrameType::kOk);
  std::uint64_t id = 0;
  ASSERT_TRUE(serve::GetControl(payload, &id, &error)) << error;
  EXPECT_EQ(id, 42u);

  // Un-stall and send query 43: the next frame on the wire must be 43's
  // hits — 42 was skipped, not answered late.
  util::ClearFailpoints();
  ASSERT_TRUE(SendAll(fd, BuildTopKFrameBytes(queries[1], 3, /*id=*/43)));
  ASSERT_EQ(serve::ReadFrame(fd, &type, &payload, &error),
            serve::ReadStatus::kFrame)
      << error;
  ASSERT_EQ(type, serve::FrameType::kHits);
  std::vector<core::SearchHit> hits;
  ASSERT_TRUE(serve::GetHits(payload, &id, &hits, &error)) << error;
  EXPECT_EQ(id, 43u);
  ExpectSameHits(hits, reference.TopK(queries[1], 3));
  ::close(fd);
  EXPECT_EQ(CounterValueOf(util::SnapshotMetrics(), "serve.cancelled") -
                cancelled_before,
            1u);
}

TEST_F(ServeTest, SlowWriterIsDisconnectedAtIoTimeoutWithoutStallingOthers) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(15, 181);
  const std::string index_path = TempPath("serve_slow.idx");
  SaveIndexSnapshot(model, features, index_path);
  core::SearchIndex reference(model);
  std::string error;
  ASSERT_TRUE(reference.Load(index_path, &error)) << error;
  const std::string socket_path = TempPath("serve_slow.sock");
  Harness harness(model, index_path, socket_path, /*workers=*/1,
                  /*batch_max=*/8, [](serve::ServerConfig* config) {
                    config->io_timeout_ms = 300;
                  });
  ASSERT_TRUE(harness.started());
  const auto queries = SyntheticFeatures(1, 182);
  const std::uint64_t timeouts_before =
      CounterValueOf(util::SnapshotMetrics(), "serve.io_timeouts");

  // The slow writer: a valid frame start, then silence. The reader's frame
  // assembly clock is armed by the first byte; the whole frame never
  // arrives, so at io_timeout_ms the daemon must cut the connection loose.
  const std::vector<std::uint8_t> frame = BuildTopKFrameBytes(queries[0], 3);
  const int slow_fd = ConnectRaw(socket_path);
  ASSERT_GE(slow_fd, 0);
  ASSERT_TRUE(SendAll(slow_fd, std::vector<std::uint8_t>(
                                   frame.begin(), frame.begin() + 40)));
  const auto start = std::chrono::steady_clock::now();

  // Meanwhile a healthy client on the same single-worker daemon is not
  // blocked behind the trickler.
  serve::Client healthy;
  ASSERT_TRUE(healthy.Connect(socket_path, &error)) << error;
  std::vector<core::SearchHit> hits;
  ASSERT_TRUE(healthy.TopK(queries[0], 3, &hits, &error)) << error;
  ExpectSameHits(hits, reference.TopK(queries[0], 3));

  // The slow connection gets an error reply and/or a close, well before
  // our 10 s recv timeout would call it a hang.
  std::uint8_t buffer[256];
  bool closed = false;
  for (int i = 0; i < 8 && !closed; ++i) {
    const ssize_t n = ::recv(slow_fd, buffer, sizeof(buffer), 0);
    if (n == 0) closed = true;
    ASSERT_FALSE(n < 0 && errno != EINTR) << "slow writer hung, not cut";
  }
  EXPECT_TRUE(closed);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 5000) << "disconnect was not bounded";
  EXPECT_GE(CounterValueOf(util::SnapshotMetrics(), "serve.io_timeouts") -
                timeouts_before,
            1u);
  ::close(slow_fd);

  // And the daemon still serves.
  ASSERT_TRUE(healthy.TopK(queries[0], 3, &hits, &error)) << error;
}

TEST_F(ServeTest, DrainWindowExpiryAnswersShuttingDown) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(15, 191);
  const std::string index_path = TempPath("serve_drainx.idx");
  SaveIndexSnapshot(model, features, index_path);
  const std::string socket_path = TempPath("serve_drainx.sock");
  auto harness = std::make_unique<Harness>(
      model, index_path, socket_path, /*workers=*/1, /*batch_max=*/1,
      [](serve::ServerConfig* config) { config->drain_timeout_ms = 30; });
  ASSERT_TRUE(harness->started());

  // Six queries against a worker that needs 250 ms per one-query batch and
  // a 30 ms drain window: the window must close with work still queued, and
  // every unanswered query gets an explicit kShuttingDown — not silence.
  Arm("serve.stall_worker=always");
  const std::uint64_t dropped_before =
      CounterValueOf(util::SnapshotMetrics(), "serve.drain_dropped");
  const auto queries = SyntheticFeatures(6, 192);
  const int fd = ConnectRaw(socket_path);
  ASSERT_GE(fd, 0);
  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(SendAll(fd, BuildTopKFrameBytes(queries[i], 3, 500 + i)));
  }
  // Make sure the queries are actually queued before pulling the plug.
  serve::Client probe;
  std::string error;
  ASSERT_TRUE(probe.Connect(socket_path, &error)) << error;
  for (int i = 0; i < 500; ++i) {
    serve::HealthInfo info;
    ASSERT_TRUE(probe.Health(&info, &error)) << error;
    if (info.queue_depth >= 4) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  harness.reset();  // RequestStop + join: the drain window runs and expires

  std::vector<bool> refused(queries.size(), false);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    serve::FrameType type = serve::FrameType::kPing;
    std::vector<std::uint8_t> payload;
    ASSERT_EQ(serve::ReadFrame(fd, &type, &payload, &error),
              serve::ReadStatus::kFrame)
        << error;
    ASSERT_EQ(type, serve::FrameType::kShuttingDown);
    std::uint64_t id = 0;
    ASSERT_TRUE(serve::GetControl(payload, &id, &error)) << error;
    ASSERT_GE(id, 500u);
    ASSERT_LT(id - 500, refused.size());
    EXPECT_FALSE(refused[id - 500]);
    refused[id - 500] = true;
  }
  ::close(fd);
  EXPECT_EQ(CounterValueOf(util::SnapshotMetrics(), "serve.drain_dropped") -
                dropped_before,
            queries.size());
}

// ---------------------------------------------------------------------------
// The retrying client

TEST_F(ServeTest, RetryBackoffIsSeededAndBounded) {
  util::Rng a(0), b(0);
  a.Reseed(42);
  b.Reseed(42);
  for (int attempt = 0; attempt < 10; ++attempt) {
    EXPECT_EQ(serve::RetryBackoffMs(10, 1000, attempt, &a),
              serve::RetryBackoffMs(10, 1000, attempt, &b))
        << "attempt " << attempt;
  }
  // Every draw lands in [full/2, full] where full = min(cap, base << n) —
  // jittered enough to spread a herd, floored enough to still back off.
  util::Rng c(0);
  c.Reseed(7);
  for (int attempt = 0; attempt < 48; ++attempt) {
    const std::uint64_t full =
        attempt >= 32 ? 1000
                      : std::min<std::uint64_t>(1000, 10ull << attempt);
    const std::uint64_t backoff = serve::RetryBackoffMs(10, 1000, attempt, &c);
    EXPECT_LE(backoff, full) << "attempt " << attempt;
    EXPECT_GE(backoff, full / 2) << "attempt " << attempt;
  }
}

TEST_F(ServeTest, ClientReconnectsAndRetriesAcrossDaemonRestart) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(15, 201);
  const std::string index_path = TempPath("serve_restart.idx");
  SaveIndexSnapshot(model, features, index_path);
  core::SearchIndex reference(model);
  std::string error;
  ASSERT_TRUE(reference.Load(index_path, &error)) << error;
  const std::string socket_path = TempPath("serve_restart.sock");
  const auto queries = SyntheticFeatures(2, 202);

  auto harness = std::make_unique<Harness>(model, index_path, socket_path,
                                           /*workers=*/1);
  ASSERT_TRUE(harness->started());
  serve::ClientOptions options;
  options.max_retries = 5;
  options.backoff_base_ms = 5;
  options.backoff_cap_ms = 20;
  options.retry_seed = 7;
  serve::Client client;
  ASSERT_TRUE(client.Connect(socket_path, options, &error)) << error;
  std::vector<core::SearchHit> hits;
  ASSERT_TRUE(client.TopK(queries[0], 3, &hits, &error)) << error;
  EXPECT_EQ(client.retries(), 0);

  // Restart the daemon under the client's feet. Its next query hits a dead
  // socket, reconnects, retries, and succeeds — bitwise-identically.
  harness.reset();
  harness = std::make_unique<Harness>(model, index_path, socket_path,
                                      /*workers=*/1);
  ASSERT_TRUE(harness->started());
  ASSERT_TRUE(client.TopK(queries[1], 3, &hits, &error)) << error;
  EXPECT_GE(client.retries(), 1);
  ExpectSameHits(hits, reference.TopK(queries[1], 3));
}

TEST_F(ServeTest, MutationsAreNeverRetriedButIdempotentOpsAre) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(10, 211);
  const std::string index_path = TempPath("serve_idem.idx");
  SaveIndexSnapshot(model, features, index_path);
  const std::string socket_path = TempPath("serve_idem.sock");
  Harness harness(model, index_path, socket_path, /*workers=*/1);
  ASSERT_TRUE(harness.started());

  serve::ClientOptions options;
  options.max_retries = 3;
  options.backoff_base_ms = 5;
  options.backoff_cap_ms = 20;
  std::string error;

  // The same injected fault both times: serve.accept=once makes the daemon
  // accept and immediately drop the connection, so the first exchange dies
  // in transport — exactly the ambiguity where a reload might still have
  // applied. The client must fail the mutation, not replay it.
  {
    Arm("serve.accept=once");
    serve::Client client;
    ASSERT_TRUE(client.Connect(socket_path, options, &error)) << error;
    EXPECT_FALSE(client.Reload(&error));
    EXPECT_EQ(client.retries(), 0) << "a mutation was retried";
  }

  // The identical fault against an idempotent op is retried to success.
  {
    Arm("serve.accept=once");
    serve::Client client;
    ASSERT_TRUE(client.Connect(socket_path, options, &error)) << error;
    EXPECT_TRUE(client.Ping(&error)) << error;
    EXPECT_GE(client.retries(), 1);
  }
}

TEST_F(ServeTest, HealthProbeReportsDaemonState) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(20, 221);
  const std::string index_path = TempPath("serve_health.idx");
  SaveIndexSnapshot(model, features, index_path);
  const std::string socket_path = TempPath("serve_health.sock");
  Harness harness(model, index_path, socket_path, /*workers=*/2);
  ASSERT_TRUE(harness.started());

  serve::Client client;
  std::string error;
  ASSERT_TRUE(client.Connect(socket_path, &error)) << error;
  serve::HealthInfo info;
  ASSERT_TRUE(client.Health(&info, &error)) << error;
  EXPECT_EQ(info.index_size, 20u);
  EXPECT_EQ(info.queue_depth, 0u);  // idle daemon
  EXPECT_EQ(info.connections, 1u);  // just us
  EXPECT_FALSE(info.draining);
}

TEST_F(ServeTest, MaxConnsRejectsTheExcessConnection) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(10, 231);
  const std::string index_path = TempPath("serve_conns.idx");
  SaveIndexSnapshot(model, features, index_path);
  const std::string socket_path = TempPath("serve_conns.sock");
  Harness harness(model, index_path, socket_path, /*workers=*/1,
                  /*batch_max=*/8, [](serve::ServerConfig* config) {
                    config->max_conns = 2;
                  });
  ASSERT_TRUE(harness.started());
  const std::uint64_t rejected_before =
      CounterValueOf(util::SnapshotMetrics(), "serve.conn_rejected");

  serve::Client first;
  serve::Client second;
  std::string error;
  ASSERT_TRUE(first.Connect(socket_path, &error)) << error;
  ASSERT_TRUE(first.Ping(&error)) << error;  // round trip = registered
  ASSERT_TRUE(second.Connect(socket_path, &error)) << error;
  ASSERT_TRUE(second.Ping(&error)) << error;

  // The third connection is told why and hung up on — not left dangling in
  // the accept backlog.
  const int fd = ConnectRaw(socket_path);
  ASSERT_GE(fd, 0);
  serve::FrameType type = serve::FrameType::kPing;
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(serve::ReadFrame(fd, &type, &payload, &error),
            serve::ReadStatus::kFrame)
      << error;
  EXPECT_EQ(type, serve::FrameType::kOverloaded);
  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // clean close after the reply
  ::close(fd);
  EXPECT_EQ(CounterValueOf(util::SnapshotMetrics(), "serve.conn_rejected") -
                rejected_before,
            1u);

  // Freeing a slot re-admits: close the first client and wait for its
  // reader to deregister, then a new client gets in.
  first.Close();
  for (int i = 0; i < 500; ++i) {
    serve::HealthInfo info;
    ASSERT_TRUE(second.Health(&info, &error)) << error;
    if (info.connections <= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  serve::Client third;
  ASSERT_TRUE(third.Connect(socket_path, &error)) << error;
  EXPECT_TRUE(third.Ping(&error)) << error;
}

// ---------------------------------------------------------------------------
// Per-request tracing & live telemetry (docs/OBSERVABILITY.md "Per-request
// tracing"): trace-id plumbing, wide-event request-log completeness, the
// health probe's totals and percentiles, and the slow-query capture.

int CountRecords(const std::vector<util::RequestRecord>& records,
                 const char* op, util::RequestOutcome outcome) {
  int count = 0;
  for (const util::RequestRecord& record : records) {
    if (std::strcmp(record.op, op) == 0 && record.outcome == outcome) ++count;
  }
  return count;
}

int CountOpRecords(const std::vector<util::RequestRecord>& records,
                   const char* op) {
  int count = 0;
  for (const util::RequestRecord& record : records) {
    if (std::strcmp(record.op, op) == 0) ++count;
  }
  return count;
}

// Records are cut AFTER the reply hits the wire, so a client that just read
// its reply may be microseconds ahead of the daemon's record. Poll for the
// expected count (~5s) instead of snapshotting immediately.
void AwaitRecordCount(const char* op, util::RequestOutcome outcome,
                      int want) {
  for (int i = 0; i < 500; ++i) {
    if (CountRecords(util::GlobalRequestLog().Snapshot(), op, outcome) >=
        want) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << op << "/" << util::RequestOutcomeName(outcome)
         << " never reached " << want << " records";
}

void AwaitOpRecordCount(const char* op, int want) {
  for (int i = 0; i < 500; ++i) {
    if (CountOpRecords(util::GlobalRequestLog().Snapshot(), op) >= want) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << op << " never reached " << want << " records";
}

TEST_F(ServeTest, TraceIdIsEchoedOnReplies) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(10, 251);
  const std::string index_path = TempPath("serve_echo.idx");
  SaveIndexSnapshot(model, features, index_path);
  const std::string socket_path = TempPath("serve_echo.sock");
  Harness harness(model, index_path, socket_path, /*workers=*/1);
  ASSERT_TRUE(harness.started());

  util::GlobalRequestLog().ResetForTest();
  const auto queries = SyntheticFeatures(1, 252);
  const std::uint64_t trace = 0xfeedbeefcafe0123ull;
  const int fd = ConnectRaw(socket_path);
  ASSERT_GE(fd, 0);
  std::string error;

  // Query replies echo the request's trace id byte-for-byte.
  ASSERT_TRUE(SendAll(fd, BuildTopKFrameBytes(queries[0], 3, /*id=*/7,
                                              /*deadline_ms=*/0, trace)));
  serve::FrameType type = serve::FrameType::kError;
  std::vector<std::uint8_t> reply;
  std::uint64_t reply_trace = 0;
  ASSERT_EQ(serve::ReadFrame(fd, &type, &reply, &error,
                             /*deadline_ms=*/nullptr, /*io_timeout_ms=*/0,
                             &reply_trace),
            serve::ReadStatus::kFrame)
      << error;
  EXPECT_EQ(type, serve::FrameType::kHits);
  EXPECT_EQ(reply_trace, trace);

  // Control replies echo it too (the reader path, not the worker path).
  store::ChunkBuilder ping;
  serve::PutControl(/*id=*/8, &ping);
  ASSERT_TRUE(SendAll(
      fd, BuildFrameBytes(serve::kServeMagic, serve::kProtocolVersion,
                          static_cast<std::uint32_t>(serve::FrameType::kPing),
                          ping, /*deadline_ms=*/0, trace + 1)));
  reply_trace = 0;
  ASSERT_EQ(serve::ReadFrame(fd, &type, &reply, &error,
                             /*deadline_ms=*/nullptr, /*io_timeout_ms=*/0,
                             &reply_trace),
            serve::ReadStatus::kFrame)
      << error;
  EXPECT_EQ(type, serve::FrameType::kPong);
  EXPECT_EQ(reply_trace, trace + 1);

  // An unknown frame type is answered kError with the echo, and cuts one
  // request record like every other frame. Type 8 is unassigned — the
  // health probe carries the telemetry — so it is as unknown as any other
  // number outside FrameType.
  const std::uint32_t unknown_types[] = {12345, 8};
  for (std::uint64_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(SendAll(
        fd, BuildFrameBytes(serve::kServeMagic, serve::kProtocolVersion,
                            unknown_types[i], ping, /*deadline_ms=*/0,
                            trace + 2 + i)));
    reply_trace = 0;
    ASSERT_EQ(serve::ReadFrame(fd, &type, &reply, &error,
                               /*deadline_ms=*/nullptr, /*io_timeout_ms=*/0,
                               &reply_trace),
              serve::ReadStatus::kFrame)
        << error;
    EXPECT_EQ(type, serve::FrameType::kError) << unknown_types[i];
    EXPECT_EQ(reply_trace, trace + 2 + i);
  }
  ::close(fd);
  // The record is cut after the reply is written: poll for it.
  const auto carrying_trace = [&](std::uint64_t want) {
    std::vector<util::RequestRecord> found;
    for (const util::RequestRecord& record :
         util::GlobalRequestLog().Snapshot()) {
      if (record.trace_id == want) found.push_back(record);
    }
    return found;
  };
  for (std::uint64_t i = 0; i < 2; ++i) {
    std::vector<util::RequestRecord> records = carrying_trace(trace + 2 + i);
    for (int poll = 0; poll < 500 && records.empty(); ++poll) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      records = carrying_trace(trace + 2 + i);
    }
    ASSERT_EQ(records.size(), 1u) << unknown_types[i];
    EXPECT_STREQ(records[0].op, "serve.unknown");
    EXPECT_EQ(records[0].outcome, util::RequestOutcome::kError);
  }
}

TEST_F(ServeTest, ClientRejectsARepliedTraceIdThatIsNotTheEcho) {
  // A fake daemon answers each ping with the right correlation id but the
  // wrong trace echo: 0 first, then trace + 1. Either way the frames are
  // crossed, and the client must fail the call instead of trusting it.
  const std::string socket_path = TempPath("serve_fake_peer.sock");
  ::unlink(socket_path.c_str());
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);
  for (const bool zero_echo : {true, false}) {
    serve::Client client;
    std::string error;
    ASSERT_TRUE(client.Connect(socket_path, &error)) << error;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(fd, 0);
    std::thread peer([fd, zero_echo] {
      serve::FrameType type = serve::FrameType::kError;
      std::vector<std::uint8_t> request;
      std::string peer_error;
      std::uint64_t trace = 0;
      std::uint64_t id = 0;
      if (serve::ReadFrame(fd, &type, &request, &peer_error, nullptr, 0,
                           &trace) == serve::ReadStatus::kFrame &&
          serve::GetControl(request, &id, &peer_error)) {
        store::ChunkBuilder pong;
        serve::PutControl(id, &pong);
        serve::WriteFrame(fd, serve::FrameType::kPong, pong, &peer_error, 0,
                          zero_echo ? 0 : trace + 1);
      }
      ::close(fd);
    });
    EXPECT_FALSE(client.Ping(&error)) << "zero_echo=" << zero_echo;
    peer.join();
    EXPECT_NE(error.find("frames crossed"), std::string::npos) << error;
  }
  ::close(listen_fd);
  ::unlink(socket_path.c_str());
}

TEST_F(ServeTest, HealthInfoPayloadMustEndAfterTheTotals) {
  serve::HealthInfo info;
  info.index_size = 20;
  info.queue_depth = 3;
  info.connections = 1;
  info.draining = true;
  info.uptime_ms = 1500;
  info.answered = 7;
  info.shed = 2;
  info.deadline_exceeded = 1;
  info.requests = 11;
  info.cancelled = 4;
  info.p50_nanos = 1000;
  info.p95_nanos = 2000;
  info.p99_nanos = 3000;
  store::ChunkBuilder full;
  serve::PutHealthInfo(9, info, &full);
  std::uint64_t id = 0;
  serve::HealthInfo parsed;
  std::string error;
  ASSERT_TRUE(serve::GetHealthInfo(full.bytes(), &id, &parsed, &error))
      << error;
  EXPECT_EQ(id, 9u);
  EXPECT_EQ(parsed.index_size, 20u);
  EXPECT_EQ(parsed.queue_depth, 3u);
  EXPECT_EQ(parsed.connections, 1u);
  EXPECT_TRUE(parsed.draining);
  EXPECT_EQ(parsed.uptime_ms, 1500u);
  EXPECT_EQ(parsed.answered, 7u);
  EXPECT_EQ(parsed.shed, 2u);
  EXPECT_EQ(parsed.deadline_exceeded, 1u);
  EXPECT_EQ(parsed.requests, 11u);
  EXPECT_EQ(parsed.cancelled, 4u);
  EXPECT_EQ(parsed.p50_nanos, 1000u);
  EXPECT_EQ(parsed.p95_nanos, 2000u);
  EXPECT_EQ(parsed.p99_nanos, 3000u);

  // The old eight-field payload, which ended after the deadline total: id,
  // index size, queue depth, connections, draining, uptime, answered, shed,
  // deadline-exceeded.
  store::ChunkBuilder old_payload;
  old_payload.PutU64(9);
  old_payload.PutU64(20);
  old_payload.PutU64(0);
  old_payload.PutU64(1);
  old_payload.PutU32(0);
  old_payload.PutU64(1500);
  old_payload.PutU64(7);
  old_payload.PutU64(2);
  old_payload.PutU64(1);
  EXPECT_FALSE(
      serve::GetHealthInfo(old_payload.bytes(), &id, &parsed, &error));

  store::ChunkBuilder trailing;
  serve::PutHealthInfo(9, info, &trailing);
  trailing.PutU8(0);
  error.clear();
  EXPECT_FALSE(serve::GetHealthInfo(trailing.bytes(), &id, &parsed, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST_F(ServeTest, ClientAndServerRecordsJoinOnTraceId) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(10, 261);
  const std::string index_path = TempPath("serve_join.idx");
  SaveIndexSnapshot(model, features, index_path);
  const std::string socket_path = TempPath("serve_join.sock");
  Harness harness(model, index_path, socket_path, /*workers=*/2);
  ASSERT_TRUE(harness.started());

  util::GlobalRequestLog().ResetForTest();
  serve::Client client;
  std::string error;
  ASSERT_TRUE(client.Connect(socket_path, &error)) << error;
  const auto queries = SyntheticFeatures(1, 262);
  std::vector<core::SearchHit> hits;
  ASSERT_TRUE(client.TopK(queries[0], 3, &hits, &error)) << error;
  AwaitRecordCount("serve.topk", util::RequestOutcome::kOk, 1);

  // Both sides run in this process, so both halves of the join land in the
  // same global ring: the client's per-attempt record and the daemon's
  // per-request record must carry the SAME nonzero trace id.
  const auto records = util::GlobalRequestLog().Snapshot();
  const util::RequestRecord* client_side = nullptr;
  const util::RequestRecord* server_side = nullptr;
  for (const util::RequestRecord& record : records) {
    if (std::strcmp(record.op, "client.topk") == 0) client_side = &record;
    if (std::strcmp(record.op, "serve.topk") == 0) server_side = &record;
  }
  ASSERT_NE(client_side, nullptr);
  ASSERT_NE(server_side, nullptr);
  EXPECT_NE(client_side->trace_id, 0u);
  EXPECT_EQ(client_side->trace_id, server_side->trace_id);
  EXPECT_EQ(client_side->outcome, util::RequestOutcome::kOk);
  EXPECT_STREQ(server_side->name, queries[0].name.c_str());
  EXPECT_STREQ(client_side->name, queries[0].name.c_str());
  // The attributed stage timings only exist server-side; the client's view
  // is the whole round trip.
  EXPECT_GE(server_side->batch_size, 1u);
  EXPECT_GT(server_side->scored_pairs, 0u);
  EXPECT_GT(client_side->reply_nanos, 0u);
}

TEST_F(ServeTest, RequestLogCompleteUnderShedDeadlineCancelAtEveryWorkerCount) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(15, 271);
  const std::string index_path = TempPath("serve_rlog.idx");
  SaveIndexSnapshot(model, features, index_path);
  const auto queries = SyntheticFeatures(12, 272);
  std::string error;

  for (const int workers : {1, 2, 8}) {
    util::GlobalRequestLog().ResetForTest();
    Arm("serve.stall_worker=always");
    const std::string socket_path =
        TempPath("serve_rlog" + std::to_string(workers) + ".sock");
    Harness harness(model, index_path, socket_path, workers, /*batch_max=*/1,
                    [](serve::ServerConfig* config) {
                      config->queue_high_water = 2;
                    });
    ASSERT_TRUE(harness.started());

    // Phase 1 — shed: a 12-query burst against stalled workers and a
    // 2-deep admission gate. Count answered vs shed off the wire, then
    // demand the ring holds exactly one record per query, each under the
    // outcome the wire reported. Nothing double-cut, nothing dropped.
    {
      const int fd = ConnectRaw(socket_path);
      ASSERT_GE(fd, 0);
      for (std::uint64_t i = 0; i < queries.size(); ++i) {
        ASSERT_TRUE(SendAll(fd, BuildTopKFrameBytes(queries[i], 3, 500 + i)));
      }
      int answered = 0;
      int shed = 0;
      for (std::size_t i = 0; i < queries.size(); ++i) {
        serve::FrameType type = serve::FrameType::kPing;
        std::vector<std::uint8_t> payload;
        ASSERT_EQ(serve::ReadFrame(fd, &type, &payload, &error),
                  serve::ReadStatus::kFrame)
            << "workers=" << workers << ": " << error;
        if (type == serve::FrameType::kHits) {
          ++answered;
        } else {
          ASSERT_EQ(type, serve::FrameType::kOverloaded)
              << "workers=" << workers;
          ++shed;
        }
      }
      ::close(fd);
      ASSERT_GT(answered, 0) << "workers=" << workers;
      ASSERT_GT(shed, 0) << "workers=" << workers;
      AwaitRecordCount("serve.topk", util::RequestOutcome::kOk, answered);
      AwaitRecordCount("serve.topk", util::RequestOutcome::kShed, shed);
      const auto records = util::GlobalRequestLog().Snapshot();
      EXPECT_EQ(CountRecords(records, "serve.topk", util::RequestOutcome::kOk),
                answered)
          << "workers=" << workers;
      EXPECT_EQ(
          CountRecords(records, "serve.topk", util::RequestOutcome::kShed),
          shed)
          << "workers=" << workers;
    }

    // Phase 2 — deadline: 1 ms budget vs a 250 ms stall. The expiry must
    // cut exactly one deadline_exceeded record.
    {
      const int fd = ConnectRaw(socket_path);
      ASSERT_GE(fd, 0);
      ASSERT_TRUE(SendAll(fd, BuildTopKFrameBytes(queries[0], 3, /*id=*/600,
                                                  /*deadline_ms=*/1)));
      serve::FrameType type = serve::FrameType::kPing;
      std::vector<std::uint8_t> payload;
      ASSERT_EQ(serve::ReadFrame(fd, &type, &payload, &error),
                serve::ReadStatus::kFrame)
          << "workers=" << workers << ": " << error;
      EXPECT_EQ(type, serve::FrameType::kDeadlineExceeded);
      ::close(fd);
      AwaitRecordCount("serve.topk", util::RequestOutcome::kDeadlineExceeded,
                       1);
      const auto records = util::GlobalRequestLog().Snapshot();
      EXPECT_EQ(CountRecords(records, "serve.topk",
                             util::RequestOutcome::kDeadlineExceeded),
                1)
          << "workers=" << workers;
      // A deadline record keeps its budget accounting: deadline armed,
      // slack spent (negative — it expired).
      for (const util::RequestRecord& record : records) {
        if (record.outcome == util::RequestOutcome::kDeadlineExceeded) {
          EXPECT_TRUE(record.has_deadline);
          EXPECT_LT(record.deadline_slack_nanos, 0);
        }
      }
    }

    // Phase 3 — cancel: queue four queries into the stall, vanish. Whether
    // a given query lands cancelled (admitted, then the disconnect epoch
    // bumped) or shed (queue already at the high-water mark) depends on how
    // fast a worker drains the queue — but the ACCOUNTING must be exact:
    // every query cuts exactly one record, and the per-outcome record
    // tallies must equal the authoritative counters. At least the first
    // query is always admitted (empty queue) and always cancelled (its
    // triage runs a full stall after the EOF bump).
    {
      const auto before_records = util::GlobalRequestLog().Snapshot();
      const int topk_before = CountOpRecords(before_records, "serve.topk");
      const int cancelled_rec_before = CountRecords(
          before_records, "serve.topk", util::RequestOutcome::kCancelled);
      const int shed_rec_before = CountRecords(before_records, "serve.topk",
                                               util::RequestOutcome::kShed);
      const auto counters_before = util::SnapshotMetrics();
      const int fd = ConnectRaw(socket_path);
      ASSERT_GE(fd, 0);
      for (std::uint64_t i = 0; i < 4; ++i) {
        ASSERT_TRUE(SendAll(fd, BuildTopKFrameBytes(queries[i], 3, 700 + i)));
      }
      ::close(fd);
      AwaitOpRecordCount("serve.topk", topk_before + 4);
      const auto records = util::GlobalRequestLog().Snapshot();
      const auto counters_after = util::SnapshotMetrics();
      EXPECT_EQ(CountOpRecords(records, "serve.topk"), topk_before + 4)
          << "workers=" << workers;
      const int cancelled_records =
          CountRecords(records, "serve.topk",
                       util::RequestOutcome::kCancelled) -
          cancelled_rec_before;
      const int shed_records =
          CountRecords(records, "serve.topk", util::RequestOutcome::kShed) -
          shed_rec_before;
      EXPECT_EQ(static_cast<std::uint64_t>(cancelled_records),
                CounterValueOf(counters_after, "serve.cancelled") -
                    CounterValueOf(counters_before, "serve.cancelled"))
          << "workers=" << workers;
      EXPECT_EQ(static_cast<std::uint64_t>(shed_records),
                CounterValueOf(counters_after, "serve.shed") -
                    CounterValueOf(counters_before, "serve.shed"))
          << "workers=" << workers;
      EXPECT_GE(cancelled_records, 1) << "workers=" << workers;
      EXPECT_EQ(cancelled_records + shed_records, 4)
          << "workers=" << workers;
      // The shed record keeps its query name even though admission moved
      // the request away before cutting it.
      for (const util::RequestRecord& record : records) {
        if (record.outcome == util::RequestOutcome::kShed) {
          EXPECT_EQ(std::strncmp(record.name, "fn", 2), 0)
              << "shed record lost its name";
        }
      }
    }
    util::ClearFailpoints();
  }
}

TEST_F(ServeTest, HealthProbeReportsCumulativeTotals) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(10, 291);
  const std::string index_path = TempPath("serve_totals.idx");
  SaveIndexSnapshot(model, features, index_path);
  const std::string socket_path = TempPath("serve_totals.sock");
  Harness harness(model, index_path, socket_path, /*workers=*/1);
  ASSERT_TRUE(harness.started());

  serve::Client client;
  std::string error;
  ASSERT_TRUE(client.Connect(socket_path, &error)) << error;
  serve::HealthInfo before;
  ASSERT_TRUE(client.Health(&before, &error)) << error;

  const auto queries = SyntheticFeatures(3, 292);
  std::vector<core::SearchHit> hits;
  for (const core::FunctionFeature& query : queries) {
    ASSERT_TRUE(client.TopK(query, 3, &hits, &error)) << error;
  }
  // The reply counter is bumped after the reply hits the wire, so a probe
  // can race the last increment by one tick; poll for the settled total.
  serve::HealthInfo after;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(client.Health(&after, &error)) << error;
    if (after.answered >= before.answered + 3) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(after.index_size, 10u);
  EXPECT_EQ(after.queue_depth, 0u);
  EXPECT_EQ(after.connections, 1u);
  // The totals are cumulative process counters (earlier tests in this
  // binary also served traffic), so assert floors, not exact values.
  EXPECT_GE(after.requests, before.requests + 3);
  EXPECT_GE(after.answered, before.answered + 3);
  EXPECT_GE(after.uptime_ms, before.uptime_ms);
  // Other tests may have shed or expired queries; this daemon saw clean
  // traffic only.
  EXPECT_EQ(after.shed, before.shed);
  EXPECT_EQ(after.deadline_exceeded, before.deadline_exceeded);
  // Three answered queries give serve.request_nanos real mass: the
  // percentile ladder must be populated and ordered.
  EXPECT_GT(after.p50_nanos, 0u);
  EXPECT_LE(after.p50_nanos, after.p95_nanos);
  EXPECT_LE(after.p95_nanos, after.p99_nanos);
}

TEST_F(ServeTest, SlowQueryCaptureSpillsAnsweredQueries) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(15, 301);
  const std::string index_path = TempPath("serve_slow.idx");
  SaveIndexSnapshot(model, features, index_path);
  const std::string socket_path = TempPath("serve_slow.sock");
  const std::string slow_log = TempPath("serve_slow.jsonl");
  ::unlink(slow_log.c_str());
  // Threshold 0 = every answered query spills, so the capture is
  // deterministic without having to manufacture a genuinely slow query.
  Harness harness(model, index_path, socket_path, /*workers=*/2,
                  /*batch_max=*/8, [&slow_log](serve::ServerConfig* config) {
                    config->slow_query_ms = 0;
                    config->slow_log_path = slow_log;
                  });
  ASSERT_TRUE(harness.started());

  serve::Client client;
  std::string error;
  ASSERT_TRUE(client.Connect(socket_path, &error)) << error;
  const auto queries = SyntheticFeatures(3, 302);
  std::vector<core::SearchHit> hits;
  for (const core::FunctionFeature& query : queries) {
    ASSERT_TRUE(client.TopK(query, 3, &hits, &error)) << error;
  }

  // The spill happens after the reply hits the wire; poll for it.
  std::vector<util::ParsedRequestRecord> records;
  int corrupt = 0;
  for (int i = 0; i < 500 && records.size() < queries.size(); ++i) {
    records.clear();
    corrupt = 0;
    util::ReadRequestLogFile(slow_log, &records, &corrupt, &error);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(records.size(), queries.size());
  EXPECT_EQ(corrupt, 0);
  for (const util::ParsedRequestRecord& record : records) {
    EXPECT_EQ(record.op, "serve.topk");
    EXPECT_EQ(record.outcome, "ok");
    EXPECT_NE(record.trace_id, 0u);  // minted by the client
    EXPECT_EQ(record.name.substr(0, 2), "fn");
    EXPECT_GT(record.batch_size, 0u);
    EXPECT_GT(record.scored_pairs, 0u);
    EXPECT_FALSE(record.has_deadline);
  }
}

// ---------------------------------------------------------------------------
// Reply framing and mixed dispatch batches

TEST_F(ServeTest, WriteFrameRefusesAnOverCapPayloadBeforeWriting) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
  store::ChunkBuilder oversized;
  oversized.PutString(std::string(serve::kMaxFramePayload, 'x'));
  ASSERT_GT(oversized.size(), serve::kMaxFramePayload);
  std::string error;
  EXPECT_FALSE(serve::WriteFrame(fds[0], serve::FrameType::kHits, oversized,
                                 &error));
  EXPECT_NE(error.find(std::to_string(serve::kMaxFramePayload)),
            std::string::npos)
      << error;
  // Not one byte went out: the next frame is the first on the stream.
  store::ChunkBuilder ping;
  serve::PutControl(/*id=*/9, &ping);
  ASSERT_TRUE(serve::WriteFrame(fds[0], serve::FrameType::kPing, ping, &error))
      << error;
  serve::FrameType type = serve::FrameType::kError;
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(serve::ReadFrame(fds[1], &type, &payload, &error),
            serve::ReadStatus::kFrame)
      << error;
  EXPECT_EQ(type, serve::FrameType::kPing);
  std::uint64_t id = 0;
  ASSERT_TRUE(serve::GetControl(payload, &id, &error)) << error;
  EXPECT_EQ(id, 9u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(ServeTest, OverCapHitsReplyIsAnErrorAndTheConnectionSurvives) {
  const core::AsteriaModel model(SmallModelConfig());
  // 300 entries with 60k-character names: every hit costs ~60 KB on the
  // wire, so matching them all needs a reply above the 16 MiB frame cap.
  auto features = SyntheticFeatures(300, 281);
  for (core::FunctionFeature& feature : features) {
    feature.name += "-" + std::string(60000, 'n');
  }
  const std::string index_path = TempPath("serve_overcap.idx");
  SaveIndexSnapshot(model, features, index_path);
  core::SearchIndex reference(model);
  std::string error;
  ASSERT_TRUE(reference.Load(index_path, &error)) << error;
  const std::string socket_path = TempPath("serve_overcap.sock");
  Harness harness(model, index_path, socket_path, /*workers=*/1);
  ASSERT_TRUE(harness.started());
  const auto queries = SyntheticFeatures(1, 282);

  const int fd = ConnectRaw(socket_path);
  ASSERT_GE(fd, 0);
  // Every score clears -1.0, so all 300 entries match.
  ASSERT_TRUE(SendAll(fd, BuildAboveThresholdFrameBytes(queries[0], -1.0,
                                                        /*id=*/11)));
  serve::FrameType type = serve::FrameType::kPing;
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(serve::ReadFrame(fd, &type, &payload, &error),
            serve::ReadStatus::kFrame)
      << error;
  ASSERT_EQ(type, serve::FrameType::kError);
  std::uint64_t id = 0;
  std::string message;
  ASSERT_TRUE(serve::GetError(payload, &id, &message, &error)) << error;
  EXPECT_EQ(id, 11u);
  EXPECT_NE(message.find("300 hits"), std::string::npos) << message;
  EXPECT_NE(message.find(std::to_string(serve::kMaxFramePayload)),
            std::string::npos)
      << message;

  // Same connection, still framed: a ping and a small query both answer.
  store::ChunkBuilder ping;
  serve::PutControl(/*id=*/12, &ping);
  ASSERT_TRUE(SendAll(
      fd, BuildFrameBytes(serve::kServeMagic, serve::kProtocolVersion,
                          static_cast<std::uint32_t>(serve::FrameType::kPing),
                          ping)));
  ASSERT_EQ(serve::ReadFrame(fd, &type, &payload, &error),
            serve::ReadStatus::kFrame)
      << error;
  EXPECT_EQ(type, serve::FrameType::kPong);
  ASSERT_TRUE(serve::GetControl(payload, &id, &error)) << error;
  EXPECT_EQ(id, 12u);
  ASSERT_TRUE(SendAll(fd, BuildTopKFrameBytes(queries[0], 3, /*id=*/13)));
  ASSERT_EQ(serve::ReadFrame(fd, &type, &payload, &error),
            serve::ReadStatus::kFrame)
      << error;
  ASSERT_EQ(type, serve::FrameType::kHits);
  std::vector<core::SearchHit> hits;
  ASSERT_TRUE(serve::GetHits(payload, &id, &hits, &error)) << error;
  EXPECT_EQ(id, 13u);
  ExpectSameHits(hits, reference.TopK(queries[0], 3));
  ::close(fd);
}

TEST_F(ServeTest, MixedTopKAndAboveThresholdBatchMatchesDirectCalls) {
  const core::AsteriaModel model(SmallModelConfig());
  const auto features = SyntheticFeatures(30, 291);
  const std::string index_path = TempPath("serve_mixed.idx");
  SaveIndexSnapshot(model, features, index_path);
  core::SearchIndex reference(model);
  std::string error;
  ASSERT_TRUE(reference.Load(index_path, &error)) << error;
  const std::string socket_path = TempPath("serve_mixed.sock");
  Harness harness(model, index_path, socket_path, /*workers=*/1,
                  /*batch_max=*/8);
  ASSERT_TRUE(harness.started());
  const auto queries = SyntheticFeatures(9, 292);

  // Hold the only worker on a first query, so the next eight queue up
  // behind it and coalesce into one batch holding both kinds.
  Arm("serve.stall_worker=once");
  const std::uint64_t requests_before =
      CounterValueOf(util::SnapshotMetrics(), "serve.requests");
  const int fd = ConnectRaw(socket_path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, BuildTopKFrameBytes(queries[0], 3, /*id=*/500)));
  AwaitCounterDelta("serve.requests", requests_before, 1);
  // Admission counts just before the push: give the push time to land,
  // then wait for the worker to pop the query into its stall.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  serve::Client probe;
  ASSERT_TRUE(probe.Connect(socket_path, &error)) << error;
  serve::HealthInfo health;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(probe.Health(&health, &error)) << error;
    if (health.queue_depth == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(health.queue_depth, 0u);

  // Eight pipelined frames, alternating kinds, each with its own trace id.
  constexpr std::uint64_t kTraceBase = 0x6d17ed0000000000ull;
  std::vector<std::vector<core::SearchHit>> expected(queries.size());
  expected[0] = reference.TopK(queries[0], 3);
  for (std::size_t i = 1; i < queries.size(); ++i) {
    const std::uint64_t id = 500 + i;
    if (i % 2 == 1) {
      const int k = 1 + static_cast<int>(i % 4);
      expected[i] = reference.TopK(queries[i], k);
      ASSERT_TRUE(SendAll(fd, BuildTopKFrameBytes(queries[i], k, id,
                                                  /*deadline_ms=*/0,
                                                  kTraceBase + i)));
    } else {
      const double threshold = 0.1 * static_cast<double>(i);
      expected[i] = reference.AboveThreshold(queries[i], threshold);
      ASSERT_TRUE(SendAll(fd, BuildAboveThresholdFrameBytes(
                                  queries[i], threshold, id, kTraceBase + i)));
    }
  }
  // One kHits per correlation id, bitwise equal to the direct call.
  std::vector<bool> seen(queries.size(), false);
  for (std::size_t r = 0; r < queries.size(); ++r) {
    serve::FrameType type = serve::FrameType::kPing;
    std::vector<std::uint8_t> payload;
    ASSERT_EQ(serve::ReadFrame(fd, &type, &payload, &error),
              serve::ReadStatus::kFrame)
        << error;
    ASSERT_EQ(type, serve::FrameType::kHits);
    std::uint64_t id = 0;
    std::vector<core::SearchHit> hits;
    ASSERT_TRUE(serve::GetHits(payload, &id, &hits, &error)) << error;
    ASSERT_GE(id, 500u);
    ASSERT_LT(id - 500, queries.size());
    EXPECT_FALSE(seen[id - 500]) << "id " << id << " answered twice";
    seen[id - 500] = true;
    ExpectSameHits(hits, expected[id - 500]);
  }
  ::close(fd);

  // The eight queued queries really were dispatched as one mixed batch.
  int batched = 0;
  for (int poll = 0; poll < 500 && batched < 8; ++poll) {
    batched = 0;
    for (const util::RequestRecord& record :
         util::GlobalRequestLog().Snapshot()) {
      if (record.trace_id > kTraceBase && record.trace_id <= kTraceBase + 8) {
        EXPECT_EQ(record.batch_size, 8u) << record.op;
        ++batched;
      }
    }
    if (batched < 8) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(batched, 8);
}

}  // namespace
}  // namespace asteria
