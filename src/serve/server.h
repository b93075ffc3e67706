// asteria-serve: long-lived similarity query daemon (docs/SERVING.md).
//
// Loads an INDX snapshot once, then answers TopK / AboveThreshold queries
// over a Unix-domain stream socket speaking the serve::protocol framing.
// Internals:
//
//   acceptor ──> one reader thread per connection ──> bounded MpmcQueue
//                                                        │
//                              worker pool (N threads) <─┘
//
// Readers parse and validate frames (hostile input dies here, with a
// descriptive kError reply) and admit well-formed query requests into the
// bounded queue via TryPush — past --queue_high_water the query is shed
// immediately with a kOverloaded reply, so a flood degrades into fast
// rejections instead of unbounded queueing (docs/ROBUSTNESS.md "Overload
// & request lifecycle"). Workers pop one request, drain up to batch_max-1
// more without blocking, and dispatch the whole batch through
// SearchIndex::TopKBatch: one sweep over the index scores every coalesced
// query.
//
// Request lifecycle: each query may carry a deadline budget in its frame
// header; a worker that dequeues an already-expired query replies
// kDeadlineExceeded without encoding it. A reader that sees its client
// disconnect bumps the connection's cancellation epoch so the client's
// queued queries are skipped before the expensive encode; an explicit
// kCancel frame does the same for a single correlation id. Slow peers are
// bounded by --io_timeout_ms (SO_RCVTIMEO/SO_SNDTIMEO plus a
// frame-assembly deadline: a frame's first byte starts a clock its last
// byte must beat) and --max_conns (over-limit connects get kOverloaded,
// then close). SIGTERM drains: accepting stops, queued work gets
// --drain_timeout_ms to finish, and whatever remains is answered
// kShuttingDown rather than silently dropped.
//
// Snapshot swap: the index lives in a mutex-guarded shared_ptr (the lock
// covers only the pointer copy — see the snapshot_ comment below).
// Reload() builds the replacement off to the side and publishes it with a
// single pointer swap; workers pin the current snapshot once per batch, so
// in-flight queries finish against the index they started with — readers
// see the old index or the new one, never a torn mix — and the old
// snapshot frees itself when its last batch completes. Reload is triggered
// by a kReload control frame or by SIGHUP (RequestReload from the signal
// handler; the acceptor loop performs the swap on its next tick).
//
// Every stage is metered (serve.* counters/histograms, docs/SERVING.md
// lists the deterministic slice) and fault-injectable (serve.accept,
// serve.read, serve.swap failpoints).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/asteria.h"
#include "core/search_index.h"
#include "serve/protocol.h"
#include "util/mpmc_queue.h"

namespace asteria::serve {

struct ServerConfig {
  std::string socket_path;  // Unix-domain socket to bind (must fit sun_path)
  // INDX snapshot or MANI shard manifest (SearchIndex::Open dispatches on
  // the container kind); Start() loads it, Reload() re-loads — which is how
  // the streaming ingester makes freshly published shards queryable.
  std::string index_path;
  int workers = 1;          // dispatch worker threads
  int batch_max = 16;       // max queries coalesced into one scoring pass
  int queue_capacity = 256; // bounded request queue (backpressure)
  int score_threads = 1;    // ParallelFor width inside TopKBatch
  // Admission control: queries are shed (kOverloaded) once the queue holds
  // this many requests. 0 means shed only at queue_capacity.
  int queue_high_water = 0;
  // Slow-client bound: max milliseconds between a frame's first and last
  // byte, and the socket send timeout. 0 disables both (reads block
  // forever — test/debug only).
  int io_timeout_ms = 5000;
  // Connection cap: over-limit connects are greeted with kOverloaded and
  // closed. 0 means unlimited.
  int max_conns = 64;
  // Graceful drain: after stop, queued queries get this long to finish
  // before the remainder is answered kShuttingDown.
  int drain_timeout_ms = 2000;
  // Slow-query capture: an answered query whose attributed latency
  // (queue wait + encode + score + reply) reaches this many milliseconds
  // is spilled to slow_log_path as a CRC-framed "SLOW" line
  // (docs/FORMATS.md). 0 spills every answered query (test/debug);
  // negative disables the capture entirely.
  int slow_query_ms = -1;
  std::string slow_log_path;  // where slow queries spill (required if armed)
};

class Server {
 public:
  // The model must outlive the server (snapshots hold encodings produced by
  // its weights; the fingerprint check on load enforces the match).
  Server(const core::AsteriaModel& model, const ServerConfig& config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Loads the initial snapshot, binds + listens on the socket, and spawns
  // the worker pool. Returns false (with `error`) without leaving any
  // thread running on failure.
  bool Start(std::string* error);

  // Accept loop; blocks until RequestStop() (or a kShutdown frame), then
  // tears everything down: joins readers and workers, closes the socket,
  // unlinks the socket path. Safe to call exactly once after Start().
  void Run();

  // Async-signal-safe stop/reload triggers (atomic stores only). The
  // acceptor loop notices within one poll tick (~100ms).
  void RequestStop() { stop_.store(true, std::memory_order_release); }
  void RequestReload() { reload_.store(true, std::memory_order_release); }

  // Loads config.index_path into a fresh SearchIndex and atomically swaps
  // it in. In-flight batches keep the snapshot they pinned. Serialized
  // against concurrent Reload calls; the live index is untouched on error.
  bool Reload(std::string* error);

  // The currently published snapshot (what the next batch will score
  // against).
  std::shared_ptr<const core::SearchIndex> snapshot() const;

 private:
  struct Connection;
  struct Request;

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void WorkerLoop();
  void DispatchBatch(std::vector<Request>* batch);
  bool HandleFrame(const std::shared_ptr<Connection>& conn, FrameType type,
                   const std::vector<std::uint8_t>& payload,
                   std::uint64_t deadline_ms, std::uint64_t trace_id);
  std::size_t LiveConnections();
  std::uint64_t UptimeMs() const;

  const core::AsteriaModel& model_;
  const ServerConfig config_;

  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<bool> reload_{false};
  std::atomic<bool> started_{false};
  // Set at the start of teardown, before readers are woken with EOF: a
  // reader exiting while draining is shutdown, not a client disconnect, so
  // it must NOT cancel that client's queued work (shutdown drains it).
  std::atomic<bool> draining_{false};
  // Set when the drain window closes with work still queued: workers answer
  // the remainder kShuttingDown instead of scoring it.
  std::atomic<bool> drain_expired_{false};

  // The published snapshot. Guarded by snapshot_mu_, which is held only
  // for the pointer copy/assignment: workers pin once per batch and
  // reloads publish once, so the lock is off the per-query path. (Not
  // std::atomic<shared_ptr>: libstdc++ 12's _Sp_atomic::load releases its
  // internal lock bit with relaxed ordering, which leaves the pointer
  // read/write pair without a happens-before edge — TSan rightly flags
  // the publish racing a pin.)
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const core::SearchIndex> snapshot_;
  std::mutex reload_mu_;

  std::unique_ptr<util::MpmcQueue<Request>> queue_;
  std::vector<std::thread> workers_;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> readers_;

  std::chrono::steady_clock::time_point start_time_{};  // for UptimeMs()
};

}  // namespace asteria::serve
