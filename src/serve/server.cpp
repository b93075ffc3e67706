#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <utility>

#include "util/failpoint.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/request_log.h"
#include "util/timer.h"
#include "util/trace.h"

namespace asteria::serve {

namespace {

// serve.accept: the accepted connection is dropped immediately (resource
// exhaustion at accept time). serve.read: the next frame read is treated as
// an I/O failure. serve.swap: injects a delay between loading the
// replacement index and publishing it — not a failure, a race-window
// widener for the swap-under-load tests (a stalled swap must never stall
// or tear in-flight queries).
util::Failpoint fp_accept("serve.accept");
util::Failpoint fp_read("serve.read");
util::Failpoint fp_swap("serve.swap");
// serve.stall_worker: a worker sleeps ~250ms before examining its batch —
// lets tests fill the queue deterministically (shed/cancel/expire all need
// requests to still be queued when something happens to them).
// serve.slow_reply: ~50ms sleep before each kHits write, for slow-reply /
// drain-window races.
util::Failpoint fp_stall_worker("serve.stall_worker");
util::Failpoint fp_slow_reply("serve.slow_reply");

// Deterministic slice (counts depend only on the session's requests, never
// on worker count or timing): accepted, requests, queries, replies, errors,
// reloads, reload shard split, index_size. Batch shapes and latencies are
// timing-dependent; scripts/check_serve.sh filters those.
util::Counter c_accepted("serve.accepted");
util::Counter c_accept_dropped("serve.accept_dropped");
util::Counter c_requests("serve.requests");
util::Counter c_control("serve.control");
util::Counter c_replies("serve.replies");
util::Counter c_errors("serve.errors");
util::Counter c_bad_frames("serve.bad_frames");
util::Counter c_read_failures("serve.read_failures");
util::Counter c_write_failures("serve.write_failures");
util::Counter c_reloads("serve.reloads");
// Per reload, the shards copied from the live snapshot versus read from
// disk (an INDX snapshot is one shard read): which reload path ran.
util::Counter c_reload_shards_reused("serve.reload_shards_reused");
util::Counter c_reload_shards_read("serve.reload_shards_read");
// Request-lifecycle counters (zero on a well-behaved session; the chaos
// gate drives each one deterministically — scripts/check_chaos.sh).
util::Counter c_shed("serve.shed");
util::Counter c_cancelled("serve.cancelled");
util::Counter c_deadline_exceeded("serve.deadline_exceeded");
util::Counter c_conn_rejected("serve.conn_rejected");
util::Counter c_io_timeouts("serve.io_timeouts");
util::Counter c_drain_dropped("serve.drain_dropped");
util::Histogram h_request_nanos("serve.request_nanos");
util::Histogram h_batch_requests("serve.batch_requests");
util::Histogram h_drain_nanos("serve.drain_nanos");
util::Gauge g_index_size("serve.index_size");

// Wide-event op name for a query frame (docs/OBSERVABILITY.md).
const char* QueryOpName(FrameType type) {
  return type == FrameType::kTopK ? "serve.topk" : "serve.above_threshold";
}

// Cuts a bare control/error record (no queue or scoring phases — those are
// filled by the query paths, which build their records by hand).
void CutControlRecord(std::uint64_t trace_id, const char* op,
                      util::RequestOutcome outcome,
                      std::uint64_t reply_nanos) {
  util::RequestRecord record;
  record.trace_id = trace_id;
  record.op = op;
  record.outcome = outcome;
  record.reply_nanos = reply_nanos;
  record.end_nanos = util::TraceNowNanos();
  util::GlobalRequestLog().Append(record);
}

}  // namespace

// One accepted client. The fd is owned here (closed by the destructor, so
// it stays valid for any queued request still holding the shared_ptr);
// writes from workers and the reader serialize on write_mu so reply frames
// never interleave bytes.
struct Server::Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  // Wakes a blocked reader with a clean EOF while leaving the write side
  // open — queued requests can still be answered during shutdown.
  void AbortReads() { ::shutdown(fd, SHUT_RD); }

  // Protocol violation or write failure: no further traffic either way.
  void CloseHard() {
    closed.store(true, std::memory_order_release);
    ::shutdown(fd, SHUT_RDWR);
  }

  // `trace_id` echoes the request's trace field on the reply frame so the
  // client's record for this attempt joins the server's.
  bool SendFrame(FrameType type, const store::ChunkBuilder& payload,
                 std::uint64_t trace_id = 0) {
    std::lock_guard<std::mutex> lock(write_mu);
    if (closed.load(std::memory_order_acquire)) return false;
    std::string error;
    if (!WriteFrame(fd, type, payload, &error, /*deadline_ms=*/0, trace_id)) {
      c_write_failures.Increment();
      closed.store(true, std::memory_order_release);
      ::shutdown(fd, SHUT_RDWR);
      return false;
    }
    return true;
  }

  bool SendError(std::uint64_t id, const std::string& message,
                 std::uint64_t trace_id = 0) {
    store::ChunkBuilder payload;
    PutError(id, message, &payload);
    c_errors.Increment();
    return SendFrame(FrameType::kError, payload, trace_id);
  }

  // Id-only reply (kOk / kOverloaded / kDeadlineExceeded / kShuttingDown).
  bool SendControl(FrameType type, std::uint64_t id,
                   std::uint64_t trace_id = 0) {
    store::ChunkBuilder payload;
    PutControl(id, &payload);
    return SendFrame(type, payload, trace_id);
  }

  // Explicit kCancel bookkeeping. The list is bounded (oldest evicted):
  // a cancel only matters while its query is queued, which a few dozen
  // slots comfortably cover, and a hostile peer spraying cancels must not
  // grow server memory.
  void Cancel(std::uint64_t id) {
    std::lock_guard<std::mutex> lock(cancel_mu);
    if (cancelled_ids.size() >= kMaxCancelledIds) cancelled_ids.pop_front();
    cancelled_ids.push_back(id);
  }

  bool IsCancelled(std::uint64_t id) {
    std::lock_guard<std::mutex> lock(cancel_mu);
    return std::find(cancelled_ids.begin(), cancelled_ids.end(), id) !=
           cancelled_ids.end();
  }

  static constexpr std::size_t kMaxCancelledIds = 64;

  const int fd;
  std::mutex write_mu;
  std::atomic<bool> closed{false};
  // Bumped when the reader observes a client disconnect (not a shutdown
  // drain). A queued Request carries the epoch at enqueue time; a mismatch
  // at dispatch means nobody is waiting for the answer.
  std::atomic<std::uint64_t> cancel_epoch{0};
  std::mutex cancel_mu;
  std::deque<std::uint64_t> cancelled_ids;
};

// One parsed, validated query waiting in the dispatch queue.
struct Server::Request {
  std::shared_ptr<Connection> conn;
  std::uint64_t id = 0;
  FrameType type = FrameType::kTopK;
  core::FunctionFeature query;
  int k = 0;
  double threshold = 0.0;
  std::uint64_t enqueue_epoch = 0;
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  std::uint64_t trace_id = 0;      // from the frame header (0 = untraced)
  std::int64_t enqueue_nanos = 0;  // TraceNowNanos() at admission
  // Reply-side observability, filled by DispatchBatch (in-struct rather
  // than in side arrays so the per-batch bookkeeping costs no allocations).
  std::uint64_t reply_nanos = 0;
  bool replied = false;
};

Server::Server(const core::AsteriaModel& model, const ServerConfig& config)
    : model_(model), config_(config) {}

Server::~Server() {
  // A started server must be Run() to completion (or never started); guard
  // against leaking the listen socket on a Start() that was never Run.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(config_.socket_path.c_str());
  }
}

std::shared_ptr<const core::SearchIndex> Server::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

bool Server::Start(std::string* error) {
  start_time_ = std::chrono::steady_clock::now();
  sockaddr_un addr{};
  if (config_.socket_path.empty() ||
      config_.socket_path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path '" + config_.socket_path +
             "' is empty or longer than sun_path allows (" +
             std::to_string(sizeof(addr.sun_path) - 1) + " bytes)";
    return false;
  }
  auto index = std::make_shared<core::SearchIndex>(
      model_, config_.score_threads < 1 ? 1 : config_.score_threads);
  if (!index->Open(config_.index_path, error)) return false;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(index);
  }
  g_index_size.Set(snapshot()->size());

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    *error = std::string("socket(): ") + std::strerror(errno);
    return false;
  }
  // A previous daemon that crashed leaves its socket file behind; binding
  // over it needs the unlink (a *live* daemon would still win the race to
  // accept, so this never hijacks one — the stale file is just an inode).
  ::unlink(config_.socket_path.c_str());
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, config_.socket_path.c_str(),
              config_.socket_path.size() + 1);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    *error = config_.socket_path + ": bind/listen failed: " +
             std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  queue_ = std::make_unique<util::MpmcQueue<Request>>(
      static_cast<std::size_t>(
          config_.queue_capacity < 1 ? 1 : config_.queue_capacity));
  const int workers = config_.workers < 1 ? 1 : config_.workers;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back(&Server::WorkerLoop, this);
  }
  started_.store(true, std::memory_order_release);
  ASTERIA_LOG(Info) << "asteria-serve: " << snapshot()->size()
                    << " entries from " << config_.index_path << ", "
                    << workers << " workers, batch_max=" << config_.batch_max
                    << ", listening on " << config_.socket_path;
  return true;
}

bool Server::Reload(std::string* error) {
  std::lock_guard<std::mutex> lock(reload_mu_);
  auto fresh = std::make_shared<core::SearchIndex>(
      model_, config_.score_threads < 1 ? 1 : config_.score_threads);
  // The live snapshot is the base: shards it already holds are copied from
  // memory and only the ones the manifest appended since are read. It is
  // only read here, so batches pinned on it keep scoring undisturbed.
  if (!fresh->Open(config_.index_path, error, snapshot().get())) return false;
  if (fp_swap.ShouldFail()) {
    // Delay, don't fail: hold the fully built replacement unpublished so
    // swap-under-load tests get a wide window where queries race the swap.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const int entries = fresh->size();
  const int reused = fresh->shards_reused();
  const int read = fresh->shards_read();
  g_index_size.Set(entries);
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(fresh);
  }
  c_reloads.Increment();
  c_reload_shards_reused.Add(static_cast<std::uint64_t>(reused));
  c_reload_shards_read.Add(static_cast<std::uint64_t>(read));
  ASTERIA_LOG(Info) << "asteria-serve: reloaded " << config_.index_path
                    << " (" << entries << " entries, " << reused
                    << " shards reused, " << read << " read)";
  return true;
}

void Server::AcceptLoop() {
  pollfd pfd{};
  pfd.fd = listen_fd_;
  pfd.events = POLLIN;
  while (!stop_.load(std::memory_order_acquire)) {
    if (reload_.exchange(false, std::memory_order_acq_rel)) {
      std::string error;
      if (!Reload(&error)) {
        ASTERIA_LOG(Warn) << "asteria-serve: SIGHUP reload failed, keeping "
                             "current snapshot: " << error;
      }
    }
    // Reap finished reader threads so a long-lived daemon's thread vector
    // tracks live connections, not historical ones.
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (std::size_t i = 0; i < readers_.size();) {
        if (conns_[i] == nullptr) {
          readers_[i].join();
          readers_.erase(readers_.begin() + static_cast<std::ptrdiff_t>(i));
          conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          ++i;
        }
      }
    }
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      ASTERIA_LOG(Error) << "asteria-serve: poll failed: "
                         << std::strerror(errno);
      break;
    }
    if (ready == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == ECONNABORTED) continue;
      ASTERIA_LOG(Error) << "asteria-serve: accept failed: "
                         << std::strerror(errno);
      break;
    }
    if (fp_accept.ShouldFail()) {
      c_accept_dropped.Increment();
      ::close(fd);
      continue;
    }
    if (config_.max_conns > 0 &&
        LiveConnections() >= static_cast<std::size_t>(config_.max_conns)) {
      // Full house: say why before hanging up, so the client can back off
      // and retry instead of seeing a bare connection reset.
      c_conn_rejected.Increment();
      store::ChunkBuilder payload;
      PutControl(0, &payload);
      std::string werr;
      WriteFrame(fd, FrameType::kOverloaded, payload, &werr);
      ::close(fd);
      continue;
    }
    if (config_.io_timeout_ms > 0) {
      // SO_RCVTIMEO paces the reader's recv wakeups (capped at 100ms so the
      // frame-assembly deadline is enforced promptly even against a peer
      // that goes fully silent); SO_SNDTIMEO bounds how long a worker can
      // be wedged writing a reply to a client that stopped reading.
      const int recv_ms = std::min(config_.io_timeout_ms, 100);
      timeval recv_tv{};
      recv_tv.tv_sec = recv_ms / 1000;
      recv_tv.tv_usec = static_cast<suseconds_t>((recv_ms % 1000) * 1000);
      timeval send_tv{};
      send_tv.tv_sec = config_.io_timeout_ms / 1000;
      send_tv.tv_usec =
          static_cast<suseconds_t>((config_.io_timeout_ms % 1000) * 1000);
      if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &recv_tv,
                       sizeof(recv_tv)) != 0 ||
          ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_tv,
                       sizeof(send_tv)) != 0) {
        ASTERIA_LOG(Warn) << "asteria-serve: setsockopt timeouts failed: "
                          << std::strerror(errno);
      }
    }
    c_accepted.Increment();
    auto conn = std::make_shared<Connection>(fd);
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
    readers_.emplace_back(&Server::ReaderLoop, this, std::move(conn));
  }
}

std::size_t Server::LiveConnections() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  std::size_t live = 0;
  for (const std::shared_ptr<Connection>& conn : conns_) {
    if (conn != nullptr) ++live;
  }
  return live;
}

std::uint64_t Server::UptimeMs() const {
  const auto elapsed = std::chrono::steady_clock::now() - start_time_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count());
}

void Server::Run() {
  AcceptLoop();
  // Teardown, in dependency order: stop accepting (done), wake blocked
  // readers with EOF — flagging draining_ first so their exits read as
  // shutdown, not client disconnects — give queued work the drain window,
  // then join everything and remove the socket.
  util::Timer drain_timer;
  draining_.store(true, std::memory_order_release);
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
    readers.swap(readers_);
  }
  for (const std::shared_ptr<Connection>& conn : conns) {
    if (conn != nullptr) conn->AbortReads();
  }
  for (std::thread& reader : readers) {
    reader.join();
  }
  // Drain window: wait up to drain_timeout_ms for workers to empty the
  // queue. Past the window, flip drain_expired_ so the remainder is
  // answered kShuttingDown — shutdown latency stays bounded no matter how
  // deep the backlog.
  const auto drain_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(
          config_.drain_timeout_ms < 0 ? 0 : config_.drain_timeout_ms);
  while (queue_->size() > 0 &&
         std::chrono::steady_clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (queue_->size() > 0) {
    drain_expired_.store(true, std::memory_order_release);
    ASTERIA_LOG(Warn) << "asteria-serve: drain window ("
                      << config_.drain_timeout_ms << " ms) closed with "
                      << queue_->size()
                      << " queued requests; answering kShuttingDown";
  }
  queue_->Close();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
  h_drain_nanos.Observe(static_cast<std::uint64_t>(drain_timer.ElapsedNanos()));
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(config_.socket_path.c_str());
  ASTERIA_LOG(Info) << "asteria-serve: stopped";
}

void Server::ReaderLoop(std::shared_ptr<Connection> conn) {
  // True when the loop ends because the peer went away (EOF, framing
  // violation, slow-loris timeout) rather than a kShutdown request.
  bool disconnected = false;
  for (;;) {
    if (fp_read.ShouldFail()) {
      c_read_failures.Increment();
      conn->SendError(0, "injected read failure (failpoint serve.read)");
      conn->CloseHard();
      CutControlRecord(0, "serve.read", util::RequestOutcome::kError, 0);
      disconnected = true;
      break;
    }
    FrameType type = FrameType::kPing;
    std::vector<std::uint8_t> payload;
    std::string error;
    std::uint64_t deadline_ms = 0;
    std::uint64_t trace_id = 0;
    const ReadStatus status =
        ReadFrame(conn->fd, &type, &payload, &error, &deadline_ms,
                  config_.io_timeout_ms, &trace_id);
    if (status == ReadStatus::kClosed) {
      disconnected = true;
      break;
    }
    if (status == ReadStatus::kBad || status == ReadStatus::kTimeout) {
      // The byte stream can't be re-framed after a violation: answer once
      // (best effort — the peer may already be gone) and hang up.
      if (status == ReadStatus::kTimeout) c_io_timeouts.Increment();
      c_bad_frames.Increment();
      conn->SendError(0, error);
      conn->CloseHard();
      CutControlRecord(0, "serve.read", util::RequestOutcome::kError, 0);
      disconnected = true;
      break;
    }
    if (!HandleFrame(conn, type, payload, deadline_ms, trace_id)) break;
  }
  // A disconnected client is no longer waiting: bump the epoch so workers
  // skip its queued queries before encoding them. A reader woken by the
  // shutdown drain must NOT bump — those queries still get answered.
  if (disconnected && !draining_.load(std::memory_order_acquire)) {
    conn->cancel_epoch.fetch_add(1, std::memory_order_acq_rel);
  }
  // Null the conns_ slot so the acceptor reaps this thread; the Connection
  // itself lives on in any queued Request until its reply is written.
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i] == conn) {
      conns_[i] = nullptr;
      break;
    }
  }
}

bool Server::HandleFrame(const std::shared_ptr<Connection>& conn,
                         FrameType type,
                         const std::vector<std::uint8_t>& payload,
                         std::uint64_t deadline_ms, std::uint64_t trace_id) {
  std::string error;
  std::uint64_t id = 0;
  switch (type) {
    case FrameType::kTopK:
    case FrameType::kAboveThreshold: {
      Request request;
      request.conn = conn;
      request.type = type;
      request.trace_id = trace_id;
      // A rejected query still cuts a wide-event record: shed and malformed
      // requests are exactly the ones a latency investigation needs to see.
      // The name lives outside `request` because a failed TryPush leaves
      // `request` moved-from — the shed record must still carry it.
      std::string record_name;
      const auto cut_admission_record = [&](util::RequestOutcome outcome,
                                            std::uint64_t reply_nanos) {
        util::RequestRecord record;
        record.trace_id = trace_id;
        record.op = QueryOpName(type);
        record.outcome = outcome;
        record.reply_nanos = reply_nanos;
        record.has_deadline = deadline_ms > 0;
        if (deadline_ms > 0) {
          record.deadline_slack_nanos =
              static_cast<std::int64_t>(deadline_ms) * 1000000;
        }
        record.SetName(record_name);
        record.end_nanos = util::TraceNowNanos();
        util::GlobalRequestLog().Append(record);
      };
      const bool query_parsed =
          GetQuery(payload, type, &request.id, &request.query, &request.k,
                   &request.threshold, &error);
      record_name = request.query.name;
      if (!query_parsed) {
        // Framing and CRC were fine, so the stream is still aligned: report
        // the malformed payload and keep the connection.
        conn->SendError(request.id, error, trace_id);
        cut_admission_record(util::RequestOutcome::kError, 0);
        return true;
      }
      if (request.query.tree.empty()) {
        conn->SendError(request.id, "query AST is empty", trace_id);
        cut_admission_record(util::RequestOutcome::kError, 0);
        return true;
      }
      if (type == FrameType::kTopK && request.k < 1) {
        conn->SendError(request.id,
                        "k must be >= 1, got " + std::to_string(request.k),
                        trace_id);
        cut_admission_record(util::RequestOutcome::kError, 0);
        return true;
      }
      if (type == FrameType::kAboveThreshold &&
          !std::isfinite(request.threshold)) {
        conn->SendError(request.id, "threshold must be finite", trace_id);
        cut_admission_record(util::RequestOutcome::kError, 0);
        return true;
      }
      request.enqueue_epoch =
          conn->cancel_epoch.load(std::memory_order_acquire);
      if (deadline_ms > 0) {
        request.has_deadline = true;
        request.deadline = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(deadline_ms);
      }
      request.enqueue_nanos = util::TraceNowNanos();
      c_requests.Increment();
      const std::uint64_t request_id = request.id;
      // Admission control: shed instead of block. A full queue means the
      // workers are already saturated — queueing deeper only grows latency
      // for everyone, so the honest answer is an immediate kOverloaded the
      // client can back off on.
      const std::size_t high_water =
          config_.queue_high_water < 1
              ? 0
              : static_cast<std::size_t>(config_.queue_high_water);
      if (!queue_->TryPush(std::move(request), high_water)) {
        if (queue_->closed()) {
          util::Timer reply_timer;
          conn->SendControl(FrameType::kShuttingDown, request_id, trace_id);
          cut_admission_record(
              util::RequestOutcome::kShuttingDown,
              static_cast<std::uint64_t>(reply_timer.ElapsedNanos()));
          return false;
        }
        c_shed.Increment();
        util::Timer reply_timer;
        conn->SendControl(FrameType::kOverloaded, request_id, trace_id);
        cut_admission_record(
            util::RequestOutcome::kShed,
            static_cast<std::uint64_t>(reply_timer.ElapsedNanos()));
      }
      return true;
    }
    case FrameType::kPing: {
      if (!GetControl(payload, &id, &error)) {
        conn->SendError(0, error, trace_id);
        CutControlRecord(trace_id, "serve.ping", util::RequestOutcome::kError,
                         0);
        return true;
      }
      c_control.Increment();
      store::ChunkBuilder reply;
      PutControl(id, &reply);
      util::Timer reply_timer;
      conn->SendFrame(FrameType::kPong, reply, trace_id);
      CutControlRecord(trace_id, "serve.ping", util::RequestOutcome::kOk,
                       static_cast<std::uint64_t>(reply_timer.ElapsedNanos()));
      return true;
    }
    case FrameType::kReload: {
      if (!GetControl(payload, &id, &error)) {
        conn->SendError(0, error, trace_id);
        CutControlRecord(trace_id, "serve.reload",
                         util::RequestOutcome::kError, 0);
        return true;
      }
      c_control.Increment();
      // Reload on the reader thread: only this connection waits for the
      // load; workers keep answering against the pinned old snapshot.
      if (!Reload(&error)) {
        conn->SendError(id, error, trace_id);
        CutControlRecord(trace_id, "serve.reload",
                         util::RequestOutcome::kError, 0);
        return true;
      }
      store::ChunkBuilder reply;
      PutControl(id, &reply);
      util::Timer reply_timer;
      conn->SendFrame(FrameType::kOk, reply, trace_id);
      CutControlRecord(trace_id, "serve.reload", util::RequestOutcome::kOk,
                       static_cast<std::uint64_t>(reply_timer.ElapsedNanos()));
      return true;
    }
    case FrameType::kShutdown: {
      if (!GetControl(payload, &id, &error)) {
        conn->SendError(0, error, trace_id);
        CutControlRecord(trace_id, "serve.shutdown",
                         util::RequestOutcome::kError, 0);
        return true;
      }
      c_control.Increment();
      store::ChunkBuilder reply;
      PutControl(id, &reply);
      util::Timer reply_timer;
      conn->SendFrame(FrameType::kOk, reply, trace_id);
      CutControlRecord(trace_id, "serve.shutdown", util::RequestOutcome::kOk,
                       static_cast<std::uint64_t>(reply_timer.ElapsedNanos()));
      RequestStop();
      return false;
    }
    case FrameType::kCancel: {
      if (!GetControl(payload, &id, &error)) {
        conn->SendError(0, error, trace_id);
        CutControlRecord(trace_id, "serve.cancel",
                         util::RequestOutcome::kError, 0);
        return true;
      }
      c_control.Increment();
      // Best effort by design: the query may already be scoring or
      // answered. The kOk acknowledges the *cancel request*, not that the
      // query was caught in time.
      conn->Cancel(id);
      util::Timer reply_timer;
      conn->SendControl(FrameType::kOk, id, trace_id);
      CutControlRecord(trace_id, "serve.cancel", util::RequestOutcome::kOk,
                       static_cast<std::uint64_t>(reply_timer.ElapsedNanos()));
      return true;
    }
    case FrameType::kHealth: {
      if (!GetControl(payload, &id, &error)) {
        conn->SendError(0, error, trace_id);
        CutControlRecord(trace_id, "serve.health",
                         util::RequestOutcome::kError, 0);
        return true;
      }
      c_control.Increment();
      HealthInfo info;
      info.index_size = snapshot()->size();
      info.queue_depth = queue_->size();
      info.connections = LiveConnections();
      info.draining = draining_.load(std::memory_order_acquire);
      info.uptime_ms = UptimeMs();
      info.answered = c_replies.Value();
      info.shed = c_shed.Value();
      info.deadline_exceeded = c_deadline_exceeded.Value();
      info.requests = c_requests.Value();
      info.cancelled = c_cancelled.Value();
      const util::HistogramValue latency = h_request_nanos.SnapshotValue();
      info.p50_nanos = static_cast<std::uint64_t>(latency.p50 + 0.5);
      info.p95_nanos = static_cast<std::uint64_t>(latency.p95 + 0.5);
      info.p99_nanos = static_cast<std::uint64_t>(latency.p99 + 0.5);
      store::ChunkBuilder reply;
      PutHealthInfo(id, info, &reply);
      util::Timer reply_timer;
      conn->SendFrame(FrameType::kHealthInfo, reply, trace_id);
      CutControlRecord(trace_id, "serve.health", util::RequestOutcome::kOk,
                       static_cast<std::uint64_t>(reply_timer.ElapsedNanos()));
      return true;
    }
    default:
      // One record per frame, unknown types included: the error reply is a
      // request outcome like any other.
      conn->SendError(0,
                      "unexpected frame type " +
                          std::to_string(static_cast<std::uint32_t>(type)),
                      trace_id);
      CutControlRecord(trace_id, "serve.unknown", util::RequestOutcome::kError,
                       0);
      return true;
  }
}

void Server::WorkerLoop() {
  Request request;
  while (queue_->Pop(&request)) {
    std::vector<Request> batch;
    batch.push_back(std::move(request));
    // Coalesce whatever queued since the last pass, up to batch_max; an
    // idle daemon dispatches singletons, a loaded one amortizes the index
    // sweep across the whole batch.
    const std::size_t batch_max = static_cast<std::size_t>(
        config_.batch_max < 1 ? 1 : config_.batch_max);
    while (batch.size() < batch_max && queue_->TryPop(&request)) {
      batch.push_back(std::move(request));
    }
    DispatchBatch(&batch);
  }
}

void Server::DispatchBatch(std::vector<Request>* batch) {
  h_batch_requests.Observe(batch->size());
  if (fp_stall_worker.ShouldFail()) {
    // Chaos hook: hold the batch so tests can deterministically disconnect,
    // cancel, or expire requests while they sit here.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }
  // Request-lifecycle triage, strictly before the expensive encode: a
  // request whose client is gone (disconnect epoch bumped, or the id
  // explicitly cancelled) is dropped silently; an expired deadline is
  // answered kDeadlineExceeded; past the drain window the remainder gets
  // kShuttingDown. Only survivors are scored. Every branch — including the
  // silent cancellation — cuts a wide-event record, so the request log is
  // complete even where the wire is quiet.
  const auto now = std::chrono::steady_clock::now();
  const std::int64_t now_nanos = util::TraceNowNanos();
  const auto cut_triage_record = [&](const Request& req,
                                     util::RequestOutcome outcome,
                                     std::uint64_t reply_nanos) {
    util::RequestRecord record;
    record.trace_id = req.trace_id;
    record.op = QueryOpName(req.type);
    record.outcome = outcome;
    record.batch_size = static_cast<std::uint32_t>(batch->size());
    record.queue_wait_nanos =
        now_nanos > req.enqueue_nanos
            ? static_cast<std::uint64_t>(now_nanos - req.enqueue_nanos)
            : 0;
    record.reply_nanos = reply_nanos;
    record.has_deadline = req.has_deadline;
    if (req.has_deadline) {
      record.deadline_slack_nanos =
          std::chrono::duration_cast<std::chrono::nanoseconds>(req.deadline -
                                                               now)
              .count();
    }
    record.SetName(req.query.name);
    record.end_nanos = util::TraceNowNanos();
    util::GlobalRequestLog().Append(record);
  };
  const bool drain_expired = drain_expired_.load(std::memory_order_acquire);
  std::vector<Request> live;
  live.reserve(batch->size());
  for (Request& req : *batch) {
    if (req.conn->closed.load(std::memory_order_acquire) ||
        req.conn->cancel_epoch.load(std::memory_order_acquire) !=
            req.enqueue_epoch ||
        req.conn->IsCancelled(req.id)) {
      c_cancelled.Increment();
      cut_triage_record(req, util::RequestOutcome::kCancelled, 0);
      continue;
    }
    if (req.has_deadline && now >= req.deadline) {
      c_deadline_exceeded.Increment();
      util::Timer reply_timer;
      req.conn->SendControl(FrameType::kDeadlineExceeded, req.id,
                            req.trace_id);
      cut_triage_record(req, util::RequestOutcome::kDeadlineExceeded,
                        static_cast<std::uint64_t>(reply_timer.ElapsedNanos()));
      continue;
    }
    if (drain_expired) {
      c_drain_dropped.Increment();
      util::Timer reply_timer;
      req.conn->SendControl(FrameType::kShuttingDown, req.id, req.trace_id);
      cut_triage_record(req, util::RequestOutcome::kShuttingDown,
                        static_cast<std::uint64_t>(reply_timer.ElapsedNanos()));
      continue;
    }
    live.push_back(std::move(req));
  }
  if (live.empty()) return;
  // Pin one snapshot for the whole batch: every query in it scores against
  // this index even if a reload publishes mid-flight.
  const std::shared_ptr<const core::SearchIndex> index = snapshot();
  // Per-live-slot observability: stage timings and pair tallies from the
  // scoring pass (reply write time and whether the reply reached the wire
  // live in the Request itself). The stats scratch is thread_local — one
  // instance per worker, reused across batches — so steady-state tracing
  // adds no allocations to the dispatch path.
  static thread_local std::vector<core::SearchIndex::QuerySearchStats>
      live_stats;
  live_stats.assign(live.size(), core::SearchIndex::QuerySearchStats{});
  // One scoring pass per query kind — TopK first, then AboveThreshold —
  // each answered before the next kind is scored. A reply the frame cap
  // cannot carry (a huge k, or a low threshold on a large index) is
  // answered with a kError naming the hit count instead: no reader could
  // accept the oversized frame, and the connection stays usable.
  static thread_local std::vector<core::SearchIndex::QuerySearchStats>
      kind_stats;
  for (const FrameType kind :
       {FrameType::kTopK, FrameType::kAboveThreshold}) {
    std::vector<const core::FunctionFeature*> queries;
    std::vector<int> ks;
    std::vector<double> thresholds;
    std::vector<std::size_t> slots;
    for (std::size_t i = 0; i < live.size(); ++i) {
      const Request& req = live[i];
      if (req.type != kind) continue;
      queries.push_back(&req.query);
      ks.push_back(req.k);
      thresholds.push_back(req.threshold);
      slots.push_back(i);
    }
    const std::vector<std::vector<core::SearchHit>> results =
        kind == FrameType::kTopK
            ? index->TopKBatch(queries, ks, &kind_stats)
            : index->AboveThresholdBatch(queries, thresholds, &kind_stats);
    for (std::size_t j = 0; j < slots.size(); ++j) {
      const std::size_t slot = slots[j];
      Request& req = live[slot];
      live_stats[slot] = kind_stats[j];
      store::ChunkBuilder reply;
      PutHits(req.id, results[j], &reply);
      if (fp_slow_reply.ShouldFail()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      const std::int64_t reply_start = util::TraceNowNanos();
      if (reply.size() > kMaxFramePayload) {
        req.conn->SendError(
            req.id,
            std::to_string(results[j].size()) + " hits need a " +
                std::to_string(reply.size()) + "-byte reply, over the " +
                std::to_string(kMaxFramePayload) +
                "-byte frame cap; raise the threshold or lower k",
            req.trace_id);
      } else {
        req.replied =
            req.conn->SendFrame(FrameType::kHits, reply, req.trace_id);
      }
      req.reply_nanos =
          static_cast<std::uint64_t>(util::TraceNowNanos() - reply_start);
      if (req.replied) c_replies.Increment();
    }
  }
  // One wide event per answered query, its attributed latency observed in
  // serve.request_nanos, and the slow-query spill: answered records whose
  // latency crosses --slow_query_ms go to slow_log_path in one O_APPEND
  // write for the whole batch.
  std::vector<util::RequestRecord> slow;
  const auto record_now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < live.size(); ++i) {
    const Request& req = live[i];
    util::RequestRecord record;
    record.trace_id = req.trace_id;
    record.op = QueryOpName(req.type);
    // A send that failed means the client vanished mid-reply, and an
    // over-cap reply was answered kError; the record says so instead of
    // claiming a clean answer.
    record.outcome = req.replied ? util::RequestOutcome::kOk
                                 : util::RequestOutcome::kError;
    record.batch_size = static_cast<std::uint32_t>(live.size());
    record.queue_wait_nanos =
        now_nanos > req.enqueue_nanos
            ? static_cast<std::uint64_t>(now_nanos - req.enqueue_nanos)
            : 0;
    record.encode_nanos = live_stats[i].encode_nanos;
    record.score_nanos = live_stats[i].score_nanos;
    record.reply_nanos = req.reply_nanos;
    record.scored_pairs = live_stats[i].scored_pairs;
    record.pruned_pairs = live_stats[i].pruned_pairs;
    record.has_deadline = req.has_deadline;
    if (req.has_deadline) {
      record.deadline_slack_nanos =
          std::chrono::duration_cast<std::chrono::nanoseconds>(req.deadline -
                                                               record_now)
              .count();
    }
    record.SetName(req.query.name);
    record.end_nanos = util::TraceNowNanos();
    util::GlobalRequestLog().Append(record);
    const std::uint64_t latency = record.TotalNanos();
    h_request_nanos.Observe(latency);
    if (config_.slow_query_ms >= 0 && !config_.slow_log_path.empty() &&
        latency >=
            static_cast<std::uint64_t>(config_.slow_query_ms) * 1000000) {
      slow.push_back(record);
    }
  }
  if (!slow.empty()) {
    std::string spill_error;
    if (!util::AppendRequestRecords(config_.slow_log_path, slow,
                                    &spill_error)) {
      ASTERIA_LOG(Warn) << "asteria-serve: slow-query spill to "
                        << config_.slow_log_path << " failed: " << spill_error;
    }
  }
}

}  // namespace asteria::serve
