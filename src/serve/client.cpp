#include "serve/client.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "util/metrics.h"
#include "util/request_log.h"
#include "util/trace.h"

namespace asteria::serve {

namespace {

util::Counter c_retries("serve.retries");

bool SetSocketTimeout(int fd, int option, int timeout_ms, std::string* error) {
  if (timeout_ms <= 0) return true;
  timeval timeout{};
  timeout.tv_sec = timeout_ms / 1000;
  timeout.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  if (::setsockopt(fd, SOL_SOCKET, option, &timeout, sizeof(timeout)) != 0) {
    *error = std::string("setsockopt(") +
             (option == SO_RCVTIMEO ? "SO_RCVTIMEO" : "SO_SNDTIMEO") +
             "): " + std::strerror(errno);
    return false;
  }
  return true;
}

std::uint64_t ElapsedMs(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

std::uint64_t RetryBackoffMs(int backoff_base_ms, int backoff_cap_ms,
                             int attempt, util::Rng* rng) {
  const std::uint64_t base =
      backoff_base_ms < 1 ? 1 : static_cast<std::uint64_t>(backoff_base_ms);
  const std::uint64_t cap =
      backoff_cap_ms < 1 ? 1 : static_cast<std::uint64_t>(backoff_cap_ms);
  // base << attempt, saturating well before 64 shifts so huge attempt
  // counts can't wrap.
  std::uint64_t full = attempt >= 32 ? cap : base << attempt;
  if (full > cap) full = cap;
  // Jitter into [full/2, full]: enough spread to de-synchronize a thundering
  // herd, while keeping the floor high enough that backoff still backs off.
  const std::uint64_t half = full / 2;
  return half + static_cast<std::uint64_t>(
                    rng->NextDouble() * static_cast<double>(full - half));
}

bool Client::Connect(const std::string& socket_path,
                     const ClientOptions& options, std::string* error) {
  Close();
  socket_path_ = socket_path;
  options_ = options;
  rng_.Reseed(options.retry_seed);
  retries_ = 0;
  return ConnectFd(error);
}

bool Client::Connect(const std::string& socket_path, std::string* error,
                     int recv_timeout_seconds) {
  ClientOptions options;
  options.recv_timeout_ms = recv_timeout_seconds * 1000;
  options.send_timeout_ms = recv_timeout_seconds * 1000;
  return Connect(socket_path, options, error);
}

bool Client::ConnectFd(std::string* error) {
  sockaddr_un addr{};
  if (socket_path_.empty() || socket_path_.size() >= sizeof(addr.sun_path)) {
    *error = "socket path '" + socket_path_ + "' is empty or too long";
    return false;
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    *error = std::string("socket(): ") + std::strerror(errno);
    return false;
  }
  // Both timeouts are load-bearing: without SO_RCVTIMEO a wedged daemon
  // hangs our reads, without SO_SNDTIMEO a daemon that stopped reading
  // (full socket buffer) hangs our writes. A failed setsockopt is a failed
  // connect — silently proceeding would mean silently unbounded blocking.
  if (!SetSocketTimeout(fd_, SO_RCVTIMEO, options_.recv_timeout_ms, error) ||
      !SetSocketTimeout(fd_, SO_SNDTIMEO, options_.send_timeout_ms, error)) {
    Close();
    return false;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    *error = socket_path_ + ": connect failed: " + std::strerror(errno);
    Close();
    return false;
  }
  return true;
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Client::ExchangeResult Client::ExchangeOnce(
    FrameType request_type, const store::ChunkBuilder& payload,
    std::uint64_t id, FrameType expected_reply,
    std::uint64_t frame_deadline_ms, std::uint64_t trace_id, const char* op,
    const std::string& name, std::vector<std::uint8_t>* reply_payload,
    std::string* error) {
  // Every exit path below cuts exactly one wide-event record for this
  // attempt: the round trip lands in reply_nanos, the remaining deadline
  // budget (if any) in deadline_slack_nanos. One clock read per record —
  // the end stamp doubles as the round-trip endpoint.
  const std::int64_t attempt_start_nanos = util::TraceNowNanos();
  const auto cut_record = [&](util::RequestOutcome outcome) {
    util::RequestRecord record;
    record.trace_id = trace_id;
    record.op = op;
    record.outcome = outcome;
    record.end_nanos = util::TraceNowNanos();
    const std::int64_t attempt_nanos =
        record.end_nanos - attempt_start_nanos;
    record.reply_nanos = static_cast<std::uint64_t>(attempt_nanos);
    record.has_deadline = frame_deadline_ms > 0;
    if (frame_deadline_ms > 0) {
      record.deadline_slack_nanos =
          static_cast<std::int64_t>(frame_deadline_ms) * 1000000 -
          attempt_nanos;
    }
    record.SetName(name);
    util::GlobalRequestLog().Append(record);
  };
  if (fd_ < 0) {
    *error = "not connected";
    cut_record(util::RequestOutcome::kError);
    return ExchangeResult::kTransport;
  }
  if (!WriteFrame(fd_, request_type, payload, error, frame_deadline_ms,
                  trace_id)) {
    cut_record(util::RequestOutcome::kError);
    return ExchangeResult::kTransport;
  }
  // Replies to pipelined requests may arrive in any order; skip frames for
  // other ids (none today — this client is synchronous — but the protocol
  // allows it).
  for (;;) {
    FrameType reply_type = FrameType::kError;
    std::uint64_t reply_deadline_ms = 0;
    std::uint64_t reply_trace_id = 0;
    const ReadStatus status =
        ReadFrame(fd_, &reply_type, reply_payload, error, &reply_deadline_ms,
                  /*io_timeout_ms=*/0, &reply_trace_id);
    if (status == ReadStatus::kClosed) {
      *error = "daemon closed the connection before replying";
      cut_record(util::RequestOutcome::kError);
      return ExchangeResult::kTransport;
    }
    if (status != ReadStatus::kFrame) {
      cut_record(util::RequestOutcome::kError);
      return ExchangeResult::kTransport;
    }
    std::uint64_t reply_id = 0;
    std::string parse_error;
    if (!GetControl(*reply_payload, &reply_id, &parse_error)) {
      *error = "unparseable reply: " + parse_error;
      cut_record(util::RequestOutcome::kError);
      return ExchangeResult::kFailed;
    }
    if (reply_type == FrameType::kError) {
      std::string message;
      if (!GetError(*reply_payload, &reply_id, &message, &parse_error)) {
        *error = "unparseable error reply: " + parse_error;
        cut_record(util::RequestOutcome::kError);
        return ExchangeResult::kFailed;
      }
      *error = "daemon error: " + message;
      cut_record(util::RequestOutcome::kError);
      return ExchangeResult::kFailed;
    }
    if (reply_id != id) continue;
    // The daemon echoes the request's trace id on the reply; an echo that
    // disagrees means the frames are crossed — fail loudly rather than
    // trust the payload.
    if (reply_trace_id != trace_id) {
      *error = "reply trace id mismatch (frames crossed on the connection)";
      cut_record(util::RequestOutcome::kError);
      return ExchangeResult::kFailed;
    }
    if (reply_type == FrameType::kOverloaded) {
      *error = "daemon overloaded (query shed)";
      cut_record(util::RequestOutcome::kShed);
      return ExchangeResult::kRejected;
    }
    if (reply_type == FrameType::kShuttingDown) {
      *error = "daemon shutting down";
      cut_record(util::RequestOutcome::kShuttingDown);
      return ExchangeResult::kRejected;
    }
    if (reply_type == FrameType::kDeadlineExceeded) {
      // The budget is gone; a retry would only be answered the same way.
      *error = "deadline exceeded before the daemon scored the query";
      cut_record(util::RequestOutcome::kDeadlineExceeded);
      return ExchangeResult::kFailed;
    }
    if (reply_type != expected_reply) {
      *error = "unexpected reply frame type " +
               std::to_string(static_cast<std::uint32_t>(reply_type));
      cut_record(util::RequestOutcome::kError);
      return ExchangeResult::kFailed;
    }
    cut_record(util::RequestOutcome::kOk);
    return ExchangeResult::kOk;
  }
}

bool Client::Exchange(FrameType request_type,
                      const store::ChunkBuilder& payload, std::uint64_t id,
                      FrameType expected_reply, bool idempotent,
                      const char* op, const std::string& name,
                      std::vector<std::uint8_t>* reply_payload,
                      std::string* error) {
  const auto start = std::chrono::steady_clock::now();
  const int max_attempts = idempotent && options_.max_retries > 0
                               ? options_.max_retries + 1
                               : 1;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    // Each attempt gets only what's left of the overall budget; the daemon
    // sees the shrinking deadline in the frame header.
    std::uint64_t frame_deadline_ms = 0;
    if (options_.deadline_ms > 0) {
      const std::uint64_t elapsed = ElapsedMs(start);
      if (elapsed >= options_.deadline_ms) {
        *error = "deadline of " + std::to_string(options_.deadline_ms) +
                 " ms exhausted after " + std::to_string(attempt) +
                 " attempt(s): " + *error;
        return false;
      }
      frame_deadline_ms = options_.deadline_ms - elapsed;
    }
    if (fd_ < 0 && !ConnectFd(error)) {
      // Daemon not back yet; fall through to the backoff and try again.
    } else {
      // A fresh trace per attempt: each wire exchange is its own event on
      // both sides' request logs; the correlation id links the retries.
      const std::uint64_t trace_id = util::MintTraceId();
      const ExchangeResult result =
          ExchangeOnce(request_type, payload, id, expected_reply,
                       frame_deadline_ms, trace_id, op, name, reply_payload,
                       error);
      if (result == ExchangeResult::kOk) return true;
      if (result == ExchangeResult::kFailed) return false;
      // kTransport: this connection is done; reconnect on the next attempt.
      // kRejected: the daemon answered, the connection is still framed.
      if (result == ExchangeResult::kTransport) Close();
    }
    if (attempt + 1 >= max_attempts) return false;
    ++retries_;
    c_retries.Increment();
    const std::uint64_t backoff_ms = RetryBackoffMs(
        options_.backoff_base_ms, options_.backoff_cap_ms, attempt, &rng_);
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
  }
  return false;
}

bool Client::Query(FrameType type, const core::FunctionFeature& query, int k,
                   double threshold, std::vector<core::SearchHit>* hits,
                   std::string* error) {
  const std::uint64_t id = next_id_++;
  store::ChunkBuilder payload;
  PutQuery(id, query, k, threshold, type, &payload);
  const char* op = type == FrameType::kTopK ? "client.topk"
                                            : "client.above_threshold";
  std::vector<std::uint8_t> reply;
  if (!Exchange(type, payload, id, FrameType::kHits, /*idempotent=*/true, op,
                query.name, &reply, error)) {
    return false;
  }
  std::uint64_t reply_id = 0;
  return GetHits(reply, &reply_id, hits, error);
}

bool Client::TopK(const core::FunctionFeature& query, int k,
                  std::vector<core::SearchHit>* hits, std::string* error) {
  return Query(FrameType::kTopK, query, k, 0.0, hits, error);
}

bool Client::AboveThreshold(const core::FunctionFeature& query,
                            double threshold,
                            std::vector<core::SearchHit>* hits,
                            std::string* error) {
  return Query(FrameType::kAboveThreshold, query, 0, threshold, hits, error);
}

bool Client::Control(FrameType request_type, FrameType expected_reply,
                     bool idempotent, const char* op,
                     std::vector<std::uint8_t>* reply, std::string* error) {
  const std::uint64_t id = next_id_++;
  store::ChunkBuilder payload;
  PutControl(id, &payload);
  return Exchange(request_type, payload, id, expected_reply, idempotent, op,
                  /*name=*/std::string(), reply, error);
}

bool Client::Ping(std::string* error) {
  std::vector<std::uint8_t> reply;
  return Control(FrameType::kPing, FrameType::kPong, /*idempotent=*/true,
                 "client.ping", &reply, error);
}

bool Client::Health(HealthInfo* info, std::string* error) {
  std::vector<std::uint8_t> reply;
  if (!Control(FrameType::kHealth, FrameType::kHealthInfo,
               /*idempotent=*/true, "client.health", &reply, error)) {
    return false;
  }
  std::uint64_t reply_id = 0;
  return GetHealthInfo(reply, &reply_id, info, error);
}

bool Client::Reload(std::string* error) {
  // A reload observed-failed might still have applied (e.g. the kOk was
  // lost in a transport fault) — retrying could swap the snapshot twice
  // around a concurrent publish. Mutations get exactly one attempt.
  std::vector<std::uint8_t> reply;
  return Control(FrameType::kReload, FrameType::kOk, /*idempotent=*/false,
                 "client.reload", &reply, error);
}

bool Client::Shutdown(std::string* error) {
  std::vector<std::uint8_t> reply;
  return Control(FrameType::kShutdown, FrameType::kOk, /*idempotent=*/false,
                 "client.shutdown", &reply, error);
}

}  // namespace asteria::serve
