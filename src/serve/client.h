// Blocking client for the asteria-serve daemon (docs/SERVING.md).
//
// One connection, synchronous request/reply: every call writes one frame
// and reads frames until the reply echoing its correlation id arrives. A
// kError reply (or any transport/protocol fault) surfaces as false + a
// descriptive `error`; receive/send timeouts guard every read and write so
// a wedged or killed daemon can never hang the caller.
//
// Request lifecycle (docs/ROBUSTNESS.md "Overload & request lifecycle"):
// ClientOptions::deadline_ms stamps each request's frame header with the
// remaining budget and bounds the whole retry loop. With max_retries > 0,
// *idempotent* operations (TopK, AboveThreshold, Ping, Health) survive a
// daemon restart or a transient kOverloaded/kShuttingDown transparently:
// the client reconnects if the transport died, sleeps a jittered
// exponential backoff (seeded via util::Rng — deterministic in tests), and
// resends. Reload and Shutdown are mutations and are NEVER retried — a
// retry could apply them twice. kDeadlineExceeded and semantic kError
// replies are final, never retried.
//
// Used by `asteria-cli query --socket` / `asteria-cli ctl`, the serve test
// net, and bench/perf's query-topk and ingest-arrivals load.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/asteria.h"
#include "core/search_index.h"
#include "serve/protocol.h"
#include "util/rng.h"

namespace asteria::serve {

struct ClientOptions {
  int recv_timeout_ms = 60000;  // SO_RCVTIMEO per read (0 = unbounded)
  int send_timeout_ms = 60000;  // SO_SNDTIMEO per write (0 = unbounded)
  // Per-request budget in ms: stamped into the frame header (the daemon
  // drops the query if it expires before scoring) and enforced across the
  // whole retry loop (each attempt sends only the remaining budget).
  // 0 = no deadline.
  std::uint64_t deadline_ms = 0;
  // Extra attempts for idempotent operations after the first (0 = single
  // attempt, the pre-retry behavior).
  int max_retries = 0;
  int backoff_base_ms = 10;   // attempt n sleeps ~ base << n, jittered
  int backoff_cap_ms = 1000;  // ceiling on any single backoff sleep
  std::uint64_t retry_seed = 0;  // jitter rng seed (any fixed value is
                                 // deterministic; tests pin it)
};

// Backoff before retry `attempt` (0-based): min(cap, base << attempt),
// jittered to [half, full] by `rng`. Exposed for deterministic unit tests.
std::uint64_t RetryBackoffMs(int backoff_base_ms, int backoff_cap_ms,
                             int attempt, util::Rng* rng);

class Client {
 public:
  Client() = default;
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Connects to the daemon's Unix-domain socket with full options.
  bool Connect(const std::string& socket_path, const ClientOptions& options,
               std::string* error);

  // Shorthand: default options with both timeouts set to
  // `recv_timeout_seconds` (0 disables them).
  bool Connect(const std::string& socket_path, std::string* error,
               int recv_timeout_seconds = 60);

  void Close();
  bool connected() const { return fd_ >= 0; }

  // Retries performed since Connect (transport reconnects + backoff
  // resends), for tests and callers that report flakiness.
  std::uint64_t retries() const { return retries_; }

  bool TopK(const core::FunctionFeature& query, int k,
            std::vector<core::SearchHit>* hits, std::string* error);
  bool AboveThreshold(const core::FunctionFeature& query, double threshold,
                      std::vector<core::SearchHit>* hits, std::string* error);
  bool Ping(std::string* error);
  // kHealth probe: load, cumulative totals and latency percentiles (what
  // `asteria-cli ctl health` and `ctl top` print).
  bool Health(HealthInfo* info, std::string* error);
  bool Reload(std::string* error);
  bool Shutdown(std::string* error);

 private:
  // One attempt's outcome, driving the retry decision.
  enum class ExchangeResult {
    kOk,         // expected reply received
    kTransport,  // connection unusable (write/read failed, daemon gone):
                 // retryable after reconnect
    kRejected,   // daemon said kOverloaded/kShuttingDown: retryable after
                 // backoff, connection still good
    kFailed,     // final answer (kError, kDeadlineExceeded, protocol
                 // violation): never retried
  };

  bool ConnectFd(std::string* error);
  // One wire attempt. Mints nothing itself: `trace_id` is this attempt's
  // already-minted trace (stamped into the header; the reply must echo it
  // exactly or the attempt fails). `op`/`name` label the wide-event record the
  // attempt cuts into util::GlobalRequestLog() — one record per attempt,
  // whatever the outcome, so the client-side request log mirrors the
  // daemon's (docs/OBSERVABILITY.md).
  ExchangeResult ExchangeOnce(FrameType request_type,
                              const store::ChunkBuilder& payload,
                              std::uint64_t id, FrameType expected_reply,
                              std::uint64_t frame_deadline_ms,
                              std::uint64_t trace_id, const char* op,
                              const std::string& name,
                              std::vector<std::uint8_t>* reply_payload,
                              std::string* error);
  // Full retry loop around ExchangeOnce; a fresh trace id is minted per
  // attempt (a retry is a new wire event — the correlation id, not the
  // trace id, ties the attempts together). `idempotent` gates every retry:
  // false means exactly one attempt, whatever happens.
  bool Exchange(FrameType request_type, const store::ChunkBuilder& payload,
                std::uint64_t id, FrameType expected_reply, bool idempotent,
                const char* op, const std::string& name,
                std::vector<std::uint8_t>* reply_payload, std::string* error);
  bool Query(FrameType type, const core::FunctionFeature& query, int k,
             double threshold, std::vector<core::SearchHit>* hits,
             std::string* error);
  bool Control(FrameType request_type, FrameType expected_reply,
               bool idempotent, const char* op,
               std::vector<std::uint8_t>* reply, std::string* error);

  int fd_ = -1;
  std::uint64_t next_id_ = 1;
  std::string socket_path_;
  ClientOptions options_;
  util::Rng rng_{0};
  std::uint64_t retries_ = 0;
};

}  // namespace asteria::serve
