// asteria-serve wire protocol: length-prefixed binary frames over a
// Unix-domain stream socket (docs/SERVING.md for the full spec).
//
// The framing deliberately reuses the store::Container conventions —
// leading magic, explicit protocol version, per-frame CRC32 over the
// payload, and every scalar encoded little-endian byte by byte — so the
// same hostile-input posture applies on the wire as on disk: a frame is
// either validated end to end or rejected with a descriptive error, never
// partially trusted.
//
// Frame layout (40-byte header + payload):
//
//   offset  size  field
//   0       4     magic "ASRV" (FourCc, little-endian)
//   4       4     protocol version (kProtocolVersion; anything else is a
//                 framing violation)
//   8       4     frame type (FrameType)
//   12      4     CRC32 of the payload bytes
//   16      8     payload byte count (<= kMaxFramePayload)
//   24      8     deadline_ms — request-lifetime budget in milliseconds,
//                 relative to frame receipt (0 = no deadline): a server
//                 drops a query whose budget has expired by dequeue time
//                 instead of scoring it (kDeadlineExceeded).
//   32      8     trace_id — minted per wire attempt by serve::Client
//                 (util::MintTraceId), echoed verbatim on the reply, and
//                 stamped into both sides' wide-event request records
//                 (util/request_log.h) so a client-observed reply joins
//                 exactly one server record. 0 = untraced.
//   40      n     payload (store::ChunkBuilder / ChunkParser encoding)
//
// Request payloads carry a client-chosen u64 correlation id that the
// matching reply echoes, so a client may pipeline requests and a batched
// server may answer them in any order. The trace id is per *attempt* (a
// retry re-mints), the correlation id per logical request.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/asteria.h"
#include "core/search_index.h"
#include "store/container.h"

namespace asteria::serve {

inline constexpr std::uint32_t kServeMagic = store::FourCc('A', 'S', 'R', 'V');
inline constexpr std::uint32_t kProtocolVersion = 3;
inline constexpr std::uint32_t kFrameHeaderSize = 40;

// A declared payload larger than this is rejected before any allocation —
// the cap bounds what one hostile frame can make the daemon buffer.
inline constexpr std::uint64_t kMaxFramePayload = 16ull * 1024 * 1024;

// Ceiling on a header's deadline_ms: ReadFrame clamps larger values (up to
// 0xFFFFFFFFFFFFFFFF) to 30 days. A budget that long never expires in
// practice, and under it both the server's steady_clock deadline (now +
// milliseconds) and its nanosecond slack (ms * 1000000) stay far inside
// int64 — an unclamped hostile value would overflow both.
inline constexpr std::uint64_t kMaxDeadlineMs = 30ull * 24 * 60 * 60 * 1000;

enum class FrameType : std::uint32_t {
  // Requests.
  kTopK = 1,            // id, name, callee_count, k, tree
  kAboveThreshold = 2,  // id, name, callee_count, threshold (f64), tree
  kPing = 3,            // id
  kReload = 4,          // id — re-load the index snapshot and swap it in
  kShutdown = 5,        // id — stop the daemon after replying
  kCancel = 6,          // id of the pending query to cancel (best effort)
  kHealth = 7,          // id — liveness + load + telemetry probe
  // Replies.
  kHits = 16,   // id, hit count, (index, name, score) per hit
  kPong = 17,   // id
  kOk = 18,     // id
  kError = 19,  // id (0 when the request id was unparseable), message
  // Request-lifecycle replies. All carry just the id; each tells the
  // client *why* no kHits is coming, and whether a retry can help.
  kOverloaded = 20,        // shed at admission (queue past high water) or
                           // connection refused at --max_conns; retryable
  kDeadlineExceeded = 21,  // budget expired before scoring; not retryable
  kShuttingDown = 22,      // daemon draining past --drain_timeout_ms;
                           // retryable against a replacement daemon
  kHealthInfo = 23,  // id + HealthInfo
};

// Payload of a kHealthInfo reply: a daemon's load at a glance, and the
// cumulative totals `asteria-cli ctl top` differences between two probes
// into rates (the daemon keeps no time series of its own).
struct HealthInfo {
  std::uint64_t index_size = 0;   // entries in the served snapshot
  std::uint64_t queue_depth = 0;  // requests waiting for a worker
  std::uint64_t connections = 0;  // live client connections
  bool draining = false;          // true once shutdown has begun
  std::uint64_t uptime_ms = 0;    // since Server::Start()
  std::uint64_t answered = 0;     // query replies written (kHits)
  std::uint64_t shed = 0;         // admission-control rejections
  std::uint64_t deadline_exceeded = 0;  // dropped-at-dequeue queries
  std::uint64_t requests = 0;     // queries admitted (kTopK/kAboveThreshold)
  std::uint64_t cancelled = 0;    // queued queries skipped (client gone)
  // serve.request_nanos percentile estimates (util::HistogramValue), in
  // nanoseconds, rounded.
  std::uint64_t p50_nanos = 0;
  std::uint64_t p95_nanos = 0;
  std::uint64_t p99_nanos = 0;
};

// Outcome of reading one frame from a file descriptor.
enum class ReadStatus {
  kFrame,    // a complete, CRC-verified frame was read
  kClosed,   // clean end of stream before any header byte
  kBad,      // malformed input (bad magic/version/oversize/CRC/short read);
             // `error` describes it. The stream is unframed past this point.
  kTimeout,  // io_timeout_ms elapsed between a frame's first byte and its
             // last — a slow-loris peer. Same disposition as kBad, but
             // distinguishable so the server can count it separately.
};

// Reads exactly one frame. On kBad/kTimeout the connection should be
// answered with one best-effort kError frame and closed — after a framing
// violation the byte stream cannot be trusted to realign.
//
// `deadline_ms` and `trace_id`, when non-null, receive the header's
// deadline and trace fields. `io_timeout_ms > 0` arms the frame-assembly
// deadline: waiting for a frame to *start* is unbounded (idle connections
// are fine; the fd's SO_RCVTIMEO only paces the wait), but once the first
// byte arrives the whole frame must complete within io_timeout_ms or the
// read fails with kTimeout. With io_timeout_ms == 0 an EAGAIN from a
// socket-level timeout is an ordinary kBad (the client's posture).
ReadStatus ReadFrame(int fd, FrameType* type,
                     std::vector<std::uint8_t>* payload, std::string* error,
                     std::uint64_t* deadline_ms = nullptr,
                     int io_timeout_ms = 0,
                     std::uint64_t* trace_id = nullptr);

// Writes the header + payload, stamping `deadline_ms` and `trace_id` into
// the header (0 = no deadline / untraced; the deadline is only meaningful
// on request frames, the trace id on both — replies echo it). Returns
// false on any short or failed write (e.g. the peer vanished); writing
// never raises SIGPIPE. A payload above kMaxFramePayload is refused before
// any byte is written, so the stream stays framed.
bool WriteFrame(int fd, FrameType type, const store::ChunkBuilder& payload,
                std::string* error, std::uint64_t deadline_ms = 0,
                std::uint64_t trace_id = 0);

// -- Payload builders / parsers ---------------------------------------------
//
// Parsers validate everything against the payload bounds before allocating
// (declared node/hit counts vs. remaining bytes) and reject structurally
// invalid ASTs — out-of-range child ids, a node with two parents, a root
// that is someone's child — so a crafted query can never make the encoder
// walk garbage. GetX functions return false and fill `error`.

void PutQuery(std::uint64_t id, const core::FunctionFeature& query, int k,
              double threshold, FrameType type, store::ChunkBuilder* out);
bool GetQuery(const std::vector<std::uint8_t>& payload, FrameType type,
              std::uint64_t* id, core::FunctionFeature* query, int* k,
              double* threshold, std::string* error);

void PutHits(std::uint64_t id, const std::vector<core::SearchHit>& hits,
             store::ChunkBuilder* out);
bool GetHits(const std::vector<std::uint8_t>& payload, std::uint64_t* id,
             std::vector<core::SearchHit>* hits, std::string* error);

// kPing/kReload/kShutdown/kPong/kOk payload: just the id.
void PutControl(std::uint64_t id, store::ChunkBuilder* out);
bool GetControl(const std::vector<std::uint8_t>& payload, std::uint64_t* id,
                std::string* error);

void PutError(std::uint64_t id, const std::string& message,
              store::ChunkBuilder* out);
bool GetError(const std::vector<std::uint8_t>& payload, std::uint64_t* id,
              std::string* message, std::string* error);

// kHealthInfo payload: id + the HealthInfo fields in declaration order,
// nothing after them.
void PutHealthInfo(std::uint64_t id, const HealthInfo& info,
                   store::ChunkBuilder* out);
bool GetHealthInfo(const std::vector<std::uint8_t>& payload, std::uint64_t* id,
                   HealthInfo* info, std::string* error);

}  // namespace asteria::serve
