// Wide-event request log: one structured record per request, appended
// lock-free from any thread into a fixed-size process-global ring
// (docs/OBSERVABILITY.md, "Per-request tracing").
//
// Where the metrics registry (util/metrics.h) answers "how is the process
// doing in aggregate", a RequestRecord answers "what happened to THIS
// query": which trace id, which op, how long it waited in the queue, how
// long encode and score took, what batch it rode in, how many candidate
// pairs were scored vs pruned, and how much deadline budget was left. The
// serve daemon appends one record per request frame (answered, shed,
// cancelled, deadline-exceeded, drained, or of an unknown type),
// serve::Client appends one per wire attempt, and ingest appends one per
// pipeline op — the two sides join on the trace id carried in the ASRV
// frame header (docs/SERVING.md).
//
// Hot-path contract: Append is wait-free — one relaxed fetch_add to claim a
// slot, then a seqlock-versioned field-by-field store (all fields atomic,
// so readers never race non-atomically; a slot overwritten mid-read is
// skipped, not torn). No mutex anywhere on the write path. Readers
// (Snapshot, the slow-query spill, --request_log_out dumps) are rare and
// may miss slots being concurrently rewritten — by design: this is a
// flight recorder, not a ledger. The determinism contract explicitly
// EXCLUDES request records: they are wall-clock shaped and never diffed by
// the check_*.sh gates.
//
// Record files are CRC-line files tagged SLOW, written and read by the
// codec alerts.jsonl uses (util/crc_lines.h, docs/FORMATS.md): append-only,
// one self-checking line per record, corrupt lines skipped and counted.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace asteria::util {

// How a traced request ended. Names (RequestOutcomeName) appear verbatim in
// slow.jsonl and request-log dumps, so scripts can grep them.
enum class RequestOutcome : std::uint8_t {
  kOk = 0,
  kError = 1,
  kShed = 2,
  kCancelled = 3,
  kDeadlineExceeded = 4,
  kShuttingDown = 5,
};

const char* RequestOutcomeName(RequestOutcome outcome);

// Bytes reserved per record for the request's name (query function name,
// ingest image basename); longer names are truncated, NUL-padded.
inline constexpr std::size_t kRequestNameBytes = 64;

// One wide event. `op` must be a string literal (like metric and failpoint
// names — the record keeps the pointer, never copies).
struct RequestRecord {
  std::uint64_t trace_id = 0;      // joins client and server records
  std::int64_t end_nanos = 0;      // TraceNowNanos() when the record was cut
  const char* op = "";             // "serve.topk", "client.topk", ...
  RequestOutcome outcome = RequestOutcome::kOk;
  std::uint32_t batch_size = 0;    // requests coalesced into the same batch
  std::uint64_t queue_wait_nanos = 0;  // enqueue -> dequeue
  std::uint64_t encode_nanos = 0;      // this query's AST encode
  std::uint64_t score_nanos = 0;       // the batch's shared scoring sweep
  std::uint64_t reply_nanos = 0;       // serialization + socket write
  std::uint64_t scored_pairs = 0;      // (query, column) pairs scored
  std::uint64_t pruned_pairs = 0;      // the rest of the index's entries
  bool has_deadline = false;
  // Deadline budget remaining when the record was cut; negative = already
  // past the deadline. Zero (with has_deadline false) for undeadlined ops.
  std::int64_t deadline_slack_nanos = 0;
  char name[kRequestNameBytes] = {};

  // Total attributed latency (queue wait + encode + score + reply).
  std::uint64_t TotalNanos() const {
    return queue_wait_nanos + encode_nanos + score_nanos + reply_nanos;
  }
  void SetName(const std::string& value);
};

// Fixed-capacity global ring of the most recent records.
class RequestLog {
 public:
  static constexpr std::size_t kCapacity = 4096;

  RequestLog();
  RequestLog(const RequestLog&) = delete;
  RequestLog& operator=(const RequestLog&) = delete;

  // Wait-free; overwrites the oldest slot once the ring is full.
  void Append(const RequestRecord& record);

  // Stable view of the current ring contents, oldest first. Slots being
  // concurrently rewritten are skipped (bounded retries), so under load the
  // result may hold slightly fewer than min(appended, kCapacity) records.
  std::vector<RequestRecord> Snapshot() const;

  // Total records ever appended (monotonic; not capped at kCapacity).
  std::uint64_t Appended() const {
    return next_.load(std::memory_order_relaxed);
  }

  void ResetForTest();

 private:
  // Every field atomic + seqlock version: writers flip version odd, store
  // fields relaxed, flip even; readers verify the version was stable and
  // even around their field loads. Plain (non-atomic) fields would be a
  // data race under TSan even though torn reads get discarded.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> version{0};  // odd while a writer is inside
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::int64_t> end_nanos{0};
    std::atomic<const char*> op{""};
    std::atomic<std::uint8_t> outcome{0};
    std::atomic<std::uint32_t> batch_size{0};
    std::atomic<std::uint64_t> queue_wait_nanos{0};
    std::atomic<std::uint64_t> encode_nanos{0};
    std::atomic<std::uint64_t> score_nanos{0};
    std::atomic<std::uint64_t> reply_nanos{0};
    std::atomic<std::uint64_t> scored_pairs{0};
    std::atomic<std::uint64_t> pruned_pairs{0};
    std::atomic<bool> has_deadline{false};
    std::atomic<std::int64_t> deadline_slack_nanos{0};
    std::atomic<std::uint64_t> name_words[kRequestNameBytes / 8];
  };

  std::atomic<std::uint64_t> next_{0};
  std::vector<Slot> slots_;
};

// The process-wide ring every producer appends to. Never destroyed (records
// may be cut during shutdown), same lifetime idiom as the metrics registry.
RequestLog& GlobalRequestLog();

// Process-unique nonzero trace id: a SplitMix64 stream seeded from the pid
// and the monotonic clock, stepped by an atomic counter. Uniqueness holds
// within a process run and collisions across processes are 2^-64-ish — good
// enough to join client and server records from one storm.
std::uint64_t MintTraceId();

// -- CRC-line framing (slow.jsonl, --request_log_out dumps) -----------------

// A record parsed back from a "SLOW" line. String fields replace the
// literal-pointer fields of RequestRecord; everything else matches.
struct ParsedRequestRecord {
  std::uint64_t trace_id = 0;
  std::string op;
  std::string outcome;
  std::string name;
  std::uint64_t batch_size = 0;
  std::uint64_t queue_wait_nanos = 0;
  std::uint64_t encode_nanos = 0;
  std::uint64_t score_nanos = 0;
  std::uint64_t reply_nanos = 0;
  std::uint64_t scored_pairs = 0;
  std::uint64_t pruned_pairs = 0;
  bool has_deadline = false;
  std::int64_t deadline_slack_nanos = 0;
};

// One self-checking line: "SLOW <8-hex lowercase crc32 of json> <json>\n".
std::string RequestRecordLine(const RequestRecord& record);

// Appends `records` to `path` as one O_APPEND write + fsync (at-least-once:
// a crash can duplicate a batch, never interleave or tear lines).
bool AppendRequestRecords(const std::string& path,
                          const std::vector<RequestRecord>& records,
                          std::string* error);

// Overwrites `path` with every record (the --request_log_out dump).
bool WriteRequestLogFile(const std::string& path,
                         const std::vector<RequestRecord>& records,
                         std::string* error);

// Reads a record log. Unterminated, CRC-mismatched, or unparseable lines
// (including any field spelled other than the writer spells it) are
// counted in `corrupt_lines` (may be null), never fatal; only a missing or
// unreadable file returns false.
bool ReadRequestLogFile(const std::string& path,
                        std::vector<ParsedRequestRecord>* records,
                        int* corrupt_lines, std::string* error);

}  // namespace asteria::util
