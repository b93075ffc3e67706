#include "util/request_log.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "util/crc_lines.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace asteria::util {

namespace {

util::Counter c_records("request_log.records");
util::Counter c_snapshot_skipped("request_log.snapshot_skipped");

}  // namespace

const char* RequestOutcomeName(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kOk: return "ok";
    case RequestOutcome::kError: return "error";
    case RequestOutcome::kShed: return "shed";
    case RequestOutcome::kCancelled: return "cancelled";
    case RequestOutcome::kDeadlineExceeded: return "deadline_exceeded";
    case RequestOutcome::kShuttingDown: return "shutting_down";
  }
  return "unknown";
}

void RequestRecord::SetName(const std::string& value) {
  const std::size_t n =
      value.size() < kRequestNameBytes - 1 ? value.size()
                                           : kRequestNameBytes - 1;
  std::memcpy(name, value.data(), n);
  std::memset(name + n, 0, kRequestNameBytes - n);
}

RequestLog::RequestLog() : slots_(kCapacity) {}

void RequestLog::Append(const RequestRecord& record) {
  const std::uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq % kCapacity];
  // Seqlock write: version goes odd (acquire the slot in readers' eyes),
  // fields land relaxed, version goes even. Two writers lapping each other
  // onto the same slot can interleave stores — readers detect that because
  // the version moved — but that needs kCapacity appends during one write,
  // which the ring size makes unreachable in practice.
  slot.version.fetch_add(1, std::memory_order_acq_rel);
  slot.trace_id.store(record.trace_id, std::memory_order_relaxed);
  slot.end_nanos.store(record.end_nanos, std::memory_order_relaxed);
  slot.op.store(record.op, std::memory_order_relaxed);
  slot.outcome.store(static_cast<std::uint8_t>(record.outcome),
                     std::memory_order_relaxed);
  slot.batch_size.store(record.batch_size, std::memory_order_relaxed);
  slot.queue_wait_nanos.store(record.queue_wait_nanos,
                              std::memory_order_relaxed);
  slot.encode_nanos.store(record.encode_nanos, std::memory_order_relaxed);
  slot.score_nanos.store(record.score_nanos, std::memory_order_relaxed);
  slot.reply_nanos.store(record.reply_nanos, std::memory_order_relaxed);
  slot.scored_pairs.store(record.scored_pairs, std::memory_order_relaxed);
  slot.pruned_pairs.store(record.pruned_pairs, std::memory_order_relaxed);
  slot.has_deadline.store(record.has_deadline, std::memory_order_relaxed);
  slot.deadline_slack_nanos.store(record.deadline_slack_nanos,
                                  std::memory_order_relaxed);
  std::uint64_t words[kRequestNameBytes / 8];
  std::memcpy(words, record.name, sizeof(words));
  for (std::size_t w = 0; w < kRequestNameBytes / 8; ++w) {
    slot.name_words[w].store(words[w], std::memory_order_relaxed);
  }
  slot.version.fetch_add(1, std::memory_order_release);
  c_records.Increment();
}

std::vector<RequestRecord> RequestLog::Snapshot() const {
  const std::uint64_t total = next_.load(std::memory_order_acquire);
  const std::uint64_t first = total > kCapacity ? total - kCapacity : 0;
  std::vector<RequestRecord> records;
  records.reserve(static_cast<std::size_t>(total - first));
  for (std::uint64_t seq = first; seq < total; ++seq) {
    const Slot& slot = slots_[seq % kCapacity];
    RequestRecord record;
    bool stable = false;
    for (int attempt = 0; attempt < 4 && !stable; ++attempt) {
      const std::uint64_t before = slot.version.load(std::memory_order_acquire);
      if (before & 1) continue;  // writer inside
      // Acquire field loads keep the closing version load below after all
      // of them (a later load never moves above an acquire), which is what
      // a seqlock reader needs — ordered by the loads themselves rather
      // than a fence, so ThreadSanitizer checks it.
      record.trace_id = slot.trace_id.load(std::memory_order_acquire);
      record.end_nanos = slot.end_nanos.load(std::memory_order_acquire);
      record.op = slot.op.load(std::memory_order_acquire);
      record.outcome = static_cast<RequestOutcome>(
          slot.outcome.load(std::memory_order_acquire));
      record.batch_size = slot.batch_size.load(std::memory_order_acquire);
      record.queue_wait_nanos =
          slot.queue_wait_nanos.load(std::memory_order_acquire);
      record.encode_nanos = slot.encode_nanos.load(std::memory_order_acquire);
      record.score_nanos = slot.score_nanos.load(std::memory_order_acquire);
      record.reply_nanos = slot.reply_nanos.load(std::memory_order_acquire);
      record.scored_pairs = slot.scored_pairs.load(std::memory_order_acquire);
      record.pruned_pairs = slot.pruned_pairs.load(std::memory_order_acquire);
      record.has_deadline = slot.has_deadline.load(std::memory_order_acquire);
      record.deadline_slack_nanos =
          slot.deadline_slack_nanos.load(std::memory_order_acquire);
      std::uint64_t words[kRequestNameBytes / 8];
      for (std::size_t w = 0; w < kRequestNameBytes / 8; ++w) {
        words[w] = slot.name_words[w].load(std::memory_order_acquire);
      }
      std::memcpy(record.name, words, sizeof(words));
      stable = slot.version.load(std::memory_order_relaxed) == before &&
               before != 0;  // version 0 = never written
    }
    if (stable) {
      record.name[kRequestNameBytes - 1] = '\0';
      records.push_back(record);
    } else {
      c_snapshot_skipped.Increment();
    }
  }
  return records;
}

void RequestLog::ResetForTest() {
  next_.store(0, std::memory_order_relaxed);
  for (Slot& slot : slots_) {
    slot.version.store(0, std::memory_order_relaxed);
  }
}

RequestLog& GlobalRequestLog() {
  static RequestLog* log = new RequestLog;  // never destroyed
  return *log;
}

std::uint64_t MintTraceId() {
  static std::atomic<std::uint64_t> counter{0};
  static const std::uint64_t base =
      (static_cast<std::uint64_t>(::getpid()) << 32) ^
      static_cast<std::uint64_t>(TraceNowNanos());
  std::uint64_t x = base + counter.fetch_add(1, std::memory_order_relaxed);
  // SplitMix64 finalizer: a counter walk becomes a well-spread id stream.
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

// -- CRC-line framing (util/crc_lines.h) -----------------------------------

namespace {

constexpr const char* kRecordTag = "SLOW";

std::string RecordJson(const RequestRecord& record) {
  char trace[24];
  std::snprintf(trace, sizeof(trace), "%016llx",
                static_cast<unsigned long long>(record.trace_id));
  std::string json = "{\"trace\":\"";
  json += trace;
  json += "\",\"op\":";
  AppendJsonString(record.op, &json);
  json += ",\"outcome\":";
  AppendJsonString(RequestOutcomeName(record.outcome), &json);
  json += ",\"name\":";
  AppendJsonString(record.name, &json);
  json += ",\"batch\":" + std::to_string(record.batch_size);
  json += ",\"queue_wait_nanos\":" + std::to_string(record.queue_wait_nanos);
  json += ",\"encode_nanos\":" + std::to_string(record.encode_nanos);
  json += ",\"score_nanos\":" + std::to_string(record.score_nanos);
  json += ",\"reply_nanos\":" + std::to_string(record.reply_nanos);
  json += ",\"scored_pairs\":" + std::to_string(record.scored_pairs);
  json += ",\"pruned_pairs\":" + std::to_string(record.pruned_pairs);
  json += ",\"deadline\":" + std::string(record.has_deadline ? "1" : "0");
  json +=
      ",\"slack_nanos\":" + std::to_string(record.deadline_slack_nanos) + "}";
  return json;
}

bool ParseRecordJson(const std::string& json, ParsedRequestRecord* record) {
  JsonCursor in(json);
  std::uint64_t deadline = 0;
  if (!in.Expect("{\"trace\":") || !in.HexString(16, &record->trace_id) ||
      !in.Expect(",\"op\":") || !in.String(&record->op) ||
      !in.Expect(",\"outcome\":") || !in.String(&record->outcome) ||
      !in.Expect(",\"name\":") || !in.String(&record->name) ||
      !in.Expect(",\"batch\":") || !in.Unsigned(&record->batch_size) ||
      !in.Expect(",\"queue_wait_nanos\":") ||
      !in.Unsigned(&record->queue_wait_nanos) ||
      !in.Expect(",\"encode_nanos\":") || !in.Unsigned(&record->encode_nanos) ||
      !in.Expect(",\"score_nanos\":") || !in.Unsigned(&record->score_nanos) ||
      !in.Expect(",\"reply_nanos\":") || !in.Unsigned(&record->reply_nanos) ||
      !in.Expect(",\"scored_pairs\":") || !in.Unsigned(&record->scored_pairs) ||
      !in.Expect(",\"pruned_pairs\":") || !in.Unsigned(&record->pruned_pairs) ||
      !in.Expect(",\"deadline\":") || !in.Unsigned(&deadline) || deadline > 1 ||
      !in.Expect(",\"slack_nanos\":") ||
      !in.Signed(&record->deadline_slack_nanos) || !in.Expect("}")) {
    return false;
  }
  record->has_deadline = deadline == 1;
  return in.Done();
}

std::string RecordLines(const std::vector<RequestRecord>& records) {
  std::string lines;
  for (const RequestRecord& record : records) {
    lines += RequestRecordLine(record);
  }
  return lines;
}

}  // namespace

std::string RequestRecordLine(const RequestRecord& record) {
  return CrcLine(kRecordTag, RecordJson(record));
}

bool AppendRequestRecords(const std::string& path,
                          const std::vector<RequestRecord>& records,
                          std::string* error) {
  if (records.empty()) return true;
  return WriteCrcLines(path, RecordLines(records), /*append=*/true, error);
}

bool WriteRequestLogFile(const std::string& path,
                         const std::vector<RequestRecord>& records,
                         std::string* error) {
  return WriteCrcLines(path, RecordLines(records), /*append=*/false, error);
}

bool ReadRequestLogFile(const std::string& path,
                        std::vector<ParsedRequestRecord>* records,
                        int* corrupt_lines, std::string* error) {
  records->clear();
  return ReadCrcLines(
      path, kRecordTag, /*missing_ok=*/false,
      [records](const std::string& json) {
        ParsedRequestRecord record;
        if (!ParseRecordJson(json, &record)) return false;
        records->push_back(std::move(record));
        return true;
      },
      corrupt_lines, error);
}

}  // namespace asteria::util
