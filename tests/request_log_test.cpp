// Tests for the wide-event request log (src/util/request_log.h): the
// wait-free ring (wrap, concurrent appenders, seqlock snapshots), trace-id
// minting, and the CRC-line file framing shared by slow.jsonl and the
// --request_log_out dumps (docs/OBSERVABILITY.md "Per-request tracing").
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "crc_line_cases.h"
#include "util/crc_lines.h"
#include "util/request_log.h"

namespace asteria::util {
namespace {

using ::testing::TempDir;

std::string TempPath(const std::string& name) { return TempDir() + name; }

RequestRecord MakeRecord(std::uint64_t i) {
  RequestRecord record;
  record.trace_id = 0x1000 + i;
  record.end_nanos = static_cast<std::int64_t>(i);
  record.op = "serve.topk";
  record.outcome = RequestOutcome::kOk;
  record.batch_size = static_cast<std::uint32_t>(1 + i % 7);
  record.queue_wait_nanos = 10 * i;
  record.encode_nanos = 20 * i;
  record.score_nanos = 30 * i;
  record.reply_nanos = 40 * i;
  record.scored_pairs = i;
  record.pruned_pairs = 2 * i;
  record.SetName("fn" + std::to_string(i));
  return record;
}

class RequestLogTest : public ::testing::Test {
 protected:
  void SetUp() override { GlobalRequestLog().ResetForTest(); }
  void TearDown() override { GlobalRequestLog().ResetForTest(); }
};

TEST_F(RequestLogTest, AppendAndSnapshotRoundTrip) {
  RequestLog& log = GlobalRequestLog();
  for (std::uint64_t i = 0; i < 5; ++i) log.Append(MakeRecord(i));
  EXPECT_EQ(log.Appended(), 5u);

  const std::vector<RequestRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    const RequestRecord& record = records[i];  // oldest first
    EXPECT_EQ(record.trace_id, 0x1000 + i);
    EXPECT_STREQ(record.op, "serve.topk");
    EXPECT_EQ(record.outcome, RequestOutcome::kOk);
    EXPECT_EQ(record.batch_size, 1 + i % 7);
    EXPECT_EQ(record.queue_wait_nanos, 10 * i);
    EXPECT_EQ(record.encode_nanos, 20 * i);
    EXPECT_EQ(record.score_nanos, 30 * i);
    EXPECT_EQ(record.reply_nanos, 40 * i);
    EXPECT_EQ(record.scored_pairs, i);
    EXPECT_EQ(record.pruned_pairs, 2 * i);
    EXPECT_EQ(record.TotalNanos(), 100 * i);
    EXPECT_STREQ(record.name, ("fn" + std::to_string(i)).c_str());
  }
}

TEST_F(RequestLogTest, RingWrapKeepsTheNewestRecords) {
  RequestLog& log = GlobalRequestLog();
  const std::uint64_t total = RequestLog::kCapacity + 100;
  for (std::uint64_t i = 0; i < total; ++i) log.Append(MakeRecord(i));
  EXPECT_EQ(log.Appended(), total);

  const std::vector<RequestRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), RequestLog::kCapacity);
  // The 100 oldest were overwritten; what's left is [100, total), in order.
  EXPECT_EQ(records.front().trace_id, 0x1000 + 100);
  EXPECT_EQ(records.back().trace_id, 0x1000 + total - 1);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i].trace_id, records[i - 1].trace_id + 1);
  }
}

TEST_F(RequestLogTest, ConcurrentAppendersNeverTearRecords) {
  // TSan coverage for the seqlock: 8 writers hammer the ring while readers
  // snapshot mid-storm. Every surfaced record must be internally consistent
  // (all fields derived from the same i), never a mix of two writes.
  RequestLog& log = GlobalRequestLog();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 2000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&log, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        log.Append(MakeRecord(static_cast<std::uint64_t>(t) * kPerThread + i));
        if (i % 512 == 0) (void)log.Snapshot();  // readers race the writers
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(log.Appended(), kThreads * kPerThread);

  const std::vector<RequestRecord> records = log.Snapshot();
  EXPECT_LE(records.size(), RequestLog::kCapacity);
  EXPECT_GT(records.size(), 0u);
  for (const RequestRecord& record : records) {
    const std::uint64_t i = record.trace_id - 0x1000;
    EXPECT_LT(i, kThreads * kPerThread);
    EXPECT_EQ(record.queue_wait_nanos, 10 * i) << "torn record";
    EXPECT_EQ(record.reply_nanos, 40 * i) << "torn record";
    EXPECT_STREQ(record.name, ("fn" + std::to_string(i)).c_str());
  }
}

TEST_F(RequestLogTest, MintTraceIdIsNonzeroAndUnique) {
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t id = MintTraceId();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(seen.insert(id).second) << "duplicate trace id";
  }
}

TEST_F(RequestLogTest, SetNameTruncatesToTheRecordBudget) {
  RequestRecord record;
  record.SetName(std::string(200, 'x'));
  EXPECT_EQ(std::strlen(record.name), kRequestNameBytes - 1);
  record.SetName("short");
  EXPECT_STREQ(record.name, "short");  // shorter name fully replaces longer
}

TEST_F(RequestLogTest, FileRoundTripPreservesEveryField) {
  const std::string path = TempPath("reqlog_rt.jsonl");
  std::vector<RequestRecord> records;
  records.push_back(MakeRecord(3));
  // A record with the awkward bits: deadline armed, slack negative (already
  // expired), a name needing JSON escapes.
  RequestRecord hard = MakeRecord(4);
  hard.outcome = RequestOutcome::kDeadlineExceeded;
  hard.has_deadline = true;
  hard.deadline_slack_nanos = -123456789;
  hard.SetName("fn\"quoted\\path");
  records.push_back(hard);

  std::string error;
  ASSERT_TRUE(WriteRequestLogFile(path, records, &error)) << error;
  std::vector<ParsedRequestRecord> parsed;
  int corrupt = -1;
  ASSERT_TRUE(ReadRequestLogFile(path, &parsed, &corrupt, &error)) << error;
  EXPECT_EQ(corrupt, 0);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].trace_id, 0x1003u);
  EXPECT_EQ(parsed[0].op, "serve.topk");
  EXPECT_EQ(parsed[0].outcome, "ok");
  EXPECT_EQ(parsed[0].name, "fn3");
  EXPECT_EQ(parsed[0].batch_size, 4u);
  EXPECT_EQ(parsed[0].queue_wait_nanos, 30u);
  EXPECT_EQ(parsed[0].encode_nanos, 60u);
  EXPECT_EQ(parsed[0].score_nanos, 90u);
  EXPECT_EQ(parsed[0].reply_nanos, 120u);
  EXPECT_EQ(parsed[0].scored_pairs, 3u);
  EXPECT_EQ(parsed[0].pruned_pairs, 6u);
  EXPECT_FALSE(parsed[0].has_deadline);
  EXPECT_EQ(parsed[0].deadline_slack_nanos, 0);
  EXPECT_EQ(parsed[1].outcome, "deadline_exceeded");
  EXPECT_EQ(parsed[1].name, "fn\"quoted\\path");
  EXPECT_TRUE(parsed[1].has_deadline);
  EXPECT_EQ(parsed[1].deadline_slack_nanos, -123456789);
}

TEST_F(RequestLogTest, AppendAccumulatesAcrossBatches) {
  const std::string path = TempPath("reqlog_append.jsonl");
  ::unlink(path.c_str());
  std::string error;
  ASSERT_TRUE(AppendRequestRecords(path, {MakeRecord(1)}, &error)) << error;
  ASSERT_TRUE(AppendRequestRecords(path, {MakeRecord(2), MakeRecord(3)},
                                   &error))
      << error;
  EXPECT_TRUE(AppendRequestRecords(path, {}, &error));  // no-op, no file churn

  std::vector<ParsedRequestRecord> parsed;
  int corrupt = 0;
  ASSERT_TRUE(ReadRequestLogFile(path, &parsed, &corrupt, &error)) << error;
  EXPECT_EQ(corrupt, 0);
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0].trace_id, 0x1001u);
  EXPECT_EQ(parsed[2].trace_id, 0x1003u);
}

TEST_F(RequestLogTest, CorruptLinesAreCountedNotFatal) {
  const std::string path = TempPath("reqlog_corrupt.jsonl");
  const std::string good = RequestRecordLine(MakeRecord(9));
  std::string flipped = good;
  flipped[flipped.size() / 2] ^= 0x01;  // body no longer matches the CRC

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << good;
  out << "not a SLOW line at all\n";
  out << flipped;
  out << good;
  out << "SLOW zzzzzzzz {\"trace\":\"0\"}\n";  // unparseable CRC hex
  // Framed with their true CRC, but spelled other than the writer spells
  // them: strtoul/strtoull-style parsing would have accepted every one.
  const std::string good_json = good.substr(14, good.size() - 15);
  const auto respelled = [&](const std::string& from, const std::string& to) {
    std::string json = good_json;
    json.replace(json.find(from), from.size(), to);
    return CrcLine("SLOW", json);
  };
  std::vector<std::string> misspelled = {
      respelled("\"trace\":\"0000000000001009\"",
                "\"trace\":\"0x00000000001009\""),
      respelled("\"batch\":3", "\"batch\":-1"),
      respelled("\"batch\":3", "\"batch\":+3"),
      respelled("\"batch\":3", "\"batch\": 3"),
      respelled("\"slack_nanos\":0", "\"slack_nanos\":+0"),
      respelled("\"slack_nanos\":0", "\"slack_nanos\": -5"),
      CrcLine("ALRT", good_json),  // the alert log's tag
  };
  for (const std::string& line :
       MisspelledCrcLines("SLOW", [](int i) {
         const std::string line =
             RequestRecordLine(MakeRecord(static_cast<std::uint64_t>(i)));
         return line.substr(14, line.size() - 15);
       })) {
    misspelled.push_back(line);
  }
  for (const std::string& line : misspelled) out << line;
  out << good.substr(0, good.size() / 2);      // torn tail, no newline
  out.close();

  std::vector<ParsedRequestRecord> parsed;
  int corrupt = 0;
  std::string error;
  ASSERT_TRUE(ReadRequestLogFile(path, &parsed, &corrupt, &error)) << error;
  ASSERT_EQ(parsed.size(), 2u);  // the two intact lines
  EXPECT_EQ(corrupt, 4 + static_cast<int>(misspelled.size()));
  for (const ParsedRequestRecord& record : parsed) {
    EXPECT_EQ(record.trace_id, 0x1009u);
    EXPECT_EQ(record.name, "fn9");
  }

  // A missing file is the only fatal case.
  EXPECT_FALSE(
      ReadRequestLogFile(TempPath("reqlog_missing.jsonl"), &parsed, &corrupt,
                         &error));
}

}  // namespace
}  // namespace asteria::util
