// Tests for the metrics registry and trace spans (src/util/metrics.h,
// src/util/trace.h): histogram bucket boundaries, snapshot determinism
// under ThreadPool at 1/2/8 threads, span nesting and cross-thread merge,
// JSON shape, pipeline-report publication, and failpoint trip counters.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/pipeline_report.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/trace.h"

namespace asteria::util {
namespace {

// Metrics under test are namespace-scope statics, exactly as production
// code declares them. ResetMetricsForTest() isolates the test cases.
Counter t_counter("test.counter");
Gauge t_gauge("test.gauge");
Histogram t_histogram("test.histogram");
Failpoint t_failpoint("test.metrics_failpoint");

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ResetMetricsForTest();
    ClearFailpoints();
  }
  void TearDown() override {
    ResetMetricsForTest();
    ClearFailpoints();
  }
};

const CounterValue* FindCounter(const MetricsSnapshot& snapshot,
                                const std::string& name) {
  for (const CounterValue& counter : snapshot.counters) {
    if (counter.name == name) return &counter;
  }
  return nullptr;
}

const HistogramValue* FindHistogram(const MetricsSnapshot& snapshot,
                                    const std::string& name) {
  for (const HistogramValue& histogram : snapshot.histograms) {
    if (histogram.name == name) return &histogram;
  }
  return nullptr;
}

const StageTiming* FindSpan(const MetricsSnapshot& snapshot,
                            const std::string& stage) {
  for (const StageTiming& span : snapshot.spans) {
    if (span.stage == stage) return &span;
  }
  return nullptr;
}

TEST_F(MetricsTest, HistogramBucketBoundaries) {
  // Bucket 0 holds exactly the value 0; bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(7), 3);
  EXPECT_EQ(Histogram::BucketIndex(8), 4);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11);
  EXPECT_EQ(Histogram::BucketIndex(~std::uint64_t{0}), 64);

  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(Histogram::BucketLowerBound(2), 2u);
  EXPECT_EQ(Histogram::BucketLowerBound(3), 4u);
  EXPECT_EQ(Histogram::BucketLowerBound(64), std::uint64_t{1} << 63);

  // Every value lands in the bucket whose range contains it.
  for (int bucket = 1; bucket < Histogram::kBuckets; ++bucket) {
    const std::uint64_t lo = Histogram::BucketLowerBound(bucket);
    EXPECT_EQ(Histogram::BucketIndex(lo), bucket) << "bucket " << bucket;
    EXPECT_EQ(Histogram::BucketIndex(lo + (lo - 1)), bucket)
        << "bucket " << bucket;
  }
}

TEST_F(MetricsTest, HistogramSnapshotValues) {
  t_histogram.Observe(0);
  t_histogram.Observe(1);
  t_histogram.Observe(5);
  t_histogram.Observe(5);
  t_histogram.Observe(300);

  const MetricsSnapshot snapshot = SnapshotMetrics();
  const HistogramValue* h = FindHistogram(snapshot, "test.histogram");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 5u);
  EXPECT_EQ(h->sum, 311u);
  EXPECT_EQ(h->min, 0u);
  EXPECT_EQ(h->max, 300u);
  // Non-empty buckets only, ascending by lower bound:
  // 0 -> 1, [1,2) -> 1, [4,8) -> 2, [256,512) -> 1.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected = {
      {0, 1}, {1, 1}, {4, 2}, {256, 1}};
  EXPECT_EQ(h->buckets, expected);
}

TEST_F(MetricsTest, CounterAndHistogramDeterministicAcrossThreadCounts) {
  // The same work at 1, 2, and 8 threads must produce identical counter
  // values and identical per-bucket tallies (values here are a function of
  // the item index, not of scheduling).
  constexpr std::int64_t kItems = 1000;
  std::vector<std::uint64_t> counter_values;
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> buckets;
  for (const int threads : {1, 2, 8}) {
    ResetMetricsForTest();
    ParallelFor(kItems, threads, [](std::int64_t i) {
      t_counter.Add(static_cast<std::uint64_t>(i % 3));
      t_histogram.Observe(static_cast<std::uint64_t>(i * 7 % 1000));
    });
    const MetricsSnapshot snapshot = SnapshotMetrics();
    const CounterValue* c = FindCounter(snapshot, "test.counter");
    const HistogramValue* h = FindHistogram(snapshot, "test.histogram");
    ASSERT_NE(c, nullptr);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, static_cast<std::uint64_t>(kItems));
    counter_values.push_back(c->value);
    buckets.push_back(h->buckets);
  }
  EXPECT_EQ(counter_values[0], counter_values[1]);
  EXPECT_EQ(counter_values[0], counter_values[2]);
  EXPECT_EQ(buckets[0], buckets[1]);
  EXPECT_EQ(buckets[0], buckets[2]);
}

TEST_F(MetricsTest, GaugeLastWriteWinsAndUnsetGaugesHidden) {
  // Unset gauges stay out of the snapshot entirely.
  MetricsSnapshot before = SnapshotMetrics();
  for (const GaugeValue& gauge : before.gauges) {
    EXPECT_NE(gauge.name, "test.gauge");
  }
  t_gauge.Set(1.5);
  t_gauge.Set(-2.25);
  MetricsSnapshot after = SnapshotMetrics();
  ASSERT_EQ(after.gauges.size(), before.gauges.size() + 1);
  bool found = false;
  for (const GaugeValue& gauge : after.gauges) {
    if (gauge.name == "test.gauge") {
      EXPECT_DOUBLE_EQ(gauge.value, -2.25);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(MetricsTest, SpanNestingChargesBothStages) {
  {
    ASTERIA_SPAN("outer-stage");
    {
      ASTERIA_SPAN("inner-stage");
      ASTERIA_SPAN("inner-stage");  // same stage twice in one scope
    }
  }
  const MetricsSnapshot snapshot = SnapshotMetrics();
  const StageTiming* outer = FindSpan(snapshot, "outer-stage");
  const StageTiming* inner = FindSpan(snapshot, "inner-stage");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(inner->count, 2u);
  // The outer span covers the inner spans' lifetime.
  EXPECT_GE(outer->total_nanos, inner->total_nanos / 2);
}

TEST_F(MetricsTest, SpanEndRecordsOnceAndReturnsTheRecordedNanos) {
  std::uint64_t ended = 0;
  {
    TraceSpan span("ended-stage");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ended = span.End();
    // Neither a second End() nor the destructor records again.
    EXPECT_GE(span.End(), ended);
  }
  const MetricsSnapshot snapshot = SnapshotMetrics();
  const StageTiming* span = FindSpan(snapshot, "ended-stage");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->count, 1u);
  EXPECT_EQ(span->total_nanos, ended);
  EXPECT_GT(ended, 0u);
}

TEST_F(MetricsTest, SpanCountsMergeAcrossThreads) {
  constexpr std::int64_t kItems = 64;
  for (const int threads : {1, 2, 8}) {
    ResetSpansForTest();
    ParallelFor(kItems, threads,
                [](std::int64_t) { ASTERIA_SPAN("merge-stage"); });
    const std::vector<StageTiming> spans = SnapshotSpans();
    std::uint64_t count = 0;
    for (const StageTiming& span : spans) {
      if (span.stage == "merge-stage") count = span.count;
    }
    EXPECT_EQ(count, static_cast<std::uint64_t>(kItems))
        << "threads=" << threads;
  }
}

TEST_F(MetricsTest, PipelineReportPublishesOnSummary) {
  PipelineReport report;
  report.stage = "test-stage";
  report.AddOk();
  report.AddOk();
  report.AddSkipped();
  report.AddFailed("item 3: broke");
  (void)report.Summary();  // Summary() publishes
  (void)report.Summary();  // replace-per-stage: no double counting

  const MetricsSnapshot snapshot = SnapshotMetrics();
  bool found = false;
  for (const PipelineStageValue& stage : snapshot.pipeline) {
    if (stage.stage != "test-stage") continue;
    found = true;
    EXPECT_EQ(stage.ok, 2);
    EXPECT_EQ(stage.skipped, 1);
    EXPECT_EQ(stage.failed, 1);
    EXPECT_EQ(stage.first_failure, "item 3: broke");
  }
  EXPECT_TRUE(found);
}

TEST_F(MetricsTest, FailpointTripCountsSurfaceAsCounters) {
  // Unfired failpoints stay out of the snapshot.
  const MetricsSnapshot before = SnapshotMetrics();
  EXPECT_EQ(FindCounter(before, "failpoint.test.metrics_failpoint"), nullptr);

  std::string error;
  ASSERT_TRUE(ConfigureFailpoints("test.metrics_failpoint=every:2", &error))
      << error;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (t_failpoint.ShouldFail()) ++fired;
  }
  EXPECT_EQ(fired, 5);
  const MetricsSnapshot after = SnapshotMetrics();
  const CounterValue* c =
      FindCounter(after, "failpoint.test.metrics_failpoint");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 5u);
}

TEST_F(MetricsTest, JsonShape) {
  t_counter.Add(7);
  t_gauge.Set(0.5);
  t_histogram.Observe(3);
  { ASTERIA_SPAN("json-stage"); }
  PipelineReport report;
  report.stage = "json-pipe";
  report.AddOk();
  PublishPipelineReport(report);

  const std::string json = SnapshotMetrics().ToJson();
  // Fixed schema marker and all five sections, in order.
  EXPECT_NE(json.find("\"schema\": \"asteria.metrics.v1\""), std::string::npos);
  const std::size_t counters_at = json.find("\"counters\": {");
  const std::size_t gauges_at = json.find("\"gauges\": {");
  const std::size_t histograms_at = json.find("\"histograms\": {");
  const std::size_t spans_at = json.find("\"spans\": {");
  const std::size_t pipeline_at = json.find("\"pipeline\": {");
  ASSERT_NE(counters_at, std::string::npos);
  ASSERT_NE(gauges_at, std::string::npos);
  ASSERT_NE(histograms_at, std::string::npos);
  ASSERT_NE(spans_at, std::string::npos);
  ASSERT_NE(pipeline_at, std::string::npos);
  EXPECT_LT(counters_at, gauges_at);
  EXPECT_LT(gauges_at, histograms_at);
  EXPECT_LT(histograms_at, spans_at);
  EXPECT_LT(spans_at, pipeline_at);

  EXPECT_NE(json.find("\"test.counter\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"test.gauge\": 0.5"), std::string::npos);
  // Histogram value 3 lands in bucket [2,4).
  EXPECT_NE(json.find("\"buckets\": {\"2\": 1}"), std::string::npos);
  EXPECT_NE(json.find("\"json-stage\""), std::string::npos);
  EXPECT_NE(json.find("\"json-pipe\""), std::string::npos);
  EXPECT_NE(json.find("\"first_failure\": \"\""), std::string::npos);

  // Balanced braces and a trailing newline (shell-friendly document).
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.back(), '\n');
}

TEST_F(MetricsTest, JsonEscapesReasonStrings) {
  PipelineReport report;
  report.stage = "escape-stage";
  report.AddFailed("line1\nline2 \"quoted\" \\slash");
  PublishPipelineReport(report);
  const std::string json = SnapshotMetrics().ToJson();
  EXPECT_NE(json.find("line1\\nline2 \\\"quoted\\\" \\\\slash"),
            std::string::npos);
}

TEST_F(MetricsTest, TextTableMentionsEverySection) {
  t_counter.Increment();
  t_gauge.Set(2.0);
  t_histogram.Observe(9);
  { ASTERIA_SPAN("text-stage"); }
  const std::string text = SnapshotMetrics().ToText();
  EXPECT_NE(text.find("test.counter"), std::string::npos);
  EXPECT_NE(text.find("test.gauge"), std::string::npos);
  EXPECT_NE(text.find("test.histogram"), std::string::npos);
  EXPECT_NE(text.find("text-stage"), std::string::npos);
}

TEST_F(MetricsTest, ResetClearsEverything) {
  t_counter.Add(3);
  t_gauge.Set(1.0);
  t_histogram.Observe(2);
  { ASTERIA_SPAN("reset-stage"); }
  ResetMetricsForTest();
  const MetricsSnapshot snapshot = SnapshotMetrics();
  const CounterValue* c = FindCounter(snapshot, "test.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 0u);
  const HistogramValue* h = FindHistogram(snapshot, "test.histogram");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 0u);
  EXPECT_TRUE(h->buckets.empty());
  const StageTiming* span = FindSpan(snapshot, "reset-stage");
  if (span != nullptr) {
    EXPECT_EQ(span->count, 0u);
  }
  for (const GaugeValue& gauge : snapshot.gauges) {
    EXPECT_NE(gauge.name, "test.gauge");
  }
}

TEST_F(MetricsTest, ScalarStatsSeedsMinMaxFromFirstSample) {
  // Regression: the old TimingStats compared against stale min_/max_ state
  // before checking count_ == 1. The first sample must seed both bounds.
  ScalarStats stats;
  stats.Add(5.0);
  EXPECT_DOUBLE_EQ(stats.min(), 5.0);
  EXPECT_DOUBLE_EQ(stats.max(), 5.0);
  stats.Add(7.0);
  stats.Add(3.0);
  EXPECT_EQ(stats.count(), 3);
  EXPECT_DOUBLE_EQ(stats.min(), 3.0);
  EXPECT_DOUBLE_EQ(stats.max(), 7.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 15.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);

  // Negative-only samples: the old code would have kept min at 0.
  ScalarStats negative;
  negative.Add(-4.0);
  EXPECT_DOUBLE_EQ(negative.min(), -4.0);
  EXPECT_DOUBLE_EQ(negative.max(), -4.0);

  // TimingStats is now an alias of ScalarStats.
  TimingStats timing;
  timing.Add(-1.0);
  EXPECT_DOUBLE_EQ(timing.max(), -1.0);
}

TEST_F(MetricsTest, ConcurrentMixedWritersAreSafe) {
  // TSan coverage: counters, gauges, histograms, and spans hammered from
  // many threads while snapshots race against the writers.
  constexpr std::int64_t kItems = 2000;
  ParallelFor(kItems, 8, [](std::int64_t i) {
    ASTERIA_SPAN("hammer-stage");
    t_counter.Increment();
    t_gauge.Set(static_cast<double>(i));
    t_histogram.Observe(static_cast<std::uint64_t>(i));
    if (i % 256 == 0) (void)SnapshotMetrics();
  });
  const MetricsSnapshot snapshot = SnapshotMetrics();
  const CounterValue* c = FindCounter(snapshot, "test.counter");
  const HistogramValue* h = FindHistogram(snapshot, "test.histogram");
  const StageTiming* span = FindSpan(snapshot, "hammer-stage");
  ASSERT_NE(c, nullptr);
  ASSERT_NE(h, nullptr);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(c->value, static_cast<std::uint64_t>(kItems));
  EXPECT_EQ(h->count, static_cast<std::uint64_t>(kItems));
  EXPECT_EQ(h->min, 0u);
  EXPECT_EQ(h->max, static_cast<std::uint64_t>(kItems - 1));
  EXPECT_EQ(span->count, static_cast<std::uint64_t>(kItems));
}

TEST_F(MetricsTest, HistogramPercentileMath) {
  // Percentile() interpolates toward each bucket's UPPER bound: with only
  // bucket membership known, the upper bound is the honest worst-case
  // estimate (docs/OBSERVABILITY.md). Verified against a hand-built value.
  HistogramValue h;
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);  // empty histogram

  // 4 observations: one 0, two in [4,8), one in [256,512).
  h.count = 4;
  h.buckets = {{0, 1}, {4, 2}, {256, 1}};
  EXPECT_DOUBLE_EQ(h.Percentile(0.25), 0.0);  // rank 1: the exact zero
  EXPECT_DOUBLE_EQ(h.Percentile(0.50), 6.0);  // rank 2: halfway into [4,8)
  EXPECT_DOUBLE_EQ(h.Percentile(0.75), 8.0);  // rank 3: top of [4,8)
  EXPECT_DOUBLE_EQ(h.Percentile(1.00), 512.0);  // rank 4: top of [256,512)
  // Out-of-range q clamps instead of misbehaving.
  EXPECT_DOUBLE_EQ(h.Percentile(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(2.0), 512.0);

  // A single observation puts every percentile at its bucket's ceiling.
  HistogramValue single;
  single.count = 1;
  single.buckets = {{4, 1}};
  EXPECT_DOUBLE_EQ(single.Percentile(0.50), 8.0);
  EXPECT_DOUBLE_EQ(single.Percentile(0.99), 8.0);
}

TEST_F(MetricsTest, PercentilesPopulateSnapshotsAndJson) {
  for (std::uint64_t i = 1; i <= 100; ++i) t_histogram.Observe(i);
  const MetricsSnapshot snapshot = SnapshotMetrics();
  const HistogramValue* h = FindHistogram(snapshot, "test.histogram");
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->p50, 0.0);
  EXPECT_LE(h->p50, h->p95);
  EXPECT_LE(h->p95, h->p99);
  EXPECT_LE(h->p99, static_cast<double>(h->max) * 2.0);  // upper-bound bias
  // The ladder rides along in both renderings, so `asteria-cli stats` and
  // the determinism-filtered JSON dumps see the same numbers.
  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  const std::string text = snapshot.ToText();
  EXPECT_NE(text.find("p50"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
}

TEST_F(MetricsTest, SpanOverflowSurfacesAsTraceDropped) {
  // A thread that records more distinct stage names than its profile holds
  // (kMaxStages) must drop the surplus and say so via the synthetic
  // "trace.dropped" stage — never crash, never overwrite a claimed slot.
  // The names are leaked on purpose: profiles keep the pointers forever,
  // matching the string-literal contract.
  auto* names = new std::vector<std::string>();
  names->reserve(internal::StageProfile::kMaxStages + 1);
  for (int i = 0; i <= internal::StageProfile::kMaxStages; ++i) {
    names->push_back("overflow-stage-" + std::to_string(i));
  }
  std::thread recorder([names] {
    internal::StageProfile& profile = internal::ThreadStageProfile();
    for (const std::string& name : *names) profile.Record(name.c_str(), 1);
  });
  recorder.join();

  const std::vector<StageTiming> spans = SnapshotSpans();
  std::uint64_t dropped = 0;
  std::uint64_t first = 0;
  bool last_present = false;
  for (const StageTiming& span : spans) {
    if (span.stage == "trace.dropped") dropped = span.count;
    if (span.stage == names->front()) first = span.count;
    if (span.stage == names->back()) last_present = true;
  }
  EXPECT_EQ(first, 1u);          // slot 0 claimed and counted
  EXPECT_FALSE(last_present);    // the 65th name never got a slot...
  EXPECT_EQ(dropped, 1u);        // ...and was counted as dropped instead
}

}  // namespace
}  // namespace asteria::util
