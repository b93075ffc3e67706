// Process-wide metrics registry: counters, gauges, and histograms with
// fixed power-of-two bucket boundaries, plus the machine-readable snapshot
// that CLIs and benches emit via --metrics_out (docs/OBSERVABILITY.md).
//
// A metric is a namespace-scope static in the .cpp it instruments, exactly
// like util::Failpoint:
//
//   namespace { util::Counter c_cache_hit("corpus.cache_hit"); }
//   ...
//   c_cache_hit.Increment();
//
// Hot-path contract: no global lock. Counter::Add and Histogram::Observe
// touch one cache-line-padded per-thread stripe with a relaxed atomic —
// the same static-partition philosophy as util::ThreadPool, applied to
// accumulation. The registry mutex is taken only at registration (static
// init) and snapshot time, never per sample.
//
// Determinism contract (tested at 1/2/8 threads in tests/metrics_test.cpp):
// counter values, histogram observation counts, and span counts depend only
// on the work performed, never on the thread count or scheduling. Bucket
// tallies are additionally thread-count-invariant whenever the observed
// values themselves are deterministic (sizes, counts, bytes); histograms of
// wall time ("*_nanos" by convention) have deterministic counts but
// machine-dependent bucket placement. docs/OBSERVABILITY.md spells out the
// full contract and the naming convention.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/trace.h"

namespace asteria::util {

struct PipelineReport;
struct MetricsSnapshot;
struct HistogramValue;

MetricsSnapshot SnapshotMetrics();
void ResetMetricsForTest();

// Number of accumulation stripes per metric. Threads hash onto stripes by a
// process-unique thread ordinal, so concurrent writers rarely share a cache
// line; snapshots sum all stripes.
inline constexpr int kMetricStripes = 16;

namespace internal {
// Stripe index of the calling thread (ordinal % kMetricStripes).
unsigned ThreadStripe();

struct alignas(64) MetricStripe {
  std::atomic<std::uint64_t> value{0};
};
}  // namespace internal

// Monotonically increasing event count.
class Counter {
 public:
  // `name` must be a string literal (the registry keeps the pointer).
  explicit Counter(const char* name);
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(std::uint64_t n) {
    stripes_[internal::ThreadStripe()].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  // Sum over all stripes (snapshot path; racing writers may or may not be
  // included, which is fine — snapshots are taken at quiescent points).
  std::uint64_t Value() const;

  const char* name() const { return name_; }

 private:
  friend struct MetricsRegistry;
  friend MetricsSnapshot SnapshotMetrics();
  friend void ResetMetricsForTest();
  const char* name_;
  internal::MetricStripe stripes_[kMetricStripes];
};

// Last-write-wins scalar (e.g. the final epoch loss).
class Gauge {
 public:
  explicit Gauge(const char* name);
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value);
  double Value() const;
  // True once Set() has been called (unset gauges stay out of snapshots).
  bool HasValue() const { return set_.load(std::memory_order_relaxed); }

  const char* name() const { return name_; }

 private:
  friend struct MetricsRegistry;
  friend MetricsSnapshot SnapshotMetrics();
  friend void ResetMetricsForTest();
  const char* name_;
  std::atomic<std::uint64_t> bits_{0};  // IEEE-754 pattern of the value
  std::atomic<bool> set_{false};
};

// Histogram over non-negative integer values (latencies in nanoseconds,
// sizes, byte counts) with fixed power-of-two bucket boundaries: bucket 0
// holds the value 0, bucket i >= 1 holds [2^(i-1), 2^i). Fixed boundaries
// make bucket tallies a pure function of the observed values — snapshots
// never depend on observation order or thread count.
class Histogram {
 public:
  // Bucket 0 = value 0; buckets 1..64 cover [2^0, 2^64).
  static constexpr int kBuckets = 65;

  explicit Histogram(const char* name);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(std::uint64_t value);

  // Bucket that `value` falls into: 0 for 0, else floor(log2(value)) + 1.
  static int BucketIndex(std::uint64_t value);
  // Smallest value of bucket `bucket` (0, 1, 2, 4, 8, ...).
  static std::uint64_t BucketLowerBound(int bucket);

  std::uint64_t Count() const;

  // Merged view across all stripes (count/sum/min/max/buckets plus the
  // p50/p95/p99 estimates) — the same value SnapshotMetrics() builds, but
  // available per-histogram so e.g. the serve daemon can answer a kHealth
  // probe without snapshotting the whole registry.
  HistogramValue SnapshotValue() const;

  const char* name() const { return name_; }

 private:
  friend struct MetricsRegistry;
  friend MetricsSnapshot SnapshotMetrics();
  friend void ResetMetricsForTest();

  struct alignas(64) HistStripe {
    std::atomic<std::uint64_t> buckets[kBuckets];
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };

  const char* name_;
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
  HistStripe stripes_[kMetricStripes];
};

// Incremental count/sum/min/max accumulator for plain (single-threaded)
// code — the scalar core the registry Histogram shares its summary stats
// with, and the type util::TimingStats is an alias of (src/util/timer.h).
// The first sample unconditionally seeds min and max.
class ScalarStats {
 public:
  void Add(double value) {
    ++count_;
    sum_ += value;
    if (count_ == 1) {
      min_ = max_ = value;
      return;
    }
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// -- Snapshots --------------------------------------------------------------

struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeValue {
  std::string name;
  double value = 0.0;
};

struct HistogramValue {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // meaningful only when count > 0
  std::uint64_t max = 0;
  // (bucket lower bound, tally) for every non-empty bucket, ascending.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
  // Quantile estimates by upper-bound-of-bucket linear interpolation (see
  // Percentile). Like bucket placement for "*_nanos" histograms, these are
  // machine-dependent — determinism diffs must filter them.
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  // Estimate of the q-th quantile (q in [0, 1]): finds the bucket holding
  // the ceil(q * count)-th smallest observation and interpolates linearly
  // between the bucket's lower bound and its upper bound (bucket 0 is the
  // exact value 0; the quantile of an empty histogram is 0). An upper-bound
  // bias: the true quantile is never above the estimate's bucket ceiling.
  double Percentile(double q) const;
};

struct PipelineStageValue {
  std::string stage;
  std::int64_t ok = 0;
  std::int64_t skipped = 0;
  std::int64_t failed = 0;
  std::string first_failure;  // first retained failure/skip reason, if any
};

// One coherent view of every metric in the process. All sections are sorted
// by name so two snapshots of the same work diff cleanly.
struct MetricsSnapshot {
  std::vector<CounterValue> counters;  // includes "failpoint.<name>" per
                                       // failpoint that fired (trip counts)
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
  std::vector<StageTiming> spans;  // merged trace-span profile (util/trace.h)
  std::vector<PipelineStageValue> pipeline;

  // Machine-readable report: {"schema": "asteria.metrics.v1", "counters":
  // {...}, "gauges": {...}, "histograms": {...}, "spans": {...},
  // "pipeline": {...}}. Layout is stable (sorted keys, fixed indentation)
  // so scripts/check_metrics.sh can diff deterministic sections textually.
  std::string ToJson() const;

  // Human-readable tables (util::TextTable), the `asteria-cli stats` view.
  std::string ToText() const;

  // Writes ToJson() to `path`. Returns false and fills `error` on I/O
  // failure.
  bool WriteJson(const std::string& path, std::string* error) const;
};

// Collects every registered counter/gauge/histogram, the merged span
// profile, failpoint trip counts, and published pipeline reports.
MetricsSnapshot SnapshotMetrics();

// Zeroes every metric, span profile, and published pipeline report (not
// failpoint state — use ClearFailpoints for that). Tests call this between
// cases; production code never resets.
void ResetMetricsForTest();

// Records `report`'s ok/skipped/failed counts and first retained reason
// under its stage name, replacing any previous report for the same stage.
// Pipeline producers (SearchIndex::AddAll, BuildCorpus, TrainEpoch, ...)
// publish automatically; PipelineReport::Summary() publishes too, so
// printed run reports and --metrics_out snapshots always agree.
void PublishPipelineReport(const PipelineReport& report);

}  // namespace asteria::util
