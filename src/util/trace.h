// RAII trace spans: per-stage wall-time accounting for the pipeline
// (decompile -> preprocess -> encode -> search), aggregated into a
// per-thread, mergeable stage profile (docs/OBSERVABILITY.md).
//
//   void SearchIndex::TopK(...) {
//     ASTERIA_SPAN("search");
//     ...
//   }
//
// Each span records one (count, elapsed-nanos) sample under its stage name
// when it goes out of scope, or when End() hands the elapsed time back to
// a caller that records it elsewhere too. Samples land in a thread-local profile — no
// lock, no shared cache line on the hot path; profiles register themselves
// once per thread and are merged (summed per stage, in name order) by
// SnapshotSpans(), so the merged result is independent of which thread ran
// which shard. Span counts are deterministic for deterministic work; the
// nanosecond totals are machine- and run-dependent by nature.
//
// Spans nest freely: each span charges its full elapsed time to its own
// stage ("encode" inside "corpus-build" counts toward both). Stage names
// must be string literals — the profile stores the pointer.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace asteria::util {

namespace internal {

// One stage slot of a per-thread profile. Only the owning thread writes;
// snapshots read concurrently, hence the relaxed atomics (never a lock).
struct alignas(64) StageSlot {
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> nanos{0};
};

// Fixed-capacity per-thread stage profile. 64 distinct stage names per
// thread is far beyond what the pipeline defines; overflow samples are
// dropped and counted in SnapshotSpans()'s "trace.dropped" stage.
struct StageProfile {
  static constexpr int kMaxStages = 64;
  StageSlot slots[kMaxStages];
  std::atomic<std::uint64_t> dropped{0};

  void Record(const char* stage, std::uint64_t elapsed_nanos);
};

// The calling thread's profile, registered process-wide on first use.
StageProfile& ThreadStageProfile();

}  // namespace internal

// Monotonic clock reading in nanoseconds. On x86-64 with an invariant TSC
// this is a calibrated rdtsc read (~3x cheaper than a steady_clock call;
// the scale self-calibrates against steady_clock over the process's first
// ~10ms of trace activity, so no call ever blocks). Other hosts — and the
// pre-calibration window — read steady_clock. Differences of two readings
// are durations; don't mix with raw steady_clock arithmetic.
std::int64_t TraceNowNanos();

// Records elapsed wall time under `stage` (a string literal) on scope exit,
// or earlier at End().
class TraceSpan {
 public:
  explicit TraceSpan(const char* stage)
      : stage_(stage), start_nanos_(TraceNowNanos()) {}
  ~TraceSpan() {
    if (stage_ != nullptr) End();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // Records the sample now and returns its elapsed nanoseconds, so a
  // caller that also needs the number (a histogram, a request record)
  // reads the span's clock instead of running a second one. The first
  // call records; the destructor and any later call record nothing.
  std::uint64_t End() {
    const auto elapsed =
        static_cast<std::uint64_t>(TraceNowNanos() - start_nanos_);
    if (stage_ != nullptr) {
      internal::ThreadStageProfile().Record(stage_, elapsed);
      stage_ = nullptr;
    }
    return elapsed;
  }

 private:
  const char* stage_;  // null once the sample is recorded
  std::int64_t start_nanos_;
};

// Merged view of one stage across every thread that ever recorded it.
struct StageTiming {
  std::string stage;
  std::uint64_t count = 0;
  std::uint64_t total_nanos = 0;

  double total_seconds() const {
    return static_cast<double>(total_nanos) * 1e-9;
  }
  double mean_seconds() const {
    return count == 0 ? 0.0 : total_seconds() / static_cast<double>(count);
  }
};

// Sums every thread's profile per stage name, sorted by name. Thread-count
// independent for deterministic work (the merge is keyed by name, not by
// thread). Included in util::SnapshotMetrics() as the "spans" section.
std::vector<StageTiming> SnapshotSpans();

// Zeroes every thread's profile (the profiles stay registered).
void ResetSpansForTest();

}  // namespace asteria::util

// ASTERIA_SPAN("stage") — scoped span with a collision-free local name.
#define ASTERIA_SPAN_CONCAT2(a, b) a##b
#define ASTERIA_SPAN_CONCAT(a, b) ASTERIA_SPAN_CONCAT2(a, b)
#define ASTERIA_SPAN(stage) \
  ::asteria::util::TraceSpan ASTERIA_SPAN_CONCAT(asteria_span_, __LINE__)(stage)
