// Shared pieces of the perf benchmark (bench/perf/README.md): run options,
// sample statistics, the result record every workload fills, bench-side
// spans, and the asteria-serve child process.
//
// Everything here measures the program from outside: the benchmark times
// calls into public APIs and reads the spans, counters and request records
// the program already emits. Timestamps are steady_clock nanoseconds.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/asteria.h"

namespace asteria::perf {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12.0;  // length of the measured phase
  bool traced = false;    // per-layer run (bench spans + daemon records)
  bool smoke = false;     // toy sizes, correctness only
  bool sweep = false;     // query-topk offered-load sweep, not gated
  std::string serve_bin;  // asteria-serve executable
  std::string cache_dir;  // input-only cache (generated firmware images)
  std::string results_dir;
  std::string commit = "unknown";
  int threads = 4;        // input generation and program threads
};

// The model every workload runs: the default seeded config (e = h = 16,
// untrained), which is what asteria-serve loads without --weights.
core::AsteriaConfig BenchModelConfig();

std::int64_t NowNanos();
void SleepUntil(std::int64_t nanos);

// Percentile by linear interpolation between closest ranks (q in [0, 1]);
// 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

// One reported metric: its value plus the spread of the samples it was
// taken from (p25/median/p75 and count).
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  std::size_t n = 0;
};

Metric MakeMetric(const std::string& name, const std::string& unit,
                  double value, const std::vector<double>& samples);

// What one workload run produced. `end_to_end` holds the five gated
// metrics (setup_s, p50_ms, tail_ms, rate_per_s, peak_rss_mb); `named`
// the same numbers and their companions under the workload's own names
// (topk_p50_ms.100qps, ...); `layers` the per-layer metrics of a traced run.
struct RunResult {
  std::vector<std::string> errors;  // correctness mismatches
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> named;
  std::map<std::string, double> layers;
  std::map<std::string, std::string> notes;  // sizes, for the results file

  bool correct() const { return errors.empty(); }
  void Fail(const std::string& why);
};

// The per-layer metrics every traced run reports, in output order. A layer
// a workload does not exercise reads 0 there.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
  const char* moves;  // end-to-end metric it should move (workload: name)
};
const std::vector<LayerMetricSpec>& LayerMetrics();

// -- Bench-side spans -------------------------------------------------------
//
// Kept in memory by the thread that records them and written once at exit
// (one JSON object per line). `parent` indexes the same buffer, -1 for a
// root; `trace_id` is the id the benchmark minted for the request, 0 when
// the span is not tied to a wire request.
struct Span {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;
  std::uint64_t trace_id = 0;
};

class SpanBuffer {
 public:
  int Add(const char* name, std::int64_t start, std::int64_t end,
          int parent = -1, std::uint64_t trace_id = 0);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

bool WriteSpans(const std::string& path, const SpanBuffer& buffer,
                std::string* error);

// The program's own span totals and counters in this process at one
// instant (util::SnapshotMetrics); differences of two readings bracket a
// call. Missing names read 0.
struct ProgramTotals {
  std::map<std::string, std::uint64_t> span_nanos;
  std::map<std::string, std::uint64_t> span_count;
  std::map<std::string, std::uint64_t> counters;

  static ProgramTotals Read();
  std::uint64_t Nanos(const std::string& span) const;
  std::uint64_t Count(const std::string& span) const;
  std::uint64_t Counter(const std::string& name) const;
};

// -- asteria-serve child ----------------------------------------------------

class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Spawns `bin --socket=<socket> <args...>` with stdout/stderr appended to
  // `log_path`, and waits until it answers a ping. `ready_seconds` receives
  // spawn-to-first-pong time. The child gets SIGTERM if this process dies.
  bool Start(const std::string& bin, const std::string& socket,
             const std::vector<std::string>& args, const std::string& log_path,
             double* ready_seconds, std::string* error);

  // Peak resident set (VmHWM) of the running daemon, in MiB.
  double PeakRssMb() const;

  // Asks for a clean shutdown and reaps the child; kills it if it does not
  // exit within a few seconds. Idempotent.
  bool Stop(std::string* error);

 private:
  pid_t pid_ = -1;
  std::string socket_;
};

// Starts asteria-serve (--workers=2) on `index` three times, leaving the
// last one running, and appends each spawn-to-first-pong time to `setups`.
// A traced run also arms the daemon's request records (every answered
// query spills to slow.log) and its metrics snapshot.
bool StartServing(const Options& opt, const std::string& index, Daemon* daemon,
                  std::vector<double>* setups, std::string* error);

// Peak resident set of this process, in MiB, and its reset (clear_refs),
// so a workload can exclude input generation from its own peak.
double SelfPeakRssMb();
void ResetSelfPeakRss();

// Connects a raw stream socket to the daemon (the pipelined load path);
// -1 on failure. Receive and send time out after `timeout_ms`.
int ConnectSocket(const std::string& path, int timeout_ms, std::string* error);

// -- Small file helpers -----------------------------------------------------

bool RemoveTree(const std::string& path);
bool MakeDirs(const std::string& path);
bool ReadFile(const std::string& path, std::vector<std::uint8_t>* bytes);
std::int64_t FileSize(const std::string& path);

// Host description for the results file.
std::string CpuModel();
int HostThreads();

}  // namespace asteria::perf
