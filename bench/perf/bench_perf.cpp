// bench_perf — the perf benchmark (bench/perf/README.md).
//
//   bench_perf --workload=query-topk|ingest-arrivals|offline-encode|train-epoch
//              --seed=N --seconds=S --trace=0|1 --serve_bin=PATH
//              [--work_dir=DIR] [--cache_dir=DIR] [--results_dir=DIR]
//              [--commit=SHA] [--sweep]
//   bench_perf --smoke --serve_bin=PATH [--work_dir=DIR]
//
// One run prints every metric by name with its unit and sample spread,
// writes a results JSON (host, compiler, flags, commit), and ends stdout
// with one JSON line: {"correct", "attempted", "failed", "metrics"} — the
// end-to-end metrics, or with --trace=1 the per-layer metrics. Any output
// mismatch makes the run exit 1. --smoke runs all four workloads at toy
// sizes as a correctness check. bench/perf/run.sh builds and drives this.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "harness.h"
#include "util/flags.h"
#include "util/log.h"
#include "workloads.h"

#ifndef PERF_BUILD_FLAGS
#define PERF_BUILD_FLAGS "unknown"
#endif

namespace asteria::perf {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// The metric set the final JSON line reports: the end-to-end metrics, or
// every per-layer metric (0 where the workload has no such layer).
std::vector<Metric> ReportedMetrics(const RunResult& result, bool traced) {
  if (!traced) return result.end_to_end;
  std::vector<Metric> metrics;
  for (const LayerMetricSpec& spec : LayerMetrics()) {
    auto it = result.layers.find(spec.name);
    const double value = it == result.layers.end() ? 0.0 : it->second;
    metrics.push_back(MakeMetric(spec.name, spec.unit, value, {value}));
  }
  return metrics;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  if (metrics.empty()) return;
  std::printf("  %s\n", title);
  std::printf("    %-30s %14s %-6s %12s %12s %12s %7s\n", "metric", "value",
              "unit", "p25", "median", "p75", "n");
  for (const Metric& m : metrics) {
    std::printf("    %-30s %14.6g %-6s %12.6g %12.6g %12.6g %7zu\n",
                m.name.c_str(), m.value, m.unit.c_str(), m.p25, m.median, m.p75,
                m.n);
  }
}

void PrintHuman(const Options& opt, const RunResult& result) {
  std::printf("workload %s  seed %llu  seconds %g  traced %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.traced ? 1 : 0);
  PrintTable("end to end (samples: p25/median/p75 of what the value summarizes)",
             result.end_to_end);
  PrintTable("by the workload's own names", result.named);
  if (opt.traced) {
    std::printf("  layers\n");
    for (const LayerMetricSpec& spec : LayerMetrics()) {
      auto it = result.layers.find(spec.name);
      if (it == result.layers.end()) continue;
      std::printf("    %-32s %14.6g %-6s moves %s\n", spec.name, it->second,
                  spec.unit, spec.moves);
    }
  }
  std::printf("  attempted %lld  failed %lld  correct %s\n",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              result.correct() ? "yes" : "NO");
  for (const std::string& e : result.errors) {
    std::printf("  MISMATCH: %s\n", e.c_str());
  }
}

std::string LayersJson(const RunResult& result) {
  std::string json = "{";
  for (const LayerMetricSpec& spec : LayerMetrics()) {
    auto it = result.layers.find(spec.name);
    if (it == result.layers.end()) continue;
    if (json.size() > 1) json += ", ";
    json += JsonString(spec.name) + ": {\"value\": " + JsonNumber(it->second) +
            ", \"unit\": " + JsonString(spec.unit) +
            ", \"moves\": " + JsonString(spec.moves) + "}";
  }
  return json + "}";
}

std::string MetricsJson(const std::vector<Metric>& metrics, bool spread) {
  std::string json = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) json += ", ";
    json += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit);
    if (spread) {
      json += ", \"p25\": " + JsonNumber(m.p25) +
              ", \"median\": " + JsonNumber(m.median) +
              ", \"p75\": " + JsonNumber(m.p75) +
              ", \"n\": " + std::to_string(m.n);
    }
    json += "}";
  }
  return json + "}";
}

bool WriteResults(const Options& opt, const RunResult& result,
                  const std::string& path) {
  std::string json = "{\n  \"schema\": \"asteria.perf.v1\"";
  const auto field = [&](const char* key, const std::string& value) {
    json += ",\n  " + JsonString(key) + ": " + value;
  };
  field("workload", JsonString(opt.workload));
  field("seed", std::to_string(opt.seed));
  field("seconds", JsonNumber(opt.seconds));
  field("traced", opt.traced ? "true" : "false");
  field("commit", JsonString(opt.commit));
  field("compiler", JsonString(Compiler()));
  field("flags", JsonString(PERF_BUILD_FLAGS));
  field("nproc", std::to_string(HostThreads()));
  field("threads", std::to_string(opt.threads));
  field("cpu_model", JsonString(CpuModel()));
  field("correct", result.correct() ? "true" : "false");
  field("attempted", std::to_string(result.attempted));
  field("failed", std::to_string(result.failed));
  std::string errors = "[";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    errors += (i > 0 ? ", " : "") + JsonString(result.errors[i]);
  }
  field("errors", errors + "]");
  field("end_to_end", MetricsJson(result.end_to_end, true));
  field("named", MetricsJson(result.named, true));
  if (opt.traced) field("layers", LayersJson(result));
  std::string notes = "{";
  for (const auto& [key, value] : result.notes) {
    notes += (notes.size() > 1 ? ", " : "") + JsonString(key) + ": " +
             JsonString(value);
  }
  field("notes", notes + "}");
  json += "\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs(json.c_str(), f) >= 0;
  return std::fclose(f) == 0 && ok;
}

RunResult RunWorkload(const Options& opt) {
  if (opt.workload == "query-topk") return RunQueryTopk(opt);
  if (opt.workload == "ingest-arrivals") return RunIngestArrivals(opt);
  if (opt.workload == "offline-encode") return RunOfflineEncode(opt);
  if (opt.workload == "train-epoch") return RunTrainEpoch(opt);
  RunResult result;
  result.Fail("unknown workload '" + opt.workload +
              "' (query-topk|ingest-arrivals|offline-encode|train-epoch)");
  return result;
}

// Runs one workload inside its own scratch directory under `work_dir`,
// keeping the trace artifacts in `results_dir` (when set) under `stem`.
RunResult RunInScratch(const Options& opt, const std::string& work_dir,
                       const std::string& stem) {
  const std::string scratch =
      work_dir + "/" + opt.workload + "-" + std::to_string(::getpid());
  RemoveTree(scratch);
  RunResult result;
  char cwd[4096];
  if (!MakeDirs(scratch) || ::getcwd(cwd, sizeof(cwd)) == nullptr ||
      ::chdir(scratch.c_str()) != 0) {
    result.Fail("cannot enter scratch directory " + scratch);
    return result;
  }
  result = RunWorkload(opt);
  if (::chdir(cwd) != 0) result.Fail("cannot leave scratch directory");
  if (!opt.results_dir.empty() && opt.traced) {
    for (const char* artifact : {"spans.jsonl", "slow.log",
                                 "daemon-metrics.json", "daemon.log"}) {
      std::vector<std::uint8_t> bytes;
      if (!ReadFile(scratch + "/" + artifact, &bytes)) continue;
      const std::string to = opt.results_dir + "/" + stem + "." + artifact;
      if (std::FILE* f = std::fopen(to.c_str(), "wb")) {
        std::fwrite(bytes.data(), 1, bytes.size(), f);
        std::fclose(f);
      }
    }
  }
  RemoveTree(scratch);
  return result;
}

int Main(int argc, char** argv) {
  util::Flags flags;
  flags.DefineString("workload", "",
                     "query-topk|ingest-arrivals|offline-encode|train-epoch");
  flags.DefineInt("seed", 1, "input seed (development 1, held-out 1009)");
  flags.DefineDouble("seconds", 12.0, "length of the measured phase");
  flags.DefineInt("trace", 0, "1 = traced run reporting per-layer metrics");
  flags.DefineBool("smoke", false,
                   "all four workloads at toy sizes, correctness only");
  flags.DefineBool("sweep", false,
                   "query-topk: offered-load sweep 50..400 qps, not gated");
  flags.DefineString("serve_bin", "", "asteria-serve executable");
  flags.DefineString("work_dir", ".bench_build/perf/work",
                     "scratch root (each run uses and removes a subdir)");
  flags.DefineString("cache_dir", "", "input-only cache (empty = none)");
  flags.DefineString("results_dir", "", "where results JSON files go");
  flags.DefineString("commit", "unknown", "commit being measured");
  if (!flags.Parse(argc, argv)) return 2;
  util::SetLogLevel(util::LogLevel::kWarn);

  Options opt;
  opt.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  opt.seconds = flags.GetDouble("seconds");
  opt.traced = flags.GetInt("trace") != 0;
  opt.smoke = flags.GetBool("smoke");
  opt.sweep = flags.GetBool("sweep");
  opt.serve_bin = flags.GetString("serve_bin");
  opt.cache_dir = flags.GetString("cache_dir");
  opt.results_dir = flags.GetString("results_dir");
  opt.commit = flags.GetString("commit");
  opt.threads = std::min(4, HostThreads());
  char resolved[4096];
  if (opt.serve_bin.empty() || ::realpath(opt.serve_bin.c_str(), resolved) ==
                                   nullptr) {
    std::fprintf(stderr, "bench_perf: --serve_bin must name asteria-serve\n");
    return 2;
  }
  opt.serve_bin = resolved;
  const std::string work_dir = flags.GetString("work_dir");
  if (!opt.results_dir.empty() && !MakeDirs(opt.results_dir)) {
    std::fprintf(stderr, "bench_perf: cannot create %s\n",
                 opt.results_dir.c_str());
    return 2;
  }

  if (opt.smoke) {
    bool all_correct = true;
    for (const char* workload : {"query-topk", "ingest-arrivals",
                                 "offline-encode", "train-epoch"}) {
      Options smoke = opt;
      smoke.workload = workload;
      smoke.seconds = 1.0;
      const std::int64_t t0 = NowNanos();
      const RunResult result = RunInScratch(smoke, work_dir, workload);
      std::printf("smoke %-16s %s in %.1f s (%lld ops, %lld failed)\n", workload,
                  result.correct() && result.failed == 0 ? "ok" : "FAILED",
                  static_cast<double>(NowNanos() - t0) * 1e-9,
                  static_cast<long long>(result.attempted),
                  static_cast<long long>(result.failed));
      for (const std::string& e : result.errors) std::printf("  %s\n", e.c_str());
      all_correct &= result.correct() && result.failed == 0;
    }
    return all_correct ? 0 : 1;
  }

  opt.workload = flags.GetString("workload");
  if (opt.seconds <= 0) {
    std::fprintf(stderr, "bench_perf: --seconds must be positive\n");
    return 2;
  }
  const std::string stem = opt.workload + "-seed" + std::to_string(opt.seed) +
                           (opt.traced ? "-traced" : "") +
                           (opt.sweep ? "-sweep" : "");
  const RunResult result = RunInScratch(opt, work_dir, stem);
  PrintHuman(opt, result);
  if (!opt.results_dir.empty()) {
    const std::string path = opt.results_dir + "/" + stem + ".json";
    if (WriteResults(opt, result, path)) {
      std::printf("  results: %s\n", path.c_str());
    }
  }
  const std::vector<Metric> metrics =
      opt.sweep ? result.named : ReportedMetrics(result, opt.traced);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              result.correct() ? "true" : "false",
              static_cast<long long>(std::max<std::int64_t>(1, result.attempted)),
              static_cast<long long>(result.failed),
              MetricsJson(metrics, false).c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}

}  // namespace
}  // namespace asteria::perf

int main(int argc, char** argv) { return asteria::perf::Main(argc, argv); }
