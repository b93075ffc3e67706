// ingest-arrivals: firmware images arrive open loop at 4/s into a
// 1,000-shard fleet with asteria-serve attached. Each arrival is ingested
// with the production reload poke (arrival -> queryable), then delta
// vuln-searched (arrival -> alert, the AboveThreshold path on a small
// delta index). Meanwhile 20 qps of TopK reads run on one connection, so
// writes and reads contend. Store, reload and manifest work dominate.
#include <climits>
#include <cstdio>
#include <map>
#include <thread>

#include "ingest/ingest.h"
#include "inputs.h"
#include "load.h"
#include "serve/client.h"
#include "store/manifest.h"
#include "util/request_log.h"
#include "workloads.h"

namespace asteria::perf {
namespace {

constexpr double kArrivalsPerSecond = 4.0;
constexpr double kReadsPerSecond = 20.0;
constexpr double kAlertThreshold = 0.9;
constexpr int kTopK = 10;

struct Arrival {
  std::int64_t due = 0;
  std::int64_t start = 0;      // the ingester picked it up
  std::int64_t local = 0;      // IngestFile returned
  std::int64_t queryable = 0;  // the daemon serves its shard
  std::int64_t delta_start = 0;
  std::int64_t alert = 0;      // DeltaVulnSearch returned
};

}  // namespace

RunResult RunIngestArrivals(const Options& opt) {
  RunResult result;
  const int threads = opt.threads;
  const int fleet_size = opt.smoke ? 20 : 1000;
  const int arrivals =
      std::max(4, static_cast<int>(kArrivalsPerSecond * opt.seconds + 0.5));
  const double window = static_cast<double>(arrivals) / kArrivalsPerSecond;
  const int pool_size = static_cast<int>(kReadsPerSecond * window * 1.5) + 50;

  bool hit_fleet = false, hit_arrivals = false, hit_queries = false;
  const ImageBlobs fleet = CachedImages(opt.cache_dir, opt.seed, Stream::kFleet,
                                        fleet_size, threads, &hit_fleet);
  const ImageBlobs drops =
      CachedImages(opt.cache_dir, opt.seed, Stream::kArrivals, arrivals,
                   threads, &hit_arrivals);
  const ImageBlobs query_images =
      CachedImages(opt.cache_dir, opt.seed, Stream::kQueries,
                   pool_size / 8 + 1, threads, &hit_queries);
  std::string error;
  if (!WriteDropDir("fleet", fleet, &error) ||
      !WriteDropDir("arrivals", drops, &error)) {
    result.Fail("ingest-arrivals: " + error);
    return result;
  }
  std::vector<core::FunctionFeature> pool =
      DecompileImages(query_images, threads);
  if (static_cast<int>(pool.size()) < pool_size) {
    result.Fail("ingest-arrivals: query pool too small");
    return result;
  }
  pool.resize(static_cast<std::size_t>(pool_size));
  util::Rng rng(util::Rng::DeriveSeed(opt.seed, 0xa11));
  rng.Shuffle(pool);

  const core::AsteriaModel model(BenchModelConfig());
  ingest::IngestConfig config;
  config.index_dir = "idx";
  config.threads = threads;
  {
    ingest::IngestService bootstrap(model, config);
    ingest::IngestStats stats;
    if (!bootstrap.Open(&error) ||
        bootstrap.ScanDropDir("fleet", &stats) != fleet_size ||
        stats.images_failed != 0) {
      result.Fail("ingest-arrivals: fleet bootstrap failed " + error + " " +
                  stats.report.Summary());
      return result;
    }
    // The fleet has been scanned once already; arrivals are the delta.
    ingest::DeltaVulnResult scanned;
    if (!ingest::DeltaVulnSearch(model, "idx", kAlertThreshold, 4, threads,
                                 &scanned, &error)) {
      result.Fail("ingest-arrivals: fleet scan failed " + error);
      return result;
    }
  }

  std::vector<double> setups;
  Daemon daemon;
  if (!StartServing(opt, "idx/manifest.mani", &daemon, &setups, &error)) {
    result.Fail("ingest-arrivals: " + error);
    return result;
  }
  serve::Client health;
  if (!health.Connect("serve.sock", &error)) {
    result.Fail("ingest-arrivals: " + error);
    return result;
  }

  // Background reads for the whole arrival window, on their own thread.
  LoadTarget target;
  target.socket = "serve.sock";
  target.pool = &pool;
  target.k = kTopK;
  target.index_size = INT_MAX;  // the index grows under the reads
  const std::int64_t start = NowNanos() + 50'000'000;
  Phase reads;
  int next_query = 0;
  reads.plan = PoissonPlan(&rng, kReadsPerSecond, start, window, &next_query);
  reads.give_up = start + static_cast<std::int64_t>((window + 60.0) * 1e9);
  std::vector<Outcome> read_outcomes;
  std::string read_error;
  std::thread reader([&] {
    read_outcomes = RunPhase(target, reads, 1, &read_error);
  });

  const ProgramTotals before = ProgramTotals::Read();
  std::vector<Arrival> log(static_cast<std::size_t>(arrivals));
  for (int i = 0; i < arrivals; ++i) {
    Arrival& a = log[static_cast<std::size_t>(i)];
    a.due = start + static_cast<std::int64_t>(
                        static_cast<double>(i) / kArrivalsPerSecond * 1e9);
    const std::uint64_t pokes =
        opt.traced ? 0 : ProgramTotals::Read().Counter("ingest.reload_pokes");
    SleepUntil(a.due);
    char path[64];
    std::snprintf(path, sizeof(path), "arrivals/img-%06d.fw", i);
    a.start = NowNanos();
    // The traced run ingests without the poke and reloads explicitly, so
    // the two halves of arrival -> queryable are timed apart.
    ingest::IngestConfig arrival_config = config;
    if (!opt.traced) arrival_config.serve_socket = "serve.sock";
    ingest::IngestService service(model, arrival_config);
    ingest::IngestStats stats;
    const bool ingested = service.Open(&error) &&
                          service.IngestFile(path, &stats, &error) &&
                          stats.images_published == 1;
    a.local = NowNanos();
    bool poked = ingested;
    if (ingested && opt.traced) {
      serve::Client client;
      poked = client.Connect("serve.sock", &error) && client.Reload(&error);
      a.queryable = NowNanos();
    } else {
      a.queryable = a.local;
      poked = ingested &&
              ProgramTotals::Read().Counter("ingest.reload_pokes") == pokes + 1;
    }
    serve::HealthInfo info;
    bool arrived = ingested && poked;
    if (!arrived) {
      result.Fail("ingest-arrivals: arrival " + std::to_string(i) +
                  (ingested ? " was not made queryable " : " failed to ingest ") +
                  error);
    } else if (!health.Health(&info, &error) ||
               info.index_size != service.manifest().TotalEntries()) {
      result.Fail("ingest-arrivals: after arrival " + std::to_string(i) +
                  " the daemon serves " + std::to_string(info.index_size) +
                  " entries, the manifest holds " +
                  std::to_string(service.manifest().TotalEntries()));
    }
    a.delta_start = NowNanos();
    ingest::DeltaVulnResult delta;
    if (!ingest::DeltaVulnSearch(model, "idx", kAlertThreshold, 4, threads,
                                 &delta, &error) ||
        delta.shards_searched != 1 ||
        delta.entries_searched != stats.functions_indexed) {
      result.Fail("ingest-arrivals: delta search after arrival " +
                  std::to_string(i) + " scanned " +
                  std::to_string(delta.shards_searched) + " shards " + error);
      arrived = false;
    }
    a.alert = NowNanos();
    result.failed += arrived ? 0 : 1;
  }
  const ProgramTotals after = ProgramTotals::Read();
  reader.join();
  if (!read_error.empty()) result.Fail("ingest-arrivals: reads: " + read_error);
  const double peak_rss = daemon.PeakRssMb();
  health.Close();
  if (!daemon.Stop(&error)) result.Fail("ingest-arrivals: " + error);

  result.attempted = arrivals + static_cast<std::int64_t>(read_outcomes.size());
  result.failed += Failures(read_outcomes);

  std::vector<double> queryable, alert, service_s, lags, local, reload, delta;
  std::int64_t ingester_free = 0;
  for (const Arrival& a : log) {
    queryable.push_back(static_cast<double>(a.queryable - a.due) * 1e-6);
    alert.push_back(static_cast<double>(a.alert - a.due) * 1e-6);
    service_s.push_back(static_cast<double>(a.alert - a.start) * 1e-9);
    // Waiting behind the previous arrival is the system's queueing, not
    // generator lateness.
    lags.push_back(
        static_cast<double>(a.start - std::max(a.due, ingester_free)) * 1e-6);
    ingester_free = a.alert;
    local.push_back(static_cast<double>(a.local - a.start) * 1e-6);
    reload.push_back(static_cast<double>(a.queryable - a.local) * 1e-6);
    delta.push_back(static_cast<double>(a.alert - a.delta_start) * 1e-6);
  }
  const std::vector<double> bg = Latencies(read_outcomes);
  // Arrivals per second the ingest + alert path absorbs back to back.
  const double rate = 1.0 / Mean(service_s);
  std::vector<double> rates;
  for (double s : service_s) rates.push_back(1.0 / s);
  const double lag = std::max(Percentile(lags, 0.99),
                              Percentile(LagsMs(read_outcomes), 0.99));

  result.end_to_end = {
      MakeMetric("setup_s", "s", Percentile(setups, 0.5), setups),
      MakeMetric("p50_ms", "ms", Percentile(queryable, 0.5), queryable),
      MakeMetric("tail_ms", "ms", Percentile(queryable, 0.9), queryable),
      MakeMetric("rate_per_s", "1/s", rate, rates),
      MakeMetric("peak_rss_mb", "MiB", peak_rss, {peak_rss}),
  };
  result.named = {
      MakeMetric("arrival_to_queryable_ms.p50", "ms",
                 Percentile(queryable, 0.5), queryable),
      MakeMetric("arrival_to_queryable_ms.p90", "ms",
                 Percentile(queryable, 0.9), queryable),
      MakeMetric("arrival_to_alert_ms.p50", "ms", Percentile(alert, 0.5),
                 alert),
      MakeMetric("bg_topk_p95_ms", "ms", Percentile(bg, 0.95), bg),
      MakeMetric("failed_frac", "ratio",
                 static_cast<double>(result.failed) /
                     static_cast<double>(result.attempted),
                 {}),
      MakeMetric("gen.lag_ms.p99", "ms", lag, lags),
  };
  result.layers["gen.lag_ms.p99"] = lag;
  result.notes["fleet_shards"] = std::to_string(fleet_size);
  result.notes["arrivals"] = std::to_string(arrivals);
  result.notes["input_cache"] =
      hit_fleet && hit_arrivals && hit_queries ? "hit" : "miss";

  if (opt.traced) {
    const double n = static_cast<double>(arrivals);
    result.layers["ingest.local_ms.p50"] = Percentile(local, 0.5);
    result.layers["serve.reload_ms.p50"] = Percentile(reload, 0.5);
    result.layers["ingest.delta_ms.p50"] = Percentile(delta, 0.5);
    result.layers["decompiler.ms_per_arrival"] =
        static_cast<double>(after.Nanos("decompile") - before.Nanos("decompile")) *
        1e-6 / n;
    result.layers["core.encode.ms_per_arrival"] =
        static_cast<double>(after.Nanos("encode") - before.Nanos("encode")) *
        1e-6 / n;
    store::ShardManifest manifest;
    if (store::LoadManifest(&manifest, "idx/manifest.mani", &error)) {
      result.layers["ingest.shards"] =
          static_cast<double>(manifest.shards.size());
    }
    result.layers["store.manifest_kb"] =
        static_cast<double>(FileSize("idx/manifest.mani")) / 1024.0;

    std::vector<util::ParsedRequestRecord> records;
    int corrupt = 0;
    if (util::ReadRequestLogFile("slow.log", &records, &corrupt, &error)) {
      std::map<std::uint64_t, std::uint64_t> queue_wait;
      for (const auto& r : records) queue_wait[r.trace_id] = r.queue_wait_nanos;
      std::vector<double> waits;
      for (const Outcome& o : read_outcomes) {
        auto it = o.ok ? queue_wait.find(o.trace_id) : queue_wait.end();
        if (it != queue_wait.end()) {
          waits.push_back(static_cast<double>(it->second) * 1e-3);
        }
      }
      result.layers["serve.bg_queue_wait_us.p95"] = Percentile(waits, 0.95);
    } else {
      result.Fail("ingest-arrivals: cannot read daemon slow log: " + error);
    }

    SpanBuffer spans;
    for (const Arrival& a : log) {
      const int root = spans.Add("arrival", a.due, a.alert);
      spans.Add("ingest.local", a.start, a.local, root);
      spans.Add("serve.reload", a.local, a.queryable, root);
      spans.Add("ingest.delta", a.delta_start, a.alert, root);
    }
    RecordSpans(read_outcomes, &spans);
    if (!WriteSpans("spans.jsonl", spans, &error)) {
      result.Fail("ingest-arrivals: " + error);
    }
  }
  return result;
}

}  // namespace asteria::perf
