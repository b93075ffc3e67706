// query-topk: TopK k=10 against asteria-serve over a 50k-entry index built
// from fw-gen-style firmware, with an open-loop Poisson stream of queries
// drawn from disjoint images (no query repeats). Stresses serve and
// core.search; decompile and bulk encode do no work while it measures.
#include <cmath>
#include <cstdio>
#include <map>

#include "core/search_index.h"
#include "inputs.h"
#include "load.h"
#include "serve/client.h"
#include "util/request_log.h"
#include "workloads.h"

namespace asteria::perf {
namespace {

constexpr int kTopK = 10;
constexpr int kCheckedQueries = 64;
constexpr int kCheckEvery = 32;
constexpr int kConnections = 2;
constexpr int kCapacityWindow = 8;

struct Sizes {
  int entries;
  double warm, low, high, capacity;  // phase lengths, seconds
};

Sizes SizesFor(const Options& opt) {
  const double s = opt.seconds;
  Sizes sizes{opt.smoke ? 2000 : 50000, 0.1 * s, 0.35 * s, 0.35 * s, 0.2 * s};
  return sizes;
}

std::vector<double> SweepRates() {
  std::vector<double> rates;
  for (double r = 50.0; r < 400.0; r *= 1.25) rates.push_back(r);
  rates.push_back(400.0);
  return rates;
}

// Offered load the phases can draw, with headroom for Poisson excess; the
// capacity window draws what remains.
int PoolSize(const Options& opt, const Sizes& sizes) {
  double expected = 0.0;
  if (opt.sweep) {
    for (double r : SweepRates()) expected += r * (opt.smoke ? 0.3 : 5.0);
  } else {
    expected = 100.0 * (sizes.warm + sizes.low) + 200.0 * sizes.high +
               2000.0 * sizes.capacity;
  }
  return static_cast<int>(expected * 1.3) + kCheckedQueries + 100;
}

// Compares daemon replies kept during timing against in-process TopK.
void CheckKept(const core::SearchIndex& local,
               const std::vector<core::FunctionFeature>& pool,
               const std::vector<Outcome>& outcomes, RunResult* result) {
  std::vector<const core::FunctionFeature*> queries;
  std::vector<const Outcome*> kept;
  for (const Outcome& o : outcomes) {
    if (o.ok && o.query % kCheckEvery == 0) {
      queries.push_back(&pool[static_cast<std::size_t>(o.query)]);
      kept.push_back(&o);
    }
  }
  const std::vector<int> ks(queries.size(), kTopK);
  const auto expected = local.TopKBatch(queries, ks);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    if (!SameHits(kept[i]->hits, expected[i])) {
      result->Fail("query-topk: daemon hits for query " +
                   std::to_string(kept[i]->query) +
                   " differ from in-process TopK");
    }
  }
}

// One open-loop phase at `rate` for `seconds`, drawing the next unused
// queries; the last kCheckedQueries of the pool stay reserved.
std::vector<Outcome> OpenLoop(const LoadTarget& target, util::Rng* rng,
                              double rate, double seconds, int* next_query,
                              RunResult* result) {
  Phase phase;
  const std::int64_t start = NowNanos() + 20'000'000;
  phase.plan = PoissonPlan(rng, rate, start, seconds, next_query);
  if (*next_query > static_cast<int>(target.pool->size()) - kCheckedQueries) {
    result->Fail("query-topk: query pool exhausted");
    return {};
  }
  phase.give_up = start + static_cast<std::int64_t>((seconds + 30.0) * 1e9);
  std::string error;
  std::vector<Outcome> outcomes = RunPhase(target, phase, kConnections, &error);
  if (!error.empty()) result->Fail("query-topk: " + error);
  return outcomes;
}

void RunSweep(const LoadTarget& target, const Options& opt, util::Rng* rng,
              int* next_query, RunResult* result) {
  std::printf("\n  offered_qps  achieved_qps  p50_ms    p99_ms    shed  failed\n");
  for (double rate : SweepRates()) {
    const double seconds = opt.smoke ? 0.3 : 5.0;
    const std::vector<Outcome> outcomes =
        OpenLoop(target, rng, rate, seconds, next_query, result);
    std::int64_t shed = 0;
    for (const Outcome& o : outcomes) shed += o.shed ? 1 : 0;
    const std::vector<double> lat = Latencies(outcomes);
    const double achieved = static_cast<double>(lat.size()) / seconds;
    std::printf("  %11.1f  %12.1f  %8.3f  %8.3f  %4lld  %6lld\n", rate,
                achieved, Percentile(lat, 0.5), Percentile(lat, 0.99),
                static_cast<long long>(shed),
                static_cast<long long>(Failures(outcomes)));
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".%.0fqps", rate);
    result->named.push_back(MakeMetric(std::string("sweep_p50_ms") + suffix,
                                       "ms", Percentile(lat, 0.5), lat));
    result->named.push_back(MakeMetric(std::string("sweep_p99_ms") + suffix,
                                       "ms", Percentile(lat, 0.99), lat));
    result->named.push_back(MakeMetric(std::string("sweep_shed") + suffix,
                                       "count", static_cast<double>(shed), {}));
    result->attempted += static_cast<std::int64_t>(outcomes.size());
    result->failed += Failures(outcomes);
  }
}

// Per-layer split of a traced run: bench-side timestamps joined by trace id
// with the daemon's request records (its slow log at --slow_query_ms=0).
void LayerSplit(const std::vector<Outcome>& low,
                const std::vector<Outcome>& high,
                const std::vector<Outcome>& capacity, RunResult* result) {
  std::vector<util::ParsedRequestRecord> records;
  int corrupt = 0;
  std::string error;
  if (!util::ReadRequestLogFile("slow.log", &records, &corrupt, &error)) {
    result->Fail("query-topk: cannot read daemon slow log: " + error);
    return;
  }
  std::map<std::uint64_t, const util::ParsedRequestRecord*> by_trace;
  for (const auto& r : records) by_trace[r.trace_id] = &r;
  const auto record = [&](const Outcome& o) -> const util::ParsedRequestRecord* {
    auto it = by_trace.find(o.trace_id);
    return it == by_trace.end() ? nullptr : it->second;
  };
  std::vector<double> codec, wire, reply, encode, sweep;
  std::size_t joined = 0, answered = 0;
  for (const Outcome& o : low) {
    if (!o.ok) continue;
    ++answered;
    const util::ParsedRequestRecord* r = record(o);
    if (r == nullptr) continue;
    ++joined;
    codec.push_back(static_cast<double>(o.put_nanos + o.get_nanos) * 1e-3);
    const double rtt = static_cast<double>(o.received - o.written);
    const double daemon = static_cast<double>(r->queue_wait_nanos +
                                              r->encode_nanos + r->score_nanos +
                                              r->reply_nanos);
    wire.push_back((rtt - daemon) * 1e-3);
    reply.push_back(static_cast<double>(r->reply_nanos) * 1e-3);
    encode.push_back(static_cast<double>(r->encode_nanos) * 1e-3);
    sweep.push_back(static_cast<double>(r->score_nanos) * 1e-3);
  }
  std::vector<double> queue_wait, batch;
  for (const Outcome& o : high) {
    if (const auto* r = o.ok ? record(o) : nullptr) {
      queue_wait.push_back(static_cast<double>(r->queue_wait_nanos) * 1e-3);
    }
  }
  for (const Outcome& o : capacity) {
    if (const auto* r = o.ok ? record(o) : nullptr) {
      batch.push_back(static_cast<double>(r->batch_size));
    }
  }
  double scored = 0.0, pruned = 0.0, sweep_share_ns = 0.0;
  for (const auto& r : records) {
    if (r.op != "serve.topk" || r.outcome != "ok") continue;
    scored += static_cast<double>(r.scored_pairs);
    pruned += static_cast<double>(r.pruned_pairs);
    // A batch's sweep is shared; charge each query its share.
    sweep_share_ns += static_cast<double>(r.score_nanos) /
                      static_cast<double>(r.batch_size == 0 ? 1 : r.batch_size);
  }
  if (joined != answered) {
    result->Fail("query-topk: " + std::to_string(answered - joined) +
                 " answered queries have no daemon record");
  }
  result->layers["serve.client_codec_us.p50"] = Percentile(codec, 0.5);
  result->layers["serve.wire_us.p50"] = Percentile(wire, 0.5);
  result->layers["serve.reply_us.p50"] = Percentile(reply, 0.5);
  result->layers["serve.queue_wait_us.p50"] = Percentile(queue_wait, 0.5);
  result->layers["serve.queue_wait_us.p99"] = Percentile(queue_wait, 0.99);
  result->layers["serve.batch_queries.mean"] = Mean(batch);
  result->layers["core.encode.query_us.p50"] = Percentile(encode, 0.5);
  result->layers["core.search.sweep_us.p50"] = Percentile(sweep, 0.5);
  result->layers["core.search.scored_frac"] =
      scored + pruned > 0 ? scored / (scored + pruned) : 0.0;
  result->layers["core.search.ns_per_scored_pair"] =
      scored > 0 ? sweep_share_ns / scored : 0.0;
}

}  // namespace

RunResult RunQueryTopk(const Options& opt) {
  RunResult result;
  const Sizes sizes = SizesFor(opt);
  const int threads = opt.threads;

  // Inputs: fleet images for the index, disjoint images for queries.
  bool fleet_hit = false, query_hit = false;
  const ImageBlobs fleet = CachedImages(opt.cache_dir, opt.seed, Stream::kFleet,
                                        sizes.entries / 10, threads, &fleet_hit);
  const int pool_size = PoolSize(opt, sizes);
  const ImageBlobs query_images =
      CachedImages(opt.cache_dir, opt.seed, Stream::kQueries,
                   pool_size / 8 + 1, threads, &query_hit);

  // Program outputs are rebuilt every run: decompile + encode the index.
  std::vector<core::FunctionFeature> entries = DecompileImages(fleet, threads);
  std::vector<core::FunctionFeature> pool =
      DecompileImages(query_images, threads);
  if (static_cast<int>(entries.size()) < sizes.entries ||
      static_cast<int>(pool.size()) < pool_size) {
    result.Fail("query-topk: generated inputs too small (" +
                std::to_string(entries.size()) + " entries, " +
                std::to_string(pool.size()) + " queries)");
    return result;
  }
  entries.resize(static_cast<std::size_t>(sizes.entries));
  pool.resize(static_cast<std::size_t>(pool_size));
  util::Rng rng(util::Rng::DeriveSeed(opt.seed, 0x717));
  rng.Shuffle(pool);

  const core::AsteriaModel model(BenchModelConfig());
  std::string error;
  {
    core::SearchIndex build(model, threads);
    const util::PipelineReport report = build.AddAll(entries);
    if (build.size() != sizes.entries || report.failed != 0) {
      result.Fail("query-topk: index build dropped entries: " +
                  report.Summary());
      return result;
    }
    if (!build.Save("fleet.idx", &error)) {
      result.Fail("query-topk: " + error);
      return result;
    }
  }
  core::SearchIndex local(model, threads);
  const std::int64_t open_start = NowNanos();
  if (!local.Open("fleet.idx", &error)) {
    result.Fail("query-topk: " + error);
    return result;
  }
  result.layers["store.index_open_ms"] =
      static_cast<double>(NowNanos() - open_start) * 1e-6;

  // Set-up: daemon start to first pong, three times; the last one serves.
  std::vector<double> setups;
  Daemon daemon;
  if (!StartServing(opt, "fleet.idx", &daemon, &setups, &error)) {
    result.Fail("query-topk: " + error);
    return result;
  }

  // Correctness before timing: a seeded sample, bitwise against in-process.
  {
    serve::Client client;
    if (!client.Connect("serve.sock", &error)) {
      result.Fail("query-topk: " + error);
      return result;
    }
    std::vector<const core::FunctionFeature*> sample;
    for (int i = 0; i < kCheckedQueries; ++i) {
      sample.push_back(&pool[pool.size() - 1 - static_cast<std::size_t>(i)]);
    }
    const auto expected =
        local.TopKBatch(sample, std::vector<int>(sample.size(), kTopK));
    for (std::size_t i = 0; i < sample.size(); ++i) {
      std::vector<core::SearchHit> hits;
      if (!client.TopK(*sample[i], kTopK, &hits, &error) ||
          !SameHits(hits, expected[i])) {
        result.Fail("query-topk: pre-check query " + std::to_string(i) +
                    " differs from in-process TopK " + error);
      }
    }
  }

  LoadTarget target;
  target.socket = "serve.sock";
  target.pool = &pool;
  target.k = kTopK;
  target.index_size = sizes.entries;
  target.check_every = kCheckEvery;
  int next_query = 0;

  if (opt.sweep) {
    RunSweep(target, opt, &rng, &next_query, &result);
    result.end_to_end.push_back(
        MakeMetric("setup_s", "s", Percentile(setups, 0.5), setups));
    daemon.Stop(&error);
    return result;
  }

  const std::vector<Outcome> warm =
      OpenLoop(target, &rng, 100.0, sizes.warm, &next_query, &result);
  const std::vector<Outcome> low =
      OpenLoop(target, &rng, 100.0, sizes.low, &next_query, &result);
  const std::vector<Outcome> high =
      OpenLoop(target, &rng, 200.0, sizes.high, &next_query, &result);
  // Capacity: a closed window of requests always outstanding.
  Phase closed;
  for (int q = next_query; q < static_cast<int>(pool.size()) - kCheckedQueries;
       ++q) {
    Outcome o;
    o.query = q;
    closed.plan.push_back(o);
  }
  closed.window = kCapacityWindow;
  const std::int64_t capacity_start = NowNanos();
  const std::int64_t capacity_end =
      capacity_start + static_cast<std::int64_t>(sizes.capacity * 1e9);
  closed.stop_sending = capacity_end;
  closed.give_up = capacity_end + 30'000'000'000LL;
  std::string closed_error;
  const std::vector<Outcome> capacity =
      RunPhase(target, closed, kConnections, &closed_error);
  if (!closed_error.empty()) result.Fail("query-topk: " + closed_error);
  const double peak_rss = daemon.PeakRssMb();
  if (!daemon.Stop(&error)) result.Fail("query-topk: " + error);

  for (const auto* phase : {&warm, &low, &high, &capacity}) {
    CheckKept(local, pool, *phase, &result);
    result.attempted += static_cast<std::int64_t>(phase->size());
    result.failed += Failures(*phase);
  }

  // Capacity: completions inside the window (which ends early if the pool
  // runs dry), with per-250ms rates as its spread.
  constexpr std::int64_t kBucket = 250'000'000;
  std::vector<double> window_rates(
      static_cast<std::size_t>((capacity_end - capacity_start) / kBucket), 0.0);
  double completed = 0.0;
  std::int64_t last = capacity_start;
  for (const Outcome& o : capacity) {
    if (!o.ok || o.received > capacity_end) continue;
    completed += 1.0;
    last = std::max(last, o.received);
    const std::size_t b =
        static_cast<std::size_t>((o.received - capacity_start) / kBucket);
    if (b < window_rates.size()) window_rates[b] += 1e9 / kBucket;
  }
  const double capacity_qps =
      last > capacity_start
          ? completed / (static_cast<double>(last - capacity_start) * 1e-9)
          : 0.0;

  const std::vector<double> lat_low = Latencies(low);
  const std::vector<double> lat_high = Latencies(high);
  std::vector<double> lag_p99;
  for (const auto* phase : {&warm, &low, &high}) {
    lag_p99.push_back(Percentile(LagsMs(*phase), 0.99));
  }
  const double lag = *std::max_element(lag_p99.begin(), lag_p99.end());

  result.end_to_end = {
      MakeMetric("setup_s", "s", Percentile(setups, 0.5), setups),
      MakeMetric("p50_ms", "ms", Percentile(lat_low, 0.5), lat_low),
      // p90 at the lower rate: near saturation (200 qps is 60-85% of
      // capacity here) tail latency swings several-fold between runs.
      MakeMetric("tail_ms", "ms", Percentile(lat_low, 0.9), lat_low),
      MakeMetric("rate_per_s", "1/s", capacity_qps, window_rates),
      MakeMetric("peak_rss_mb", "MiB", peak_rss, {peak_rss}),
  };
  const double attempted = static_cast<double>(result.attempted);
  result.named = {
      MakeMetric("topk_p50_ms.100qps", "ms", Percentile(lat_low, 0.5), lat_low),
      MakeMetric("topk_p90_ms.100qps", "ms", Percentile(lat_low, 0.9), lat_low),
      MakeMetric("topk_p99_ms.100qps", "ms", Percentile(lat_low, 0.99), lat_low),
      MakeMetric("topk_p50_ms.200qps", "ms", Percentile(lat_high, 0.5), lat_high),
      MakeMetric("topk_p90_ms.200qps", "ms", Percentile(lat_high, 0.9), lat_high),
      MakeMetric("topk_p99_ms.200qps", "ms", Percentile(lat_high, 0.99),
                 lat_high),
      MakeMetric("topk_capacity_qps", "1/s", capacity_qps, window_rates),
      MakeMetric("failed_frac", "ratio",
                 static_cast<double>(result.failed) / attempted, {}),
      MakeMetric("gen.lag_ms.p99", "ms", lag, lag_p99),
  };
  result.layers["gen.lag_ms.p99"] = lag;
  result.notes["index_entries"] = std::to_string(sizes.entries);
  result.notes["query_pool"] = std::to_string(pool.size());
  result.notes["input_cache"] = fleet_hit && query_hit ? "hit" : "miss";

  if (opt.traced) {
    LayerSplit(low, high, capacity, &result);
    SpanBuffer spans;
    for (const auto* phase : {&warm, &low, &high, &capacity}) {
      RecordSpans(*phase, &spans);
    }
    if (!WriteSpans("spans.jsonl", spans, &error)) {
      result.Fail("query-topk: " + error);
    }
  }
  return result;
}

}  // namespace asteria::perf
