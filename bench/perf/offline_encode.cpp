// offline-encode: the bulk corpus path users run as
// `asteria-cli ingest <dir> --drop_dir=<drops> --compact` — ScanDropDir over
// 800 firmware images plus Compact into a fresh directory, repeated, with
// four encode threads. Decompiler and encoder dominate; nothing is scored.
#include <algorithm>
#include <cstdio>

#include "ingest/ingest.h"
#include "inputs.h"
#include "store/manifest.h"
#include "util/request_log.h"
#include "util/trace.h"
#include "workloads.h"

namespace asteria::perf {
namespace {

// Digest of a published index: the manifest bytes, then every shard it
// names, in query order.
bool IndexDigest(const std::string& dir, std::uint64_t* digest,
                 std::string* error) {
  const std::string manifest_path = dir + "/" + store::kManifestFileName;
  store::ShardManifest manifest;
  std::vector<std::uint8_t> bytes;
  if (!store::LoadManifest(&manifest, manifest_path, error) ||
      !ReadFile(manifest_path, &bytes)) {
    return false;
  }
  for (const store::ShardRecord& shard : manifest.shards) {
    std::vector<std::uint8_t> shard_bytes;
    if (!ReadFile(dir + "/" + shard.file, &shard_bytes)) {
      *error = dir + "/" + shard.file + ": unreadable";
      return false;
    }
    bytes.insert(bytes.end(), shard_bytes.begin(), shard_bytes.end());
  }
  *digest = store::ContentDigest64(bytes.data(), bytes.size());
  return true;
}

}  // namespace

RunResult RunOfflineEncode(const Options& opt) {
  RunResult result;
  const int images = opt.smoke ? 40 : 800;
  const int min_reps = opt.smoke ? 2 : 3;
  bool hit = false;
  std::string error;
  if (!WriteDropDir("drop",
                    CachedImages(opt.cache_dir, opt.seed, Stream::kOffline,
                                 images, opt.threads, &hit),
                    &error)) {
    result.Fail("offline-encode: " + error);
    return result;
  }
  ingest::IngestConfig config;
  config.threads = opt.threads;

  // Set-up: a fresh `asteria-cli ingest` up to its first published shard —
  // build the model, open an empty index directory, ingest one image. Lazy
  // first-use work lands here; the open alone is too short to time stably.
  std::vector<double> setups;
  for (int i = 0; i < 11; ++i) {
    config.index_dir = "setup-" + std::to_string(i);
    const std::int64_t t0 = NowNanos();
    const core::AsteriaModel model(BenchModelConfig());
    ingest::IngestService service(model, config);
    ingest::IngestStats stats;
    if (!service.Open(&error) ||
        !service.IngestFile("drop/img-000000.fw", &stats, &error)) {
      result.Fail("offline-encode: set-up: " + error);
    }
    setups.push_back(static_cast<double>(NowNanos() - t0) * 1e-9);
    RemoveTree(config.index_dir);
  }

  const core::AsteriaModel model(BenchModelConfig());
  config.index_dir = "idx";
  ResetSelfPeakRss();
  std::vector<double> rep_s, compact_ms, per_image_ms;
  double functions = 0.0;
  std::uint64_t first_digest = 0;
  const ProgramTotals before = ProgramTotals::Read();
  const std::int64_t start = NowNanos();
  int reps = 0;
  while (reps < min_reps ||
         static_cast<double>(NowNanos() - start) * 1e-9 < opt.seconds) {
    RemoveTree(config.index_dir);
    const std::int64_t trace_start = util::TraceNowNanos();
    const std::int64_t t0 = NowNanos();
    ingest::IngestService service(model, config);
    ingest::IngestStats stats;
    int merged = 0;
    const bool opened = service.Open(&error);
    const int published = opened ? service.ScanDropDir("drop", &stats) : 0;
    const std::int64_t t1 = NowNanos();
    const bool compacted = opened && service.Compact(&merged, &error);
    const std::int64_t t2 = NowNanos();
    ++reps;
    result.attempted += images;
    result.failed += images - published;
    if (!opened || !compacted || published != images ||
        stats.images_failed != 0) {
      result.Fail("offline-encode: rep " + std::to_string(reps) + " published " +
                  std::to_string(published) + "/" + std::to_string(images) +
                  " " + error + " " + stats.report.Summary());
      continue;
    }
    rep_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
    compact_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
    functions += stats.functions_indexed;
    for (const util::RequestRecord& r : util::GlobalRequestLog().Snapshot()) {
      if (r.end_nanos >= trace_start && std::string(r.op) == "ingest.image") {
        per_image_ms.push_back(static_cast<double>(r.encode_nanos) * 1e-6);
      }
    }
    std::uint64_t digest = 0;
    if (!IndexDigest(config.index_dir, &digest, &error)) {
      result.Fail("offline-encode: " + error);
    } else if (reps == 1) {
      first_digest = digest;
    } else if (digest != first_digest) {
      result.Fail("offline-encode: rep " + std::to_string(reps) +
                  " published different shard bytes than rep 1");
    }
  }
  const ProgramTotals after = ProgramTotals::Read();
  const double peak_rss = SelfPeakRssMb();
  RemoveTree(config.index_dir);

  double total_s = 0.0;
  for (double s : rep_s) total_s += s;
  const double fns_per_s = total_s > 0 ? functions / total_s : 0.0;
  std::vector<double> rep_rates;
  for (double s : rep_s) {
    rep_rates.push_back(functions / static_cast<double>(rep_s.size()) / s);
  }
  std::vector<double> rep_ms;
  for (double s : rep_s) rep_ms.push_back(s * 1e3);

  result.end_to_end = {
      MakeMetric("setup_s", "s", Percentile(setups, 0.5), setups),
      MakeMetric("p50_ms", "ms", Percentile(per_image_ms, 0.5), per_image_ms),
      MakeMetric("tail_ms", "ms", Percentile(per_image_ms, 0.99), per_image_ms),
      MakeMetric("rate_per_s", "1/s", fns_per_s, rep_rates),
      MakeMetric("peak_rss_mb", "MiB", peak_rss, {peak_rss}),
  };
  result.named = {
      MakeMetric("encode_fns_per_s", "1/s", fns_per_s, rep_rates),
      MakeMetric("rep_ms", "ms", Percentile(rep_ms, 0.5), rep_ms),
      MakeMetric("compact_ms", "ms", Percentile(compact_ms, 0.5), compact_ms),
      MakeMetric("failed_frac", "ratio",
                 static_cast<double>(result.failed) /
                     static_cast<double>(result.attempted),
                 {}),
  };
  result.notes["images"] = std::to_string(images);
  result.notes["reps"] = std::to_string(reps);
  result.notes["functions_per_rep"] =
      std::to_string(static_cast<long long>(functions / std::max(1, reps)));
  result.notes["input_cache"] = hit ? "hit" : "miss";

  if (opt.traced) {
    const double decompile_ns =
        static_cast<double>(after.Nanos("decompile") - before.Nanos("decompile"));
    const double encode_ns =
        static_cast<double>(after.Nanos("encode") - before.Nanos("encode"));
    const double ingest_ns =
        static_cast<double>(after.Nanos("ingest") - before.Nanos("ingest"));
    const double decompiled = static_cast<double>(
        after.Count("decompile") - before.Count("decompile"));
    const double encoded =
        static_cast<double>(after.Count("encode") - before.Count("encode"));
    const double ingested = static_cast<double>(reps) * images;
    result.layers["decompiler.us_per_fn"] =
        decompiled > 0 ? decompile_ns * 1e-3 / decompiled : 0.0;
    result.layers["core.encode.us_per_fn"] =
        encoded > 0 ? encode_ns * 1e-3 / encoded : 0.0;
    // Encode spans run on up to `threads` workers per image; their wall
    // share is approximated by the thread-summed time over that width.
    const double width =
        std::min(static_cast<double>(opt.threads), encoded / ingested);
    result.layers["ingest.other_ms_per_image"] =
        (ingest_ns - decompile_ns - encode_ns / std::max(1.0, width)) * 1e-6 /
        ingested;
    result.layers["ingest.compact_ms"] = Percentile(compact_ms, 0.5);
  }
  return result;
}

}  // namespace asteria::perf
