#include "ingest/ingest.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "decompiler/decompile.h"
#include "firmware/search.h"
#include "firmware/vulnlib.h"
#include "serve/client.h"
#include "store/container.h"
#include "util/crc_lines.h"
#include "util/failpoint.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/request_log.h"
#include "util/timer.h"
#include "util/trace.h"

namespace asteria::ingest {

namespace {

// Failpoints: each one models a crash/failure before the manifest rename
// (the commit point), except ingest.encode which is per-function isolation
// like search.encode/firmware.encode. See docs/ROBUSTNESS.md.
util::Failpoint fp_read("ingest.read");
util::Failpoint fp_decompile("ingest.decompile");
util::Failpoint fp_encode("ingest.encode");
util::Failpoint fp_shard_write("ingest.shard_write");
util::Failpoint fp_publish("ingest.publish");
util::Failpoint fp_compact("ingest.compact");
util::Failpoint fp_alert_append("ingest.alert_append");

// Deterministic counts (docs/OBSERVABILITY.md conventions): everything here
// is a pure function of the ingested inputs, never of thread count.
util::Counter c_images("ingest.images");
util::Counter c_deduped("ingest.images_deduped");
util::Counter c_failed("ingest.images_failed");
util::Counter c_fn_encoded("ingest.functions_encoded");
util::Counter c_cache_hits("ingest.cache_hits");
util::Counter c_cache_quarantined("ingest.cache_quarantined");
util::Counter c_compactions("ingest.compactions");
util::Counter c_delta_searches("ingest.delta_searches");
util::Counter c_alerts("ingest.alerts");
util::Counter c_serve_pokes("ingest.reload_pokes");
util::Histogram h_publish_nanos("ingest.publish_nanos");
util::Gauge g_shards("ingest.shards");
util::Gauge g_entries("ingest.entries");

bool ReadFileBytes(const std::string& path, std::vector<std::uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  std::uint8_t buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    out->insert(out->end(), buffer, buffer + n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

std::uint64_t FileSize(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

bool FileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

bool EnsureDir(const std::string& path, std::string* error) {
  if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST) return true;
  *error = path + ": mkdir failed: " + std::strerror(errno);
  return false;
}

bool CopyFile(const std::string& from, const std::string& to,
              std::string* error) {
  std::vector<std::uint8_t> bytes;
  if (!ReadFileBytes(from, &bytes)) {
    *error = from + ": cannot read for copy";
    return false;
  }
  std::FILE* f = std::fopen(to.c_str(), "wb");
  if (f == nullptr) {
    *error = to + ": cannot open for copy: " + std::strerror(errno);
    return false;
  }
  const bool ok =
      bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                           bytes.size();
  std::fclose(f);
  if (!ok) {
    *error = to + ": short write during copy";
    std::remove(to.c_str());
  }
  return ok;
}

std::string SeqString(std::uint64_t seq) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%08llu",
                static_cast<unsigned long long>(seq));
  return buffer;
}

std::string ShardFileName(std::uint64_t seq) {
  return "shard-" + SeqString(seq) + ".idx";
}

}  // namespace

IngestService::IngestService(const core::AsteriaModel& model,
                             const IngestConfig& config)
    : model_(model), config_(config) {
  if (config_.threads < 1) config_.threads = 1;
}

std::string IngestService::manifest_path() const {
  return config_.index_dir + "/" + store::kManifestFileName;
}

std::string IngestService::CachePath(std::uint64_t digest) const {
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  return config_.index_dir + "/cache/fenc-" + std::string(hex) + ".fenc";
}

bool IngestService::Open(std::string* error) {
  if (opened_) return true;
  if (config_.index_dir.empty()) {
    *error = "ingest: index_dir is empty";
    return false;
  }
  if (!EnsureDir(config_.index_dir, error) ||
      !EnsureDir(config_.index_dir + "/cache", error)) {
    return false;
  }
  if (FileExists(manifest_path())) {
    if (!LoadManifest(&manifest_, manifest_path(), error)) return false;
    if (manifest_.model_fingerprint != model_.WeightsFingerprint()) {
      *error = manifest_path() +
               ": manifest was published for different model weights "
               "(fingerprint mismatch) — the model was retrained; ingest "
               "into a fresh directory (stale FENC caches quarantine and "
               "rebuild automatically there)";
      return false;
    }
  } else {
    manifest_ = store::ShardManifest{};
    manifest_.model_fingerprint = model_.WeightsFingerprint();
  }
  g_shards.Set(static_cast<double>(manifest_.shards.size()));
  g_entries.Set(static_cast<double>(manifest_.TotalEntries()));
  opened_ = true;
  return true;
}

std::vector<core::FunctionFeature> IngestService::DecompileImage(
    const firmware::FirmwareImage& image, int beta, int min_ast_size,
    util::PipelineReport* report) {
  std::vector<core::FunctionFeature> features;
  for (const binary::BinModule& module : image.modules) {
    for (decompiler::ExtractedFunction& extracted :
         decompiler::ExtractModule(module, beta, min_ast_size, report)) {
      features.push_back({module.name + "::" + extracted.decompiled.name,
                          std::move(extracted.lcrs),
                          extracted.decompiled.callee_count});
    }
  }
  return features;
}

bool IngestService::Publish(store::ShardManifest next, std::string* error) {
  if (fp_publish.ShouldFail()) {
    *error = manifest_path() +
             ": injected crash before manifest publish (failpoint "
             "ingest.publish)";
    return false;
  }
  util::Timer timer;
  if (!SaveManifest(next, manifest_path(), error)) return false;
  h_publish_nanos.Observe(static_cast<std::uint64_t>(timer.ElapsedNanos()));
  manifest_ = std::move(next);
  g_shards.Set(static_cast<double>(manifest_.shards.size()));
  g_entries.Set(static_cast<double>(manifest_.TotalEntries()));
  PokeServe();
  return true;
}

void IngestService::PokeServe() const {
  if (config_.serve_socket.empty()) return;
  serve::Client client;
  std::string error;
  if (!client.Connect(config_.serve_socket, &error, 30) ||
      !client.Reload(&error)) {
    // The manifest is already durable; a daemon that is down or mid-restart
    // simply picks the new shards up on its next reload.
    ASTERIA_LOG(Warn) << "ingest: serve reload poke failed ("
                      << config_.serve_socket << "): " << error;
    return;
  }
  c_serve_pokes.Increment();
  ASTERIA_LOG(Info) << "ingest: poked asteria-serve reload on "
                    << config_.serve_socket;
}

bool IngestService::IngestFile(const std::string& path, IngestStats* stats,
                               std::string* error) {
  if (!Open(error)) return false;
  util::TraceSpan span("ingest");
  util::PipelineReport local;
  local.stage = "ingest";
  // One wide-event record per image (docs/OBSERVABILITY.md): the pipeline's
  // wall time — the "ingest" span, ended here — rides in encode_nanos
  // (encoding dominates an ingest), the image path in name, the outcome
  // says published vs failed. Deduped images cut a record too — "we did
  // nothing" is an answer.
  const auto cut_record = [&](util::RequestOutcome outcome) {
    util::RequestRecord record;
    record.trace_id = util::MintTraceId();
    record.op = "ingest.image";
    record.outcome = outcome;
    record.encode_nanos = span.End();
    record.SetName(path);
    record.end_nanos = util::TraceNowNanos();
    util::GlobalRequestLog().Append(record);
  };
  auto fail = [&](const std::string& why) {
    *error = why;
    ++stats->images_failed;
    c_failed.Increment();
    local.AddFailed(why);
    stats->report.Merge(local);
    util::PublishPipelineReport(local);
    cut_record(util::RequestOutcome::kError);
    return false;
  };

  // 1. Read + digest. Dedup costs one hash — no unpack, no encode.
  std::vector<std::uint8_t> blob;
  if (fp_read.ShouldFail()) {
    return fail(path + ": injected read failure (failpoint ingest.read)");
  }
  if (!ReadFileBytes(path, &blob)) {
    return fail(path + ": cannot read firmware image");
  }
  const std::uint64_t digest = store::ContentDigest64(blob.data(), blob.size());
  if (manifest_.HasSource(digest)) {
    ++stats->images_deduped;
    c_deduped.Increment();
    ASTERIA_LOG(Info) << "ingest: " << path
                      << " already ingested (digest match); skipping";
    cut_record(util::RequestOutcome::kOk);
    return true;
  }

  // 2. Unpack + decompile (per-function isolation via the report).
  auto image = firmware::Unpack(blob);
  if (!image.has_value()) {
    return fail(path + ": firmware image failed to unpack");
  }
  if (fp_decompile.ShouldFail()) {
    return fail(path +
                ": injected decompile failure (failpoint ingest.decompile)");
  }
  const std::vector<core::FunctionFeature> features =
      DecompileImage(*image, config_.beta, decompiler::kMinAstSize, &local);

  // 3. Encode — through the per-image FENC cache when possible, so a
  // retried or re-dropped image never re-encodes functions it already paid
  // for. A cache from different model weights fails the fingerprint check,
  // is quarantined, and gets rebuilt (the staleness guard).
  const std::string cache_path = CachePath(digest);
  std::vector<nn::Matrix> encodings;
  std::string cache_error;
  if (firmware::LoadFirmwareEncodings(&encodings, model_, features.size(),
                                      cache_path, &cache_error)) {
    ++stats->cache_hits;
    c_cache_hits.Increment();
    ASTERIA_LOG(Info) << "ingest: encoding cache hit: " << cache_path;
  } else {
    if (FileExists(cache_path)) {
      std::string quarantined;
      if (store::QuarantineFile(cache_path, &quarantined)) {
        c_cache_quarantined.Increment();
        ASTERIA_LOG(Warn) << "ingest: quarantined stale encoding cache to "
                          << quarantined << " (" << cache_error << ")";
      }
    }
    // Failed functions keep an empty 0x0 placeholder slot (the FENC
    // convention), so cache layout stays positionally aligned to the
    // decompiled features.
    core::IsolatedEncodings encoded = core::EncodeIsolated(
        model_, features.size(),
        [&](std::size_t i) -> const core::FunctionFeature& {
          return features[i];
        },
        config_.threads, fp_encode);
    encodings = std::move(encoded.encodings);
    stats->functions_encoded += static_cast<int>(encoded.report.ok);
    c_fn_encoded.Add(static_cast<std::uint64_t>(encoded.report.ok));
    encoded.report.ok = 0;  // the decompile step already counted these
    local.Merge(encoded.report);
    std::string write_error;
    if (!firmware::SaveFirmwareEncodings(encodings, model_, cache_path,
                                         &write_error)) {
      // Non-fatal: the shard still publishes; the next ingest of this
      // digest just re-encodes.
      ASTERIA_LOG(Warn) << "ingest: encoding cache write failed: "
                        << write_error;
    }
  }

  // 4. Build + write the shard snapshot (immutable once published).
  core::SearchIndex shard(model_, config_.threads);
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (encodings[i].size() == 0) continue;  // failed encode (counted above)
    if (shard.AddEncoded(features[i].name, encodings[i],
                         features[i].callee_count) < 0) {
      local.AddFailed(features[i].name + ": cached encoding rejected");
    }
  }
  const std::uint64_t seq = manifest_.sequence + 1;
  const std::string shard_file = ShardFileName(seq);
  const std::string shard_path = config_.index_dir + "/" + shard_file;
  if (fp_shard_write.ShouldFail()) {
    return fail(shard_path +
                ": injected shard write failure (failpoint "
                "ingest.shard_write)");
  }
  if (!shard.Save(shard_path, error)) return fail(*error);

  // 5. Publish: the manifest rename is the single commit point — a crash
  // anywhere above leaves the previous manifest (and all its shards)
  // bitwise intact, with only an orphaned shard/cache file to overwrite on
  // retry.
  store::ShardManifest next = manifest_;
  store::ShardRecord record;
  record.file = shard_file;
  record.entries = static_cast<std::uint64_t>(shard.size());
  record.bytes = FileSize(shard_path);
  record.created_seq = seq;
  record.sources.push_back(digest);
  next.shards.push_back(std::move(record));
  next.sequence = seq;
  if (!Publish(std::move(next), error)) return fail(*error);

  ++stats->images_published;
  c_images.Increment();
  stats->functions_indexed += shard.size();
  stats->report.Merge(local);
  util::PublishPipelineReport(local);
  cut_record(util::RequestOutcome::kOk);
  ASTERIA_LOG(Info) << "ingest: published " << shard_file << " ("
                    << shard.size() << " functions) from " << path;
  return true;
}

int IngestService::ScanDropDir(const std::string& drop_dir,
                               IngestStats* stats) {
  std::vector<std::string> names;
  DIR* dir = ::opendir(drop_dir.c_str());
  if (dir == nullptr) {
    const std::string why =
        drop_dir + ": cannot open drop directory: " + std::strerror(errno);
    ASTERIA_LOG(Warn) << "ingest: " << why;
    stats->report.AddFailed(why);
    return 0;
  }
  while (dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.size() > 3 && name.compare(name.size() - 3, 3, ".fw") == 0) {
      names.push_back(name);
    }
  }
  ::closedir(dir);
  // Name order, so a directory's worth of drops ingests identically no
  // matter how readdir happened to enumerate it.
  std::sort(names.begin(), names.end());
  int published = 0;
  for (const std::string& name : names) {
    const int before = stats->images_published;
    std::string error;
    if (!IngestFile(drop_dir + "/" + name, stats, &error)) {
      ASTERIA_LOG(Warn) << "ingest: " << error << " — continuing";
      continue;
    }
    published += stats->images_published - before;
  }
  return published;
}

bool IngestService::Compact(int* merged_runs, std::string* error) {
  if (merged_runs != nullptr) *merged_runs = 0;
  if (!Open(error)) return false;
  ASTERIA_SPAN("compact");
  const std::vector<store::ShardRecord>& shards = manifest_.shards;
  const std::uint64_t small =
      static_cast<std::uint64_t>(std::max(0, config_.compact_max_entries));
  // Only *adjacent* small shards merge: concatenation order is the query
  // order, so merging a run is invisible to TopK — bitwise.
  std::vector<std::pair<std::size_t, std::size_t>> runs;  // [begin, end)
  for (std::size_t i = 0; i < shards.size();) {
    if (shards[i].entries > small) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < shards.size() && shards[j].entries <= small) ++j;
    if (j - i >= 2) runs.emplace_back(i, j);
    i = j;
  }
  if (merged_runs != nullptr) *merged_runs = static_cast<int>(runs.size());
  if (runs.empty()) return true;

  const std::uint64_t seq = manifest_.sequence + 1;
  store::ShardManifest next = manifest_;
  next.sequence = seq;
  std::vector<std::string> replaced;
  // Back to front, so earlier runs' indices stay valid while next.shards
  // is spliced.
  for (auto run = runs.rbegin(); run != runs.rend(); ++run) {
    const std::size_t begin = run->first;
    const std::size_t end = run->second;
    const std::string merged_file =
        "compact-" + SeqString(seq) + "-" + std::to_string(begin) + ".idx";
    const std::string merged_path = config_.index_dir + "/" + merged_file;
    // Seed the merged file with the run's first shard, then AppendTo the
    // remaining entries — the incremental-growth path, no re-encoding.
    if (!CopyFile(config_.index_dir + "/" + shards[begin].file, merged_path,
                  error)) {
      return false;
    }
    core::SearchIndex merged(model_, config_.threads);
    store::ShardRecord record;
    record.file = merged_file;
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t before = static_cast<std::size_t>(merged.size());
      if (!merged.LoadAppend(config_.index_dir + "/" + shards[k].file,
                             error)) {
        return false;
      }
      if (static_cast<std::size_t>(merged.size()) - before !=
          shards[k].entries) {
        *error = manifest_path() + ": shard '" + shards[k].file +
                 "' entry count disagrees with the manifest — refusing to "
                 "compact";
        return false;
      }
      record.created_seq = std::max(record.created_seq, shards[k].created_seq);
      record.sources.insert(record.sources.end(), shards[k].sources.begin(),
                            shards[k].sources.end());
    }
    if (!merged.AppendTo(merged_path,
                         static_cast<int>(shards[begin].entries), error)) {
      return false;
    }
    record.entries = static_cast<std::uint64_t>(merged.size());
    record.bytes = FileSize(merged_path);
    for (std::size_t k = begin; k < end; ++k) {
      replaced.push_back(shards[k].file);
    }
    next.shards.erase(next.shards.begin() + static_cast<std::ptrdiff_t>(begin),
                      next.shards.begin() + static_cast<std::ptrdiff_t>(end));
    next.shards.insert(next.shards.begin() + static_cast<std::ptrdiff_t>(begin),
                       std::move(record));
  }
  if (fp_compact.ShouldFail()) {
    *error = manifest_path() +
             ": injected crash before compacted manifest publish (failpoint "
             "ingest.compact)";
    return false;
  }
  if (!Publish(std::move(next), error)) return false;
  c_compactions.Increment();
  // The old shard files are unreferenced once the new manifest is durable;
  // deleting them is best-effort cleanup, not correctness.
  for (const std::string& file : replaced) {
    std::remove((config_.index_dir + "/" + file).c_str());
  }
  ASTERIA_LOG(Info) << "ingest: compacted " << runs.size() << " run(s) into "
                    << manifest_.shards.size() << " shard(s)";
  return true;
}

namespace {

constexpr const char* kAlertTag = "ALRT";

std::string AlertJson(const AlertRecord& alert) {
  std::string json = "{\"seq\":" + std::to_string(alert.seq) + ",\"cve\":";
  util::AppendJsonString(alert.cve, &json);
  json += ",\"software\":";
  util::AppendJsonString(alert.software, &json);
  json += ",\"function\":";
  util::AppendJsonString(alert.function, &json);
  json += ",\"hit\":";
  util::AppendJsonString(alert.hit, &json);
  char score[40];
  std::snprintf(score, sizeof(score), "%.17g", alert.score);
  json += ",\"score\":";
  json += score;
  json += "}";
  return json;
}

bool ParseAlertJson(const std::string& json, AlertRecord* alert) {
  util::JsonCursor in(json);
  return in.Expect("{\"seq\":") && in.Unsigned(&alert->seq) &&
         in.Expect(",\"cve\":") && in.String(&alert->cve) &&
         in.Expect(",\"software\":") && in.String(&alert->software) &&
         in.Expect(",\"function\":") && in.String(&alert->function) &&
         in.Expect(",\"hit\":") && in.String(&alert->hit) &&
         in.Expect(",\"score\":") && in.Double(&alert->score) &&
         in.Expect("}") && in.Done();
}

}  // namespace

std::string AlertLogPath(const std::string& index_dir) {
  return index_dir + "/alerts.jsonl";
}

bool AppendAlerts(const std::string& index_dir,
                  const std::vector<AlertRecord>& alerts, std::string* error) {
  if (alerts.empty()) return true;
  const std::string path = AlertLogPath(index_dir);
  if (fp_alert_append.ShouldFail()) {
    *error = path +
             ": injected alert-log append failure (failpoint "
             "ingest.alert_append)";
    return false;
  }
  std::string lines;
  for (const AlertRecord& alert : alerts) {
    lines += util::CrcLine(kAlertTag, AlertJson(alert));
  }
  if (!util::WriteCrcLines(path, lines, /*append=*/true, error)) return false;
  c_alerts.Add(alerts.size());
  return true;
}

bool ReadAlertLog(const std::string& index_dir,
                  std::vector<AlertRecord>* alerts, int* corrupt_lines,
                  std::string* error) {
  alerts->clear();
  return util::ReadCrcLines(
      AlertLogPath(index_dir), kAlertTag, /*missing_ok=*/true,
      [alerts](const std::string& json) {
        AlertRecord alert;
        if (!ParseAlertJson(json, &alert)) return false;
        alerts->push_back(std::move(alert));
        return true;
      },
      corrupt_lines, error);
}

bool DeltaVulnSearch(const core::AsteriaModel& model,
                     const std::string& index_dir, double threshold,
                     int beta, int threads, DeltaVulnResult* result,
                     std::string* error) {
  // Wide-event record for the whole sweep, cut on every exit path: the
  // "delta-vuln-search" span's wall time in score_nanos, the delta's entry
  // count in scored_pairs, ok only when the scan (and its manifest advance)
  // landed.
  struct RecordGuard {
    util::TraceSpan span{"delta-vuln-search"};
    const DeltaVulnResult* result = nullptr;
    bool ok = false;
    ~RecordGuard() {
      util::RequestRecord record;
      record.trace_id = util::MintTraceId();
      record.op = "ingest.delta_search";
      record.outcome =
          ok ? util::RequestOutcome::kOk : util::RequestOutcome::kError;
      record.score_nanos = span.End();
      record.scored_pairs = result->entries_searched;
      record.end_nanos = util::TraceNowNanos();
      util::GlobalRequestLog().Append(record);
    }
  } record_guard;
  record_guard.result = result;
  const std::string manifest_path =
      index_dir + "/" + store::kManifestFileName;
  store::ShardManifest manifest;
  if (!LoadManifest(&manifest, manifest_path, error)) return false;
  if (manifest.model_fingerprint != model.WeightsFingerprint()) {
    *error = manifest_path +
             ": manifest was published for different model weights "
             "(fingerprint mismatch)";
    return false;
  }
  result->report.stage = "delta-vuln-search";
  result->from_seq = manifest.searched_seq;

  // Only shards newer than the high-water mark are loaded — the whole
  // point: scanning cost follows the delta, not the fleet.
  core::SearchIndex delta(model, threads < 1 ? 1 : threads);
  for (const store::ShardRecord& shard : manifest.shards) {
    if (shard.created_seq <= manifest.searched_seq) continue;
    if (!delta.LoadAppend(index_dir + "/" + shard.file, error)) return false;
    ++result->shards_searched;
  }
  result->entries_searched = delta.size();

  const std::vector<firmware::VulnSpec>& library = firmware::VulnLibrary();
  std::vector<firmware::CveHits> found =
      firmware::SearchVulnLibrary(delta, threshold, beta);
  for (std::size_t q = 0; q < library.size(); ++q) {
    DeltaCveRow row;
    row.cve = library[q].cve;
    row.software = library[q].software;
    row.function = library[q].function;
    row.hits = std::move(found[q].hits);
    if (found[q].failure.empty()) {
      result->report.AddOk();
    } else {
      result->report.AddFailed(found[q].failure);
    }
    result->per_cve.push_back(std::move(row));
  }

  result->to_seq = std::max(manifest.searched_seq, manifest.MaxCreatedSeq());

  // Persist the hits BEFORE the mark advances: if the append lands but the
  // publish below crashes, the retry re-searches the same shards and
  // re-appends — duplicate alerts (same seq), never lost ones.
  std::vector<AlertRecord> alerts;
  for (const DeltaCveRow& row : result->per_cve) {
    for (const core::SearchHit& hit : row.hits) {
      AlertRecord alert;
      alert.seq = result->to_seq;
      alert.cve = row.cve;
      alert.software = row.software;
      alert.function = row.function;
      alert.hit = hit.name;
      alert.score = hit.score;
      alerts.push_back(std::move(alert));
    }
  }
  if (!AppendAlerts(index_dir, alerts, error)) return false;

  // Advance the high-water mark with the same atomic publish as ingest; a
  // crash before the rename (ingest.publish) leaves the mark — and thus
  // at-least-once scanning — intact.
  if (result->to_seq != manifest.searched_seq) {
    if (fp_publish.ShouldFail()) {
      *error = manifest_path +
               ": injected crash before manifest publish (failpoint "
               "ingest.publish)";
      return false;
    }
    store::ShardManifest next = manifest;
    next.searched_seq = result->to_seq;
    next.sequence = manifest.sequence + 1;
    if (!SaveManifest(next, manifest_path, error)) return false;
  }
  c_delta_searches.Increment();
  record_guard.ok = true;
  util::PublishPipelineReport(result->report);
  return true;
}

}  // namespace asteria::ingest
