// Streaming firmware ingest (docs/ARCHITECTURE.md "Incremental ingest").
//
// The paper's deployment is a continuously growing vendor-firmware crawl;
// this subsystem turns the one-shot corpus/index/search pipeline into an
// incremental one. An IngestService owns a sharded-index directory:
//
//   <index_dir>/manifest.mani       MANI manifest (store/manifest.h)
//   <index_dir>/shard-%08llu.idx    one immutable INDX snapshot per ingest
//   <index_dir>/cache/fenc-%016llx.fenc   per-image FENC encoding cache
//
// IngestFile processes one packed firmware image end to end: read →
// content digest (dedup against every manifest source — a re-dropped image
// costs one hash, zero encodes) → unpack → decompile (per-function fault
// isolation, same filters as the batch firmware corpus) → encode, reusing
// the image's FENC cache when the model fingerprint matches (a retrained
// model quarantines the stale cache and re-encodes) → write a new shard
// snapshot → atomically publish a manifest naming it → optionally poke a
// running asteria-serve daemon's reload path so the entries are queryable
// without a restart.
//
// Crash-publish contract: the manifest rename is the single commit point.
// Every ingest.* failpoint (ingest.read, ingest.decompile, ingest.encode,
// ingest.shard_write, ingest.publish, ingest.compact) models dying before
// that rename; tests/ingest_test.cpp proves the previously published
// manifest still loads bitwise-intact from any of them, and that a retry
// after an ingest.publish crash reuses the already-written FENC cache.
//
// Compact() folds runs of adjacent small shards into one snapshot via
// SearchIndex::AppendTo. Only *consecutive* shards merge, so the global
// entry order — and therefore every TopK/TopKBatch result — is bitwise
// unchanged by compaction.
//
// DeltaVulnSearch re-runs the CVE library queries against only the shards
// newer than the manifest's searched_seq high-water mark, then republishes
// the manifest with the mark advanced: fleet scanning cost is proportional
// to what arrived, not to the fleet.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/asteria.h"
#include "core/search_index.h"
#include "firmware/image.h"
#include "store/manifest.h"
#include "util/pipeline_report.h"

namespace asteria::ingest {

struct IngestConfig {
  std::string index_dir;   // sharded-index directory (created if missing)
  int threads = 1;         // ParallelFor width for encoding
  int beta = 4;            // decompiler callee-expansion depth
  // Shards with at most this many entries are "small" — Compact() merges
  // adjacent runs of two or more of them.
  int compact_max_entries = 256;
  // When non-empty, every successful publish pokes this asteria-serve
  // socket's reload path (failure to poke is a warning, never an ingest
  // failure — the manifest is already durable).
  std::string serve_socket;
};

// Cumulative counters for one or more IngestFile/ScanDropDir calls.
struct IngestStats {
  int images_published = 0;   // new shards created
  int images_deduped = 0;     // content digest already in the manifest
  int images_failed = 0;      // read/unpack/write/publish failures
  int functions_indexed = 0;  // entries added across published shards
  int functions_encoded = 0;  // encodings computed (cache misses only)
  int cache_hits = 0;         // images served entirely from FENC cache
  util::PipelineReport report;  // per-function outcomes (stage "ingest")
};

class IngestService {
 public:
  // The model must outlive the service; the manifest pins its weights
  // fingerprint and Open() refuses a directory ingested by other weights.
  IngestService(const core::AsteriaModel& model, const IngestConfig& config);

  // Creates index_dir (and its cache dir) if needed and loads the manifest
  // when one exists. Fails loudly on a corrupt manifest or a model
  // fingerprint mismatch (retrained model: re-ingest into a fresh dir).
  bool Open(std::string* error);

  // Ingests one packed firmware image (see file header for the pipeline).
  // Returns false only on a failure that prevented publishing; a dedup is
  // a success that publishes nothing.
  bool IngestFile(const std::string& path, IngestStats* stats,
                  std::string* error);

  // Ingests every "*.fw" file under `drop_dir` in name order (so results
  // are deterministic for a fixed directory content). Per-file failures
  // are isolated into `stats`; returns the number of newly published
  // images.
  int ScanDropDir(const std::string& drop_dir, IngestStats* stats);

  // Merges each maximal run of >= 2 adjacent shards whose entry counts are
  // all <= compact_max_entries into one snapshot (copy first shard, then
  // SearchIndex::AppendTo for the rest), publishes the new manifest, and
  // deletes the replaced shard files. Queries are bitwise unchanged.
  // `merged_runs` (may be null) receives the number of runs folded.
  bool Compact(int* merged_runs, std::string* error);

  const store::ShardManifest& manifest() const { return manifest_; }
  std::string manifest_path() const;

  // Extracts every module of an unpacked image with
  // decompiler::ExtractModule, the recipe the batch firmware corpus uses
  // (IngestFile passes decompiler::kMinAstSize); features are named
  // "<module>::<fn>" and outcomes land in `report` when non-null.
  static std::vector<core::FunctionFeature> DecompileImage(
      const firmware::FirmwareImage& image, int beta, int min_ast_size,
      util::PipelineReport* report);

 private:
  bool Publish(store::ShardManifest next, std::string* error);
  void PokeServe() const;
  std::string CachePath(std::uint64_t digest) const;

  const core::AsteriaModel& model_;
  IngestConfig config_;
  store::ShardManifest manifest_;
  bool opened_ = false;
};

// One CVE row of a delta vuln search (hit indices are relative to the
// delta index over the new shards, so only name/score are reported).
struct DeltaCveRow {
  std::string cve;
  std::string software;
  std::string function;
  std::vector<core::SearchHit> hits;  // scores >= threshold, descending
};

struct DeltaVulnResult {
  std::uint64_t from_seq = 0;   // high-water mark before the run
  std::uint64_t to_seq = 0;     // mark published after the run
  int shards_searched = 0;
  int entries_searched = 0;
  std::vector<DeltaCveRow> per_cve;
  util::PipelineReport report;  // stage "delta-vuln-search"
};

// Runs every VulnLibrary() query against only the shards with
// created_seq > searched_seq, then republishes the manifest with
// searched_seq advanced to the newest shard. When compaction has folded
// unsearched entries into an older-sequence shard the entries are simply
// seen again — at-least-once semantics, never missed.
//
// Every hit is also appended to the persistent CVE-alert log (below)
// BEFORE the mark advances, so a crash between the two replays the search
// and re-appends — an alert can be duplicated (dedup on `seq`), never
// lost.
bool DeltaVulnSearch(const core::AsteriaModel& model,
                     const std::string& index_dir, double threshold,
                     int beta, int threads, DeltaVulnResult* result,
                     std::string* error);

// -- Persistent CVE-alert log ------------------------------------------------
//
// <index_dir>/alerts.jsonl accumulates every DeltaVulnSearch hit across
// runs — the durable artifact a fleet operator tails, where DeltaVulnResult
// is one run's report. Each line is
//
//   ALRT <8-hex CRC32 of the JSON bytes> <one-line JSON object>\n
//
// — a CRC-line file (util/crc_lines.h, the request logs' codec) — appended
// with a single O_APPEND write + fsync per run, so a crash can only ever
// tear the final line; the reader detects a torn or corrupted line by the
// CRC (or broken framing or field spelling), skips it, and counts it in
// `corrupt_lines` instead of failing the whole log.

struct AlertRecord {
  std::uint64_t seq = 0;  // searched_seq the run advanced to; re-runs after
                          // a crash repeat it, so equal (seq, cve, hit)
                          // triples are duplicates
  std::string cve;
  std::string software;
  std::string function;  // the vulnerable function queried
  std::string hit;       // the fleet function that matched
  double score = 0.0;
};

std::string AlertLogPath(const std::string& index_dir);

// Appends one run's alerts as a single atomic-append write (O_APPEND +
// fsync). Guarded by the ingest.alert_append failpoint; a failed append
// fails the run before the high-water mark moves.
bool AppendAlerts(const std::string& index_dir,
                  const std::vector<AlertRecord>& alerts, std::string* error);

// Reads the whole log. A missing file is an empty log, not an error.
// Unparseable or CRC-mismatched lines (torn tail, disk corruption) are
// skipped and counted in `corrupt_lines` (may be null).
bool ReadAlertLog(const std::string& index_dir,
                  std::vector<AlertRecord>* alerts, int* corrupt_lines,
                  std::string* error);

}  // namespace asteria::ingest
