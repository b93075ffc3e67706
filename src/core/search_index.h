// SearchIndex: encode-once, query-many function search.
//
// The workflow of §V and of any realistic clone/vulnerability search:
// offline, every corpus function is encoded once; online, a query is
// encoded and scored against all stored encodings with the fast eq. (8)
// replay plus callee calibration, returning the top-k matches.
//
// Storage is a packed encode matrix: entry encodings live column-major
// (hidden_dim x N) in fixed-size column blocks, so Add/AddEncoded/
// LoadAppend never copy existing columns and a scoring sweep walks
// contiguous memory instead of N scattered heap allocations. Scoring is
// blocked: a whole (query batch x entry block) tile becomes one feature
// matrix and a single nn::Matrix::GemmRaw against the head weights
// (SiameseModel::SimilarityFromEncodingsBatch), with SearchHit names
// materialized only for the hits that survive — never per scored pair.
//
// Every query path runs one sweep whose per-query plan carries a *floor
// policy* — the score below which no entry can matter:
//   - keep-k (TopK/TopKBatch): a callee-count-sorted side index seeds the
//     query's k-bounded heap with its nearest-callee entries; the worst
//     seed score is the floor, and the kept refs are cut to k;
//   - threshold (AboveThreshold/AboveThresholdBatch): the threshold itself
//     is a static floor; no seeds, every surviving ref is kept and sorted.
// Either floor arms the same *exact* prefilter: M(T1,T2) <= 1, so the
// calibrated score F = M * S is bounded by S(C1,C2) = e^{-|C1-C2|}, and
// every entry whose calibration bound falls strictly below the floor is
// skipped — a legal prune that only drops provably-losing entries (proof
// sketch in docs/PERFORMANCE.md). Results are therefore bitwise identical
// to a brute-force sweep; tests/search_oracle.h holds that brute force as
// the differential oracle and bench baseline.
//
// Both phases parallelize over util::ThreadPool with its static-partition
// determinism contract: AddAll encodes shards of the input concurrently but
// stores entries in input order, and the query paths score shards with
// local top-k heaps merged shard-by-shard under a strict total order
// (score desc, insertion index asc), so encodings, scores, and result
// ordering are bitwise identical for every thread count. Prune decisions
// depend only on callee counts and the deterministic seed scores — never on
// sharding — so the skipped set is thread-count invariant too.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/asteria.h"
#include "store/manifest.h"
#include "util/failpoint.h"
#include "util/pipeline_report.h"

namespace asteria::core {

// True when none of the `n` values at `data` is NaN or infinite.
bool AllFinite(const double* data, std::size_t n);

// The isolated encode loop of SearchIndex::AddAll, ingest and the firmware
// corpus: encodes feature_at(i) for every i < count on up to `threads`
// workers. An empty AST is skipped; a feature `failpoint` fires on (asked
// in input order, before any worker starts), or whose Encode throws or
// returns non-finite values, fails. encodings[i] is a 0x0 placeholder for
// every feature not encoded, and `report` counts each outcome in input
// order; both are identical for every thread count.
struct IsolatedEncodings {
  std::vector<nn::Matrix> encodings;
  util::PipelineReport report;
};
IsolatedEncodings EncodeIsolated(
    const AsteriaModel& model, std::size_t count,
    const std::function<const FunctionFeature&(std::size_t)>& feature_at,
    int threads, util::Failpoint& failpoint);

struct SearchHit {
  int index = 0;        // position in insertion order
  std::string name;     // the stored FunctionFeature name
  double score = 0.0;   // calibrated similarity F
};

class SearchIndex {
 public:
  // The model must outlive the index; its weights should be trained before
  // Add() (encodings are computed with the weights current at call time).
  // `threads` bounds the worker count for AddAll and query scoring.
  explicit SearchIndex(const AsteriaModel& model, int threads = 1);

  void set_threads(int threads) { threads_ = threads < 1 ? 1 : threads; }
  int threads() const { return threads_; }

  // Encodes and stores one function; returns its index.
  int Add(const FunctionFeature& feature);

  // Stores a precomputed encoding without re-running the model — the
  // streaming-ingest path, where FENC-cached encodings must never be
  // encoded twice. The encoding must be the model's hidden_dim x 1 shape
  // with finite values; returns the new entry index, or -1 when it is
  // rejected (the index is unchanged).
  int AddEncoded(const std::string& name, const nn::Matrix& encoding,
                 int callee_count);

  // Encodes all features through EncodeIsolated (failpoint search.encode)
  // and appends the encoded ones in input order; the rest are counted in
  // the returned report (stage "index-encode") and left out.
  util::PipelineReport AddAll(const std::vector<FunctionFeature>& features);

  // Scores `query` against every stored function and returns the best `k`
  // hits in descending score order (ties broken by insertion index).
  std::vector<SearchHit> TopK(const FunctionFeature& query, int k) const;

  // Per-query accounting for one batched search, filled (when requested)
  // alongside the results so asteria-serve can cut one wide-event request
  // record per query (util/request_log.h). The pair counts are exact and
  // thread-count invariant — summed over the batch they equal the
  // search.scored_pairs / search.pruned_pairs counter deltas. The timings
  // are wall clock: encode_nanos is this query's own AST encode;
  // score_nanos is the batch's *shared* sweep (every query in a batch
  // reports the same value, because the blocked GEMM scores them together).
  struct QuerySearchStats {
    std::uint64_t encode_nanos = 0;
    std::uint64_t score_nanos = 0;
    std::uint64_t scored_pairs = 0;
    std::uint64_t pruned_pairs = 0;
  };

  // Batched TopK — the asteria-serve dispatch path: encodes every query,
  // then scores the whole batch in one blocked-GEMM sweep over the packed
  // entry matrix (each entry block is touched once per sweep instead of
  // once per query), keeping a per-query top-k heap. ks[i] is query i's k.
  // Results are bitwise identical to calling TopK(queries[i], ks[i]) one at
  // a time: the strict (score desc, index asc) total order makes the
  // ranking a pure function of the scores, independent of batching and
  // sharding. `stats`, when non-null, is resized to the batch and filled
  // with per-query accounting (never affects results or counters).
  std::vector<std::vector<SearchHit>> TopKBatch(
      const std::vector<const FunctionFeature*>& queries,
      const std::vector<int>& ks,
      std::vector<QuerySearchStats>* stats = nullptr) const;

  // All hits scoring at least `threshold`, descending. Routed through the
  // same pruned/blocked sweep as TopK — entries whose calibration bound
  // already falls below `threshold` are skipped, and only surviving hits
  // are ever materialized (no O(N) scored-vector allocation).
  std::vector<SearchHit> AboveThreshold(const FunctionFeature& query,
                                        double threshold) const;

  // Batched AboveThreshold — one sweep for a whole dispatch batch, same
  // contract as TopKBatch: results[i] is bitwise identical to
  // AboveThreshold(queries[i], thresholds[i]).
  std::vector<std::vector<SearchHit>> AboveThresholdBatch(
      const std::vector<const FunctionFeature*>& queries,
      const std::vector<double>& thresholds,
      std::vector<QuerySearchStats>* stats = nullptr) const;

  int size() const { return static_cast<int>(entries_.size()); }

  // Stored encoding of entry `index`, materialized from the packed column
  // (bitwise-reproducibility checks).
  nn::Matrix encoding(int index) const;
  const std::string& name(int index) const {
    return entries_[static_cast<std::size_t>(index)].name;
  }
  int callee_count(int index) const {
    return entries_[static_cast<std::size_t>(index)].callee_count;
  }

  // -- Snapshots (offline phase persisted; see docs/FORMATS.md) -----------
  //
  // A snapshot is a kKindIndex container holding the entry names, callee
  // counts, and raw encodings, fingerprinted against the model weights that
  // produced them. Saving then loading yields a bitwise-identical index:
  // the same TopK scores and ordering for any thread count, extending the
  // ParallelFor determinism contract across process boundaries. Corrupted
  // or truncated snapshots fail with a descriptive `error`, never load
  // partial state. Loads land directly in the packed encode matrix.

  // Writes all entries to `path`, replacing any existing file.
  bool Save(const std::string& path, std::string* error) const;

  // Appends entries [first_index, size()) to an existing snapshot written
  // by the same model (incremental corpus growth without re-encoding).
  bool AppendTo(const std::string& path, int first_index,
                std::string* error) const;

  // Replaces this index's entries with the snapshot's. Fails (leaving the
  // index untouched) on corruption, truncation, or a snapshot produced by
  // different model weights.
  bool Load(const std::string& path, std::string* error);

  // Appends a snapshot's entries after the current ones (shard loading and
  // compaction). The index is untouched on failure.
  bool LoadAppend(const std::string& path, std::string* error);

  // Loads a sharded index: reads the MANI manifest at `manifest_path` and
  // concatenates every named shard's entries in manifest order. Because
  // entry order — not shard boundaries — is what TopK/TopKBatch rank by,
  // the result is bitwise identical to a monolithic snapshot holding the
  // same entries, at any thread count. Fails (index untouched) on a
  // missing/corrupt manifest or shard, or a model fingerprint mismatch.
  //
  // `base` (nullable, may be `this`) is an index opened earlier — the live
  // asteria-serve snapshot on a reload. The longest prefix of shard records
  // that `base` was opened from and the new manifest share (same directory
  // and weights fingerprint; identical file, entries, bytes, created_seq
  // and sources) is copied from `base` in memory, and only the shards after
  // it are read from disk. Published shards are immutable, so a reused
  // shard holds exactly the entries re-reading it would yield. A null base,
  // or one sharing no prefix (compaction, a wiped and re-ingested
  // directory, a fingerprint change, an INDX base), reads every shard.
  bool OpenSharded(const std::string& manifest_path, std::string* error,
                   const SearchIndex* base = nullptr);

  // Kind-sniffing open: dispatches on the container kind at `path` (read
  // from the header alone) — an INDX snapshot goes through Load, a MANI
  // manifest through OpenSharded with `base`. This is what asteria-serve
  // and index-query call, so both accept either artifact transparently.
  bool Open(const std::string& path, std::string* error,
            const SearchIndex* base = nullptr);

  // Shards the last successful Load/OpenSharded/Open took from its base
  // versus read from disk. An INDX snapshot counts as one shard read.
  int shards_reused() const { return shards_reused_; }
  int shards_read() const { return shards_read_; }

 private:
  // Per-entry metadata; the encoding itself lives in `packed_`.
  struct EntryMeta {
    std::string name;
    int callee_count = 0;
  };

  // The packed encode matrix: hidden_dim x N, column-major, grown in
  // fixed-size column blocks so appends never move existing columns (stable
  // pointers, no realloc copy) and LoadAppend stays O(new entries).
  class PackedColumns {
   public:
    void Reset(int dim) {
      dim_ = dim;
      count_ = 0;
      blocks_.clear();
    }
    int dim() const { return dim_; }
    std::int64_t count() const { return count_; }
    // Pointer to a fresh uninitialized column for the caller to fill.
    double* AppendColumn();
    const double* Column(std::int64_t i) const {
      return blocks_[static_cast<std::size_t>(i / kBlockCols)].get() +
             (i % kBlockCols) * dim_;
    }

   private:
    static constexpr std::int64_t kBlockCols = 4096;
    int dim_ = 0;
    std::int64_t count_ = 0;
    std::vector<std::unique_ptr<double[]>> blocks_;
  };

  // A (score, insertion index) pair — what the sweep heaps and merges.
  // Names are attached only to the hits that survive selection.
  struct ScoredRef {
    double score = 0.0;
    int index = 0;
  };

  // Per-query sweep state: the encoded query, its floor policy, and the
  // exact-prune cut derived from that floor.
  struct QueryPlan;

  // Entries staged by a snapshot load before committing to the index.
  struct StagedEntries {
    std::vector<EntryMeta> meta;
    std::vector<double> columns;  // meta.size() columns, dim doubles each
  };

  // Encodes a dispatch batch in parallel into fresh plans (encoding and
  // callee count set; the caller sets the floor policy). `stats`, when
  // non-null, must be sized to the batch and receives each encode time.
  std::vector<QueryPlan> EncodeBatch(
      const std::vector<const FunctionFeature*>& queries,
      std::vector<QuerySearchStats>* stats) const;

  // The one pruned/blocked sweep behind every query path. Plans arrive with
  // encoding, callees and floor policy set; the sweep derives seeds and the
  // distance cut, scores, and merges. `stats` (nullable) receives per-query
  // pair counts and the shared sweep time; the caller must have sized it
  // to the batch.
  std::vector<std::vector<SearchHit>> Sweep(
      std::vector<QueryPlan>* plans,
      std::vector<QuerySearchStats>* stats = nullptr) const;

  // Rebuilds the callee-count-sorted side index if entries changed since
  // the last query (double-checked under side_mutex_, so concurrent
  // queries rebuild exactly once).
  void EnsureSideIndexFresh() const;
  void MarkSideIndexDirty() {
    side_dirty_.store(true, std::memory_order_release);
  }

  void CommitStaged(StagedEntries&& staged);
  // Replaces every entry with `base`'s first `reused` entries followed by
  // `staged` (base may be null when reused == 0, or `this`).
  void ReplaceEntries(const SearchIndex* base, std::size_t reused,
                      StagedEntries&& staged);
  bool LoadEntriesFrom(const std::string& path, StagedEntries* out,
                       std::string* error) const;

  const AsteriaModel& model_;
  int threads_ = 1;
  int hidden_dim_ = 0;
  std::vector<EntryMeta> entries_;
  PackedColumns packed_;

  // The manifest the leading entries were opened from: its directory, its
  // weights fingerprint and its shard records, in order. Empty after an
  // INDX load or for an index built in memory; later appends (Add,
  // LoadAppend) leave the leading entries, and so this record, valid.
  struct Source {
    std::string dir;
    std::uint32_t fingerprint = 0;
    std::vector<store::ShardRecord> shards;
  };
  Source source_;
  int shards_reused_ = 0;
  int shards_read_ = 0;

  // Callee-count-sorted side index, rebuilt lazily on the first query after
  // a mutation: side_order_ holds entry indices sorted by (callee_count,
  // insertion index); side_pos_ is its inverse permutation.
  mutable std::mutex side_mutex_;
  mutable std::atomic<bool> side_dirty_{true};
  mutable std::vector<int> side_order_;
  mutable std::vector<int> side_pos_;
};

}  // namespace asteria::core
