// SearchIndex: encode-once, query-many function search.
//
// The workflow of §V and of any realistic clone/vulnerability search:
// offline, every corpus function is encoded once; online, a query is
// encoded and scored against all stored encodings with the fast eq. (8)
// replay plus callee calibration, returning the top-k matches.
//
// Storage is a packed encode matrix: distinct columns live column-major
// (hidden_dim x D) in fixed-size column blocks, so Add/AddEncoded/
// LoadAppend never copy existing columns and a scoring sweep reads
// contiguous columns instead of N scattered heap allocations. Scoring is
// blocked: a whole batch of (query, column) pairs becomes one feature
// matrix and a single nn::Matrix::GemmRaw against the head weights
// (SiameseModel::SimilarityFromEncodingsBatch), with SearchHit names
// materialized only for the hits that survive — never per scored pair.
//
// Entries are deduplicated at commit: every distinct (encoding bits,
// callee count) pair is stored and scored once as a *column*, and each
// entry sharing it (the same library build ships in many firmware images)
// takes its column's score bits. A column's members are chained in
// insertion order, so the (score desc, insertion index asc) order — and so
// every result bit — is what scoring each entry separately would give.
//
// Every query path runs one sweep over *leaves*: groups of at most 16
// distinct columns with one callee count, split on their widest dimension,
// each carrying a per-dimension min/max box. Each query bounds every leaf
// by M_ub * S — S = e^{-|C1-C2|} is exact for the leaf, and M_ub
// (SiameseModel::SimilarityUpperBound) bounds eq. (8) over the box,
// rounding included. The per-query plan carries a *floor policy* — the
// score below which no entry can matter:
//   - keep-k (TopK/TopKBatch): the best-bound leaves are scored first as
//     seeds into the query's k-bounded heap; its worst score is the floor,
//     and the kept refs are cut to k;
//   - threshold (AboveThreshold/AboveThresholdBatch): the threshold itself
//     is a static floor; no seeds, every surviving ref is kept and sorted.
// A leaf whose bound falls strictly below the floor is skipped — a legal
// prune that only drops provably-losing entries (proof sketch in
// docs/PERFORMANCE.md). Results are therefore bitwise identical to a
// brute-force sweep; tests/search_oracle.h holds that brute force as the
// differential oracle.
//
// Both phases parallelize over util::ThreadPool with its static-partition
// determinism contract: AddAll encodes shards of the input concurrently but
// stores entries in input order, and the query paths score shards of the
// leaf list with local top-k heaps merged shard-by-shard under a strict
// total order (score desc, insertion index asc), so encodings, scores, and
// result ordering are bitwise identical for every thread count. Leaves,
// seeds and prune decisions are pure functions of the entries and the
// query — never of sharding, batching or when the leaves were built — so
// the skipped set is thread-count invariant too.
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
  // thread-count invariant: scored_pairs counts the (query, column) pairs
  // the head evaluated, seeds included, and pruned_pairs the rest of the
  // index's entries, so a scoring query's two sum to size(). Summed over
  // the batch they equal the search.scored_pairs / search.pruned_pairs
  // counter deltas. The timings are wall clock: encode_nanos is this
  // query's own AST encode; score_nanos is the batch's *shared* sweep
  // (every query in a batch reports the same value, because the blocked
  // GEMM scores them together).
  struct QuerySearchStats {
    std::uint64_t encode_nanos = 0;
    std::uint64_t score_nanos = 0;
    std::uint64_t scored_pairs = 0;
    std::uint64_t pruned_pairs = 0;
  };

  // Batched TopK — the asteria-serve dispatch path: encodes every query,
  // then scores the whole batch in one blocked-GEMM sweep over the leaves
  // (each leaf is visited once per sweep for every query that keeps it),
  // keeping a per-query top-k heap. ks[i] is query i's k.
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
  // same pruned/blocked sweep as TopK — leaves whose bound already falls
  // below `threshold` are skipped, and only surviving hits are ever
  // materialized (no O(N) scored-vector allocation).
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
  // Distinct (encoding bits, callee count) columns: what a sweep scores.
  int distinct_columns() const { return static_cast<int>(columns_.size()); }

  // Stored encoding of entry `index`, materialized from its column
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
  // Per-entry metadata. The encoding lives in the entry's distinct column
  // in `packed_`; `next` chains the entries sharing that column in
  // insertion order.
  struct EntryMeta {
    std::string name;
    int callee_count = 0;
    int column = -1;  // distinct column holding the encoding
    int next = -1;    // next entry sharing the column, or -1
  };

  // One distinct (encoding bits, callee count) column and its members.
  struct ColumnGroup {
    int callee_count = 0;
    int first = 0;  // first and last member entries
    int last = 0;
    std::uint64_t hash = 0;  // of the encoding bits and callee count
  };

  // The packed encode matrix: hidden_dim x D, column-major, grown in
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

  // Leaves over the distinct columns, built lazily by the first query after
  // a mutation. A leaf holds up to 16 columns of one callee count and their
  // per-dimension min/max box. The first `main_count` leaves cover columns
  // [0, main_end), where main_end is a pure function of the column count
  // (LeafedPrefix); the rest cover the short tail after it. Appends only
  // touch the tail, so a reload with a base reuses the main leaves.
  struct Leaves {
    struct Leaf {
      int callee_count = 0;
      int begin = 0, end = 0;  // its columns: columns[begin, end)
    };
    int main_end = 0;
    std::size_t main_count = 0;
    std::vector<Leaf> leaves;
    std::vector<int> columns;   // column indices, leaf by leaf
    std::vector<double> boxes;  // per leaf: lo[dim], then hi[dim]
    // Leaf indices by (callee count, leaf index); runs[g] is where callee
    // group g starts in it, and runs.back() == leaves.size().
    std::vector<int> by_callee;
    std::vector<int> runs;
    // Drops every leaf after the first `count` main ones.
    void KeepMain(std::size_t count, int dim);
  };

  // A (score, insertion index) pair — what the sweep heaps and merges.
  // Names are attached only to the hits that survive selection.
  struct ScoredRef {
    double score = 0.0;
    int index = 0;
  };

  // Per-query sweep state: the encoded query, its floor policy, and what
  // each leaf is to it (seed, swept or skipped).
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
  // encoding, callees and floor policy set; the sweep bounds the leaves,
  // scores seeds, sweeps the rest, and merges. `stats` (nullable) receives
  // per-query pair counts and the shared sweep time; the caller must have
  // sized it to the batch.
  std::vector<std::vector<SearchHit>> Sweep(
      std::vector<QueryPlan>* plans,
      std::vector<QuerySearchStats>* stats = nullptr) const;

  // Scores one column's members into a plan's refs: each member takes the
  // column's score, in insertion order, until the keep-k heap rejects one.
  void PushMembers(const QueryPlan& plan, int column, double score,
                   std::vector<ScoredRef>* refs) const;

  // Brings the leaves up to date with the columns if they changed since the
  // last query (double-checked under leaf_mutex_, so concurrent queries
  // build exactly once).
  void EnsureLeavesFresh() const;
  void BuildLeaves(int begin, int end, Leaves* out) const;
  void MarkLeavesDirty() {
    leaves_dirty_.store(true, std::memory_order_release);
  }

  // Appends one entry, sharing an existing column when its encoding bits
  // and callee count match one; returns the entry index.
  int CommitEntry(std::string name, int callee_count, const double* column);
  int FindColumn(const double* column, int callee_count,
                 std::uint64_t hash) const;
  // Rebuilds the column hash table for columns_.size() columns.
  void RehashColumns();
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
  std::vector<ColumnGroup> columns_;
  PackedColumns packed_;
  // Open-addressing table of column indices by hash (-1 = empty slot),
  // sized to a power of two at least twice the column count.
  std::vector<int> column_slots_;

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

  mutable std::mutex leaf_mutex_;
  mutable std::atomic<bool> leaves_dirty_{true};
  mutable Leaves leaves_;
};

}  // namespace asteria::core
