#include "core/search_index.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <exception>
#include <limits>
#include <utility>

#include "store/container.h"
#include "store/manifest.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace asteria::core {

namespace {

// Injects a per-feature encoding failure into AddAll (isolation testing).
util::Failpoint fp_search_encode("search.encode");

// Latency histograms ("*_nanos"): deterministic counts, machine-dependent
// bucket placement. TopK result sizes are fully deterministic.
util::Histogram h_add_nanos("search.add_nanos");
util::Histogram h_topk_nanos("search.topk_nanos");
util::Histogram h_topk_size("search.topk_size");
// Batch-shaped metrics: observation counts depend on how requests coalesce
// (i.e. on timing), unlike the per-query histograms above, so determinism
// gates (scripts/check_serve.sh) filter "*batch*" histograms wholesale.
util::Histogram h_topk_batch_queries("search.topk_batch_queries");
util::Histogram h_topk_batch_nanos("search.topk_batch_nanos");
// Prune accounting, bumped once per sweep with shard-order totals (never in
// the scoring inner loop), so metrics cost does not scale with index size.
// Prune decisions depend only on callee counts, thresholds and
// deterministic seed scores, so both totals are thread-count invariant.
util::Counter c_scored_pairs("search.scored_pairs");
util::Counter c_pruned_pairs("search.pruned_pairs");

// Index-snapshot chunk tags and schema version (see docs/FORMATS.md).
constexpr std::uint32_t kTagIndexMeta = store::FourCc('I', 'M', 'E', 'T');
constexpr std::uint32_t kTagIndexEntry = store::FourCc('E', 'N', 'T', 'R');
constexpr std::uint32_t kSnapshotVersion = 1;

// -- Exact prefilter machinery ---------------------------------------------
//
// F = M * S with M <= 1 and S = e^{-|C1-C2|}, so S alone upper-bounds the
// calibrated score. The table below caches S for every integer distance the
// double format can distinguish (e^-746 already underflows to 0.0), holding
// the exact std::exp values CalleeSimilarity produces — scoring through the
// table is bitwise identical to calling std::exp per pair.

constexpr std::int64_t kExpTableSize = 768;

const std::array<double, kExpTableSize>& NegExpTable() {
  static const std::array<double, kExpTableSize> table = [] {
    std::array<double, kExpTableSize> t{};
    for (std::int64_t d = 0; d < kExpTableSize; ++d) {
      t[static_cast<std::size_t>(d)] = std::exp(-static_cast<double>(d));
    }
    return t;
  }();
  return table;
}

std::int64_t CalleeDistance(int a, int b) {
  return std::abs(static_cast<std::int64_t>(a) - static_cast<std::int64_t>(b));
}

// S(C1, C2) by table lookup — the same value CalleeSimilarity returns.
double CalleeSimFromDistance(std::int64_t d) {
  if (d < kExpTableSize) return NegExpTable()[static_cast<std::size_t>(d)];
  return std::exp(-static_cast<double>(d));
}

// The prune compares against S * kPruneSlack rather than S itself. For the
// classification head M <= 1 holds bitwise (a softmax output never rounds
// above 1), so F = fl(M*S) <= S exactly. The regression head's cosine can
// exceed 1 by a few ulps of accumulated rounding (~1e-14 relative), so a
// 1e-9 slack — five orders of magnitude of margin, far too small to weaken
// the prune in practice — keeps the skip provably safe for both heads.
// docs/PERFORMANCE.md has the full argument.
constexpr double kPruneSlack = 1.0 + 1e-9;

double PruneBound(std::int64_t d) {
  const std::int64_t clamped = d < kExpTableSize ? d : kExpTableSize - 1;
  return NegExpTable()[static_cast<std::size_t>(clamped)] * kPruneSlack;
}

// Sentinel: no distance can be excluded — score every entry.
constexpr std::int64_t kNoDistanceCut = std::numeric_limits<std::int64_t>::max();

// Largest |ΔC| whose calibration bound can still reach `floor`. Returns
// kNoDistanceCut when nothing is excludable (floor <= 0 or NaN, or even the
// underflowed tail of the table clears it) and -1 when even distance 0
// cannot reach the floor (every entry is excluded).
std::int64_t MaxAllowedDistance(double floor) {
  if (!(floor > 0.0)) return kNoDistanceCut;
  if (PruneBound(kExpTableSize - 1) >= floor) return kNoDistanceCut;
  if (PruneBound(0) < floor) return -1;
  // The bound is monotone non-increasing in d: binary search the last
  // allowed distance. Invariant: bound(lo) >= floor > bound(hi).
  std::int64_t lo = 0, hi = kExpTableSize - 1;
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (PruneBound(mid) >= floor) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Gathers (query, entry column) pairs and scores a full block with one
// SimilarityFromEncodingsBatch call (one feature matrix + one blocked GEMM
// per flush). One instance per worker; buffers are reused across flushes.
class BlockScorer {
 public:
  // How many pairs a flush scores at once: large enough that the GEMM and
  // the sigmoid/exp loops amortize call overhead, small enough that the
  // feature block (kPairsPerBlock x 2h doubles) stays cache-resident.
  static constexpr int kPairsPerBlock = 256;

  explicit BlockScorer(const AsteriaModel& model) : model_(model) {
    a_.reserve(kPairsPerBlock);
    b_.reserve(kPairsPerBlock);
    tags_.reserve(kPairsPerBlock);
    m_.resize(kPairsPerBlock);
  }

  bool Full() const { return static_cast<int>(a_.size()) >= kPairsPerBlock; }

  void Push(const double* query, const double* entry, int query_slot,
            int entry_index) {
    a_.push_back(query);
    b_.push_back(entry);
    tags_.push_back({query_slot, entry_index});
  }

  // Scores pending pairs and invokes sink(query_slot, entry_index, m) for
  // each, in push order.
  template <typename Sink>
  void Flush(Sink&& sink) {
    const int count = static_cast<int>(a_.size());
    if (count == 0) return;
    model_.SimilarityFromEncodingsBatch(a_.data(), b_.data(), count,
                                        m_.data(), &scratch_);
    for (int p = 0; p < count; ++p) {
      sink(tags_[static_cast<std::size_t>(p)].first,
           tags_[static_cast<std::size_t>(p)].second,
           m_[static_cast<std::size_t>(p)]);
    }
    a_.clear();
    b_.clear();
    tags_.clear();
  }

 private:
  const AsteriaModel& model_;
  std::vector<const double*> a_, b_;
  std::vector<std::pair<int, int>> tags_;
  std::vector<double> m_;
  EncodingScoreScratch scratch_;
};

// Prune activation cut-offs. Below kMinPruneIndex entries the brute sweep
// is already microseconds; above kMaxPruneK kept hits the serial seed pass
// would cost more than it saves. Both depend only on (N, k), never on the
// thread count, so the pruned set stays deterministic.
constexpr std::int64_t kMinPruneIndex = 2048;
constexpr std::size_t kMaxPruneK = 512;

// Stack capacity for the per-(shard,query) pair tallies (2 slots each).
// Covers e.g. 4 shards x 8 queries without touching the allocator; bigger
// sweeps fall back to one heap vector.
constexpr std::size_t kStackTallySlots = 64;

}  // namespace

bool AllFinite(const double* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(data[i])) return false;
  }
  return true;
}

IsolatedEncodings EncodeIsolated(
    const AsteriaModel& model, std::size_t count,
    const std::function<const FunctionFeature&(std::size_t)>& feature_at,
    int threads, util::Failpoint& failpoint) {
  std::vector<std::string> failure(count);
  for (std::size_t i = 0; i < count; ++i) {
    const FunctionFeature& feature = feature_at(i);
    if (!feature.tree.empty() && failpoint.ShouldFail()) {
      failure[i] = feature.name + ": injected failure (failpoint " +
                   failpoint.name() + ")";
    }
  }
  IsolatedEncodings out;
  out.encodings.resize(count);
  // Each worker writes only its own slot.
  util::ParallelFor(
      static_cast<std::int64_t>(count), threads, [&](std::int64_t i) {
        ASTERIA_SPAN("encode");
        const std::size_t slot = static_cast<std::size_t>(i);
        const FunctionFeature& feature = feature_at(slot);
        if (feature.tree.empty() || !failure[slot].empty()) return;
        try {
          nn::Matrix encoding = model.Encode(feature.tree);
          if (AllFinite(encoding.data(), encoding.size())) {
            out.encodings[slot] = std::move(encoding);
          } else {
            failure[slot] = feature.name + ": encoding has non-finite values";
          }
        } catch (const std::exception& e) {
          failure[slot] = feature.name + ": " + e.what();
        }
      });
  for (std::size_t i = 0; i < count; ++i) {
    if (out.encodings[i].size() != 0) {
      out.report.AddOk();
    } else if (feature_at(i).tree.empty()) {
      out.report.AddSkipped(feature_at(i).name + ": empty AST");
    } else {
      out.report.AddFailed(failure[i]);
    }
  }
  return out;
}

// Strict total order on (score, insertion index) refs: score descending,
// insertion index ascending. The index tiebreak makes merge results
// independent of the shard count. Templated so the file-local helpers never
// have to name the private SearchIndex::ScoredRef type.
template <typename Ref>
static bool RefBefore(const Ref& a, const Ref& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.index < b.index;
}

// Keeps at most `keep` best refs in a worst-on-top heap (the keep-k floor
// policy's seed and shard-local heaps).
template <typename Ref>
static void PushHeapKeep(std::vector<Ref>* heap, std::size_t keep, Ref ref) {
  auto worse = [](const Ref& a, const Ref& b) {
    return RefBefore(a, b);  // heap top = worst kept ref
  };
  if (heap->size() < keep) {
    heap->push_back(ref);
    std::push_heap(heap->begin(), heap->end(), worse);
  } else if (RefBefore(ref, heap->front())) {
    std::pop_heap(heap->begin(), heap->end(), worse);
    heap->back() = ref;
    std::push_heap(heap->begin(), heap->end(), worse);
  }
}

// Per-query sweep state: the encoded query, its floor policy, and the
// exact-prune cut derived from that floor.
struct SearchIndex::QueryPlan {
  // Set by the caller.
  nn::Matrix encoding;
  int callees = 0;
  bool keep_k = true;      // floor policy: keep-k heap, else threshold
  std::size_t keep = 0;    // keep-k: heap size; 0 disables scoring entirely
  double threshold = 0.0;  // threshold: the static floor
  // Derived by the sweep.
  std::int64_t max_dist = kNoDistanceCut;  // skip entries with |ΔC| beyond
  std::int64_t seed_lo = 0, seed_hi = 0;   // side positions already scored
  std::vector<ScoredRef> seed_heap;        // their top-keep refs
};

double* SearchIndex::PackedColumns::AppendColumn() {
  const std::int64_t block = count_ / kBlockCols;
  if (block == static_cast<std::int64_t>(blocks_.size())) {
    blocks_.push_back(std::make_unique<double[]>(
        static_cast<std::size_t>(kBlockCols) * static_cast<std::size_t>(dim_)));
  }
  double* column = blocks_[static_cast<std::size_t>(block)].get() +
                   (count_ % kBlockCols) * dim_;
  ++count_;
  return column;
}

SearchIndex::SearchIndex(const AsteriaModel& model, int threads)
    : model_(model),
      threads_(threads < 1 ? 1 : threads),
      hidden_dim_(model.config().siamese.encoder.hidden_dim) {
  packed_.Reset(hidden_dim_);
}

int SearchIndex::Add(const FunctionFeature& feature) {
  util::TraceSpan span("encode");
  const nn::Matrix encoding = model_.Encode(feature.tree);
  std::memcpy(packed_.AppendColumn(), encoding.data(),
              static_cast<std::size_t>(hidden_dim_) * sizeof(double));
  EntryMeta meta;
  meta.name = feature.name;
  meta.callee_count = feature.callee_count;
  entries_.push_back(std::move(meta));
  MarkSideIndexDirty();
  h_add_nanos.Observe(span.End());
  return static_cast<int>(entries_.size()) - 1;
}

int SearchIndex::AddEncoded(const std::string& name,
                            const nn::Matrix& encoding, int callee_count) {
  // Same shape/finiteness gate as Load: a foreign or corrupted encoding
  // must be rejected here, not discovered as garbage scores later.
  if (encoding.rows() != hidden_dim_ || encoding.cols() != 1 ||
      !AllFinite(encoding.data(), encoding.size())) {
    return -1;
  }
  std::memcpy(packed_.AppendColumn(), encoding.data(),
              static_cast<std::size_t>(hidden_dim_) * sizeof(double));
  EntryMeta meta;
  meta.name = name;
  meta.callee_count = callee_count;
  entries_.push_back(std::move(meta));
  MarkSideIndexDirty();
  return static_cast<int>(entries_.size()) - 1;
}

util::PipelineReport SearchIndex::AddAll(
    const std::vector<FunctionFeature>& features) {
  IsolatedEncodings encoded = EncodeIsolated(
      model_, features.size(),
      [&](std::size_t i) -> const FunctionFeature& { return features[i]; },
      threads_, fp_search_encode);
  entries_.reserve(entries_.size() + features.size());
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (encoded.encodings[i].size() == 0) continue;
    std::memcpy(packed_.AppendColumn(), encoded.encodings[i].data(),
                static_cast<std::size_t>(hidden_dim_) * sizeof(double));
    entries_.push_back({features[i].name, features[i].callee_count});
  }
  MarkSideIndexDirty();
  encoded.report.stage = "index-encode";
  util::PublishPipelineReport(encoded.report);
  return encoded.report;
}

nn::Matrix SearchIndex::encoding(int index) const {
  nn::Matrix m(hidden_dim_, 1);
  std::memcpy(m.data(), packed_.Column(index),
              static_cast<std::size_t>(hidden_dim_) * sizeof(double));
  return m;
}

void SearchIndex::EnsureSideIndexFresh() const {
  if (!side_dirty_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(side_mutex_);
  if (!side_dirty_.load(std::memory_order_relaxed)) return;
  const int n = size();
  side_order_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) side_order_[static_cast<std::size_t>(i)] = i;
  std::sort(side_order_.begin(), side_order_.end(), [&](int a, int b) {
    const int ca = entries_[static_cast<std::size_t>(a)].callee_count;
    const int cb = entries_[static_cast<std::size_t>(b)].callee_count;
    if (ca != cb) return ca < cb;
    return a < b;
  });
  side_pos_.resize(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    side_pos_[static_cast<std::size_t>(side_order_[static_cast<std::size_t>(p)])] = p;
  }
  side_dirty_.store(false, std::memory_order_release);
}

std::vector<std::vector<SearchHit>> SearchIndex::Sweep(
    std::vector<QueryPlan>* plans_ptr,
    std::vector<QuerySearchStats>* stats) const {
  std::vector<QueryPlan>& plans = *plans_ptr;
  const std::size_t batch = plans.size();
  const std::int64_t n = static_cast<std::int64_t>(entries_.size());
  std::vector<std::vector<SearchHit>> results(batch);
  if (batch == 0 || n == 0) return results;
  const std::int64_t sweep_start_nanos = util::TraceNowNanos();

  // Phase 1 — per-query floors. A threshold plan's floor is the threshold
  // itself: no entry whose calibration bound falls below it can score above
  // it, so no seed pass is needed. A keep-k plan earns a floor when the
  // prune is worth arming (large index, small k): pick the `keep` entries
  // nearest the query's callee count in the side order, score them serially
  // into a full heap, and take its worst score. Either way the floor becomes
  // the static distance cut: any entry farther than max_dist has bound <
  // floor and provably cannot reach the result. Everything here is a pure
  // function of (callee counts, k, threshold, scores), so plans — and
  // therefore the skipped set — are thread-count invariant.
  const auto seeded = [n](const QueryPlan& plan) {
    return plan.keep_k && plan.keep > 0 && plan.keep <= kMaxPruneK &&
           n >= kMinPruneIndex;
  };
  const bool any_seeded = std::any_of(plans.begin(), plans.end(), seeded);
  if (any_seeded) EnsureSideIndexFresh();
  std::vector<std::uint64_t> seed_scored(batch, 0);
  util::ParallelFor(
      static_cast<std::int64_t>(batch), any_seeded ? threads_ : 1,
      [&](std::int64_t qi) {
        const std::size_t q = static_cast<std::size_t>(qi);
        QueryPlan& plan = plans[q];
        if (!plan.keep_k) {
          plan.max_dist = MaxAllowedDistance(plan.threshold);
          return;
        }
        if (!seeded(plan)) {
          return;  // no prune: the sweep scores every entry for this query
        }
        // Seed range: exactly `keep` side positions nearest the query's
        // callee count, expanded one position at a time toward whichever
        // neighbor is closer (ties toward larger counts — any fixed rule
        // works, it only has to be deterministic).
        std::int64_t lo =
            std::lower_bound(side_order_.begin(), side_order_.end(),
                             plan.callees,
                             [&](int idx, int c) {
                               return entries_[static_cast<std::size_t>(idx)]
                                          .callee_count < c;
                             }) -
            side_order_.begin();
        std::int64_t hi = lo;
        while (hi - lo < static_cast<std::int64_t>(plan.keep)) {
          bool take_right;
          if (lo == 0) {
            take_right = true;
          } else if (hi == n) {
            take_right = false;
          } else {
            const std::int64_t dr = CalleeDistance(
                entries_[static_cast<std::size_t>(
                             side_order_[static_cast<std::size_t>(hi)])]
                    .callee_count,
                plan.callees);
            const std::int64_t dl = CalleeDistance(
                entries_[static_cast<std::size_t>(
                             side_order_[static_cast<std::size_t>(lo - 1)])]
                    .callee_count,
                plan.callees);
            take_right = dr <= dl;
          }
          if (take_right) {
            ++hi;
          } else {
            --lo;
          }
        }
        plan.seed_lo = lo;
        plan.seed_hi = hi;
        plan.seed_heap.reserve(plan.keep + 1);
        BlockScorer scorer(model_);
        auto sink = [&](int, int entry, double m) {
          const std::int64_t d = CalleeDistance(
              entries_[static_cast<std::size_t>(entry)].callee_count,
              plan.callees);
          PushHeapKeep(&plan.seed_heap, plan.keep,
                       {m * CalleeSimFromDistance(d), entry});
        };
        for (std::int64_t pos = lo; pos < hi; ++pos) {
          const int entry = side_order_[static_cast<std::size_t>(pos)];
          scorer.Push(plan.encoding.data(), packed_.Column(entry), 0, entry);
          if (scorer.Full()) scorer.Flush(sink);
        }
        scorer.Flush(sink);
        seed_scored[q] = static_cast<std::uint64_t>(hi - lo);
        // The heap is full (keep <= N seeds), so its worst score is a lower
        // bound on the final k-th score: only entries whose calibration
        // bound reaches it can still matter.
        plan.max_dist = MaxAllowedDistance(plan.seed_heap.front().score);
      });

  // Phase 2 — one blocked sweep over the packed matrix in insertion order.
  // Every (entry block x query batch) tile is gathered and scored through
  // one GEMM flush; seeds are skipped by side position, pruned pairs by the
  // distance cut. Survivors land in shard-local refs: a k-bounded heap for
  // keep-k, every ref at or above the floor for threshold.
  const int max_shards = threads_;
  const std::size_t shard_slots =
      static_cast<std::size_t>(std::max(1, max_shards));
  std::vector<std::vector<std::vector<ScoredRef>>> shard_refs(
      shard_slots, std::vector<std::vector<ScoredRef>>(batch));
  // Pair tallies per (shard, query), flattened (rows of 2*batch per shard:
  // scored then pruned): summed across queries they give the per-sweep
  // counter deltas; summed across shards they give each query's exact
  // scored/pruned counts for `stats`. Flat — and on the stack for the
  // common small case — because this runs per dispatch: a nested
  // vector-of-vectors costs 2*(shards+1) mallocs on the warm
  // singleton-query path.
  const std::size_t tally_count = shard_slots * batch * 2;
  std::uint64_t stack_tallies[kStackTallySlots] = {};
  std::vector<std::uint64_t> heap_tallies;
  std::uint64_t* shard_tallies = stack_tallies;
  if (tally_count > kStackTallySlots) {
    heap_tallies.assign(tally_count, 0);
    shard_tallies = heap_tallies.data();
  }
  util::ParallelForShards(
      n, max_shards, [&](std::int64_t begin, std::int64_t end, int shard) {
        std::vector<std::vector<ScoredRef>>& locals =
            shard_refs[static_cast<std::size_t>(shard)];
        for (std::size_t q = 0; q < batch; ++q) {
          if (plans[q].keep_k) locals[q].reserve(plans[q].keep + 1);
        }
        std::uint64_t* const scored =
            shard_tallies + static_cast<std::size_t>(shard) * batch * 2;
        std::uint64_t* const pruned = scored + batch;
        BlockScorer scorer(model_);
        auto sink = [&](int q, int entry, double m) {
          const std::size_t slot = static_cast<std::size_t>(q);
          const QueryPlan& plan = plans[slot];
          const std::int64_t d = CalleeDistance(
              entries_[static_cast<std::size_t>(entry)].callee_count,
              plan.callees);
          const double score = m * CalleeSimFromDistance(d);
          if (plan.keep_k) {
            PushHeapKeep(&locals[slot], plan.keep, {score, entry});
          } else if (!(score < plan.threshold)) {
            locals[slot].push_back({score, entry});
          }
        };
        for (std::int64_t i = begin; i < end; ++i) {
          const int ce = entries_[static_cast<std::size_t>(i)].callee_count;
          const double* column = packed_.Column(i);
          for (std::size_t q = 0; q < batch; ++q) {
            const QueryPlan& plan = plans[q];
            if (plan.keep_k && plan.keep == 0) continue;
            if (plan.seed_hi > plan.seed_lo) {
              const int pos = side_pos_[static_cast<std::size_t>(i)];
              if (pos >= plan.seed_lo && pos < plan.seed_hi) {
                continue;  // already scored as a seed
              }
            }
            if (plan.max_dist != kNoDistanceCut &&
                CalleeDistance(ce, plan.callees) > plan.max_dist) {
              ++pruned[q];
              continue;
            }
            scorer.Push(plan.encoding.data(), column, static_cast<int>(q),
                        static_cast<int>(i));
            ++scored[q];
            if (scorer.Full()) scorer.Flush(sink);
          }
        }
        scorer.Flush(sink);
      });

  // Merge: seeds plus every shard's refs, ordered under the strict total
  // order — cut to k for keep-k, fully sorted for threshold. The ranking is
  // a pure function of the scores, so the result is bitwise identical to
  // the brute-force sweep at any thread count.
  std::uint64_t total_scored = 0, total_pruned = 0;
  for (std::size_t q = 0; q < batch; ++q) {
    std::uint64_t q_scored = seed_scored[q], q_pruned = 0;
    for (std::size_t s = 0; s < shard_slots; ++s) {
      q_scored += shard_tallies[s * batch * 2 + q];
      q_pruned += shard_tallies[s * batch * 2 + batch + q];
    }
    total_scored += q_scored;
    total_pruned += q_pruned;
    if (stats != nullptr) {
      (*stats)[q].scored_pairs = q_scored;
      (*stats)[q].pruned_pairs = q_pruned;
    }
  }
  c_scored_pairs.Add(total_scored);
  c_pruned_pairs.Add(total_pruned);
  for (std::size_t q = 0; q < batch; ++q) {
    QueryPlan& plan = plans[q];
    std::vector<ScoredRef> merged = std::move(plan.seed_heap);
    if (plan.keep_k) merged.reserve(merged.size() + plan.keep * shard_slots);
    for (std::vector<std::vector<ScoredRef>>& locals : shard_refs) {
      merged.insert(merged.end(), locals[q].begin(), locals[q].end());
    }
    if (plan.keep_k) {
      const auto cut = merged.begin() + static_cast<std::ptrdiff_t>(std::min(
                                            plan.keep, merged.size()));
      std::partial_sort(merged.begin(), cut, merged.end(),
                        RefBefore<ScoredRef>);
      merged.erase(cut, merged.end());
    } else {
      std::sort(merged.begin(), merged.end(), RefBefore<ScoredRef>);
    }
    std::vector<SearchHit>& hits = results[q];
    hits.resize(merged.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
      hits[i].index = merged[i].index;
      hits[i].name = entries_[static_cast<std::size_t>(merged[i].index)].name;
      hits[i].score = merged[i].score;
    }
  }
  if (stats != nullptr) {
    const std::uint64_t sweep_nanos = static_cast<std::uint64_t>(
        util::TraceNowNanos() - sweep_start_nanos);
    for (std::size_t q = 0; q < batch; ++q) {
      (*stats)[q].score_nanos = sweep_nanos;
    }
  }
  return results;
}

std::vector<SearchIndex::QueryPlan> SearchIndex::EncodeBatch(
    const std::vector<const FunctionFeature*>& queries,
    std::vector<QuerySearchStats>* stats) const {
  // The expensive per-query step, in parallel across queries. Each slot of
  // `plans` and `stats` is written by exactly one ParallelFor iteration, so
  // no synchronization is needed.
  std::vector<QueryPlan> plans(queries.size());
  util::ParallelFor(static_cast<std::int64_t>(queries.size()), threads_,
                    [&](std::int64_t q) {
                      util::TraceSpan span("encode");
                      const std::size_t slot = static_cast<std::size_t>(q);
                      plans[slot].encoding = model_.Encode(queries[slot]->tree);
                      plans[slot].callees = queries[slot]->callee_count;
                      const std::uint64_t encode_nanos = span.End();
                      if (stats != nullptr) {
                        (*stats)[slot].encode_nanos = encode_nanos;
                      }
                    });
  return plans;
}

std::vector<SearchHit> SearchIndex::TopK(const FunctionFeature& query,
                                         int k) const {
  if (k <= 0 || entries_.empty()) return {};
  util::TraceSpan span("search");
  std::vector<QueryPlan> plans(1);
  plans[0].encoding = model_.Encode(query.tree);
  plans[0].callees = query.callee_count;
  plans[0].keep =
      std::min<std::size_t>(static_cast<std::size_t>(k), entries_.size());
  std::vector<SearchHit> hits = std::move(Sweep(&plans)[0]);
  h_topk_nanos.Observe(span.End());
  h_topk_size.Observe(hits.size());
  return hits;
}

std::vector<std::vector<SearchHit>> SearchIndex::TopKBatch(
    const std::vector<const FunctionFeature*>& queries,
    const std::vector<int>& ks, std::vector<QuerySearchStats>* stats) const {
  const std::size_t batch = queries.size();
  if (stats != nullptr) stats->assign(batch, QuerySearchStats{});
  if (batch == 0) return {};
  util::TraceSpan span("search");
  h_topk_batch_queries.Observe(batch);
  std::vector<QueryPlan> plans = EncodeBatch(queries, stats);
  for (std::size_t q = 0; q < batch; ++q) {
    plans[q].keep = ks[q] <= 0 ? 0
                               : std::min<std::size_t>(
                                     static_cast<std::size_t>(ks[q]),
                                     entries_.size());
  }
  std::vector<std::vector<SearchHit>> results = Sweep(&plans, stats);
  for (std::size_t q = 0; q < batch; ++q) {
    h_topk_size.Observe(results[q].size());
  }
  h_topk_batch_nanos.Observe(span.End());
  return results;
}

std::vector<SearchHit> SearchIndex::AboveThreshold(
    const FunctionFeature& query, double threshold) const {
  ASTERIA_SPAN("search");
  if (entries_.empty()) return {};
  std::vector<QueryPlan> plans(1);
  plans[0].encoding = model_.Encode(query.tree);
  plans[0].callees = query.callee_count;
  plans[0].keep_k = false;
  plans[0].threshold = threshold;
  return std::move(Sweep(&plans)[0]);
}

std::vector<std::vector<SearchHit>> SearchIndex::AboveThresholdBatch(
    const std::vector<const FunctionFeature*>& queries,
    const std::vector<double>& thresholds,
    std::vector<QuerySearchStats>* stats) const {
  const std::size_t batch = queries.size();
  if (stats != nullptr) stats->assign(batch, QuerySearchStats{});
  if (batch == 0) return {};
  ASTERIA_SPAN("search");
  std::vector<QueryPlan> plans = EncodeBatch(queries, stats);
  for (std::size_t q = 0; q < batch; ++q) {
    plans[q].keep_k = false;
    plans[q].threshold = thresholds[q];
  }
  return Sweep(&plans, stats);
}

// -- Snapshots --------------------------------------------------------------

namespace {

void BuildEntryChunk(const std::string& name, int callee_count, int dim,
                     const double* column, store::ChunkBuilder* chunk) {
  chunk->PutString(name);
  chunk->PutI32(callee_count);
  chunk->PutU32(static_cast<std::uint32_t>(dim));
  chunk->PutU32(1);
  chunk->PutF64Array(column, static_cast<std::size_t>(dim));
}

}  // namespace

bool SearchIndex::Save(const std::string& path, std::string* error) const {
  store::Writer writer;
  if (!writer.Open(path, store::kKindIndex, error)) return false;
  store::ChunkBuilder meta;
  meta.PutU32(kSnapshotVersion);
  meta.PutU32(model_.WeightsFingerprint());
  if (!writer.WriteChunk(kTagIndexMeta, meta, error)) return false;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const EntryMeta& entry = entries_[i];
    store::ChunkBuilder chunk;
    BuildEntryChunk(entry.name, entry.callee_count, hidden_dim_,
                    packed_.Column(static_cast<std::int64_t>(i)), &chunk);
    if (!writer.WriteChunk(kTagIndexEntry, chunk, error)) return false;
  }
  return writer.Finish(error);
}

bool SearchIndex::AppendTo(const std::string& path, int first_index,
                           std::string* error) const {
  if (first_index < 0 || first_index > size()) {
    *error = "AppendTo: first_index " + std::to_string(first_index) +
             " out of range [0, " + std::to_string(size()) + "]";
    return false;
  }
  // Validate the existing snapshot (structure + model fingerprint) before
  // extending it, so an append can never bury corruption or mix models.
  {
    store::Reader reader;
    if (!reader.Open(path, store::kKindIndex, error)) return false;
    if (reader.chunks().empty() ||
        reader.chunks().front().tag != kTagIndexMeta) {
      *error = path + ": snapshot is missing its leading IMET chunk";
      return false;
    }
    std::vector<std::uint8_t> payload;
    if (!reader.ReadChunk(0, &payload, error)) return false;
    store::ChunkParser parser(payload);
    std::uint32_t version = 0, fingerprint = 0;
    if (!parser.GetU32(&version, error) ||
        !parser.GetU32(&fingerprint, error)) {
      return false;
    }
    if (version != kSnapshotVersion) {
      *error = path + ": unsupported index snapshot version " +
               std::to_string(version);
      return false;
    }
    if (fingerprint != model_.WeightsFingerprint()) {
      *error = path + ": snapshot was encoded by different model weights "
                      "(fingerprint mismatch) — rebuild instead of appending";
      return false;
    }
  }
  store::Writer writer;
  if (!writer.OpenAppend(path, store::kKindIndex, error)) return false;
  for (std::size_t i = static_cast<std::size_t>(first_index);
       i < entries_.size(); ++i) {
    const EntryMeta& entry = entries_[i];
    store::ChunkBuilder chunk;
    BuildEntryChunk(entry.name, entry.callee_count, hidden_dim_,
                    packed_.Column(static_cast<std::int64_t>(i)), &chunk);
    if (!writer.WriteChunk(kTagIndexEntry, chunk, error)) return false;
  }
  return writer.Finish(error);
}

bool SearchIndex::LoadEntriesFrom(const std::string& path, StagedEntries* out,
                                  std::string* error) const {
  store::Reader reader;
  if (!reader.Open(path, store::kKindIndex, error)) return false;
  bool saw_meta = false;
  std::vector<std::uint8_t> payload;
  for (std::size_t i = 0; i < reader.chunks().size(); ++i) {
    const store::ChunkInfo& info = reader.chunks()[i];
    if (info.tag != kTagIndexMeta && info.tag != kTagIndexEntry) {
      continue;  // unknown chunks are skippable (forward compat)
    }
    if (!reader.ReadChunk(i, &payload, error)) return false;
    store::ChunkParser parser(payload);
    if (info.tag == kTagIndexMeta) {
      std::uint32_t version = 0, fingerprint = 0;
      if (!parser.GetU32(&version, error) ||
          !parser.GetU32(&fingerprint, error)) {
        return false;
      }
      if (version != kSnapshotVersion) {
        *error = path + ": unsupported index snapshot version " +
                 std::to_string(version);
        return false;
      }
      if (fingerprint != model_.WeightsFingerprint()) {
        *error = path + ": snapshot was encoded by different model weights "
                        "(fingerprint mismatch) — scores would be garbage; "
                        "load the matching checkpoint first or rebuild";
        return false;
      }
      saw_meta = true;
      continue;
    }
    if (!saw_meta) {
      *error = path + ": ENTR chunk before IMET metadata";
      return false;
    }
    EntryMeta entry;
    std::uint32_t rows = 0, cols = 0;
    if (!parser.GetString(&entry.name, error) ||
        !parser.GetI32(&entry.callee_count, error) ||
        !parser.GetU32(&rows, error) || !parser.GetU32(&cols, error)) {
      return false;
    }
    // Guard the allocation: a corrupted size field must not turn into a
    // multi-gigabyte resize. The payload itself bounds the element count.
    const std::uint64_t elements =
        static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols);
    if (elements * sizeof(double) > parser.remaining()) {
      *error = path + ": entry '" + entry.name + "' declares " +
               std::to_string(rows) + "x" + std::to_string(cols) +
               " encoding but only " + std::to_string(parser.remaining()) +
               " payload bytes remain — corrupted entry";
      return false;
    }
    // The model only produces hidden_dim x 1 encodings; anything else is a
    // corrupted entry or a snapshot from an incompatible build, and scoring
    // against it would read out of bounds or produce garbage.
    if (static_cast<int>(rows) != hidden_dim_ || cols != 1) {
      *error = path + ": entry '" + entry.name + "' has encoding shape " +
               std::to_string(rows) + "x" + std::to_string(cols) +
               " but this model produces " + std::to_string(hidden_dim_) +
               "x1 encodings";
      return false;
    }
    // Stage the column straight into packed (column-contiguous) form.
    const std::size_t base = out->columns.size();
    out->columns.resize(base + static_cast<std::size_t>(hidden_dim_));
    if (!parser.GetF64Array(out->columns.data() + base,
                            static_cast<std::size_t>(hidden_dim_), error)) {
      return false;
    }
    if (!AllFinite(out->columns.data() + base,
                   static_cast<std::size_t>(hidden_dim_))) {
      *error = path + ": entry '" + entry.name +
               "' encoding contains non-finite values (NaN/Inf) — corrupted "
               "snapshot";
      return false;
    }
    out->meta.push_back(std::move(entry));
  }
  if (!saw_meta) {
    *error = path + ": missing IMET metadata chunk";
    return false;
  }
  return true;
}

void SearchIndex::CommitStaged(StagedEntries&& staged) {
  entries_.reserve(entries_.size() + staged.meta.size());
  for (std::size_t i = 0; i < staged.meta.size(); ++i) {
    std::memcpy(packed_.AppendColumn(),
                staged.columns.data() + i * static_cast<std::size_t>(hidden_dim_),
                static_cast<std::size_t>(hidden_dim_) * sizeof(double));
    entries_.push_back(std::move(staged.meta[i]));
  }
  MarkSideIndexDirty();
}

void SearchIndex::ReplaceEntries(const SearchIndex* base, std::size_t reused,
                                 StagedEntries&& staged) {
  // Built aside and moved in, so `base` may be this index itself.
  std::vector<EntryMeta> entries;
  entries.reserve(reused + staged.meta.size());
  PackedColumns packed;
  packed.Reset(hidden_dim_);
  for (std::size_t i = 0; i < reused; ++i) {
    entries.push_back(base->entries_[i]);
    std::memcpy(packed.AppendColumn(),
                base->packed_.Column(static_cast<std::int64_t>(i)),
                static_cast<std::size_t>(hidden_dim_) * sizeof(double));
  }
  entries_ = std::move(entries);
  packed_ = std::move(packed);
  CommitStaged(std::move(staged));
}

bool SearchIndex::Load(const std::string& path, std::string* error) {
  StagedEntries staged;
  if (!LoadEntriesFrom(path, &staged, error)) return false;
  ReplaceEntries(nullptr, 0, std::move(staged));
  source_ = Source{};
  shards_reused_ = 0;
  shards_read_ = 1;
  return true;
}

bool SearchIndex::LoadAppend(const std::string& path, std::string* error) {
  // Stage into scratch buffers so a mid-file failure never leaves the
  // index holding a partial shard.
  StagedEntries staged;
  if (!LoadEntriesFrom(path, &staged, error)) return false;
  CommitStaged(std::move(staged));
  return true;
}

bool SearchIndex::OpenSharded(const std::string& manifest_path,
                              std::string* error, const SearchIndex* base) {
  store::ShardManifest manifest;
  if (!LoadManifest(&manifest, manifest_path, error)) return false;
  if (manifest.model_fingerprint != model_.WeightsFingerprint()) {
    *error = manifest_path +
             ": manifest was published for different model weights "
             "(fingerprint mismatch) — load the matching checkpoint or "
             "re-ingest";
    return false;
  }
  const std::string dir = store::DirOf(manifest_path);
  // The shared prefix: records `base` was opened from that the manifest
  // still names, unchanged, in the same positions. Their entries lead
  // `base` and were CRC- and entry-count-checked when first read.
  std::size_t reused_shards = 0;
  std::size_t reused_entries = 0;
  if (base != nullptr && base->source_.dir == dir &&
      base->source_.fingerprint == manifest.model_fingerprint &&
      base->hidden_dim_ == hidden_dim_) {
    const std::vector<store::ShardRecord>& had = base->source_.shards;
    while (reused_shards < had.size() &&
           reused_shards < manifest.shards.size() &&
           had[reused_shards] == manifest.shards[reused_shards]) {
      reused_entries += had[reused_shards].entries;
      ++reused_shards;
    }
  }
  StagedEntries staged;
  for (std::size_t s = reused_shards; s < manifest.shards.size(); ++s) {
    const store::ShardRecord& shard = manifest.shards[s];
    const std::size_t before = staged.meta.size();
    if (!LoadEntriesFrom(dir + "/" + shard.file, &staged, error)) {
      return false;
    }
    if (staged.meta.size() - before != shard.entries) {
      *error = manifest_path + ": shard '" + shard.file + "' holds " +
               std::to_string(staged.meta.size() - before) +
               " entries but the manifest records " +
               std::to_string(shard.entries) +
               " — shard and manifest are out of sync";
      return false;
    }
  }
  ReplaceEntries(base, reused_entries, std::move(staged));
  shards_reused_ = static_cast<int>(reused_shards);
  shards_read_ = static_cast<int>(manifest.shards.size() - reused_shards);
  source_ = Source{dir, manifest.model_fingerprint, std::move(manifest.shards)};
  return true;
}

bool SearchIndex::Open(const std::string& path, std::string* error,
                       const SearchIndex* base) {
  std::uint32_t kind = 0;
  if (!store::PeekKind(path, &kind, error)) return false;
  if (kind == store::kKindIndex) return Load(path, error);
  if (kind == store::kKindManifest) return OpenSharded(path, error, base);
  *error = path + ": " + store::FourCcName(kind) +
           " container is neither an INDX snapshot nor a MANI manifest";
  return false;
}

}  // namespace asteria::core
