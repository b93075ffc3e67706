#include "core/search_index.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <exception>
#include <limits>
#include <numeric>
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
// Scored pairs are the (query, column) pairs the head evaluated; pruned
// pairs are the rest of the index's entries. Leaves, seeds and bounds are
// pure functions of the entries and the query, so both totals are
// thread-count invariant.
util::Counter c_scored_pairs("search.scored_pairs");
util::Counter c_pruned_pairs("search.pruned_pairs");

// Index-snapshot chunk tags and schema version (see docs/FORMATS.md).
constexpr std::uint32_t kTagIndexMeta = store::FourCc('I', 'M', 'E', 'T');
constexpr std::uint32_t kTagIndexEntry = store::FourCc('E', 'N', 'T', 'R');
constexpr std::uint32_t kSnapshotVersion = 1;

// -- Leaf prune machinery ----------------------------------------------------
//
// F = M * S. A leaf holds one callee count, so S = e^{-|C1-C2|} is exact
// for all of it, and SiameseModel::SimilarityUpperBound bounds M over its
// box. The table below caches S for every integer distance the double
// format can distinguish (e^-746 already underflows to 0.0), holding the
// exact std::exp values CalleeSimilarity produces — scoring through the
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

// S(C1, C2) by table lookup — the same value CalleeSimilarity returns.
double CalleeSim(int a, int b) {
  const std::int64_t d =
      std::abs(static_cast<std::int64_t>(a) - static_cast<std::int64_t>(b));
  if (d < kExpTableSize) return NegExpTable()[static_cast<std::size_t>(d)];
  return std::exp(-static_cast<double>(d));
}

// A leaf holds at most this many distinct columns.
constexpr int kLeafColumns = 16;

// Main leaves cover the first LeafedPrefix(D) of D columns: D rounded down
// to a multiple of the largest power of two g with 2 * g * kTailShare <= D
// (g = 1 below 64 columns), so the tail after it is under D / kTailShare
// columns. A pure function of D, so the leaves are a pure function of the
// columns, whenever and however often they were built.
constexpr std::int64_t kTailShare = 32;

std::int64_t LeafedPrefix(std::int64_t d) {
  std::int64_t g = 1;
  while (2 * g * kTailShare <= d) g *= 2;
  return d - d % g;
}

// A keep-k query scores its best-bound leaves first, at least this many and
// then as many more as it takes to hold k entries; their k-th best score is
// the floor the other leaves' bounds must reach.
constexpr std::size_t kSeedLeaves = 16;

// What a leaf is to one query.
enum LeafRole : std::uint8_t { kSweepLeaf = 0, kSkipLeaf = 1, kSeedLeaf = 2 };

// Gathers (query, column) pairs and scores a full block with one
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

  void Push(const double* query, const double* column, int query_slot,
            int column_index) {
    a_.push_back(query);
    b_.push_back(column);
    tags_.push_back({query_slot, column_index});
  }

  // Scores pending pairs and invokes sink(query_slot, column_index, m) for
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

// Prune activation cut-offs for keep-k plans. Below kMinPruneIndex entries
// the brute sweep is already microseconds; above kMaxPruneK kept hits the
// serial seed pass would cost more than it saves. Both depend only on
// (N, k), never on the thread count, so the pruned set stays deterministic.
constexpr std::int64_t kMinPruneIndex = 2048;
constexpr std::size_t kMaxPruneK = 512;

// Stack capacity for the per-(shard,query) scored-pair tallies. Covers e.g.
// 8 shards x 8 queries without touching the allocator; bigger sweeps fall
// back to one heap vector.
constexpr std::size_t kStackTallySlots = 64;

// The dedup key's hash: every bit of the encoding, then the callee count.
std::uint64_t HashColumn(const double* column, int dim, int callee_count) {
  std::uint64_t hash = 0x9e3779b97f4a7c15ULL ^
                       static_cast<std::uint32_t>(callee_count);
  for (int r = 0; r < dim; ++r) {
    std::uint64_t bits;
    std::memcpy(&bits, column + r, sizeof(bits));
    hash = (hash ^ bits) * 0xff51afd7ed558ccdULL;
    hash ^= hash >> 32;
  }
  return hash;
}

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
// policy's seed and shard-local heaps). Returns false when `ref` is not
// kept.
template <typename Ref>
static bool PushHeapKeep(std::vector<Ref>* heap, std::size_t keep, Ref ref) {
  auto worse = [](const Ref& a, const Ref& b) {
    return RefBefore(a, b);  // heap top = worst kept ref
  };
  if (heap->size() < keep) {
    heap->push_back(ref);
    std::push_heap(heap->begin(), heap->end(), worse);
    return true;
  }
  if (!RefBefore(ref, heap->front())) return false;
  std::pop_heap(heap->begin(), heap->end(), worse);
  heap->back() = ref;
  std::push_heap(heap->begin(), heap->end(), worse);
  return true;
}

// Per-query sweep state: the encoded query, its floor policy, and what each
// leaf is to it.
struct SearchIndex::QueryPlan {
  // Set by the caller.
  nn::Matrix encoding;
  int callees = 0;
  bool keep_k = true;      // floor policy: keep-k heap, else threshold
  std::size_t keep = 0;    // keep-k: heap size; 0 disables scoring entirely
  double threshold = 0.0;  // threshold: the static floor
  // Derived by the sweep.
  std::vector<std::uint8_t> roles;  // LeafRole per leaf; empty = sweep all
  std::vector<ScoredRef> seed_heap;  // the seed leaves' top-keep refs
  std::uint64_t seed_pairs = 0;      // columns scored as seeds

  bool scores() const { return !keep_k || keep > 0; }
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

void SearchIndex::Leaves::KeepMain(std::size_t count, int dim) {
  leaves.resize(count);
  columns.resize(count == 0 ? 0
                            : static_cast<std::size_t>(leaves.back().end));
  boxes.resize(count * 2 * static_cast<std::size_t>(dim));
}

SearchIndex::SearchIndex(const AsteriaModel& model, int threads)
    : model_(model),
      threads_(threads < 1 ? 1 : threads),
      hidden_dim_(model.config().siamese.encoder.hidden_dim) {
  packed_.Reset(hidden_dim_);
}

int SearchIndex::FindColumn(const double* column, int callee_count,
                            std::uint64_t hash) const {
  if (column_slots_.empty()) return -1;
  const std::size_t mask = column_slots_.size() - 1;
  for (std::size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    const int c = column_slots_[slot];
    if (c < 0) return -1;
    const ColumnGroup& group = columns_[static_cast<std::size_t>(c)];
    if (group.hash == hash && group.callee_count == callee_count &&
        std::memcmp(packed_.Column(c), column,
                    static_cast<std::size_t>(hidden_dim_) * sizeof(double)) ==
            0) {
      return c;
    }
  }
}

void SearchIndex::RehashColumns() {
  std::size_t size = 16;
  while (size < 4 * columns_.size()) size *= 2;
  column_slots_.assign(size, -1);
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    std::size_t slot = columns_[c].hash & (size - 1);
    while (column_slots_[slot] >= 0) slot = (slot + 1) & (size - 1);
    column_slots_[slot] = static_cast<int>(c);
  }
}

int SearchIndex::CommitEntry(std::string name, int callee_count,
                             const double* column) {
  const int entry = size();
  const std::uint64_t hash = HashColumn(column, hidden_dim_, callee_count);
  int c = FindColumn(column, callee_count, hash);
  if (c >= 0) {
    ColumnGroup& group = columns_[static_cast<std::size_t>(c)];
    entries_[static_cast<std::size_t>(group.last)].next = entry;
    group.last = entry;
  } else {
    c = distinct_columns();
    std::memcpy(packed_.AppendColumn(), column,
                static_cast<std::size_t>(hidden_dim_) * sizeof(double));
    columns_.push_back({callee_count, entry, entry, hash});
    if (2 * columns_.size() > column_slots_.size()) {
      RehashColumns();
    } else {
      const std::size_t mask = column_slots_.size() - 1;
      std::size_t slot = hash & mask;
      while (column_slots_[slot] >= 0) slot = (slot + 1) & mask;
      column_slots_[slot] = c;
    }
  }
  entries_.push_back({std::move(name), callee_count, c, -1});
  return entry;
}

int SearchIndex::Add(const FunctionFeature& feature) {
  util::TraceSpan span("encode");
  const nn::Matrix encoding = model_.Encode(feature.tree);
  const int entry =
      CommitEntry(feature.name, feature.callee_count, encoding.data());
  MarkLeavesDirty();
  h_add_nanos.Observe(span.End());
  return entry;
}

int SearchIndex::AddEncoded(const std::string& name,
                            const nn::Matrix& encoding, int callee_count) {
  // Same shape/finiteness gate as Load: a foreign or corrupted encoding
  // must be rejected here, not discovered as garbage scores later.
  if (encoding.rows() != hidden_dim_ || encoding.cols() != 1 ||
      !AllFinite(encoding.data(), encoding.size())) {
    return -1;
  }
  const int entry = CommitEntry(name, callee_count, encoding.data());
  MarkLeavesDirty();
  return entry;
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
    CommitEntry(features[i].name, features[i].callee_count,
                encoded.encodings[i].data());
  }
  MarkLeavesDirty();
  encoded.report.stage = "index-encode";
  util::PublishPipelineReport(encoded.report);
  return encoded.report;
}

nn::Matrix SearchIndex::encoding(int index) const {
  nn::Matrix m(hidden_dim_, 1);
  std::memcpy(m.data(),
              packed_.Column(entries_[static_cast<std::size_t>(index)].column),
              static_cast<std::size_t>(hidden_dim_) * sizeof(double));
  return m;
}

void SearchIndex::EnsureLeavesFresh() const {
  if (!leaves_dirty_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(leaf_mutex_);
  if (!leaves_dirty_.load(std::memory_order_relaxed)) return;
  const int columns = distinct_columns();
  const int main_end = static_cast<int>(LeafedPrefix(columns));
  if (leaves_.main_end != main_end) {
    leaves_ = Leaves{};
    BuildLeaves(0, main_end, &leaves_);
    leaves_.main_end = main_end;
    leaves_.main_count = leaves_.leaves.size();
  } else {
    leaves_.KeepMain(leaves_.main_count, hidden_dim_);
  }
  BuildLeaves(main_end, columns, &leaves_);
  const std::vector<Leaves::Leaf>& all = leaves_.leaves;
  leaves_.by_callee.resize(all.size());
  std::iota(leaves_.by_callee.begin(), leaves_.by_callee.end(), 0);
  std::stable_sort(leaves_.by_callee.begin(), leaves_.by_callee.end(),
                   [&](int a, int b) {
                     return all[static_cast<std::size_t>(a)].callee_count <
                            all[static_cast<std::size_t>(b)].callee_count;
                   });
  leaves_.runs.clear();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i == 0 ||
        all[static_cast<std::size_t>(leaves_.by_callee[i])].callee_count !=
            all[static_cast<std::size_t>(leaves_.by_callee[i - 1])]
                .callee_count) {
      leaves_.runs.push_back(static_cast<int>(i));
    }
  }
  leaves_.runs.push_back(static_cast<int>(all.size()));
  leaves_dirty_.store(false, std::memory_order_release);
}

void SearchIndex::BuildLeaves(int begin, int end, Leaves* out) const {
  const std::size_t dim = static_cast<std::size_t>(hidden_dim_);
  // Columns by (callee count, column index); each run of one count is then
  // split depth-first, lower half first, at the median of its widest
  // dimension (ties by column index) until a part fits a leaf. Every step
  // is a pure function of the columns.
  std::vector<int> order(static_cast<std::size_t>(end - begin));
  std::iota(order.begin(), order.end(), begin);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return columns_[static_cast<std::size_t>(a)].callee_count <
           columns_[static_cast<std::size_t>(b)].callee_count;
  });
  std::vector<double> box(2 * dim);
  std::vector<std::pair<std::size_t, std::size_t>> parts;
  for (std::size_t run = 0; run < order.size();) {
    const int callees =
        columns_[static_cast<std::size_t>(order[run])].callee_count;
    std::size_t run_end = run + 1;
    while (run_end < order.size() &&
           columns_[static_cast<std::size_t>(order[run_end])].callee_count ==
               callees) {
      ++run_end;
    }
    parts.assign(1, {run, run_end});
    while (!parts.empty()) {
      const auto [lo, hi] = parts.back();
      parts.pop_back();
      std::fill(box.begin(), box.begin() + static_cast<std::ptrdiff_t>(dim),
                std::numeric_limits<double>::infinity());
      std::fill(box.begin() + static_cast<std::ptrdiff_t>(dim), box.end(),
                -std::numeric_limits<double>::infinity());
      for (std::size_t i = lo; i < hi; ++i) {
        const double* column = packed_.Column(order[i]);
        for (std::size_t r = 0; r < dim; ++r) {
          box[r] = std::min(box[r], column[r]);
          box[dim + r] = std::max(box[dim + r], column[r]);
        }
      }
      if (hi - lo <= static_cast<std::size_t>(kLeafColumns)) {
        std::sort(order.begin() + static_cast<std::ptrdiff_t>(lo),
                  order.begin() + static_cast<std::ptrdiff_t>(hi));
        const int first = static_cast<int>(out->columns.size());
        out->columns.insert(out->columns.end(),
                            order.begin() + static_cast<std::ptrdiff_t>(lo),
                            order.begin() + static_cast<std::ptrdiff_t>(hi));
        out->leaves.push_back(
            {callees, first, static_cast<int>(out->columns.size())});
        out->boxes.insert(out->boxes.end(), box.begin(), box.end());
        continue;
      }
      std::size_t widest = 0;
      for (std::size_t r = 1; r < dim; ++r) {
        if (box[dim + r] - box[r] > box[dim + widest] - box[widest]) {
          widest = r;
        }
      }
      const std::size_t mid = lo + (hi - lo) / 2;
      std::nth_element(order.begin() + static_cast<std::ptrdiff_t>(lo),
                       order.begin() + static_cast<std::ptrdiff_t>(mid),
                       order.begin() + static_cast<std::ptrdiff_t>(hi),
                       [&](int a, int b) {
                         const double va = packed_.Column(a)[widest];
                         const double vb = packed_.Column(b)[widest];
                         if (va != vb) return va < vb;
                         return a < b;
                       });
      parts.push_back({mid, hi});
      parts.push_back({lo, mid});
    }
    run = run_end;
  }
}

void SearchIndex::PushMembers(const QueryPlan& plan, int column,
                              double score,
                              std::vector<ScoredRef>* refs) const {
  // Members share the score and come in insertion order, so the first one
  // a keep-k heap rejects rules out every later one.
  for (int e = columns_[static_cast<std::size_t>(column)].first; e >= 0;
       e = entries_[static_cast<std::size_t>(e)].next) {
    if (plan.keep_k) {
      if (!PushHeapKeep(refs, plan.keep, ScoredRef{score, e})) return;
    } else {
      if (score < plan.threshold) return;
      refs->push_back({score, e});
    }
  }
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
  EnsureLeavesFresh();
  // Stable until the next mutation, which never overlaps a query.
  const Leaves& leaves = leaves_;
  const std::size_t leaf_count = leaves.leaves.size();
  const std::size_t dim = static_cast<std::size_t>(hidden_dim_);

  // Phase 1 — per-query leaf roles. A leaf's bound is M_ub * S, and never
  // above S * kMaxSimilarity, so a leaf whose S alone falls below a known
  // floor needs no box bound. A threshold plan's floor is the threshold
  // itself. A keep-k plan earns a floor when the prune is worth arming
  // (large index, small k): its best-bound leaves (bound desc, leaf index
  // asc) are scored serially into a full heap as seeds, and the heap's
  // worst score is the floor. Either way, a leaf whose bound falls strictly
  // below the floor provably holds no result and is skipped. Everything
  // here is a pure function of the leaves, the query and its scores, so the
  // roles — and therefore the skipped set — are thread-count invariant.
  const auto bounded = [n](const QueryPlan& plan) {
    return !plan.keep_k || (plan.keep > 0 && plan.keep <= kMaxPruneK &&
                            n >= kMinPruneIndex);
  };
  const bool any_bounded = std::any_of(plans.begin(), plans.end(), bounded);
  util::ParallelFor(
      static_cast<std::int64_t>(batch), any_bounded ? threads_ : 1,
      [&](std::int64_t qi) {
        QueryPlan& plan = plans[static_cast<std::size_t>(qi)];
        if (!bounded(plan)) return;  // sweeps every leaf, or none for k = 0
        const double* query = plan.encoding.data();
        const auto s_bound = [&](std::size_t l) {
          return CalleeSim(leaves.leaves[l].callee_count, plan.callees) *
                 SiameseModel::kMaxSimilarity;
        };
        std::vector<double> bounds(leaf_count, -1.0);  // -1: not taken yet
        const auto bound = [&](std::size_t l) {
          if (bounds[l] < 0.0) {
            const double* box = leaves.boxes.data() + l * 2 * dim;
            const double b =
                model_.SimilarityUpperBound(query, box, box + dim) *
                CalleeSim(leaves.leaves[l].callee_count, plan.callees);
            // A NaN bound (non-finite weights) never prunes.
            bounds[l] =
                std::isnan(b) ? std::numeric_limits<double>::infinity() : b;
          }
          return bounds[l];
        };
        plan.roles.assign(leaf_count, kSweepLeaf);
        double floor = plan.threshold;
        if (plan.keep_k) {
          // Seeds: the best `seeds` leaves, the least count >= kSeedLeaves
          // holding `keep` entries. Bounds are taken callee group by group,
          // nearest count first, until the next group's S bound falls
          // strictly below the last seed's bound: no leaf after it can
          // displace a seed, so the choice equals ranking every leaf.
          std::vector<std::size_t> groups(leaves.runs.size() - 1);
          std::iota(groups.begin(), groups.end(), std::size_t{0});
          const auto group_callees = [&](std::size_t g) {
            return leaves.leaves[static_cast<std::size_t>(
                                     leaves.by_callee[static_cast<std::size_t>(
                                         leaves.runs[g])])]
                .callee_count;
          };
          std::sort(groups.begin(), groups.end(),
                    [&](std::size_t a, std::size_t b) {
                      const double sa = CalleeSim(group_callees(a), plan.callees);
                      const double sb = CalleeSim(group_callees(b), plan.callees);
                      if (sa != sb) return sa > sb;
                      return a < b;
                    });
          const auto better = [&](int a, int b) {
            const double ba = bounds[static_cast<std::size_t>(a)];
            const double bb = bounds[static_cast<std::size_t>(b)];
            if (ba != bb) return ba > bb;
            return a < b;
          };
          std::vector<int> ranked;  // every bounded leaf, best first
          std::size_t seeds = 0;
          // Ranks `ranked` and counts off the seeds; true when they hold
          // kSeedLeaves leaves and `keep` entries.
          const auto select = [&] {
            std::size_t head = std::min(kSeedLeaves, ranked.size());
            std::partial_sort(ranked.begin(),
                              ranked.begin() + static_cast<std::ptrdiff_t>(head),
                              ranked.end(), better);
            std::size_t members = 0;
            seeds = 0;
            while (seeds < ranked.size() &&
                   (seeds < kSeedLeaves || members < plan.keep)) {
              if (seeds == head) {
                std::sort(ranked.begin() + static_cast<std::ptrdiff_t>(head),
                          ranked.end(), better);
                head = ranked.size();
              }
              const Leaves::Leaf& l =
                  leaves.leaves[static_cast<std::size_t>(ranked[seeds++])];
              for (int c = l.begin; c < l.end && members < plan.keep; ++c) {
                for (int e = columns_[static_cast<std::size_t>(
                                          leaves.columns[static_cast<std::size_t>(c)])]
                                 .first;
                     e >= 0 && members < plan.keep;
                     e = entries_[static_cast<std::size_t>(e)].next) {
                  ++members;
                }
              }
            }
            return seeds >= kSeedLeaves && members >= plan.keep;
          };
          for (std::size_t g : groups) {
            const std::size_t first = static_cast<std::size_t>(
                leaves.by_callee[static_cast<std::size_t>(leaves.runs[g])]);
            if (ranked.size() >= kSeedLeaves && select() &&
                s_bound(first) <
                    bounds[static_cast<std::size_t>(ranked[seeds - 1])]) {
              break;
            }
            for (int i = leaves.runs[g]; i < leaves.runs[g + 1]; ++i) {
              const int l = leaves.by_callee[static_cast<std::size_t>(i)];
              bound(static_cast<std::size_t>(l));
              ranked.push_back(l);
            }
          }
          select();
          plan.seed_heap.reserve(plan.keep + 1);
          BlockScorer scorer(model_);
          auto sink = [&](int, int column, double m) {
            PushMembers(plan, column,
                        m * CalleeSim(columns_[static_cast<std::size_t>(column)]
                                          .callee_count,
                                      plan.callees),
                        &plan.seed_heap);
          };
          for (std::size_t i = 0; i < seeds; ++i) {
            const std::size_t leaf = static_cast<std::size_t>(ranked[i]);
            plan.roles[leaf] = kSeedLeaf;
            const Leaves::Leaf& l = leaves.leaves[leaf];
            for (int c = l.begin; c < l.end; ++c) {
              const int column = leaves.columns[static_cast<std::size_t>(c)];
              scorer.Push(query, packed_.Column(column), 0, column);
              if (scorer.Full()) scorer.Flush(sink);
            }
            plan.seed_pairs += static_cast<std::uint64_t>(l.end - l.begin);
          }
          scorer.Flush(sink);
          // The seeds hold at least `keep` entries, so the heap is full and
          // its worst score is a lower bound on the final k-th score.
          floor = plan.seed_heap.front().score;
        }
        for (std::size_t l = 0; l < leaf_count; ++l) {
          if (plan.roles[l] == kSweepLeaf &&
              (s_bound(l) < floor || bound(l) < floor)) {
            plan.roles[l] = kSkipLeaf;
          }
        }
      });

  // Phase 2 — one blocked sweep over the leaves in leaf order. Each leaf's
  // columns are gathered for every query that sweeps it and scored through
  // GEMM flushes. Survivors land in shard-local refs: a k-bounded heap for
  // keep-k, every ref at or above the floor for threshold.
  const int max_shards = threads_;
  const std::size_t shard_slots =
      static_cast<std::size_t>(std::max(1, max_shards));
  std::vector<std::vector<std::vector<ScoredRef>>> shard_refs(
      shard_slots, std::vector<std::vector<ScoredRef>>(batch));
  // Scored-pair tallies per (shard, query), flattened: summed across shards
  // they give each query's scored columns. Flat — and on the stack for the
  // common small case — because this runs per dispatch: a nested
  // vector-of-vectors costs mallocs on the warm singleton-query path.
  const std::size_t tally_count = shard_slots * batch;
  std::uint64_t stack_tallies[kStackTallySlots] = {};
  std::vector<std::uint64_t> heap_tallies;
  std::uint64_t* shard_tallies = stack_tallies;
  if (tally_count > kStackTallySlots) {
    heap_tallies.assign(tally_count, 0);
    shard_tallies = heap_tallies.data();
  }
  util::ParallelForShards(
      static_cast<std::int64_t>(leaf_count), max_shards,
      [&](std::int64_t begin, std::int64_t end, int shard) {
        std::vector<std::vector<ScoredRef>>& locals =
            shard_refs[static_cast<std::size_t>(shard)];
        for (std::size_t q = 0; q < batch; ++q) {
          if (plans[q].keep_k) locals[q].reserve(plans[q].keep + 1);
        }
        std::uint64_t* const scored =
            shard_tallies + static_cast<std::size_t>(shard) * batch;
        BlockScorer scorer(model_);
        auto sink = [&](int q, int column, double m) {
          const QueryPlan& plan = plans[static_cast<std::size_t>(q)];
          PushMembers(plan, column,
                      m * CalleeSim(columns_[static_cast<std::size_t>(column)]
                                        .callee_count,
                                    plan.callees),
                      &locals[static_cast<std::size_t>(q)]);
        };
        for (std::int64_t l = begin; l < end; ++l) {
          const Leaves::Leaf& leaf = leaves.leaves[static_cast<std::size_t>(l)];
          for (std::size_t q = 0; q < batch; ++q) {
            const QueryPlan& plan = plans[q];
            if (!plan.scores() ||
                (!plan.roles.empty() &&
                 plan.roles[static_cast<std::size_t>(l)] != kSweepLeaf)) {
              continue;
            }
            for (int c = leaf.begin; c < leaf.end; ++c) {
              const int column = leaves.columns[static_cast<std::size_t>(c)];
              scorer.Push(plan.encoding.data(), packed_.Column(column),
                          static_cast<int>(q), column);
              if (scorer.Full()) scorer.Flush(sink);
            }
            scored[q] += static_cast<std::uint64_t>(leaf.end - leaf.begin);
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
    if (!plans[q].scores()) continue;
    std::uint64_t q_scored = plans[q].seed_pairs;
    for (std::size_t s = 0; s < shard_slots; ++s) {
      q_scored += shard_tallies[s * batch + q];
    }
    const std::uint64_t q_pruned = static_cast<std::uint64_t>(n) - q_scored;
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
                    packed_.Column(entry.column), &chunk);
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
                    packed_.Column(entry.column), &chunk);
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
    CommitEntry(std::move(staged.meta[i].name), staged.meta[i].callee_count,
                staged.columns.data() + i * static_cast<std::size_t>(hidden_dim_));
  }
  MarkLeavesDirty();
}

void SearchIndex::ReplaceEntries(const SearchIndex* base, std::size_t reused,
                                 StagedEntries&& staged) {
  // Built aside and moved in, so `base` may be this index itself. Columns
  // are numbered by first appearance, so the prefix's columns are exactly
  // those it holds a first member of; member chains are cut at the prefix
  // end, and the main leaves carry over when they cover only its columns.
  std::vector<EntryMeta> entries;
  std::vector<ColumnGroup> columns;
  PackedColumns packed;
  packed.Reset(hidden_dim_);
  Leaves leaves;
  if (reused > 0) {
    entries.reserve(reused + staged.meta.size());
    entries.assign(base->entries_.begin(),
                   base->entries_.begin() + static_cast<std::ptrdiff_t>(reused));
    columns.assign(base->columns_.begin(),
                   std::partition_point(base->columns_.begin(),
                                        base->columns_.end(),
                                        [&](const ColumnGroup& group) {
                                          return static_cast<std::size_t>(
                                                     group.first) < reused;
                                        }));
    for (std::size_t i = 0; i < reused; ++i) {
      EntryMeta& entry = entries[i];
      entry.next = -1;
      ColumnGroup& group = columns[static_cast<std::size_t>(entry.column)];
      if (group.first != static_cast<int>(i)) {
        entries[static_cast<std::size_t>(group.last)].next =
            static_cast<int>(i);
      }
      group.last = static_cast<int>(i);
    }
    for (std::size_t c = 0; c < columns.size(); ++c) {
      std::memcpy(packed.AppendColumn(),
                  base->packed_.Column(static_cast<std::int64_t>(c)),
                  static_cast<std::size_t>(hidden_dim_) * sizeof(double));
    }
    std::lock_guard<std::mutex> lock(base->leaf_mutex_);
    if (static_cast<std::size_t>(base->leaves_.main_end) <= columns.size()) {
      leaves = base->leaves_;
      leaves.KeepMain(leaves.main_count, hidden_dim_);
    }
  }
  entries_ = std::move(entries);
  columns_ = std::move(columns);
  packed_ = std::move(packed);
  leaves_ = std::move(leaves);
  RehashColumns();
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
