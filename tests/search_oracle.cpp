#include "search_oracle.h"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "core/calibration.h"
#include "util/thread_pool.h"

namespace asteria::core::oracle {

namespace {

// Strict total order on hits: score descending, insertion index ascending.
bool HitBefore(const SearchHit& a, const SearchHit& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.index < b.index;
}

}  // namespace

std::vector<nn::Matrix> MaterializeEncodings(const SearchIndex& index) {
  std::vector<nn::Matrix> mats(static_cast<std::size_t>(index.size()));
  util::ParallelFor(index.size(), index.threads(), [&](std::int64_t i) {
    mats[static_cast<std::size_t>(i)] = index.encoding(static_cast<int>(i));
  });
  return mats;
}

SearchHit ScoreEntryReference(const SearchIndex& index,
                              const AsteriaModel& model,
                              const nn::Matrix& query_encoding,
                              int query_callees,
                              const nn::Matrix& entry_encoding, int entry) {
  SearchHit hit;
  hit.index = entry;
  hit.name = index.name(entry);
  hit.score = CalibratedSimilarity(
      model.SimilarityFromEncodings(query_encoding, entry_encoding),
      query_callees, index.callee_count(entry));
  return hit;
}

std::vector<SearchHit> ScoredReference(
    const SearchIndex& index, const AsteriaModel& model,
    const FunctionFeature& query,
    const std::vector<nn::Matrix>& entry_encodings) {
  const nn::Matrix query_encoding = model.Encode(query.tree);
  std::vector<SearchHit> hits(static_cast<std::size_t>(index.size()));
  util::ParallelFor(index.size(), index.threads(), [&](std::int64_t i) {
    const std::size_t slot = static_cast<std::size_t>(i);
    hits[slot] = ScoreEntryReference(index, model, query_encoding,
                                     query.callee_count, entry_encodings[slot],
                                     static_cast<int>(i));
  });
  return hits;
}

std::vector<SearchHit> TopKReference(const SearchIndex& index,
                                     const AsteriaModel& model,
                                     const FunctionFeature& query, int k) {
  if (k <= 0 || index.size() == 0) return {};
  const std::vector<nn::Matrix> mats = MaterializeEncodings(index);
  const nn::Matrix query_encoding = model.Encode(query.tree);
  const std::size_t keep = std::min<std::size_t>(
      static_cast<std::size_t>(k), static_cast<std::size_t>(index.size()));
  // Shard-local top-k exactly as the original brute force: every entry is
  // scored, one pair at a time.
  const int max_shards = index.threads();
  std::vector<std::vector<SearchHit>> shard_top(
      static_cast<std::size_t>(std::max(1, max_shards)));
  util::ParallelForShards(
      index.size(), max_shards,
      [&](std::int64_t begin, std::int64_t end, int shard) {
        auto worse = [](const SearchHit& a, const SearchHit& b) {
          return HitBefore(a, b);  // heap top = worst kept hit
        };
        std::vector<SearchHit>& local =
            shard_top[static_cast<std::size_t>(shard)];
        local.reserve(keep + 1);
        for (std::int64_t i = begin; i < end; ++i) {
          SearchHit hit = ScoreEntryReference(
              index, model, query_encoding, query.callee_count,
              mats[static_cast<std::size_t>(i)], static_cast<int>(i));
          if (local.size() < keep) {
            local.push_back(std::move(hit));
            std::push_heap(local.begin(), local.end(), worse);
          } else if (HitBefore(hit, local.front())) {
            std::pop_heap(local.begin(), local.end(), worse);
            local.back() = std::move(hit);
            std::push_heap(local.begin(), local.end(), worse);
          }
        }
      });
  std::vector<SearchHit> merged;
  merged.reserve(keep * shard_top.size());
  for (std::vector<SearchHit>& local : shard_top) {
    merged.insert(merged.end(), std::make_move_iterator(local.begin()),
                  std::make_move_iterator(local.end()));
  }
  const auto cut = merged.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(keep, merged.size()));
  std::partial_sort(merged.begin(), cut, merged.end(), HitBefore);
  merged.erase(cut, merged.end());
  return merged;
}

std::vector<SearchHit> AboveThresholdReference(const SearchIndex& index,
                                               const AsteriaModel& model,
                                               const FunctionFeature& query,
                                               double threshold) {
  const std::vector<nn::Matrix> mats = MaterializeEncodings(index);
  std::vector<SearchHit> hits = ScoredReference(index, model, query, mats);
  hits.erase(std::remove_if(hits.begin(), hits.end(),
                            [&](const SearchHit& hit) {
                              return hit.score < threshold;
                            }),
             hits.end());
  std::sort(hits.begin(), hits.end(), HitBefore);
  return hits;
}

std::string HitsMismatch(const std::vector<SearchHit>& got,
                         const std::vector<SearchHit>& want) {
  std::ostringstream out;
  if (got.size() != want.size()) {
    out << "hit count " << got.size() << " != " << want.size();
    return out.str();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Bitwise, not approximate: the sweep must replay the exact reference
    // arithmetic.
    if (got[i].index != want[i].index || got[i].name != want[i].name ||
        got[i].score != want[i].score) {
      out << "hit " << i << ": (" << got[i].index << ", " << got[i].name
          << ", " << std::hexfloat << got[i].score << std::defaultfloat
          << ") != (" << want[i].index << ", " << want[i].name << ", "
          << std::hexfloat << want[i].score << ")";
      return out.str();
    }
  }
  return "";
}

}  // namespace asteria::core::oracle
