// Brute-force search oracle for core::SearchIndex (test only).
//
// The pre-packing query implementation, kept verbatim in arithmetic as the
// differential oracle for tests/search_index_test.cpp and
// tests/search_prune_test.cpp — the pruned, blocked sweep must return
// results bitwise identical to these at every thread count. They score
// every entry, one pair at a time, with no pruning, and use only
// SearchIndex's public accessors plus the model's per-pair scorer, so they
// share no code with the path under test.
#pragma once

#include <string>
#include <vector>

#include "core/asteria.h"
#include "core/search_index.h"

namespace asteria::core::oracle {

// Entry encodings materialized from the index's packed columns (same
// doubles, so scores carry the same bits as the row-per-entry original).
std::vector<nn::Matrix> MaterializeEncodings(const SearchIndex& index);

// F = M * S for one (query, entry) pair, via the scalar eq. (8) scorer.
SearchHit ScoreEntryReference(const SearchIndex& index,
                              const AsteriaModel& model,
                              const nn::Matrix& query_encoding,
                              int query_callees,
                              const nn::Matrix& entry_encoding, int entry);

// Every entry scored against `query`, in insertion order.
std::vector<SearchHit> ScoredReference(
    const SearchIndex& index, const AsteriaModel& model,
    const FunctionFeature& query,
    const std::vector<nn::Matrix>& entry_encodings);

// Brute-force TopK: shard-local heaps over every entry, merged under the
// strict (score desc, index asc) order. Shards follow index.threads().
std::vector<SearchHit> TopKReference(const SearchIndex& index,
                                     const AsteriaModel& model,
                                     const FunctionFeature& query, int k);

// Brute-force AboveThreshold: every hit scoring at least `threshold`,
// sorted under the same strict order.
std::vector<SearchHit> AboveThresholdReference(const SearchIndex& index,
                                               const AsteriaModel& model,
                                               const FunctionFeature& query,
                                               double threshold);

// Bitwise hit-list comparison: same entries, same order, same score bits.
// Returns "" when identical, else a description of the first difference.
std::string HitsMismatch(const std::vector<SearchHit>& got,
                         const std::vector<SearchHit>& want);

inline bool SameHits(const std::vector<SearchHit>& a,
                     const std::vector<SearchHit>& b) {
  return HitsMismatch(a, b).empty();
}

}  // namespace asteria::core::oracle
