// Scalar Table IV oracle for firmware::RunVulnSearch (test only).
//
// Table IV's original scoring loop, kept as the differential oracle for the
// SearchIndex-backed search: every CVE query (firmware::BuildCveQuery on
// kQueryIsa) is scored against every corpus function with a non-empty
// encoding, one pair at a time in corpus order, as
// CalibratedSimilarity(SimilarityFromEncodings(...)) — no SearchIndex, no
// pruning — and the confirmation criteria are applied to each candidate.
#pragma once

#include <vector>

#include "core/asteria.h"
#include "firmware/search.h"

namespace asteria::firmware::oracle {

// The rows and totals RunVulnSearch(model, corpus, encodings, threshold)
// must produce. `report` is left empty.
VulnSearchResult ScalarVulnSearch(const core::AsteriaModel& model,
                                  const FirmwareCorpus& corpus,
                                  const std::vector<nn::Matrix>& encodings,
                                  double threshold);

}  // namespace asteria::firmware::oracle
