#include "vuln_search_oracle.h"

#include <set>
#include <string>

namespace asteria::firmware::oracle {

VulnSearchResult ScalarVulnSearch(const core::AsteriaModel& model,
                                  const FirmwareCorpus& corpus,
                                  const std::vector<nn::Matrix>& encodings,
                                  double threshold) {
  VulnSearchResult result;
  result.threshold = threshold;
  for (const VulnSpec& spec : VulnLibrary()) {
    CveSearchResult row;
    row.cve = spec.cve;
    row.software = spec.software;
    row.function = spec.function;

    core::FunctionFeature query;
    std::string why;
    if (!BuildCveQuery(spec, static_cast<binary::Isa>(kQueryIsa), corpus.beta,
                       &query, &why)) {
      result.per_cve.push_back(std::move(row));
      continue;
    }
    const nn::Matrix query_encoding = model.Encode(query.tree);

    std::set<std::string> models_hit;
    for (std::size_t i = 0; i < corpus.functions.size(); ++i) {
      if (encodings[i].size() == 0) continue;  // placeholder
      const FirmwareFunction& fn = corpus.functions[i];
      const double ast_similarity =
          model.SimilarityFromEncodings(query_encoding, encodings[i]);
      const double score = core::CalibratedSimilarity(
          ast_similarity, query.callee_count, fn.feature.callee_count);
      if (score < threshold) continue;
      ++row.candidates;
      const bool is_vulnerable = fn.truth_cve == spec.cve && !fn.patched;
      // Criterion A: same software, vulnerable version. Module names encode
      // "software-version"; patched plants carry the fixed version string.
      const std::string prefix = spec.software + "-";
      const bool same_software = fn.module.rfind("sub_", 0) != 0 &&
                                 fn.module.rfind(prefix, 0) == 0;
      const bool version_vulnerable =
          fn.module == prefix + spec.vulnerable_version;
      if (same_software && version_vulnerable) ++row.criteria_a;
      if (score > 1.0 - 1e-9) ++row.criteria_b;
      if (is_vulnerable) {
        ++row.confirmed;
        models_hit.insert(corpus.images[static_cast<std::size_t>(fn.image)].model);
      } else {
        ++row.false_positives;
      }
    }
    row.affected_models.assign(models_hit.begin(), models_hit.end());
    result.total_confirmed += row.confirmed;
    result.total_candidates += row.candidates;
    result.per_cve.push_back(std::move(row));
  }
  return result;
}

}  // namespace asteria::firmware::oracle
