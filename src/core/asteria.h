// ASTERIA public API: preprocessing, AST similarity, calibrated function
// similarity, and the training loop.
//
// Pipeline per the paper's Fig. 3: AST extraction (decompiler) ->
// preprocessing (digitalization + LCRS; Preprocess()) -> Tree-LSTM encoding
// -> Siamese similarity -> callee-count calibration.
#pragma once

#include <string>
#include <vector>

#include "core/calibration.h"
#include "core/siamese.h"
#include "util/pipeline_report.h"

namespace asteria::core {

struct AsteriaConfig {
  SiameseConfig siamese;
  // Seed for weight initialization.
  std::uint64_t seed = 1;
};

// A preprocessed function ready for encoding/similarity.
struct FunctionFeature {
  std::string name;       // "<module>::<function>"
  ast::BinaryAst tree;    // digitalized, LCRS-binarized AST
  int callee_count = 0;   // |χ| (β-filtered)
};

// One labeled training/evaluation pair (indices into a feature vector).
struct LabeledPair {
  int a = 0;
  int b = 0;
  bool homologous = false;
};

class AsteriaModel {
 public:
  explicit AsteriaModel(const AsteriaConfig& config);

  // §III-A preprocessing: digitalization + left-child right-sibling.
  static ast::BinaryAst Preprocess(const ast::Ast& tree);

  // M(T1, T2) — the Siamese AST similarity in [0, 1].
  double AstSimilarity(const ast::BinaryAst& a, const ast::BinaryAst& b) const {
    return siamese_.Similarity(a, b);
  }

  // F(F1, F2) = M x S — calibrated function similarity (eq. (10)).
  double FunctionSimilarity(const FunctionFeature& a,
                            const FunctionFeature& b) const {
    return CalibratedSimilarity(AstSimilarity(a.tree, b.tree),
                                a.callee_count, b.callee_count);
  }

  // Offline encoding / online scoring split (Fig. 10).
  nn::Matrix Encode(const ast::BinaryAst& tree) const {
    return siamese_.Encode(tree);
  }
  double SimilarityFromEncodings(const nn::Matrix& a,
                                 const nn::Matrix& b) const {
    return siamese_.SimilarityFromEncodings(a, b);
  }
  // Batched online scoring: out[i] = M over the encoding pair (a[i], b[i]),
  // each a hidden_dim-length column. One blocked GEMM per block instead of
  // per-pair feature allocations; bitwise identical per pair to
  // SimilarityFromEncodings (see SiameseModel::SimilarityFromEncodingsBatch).
  void SimilarityFromEncodingsBatch(const double* const* a,
                                    const double* const* b, int count,
                                    double* out,
                                    EncodingScoreScratch* scratch) const {
    siamese_.SimilarityFromEncodingsBatch(a, b, count, out, scratch);
  }
  // Upper bound on that M over a box of columns (SearchIndex's leaf prune;
  // see SiameseModel::SimilarityUpperBound).
  double SimilarityUpperBound(const double* query, const double* lo,
                              const double* hi) const {
    return siamese_.SimilarityUpperBound(query, lo, hi);
  }

  // One SGD step; returns the pair loss.
  double TrainPair(const ast::BinaryAst& a, const ast::BinaryAst& b,
                   bool homologous) {
    return siamese_.TrainPair(a, b, homologous);
  }

  // Trains one epoch over shuffled pairs; returns the mean loss over the
  // pairs that actually trained. Pairs with empty trees are skipped; pairs
  // whose loss comes back non-finite are isolated (no weight update, not
  // counted in the mean). `report`, when non-null, accumulates the per-pair
  // outcomes (stage "train-epoch").
  double TrainEpoch(const std::vector<FunctionFeature>& features,
                    std::vector<LabeledPair> pairs, util::Rng& rng,
                    util::PipelineReport* report = nullptr);

  bool Save(const std::string& path) const { return siamese_.Save(path); }
  bool Load(const std::string& path) { return siamese_.Load(path); }

  const AsteriaConfig& config() const { return config_; }
  std::size_t TotalWeights() const { return siamese_.TotalWeights(); }

  // CRC32 fingerprint of the current weights. Index snapshots embed it so a
  // snapshot is only ever loaded back under the model that encoded it.
  std::uint32_t WeightsFingerprint() const;

 private:
  AsteriaConfig config_;
  util::Rng rng_;
  SiameseModel siamese_;
};

}  // namespace asteria::core
