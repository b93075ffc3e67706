// Siamese network over two shared-weight Tree-LSTM encoders (§III-B).
//
// Classification head — equation (8):
//   M(T1,T2) = softmax( sigmoid( cat(|e1-e2|, e1 . e2) )^T W )
// with W a (2h x 2) matrix; output [dissimilarity, similarity]. Training
// uses BCELoss against one-hot labels ([1,0] = non-homologous, [0,1] =
// homologous) and AdaGrad with batch size 1, as in §IV-A.
//
// Regression head (Fig. 9 "Regression" ablation): cos(e1, e2) trained with
// squared error against ±1.
//
// Training runs the fused TreeLstmFastEncoder forward and backward plus a
// hand-written head backward; the weights it produces are bitwise those of
// the autograd-tape step (tests/train_oracle.h, docs/PERFORMANCE.md "The
// training path").
#pragma once

#include <string>
#include <vector>

#include "core/tree_lstm.h"
#include "core/tree_lstm_fast.h"
#include "nn/optimizer.h"

namespace asteria::core {

enum class SiameseHead { kClassification, kRegression };

struct SiameseConfig {
  TreeLstmConfig encoder;
  SiameseHead head = SiameseHead::kClassification;
  double learning_rate = 0.05;
  // Encode() through the fused tape-free TreeLstmFastEncoder (bitwise
  // identical to the tape path, several times faster). Off = the autograd
  // reference path, selected only by tests and bench/perf's train-epoch;
  // no command-line flag reaches it. Training always runs the fused kernel.
  bool use_fast_encoder = true;
};

// Reusable scratch for SimilarityFromEncodingsBatch: grow-only buffers so a
// steady-state scoring sweep performs no heap allocation. One instance per
// worker thread (it is not thread-safe).
struct EncodingScoreScratch {
  std::vector<double> features;  // pairs x 2h feature rows (classification)
  std::vector<double> logits;    // pairs x 2 head outputs (classification)
};

class SiameseModel {
 public:
  SiameseModel(const SiameseConfig& config, util::Rng& rng);

  // AST similarity in [0, 1]: SimilarityFromEncodings(Encode(a), Encode(b)),
  // or 0 when either tree is empty.
  double Similarity(const ast::BinaryAst& a, const ast::BinaryAst& b) const;

  // Offline phase: encode once, compare many times (the "A-E" stage).
  // Runs the fused TreeLstmFastEncoder unless config disables it. Safe to
  // call concurrently with itself, but not with TrainPair or Load, which
  // rewrite the fused weights.
  nn::Matrix Encode(const ast::BinaryAst& tree) const;

  // Online phase (Fig. 10(c)): similarity from two precomputed encodings —
  // plain matrix math, no tape.
  double SimilarityFromEncodings(const nn::Matrix& a,
                                 const nn::Matrix& b) const;

  // Batched online scoring — the SearchIndex block-sweep path. Scores
  // `count` (a[i], b[i]) encoding pairs, each a hidden_dim-length column,
  // writing out[i]. For the classification head the whole block becomes one
  // feature matrix and a single blocked Gemm against the head weights
  // (nn::Matrix::GemmRaw), instead of `count` per-pair feature allocations.
  // out[i] is bitwise identical to SimilarityFromEncodings(a[i], b[i]):
  // the feature expressions, the ascending-row logit accumulation, and the
  // softmax are op-for-op the same. `scratch` is reused across calls.
  void SimilarityFromEncodingsBatch(const double* const* a,
                                    const double* const* b, int count,
                                    double* out,
                                    EncodingScoreScratch* scratch) const;

  // An upper bound on every M that SimilarityFromEncodingsBatch returns for
  // any column inside a box: kMaxSimilarity for any two encodings, and for
  // the classification head the eq. (8) bound over every b with
  // lo[r] <= b[r] <= hi[r]. Both feature families are monotone in b[r] on
  // either side of the query, so each feature takes the box extreme that
  // the sign of W[:,1] - W[:,0] favours; the bound carries an explicit
  // margin for the rounding of the 2h-term logit sums and of every exp, so
  // it holds for the computed M, bit for bit, not just the real one. The
  // regression head has no box bound and returns kMaxSimilarity.
  double SimilarityUpperBound(const double* query, const double* lo,
                              const double* hi) const;

  // Bounds every M either head computes. A softmax output never rounds
  // above 1; the regression head's rescaled cosine can, by accumulated
  // rounding (~1e-14 relative), so the bound carries a 1e-9 margin.
  static constexpr double kMaxSimilarity = 1.0 + 1e-9;

  // The gradient half of TrainPair: the fused forward of both trees, the
  // head's loss, then the backward, which adds the pair's gradient to every
  // Parameter::grad. Returns the loss. An empty tree returns 0 and a
  // non-finite loss (or the train.loss failpoint) returns before any
  // gradient is written.
  double AccumulateGradients(const ast::BinaryAst& a, const ast::BinaryAst& b,
                             bool homologous);

  // One training step on a labeled pair (homologous: true): the gradients,
  // then AdaGrad and a refresh of the fused weights. Returns the loss; a
  // pair that AccumulateGradients declines leaves the model untouched.
  double TrainPair(const ast::BinaryAst& a, const ast::BinaryAst& b,
                   bool homologous);

  // Checkpoints via store::{Save,Load}ModelCheckpoint: the versioned
  // CRC-checked container format (src/store/checkpoint.h).
  bool Save(const std::string& path) const;
  bool Load(const std::string& path);

  const SiameseConfig& config() const { return config_; }
  std::size_t TotalWeights() const { return store_.TotalWeights(); }
  const nn::ParameterStore& parameters() const { return store_; }

 private:
  // Rebuilds the fused weights after a weight update (optimizer step,
  // checkpoint load).
  void RefreshFused();

  SiameseConfig config_;
  nn::ParameterStore store_;
  TreeLstmEncoder encoder_;
  nn::Parameter* w_out_ = nullptr;  // (2h x 2), classification head only
  nn::AdaGrad optimizer_;
  // Fused copies of encoder_'s weights: Encode's kernel and the training
  // step's forward and backward.
  TreeLstmFastEncoder fast_;
  // Grow-only training scratch: one arena per tree of the pair, then
  // d loss / d encoding for both trees and the classifier's features
  // (4h).
  TreeLstmFastEncoder::TrainArena train_a_;
  TreeLstmFastEncoder::TrainArena train_b_;
  std::vector<double> d_encodings_;
};

}  // namespace asteria::core
