// Gemini baseline: structure2vec graph embedding over ACFGs (Xu et al.,
// CCS 2017), the paper's main comparison target.
//
// Embedding network (T iterations):
//   mu_v^0 = 0
//   mu_v^{t+1} = tanh( W1 x_v + sigma( sum_{u in N(v)} mu_u^t ) )
//   sigma(l) = P1 relu(P2 l)        (two-level perceptron)
//   mu_g = W2 * sum_v mu_v^T
// Trained as a siamese network on cosine similarity with labels +1/-1 and
// squared-error loss, exactly as in the original.
#pragma once

#include "cfg/acfg.h"
#include "nn/autograd.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace asteria::baselines {

struct GeminiConfig {
  int embedding_dim = 64;  // p
  int iterations = 5;      // T
  double learning_rate = 0.01;
};

class GeminiModel {
 public:
  GeminiModel(const GeminiConfig& config, util::Rng& rng);

  // Graph embedding as a tape Var (p x 1) — training path.
  nn::Var EmbedGraph(nn::Tape* tape, const cfg::Acfg& graph) const;

  // Inference-only embedding ("G-EN" of Fig. 10(b)).
  nn::Matrix Encode(const cfg::Acfg& graph) const;

  // cos(Encode(a), Encode(b)) without a tape — online phase.
  static double CosineSimilarity(const nn::Matrix& a, const nn::Matrix& b);

  // Full-pipeline similarity.
  double Similarity(const cfg::Acfg& a, const cfg::Acfg& b) const;

  // One SGD-on-(cos - label)^2 step (label is +1 or -1); returns the loss.
  double TrainPair(const cfg::Acfg& a, const cfg::Acfg& b, int label);

  const GeminiConfig& config() const { return config_; }

 private:
  GeminiConfig config_;
  nn::ParameterStore store_;
  nn::Parameter* w1_;  // p x d
  nn::Parameter* p1_;  // p x p
  nn::Parameter* p2_;  // p x p
  nn::Parameter* w2_;  // p x p
  nn::AdaGrad optimizer_;
};

}  // namespace asteria::baselines
