#include "train_oracle.h"

#include <cmath>

#include "store/checkpoint.h"

namespace asteria::core::oracle {

using nn::Matrix;
using nn::Tape;
using nn::Var;

TapeTrainer::TapeTrainer(const SiameseConfig& config, util::Rng& rng)
    : config_(config),
      encoder_(config.encoder, &store_, rng),
      optimizer_(config.learning_rate) {
  if (config_.head == SiameseHead::kClassification) {
    w_out_ = store_.CreateXavier("siamese.W",
                                 2 * config_.encoder.hidden_dim, 2, rng);
  }
}

std::uint32_t TapeTrainer::WeightsFingerprint() const {
  return store::WeightsFingerprint(store_);
}

Var TapeTrainer::Head(Tape* tape, Var e1, Var e2) const {
  if (config_.head == SiameseHead::kRegression) {
    return tape->Cosine(e1, e2);
  }
  // eq. (8): softmax(sigmoid(cat(|e1-e2|, e1.e2))^T W)
  const Var diff = tape->Abs(tape->Sub(e1, e2));
  const Var prod = tape->Hadamard(e1, e2);
  const Var features = tape->Sigmoid(tape->ConcatRows(diff, prod));
  const Var logits = tape->MatMulTransA(tape->Param(w_out_), features);
  return tape->Softmax(logits);  // [dissimilarity, similarity]
}

double TapeTrainer::AccumulateGradients(const ast::BinaryAst& a,
                                        const ast::BinaryAst& b,
                                        bool homologous) {
  if (a.empty() || b.empty()) return 0.0;
  Tape& tape = tape_;
  tape.Clear();
  const Var e1 = encoder_.Encode(&tape, a);
  const Var e2 = encoder_.Encode(&tape, b);
  const Var out = Head(&tape, e1, e2);
  Var loss;
  if (config_.head == SiameseHead::kRegression) {
    loss = tape.SquaredErrorToConst(out, homologous ? 1.0 : -1.0);
  } else {
    Matrix target(2, 1);
    target(0, 0) = homologous ? 0.0 : 1.0;
    target(1, 0) = homologous ? 1.0 : 0.0;
    loss = tape.BceLoss(out, target);
  }
  const double loss_value = tape.value(loss)(0, 0);
  if (!std::isfinite(loss_value)) return loss_value;
  tape.Backward(loss);
  return loss_value;
}

double TapeTrainer::TrainPair(const ast::BinaryAst& a,
                              const ast::BinaryAst& b, bool homologous) {
  if (a.empty() || b.empty()) return 0.0;
  const double loss = AccumulateGradients(a, b, homologous);
  if (!std::isfinite(loss)) return loss;
  optimizer_.Step(store_.parameters());
  return loss;
}

}  // namespace asteria::core::oracle
