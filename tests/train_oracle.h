// Tape-based reference trainer for core::SiameseModel (test-only).
//
// The autograd training step SiameseModel ran before its fused kernel,
// kept verbatim in arithmetic as the differential oracle of
// tests/train_test.cpp: TreeLstmEncoder::Encode of both trees on one
// nn::Tape, the eq. (8) head with BCE (or the cosine head with squared
// error), Tape::Backward, then AdaGrad. SiameseModel::TrainPair must leave
// bitwise the same weights and return bitwise the same loss. It shares no
// code with the fused path beyond the parameter initialization and the
// optimizer.
#pragma once

#include <cstdint>

#include "core/siamese.h"
#include "nn/autograd.h"

namespace asteria::core::oracle {

class TapeTrainer {
 public:
  // Creates the parameters SiameseModel(config, rng) creates, in the same
  // order from the same draws of `rng`, so both start bitwise equal.
  TapeTrainer(const SiameseConfig& config, util::Rng& rng);

  // Builds the tape and runs Tape::Backward, adding the pair's gradient to
  // every Parameter::grad; returns the loss. An empty tree returns 0 and a
  // non-finite loss returns before the backward.
  double AccumulateGradients(const ast::BinaryAst& a, const ast::BinaryAst& b,
                             bool homologous);

  // AccumulateGradients, then one AdaGrad step when the loss is finite.
  double TrainPair(const ast::BinaryAst& a, const ast::BinaryAst& b,
                   bool homologous);

  const nn::ParameterStore& parameters() const { return store_; }
  std::uint32_t WeightsFingerprint() const;

 private:
  nn::Var Head(nn::Tape* tape, nn::Var e1, nn::Var e2) const;

  SiameseConfig config_;
  nn::ParameterStore store_;
  TreeLstmEncoder encoder_;
  nn::Parameter* w_out_ = nullptr;  // (2h x 2), classification head only
  nn::AdaGrad optimizer_;
  nn::Tape tape_;
};

}  // namespace asteria::core::oracle
