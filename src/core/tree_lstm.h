// Binary Tree-LSTM AST encoder — equations (1)-(7) of the paper.
//
// Nodes are embedded via an nn.Embedding-equivalent lookup table (labels
// from Table I), then encoded bottom-up:
//   f_kl = sig(Wf e + Ufll h_l + Uflr h_r + bf)       (1)
//   f_kr = sig(Wf e + Ufrl h_l + Ufrr h_r + bf)       (2)
//   i_k  = sig(Wi e + Uil h_l + Uir h_r + bi)         (3)
//   o_k  = sig(Wo e + Uol h_l + Uor h_r + bo)         (4)
//   u_k  = tanh(Wu e + Uul h_l + Uur h_r + bu)        (5)
//   c_k  = i . u + c_l . f_kl + c_r . f_kr            (6)
//   h_k  = o . tanh(c_k)                              (7)
// The root's hidden state is the AST encoding. Missing children use the
// leaf initialization (zeros by default; ones for the Fig. 9 ablation).
//
// This tape-based encoder creates the parameters and is the reference
// path: gradient checks, SiameseConfig::use_fast_encoder = false, and the
// test-only training oracle (tests/train_oracle.h). Encoding and training
// both run core::TreeLstmFastEncoder (tree_lstm_fast.h), a fused kernel
// whose encodings, gradients and weights are required to stay bitwise
// identical to this path's (docs/PERFORMANCE.md).
#pragma once

#include <string>

#include "ast/lcrs.h"
#include "nn/autograd.h"
#include "util/rng.h"

namespace asteria::core {

struct TreeLstmConfig {
  int embedding_dim = 16;  // paper default (Fig. 8 sweeps 8..128)
  int hidden_dim = 16;
  bool leaf_init_ones = false;  // Fig. 9 "Leaf-1" ablation
  // §VII future-work extension: add a second embedding for constant/string
  // payload buckets (ast::BinaryNode::payload_bucket) to the node embedding.
  bool embed_payloads = false;
};

class TreeLstmEncoder {
 public:
  // Creates parameters inside `store` with the given name prefix.
  TreeLstmEncoder(const TreeLstmConfig& config, nn::ParameterStore* store,
                  util::Rng& rng, const std::string& prefix = "treelstm");

  // Encodes a binarized AST; returns the root hidden state (h x 1).
  nn::Var Encode(nn::Tape* tape, const ast::BinaryAst& tree) const;

  // Inference-only encoding (no gradients kept).
  nn::Matrix EncodeVector(const ast::BinaryAst& tree) const;

  const TreeLstmConfig& config() const { return config_; }
  // Parameter-name prefix inside the store (TreeLstmFastEncoder looks the
  // same parameters up by name to build its fused copies).
  const std::string& prefix() const { return prefix_; }

 private:
  struct Gate {
    nn::Parameter* w;   // h x e
    nn::Parameter* ul;  // h x h
    nn::Parameter* ur;  // h x h
    nn::Parameter* b;   // h x 1
  };

  TreeLstmConfig config_;
  std::string prefix_;
  nn::Parameter* embedding_;          // vocab x e
  nn::Parameter* payload_embedding_ = nullptr;  // kPayloadVocab x e (optional)
  // Forget gate has four U matrices (ll, lr, rl, rr) and shared W/b.
  nn::Parameter* wf_;
  nn::Parameter* ufll_;
  nn::Parameter* uflr_;
  nn::Parameter* ufrl_;
  nn::Parameter* ufrr_;
  nn::Parameter* bf_;
  Gate input_;
  Gate output_;
  Gate cached_;  // u_k
};

}  // namespace asteria::core
