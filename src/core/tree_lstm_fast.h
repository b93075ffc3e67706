// Fused tape-free kernel for the Binary Tree-LSTM: the inference forward
// and the training forward + backward.
//
// TreeLstmEncoder::Encode runs the forward pass through a full reverse-mode
// autograd Tape: per node it heap-allocates ~42 tape entries (value +
// gradient matrices + std::function backward closures) and issues ~14 small
// MatMuls. Every similarity query, every firmware index build (§V-E,
// Fig. 10) and every training step (§IV-A) would pay that cost, so both
// paths get a dedicated lean kernel, the same training/inference split
// Gemini uses for embedding-based search.
//
// What the fast encoder does differently:
//  * Tape-free: post-order evaluation into grow-only arenas sized by the
//    tree — zero per-node heap allocation.
//  * Fused weights: {Wf, Wi, Wo, Wu} are stacked into one (4h x e) matrix
//    and the ten U matrices into two (5h x h) matrices (gate row order
//    fl, fr, i, o, u), so a node's forward costs at most three Matrix::Gemv
//    calls instead of ~14 small MatMuls.
//  * Precomputed input projections: W_all · embedding[label] for the whole
//    node-label vocabulary (a few KB), eliminating the W GEMV outright for
//    nodes without a payload bucket.
//
// Bitwise contract: EncodeVector's embeddings are bit-for-bit identical to
// TreeLstmEncoder::EncodeVector. Every fused row accumulates in the same
// ascending-k order as the tape path's per-gate MatMul (Matrix::Gemv
// guarantees this), and the gate/cell/hidden arithmetic reuses the tape
// path's exact association order; tests/fast_encoder_test.cpp enforces it.
// The training pair (TrainForward/TrainBackward) adds to Parameter::grad
// exactly the bits Tape::Backward adds over TreeLstmEncoder::Encode: it
// replays the tape's accumulation order (docs/PERFORMANCE.md "The training
// path"); tests/train_test.cpp enforces it against the tape oracle.
//
// The fused copies go stale when the parameters change (a training step or
// a checkpoint load): call RefreshFrom(store) again. SiameseModel does so
// after every optimizer step and every Load.
#pragma once

#include <string>
#include <vector>

#include "ast/lcrs.h"
#include "core/tree_lstm.h"
#include "nn/matrix.h"
#include "nn/parameter.h"

namespace asteria::core {

class TreeLstmFastEncoder {
 public:
  // Grow-only training arena for one tree of a pair: TrainForward fills the
  // activations, TrainBackward the gradients. Vectors are never shrunk, so
  // once the largest tree has been seen a step allocates nothing here.
  struct TrainArena {
    std::vector<ast::NodeId> order;  // reverse post-order: the root first
    std::vector<ast::NodeId> stack;  // traversal scratch
    // Per node, at node id x width:
    std::vector<double> gates;   // 5h: fl, fr, i, o, u activations
    std::vector<double> c;       // h: cell state, eq. (6)
    std::vector<double> tanh_c;  // h: tanh(c), eq. (7)
    std::vector<double> h;       // h: hidden state, eq. (7)
    std::vector<double> dh;      // h: d loss / d h, written by the parent
    std::vector<double> dc;      // h: the parent's share of d loss / d c
    // Per position p in `order` (row p of a gradient GEMM's right operand):
    std::vector<double> x;   // e: the node input (embedding [+ payload])
    std::vector<double> hl;  // h: left child's h (leaf init if missing)
    std::vector<double> hr;  // h: right child's h (leaf init if missing)
    // 6h x n, column p: d loss / d gate pre-activation, rows fl, fr, i, o,
    // u, then f = fr + fl (the gradient of the shared Wf·e).
    std::vector<double> dz;
    // Per-node scratch.
    std::vector<double> leaf;     // h: missing-child initialization
    std::vector<double> wx;       // 4h: W_all · e for payload nodes
    std::vector<double> ul;       // 5h: UL_all · h_left
    std::vector<double> ur;       // 5h: UR_all · h_right
    std::vector<double> node_dz;  // 6h: this node's column of dz
    std::vector<double> de;       // e: d loss / d node input
    // The tree's gradient in the fused layout.
    std::vector<double> dw;   // 4h x e: Wf, Wi, Wo, Wu
    std::vector<double> dul;  // 5h x h: Ufll, Ufrl, Uil, Uol, Uul
    std::vector<double> dur;  // 5h x h: Uflr, Ufrr, Uir, Uor, Uur
    std::vector<double> db;   // 4h: bf, bi, bo, bu
  };

  // Builds the fused weight copies from the named parameters that a
  // TreeLstmEncoder with the same config/prefix created in `store`. Throws
  // std::runtime_error if a parameter is missing or has the wrong shape.
  explicit TreeLstmFastEncoder(const TreeLstmConfig& config,
                               const nn::ParameterStore& store,
                               const std::string& prefix = "treelstm");

  // Rebuilds the fused matrices and the per-label projection table from the
  // store's current parameter values, and remembers those parameters as the
  // ones TrainBackward adds gradients to. Must be called after every weight
  // update (training step, checkpoint load) before the next forward.
  void RefreshFrom(const nn::ParameterStore& store);

  // Encodes a binarized AST; returns the root hidden state (h x 1).
  // Bitwise identical to TreeLstmEncoder::EncodeVector. Thread-safe: safe
  // to call concurrently from many threads (per-thread scratch arenas).
  nn::Matrix EncodeVector(const ast::BinaryAst& tree) const;

  // Training forward of a non-empty tree: EncodeVector's arithmetic, with
  // every node's activations kept in `arena`. Returns the root's h
  // (hidden_dim doubles inside the arena).
  const double* TrainForward(const ast::BinaryAst& tree,
                             TrainArena* arena) const;

  // Backward of eqs. (1)-(7) for the tree `arena` last ran TrainForward on,
  // given d loss / d root h (hidden_dim doubles). Adds each node's
  // embedding (and payload) row gradient straight into Parameter::grad as
  // the walk reaches it, then the tree's W/U/b gradients — three GEMMs over
  // the nodes — into the named parameters RefreshFrom last read. The
  // arithmetic and its order are Tape::Backward's over
  // TreeLstmEncoder::Encode of the same tree.
  void TrainBackward(const ast::BinaryAst& tree, const double* d_root,
                     TrainArena* arena);

  const TreeLstmConfig& config() const { return config_; }

 private:
  // W_all · e for one node: its row of the label table, unless the node
  // carries a payload bucket — then e = emb[label] + pay[bucket] is summed
  // into `e` and projected by one Gemv into `wx` (projecting the two halves
  // separately would change the tape path's per-row summation order).
  // `keep_e` also copies a plain node's embedding row into `e`.
  const double* InputProjection(const ast::BinaryNode& node, double* e,
                                double* wx, bool keep_e) const;

  TreeLstmConfig config_;
  std::string prefix_;

  nn::Matrix w_all_;   // 4h x e: [Wf; Wi; Wo; Wu]
  nn::Matrix ul_all_;  // 5h x h: [Ufll; Ufrl; Uil; Uol; Uul]
  nn::Matrix ur_all_;  // 5h x h: [Uflr; Ufrr; Uir; Uor; Uur]
  std::vector<double> b_all_;  // 5h: [bf; bf; bi; bo; bu]

  // wx_table_[label * 4h ..] = W_all · embedding[label], one entry per
  // vocabulary label; nodes without payload read it instead of a GEMV.
  std::vector<double> wx_table_;

  // Raw embedding copies for the payload path (e = emb[label] + pay[bucket]
  // cannot be split across two precomputed projections without changing the
  // tape path's summation order).
  nn::Matrix embedding_;          // vocab x e
  nn::Matrix payload_embedding_;  // kPayloadVocab x e (empty if payloads off)

  // The store's parameters behind the fused copies, in kFusedBlocks order
  // (tree_lstm_fast.cpp), then the embedding and payload tables; the
  // gradient targets of TrainBackward.
  std::vector<nn::Parameter*> params_;
};

}  // namespace asteria::core
