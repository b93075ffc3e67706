#include "core/tree_lstm_fast.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "ast/node_kind.h"

namespace asteria::core {

using ast::BinaryAst;
using ast::kInvalidNode;
using ast::NodeId;
using nn::Matrix;

namespace {

// Per-thread scratch arena. One arena serves every encoder on the thread:
// the vectors are grown (never shrunk) at the start of each call, so after
// the largest tree has been seen an encode performs no heap allocation
// beyond the post-order index vector.
struct Scratch {
  std::vector<double> h;      // n x hidden, node hidden states
  std::vector<double> c;      // n x hidden, node cell states
  std::vector<double> leaf;   // hidden, the missing-child initialization
  std::vector<double> ul;     // 5h, UL_all · h_left
  std::vector<double> ur;     // 5h, UR_all · h_right
  std::vector<double> wx;     // 4h, W_all · e for payload nodes
  std::vector<double> e;      // embedding_dim, label + payload embedding
  std::vector<double> gates;  // 5h, activated gate values
};

Scratch& LocalScratch() {
  static thread_local Scratch scratch;
  return scratch;
}

void Grow(std::vector<double>* v, std::size_t n) {
  if (v->size() < n) v->resize(n);
}

// Where each named parameter sits in the fused stacks. RefreshFrom copies
// values along this table; TrainBackward adds gradients back along it.
// `block` counts h-row blocks: W in order f, i, o, u; UL/UR in gate order
// fl, fr, i, o, u; biases in order f, i, o, u (b_all_ repeats bf).
enum Stack { kStackW, kStackUL, kStackUR, kStackB };
struct FusedBlock {
  const char* name;
  Stack stack;
  int block;
};
constexpr FusedBlock kFusedBlocks[] = {
    {"Wf", kStackW, 0},    {"Wi", kStackW, 1},    {"Wo", kStackW, 2},
    {"Wu", kStackW, 3},    {"Ufll", kStackUL, 0}, {"Ufrl", kStackUL, 1},
    {"Uil", kStackUL, 2},  {"Uol", kStackUL, 3},  {"Uul", kStackUL, 4},
    {"Uflr", kStackUR, 0}, {"Ufrr", kStackUR, 1}, {"Uir", kStackUR, 2},
    {"Uor", kStackUR, 3},  {"Uur", kStackUR, 4},  {"bf", kStackB, 0},
    {"bi", kStackB, 1},    {"bo", kStackB, 2},    {"bu", kStackB, 3},
};
constexpr std::size_t kNumFusedBlocks = std::size(kFusedBlocks);
// params_ indices after the fused blocks.
constexpr std::size_t kEmbeddingParam = kNumFusedBlocks;
constexpr std::size_t kPayloadParam = kNumFusedBlocks + 1;

// Rows of a node's dz column: the five gates, then f = fr + fl.
constexpr int kDzForget = 5;

// Gradient of a node input shared by several gates, in Tape::Backward's
// order: Encode builds the gates fl, fr, i, o, u, so their products reach
// the input in reverse, u first. Pairs of (h-row block of the U or W stack,
// block of the node's dz). Wf·e is one shared product whose gradient is
// f = fr + fl.
constexpr int kUGradOrder[5][2] = {{4, 4}, {3, 3}, {2, 2}, {1, 1}, {0, 0}};
constexpr int kWGradOrder[4][2] = {{3, 4}, {2, 3}, {1, 2}, {0, kDzForget}};

// Copies `src` into rows [row_offset, row_offset + src.rows()) of `dst`.
void CopyBlock(Matrix* dst, int row_offset, const Matrix& src) {
  for (int r = 0; r < src.rows(); ++r) {
    for (int c = 0; c < src.cols(); ++c) {
      (*dst)(row_offset + r, c) = src(r, c);
    }
  }
}

double SigmoidScalar(double x) { return 1.0 / (1.0 + std::exp(-x)); }

// Eqs. (1)-(7) for one node once its three input projections are known:
// the five gate activations into `gates`, then c and h. The association
// order is the tape path's: act((W·e + (UL·hl + UR·hr)) + b), then
// c = i.u + (c_l.f_l + c_r.f_r) and h = o . tanh(c). Training keeps
// tanh(c) too.
template <bool kKeepTanh>
inline void NodeCell(int h, const double* wx, const double* ul,
                     const double* ur, const double* b_all, const double* cl,
                     const double* cr, double* gates, double* ck,
                     double* tanh_ck, double* hk) {
  const std::size_t hs = static_cast<std::size_t>(h);
  // Offset of each gate's rows inside the 4h-tall W stack (forget gates
  // share the Wf block).
  static constexpr int kWxBlock[5] = {0, 0, 1, 2, 3};
  for (int gate = 0; gate < 5; ++gate) {
    const double* wrow = wx + static_cast<std::size_t>(kWxBlock[gate]) * hs;
    const double* ulg = ul + static_cast<std::size_t>(gate) * hs;
    const double* urg = ur + static_cast<std::size_t>(gate) * hs;
    const double* b = b_all + static_cast<std::size_t>(gate) * hs;
    double* out = gates + static_cast<std::size_t>(gate) * hs;
    if (gate == 4) {  // u, eq. (5)
      for (int r = 0; r < h; ++r) {
        out[r] = std::tanh((wrow[r] + (ulg[r] + urg[r])) + b[r]);
      }
    } else {
      for (int r = 0; r < h; ++r) {
        out[r] = SigmoidScalar((wrow[r] + (ulg[r] + urg[r])) + b[r]);
      }
    }
  }
  const double* fl = gates;
  const double* fr = gates + hs;
  const double* gi = gates + 2 * hs;
  const double* go = gates + 3 * hs;
  const double* gu = gates + 4 * hs;
  for (int r = 0; r < h; ++r) {
    const double c = gi[r] * gu[r] + (cl[r] * fl[r] + cr[r] * fr[r]);
    ck[r] = c;
    const double t = std::tanh(c);
    if constexpr (kKeepTanh) tanh_ck[r] = t;
    hk[r] = go[r] * t;
  }
}

// out = Σ A_gᵀ·z_g over the (stack block, dz block) pairs in `order`. Each
// product is its own chain over ascending rows from 0.0 (nn::MatMulTransA),
// and whole products are added into out from 0.0 (the tape's AddInPlace of
// each MatMul's input gradient). Outputs are blocked four at a time (four
// independent chains, as Matrix::Gemv blocks rows); the order within each
// chain is unchanged.
void SumTransposedProducts(const Matrix& stack, int h, const int (*order)[2],
                           int count, const double* node_dz, double* out) {
  const int cols = stack.cols();
  const std::size_t hs = static_cast<std::size_t>(h);
  const std::size_t stride = static_cast<std::size_t>(cols);
  auto block_of = [&](int j) {
    return stack.data() + static_cast<std::size_t>(order[j][0]) * hs * stride;
  };
  auto dz_of = [&](int j) {
    return node_dz + static_cast<std::size_t>(order[j][1]) * hs;
  };
  int i = 0;
  for (; i + 4 <= cols; i += 4) {
    double o0 = 0.0, o1 = 0.0, o2 = 0.0, o3 = 0.0;
    for (int j = 0; j < count; ++j) {
      const double* a = block_of(j) + i;
      const double* z = dz_of(j);
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (std::size_t k = 0; k < hs; ++k) {
        const double zk = z[k];
        const double* row = a + k * stride;
        s0 += row[0] * zk;
        s1 += row[1] * zk;
        s2 += row[2] * zk;
        s3 += row[3] * zk;
      }
      o0 += s0;
      o1 += s1;
      o2 += s2;
      o3 += s3;
    }
    out[i] = o0;
    out[i + 1] = o1;
    out[i + 2] = o2;
    out[i + 3] = o3;
  }
  for (; i < cols; ++i) {
    double o = 0.0;
    for (int j = 0; j < count; ++j) {
      const double* a = block_of(j) + i;
      const double* z = dz_of(j);
      double sum = 0.0;
      for (std::size_t k = 0; k < hs; ++k) sum += a[k * stride] * z[k];
      o += sum;
    }
    out[i] = o;
  }
}

// Fills arena->order with the reverse of BinaryAst::PostOrder() — its
// stack walk (node, then right subtree, then left) before the final
// reverse — reusing the arena's capacity.
void ReversePostOrder(const BinaryAst& tree,
                      TreeLstmFastEncoder::TrainArena* arena) {
  arena->order.clear();
  arena->stack.clear();
  arena->stack.push_back(tree.root());
  while (!arena->stack.empty()) {
    const NodeId id = arena->stack.back();
    arena->stack.pop_back();
    arena->order.push_back(id);
    const ast::BinaryNode& node = tree.node(id);
    if (node.left != kInvalidNode) arena->stack.push_back(node.left);
    if (node.right != kInvalidNode) arena->stack.push_back(node.right);
  }
}

}  // namespace

TreeLstmFastEncoder::TreeLstmFastEncoder(const TreeLstmConfig& config,
                                         const nn::ParameterStore& store,
                                         const std::string& prefix)
    : config_(config), prefix_(prefix) {
  const int e = config_.embedding_dim;
  const int h = config_.hidden_dim;
  w_all_ = Matrix(4 * h, e);
  ul_all_ = Matrix(5 * h, h);
  ur_all_ = Matrix(5 * h, h);
  b_all_.resize(5 * static_cast<std::size_t>(h));
  RefreshFrom(store);
}

void TreeLstmFastEncoder::RefreshFrom(const nn::ParameterStore& store) {
  const int e = config_.embedding_dim;
  const int h = config_.hidden_dim;
  auto find = [&](const std::string& name, int rows, int cols) {
    nn::Parameter* param = store.Find(prefix_ + "." + name);
    if (param == nullptr) {
      throw std::runtime_error("TreeLstmFastEncoder: parameter '" + prefix_ +
                               "." + name + "' not found in store");
    }
    if (param->value.rows() != rows || param->value.cols() != cols) {
      throw std::runtime_error(
          "TreeLstmFastEncoder: parameter '" + prefix_ + "." + name +
          "' has shape " + std::to_string(param->value.rows()) + "x" +
          std::to_string(param->value.cols()) + ", expected " +
          std::to_string(rows) + "x" + std::to_string(cols));
    }
    return param;
  };

  params_.clear();
  for (const FusedBlock& block : kFusedBlocks) {
    const int cols = block.stack == kStackW ? e : block.stack == kStackB ? 1 : h;
    nn::Parameter* param = find(block.name, h, cols);
    params_.push_back(param);
    const Matrix& value = param->value;
    switch (block.stack) {
      case kStackW: CopyBlock(&w_all_, block.block * h, value); break;
      case kStackUL: CopyBlock(&ul_all_, block.block * h, value); break;
      case kStackUR: CopyBlock(&ur_all_, block.block * h, value); break;
      case kStackB:
        // b_all_ is [bf; bf; bi; bo; bu]: both forget gates share bf.
        for (int r = 0; r < h; ++r) {
          b_all_[static_cast<std::size_t>((block.block + 1) * h + r)] = value(r, 0);
          if (block.block == 0) b_all_[static_cast<std::size_t>(r)] = value(r, 0);
        }
        break;
    }
  }

  const int vocab = ast::kMaxNodeLabel + 1;
  params_.push_back(find("embedding", vocab, e));
  embedding_ = params_[kEmbeddingParam]->value;
  if (config_.embed_payloads) {
    params_.push_back(find("payload_embedding", ast::kPayloadVocab, e));
    payload_embedding_ = params_[kPayloadParam]->value;
  } else {
    payload_embedding_ = Matrix();
  }

  // Per-label input projections: wx_table_[label] = W_all · embedding[label].
  // Gemv accumulates each row in the same order as the tape path's
  // MatMul(W, EmbeddingRow(label)), so the table entries are bitwise what
  // the tape computes per node.
  wx_table_.resize(static_cast<std::size_t>(vocab) *
                   static_cast<std::size_t>(4 * h));
  for (int label = 0; label < vocab; ++label) {
    w_all_.Gemv(embedding_.data() + static_cast<std::size_t>(label) *
                                        static_cast<std::size_t>(e),
                wx_table_.data() +
                    static_cast<std::size_t>(label) * static_cast<std::size_t>(4 * h));
  }
}

const double* TreeLstmFastEncoder::InputProjection(const ast::BinaryNode& node,
                                                   double* e, double* wx,
                                                   bool keep_e) const {
  const std::size_t es = static_cast<std::size_t>(config_.embedding_dim);
  const double* emb = embedding_.data() + static_cast<std::size_t>(node.label) * es;
  if (config_.embed_payloads && node.payload_bucket != 0) {
    const double* pay = payload_embedding_.data() +
                        static_cast<std::size_t>(node.payload_bucket) * es;
    for (std::size_t k = 0; k < es; ++k) e[k] = emb[k] + pay[k];
    w_all_.Gemv(e, wx);
    return wx;
  }
  if (keep_e) std::copy(emb, emb + es, e);
  return wx_table_.data() + static_cast<std::size_t>(node.label) *
                                static_cast<std::size_t>(4 * config_.hidden_dim);
}

Matrix TreeLstmFastEncoder::EncodeVector(const BinaryAst& tree) const {
  const int h = config_.hidden_dim;
  if (tree.empty()) return Matrix(h, 1);
  const int e_dim = config_.embedding_dim;
  const std::size_t n = static_cast<std::size_t>(tree.size());
  const std::size_t hs = static_cast<std::size_t>(h);

  Scratch& s = LocalScratch();
  Grow(&s.h, n * hs);
  Grow(&s.c, n * hs);
  Grow(&s.ul, 5 * hs);
  Grow(&s.ur, 5 * hs);
  Grow(&s.wx, 4 * hs);
  Grow(&s.e, static_cast<std::size_t>(e_dim));
  Grow(&s.gates, 5 * hs);
  // Leaf initialization (Fig. 9: zeros vs ones) for both h and c.
  s.leaf.assign(hs, config_.leaf_init_ones ? 1.0 : 0.0);

  for (NodeId id : tree.PostOrder()) {
    const ast::BinaryNode& node = tree.node(id);
    const double* hl = node.left != kInvalidNode
                           ? s.h.data() + static_cast<std::size_t>(node.left) * hs
                           : s.leaf.data();
    const double* cl = node.left != kInvalidNode
                           ? s.c.data() + static_cast<std::size_t>(node.left) * hs
                           : s.leaf.data();
    const double* hr = node.right != kInvalidNode
                           ? s.h.data() + static_cast<std::size_t>(node.right) * hs
                           : s.leaf.data();
    const double* cr = node.right != kInvalidNode
                           ? s.c.data() + static_cast<std::size_t>(node.right) * hs
                           : s.leaf.data();

    const double* wx = InputProjection(node, s.e.data(), s.wx.data(), false);
    // The two fused GEMVs covering all ten U applications of eqs. (1)-(5).
    ul_all_.Gemv(hl, s.ul.data());
    ur_all_.Gemv(hr, s.ur.data());
    NodeCell<false>(h, wx, s.ul.data(), s.ur.data(), b_all_.data(), cl, cr,
                    s.gates.data(), s.c.data() + static_cast<std::size_t>(id) * hs,
                    nullptr, s.h.data() + static_cast<std::size_t>(id) * hs);
  }

  Matrix out(h, 1);
  const double* root = s.h.data() + static_cast<std::size_t>(tree.root()) * hs;
  for (int r = 0; r < h; ++r) out(r, 0) = root[r];
  return out;
}

const double* TreeLstmFastEncoder::TrainForward(const BinaryAst& tree,
                                                TrainArena* arena) const {
  TrainArena& a = *arena;
  const int h = config_.hidden_dim;
  const std::size_t hs = static_cast<std::size_t>(h);
  const std::size_t es = static_cast<std::size_t>(config_.embedding_dim);
  const std::size_t ids = static_cast<std::size_t>(tree.size());
  ReversePostOrder(tree, &a);
  const std::size_t n = a.order.size();

  Grow(&a.gates, ids * 5 * hs);
  for (std::vector<double>* v : {&a.c, &a.tanh_c, &a.h, &a.dh, &a.dc}) {
    Grow(v, ids * hs);
  }
  Grow(&a.x, n * es);
  Grow(&a.hl, n * hs);
  Grow(&a.hr, n * hs);
  Grow(&a.dz, 6 * hs * n);
  Grow(&a.wx, 4 * hs);
  Grow(&a.ul, 5 * hs);
  Grow(&a.ur, 5 * hs);
  Grow(&a.node_dz, 6 * hs);
  Grow(&a.de, es);
  Grow(&a.dw, 4 * hs * es);
  Grow(&a.dul, 5 * hs * hs);
  Grow(&a.dur, 5 * hs * hs);
  Grow(&a.db, 4 * hs);
  a.leaf.assign(hs, config_.leaf_init_ones ? 1.0 : 0.0);

  // Post-order: positions n-1 down to 0. Row p of x/hl/hr belongs to the
  // node at position p, so the backward's GEMMs run over nodes in its own
  // visiting order.
  for (std::size_t p = n; p-- > 0;) {
    const NodeId id = a.order[p];
    const ast::BinaryNode& node = tree.node(id);
    const bool has_left = node.left != kInvalidNode;
    const bool has_right = node.right != kInvalidNode;
    const std::size_t left = has_left ? static_cast<std::size_t>(node.left) * hs : 0;
    const std::size_t right = has_right ? static_cast<std::size_t>(node.right) * hs : 0;
    double* hl = a.hl.data() + p * hs;
    double* hr = a.hr.data() + p * hs;
    const double* src_hl = has_left ? a.h.data() + left : a.leaf.data();
    const double* src_hr = has_right ? a.h.data() + right : a.leaf.data();
    std::copy(src_hl, src_hl + hs, hl);
    std::copy(src_hr, src_hr + hs, hr);
    const double* cl = has_left ? a.c.data() + left : a.leaf.data();
    const double* cr = has_right ? a.c.data() + right : a.leaf.data();

    const double* wx = InputProjection(node, a.x.data() + p * es, a.wx.data(), true);
    ul_all_.Gemv(hl, a.ul.data());
    ur_all_.Gemv(hr, a.ur.data());
    const std::size_t at = static_cast<std::size_t>(id) * hs;
    NodeCell<true>(h, wx, a.ul.data(), a.ur.data(), b_all_.data(), cl, cr,
                   a.gates.data() + 5 * at, a.c.data() + at,
                   a.tanh_c.data() + at, a.h.data() + at);
  }
  return a.h.data() + static_cast<std::size_t>(tree.root()) * hs;
}

void TreeLstmFastEncoder::TrainBackward(const BinaryAst& tree,
                                        const double* d_root,
                                        TrainArena* arena) {
  TrainArena& a = *arena;
  const int h = config_.hidden_dim;
  const int e_dim = config_.embedding_dim;
  const std::size_t hs = static_cast<std::size_t>(h);
  const std::size_t es = static_cast<std::size_t>(e_dim);
  const std::size_t n = a.order.size();
  const std::size_t root = static_cast<std::size_t>(tree.root());
  std::copy(d_root, d_root + hs, a.dh.data() + root * hs);
  std::fill(a.dc.data() + root * hs, a.dc.data() + (root + 1) * hs, 0.0);
  std::fill(a.db.begin(), a.db.begin() + static_cast<std::ptrdiff_t>(4 * hs), 0.0);
  Matrix& embedding_grad = params_[kEmbeddingParam]->grad;
  double* z = a.node_dz.data();

  // Reverse post-order — Tape::Backward's visiting order. Each node's dh
  // and dc are complete here: its parent (its only consumer) came first.
  for (std::size_t p = 0; p < n; ++p) {
    const NodeId id = a.order[p];
    const ast::BinaryNode& node = tree.node(id);
    const std::size_t at = static_cast<std::size_t>(id) * hs;
    const bool has_left = node.left != kInvalidNode;
    const bool has_right = node.right != kInvalidNode;
    const std::size_t left = has_left ? static_cast<std::size_t>(node.left) * hs : 0;
    const std::size_t right = has_right ? static_cast<std::size_t>(node.right) * hs : 0;
    const double* fl = a.gates.data() + 5 * at;
    const double* fr = fl + hs;
    const double* gi = fl + 2 * hs;
    const double* go = fl + 3 * hs;
    const double* gu = fl + 4 * hs;
    const double* tc = a.tanh_c.data() + at;
    const double* dh = a.dh.data() + at;
    const double* dcp = a.dc.data() + at;
    const double* cl = has_left ? a.c.data() + left : a.leaf.data();
    const double* cr = has_right ? a.c.data() + right : a.leaf.data();
    double* db = a.db.data();
    for (int r = 0; r < h; ++r) {
      // (7) h = o . tanh(c); (6) c = i.u + (c_l.f_l + c_r.f_r). c's
      // gradient is the parent's share plus tanh's.
      const double t = tc[r];
      const double d_o = dh[r] * t;
      const double d_t = dh[r] * go[r];
      const double dc = dcp[r] + d_t * (1.0 - t * t);
      // (1)-(5) back through the activations: sigmoid y' = y(1-y),
      // tanh y' = 1-y^2.
      const double z_fl = ((dc * cl[r]) * fl[r]) * (1.0 - fl[r]);
      const double z_fr = ((dc * cr[r]) * fr[r]) * (1.0 - fr[r]);
      const double z_i = ((dc * gu[r]) * gi[r]) * (1.0 - gi[r]);
      const double z_o = (d_o * go[r]) * (1.0 - go[r]);
      const double z_u = (dc * gi[r]) * (1.0 - gu[r] * gu[r]);
      if (has_left) a.dc[left + static_cast<std::size_t>(r)] = dc * fl[r];
      if (has_right) a.dc[right + static_cast<std::size_t>(r)] = dc * fr[r];
      z[r] = z_fl;
      z[hs + r] = z_fr;
      z[2 * hs + r] = z_i;
      z[3 * hs + r] = z_o;
      z[4 * hs + r] = z_u;
      z[kDzForget * hs + r] = z_fr + z_fl;
      // The fr gate's Add node is newer than fl's, so bf takes dz_fr first.
      db[r] = (db[r] + z_fr) + z_fl;
      db[hs + r] += z_i;
      db[2 * hs + r] += z_o;
      db[3 * hs + r] += z_u;
    }
    for (std::size_t row = 0; row < 6 * hs; ++row) a.dz[row * n + p] = z[row];

    if (has_left) {
      SumTransposedProducts(ul_all_, h, kUGradOrder, 5, z, a.dh.data() + left);
    }
    if (has_right) {
      SumTransposedProducts(ur_all_, h, kUGradOrder, 5, z, a.dh.data() + right);
    }
    // The input e: its row gradients go straight into the tables, payload
    // first (its EmbeddingRow is the newer tape node).
    SumTransposedProducts(w_all_, h, kWGradOrder, 4, z, a.de.data());
    if (config_.embed_payloads && node.payload_bucket != 0) {
      Matrix& payload_grad = params_[kPayloadParam]->grad;
      for (int k = 0; k < e_dim; ++k) {
        payload_grad(node.payload_bucket, k) += a.de[static_cast<std::size_t>(k)];
      }
    }
    for (int k = 0; k < e_dim; ++k) {
      embedding_grad(node.label, k) += a.de[static_cast<std::size_t>(k)];
    }
  }

  // Per-tree parameter gradients: the tape sums each parameter bind over
  // the nodes in visiting order, one product per node — GemmRaw's
  // ascending-k chain with k = position. W takes two calls because its
  // rows f, i, o, u are not contiguous in dz.
  const int ni = static_cast<int>(n);
  Matrix::GemmRaw(a.dz.data(), a.hl.data(), a.dul.data(), 5 * h, ni, h);
  Matrix::GemmRaw(a.dz.data(), a.hr.data(), a.dur.data(), 5 * h, ni, h);
  Matrix::GemmRaw(a.dz.data() + kDzForget * hs * n, a.x.data(), a.dw.data(),
                  h, ni, e_dim);
  Matrix::GemmRaw(a.dz.data() + 2 * hs * n, a.x.data(), a.dw.data() + hs * es,
                  3 * h, ni, e_dim);

  // Flush the tree's binds, as Tape::Backward does when it reaches them.
  for (std::size_t i = 0; i < kNumFusedBlocks; ++i) {
    const FusedBlock& block = kFusedBlocks[i];
    const double* src = nullptr;
    std::size_t size = hs * hs;
    switch (block.stack) {
      case kStackW: src = a.dw.data(); size = hs * es; break;
      case kStackUL: src = a.dul.data(); break;
      case kStackUR: src = a.dur.data(); break;
      case kStackB: src = a.db.data(); size = hs; break;
    }
    src += static_cast<std::size_t>(block.block) * size;
    Matrix& grad = params_[i]->grad;
    for (std::size_t j = 0; j < size; ++j) grad[j] += src[j];
  }
}

}  // namespace asteria::core
