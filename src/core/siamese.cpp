#include "core/siamese.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "store/checkpoint.h"
#include "util/failpoint.h"
#include "util/log.h"
#include "util/metrics.h"

namespace asteria::core {

using nn::Matrix;

namespace {

// Forces a NaN loss on one pair, exercising the numerics guard (sample
// skipped, no weight update, training continues).
util::Failpoint fp_train_loss("train.loss");

// One striped relaxed increment per encode — cheap enough for the fused
// hot path (overhead measured in docs/OBSERVABILITY.md).
util::Counter c_encode_fast("encode.fast");
util::Counter c_encode_tape("encode.tape");
util::Counter c_weight_refresh("encode.weight_refresh");

// The autograd BceLoss clamp and Cosine epsilon (nn/autograd.cpp), which
// the training heads replay.
constexpr double kBceEps = 1e-7;
constexpr double kCosineEps = 1e-12;

// The training heads below compute the loss of one pair and its gradient
// with the arithmetic, in the order, that the autograd backward runs over
// the graph of the same head (tests/train_oracle.cpp): every accumulator
// starts at 0.0 and takes its terms newest graph node first.

// Eq. (8) — softmax(sigmoid(cat(|e1-e2|, e1.e2))^T W) — and BCE against
// the one-hot target. Fills features (2h), d_logits (2) and d loss / d e1,
// e2; W's gradient is features · d_logits^T.
double ClassifierStep(const double* e1, const double* e2, int h,
                      const Matrix& w, bool homologous, double* features,
                      double* d_logits, double* d1, double* d2) {
  for (int r = 0; r < h; ++r) {
    features[r] = 1.0 / (1.0 + std::exp(-std::fabs(e1[r] - e2[r])));
    features[h + r] = 1.0 / (1.0 + std::exp(-(e1[r] * e2[r])));
  }
  double logit[2] = {0.0, 0.0};
  for (int k = 0; k < 2 * h; ++k) {
    logit[0] += w(k, 0) * features[k];
    logit[1] += w(k, 1) * features[k];
  }
  const double max_logit = std::max(logit[0], logit[1]);
  double y[2];
  double denom = 0.0;
  for (int i = 0; i < 2; ++i) {
    y[i] = std::exp(logit[i] - max_logit);
    denom += y[i];
  }
  const double target[2] = {homologous ? 0.0 : 1.0, homologous ? 1.0 : 0.0};
  double loss = 0.0;
  double dy[2];
  for (int i = 0; i < 2; ++i) {
    y[i] /= denom;
    const double p = std::clamp(y[i], kBceEps, 1.0 - kBceEps);
    loss += -(target[i] * std::log(p) + (1.0 - target[i]) * std::log(1.0 - p));
    dy[i] = 0.5 * (-(target[i] / p) + (1.0 - target[i]) / (1.0 - p));
  }
  // Softmax: dx = y . (g - <y, g>).
  double dot = 0.0;
  for (int i = 0; i < 2; ++i) dot += y[i] * dy[i];
  for (int i = 0; i < 2; ++i) d_logits[i] = y[i] * (dy[i] - dot);
  // W · d_logits, then back through the feature sigmoids.
  auto d_feature = [&](int k) {
    const double df = w(k, 0) * d_logits[0] + w(k, 1) * d_logits[1];
    return (df * features[k]) * (1.0 - features[k]);
  };
  for (int r = 0; r < h; ++r) {
    const double d_abs = d_feature(r);
    const double d_prod = d_feature(h + r);
    const double diff = e1[r] - e2[r];
    const double d_diff = diff > 0.0 ? d_abs : diff < 0.0 ? -d_abs : 0.0;
    // The Hadamard e1.e2 is newer than the Sub e1-e2, so it comes first.
    d1[r] = d_prod * e2[r] + d_diff;
    d2[r] = d_prod * e1[r] - d_diff;
  }
  return loss / 2.0;
}

// The regression head's cos(e1, e2) — the autograd Cosine's Dot, AddConst,
// Hadamard, Sqrt and DivElem — and squared error against ±1. Fills d loss
// / d e1, e2.
double CosineStep(const double* e1, const double* e2, int h, bool homologous,
                  double* d1, double* d2) {
  double ab = 0.0, aa = 0.0, bb = 0.0;
  for (int r = 0; r < h; ++r) ab += e1[r] * e2[r];
  for (int r = 0; r < h; ++r) aa += e1[r] * e1[r];
  for (int r = 0; r < h; ++r) bb += e2[r] * e2[r];
  aa += kCosineEps;
  bb += kCosineEps;
  const double norms = std::sqrt(aa * bb);
  const double diff = ab / norms - (homologous ? 1.0 : -1.0);
  const double d_cosine = 2.0 * diff;
  const double d_ab = d_cosine / norms;
  const double d_norms = -(d_cosine * ab / (norms * norms));
  const double d_product = d_norms * 0.5 / (norms > 1e-12 ? norms : 1e-12);
  const double d_aa = d_product * bb;
  const double d_bb = d_product * aa;
  for (int r = 0; r < h; ++r) {
    // Dot(x, x) adds its gradient twice; Dot(e1, e2) is the oldest node.
    d1[r] = (d_aa * e1[r] + d_aa * e1[r]) + d_ab * e2[r];
    d2[r] = (d_bb * e2[r] + d_bb * e2[r]) + d_ab * e1[r];
  }
  return diff * diff;
}

}  // namespace

SiameseModel::SiameseModel(const SiameseConfig& config, util::Rng& rng)
    : config_(config),
      encoder_(config.encoder, &store_, rng),
      optimizer_(config.learning_rate),
      fast_(config.encoder, store_, encoder_.prefix()) {
  if (config_.head == SiameseHead::kClassification) {
    w_out_ = store_.CreateXavier("siamese.W",
                                 2 * config_.encoder.hidden_dim, 2, rng);
  }
}

double SiameseModel::Similarity(const ast::BinaryAst& a,
                                const ast::BinaryAst& b) const {
  if (a.empty() || b.empty()) return 0.0;
  return SimilarityFromEncodings(Encode(a), Encode(b));
}

Matrix SiameseModel::Encode(const ast::BinaryAst& tree) const {
  if (!config_.use_fast_encoder) {
    c_encode_tape.Increment();
    return encoder_.EncodeVector(tree);
  }
  c_encode_fast.Increment();
  return fast_.EncodeVector(tree);
}

void SiameseModel::RefreshFused() {
  fast_.RefreshFrom(store_);
  c_weight_refresh.Increment();
}

double SiameseModel::SimilarityFromEncodings(const Matrix& a,
                                             const Matrix& b) const {
  if (config_.head == SiameseHead::kRegression) {
    const double denom = a.Norm() * b.Norm();
    if (denom < 1e-12) return 0.0;
    return 0.5 * (Dot(a, b) / denom + 1.0);
  }
  // Plain-matrix replay of eq. (8) — this is the 10^-9-second online path.
  const int h = a.rows();
  Matrix features(2 * h, 1);
  for (int r = 0; r < h; ++r) {
    features(r, 0) =
        1.0 / (1.0 + std::exp(-std::fabs(a(r, 0) - b(r, 0))));
    features(h + r, 0) =
        1.0 / (1.0 + std::exp(-(a(r, 0) * b(r, 0))));
  }
  double logit0 = 0.0, logit1 = 0.0;
  const Matrix& w = w_out_->value;
  for (int r = 0; r < 2 * h; ++r) {
    logit0 += w(r, 0) * features(r, 0);
    logit1 += w(r, 1) * features(r, 0);
  }
  const double max_logit = std::max(logit0, logit1);
  const double z0 = std::exp(logit0 - max_logit);
  const double z1 = std::exp(logit1 - max_logit);
  return z1 / (z0 + z1);
}

void SiameseModel::SimilarityFromEncodingsBatch(
    const double* const* a, const double* const* b, int count, double* out,
    EncodingScoreScratch* scratch) const {
  if (count <= 0) return;
  const int h = config_.encoder.hidden_dim;
  if (config_.head == SiameseHead::kRegression) {
    // No GEMM structure here (every pair has its own left operand); the
    // batch interface still amortizes call overhead. The per-pair ops are
    // exactly SimilarityFromEncodings': Norm (ascending sum of squares,
    // then sqrt), Dot (ascending), and the same affine map.
    for (int p = 0; p < count; ++p) {
      const double* x = a[p];
      const double* y = b[p];
      double nx = 0.0, ny = 0.0;
      for (int r = 0; r < h; ++r) nx += x[r] * x[r];
      for (int r = 0; r < h; ++r) ny += y[r] * y[r];
      const double denom = std::sqrt(nx) * std::sqrt(ny);
      if (denom < 1e-12) {
        out[p] = 0.0;
        continue;
      }
      double dot = 0.0;
      for (int r = 0; r < h; ++r) dot += x[r] * y[r];
      out[p] = 0.5 * (dot / denom + 1.0);
    }
    return;
  }
  // Classification head, eq. (8): build the (count x 2h) feature matrix for
  // the whole block — row p = sigmoid(cat(|a_p - b_p|, a_p . b_p)) — then
  // one blocked GemmRaw against W (2h x 2) yields every pair's logits. Each
  // logit accumulates over ascending feature rows from 0.0, the same
  // association as the scalar loop in SimilarityFromEncodings.
  const std::size_t stride = 2 * static_cast<std::size_t>(h);
  scratch->features.resize(static_cast<std::size_t>(count) * stride);
  scratch->logits.resize(static_cast<std::size_t>(count) * 2);
  for (int p = 0; p < count; ++p) {
    const double* x = a[p];
    const double* y = b[p];
    double* f = scratch->features.data() + static_cast<std::size_t>(p) * stride;
    for (int r = 0; r < h; ++r) {
      f[r] = 1.0 / (1.0 + std::exp(-std::fabs(x[r] - y[r])));
      f[h + r] = 1.0 / (1.0 + std::exp(-(x[r] * y[r])));
    }
  }
  const Matrix& w = w_out_->value;  // (2h x 2) row-major
  nn::Matrix::GemmRaw(scratch->features.data(), w.data(),
                      scratch->logits.data(), count, 2 * h, 2);
  for (int p = 0; p < count; ++p) {
    const double logit0 = scratch->logits[static_cast<std::size_t>(p) * 2];
    const double logit1 = scratch->logits[static_cast<std::size_t>(p) * 2 + 1];
    const double max_logit = std::max(logit0, logit1);
    const double z0 = std::exp(logit0 - max_logit);
    const double z1 = std::exp(logit1 - max_logit);
    out[p] = z1 / (z0 + z1);
  }
}

double SiameseModel::SimilarityUpperBound(const double* query,
                                          const double* lo,
                                          const double* hi) const {
  if (config_.head == SiameseHead::kRegression) return kMaxSimilarity;
  // M = softmax(logits)[1] = sigma(l1 - l0), and l1 - l0 = sum_k v_k f_k
  // with v = W[:,1] - W[:,0]. For a box column b, fl(|x - b|) and fl(x * b)
  // are monotone in b (rounding is), so each feature's argument is bounded
  // by its value at lo or hi, computed with the scorer's own expressions.
  const int h = config_.encoder.hidden_dim;
  const Matrix& w = w_out_->value;
  double diff = 0.0, scale = 0.0;
  for (int k = 0; k < 2 * h; ++k) {
    const int r = k < h ? k : k - h;
    const double v = w(k, 1) - w(k, 0);
    double arg;
    if (k < h) {
      const double at_lo = std::fabs(query[r] - lo[r]);
      const double at_hi = std::fabs(query[r] - hi[r]);
      if (v > 0.0) {
        arg = std::max(at_lo, at_hi);
      } else {
        arg = lo[r] <= query[r] && query[r] <= hi[r]
                  ? 0.0
                  : std::min(at_lo, at_hi);
      }
    } else {
      const double at_lo = query[r] * lo[r];
      const double at_hi = query[r] * hi[r];
      arg = v > 0.0 ? std::max(at_lo, at_hi) : std::min(at_lo, at_hi);
    }
    diff += v * (1.0 / (1.0 + std::exp(-arg)));
    scale += std::fabs(w(k, 0)) + std::fabs(w(k, 1)) + std::fabs(v);
  }
  // Rounding margin. The scorer's two logits each sum 2h terms in [0, 1]
  // (error <= 2h ulps of sum |W[:,i]|), its features and this bound's
  // features differ by a few ulps each (exp is not exactly monotone),
  // and this sum and v carry their own 2h ulps: all of it is below
  // (2h + 16) * 2^-52 * scale. Twice that goes on the logit difference;
  // then 1e-12 relative covers sigma's and the softmax's exp, add and
  // divide, and DBL_MIN covers a subnormal M that sigma here rounds to 0.
  const double margin = 2.0 * (2 * h + 16) *
                        std::numeric_limits<double>::epsilon() * scale;
  const double bound = 1.0 / (1.0 + std::exp(-(diff + margin)));
  return bound * (1.0 + 1e-12) + std::numeric_limits<double>::min();
}

double SiameseModel::AccumulateGradients(const ast::BinaryAst& a,
                                         const ast::BinaryAst& b,
                                         bool homologous) {
  if (a.empty() || b.empty()) return 0.0;
  const int h = config_.encoder.hidden_dim;
  const std::size_t hs = static_cast<std::size_t>(h);
  if (d_encodings_.size() < 4 * hs) d_encodings_.resize(4 * hs);
  double* d1 = d_encodings_.data();
  double* d2 = d1 + hs;
  double* features = d2 + hs;  // 2h, classification head only
  double d_logits[2] = {0.0, 0.0};
  const double* e1 = fast_.TrainForward(a, &train_a_);
  const double* e2 = fast_.TrainForward(b, &train_b_);
  double loss = config_.head == SiameseHead::kRegression
                    ? CosineStep(e1, e2, h, homologous, d1, d2)
                    : ClassifierStep(e1, e2, h, w_out_->value, homologous,
                                     features, d_logits, d1, d2);
  if (fp_train_loss.ShouldFail()) {
    loss = std::numeric_limits<double>::quiet_NaN();
  }
  // Numerics guard: a non-finite loss means the gradients are poisoned too.
  // Write none of them — the caller counts the sample and moves on —
  // rather than letting NaN reach every weight.
  if (!std::isfinite(loss)) return loss;
  if (w_out_ != nullptr) {
    for (int k = 0; k < 2 * h; ++k) {
      for (int i = 0; i < 2; ++i) w_out_->grad(k, i) += features[k] * d_logits[i];
    }
  }
  // The autograd backward's order: the head, then tree b (encoded second),
  // then tree a.
  fast_.TrainBackward(b, d2, &train_b_);
  fast_.TrainBackward(a, d1, &train_a_);
  return loss;
}

double SiameseModel::TrainPair(const ast::BinaryAst& a,
                               const ast::BinaryAst& b, bool homologous) {
  if (a.empty() || b.empty()) return 0.0;
  const double loss = AccumulateGradients(a, b, homologous);
  if (!std::isfinite(loss)) return loss;
  optimizer_.Step(store_.parameters());
  RefreshFused();
  return loss;
}

bool SiameseModel::Save(const std::string& path) const {
  std::string error;
  if (!store::SaveModelCheckpoint(store_, path, &error)) {
    ASTERIA_LOG(Error) << "SiameseModel::Save: " << error;
    return false;
  }
  return true;
}

bool SiameseModel::Load(const std::string& path) {
  std::string error;
  if (!store::LoadModelCheckpoint(&store_, path, &error)) {
    ASTERIA_LOG(Error) << "SiameseModel::Load: " << error;
    return false;
  }
  RefreshFused();
  return true;
}

}  // namespace asteria::core
