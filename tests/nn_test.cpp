// nn tests: matrix kernels, autograd gradient checks against central finite
// differences (every op + composite graphs), optimizers, parameter store.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>

#include "nn/autograd.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace asteria::nn {
namespace {

TEST(Matrix, MatMulSmall) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58);
  EXPECT_DOUBLE_EQ(c(0, 1), 64);
  EXPECT_DOUBLE_EQ(c(1, 0), 139);
  EXPECT_DOUBLE_EQ(c(1, 1), 154);
}

TEST(Matrix, TransposedProducts) {
  Matrix a(3, 2, {1, 2, 3, 4, 5, 6});
  Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  // a^T b == (2x3)(3x2)
  Matrix atb = MatMulTransA(a, b);
  EXPECT_DOUBLE_EQ(atb(0, 0), 1 * 7 + 3 * 9 + 5 * 11);
  // a b^T == (3x2)(2x3)
  Matrix abt = MatMulTransB(a, b);
  EXPECT_DOUBLE_EQ(abt(0, 0), 1 * 7 + 2 * 8);
}

// ---- gradient checking machinery ----------------------------------------

// Builds a loss from `params` through `graph`, then checks every analytic
// gradient against central finite differences.
void GradCheck(std::vector<Parameter*> params,
               const std::function<Var(Tape&)>& graph, double tol = 1e-6) {
  Tape tape;
  const Var loss = graph(tape);
  ASSERT_EQ(tape.value(loss).size(), 1u);
  for (Parameter* p : params) p->ZeroGrad();
  tape.Backward(loss);
  const double eps = 1e-5;
  for (Parameter* p : params) {
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      const double saved = p->value[i];
      p->value[i] = saved + eps;
      Tape t1;
      const double up = t1.value(graph(t1))(0, 0);
      p->value[i] = saved - eps;
      Tape t2;
      const double down = t2.value(graph(t2))(0, 0);
      p->value[i] = saved;
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(p->grad[i], numeric, tol)
          << p->name << "[" << i << "]";
    }
  }
}

Matrix RandomMatrix(int rows, int cols, util::Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m[i] = rng.NextDouble(-1, 1);
  return m;
}

TEST(Autograd, GradMatMulChain) {
  util::Rng rng(1);
  ParameterStore store;
  Parameter* w = store.CreateXavier("w", 4, 3, rng);
  Parameter* b = store.CreateXavier("b", 4, 1, rng);
  const Matrix x = RandomMatrix(3, 1, rng);
  GradCheck({w, b}, [&](Tape& t) {
    Var out = t.Add(t.MatMul(t.Param(w), t.Leaf(x)), t.Param(b));
    return t.Sum(t.Square(out));
  });
}

TEST(Autograd, GradActivations) {
  util::Rng rng(2);
  ParameterStore store;
  Parameter* w = store.CreateXavier("w", 5, 1, rng);
  GradCheck({w}, [&](Tape& t) {
    Var v = t.Param(w);
    Var out = t.Add(t.Sigmoid(v), t.Add(t.Tanh(v), t.Relu(v)));
    return t.Sum(out);
  }, 1e-5);
}

TEST(Autograd, GradAbsHadamardConcat) {
  util::Rng rng(3);
  ParameterStore store;
  Parameter* a = store.CreateXavier("a", 4, 1, rng);
  Parameter* b = store.CreateXavier("b", 4, 1, rng);
  GradCheck({a, b}, [&](Tape& t) {
    Var va = t.Param(a);
    Var vb = t.Param(b);
    Var cat = t.ConcatRows(t.Abs(t.Sub(va, vb)), t.Hadamard(va, vb));
    return t.Sum(t.Square(cat));
  });
}

TEST(Autograd, GradSoftmaxBce) {
  util::Rng rng(4);
  ParameterStore store;
  Parameter* w = store.CreateXavier("w", 3, 1, rng);
  Matrix target(3, 1);
  target(1, 0) = 1.0;
  GradCheck({w}, [&](Tape& t) {
    return t.BceLoss(t.Softmax(t.Param(w)), target);
  });
}

TEST(Autograd, GradCosineAndMse) {
  util::Rng rng(5);
  ParameterStore store;
  Parameter* a = store.CreateXavier("a", 6, 1, rng);
  Parameter* b = store.CreateXavier("b", 6, 1, rng);
  GradCheck({a, b}, [&](Tape& t) {
    return t.SquaredErrorToConst(t.Cosine(t.Param(a), t.Param(b)), 1.0);
  }, 1e-5);
}

TEST(Autograd, GradMatMulTransA) {
  util::Rng rng(6);
  ParameterStore store;
  Parameter* w = store.CreateXavier("w", 4, 2, rng);
  Parameter* v = store.CreateXavier("v", 4, 1, rng);
  GradCheck({w, v}, [&](Tape& t) {
    return t.Sum(t.Square(t.MatMulTransA(t.Param(w), t.Param(v))));
  });
}

TEST(Autograd, GradEmbeddingRows) {
  util::Rng rng(7);
  ParameterStore store;
  Parameter* table = store.CreateXavier("emb", 5, 3, rng);
  GradCheck({table}, [&](Tape& t) {
    Var r1 = t.EmbeddingRow(table, 1);
    Var r4 = t.EmbeddingRow(table, 4);
    Var r1b = t.EmbeddingRow(table, 1);  // repeated row accumulates
    return t.Sum(t.Square(t.Add(r1, t.Hadamard(r4, r1b))));
  });
}

TEST(Autograd, GradDivSqrtScale) {
  util::Rng rng(8);
  ParameterStore store;
  Parameter* a = store.CreateXavier("a", 3, 1, rng);
  for (std::size_t i = 0; i < a->value.size(); ++i) {
    a->value[i] = 0.5 + std::fabs(a->value[i]);  // keep positive
  }
  Parameter* b = store.CreateXavier("b", 3, 1, rng);
  for (std::size_t i = 0; i < b->value.size(); ++i) {
    b->value[i] = 1.0 + std::fabs(b->value[i]);
  }
  GradCheck({a, b}, [&](Tape& t) {
    Var q = t.DivElem(t.Sqrt(t.Param(a)), t.Param(b));
    return t.Sum(t.Scale(t.AddConst(q, 0.5), 2.0));
  }, 1e-5);
}

TEST(Autograd, BackwardRequiresScalar) {
  Tape tape;
  Var v = tape.Leaf(Matrix(3, 1));
  EXPECT_THROW(tape.Backward(v), std::logic_error);
}

TEST(Optimizer, AdaGradDecreasesQuadratic) {
  ParameterStore store;
  Parameter* w = store.Create("w", 1, 1);
  w->value(0, 0) = 5.0;
  AdaGrad optimizer(0.5);
  double prev = 25.0;
  for (int i = 0; i < 50; ++i) {
    Tape tape;
    Var loss = tape.Square(tape.Param(w));
    tape.Backward(loss);
    optimizer.Step(store.parameters());
    const double now = w->value(0, 0) * w->value(0, 0);
    EXPECT_LE(now, prev + 1e-12);
    prev = now;
  }
  EXPECT_LT(std::fabs(w->value(0, 0)), 1.0);
}

TEST(Optimizer, SgdWithClipping) {
  ParameterStore store;
  Parameter* w = store.Create("w", 1, 1);
  w->value(0, 0) = 100.0;
  Sgd optimizer(0.1, /*clip=*/1.0);
  Tape tape;
  Var loss = tape.Square(tape.Param(w));  // grad = 200
  tape.Backward(loss);
  optimizer.Step(store.parameters());
  // Clipped to 1.0 -> step of 0.1.
  EXPECT_NEAR(w->value(0, 0), 99.9, 1e-9);
}

TEST(ParameterStore, RejectsDuplicateNames) {
  ParameterStore store;
  store.Create("x", 1, 1);
  EXPECT_THROW(store.Create("x", 2, 2), std::invalid_argument);
}

}  // namespace
}  // namespace asteria::nn
