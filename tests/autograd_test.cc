#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/rng.h"
#include "tensor/gradcheck.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"

namespace dbg4eth {
namespace ag {
namespace {

Tensor RandomParam(int r, int c, Rng* rng) {
  return Tensor::Parameter(Matrix::Random(r, c, rng, -1.0, 1.0));
}

TEST(TensorTest, LeafProperties) {
  Tensor t = Tensor::Parameter(Matrix::Ones(2, 2));
  EXPECT_TRUE(t.defined());
  EXPECT_TRUE(t.requires_grad());
  EXPECT_EQ(t.rows(), 2);
  Tensor c = Tensor::Constant(Matrix::Ones(1, 1));
  EXPECT_FALSE(c.requires_grad());
}

TEST(TensorTest, BackwardThroughSum) {
  Tensor x = Tensor::Parameter(Matrix::FromFlat(2, 2, {1, 2, 3, 4}));
  Tensor loss = SumAll(x);
  loss.Backward();
  EXPECT_TRUE(AlmostEqual(x.grad(), Matrix::Ones(2, 2)));
}

TEST(TensorTest, GradsAccumulateAcrossBackward) {
  Tensor x = Tensor::Parameter(Matrix::Ones(1, 1));
  SumAll(x).Backward();
  SumAll(x).Backward();
  EXPECT_DOUBLE_EQ(x.grad().At(0, 0), 2.0);
  x.ZeroGrad();
  EXPECT_DOUBLE_EQ(x.grad().At(0, 0), 0.0);
}

TEST(TensorTest, DiamondGraphAccumulates) {
  // loss = sum(x + x) => dx = 2.
  Tensor x = Tensor::Parameter(Matrix::Ones(2, 2));
  Tensor loss = SumAll(Add(x, x));
  loss.Backward();
  EXPECT_TRUE(AlmostEqual(x.grad(), Matrix(2, 2, 2.0)));
}

TEST(TensorTest, ScalarValue) {
  Tensor t = Tensor::Constant(Matrix::FromFlat(1, 1, {3.5}));
  EXPECT_DOUBLE_EQ(t.ScalarValue(), 3.5);
}

// --- Gradient checks for every op ---

TEST(GradCheckTest, MatMul) {
  Rng rng(1);
  Tensor a = RandomParam(3, 4, &rng);
  Tensor b = RandomParam(4, 2, &rng);
  auto loss = [&] { return SumAll(Tanh(MatMul(a, b))); };
  auto res = CheckGradients(loss, {a, b});
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(GradCheckTest, AddSubMul) {
  Rng rng(2);
  Tensor a = RandomParam(2, 3, &rng);
  Tensor b = RandomParam(2, 3, &rng);
  auto loss = [&] {
    return SumAll(Mul(Sub(Add(a, b), Mul(a, b)), Add(a, a)));
  };
  auto res = CheckGradients(loss, {a, b});
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(GradCheckTest, ScalarOps) {
  Rng rng(3);
  Tensor a = RandomParam(2, 2, &rng);
  auto loss = [&] { return SumAll(ScalarAdd(ScalarMul(a, 2.5), -0.5)); };
  auto res = CheckGradients(loss, {a});
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(GradCheckTest, AddRowBroadcast) {
  Rng rng(4);
  Tensor a = RandomParam(3, 4, &rng);
  Tensor bias = RandomParam(1, 4, &rng);
  auto loss = [&] { return SumAll(Tanh(AddRowBroadcast(a, bias))); };
  auto res = CheckGradients(loss, {a, bias});
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(GradCheckTest, BroadcastRow) {
  Rng rng(5);
  Tensor row = RandomParam(1, 3, &rng);
  auto loss = [&] { return SumAll(Tanh(BroadcastRow(row, 4))); };
  auto res = CheckGradients(loss, {row});
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(GradCheckTest, PairwiseSum) {
  Rng rng(6);
  Tensor u = RandomParam(3, 1, &rng);
  Tensor v = RandomParam(4, 1, &rng);
  auto loss = [&] { return SumAll(Sigmoid(PairwiseSum(u, v))); };
  auto res = CheckGradients(loss, {u, v});
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(GradCheckTest, ConcatColsRows) {
  Rng rng(7);
  Tensor a = RandomParam(2, 3, &rng);
  Tensor b = RandomParam(2, 2, &rng);
  Tensor c = RandomParam(1, 5, &rng);
  auto loss = [&] {
    return SumAll(Tanh(ConcatRows(ConcatCols(a, b), c)));
  };
  auto res = CheckGradients(loss, {a, b, c});
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(GradCheckTest, ConcatRowsList) {
  Rng rng(8);
  Tensor a = RandomParam(1, 3, &rng);
  Tensor b = RandomParam(2, 3, &rng);
  Tensor c = RandomParam(1, 3, &rng);
  auto loss = [&] { return SumAll(Sigmoid(ConcatRowsList({a, b, c}))); };
  auto res = CheckGradients(loss, {a, b, c});
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(GradCheckTest, SliceRowsAndTranspose) {
  Rng rng(9);
  Tensor a = RandomParam(4, 3, &rng);
  auto loss = [&] {
    return SumAll(Tanh(Transpose(SliceRows(a, 1, 3))));
  };
  auto res = CheckGradients(loss, {a});
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(GradCheckTest, Activations) {
  Rng rng(10);
  Tensor a = RandomParam(3, 3, &rng);
  for (auto fn : {+[](const Tensor& t) { return Relu(t); },
                  +[](const Tensor& t) { return LeakyRelu(t, 0.2); },
                  +[](const Tensor& t) { return Elu(t, 1.0); },
                  +[](const Tensor& t) { return Tanh(t); },
                  +[](const Tensor& t) { return Sigmoid(t); }}) {
    auto loss = [&] { return SumAll(fn(a)); };
    auto res = CheckGradients(loss, {a}, 1e-6, 1e-3);
    EXPECT_TRUE(res.passed) << res.max_rel_error;
  }
}

TEST(GradCheckTest, SoftmaxRows) {
  Rng rng(12);
  Tensor a = RandomParam(3, 4, &rng);
  Tensor w = RandomParam(3, 4, &rng);
  auto loss = [&] { return SumAll(Mul(SoftmaxRows(a), w)); };
  auto res = CheckGradients(loss, {a, w});
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(GradCheckTest, MaskedSoftmaxRows) {
  Rng rng(13);
  Tensor a = RandomParam(3, 3, &rng);
  Tensor w = RandomParam(3, 3, &rng);
  auto support = std::make_shared<const SparseMatrix>(SparseMatrix::FromDense(
      Matrix::FromFlat(3, 3, {1, 1, 0, 0, 1, 1, 0, 0, 0})));
  auto loss = [&] { return SumAll(Mul(MaskedSoftmaxRows(a, support), w)); };
  auto res = CheckGradients(loss, {a, w});
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(OpsTest, MaskedSoftmaxZeroRowStaysZero) {
  Tensor a = Tensor::Constant(Matrix::Ones(2, 2));
  auto support = std::make_shared<const SparseMatrix>(
      SparseMatrix::FromCsr(2, 2, {0, 2, 2}, {0, 1}, {1.0, 1.0}));
  Tensor out = MaskedSoftmaxRows(a, support);
  EXPECT_DOUBLE_EQ(out.value().At(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(out.value().At(1, 1), 0.0);
  EXPECT_NEAR(out.value().At(0, 0), 0.5, 1e-12);
}

TEST(GradCheckTest, SoftmaxColVector) {
  Rng rng(14);
  Tensor a = RandomParam(5, 1, &rng);
  Tensor w = RandomParam(5, 1, &rng);
  auto loss = [&] { return SumAll(Mul(SoftmaxColVector(a), w)); };
  auto res = CheckGradients(loss, {a, w});
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(GradCheckTest, Reductions) {
  Rng rng(15);
  Tensor a = RandomParam(4, 3, &rng);
  for (auto fn : {+[](const Tensor& t) { return MeanPoolRows(t); },
                  +[](const Tensor& t) { return MaxPoolRows(t); }}) {
    auto loss = [&] { return SumAll(Tanh(fn(a))); };
    auto res = CheckGradients(loss, {a});
    EXPECT_TRUE(res.passed) << res.max_rel_error;
  }
}

TEST(GradCheckTest, MeanAll) {
  Rng rng(16);
  Tensor a = RandomParam(3, 3, &rng);
  auto loss = [&] { return MeanAll(Mul(a, a)); };
  auto res = CheckGradients(loss, {a});
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(GradCheckTest, L2NormalizeRows) {
  Rng rng(17);
  Tensor a = RandomParam(3, 4, &rng);
  Tensor w = RandomParam(3, 4, &rng);
  auto loss = [&] { return SumAll(Mul(L2NormalizeRows(a), w)); };
  auto res = CheckGradients(loss, {a, w});
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(OpsTest, L2NormalizeRowsUnitNorm) {
  Rng rng(18);
  Tensor a = Tensor::Constant(Matrix::Random(5, 8, &rng));
  Matrix out = L2NormalizeRows(a).value();
  for (int r = 0; r < out.rows(); ++r) {
    double norm = 0;
    for (int c = 0; c < out.cols(); ++c) norm += out.At(r, c) * out.At(r, c);
    EXPECT_NEAR(norm, 1.0, 1e-9);
  }
}

TEST(GradCheckTest, SoftmaxCrossEntropy) {
  Rng rng(19);
  Tensor logits = RandomParam(4, 3, &rng);
  std::vector<int> labels = {0, 2, 1, 2};
  auto loss = [&] { return SoftmaxCrossEntropy(logits, labels); };
  auto res = CheckGradients(loss, {logits});
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(OpsTest, DropoutTrainingAndEval) {
  Rng rng(22);
  Tensor a = Tensor::Parameter(Matrix::Ones(10, 10));
  Tensor eval_out = Dropout(a, 0.5, &rng, /*training=*/false);
  EXPECT_TRUE(AlmostEqual(eval_out.value(), a.value()));
  Tensor train_out = Dropout(a, 0.5, &rng, /*training=*/true);
  int zeros = 0;
  for (int r = 0; r < 10; ++r) {
    for (int c = 0; c < 10; ++c) {
      const double v = train_out.value().At(r, c);
      EXPECT_TRUE(v == 0.0 || std::fabs(v - 2.0) < 1e-12);
      if (v == 0.0) ++zeros;
    }
  }
  EXPECT_GT(zeros, 20);
  EXPECT_LT(zeros, 80);
}

TEST(OpsTest, SoftmaxCrossEntropyMatchesManual) {
  Tensor logits = Tensor::Constant(Matrix::FromFlat(1, 2, {0.0, 0.0}));
  Tensor loss = SoftmaxCrossEntropy(logits, {1});
  EXPECT_NEAR(loss.ScalarValue(), std::log(2.0), 1e-9);
}

// --- Optimizers ---

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  Tensor x = Tensor::Parameter(Matrix::FromFlat(1, 2, {5.0, -5.0}));
  Adam opt({x}, 0.1);
  for (int i = 0; i < 500; ++i) {
    opt.ZeroGrad();
    Tensor loss = SumAll(Mul(x, x));
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(x.value().MaxAbs(), 0.0, 1e-3);
}

TEST(OptimizerTest, ClipGradNorm) {
  Tensor x = Tensor::Parameter(Matrix::FromFlat(1, 2, {3.0, 4.0}));
  Adam opt({x}, 1.0);
  opt.ZeroGrad();
  SumAll(Mul(x, x)).Backward();  // grad = (6, 8), norm 10
  opt.ClipGradNorm(1.0);
  EXPECT_NEAR(x.grad().Norm(), 1.0, 1e-9);
}

TEST(OptimizerTest, WeightDecayShrinks) {
  Tensor x = Tensor::Parameter(Matrix::FromFlat(1, 1, {1.0}));
  Adam opt({x}, 0.1, 0.9, 0.999, 1e-8, /*weight_decay=*/0.5);
  opt.ZeroGrad();
  // Zero loss gradient: only decay acts. Adam's bias-corrected first step
  // moves a lone gradient by lr (up to eps), whatever its size.
  SumAll(ScalarMul(x, 0.0)).Backward();
  opt.Step();
  EXPECT_NEAR(x.value().At(0, 0), 1.0 - 0.1, 1e-7);
}

TEST(InitTest, XavierBounds) {
  Rng rng(30);
  Matrix w = XavierUniform(100, 100, &rng);
  const double bound = std::sqrt(6.0 / 200.0);
  EXPECT_LE(w.MaxAbs(), bound);
  EXPECT_GT(w.MaxAbs(), bound * 0.5);
}

}  // namespace
}  // namespace ag
}  // namespace dbg4eth
