// Tests for the CSR SparseMatrix, the SpMM kernels, the blocked dense
// matmul kernels (validated against a naive reference), and the ag::SpMM
// autograd op.
#include "tensor/sparse.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "tensor/gradcheck.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace dbg4eth {
namespace {

// Naive triple-loop references the blocked kernels are checked against.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (int k = 0; k < a.cols(); ++k) acc += a.At(i, k) * b.At(k, j);
      out.At(i, j) = acc;
    }
  }
  return out;
}

Matrix SparsifyRandom(Matrix m, double zero_prob, Rng* rng) {
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) {
      if (rng->Bernoulli(zero_prob)) m.At(r, c) = 0.0;
    }
  }
  return m;
}

void ExpectMatrixNear(const Matrix& a, const Matrix& b, double tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      EXPECT_NEAR(a.At(r, c), b.At(r, c), tol)
          << "mismatch at (" << r << ", " << c << ")";
    }
  }
}

// Shapes exercise the 4-wide blocking remainders (dims % 4 in {0,1,2,3}),
// degenerate 1xN / Nx1 operands, and an empty inner dimension.
const std::vector<std::tuple<int, int, int>> kShapes = {
    {4, 4, 4},  {8, 12, 16}, {5, 7, 9},   {6, 3, 10}, {1, 5, 4},
    {5, 4, 1},  {1, 1, 1},   {3, 1, 3},   {2, 9, 2},  {16, 16, 16},
    {7, 13, 5}, {0, 3, 4},   {3, 0, 4},   {3, 4, 0},
};

TEST(BlockedKernelsTest, MatMulMatchesNaiveOnRandomShapes) {
  Rng rng(91);
  for (const auto& [n, k, m] : kShapes) {
    Matrix a = Matrix::Random(n, k, &rng);
    Matrix b = Matrix::Random(k, m, &rng);
    ExpectMatrixNear(MatMul(a, b), NaiveMatMul(a, b), 1e-12);
    // Sparse operand exercises the block-level zero skip.
    Matrix a_sparse = SparsifyRandom(a, 0.7, &rng);
    ExpectMatrixNear(MatMul(a_sparse, b), NaiveMatMul(a_sparse, b), 1e-12);
  }
}

TEST(BlockedKernelsTest, MatMulAccumulateAddsOntoExisting) {
  Rng rng(92);
  Matrix a = Matrix::Random(6, 5, &rng);
  Matrix b = Matrix::Random(5, 7, &rng);
  Matrix out(6, 7, 2.5);
  MatMulAccumulate(a, b, &out);
  Matrix expected = NaiveMatMul(a, b);
  expected.AddInPlace(Matrix(6, 7, 2.5));
  ExpectMatrixNear(out, expected, 1e-12);
}

// MatMulAccumulate's summation-order contract written as a plain loop:
// out[i][j] adds a[i][k] * b[k][j] onto its current value for k
// ascending, skipping a term when every row of i's 4-row block holds 0 at
// k (in a remainder row, when that row holds 0).
Matrix ContractMatMulAccumulate(const Matrix& a, const Matrix& b, Matrix out) {
  const int blocked_rows = a.rows() - a.rows() % 4;
  for (int i = 0; i < a.rows(); ++i) {
    const int first = i < blocked_rows ? i - i % 4 : i;
    const int last = i < blocked_rows ? first + 4 : i + 1;
    for (int j = 0; j < b.cols(); ++j) {
      double acc = out.At(i, j);
      for (int k = 0; k < a.cols(); ++k) {
        bool all_zero = true;
        for (int r = first; r < last; ++r) all_zero &= a.At(r, k) == 0.0;
        if (all_zero) continue;
        acc += a.At(i, k) * b.At(k, j);
      }
      out.At(i, j) = acc;
    }
  }
  return out;
}

void ExpectSameBits(const Matrix& got, const Matrix& want) {
  ASSERT_TRUE(got.SameShape(want));
  for (int r = 0; r < got.rows(); ++r) {
    for (int c = 0; c < got.cols(); ++c) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got.At(r, c)),
                std::bit_cast<uint64_t>(want.At(r, c)))
          << "at (" << r << ", " << c << "): " << got.At(r, c) << " vs "
          << want.At(r, c);
    }
  }
}

// Entries mixing +0, -0 and magnitudes 1e-8, 1 and 1e8 of either sign.
Matrix ContractTestMatrix(int rows, int cols, Rng* rng) {
  static constexpr double kValues[] = {0.0, -0.0, 1e-8, 1.0, 1e8};
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const double v = kValues[rng->UniformInt(5)];
      m.At(r, c) = v * rng->Uniform(0.5, 1.5) * (rng->Bernoulli(0.5) ? 1 : -1);
    }
  }
  return m;
}

TEST(BlockedKernelsTest, MatMulAccumulateFollowsTheSummationOrderContract) {
  // The tape-vs-fast-path tests run one kernel on both sides, so only a
  // reference outside the kernel catches a change in its arithmetic.
  Rng rng(95);
  for (int n = 1; n <= 11; ++n) {      // n % 4 in 0..3, with and without
    for (int m = 1; m <= 11; ++m) {    // full 4-row blocks / 4-column tiles.
      for (int k : {1, 5, 24}) {
        SCOPED_TRACE(testing::Message() << n << "x" << k << " * " << k << "x"
                                        << m);
        Matrix a = ContractTestMatrix(n, k, &rng);
        // Zero whole 4-row blocks at some k (mixing +0 and -0), so the
        // block skip is taken, and one k column everywhere.
        for (int kk = 0; kk < k; ++kk) {
          for (int r0 = 0; r0 < n; r0 += 4) {
            if (kk == k / 2 || rng.Bernoulli(0.3)) {
              for (int r = r0; r < std::min(n, r0 + 4); ++r) {
                a.At(r, kk) = rng.Bernoulli(0.5) ? 0.0 : -0.0;
              }
            }
          }
        }
        Matrix b = ContractTestMatrix(k, m, &rng);
        // Inf and NaN in the b row whose a column is zero everywhere: the
        // skipped terms must not turn the result into NaN.
        b.At(k / 2, 0) = INFINITY;
        b.At(k / 2, m - 1) = std::nan("");
        Matrix nonzero_init = ContractTestMatrix(n, m, &rng);
        Matrix negative_zero_init(n, m, -0.0);
        for (const Matrix* init : {&nonzero_init, &negative_zero_init}) {
          Matrix out = *init;
          MatMulAccumulate(a, b, &out);
          ExpectSameBits(out, ContractMatMulAccumulate(a, b, *init));
          EXPECT_TRUE(out.AllFinite());
        }
      }
    }
  }
}

TEST(BlockedKernelsTest, TransAMatchesNaiveOnRandomShapes) {
  Rng rng(93);
  for (const auto& [n, k, m] : kShapes) {
    Matrix a = Matrix::Random(n, k, &rng);  // a^T is k x n
    Matrix b = Matrix::Random(n, m, &rng);
    ExpectMatrixNear(MatMulTransA(a, b), NaiveMatMul(a.Transposed(), b),
                     1e-12);
    Matrix a_sparse = SparsifyRandom(a, 0.7, &rng);
    ExpectMatrixNear(MatMulTransA(a_sparse, b),
                     NaiveMatMul(a_sparse.Transposed(), b), 1e-12);
  }
}

TEST(BlockedKernelsTest, TransBMatchesNaiveOnRandomShapes) {
  Rng rng(94);
  for (const auto& [n, k, m] : kShapes) {
    Matrix a = Matrix::Random(n, k, &rng);
    Matrix b = Matrix::Random(m, k, &rng);  // b^T is k x m
    ExpectMatrixNear(MatMulTransB(a, b), NaiveMatMul(a, b.Transposed()),
                     1e-12);
  }
}

TEST(SparseMatrixTest, FromDenseRoundTrips) {
  Rng rng(95);
  for (const auto& [n, k, m] : kShapes) {
    (void)m;
    Matrix dense = SparsifyRandom(Matrix::Random(n, k, &rng), 0.6, &rng);
    SparseMatrix sparse = SparseMatrix::FromDense(dense);
    ExpectMatrixNear(sparse.ToDense(), dense, 0.0);
    int nnz = 0;
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < k; ++c) nnz += dense.At(r, c) != 0.0 ? 1 : 0;
    }
    EXPECT_EQ(sparse.nnz(), nnz);
  }
}

TEST(SparseMatrixTest, FromCsrAdoptsTheArrays) {
  // Row 1 is empty; a stored zero stays stored.
  SparseMatrix s = SparseMatrix::FromCsr(3, 4, {0, 1, 1, 3}, {3, 0, 2},
                                         {2.0, -1.0, 0.0});
  EXPECT_EQ(s.rows(), 3);
  EXPECT_EQ(s.cols(), 4);
  EXPECT_EQ(s.nnz(), 3);
  EXPECT_EQ(s.row_offsets(), (std::vector<int>{0, 1, 1, 3}));
  EXPECT_EQ(s.col_indices(), (std::vector<int>{3, 0, 2}));
  EXPECT_EQ(s.values(), (std::vector<double>{2.0, -1.0, 0.0}));
  Matrix dense = s.ToDense();
  EXPECT_DOUBLE_EQ(dense.At(0, 3), 2.0);
  EXPECT_DOUBLE_EQ(dense.At(2, 0), -1.0);
  EXPECT_DOUBLE_EQ(dense.Sum(), 1.0);
}

TEST(SparseMatrixDeathTest, FromCsrRejectsBrokenInvariants) {
  // Columns must ascend strictly within a row.
  EXPECT_DEATH(SparseMatrix::FromCsr(1, 3, {0, 2}, {2, 1}, {1.0, 1.0}),
               "Check failed");
  EXPECT_DEATH(SparseMatrix::FromCsr(1, 3, {0, 2}, {1, 1}, {1.0, 1.0}),
               "Check failed");
  EXPECT_DEATH(SparseMatrix::FromCsr(1, 3, {0, 1}, {3}, {1.0}),
               "Check failed");
  // Offsets need rows + 1 entries, from 0 up to nnz without decreasing.
  EXPECT_DEATH(SparseMatrix::FromCsr(2, 3, {0, 1}, {0}, {1.0}),
               "Check failed");
  EXPECT_DEATH(SparseMatrix::FromCsr(1, 3, {0, 2}, {0}, {1.0}),
               "Check failed");
  EXPECT_DEATH(SparseMatrix::FromCsr(2, 3, {0, 2, 1}, {0}, {1.0}),
               "Check failed");
}

TEST(SparseMatrixTest, EmptyMatrix) {
  SparseMatrix s = SparseMatrix::FromDense(Matrix(0, 0));
  EXPECT_EQ(s.rows(), 0);
  EXPECT_EQ(s.cols(), 0);
  EXPECT_EQ(s.nnz(), 0);
  EXPECT_TRUE(s.ToDense().empty());
}

TEST(SpMMTest, MatchesDenseOnRandomShapes) {
  Rng rng(96);
  for (const auto& [n, k, m] : kShapes) {
    Matrix a = SparsifyRandom(Matrix::Random(n, k, &rng), 0.6, &rng);
    Matrix x = Matrix::Random(k, m, &rng);
    SparseMatrix sa = SparseMatrix::FromDense(a);
    ExpectMatrixNear(SpMM(sa, x), NaiveMatMul(a, x), 1e-12);
    Matrix xt = Matrix::Random(n, m, &rng);
    ExpectMatrixNear(SpMMTransA(sa, xt), NaiveMatMul(a.Transposed(), xt),
                     1e-12);
  }
}

TEST(SpMMTest, AccumulateAddsOntoExisting) {
  Rng rng(97);
  Matrix a = SparsifyRandom(Matrix::Random(5, 6, &rng), 0.5, &rng);
  Matrix x = Matrix::Random(6, 3, &rng);
  SparseMatrix sa = SparseMatrix::FromDense(a);
  Matrix out(5, 3, -1.0);
  SpMMAccumulate(sa, x, &out);
  Matrix expected = NaiveMatMul(a, x);
  expected.AddInPlace(Matrix(5, 3, -1.0));
  ExpectMatrixNear(out, expected, 1e-12);
}

TEST(SpMMOpTest, ForwardAndBackwardMatchDenseMatMul) {
  Rng rng(98);
  Matrix adj = SparsifyRandom(Matrix::Random(6, 6, &rng), 0.5, &rng);
  Matrix x0 = Matrix::Random(6, 4, &rng);
  auto sparse_adj =
      std::make_shared<const SparseMatrix>(SparseMatrix::FromDense(adj));

  ag::Tensor x_sparse = ag::Tensor::Parameter(x0);
  ag::Tensor y_sparse = ag::SumAll(ag::SpMM(sparse_adj, x_sparse));
  y_sparse.Backward();

  ag::Tensor x_dense = ag::Tensor::Parameter(x0);
  ag::Tensor y_dense =
      ag::SumAll(ag::MatMul(ag::Tensor::Constant(adj), x_dense));
  y_dense.Backward();

  EXPECT_NEAR(y_sparse.ScalarValue(), y_dense.ScalarValue(), 1e-12);
  ExpectMatrixNear(x_sparse.grad(), x_dense.grad(), 1e-12);
}

TEST(SpMMOpTest, GradCheck) {
  Rng rng(99);
  Matrix adj = SparsifyRandom(Matrix::Random(5, 5, &rng), 0.5, &rng);
  auto sparse_adj =
      std::make_shared<const SparseMatrix>(SparseMatrix::FromDense(adj));
  ag::Tensor x = ag::Tensor::Parameter(Matrix::Random(5, 3, &rng));
  auto loss_fn = [&]() {
    return ag::MeanAll(ag::Relu(ag::SpMM(sparse_adj, x)));
  };
  const ag::GradCheckResult result = ag::CheckGradients(loss_fn, {x});
  EXPECT_TRUE(result.passed) << "max_abs_error=" << result.max_abs_error;
}

}  // namespace
}  // namespace dbg4eth
