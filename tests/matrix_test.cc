#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/matrix.h"

namespace dbg4eth {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 0.0);
  m.At(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
}

// The sanitizer presets define DBG4ETH_DEBUG_CHECKS in an NDEBUG build;
// the bounds check must still fire there.
TEST(MatrixDeathTest, DebugBoundsCheckCatchesAnIndexInsideTheAllocation) {
#ifndef DBG4ETH_DEBUG_CHECKS
  GTEST_SKIP() << "bounds checks compile in only with -DDBG4ETH_DEBUG_CHECKS";
#else
  // Threadsafe style re-executes the binary for the child, so it also
  // runs under ThreadSanitizer.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Matrix m(2, 2);
  // (0, 3) is element 3 of the 4-double allocation: ASan cannot see it.
  EXPECT_DEATH((void)m.At(0, 3), "bounds check failed: .*c < cols_");
#endif
}

TEST(MatrixTest, FactoryHelpers) {
  EXPECT_DOUBLE_EQ(Matrix::Ones(2, 2).Sum(), 4.0);
  Matrix id = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(id.Sum(), 3.0);
  EXPECT_DOUBLE_EQ(id.At(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(id.At(0, 1), 0.0);
  Matrix col = Matrix::ColumnVector({1, 2, 3});
  EXPECT_EQ(col.rows(), 3);
  EXPECT_EQ(col.cols(), 1);
  Matrix row = Matrix::RowVector({1, 2});
  EXPECT_EQ(row.rows(), 1);
  EXPECT_EQ(row.cols(), 2);
}

TEST(MatrixTest, FromFlatRowMajor) {
  Matrix m = Matrix::FromFlat(2, 2, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(m.At(0, 0), 1);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 2);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 3);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 4);
}

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a = Matrix::FromFlat(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b = Matrix::FromFlat(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c.At(0, 0), 58);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 64);
  EXPECT_DOUBLE_EQ(c.At(1, 0), 139);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 154);
}

TEST(MatrixTest, MatMulIdentity) {
  Rng rng(1);
  Matrix a = Matrix::Random(4, 4, &rng);
  EXPECT_TRUE(AlmostEqual(MatMul(a, Matrix::Identity(4)), a));
  EXPECT_TRUE(AlmostEqual(MatMul(Matrix::Identity(4), a), a));
}

TEST(MatrixTest, TransposedVariantsMatch) {
  Rng rng(2);
  Matrix a = Matrix::Random(3, 5, &rng);
  Matrix b = Matrix::Random(3, 4, &rng);
  EXPECT_TRUE(AlmostEqual(MatMulTransA(a, b), MatMul(a.Transposed(), b)));
  Matrix c = Matrix::Random(6, 5, &rng);
  EXPECT_TRUE(AlmostEqual(MatMulTransB(a, c), MatMul(a, c.Transposed())));
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a = Matrix::FromFlat(2, 2, {1, 2, 3, 4});
  Matrix b = Matrix::FromFlat(2, 2, {5, 6, 7, 8});
  EXPECT_TRUE(AlmostEqual(Add(a, b), Matrix::FromFlat(2, 2, {6, 8, 10, 12})));
  EXPECT_TRUE(AlmostEqual(Sub(b, a), Matrix::FromFlat(2, 2, {4, 4, 4, 4})));
  EXPECT_TRUE(AlmostEqual(Mul(a, b), Matrix::FromFlat(2, 2, {5, 12, 21, 32})));
  EXPECT_TRUE(AlmostEqual(Scale(a, 2), Matrix::FromFlat(2, 2, {2, 4, 6, 8})));
}

TEST(MatrixTest, SliceAndGatherRows) {
  Matrix m = Matrix::FromFlat(3, 2, {1, 2, 3, 4, 5, 6});
  Matrix s = m.SliceRows(1, 3);
  EXPECT_EQ(s.rows(), 2);
  EXPECT_DOUBLE_EQ(s.At(0, 0), 3);
  Matrix g = m.GatherRows({2, 0});
  EXPECT_DOUBLE_EQ(g.At(0, 0), 5);
  EXPECT_DOUBLE_EQ(g.At(1, 1), 2);
}

TEST(MatrixTest, ConcatColsRows) {
  Matrix a = Matrix::FromFlat(2, 1, {1, 2});
  Matrix b = Matrix::FromFlat(2, 2, {3, 4, 5, 6});
  Matrix cc = ConcatCols(a, b);
  EXPECT_EQ(cc.cols(), 3);
  EXPECT_DOUBLE_EQ(cc.At(1, 2), 6);
  Matrix cr = ConcatRows(b, Matrix::FromFlat(1, 2, {9, 9}));
  EXPECT_EQ(cr.rows(), 3);
  EXPECT_DOUBLE_EQ(cr.At(2, 1), 9);
}

TEST(MatrixTest, Reductions) {
  Matrix m = Matrix::FromFlat(2, 2, {3, -4, 0, 0});
  EXPECT_DOUBLE_EQ(m.Sum(), -1);
  EXPECT_DOUBLE_EQ(m.Norm(), 5);
  EXPECT_DOUBLE_EQ(m.MaxAbs(), 4);
}

TEST(MatrixTest, AllFinite) {
  Matrix m(1, 2);
  EXPECT_TRUE(m.AllFinite());
  m.At(0, 1) = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(m.AllFinite());
  m.At(0, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(m.AllFinite());
}

TEST(MatrixTest, AlmostEqualShapesAndTolerance) {
  Matrix a = Matrix::Ones(2, 2);
  Matrix b = Matrix::Ones(2, 3);
  EXPECT_FALSE(AlmostEqual(a, b));
  Matrix c = Matrix::Ones(2, 2);
  c.At(0, 0) += 1e-12;
  EXPECT_TRUE(AlmostEqual(a, c));
  c.At(0, 0) += 1.0;
  EXPECT_FALSE(AlmostEqual(a, c));
}

TEST(MatrixTest, TransposeRoundTrip) {
  Rng rng(3);
  Matrix a = Matrix::Random(3, 7, &rng);
  EXPECT_TRUE(AlmostEqual(a.Transposed().Transposed(), a));
}

TEST(MatrixTest, RandomRange) {
  Rng rng(4);
  Matrix m = Matrix::Random(10, 10, &rng, -0.5, 0.5);
  EXPECT_LE(m.MaxAbs(), 0.5);
}

}  // namespace
}  // namespace dbg4eth
