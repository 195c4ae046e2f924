#include "tensor/matrix.h"

#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace dbg4eth {

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m.At(i, i) = 1.0;
  return m;
}

Matrix Matrix::FromFlat(int rows, int cols, std::vector<double> values) {
  DBG4ETH_CHECK_EQ(static_cast<size_t>(rows) * cols, values.size());
  // Adopts the vector directly (no zero-filled intermediate): the inference
  // arena routes recycled activation buffers through here.
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_ = std::move(values);
  return m;
}

Matrix Matrix::ColumnVector(const std::vector<double>& values) {
  return FromFlat(static_cast<int>(values.size()), 1, values);
}

Matrix Matrix::RowVector(const std::vector<double>& values) {
  return FromFlat(1, static_cast<int>(values.size()), values);
}

Matrix Matrix::Random(int rows, int cols, Rng* rng, double lo, double hi) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng->Uniform(lo, hi);
  return m;
}

Matrix& Matrix::AddInPlace(const Matrix& other) {
  DBG4ETH_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::SubInPlace(const Matrix& other) {
  DBG4ETH_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::MulInPlace(const Matrix& other) {
  DBG4ETH_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

Matrix& Matrix::ScaleInPlace(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

void Matrix::Fill(double v) {
  for (double& x : data_) x = v;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      out.At(c, r) = At(r, c);
    }
  }
  return out;
}

Matrix Matrix::SliceRows(int begin, int end) const {
  DBG4ETH_CHECK(begin >= 0 && end <= rows_ && begin <= end);
  Matrix out(end - begin, cols_);
  std::memcpy(out.data(), RowPtr(begin),
              static_cast<size_t>(end - begin) * cols_ * sizeof(double));
  return out;
}

Matrix Matrix::GatherRows(const std::vector<int>& indices) const {
  Matrix out(static_cast<int>(indices.size()), cols_);
  for (size_t i = 0; i < indices.size(); ++i) {
    DBG4ETH_CHECK(indices[i] >= 0 && indices[i] < rows_);
    std::memcpy(out.RowPtr(static_cast<int>(i)), RowPtr(indices[i]),
                static_cast<size_t>(cols_) * sizeof(double));
  }
  return out;
}

double Matrix::Sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Matrix::Norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

bool Matrix::AllFinite() const {
  for (double v : data_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

std::string Matrix::ToString(int precision) const {
  std::string out = StrFormat("Matrix(%d x %d)\n", rows_, cols_);
  // ~"-12.<precision>" per entry plus brackets; one upfront reservation
  // keeps the loop from re-growing (and re-copying) the string per row.
  out.reserve(out.size() + static_cast<size_t>(rows_) *
                               (static_cast<size_t>(cols_) * (precision + 8) + 4));
  for (int r = 0; r < rows_; ++r) {
    out += "[";
    for (int c = 0; c < cols_; ++c) {
      out += StrFormat(" %.*f", precision, At(r, c));
    }
    out += " ]\n";
  }
  return out;
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  MatMulAccumulate(a, b, &out);
  return out;
}

namespace {

/// Two doubles in one 16-byte vector register (GCC vector extension; SSE2,
/// part of the x86-64 baseline, so no compile flag or CPU dispatch).
/// Lane-wise `*` and `+` round exactly like the scalar operations.
typedef double Double2 __attribute__((vector_size(16)));

inline Double2 Load2(const double* p) {
  Double2 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void Store2(double* p, Double2 v) { std::memcpy(p, &v, sizeof(v)); }

inline Double2 Splat2(double x) { return Double2{x, x}; }

}  // namespace

void MatMulAccumulate(const Matrix& a, const Matrix& b, Matrix* out) {
  DBG4ETH_CHECK_EQ(a.cols(), b.rows());
  DBG4ETH_CHECK_EQ(out->rows(), a.rows());
  DBG4ETH_CHECK_EQ(out->cols(), b.cols());
  const int n = a.rows();
  const int k = a.cols();
  const int m = b.cols();
  // Summation-order contract (the tape, the fast path and training depend
  // on it bit for bit): out[i][j] starts from its current value and adds
  // a[i][kk] * b[kk][j] for kk ascending. A term is skipped when all four
  // rows of i's 4-row block hold 0 at kk; in a remainder row (n % 4), when
  // that row holds 0. The block-level skip drops the fully-masked rows
  // attention masking produces without a branch per multiply.
  //
  // Each 4x4 tile of out stays in registers (8 Double2 accumulators) for
  // the whole kk loop, so it is loaded and stored once, not once per kk;
  // each row of b loaded feeds 4 output rows. Remainder columns (m % 4)
  // and rows are scalar or 1-row tiles with the same order.
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* a0 = a.RowPtr(i);
    const double* a1 = a.RowPtr(i + 1);
    const double* a2 = a.RowPtr(i + 2);
    const double* a3 = a.RowPtr(i + 3);
    double* o0 = out->RowPtr(i);
    double* o1 = out->RowPtr(i + 1);
    double* o2 = out->RowPtr(i + 2);
    double* o3 = out->RowPtr(i + 3);
    int j = 0;
    for (; j + 4 <= m; j += 4) {
      Double2 c00 = Load2(o0 + j), c01 = Load2(o0 + j + 2);
      Double2 c10 = Load2(o1 + j), c11 = Load2(o1 + j + 2);
      Double2 c20 = Load2(o2 + j), c21 = Load2(o2 + j + 2);
      Double2 c30 = Load2(o3 + j), c31 = Load2(o3 + j + 2);
      const double* bk = b.data() + j;  // b[kk][j], walked down the rows.
      for (int kk = 0; kk < k; ++kk, bk += m) {
        const double v0 = a0[kk];
        const double v1 = a1[kk];
        const double v2 = a2[kk];
        const double v3 = a3[kk];
        if (v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0) continue;
        const Double2 b0 = Load2(bk);
        const Double2 b1 = Load2(bk + 2);
        const Double2 w0 = Splat2(v0);
        const Double2 w1 = Splat2(v1);
        const Double2 w2 = Splat2(v2);
        const Double2 w3 = Splat2(v3);
        c00 += w0 * b0;
        c01 += w0 * b1;
        c10 += w1 * b0;
        c11 += w1 * b1;
        c20 += w2 * b0;
        c21 += w2 * b1;
        c30 += w3 * b0;
        c31 += w3 * b1;
      }
      Store2(o0 + j, c00), Store2(o0 + j + 2, c01);
      Store2(o1 + j, c10), Store2(o1 + j + 2, c11);
      Store2(o2 + j, c20), Store2(o2 + j + 2, c21);
      Store2(o3 + j, c30), Store2(o3 + j + 2, c31);
    }
    for (; j < m; ++j) {
      double c0 = o0[j], c1 = o1[j], c2 = o2[j], c3 = o3[j];
      const double* bk = b.data() + j;
      for (int kk = 0; kk < k; ++kk, bk += m) {
        const double v0 = a0[kk];
        const double v1 = a1[kk];
        const double v2 = a2[kk];
        const double v3 = a3[kk];
        if (v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0) continue;
        c0 += v0 * *bk;
        c1 += v1 * *bk;
        c2 += v2 * *bk;
        c3 += v3 * *bk;
      }
      o0[j] = c0, o1[j] = c1, o2[j] = c2, o3[j] = c3;
    }
  }
  for (; i < n; ++i) {
    const double* arow = a.RowPtr(i);
    double* orow = out->RowPtr(i);
    int j = 0;
    for (; j + 4 <= m; j += 4) {
      Double2 c0 = Load2(orow + j), c1 = Load2(orow + j + 2);
      const double* bk = b.data() + j;
      for (int kk = 0; kk < k; ++kk, bk += m) {
        if (arow[kk] == 0.0) continue;
        const Double2 w = Splat2(arow[kk]);
        c0 += w * Load2(bk);
        c1 += w * Load2(bk + 2);
      }
      Store2(orow + j, c0), Store2(orow + j + 2, c1);
    }
    for (; j < m; ++j) {
      double c = orow[j];
      const double* bk = b.data() + j;
      for (int kk = 0; kk < k; ++kk, bk += m) {
        if (arow[kk] != 0.0) c += arow[kk] * *bk;
      }
      orow[j] = c;
    }
  }
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  MatMulTransAAccumulate(a, b, &out);
  return out;
}

void MatMulTransAAccumulate(const Matrix& a, const Matrix& b, Matrix* out_p) {
  DBG4ETH_CHECK_EQ(a.rows(), b.rows());
  DBG4ETH_CHECK_EQ(out_p->rows(), a.cols());
  DBG4ETH_CHECK_EQ(out_p->cols(), b.cols());
  Matrix& out = *out_p;
  const int n = a.rows();
  const int k = a.cols();
  const int m = b.cols();
  // Four rank-1 updates fused per pass: each output row is loaded and
  // stored once per 4 input rows instead of once per input row. The
  // per-element adds stay in ascending-i order (sequential `acc +=`), so
  // results are bit-identical to the unblocked kernel.
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* a0 = a.RowPtr(i);
    const double* a1 = a.RowPtr(i + 1);
    const double* a2 = a.RowPtr(i + 2);
    const double* a3 = a.RowPtr(i + 3);
    const double* b0 = b.RowPtr(i);
    const double* b1 = b.RowPtr(i + 1);
    const double* b2 = b.RowPtr(i + 2);
    const double* b3 = b.RowPtr(i + 3);
    for (int kk = 0; kk < k; ++kk) {
      const double v0 = a0[kk];
      const double v1 = a1[kk];
      const double v2 = a2[kk];
      const double v3 = a3[kk];
      if (v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0) continue;
      double* orow = out.RowPtr(kk);
      for (int j = 0; j < m; ++j) {
        double acc = orow[j];
        acc += v0 * b0[j];
        acc += v1 * b1[j];
        acc += v2 * b2[j];
        acc += v3 * b3[j];
        orow[j] = acc;
      }
    }
  }
  for (; i < n; ++i) {  // Remainder rows (n % 4), scalar.
    const double* arow = a.RowPtr(i);
    const double* brow = b.RowPtr(i);
    for (int kk = 0; kk < k; ++kk) {
      const double av = arow[kk];
      if (av == 0.0) continue;
      double* orow = out.RowPtr(kk);
      for (int j = 0; j < m; ++j) {
        orow[j] += av * brow[j];
      }
    }
  }
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.rows());
  MatMulTransBAccumulate(a, b, &out);
  return out;
}

void MatMulTransBAccumulate(const Matrix& a, const Matrix& b, Matrix* out_p) {
  DBG4ETH_CHECK_EQ(a.cols(), b.cols());
  DBG4ETH_CHECK_EQ(out_p->rows(), a.rows());
  DBG4ETH_CHECK_EQ(out_p->cols(), b.rows());
  Matrix& out = *out_p;
  const int n = a.rows();
  const int k = a.cols();
  const int m = b.rows();
  // 4 independent dot products per pass over a's row: arow[kk] is loaded
  // once per 4 output columns, and the 4 accumulator chains break the
  // add-latency dependency of a single running sum.
  for (int i = 0; i < n; ++i) {
    const double* arow = a.RowPtr(i);
    double* orow = out.RowPtr(i);
    int j = 0;
    for (; j + 4 <= m; j += 4) {
      const double* b0 = b.RowPtr(j);
      const double* b1 = b.RowPtr(j + 1);
      const double* b2 = b.RowPtr(j + 2);
      const double* b3 = b.RowPtr(j + 3);
      double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0;
      for (int kk = 0; kk < k; ++kk) {
        const double av = arow[kk];
        c0 += av * b0[kk];
        c1 += av * b1[kk];
        c2 += av * b2[kk];
        c3 += av * b3[kk];
      }
      orow[j] += c0;
      orow[j + 1] += c1;
      orow[j + 2] += c2;
      orow[j + 3] += c3;
    }
    for (; j < m; ++j) {  // Remainder columns (m % 4), scalar.
      const double* brow = b.RowPtr(j);
      double acc = 0.0;
      for (int kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      orow[j] += acc;
    }
  }
}

Matrix Add(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out.AddInPlace(b);
  return out;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out.SubInPlace(b);
  return out;
}

Matrix Mul(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out.MulInPlace(b);
  return out;
}

Matrix Scale(const Matrix& a, double s) {
  Matrix out = a;
  out.ScaleInPlace(s);
  return out;
}

Matrix ConcatCols(const Matrix& a, const Matrix& b) {
  DBG4ETH_CHECK_EQ(a.rows(), b.rows());
  Matrix out(a.rows(), a.cols() + b.cols());
  for (int r = 0; r < a.rows(); ++r) {
    std::memcpy(out.RowPtr(r), a.RowPtr(r),
                static_cast<size_t>(a.cols()) * sizeof(double));
    std::memcpy(out.RowPtr(r) + a.cols(), b.RowPtr(r),
                static_cast<size_t>(b.cols()) * sizeof(double));
  }
  return out;
}

Matrix ConcatRows(const Matrix& a, const Matrix& b) {
  DBG4ETH_CHECK_EQ(a.cols(), b.cols());
  Matrix out(a.rows() + b.rows(), a.cols());
  std::memcpy(out.data(), a.data(), a.size() * sizeof(double));
  std::memcpy(out.RowPtr(a.rows()), b.data(), b.size() * sizeof(double));
  return out;
}

bool AlmostEqual(const Matrix& a, const Matrix& b, double tol) {
  if (!a.SameShape(b)) return false;
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      if (std::fabs(a.At(r, c) - b.At(r, c)) > tol) return false;
    }
  }
  return true;
}

}  // namespace dbg4eth
