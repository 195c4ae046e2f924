#ifndef DBG4ETH_TENSOR_MATRIX_H_
#define DBG4ETH_TENSOR_MATRIX_H_

#include <string>
#include <vector>

// Opt-in bounds checking for the hot accessors (enabled by the tsan and
// asan CMake presets). Kept out of release builds: At/RowPtr sit inside the
// matmul kernels' inner loops. Not an assert(): the presets build
// RelWithDebInfo, whose -DNDEBUG would compile the check away.
#ifdef DBG4ETH_DEBUG_CHECKS
#include <cstdio>
#include <cstdlib>
#define DBG4ETH_DCHECK_BOUNDS(cond)                                      \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "%s:%d: bounds check failed: %s\n", __FILE__, \
                   __LINE__, #cond);                                     \
      std::abort();                                                      \
    }                                                                    \
  } while (0)
#else
#define DBG4ETH_DCHECK_BOUNDS(cond) ((void)0)
#endif

namespace dbg4eth {

class Rng;

/// \brief Dense row-major matrix of doubles.
///
/// The workhorse value type of the tensor engine. All GNN computations in
/// this reproduction run over account subgraphs of ~100 nodes, so a dense
/// representation reproduces the paper's math exactly at negligible cost.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols) : rows_(rows), cols_(cols),
                               data_(static_cast<size_t>(rows) * cols, 0.0) {}
  Matrix(int rows, int cols, double fill)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * cols, fill) {}

  static Matrix Zeros(int rows, int cols) { return Matrix(rows, cols); }
  static Matrix Ones(int rows, int cols) { return Matrix(rows, cols, 1.0); }
  static Matrix Identity(int n);
  /// Builds a rows x cols matrix from a flat row-major initializer.
  static Matrix FromFlat(int rows, int cols, std::vector<double> values);
  /// Column vector (n x 1) from values.
  static Matrix ColumnVector(const std::vector<double>& values);
  /// Row vector (1 x n) from values.
  static Matrix RowVector(const std::vector<double>& values);
  /// I.i.d. uniform entries in [lo, hi).
  static Matrix Random(int rows, int cols, Rng* rng, double lo = -1.0,
                       double hi = 1.0);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& At(int r, int c) {
    DBG4ETH_DCHECK_BOUNDS(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double At(int r, int c) const {
    DBG4ETH_DCHECK_BOUNDS(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double& operator()(int r, int c) { return At(r, c); }
  double operator()(int r, int c) const { return At(r, c); }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  /// r == rows() is allowed: one-past-the-end pointer (used by SliceRows).
  double* RowPtr(int r) {
    DBG4ETH_DCHECK_BOUNDS(r >= 0 && r <= rows_);
    return data_.data() + static_cast<size_t>(r) * cols_;
  }
  const double* RowPtr(int r) const {
    DBG4ETH_DCHECK_BOUNDS(r >= 0 && r <= rows_);
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Moves out the backing storage, leaving an empty 0 x 0 matrix. The
  /// inference arena uses this to recycle activation buffers across
  /// forward passes (see tensor/inference.h).
  std::vector<double> TakeData() {
    rows_ = 0;
    cols_ = 0;
    return std::move(data_);
  }

  /// Element-wise in-place operations.
  Matrix& AddInPlace(const Matrix& other);
  Matrix& SubInPlace(const Matrix& other);
  Matrix& MulInPlace(const Matrix& other);
  Matrix& ScaleInPlace(double s);
  void Fill(double v);

  /// Returns a new transposed matrix.
  Matrix Transposed() const;

  /// Extracts rows [begin, end).
  Matrix SliceRows(int begin, int end) const;

  /// Extracts one row as a 1 x cols matrix.
  Matrix Row(int r) const { return SliceRows(r, r + 1); }

  /// Gathers the given rows into a new matrix.
  Matrix GatherRows(const std::vector<int>& indices) const;

  /// Sum of all entries.
  double Sum() const;
  /// Frobenius norm.
  double Norm() const;
  /// Largest absolute entry; 0 for empty.
  double MaxAbs() const;

  /// All entries finite?
  bool AllFinite() const;

  std::string ToString(int precision = 4) const;

 private:
  int rows_;
  int cols_;
  std::vector<double> data_;
};

/// out = a * b (matrix product). Shapes must agree.
Matrix MatMul(const Matrix& a, const Matrix& b);
/// Accumulates a * b into *out (must be pre-shaped). Each element adds its
/// terms in ascending k, onto its current value; matrix.cc states the
/// exact summation-order contract, which the results depend on bit for bit.
void MatMulAccumulate(const Matrix& a, const Matrix& b, Matrix* out);
/// out = a^T * b without materializing the transpose.
Matrix MatMulTransA(const Matrix& a, const Matrix& b);
/// Accumulates a^T @ b into *out (must be pre-shaped) — the allocation-free
/// form the backward pass uses to add dB = A^T @ dOut straight onto a
/// gradient buffer.
void MatMulTransAAccumulate(const Matrix& a, const Matrix& b, Matrix* out);
/// out = a * b^T without materializing the transpose.
Matrix MatMulTransB(const Matrix& a, const Matrix& b);
/// Accumulates a @ b^T into *out (must be pre-shaped) — the allocation-free
/// form the backward pass uses for dA = dOut @ B^T.
void MatMulTransBAccumulate(const Matrix& a, const Matrix& b, Matrix* out);

Matrix Add(const Matrix& a, const Matrix& b);
Matrix Sub(const Matrix& a, const Matrix& b);
Matrix Mul(const Matrix& a, const Matrix& b);
Matrix Scale(const Matrix& a, double s);

/// Horizontal concatenation [a | b].
Matrix ConcatCols(const Matrix& a, const Matrix& b);
/// Vertical concatenation.
Matrix ConcatRows(const Matrix& a, const Matrix& b);

bool AlmostEqual(const Matrix& a, const Matrix& b, double tol = 1e-9);

}  // namespace dbg4eth

#endif  // DBG4ETH_TENSOR_MATRIX_H_
