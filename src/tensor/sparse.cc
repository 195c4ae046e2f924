#include "tensor/sparse.h"

#include <cmath>
#include <utility>

#include "common/logging.h"

namespace dbg4eth {

SparseMatrix SparseMatrix::FromDense(const Matrix& dense,
                                     double zero_tolerance) {
  SparseMatrix out;
  out.rows_ = dense.rows();
  out.cols_ = dense.cols();
  out.row_offsets_.assign(1, 0);
  out.row_offsets_.reserve(dense.rows() + 1);
  for (int r = 0; r < dense.rows(); ++r) {
    const double* row = dense.RowPtr(r);
    for (int c = 0; c < dense.cols(); ++c) {
      if (std::fabs(row[c]) > zero_tolerance) {
        out.col_indices_.push_back(c);
        out.values_.push_back(row[c]);
      }
    }
    out.row_offsets_.push_back(static_cast<int>(out.values_.size()));
  }
  return out;
}

SparseMatrix SparseMatrix::FromCsr(int rows, int cols,
                                   std::vector<int> row_offsets,
                                   std::vector<int> col_indices,
                                   std::vector<double> values) {
  DBG4ETH_CHECK(rows >= 0 && cols >= 0);
  DBG4ETH_CHECK_EQ(row_offsets.size(), static_cast<size_t>(rows) + 1);
  DBG4ETH_CHECK_EQ(row_offsets.front(), 0);
  DBG4ETH_CHECK_EQ(static_cast<size_t>(row_offsets.back()),
                   col_indices.size());
  DBG4ETH_CHECK_EQ(col_indices.size(), values.size());
  // Monotone offsets from 0 to nnz keep every row's range inside the
  // arrays, so they are checked before any column is read.
  for (int r = 0; r < rows; ++r) {
    DBG4ETH_CHECK_LE(row_offsets[r], row_offsets[r + 1]);
  }
  for (int r = 0; r < rows; ++r) {
    int prev = -1;
    for (int e = row_offsets[r]; e < row_offsets[r + 1]; ++e) {
      DBG4ETH_CHECK(col_indices[e] > prev && col_indices[e] < cols);
      prev = col_indices[e];
    }
  }
  SparseMatrix out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.row_offsets_ = std::move(row_offsets);
  out.col_indices_ = std::move(col_indices);
  out.values_ = std::move(values);
  return out;
}

Matrix SparseMatrix::ToDense() const {
  Matrix out(rows_, cols_);
  for (int r = 0; r < rows_; ++r) {
    double* orow = out.RowPtr(r);
    for (int e = row_offsets_[r]; e < row_offsets_[r + 1]; ++e) {
      orow[col_indices_[e]] += values_[e];
    }
  }
  return out;
}

Matrix SpMM(const SparseMatrix& a, const Matrix& x) {
  Matrix out(a.rows(), x.cols());
  SpMMAccumulate(a, x, &out);
  return out;
}

void SpMMAccumulate(const SparseMatrix& a, const Matrix& x, Matrix* out) {
  DBG4ETH_CHECK_EQ(a.cols(), x.rows());
  DBG4ETH_CHECK_EQ(out->rows(), a.rows());
  DBG4ETH_CHECK_EQ(out->cols(), x.cols());
  const std::vector<int>& offsets = a.row_offsets();
  const std::vector<int>& cols = a.col_indices();
  const std::vector<double>& vals = a.values();
  const int m = x.cols();
  for (int r = 0; r < a.rows(); ++r) {
    double* orow = out->RowPtr(r);
    for (int e = offsets[r]; e < offsets[r + 1]; ++e) {
      const double v = vals[e];
      const double* xrow = x.RowPtr(cols[e]);
      for (int j = 0; j < m; ++j) {
        orow[j] += v * xrow[j];
      }
    }
  }
}

Matrix SpMMTransA(const SparseMatrix& a, const Matrix& x) {
  Matrix out(a.cols(), x.cols());
  SpMMTransAAccumulate(a, x, &out);
  return out;
}

void SpMMTransAAccumulate(const SparseMatrix& a, const Matrix& x,
                          Matrix* out) {
  DBG4ETH_CHECK_EQ(a.rows(), x.rows());
  DBG4ETH_CHECK_EQ(out->rows(), a.cols());
  DBG4ETH_CHECK_EQ(out->cols(), x.cols());
  const std::vector<int>& offsets = a.row_offsets();
  const std::vector<int>& cols = a.col_indices();
  const std::vector<double>& vals = a.values();
  const int m = x.cols();
  // Scatter form: entry (r, c) of a contributes a rank-1 update of x's
  // row r into out's row c.
  for (int r = 0; r < a.rows(); ++r) {
    const double* xrow = x.RowPtr(r);
    for (int e = offsets[r]; e < offsets[r + 1]; ++e) {
      const double v = vals[e];
      double* orow = out->RowPtr(cols[e]);
      for (int j = 0; j < m; ++j) {
        orow[j] += v * xrow[j];
      }
    }
  }
}

void MaskedMatMulAccumulate(const SparseMatrix& support, const Matrix& a,
                            const Matrix& b, Matrix* out) {
  DBG4ETH_CHECK_EQ(support.rows(), a.rows());
  DBG4ETH_CHECK_EQ(support.cols(), a.cols());
  DBG4ETH_CHECK_EQ(a.cols(), b.rows());
  DBG4ETH_CHECK_EQ(out->rows(), a.rows());
  DBG4ETH_CHECK_EQ(out->cols(), b.cols());
  const std::vector<int>& offsets = support.row_offsets();
  const std::vector<int>& cols = support.col_indices();
  const int m = b.cols();
  for (int r = 0; r < a.rows(); ++r) {
    const double* arow = a.RowPtr(r);
    double* orow = out->RowPtr(r);
    for (int e = offsets[r]; e < offsets[r + 1]; ++e) {
      const int k = cols[e];
      const double v = arow[k];
      const double* brow = b.RowPtr(k);
      for (int j = 0; j < m; ++j) {
        orow[j] += v * brow[j];
      }
    }
  }
}

void MaskedOuterAccumulate(const SparseMatrix& support, const Matrix& dout,
                           const Matrix& b, Matrix* da) {
  DBG4ETH_CHECK_EQ(support.rows(), da->rows());
  DBG4ETH_CHECK_EQ(support.cols(), da->cols());
  DBG4ETH_CHECK_EQ(dout.rows(), da->rows());
  DBG4ETH_CHECK_EQ(b.rows(), da->cols());
  DBG4ETH_CHECK_EQ(dout.cols(), b.cols());
  const std::vector<int>& offsets = support.row_offsets();
  const std::vector<int>& cols = support.col_indices();
  const int m = dout.cols();
  for (int r = 0; r < da->rows(); ++r) {
    const double* drow = dout.RowPtr(r);
    double* garow = da->RowPtr(r);
    for (int e = offsets[r]; e < offsets[r + 1]; ++e) {
      const int k = cols[e];
      const double* brow = b.RowPtr(k);
      double acc = 0.0;
      for (int j = 0; j < m; ++j) {
        acc += drow[j] * brow[j];
      }
      garow[k] += acc;
    }
  }
}

void MaskedTransAccumulate(const SparseMatrix& support, const Matrix& a,
                           const Matrix& dout, Matrix* db) {
  DBG4ETH_CHECK_EQ(support.rows(), a.rows());
  DBG4ETH_CHECK_EQ(support.cols(), a.cols());
  DBG4ETH_CHECK_EQ(db->rows(), a.cols());
  DBG4ETH_CHECK_EQ(db->cols(), dout.cols());
  DBG4ETH_CHECK_EQ(dout.rows(), a.rows());
  const std::vector<int>& offsets = support.row_offsets();
  const std::vector<int>& cols = support.col_indices();
  const int m = dout.cols();
  // Scatter form mirroring SpMMTransA: ascending r keeps each output
  // row's accumulation in the dense kernel's order.
  for (int r = 0; r < a.rows(); ++r) {
    const double* arow = a.RowPtr(r);
    const double* drow = dout.RowPtr(r);
    for (int e = offsets[r]; e < offsets[r + 1]; ++e) {
      const double v = arow[cols[e]];
      double* orow = db->RowPtr(cols[e]);
      for (int j = 0; j < m; ++j) {
        orow[j] += v * drow[j];
      }
    }
  }
}

}  // namespace dbg4eth
