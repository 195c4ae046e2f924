#ifndef DBG4ETH_TENSOR_SPARSE_H_
#define DBG4ETH_TENSOR_SPARSE_H_

#include <vector>

#include "tensor/matrix.h"

namespace dbg4eth {

/// \brief Immutable CSR (compressed sparse row) matrix of doubles.
///
/// Built for the normalized adjacency operators of the GNN stack: an
/// account subgraph with N nodes and E edges has a D^{-1/2}(A+I)D^{-1/2}
/// with N + 2E nonzeros out of N^2 entries, so message passing as SpMM
/// does O(nnz * F) work instead of the dense kernel's O(N^2 * F). The
/// structure is frozen at construction — exactly what an adjacency that is
/// cached once per Graph and shared across epochs (and across trainer
/// threads) needs.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Converts a dense matrix, keeping entries with |v| > `zero_tolerance`.
  /// The default tolerance keeps every exact nonzero.
  static SparseMatrix FromDense(const Matrix& dense,
                                double zero_tolerance = 0.0);

  /// Adopts CSR arrays (see row_offsets()). DBG4ETH_CHECKs the invariants
  /// the kernels index by: `row_offsets` has rows + 1 entries, starts at 0,
  /// never decreases and ends at nnz == col_indices.size() ==
  /// values.size(); every column is in [0, cols) and columns are strictly
  /// ascending within a row. Stored values may be zero.
  static SparseMatrix FromCsr(int rows, int cols, std::vector<int> row_offsets,
                              std::vector<int> col_indices,
                              std::vector<double> values);

  Matrix ToDense() const;

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  /// Stored entries.
  int nnz() const { return static_cast<int>(values_.size()); }

  /// CSR arrays: row i's entries live at [row_offsets()[i],
  /// row_offsets()[i + 1]) in col_indices()/values(). Column indices are
  /// ascending within each row.
  const std::vector<int>& row_offsets() const { return row_offsets_; }
  const std::vector<int>& col_indices() const { return col_indices_; }
  const std::vector<double>& values() const { return values_; }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<int> row_offsets_ = {0};
  std::vector<int> col_indices_;
  std::vector<double> values_;
};

/// out = a * x (sparse-dense product). Shapes must agree.
Matrix SpMM(const SparseMatrix& a, const Matrix& x);
/// Accumulates a * x into *out (must be pre-shaped).
void SpMMAccumulate(const SparseMatrix& a, const Matrix& x, Matrix* out);
/// out = a^T * x without materializing the transpose. This is the backward
/// kernel of SpMM: dX = A^T * dOut.
Matrix SpMMTransA(const SparseMatrix& a, const Matrix& x);
/// Accumulates a^T * x into *out (must be pre-shaped). Allocation-free
/// form used by the inference fast path.
void SpMMTransAAccumulate(const SparseMatrix& a, const Matrix& x,
                          Matrix* out);

/// Masked-product kernels for attention: `a` is a dense matrix that is
/// exactly zero outside the support pattern (e.g. a masked-softmax
/// attention matrix whose support is adjacency + I). Each visits nonzeros
/// in the order the dense kernel visits the corresponding indices, so the
/// results are bit-identical to the dense products for finite inputs.
///
/// Accumulates a @ b restricted to support into *out (must be pre-shaped):
/// out(i,:) += sum_k a(i,k) b(k,:) over support entries (i,k).
void MaskedMatMulAccumulate(const SparseMatrix& support, const Matrix& a,
                            const Matrix& b, Matrix* out);
/// *da(i,k) += dot(dout(i,:), b(k,:)) at support entries — the dA = dOut
/// @ B^T backward of the masked product, skipping entries the masked
/// softmax annihilates anyway.
void MaskedOuterAccumulate(const SparseMatrix& support, const Matrix& dout,
                           const Matrix& b, Matrix* da);
/// *db(k,:) += a(i,k) * dout(i,:) over support entries — the dB = A^T @
/// dOut backward of the masked product.
void MaskedTransAccumulate(const SparseMatrix& support, const Matrix& a,
                           const Matrix& dout, Matrix* db);

}  // namespace dbg4eth

#endif  // DBG4ETH_TENSOR_SPARSE_H_
