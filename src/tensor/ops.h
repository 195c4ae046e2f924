#ifndef DBG4ETH_TENSOR_OPS_H_
#define DBG4ETH_TENSOR_OPS_H_

#include <memory>
#include <vector>

#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace dbg4eth {

class Rng;

namespace ag {

/// Differentiable operations over Tensors. Each op appends one node to the
/// dynamic tape; Tensor::Backward() replays the tape in reverse.

/// Matrix product a @ b.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Sparse-dense product a @ x for a constant sparse operator a (typically a
/// cached normalized adjacency; it receives no gradient — only x does:
/// dX = a^T @ dOut). The shared_ptr is captured by the tape node, so the
/// operator outlives the backward pass.
Tensor SpMM(std::shared_ptr<const SparseMatrix> a, const Tensor& x);

/// Sparse-transposed-dense product a^T @ x for a constant sparse operator
/// a (same contract as SpMM; dX = a @ dOut). Visits a's nonzeros in
/// ascending-row order, so the result is bit-identical to the dense
/// MatMulTransA against a.ToDense().
Tensor SpMMTransA(std::shared_ptr<const SparseMatrix> a, const Tensor& x);

/// Masked product alpha @ b where `alpha` is dense but exactly zero
/// outside `support` (a masked-softmax attention matrix). Forward and both
/// backward products only touch support entries; the gradient of alpha is
/// zero off-support, which downstream masked-softmax backward annihilates
/// anyway. Both alpha and b receive gradients.
Tensor MaskedSpMatMul(std::shared_ptr<const SparseMatrix> support,
                      const Tensor& alpha, const Tensor& b);

/// Element-wise a + b (same shape).
Tensor Add(const Tensor& a, const Tensor& b);
/// Element-wise a - b.
Tensor Sub(const Tensor& a, const Tensor& b);
/// Element-wise (Hadamard) a * b.
Tensor Mul(const Tensor& a, const Tensor& b);
/// a * s.
Tensor ScalarMul(const Tensor& a, double s);
/// a + s (element-wise).
Tensor ScalarAdd(const Tensor& a, double s);

/// Adds a 1 x C bias row to every row of a (N x C).
Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias);

/// Replicates a 1 x C row tensor into N identical rows.
Tensor BroadcastRow(const Tensor& row, int n);

/// S_ij = u_i + v_j for column vectors u (N x 1) and v (M x 1).
Tensor PairwiseSum(const Tensor& u, const Tensor& v);

/// Horizontal concatenation [a | b].
Tensor ConcatCols(const Tensor& a, const Tensor& b);
/// Vertical concatenation [a ; b].
Tensor ConcatRows(const Tensor& a, const Tensor& b);
/// Vertical concatenation of a list (each must share the column count).
Tensor ConcatRowsList(const std::vector<Tensor>& parts);

/// Rows [begin, end) of a.
Tensor SliceRows(const Tensor& a, int begin, int end);
/// Transpose.
Tensor Transpose(const Tensor& a);

/// Activations.
Tensor Relu(const Tensor& a);
Tensor LeakyRelu(const Tensor& a, double negative_slope = 0.2);
Tensor Elu(const Tensor& a, double alpha = 1.0);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);

/// Row-wise softmax.
Tensor SoftmaxRows(const Tensor& a);
/// Row-wise softmax of `a` (N x M) over the entries of `support` (an N x M
/// pattern, e.g. Graph::AttentionMaskSparse()), taken in ascending column
/// order. The output is N x M and exactly zero off the support (the form
/// MaskedSpMatMul consumes); a row with no support entries is all zero.
/// Forward and backward visit support entries only.
Tensor MaskedSoftmaxRows(const Tensor& a,
                         std::shared_ptr<const SparseMatrix> support);
/// Softmax over the entries of an N x 1 column vector.
Tensor SoftmaxColVector(const Tensor& a);

/// Reductions.
Tensor SumAll(const Tensor& a);
Tensor MeanAll(const Tensor& a);
/// N x C -> 1 x C column-wise max (gradient routed to the argmax entries).
Tensor MaxPoolRows(const Tensor& a);
/// N x C -> 1 x C column means.
Tensor MeanPoolRows(const Tensor& a);

/// L2-normalizes every row (zero rows stay zero).
Tensor L2NormalizeRows(const Tensor& a, double eps = 1e-12);

/// Inverted dropout: scales kept entries by 1/(1-p) when training is true;
/// identity otherwise.
Tensor Dropout(const Tensor& a, double p, Rng* rng, bool training);

/// Mean softmax cross-entropy of logits (N x C) against integer labels.
Tensor SoftmaxCrossEntropy(const Tensor& logits,
                           const std::vector<int>& labels);

/// Softmax probabilities of the tape-free forward pass (no gradient).
Matrix SoftmaxRowsValue(const Matrix& logits);

}  // namespace ag
}  // namespace dbg4eth

#endif  // DBG4ETH_TENSOR_OPS_H_
