#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <utility>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "tensor/inference.h"

namespace dbg4eth {
namespace ag {

namespace {

using internal::TensorNode;

/// The one place an op's value becomes a node. Under an InferenceScope it
/// becomes a pooled value-only node that adopts the buffer an Out* helper
/// drew from the arena: no parents, no backward. Otherwise it becomes a
/// tape node whose requires_grad is inherited from the parents, and which
/// keeps `backward` only when that is set. The callable is a template
/// parameter and the parents are references, so the value path builds no
/// std::function, no parent vector and no Tensor copy.
template <typename Backward,
          typename Parents =
              std::initializer_list<std::reference_wrapper<const Tensor>>>
Tensor MakeNode(Matrix value, const Parents& parents, Backward&& backward,
                const char* op_name) {
  if (InferenceArena* arena = internal::ActiveInferenceArena()) {
    return Tensor::FromNode(arena->PooledNode(std::move(value)));
  }
  auto node = std::make_shared<TensorNode>();
  node->value = std::move(value);
  node->op_name = op_name;
  bool needs_grad = false;
  node->parents.reserve(parents.size());
  for (const Tensor& p : parents) {
    DBG4ETH_CHECK(p.defined());
    needs_grad = needs_grad || p.node()->requires_grad;
    node->parents.push_back(p.node());
  }
  node->requires_grad = needs_grad;
  if (needs_grad) node->backward_fn = std::forward<Backward>(backward);
  return Tensor::FromNode(std::move(node));
}

Matrix& ParentGrad(TensorNode* node, int i) {
  // All leaf-gradient writes funnel through here; GradAccumTarget swaps in
  // the calling thread's GradientBuffer slot during buffered backward.
  return internal::GradAccumTarget(node->parents[i].get());
}

const Matrix& ParentValue(TensorNode* node, int i) {
  return node->parents[i]->value;
}

bool ParentRequires(TensorNode* node, int i) {
  return node->parents[i]->requires_grad;
}

/// Output buffers for the op forwards. On the tape path these match the
/// ops' historical allocations exactly; under an InferenceScope they draw
/// recycled activation storage from the thread's arena. Zeros is for
/// accumulate-style and masked-write kernels, Uninit for kernels that
/// overwrite every entry, CopyOf for copy-then-modify kernels. Every op
/// takes its output from one of them, so MakeNode can adopt it as is.
Matrix OutZeros(int rows, int cols) {
  if (InferenceArena* arena = internal::ActiveInferenceArena()) {
    return arena->Zeros(rows, cols);
  }
  return Matrix(rows, cols);
}

Matrix OutUninit(int rows, int cols) {
  if (InferenceArena* arena = internal::ActiveInferenceArena()) {
    return arena->Uninit(rows, cols);
  }
  return Matrix(rows, cols);
}

Matrix OutCopy(const Matrix& src) {
  if (InferenceArena* arena = internal::ActiveInferenceArena()) {
    return arena->CopyOf(src);
  }
  return src;
}

/// Row-wise softmax of `logits` written into the pre-shaped *out (every
/// entry overwritten). Shared by SoftmaxRowsValue and the SoftmaxRows op
/// so tape and fast-path forwards run the identical loop.
void SoftmaxRowsInto(const Matrix& logits, Matrix* out) {
  for (int r = 0; r < logits.rows(); ++r) {
    double max_v = logits.At(r, 0);
    for (int c = 1; c < logits.cols(); ++c) {
      max_v = std::max(max_v, logits.At(r, c));
    }
    double denom = 0.0;
    for (int c = 0; c < logits.cols(); ++c) {
      denom += std::exp(logits.At(r, c) - max_v);
    }
    for (int c = 0; c < logits.cols(); ++c) {
      out->At(r, c) = std::exp(logits.At(r, c) - max_v) / denom;
    }
  }
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  Matrix out = OutZeros(a.rows(), b.cols());
  MatMulAccumulate(a.value(), b.value(), &out);
  return MakeNode(
      std::move(out), {a, b},
      [](TensorNode* n) {
        const Matrix& g = n->grad;
        if (ParentRequires(n, 0)) {
          // dA = dOut @ B^T
          MatMulTransBAccumulate(g, ParentValue(n, 1), &ParentGrad(n, 0));
        }
        if (ParentRequires(n, 1)) {
          // dB = A^T @ dOut
          MatMulTransAAccumulate(ParentValue(n, 0), g, &ParentGrad(n, 1));
        }
      },
      "matmul");
}

Tensor SpMM(std::shared_ptr<const SparseMatrix> a, const Tensor& x) {
  DBG4ETH_CHECK(a != nullptr);
  Matrix out = OutZeros(a->rows(), x.cols());
  SpMMAccumulate(*a, x.value(), &out);
  return MakeNode(
      std::move(out), {x},
      [a = std::move(a)](TensorNode* n) {
        if (ParentRequires(n, 0)) {
          ParentGrad(n, 0).AddInPlace(dbg4eth::SpMMTransA(*a, n->grad));
        }
      },
      "spmm");
}

Tensor SpMMTransA(std::shared_ptr<const SparseMatrix> a, const Tensor& x) {
  DBG4ETH_CHECK(a != nullptr);
  Matrix out = OutZeros(a->cols(), x.cols());
  SpMMTransAAccumulate(*a, x.value(), &out);
  return MakeNode(
      std::move(out), {x},
      [a = std::move(a)](TensorNode* n) {
        if (ParentRequires(n, 0)) {
          SpMMAccumulate(*a, n->grad, &ParentGrad(n, 0));
        }
      },
      "spmm_trans_a");
}

Tensor MaskedSpMatMul(std::shared_ptr<const SparseMatrix> support,
                      const Tensor& alpha, const Tensor& b) {
  DBG4ETH_CHECK(support != nullptr);
  Matrix out = OutZeros(alpha.rows(), b.cols());
  MaskedMatMulAccumulate(*support, alpha.value(), b.value(), &out);
  return MakeNode(
      std::move(out), {alpha, b},
      [support = std::move(support)](TensorNode* n) {
        if (ParentRequires(n, 0)) {
          MaskedOuterAccumulate(*support, n->grad, ParentValue(n, 1),
                                &ParentGrad(n, 0));
        }
        if (ParentRequires(n, 1)) {
          MaskedTransAccumulate(*support, ParentValue(n, 0), n->grad,
                                &ParentGrad(n, 1));
        }
      },
      "masked_spmatmul");
}

Tensor Add(const Tensor& a, const Tensor& b) {
  Matrix out = OutCopy(a.value());
  out.AddInPlace(b.value());
  return MakeNode(
      std::move(out), {a, b},
      [](TensorNode* n) {
        if (ParentRequires(n, 0)) ParentGrad(n, 0).AddInPlace(n->grad);
        if (ParentRequires(n, 1)) ParentGrad(n, 1).AddInPlace(n->grad);
      },
      "add");
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  Matrix out = OutCopy(a.value());
  out.SubInPlace(b.value());
  return MakeNode(
      std::move(out), {a, b},
      [](TensorNode* n) {
        if (ParentRequires(n, 0)) ParentGrad(n, 0).AddInPlace(n->grad);
        if (ParentRequires(n, 1)) ParentGrad(n, 1).SubInPlace(n->grad);
      },
      "sub");
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  Matrix out = OutCopy(a.value());
  out.MulInPlace(b.value());
  return MakeNode(
      std::move(out), {a, b},
      [](TensorNode* n) {
        if (ParentRequires(n, 0)) {
          ParentGrad(n, 0).AddInPlace(dbg4eth::Mul(n->grad, ParentValue(n, 1)));
        }
        if (ParentRequires(n, 1)) {
          ParentGrad(n, 1).AddInPlace(dbg4eth::Mul(n->grad, ParentValue(n, 0)));
        }
      },
      "mul");
}

Tensor ScalarMul(const Tensor& a, double s) {
  Matrix out = OutCopy(a.value());
  out.ScaleInPlace(s);
  return MakeNode(
      std::move(out), {a},
      [s](TensorNode* n) {
        if (ParentRequires(n, 0)) {
          ParentGrad(n, 0).AddInPlace(dbg4eth::Scale(n->grad, s));
        }
      },
      "scalar_mul");
}

Tensor ScalarAdd(const Tensor& a, double s) {
  Matrix out = OutCopy(a.value());
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) out.At(r, c) += s;
  }
  return MakeNode(
      std::move(out), {a},
      [](TensorNode* n) {
        if (ParentRequires(n, 0)) ParentGrad(n, 0).AddInPlace(n->grad);
      },
      "scalar_add");
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias) {
  DBG4ETH_CHECK_EQ(bias.rows(), 1);
  DBG4ETH_CHECK_EQ(bias.cols(), a.cols());
  Matrix out = OutCopy(a.value());
  for (int r = 0; r < out.rows(); ++r) {
    const double* b = bias.value().RowPtr(0);
    double* row = out.RowPtr(r);
    for (int c = 0; c < out.cols(); ++c) row[c] += b[c];
  }
  return MakeNode(
      std::move(out), {a, bias},
      [](TensorNode* n) {
        if (ParentRequires(n, 0)) ParentGrad(n, 0).AddInPlace(n->grad);
        if (ParentRequires(n, 1)) {
          Matrix& bg = ParentGrad(n, 1);
          for (int r = 0; r < n->grad.rows(); ++r) {
            const double* g = n->grad.RowPtr(r);
            for (int c = 0; c < n->grad.cols(); ++c) bg.At(0, c) += g[c];
          }
        }
      },
      "add_row_broadcast");
}

Tensor BroadcastRow(const Tensor& row, int n_rows) {
  DBG4ETH_CHECK_EQ(row.rows(), 1);
  Matrix out = OutUninit(n_rows, row.cols());
  for (int r = 0; r < n_rows; ++r) {
    for (int c = 0; c < row.cols(); ++c) out.At(r, c) = row.value().At(0, c);
  }
  return MakeNode(
      std::move(out), {row},
      [](TensorNode* n) {
        if (ParentRequires(n, 0)) {
          Matrix& g = ParentGrad(n, 0);
          for (int r = 0; r < n->grad.rows(); ++r) {
            for (int c = 0; c < n->grad.cols(); ++c) {
              g.At(0, c) += n->grad.At(r, c);
            }
          }
        }
      },
      "broadcast_row");
}

Tensor PairwiseSum(const Tensor& u, const Tensor& v) {
  DBG4ETH_CHECK_EQ(u.cols(), 1);
  DBG4ETH_CHECK_EQ(v.cols(), 1);
  const int n = u.rows();
  const int m = v.rows();
  Matrix out = OutUninit(n, m);
  for (int i = 0; i < n; ++i) {
    const double ui = u.value().At(i, 0);
    for (int j = 0; j < m; ++j) out.At(i, j) = ui + v.value().At(j, 0);
  }
  return MakeNode(
      std::move(out), {u, v},
      [](TensorNode* n_) {
        const Matrix& g = n_->grad;
        if (ParentRequires(n_, 0)) {
          Matrix& gu = ParentGrad(n_, 0);
          for (int i = 0; i < g.rows(); ++i) {
            double acc = 0.0;
            for (int j = 0; j < g.cols(); ++j) acc += g.At(i, j);
            gu.At(i, 0) += acc;
          }
        }
        if (ParentRequires(n_, 1)) {
          Matrix& gv = ParentGrad(n_, 1);
          for (int j = 0; j < g.cols(); ++j) {
            double acc = 0.0;
            for (int i = 0; i < g.rows(); ++i) acc += g.At(i, j);
            gv.At(j, 0) += acc;
          }
        }
      },
      "pairwise_sum");
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  DBG4ETH_CHECK_EQ(av.rows(), bv.rows());
  const int ac = av.cols();
  Matrix out = OutUninit(av.rows(), ac + bv.cols());
  for (int r = 0; r < av.rows(); ++r) {
    double* orow = out.RowPtr(r);
    std::memcpy(orow, av.RowPtr(r), static_cast<size_t>(ac) * sizeof(double));
    std::memcpy(orow + ac, bv.RowPtr(r),
                static_cast<size_t>(bv.cols()) * sizeof(double));
  }
  return MakeNode(
      std::move(out), {a, b},
      [ac](TensorNode* n) {
        const Matrix& g = n->grad;
        if (ParentRequires(n, 0)) {
          Matrix& ga = ParentGrad(n, 0);
          for (int r = 0; r < ga.rows(); ++r) {
            for (int c = 0; c < ac; ++c) ga.At(r, c) += g.At(r, c);
          }
        }
        if (ParentRequires(n, 1)) {
          Matrix& gb = ParentGrad(n, 1);
          for (int r = 0; r < gb.rows(); ++r) {
            for (int c = 0; c < gb.cols(); ++c) gb.At(r, c) += g.At(r, ac + c);
          }
        }
      },
      "concat_cols");
}

Tensor ConcatRows(const Tensor& a, const Tensor& b) {
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  DBG4ETH_CHECK_EQ(av.cols(), bv.cols());
  const int ar = av.rows();
  Matrix out = OutUninit(ar + bv.rows(), av.cols());
  if (!av.empty()) {
    std::memcpy(out.RowPtr(0), av.RowPtr(0), av.size() * sizeof(double));
  }
  if (!bv.empty()) {
    std::memcpy(out.RowPtr(ar), bv.RowPtr(0), bv.size() * sizeof(double));
  }
  return MakeNode(
      std::move(out), {a, b},
      [ar](TensorNode* n) {
        const Matrix& g = n->grad;
        if (ParentRequires(n, 0)) {
          Matrix& ga = ParentGrad(n, 0);
          for (int r = 0; r < ar; ++r) {
            for (int c = 0; c < ga.cols(); ++c) ga.At(r, c) += g.At(r, c);
          }
        }
        if (ParentRequires(n, 1)) {
          Matrix& gb = ParentGrad(n, 1);
          for (int r = 0; r < gb.rows(); ++r) {
            for (int c = 0; c < gb.cols(); ++c) gb.At(r, c) += g.At(ar + r, c);
          }
        }
      },
      "concat_rows");
}

Tensor ConcatRowsList(const std::vector<Tensor>& parts) {
  DBG4ETH_CHECK(!parts.empty());
  int total_rows = 0;
  const int cols = parts[0].cols();
  for (const Tensor& p : parts) {
    DBG4ETH_CHECK_EQ(p.cols(), cols);
    total_rows += p.rows();
  }
  Matrix out = OutUninit(total_rows, cols);
  int off = 0;
  for (const Tensor& p : parts) {
    const Matrix& v = p.value();
    if (!v.empty()) {
      std::memcpy(out.RowPtr(off), v.RowPtr(0), v.size() * sizeof(double));
    }
    off += v.rows();
  }
  return MakeNode(
      std::move(out), parts,
      [](TensorNode* n) {
        // Each part starts below the rows of the parts before it.
        int base = 0;
        for (int i = 0; i < static_cast<int>(n->parents.size()); ++i) {
          if (ParentRequires(n, i)) {
            Matrix& g = ParentGrad(n, i);
            for (int r = 0; r < g.rows(); ++r) {
              for (int c = 0; c < g.cols(); ++c) {
                g.At(r, c) += n->grad.At(base + r, c);
              }
            }
          }
          base += ParentValue(n, i).rows();
        }
      },
      "concat_rows_list");
}

Tensor SliceRows(const Tensor& a, int begin, int end) {
  const Matrix& av = a.value();
  DBG4ETH_CHECK(begin >= 0 && begin <= end && end <= av.rows());
  Matrix out = OutUninit(end - begin, av.cols());
  if (!out.empty()) {
    std::memcpy(out.RowPtr(0), av.RowPtr(begin), out.size() * sizeof(double));
  }
  return MakeNode(
      std::move(out), {a},
      [begin](TensorNode* n) {
        if (ParentRequires(n, 0)) {
          Matrix& g = ParentGrad(n, 0);
          for (int r = 0; r < n->grad.rows(); ++r) {
            for (int c = 0; c < n->grad.cols(); ++c) {
              g.At(begin + r, c) += n->grad.At(r, c);
            }
          }
        }
      },
      "slice_rows");
}

Tensor Transpose(const Tensor& a) {
  const Matrix& av = a.value();
  Matrix out = OutUninit(av.cols(), av.rows());
  for (int r = 0; r < av.rows(); ++r) {
    for (int c = 0; c < av.cols(); ++c) out.At(c, r) = av.At(r, c);
  }
  return MakeNode(
      std::move(out), {a},
      [](TensorNode* n) {
        if (ParentRequires(n, 0)) {
          ParentGrad(n, 0).AddInPlace(n->grad.Transposed());
        }
      },
      "transpose");
}

namespace {

/// Shared implementation for element-wise activations: forward maps each
/// entry, backward multiplies the upstream grad by dact(x, y).
template <typename Fwd, typename Bwd>
Tensor ElementwiseOp(const Tensor& a, Fwd fwd, Bwd bwd, const char* name) {
  Matrix out = OutCopy(a.value());
  for (int r = 0; r < out.rows(); ++r) {
    double* row = out.RowPtr(r);
    for (int c = 0; c < out.cols(); ++c) row[c] = fwd(row[c]);
  }
  return MakeNode(
      std::move(out), {a},
      [bwd](TensorNode* n) {
        if (!ParentRequires(n, 0)) return;
        Matrix& g = ParentGrad(n, 0);
        const Matrix& x = ParentValue(n, 0);
        const Matrix& y = n->value;
        for (int r = 0; r < g.rows(); ++r) {
          for (int c = 0; c < g.cols(); ++c) {
            g.At(r, c) += n->grad.At(r, c) * bwd(x.At(r, c), y.At(r, c));
          }
        }
      },
      name);
}

}  // namespace

Tensor Relu(const Tensor& a) {
  return ElementwiseOp(
      a, [](double x) { return x > 0 ? x : 0.0; },
      [](double x, double) { return x > 0 ? 1.0 : 0.0; }, "relu");
}

Tensor LeakyRelu(const Tensor& a, double negative_slope) {
  return ElementwiseOp(
      a,
      [negative_slope](double x) { return x > 0 ? x : negative_slope * x; },
      [negative_slope](double x, double) {
        return x > 0 ? 1.0 : negative_slope;
      },
      "leaky_relu");
}

Tensor Elu(const Tensor& a, double alpha) {
  return ElementwiseOp(
      a,
      [alpha](double x) { return x > 0 ? x : alpha * (std::exp(x) - 1.0); },
      [alpha](double x, double y) { return x > 0 ? 1.0 : y + alpha; }, "elu");
}

Tensor Tanh(const Tensor& a) {
  return ElementwiseOp(
      a, [](double x) { return std::tanh(x); },
      [](double, double y) { return 1.0 - y * y; }, "tanh");
}

Tensor Sigmoid(const Tensor& a) {
  return ElementwiseOp(
      a, [](double x) { return dbg4eth::Sigmoid(x); },
      [](double, double y) { return y * (1.0 - y); }, "sigmoid");
}

Tensor SoftmaxRows(const Tensor& a) {
  Matrix out = OutUninit(a.rows(), a.cols());
  SoftmaxRowsInto(a.value(), &out);
  return MakeNode(
      std::move(out), {a},
      [](TensorNode* n) {
        if (!ParentRequires(n, 0)) return;
        Matrix& g = ParentGrad(n, 0);
        const Matrix& y = n->value;
        for (int r = 0; r < y.rows(); ++r) {
          double dot = 0.0;
          for (int c = 0; c < y.cols(); ++c) {
            dot += n->grad.At(r, c) * y.At(r, c);
          }
          for (int c = 0; c < y.cols(); ++c) {
            g.At(r, c) += y.At(r, c) * (n->grad.At(r, c) - dot);
          }
        }
      },
      "softmax_rows");
}

Tensor MaskedSoftmaxRows(const Tensor& a,
                         std::shared_ptr<const SparseMatrix> support) {
  DBG4ETH_CHECK(support != nullptr);
  DBG4ETH_CHECK_EQ(support->rows(), a.rows());
  DBG4ETH_CHECK_EQ(support->cols(), a.cols());
  const std::vector<int>& offsets = support->row_offsets();
  const std::vector<int>& cols = support->col_indices();
  Matrix out = OutZeros(a.rows(), a.cols());
  for (int r = 0; r < a.rows(); ++r) {
    const int begin = offsets[r];
    const int end = offsets[r + 1];
    if (begin == end) continue;  // all-zero row
    const double* arow = a.value().RowPtr(r);
    double* orow = out.RowPtr(r);
    double max_v = -1e300;
    for (int e = begin; e < end; ++e) max_v = std::max(max_v, arow[cols[e]]);
    double denom = 0.0;
    for (int e = begin; e < end; ++e) denom += std::exp(arow[cols[e]] - max_v);
    for (int e = begin; e < end; ++e) {
      orow[cols[e]] = std::exp(arow[cols[e]] - max_v) / denom;
    }
  }
  return MakeNode(
      std::move(out), {a},
      [support = std::move(support)](TensorNode* n) {
        if (!ParentRequires(n, 0)) return;
        // Softmax Jacobian over the support: off-support outputs are
        // constant zero, so they neither give nor receive gradient.
        Matrix& g = ParentGrad(n, 0);
        const Matrix& y = n->value;
        const std::vector<int>& offsets = support->row_offsets();
        const std::vector<int>& cols = support->col_indices();
        for (int r = 0; r < y.rows(); ++r) {
          const double* yrow = y.RowPtr(r);
          const double* drow = n->grad.RowPtr(r);
          double* grow = g.RowPtr(r);
          double dot = 0.0;
          for (int e = offsets[r]; e < offsets[r + 1]; ++e) {
            dot += drow[cols[e]] * yrow[cols[e]];
          }
          for (int e = offsets[r]; e < offsets[r + 1]; ++e) {
            const int c = cols[e];
            grow[c] += yrow[c] * (drow[c] - dot);
          }
        }
      },
      "masked_softmax_rows");
}

Tensor SoftmaxColVector(const Tensor& a) {
  DBG4ETH_CHECK_EQ(a.cols(), 1);
  Tensor as_row = Transpose(a);
  Tensor soft = SoftmaxRows(as_row);
  return Transpose(soft);
}

Tensor SumAll(const Tensor& a) {
  Matrix out = OutUninit(1, 1);
  out.At(0, 0) = a.value().Sum();
  return MakeNode(
      std::move(out), {a},
      [](TensorNode* n) {
        if (!ParentRequires(n, 0)) return;
        Matrix& g = ParentGrad(n, 0);
        const double gv = n->grad.At(0, 0);
        for (int r = 0; r < g.rows(); ++r) {
          for (int c = 0; c < g.cols(); ++c) g.At(r, c) += gv;
        }
      },
      "sum_all");
}

Tensor MeanAll(const Tensor& a) {
  const double inv = 1.0 / static_cast<double>(a.value().size());
  return ScalarMul(SumAll(a), inv);
}

Tensor MaxPoolRows(const Tensor& a) {
  DBG4ETH_CHECK_GT(a.rows(), 0);
  const Matrix& av = a.value();
  Matrix out = OutUninit(1, av.cols());
  for (int c = 0; c < av.cols(); ++c) {
    double best = av.At(0, c);
    for (int r = 1; r < av.rows(); ++r) {
      if (av.At(r, c) > best) best = av.At(r, c);
    }
    out.At(0, c) = best;
  }
  return MakeNode(
      std::move(out), {a},
      [](TensorNode* n) {
        if (!ParentRequires(n, 0)) return;
        // The forward's scan again: the first row holding each maximum
        // takes the gradient.
        const Matrix& x = ParentValue(n, 0);
        Matrix& g = ParentGrad(n, 0);
        for (int c = 0; c < g.cols(); ++c) {
          int best_r = 0;
          for (int r = 1; r < x.rows(); ++r) {
            if (x.At(r, c) > x.At(best_r, c)) best_r = r;
          }
          g.At(best_r, c) += n->grad.At(0, c);
        }
      },
      "max_pool_rows");
}

Tensor MeanPoolRows(const Tensor& a) {
  const int n_rows = a.rows();
  Matrix out = OutUninit(1, a.cols());
  for (int c = 0; c < a.cols(); ++c) {
    double acc = 0.0;
    for (int r = 0; r < n_rows; ++r) acc += a.value().At(r, c);
    out.At(0, c) = acc / n_rows;
  }
  return MakeNode(
      std::move(out), {a},
      [n_rows](TensorNode* n) {
        if (!ParentRequires(n, 0)) return;
        Matrix& g = ParentGrad(n, 0);
        for (int c = 0; c < g.cols(); ++c) {
          const double gv = n->grad.At(0, c) / n_rows;
          for (int r = 0; r < g.rows(); ++r) g.At(r, c) += gv;
        }
      },
      "mean_pool_rows");
}

Tensor L2NormalizeRows(const Tensor& a, double eps) {
  Matrix out = OutCopy(a.value());
  for (int r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    for (int c = 0; c < a.cols(); ++c) {
      acc += out.At(r, c) * out.At(r, c);
    }
    const double norm = std::sqrt(acc) + eps;
    for (int c = 0; c < a.cols(); ++c) out.At(r, c) /= norm;
  }
  return MakeNode(
      std::move(out), {a},
      [eps](TensorNode* n) {
        if (!ParentRequires(n, 0)) return;
        const Matrix& x = ParentValue(n, 0);
        Matrix& g = ParentGrad(n, 0);
        const Matrix& y = n->value;
        for (int r = 0; r < y.rows(); ++r) {
          // The forward's row norm, summed in the same order.
          double acc = 0.0;
          for (int c = 0; c < x.cols(); ++c) acc += x.At(r, c) * x.At(r, c);
          const double norm = std::sqrt(acc) + eps;
          double dot = 0.0;
          for (int c = 0; c < y.cols(); ++c) {
            dot += n->grad.At(r, c) * y.At(r, c);
          }
          for (int c = 0; c < y.cols(); ++c) {
            g.At(r, c) += (n->grad.At(r, c) - dot * y.At(r, c)) / norm;
          }
        }
      },
      "l2_normalize_rows");
}

Tensor Dropout(const Tensor& a, double p, Rng* rng, bool training) {
  if (!training || p <= 0.0) return a;
  DBG4ETH_CHECK_LT(p, 1.0);
  Matrix mask(a.rows(), a.cols());
  const double scale = 1.0 / (1.0 - p);
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      mask.At(r, c) = rng->Bernoulli(p) ? 0.0 : scale;
    }
  }
  Matrix out = OutCopy(a.value());
  out.MulInPlace(mask);
  return MakeNode(
      std::move(out), {a},
      [mask = std::move(mask)](TensorNode* n) {
        if (!ParentRequires(n, 0)) return;
        ParentGrad(n, 0).AddInPlace(dbg4eth::Mul(n->grad, mask));
      },
      "dropout");
}

Tensor SoftmaxCrossEntropy(const Tensor& logits,
                           const std::vector<int>& labels) {
  DBG4ETH_CHECK_EQ(static_cast<size_t>(logits.rows()), labels.size());
  Matrix probs = SoftmaxRowsValue(logits.value());
  const int n = logits.rows();
  double loss = 0.0;
  for (int r = 0; r < n; ++r) {
    DBG4ETH_CHECK(labels[r] >= 0 && labels[r] < logits.cols());
    loss -= std::log(std::max(probs.At(r, labels[r]), 1e-12));
  }
  Matrix out = OutUninit(1, 1);
  out.At(0, 0) = loss / n;
  return MakeNode(
      std::move(out), {logits},
      [probs = std::move(probs), labels, n](TensorNode* node) {
        if (!ParentRequires(node, 0)) return;
        Matrix& g = ParentGrad(node, 0);
        const double gv = node->grad.At(0, 0) / n;
        for (int r = 0; r < probs.rows(); ++r) {
          for (int c = 0; c < probs.cols(); ++c) {
            const double delta = (c == labels[r]) ? 1.0 : 0.0;
            g.At(r, c) += gv * (probs.At(r, c) - delta);
          }
        }
      },
      "softmax_cross_entropy");
}

Matrix SoftmaxRowsValue(const Matrix& logits) {
  Matrix out(logits.rows(), logits.cols());
  SoftmaxRowsInto(logits, &out);
  return out;
}

}  // namespace ag
}  // namespace dbg4eth
