#ifndef DBG4ETH_GNN_CONV_H_
#define DBG4ETH_GNN_CONV_H_

#include <memory>
#include <vector>

#include "gnn/linear.h"
#include "gnn/module.h"
#include "tensor/sparse.h"

namespace dbg4eth {

class Rng;

namespace gnn {

/// \brief Graph convolution (Kipf & Welling): H' = Â (H W) + b.
///
/// The propagation matrix Â is supplied per graph: a constant CSR operator
/// of the graph (Graph::NormalizedAdjacencySparse() or
/// Graph::WeightedAdjacencySparse()), or a differentiable dense adjacency
/// (DiffPool's pooled Â at deeper levels).
class GcnConv : public Module {
 public:
  GcnConv(int in_features, int out_features, Rng* rng);

  /// Dense propagation; `adj` may carry gradient.
  ag::Tensor Forward(const ag::Tensor& adj, const ag::Tensor& x) const;

  /// Sparse propagation with a constant CSR Â.
  ag::Tensor Forward(std::shared_ptr<const SparseMatrix> adj,
                     const ag::Tensor& x) const;

  std::vector<ag::Tensor> Parameters() const override;

 private:
  Linear linear_;
};

/// \brief Multi-head graph attention (Velickovic et al.).
///
/// Per head: e_ij = LeakyReLU(a_src . (W h_i) + a_dst . (W h_j)) restricted
/// to the support, alpha = softmax_j(e_ij), h'_i = sum_j alpha_ij W h_j.
/// Heads are concatenated.
class GatConv : public Module {
 public:
  /// `out_features` is the per-head width; output is heads * out_features.
  GatConv(int in_features, int out_features, int num_heads, Rng* rng,
          double negative_slope = 0.2);

  /// `support` is the attention support in CSR (adjacency + self loops,
  /// Graph::AttentionMaskSparse()). The softmax, the alpha @ hW head
  /// product and their backward visit support entries only.
  ag::Tensor Forward(const ag::Tensor& x,
                     const std::shared_ptr<const SparseMatrix>& support) const;

  std::vector<ag::Tensor> Parameters() const override;

  int num_heads() const { return num_heads_; }

 private:
  int num_heads_;
  double negative_slope_;
  std::vector<ag::Tensor> weights_;   ///< Per head, in x out.
  std::vector<ag::Tensor> attn_src_;  ///< Per head, out x 1.
  std::vector<ag::Tensor> attn_dst_;  ///< Per head, out x 1.
};

/// \brief Graph isomorphism convolution (Xu et al.):
/// H' = MLP((1 + eps) H + A H) with sum aggregation and learnable eps.
class GinConv : public Module {
 public:
  GinConv(int in_features, int hidden_features, int out_features, Rng* rng);

  /// `adj` is the plain symmetric adjacency without self loops.
  ag::Tensor Forward(const ag::Tensor& adj, const ag::Tensor& x) const;

  std::vector<ag::Tensor> Parameters() const override;

 private:
  Linear mlp1_;
  Linear mlp2_;
  ag::Tensor eps_;  ///< 1 x 1.
};

/// \brief GraphSAGE convolution with mean aggregation:
/// H' = H W_self + mean_neigh(H) W_neigh + b.
class SageConv : public Module {
 public:
  SageConv(int in_features, int out_features, Rng* rng);

  /// `mean_adj` is the row-normalized neighbor matrix (no self loops).
  ag::Tensor Forward(const ag::Tensor& mean_adj, const ag::Tensor& x) const;

  std::vector<ag::Tensor> Parameters() const override;

 private:
  Linear self_;
  Linear neigh_;
};

/// \brief APPNP (Klicpera et al.): MLP prediction followed by K steps of
/// personalized-PageRank propagation z <- (1-alpha) Â z + alpha h.
class Appnp : public Module {
 public:
  Appnp(int in_features, int hidden_features, int out_features, int k_steps,
        double alpha, Rng* rng);

  /// `norm_adj` is the constant CSR Â
  /// (Graph::NormalizedAdjacencySparse()).
  ag::Tensor Forward(std::shared_ptr<const SparseMatrix> norm_adj,
                     const ag::Tensor& x) const;

  std::vector<ag::Tensor> Parameters() const override;

 private:
  Linear fc1_;
  Linear fc2_;
  int k_steps_;
  double alpha_;
};

}  // namespace gnn
}  // namespace dbg4eth

#endif  // DBG4ETH_GNN_CONV_H_
