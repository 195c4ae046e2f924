#include "gnn/conv.h"

#include "common/logging.h"
#include "common/rng.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace dbg4eth {
namespace gnn {

GcnConv::GcnConv(int in_features, int out_features, Rng* rng)
    : linear_(in_features, out_features, rng) {}

ag::Tensor GcnConv::Forward(const ag::Tensor& adj, const ag::Tensor& x) const {
  return ag::MatMul(adj, linear_.Forward(x));
}

ag::Tensor GcnConv::Forward(std::shared_ptr<const SparseMatrix> adj,
                            const ag::Tensor& x) const {
  return ag::SpMM(std::move(adj), linear_.Forward(x));
}

std::vector<ag::Tensor> GcnConv::Parameters() const {
  return linear_.Parameters();
}

GatConv::GatConv(int in_features, int out_features, int num_heads, Rng* rng,
                 double negative_slope)
    : num_heads_(num_heads), negative_slope_(negative_slope) {
  DBG4ETH_CHECK_GT(num_heads, 0);
  for (int h = 0; h < num_heads; ++h) {
    weights_.push_back(
        ag::Tensor::Parameter(ag::XavierUniform(in_features, out_features,
                                                rng)));
    attn_src_.push_back(
        ag::Tensor::Parameter(ag::XavierUniform(out_features, 1, rng)));
    attn_dst_.push_back(
        ag::Tensor::Parameter(ag::XavierUniform(out_features, 1, rng)));
  }
}

ag::Tensor GatConv::Forward(
    const ag::Tensor& x,
    const std::shared_ptr<const SparseMatrix>& support) const {
  ag::Tensor out;
  for (int h = 0; h < num_heads_; ++h) {
    ag::Tensor hw = ag::MatMul(x, weights_[h]);
    ag::Tensor u = ag::MatMul(hw, attn_src_[h]);
    ag::Tensor v = ag::MatMul(hw, attn_dst_[h]);
    ag::Tensor scores =
        ag::LeakyRelu(ag::PairwiseSum(u, v), negative_slope_);
    ag::Tensor alpha = ag::MaskedSoftmaxRows(scores, support);
    ag::Tensor head = ag::MaskedSpMatMul(support, alpha, hw);
    out = h == 0 ? head : ag::ConcatCols(out, head);
  }
  return out;
}

std::vector<ag::Tensor> GatConv::Parameters() const {
  std::vector<ag::Tensor> params;
  for (int h = 0; h < num_heads_; ++h) {
    params.push_back(weights_[h]);
    params.push_back(attn_src_[h]);
    params.push_back(attn_dst_[h]);
  }
  return params;
}

GinConv::GinConv(int in_features, int hidden_features, int out_features,
                 Rng* rng)
    : mlp1_(in_features, hidden_features, rng),
      mlp2_(hidden_features, out_features, rng),
      eps_(ag::Tensor::Parameter(Matrix(1, 1))) {}

ag::Tensor GinConv::Forward(const ag::Tensor& adj, const ag::Tensor& x) const {
  // (1 + eps) * x: scale every row by the learnable scalar.
  ag::Tensor scale = ag::ScalarAdd(eps_, 1.0);  // 1x1
  ag::Tensor ones = ag::Tensor::Constant(Matrix::Ones(x.rows(), 1));
  ag::Tensor scale_col = ag::MatMul(ones, scale);           // N x 1
  ag::Tensor scale_full =
      ag::MatMul(scale_col, ag::Tensor::Constant(Matrix::Ones(1, x.cols())));
  ag::Tensor combined = ag::Add(ag::Mul(scale_full, x), ag::MatMul(adj, x));
  return mlp2_.Forward(ag::Relu(mlp1_.Forward(combined)));
}

std::vector<ag::Tensor> GinConv::Parameters() const {
  auto params = JoinParameters({&mlp1_, &mlp2_});
  params.push_back(eps_);
  return params;
}

SageConv::SageConv(int in_features, int out_features, Rng* rng)
    : self_(in_features, out_features, rng),
      neigh_(in_features, out_features, rng, /*bias=*/false) {}

ag::Tensor SageConv::Forward(const ag::Tensor& mean_adj,
                             const ag::Tensor& x) const {
  return ag::Add(self_.Forward(x), neigh_.Forward(ag::MatMul(mean_adj, x)));
}

std::vector<ag::Tensor> SageConv::Parameters() const {
  return JoinParameters({&self_, &neigh_});
}

Appnp::Appnp(int in_features, int hidden_features, int out_features,
             int k_steps, double alpha, Rng* rng)
    : fc1_(in_features, hidden_features, rng),
      fc2_(hidden_features, out_features, rng),
      k_steps_(k_steps),
      alpha_(alpha) {}

ag::Tensor Appnp::Forward(std::shared_ptr<const SparseMatrix> norm_adj,
                          const ag::Tensor& x) const {
  ag::Tensor h = fc2_.Forward(ag::Relu(fc1_.Forward(x)));
  ag::Tensor z = h;
  for (int k = 0; k < k_steps_; ++k) {
    z = ag::Add(ag::ScalarMul(ag::SpMM(norm_adj, z), 1.0 - alpha_),
                ag::ScalarMul(h, alpha_));
  }
  return z;
}

std::vector<ag::Tensor> Appnp::Parameters() const {
  return JoinParameters({&fc1_, &fc2_});
}

}  // namespace gnn
}  // namespace dbg4eth
