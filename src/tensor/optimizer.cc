#include "tensor/optimizer.h"

#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "tensor/serialize.h"

namespace dbg4eth {
namespace ag {

Adam::Adam(std::vector<Tensor> params, double lr, double beta1, double beta2,
           double eps, double weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Tensor& p : params_) {
    DBG4ETH_CHECK(p.defined());
    DBG4ETH_CHECK(p.requires_grad());
    m_.emplace_back(p.value().rows(), p.value().cols());
    v_.emplace_back(p.value().rows(), p.value().cols());
  }
}

void Adam::ZeroGrad() {
  for (Tensor& p : params_) p.ZeroGrad();
}

void Adam::ClipGradNorm(double max_norm) {
  double total = 0.0;
  for (Tensor& p : params_) {
    if (!p.has_grad()) continue;
    const double n = p.grad().Norm();
    total += n * n;
  }
  total = std::sqrt(total);
  if (total <= max_norm || total == 0.0) return;
  const double scale = max_norm / total;
  for (Tensor& p : params_) {
    if (!p.has_grad()) continue;
    p.node()->grad.ScaleInPlace(scale);
  }
}

void Adam::Step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    if (!p.has_grad()) continue;
    Matrix& value = p.mutable_value();
    const Matrix& grad = p.grad();
    Matrix& m = m_[i];
    Matrix& v = v_[i];
    for (int r = 0; r < value.rows(); ++r) {
      for (int c = 0; c < value.cols(); ++c) {
        const double g = grad.At(r, c) + weight_decay_ * value.At(r, c);
        m.At(r, c) = beta1_ * m.At(r, c) + (1.0 - beta1_) * g;
        v.At(r, c) = beta2_ * v.At(r, c) + (1.0 - beta2_) * g * g;
        const double m_hat = m.At(r, c) / bc1;
        const double v_hat = v.At(r, c) / bc2;
        value.At(r, c) -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
      }
    }
  }
}

void Adam::SaveState(BinaryWriter* writer) const {
  writer->WriteString("opt_adam");
  writer->WriteU64(static_cast<uint64_t>(t_));
  writer->WriteU32(static_cast<uint32_t>(m_.size()));
  for (size_t i = 0; i < m_.size(); ++i) {
    WriteMatrix(writer, m_[i]);
    WriteMatrix(writer, v_[i]);
  }
}

Status Adam::LoadState(BinaryReader* reader) {
  DBG4ETH_RETURN_NOT_OK(reader->ExpectTag("opt_adam"));
  uint64_t t = 0;
  DBG4ETH_RETURN_NOT_OK(reader->ReadU64(&t));
  uint32_t count = 0;
  DBG4ETH_RETURN_NOT_OK(reader->ReadU32(&count));
  if (count != params_.size()) {
    return Status::InvalidArgument(StrFormat(
        "Adam state holds %u parameter slots, optimizer has %zu", count,
        params_.size()));
  }
  // Everything is read and validated into temporaries first, so a corrupt
  // or mismatched stream never leaves the optimizer half-restored.
  std::vector<Matrix> m, v;
  m.reserve(count);
  v.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Matrix mi, vi;
    DBG4ETH_RETURN_NOT_OK(ReadMatrix(reader, &mi));
    DBG4ETH_RETURN_NOT_OK(ReadMatrix(reader, &vi));
    const Matrix& value = params_[i].value();
    if (mi.rows() != value.rows() || mi.cols() != value.cols() ||
        vi.rows() != value.rows() || vi.cols() != value.cols()) {
      return Status::InvalidArgument(StrFormat(
          "Adam state shape mismatch at parameter %u: state %dx%d / %dx%d, "
          "parameter %dx%d",
          i, mi.rows(), mi.cols(), vi.rows(), vi.cols(), value.rows(),
          value.cols()));
    }
    m.push_back(std::move(mi));
    v.push_back(std::move(vi));
  }
  t_ = static_cast<int64_t>(t);
  m_ = std::move(m);
  v_ = std::move(v);
  return Status::OK();
}

}  // namespace ag
}  // namespace dbg4eth
