#ifndef DBG4ETH_TENSOR_OPTIMIZER_H_
#define DBG4ETH_TENSOR_OPTIMIZER_H_

#include <vector>

#include "common/serialize.h"
#include "tensor/tensor.h"

namespace dbg4eth {
namespace ag {

/// \brief Adam (Kingma & Ba, 2015) with bias correction over a fixed
/// parameter list.
class Adam {
 public:
  Adam(std::vector<Tensor> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8, double weight_decay = 0.0);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one update using the parameters' accumulated gradients.
  void Step();

  /// Clears all parameter gradients.
  void ZeroGrad();

  /// Rescales gradients so their global L2 norm is at most max_norm.
  void ClipGradNorm(double max_norm);

  /// Serializes the first/second moments and the bias-correction step
  /// counter for training-resume checkpoints. Parameter *values* are not
  /// included — checkpoint them separately (ag::WriteParameters).
  void SaveState(BinaryWriter* writer) const;

  /// Restores state written by SaveState. The optimizer must be built over
  /// an equally shaped parameter list; count or shape mismatches return a
  /// clear error and leave the in-memory state untouched.
  Status LoadState(BinaryReader* reader);

  const std::vector<Tensor>& params() const { return params_; }
  int64_t step_count() const { return t_; }

  double lr() const { return lr_; }

 private:
  std::vector<Tensor> params_;
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  double weight_decay_;
  int64_t t_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace ag
}  // namespace dbg4eth

#endif  // DBG4ETH_TENSOR_OPTIMIZER_H_
