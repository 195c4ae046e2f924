#ifndef DBG4ETH_ML_MLP_H_
#define DBG4ETH_ML_MLP_H_

#include <memory>
#include <string>
#include <vector>

#include "gnn/linear.h"
#include "ml/classifier.h"

namespace dbg4eth {
namespace ml {

/// \brief Multi-layer perceptron classifier head (full-batch Adam on the
/// softmax cross-entropy). With empty `hidden_dims` this is logistic
/// regression.
struct MlpConfig {
  std::vector<int> hidden_dims = {32};
  int epochs = 300;
  double learning_rate = 0.01;
  double weight_decay = 1e-4;
  uint64_t seed = 23;
};

class MlpClassifier : public BinaryClassifier {
 public:
  explicit MlpClassifier(const MlpConfig& config = MlpConfig());

  Status Train(const Matrix& x, const std::vector<int>& y) override;
  double PredictProba(const double* row) const override;
  std::string name() const override { return "mlp"; }
  void Save(BinaryWriter* writer) const override;
  Status Load(BinaryReader* reader, int num_features) override;

 private:
  ag::Tensor ForwardLogits(const ag::Tensor& x) const;

  MlpConfig config_;
  int input_dim_ = 0;
  std::vector<std::unique_ptr<gnn::Linear>> layers_;
};

}  // namespace ml
}  // namespace dbg4eth

#endif  // DBG4ETH_ML_MLP_H_
