#ifndef DBG4ETH_ML_CLASSIFIER_H_
#define DBG4ETH_ML_CLASSIFIER_H_

#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "tensor/matrix.h"

namespace dbg4eth {
namespace ml {

/// \brief Common interface of the classifier heads compared in the paper's
/// Fig. 7 (LightGBM, MLP, random forest, AdaBoost, XGBoost).
class BinaryClassifier {
 public:
  virtual ~BinaryClassifier() = default;

  /// X: n x d feature rows, y: binary labels.
  virtual Status Train(const Matrix& x, const std::vector<int>& y) = 0;

  /// P(y = 1) for one feature row of the training dimensionality.
  virtual double PredictProba(const double* row) const = 0;

  std::vector<double> PredictProbaAll(const Matrix& x) const {
    std::vector<double> out;
    out.reserve(x.rows());
    for (int r = 0; r < x.rows(); ++r) out.push_back(PredictProba(x.RowPtr(r)));
    return out;
  }

  std::vector<int> PredictAll(const Matrix& x) const {
    std::vector<int> out;
    out.reserve(x.rows());
    for (int r = 0; r < x.rows(); ++r) {
      out.push_back(PredictProba(x.RowPtr(r)) > 0.5 ? 1 : 0);
    }
    return out;
  }

  virtual std::string name() const = 0;

  /// Checkpointing of the trained state. Load restores a model for rows
  /// of `num_features` entries: state that would read past such a row (a
  /// split or stump feature, an input width) is an error.
  virtual void Save(BinaryWriter* writer) const = 0;
  virtual Status Load(BinaryReader* reader, int num_features) = 0;
};

}  // namespace ml
}  // namespace dbg4eth

#endif  // DBG4ETH_ML_CLASSIFIER_H_
