#ifndef DBG4ETH_ML_GBDT_H_
#define DBG4ETH_ML_GBDT_H_

#include <string>
#include <vector>

#include "ml/classifier.h"
#include "ml/tree.h"

namespace dbg4eth {
namespace ml {

/// \brief Gradient-boosted decision tree binary classifier with logistic
/// loss. `tree.leaf_wise = true` gives the LightGBM strategy (the paper's
/// classifier head), false the XGBoost-style level-wise baseline.
struct GbdtConfig {
  int num_trees = 60;
  double learning_rate = 0.1;
  TreeConfig tree;
  /// Stop early when training loss stops improving by more than this.
  double early_stop_tol = 1e-7;
};

class GbdtClassifier : public BinaryClassifier {
 public:
  explicit GbdtClassifier(const GbdtConfig& config = GbdtConfig(),
                          std::string display_name = "lightgbm");

  Status Train(const Matrix& x, const std::vector<int>& y) override;

  double PredictProba(const double* row) const override;
  /// Raw additive score (log-odds).
  double PredictScore(const double* row) const;

  std::string name() const override { return name_; }
  int num_trees_used() const { return static_cast<int>(trees_.size()); }

  void Save(BinaryWriter* writer) const override;
  Status Load(BinaryReader* reader, int num_features) override;

  /// Factory for the XGBoost-style variant (level-wise growth).
  static GbdtClassifier XgboostStyle(GbdtConfig config = GbdtConfig());

 private:
  GbdtConfig config_;
  std::string name_;
  double base_score_ = 0.0;  ///< Prior log-odds.
  std::vector<RegressionTree> trees_;
};

}  // namespace ml
}  // namespace dbg4eth

#endif  // DBG4ETH_ML_GBDT_H_
