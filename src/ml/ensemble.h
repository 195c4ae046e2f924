#ifndef DBG4ETH_ML_ENSEMBLE_H_
#define DBG4ETH_ML_ENSEMBLE_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/classifier.h"
#include "ml/tree.h"

namespace dbg4eth {
namespace ml {

/// \brief Random forest (Breiman 2001): bagged Gini trees with per-split
/// random feature subsets; probability is the tree average.
struct RandomForestConfig {
  int num_trees = 50;
  TreeConfig tree;
  /// <= 0 uses sqrt(d).
  int features_per_split = 0;
  uint64_t seed = 17;
};

class RandomForestClassifier : public BinaryClassifier {
 public:
  explicit RandomForestClassifier(
      const RandomForestConfig& config = RandomForestConfig());

  Status Train(const Matrix& x, const std::vector<int>& y) override;
  double PredictProba(const double* row) const override;
  std::string name() const override { return "random_forest"; }
  void Save(BinaryWriter* writer) const override;
  Status Load(BinaryReader* reader, int num_features) override;

 private:
  RandomForestConfig config_;
  std::vector<ClassificationTree> trees_;
};

/// \brief AdaBoost (Freund & Schapire 1996) over depth-1 decision stumps.
struct AdaBoostConfig {
  int num_stumps = 60;
  uint64_t seed = 19;
};

class AdaBoostClassifier : public BinaryClassifier {
 public:
  explicit AdaBoostClassifier(const AdaBoostConfig& config = AdaBoostConfig());

  Status Train(const Matrix& x, const std::vector<int>& y) override;
  double PredictProba(const double* row) const override;
  std::string name() const override { return "adaboost"; }
  void Save(BinaryWriter* writer) const override;
  Status Load(BinaryReader* reader, int num_features) override;

 private:
  struct Stump {
    int feature = 0;
    double threshold = 0.0;
    /// +1: predict 1 when value > threshold; -1: inverted.
    int polarity = 1;
    double alpha = 0.0;
  };
  AdaBoostConfig config_;
  std::vector<Stump> stumps_;
};

}  // namespace ml
}  // namespace dbg4eth

#endif  // DBG4ETH_ML_ENSEMBLE_H_
