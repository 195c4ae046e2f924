#ifndef DBG4ETH_ML_TREE_H_
#define DBG4ETH_ML_TREE_H_

#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "tensor/matrix.h"

namespace dbg4eth {
namespace ml {

/// \brief Shared tree-growth parameters.
struct TreeConfig {
  int max_leaves = 8;
  int max_depth = 6;
  int min_samples_leaf = 5;
  /// L2 regularization on leaf values (gradient trees).
  double lambda = 1.0;
  double min_gain = 1e-7;
  /// Histogram bins for split finding (the LightGBM trick).
  int max_bins = 32;
  /// true = best-first/leaf-wise growth (LightGBM); false = level-wise
  /// growth bounded by max_depth (XGBoost-style).
  bool leaf_wise = true;
};

/// \brief Histogram-based regression tree fitted to gradients/hessians
/// (one boosting round of a gradient-boosted decision tree).
class RegressionTree {
 public:
  /// Trains on the rows listed in `samples`. grad/hess are full-length,
  /// indexed by row id.
  void Train(const Matrix& x, const std::vector<double>& grad,
             const std::vector<double>& hess, const std::vector<int>& samples,
             const TreeConfig& config);

  double Predict(const double* row) const;

  int num_leaves() const;
  bool trained() const { return !nodes_.empty(); }

  void Save(BinaryWriter* writer) const;
  Status Load(BinaryReader* reader, int num_features);

 private:
  struct Node {
    int feature = -1;  ///< -1 marks a leaf.
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    double value = 0.0;
  };
  std::vector<Node> nodes_;
};

/// \brief Classification tree with Gini splits and optional per-split
/// random feature subsampling (for random forests).
class ClassificationTree {
 public:
  /// `features_per_split` <= 0 uses all features.
  void Train(const Matrix& x, const std::vector<int>& y,
             const std::vector<int>& samples, const TreeConfig& config,
             int features_per_split, Rng* rng);

  /// P(y = 1).
  double PredictProba(const double* row) const;

  void Save(BinaryWriter* writer) const;
  Status Load(BinaryReader* reader, int num_features);

 private:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    double prob = 0.5;
  };
  int Build(const Matrix& x, const std::vector<int>& y,
            std::vector<int> samples, int depth, const TreeConfig& config,
            int features_per_split, Rng* rng);
  std::vector<Node> nodes_;
};

}  // namespace ml
}  // namespace dbg4eth

#endif  // DBG4ETH_ML_TREE_H_
