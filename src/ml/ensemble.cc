#include "ml/ensemble.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"

namespace dbg4eth {
namespace ml {

RandomForestClassifier::RandomForestClassifier(
    const RandomForestConfig& config)
    : config_(config) {}

Status RandomForestClassifier::Train(const Matrix& x,
                                     const std::vector<int>& y) {
  DBG4ETH_RETURN_NOT_OK(ValidateTrainingData(x, y));
  trees_.clear();
  Rng rng(config_.seed);
  const int n = x.rows();
  int mtry = config_.features_per_split;
  if (mtry <= 0) {
    mtry = std::max(1, static_cast<int>(std::sqrt(
                           static_cast<double>(x.cols()))));
  }
  for (int t = 0; t < config_.num_trees; ++t) {
    // Bootstrap sample.
    std::vector<int> samples(n);
    for (int i = 0; i < n; ++i) samples[i] = rng.UniformInt(n);
    ClassificationTree tree;
    tree.Train(x, y, samples, config_.tree, mtry, &rng);
    trees_.push_back(std::move(tree));
  }
  return Status::OK();
}

double RandomForestClassifier::PredictProba(const double* row) const {
  DBG4ETH_CHECK(!trees_.empty());
  double sum = 0.0;
  for (const ClassificationTree& tree : trees_) {
    sum += tree.PredictProba(row);
  }
  return sum / trees_.size();
}

AdaBoostClassifier::AdaBoostClassifier(const AdaBoostConfig& config)
    : config_(config) {}

Status AdaBoostClassifier::Train(const Matrix& x, const std::vector<int>& y) {
  DBG4ETH_RETURN_NOT_OK(ValidateTrainingData(x, y));
  stumps_.clear();
  const int n = x.rows();
  const int d = x.cols();
  std::vector<double> w(n, 1.0 / n);

  for (int round = 0; round < config_.num_stumps; ++round) {
    // Exhaustive weighted stump search over midpoints of sorted values.
    Stump best;
    double best_err = 1e300;
    for (int f = 0; f < d; ++f) {
      std::vector<std::pair<double, int>> vals(n);
      for (int i = 0; i < n; ++i) vals[i] = {x.At(i, f), i};
      std::sort(vals.begin(), vals.end());
      // err(threshold, polarity +1) = sum_{x<=thr, y=1} w + sum_{x>thr,y=0} w
      double w_pos_left = 0.0, w_neg_left = 0.0;
      double w_pos_total = 0.0, w_neg_total = 0.0;
      for (int i = 0; i < n; ++i) {
        (y[i] == 1 ? w_pos_total : w_neg_total) += w[i];
      }
      for (int i = 0; i + 1 < n; ++i) {
        const int idx = vals[i].second;
        (y[idx] == 1 ? w_pos_left : w_neg_left) += w[idx];
        if (vals[i].first == vals[i + 1].first) continue;
        const double thr = (vals[i].first + vals[i + 1].first) / 2.0;
        const double err_plus = w_pos_left + (w_neg_total - w_neg_left);
        const double err_minus = 1.0 - err_plus;
        if (err_plus < best_err) {
          best_err = err_plus;
          best = {f, thr, +1, 0.0};
        }
        if (err_minus < best_err) {
          best_err = err_minus;
          best = {f, thr, -1, 0.0};
        }
      }
    }
    best_err = Clamp(best_err, 1e-10, 1.0 - 1e-10);
    if (best_err >= 0.5) break;  // No weak learner better than chance.
    best.alpha = 0.5 * std::log((1.0 - best_err) / best_err);
    // Reweight.
    double w_sum = 0.0;
    for (int i = 0; i < n; ++i) {
      const int raw = x.At(i, best.feature) > best.threshold ? 1 : 0;
      const int pred = best.polarity > 0 ? raw : 1 - raw;
      const int yi = y[i];
      w[i] *= std::exp(pred == yi ? -best.alpha : best.alpha);
      w_sum += w[i];
    }
    for (double& wi : w) wi /= w_sum;
    stumps_.push_back(best);
    if (best_err < 1e-9) break;  // Perfect stump.
  }
  if (stumps_.empty()) {
    // Degenerate data: fall back to a constant majority stump.
    double positives = 0.0;
    for (int label : y) positives += label;
    Stump constant;
    constant.feature = 0;
    constant.threshold = -1e300;  // Always "value > threshold".
    constant.polarity = positives * 2 >= n ? 1 : -1;
    constant.alpha = 1.0;
    stumps_.push_back(constant);
  }
  return Status::OK();
}

void RandomForestClassifier::Save(BinaryWriter* writer) const {
  writer->WriteString("random_forest");
  writer->WriteU32(static_cast<uint32_t>(trees_.size()));
  for (const ClassificationTree& tree : trees_) tree.Save(writer);
}

Status RandomForestClassifier::Load(BinaryReader* reader,
                                    int num_features) {
  DBG4ETH_RETURN_NOT_OK(reader->ExpectTag("random_forest"));
  uint32_t count = 0;
  DBG4ETH_RETURN_NOT_OK(reader->ReadU32(&count));
  if (count == 0) return Status::Internal("corrupt checkpoint: empty forest");
  // One tree at a time: a corrupt count runs out of stream, not memory.
  trees_.clear();
  for (uint32_t i = 0; i < count; ++i) {
    ClassificationTree tree;
    DBG4ETH_RETURN_NOT_OK(tree.Load(reader, num_features));
    trees_.push_back(std::move(tree));
  }
  return Status::OK();
}

void AdaBoostClassifier::Save(BinaryWriter* writer) const {
  writer->WriteString("adaboost");
  writer->WriteU32(static_cast<uint32_t>(stumps_.size()));
  for (const Stump& s : stumps_) {
    writer->WriteI32(s.feature);
    writer->WriteDouble(s.threshold);
    writer->WriteI32(s.polarity);
    writer->WriteDouble(s.alpha);
  }
}

Status AdaBoostClassifier::Load(BinaryReader* reader, int num_features) {
  DBG4ETH_RETURN_NOT_OK(reader->ExpectTag("adaboost"));
  uint32_t count = 0;
  DBG4ETH_RETURN_NOT_OK(reader->ReadU32(&count));
  if (count == 0) return Status::Internal("corrupt checkpoint: no stumps");
  // One stump at a time: a corrupt count runs out of stream, not memory.
  stumps_.clear();
  for (uint32_t i = 0; i < count; ++i) {
    Stump s;
    DBG4ETH_RETURN_NOT_OK(reader->ReadI32(&s.feature));
    DBG4ETH_RETURN_NOT_OK(reader->ReadDouble(&s.threshold));
    DBG4ETH_RETURN_NOT_OK(reader->ReadI32(&s.polarity));
    DBG4ETH_RETURN_NOT_OK(reader->ReadDouble(&s.alpha));
    // A stump has no leaf marker: every feature must index the row.
    if (s.feature < 0 || s.feature >= num_features) {
      return Status::Internal(
          "corrupt checkpoint: stump feature outside the row");
    }
    stumps_.push_back(s);
  }
  return Status::OK();
}

double AdaBoostClassifier::PredictProba(const double* row) const {
  DBG4ETH_CHECK(!stumps_.empty());
  double margin = 0.0;
  double alpha_total = 0.0;
  for (const Stump& s : stumps_) {
    const int raw = row[s.feature] > s.threshold ? 1 : 0;
    const int pred = s.polarity > 0 ? raw : 1 - raw;
    margin += s.alpha * (pred == 1 ? 1.0 : -1.0);
    alpha_total += s.alpha;
  }
  // Squash the normalized margin into a probability.
  return Sigmoid(2.0 * margin / std::max(alpha_total, 1e-12));
}

}  // namespace ml
}  // namespace dbg4eth
