#include "ml/gbdt.h"

#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"

namespace dbg4eth {
namespace ml {

GbdtClassifier::GbdtClassifier(const GbdtConfig& config,
                               std::string display_name)
    : config_(config), name_(std::move(display_name)) {}

GbdtClassifier GbdtClassifier::XgboostStyle(GbdtConfig config) {
  config.tree.leaf_wise = false;
  return GbdtClassifier(config, "xgboost");
}

Status GbdtClassifier::Train(const Matrix& x, const std::vector<int>& y) {
  if (static_cast<size_t>(x.rows()) != y.size()) {
    return Status::InvalidArgument("feature/label size mismatch");
  }
  if (x.rows() == 0) return Status::InvalidArgument("empty training set");
  trees_.clear();

  // Prior log-odds.
  double positives = 0.0;
  for (int label : y) positives += label;
  const double p0 =
      Clamp(positives / y.size(), 1e-6, 1.0 - 1e-6);
  base_score_ = std::log(p0 / (1.0 - p0));

  const int n = x.rows();
  std::vector<double> score(n, base_score_);
  std::vector<double> grad(n), hess(n);
  std::vector<int> all_samples(n);
  for (int i = 0; i < n; ++i) all_samples[i] = i;

  double prev_loss = 1e300;
  for (int t = 0; t < config_.num_trees; ++t) {
    double loss = 0.0;
    for (int i = 0; i < n; ++i) {
      const double p = Sigmoid(score[i]);
      grad[i] = p - y[i];
      hess[i] = std::max(p * (1.0 - p), 1e-6);
      loss += -(y[i] * std::log(std::max(p, 1e-12)) +
                (1 - y[i]) * std::log(std::max(1.0 - p, 1e-12)));
    }
    loss /= n;
    if (prev_loss - loss < config_.early_stop_tol && t > 0) break;
    prev_loss = loss;

    RegressionTree tree;
    tree.Train(x, grad, hess, all_samples, config_.tree);
    for (int i = 0; i < n; ++i) {
      score[i] += config_.learning_rate * tree.Predict(x.RowPtr(i));
    }
    trees_.push_back(std::move(tree));
  }
  return Status::OK();
}

double GbdtClassifier::PredictScore(const double* row) const {
  double score = base_score_;
  for (const RegressionTree& tree : trees_) {
    score += config_.learning_rate * tree.Predict(row);
  }
  return score;
}

double GbdtClassifier::PredictProba(const double* row) const {
  return Sigmoid(PredictScore(row));
}

void GbdtClassifier::Save(BinaryWriter* writer) const {
  writer->WriteString("gbdt");
  writer->WriteString(name_);
  writer->WriteDouble(config_.learning_rate);
  writer->WriteDouble(base_score_);
  writer->WriteU32(static_cast<uint32_t>(trees_.size()));
  for (const RegressionTree& tree : trees_) tree.Save(writer);
}

Status GbdtClassifier::Load(BinaryReader* reader, int num_features) {
  DBG4ETH_RETURN_NOT_OK(reader->ExpectTag("gbdt"));
  DBG4ETH_RETURN_NOT_OK(reader->ReadString(&name_));
  DBG4ETH_RETURN_NOT_OK(reader->ReadDouble(&config_.learning_rate));
  DBG4ETH_RETURN_NOT_OK(reader->ReadDouble(&base_score_));
  uint32_t count = 0;
  DBG4ETH_RETURN_NOT_OK(reader->ReadU32(&count));
  // One tree at a time: a corrupt count runs out of stream, not memory.
  trees_.clear();
  for (uint32_t i = 0; i < count; ++i) {
    RegressionTree tree;
    DBG4ETH_RETURN_NOT_OK(tree.Load(reader, num_features));
    trees_.push_back(std::move(tree));
  }
  return Status::OK();
}

}  // namespace ml
}  // namespace dbg4eth
