#include "calib/nonparametric.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "calib/parametric.h"
#include "common/math_util.h"

namespace dbg4eth {
namespace calib {

namespace {

Status ValidateInputs(const std::vector<double>& scores,
                      const std::vector<int>& labels) {
  if (scores.size() != labels.size()) {
    return Status::InvalidArgument("scores/labels size mismatch");
  }
  if (scores.empty()) {
    return Status::InvalidArgument("empty calibration set");
  }
  return Status::OK();
}

}  // namespace

Status HistogramBinning::Fit(const std::vector<double>& scores,
                             const std::vector<int>& labels) {
  DBG4ETH_RETURN_NOT_OK(ValidateInputs(scores, labels));
  std::vector<double> positives(num_bins_, 0.0);
  std::vector<double> totals(num_bins_, 0.0);
  for (size_t i = 0; i < scores.size(); ++i) {
    int bin = static_cast<int>(Clamp(scores[i], 0.0, 1.0) * num_bins_);
    bin = std::min(bin, num_bins_ - 1);
    totals[bin] += 1.0;
    positives[bin] += labels[i];
  }
  bin_probs_.resize(num_bins_);
  for (int b = 0; b < num_bins_; ++b) {
    // Laplace smoothing toward the bin midpoint keeps empty bins sane.
    const double prior = (b + 0.5) / num_bins_;
    bin_probs_[b] = (positives[b] + prior) / (totals[b] + 1.0);
  }
  return Status::OK();
}

double HistogramBinning::Calibrate(double score) const {
  if (std::isnan(score)) return score;  // No bin to read.
  int bin = static_cast<int>(Clamp(score, 0.0, 1.0) * num_bins_);
  bin = std::min(bin, num_bins_ - 1);
  return bin_probs_[bin];
}

Status IsotonicRegression::Fit(const std::vector<double>& scores,
                               const std::vector<int>& labels) {
  DBG4ETH_RETURN_NOT_OK(ValidateInputs(scores, labels));
  const size_t n = scores.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return scores[a] < scores[b];
  });

  // Pool-adjacent-violators over the sorted labels.
  struct Block {
    double sum;
    double count;
    double max_score;
    double value() const { return sum / count; }
  };
  std::vector<Block> blocks;
  for (size_t idx : order) {
    blocks.push_back({static_cast<double>(labels[idx]), 1.0, scores[idx]});
    while (blocks.size() >= 2 &&
           blocks[blocks.size() - 2].value() >= blocks.back().value()) {
      Block last = blocks.back();
      blocks.pop_back();
      blocks.back().sum += last.sum;
      blocks.back().count += last.count;
      blocks.back().max_score = last.max_score;
    }
  }
  thresholds_.clear();
  values_.clear();
  for (const Block& b : blocks) {
    thresholds_.push_back(b.max_score);
    values_.push_back(b.value());
  }
  return Status::OK();
}

double IsotonicRegression::Calibrate(double score) const {
  if (values_.empty()) return score;
  // First block whose upper score bound is >= score.
  auto it = std::lower_bound(thresholds_.begin(), thresholds_.end(), score);
  if (it == thresholds_.end()) return values_.back();
  return values_[static_cast<size_t>(it - thresholds_.begin())];
}

Status BbqCalibration::Fit(const std::vector<double>& scores,
                           const std::vector<int>& labels) {
  DBG4ETH_RETURN_NOT_OK(ValidateInputs(scores, labels));
  const size_t n = scores.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return scores[a] < scores[b];
  });

  // Candidate bin counts around sqrt(n)/ elbow, per Naeini et al.
  const int base = std::max(
      1, static_cast<int>(std::floor(std::cbrt(static_cast<double>(n)))));
  std::vector<int> bin_counts;
  for (int b = std::max(1, base / 2); b <= std::min<int>(3 * base, n); ++b) {
    bin_counts.push_back(b);
  }

  models_.clear();
  std::vector<double> log_scores;
  for (int num_bins : bin_counts) {
    BinningModel model;
    double log_marginal = 0.0;
    // Equal-frequency bins over the sorted scores.
    for (int b = 0; b < num_bins; ++b) {
      const size_t lo = n * b / num_bins;
      const size_t hi = n * (b + 1) / num_bins;
      if (lo >= hi) continue;
      double positives = 0.0;
      for (size_t i = lo; i < hi; ++i) positives += labels[order[i]];
      const double total = static_cast<double>(hi - lo);
      // Beta(1,1) prior: posterior mean and Beta-Binomial evidence.
      model.bin_probs.push_back((positives + 1.0) / (total + 2.0));
      log_marginal += std::lgamma(2.0) - std::lgamma(total + 2.0) +
                      std::lgamma(positives + 1.0) +
                      std::lgamma(total - positives + 1.0);
      if (b + 1 < num_bins && hi < n) {
        model.boundaries.push_back(
            (scores[order[hi - 1]] + scores[order[hi]]) / 2.0);
      }
    }
    model.weight = log_marginal;
    models_.push_back(std::move(model));
    log_scores.push_back(log_marginal);
  }
  // Normalize weights in log space.
  const double lse = LogSumExp(log_scores);
  for (BinningModel& m : models_) {
    m.weight = std::exp(m.weight - lse);
  }
  return Status::OK();
}

double BbqCalibration::Calibrate(double score) const {
  if (models_.empty()) return score;
  double out = 0.0;
  for (const BinningModel& m : models_) {
    auto it = std::upper_bound(m.boundaries.begin(), m.boundaries.end(),
                               score);
    const size_t bin = static_cast<size_t>(it - m.boundaries.begin());
    out += m.weight * m.bin_probs[std::min(bin, m.bin_probs.size() - 1)];
  }
  return out;
}

void HistogramBinning::Save(BinaryWriter* writer) const {
  writer->WriteI32(num_bins_);
  writer->WriteDoubleVector(bin_probs_);
}

Status HistogramBinning::Load(BinaryReader* reader) {
  int32_t bins = 0;
  DBG4ETH_RETURN_NOT_OK(reader->ReadI32(&bins));
  num_bins_ = bins;
  DBG4ETH_RETURN_NOT_OK(reader->ReadDoubleVector(&bin_probs_));
  if (num_bins_ < 1 || static_cast<int>(bin_probs_.size()) != num_bins_) {
    return Status::Internal("histogram checkpoint inconsistent");
  }
  return Status::OK();
}

void IsotonicRegression::Save(BinaryWriter* writer) const {
  writer->WriteDoubleVector(thresholds_);
  writer->WriteDoubleVector(values_);
}

Status IsotonicRegression::Load(BinaryReader* reader) {
  DBG4ETH_RETURN_NOT_OK(reader->ReadDoubleVector(&thresholds_));
  DBG4ETH_RETURN_NOT_OK(reader->ReadDoubleVector(&values_));
  if (thresholds_.size() != values_.size()) {
    return Status::Internal("isotonic checkpoint inconsistent");
  }
  return Status::OK();
}

void BbqCalibration::Save(BinaryWriter* writer) const {
  writer->WriteU32(static_cast<uint32_t>(models_.size()));
  for (const BinningModel& m : models_) {
    writer->WriteDoubleVector(m.boundaries);
    writer->WriteDoubleVector(m.bin_probs);
    writer->WriteDouble(m.weight);
  }
}

Status BbqCalibration::Load(BinaryReader* reader) {
  uint32_t count = 0;
  DBG4ETH_RETURN_NOT_OK(reader->ReadU32(&count));
  // One model at a time: a corrupt count runs out of stream, not memory.
  models_.clear();
  for (uint32_t i = 0; i < count; ++i) {
    BinningModel m;
    DBG4ETH_RETURN_NOT_OK(reader->ReadDoubleVector(&m.boundaries));
    DBG4ETH_RETURN_NOT_OK(reader->ReadDoubleVector(&m.bin_probs));
    DBG4ETH_RETURN_NOT_OK(reader->ReadDouble(&m.weight));
    if (m.bin_probs.empty()) {
      return Status::Internal("bbq checkpoint inconsistent");
    }
    models_.push_back(std::move(m));
  }
  return Status::OK();
}

std::vector<std::unique_ptr<Calibrator>> MakeAllCalibrators() {
  std::vector<std::unique_ptr<Calibrator>> out;
  out.push_back(std::make_unique<TemperatureScaling>());
  out.push_back(std::make_unique<BetaCalibration>());
  out.push_back(std::make_unique<LogisticCalibration>());
  out.push_back(std::make_unique<HistogramBinning>());
  out.push_back(std::make_unique<IsotonicRegression>());
  out.push_back(std::make_unique<BbqCalibration>());
  return out;
}

}  // namespace calib
}  // namespace dbg4eth
