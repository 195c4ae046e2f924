#include "calib/parametric.h"

#include <cmath>

#include "common/math_util.h"

namespace dbg4eth {
namespace calib {

namespace {

constexpr double kEps = 1e-7;

double Logit(double p) {
  const double clamped = Clamp(p, kEps, 1.0 - kEps);
  return std::log(clamped / (1.0 - clamped));
}

double Nll(const std::vector<double>& probs, const std::vector<int>& labels) {
  double loss = 0.0;
  for (size_t i = 0; i < probs.size(); ++i) {
    const double p = Clamp(probs[i], kEps, 1.0 - kEps);
    loss -= labels[i] ? std::log(p) : std::log(1.0 - p);
  }
  return loss / probs.size();
}

}  // namespace

Status ValidateInputs(const std::vector<double>& scores,
                      const std::vector<int>& labels) {
  if (scores.size() != labels.size()) {
    return Status::InvalidArgument("scores/labels size mismatch");
  }
  if (scores.empty()) {
    return Status::InvalidArgument("empty calibration set");
  }
  for (double s : scores) {
    // NaN fails both comparisons; ±inf fails one.
    if (!(s >= 0.0 && s <= 1.0)) {
      return Status::InvalidArgument("scores must lie in [0, 1]");
    }
  }
  return Status::OK();
}

Status TemperatureScaling::Fit(const std::vector<double>& scores,
                               const std::vector<int>& labels) {
  DBG4ETH_RETURN_NOT_OK(ValidateInputs(scores, labels));
  std::vector<double> logits(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) logits[i] = Logit(scores[i]);

  auto nll_at = [&](double temp) {
    std::vector<double> probs(scores.size());
    for (size_t i = 0; i < scores.size(); ++i) {
      probs[i] = Sigmoid(logits[i] / temp);
    }
    return Nll(probs, labels);
  };
  // Golden-section search on T in [0.05, 20].
  const double phi = (std::sqrt(5.0) - 1.0) / 2.0;
  double lo = 0.05, hi = 20.0;
  double x1 = hi - phi * (hi - lo);
  double x2 = lo + phi * (hi - lo);
  double f1 = nll_at(x1);
  double f2 = nll_at(x2);
  for (int iter = 0; iter < 80; ++iter) {
    if (f1 < f2) {
      hi = x2;
      x2 = x1;
      f2 = f1;
      x1 = hi - phi * (hi - lo);
      f1 = nll_at(x1);
    } else {
      lo = x1;
      x1 = x2;
      f1 = f2;
      x2 = lo + phi * (hi - lo);
      f2 = nll_at(x2);
    }
  }
  temperature_ = (lo + hi) / 2.0;
  return Status::OK();
}

double TemperatureScaling::Calibrate(double score) const {
  return Sigmoid(Logit(score) / temperature_);
}

Status LogisticCalibration::Fit(const std::vector<double>& scores,
                                const std::vector<int>& labels) {
  DBG4ETH_RETURN_NOT_OK(ValidateInputs(scores, labels));
  std::vector<double> z(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) z[i] = Logit(scores[i]);
  const double n = static_cast<double>(scores.size());
  double a = 1.0, b = 0.0;
  double lr = 0.5;
  for (int iter = 0; iter < 500; ++iter) {
    double ga = 0.0, gb = 0.0;
    for (size_t i = 0; i < z.size(); ++i) {
      const double p = Sigmoid(a * z[i] + b);
      const double diff = p - labels[i];
      ga += diff * z[i];
      gb += diff;
    }
    a -= lr * ga / n;
    b -= lr * gb / n;
    if (iter == 300) lr *= 0.2;
  }
  a_ = a;
  b_ = b;
  return Status::OK();
}

double LogisticCalibration::Calibrate(double score) const {
  return Sigmoid(a_ * Logit(score) + b_);
}

Status BetaCalibration::Fit(const std::vector<double>& scores,
                            const std::vector<int>& labels) {
  DBG4ETH_RETURN_NOT_OK(ValidateInputs(scores, labels));
  const double n = static_cast<double>(scores.size());
  std::vector<double> lp(scores.size()), lq(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    const double p = Clamp(scores[i], kEps, 1.0 - kEps);
    lp[i] = std::log(p);
    lq[i] = std::log(1.0 - p);
  }
  double a = 1.0, b = 1.0, c = 0.0;
  double lr = 0.5;
  for (int iter = 0; iter < 800; ++iter) {
    double ga = 0.0, gb = 0.0, gc = 0.0;
    for (size_t i = 0; i < scores.size(); ++i) {
      const double p = Sigmoid(a * lp[i] - b * lq[i] + c);
      const double diff = p - labels[i];
      ga += diff * lp[i];
      gb += diff * -lq[i];
      gc += diff;
    }
    a -= lr * ga / n;
    b -= lr * gb / n;
    c -= lr * gc / n;
    // Beta calibration requires a, b >= 0 for monotonicity.
    a = std::max(a, 0.0);
    b = std::max(b, 0.0);
    if (iter == 500) lr *= 0.2;
  }
  a_ = a;
  b_ = b;
  c_ = c;
  return Status::OK();
}

double BetaCalibration::Calibrate(double score) const {
  const double p = Clamp(score, kEps, 1.0 - kEps);
  return Sigmoid(a_ * std::log(p) - b_ * std::log(1.0 - p) + c_);
}

void TemperatureScaling::Save(BinaryWriter* writer) const {
  writer->WriteDouble(temperature_);
}

Status TemperatureScaling::Load(BinaryReader* reader) {
  return reader->ReadDouble(&temperature_);
}

void LogisticCalibration::Save(BinaryWriter* writer) const {
  writer->WriteDouble(a_);
  writer->WriteDouble(b_);
}

Status LogisticCalibration::Load(BinaryReader* reader) {
  DBG4ETH_RETURN_NOT_OK(reader->ReadDouble(&a_));
  return reader->ReadDouble(&b_);
}

void BetaCalibration::Save(BinaryWriter* writer) const {
  writer->WriteDouble(a_);
  writer->WriteDouble(b_);
  writer->WriteDouble(c_);
}

Status BetaCalibration::Load(BinaryReader* reader) {
  DBG4ETH_RETURN_NOT_OK(reader->ReadDouble(&a_));
  DBG4ETH_RETURN_NOT_OK(reader->ReadDouble(&b_));
  return reader->ReadDouble(&c_);
}

}  // namespace calib
}  // namespace dbg4eth
