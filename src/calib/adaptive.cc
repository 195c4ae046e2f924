#include "calib/adaptive.h"

#include <cmath>

#include "calib/ece.h"
#include "common/logging.h"
#include "common/math_util.h"

namespace dbg4eth {
namespace calib {

AdaptiveCalibrator::AdaptiveCalibrator(
    const AdaptiveCalibratorConfig& config)
    : config_(config) {}

Status AdaptiveCalibrator::Fit(const std::vector<double>& scores,
                               const std::vector<int>& labels) {
  if (!config_.use_parametric && !config_.use_nonparametric) {
    return Status::InvalidArgument("no calibrator family enabled");
  }
  // Before the baseline ECE, whose binning indexes by score.
  DBG4ETH_RETURN_NOT_OK(ValidateInputs(scores, labels));
  calibrators_.clear();
  infos_.clear();
  for (auto& cal : MakeAllCalibrators()) {
    if (cal->parametric() && !config_.use_parametric) continue;
    if (!cal->parametric() && !config_.use_nonparametric) continue;
    calibrators_.push_back(std::move(cal));
  }

  baseline_ece_ =
      ExpectedCalibrationError(scores, labels, config_.ece_bins);

  // Per-method ECE reduction on the fit split (Eq. 25 numerator).
  std::vector<double> delta(calibrators_.size(), 0.0);
  for (size_t i = 0; i < calibrators_.size(); ++i) {
    DBG4ETH_RETURN_NOT_OK(calibrators_[i]->Fit(scores, labels));
    const double ece_after = ExpectedCalibrationError(
        calibrators_[i]->CalibrateAll(scores), labels, config_.ece_bins);
    delta[i] = baseline_ece_ - ece_after;
  }

  // Non-adaptive families share their family's mean ΔECE (uniform within
  // the family) before the joint normalization.
  std::vector<double> raw = delta;
  auto family_mean = [&](bool parametric) {
    double sum = 0.0;
    int count = 0;
    for (size_t i = 0; i < calibrators_.size(); ++i) {
      if (calibrators_[i]->parametric() == parametric) {
        sum += delta[i];
        ++count;
      }
    }
    return count > 0 ? sum / count : 0.0;
  };
  const double param_mean = family_mean(true);
  const double nonparam_mean = family_mean(false);
  for (size_t i = 0; i < calibrators_.size(); ++i) {
    const bool parametric = calibrators_[i]->parametric();
    if (parametric && !config_.adaptive_parametric) raw[i] = param_mean;
    if (!parametric && !config_.adaptive_nonparametric) raw[i] = nonparam_mean;
  }

  double total = 0.0;
  for (double r : raw) total += r;
  infos_.resize(calibrators_.size());
  for (size_t i = 0; i < calibrators_.size(); ++i) {
    infos_[i].name = calibrators_[i]->name();
    infos_[i].parametric = calibrators_[i]->parametric();
    infos_[i].delta_ece = delta[i];
    if (std::fabs(total) > 1e-9) {
      infos_[i].weight = raw[i] / total;  // Eq. 25; may be negative.
    } else {
      infos_[i].weight = 1.0 / calibrators_.size();
    }
  }
  fitted_ = true;
  return Status::OK();
}

double AdaptiveCalibrator::Calibrate(double score) const {
  DBG4ETH_CHECK(fitted_);
  double out = 0.0;
  for (size_t i = 0; i < calibrators_.size(); ++i) {
    out += infos_[i].weight * calibrators_[i]->Calibrate(score);
  }
  return Clamp(out, 0.0, 1.0);
}

void AdaptiveCalibrator::Save(BinaryWriter* writer) const {
  DBG4ETH_CHECK(fitted_);
  writer->WriteString("adaptive_calibrator");
  writer->WriteBool(config_.use_parametric);
  writer->WriteBool(config_.use_nonparametric);
  writer->WriteBool(config_.adaptive_parametric);
  writer->WriteBool(config_.adaptive_nonparametric);
  writer->WriteI32(config_.ece_bins);
  writer->WriteDouble(baseline_ece_);
  writer->WriteU32(static_cast<uint32_t>(calibrators_.size()));
  for (size_t i = 0; i < calibrators_.size(); ++i) {
    writer->WriteString(calibrators_[i]->name());
    writer->WriteDouble(infos_[i].delta_ece);
    writer->WriteDouble(infos_[i].weight);
    calibrators_[i]->Save(writer);
  }
}

Status AdaptiveCalibrator::Load(BinaryReader* reader) {
  DBG4ETH_RETURN_NOT_OK(reader->ExpectTag("adaptive_calibrator"));
  DBG4ETH_RETURN_NOT_OK(reader->ReadBool(&config_.use_parametric));
  DBG4ETH_RETURN_NOT_OK(reader->ReadBool(&config_.use_nonparametric));
  DBG4ETH_RETURN_NOT_OK(reader->ReadBool(&config_.adaptive_parametric));
  DBG4ETH_RETURN_NOT_OK(reader->ReadBool(&config_.adaptive_nonparametric));
  int32_t bins = 0;
  DBG4ETH_RETURN_NOT_OK(reader->ReadI32(&bins));
  config_.ece_bins = bins;
  DBG4ETH_RETURN_NOT_OK(reader->ReadDouble(&baseline_ece_));
  uint32_t count = 0;
  DBG4ETH_RETURN_NOT_OK(reader->ReadU32(&count));

  // Rebuild the method list exactly as Fit would, keyed by stored names.
  calibrators_.clear();
  infos_.clear();
  auto all = MakeAllCalibrators();
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    DBG4ETH_RETURN_NOT_OK(reader->ReadString(&name));
    MethodInfo info;
    info.name = name;
    DBG4ETH_RETURN_NOT_OK(reader->ReadDouble(&info.delta_ece));
    DBG4ETH_RETURN_NOT_OK(reader->ReadDouble(&info.weight));
    std::unique_ptr<Calibrator> method;
    for (auto& candidate : all) {
      if (candidate && candidate->name() == name) {
        method = std::move(candidate);
        break;
      }
    }
    if (method == nullptr) {
      return Status::Internal("unknown calibrator in checkpoint: " + name);
    }
    DBG4ETH_RETURN_NOT_OK(method->Load(reader));
    info.parametric = method->parametric();
    calibrators_.push_back(std::move(method));
    infos_.push_back(std::move(info));
  }
  fitted_ = true;
  return Status::OK();
}

std::vector<double> AdaptiveCalibrator::CalibrateAll(
    const std::vector<double>& scores) const {
  std::vector<double> out;
  out.reserve(scores.size());
  for (double s : scores) out.push_back(Calibrate(s));
  return out;
}

}  // namespace calib
}  // namespace dbg4eth
