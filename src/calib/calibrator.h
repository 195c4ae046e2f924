#ifndef DBG4ETH_CALIB_CALIBRATOR_H_
#define DBG4ETH_CALIB_CALIBRATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"

namespace dbg4eth {
namespace calib {

/// \brief Binary-probability calibrator interface.
///
/// Fit consumes uncalibrated confidences in [0, 1] with their binary
/// labels (typically on a validation split); Calibrate maps a confidence to
/// a calibrated probability.
class Calibrator {
 public:
  virtual ~Calibrator() = default;

  virtual Status Fit(const std::vector<double>& scores,
                     const std::vector<int>& labels) = 0;

  virtual double Calibrate(double score) const = 0;

  std::vector<double> CalibrateAll(const std::vector<double>& scores) const {
    std::vector<double> out;
    out.reserve(scores.size());
    for (double s : scores) out.push_back(Calibrate(s));
    return out;
  }

  virtual std::string name() const = 0;

  /// True for the parametric family (temperature/Platt/beta), false for the
  /// non-parametric one (histogram/isotonic/BBQ).
  virtual bool parametric() const = 0;

  /// Checkpointing of the fitted state.
  virtual void Save(BinaryWriter* writer) const = 0;
  virtual Status Load(BinaryReader* reader) = 0;
};

/// The input check every calibrator's Fit runs first: `scores` and
/// `labels` are the same non-zero length, and every score is a finite
/// confidence in [0, 1] (NaN and ±inf are rejected).
Status ValidateInputs(const std::vector<double>& scores,
                      const std::vector<int>& labels);

/// The six calibration methods of Section IV-C in paper order:
/// temperature scaling, beta, logistic (parametric); histogram binning,
/// isotonic regression, BBQ (non-parametric).
std::vector<std::unique_ptr<Calibrator>> MakeAllCalibrators();

}  // namespace calib
}  // namespace dbg4eth

#endif  // DBG4ETH_CALIB_CALIBRATOR_H_
