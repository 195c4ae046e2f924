#include "calib/ece.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace dbg4eth {
namespace calib {

std::vector<ReliabilityBin> ReliabilityDiagram(
    const std::vector<double>& probs, const std::vector<int>& labels,
    int num_bins) {
  DBG4ETH_CHECK_EQ(probs.size(), labels.size());
  DBG4ETH_CHECK_GT(num_bins, 0);
  std::vector<double> conf_sum(num_bins, 0.0);
  std::vector<double> correct(num_bins, 0.0);
  std::vector<double> count(num_bins, 0.0);
  for (size_t i = 0; i < probs.size(); ++i) {
    // A NaN or out-of-range probability would index outside the bins.
    DBG4ETH_CHECK(probs[i] >= 0.0 && probs[i] <= 1.0)
        << "probability " << probs[i] << " is not in [0, 1]";
    const int pred = probs[i] > 0.5 ? 1 : 0;
    const double confidence = pred == 1 ? probs[i] : 1.0 - probs[i];
    int bin = static_cast<int>(confidence * num_bins);
    bin = std::min(bin, num_bins - 1);
    conf_sum[bin] += confidence;
    correct[bin] += pred == labels[i] ? 1.0 : 0.0;
    count[bin] += 1.0;
  }
  std::vector<ReliabilityBin> bins(num_bins);
  const double n = static_cast<double>(probs.size());
  for (int b = 0; b < num_bins; ++b) {
    if (count[b] > 0) {
      bins[b].mean_confidence = conf_sum[b] / count[b];
      bins[b].accuracy = correct[b] / count[b];
      bins[b].fraction = count[b] / n;
    }
  }
  return bins;
}

double ExpectedCalibrationError(const std::vector<double>& probs,
                                const std::vector<int>& labels,
                                int num_bins) {
  const auto bins = ReliabilityDiagram(probs, labels, num_bins);
  double ece = 0.0;
  for (const ReliabilityBin& bin : bins) {
    ece += bin.fraction * std::fabs(bin.accuracy - bin.mean_confidence);
  }
  return ece;
}

}  // namespace calib
}  // namespace dbg4eth
