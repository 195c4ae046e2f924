#ifndef DBG4ETH_COMMON_MATH_UTIL_H_
#define DBG4ETH_COMMON_MATH_UTIL_H_

#include <cmath>
#include <vector>

namespace dbg4eth {

/// Numerically stable sigmoid.
inline double Sigmoid(double x) {
  if (x >= 0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

/// Clamps to [lo, hi].
inline double Clamp(double v, double lo, double hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

/// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& v);

/// Population standard deviation; 0 for fewer than two elements.
double StdDev(const std::vector<double>& v);

/// Pearson correlation coefficient; 0 when either side has zero variance.
double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b);

/// Maximum of a non-empty vector.
double MaxOf(const std::vector<double>& v);

/// Percentile in [0,100] via linear interpolation on a copy.
double Percentile(std::vector<double> v, double pct);

/// Stable log-sum-exp.
double LogSumExp(const std::vector<double>& v);

}  // namespace dbg4eth

#endif  // DBG4ETH_COMMON_MATH_UTIL_H_
