#include "common/math_util.h"

#include <algorithm>

#include "common/logging.h"

namespace dbg4eth {

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double StdDev(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = Mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(v.size()));
}

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  DBG4ETH_CHECK_EQ(a.size(), b.size());
  if (a.empty()) return 0.0;
  const double ma = Mean(a);
  const double mb = Mean(b);
  double cov = 0.0;
  double va = 0.0;
  double vb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  if (va <= 0.0 || vb <= 0.0) return 0.0;
  return cov / std::sqrt(va * vb);
}

double MaxOf(const std::vector<double>& v) {
  DBG4ETH_CHECK(!v.empty());
  return *std::max_element(v.begin(), v.end());
}

double Percentile(std::vector<double> v, double pct) {
  DBG4ETH_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const double rank = Clamp(pct, 0.0, 100.0) / 100.0 *
                      static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double LogSumExp(const std::vector<double>& v) {
  DBG4ETH_CHECK(!v.empty());
  const double m = MaxOf(v);
  double sum = 0.0;
  for (double x : v) sum += std::exp(x - m);
  return m + std::log(sum);
}

}  // namespace dbg4eth
