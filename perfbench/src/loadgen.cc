#include "loadgen.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix64::UniformOpenZero() {
  // 53 random mantissa bits mapped to (0, 1].
  return (static_cast<double>(Next() >> 11) + 1.0) * 0x1.0p-53;
}

uint64_t SplitMix64::Below(uint64_t n) {
  // Lemire's multiply-shift; the bias for the n used here (< 2^32) is
  // below 2^-32 and irrelevant to a benchmark input.
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(Next()) * n) >> 64);
}

uint64_t StreamSeed(uint64_t workload_seed, const std::string& stream) {
  // FNV-1a over the stream name, mixed with the workload seed.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : stream) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  SplitMix64 mix(h ^ (workload_seed * 0x9e3779b97f4a7c15ULL));
  return mix.Next();
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double duration_s) {
  std::vector<double> offsets;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return offsets;
  // Given its count, a Poisson process's arrival times are independent
  // uniform draws over the interval; fixing the count at its expectation
  // keeps run-to-run load identical while the spacing stays Poisson.
  const auto count = static_cast<size_t>(std::llround(rate_per_s * duration_s));
  offsets.reserve(count);
  SplitMix64 rng(seed);
  for (size_t i = 0; i < count; ++i) {
    offsets.push_back(duration_s * (1.0 - rng.UniformOpenZero()));
  }
  std::sort(offsets.begin(), offsets.end());
  return offsets;
}

WeightedSampler::WeightedSampler(const std::vector<double>& weights)
    : cdf_(weights.size()) {
  double total = 0.0;
  for (size_t k = 0; k < weights.size(); ++k) {
    total += weights[k];
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t WeightedSampler::Draw(SplitMix64* rng) const {
  // u in (0, 1] lands on the first index whose cumulative share reaches
  // it, so zero-weight indices are never drawn.
  const double u = rng->UniformOpenZero();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

bool SupportsQuantile(size_t num_samples, double q, size_t min_beyond) {
  const auto rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(num_samples)));
  return rank <= num_samples && num_samples - rank >= min_beyond;
}

std::vector<std::vector<size_t>> TimeSlices(const std::vector<double>& at_s,
                                            size_t parts) {
  std::vector<size_t> order(at_s.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return at_s[a] < at_s[b]; });
  parts = std::clamp<size_t>(parts, 1, std::max<size_t>(1, at_s.size()));
  std::vector<std::vector<size_t>> slices(parts);
  for (size_t k = 0; k < parts; ++k) {
    slices[k].assign(order.begin() + k * order.size() / parts,
                     order.begin() + (k + 1) * order.size() / parts);
  }
  return slices;
}

double SliceQuantile(const std::vector<double>& values,
                     const std::vector<size_t>& slice, double q) {
  std::vector<double> picked;
  picked.reserve(slice.size());
  for (size_t i : slice) picked.push_back(values[i]);
  return Quantile(&picked, q);
}

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const auto n = static_cast<double>(values->size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, values->size());
  return (*values)[rank - 1];
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

}  // namespace perfbench
