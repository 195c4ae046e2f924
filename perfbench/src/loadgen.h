#ifndef DBG4ETH_PERFBENCH_LOADGEN_H_
#define DBG4ETH_PERFBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// \brief SplitMix64: the benchmark's own input generator. Kept separate
/// from the library's Rng so a change to the program can never change the
/// inputs the benchmark feeds it.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in (0, 1]: never 0, so -log(u) is finite.
  double UniformOpenZero();
  /// Uniform integer in [0, n); n > 0.
  uint64_t Below(uint64_t n);

 private:
  uint64_t state_;
};

/// Seed of one named input stream ("arrivals", "draws", ...) of a
/// workload seed, so streams stay independent of each other.
uint64_t StreamSeed(uint64_t workload_seed, const std::string& stream);

/// Intended send offsets, ascending, seconds from the schedule start, of a
/// Poisson arrival process at `rate_per_s` over [0, duration_s) conditioned
/// on its expected count of round(rate_per_s * duration_s) arrivals. Same
/// seed, same schedule.
std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double duration_s);

/// \brief Draws index i with probability weights[i] / sum(weights), by
/// binary search over the cumulative weights. Weights are >= 0 and at
/// least one is positive.
class WeightedSampler {
 public:
  explicit WeightedSampler(const std::vector<double>& weights);
  size_t Draw(SplitMix64* rng) const;

 private:
  std::vector<double> cdf_;
};

/// In-place Fisher-Yates shuffle driven by `rng`.
template <typename T>
void Shuffle(std::vector<T>* items, SplitMix64* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(rng->Below(i));
    std::swap((*items)[i - 1], (*items)[j]);
  }
}

/// The percentile rule: quantile `q` of `num_samples` samples is reported
/// only when at least `min_beyond` samples lie beyond its nearest rank.
bool SupportsQuantile(size_t num_samples, double q, size_t min_beyond = 10);

/// Splits sample indices into `parts` consecutive slices in time order
/// (`at_s[i]` is sample i's time); slices hold equal counts, within one.
std::vector<std::vector<size_t>> TimeSlices(const std::vector<double>& at_s,
                                            size_t parts);

/// Nearest-rank quantile `q` of `values[i]` over the indices i in `slice`.
double SliceQuantile(const std::vector<double>& values,
                     const std::vector<size_t>& slice, double q);

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
double Quantile(std::vector<double>* values, double q);

/// Median of `values` (sorted in place); 0 when empty.
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // DBG4ETH_PERFBENCH_LOADGEN_H_
