#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Percentiles for the benchmark's latency metrics.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// A p99 read from fewer samples rests on fewer than ten observations
/// beyond it, so Percentile refuses it below this count.
constexpr size_t kMinSamplesForP99 = 1000;

/// The q-th percentile (0 < q < 100) of `samples`, linearly interpolated
/// between closest ranks (the convention of numpy's default and of
/// Python's statistics.quantiles(method="inclusive")). Returns NaN for an
/// empty input, and for q >= 99 when there are fewer than
/// kMinSamplesForP99 samples.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty() || q <= 0 || q >= 100) return std::nan("");
  if (q >= 99 && samples.size() < kMinSamplesForP99) return std::nan("");
  std::sort(samples.begin(), samples.end());
  double rank = q / 100.0 * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
