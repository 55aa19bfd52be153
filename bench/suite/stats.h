// Order statistics shared by the workloads, `monarch_suite compare` and
// the self-test. Percentiles are exact nearest-rank over raw samples (no
// histogram buckets); quartiles follow Python's
// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
// spreads the suite prints are the ones any external checker computes.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace suite {

/// Nearest-rank percentile, `p` in (0, 100]: the smallest sample with at
/// least p% of the samples at or below it. 0 for an empty input.
inline double NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const double rank = std::ceil(p / 100.0 * n);
  const auto index = static_cast<std::size_t>(std::clamp(rank, 1.0, n)) - 1;
  return samples[index];
}

/// Middle value (mean of the two middle values for an even count); 0 for
/// an empty input.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;

  /// Interquartile distance as a share of the median (0 when the median
  /// is 0): the run-to-run spread the benchmark's bounds are judged on.
  [[nodiscard]] double spread() const {
    return median == 0 ? 0 : (q3 - q1) / std::fabs(median);
  }
};

/// Quartiles by Python's exclusive method: cut points at i*(n+1)/4,
/// clamped to the sample range and linearly interpolated.
inline Quartiles QuartilesOf(std::vector<double> samples) {
  Quartiles q;
  if (samples.empty()) return q;
  std::sort(samples.begin(), samples.end());
  q.median = Median(samples);
  const long n = static_cast<long>(samples.size());
  if (n == 1) {
    q.q1 = q.q3 = samples[0];
    return q;
  }
  const auto cut = [&](long i) {
    const long m = n + 1;
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    return (samples[static_cast<std::size_t>(j - 1)] *
                static_cast<double>(4 - delta) +
            samples[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  q.q1 = cut(1);
  q.q3 = cut(3);
  return q;
}

}  // namespace suite
