// Exact order statistics over raw samples, and the metric record the
// harness prints. No bucketing: a quantile is one of the recorded values.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// Nearest-rank quantile of `sorted` (ascending, non-empty): the smallest
/// recorded value with at least q * n values at or below it.
inline double SortedQuantile(const std::vector<double>& sorted, double q) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

/// Median and p99 of a sample set. p99 exists only when at least ten
/// samples lie beyond it (n >= 1000); callers must not report it otherwise.
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  bool has_p99 = false;
};

inline Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = SortedQuantile(samples, 0.5);
  s.has_p99 = s.n >= 1000;
  if (s.has_p99) s.p99 = SortedQuantile(samples, 0.99);
  return s;
}

inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return SortedQuantile(samples, 0.5);
}

/// One reported number: value, unit, and the sample count it came from
/// (0 for values that are not order statistics, such as counters).
struct Metric {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};
using MetricMap = std::map<std::string, Metric>;

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
