#ifndef TEXRHEO_MATH_RUNNING_STATS_H_
#define TEXRHEO_MATH_RUNNING_STATS_H_

#include <cstddef>

#include "math/linalg.h"

namespace texrheo::math {

/// Welford accumulator for scalar mean/variance; numerically stable for
/// long streams (used by tests validating sampler moments and by the
/// rheology calibration).
class RunningStats {
 public:
  void Add(double x);

  size_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Unbiased sample variance; 0 when fewer than 2 observations.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Multivariate mean + scatter accumulator. `Scatter()` returns
/// sum_i (x_i - mean)(x_i - mean)^T, exactly the sufficient statistic the
/// Normal–Wishart posterior (paper eq. 4) consumes.
class RunningMoments {
 public:
  explicit RunningMoments(size_t dim);

  void Add(const Vector& x);

  /// Doubles in the packed moment row of a `dim`-vector x: x itself, then
  /// the upper triangle of x x^T row by row. Summing packed rows is Add
  /// without the lower triangle or the per-point heap vectors, for callers
  /// that regroup one fixed set of points many times.
  static size_t PackedSize(size_t dim);

  /// Writes x's packed moment row to out[0, PackedSize(x.size())).
  static void Pack(const Vector& x, double* out);

  /// The accumulator of `n` points of dimension `dim` whose packed rows sum
  /// to `packed_sum`. When the rows are summed from 0.0 in the order Add
  /// would have seen the points, the result is bit-identical to those Add
  /// calls: both sum every product x_r x_c in that order, and the lower
  /// triangle copies the upper one because IEEE multiplication commutes.
  static RunningMoments FromPackedSum(size_t n, size_t dim,
                                      const double* packed_sum);

  size_t count() const { return n_; }
  size_t dim() const { return sum_.size(); }
  Vector Mean() const;
  Matrix Scatter() const;
  /// Sample covariance (scatter / (n-1)); zero matrix when n < 2.
  Matrix Covariance() const;

 private:
  size_t n_ = 0;
  Vector sum_;
  Matrix sum_outer_;  // sum x x^T; scatter derived as sum_outer - n m m^T.
};

}  // namespace texrheo::math

#endif  // TEXRHEO_MATH_RUNNING_STATS_H_
