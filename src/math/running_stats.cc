#include "math/running_stats.h"

#include <cmath>

namespace texrheo::math {

void RunningStats::Add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++n_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

RunningMoments::RunningMoments(size_t dim)
    : sum_(dim), sum_outer_(dim, dim) {}

void RunningMoments::Add(const Vector& x) {
  ++n_;
  sum_ += x;
  sum_outer_.AddOuter(x);
}

Vector RunningMoments::Mean() const {
  Vector m = sum_;
  if (n_ > 0) m *= 1.0 / static_cast<double>(n_);
  return m;
}

Matrix RunningMoments::Scatter() const {
  Matrix s = sum_outer_;
  if (n_ > 0) {
    Vector m = Mean();
    s -= static_cast<double>(n_) * Matrix::Outer(m, m);
  }
  // Symmetrize and clip tiny negative diagonal from cancellation.
  for (size_t r = 0; r < s.rows(); ++r) {
    for (size_t c = r + 1; c < s.cols(); ++c) {
      double avg = 0.5 * (s(r, c) + s(c, r));
      s(r, c) = avg;
      s(c, r) = avg;
    }
    if (s(r, r) < 0.0) s(r, r) = 0.0;
  }
  return s;
}

Matrix RunningMoments::Covariance() const {
  Matrix s = Scatter();
  if (n_ >= 2) s *= 1.0 / static_cast<double>(n_ - 1);
  return s;
}

}  // namespace texrheo::math
