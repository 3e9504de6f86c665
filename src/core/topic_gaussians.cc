#include "core/topic_gaussians.h"

#include <cassert>

namespace texrheo::core {
namespace {

// Same constant as math::Gaussian::LogPdf uses; the log normalizer must be
// built from the identical double for the bit-exactness contract to hold.
constexpr double kLog2Pi = 1.8378770664093454836;

}  // namespace

TopicGaussiansSoA TopicGaussiansSoA::FromGaussians(
    const std::vector<math::Gaussian>& topics) {
  TopicGaussiansSoA soa;
  if (topics.empty()) return soa;
  soa.k_ = topics.size();
  soa.dim_ = topics.front().dim();
  soa.mean_.resize(soa.dim_ * soa.k_);
  soa.prec_.resize(soa.dim_ * soa.dim_ * soa.k_);
  soa.log_norm_.resize(soa.k_);
  for (size_t k = 0; k < soa.k_; ++k) {
    const math::Gaussian& g = topics[k];
    assert(g.dim() == soa.dim_);
    for (size_t i = 0; i < soa.dim_; ++i) {
      soa.mean_[i * soa.k_ + k] = g.mean()[i];
      for (size_t j = 0; j < soa.dim_; ++j) {
        soa.prec_[(i * soa.dim_ + j) * soa.k_ + k] = g.precision()(i, j);
      }
    }
    soa.log_norm_[k] = g.log_det_precision() -
                       static_cast<double>(soa.dim_) * kLog2Pi;
  }
  return soa;
}

void TopicGaussiansSoA::BatchLogPdf(const math::Vector& x, Scratch& scratch,
                                    double* out) const {
  assert(x.size() == dim_);
  const size_t k_count = k_;
  scratch.diff.resize(dim_ * k_count);
  scratch.row.resize(k_count);
  double* diff = scratch.diff.data();
  double* row = scratch.row.data();
  for (size_t j = 0; j < dim_; ++j) {
    const double xj = x[j];
    const double* mj = &mean_[j * k_count];
    double* dj = &diff[j * k_count];
    for (size_t k = 0; k < k_count; ++k) dj[k] = xj - mj[k];
  }
  for (size_t k = 0; k < k_count; ++k) out[k] = 0.0;
  // Quadratic form, row by row: for each topic, row_i = sum_j P_ij d_j and
  // quad = sum_i d_i row_i, accumulated in exactly the order the scalar
  // path (and math::Gaussian::LogPdf via Matrix::Multiply + Dot) uses.
  for (size_t i = 0; i < dim_; ++i) {
    for (size_t k = 0; k < k_count; ++k) row[k] = 0.0;
    for (size_t j = 0; j < dim_; ++j) {
      const double* pj = &prec_[(i * dim_ + j) * k_count];
      const double* dj = &diff[j * k_count];
      for (size_t k = 0; k < k_count; ++k) row[k] += pj[k] * dj[k];
    }
    const double* di = &diff[i * k_count];
    for (size_t k = 0; k < k_count; ++k) out[k] += di[k] * row[k];
  }
  for (size_t k = 0; k < k_count; ++k) {
    out[k] = 0.5 * (log_norm_[k] - out[k]);
  }
}

double TopicGaussiansSoA::LogPdfScalar(size_t k, const math::Vector& x) const {
  assert(k < k_ && x.size() == dim_);
  // Each centered coordinate is recomputed where it is read (the same
  // subtraction, so the same bits), which keeps the path free of scratch.
  const double* xs = x.data().data();
  const auto centered = [&](size_t j) { return xs[j] - mean_[j * k_ + k]; };
  double quad = 0.0;
  for (size_t i = 0; i < dim_; ++i) {
    double row = 0.0;
    for (size_t j = 0; j < dim_; ++j) {
      row += prec_[(i * dim_ + j) * k_ + k] * centered(j);
    }
    quad += centered(i) * row;
  }
  return 0.5 * (log_norm_[k] - quad);
}

}  // namespace texrheo::core
