#include "math/distributions.h"

#include <cassert>
#include <cmath>

#include "math/special.h"

namespace texrheo::math {
namespace {

constexpr double kLog2Pi = 1.8378770664093454836;
constexpr double kLog2 = 0.6931471805599453094;

}  // namespace

double GammaSample(Rng& rng, double shape, double scale) {
  assert(shape > 0.0 && scale > 0.0);
  if (shape < 1.0) {
    // Boost: X ~ Gamma(a+1), U^{1/a} * X ~ Gamma(a).
    double u = rng.NextDoubleNonZero();
    return GammaSample(rng, shape + 1.0, scale) *
           std::pow(u, 1.0 / shape);
  }
  // Marsaglia–Tsang (2000).
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = rng.NextGaussian();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    double u = rng.NextDoubleNonZero();
    double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2) return d * v * scale;
    if (std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) {
      return d * v * scale;
    }
  }
}

double ChiSquaredSample(Rng& rng, double k) {
  return GammaSample(rng, 0.5 * k, 2.0);
}

double BetaSample(Rng& rng, double a, double b) {
  double x = GammaSample(rng, a, 1.0);
  double y = GammaSample(rng, b, 1.0);
  return x / (x + y);
}

Vector DirichletSample(Rng& rng, const Vector& alpha) {
  Vector out(alpha.size());
  double total = 0.0;
  for (size_t i = 0; i < alpha.size(); ++i) {
    out[i] = GammaSample(rng, alpha[i], 1.0);
    total += out[i];
  }
  // Guard against total underflowing to 0 for tiny concentrations.
  if (total <= 0.0) {
    size_t j = rng.NextUint(alpha.size());
    for (size_t i = 0; i < alpha.size(); ++i) out[i] = (i == j) ? 1.0 : 0.0;
    return out;
  }
  out *= 1.0 / total;
  return out;
}

Vector DirichletSample(Rng& rng, size_t dim, double alpha) {
  return DirichletSample(rng, Vector(dim, alpha));
}

Gaussian::Gaussian(Vector mean, Matrix precision, Cholesky chol)
    : mean_(std::move(mean)),
      precision_(std::move(precision)),
      precision_chol_(std::move(chol)),
      log_det_precision_(precision_chol_.LogDet()) {}

texrheo::StatusOr<Gaussian> Gaussian::FromPrecision(Vector mean,
                                                    Matrix precision) {
  if (mean.size() != precision.rows() || precision.rows() != precision.cols()) {
    return Status::InvalidArgument("mean/precision dimension mismatch");
  }
  auto chol = Cholesky::Factor(precision);
  if (!chol.ok()) {
    // Marginal (round-off non-PD) posteriors get the jitter ladder instead
    // of aborting the sampler run; the stored precision is rebuilt from the
    // damped factor so LogPdf stays internally consistent.
    TEXRHEO_ASSIGN_OR_RETURN(Cholesky damped, CholeskyWithJitter(precision));
    precision = damped.L().Multiply(damped.L().Transposed());
    return Gaussian(std::move(mean), std::move(precision), std::move(damped));
  }
  return Gaussian(std::move(mean), std::move(precision),
                  std::move(chol).value());
}

texrheo::StatusOr<Gaussian> Gaussian::FromCovariance(Vector mean,
                                                     Matrix covariance) {
  TEXRHEO_ASSIGN_OR_RETURN(Matrix precision, InversePD(covariance));
  return FromPrecision(std::move(mean), std::move(precision));
}

Matrix Gaussian::Covariance() const { return precision_chol_.Inverse(); }

double Gaussian::LogPdf(const Vector& x) const {
  assert(x.size() == dim());
  double quad = QuadraticForm(precision_, x, mean_);
  return 0.5 * (log_det_precision_ -
                static_cast<double>(dim()) * kLog2Pi - quad);
}

Vector Gaussian::Sample(Rng& rng) const {
  size_t n = dim();
  Vector z(n);
  for (size_t i = 0; i < n; ++i) z[i] = rng.NextGaussian();
  // x = mu + L^{-T} z where Lambda = L L^T gives cov (L L^T)^{-1}.
  const Matrix& l = precision_chol_.L();
  Vector w(n);
  for (size_t ii = n; ii-- > 0;) {
    double s = z[ii];
    for (size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * w[k];
    w[ii] = s / l(ii, ii);
  }
  return mean_ + w;
}

double GaussianKL(const Gaussian& p, const Gaussian& q) {
  assert(p.dim() == q.dim());
  size_t d = p.dim();
  Matrix cov_p = p.Covariance();
  // tr(Lambda_q Sigma_p)
  double trace_term = q.precision().Multiply(cov_p).Trace();
  double quad = QuadraticForm(q.precision(), p.mean(), q.mean());
  double log_det_term = p.log_det_precision() - q.log_det_precision();
  return 0.5 * (trace_term + quad - static_cast<double>(d) + log_det_term);
}

texrheo::StatusOr<Matrix> WishartSample(Rng& rng, double nu,
                                        const Matrix& scale) {
  size_t d = scale.rows();
  if (scale.cols() != d) {
    return Status::InvalidArgument("Wishart scale must be square");
  }
  if (nu <= static_cast<double>(d) - 1.0) {
    return Status::InvalidArgument("Wishart requires nu > dim - 1");
  }
  TEXRHEO_ASSIGN_OR_RETURN(Cholesky chol, CholeskyWithJitter(scale));
  // Bartlett: A lower-triangular, A_ii = sqrt(chi2(nu - i)), A_ij ~ N(0,1).
  Matrix a(d, d);
  for (size_t i = 0; i < d; ++i) {
    a(i, i) = std::sqrt(ChiSquaredSample(rng, nu - static_cast<double>(i)));
    for (size_t j = 0; j < i; ++j) a(i, j) = rng.NextGaussian();
  }
  Matrix la = chol.L().Multiply(a);
  return la.Multiply(la.Transposed());
}

texrheo::StatusOr<double> WishartLogPdf(const Matrix& x, double nu,
                                        const Matrix& scale) {
  size_t d = scale.rows();
  if (x.rows() != d || x.cols() != d || scale.cols() != d) {
    return Status::InvalidArgument("Wishart log-pdf dimension mismatch");
  }
  TEXRHEO_ASSIGN_OR_RETURN(Cholesky x_chol, Cholesky::Factor(x));
  TEXRHEO_ASSIGN_OR_RETURN(Cholesky s_chol, Cholesky::Factor(scale));
  Matrix s_inv = s_chol.Inverse();
  double dd = static_cast<double>(d);
  double log_pdf = 0.5 * (nu - dd - 1.0) * x_chol.LogDet() -
                   0.5 * s_inv.Multiply(x).Trace() -
                   0.5 * nu * dd * kLog2 - 0.5 * nu * s_chol.LogDet() -
                   LogMultivariateGamma(d, 0.5 * nu);
  return log_pdf;
}

texrheo::Status NormalWishartParams::Validate() const {
  size_t d = mu0.size();
  if (d == 0) return Status::InvalidArgument("NW: empty mean");
  if (scale.rows() != d || scale.cols() != d) {
    return Status::InvalidArgument("NW: scale dimension mismatch");
  }
  if (beta <= 0.0) return Status::InvalidArgument("NW: beta must be > 0");
  if (nu <= static_cast<double>(d) - 1.0) {
    return Status::InvalidArgument("NW: nu must exceed dim - 1");
  }
  return Cholesky::Factor(scale).status();
}

texrheo::StatusOr<NormalWishartParams> NormalWishartParams::Posterior(
    size_t n, const Vector& mean, const Matrix& scatter) const {
  return PosteriorWeighted(static_cast<double>(n), mean, scatter);
}

texrheo::StatusOr<NormalWishartParams> NormalWishartParams::PosteriorWeighted(
    double effective_n, const Vector& mean, const Matrix& scatter) const {
  if (effective_n <= 0.0) return *this;
  double nn = effective_n;
  NormalWishartParams post;
  post.beta = beta + nn;
  post.nu = nu + nn;
  post.mu0 = (1.0 / (nn + beta)) * (nn * mean + beta * mu0);
  // S_c^{-1} = S^{-1} + scatter + n*beta/(n+beta) (mean-mu0)(mean-mu0)^T
  TEXRHEO_ASSIGN_OR_RETURN(Matrix s_inv, InversePD(scale));
  Vector diff = mean - mu0;
  s_inv += scatter;
  s_inv += (nn * beta / (nn + beta)) * Matrix::Outer(diff, diff);
  TEXRHEO_ASSIGN_OR_RETURN(post.scale, InversePD(s_inv));
  return post;
}

texrheo::StatusOr<Gaussian> NormalWishartSample(
    Rng& rng, const NormalWishartParams& nw) {
  TEXRHEO_RETURN_IF_ERROR(nw.Validate());
  TEXRHEO_ASSIGN_OR_RETURN(Matrix lambda, WishartSample(rng, nw.nu, nw.scale));
  TEXRHEO_ASSIGN_OR_RETURN(Gaussian mu_dist,
                           Gaussian::FromPrecision(nw.mu0, nw.beta * lambda));
  Vector mu = mu_dist.Sample(rng);
  return Gaussian::FromPrecision(std::move(mu), std::move(lambda));
}

texrheo::StatusOr<Gaussian> NormalWishartMean(const NormalWishartParams& nw) {
  TEXRHEO_RETURN_IF_ERROR(nw.Validate());
  return Gaussian::FromPrecision(nw.mu0, nw.nu * nw.scale);
}

}  // namespace texrheo::math
