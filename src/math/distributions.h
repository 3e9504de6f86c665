#ifndef TEXRHEO_MATH_DISTRIBUTIONS_H_
#define TEXRHEO_MATH_DISTRIBUTIONS_H_

#include <vector>

#include "math/linalg.h"
#include "util/rng.h"
#include "util/status.h"

namespace texrheo::math {

/// Gamma(shape, scale) deviate (Marsaglia–Tsang squeeze; boosting for
/// shape < 1). Requires shape > 0 and scale > 0.
double GammaSample(Rng& rng, double shape, double scale);

/// Chi-squared deviate with k degrees of freedom.
double ChiSquaredSample(Rng& rng, double k);

/// Beta(a, b) deviate.
double BetaSample(Rng& rng, double a, double b);

/// Dirichlet deviate from a concentration vector (all entries > 0).
Vector DirichletSample(Rng& rng, const Vector& alpha);

/// Symmetric-Dirichlet convenience overload.
Vector DirichletSample(Rng& rng, size_t dim, double alpha);

/// Multivariate normal parameterized by mean and *precision* matrix, the
/// natural parameterization for the joint topic model's Gaussian topics
/// (paper eq. 1: g_d ~ N(mu_k, Lambda_k)). The Cholesky factor of the
/// precision and its log-determinant are cached at construction so that the
/// per-recipe likelihood evaluations in the Gibbs sweep (eq. 3) are cheap.
class Gaussian {
 public:
  /// Builds the distribution; FailedPrecondition when `precision` is not
  /// positive definite.
  static texrheo::StatusOr<Gaussian> FromPrecision(Vector mean,
                                                   Matrix precision);

  /// Builds from a covariance matrix (inverted internally).
  static texrheo::StatusOr<Gaussian> FromCovariance(Vector mean,
                                                    Matrix covariance);

  const Vector& mean() const { return mean_; }
  const Matrix& precision() const { return precision_; }
  double log_det_precision() const { return log_det_precision_; }
  size_t dim() const { return mean_.size(); }

  /// Covariance (precision inverse), computed on demand.
  Matrix Covariance() const;

  /// Log density at x.
  double LogPdf(const Vector& x) const;

  /// Draws a sample: x = mu + L^{-T} z where Lambda = L L^T.
  Vector Sample(Rng& rng) const;

 private:
  Gaussian(Vector mean, Matrix precision, Cholesky chol);

  Vector mean_;
  Matrix precision_;
  Cholesky precision_chol_;
  double log_det_precision_;
};

/// KL(p || q) between two Gaussians in closed form.
double GaussianKL(const Gaussian& p, const Gaussian& q);

/// Draws Lambda ~ Wishart(nu, scale) via the Bartlett decomposition.
/// Requires nu > dim - 1 and positive-definite `scale` (its Cholesky factor
/// is recomputed per call; hoist it if this ever becomes hot).
texrheo::StatusOr<Matrix> WishartSample(Rng& rng, double nu,
                                        const Matrix& scale);

/// Log density of the Wishart distribution at a positive-definite X.
texrheo::StatusOr<double> WishartLogPdf(const Matrix& x, double nu,
                                        const Matrix& scale);

/// Conjugate Normal–Wishart prior over (mean, precision) of a Gaussian:
///   Lambda ~ Wishart(nu, scale),  mu | Lambda ~ N(mu0, (beta Lambda)^{-1}).
/// This is the prior the paper places on each topic's gel and emulsion
/// Gaussians (hyperparameters mu0, beta, nu, S in eq. 1).
struct NormalWishartParams {
  Vector mu0;
  double beta = 1.0;
  double nu = 0.0;
  Matrix scale;  // "S" in the paper.

  size_t dim() const { return mu0.size(); }

  /// Validates shape/positivity constraints.
  texrheo::Status Validate() const;

  /// Posterior after observing n points with sample mean `mean` and scatter
  /// matrix sum (x_i - mean)(x_i - mean)^T (paper eq. 4's S_c, mu_c, nu_c,
  /// beta_c). With n == 0 returns the prior unchanged. Fails when the
  /// prior or updated scale matrix is not positive definite, which is how
  /// a non-finite feature in the sufficient statistics surfaces.
  texrheo::StatusOr<NormalWishartParams> Posterior(
      size_t n, const Vector& mean, const Matrix& scatter) const;

  /// Same update with a fractional effective count (responsibility-weighted
  /// sufficient statistics, as used by variational inference). With
  /// effective_n <= 0 returns the prior unchanged.
  texrheo::StatusOr<NormalWishartParams> PosteriorWeighted(
      double effective_n, const Vector& mean, const Matrix& scatter) const;
};

/// One draw (mu_k, Lambda_k) from a Normal–Wishart distribution; the result
/// is packaged as a ready-to-evaluate Gaussian.
texrheo::StatusOr<Gaussian> NormalWishartSample(Rng& rng,
                                                const NormalWishartParams& nw);

/// Posterior-mean point estimate: Lambda = nu * scale, mu = mu0. Useful for
/// deterministic initialization and for tests.
texrheo::StatusOr<Gaussian> NormalWishartMean(const NormalWishartParams& nw);

}  // namespace texrheo::math

#endif  // TEXRHEO_MATH_DISTRIBUTIONS_H_
