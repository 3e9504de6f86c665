#include "math/distributions.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "math/running_stats.h"

namespace texrheo::math {
namespace {

class GammaMomentsTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(GammaMomentsTest, MeanAndVarianceMatchTheory) {
  auto [shape, scale] = GetParam();
  texrheo::Rng rng(99);
  RunningStats stats;
  for (int i = 0; i < 60000; ++i) {
    double x = GammaSample(rng, shape, scale);
    EXPECT_GT(x, 0.0);
    stats.Add(x);
  }
  EXPECT_NEAR(stats.mean(), shape * scale, 0.05 * shape * scale + 0.01);
  EXPECT_NEAR(stats.variance(), shape * scale * scale,
              0.1 * shape * scale * scale + 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeScale, GammaMomentsTest,
    ::testing::Values(std::make_pair(0.5, 1.0), std::make_pair(1.0, 2.0),
                      std::make_pair(3.0, 0.5), std::make_pair(10.0, 1.0)));

TEST(ChiSquaredTest, MeanEqualsDof) {
  texrheo::Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 40000; ++i) stats.Add(ChiSquaredSample(rng, 7.0));
  EXPECT_NEAR(stats.mean(), 7.0, 0.15);
  EXPECT_NEAR(stats.variance(), 14.0, 0.8);
}

TEST(BetaTest, MomentsMatchTheory) {
  texrheo::Rng rng(6);
  double a = 2.0, b = 5.0;
  RunningStats stats;
  for (int i = 0; i < 40000; ++i) {
    double x = BetaSample(rng, a, b);
    EXPECT_GT(x, 0.0);
    EXPECT_LT(x, 1.0);
    stats.Add(x);
  }
  EXPECT_NEAR(stats.mean(), a / (a + b), 0.01);
}

TEST(DirichletTest, SamplesLieOnSimplex) {
  texrheo::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    Vector v = DirichletSample(rng, 4, 0.5);
    EXPECT_NEAR(v.Sum(), 1.0, 1e-12);
    for (size_t j = 0; j < v.size(); ++j) EXPECT_GE(v[j], 0.0);
  }
}

TEST(DirichletTest, MeanMatchesNormalizedConcentration) {
  texrheo::Rng rng(8);
  Vector alpha = {1.0, 2.0, 3.0};
  Vector mean(3);
  const int n = 40000;
  for (int i = 0; i < n; ++i) mean += DirichletSample(rng, alpha);
  mean *= 1.0 / n;
  EXPECT_NEAR(mean[0], 1.0 / 6.0, 0.01);
  EXPECT_NEAR(mean[1], 2.0 / 6.0, 0.01);
  EXPECT_NEAR(mean[2], 3.0 / 6.0, 0.01);
}

TEST(GaussianTest, LogPdfMatchesClosedFormInOneDim) {
  auto g = Gaussian::FromPrecision({0.0}, Matrix::Identity(1, 4.0));
  ASSERT_TRUE(g.ok());
  // N(0, sigma^2 = 1/4): logpdf(x) = -0.5 log(2 pi sigma^2) - x^2/(2 sigma^2).
  double sigma2 = 0.25;
  for (double x : {-1.0, 0.0, 0.7}) {
    double expected =
        -0.5 * std::log(2.0 * M_PI * sigma2) - x * x / (2.0 * sigma2);
    EXPECT_NEAR(g->LogPdf({x}), expected, 1e-12);
  }
}

TEST(GaussianTest, FromCovarianceAgreesWithFromPrecision) {
  Matrix cov(2, 2);
  cov(0, 0) = 2.0;
  cov(0, 1) = 0.5;
  cov(1, 0) = 0.5;
  cov(1, 1) = 1.0;
  auto a = Gaussian::FromCovariance({1.0, -1.0}, cov);
  ASSERT_TRUE(a.ok());
  auto b = Gaussian::FromPrecision({1.0, -1.0}, a->precision());
  ASSERT_TRUE(b.ok());
  Vector x = {0.3, 0.4};
  EXPECT_NEAR(a->LogPdf(x), b->LogPdf(x), 1e-12);
  EXPECT_LT(a->Covariance().MaxAbsDiff(cov), 1e-10);
}

TEST(GaussianTest, PdfIntegratesToOneOnGrid) {
  auto g = Gaussian::FromPrecision({0.0}, Matrix::Identity(1, 1.0));
  ASSERT_TRUE(g.ok());
  double sum = 0.0, dx = 0.01;
  for (double x = -8.0; x < 8.0; x += dx) sum += std::exp(g->LogPdf({x})) * dx;
  EXPECT_NEAR(sum, 1.0, 1e-4);
}

TEST(GaussianTest, SampleMomentsMatchParameters) {
  Matrix precision(2, 2);
  precision(0, 0) = 2.0;
  precision(0, 1) = -0.4;
  precision(1, 0) = -0.4;
  precision(1, 1) = 1.0;
  auto g = Gaussian::FromPrecision({3.0, -2.0}, precision);
  ASSERT_TRUE(g.ok());
  texrheo::Rng rng(9);
  RunningMoments moments(2);
  for (int i = 0; i < 60000; ++i) moments.Add(g->Sample(rng));
  EXPECT_NEAR(moments.Mean()[0], 3.0, 0.02);
  EXPECT_NEAR(moments.Mean()[1], -2.0, 0.02);
  Matrix expected_cov = g->Covariance();
  EXPECT_LT(moments.Covariance().MaxAbsDiff(expected_cov), 0.05);
}

TEST(GaussianTest, RejectsDimensionMismatch) {
  EXPECT_FALSE(Gaussian::FromPrecision({0.0, 0.0},
                                       Matrix::Identity(3)).ok());
}

TEST(GaussianKLTest, ZeroForIdenticalDistributions) {
  auto g = Gaussian::FromPrecision({1.0, 2.0}, Matrix::Identity(2, 3.0));
  ASSERT_TRUE(g.ok());
  EXPECT_NEAR(GaussianKL(*g, *g), 0.0, 1e-12);
}

TEST(GaussianKLTest, MatchesClosedFormOneDim) {
  // KL(N(m1, s1^2) || N(m2, s2^2)) =
  //   log(s2/s1) + (s1^2 + (m1-m2)^2) / (2 s2^2) - 1/2.
  double m1 = 1.0, s1 = 0.5, m2 = -1.0, s2 = 2.0;
  auto p = Gaussian::FromPrecision({m1}, Matrix::Identity(1, 1.0 / (s1 * s1)));
  auto q = Gaussian::FromPrecision({m2}, Matrix::Identity(1, 1.0 / (s2 * s2)));
  ASSERT_TRUE(p.ok() && q.ok());
  double expected = std::log(s2 / s1) +
                    (s1 * s1 + (m1 - m2) * (m1 - m2)) / (2.0 * s2 * s2) - 0.5;
  EXPECT_NEAR(GaussianKL(*p, *q), expected, 1e-10);
}

TEST(GaussianKLTest, NonNegativeAndAsymmetric) {
  auto p = Gaussian::FromPrecision({0.0}, Matrix::Identity(1, 1.0));
  auto q = Gaussian::FromPrecision({2.0}, Matrix::Identity(1, 0.25));
  ASSERT_TRUE(p.ok() && q.ok());
  double pq = GaussianKL(*p, *q);
  double qp = GaussianKL(*q, *p);
  EXPECT_GT(pq, 0.0);
  EXPECT_GT(qp, 0.0);
  EXPECT_NE(pq, qp);
}

TEST(WishartTest, MeanIsNuTimesScale) {
  Matrix scale = Matrix::Diagonal({0.5, 0.25});
  double nu = 6.0;
  texrheo::Rng rng(10);
  Matrix mean(2, 2);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    auto w = WishartSample(rng, nu, scale);
    ASSERT_TRUE(w.ok());
    mean += *w;
  }
  mean *= 1.0 / n;
  Matrix expected = nu * scale;
  EXPECT_LT(mean.MaxAbsDiff(expected), 0.1);
}

TEST(WishartTest, SamplesArePositiveDefinite) {
  texrheo::Rng rng(11);
  Matrix scale = Matrix::Identity(3, 0.5);
  for (int i = 0; i < 200; ++i) {
    auto w = WishartSample(rng, 5.0, scale);
    ASSERT_TRUE(w.ok());
    EXPECT_TRUE(Cholesky::Factor(*w).ok());
  }
}

TEST(WishartTest, RejectsInvalidDof) {
  EXPECT_FALSE([] {
    texrheo::Rng rng(1);
    return WishartSample(rng, 1.0, Matrix::Identity(3));
  }()
                   .ok());
}

TEST(WishartLogPdfTest, FiniteAndPeaksNearMode) {
  Matrix scale = Matrix::Identity(2, 1.0);
  double nu = 6.0;
  // Mode of Wishart = (nu - d - 1) S = 3 I; density there should exceed
  // density at a far point.
  auto at_mode = WishartLogPdf(Matrix::Identity(2, 3.0), nu, scale);
  auto far = WishartLogPdf(Matrix::Identity(2, 30.0), nu, scale);
  ASSERT_TRUE(at_mode.ok() && far.ok());
  EXPECT_GT(*at_mode, *far);
}

TEST(NormalWishartTest, ValidateCatchesBadParams) {
  NormalWishartParams nw;
  nw.mu0 = Vector{0.0, 0.0};
  nw.beta = 1.0;
  nw.nu = 4.0;
  nw.scale = Matrix::Identity(2);
  EXPECT_TRUE(nw.Validate().ok());
  nw.beta = -1.0;
  EXPECT_FALSE(nw.Validate().ok());
  nw.beta = 1.0;
  nw.nu = 0.5;  // Must exceed dim - 1 = 1.
  EXPECT_FALSE(nw.Validate().ok());
}

TEST(NormalWishartTest, PosteriorUpdatesMatchConjugateFormulas) {
  NormalWishartParams prior;
  prior.mu0 = Vector{0.0};
  prior.beta = 2.0;
  prior.nu = 3.0;
  prior.scale = Matrix::Identity(1, 0.5);

  // Three observations with mean 2 and scatter 8.
  Vector mean = {2.0};
  Matrix scatter = Matrix::Identity(1, 8.0);
  auto posterior = prior.Posterior(3, mean, scatter);
  ASSERT_TRUE(posterior.ok()) << posterior.status().ToString();
  const NormalWishartParams& post = *posterior;
  EXPECT_DOUBLE_EQ(post.beta, 5.0);
  EXPECT_DOUBLE_EQ(post.nu, 6.0);
  EXPECT_NEAR(post.mu0[0], (3.0 * 2.0 + 2.0 * 0.0) / 5.0, 1e-12);
  // S_c^{-1} = S^{-1} + scatter + (n beta / (n + beta)) (mean - mu0)^2.
  double s_inv = 1.0 / 0.5 + 8.0 + (3.0 * 2.0 / 5.0) * 4.0;
  EXPECT_NEAR(post.scale(0, 0), 1.0 / s_inv, 1e-12);
}

TEST(NormalWishartTest, PosteriorWithNoDataIsPrior) {
  NormalWishartParams prior;
  prior.mu0 = Vector{1.0, -1.0};
  prior.beta = 1.5;
  prior.nu = 4.0;
  prior.scale = Matrix::Identity(2, 0.3);
  auto posterior = prior.Posterior(0, Vector(2), Matrix(2, 2));
  ASSERT_TRUE(posterior.ok()) << posterior.status().ToString();
  const NormalWishartParams& post = *posterior;
  EXPECT_DOUBLE_EQ(post.beta, prior.beta);
  EXPECT_DOUBLE_EQ(post.nu, prior.nu);
  EXPECT_EQ(post.mu0, prior.mu0);
}

TEST(NormalWishartTest, PosteriorRejectsNonFiniteStatistics) {
  // A NaN feature poisons the mean and scatter; the update must report it
  // instead of returning a half-built posterior.
  NormalWishartParams prior;
  prior.mu0 = Vector{0.0, 0.0};
  prior.beta = 1.0;
  prior.nu = 4.0;
  prior.scale = Matrix::Identity(2, 0.5);
  Vector mean = {std::nan(""), 1.0};
  Matrix scatter = Matrix::Identity(2, 1.0);
  scatter(0, 0) = std::nan("");
  EXPECT_FALSE(prior.Posterior(3, mean, scatter).ok());
  EXPECT_FALSE(prior.PosteriorWeighted(1.5, mean, scatter).ok());
}

TEST(NormalWishartTest, PosteriorConcentratesWithData) {
  // With many observations the sampled mean approaches the data mean.
  NormalWishartParams prior;
  prior.mu0 = Vector{0.0};
  prior.beta = 1.0;
  prior.nu = 3.0;
  prior.scale = Matrix::Identity(1, 1.0);
  Vector data_mean = {5.0};
  Matrix scatter = Matrix::Identity(1, 100.0);  // var 0.1 over 1000 points.
  auto post = prior.Posterior(1000, data_mean, scatter);
  ASSERT_TRUE(post.ok()) << post.status().ToString();
  texrheo::Rng rng(12);
  RunningStats mu_stats;
  for (int i = 0; i < 500; ++i) {
    auto g = NormalWishartSample(rng, *post);
    ASSERT_TRUE(g.ok());
    mu_stats.Add(g->mean()[0]);
  }
  EXPECT_NEAR(mu_stats.mean(), 5.0, 0.05);
}

TEST(NormalWishartTest, MeanGaussianUsesExpectedPrecision) {
  NormalWishartParams nw;
  nw.mu0 = Vector{1.0, 2.0};
  nw.beta = 1.0;
  nw.nu = 5.0;
  nw.scale = Matrix::Identity(2, 0.2);
  auto g = NormalWishartMean(nw);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->mean(), nw.mu0);
  EXPECT_LT(g->precision().MaxAbsDiff(Matrix::Identity(2, 1.0)), 1e-12);
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

void ExpectSameBits(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      EXPECT_EQ(Bits(a(r, c)), Bits(b(r, c))) << "(" << r << ", " << c << ")";
    }
  }
}

void ExpectSameBits(const Vector& a, const Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(Bits(a[i]), Bits(b[i])) << "[" << i << "]";
  }
}

// A dense positive-definite 3x3 scale, B B^T + 0.5 I.
Matrix DenseScale(uint64_t seed) {
  texrheo::Rng rng(seed);
  Matrix b(3, 3);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) b(r, c) = rng.NextGaussian();
  }
  Matrix scale = b.Multiply(b.Transposed());
  for (size_t i = 0; i < 3; ++i) scale(i, i) += 0.5;
  return scale;
}

TEST(WishartTest, FactorOverloadDrawsTheSameMatrix) {
  const Matrix scale = DenseScale(13);
  auto chol = Cholesky::Factor(scale);
  ASSERT_TRUE(chol.ok());
  texrheo::Rng from_scale(14), from_factor(14);
  for (int i = 0; i < 50; ++i) {
    auto w = WishartSample(from_scale, 4.5, scale);
    ASSERT_TRUE(w.ok());
    ExpectSameBits(WishartSample(from_factor, 4.5, *chol), *w);
  }
}

TEST(NormalWishartTest, SampleIsTheWishartDrawThenTheMeanDraw) {
  // NormalWishartSample factors the scale once; its draws must be the
  // composition Lambda ~ W(nu, S), mu ~ N(mu0, (beta Lambda)^{-1}) on the
  // same stream, bit for bit.
  NormalWishartParams nw;
  nw.mu0 = Vector{0.5, -1.0, 2.0};
  nw.beta = 2.5;
  nw.nu = 5.0;
  nw.scale = DenseScale(15);
  texrheo::Rng sampled(16), composed(16);
  for (int i = 0; i < 50; ++i) {
    auto g = NormalWishartSample(sampled, nw);
    ASSERT_TRUE(g.ok());
    auto lambda = WishartSample(composed, nw.nu, nw.scale);
    ASSERT_TRUE(lambda.ok());
    auto mu_dist = Gaussian::FromPrecision(nw.mu0, nw.beta * *lambda);
    ASSERT_TRUE(mu_dist.ok());
    const Vector mu = mu_dist->Sample(composed);
    ExpectSameBits(g->mean(), mu);
    ExpectSameBits(g->precision(), *lambda);
  }
}

TEST(NormalWishartTest, PosteriorFromScaleInverseIsBitIdentical) {
  NormalWishartParams prior;
  prior.mu0 = Vector{1.0, 0.0, -2.0};
  prior.beta = 0.5;
  prior.nu = 6.0;
  prior.scale = DenseScale(17);
  auto inverse = InversePD(prior.scale);
  ASSERT_TRUE(inverse.ok());
  texrheo::Rng rng(18);
  RunningMoments moments(3);
  for (int i = 0; i < 25; ++i) {
    moments.Add({rng.NextGaussian(), 2.0 * rng.NextGaussian(),
                 rng.NextGaussian() - 3.0});
  }
  for (double n : {0.0, 2.5, 25.0}) {
    SCOPED_TRACE(n);
    auto direct = prior.PosteriorWeighted(n, moments.Mean(), moments.Scatter());
    auto given = prior.PosteriorWeighted(n, moments.Mean(), moments.Scatter(),
                                         *inverse);
    ASSERT_TRUE(direct.ok() && given.ok());
    EXPECT_EQ(Bits(given->beta), Bits(direct->beta));
    EXPECT_EQ(Bits(given->nu), Bits(direct->nu));
    ExpectSameBits(given->mu0, direct->mu0);
    ExpectSameBits(given->scale, direct->scale);
  }
}

}  // namespace
}  // namespace texrheo::math
