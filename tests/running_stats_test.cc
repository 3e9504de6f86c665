#include "math/running_stats.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "util/rng.h"

namespace texrheo::math {
namespace {

TEST(RunningStatsTest, HandComputedMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of the classic dataset: 32 / 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, SingleValueHasZeroVariance) {
  RunningStats s;
  s.Add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, StableUnderLargeOffset) {
  // Welford should not lose precision when values share a huge offset.
  RunningStats s;
  double offset = 1e9;
  for (double x : {1.0, 2.0, 3.0}) s.Add(offset + x);
  EXPECT_NEAR(s.mean(), offset + 2.0, 1e-6);
  EXPECT_NEAR(s.variance(), 1.0, 1e-6);
}

TEST(RunningMomentsTest, MeanAndScatterHandComputed) {
  RunningMoments m(2);
  m.Add({1.0, 2.0});
  m.Add({3.0, 6.0});
  EXPECT_EQ(m.count(), 2u);
  Vector mean = m.Mean();
  EXPECT_DOUBLE_EQ(mean[0], 2.0);
  EXPECT_DOUBLE_EQ(mean[1], 4.0);
  Matrix scatter = m.Scatter();
  // Deviations: (-1,-2), (1,2) -> scatter [[2,4],[4,8]].
  EXPECT_DOUBLE_EQ(scatter(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(scatter(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(scatter(1, 1), 8.0);
}

TEST(RunningMomentsTest, EmptyAccumulatorIsZero) {
  RunningMoments m(3);
  EXPECT_EQ(m.count(), 0u);
  EXPECT_DOUBLE_EQ(m.Mean().Sum(), 0.0);
  EXPECT_DOUBLE_EQ(m.Scatter().Trace(), 0.0);
}

TEST(RunningMomentsTest, CovarianceMatchesScatterOverNMinusOne) {
  texrheo::Rng rng(3);
  RunningMoments m(2);
  for (int i = 0; i < 100; ++i) {
    m.Add({rng.NextGaussian(), rng.NextGaussian() * 2.0});
  }
  Matrix cov = m.Covariance();
  Matrix scatter = m.Scatter();
  EXPECT_NEAR(cov(0, 0), scatter(0, 0) / 99.0, 1e-12);
  EXPECT_NEAR(cov(1, 1), scatter(1, 1) / 99.0, 1e-12);
}

TEST(RunningMomentsTest, ScatterIsSymmetricPositiveSemiDefinite) {
  texrheo::Rng rng(4);
  RunningMoments m(3);
  for (int i = 0; i < 50; ++i) {
    m.Add({rng.NextGaussian(), rng.NextGaussian(), rng.NextGaussian()});
  }
  Matrix s = m.Scatter();
  EXPECT_TRUE(s.IsSymmetric(1e-9));
  for (size_t i = 0; i < 3; ++i) EXPECT_GE(s(i, i), 0.0);
}

TEST(RunningMomentsTest, RecoversKnownCovariance) {
  texrheo::Rng rng(5);
  RunningMoments m(2);
  // x ~ N(0,1), y = 0.5 x + noise(0, 0.1): cov(x,y) = 0.5.
  for (int i = 0; i < 100000; ++i) {
    double x = rng.NextGaussian();
    double y = 0.5 * x + 0.1 * rng.NextGaussian();
    m.Add({x, y});
  }
  Matrix cov = m.Covariance();
  EXPECT_NEAR(cov(0, 0), 1.0, 0.03);
  EXPECT_NEAR(cov(0, 1), 0.5, 0.02);
  EXPECT_NEAR(cov(1, 1), 0.26, 0.02);
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

TEST(RunningMomentsTest, PackedSumsMatchAddBitForBit) {
  texrheo::Rng rng(5);
  for (size_t dim : {1, 3, 6}) {
    SCOPED_TRACE(dim);
    const size_t packed = RunningMoments::PackedSize(dim);
    EXPECT_EQ(packed, dim + dim * (dim + 1) / 2);
    for (size_t n : {0, 1, 2, 37}) {
      RunningMoments added(dim);
      std::vector<double> sum(packed, 0.0), row(packed);
      for (size_t i = 0; i < n; ++i) {
        Vector x(dim);
        for (size_t j = 0; j < dim; ++j) x[j] = 3.0 * rng.NextGaussian() - 1.0;
        added.Add(x);
        RunningMoments::Pack(x, row.data());
        for (size_t j = 0; j < packed; ++j) sum[j] += row[j];
      }
      const RunningMoments summed =
          RunningMoments::FromPackedSum(n, dim, sum.data());
      ASSERT_EQ(summed.count(), n);
      const Vector mean_a = added.Mean(), mean_s = summed.Mean();
      const Matrix scatter_a = added.Scatter(), scatter_s = summed.Scatter();
      for (size_t r = 0; r < dim; ++r) {
        EXPECT_EQ(Bits(mean_s[r]), Bits(mean_a[r]));
        for (size_t c = 0; c < dim; ++c) {
          EXPECT_EQ(Bits(scatter_s(r, c)), Bits(scatter_a(r, c)));
        }
      }
    }
  }
}

}  // namespace
}  // namespace texrheo::math
