#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <set>

#include "math/running_stats.h"
#include "math/special.h"

namespace texrheo {
namespace {

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, NextDoubleNonZeroNeverZero) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(rng.NextDoubleNonZero(), 0.0);
  }
}

TEST(RngTest, UniformMeanIsHalf) {
  Rng rng(11);
  math::RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.NextDouble());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.005);
}

TEST(RngTest, NextUintCoversRangeWithoutBias) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextUint(10)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 10.0, 5.0 * std::sqrt(n / 10.0));
  }
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(17);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // All 7 values hit in 1000 draws.
}

TEST(RngTest, GaussianMomentsMatchStandardNormal) {
  Rng rng(19);
  math::RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(29);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextCategorical(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(RngTest, CategoricalSingleElement) {
  Rng rng(1);
  EXPECT_EQ(rng.NextCategorical({5.0}), 0u);
}

TEST(RngTest, CategoricalFromLogsMatchesNormalizedDraw) {
  // Twin generators on one stream: the helper must pick the index that
  // NextCategorical picks over the LogSumExp-normalized weights, across
  // offsets that would overflow exp, spreads up to 700 nats, and -inf
  // entries (zero weight on both paths).
  const double neg_inf = -std::numeric_limits<double>::infinity();
  const size_t kSizes[] = {1, 2, 10, 17};
  Rng vectors(37);
  Rng shifted(41), normalized(41);
  std::vector<double> scratch, weights;
  for (int trial = 0; trial < 100000; ++trial) {
    const size_t k_count = kSizes[trial % 4];
    const double offset = vectors.NextUniform(-1000.0, 1000.0);
    const double spread = vectors.NextUniform(0.0, 700.0);
    std::vector<double> log_w(k_count);
    for (double& lw : log_w) {
      lw = vectors.NextBernoulli(0.1)
               ? neg_inf
               : offset - spread * vectors.NextDouble();
    }
    log_w[vectors.NextUint(k_count)] = offset;  // At least one finite.
    scratch.resize(k_count);
    const std::optional<size_t> drawn =
        shifted.NextCategoricalFromLogs(log_w, scratch);
    ASSERT_TRUE(drawn.has_value()) << "trial " << trial;
    const double norm = math::LogSumExp(log_w.data(), k_count);
    weights.resize(k_count);
    for (size_t k = 0; k < k_count; ++k) {
      weights[k] = std::exp(log_w[k] - norm);
    }
    ASSERT_EQ(*drawn, normalized.NextCategorical(weights)) << "trial " << trial;
  }
}

TEST(RngTest, CategoricalFromLogsRefusesNonFiniteWeights) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> refused = {
      {0.0, nan, 1.0}, {nan}, {nan, -inf}, {0.0, inf, 1.0},
      {inf},           {-inf, -inf, -inf}, {-inf}};
  for (const std::vector<double>& log_w : refused) {
    Rng rng(43), untouched(43);
    std::vector<double> weights(log_w.size());
    EXPECT_FALSE(rng.NextCategoricalFromLogs(log_w, weights).has_value());
    EXPECT_EQ(rng.NextU64(), untouched.NextU64()) << "a refusal drew";
  }
  // One finite entry among -inf ones is a sure draw.
  Rng rng(47);
  std::vector<double> weights(3);
  const std::optional<size_t> drawn =
      rng.NextCategoricalFromLogs({-inf, 2.0, -inf}, weights);
  ASSERT_TRUE(drawn.has_value());
  EXPECT_EQ(*drawn, 1u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng rng(37);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[static_cast<size_t>(i)] = i;
  std::vector<int> original = v;
  rng.Shuffle(v);
  EXPECT_NE(v, original);  // Probability of identity is ~1/50!.
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(41);
  Rng b = a.Fork();
  // Forked stream differs from parent's continuation.
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(RngTest, NextUniformRange) {
  Rng rng(43);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextUniform(-2.5, 7.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 7.5);
  }
}

TEST(RngTest, SaveRestoreRoundTripsBitExactly) {
  Rng rng(44);
  // Burn a few draws so the state is mid-stream.
  for (int i = 0; i < 17; ++i) rng.NextU64();
  Rng::State state = rng.SaveState();
  std::vector<uint64_t> expected;
  for (int i = 0; i < 32; ++i) expected.push_back(rng.NextU64());

  Rng restored(999);  // Different seed; RestoreState must overwrite fully.
  restored.RestoreState(state);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(restored.NextU64(), expected[static_cast<size_t>(i)]) << i;
  }
}

TEST(RngTest, SaveRestorePreservesCachedGaussianSpare) {
  Rng rng(45);
  // An odd number of NextGaussian() calls leaves a Marsaglia-polar spare
  // cached; dropping it would desynchronize a restored chain by one draw.
  rng.NextGaussian();
  Rng::State state = rng.SaveState();
  EXPECT_TRUE(state.has_cached_gaussian);
  std::vector<double> expected;
  for (int i = 0; i < 8; ++i) expected.push_back(rng.NextGaussian());

  Rng restored(999);
  restored.RestoreState(state);
  for (int i = 0; i < 8; ++i) {
    // Bit-exact equality, not approximate.
    EXPECT_EQ(restored.NextGaussian(), expected[static_cast<size_t>(i)]) << i;
  }
}

}  // namespace
}  // namespace texrheo
