#include "math/alias_table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace texrheo::math {
namespace {

TEST(AliasTableTest, RejectsEmptyAndInvalidWeights) {
  EXPECT_FALSE(AliasTable::Build({}).ok());
  EXPECT_FALSE(AliasTable::Build({0.0, 0.0}).ok());
  EXPECT_FALSE(AliasTable::Build({1.0, -0.5}).ok());
}

TEST(AliasTableTest, SingleBucketAlwaysReturnsZero) {
  auto table = AliasTable::Build({3.0});
  ASSERT_TRUE(table.ok());
  texrheo::Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table->Sample(rng), 0u);
}

TEST(AliasTableTest, MassReconstructionMatchesWeights) {
  std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  auto table = AliasTable::Build(weights);
  ASSERT_TRUE(table.ok());
  double total = 10.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(table->MassOf(i), weights[i] / total, 1e-12);
  }
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  auto table = AliasTable::Build({1.0, 0.0, 1.0});
  ASSERT_TRUE(table.ok());
  texrheo::Rng rng(2);
  for (int i = 0; i < 10000; ++i) EXPECT_NE(table->Sample(rng), 1u);
}

class AliasFrequencyTest : public ::testing::TestWithParam<int> {};

TEST_P(AliasFrequencyTest, EmpiricalFrequenciesMatchWeights) {
  texrheo::Rng weight_rng(static_cast<uint64_t>(GetParam()));
  size_t n = 2 + static_cast<size_t>(GetParam()) % 20;
  std::vector<double> weights(n);
  double total = 0.0;
  for (double& w : weights) {
    w = weight_rng.NextDouble() * 10.0;
    total += w;
  }
  auto table = AliasTable::Build(weights);
  ASSERT_TRUE(table.ok());
  texrheo::Rng rng(static_cast<uint64_t>(GetParam()) + 777);
  std::vector<int> counts(n, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) ++counts[table->Sample(rng)];
  for (size_t i = 0; i < n; ++i) {
    double expected = weights[i] / total;
    double observed = counts[i] / static_cast<double>(draws);
    EXPECT_NEAR(observed, expected, 0.01) << "bucket " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AliasFrequencyTest, ::testing::Range(0, 8));

// For small N the reconstructed per-bucket mass must match the analytic
// probability exactly up to rounding in the O(n) table construction, and
// the masses must form a probability distribution.
TEST(AliasTableTest, ExactDistributionForSmallN) {
  const std::vector<std::vector<double>> cases = {
      {1.0, 1.0},
      {1.0, 3.0},
      {0.2, 0.3, 0.5},
      {5.0, 1.0, 1.0, 1.0},
      {2.0, 4.0, 8.0, 16.0, 32.0},
  };
  for (const auto& weights : cases) {
    auto table = AliasTable::Build(weights);
    ASSERT_TRUE(table.ok());
    double total = 0.0;
    for (double w : weights) total += w;
    EXPECT_DOUBLE_EQ(table->total_weight(), total);
    double mass_sum = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
      EXPECT_NEAR(table->MassOf(i), weights[i] / total, 1e-14)
          << "bucket " << i;
      mass_sum += table->MassOf(i);
    }
    EXPECT_NEAR(mass_sum, 1.0, 1e-12);
  }
}

TEST(AliasTableTest, SingleEntryKeepsTotalWeight) {
  auto table = AliasTable::Build({7.5});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->size(), 1u);
  EXPECT_DOUBLE_EQ(table->total_weight(), 7.5);
  EXPECT_NEAR(table->MassOf(0), 1.0, 1e-15);
}

TEST(AliasTableTest, ManyZeroWeightsNeverSampled) {
  // Zero weights interleaved with positive ones in every position class
  // (first, middle, last): none may ever be drawn and the positive ones keep
  // their relative masses.
  std::vector<double> weights = {0.0, 2.0, 0.0, 0.0, 1.0, 0.0};
  auto table = AliasTable::Build(weights);
  ASSERT_TRUE(table.ok());
  texrheo::Rng rng(11);
  std::vector<int> counts(weights.size(), 0);
  for (int i = 0; i < 30000; ++i) ++counts[table->Sample(rng)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[2], 0);
  EXPECT_EQ(counts[3], 0);
  EXPECT_EQ(counts[5], 0);
  EXPECT_GT(counts[1], counts[4]);  // 2:1 expected ratio.
}

TEST(AliasTableTest, DenormalWeightsStayWellDefined) {
  // Subnormal magnitudes must not break the normalization: the table sees
  // only the ratios, which are exactly representable here.
  const double tiny = std::numeric_limits<double>::denorm_min();
  auto table = AliasTable::Build({tiny, 3.0 * tiny});
  ASSERT_TRUE(table.ok());
  EXPECT_NEAR(table->MassOf(0), 0.25, 1e-12);
  EXPECT_NEAR(table->MassOf(1), 0.75, 1e-12);
  texrheo::Rng rng(5);
  int hi = 0;
  const int draws = 40000;
  for (int i = 0; i < draws; ++i) {
    if (table->Sample(rng) == 1u) ++hi;
  }
  EXPECT_NEAR(hi / static_cast<double>(draws), 0.75, 0.02);
}

TEST(AliasTableTest, RebuildUnderChurnMatchesFreshBuild) {
  // A table built from weights that keep changing must be a pure function
  // of the weights at build time: building from churned weights and building
  // fresh from a copy must produce identical masses and identical draws
  // under the same RNG stream.
  texrheo::Rng churn_rng(21);
  std::vector<double> weights = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  for (int round = 0; round < 50; ++round) {
    const size_t i = churn_rng.NextUint(weights.size());
    weights[i] = churn_rng.NextDouble() * 4.0 + (i % 3 == 0 ? 0.0 : 0.5);
    double total = 0.0;
    for (double w : weights) total += w;
    if (total <= 0.0) continue;
    auto rebuilt = AliasTable::Build(weights);
    auto fresh = AliasTable::Build(std::vector<double>(weights));
    ASSERT_TRUE(rebuilt.ok());
    ASSERT_TRUE(fresh.ok());
    ASSERT_EQ(rebuilt->total_weight(), fresh->total_weight());
    for (size_t b = 0; b < weights.size(); ++b) {
      ASSERT_EQ(rebuilt->MassOf(b), fresh->MassOf(b)) << "round " << round;
    }
    texrheo::Rng ra(static_cast<uint64_t>(round));
    texrheo::Rng rb(static_cast<uint64_t>(round));
    for (int d = 0; d < 200; ++d) {
      ASSERT_EQ(rebuilt->Sample(ra), fresh->Sample(rb)) << "round " << round;
    }
  }
}

TEST(AliasTableTest, HighlySkewedWeights) {
  auto table = AliasTable::Build({1e-6, 1.0});
  ASSERT_TRUE(table.ok());
  texrheo::Rng rng(3);
  int rare = 0;
  for (int i = 0; i < 100000; ++i) {
    if (table->Sample(rng) == 0) ++rare;
  }
  EXPECT_LT(rare, 20);  // ~0.0001% expected.
}

}  // namespace
}  // namespace texrheo::math
