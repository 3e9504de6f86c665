// Geweke (2004) joint-distribution tests for both production Gibbs
// samplers: the marginal-conditional (forward) and successive-conditional
// (Gibbs + exact data resample) chains target the same joint, so every test
// statistic's z-score must stay within Monte Carlo range. A derivation or
// implementation bug in the samplers' conditionals drives |z| far above the
// pass threshold — this is the strongest automated correctness check we
// have short of the brute-force exactness test.

#include "eval/geweke.h"

#include <gtest/gtest.h>

#include <cmath>

namespace texrheo::eval {
namespace {

// |z| threshold. With ~8 z-scores per run (4 statistics x 2 samplers) and a
// deterministic seed, 4 standard deviations leaves comfortable margin over
// Monte Carlo noise while still failing loudly on real bugs (broken
// conditionals typically produce |z| in the tens).
constexpr double kMaxAbsZ = 4.0;

void ExpectGewekePass(const GewekeResult& result) {
  ASSERT_EQ(result.statistic_names.size(), result.z_scores.size());
  ASSERT_EQ(result.forward_mean.size(), result.z_scores.size());
  ASSERT_EQ(result.gibbs_mean.size(), result.z_scores.size());
  for (size_t i = 0; i < result.z_scores.size(); ++i) {
    EXPECT_TRUE(std::isfinite(result.z_scores[i]))
        << result.statistic_names[i];
    EXPECT_LT(std::fabs(result.z_scores[i]), kMaxAbsZ)
        << result.statistic_names[i] << ": forward " << result.forward_mean[i]
        << " vs gibbs " << result.gibbs_mean[i];
  }
  EXPECT_LT(result.max_abs_z, kMaxAbsZ);
}

TEST(GewekeTest, InstantiatedSamplerPassesJointDistributionTest) {
  GewekeConfig config;
  config.sampler = SamplerKind::kInstantiated;
  auto result = RunGewekeTest(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectGewekePass(*result);
}

TEST(GewekeTest, CollapsedSamplerPassesJointDistributionTest) {
  GewekeConfig config;
  config.sampler = SamplerKind::kCollapsed;
  auto result = RunGewekeTest(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectGewekePass(*result);
}

TEST(GewekeTest, ReportsAllStatistics) {
  GewekeConfig config;
  config.forward_samples = 200;
  config.gibbs_samples = 200;
  config.burn_in = 20;
  auto result = RunGewekeTest(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->statistic_names.size(), 4u);
  for (double m : result->forward_mean) EXPECT_TRUE(std::isfinite(m));
  for (double m : result->gibbs_mean) EXPECT_TRUE(std::isfinite(m));
}

TEST(GewekeTest, RejectsDegenerateConfig) {
  GewekeConfig config;
  config.num_docs = 0;
  EXPECT_FALSE(RunGewekeTest(config).ok());

  GewekeConfig thin;
  thin.thin = 0;
  EXPECT_FALSE(RunGewekeTest(thin).ok());
}

TEST(GewekeTest, DeterministicAtFixedSeed) {
  GewekeConfig config;
  config.forward_samples = 150;
  config.gibbs_samples = 150;
  config.burn_in = 20;
  auto first = RunGewekeTest(config);
  auto second = RunGewekeTest(config);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->z_scores, second->z_scores);
  EXPECT_EQ(first->forward_mean, second->forward_mean);
}

}  // namespace
}  // namespace texrheo::eval
