#include "math/regression.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <vector>

#include "core/checkpoint.h"
#include "core/collapsed_sampler.h"
#include "core/joint_topic_model.h"
#include "core/serialization.h"
#include "serve/snapshot.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace texrheo::math {
namespace {

TEST(FitLineTest, ExactLine) {
  auto fit = FitLine({1, 2, 3, 4}, {3, 5, 7, 9});  // y = 2x + 1.
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->slope, 2.0, 1e-12);
  EXPECT_NEAR(fit->intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit->r_squared, 1.0, 1e-12);
}

TEST(FitLineTest, NoisyLineRecoversSlope) {
  texrheo::Rng rng(1);
  std::vector<double> x, y;
  for (int i = 0; i < 500; ++i) {
    double xi = rng.NextUniform(0, 10);
    x.push_back(xi);
    y.push_back(-1.5 * xi + 4.0 + 0.1 * rng.NextGaussian());
  }
  auto fit = FitLine(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->slope, -1.5, 0.01);
  EXPECT_NEAR(fit->intercept, 4.0, 0.05);
  EXPECT_GT(fit->r_squared, 0.99);
}

TEST(FitLineTest, ErrorsOnDegenerateInput) {
  EXPECT_FALSE(FitLine({1}, {2}).ok());
  EXPECT_FALSE(FitLine({1, 1, 1}, {1, 2, 3}).ok());  // Constant x.
  EXPECT_FALSE(FitLine({1, 2}, {1}).ok());           // Length mismatch.
}

TEST(FitPowerLawTest, ExactPowerLaw) {
  // y = 3 x^2.
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y;
  for (double xi : x) y.push_back(3.0 * xi * xi);
  auto fit = FitPowerLaw(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->amplitude, 3.0, 1e-9);
  EXPECT_NEAR(fit->exponent, 2.0, 1e-9);
}

TEST(FitPowerLawTest, GelHardnessScale) {
  // Steep power law like gelatin hardness (exponent ~5) at small x.
  std::vector<double> x = {0.018, 0.02, 0.025, 0.03};
  std::vector<double> y;
  for (double xi : x) y.push_back(2.0e8 * std::pow(xi, 5.0));
  auto fit = FitPowerLaw(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->exponent, 5.0, 1e-6);
  EXPECT_NEAR(fit->amplitude / 2.0e8, 1.0, 1e-6);
}

TEST(FitPowerLawTest, RejectsNonPositive) {
  EXPECT_FALSE(FitPowerLaw({0.0, 1.0}, {1.0, 2.0}).ok());
  EXPECT_FALSE(FitPowerLaw({1.0, 2.0}, {-1.0, 2.0}).ok());
}

TEST(FitExponentialTest, ExactExponential) {
  // y = 0.5 exp(-3x).
  std::vector<double> x = {0.0, 0.1, 0.2, 0.5};
  std::vector<double> y;
  for (double xi : x) y.push_back(0.5 * std::exp(-3.0 * xi));
  auto fit = FitExponential(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->amplitude, 0.5, 1e-9);
  EXPECT_NEAR(fit->rate, -3.0, 1e-9);
}

TEST(FitExponentialTest, RejectsNonPositiveY) {
  EXPECT_FALSE(FitExponential({1.0, 2.0}, {1.0, 0.0}).ok());
}

class PowerLawRecoveryTest : public ::testing::TestWithParam<double> {};

TEST_P(PowerLawRecoveryTest, RecoversExponentUnderMildNoise) {
  double exponent = GetParam();
  texrheo::Rng rng(static_cast<uint64_t>(exponent * 10));
  std::vector<double> x, y;
  for (int i = 0; i < 200; ++i) {
    double xi = rng.NextUniform(0.01, 0.1);
    x.push_back(xi);
    y.push_back(5.0 * std::pow(xi, exponent) *
                std::exp(0.02 * rng.NextGaussian()));
  }
  auto fit = FitPowerLaw(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->exponent, exponent, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Exponents, PowerLawRecoveryTest,
                         ::testing::Values(0.5, 1.0, 2.0, 3.5, 5.0));

}  // namespace
}  // namespace texrheo::math

namespace texrheo::core {
namespace {

// --- Seeded end-to-end golden regression -------------------------------
//
// Pins the exact sampler trajectory of the serial (num_threads = 1) chain
// on a fixed hand-built corpus: the per-recipe topic assignments and each
// topic's top-5 terms after 40 sweeps at seed 11 must never change. Any
// edit that perturbs the serial chain's random-number consumption or its
// conditionals breaks this test — which is the point: the serial chain is
// the bit-exact reference the parallel engine is validated against, so it
// may only change deliberately (with regenerated goldens and a changelog
// note).

recipe::Dataset GoldenDataset() {
  recipe::Dataset ds;
  for (const char* term : {"toro", "puru", "fuwa", "shaki", "saku", "mochi"}) {
    ds.term_vocab.Add(term);
  }
  auto add = [&ds](std::vector<int32_t> terms, double gel, double emulsion) {
    recipe::Document doc;
    doc.recipe_index = ds.documents.size();
    doc.term_ids = std::move(terms);
    doc.gel_feature = math::Vector(1, gel);
    doc.emulsion_feature = math::Vector(1, emulsion);
    doc.gel_concentration = math::Vector(1, 0.02);
    doc.emulsion_concentration = math::Vector(1, 0.1);
    ds.documents.push_back(std::move(doc));
  };
  // Two planted clusters: soft/jiggly terms with low -log-concentration
  // vs crisp/chewy terms with high.
  add({0, 1, 2, 0}, 1.0, 0.2);
  add({1, 2, 1}, 1.2, 0.3);
  add({0, 0, 2, 1}, 0.9, 0.1);
  add({2, 1, 0}, 1.1, 0.2);
  add({3, 4, 5, 3}, 3.0, 1.0);
  add({4, 5, 4}, 3.2, 1.1);
  add({3, 3, 5, 4}, 2.9, 0.9);
  add({5, 4, 3}, 3.1, 1.0);
  return ds;
}

JointTopicModelConfig GoldenConfig() {
  JointTopicModelConfig config;
  config.num_topics = 2;
  config.alpha = 0.5;
  config.gamma = 0.5;
  config.auto_prior = false;
  math::NormalWishartParams nw;
  nw.mu0 = math::Vector(1, 2.0);
  nw.beta = 1.0;
  nw.nu = 3.0;
  nw.scale = math::Matrix::Identity(1, 0.5);
  config.gel_prior = nw;
  config.emulsion_prior = nw;
  config.seed = 11;
  config.num_threads = 1;
  return config;
}

std::vector<int> TopTerms(const std::vector<double>& phi_row, size_t n) {
  std::vector<int> order(phi_row.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return phi_row[static_cast<size_t>(a)] > phi_row[static_cast<size_t>(b)];
  });
  order.resize(std::min(n, order.size()));
  return order;
}

std::string Joined(const std::vector<int>& v) {
  std::ostringstream os;
  for (size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  return os.str();
}

TEST(GoldenRegressionTest, SerialChainTrajectoryIsPinned) {
  recipe::Dataset ds = GoldenDataset();
  auto model = JointTopicModel::Create(GoldenConfig(), &ds);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_TRUE(model->RunSweeps(40).ok());
  TopicEstimates estimates = model->Estimate();

  const std::vector<int> kGoldenDocTopic = {1, 1, 1, 1, 0, 0, 0, 0};
  const std::vector<int> kGoldenY = {1, 1, 1, 1, 0, 0, 0, 0};
  const std::vector<std::vector<int>> kGoldenTopTerms = {
      {3, 4, 5, 0, 1},
      {0, 1, 2, 3, 4},
  };

  EXPECT_EQ(estimates.doc_topic, kGoldenDocTopic)
      << "actual doc_topic: " << Joined(estimates.doc_topic);
  EXPECT_EQ(model->y(), kGoldenY) << "actual y: " << Joined(model->y());
  ASSERT_EQ(estimates.phi.size(), 2u);
  for (size_t k = 0; k < estimates.phi.size(); ++k) {
    std::vector<int> top = TopTerms(estimates.phi[k], 5);
    EXPECT_EQ(top, kGoldenTopTerms[k])
        << "topic " << k << " actual top terms: " << Joined(top);
  }
}

// --- Trajectory and fold-in byte pins ------------------------------------
//
// The golden above pins only coarse outcomes (hard topics, y, top terms) of
// an 8-document corpus, which a changed trajectory can still pass. These
// pins fix the *complete* sampler state after 30 sweeps: the CRC-32 of the
// encoded checkpoint (assignments, every count matrix, the RNG streams, the
// instantiated Gaussians or Student-t statistics, the likelihood trace)
// for both samplers, both z draws, and one- and four-thread chains. The
// fold-in pins fix the theta bytes the serving path returns for fixed
// queries and streams. The corpus is generated here from a fixed seed
// rather than by the corpus generator, so generator changes cannot move
// the values. A refactor must keep every value; a deliberate change to a
// sampler's trajectory must regenerate them and say so in the changelog.

constexpr size_t kPinVocab = 12;

recipe::Dataset PinnedCorpus() {
  recipe::Dataset ds;
  for (size_t v = 0; v < kPinVocab; ++v) {
    ds.term_vocab.Add("t" + std::to_string(v));
  }
  Rng rng(20221017);
  for (size_t d = 0; d < 48; ++d) {
    // Three planted clusters, each with its own four-term block and its
    // own region of the 2-D gel / emulsion feature spaces.
    const uint64_t cluster = rng.NextUint(3);
    recipe::Document doc;
    doc.recipe_index = d;
    const uint64_t length = 1 + rng.NextUint(5);
    for (uint64_t n = 0; n < length; ++n) {
      const uint64_t term = rng.NextDouble() < 0.8
                                ? cluster * 4 + rng.NextUint(4)
                                : rng.NextUint(kPinVocab);
      doc.term_ids.push_back(static_cast<int32_t>(term));
    }
    const double c = static_cast<double>(cluster);
    doc.gel_feature = math::Vector(2);
    doc.gel_feature[0] = 1.0 + 1.5 * c + 0.3 * rng.NextGaussian();
    doc.gel_feature[1] = 2.0 - 0.5 * c + 0.3 * rng.NextGaussian();
    doc.emulsion_feature = math::Vector(2);
    doc.emulsion_feature[0] = 0.5 * c + 0.2 * rng.NextGaussian();
    doc.emulsion_feature[1] = 1.0 + 0.2 * rng.NextGaussian();
    doc.gel_concentration = math::Vector(2, 0.02);
    doc.emulsion_concentration = math::Vector(2, 0.1);
    ds.documents.push_back(std::move(doc));
  }
  return ds;
}

JointTopicModelConfig PinnedConfig(bool sparse, int threads) {
  JointTopicModelConfig config;
  config.num_topics = 4;
  config.alpha = 0.3;
  config.gamma = 0.1;
  config.auto_prior = false;
  math::NormalWishartParams nw;
  nw.mu0 = math::Vector(2, 1.5);
  nw.beta = 1.0;
  nw.nu = 4.0;
  nw.scale = math::Matrix::Identity(2, 0.5);
  config.gel_prior = nw;
  config.emulsion_prior = nw;
  config.seed = 20221017;
  config.sparse_sampler = sparse;
  config.num_threads = threads;
  return config;
}

struct TrajectoryPin {
  const char* name;
  bool collapsed;
  bool sparse;
  int threads;
  uint32_t crc;
};

TEST(TrajectoryPinTest, CheckpointBytesAfterThirtySweeps) {
  const TrajectoryPin kPins[] = {
      {"joint dense 1 thread", false, false, 1, 0xc6c3247du},
      {"joint dense 4 threads", false, false, 4, 0x535bfc96u},
      {"joint sparse 1 thread", false, true, 1, 0x9ee19059u},
      {"joint sparse 4 threads", false, true, 4, 0x6bf155c7u},
      {"collapsed 1 thread", true, false, 1, 0xdd93a478u},
      {"collapsed 4 threads", true, false, 4, 0x772e491du},
  };
  for (const TrajectoryPin& pin : kPins) {
    SCOPED_TRACE(pin.name);
    recipe::Dataset ds = PinnedCorpus();
    const JointTopicModelConfig config = PinnedConfig(pin.sparse, pin.threads);
    std::string bytes;
    if (pin.collapsed) {
      auto model = CollapsedJointTopicModel::Create(config, &ds);
      ASSERT_TRUE(model.ok()) << model.status().ToString();
      ASSERT_TRUE(model->RunSweeps(30).ok());
      bytes = EncodeCheckpoint(model->CaptureCheckpoint());
    } else {
      auto model = JointTopicModel::Create(config, &ds);
      ASSERT_TRUE(model.ok()) << model.status().ToString();
      ASSERT_TRUE(model->RunSweeps(30).ok());
      bytes = EncodeCheckpoint(model->CaptureCheckpoint());
    }
    const uint32_t crc = Crc32(bytes);
    EXPECT_EQ(crc, pin.crc) << "actual 0x" << std::hex << crc;
  }
}

math::Gaussian PinnedGaussian(double m0, double m1, double p) {
  math::Vector mean(2);
  mean[0] = m0;
  mean[1] = m1;
  math::Matrix precision = math::Matrix::Identity(2, p);
  precision(0, 1) = precision(1, 0) = 0.25 * p;
  auto g = math::Gaussian::FromPrecision(std::move(mean), std::move(precision));
  EXPECT_TRUE(g.ok());
  return *g;
}

/// Hand-built three-topic serving model: fixed phi rows and Gaussians, so
/// the fold-in pins depend on the fold-in path alone, not on training.
core::ModelSnapshot PinnedServingModel() {
  core::ModelSnapshot model;
  for (const char* term : {"katai", "purupuru", "fuwafuwa", "mochimochi",
                           "sakusaku"}) {
    model.vocab.Add(term);
  }
  model.estimates.phi = {{0.50, 0.20, 0.10, 0.10, 0.10},
                         {0.05, 0.60, 0.25, 0.05, 0.05},
                         {0.10, 0.05, 0.05, 0.40, 0.40}};
  model.estimates.gel_topics = {PinnedGaussian(1.0, 2.0, 3.0),
                                PinnedGaussian(3.0, 1.0, 2.0),
                                PinnedGaussian(5.0, 3.0, 4.0)};
  model.estimates.emulsion_topics = model.estimates.gel_topics;
  model.estimates.topic_recipe_count = {4, 3, 5};
  return model;
}

struct FoldInPin {
  std::vector<int32_t> terms;
  double gel0;
  double gel1;
  uint64_t stream;
  uint32_t crc;
};

TEST(TrajectoryPinTest, ServingFoldInThetaBytes) {
  auto snapshot =
      serve::ServingSnapshot::FromModel(PinnedServingModel(), "pin");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const FoldInPin kPins[] = {
      {{0, 1}, 1.2, 1.8, 1, 0xeb410e73u},
      {{4, 3, 3}, 4.8, 2.9, 2, 0x2424693au},
      {{1, 2, 1, 0}, 3.1, 1.2, 3, 0x689bb460u},
      {{}, 2.5, 2.5, 4, 0x541736c5u},
  };
  for (const FoldInPin& pin : kPins) {
    SCOPED_TRACE("stream " + std::to_string(pin.stream));
    math::Vector gel(2);
    gel[0] = pin.gel0;
    gel[1] = pin.gel1;
    Rng rng = Rng::ForStream(20221017, pin.stream);
    auto theta = (*snapshot)->FoldInTheta(pin.terms, gel, 25, 0.3, rng);
    ASSERT_TRUE(theta.ok()) << theta.status().ToString();
    const uint32_t crc =
        Crc32(theta->data(), theta->size() * sizeof(double));
    std::ostringstream actual;
    actual.precision(17);
    for (double t : *theta) actual << t << " ";
    EXPECT_EQ(crc, pin.crc) << "actual 0x" << std::hex << crc << " theta "
                            << actual.str();
  }
}

}  // namespace
}  // namespace texrheo::core
