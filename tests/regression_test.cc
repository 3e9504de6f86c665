#include "math/regression.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>
#include <string_view>
#include <vector>

#include "core/checkpoint.h"
#include "core/collapsed_sampler.h"
#include "core/joint_topic_model.h"
#include "core/serialization.h"
#include "embed/embedding.h"
#include "serve/query_engine.h"
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
// encoded checkpoint without its trailing checksum (assignments, every
// count matrix, the RNG streams, the instantiated Gaussians or Student-t
// statistics, the likelihood trace) for both samplers at one and four
// threads, and for the joint sampler with its optional branches switched
// on. The fold-in pins fix the theta bytes the serving path returns for
// fixed queries and streams. The corpus is generated here from a fixed
// seed rather than by the corpus generator, so generator changes cannot
// move the values. A refactor must keep every value; a deliberate change
// to a sampler's trajectory must regenerate them and say so in the
// changelog.

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

JointTopicModelConfig PinnedConfig(int threads) {
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
  config.num_threads = threads;
  return config;
}

struct TrajectoryPin {
  const char* name;
  bool collapsed;
  int threads;
  /// Also pins the optional branches: alpha re-estimated every 5 sweeps
  /// after a 5-sweep burn-in (so it moves within the 30 pinned sweeps),
  /// the emulsion Gaussian in the y conditional and the likelihood, and a
  /// trace thinned to every third sweep.
  bool branches;
  /// CRC-32 of the whole checkpoint frame. The frame ends with the CRC-32
  /// of its payload, and a CRC run over data followed by that data's own
  /// CRC cancels the data out, so this value fixes only the header and the
  /// payload's length.
  uint32_t frame_crc;
  /// CRC-32 of the frame without its trailing checksum: the state itself.
  uint32_t state_crc;
};

TEST(TrajectoryPinTest, CheckpointBytesAfterThirtySweeps) {
  const TrajectoryPin kPins[] = {
      {"joint dense 1 thread", false, 1, false, 0xc6c3247du, 0x5204dfeeu},
      {"joint dense 4 threads", false, 4, false, 0x535bfc96u, 0xf735d13fu},
      {"collapsed 1 thread", true, 1, false, 0xdd93a478u, 0x11a80aadu},
      {"collapsed 4 threads", true, 4, false, 0x772e491du, 0xc6266234u},
      {"joint branches 1 thread", false, 1, true, 0x1815f39eu, 0x817681d0u},
      {"joint branches 4 threads", false, 4, true, 0x2153b488u, 0xc40f24e4u},
  };
  for (const TrajectoryPin& pin : kPins) {
    SCOPED_TRACE(pin.name);
    recipe::Dataset ds = PinnedCorpus();
    JointTopicModelConfig config = PinnedConfig(pin.threads);
    if (pin.branches) {
      config.optimize_alpha = true;
      config.burn_in_sweeps = 5;
      config.alpha_update_interval = 5;
      config.use_emulsion_likelihood = true;
      config.likelihood_interval = 3;
    }
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
      if (pin.branches) {
        EXPECT_NE(model->alpha(), config.alpha);
      }
      bytes = EncodeCheckpoint(model->CaptureCheckpoint());
    }
    const uint32_t frame_crc = Crc32(bytes);
    EXPECT_EQ(frame_crc, pin.frame_crc) << "actual 0x" << std::hex
                                        << frame_crc;
    ASSERT_GT(bytes.size(), sizeof(uint32_t));
    const uint32_t state_crc = Crc32(
        std::string_view(bytes).substr(0, bytes.size() - sizeof(uint32_t)));
    EXPECT_EQ(state_crc, pin.state_crc) << "actual 0x" << std::hex
                                        << state_crc;
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

namespace texrheo::serve {
namespace {

// --- SIMILAR answer pins --------------------------------------------------
//
// Pins the (recipe_index, divergence bits) pairs SimilarRecipes returns in
// every mode, at the default size and at n=3, over an in-test corpus and a
// hand-built embedding table. Emulsion ratios are drawn from a continuous
// range, so no two recipes tie in KL and every order below is fixed by the
// distances alone. A refactor of the ranking must keep every value.

constexpr const char* kPinTerms[] = {"katai",      "purupuru", "fuwafuwa",
                                     "mochimochi", "sakusaku", "toromi"};

math::Gaussian PinGaussian(double mean, size_t dim) {
  auto g = math::Gaussian::FromPrecision(math::Vector(dim, mean),
                                         math::Matrix::Identity(dim, 4.0));
  EXPECT_TRUE(g.ok());
  return *g;
}

core::ModelSnapshot SimilarPinModel() {
  core::ModelSnapshot model;
  for (const char* term : kPinTerms) model.vocab.Add(term);
  model.estimates.phi = {{0.40, 0.05, 0.05, 0.10, 0.30, 0.10},
                         {0.05, 0.45, 0.25, 0.10, 0.05, 0.10},
                         {0.10, 0.05, 0.10, 0.40, 0.05, 0.30}};
  model.estimates.gel_topics = {PinGaussian(1.5, 3), PinGaussian(3.5, 3),
                                PinGaussian(5.5, 3)};
  model.estimates.emulsion_topics = {PinGaussian(1.0, 6), PinGaussian(2.0, 6),
                                     PinGaussian(3.0, 6)};
  model.estimates.topic_recipe_count = {30, 30, 30};
  return model;
}

embed::EmbeddingTable SimilarPinEmbeddings() {
  embed::EmbeddingTable table;
  table.dim = 4;
  table.vectors = {
      0.81f,  -0.12f, 0.33f,  0.05f,   // katai
      -0.27f, 0.74f,  0.18f,  -0.41f,  // purupuru
      -0.35f, 0.52f,  0.61f,  0.09f,   // fuwafuwa
      0.14f,  0.23f,  -0.66f, 0.58f,   // mochimochi
      0.69f,  0.31f,  -0.08f, -0.22f,  // sakusaku
      0.02f,  -0.47f, 0.36f,  0.71f,   // toromi
  };
  table.RecomputeNorms();
  return table;
}

/// 90 recipes, 30 per planted topic. The corpus vocabulary lists the model
/// terms in reverse plus one word the model lacks, so the engine's remap
/// into the snapshot's ids is exercised too.
recipe::Dataset SimilarPinCorpus() {
  recipe::Dataset ds;
  ds.term_vocab.Add("zz-not-in-model");
  for (size_t v = std::size(kPinTerms); v-- > 0;) {
    ds.term_vocab.Add(kPinTerms[v]);
  }
  Rng rng(20260417);
  for (size_t d = 0; d < 90; ++d) {
    const size_t cluster = d % 3;
    recipe::Document doc;
    doc.recipe_index = d;
    const uint64_t length = 1 + rng.NextUint(4);
    for (uint64_t n = 0; n < length; ++n) {
      const uint64_t id = rng.NextDouble() < 0.7 ? 1 + cluster * 2 +
                                                       rng.NextUint(2)
                                                 : rng.NextUint(7);
      doc.term_ids.push_back(static_cast<int32_t>(id));
    }
    doc.gel_feature = math::Vector(3);
    doc.gel_concentration = math::Vector(3);
    for (size_t i = 0; i < 3; ++i) {
      doc.gel_feature[i] =
          1.5 + 2.0 * static_cast<double>(cluster) + 0.3 * rng.NextGaussian();
      doc.gel_concentration[i] = std::exp(-doc.gel_feature[i]);
    }
    doc.emulsion_feature = math::Vector(6, 1.0);
    doc.emulsion_concentration = math::Vector(6);
    for (size_t i = 0; i < 6; ++i) {
      doc.emulsion_concentration[i] = rng.NextUniform(0.0, 0.3);
    }
    ds.documents.push_back(std::move(doc));
  }
  return ds;
}

TextureQuery PinQuery(double gel, std::vector<double> emulsion,
                      std::vector<std::string> terms) {
  TextureQuery query;
  query.gel_concentration = math::Vector(3, gel);
  if (!emulsion.empty()) {
    query.emulsion_concentration = math::Vector(std::move(emulsion));
  }
  query.texture_terms = std::move(terms);
  return query;
}

struct SimilarPin {
  SimilarityMode mode;
  uint32_t crc;
};

TEST(SimilarPinTest, RankingBytesPerMode) {
  const std::vector<TextureQuery> queries = {
      PinQuery(0.2, {0.05, 0.1, 0.0, 0.2, 0.02, 0.1}, {}),
      PinQuery(0.03, {0.0, 0.25, 0.05, 0.0, 0.1, 0.0},
               {"purupuru", "fuwafuwa", "purupuru"}),
      PinQuery(0.004, {0.1, 0.1, 0.1, 0.0, 0.0, 0.3}, {}),
      PinQuery(0.005, {}, {"sakusaku", "katai", "sakusaku"}),
      PinQuery(0.2, {0.3, 0.0, 0.0, 0.01, 0.0, 0.2}, {"fuwafuwa"}),
  };
  const SimilarPin kPins[] = {
      {SimilarityMode::kKl, 0x6f89787fu},
      {SimilarityMode::kEmbed, 0x054a8548u},
      {SimilarityMode::kLexical, 0x02c938c0u},
      {SimilarityMode::kFused, 0xb83f7efdu},
  };
  recipe::Dataset corpus = SimilarPinCorpus();
  for (const SimilarPin& pin : kPins) {
    SCOPED_TRACE(SimilarityModeName(pin.mode));
    auto snapshot = ServingSnapshot::FromModel(SimilarPinModel(), "pin",
                                               SimilarPinEmbeddings());
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    QueryEngineConfig config;
    config.fold_in_sweeps = 10;
    auto engine = QueryEngine::Create(config, *snapshot, &corpus);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    std::string bytes;
    for (const TextureQuery& query : queries) {
      // embed needs a term to build its query vector.
      if (pin.mode == SimilarityMode::kEmbed && query.texture_terms.empty()) {
        continue;
      }
      for (size_t n : {size_t{0}, size_t{3}}) {
        auto result =
            (*engine)->SimilarRecipes(query, n, kNoDeadline, 0, pin.mode);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ASSERT_FALSE(result->recipes.empty());
        for (const SimilarRecipe& r : result->recipes) {
          const uint64_t index = r.recipe_index;
          uint64_t bits = 0;
          std::memcpy(&bits, &r.divergence, sizeof(bits));
          bytes.append(reinterpret_cast<const char*>(&index), sizeof(index));
          bytes.append(reinterpret_cast<const char*>(&bits), sizeof(bits));
        }
      }
    }
    const uint32_t crc = Crc32(bytes);
    EXPECT_EQ(crc, pin.crc) << "actual 0x" << std::hex << crc;
  }
}

// --- Engine fold-in stream pins -------------------------------------------
//
// Query N of an engine folds in from Rng::ForStream(seed, N), N taken at
// admission by PredictTexture misses and FoldInDelta alike, and a cache hit
// takes none. Pins the theta bits and topic of every answer one engine
// gives over an interleaved run of both, so any change to the order in
// which fold-ins take their streams moves this value.

void AppendAnswer(const std::vector<double>& theta, int topic,
                  std::string& bytes) {
  bytes.append(reinterpret_cast<const char*>(theta.data()),
               theta.size() * sizeof(double));
  bytes.append(reinterpret_cast<const char*>(&topic), sizeof(topic));
}

TEST(EnginePredictPinTest, ThetaBitsAcrossMissesDeltaFoldsAndAHit) {
  const std::vector<TextureQuery> queries = {
      PinQuery(0.2, {0.05, 0.1, 0.0, 0.2, 0.02, 0.1}, {}),
      PinQuery(0.03, {0.0, 0.25, 0.05, 0.0, 0.1, 0.0},
               {"purupuru", "fuwafuwa", "purupuru"}),
      PinQuery(0.004, {0.1, 0.1, 0.1, 0.0, 0.0, 0.3}, {}),
      PinQuery(0.005, {}, {"sakusaku", "katai", "sakusaku"}),
      PinQuery(0.2, {0.3, 0.0, 0.0, 0.01, 0.0, 0.2}, {"fuwafuwa"}),
  };
  auto snapshot = ServingSnapshot::FromModel(SimilarPinModel(), "pin",
                                             SimilarPinEmbeddings());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  recipe::Dataset corpus = SimilarPinCorpus();
  QueryEngineConfig config;
  config.fold_in_sweeps = 10;
  auto engine = QueryEngine::Create(config, *snapshot, &corpus);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::string bytes;
  auto predict = [&](size_t q, bool expect_hit) {
    auto p = (*engine)->PredictTexture(queries[q]);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    EXPECT_EQ(p->from_cache, expect_hit) << "query " << q;
    AppendAnswer(p->theta, p->topic, bytes);
  };
  auto fold = [&](size_t q, uint64_t ingest_sequence) {
    auto topic = (*engine)->FoldInDelta(queries[q], ingest_sequence);
    ASSERT_TRUE(topic.ok()) << topic.status().ToString();
    AppendAnswer({}, *topic, bytes);
  };
  predict(0, false);  // Stream 0.
  predict(1, false);  // Stream 1.
  fold(3, 11);        // Stream 2.
  predict(2, false);  // Stream 3.
  predict(1, true);   // Cache hit: no stream.
  predict(3, false);  // Stream 4.
  fold(1, 12);        // Stream 5.
  predict(4, false);  // Stream 6.
  EXPECT_EQ((*engine)->GetDeltaStats().delta_docs, 2u);

  const uint32_t crc = Crc32(bytes);
  EXPECT_EQ(crc, 0x474f6fbbu) << "actual 0x" << std::hex << crc;
}

}  // namespace
}  // namespace texrheo::serve
