// Gold-standard correctness test for the Gibbs samplers: on a tiny dataset
// the exact posterior over the latent assignments can be computed by brute
// force (the words are Dirichlet-multinomial and the concentration vectors
// have a closed-form Normal-Wishart marginal likelihood). Long Gibbs runs
// must reproduce the exact marginal p(y_0 = k | data) for both the paper's
// sampler (which instantiates the Gaussians) and the collapsed sampler.

#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/collapsed_sampler.h"
#include "core/joint_topic_model.h"
#include "core/topic_gaussians.h"
#include "corpus/generator.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "eval/geweke.h"
#include "math/special.h"
#include "recipe/dataset.h"
#include "rheology/gel_model.h"
#include "text/texture_dictionary.h"

namespace texrheo::core {
namespace {

constexpr int kTopics = 2;

// Tiny dataset: 3 documents, <= 2 tokens each, 1-D gel features.
recipe::Dataset TinyDataset() {
  recipe::Dataset ds;
  ds.term_vocab.Add("w0");
  ds.term_vocab.Add("w1");
  auto add = [&ds](std::vector<int32_t> terms, double gel) {
    recipe::Document doc;
    doc.recipe_index = ds.documents.size();
    doc.term_ids = std::move(terms);
    doc.gel_feature = math::Vector(1, gel);
    doc.emulsion_feature = math::Vector(1, 0.0);
    doc.gel_concentration = math::Vector(1, 0.01);
    doc.emulsion_concentration = math::Vector(1, 0.1);
    ds.documents.push_back(std::move(doc));
  };
  add({0, 0}, 1.0);
  add({1}, 3.0);
  add({0, 1}, 1.5);
  return ds;
}

math::NormalWishartParams TinyPrior() {
  math::NormalWishartParams nw;
  nw.mu0 = math::Vector(1, 2.0);
  nw.beta = 1.0;
  nw.nu = 3.0;
  nw.scale = math::Matrix::Identity(1, 0.5);
  return nw;
}

JointTopicModelConfig TinyConfig(uint64_t seed) {
  JointTopicModelConfig config;
  config.num_topics = kTopics;
  config.alpha = 0.5;
  config.gamma = 0.5;
  config.auto_prior = false;
  config.gel_prior = TinyPrior();
  config.emulsion_prior = TinyPrior();
  config.use_emulsion_likelihood = false;
  config.seed = seed;
  return config;
}

// Closed-form log marginal likelihood of 1-D observations under the
// Normal-Wishart prior (Murphy 2007 eq. 266, with T = S^{-1}):
//   p(X) = pi^{-n/2} (beta/beta_n)^{1/2} |T|^{nu/2}/|T_n|^{nu_n/2}
//          Gamma(nu_n/2)/Gamma(nu/2).
double LogMarginal1D(const std::vector<double>& xs,
                     const math::NormalWishartParams& nw) {
  double n = static_cast<double>(xs.size());
  if (xs.empty()) return 0.0;
  double mean = 0.0;
  for (double x : xs) mean += x / n;
  double scatter = 0.0;
  for (double x : xs) scatter += (x - mean) * (x - mean);
  double t = 1.0 / nw.scale(0, 0);
  double beta_n = nw.beta + n;
  double nu_n = nw.nu + n;
  double t_n = t + scatter +
               (nw.beta * n / beta_n) * (mean - nw.mu0[0]) *
                   (mean - nw.mu0[0]);
  return -0.5 * n * std::log(M_PI) + 0.5 * std::log(nw.beta / beta_n) +
         0.5 * nw.nu * std::log(t) - 0.5 * nu_n * std::log(t_n) +
         std::lgamma(0.5 * nu_n) - std::lgamma(0.5 * nw.nu);
}

// Log joint of one complete assignment (z for every token, y for every
// document), with phi and theta integrated out and the Gaussian marginals
// in closed form.
double LogJoint(const recipe::Dataset& ds, const JointTopicModelConfig& cfg,
                const std::vector<std::vector<int>>& z,
                const std::vector<int>& y) {
  size_t vocab = ds.term_vocab.size();
  // Words | Z: Dirichlet-multinomial per topic.
  std::vector<std::vector<int>> n_kv(kTopics, std::vector<int>(vocab, 0));
  std::vector<int> n_k(kTopics, 0);
  for (size_t d = 0; d < ds.documents.size(); ++d) {
    for (size_t n = 0; n < ds.documents[d].term_ids.size(); ++n) {
      int k = z[d][n];
      ++n_kv[static_cast<size_t>(k)]
            [static_cast<size_t>(ds.documents[d].term_ids[n])];
      ++n_k[static_cast<size_t>(k)];
    }
  }
  double vg = static_cast<double>(vocab) * cfg.gamma;
  double log_p = 0.0;
  for (int k = 0; k < kTopics; ++k) {
    log_p += std::lgamma(vg) -
             std::lgamma(vg + static_cast<double>(n_k[static_cast<size_t>(k)]));
    for (size_t v = 0; v < vocab; ++v) {
      log_p += std::lgamma(cfg.gamma +
                           n_kv[static_cast<size_t>(k)][v]) -
               std::lgamma(cfg.gamma);
    }
  }
  // (Z, Y) | alpha: Dirichlet-multinomial per document over the word topics
  // plus the one y pseudo-token.
  double ka = cfg.alpha * kTopics;
  for (size_t d = 0; d < ds.documents.size(); ++d) {
    std::vector<int> n_dk(kTopics, 0);
    for (int k : z[d]) ++n_dk[static_cast<size_t>(k)];
    ++n_dk[static_cast<size_t>(y[d])];
    double total = static_cast<double>(z[d].size()) + 1.0;
    log_p += std::lgamma(ka) - std::lgamma(ka + total);
    for (int k = 0; k < kTopics; ++k) {
      log_p += std::lgamma(cfg.alpha + n_dk[static_cast<size_t>(k)]) -
               std::lgamma(cfg.alpha);
    }
  }
  // G | Y: Normal-Wishart marginal per topic.
  for (int k = 0; k < kTopics; ++k) {
    std::vector<double> xs;
    for (size_t d = 0; d < ds.documents.size(); ++d) {
      if (y[d] == k) xs.push_back(ds.documents[d].gel_feature[0]);
    }
    log_p += LogMarginal1D(xs, cfg.gel_prior);
  }
  return log_p;
}

// Exact p(y_0 = 0 | data) by enumerating every assignment.
double ExactPosteriorY0(const recipe::Dataset& ds,
                        const JointTopicModelConfig& cfg) {
  // Tokens: doc0 has 2, doc1 has 1, doc2 has 2 -> 5 topic choices; plus 3 y
  // choices: 2^8 = 256 assignments.
  std::vector<size_t> token_counts;
  size_t total_tokens = 0;
  for (const auto& doc : ds.documents) {
    token_counts.push_back(doc.term_ids.size());
    total_tokens += doc.term_ids.size();
  }
  size_t dims = total_tokens + ds.documents.size();
  double numerator = 0.0, denominator = 0.0;
  for (size_t code = 0; code < (1u << dims); ++code) {
    std::vector<std::vector<int>> z(ds.documents.size());
    std::vector<int> y(ds.documents.size());
    size_t bit = 0;
    for (size_t d = 0; d < ds.documents.size(); ++d) {
      z[d].resize(token_counts[d]);
      for (size_t n = 0; n < token_counts[d]; ++n) {
        z[d][n] = static_cast<int>((code >> bit++) & 1u);
      }
    }
    for (size_t d = 0; d < ds.documents.size(); ++d) {
      y[d] = static_cast<int>((code >> bit++) & 1u);
    }
    double p = std::exp(LogJoint(ds, cfg, z, y));
    denominator += p;
    if (y[0] == 0) numerator += p;
  }
  return numerator / denominator;
}

TEST(SamplerExactnessTest, CollapsedSamplerMatchesExactPosterior) {
  recipe::Dataset ds = TinyDataset();
  JointTopicModelConfig config = TinyConfig(101);
  double exact = ExactPosteriorY0(ds, config);
  // Sanity: the exact value is nontrivial.
  EXPECT_GT(exact, 0.1);
  EXPECT_LT(exact, 0.9);

  auto model = CollapsedJointTopicModel::Create(config, &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->RunSweeps(200).ok());  // Burn-in.
  int hits = 0;
  const int samples = 6000;
  for (int s = 0; s < samples; ++s) {
    ASSERT_TRUE(model->RunSweeps(1).ok());
    if (model->y()[0] == 0) ++hits;
  }
  double empirical = static_cast<double>(hits) / samples;
  EXPECT_NEAR(empirical, exact, 0.04)
      << "exact " << exact << " vs empirical " << empirical;
}

TEST(SamplerExactnessTest, PaperSamplerMatchesExactPosterior) {
  // The paper's sampler instantiates the Gaussians (eq. 4) instead of
  // collapsing them, but targets the same marginal posterior over y.
  recipe::Dataset ds = TinyDataset();
  JointTopicModelConfig config = TinyConfig(202);
  double exact = ExactPosteriorY0(ds, config);

  auto model = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->RunSweeps(200).ok());
  int hits = 0;
  const int samples = 6000;
  for (int s = 0; s < samples; ++s) {
    ASSERT_TRUE(model->RunSweeps(1).ok());
    if (model->y()[0] == 0) ++hits;
  }
  double empirical = static_cast<double>(hits) / samples;
  EXPECT_NEAR(empirical, exact, 0.05)
      << "exact " << exact << " vs empirical " << empirical;
}

// --- SoA batched Gaussian log-density: bit-exactness --------------------
//
// The y-sweep evaluates all K per-topic Gaussians through the SoA batch
// path. Its contract is bit-exactness against math::Gaussian::LogPdf — not
// approximate agreement — across K values that are and are not multiples of
// any plausible SIMD lane count, so the vectorized loop's tail handling is
// covered.
TEST(SamplerExactnessTest, BatchedGaussianLogPdfBitExactAcrossTopicCounts) {
  Rng rng(555);
  for (size_t k_count : {1u, 3u, 4u, 7u, 8u, 16u, 31u}) {
    std::vector<math::Gaussian> topics;
    for (size_t k = 0; k < k_count; ++k) {
      math::Vector mean(2);
      mean[0] = rng.NextGaussian();
      mean[1] = rng.NextGaussian();
      math::Matrix prec(2, 2);
      const double a = 1.0 + rng.NextDouble();
      const double c = 1.0 + rng.NextDouble();
      const double b = 0.4 * rng.NextDouble();
      prec(0, 0) = a;
      prec(1, 1) = c;
      prec(0, 1) = prec(1, 0) = b;  // Diagonally dominant => SPD.
      auto g = math::Gaussian::FromPrecision(std::move(mean), std::move(prec));
      ASSERT_TRUE(g.ok());
      topics.push_back(std::move(g).value());
    }
    TopicGaussiansSoA soa = TopicGaussiansSoA::FromGaussians(topics);
    TopicGaussiansSoA::Scratch scratch;
    std::vector<double> batch(k_count);
    for (int trial = 0; trial < 10; ++trial) {
      math::Vector x(2);
      x[0] = rng.NextGaussian() * 2.0;
      x[1] = rng.NextGaussian() * 2.0;
      soa.BatchLogPdf(x, scratch, batch.data());
      for (size_t k = 0; k < k_count; ++k) {
        ASSERT_EQ(batch[k], topics[k].LogPdf(x)) << "K=" << k_count
                                                 << " k=" << k;
      }
    }
  }
}

// --- Observability is a pure observer ----------------------------------
//
// Attaching the full metrics + tracing stack must not perturb the sampler:
// instrumentation reads state and stamps clocks but never touches the RNG,
// so a serial chain with observability on is bit-identical to one with it
// off, sweep by sweep. A violation here would silently invalidate every
// instrumented experiment.
TEST(SamplerExactnessTest, InstrumentationDoesNotPerturbTrajectory) {
  recipe::Dataset ds_plain = TinyDataset();
  recipe::Dataset ds_observed = TinyDataset();
  constexpr uint64_t kSeed = 777;
  constexpr int kSweeps = 50;

  auto plain = JointTopicModel::Create(TinyConfig(kSeed), &ds_plain);
  ASSERT_TRUE(plain.ok());

  obs::MetricsRegistry registry;
  obs::ManualClock clock;
  obs::Tracer tracer(&clock);
  tracer.ExportDurationsTo(&registry);
  auto observed = JointTopicModel::Create(TinyConfig(kSeed), &ds_observed);
  ASSERT_TRUE(observed.ok());
  observed->SetObservability(&registry, &tracer);

  // Interleave sweep-by-sweep so any divergence is pinned to its sweep.
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    ASSERT_TRUE(plain->RunSweeps(1).ok());
    clock.AdvanceMicros(13);  // Nonzero span durations, just to be real.
    ASSERT_TRUE(observed->RunSweeps(1).ok());
    ASSERT_EQ(plain->z(), observed->z()) << "z diverged at sweep " << sweep;
    ASSERT_EQ(plain->y(), observed->y()) << "y diverged at sweep " << sweep;
  }
  EXPECT_EQ(plain->likelihood_trace(), observed->likelihood_trace());

  // Detaching must also be inert: keep sampling with observability removed.
  observed->SetObservability(nullptr, nullptr);
  ASSERT_TRUE(plain->RunSweeps(10).ok());
  ASSERT_TRUE(observed->RunSweeps(10).ok());
  EXPECT_EQ(plain->z(), observed->z());
  EXPECT_EQ(plain->y(), observed->y());

  // And the observer did actually observe.
  obs::MetricsSnapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.CounterValue("train.sweeps_completed"),
            static_cast<uint64_t>(kSweeps));
}

// --- Serial vs parallel posterior-moment equivalence ------------------
//
// The parallel (AD-LDA style) chain is not bit-identical to the serial one,
// but both must mix to the same posterior. On a synthetic K=3 corpus the
// post-burn-in moments (phi, corpus topic shares, per-topic gel means) of a
// serial and a 4-thread chain must agree within Monte Carlo tolerance after
// topic alignment.

const recipe::Dataset& SyntheticCorpus() {
  static const recipe::Dataset& ds = *[] {
    corpus::CorpusGenConfig config;
    config.num_recipes = 4000;
    corpus::CorpusGenerator generator(
        config, &rheology::GelPhysicsModel::Calibrated(),
        &text::TextureDictionary::Embedded());
    auto corpus = generator.Generate();
    auto built = recipe::BuildDataset(
        corpus, recipe::IngredientDatabase::Embedded(),
        text::TextureDictionary::Embedded(), nullptr, recipe::DatasetConfig());
    return new recipe::Dataset(std::move(built).value());
  }();
  return ds;
}

JointTopicModelConfig EquivalenceConfig(uint64_t seed) {
  JointTopicModelConfig config;
  config.num_topics = 3;
  config.seed = seed;
  return config;
}

TEST(SerialVsParallelTest, InstantiatedSamplerMomentsMatch) {
  auto result = eval::CompareSerialVsParallelMoments(
      EquivalenceConfig(31), SyntheticCorpus(), eval::SamplerKind::kInstantiated,
      /*parallel_threads=*/4, /*burn_in_sweeps=*/100, /*measure_sweeps=*/250);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(result->phi_max_abs_diff, 0.05)
      << "phi diff " << result->phi_max_abs_diff;
  EXPECT_LT(result->topic_share_max_abs_diff, 0.05)
      << "share diff " << result->topic_share_max_abs_diff;
  EXPECT_LT(result->gel_mean_max_abs_diff, 0.35)
      << "gel mean diff " << result->gel_mean_max_abs_diff;
}

TEST(SerialVsParallelTest, CollapsedSamplerMomentsMatch) {
  auto result = eval::CompareSerialVsParallelMoments(
      EquivalenceConfig(32), SyntheticCorpus(), eval::SamplerKind::kCollapsed,
      /*parallel_threads=*/4, /*burn_in_sweeps=*/60, /*measure_sweeps=*/120);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(result->phi_max_abs_diff, 0.05)
      << "phi diff " << result->phi_max_abs_diff;
  EXPECT_LT(result->topic_share_max_abs_diff, 0.05)
      << "share diff " << result->topic_share_max_abs_diff;
  EXPECT_LT(result->gel_mean_max_abs_diff, 0.35)
      << "gel mean diff " << result->gel_mean_max_abs_diff;
}

// --- Degenerate-input edge cases ---------------------------------------

TEST(SamplerEdgeCaseTest, EmptyCorpusRejectedByBothSamplers) {
  recipe::Dataset empty;
  empty.term_vocab.Add("w0");
  JointTopicModelConfig config = TinyConfig(1);
  EXPECT_FALSE(JointTopicModel::Create(config, &empty).ok());
  EXPECT_FALSE(CollapsedJointTopicModel::Create(config, &empty).ok());
  EXPECT_FALSE(JointTopicModel::Create(config, nullptr).ok());
  EXPECT_FALSE(CollapsedJointTopicModel::Create(config, nullptr).ok());
}

recipe::Dataset SingleDocumentDataset() {
  recipe::Dataset ds = TinyDataset();
  ds.documents.resize(1);
  return ds;
}

template <typename Model>
void RunSingleDocumentCase(int num_threads) {
  recipe::Dataset ds = SingleDocumentDataset();
  JointTopicModelConfig config = TinyConfig(7);
  config.num_threads = num_threads;
  auto model = Model::Create(config, &ds);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_TRUE(model->RunSweeps(30).ok());
  auto estimates = [&] {
    if constexpr (std::is_same_v<Model, CollapsedJointTopicModel>) {
      auto e = model->Estimate();
      EXPECT_TRUE(e.ok());
      return *std::move(e);
    } else {
      return model->Estimate();
    }
  }();
  ASSERT_EQ(estimates.theta.size(), 1u);
  double sum = 0.0;
  for (double p : estimates.theta[0]) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GE(estimates.doc_topic[0], 0);
  EXPECT_LT(estimates.doc_topic[0], kTopics);
}

TEST(SamplerEdgeCaseTest, SingleDocumentInstantiatedSerial) {
  RunSingleDocumentCase<JointTopicModel>(1);
}

TEST(SamplerEdgeCaseTest, SingleDocumentInstantiatedParallel) {
  // More shards than documents: most shards are empty.
  RunSingleDocumentCase<JointTopicModel>(4);
}

TEST(SamplerEdgeCaseTest, SingleDocumentCollapsedSerial) {
  RunSingleDocumentCase<CollapsedJointTopicModel>(1);
}

TEST(SamplerEdgeCaseTest, SingleDocumentCollapsedParallel) {
  RunSingleDocumentCase<CollapsedJointTopicModel>(4);
}

template <typename Model>
void RunSingleTopicCase(int num_threads) {
  recipe::Dataset ds = TinyDataset();
  JointTopicModelConfig config = TinyConfig(9);
  config.num_topics = 1;
  config.num_threads = num_threads;
  auto model = Model::Create(config, &ds);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_TRUE(model->RunSweeps(20).ok());
  // With K = 1 every assignment is forced to topic 0 and the chain must
  // still be numerically healthy.
  for (int yd : model->y()) EXPECT_EQ(yd, 0);
  for (const auto& zd : model->z()) {
    for (int zn : zd) EXPECT_EQ(zn, 0);
  }
  if constexpr (std::is_same_v<Model, JointTopicModel>) {
    EXPECT_TRUE(std::isfinite(model->LogJointLikelihood()));
  }
}

TEST(SamplerEdgeCaseTest, SingleTopicInstantiated) {
  RunSingleTopicCase<JointTopicModel>(1);
  RunSingleTopicCase<JointTopicModel>(2);
}

TEST(SamplerEdgeCaseTest, SingleTopicCollapsed) {
  RunSingleTopicCase<CollapsedJointTopicModel>(1);
  RunSingleTopicCase<CollapsedJointTopicModel>(2);
}

TEST(SamplerExactnessTest, ExactPosteriorRespondsToEvidence) {
  // Moving doc 0's gel feature toward doc 1's flips the preferred grouping.
  recipe::Dataset near_doc1 = TinyDataset();
  near_doc1.documents[0].gel_feature[0] = 3.0;  // Same as doc 1.
  JointTopicModelConfig config = TinyConfig(1);
  double base = ExactPosteriorY0(TinyDataset(), config);
  double moved = ExactPosteriorY0(near_doc1, config);
  // The posterior must change in response; direction depends on labeling
  // symmetry breaking by the words, so only inequality is asserted.
  EXPECT_NE(base, moved);
}

}  // namespace
}  // namespace texrheo::core
