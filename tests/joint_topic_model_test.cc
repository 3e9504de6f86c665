#include "core/joint_topic_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "eval/metrics.h"
#include "math/running_stats.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace texrheo::core {
namespace {

// Builds a synthetic dataset with two planted joint clusters:
//   cluster 0: terms {0, 1}, gel feature near (4, 9, 9)
//   cluster 1: terms {2, 3}, gel feature near (9, 5, 9)
// Emulsion features also separate (milk-heavy vs none).
recipe::Dataset PlantedDataset(size_t docs_per_cluster, uint64_t seed) {
  recipe::Dataset ds;
  for (const char* w : {"soft0", "soft1", "hard0", "hard1"}) {
    ds.term_vocab.Add(w);
  }
  Rng rng(seed);
  for (int cluster = 0; cluster < 2; ++cluster) {
    for (size_t i = 0; i < docs_per_cluster; ++i) {
      recipe::Document doc;
      doc.recipe_index = ds.documents.size();
      int term_count = 2 + static_cast<int>(rng.NextUint(3));
      for (int t = 0; t < term_count; ++t) {
        doc.term_ids.push_back(cluster * 2 +
                               static_cast<int32_t>(rng.NextUint(2)));
      }
      doc.gel_feature = math::Vector(3, 9.0);
      doc.emulsion_feature = math::Vector(2, 9.0);
      if (cluster == 0) {
        doc.gel_feature[0] = 4.0 + 0.3 * rng.NextGaussian();
        doc.emulsion_feature[0] = 1.0 + 0.2 * rng.NextGaussian();
      } else {
        doc.gel_feature[1] = 5.0 + 0.3 * rng.NextGaussian();
        doc.emulsion_feature[1] = 2.0 + 0.2 * rng.NextGaussian();
      }
      doc.gel_concentration = math::Vector(3, 0.01);
      doc.emulsion_concentration = math::Vector(2, 0.1);
      ds.documents.push_back(std::move(doc));
    }
  }
  ds.funnel.final_dataset = ds.documents.size();
  return ds;
}

JointTopicModelConfig SmallConfig(int topics = 2) {
  JointTopicModelConfig config;
  config.num_topics = topics;
  config.sweeps = 80;
  config.burn_in_sweeps = 20;
  config.seed = 11;
  return config;
}

TEST(JointTopicModelTest, CreateValidatesInput) {
  recipe::Dataset ds = PlantedDataset(5, 1);
  JointTopicModelConfig config = SmallConfig();
  EXPECT_FALSE(JointTopicModel::Create(config, nullptr).ok());
  config.num_topics = 0;
  EXPECT_FALSE(JointTopicModel::Create(config, &ds).ok());
  config.num_topics = 2;
  config.alpha = 0.0;
  EXPECT_FALSE(JointTopicModel::Create(config, &ds).ok());
  recipe::Dataset empty;
  EXPECT_FALSE(JointTopicModel::Create(SmallConfig(), &empty).ok());
  recipe::Dataset ragged = PlantedDataset(5, 1);
  ragged.documents[3].emulsion_feature = math::Vector(3, 9.0);
  EXPECT_FALSE(JointTopicModel::Create(SmallConfig(), &ragged).ok());
}

TEST(JointTopicModelTest, RecoversPlantedClusters) {
  recipe::Dataset ds = PlantedDataset(60, 2);
  JointTopicModelConfig config = SmallConfig(2);
  auto model = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->Train().ok());
  TopicEstimates est = model->Estimate();
  std::vector<int> truth;
  for (size_t d = 0; d < ds.documents.size(); ++d) {
    truth.push_back(d < 60 ? 0 : 1);
  }
  auto scores = eval::ScoreClustering(est.doc_topic, truth);
  ASSERT_TRUE(scores.ok());
  EXPECT_GT(scores->purity, 0.95);
  EXPECT_GT(scores->nmi, 0.8);
}

TEST(JointTopicModelTest, LikelihoodIntervalThinsTraceWithoutPerturbingChain) {
  recipe::Dataset ds = PlantedDataset(5, 1);
  JointTopicModelConfig bad = SmallConfig();
  bad.likelihood_interval = 0;
  EXPECT_FALSE(JointTopicModel::Create(bad, &ds).ok());

  // The likelihood pass draws no RNG, so thinning it must leave the chain
  // bit-identical and keep exactly every interval-th trace entry.
  recipe::Dataset ds_full = PlantedDataset(20, 11);
  recipe::Dataset ds_thin = PlantedDataset(20, 11);
  JointTopicModelConfig config = SmallConfig(3);
  auto full = JointTopicModel::Create(config, &ds_full);
  config.likelihood_interval = 3;
  auto thin = JointTopicModel::Create(config, &ds_thin);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(thin.ok());
  ASSERT_TRUE(full->RunSweeps(10).ok());
  ASSERT_TRUE(thin->RunSweeps(10).ok());
  EXPECT_EQ(full->z(), thin->z());
  EXPECT_EQ(full->y(), thin->y());
  ASSERT_EQ(full->likelihood_trace().size(), 10u);
  // Entries land on completed sweeps 3, 6, 9.
  ASSERT_EQ(thin->likelihood_trace().size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(thin->likelihood_trace()[i], full->likelihood_trace()[3 * i + 2]);
  }
}

/// The complete-data log likelihood as a per-token sum over counts rebuilt
/// from the model's assignments: the reference for the memoized pass.
double ReferenceLogJointLikelihood(const JointTopicModel& model,
                                   const recipe::Dataset& ds) {
  const size_t k_count = static_cast<size_t>(model.num_topics());
  const size_t vocab = model.vocab_size();
  std::vector<int> n_vk(vocab * k_count, 0);
  std::vector<int> n_k(k_count, 0);
  std::vector<std::vector<int>> n_dk(ds.documents.size(),
                                     std::vector<int>(k_count, 0));
  for (size_t d = 0; d < ds.documents.size(); ++d) {
    for (size_t n = 0; n < ds.documents[d].term_ids.size(); ++n) {
      const size_t k = static_cast<size_t>(model.z()[d][n]);
      ++n_vk[static_cast<size_t>(ds.documents[d].term_ids[n]) * k_count + k];
      ++n_k[k];
      ++n_dk[d][k];
    }
  }
  const double gamma = model.config().gamma;
  const double gamma_v = gamma * static_cast<double>(vocab);
  const double alpha = model.alpha();
  const double alpha_sum = alpha * static_cast<double>(k_count);
  double ll = 0.0;
  for (size_t d = 0; d < ds.documents.size(); ++d) {
    const recipe::Document& doc = ds.documents[d];
    const double n_d = static_cast<double>(doc.term_ids.size());
    for (size_t n = 0; n < doc.term_ids.size(); ++n) {
      const size_t k = static_cast<size_t>(model.z()[d][n]);
      const size_t v = static_cast<size_t>(doc.term_ids[n]);
      const double phi = (static_cast<double>(n_vk[v * k_count + k]) + gamma) /
                         (static_cast<double>(n_k[k]) + gamma_v);
      const double theta =
          (static_cast<double>(n_dk[d][k]) +
           (model.y()[d] == model.z()[d][n] ? 1.0 : 0.0) + alpha) /
          (n_d + 1.0 + alpha_sum);
      ll += std::log(phi) + std::log(theta);
    }
    const size_t yk = static_cast<size_t>(model.y()[d]);
    ll += model.gel_topics()[yk].LogPdf(doc.gel_feature);
    if (model.config().use_emulsion_likelihood) {
      ll += model.emulsion_topics()[yk].LogPdf(doc.emulsion_feature);
    }
  }
  return ll;
}

TEST(JointTopicModelTest, LogJointLikelihoodMatchesThePerTokenSum) {
  // The pass reads its logs from tables only while a table has no more
  // entries than the corpus has tokens. The second corpus adds a long
  // document and a wide vocabulary, so both tables fall back to direct
  // logs for some tokens; either way the sum must match to the bit.
  for (bool oversized : {false, true}) {
    SCOPED_TRACE(oversized ? "oversized" : "tables fit");
    recipe::Dataset ds = PlantedDataset(10, 5);
    if (oversized) {
      for (int v = 0; v < 400; ++v) {
        ds.term_vocab.Add("extra" + std::to_string(v));
      }
      recipe::Document doc = ds.documents.front();
      doc.term_ids.clear();
      for (int32_t n = 0; n < 200; ++n) doc.term_ids.push_back(n % 40);
      ds.documents.push_back(std::move(doc));
    }
    JointTopicModelConfig config = SmallConfig(3);
    config.use_emulsion_likelihood = true;
    config.optimize_alpha = true;
    config.burn_in_sweeps = 2;
    config.alpha_update_interval = 2;
    auto model = JointTopicModel::Create(config, &ds);
    ASSERT_TRUE(model.ok());
    ASSERT_TRUE(model->RunSweeps(6).ok());
    ASSERT_NE(model->alpha(), config.alpha);
    EXPECT_EQ(model->LogJointLikelihood(),
              ReferenceLogJointLikelihood(*model, ds));
  }
}

TEST(JointTopicModelTest, SweepSpansAttributeEveryPhase) {
  recipe::Dataset ds = PlantedDataset(10, 3);
  JointTopicModelConfig config = SmallConfig();
  config.likelihood_interval = 2;
  auto model = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(model.ok());
  obs::MetricsRegistry metrics;
  obs::ManualClock clock;
  obs::Tracer tracer(&clock);
  model->SetObservability(&metrics, &tracer);
  ASSERT_TRUE(model->RunSweeps(4).ok());

  // sweep -> shard_sample (-> z_sweep, y_sweep) / gaussian_update /
  // likelihood, the last only on the sweeps that run the pass.
  const std::vector<obs::SpanRecord> records = tracer.Records();
  std::map<uint64_t, std::string> name_of;
  for (const obs::SpanRecord& rec : records) name_of[rec.span_id] = rec.name;
  std::map<std::string, int> count;
  std::map<std::string, std::string> parent_of;
  for (const obs::SpanRecord& rec : records) {
    ++count[rec.name];
    parent_of[rec.name] = rec.parent_id == 0 ? "" : name_of[rec.parent_id];
  }
  const std::map<std::string, int> want_count = {
      {"sweep", 4},  {"shard_sample", 4},    {"z_sweep", 4},
      {"y_sweep", 4}, {"gaussian_update", 4}, {"likelihood", 2}};
  EXPECT_EQ(count, want_count);
  const std::map<std::string, std::string> want_parent = {
      {"sweep", ""},
      {"shard_sample", "sweep"},
      {"z_sweep", "shard_sample"},
      {"y_sweep", "shard_sample"},
      {"gaussian_update", "sweep"},
      {"likelihood", "sweep"}};
  EXPECT_EQ(parent_of, want_parent);

  const obs::MetricsSnapshot snap = metrics.TakeSnapshot();
  for (const char* name : {"train.shard_sample_us", "train.z_sweep_us",
                           "train.y_sweep_us", "train.gaussian_update_us"}) {
    const LatencyHistogram::Snapshot* hist = snap.Histogram(name);
    ASSERT_NE(hist, nullptr) << name;
    EXPECT_EQ(hist->count, 4u) << name;
  }
  const LatencyHistogram::Snapshot* likelihood =
      snap.Histogram("train.likelihood_us");
  ASSERT_NE(likelihood, nullptr);
  EXPECT_EQ(likelihood->count, 2u);
}

TEST(JointTopicModelTest, PhiSeparatesPlantedVocabularies) {
  recipe::Dataset ds = PlantedDataset(60, 3);
  auto model = JointTopicModel::Create(SmallConfig(2), &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->Train().ok());
  TopicEstimates est = model->Estimate();
  // Each topic concentrates on one vocabulary half.
  for (const auto& phi_k : est.phi) {
    double first_half = phi_k[0] + phi_k[1];
    double second_half = phi_k[2] + phi_k[3];
    double dominant = std::max(first_half, second_half);
    EXPECT_GT(dominant, 0.9);
  }
}

TEST(JointTopicModelTest, GaussianMeansMatchPlantedCenters) {
  recipe::Dataset ds = PlantedDataset(80, 4);
  auto model = JointTopicModel::Create(SmallConfig(2), &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->Train().ok());
  TopicEstimates est = model->Estimate();
  // One topic mean near gel[0]=4, the other near gel[1]=5.
  bool found_cluster0 = false, found_cluster1 = false;
  for (const auto& g : est.gel_topics) {
    if (std::fabs(g.mean()[0] - 4.0) < 0.5) found_cluster0 = true;
    if (std::fabs(g.mean()[1] - 5.0) < 0.5) found_cluster1 = true;
  }
  EXPECT_TRUE(found_cluster0);
  EXPECT_TRUE(found_cluster1);
}

TEST(JointTopicModelTest, PhiRowsAreDistributions) {
  recipe::Dataset ds = PlantedDataset(30, 5);
  auto model = JointTopicModel::Create(SmallConfig(3), &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->Train().ok());
  TopicEstimates est = model->Estimate();
  for (const auto& phi_k : est.phi) {
    double sum = 0.0;
    for (double p : phi_k) {
      EXPECT_GT(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(JointTopicModelTest, ThetaRowsAreDistributions) {
  recipe::Dataset ds = PlantedDataset(30, 6);
  auto model = JointTopicModel::Create(SmallConfig(3), &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->Train().ok());
  TopicEstimates est = model->Estimate();
  for (const auto& theta_d : est.theta) {
    double sum = 0.0;
    for (double p : theta_d) {
      EXPECT_GT(p, 0.0);
      sum += p;
    }
    EXPECT_LE(sum, 1.0 + 1e-9);  // Eq. 5 normalizer includes alpha mass.
  }
}

TEST(JointTopicModelTest, TopicRecipeCountsSumToDocuments) {
  recipe::Dataset ds = PlantedDataset(40, 7);
  auto model = JointTopicModel::Create(SmallConfig(4), &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->Train().ok());
  TopicEstimates est = model->Estimate();
  int total = 0;
  for (int c : est.topic_recipe_count) total += c;
  EXPECT_EQ(total, static_cast<int>(ds.documents.size()));
}

TEST(JointTopicModelTest, LikelihoodImprovesFromInitialization) {
  recipe::Dataset ds = PlantedDataset(60, 8);
  auto model = JointTopicModel::Create(SmallConfig(2), &ds);
  ASSERT_TRUE(model.ok());
  double before = model->LogJointLikelihood();
  ASSERT_TRUE(model->Train().ok());
  double after = model->LogJointLikelihood();
  EXPECT_GT(after, before);
  // The trace records every sweep.
  EXPECT_EQ(model->likelihood_trace().size(),
            static_cast<size_t>(model->completed_sweeps()));
}

TEST(JointTopicModelTest, DeterministicGivenSeed) {
  recipe::Dataset ds = PlantedDataset(30, 9);
  auto a = JointTopicModel::Create(SmallConfig(2), &ds);
  auto b = JointTopicModel::Create(SmallConfig(2), &ds);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(a->RunSweeps(30).ok());
  ASSERT_TRUE(b->RunSweeps(30).ok());
  EXPECT_EQ(a->y(), b->y());
  EXPECT_DOUBLE_EQ(a->LogJointLikelihood(), b->LogJointLikelihood());
}

TEST(JointTopicModelTest, HandlesMoreTopicsThanClusters) {
  // Extra topics must not crash; empty topics redraw from the prior.
  recipe::Dataset ds = PlantedDataset(25, 10);
  auto model = JointTopicModel::Create(SmallConfig(8), &ds);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(model->Train().ok());
  TopicEstimates est = model->Estimate();
  EXPECT_EQ(est.phi.size(), 8u);
  EXPECT_EQ(est.gel_topics.size(), 8u);
}

TEST(JointTopicModelTest, InferTopicForFeaturesMatchesTraining) {
  recipe::Dataset ds = PlantedDataset(60, 12);
  auto model = JointTopicModel::Create(SmallConfig(2), &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->Train().ok());
  // A fresh cluster-0-like point lands in the same topic most cluster-0
  // documents occupy.
  math::Vector gel = {4.0, 9.0, 9.0};
  math::Vector emulsion = {1.0, 9.0};
  int inferred = model->InferTopicForFeatures(gel, emulsion);
  std::map<int, int> cluster0_topics;
  for (size_t d = 0; d < 60; ++d) ++cluster0_topics[model->y()[d]];
  int majority = -1, best = 0;
  for (auto [k, c] : cluster0_topics) {
    if (c > best) {
      best = c;
      majority = k;
    }
  }
  EXPECT_EQ(inferred, majority);
}

TEST(JointTopicModelTest, EmulsionLikelihoodToggleChangesAssignments) {
  // The default follows the paper's literal eq. (3) (gel only); enabling
  // the emulsion Gaussian must also produce a valid, well-separated model.
  recipe::Dataset ds = PlantedDataset(40, 13);
  JointTopicModelConfig config = SmallConfig(2);
  config.use_emulsion_likelihood = true;
  auto model = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(model->Train().ok());
  TopicEstimates est = model->Estimate();
  std::vector<int> truth;
  for (size_t d = 0; d < ds.documents.size(); ++d) {
    truth.push_back(d < 40 ? 0 : 1);
  }
  auto scores = eval::ScoreClustering(est.doc_topic, truth);
  ASSERT_TRUE(scores.ok());
  EXPECT_GT(scores->purity, 0.9);  // Gel + words still separate cleanly.
}

TEST(JointTopicModelTest, FoldInThetaPlacesUnseenDocInRightCluster) {
  recipe::Dataset ds = PlantedDataset(60, 16);
  auto model = JointTopicModel::Create(SmallConfig(2), &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->Train().ok());
  // Majority topic of cluster 0's training docs.
  std::map<int, int> counts;
  for (size_t d = 0; d < 60; ++d) ++counts[model->y()[d]];
  int cluster0_topic = 0;
  int best_count = -1;
  for (auto [k, c] : counts) {
    if (c > best_count) {
      best_count = c;
      cluster0_topic = k;
    }
  }

  // A fresh cluster-0-like document.
  recipe::Document doc;
  doc.term_ids = {0, 1, 0};
  doc.gel_feature = math::Vector(3, 9.0);
  doc.gel_feature[0] = 4.0;
  doc.emulsion_feature = math::Vector(2, 9.0);
  doc.emulsion_feature[0] = 1.0;
  auto theta = model->FoldInTheta(doc, 50);
  ASSERT_TRUE(theta.ok());
  double sum = 0.0;
  int argmax = 0;
  for (size_t k = 0; k < theta->size(); ++k) {
    sum += (*theta)[k];
    if ((*theta)[k] > (*theta)[static_cast<size_t>(argmax)]) {
      argmax = static_cast<int>(k);
    }
  }
  EXPECT_LE(sum, 1.0 + 1e-9);
  EXPECT_EQ(argmax, cluster0_topic);
}

TEST(JointTopicModelTest, FoldInThetaRejectsBadInput) {
  recipe::Dataset ds = PlantedDataset(20, 17);
  auto model = JointTopicModel::Create(SmallConfig(2), &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->RunSweeps(10).ok());
  recipe::Document doc;
  doc.term_ids = {99};  // Outside the 4-term vocabulary.
  doc.gel_feature = math::Vector(3, 5.0);
  doc.emulsion_feature = math::Vector(2, 5.0);
  EXPECT_FALSE(model->FoldInTheta(doc).ok());
  doc.term_ids = {0};
  EXPECT_FALSE(model->FoldInTheta(doc, 0).ok());
}

TEST(JointTopicModelTest, FoldInWithoutAFiniteDensityFallsBackToCounts) {
  recipe::Dataset ds = PlantedDataset(20, 23);
  auto model = JointTopicModel::Create(SmallConfig(), &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->RunSweeps(10).ok());
  recipe::Document doc;
  doc.term_ids = {0, 1, 0};
  doc.emulsion_feature = math::Vector(2, 9.0);
  // Every topic's y weight is -inf or NaN: the y draw refuses them and
  // the fold-in draws y from the word counts instead.
  for (double feature : {1e200, std::nan("")}) {
    SCOPED_TRACE(feature);
    doc.gel_feature = math::Vector(3, feature);
    Rng rng(5);
    auto theta = model->FoldInTheta(doc, 10, rng);
    ASSERT_TRUE(theta.ok());
    double sum = 0.0;
    for (double t : *theta) {
      EXPECT_TRUE(std::isfinite(t));
      sum += t;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(JointTopicModelTest, AlphaOptimizationStaysInBoundsAndHelps) {
  recipe::Dataset ds = PlantedDataset(60, 14);
  JointTopicModelConfig config = SmallConfig(4);
  config.optimize_alpha = true;
  config.alpha_update_interval = 10;
  config.burn_in_sweeps = 10;
  config.sweeps = 60;
  auto model = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->Train().ok());
  double alpha = model->alpha();
  EXPECT_GE(alpha, 1e-4);
  EXPECT_LE(alpha, 10.0);
  // With only 2 real clusters among 4 topics, documents concentrate on few
  // topics, so the fitted symmetric alpha should drop below the start.
  EXPECT_LT(alpha, 0.3);
}

TEST(JointTopicModelTest, UpdateAlphaIsAFixedPointOnItsOwnOutput) {
  recipe::Dataset ds = PlantedDataset(40, 15);
  auto model = JointTopicModel::Create(SmallConfig(2), &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->RunSweeps(40).ok());
  // Iterating the update converges: consecutive outputs approach.
  double prev = model->UpdateAlpha();
  double diff = 1.0;
  for (int i = 0; i < 200; ++i) {
    double next = model->UpdateAlpha();
    diff = std::fabs(next - prev);
    prev = next;
  }
  EXPECT_LT(diff, 1e-4);
}


TEST(JointTopicModelTest, ConstFoldInIsDeterministicAndThreadSafe) {
  // The serving read path: after training stops, any number of threads may
  // fold in unseen recipes through the const overload concurrently. Each
  // caller brings its own RNG, so per-stream results must be bit-identical
  // to a serial run (and the TSan CI leg verifies the absence of hidden
  // mutable state on this path).
  recipe::Dataset ds = PlantedDataset(40, 19);
  auto model = JointTopicModel::Create(SmallConfig(2), &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->RunSweeps(40).ok());
  const JointTopicModel& frozen = *model;

  auto query_doc = [](int cluster) {
    recipe::Document doc;
    doc.term_ids = cluster == 0 ? std::vector<int32_t>{0, 1, 0}
                                : std::vector<int32_t>{2, 3, 2};
    doc.gel_feature = math::Vector(3, 9.0);
    doc.gel_feature[cluster == 0 ? 0 : 1] = cluster == 0 ? 4.0 : 5.0;
    doc.emulsion_feature = math::Vector(2, 9.0);
    doc.emulsion_feature[cluster] = cluster == 0 ? 1.0 : 2.0;
    return doc;
  };

  constexpr int kWorkers = 8;
  std::vector<std::vector<double>> expected(kWorkers);
  for (int i = 0; i < kWorkers; ++i) {
    Rng rng = Rng::ForStream(77, static_cast<uint64_t>(i));
    auto theta = frozen.FoldInTheta(query_doc(i % 2), 30, rng);
    ASSERT_TRUE(theta.ok());
    expected[static_cast<size_t>(i)] = *theta;
  }
  std::vector<int> mismatches(kWorkers, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kWorkers; ++i) {
    threads.emplace_back([&, i] {
      Rng rng = Rng::ForStream(77, static_cast<uint64_t>(i));
      auto theta = frozen.FoldInTheta(query_doc(i % 2), 30, rng);
      if (!theta.ok() || *theta != expected[static_cast<size_t>(i)]) {
        mismatches[static_cast<size_t>(i)] = 1;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kWorkers; ++i) {
    EXPECT_EQ(mismatches[static_cast<size_t>(i)], 0) << "worker " << i;
  }
}

TEST(JointTopicModelTest, ConstAndConvenienceFoldInAgreeOnPlacement) {
  recipe::Dataset ds = PlantedDataset(40, 21);
  auto model = JointTopicModel::Create(SmallConfig(2), &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->Train().ok());
  recipe::Document doc;
  doc.term_ids = {0, 1, 0, 1};
  doc.gel_feature = math::Vector(3, 9.0);
  doc.gel_feature[0] = 4.0;
  doc.emulsion_feature = math::Vector(2, 9.0);
  doc.emulsion_feature[0] = 1.0;
  Rng rng = Rng::ForStream(5, 0);
  auto via_const = model->FoldInTheta(doc, 50, rng);
  auto via_member = model->FoldInTheta(doc, 50);
  ASSERT_TRUE(via_const.ok() && via_member.ok());
  // Different RNGs, same posterior mode: both runs place the query in the
  // same dominant topic.
  auto argmax = [](const std::vector<double>& v) {
    return std::max_element(v.begin(), v.end()) - v.begin();
  };
  EXPECT_EQ(argmax(*via_const), argmax(*via_member));
}

TEST(JointTopicModelTest, GmmInitRecoversClustersFaster) {
  recipe::Dataset ds = PlantedDataset(60, 18);
  JointTopicModelConfig config = SmallConfig(2);
  config.gmm_init = true;
  auto model = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(model.ok());
  // With GMM init the very first sweeps already separate the clusters.
  ASSERT_TRUE(model->RunSweeps(5).ok());
  std::vector<int> truth;
  for (size_t d = 0; d < ds.documents.size(); ++d) {
    truth.push_back(d < 60 ? 0 : 1);
  }
  std::vector<int> y(model->y().begin(), model->y().end());
  auto scores = eval::ScoreClustering(y, truth);
  ASSERT_TRUE(scores.ok());
  EXPECT_GT(scores->purity, 0.9);
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

void ExpectSameBits(const math::Gaussian& actual,
                    const math::Gaussian& expected) {
  ASSERT_EQ(actual.dim(), expected.dim());
  for (size_t r = 0; r < actual.dim(); ++r) {
    EXPECT_EQ(Bits(actual.mean()[r]), Bits(expected.mean()[r]));
    for (size_t c = 0; c < actual.dim(); ++c) {
      EXPECT_EQ(Bits(actual.precision()(r, c)),
                Bits(expected.precision()(r, c)));
    }
  }
}

// Estimate()'s Gaussians are the Normal-Wishart posterior means of each
// topic's member moments. Recomputes them from RunningMoments::Add over the
// members of every topic (in document order) and compares bit for bit.
void ExpectEstimateMatchesAddedMoments(const JointTopicModel& model,
                                       const recipe::Dataset& ds) {
  const TopicEstimates est = model.Estimate();
  const JointTopicModelConfig& config = model.config();
  for (int k = 0; k < model.num_topics(); ++k) {
    SCOPED_TRACE("topic " + std::to_string(k));
    math::RunningMoments gel(ds.documents.front().gel_feature.size());
    math::RunningMoments emu(ds.documents.front().emulsion_feature.size());
    for (size_t d = 0; d < ds.documents.size(); ++d) {
      if (model.y()[d] != k) continue;
      gel.Add(ds.documents[d].gel_feature);
      emu.Add(ds.documents[d].emulsion_feature);
    }
    auto gel_post =
        config.gel_prior.Posterior(gel.count(), gel.Mean(), gel.Scatter());
    auto emu_post = config.emulsion_prior.Posterior(emu.count(), emu.Mean(),
                                                    emu.Scatter());
    ASSERT_TRUE(gel_post.ok() && emu_post.ok());
    auto gel_mean = math::NormalWishartMean(*gel_post);
    auto emu_mean = math::NormalWishartMean(*emu_post);
    ASSERT_TRUE(gel_mean.ok() && emu_mean.ok());
    ExpectSameBits(est.gel_topics[static_cast<size_t>(k)], *gel_mean);
    ExpectSameBits(est.emulsion_topics[static_cast<size_t>(k)], *emu_mean);
  }
}

TEST(JointTopicModelTest, TopicMomentTableMatchesPerDocumentAdd) {
  recipe::Dataset ds = PlantedDataset(10, 21);
  auto model = JointTopicModel::Create(SmallConfig(6), &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->RunSweeps(5).ok());
  std::vector<int> members(6, 0);
  for (int k : model->y()) ++members[static_cast<size_t>(k)];
  ASSERT_GE(std::count(members.begin(), members.end(), 0), 1)
      << "the corpus must leave a topic empty";
  ASSERT_GE(*std::max_element(members.begin(), members.end()), 2);
  ExpectEstimateMatchesAddedMoments(*model, ds);

  // The table copies the features, so after they change only the rebuild
  // in ResyncWithData makes the topic moments follow them.
  for (recipe::Document& doc : ds.documents) {
    for (size_t j = 0; j < doc.gel_feature.size(); ++j) {
      doc.gel_feature[j] =
          0.5 * doc.gel_feature[j] + 0.1 * static_cast<double>(j);
    }
    for (size_t j = 0; j < doc.emulsion_feature.size(); ++j) {
      doc.emulsion_feature[j] = 1.25 * doc.emulsion_feature[j] - 0.3;
    }
  }
  ASSERT_TRUE(model->ResyncWithData().ok());
  ExpectEstimateMatchesAddedMoments(*model, ds);
}

}  // namespace
}  // namespace texrheo::core
