#include "core/joint_topic_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <thread>
#include <vector>

#include "eval/metrics.h"
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

}  // namespace
}  // namespace texrheo::core
