// Golden end-to-end pipeline test: train a toy corpus twice — once
// uninterrupted, once checkpointed, "crashed", and resumed (with the full
// observability stack attached) — save both models, load them into serving
// snapshots, and serve every query type over a real socket from each.
// Every stage must be bit-identical: sampler trajectory, model file bytes,
// snapshot fingerprints, and protocol responses. This is the whole paper
// pipeline (train -> persist -> serve, eqs. 2-5) under one roof, and it is
// also the proof that instrumentation and crash/resume are invisible to
// results. ci.sh re-runs this binary under both ASan and TSan.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/joint_topic_model.h"
#include "core/model_binary.h"
#include "core/serialization.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recipe/dataset.h"
#include "recipe/features.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "util/json.h"

namespace texrheo {
namespace {

namespace fs = std::filesystem;

constexpr int kTotalSweeps = 40;
constexpr int kCrashAfter = 25;  ///< Past the sweep-20 checkpoint.

/// 24 documents over a texture vocabulary, two planted topics: "hard"
/// recipes (katai, gel features near 2) and "soft" ones (fuwafuwa,
/// features near 6). Dimensions match the serving layer's ingredient
/// space: gel = 3, emulsion = 6.
recipe::Dataset PipelineDataset() {
  recipe::Dataset ds;
  ds.term_vocab.Add("katai");
  ds.term_vocab.Add("purupuru");
  ds.term_vocab.Add("fuwafuwa");
  ds.term_vocab.Add("zzz-not-a-texture-word");
  for (int i = 0; i < 24; ++i) {
    const bool hard = i % 2 == 0;
    recipe::Document doc;
    doc.recipe_index = static_cast<size_t>(i);
    doc.term_ids = hard ? std::vector<int32_t>{0, 0, 1}
                        : std::vector<int32_t>{2, 2, 3};
    doc.gel_feature =
        math::Vector(3, (hard ? 2.0 : 6.0) + 0.05 * (i % 4));
    doc.emulsion_feature = math::Vector(6, hard ? 1.0 : 3.0);
    doc.gel_concentration = math::Vector(3, 0.01 + 0.001 * (i % 4));
    doc.emulsion_concentration = math::Vector(6, 0.1 + 0.02 * (i % 3));
    ds.documents.push_back(std::move(doc));
  }
  return ds;
}

math::NormalWishartParams Prior(size_t dim, double mean) {
  math::NormalWishartParams nw;
  nw.mu0 = math::Vector(dim, mean);
  nw.beta = 1.0;
  nw.nu = static_cast<double>(dim) + 2.0;
  nw.scale = math::Matrix::Identity(dim, 0.5);
  return nw;
}

core::JointTopicModelConfig PipelineConfig(const std::string& checkpoint_dir) {
  core::JointTopicModelConfig config;
  config.num_topics = 2;
  config.alpha = 0.5;
  config.gamma = 0.5;
  config.auto_prior = false;
  config.gel_prior = Prior(3, 4.0);
  config.emulsion_prior = Prior(6, 2.0);
  config.use_emulsion_likelihood = false;
  config.seed = 42;
  config.num_threads = 1;  // Serial: resume is bit-exact.
  config.checkpoint_interval = 10;
  config.checkpoint_dir = checkpoint_dir;
  return config;
}

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/texrheo_e2e_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The protocol commands replayed against each serving stack. Responses
/// depend only on the model and the per-engine admission sequence, so two
/// engines over identical models must answer identically.
const std::vector<std::string>& GoldenCommands() {
  static const std::vector<std::string> kCommands = {
      "PING",
      "PREDICT gelatin=0.012,milk=0.25 terms=jiggly,smooth",
      "PREDICT - terms=katai,purupuru",
      "PREDICT gelatin=0.012,milk=0.25 terms=jiggly,smooth",  // Cache hit.
      "NEAREST 0",
      "NEAREST 1 method=mahalanobis",
      "SIMILAR gelatin=0.02 n=3",
      "SIMILAR agar=0.015 terms=fuwafuwa n=2",
      "TOPIC 0",
      "TOPIC 1",
  };
  return kCommands;
}

/// Starts a server over `model_file` (v2 text or packed .idx/.dat pair —
/// ServingSnapshot::FromFile dispatches on the extension), replays the
/// golden commands over a real socket, and returns the responses.
std::vector<std::string> ServeAndCollect(const std::string& model_file,
                                         const recipe::Dataset* corpus,
                                         uint32_t* fingerprint) {
  auto snapshot = serve::ServingSnapshot::FromFile(model_file);
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  *fingerprint = (*snapshot)->fingerprint();

  serve::QueryEngineConfig config;
  config.fold_in_sweeps = 10;
  auto engine = serve::QueryEngine::Create(config, *snapshot, corpus);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();

  serve::ServerOptions options;
  options.port = 0;
  serve::LineProtocolServer server(engine->get(), options);
  EXPECT_TRUE(server.Start().ok());

  auto client = serve::LineClient::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();

  std::vector<std::string> responses;
  for (const std::string& command : GoldenCommands()) {
    auto reply = (*client)->RoundTrip(command);
    EXPECT_TRUE(reply.ok()) << command << ": " << reply.status().ToString();
    responses.push_back(reply.ok() ? *reply : "<io-error>");
  }
  // Health pages must work over the socket too (content is load-dependent,
  // so it is checked structurally, not byte-compared).
  auto statsz_sent = (*client)->SendLine("STATSZ");
  EXPECT_TRUE(statsz_sent.ok());
  auto statsz = (*client)->ReadUntilDot();
  EXPECT_TRUE(statsz.ok());
  EXPECT_NE(statsz->find("queries: accepted="), std::string::npos);
  auto metricsz = (*client)->RoundTrip("METRICSZ");
  EXPECT_TRUE(metricsz.ok());
  auto parsed = JsonValue::Parse(*metricsz);
  EXPECT_TRUE(parsed.ok()) << *metricsz;

  server.Stop();
  return responses;
}

TEST(PipelineE2eTest, CrashResumeServesBitIdenticalAnswers) {
  recipe::Dataset dataset_a = PipelineDataset();
  recipe::Dataset dataset_b = PipelineDataset();

  // --- Run A: uninterrupted, uninstrumented. ---------------------------
  std::string dir_a = FreshDir("run_a");
  auto model_a = core::JointTopicModel::Create(PipelineConfig(dir_a),
                                               &dataset_a);
  ASSERT_TRUE(model_a.ok()) << model_a.status().ToString();
  ASSERT_TRUE(model_a->RunSweeps(kTotalSweeps).ok());

  // --- Run B: instrumented, crashed at sweep 25, resumed. --------------
  std::string dir_b = FreshDir("run_b");
  obs::MetricsRegistry metrics;
  obs::ManualClock clock;
  obs::Tracer tracer(&clock);
  tracer.ExportDurationsTo(&metrics);
  {
    auto doomed = core::JointTopicModel::Create(PipelineConfig(dir_b),
                                                &dataset_b);
    ASSERT_TRUE(doomed.ok());
    doomed->SetObservability(&metrics, &tracer);
    ASSERT_TRUE(doomed->RunSweeps(kCrashAfter).ok());
    // "Crash": the model is dropped; only the sweep-20 checkpoint survives.
  }
  auto model_b = core::JointTopicModel::Create(PipelineConfig(dir_b),
                                               &dataset_b);
  ASSERT_TRUE(model_b.ok());
  model_b->SetObservability(&metrics, &tracer);
  ASSERT_TRUE(model_b->Resume().ok());
  EXPECT_EQ(model_b->completed_sweeps(), 20);
  ASSERT_TRUE(model_b->RunSweeps(kTotalSweeps - 20).ok());

  // Instrumentation + crash/resume must both be invisible to the chain.
  EXPECT_EQ(model_a->z(), model_b->z());
  EXPECT_EQ(model_a->y(), model_b->y());
  EXPECT_EQ(model_a->likelihood_trace(), model_b->likelihood_trace());

  // The trainer's metrics recorded the full (pre- and post-crash) story.
  obs::MetricsSnapshot train_snap = metrics.TakeSnapshot();
  EXPECT_EQ(train_snap.CounterValue("train.sweeps_completed"),
            static_cast<uint64_t>(kCrashAfter + kTotalSweeps - 20));
  EXPECT_GE(train_snap.CounterValue("train.checkpoints_written"), 4u);
  const LatencyHistogram::Snapshot* sweep_hist =
      train_snap.Histogram("train.sweep_us");
  ASSERT_NE(sweep_hist, nullptr);
  EXPECT_EQ(sweep_hist->count,
            static_cast<uint64_t>(kCrashAfter + kTotalSweeps - 20));

  // --- Persist: identical chains => byte-identical model files. --------
  std::string file_a = dir_a + "/model.txt";
  std::string file_b = dir_b + "/model.txt";
  ASSERT_TRUE(core::SaveModel(
                  file_a, core::MakeSnapshot(model_a->Estimate(),
                                             dataset_a.term_vocab))
                  .ok());
  ASSERT_TRUE(core::SaveModel(
                  file_b, core::MakeSnapshot(model_b->Estimate(),
                                             dataset_b.term_vocab))
                  .ok());
  EXPECT_EQ(ReadFile(file_a), ReadFile(file_b));

  // --- Serve: every query type over a real socket, from each model. ----
  uint32_t fingerprint_a = 0;
  uint32_t fingerprint_b = 0;
  std::vector<std::string> responses_a =
      ServeAndCollect(file_a, &dataset_a, &fingerprint_a);
  std::vector<std::string> responses_b =
      ServeAndCollect(file_b, &dataset_b, &fingerprint_b);
  EXPECT_EQ(fingerprint_a, fingerprint_b);
  ASSERT_EQ(responses_a.size(), responses_b.size());
  for (size_t i = 0; i < responses_a.size(); ++i) {
    EXPECT_EQ(responses_a[i], responses_b[i])
        << "command diverged: " << GoldenCommands()[i];
    EXPECT_EQ(responses_a[i].rfind("OK", 0), 0u)
        << GoldenCommands()[i] << " -> " << responses_a[i];
  }
  // The repeated PREDICT (index 3) must have come from the cache.
  EXPECT_NE(responses_a[3].find("cached=1"), std::string::npos);
}

TEST(PipelineE2eTest, BinaryPackServesBitIdenticalAnswersToV2) {
  // Same model, two on-disk representations: the v2 text file parsed onto
  // the heap, and the packed .dat/.idx pair served straight off the mmap.
  // Over a real socket, every protocol response must be byte-identical and
  // the fingerprints equal — the binary format is a transparent cache of
  // the text format, never a reinterpretation.
  recipe::Dataset dataset = PipelineDataset();
  std::string dir = FreshDir("binary_pack");
  auto model = core::JointTopicModel::Create(PipelineConfig(dir), &dataset);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_TRUE(model->RunSweeps(15).ok());

  std::string v2_file = dir + "/model.txt";
  ASSERT_TRUE(core::SaveModel(v2_file,
                              core::MakeSnapshot(model->Estimate(),
                                                 dataset.term_vocab))
                  .ok());
  std::string base = dir + "/model_bin";
  ASSERT_TRUE(core::ConvertModelFileToBinary(v2_file, base).ok());

  uint32_t fingerprint_text = 0;
  uint32_t fingerprint_mmap = 0;
  std::vector<std::string> responses_text =
      ServeAndCollect(v2_file, &dataset, &fingerprint_text);
  std::vector<std::string> responses_mmap =
      ServeAndCollect(base + ".idx", &dataset, &fingerprint_mmap);
  EXPECT_EQ(fingerprint_text, fingerprint_mmap);
  ASSERT_EQ(responses_text.size(), responses_mmap.size());
  for (size_t i = 0; i < responses_text.size(); ++i) {
    EXPECT_EQ(responses_text[i], responses_mmap[i])
        << "command diverged: " << GoldenCommands()[i];
    EXPECT_EQ(responses_text[i].rfind("OK", 0), 0u)
        << GoldenCommands()[i] << " -> " << responses_text[i];
  }
}

}  // namespace
}  // namespace texrheo
