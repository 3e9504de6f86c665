// Ingestion chaos suite: kill the ingester mid-WAL-append, mid-compaction,
// mid-retrain, and mid-rolling-reload, then prove the durability contract —
// every acknowledged recipe is recovered and re-folded exactly once,
// redelivery dedups to the original sequence, the replica fleet's
// fingerprints converge after a partial rollout, and a concurrent query
// stream never sees a failed query.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/joint_topic_model.h"
#include "fault_injection.h"
#include "ingest/record.h"
#include "ingest/service.h"
#include "ingest/wal.h"
#include "math/distributions.h"
#include "recipe/dataset.h"
#include "recipe/ingredient.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"

namespace texrheo::ingest {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/texrheo_chaos_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

math::Gaussian MakeGaussian(double mean, size_t dim) {
  auto g = math::Gaussian::FromPrecision(math::Vector(dim, mean),
                                         math::Matrix::Identity(dim, 4.0));
  EXPECT_TRUE(g.ok());
  return *g;
}

core::ModelSnapshot BaseModel() {
  core::ModelSnapshot model;
  model.vocab.Add("katai");
  model.vocab.Add("purupuru");
  model.vocab.Add("fuwafuwa");
  model.estimates.phi = {{0.8, 0.1, 0.1}, {0.1, 0.45, 0.45}};
  model.estimates.gel_topics = {MakeGaussian(2.0, 3), MakeGaussian(6.0, 3)};
  model.estimates.emulsion_topics = {MakeGaussian(1.0, 6),
                                     MakeGaussian(3.0, 6)};
  model.estimates.topic_recipe_count = {4, 4};
  return model;
}

recipe::Dataset BaseCorpus() {
  recipe::Dataset ds;
  ds.term_vocab.Add("katai");
  ds.term_vocab.Add("purupuru");
  ds.term_vocab.Add("fuwafuwa");
  for (int i = 0; i < 8; ++i) {
    recipe::Document doc;
    doc.recipe_index = static_cast<size_t>(i);
    doc.term_ids = i < 4 ? std::vector<int32_t>{0, 0}
                         : std::vector<int32_t>{1, 2};
    doc.gel_feature = math::Vector(3, i < 4 ? 2.0 : 6.0);
    doc.gel_concentration = math::Vector(3, 0.01);
    doc.emulsion_feature = math::Vector(6, 1.0 + 0.2 * (i % 4));
    doc.emulsion_concentration = math::Vector(6, 0.1 + 0.05 * (i % 4));
    ds.documents.push_back(std::move(doc));
  }
  return ds;
}

struct Stack {
  recipe::Dataset corpus;
  std::unique_ptr<serve::QueryEngine> engine;
  std::unique_ptr<IngestService> service;
};

Stack MakeStack(const std::string& dir, FileOps& ops = FileOps::Real()) {
  Stack stack;
  stack.corpus = BaseCorpus();
  serve::QueryEngineConfig engine_config;
  engine_config.fold_in_sweeps = 10;
  engine_config.batch_linger_micros = 0;
  auto snapshot = serve::ServingSnapshot::FromModel(BaseModel(), "base");
  EXPECT_TRUE(snapshot.ok());
  auto engine =
      serve::QueryEngine::Create(engine_config, *snapshot, &stack.corpus);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  stack.engine = std::move(engine).value();

  IngestServiceConfig config;
  config.wal_dir = dir + "/wal";
  config.refresh.train.num_topics = 2;
  config.refresh.train.alpha = 0.5;
  config.refresh.train.gamma = 0.5;
  config.refresh.train.burn_in_sweeps = 4;
  config.refresh.train.sweeps = 10;
  config.refresh.train.seed = 77;
  config.refresh.refresh_sweeps = 4;
  config.refresh.model_dir = dir + "/models";
  config.refresh.backoff.initial_millis = 1.0;
  config.refresh.backoff.max_millis = 5.0;
  auto service = IngestService::Create(config, stack.engine.get(),
                                       &stack.corpus, ops);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  stack.service = std::move(service).value();
  return stack;
}

IngestRecord Record(int i, std::vector<std::string> terms = {"katai"}) {
  IngestRecord record;
  record.gel = math::Vector(3);
  record.gel[0] = 0.01 + 0.0003 * i;
  record.emulsion = math::Vector(6, 0.1);
  record.terms = std::move(terms);
  return record;
}

/// Re-sends every acknowledged record; each must dedup to the sequence it
/// was originally acknowledged with, with no growth of the engine delta.
void ExpectExactlyOnce(Stack& stack,
                       const std::vector<std::pair<uint64_t, std::string>>&
                           acked) {
  const uint64_t docs_before = stack.engine->GetDeltaStats().delta_docs;
  for (const auto& [sequence, key] : acked) {
    auto decoded = DecodeRecord(key);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    auto result = stack.service->Ingest(*decoded);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->deduped) << "seq " << sequence << " was re-appended";
    // Records absorbed into a refreshed model re-acknowledge with 0.
    if (result->sequence != 0) {
      EXPECT_EQ(result->sequence, sequence);
    }
  }
  EXPECT_EQ(stack.engine->GetDeltaStats().delta_docs, docs_before);
}

TEST(IngestChaosTest, CrashCyclesMidWalAppendLoseNothingAcknowledged) {
  std::string dir = FreshDir("mid_append");
  std::vector<std::pair<uint64_t, std::string>> acked;
  // Three crash cycles; each epoch acknowledges two records, then a
  // fault-injected append tears a frame mid-write and the process "dies".
  for (int epoch = 0; epoch < 3; ++epoch) {
    FaultInjectingFileOps ops;
    Stack stack = MakeStack(dir, ops);
    ASSERT_TRUE(stack.service->Recover().ok());
    EXPECT_EQ(stack.engine->GetDeltaStats().delta_docs, acked.size());

    for (int i = 0; i < 2; ++i) {
      IngestRecord record = Record(epoch * 10 + i);
      auto result = stack.service->Ingest(record);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      CanonicalizeRecord(record);
      acked.emplace_back(result->sequence, EncodeRecord(record));
    }
    // Torn frame: the first write call lands 10 bytes, the next dies.
    ops.max_write_bytes = 10;
    ops.fail_write_after = ops.write_calls + 1;
    auto torn = stack.service->Ingest(Record(epoch * 10 + 9));
    EXPECT_FALSE(torn.ok());  // Never acknowledged.
    ops.fail_write_after = -1;
    ops.max_write_bytes = 0;
  }  // Stack destruction == crash (memory gone, WAL + torn bytes remain).

  Stack stack = MakeStack(dir);
  ASSERT_TRUE(stack.service->Recover().ok());
  EXPECT_EQ(stack.service->live_records(), acked.size());
  EXPECT_EQ(stack.engine->GetDeltaStats().delta_docs, acked.size());
  // The torn, unacknowledged records must NOT have been resurrected.
  obs::MetricsSnapshot snap = stack.engine->TakeMetricsSnapshot();
  EXPECT_EQ(snap.CounterValue("ingest.records.recovered"), acked.size());
  ExpectExactlyOnce(stack, acked);
}

TEST(IngestChaosTest, CrashMidCompactionKeepsAbsorbedRecordsExactlyOnce) {
  std::string dir = FreshDir("mid_compact");
  std::vector<std::pair<uint64_t, std::string>> acked;
  {
    FaultInjectingFileOps ops;
    Stack stack = MakeStack(dir, ops);
    ASSERT_TRUE(stack.service->Recover().ok());
    for (int i = 0; i < 3; ++i) {
      IngestRecord record = Record(i);
      auto result = stack.service->Ingest(record);
      ASSERT_TRUE(result.ok());
      CanonicalizeRecord(record);
      acked.emplace_back(result->sequence, EncodeRecord(record));
    }
    // The refresh retrains, packs, reloads, persists the delta corpus —
    // and then dies removing covered WAL segments.
    ops.fail_remove = true;
    auto outcome = stack.service->Refresh();
    EXPECT_FALSE(outcome.ok()) << "compaction was supposed to fail";
    obs::MetricsSnapshot snap = stack.engine->TakeMetricsSnapshot();
    EXPECT_EQ(snap.CounterValue("ingest.refresh.failures"), 1u);
  }  // Crash with the WAL un-compacted but the delta corpus persisted.

  Stack stack = MakeStack(dir);
  ASSERT_TRUE(stack.service->Recover().ok());
  // The absorbed records came back from the delta corpus; the stale WAL
  // segments (sequences at or below the absorbed high-water mark) did not
  // double-fold them.
  EXPECT_EQ(stack.service->absorbed_records(), acked.size());
  EXPECT_EQ(stack.service->live_records(), 0u);
  EXPECT_EQ(stack.engine->GetDeltaStats().delta_docs, acked.size());
  ExpectExactlyOnce(stack, acked);

  // The next refresh finishes the interrupted compaction.
  auto outcome = stack.service->Refresh();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  auto replay = ReplayWal(dir + "/wal");
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->records.empty());  // Everything covered + compacted.
}

TEST(IngestChaosTest, CrashMidRetrainLeavesOldSnapshotServing) {
  std::string dir = FreshDir("mid_retrain");
  std::vector<std::pair<uint64_t, std::string>> acked;
  {
    FaultInjectingFileOps ops;
    Stack stack = MakeStack(dir, ops);
    ASSERT_TRUE(stack.service->Recover().ok());
    for (int i = 0; i < 3; ++i) {
      IngestRecord record = Record(i);
      auto result = stack.service->Ingest(record);
      ASSERT_TRUE(result.ok());
      CanonicalizeRecord(record);
      acked.emplace_back(result->sequence, EncodeRecord(record));
    }
    const uint32_t before = stack.engine->snapshot()->fingerprint();
    // Packing the retrained model hits a full disk.
    ops.fail_write_after = ops.write_calls;
    auto outcome = stack.service->Refresh();
    EXPECT_FALSE(outcome.ok());
    ops.fail_write_after = -1;

    // Degraded, not down: old snapshot serving, records still live,
    // ingestion still accepting.
    EXPECT_EQ(stack.engine->snapshot()->fingerprint(), before);
    EXPECT_EQ(stack.service->live_records(), acked.size());
    serve::TextureQuery query;
    query.gel_concentration = math::Vector(3, 0.01);
    query.texture_terms = {"katai"};
    EXPECT_TRUE(stack.engine->PredictTexture(query).ok());
    IngestRecord extra = Record(50);
    auto result = stack.service->Ingest(extra);
    ASSERT_TRUE(result.ok());
    CanonicalizeRecord(extra);
    acked.emplace_back(result->sequence, EncodeRecord(extra));
  }  // Crash before any successful refresh.

  Stack stack = MakeStack(dir);
  ASSERT_TRUE(stack.service->Recover().ok());
  EXPECT_EQ(stack.service->live_records(), acked.size());
  ExpectExactlyOnce(stack, acked);
  auto outcome = stack.service->Refresh();  // Clean disk: succeeds now.
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->covered_sequence, acked.size());
}

TEST(IngestChaosTest, RollingReloadDyingPartwayConvergesOnRetry) {
  std::string dir = FreshDir("mid_roll");
  // A three-replica "fleet": the ingest service folds into replica 0 and
  // publishes refreshes to all three via the reload callback, the way the
  // router's ROLLING_RELOAD walks its replicas.
  Stack primary = MakeStack(dir);
  recipe::Dataset corpus_b = BaseCorpus();
  recipe::Dataset corpus_c = BaseCorpus();
  serve::QueryEngineConfig engine_config;
  engine_config.fold_in_sweeps = 10;
  engine_config.batch_linger_micros = 0;
  auto snapshot = serve::ServingSnapshot::FromModel(BaseModel(), "base");
  ASSERT_TRUE(snapshot.ok());
  auto engine_b = serve::QueryEngine::Create(engine_config, *snapshot,
                                             &corpus_b);
  auto engine_c = serve::QueryEngine::Create(engine_config, *snapshot,
                                             &corpus_c);
  ASSERT_TRUE(engine_b.ok() && engine_c.ok());
  std::vector<serve::QueryEngine*> fleet = {
      primary.engine.get(), engine_b->get(), engine_c->get()};

  ASSERT_TRUE(primary.service->Recover().ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(primary.service->Ingest(Record(i)).ok());
  }

  int attempts = 0;
  bool saw_mixed_fleet = false;
  primary.service->SetReloadCallback([&](const std::string& path) -> Status {
    ++attempts;
    if (attempts == 1) {
      // The rollout dies after the first replica swapped: the fleet is
      // now serving two different fingerprints.
      Status s = fleet[0]->ReloadFromFile(path);
      if (!s.ok()) return s;
      saw_mixed_fleet = fleet[0]->snapshot()->fingerprint() !=
                        fleet[1]->snapshot()->fingerprint();
      return Status::Unavailable("injected: router died mid-rollout");
    }
    for (serve::QueryEngine* replica : fleet) {
      TEXRHEO_RETURN_IF_ERROR(replica->ReloadFromFile(path));
    }
    return Status::OK();
  });

  auto outcome = primary.service->RefreshWithRetry();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->attempts, 2);
  EXPECT_TRUE(saw_mixed_fleet);
  // Convergence: every replica on the refreshed fingerprint.
  for (serve::QueryEngine* replica : fleet) {
    EXPECT_EQ(replica->snapshot()->fingerprint(), outcome->fingerprint);
  }
  // The streamed recipes survived the double reload on the primary.
  EXPECT_EQ(primary.engine->GetDeltaStats().delta_docs, 3u);
}

TEST(IngestChaosTest, ConcurrentQueriesNeverFailAcrossRefreshAndRecovery) {
  std::string dir = FreshDir("live_queries");
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> query_failures{0};
  std::atomic<uint64_t> queries{0};
  // SIMILAR readers race delta appends, per-state delta segments and
  // reloads alongside the PREDICT traffic.
  auto hammer = [&](serve::QueryEngine* engine) {
    serve::TextureQuery query;
    query.gel_concentration = math::Vector(3, 0.01);
    query.texture_terms = {"katai"};
    for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      auto similar = [&](serve::SimilarityMode mode) {
        return engine->SimilarRecipes(query, 1 + i % 8, serve::kNoDeadline, 0,
                                      mode);
      };
      if (!engine->PredictTexture(query).ok() ||
          !similar(serve::SimilarityMode::kKl).ok() ||
          !similar(serve::SimilarityMode::kLexical).ok()) {
        query_failures.fetch_add(1, std::memory_order_relaxed);
      }
      queries.fetch_add(1, std::memory_order_relaxed);
    }
  };

  {
    Stack stack = MakeStack(dir);
    ASSERT_TRUE(stack.service->Recover().ok());
    stop = false;
    std::thread load(hammer, stack.engine.get());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(stack.service->Ingest(Record(i)).ok());
    }
    auto outcome = stack.service->Refresh();  // Hot swap under load.
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    for (int i = 5; i < 8; ++i) {
      ASSERT_TRUE(stack.service->Ingest(Record(i)).ok());
    }
    stop = true;
    load.join();
  }  // Crash.

  Stack stack = MakeStack(dir);
  stop = false;
  std::thread load(hammer, stack.engine.get());
  ASSERT_TRUE(stack.service->Recover().ok());  // Recovery under load.
  ASSERT_TRUE(stack.service->Ingest(Record(100)).ok());
  stop = true;
  load.join();

  EXPECT_GT(queries.load(), 0u);
  EXPECT_EQ(query_failures.load(), 0u);
  EXPECT_EQ(stack.engine->GetDeltaStats().delta_docs, 9u);
}

}  // namespace
}  // namespace texrheo::ingest
