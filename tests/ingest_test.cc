// Streaming ingestion: WAL framing/rotation/compaction, record codec +
// wire round trip, content-keyed dedup, crash recovery re-folding every
// acknowledged record exactly once, delta visibility in SIMILAR, the
// stale-vocab contract, and the full refresh cycle (cold start, checkpoint
// warm start, graceful failure, retry). The chaos companion
// (ingest_chaos_test.cc) kills each phase mid-flight.

#include "ingest/service.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/joint_topic_model.h"
#include "fault_injection.h"
#include "ingest/record.h"
#include "ingest/wal.h"
#include "math/distributions.h"
#include "recipe/dataset.h"
#include "recipe/ingredient.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"

namespace texrheo::ingest {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/texrheo_ingest_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// --------------------------------------------------------------------------
// WAL.

TEST(WalTest, AppendReplayRoundTrip) {
  std::string dir = FreshDir("wal_roundtrip");
  auto wal = WriteAheadLog::Open({dir});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  for (int i = 0; i < 5; ++i) {
    auto seq = (*wal)->Append("payload-" + std::to_string(i));
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    EXPECT_EQ(*seq, static_cast<uint64_t>(i + 1));
  }
  auto replay = ReplayWal(dir);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->records.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(replay->records[i].sequence, static_cast<uint64_t>(i + 1));
    EXPECT_EQ(replay->records[i].payload, "payload-" + std::to_string(i));
  }
  EXPECT_EQ(replay->next_sequence, 6u);
  EXPECT_FALSE(replay->torn_tail);
}

TEST(WalTest, ReopenResumesSequenceChain) {
  std::string dir = FreshDir("wal_reopen");
  {
    auto wal = WriteAheadLog::Open({dir});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append("a").ok());
    ASSERT_TRUE((*wal)->Append("b").ok());
  }
  auto wal = WriteAheadLog::Open({dir});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ((*wal)->next_sequence(), 3u);
  auto seq = (*wal)->Append("c");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 3u);
  auto replay = ReplayWal(dir);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records.size(), 3u);
}

TEST(WalTest, RotationAndCompaction) {
  std::string dir = FreshDir("wal_rotate");
  WalOptions options;
  options.dir = dir;
  options.segment_bytes = 1;  // Every append lands in its own segment.
  auto wal = WriteAheadLog::Open(options);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*wal)->Append("r" + std::to_string(i)).ok());
  }
  EXPECT_GE((*wal)->SegmentFiles().size(), 3u);

  // Compaction removes sealed segments fully covered by the high-water
  // mark, never the open one; the survivors still replay densely.
  auto removed = (*wal)->Compact(2);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_GE(*removed, 1);
  auto replay = ReplayWal(dir);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_FALSE(replay->records.empty());
  EXPECT_EQ(replay->records.back().sequence, 4u);
  EXPECT_EQ(replay->next_sequence, 5u);
  for (const WalRecord& record : replay->records) {
    EXPECT_GT(record.sequence, 2u);  // Covered records are gone.
  }
}

TEST(WalTest, TornTailIsDroppedAndRepairedOnOpen) {
  std::string dir = FreshDir("wal_torn");
  {
    auto wal = WriteAheadLog::Open({dir});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append("alpha").ok());
    ASSERT_TRUE((*wal)->Append("beta").ok());
  }
  // A crashed append leaves half a frame behind.
  {
    std::ofstream out(dir + "/" + WalSegmentFileName(1),
                      std::ios::binary | std::ios::app);
    out << "TRWL-half-a-frame";
  }
  auto replay = ReplayWal(dir);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->records.size(), 2u);
  EXPECT_TRUE(replay->torn_tail);

  // Open rewrites the intact prefix; appends continue on a clean boundary.
  auto wal = WriteAheadLog::Open({dir});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  auto seq = (*wal)->Append("gamma");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 3u);
  replay = ReplayWal(dir);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records.size(), 3u);
  EXPECT_FALSE(replay->torn_tail);
}

TEST(WalTest, GapInAcknowledgedSequencesIsAnError) {
  std::string dir = FreshDir("wal_gap");
  WalOptions options;
  options.dir = dir;
  options.segment_bytes = 1;
  {
    auto wal = WriteAheadLog::Open(options);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*wal)->Append("r" + std::to_string(i)).ok());
    }
  }
  // Losing a *middle* segment means an acknowledged record vanished:
  // that is data loss, not a tolerable torn tail.
  fs::remove(dir + "/" + WalSegmentFileName(2));
  auto replay = ReplayWal(dir);
  EXPECT_EQ(replay.status().code(), StatusCode::kIOError)
      << replay.status().ToString();
}

TEST(WalTest, FailedAppendDoesNotConsumeItsSequence) {
  std::string dir = FreshDir("wal_fail_append");
  FaultInjectingFileOps ops;
  auto wal = WriteAheadLog::Open({dir}, ops);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append("good-1").ok());

  ops.fail_write_after = ops.write_calls;  // Kill the next frame write.
  EXPECT_FALSE((*wal)->Append("lost").ok());
  ops.fail_write_after = -1;

  // The failed append's sequence is reissued to the next success, so the
  // acknowledged stream stays dense.
  auto seq = (*wal)->Append("good-2");
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  EXPECT_EQ(*seq, 2u);
  auto replay = ReplayWal(dir);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->records.size(), 2u);
  EXPECT_EQ(replay->records[1].payload, "good-2");
}

TEST(WalTest, FailedSyncPoisonsSegmentButLogRecovers) {
  std::string dir = FreshDir("wal_fail_sync");
  FaultInjectingFileOps ops;
  auto wal = WriteAheadLog::Open({dir}, ops);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append("good-1").ok());

  ops.fail_sync = true;
  EXPECT_FALSE((*wal)->Append("unsynced").ok());
  ops.fail_sync = false;

  ASSERT_TRUE((*wal)->Append("good-2").ok());
  // Reopen from disk: only the acknowledged records, densely numbered.
  wal->reset();
  auto reopened = WriteAheadLog::Open({dir});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto replay = ReplayWal(dir);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->records.size(), 2u);
  EXPECT_EQ(replay->records[0].payload, "good-1");
  EXPECT_EQ(replay->records[1].payload, "good-2");
  EXPECT_EQ(replay->records[1].sequence, 2u);
}

// --------------------------------------------------------------------------
// Record codec + wire round trip.

IngestRecord SampleRecord() {
  IngestRecord record;
  record.gel = math::Vector(recipe::kNumGelTypes);
  record.gel[0] = 0.0123456789012345;
  record.emulsion = math::Vector(recipe::kNumEmulsionTypes);
  record.emulsion[4] = 1.0 / 3.0;
  record.terms = {"purupuru", "katai"};
  return record;
}

TEST(RecordTest, EncodeDecodeRoundTripIsExact) {
  IngestRecord record = SampleRecord();
  CanonicalizeRecord(record);
  auto decoded = DecodeRecord(EncodeRecord(record));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(EncodeRecord(*decoded), EncodeRecord(record));
  for (size_t i = 0; i < record.gel.size(); ++i) {
    EXPECT_EQ(decoded->gel[i], record.gel[i]);  // %.17g: bit-exact.
  }
  EXPECT_EQ(decoded->terms, std::vector<std::string>({"katai", "purupuru"}));
}

TEST(RecordTest, ContentKeyIsTermOrderIndependent) {
  IngestRecord a = SampleRecord();
  IngestRecord b = SampleRecord();
  b.terms = {"katai", "purupuru", "katai"};  // Permuted + duplicated.
  CanonicalizeRecord(a);
  CanonicalizeRecord(b);
  EXPECT_EQ(EncodeRecord(a), EncodeRecord(b));
}

TEST(RecordTest, DecodeRejectsMalformedRecords) {
  EXPECT_FALSE(DecodeRecord("").ok());
  EXPECT_FALSE(DecodeRecord("g=1,0,0 e=0,0,0,0,0,0").ok());  // 2 fields.
  EXPECT_FALSE(DecodeRecord("g=0,0 e=0,0,0,0,0,0 t=").ok());  // Bad gel dim.
  EXPECT_FALSE(DecodeRecord("g=0,0,2 e=0,0,0,0,0,0 t=").ok());  // Ratio > 1.
  EXPECT_FALSE(DecodeRecord("g=0,0,x e=0,0,0,0,0,0 t=a").ok());
  EXPECT_TRUE(DecodeRecord("g=0.01,0,0 e=0,0,0,0,0,0 t=").ok());  // No terms.
}

TEST(RecordTest, WireCommandReproducesTheContentKey) {
  IngestRecord record = SampleRecord();
  CanonicalizeRecord(record);
  std::string command = IngestCommandFor(record);
  std::vector<std::string> tokens = serve::SplitProtocolTokens(command);
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "INGEST");
  auto query = serve::ParseQueryCommand(tokens, nullptr);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(EncodeRecord(RecordFromQuery(*query)), EncodeRecord(record));
}

TEST(RecordTest, EmptyQueryNormalizesToFullDimensionKey) {
  serve::TextureQuery query;  // Both concentration vectors empty.
  query.texture_terms = {"katai"};
  IngestRecord record = RecordFromQuery(query);
  auto decoded = DecodeRecord(EncodeRecord(record));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->gel.size(), static_cast<size_t>(recipe::kNumGelTypes));
}

// --------------------------------------------------------------------------
// Service fixtures: a hand-built 2-topic snapshot over a small trainable
// base corpus (gel features near 2 vs 6), vocab {katai, purupuru,
// fuwafuwa}.

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

core::JointTopicModelConfig RefreshTrain(uint64_t seed = 77) {
  core::JointTopicModelConfig config;
  config.num_topics = 2;
  config.alpha = 0.5;
  config.gamma = 0.5;
  config.burn_in_sweeps = 4;
  config.sweeps = 10;
  config.seed = seed;
  return config;
}

struct Stack {
  recipe::Dataset corpus;
  std::unique_ptr<serve::QueryEngine> engine;
  std::unique_ptr<IngestService> service;
};

Stack MakeStack(const std::string& dir, FileOps& ops = FileOps::Real(),
                std::string checkpoint_dir = "", uint64_t seed = 77) {
  Stack stack;
  stack.corpus = BaseCorpus();
  serve::QueryEngineConfig engine_config;
  engine_config.fold_in_sweeps = 10;
  auto snapshot = serve::ServingSnapshot::FromModel(BaseModel(), "base");
  EXPECT_TRUE(snapshot.ok());
  auto engine =
      serve::QueryEngine::Create(engine_config, *snapshot, &stack.corpus);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  stack.engine = std::move(engine).value();

  IngestServiceConfig config;
  config.wal_dir = dir + "/wal";
  config.refresh.train = RefreshTrain(seed);
  config.refresh.train.checkpoint_dir = std::move(checkpoint_dir);
  config.refresh.refresh_sweeps = 4;
  config.refresh.model_dir = dir + "/models";
  auto service = IngestService::Create(config, stack.engine.get(),
                                       &stack.corpus, ops);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  stack.service = std::move(service).value();
  return stack;
}

IngestRecord HardRecord(double gelatin = 0.01,
                        std::vector<std::string> terms = {"katai"}) {
  IngestRecord record;
  record.gel = math::Vector(3);
  record.gel[0] = gelatin;
  record.emulsion = math::Vector(6, 0.1);
  record.terms = std::move(terms);
  return record;
}

TEST(IngestServiceTest, IngestAcknowledgesFoldsAndDedups) {
  std::string dir = FreshDir("svc_basic");
  Stack stack = MakeStack(dir);
  ASSERT_TRUE(stack.service->Recover().ok());

  auto first = stack.service->Ingest(HardRecord());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->sequence, 1u);
  EXPECT_FALSE(first->deduped);
  EXPECT_GE(first->topic, 0);

  // Redelivery (permuted terms, same content) re-acknowledges sequence 1
  // without a second WAL append or fold.
  auto again = stack.service->Ingest(HardRecord(0.01, {"katai", "katai"}));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->deduped);
  EXPECT_EQ(again->sequence, 1u);
  EXPECT_EQ(again->topic, -1);

  serve::DeltaStats delta = stack.engine->GetDeltaStats();
  EXPECT_EQ(delta.delta_docs, 1u);
  obs::MetricsSnapshot snap = stack.engine->TakeMetricsSnapshot();
  EXPECT_EQ(snap.CounterValue("ingest.records.accepted"), 2u);
  EXPECT_EQ(snap.CounterValue("ingest.records.deduped"), 1u);
  EXPECT_EQ(snap.CounterValue("ingest.records.folded"), 1u);
  EXPECT_EQ(snap.CounterValue("ingest.wal.appends"), 1u);
}

TEST(IngestServiceTest, FoldedRecipesJoinSimilarRankings) {
  std::string dir = FreshDir("svc_similar");
  Stack stack = MakeStack(dir);
  ASSERT_TRUE(stack.service->Recover().ok());
  IngestRecord record = HardRecord(0.015, {"katai", "purupuru"});
  auto result = stack.service->Ingest(record);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->topic, 0);

  // A SIMILAR query landing in the same topic must rank the streamed
  // recipe among the corpus documents (delta indices start past the
  // corpus).
  auto similar = stack.engine->SimilarRecipes(RecordToQuery(record), 20);
  ASSERT_TRUE(similar.ok()) << similar.status().ToString();
  EXPECT_EQ(similar->topic, result->topic);
  bool saw_delta = false;
  for (const serve::SimilarRecipe& hit : similar->recipes) {
    saw_delta |= hit.recipe_index >= stack.corpus.documents.size();
  }
  EXPECT_TRUE(saw_delta);
}

TEST(IngestServiceTest, StaleVocabQueriesFailCleanUntilRefresh) {
  std::string dir = FreshDir("svc_stale");
  Stack stack = MakeStack(dir);
  ASSERT_TRUE(stack.service->Recover().ok());
  ASSERT_TRUE(
      stack.service->Ingest(HardRecord(0.012, {"mochimochi-n"})).ok());

  serve::TextureQuery query;
  query.texture_terms = {"mochimochi-n"};
  auto prediction = stack.engine->PredictTexture(query);
  EXPECT_EQ(prediction.status().code(), StatusCode::kFailedPrecondition)
      << prediction.status().ToString();
  auto similar = stack.engine->SimilarRecipes(query);
  EXPECT_EQ(similar.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_GE(stack.engine->GetDeltaStats().stale_vocab_queries, 2u);

  // Unknown terms that are NOT pending in the pipeline keep the old
  // noisy-text contract: dropped and counted, not an error.
  serve::TextureQuery noisy;
  noisy.gel_concentration = math::Vector(3, 0.01);
  noisy.texture_terms = {"zzz-never-seen"};
  EXPECT_TRUE(stack.engine->PredictTexture(noisy).ok());

  auto refreshed = stack.service->Refresh();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  auto after = stack.engine->PredictTexture(query);
  EXPECT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(stack.engine->GetDeltaStats().pending_terms, 0u);
}

TEST(IngestServiceTest, RecoverRefoldsEveryAcknowledgedRecordExactlyOnce) {
  std::string dir = FreshDir("svc_recover");
  std::vector<std::string> keys;
  {
    Stack stack = MakeStack(dir);
    ASSERT_TRUE(stack.service->Recover().ok());
    for (int i = 0; i < 3; ++i) {
      IngestRecord record = HardRecord(0.01 + 0.002 * i);
      CanonicalizeRecord(record);
      keys.push_back(EncodeRecord(record));
      ASSERT_TRUE(stack.service->Ingest(record).ok());
    }
  }  // "Crash": everything in memory is lost; the WAL survives.

  Stack stack = MakeStack(dir);
  ASSERT_TRUE(stack.service->Recover().ok());
  EXPECT_EQ(stack.service->live_records(), 3u);
  EXPECT_EQ(stack.engine->GetDeltaStats().delta_docs, 3u);
  obs::MetricsSnapshot snap = stack.engine->TakeMetricsSnapshot();
  EXPECT_EQ(snap.CounterValue("ingest.records.recovered"), 3u);

  // Redelivery after recovery still dedups to the original sequences.
  for (size_t i = 0; i < keys.size(); ++i) {
    auto decoded = DecodeRecord(keys[i]);
    ASSERT_TRUE(decoded.ok());
    auto result = stack.service->Ingest(*decoded);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->deduped);
    EXPECT_EQ(result->sequence, static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(stack.engine->GetDeltaStats().delta_docs, 3u);  // No double fold.
}

TEST(IngestServiceTest, RefreshCycleRetrainsCompactsAndStaysVisible) {
  std::string dir = FreshDir("svc_refresh");
  Stack stack = MakeStack(dir);
  ASSERT_TRUE(stack.service->Recover().ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(stack.service
                    ->Ingest(HardRecord(0.01 + 0.003 * i,
                                        {"katai", "new-term"}))
                    .ok());
  }
  const uint32_t before = stack.engine->snapshot()->fingerprint();

  auto outcome = stack.service->Refresh();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->covered_sequence, 4u);
  EXPECT_EQ(outcome->trained_documents,
            stack.corpus.documents.size() + 4);
  EXPECT_EQ(outcome->vocab_size, 4u);  // 3 base terms + "new-term".
  EXPECT_NE(stack.engine->snapshot()->fingerprint(), before);
  EXPECT_EQ(stack.engine->snapshot()->fingerprint(), outcome->fingerprint);

  // Covered records moved from live to absorbed; the WAL compacted; the
  // delta was rebuilt against the new snapshot so SIMILAR still sees them.
  EXPECT_EQ(stack.service->live_records(), 0u);
  EXPECT_EQ(stack.service->absorbed_records(), 4u);
  EXPECT_EQ(stack.service->absorbed_sequence(), 4u);
  EXPECT_EQ(stack.engine->GetDeltaStats().delta_docs, 4u);

  // A post-refresh crash must restore the same world from the delta
  // corpus + compacted WAL.
  Stack recovered = MakeStack(dir);
  ASSERT_TRUE(recovered.service->Recover().ok());
  EXPECT_EQ(recovered.service->absorbed_records(), 4u);
  EXPECT_EQ(recovered.service->live_records(), 0u);
  EXPECT_EQ(recovered.engine->GetDeltaStats().delta_docs, 4u);
  auto redelivered = recovered.service->Ingest(HardRecord(0.01,
                                                          {"katai",
                                                           "new-term"}));
  ASSERT_TRUE(redelivered.ok());
  EXPECT_TRUE(redelivered->deduped);
}

TEST(IngestServiceTest, RefreshWarmStartsFromCheckpoint) {
  std::string dir = FreshDir("svc_warm");
  std::string checkpoint_dir = dir + "/checkpoints";
  fs::create_directories(checkpoint_dir);
  recipe::Dataset base = BaseCorpus();
  // The batch run leaves its Gibbs state behind.
  core::JointTopicModelConfig train = RefreshTrain();
  train.checkpoint_dir = checkpoint_dir;
  auto model = core::JointTopicModel::Create(train, &base);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->RunSweeps(6).ok());
  ASSERT_TRUE(model->WriteCheckpointNow().ok());

  Stack stack = MakeStack(dir, FileOps::Real(), checkpoint_dir);
  ASSERT_TRUE(stack.service->Recover().ok());
  ASSERT_TRUE(stack.service->Ingest(HardRecord()).ok());
  auto outcome = stack.service->Refresh();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->trained_documents, base.documents.size() + 1);

  // The warm start is real: a refresh configured with different
  // hyperparameters (here, a different seed) than the checkpointed run
  // must refuse rather than silently train a divergent model — and the
  // refusal is a graceful degradation, not an outage.
  Stack mismatched = MakeStack(FreshDir("svc_warm_bad"), FileOps::Real(),
                               checkpoint_dir, /*seed=*/123);
  ASSERT_TRUE(mismatched.service->Recover().ok());
  ASSERT_TRUE(mismatched.service->Ingest(HardRecord()).ok());
  auto refused = mismatched.service->Refresh();
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition)
      << refused.status().ToString();
  EXPECT_EQ(mismatched.service->live_records(), 1u);
  EXPECT_TRUE(mismatched.service->Ingest(HardRecord(0.02)).ok());
}

TEST(IngestServiceTest, RefreshFailureDegradesGracefully) {
  std::string dir = FreshDir("svc_fail");
  // Reload callback that fails: the publish step of the cycle dies, as if
  // the fleet rejected the new pack.
  Stack stack = MakeStack(dir);
  ASSERT_TRUE(stack.service->Recover().ok());
  ASSERT_TRUE(stack.service->Ingest(HardRecord()).ok());
  const uint32_t before = stack.engine->snapshot()->fingerprint();

  int reload_calls = 0;
  stack.service->SetReloadCallback([&](const std::string&) {
    ++reload_calls;
    return Status::Unavailable("injected: fleet unreachable");
  });
  auto outcome = stack.service->Refresh();
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(reload_calls, 1);

  // Degraded, not broken: the old snapshot keeps serving, the WAL keeps
  // accepting, nothing was absorbed or compacted.
  EXPECT_EQ(stack.engine->snapshot()->fingerprint(), before);
  EXPECT_EQ(stack.service->live_records(), 1u);
  EXPECT_EQ(stack.service->absorbed_records(), 0u);
  auto more = stack.service->Ingest(HardRecord(0.02));
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(more->deduped);

  obs::MetricsSnapshot snap = stack.engine->TakeMetricsSnapshot();
  EXPECT_EQ(snap.CounterValue("ingest.refresh.attempts"), 1u);
  EXPECT_EQ(snap.CounterValue("ingest.refresh.failures"), 1u);
  EXPECT_EQ(snap.CounterValue("ingest.refresh.success"), 0u);
}

TEST(IngestServiceTest, RefreshWithRetryRecoversFromTransientFailure) {
  std::string dir = FreshDir("svc_retry");
  Stack stack = MakeStack(dir);
  ASSERT_TRUE(stack.service->Recover().ok());
  ASSERT_TRUE(stack.service->Ingest(HardRecord()).ok());

  int reload_calls = 0;
  auto real_reload = [&](const std::string& path) {
    return stack.engine->ReloadFromFile(path);
  };
  stack.service->SetReloadCallback([&](const std::string& path) -> Status {
    if (++reload_calls == 1) {
      return Status::Unavailable("injected: transient fleet failure");
    }
    return real_reload(path);
  });
  auto outcome = stack.service->RefreshWithRetry();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->attempts, 2);
  EXPECT_EQ(reload_calls, 2);
  EXPECT_EQ(stack.engine->snapshot()->fingerprint(), outcome->fingerprint);

  obs::MetricsSnapshot snap = stack.engine->TakeMetricsSnapshot();
  EXPECT_EQ(snap.CounterValue("ingest.refresh.attempts"), 2u);
  EXPECT_EQ(snap.CounterValue("ingest.refresh.failures"), 1u);
  EXPECT_EQ(snap.CounterValue("ingest.refresh.success"), 1u);
}

TEST(IngestServiceTest, IngestzRendersEverySection) {
  std::string dir = FreshDir("svc_ingestz");
  Stack stack = MakeStack(dir);
  ASSERT_TRUE(stack.service->Recover().ok());
  ASSERT_TRUE(stack.service->Ingest(HardRecord()).ok());
  std::string page = stack.service->RenderIngestz();
  for (const char* section :
       {"pipeline:", "wal:", "delta:", "refresh:", "engine:"}) {
    EXPECT_NE(page.find(section), std::string::npos) << page;
  }
  EXPECT_NE(page.find("accepted=1"), std::string::npos) << page;
}

TEST(IngestServiceTest, CommandHandlerSpeaksTheProtocol) {
  std::string dir = FreshDir("svc_handler");
  Stack stack = MakeStack(dir);
  ASSERT_TRUE(stack.service->Recover().ok());
  IngestCommandHandler handler(stack.service.get(), stack.engine.get());
  bool quit = false;

  std::string reply = handler.Handle("INGEST gelatin=0.01 terms=katai",
                                     &quit, serve::kNoDeadline);
  EXPECT_EQ(reply.rfind("OK seq=1 dedup=0 topic=", 0), 0u) << reply;
  reply = handler.Handle("INGEST gelatin=0.01 terms=katai", &quit,
                         serve::kNoDeadline);
  EXPECT_EQ(reply.rfind("OK seq=1 dedup=1", 0), 0u) << reply;
  reply = handler.Handle("INGEST nonsense", &quit, serve::kNoDeadline);
  EXPECT_EQ(reply.rfind("ERR", 0), 0u) << reply;
  reply = handler.Handle("INGESTZ", &quit, serve::kNoDeadline);
  EXPECT_NE(reply.find("pipeline:"), std::string::npos);
  EXPECT_EQ(reply.back(), '.');
  reply = handler.Handle("METRICSZ", &quit, serve::kNoDeadline);
  EXPECT_EQ(reply.front(), '{');
  EXPECT_NE(reply.find("ingest.records.accepted"), std::string::npos);
  reply = handler.Handle("REFRESH", &quit, serve::kNoDeadline);
  EXPECT_EQ(reply.rfind("OK refreshed fingerprint=", 0), 0u) << reply;
  EXPECT_FALSE(quit);
  reply = handler.Handle("QUIT", &quit, serve::kNoDeadline);
  EXPECT_TRUE(quit);
}

}  // namespace
}  // namespace texrheo::ingest
