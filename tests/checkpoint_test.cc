// Checkpoint/resume correctness and crash-safety: bit-exact golden
// trajectories for the serial samplers, deterministic resume for the
// parallel engine, fingerprint/corpus validation, and a fault-injection
// suite proving recovery always lands on the newest valid checkpoint (or a
// clean Status) — never on a torn or poisoned state.

#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/collapsed_sampler.h"
#include "core/joint_topic_model.h"
#include "recipe/dataset.h"
#include "fault_injection.h"
#include "util/crc32.h"
#include "util/csv.h"

namespace texrheo::core {
namespace {

namespace fs = std::filesystem;

constexpr int kTopics = 2;

// Same tiny corpus as sampler_exactness_test: 3 documents, 1-D features.
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

// Fresh per-test checkpoint directory.
std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/texrheo_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Frame format.

TEST(CheckpointFrameTest, EncodeDecodeRoundTrip) {
  recipe::Dataset ds = TinyDataset();
  auto model = JointTopicModel::Create(TinyConfig(11), &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->RunSweeps(5).ok());
  CheckpointState state = model->CaptureCheckpoint();

  auto decoded = DecodeCheckpoint(EncodeCheckpoint(state));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->fingerprint, state.fingerprint);
  EXPECT_EQ(decoded->completed_sweeps, 5);
  EXPECT_EQ(decoded->y, state.y);
  EXPECT_EQ(decoded->z, state.z);
  EXPECT_EQ(decoded->n_dk, state.n_dk);
  EXPECT_EQ(decoded->n_kv, state.n_kv);
  EXPECT_EQ(decoded->n_k, state.n_k);
  EXPECT_EQ(decoded->m_k, state.m_k);
  EXPECT_EQ(decoded->likelihood_trace, state.likelihood_trace);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(decoded->master_rng.words[i], state.master_rng.words[i]);
  }
  EXPECT_EQ(decoded->master_rng.has_cached_gaussian,
            state.master_rng.has_cached_gaussian);
  EXPECT_EQ(decoded->master_rng.cached_gaussian_bits,
            state.master_rng.cached_gaussian_bits);
  ASSERT_EQ(decoded->gel_topics.size(), state.gel_topics.size());
  for (size_t k = 0; k < state.gel_topics.size(); ++k) {
    EXPECT_EQ(decoded->gel_topics[k].mean().data(),
              state.gel_topics[k].mean().data());
    EXPECT_TRUE(decoded->gel_topics[k].precision() ==
                state.gel_topics[k].precision());
  }
}

TEST(CheckpointFrameTest, EveryStrictPrefixIsRejected) {
  recipe::Dataset ds = TinyDataset();
  auto model = JointTopicModel::Create(TinyConfig(3), &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->RunSweeps(2).ok());
  std::string bytes = EncodeCheckpoint(model->CaptureCheckpoint());
  ASSERT_GT(bytes.size(), 64u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto decoded = DecodeCheckpoint(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of length " << len << " accepted";
  }
}

TEST(CheckpointFrameTest, TrailingGarbageIsRejected) {
  recipe::Dataset ds = TinyDataset();
  auto model = JointTopicModel::Create(TinyConfig(3), &ds);
  ASSERT_TRUE(model.ok());
  std::string bytes = EncodeCheckpoint(model->CaptureCheckpoint());
  EXPECT_FALSE(DecodeCheckpoint(bytes + "x").ok());
  EXPECT_FALSE(DecodeCheckpoint(bytes + std::string(100, '\0')).ok());
}

TEST(CheckpointFrameTest, BitFlipsAreRejected) {
  recipe::Dataset ds = TinyDataset();
  auto model = JointTopicModel::Create(TinyConfig(3), &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->RunSweeps(1).ok());
  std::string bytes = EncodeCheckpoint(model->CaptureCheckpoint());
  for (size_t pos = 0; pos < bytes.size(); pos += 17) {
    std::string corrupted = bytes;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x40);
    auto decoded = DecodeCheckpoint(corrupted);
    if (!decoded.ok()) continue;
    // A flip that still decodes must have produced the identical payload
    // (impossible here) — treat any acceptance as failure.
    ADD_FAILURE() << "bit flip at byte " << pos << " went undetected";
  }
}

TEST(CheckpointFrameTest, CollapsedStateRoundTripsWithStats) {
  recipe::Dataset ds = TinyDataset();
  auto model = CollapsedJointTopicModel::Create(TinyConfig(21), &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->RunSweeps(4).ok());
  CheckpointState state = model->CaptureCheckpoint();
  ASSERT_EQ(state.fingerprint.sampler, SamplerKind::kCollapsed);
  ASSERT_EQ(state.gel_stats.size(), static_cast<size_t>(kTopics));

  auto decoded = DecodeCheckpoint(EncodeCheckpoint(state));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  for (size_t k = 0; k < state.gel_stats.size(); ++k) {
    EXPECT_EQ(decoded->gel_stats[k].n, state.gel_stats[k].n);
    EXPECT_EQ(decoded->gel_stats[k].sum, state.gel_stats[k].sum);
    EXPECT_EQ(decoded->gel_stats[k].sum_outer, state.gel_stats[k].sum_outer);
  }
}

// ---------------------------------------------------------------------------
// Golden trajectories: resume must be bit-exact for serial chains.

TEST(CheckpointResumeTest, SerialJointChainResumesBitExactly) {
  recipe::Dataset ds = TinyDataset();
  auto straight = JointTopicModel::Create(TinyConfig(42), &ds);
  ASSERT_TRUE(straight.ok());
  ASSERT_TRUE(straight->RunSweeps(200).ok());

  auto first_half = JointTopicModel::Create(TinyConfig(42), &ds);
  ASSERT_TRUE(first_half.ok());
  ASSERT_TRUE(first_half->RunSweeps(100).ok());
  // Round-trip the snapshot through the binary frame, as a real resume
  // after a crash would.
  auto state = DecodeCheckpoint(EncodeCheckpoint(first_half->CaptureCheckpoint()));
  ASSERT_TRUE(state.ok()) << state.status().ToString();

  auto resumed = JointTopicModel::Create(TinyConfig(42), &ds);
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE(resumed->RestoreFromCheckpoint(*state).ok());
  EXPECT_EQ(resumed->completed_sweeps(), 100);
  ASSERT_TRUE(resumed->RunSweeps(100).ok());

  EXPECT_EQ(resumed->completed_sweeps(), straight->completed_sweeps());
  EXPECT_EQ(resumed->z(), straight->z());
  EXPECT_EQ(resumed->y(), straight->y());
  // The likelihood trace is doubles; bit-exact resume means *equality*,
  // not approximate agreement.
  ASSERT_EQ(resumed->likelihood_trace().size(),
            straight->likelihood_trace().size());
  for (size_t i = 0; i < straight->likelihood_trace().size(); ++i) {
    EXPECT_EQ(resumed->likelihood_trace()[i], straight->likelihood_trace()[i])
        << "trace diverged at sweep " << i;
  }
}

TEST(CheckpointResumeTest, SerialCollapsedChainResumesBitExactly) {
  recipe::Dataset ds = TinyDataset();
  auto straight = CollapsedJointTopicModel::Create(TinyConfig(7), &ds);
  ASSERT_TRUE(straight.ok());
  ASSERT_TRUE(straight->RunSweeps(200).ok());

  auto first_half = CollapsedJointTopicModel::Create(TinyConfig(7), &ds);
  ASSERT_TRUE(first_half.ok());
  ASSERT_TRUE(first_half->RunSweeps(100).ok());
  auto state = DecodeCheckpoint(EncodeCheckpoint(first_half->CaptureCheckpoint()));
  ASSERT_TRUE(state.ok()) << state.status().ToString();

  auto resumed = CollapsedJointTopicModel::Create(TinyConfig(7), &ds);
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE(resumed->RestoreFromCheckpoint(*state).ok());
  ASSERT_TRUE(resumed->RunSweeps(100).ok());

  EXPECT_EQ(resumed->z(), straight->z());
  EXPECT_EQ(resumed->y(), straight->y());
  // The collapsed sampler's sufficient statistics carry round-off from
  // incremental removes; bit-exact restore means the predictive likelihood
  // is *equal*, not merely close.
  auto ll_straight = straight->PredictiveLogLikelihood();
  auto ll_resumed = resumed->PredictiveLogLikelihood();
  ASSERT_TRUE(ll_straight.ok());
  ASSERT_TRUE(ll_resumed.ok());
  EXPECT_EQ(*ll_resumed, *ll_straight);
}

TEST(CheckpointResumeTest, OptimizedAlphaSurvivesResume) {
  recipe::Dataset ds = TinyDataset();
  JointTopicModelConfig config = TinyConfig(9);
  config.optimize_alpha = true;
  config.burn_in_sweeps = 5;
  config.alpha_update_interval = 5;

  auto straight = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(straight.ok());
  ASSERT_TRUE(straight->RunSweeps(60).ok());

  auto first_half = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(first_half.ok());
  ASSERT_TRUE(first_half->RunSweeps(30).ok());
  CheckpointState state = first_half->CaptureCheckpoint();
  EXPECT_EQ(state.fingerprint.alpha, 0.5);  // Initial, not drifted.
  EXPECT_EQ(state.current_alpha, first_half->alpha());

  auto resumed = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE(resumed->RestoreFromCheckpoint(state).ok());
  EXPECT_EQ(resumed->alpha(), first_half->alpha());
  ASSERT_TRUE(resumed->RunSweeps(30).ok());
  EXPECT_EQ(resumed->alpha(), straight->alpha());
  EXPECT_EQ(resumed->y(), straight->y());
}

TEST(CheckpointResumeTest, ParallelChainResumesDeterministically) {
  recipe::Dataset ds = TinyDataset();
  JointTopicModelConfig config = TinyConfig(13);
  config.num_threads = 2;

  auto straight = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(straight.ok());
  ASSERT_TRUE(straight->RunSweeps(60).ok());

  auto first_half = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(first_half.ok());
  ASSERT_TRUE(first_half->RunSweeps(30).ok());
  CheckpointState state = first_half->CaptureCheckpoint();
  EXPECT_FALSE(state.shard_rngs.empty());

  auto resumed = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE(resumed->RestoreFromCheckpoint(state).ok());
  ASSERT_TRUE(resumed->RunSweeps(30).ok());
  EXPECT_EQ(resumed->z(), straight->z());
  EXPECT_EQ(resumed->y(), straight->y());
}

// ---------------------------------------------------------------------------
// Resume safety: wrong config / wrong corpus.

TEST(CheckpointSafetyTest, FingerprintMismatchIsRefused) {
  recipe::Dataset ds = TinyDataset();
  auto source = JointTopicModel::Create(TinyConfig(1), &ds);
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE(source->RunSweeps(3).ok());
  CheckpointState state = source->CaptureCheckpoint();

  // Different seed.
  auto other_seed = JointTopicModel::Create(TinyConfig(2), &ds);
  ASSERT_TRUE(other_seed.ok());
  Status status = other_seed->RestoreFromCheckpoint(state);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("fingerprint"), std::string::npos);

  // Different topic count.
  JointTopicModelConfig wide = TinyConfig(1);
  wide.num_topics = 3;
  auto other_k = JointTopicModel::Create(wide, &ds);
  ASSERT_TRUE(other_k.ok());
  EXPECT_EQ(other_k->RestoreFromCheckpoint(state).code(),
            StatusCode::kFailedPrecondition);

  // Different alpha.
  JointTopicModelConfig hot = TinyConfig(1);
  hot.alpha = 0.9;
  auto other_alpha = JointTopicModel::Create(hot, &ds);
  ASSERT_TRUE(other_alpha.ok());
  EXPECT_EQ(other_alpha->RestoreFromCheckpoint(state).code(),
            StatusCode::kFailedPrecondition);

  // Different thread plan.
  JointTopicModelConfig threaded = TinyConfig(1);
  threaded.num_threads = 2;
  auto other_threads = JointTopicModel::Create(threaded, &ds);
  ASSERT_TRUE(other_threads.ok());
  EXPECT_EQ(other_threads->RestoreFromCheckpoint(state).code(),
            StatusCode::kFailedPrecondition);

  // A collapsed model must refuse a joint checkpoint outright.
  auto collapsed = CollapsedJointTopicModel::Create(TinyConfig(1), &ds);
  ASSERT_TRUE(collapsed.ok());
  EXPECT_EQ(collapsed->RestoreFromCheckpoint(state).code(),
            StatusCode::kFailedPrecondition);
}

TEST(CheckpointSafetyTest, ModifiedCorpusIsRefused) {
  recipe::Dataset ds = TinyDataset();
  auto source = JointTopicModel::Create(TinyConfig(5), &ds);
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE(source->RunSweeps(3).ok());
  CheckpointState state = source->CaptureCheckpoint();

  // Same shape, different token: the count cross-check must catch it.
  recipe::Dataset modified = TinyDataset();
  modified.documents[0].term_ids[0] = 1;
  auto target = JointTopicModel::Create(TinyConfig(5), &modified);
  ASSERT_TRUE(target.ok());
  Status status = target->RestoreFromCheckpoint(state);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("corpus"), std::string::npos);

  // A well-matched model still accepts it (sanity check on the test).
  auto clean = JointTopicModel::Create(TinyConfig(5), &ds);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->RestoreFromCheckpoint(state).ok());
}

// The frame keeps the slots the removed sparse z-sampler wrote: the
// fingerprint's sparse byte (payload offset 39, after sampler, K, alpha,
// gamma, seed, threads and three flag bytes) and the stale alias-section
// flag (the payload's last byte). A frame with either set was written by
// that sampler and cannot resume, so decoding refuses it and Resume() finds
// no valid checkpoint.
TEST(CheckpointSafetyTest, SparseWrittenFrameIsRefused) {
  recipe::Dataset ds = TinyDataset();
  auto source = JointTopicModel::Create(TinyConfig(45), &ds);
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE(source->RunSweeps(3).ok());
  const std::string dense = EncodeCheckpoint(source->CaptureCheckpoint());
  ASSERT_TRUE(DecodeCheckpoint(dense).ok());

  constexpr size_t kHeaderSize = 20;  // magic(8) + version(4) + size(8).
  const size_t payload_size = dense.size() - kHeaderSize - sizeof(uint32_t);
  // Sets one payload byte to 1 and re-seals the frame with a fresh CRC-32.
  auto set_payload_byte = [&](size_t offset) {
    std::string frame = dense;
    EXPECT_EQ(frame[kHeaderSize + offset], '\0');
    frame[kHeaderSize + offset] = 1;
    const uint32_t crc =
        Crc32(std::string_view(frame).substr(kHeaderSize, payload_size));
    std::memcpy(frame.data() + frame.size() - sizeof(crc), &crc, sizeof(crc));
    return frame;
  };
  const std::string frames[] = {set_payload_byte(39),
                                set_payload_byte(payload_size - 1)};
  for (const std::string& frame : frames) {
    auto decoded = DecodeCheckpoint(frame);
    EXPECT_EQ(decoded.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(decoded.status().message().find("sparse"), std::string::npos)
        << decoded.status().ToString();

    JointTopicModelConfig config = TinyConfig(45);
    config.checkpoint_dir = FreshDir("sparse_written");
    ASSERT_TRUE(WriteStringToFile(config.checkpoint_dir + "/" +
                                      CheckpointFileName(3),
                                  frame)
                    .ok());
    auto model = JointTopicModel::Create(config, &ds);
    ASSERT_TRUE(model.ok());
    EXPECT_FALSE(model->Resume().ok());
    EXPECT_EQ(model->completed_sweeps(), 0);
  }
}

// ---------------------------------------------------------------------------
// File-level checkpointing, retention, and recovery.

TEST(CheckpointFileTest, TrainingWritesAndResumesFromDirectory) {
  recipe::Dataset ds = TinyDataset();
  JointTopicModelConfig config = TinyConfig(31);
  config.checkpoint_interval = 5;
  config.checkpoint_dir = FreshDir("train_resume");
  config.checkpoint_keep_last = 3;

  auto straight = JointTopicModel::Create(TinyConfig(31), &ds);
  ASSERT_TRUE(straight.ok());
  ASSERT_TRUE(straight->RunSweeps(20).ok());

  auto writer = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->RunSweeps(10).ok());
  std::vector<std::string> files = ListCheckpointFiles(config.checkpoint_dir);
  ASSERT_EQ(files.size(), 2u);  // Sweeps 10 (newest) and 5.
  EXPECT_NE(files[0].find("ckpt-000000010.ckpt"), std::string::npos);
  EXPECT_NE(files[1].find("ckpt-000000005.ckpt"), std::string::npos);

  auto resumed = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE(resumed->Resume().ok());
  EXPECT_EQ(resumed->completed_sweeps(), 10);
  ASSERT_TRUE(resumed->RunSweeps(10).ok());
  // checkpoint_interval is not part of the fingerprint, so the resumed
  // chain matches a straight-through run with checkpointing off.
  EXPECT_EQ(resumed->z(), straight->z());
  EXPECT_EQ(resumed->y(), straight->y());
}

TEST(CheckpointFileTest, RetentionKeepsOnlyNewestFiles) {
  recipe::Dataset ds = TinyDataset();
  JointTopicModelConfig config = TinyConfig(33);
  config.checkpoint_interval = 1;
  config.checkpoint_dir = FreshDir("retention");
  config.checkpoint_keep_last = 2;

  auto model = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->RunSweeps(5).ok());
  std::vector<std::string> files = ListCheckpointFiles(config.checkpoint_dir);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_NE(files[0].find("ckpt-000000005.ckpt"), std::string::npos);
  EXPECT_NE(files[1].find("ckpt-000000004.ckpt"), std::string::npos);
}

// Retention pruning racing a concurrent Resume(): the online-refresh path
// (src/ingest) resumes from the newest checkpoint while the training side
// keeps writing and pruning. A reader must always land on *some* valid
// checkpoint (atomic writes mean a listed file is whole; a pruned file is
// skipped as unreadable) or a clean NotFound — never a torn restore, an
// unexpected error, or a crash.
TEST(CheckpointFileTest, PruneRacingResumeLandsOnValidStateOrCleanNotFound) {
  recipe::Dataset ds = TinyDataset();
  JointTopicModelConfig config = TinyConfig(41);
  config.checkpoint_dir = FreshDir("prune_race");
  config.checkpoint_keep_last = 64;  // The racing prune below is stricter.

  auto writer = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(writer.ok());

  std::atomic<bool> stop{false};
  std::atomic<int> resumed{0};
  std::atomic<int> not_found{0};
  std::mutex bad_mu;
  std::vector<std::string> bad;
  std::thread reader([&] {
    recipe::Dataset local = TinyDataset();
    while (!stop.load(std::memory_order_relaxed)) {
      auto model = JointTopicModel::Create(config, &local);
      if (!model.ok()) continue;
      Status status = model->Resume();
      if (status.ok()) {
        resumed.fetch_add(1, std::memory_order_relaxed);
        // A successful resume restored a complete sweep's state.
        if (model->completed_sweeps() < 1) {
          std::lock_guard<std::mutex> lock(bad_mu);
          bad.push_back("resumed at sweep 0");
        }
      } else if (status.code() == StatusCode::kNotFound) {
        not_found.fetch_add(1, std::memory_order_relaxed);
      } else {
        std::lock_guard<std::mutex> lock(bad_mu);
        bad.push_back(status.ToString());
      }
    }
  });

  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(writer->RunSweeps(1).ok());
    ASSERT_TRUE(writer->WriteCheckpointNow().ok());
    // Aggressive retention: only the newest two survive each round, so
    // the reader keeps seeing files vanish under its directory listing.
    ASSERT_TRUE(PruneCheckpoints(config.checkpoint_dir, 2).ok());
  }
  stop = true;
  reader.join();

  {
    std::lock_guard<std::mutex> lock(bad_mu);
    EXPECT_TRUE(bad.empty()) << bad.front();
  }
  EXPECT_GT(resumed.load() + not_found.load(), 0);

  // After the dust settles, a straight resume lands on the final sweep.
  auto final_model = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(final_model.ok());
  ASSERT_TRUE(final_model->Resume().ok());
  EXPECT_EQ(final_model->completed_sweeps(), 40);
}

TEST(CheckpointFileTest, RecoverySkipsCorruptNewestFile) {
  recipe::Dataset ds = TinyDataset();
  JointTopicModelConfig config = TinyConfig(35);
  config.checkpoint_interval = 5;
  config.checkpoint_dir = FreshDir("skip_corrupt");

  auto model = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->RunSweeps(10).ok());

  // Flip one byte in the newest checkpoint.
  std::string newest =
      ListCheckpointFiles(config.checkpoint_dir).front();
  auto bytes = ReadFileToString(newest);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = *bytes;
  corrupted[corrupted.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteStringToFile(newest, corrupted).ok());

  std::string winner;
  auto state = LoadLatestValidCheckpoint(config.checkpoint_dir, &winner);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->completed_sweeps, 5);
  EXPECT_NE(winner.find("ckpt-000000005.ckpt"), std::string::npos);

  auto resumed = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE(resumed->Resume().ok());
  EXPECT_EQ(resumed->completed_sweeps(), 5);
}

TEST(CheckpointFileTest, RecoverySkipsTruncatedNewestFile) {
  recipe::Dataset ds = TinyDataset();
  JointTopicModelConfig config = TinyConfig(37);
  config.checkpoint_interval = 5;
  config.checkpoint_dir = FreshDir("skip_truncated");

  auto model = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->RunSweeps(10).ok());

  std::string newest = ListCheckpointFiles(config.checkpoint_dir).front();
  auto bytes = ReadFileToString(newest);
  ASSERT_TRUE(bytes.ok());
  // Several torn-write lengths, including an empty file.
  for (size_t len : {size_t{0}, size_t{5}, bytes->size() / 3,
                     bytes->size() - 1}) {
    ASSERT_TRUE(WriteStringToFile(newest, bytes->substr(0, len)).ok());
    auto state = LoadLatestValidCheckpoint(config.checkpoint_dir);
    ASSERT_TRUE(state.ok()) << "torn length " << len;
    EXPECT_EQ(state->completed_sweeps, 5) << "torn length " << len;
  }
}

TEST(CheckpointFileTest, NoValidCheckpointIsNotFound) {
  std::string dir = FreshDir("none_valid");
  EXPECT_EQ(LoadLatestValidCheckpoint(dir).status().code(),
            StatusCode::kNotFound);

  // Garbage, stray, and torn-temp files must not confuse recovery.
  ASSERT_TRUE(WriteStringToFile(dir + "/ckpt-000000003.ckpt", "junk").ok());
  ASSERT_TRUE(WriteStringToFile(dir + "/ckpt-000000009.ckpt.tmp", "x").ok());
  ASSERT_TRUE(WriteStringToFile(dir + "/notes.txt", "unrelated").ok());
  EXPECT_EQ(LoadLatestValidCheckpoint(dir).status().code(),
            StatusCode::kNotFound);

  recipe::Dataset ds = TinyDataset();
  JointTopicModelConfig config = TinyConfig(39);
  config.checkpoint_dir = dir;
  auto model = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->Resume().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Fault injection on the checkpoint write path.

TEST(CheckpointFaultTest, CrashBeforeRenamePreservesPreviousCheckpoint) {
  recipe::Dataset ds = TinyDataset();
  JointTopicModelConfig config = TinyConfig(51);
  config.checkpoint_interval = 5;
  config.checkpoint_dir = FreshDir("crash_rename");

  auto model = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->RunSweeps(5).ok());  // Clean checkpoint at sweep 5.

  FaultInjectingFileOps faulty;
  faulty.crash_before_rename = true;
  faulty.skip_remove = true;
  model->set_checkpoint_file_ops(&faulty);
  Status status = model->RunSweeps(5);  // Checkpoint at sweep 10 "crashes".
  EXPECT_FALSE(status.ok());
  model->set_checkpoint_file_ops(nullptr);

  // Recovery lands on the sweep-5 checkpoint; the orphaned temp file and
  // the failed sweep-10 write are invisible to it.
  std::string winner;
  auto state = LoadLatestValidCheckpoint(config.checkpoint_dir, &winner);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->completed_sweeps, 5);

  auto resumed = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE(resumed->Resume().ok());
  EXPECT_EQ(resumed->completed_sweeps(), 5);
}

TEST(CheckpointFaultTest, DiskFullMidWritePreservesPreviousCheckpoint) {
  recipe::Dataset ds = TinyDataset();
  JointTopicModelConfig config = TinyConfig(53);
  config.checkpoint_interval = 5;
  config.checkpoint_dir = FreshDir("disk_full");

  auto model = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->RunSweeps(5).ok());

  FaultInjectingFileOps faulty;
  faulty.max_write_bytes = 64;
  faulty.fail_write_after = 3;  // A few chunks land, then ENOSPC.
  model->set_checkpoint_file_ops(&faulty);
  EXPECT_FALSE(model->RunSweeps(5).ok());
  model->set_checkpoint_file_ops(nullptr);

  auto state = LoadLatestValidCheckpoint(config.checkpoint_dir);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->completed_sweeps, 5);
}

TEST(CheckpointFaultTest, ShortWritesStillProduceValidCheckpoints) {
  recipe::Dataset ds = TinyDataset();
  JointTopicModelConfig config = TinyConfig(55);
  config.checkpoint_interval = 2;
  config.checkpoint_dir = FreshDir("short_writes");

  auto model = JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(model.ok());
  FaultInjectingFileOps slow;
  slow.max_write_bytes = 13;  // Every write is short; all must be retried.
  model->set_checkpoint_file_ops(&slow);
  ASSERT_TRUE(model->RunSweeps(4).ok());
  model->set_checkpoint_file_ops(nullptr);

  auto state = LoadLatestValidCheckpoint(config.checkpoint_dir);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->completed_sweeps, 4);
}

TEST(CheckpointFaultTest, CollapsedSamplerRecoversFromFaultyWrites) {
  recipe::Dataset ds = TinyDataset();
  JointTopicModelConfig config = TinyConfig(57);
  config.checkpoint_interval = 3;
  config.checkpoint_dir = FreshDir("collapsed_faults");

  auto model = CollapsedJointTopicModel::Create(config, &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->RunSweeps(3).ok());

  FaultInjectingFileOps faulty;
  faulty.crash_before_rename = true;
  faulty.skip_remove = true;
  model->set_checkpoint_file_ops(&faulty);
  EXPECT_FALSE(model->RunSweeps(3).ok());
  model->set_checkpoint_file_ops(nullptr);

  auto resumed = CollapsedJointTopicModel::Create(config, &ds);
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE(resumed->Resume().ok());
  EXPECT_EQ(resumed->completed_sweeps(), 3);
}

// ---------------------------------------------------------------------------
// Numerical-health guards.

TEST(NumericalHealthTest, HealthyModelsPass) {
  recipe::Dataset ds = TinyDataset();
  auto joint = JointTopicModel::Create(TinyConfig(61), &ds);
  ASSERT_TRUE(joint.ok());
  ASSERT_TRUE(joint->RunSweeps(5).ok());
  EXPECT_TRUE(joint->CheckNumericalHealth().ok());

  auto collapsed = CollapsedJointTopicModel::Create(TinyConfig(61), &ds);
  ASSERT_TRUE(collapsed.ok());
  ASSERT_TRUE(collapsed->RunSweeps(5).ok());
  EXPECT_TRUE(collapsed->CheckNumericalHealth().ok());
}

TEST(NumericalHealthTest, PoisonedDataStopsTrainingBeforeCheckpointing) {
  // Every sweep path: the joint and the collapsed sampler, each as the
  // one-shard chain and on the four-shard engine.
  struct Path {
    const char* name;
    bool collapsed;
    int threads;
  };
  const Path kPaths[] = {
      {"joint 1 thread", false, 1},
      {"joint 4 threads", false, 4},
      {"collapsed 1 thread", true, 1},
      {"collapsed 4 threads", true, 4},
  };
  for (const Path& path : kPaths) {
    SCOPED_TRACE(path.name);
    recipe::Dataset ds = TinyDataset();
    JointTopicModelConfig config = TinyConfig(63);
    config.num_threads = path.threads;
    config.checkpoint_interval = 1;
    config.checkpoint_dir = FreshDir("poisoned");

    // Sweeps 1 and 2 are checkpointed; then the corpus is poisoned
    // mid-run, as a corrupted feature pipeline would.
    Status status = Status::OK();
    if (path.collapsed) {
      auto model = CollapsedJointTopicModel::Create(config, &ds);
      ASSERT_TRUE(model.ok());
      ASSERT_TRUE(model->RunSweeps(2).ok());
      ds.documents[1].gel_feature[0] = std::nan("");
      status = model->RunSweeps(3);
    } else {
      auto model = JointTopicModel::Create(config, &ds);
      ASSERT_TRUE(model.ok());
      ASSERT_TRUE(model->RunSweeps(2).ok());
      ds.documents[1].gel_feature[0] = std::nan("");
      status = model->RunSweeps(3);
    }
    EXPECT_FALSE(status.ok());

    // Every surviving checkpoint decodes cleanly and predates the poison.
    std::vector<std::string> files =
        ListCheckpointFiles(config.checkpoint_dir);
    ASSERT_FALSE(files.empty());
    for (const std::string& file : files) {
      auto state = ReadCheckpointFile(file);
      ASSERT_TRUE(state.ok()) << file;
      EXPECT_LE(state->completed_sweeps, 2) << file;
    }
  }
}

TEST(NumericalHealthTest, CheckpointWithNonFiniteGaussianIsRejected) {
  recipe::Dataset ds = TinyDataset();
  auto model = JointTopicModel::Create(TinyConfig(65), &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->RunSweeps(2).ok());
  CheckpointState state = model->CaptureCheckpoint();

  // Scribble a NaN into a stored Gaussian's mean bytes: the decode path
  // must reject the frame (CRC passes only if we re-encode, so corrupt the
  // struct and re-encode to exercise the structural validation).
  std::string bytes = EncodeCheckpoint(state);
  auto decoded = DecodeCheckpoint(bytes);
  ASSERT_TRUE(decoded.ok());
  // Find the first stored mean double and overwrite it with NaN in-place,
  // then fix nothing else: CRC now mismatches -> clean rejection.
  double nan_value = std::nan("");
  std::string nan_bytes(reinterpret_cast<const char*>(&nan_value),
                        sizeof(nan_value));
  double mean0 = state.gel_topics[0].mean()[0];
  std::string mean_bytes(reinterpret_cast<const char*>(&mean0),
                         sizeof(mean0));
  size_t pos = bytes.find(mean_bytes);
  ASSERT_NE(pos, std::string::npos);
  bytes.replace(pos, nan_bytes.size(), nan_bytes);
  EXPECT_FALSE(DecodeCheckpoint(bytes).ok());
}

}  // namespace
}  // namespace texrheo::core
