#ifndef TEXRHEO_CORE_CHECKPOINT_H_
#define TEXRHEO_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "math/distributions.h"
#include "recipe/dataset.h"
#include "util/atomic_file.h"
#include "util/rng.h"
#include "util/status.h"

namespace texrheo::core {

/// Crash-safe checkpointing of Gibbs sampler state.
///
/// A checkpoint is a versioned binary frame
///   magic(8) | version(u32) | payload_size(u64) | payload | crc32(u32)
/// whose CRC32 covers the payload, so a torn write, a truncation, or a
/// bit flip is detected before any state is restored. Doubles travel as
/// raw bit patterns (native endianness — the format is a single-machine
/// durability artifact, not an interchange format), which is what makes a
/// serial chain resume *bit-exactly*: 100 sweeps + checkpoint + restore +
/// 100 sweeps is indistinguishable from 200 straight sweeps.

/// Which sampler wrote a checkpoint; their latent state differs (the
/// paper's sampler instantiates per-topic Gaussians, the collapsed one
/// carries per-topic sufficient statistics instead).
enum class SamplerKind : int32_t { kJoint = 0, kCollapsed = 1 };

/// Everything that must match between the writing and the resuming run.
/// Resume is refused on any mismatch: restoring a chain under different
/// hyperparameters, seed, or thread plan would silently produce samples
/// from the wrong distribution.
struct CheckpointFingerprint {
  SamplerKind sampler = SamplerKind::kJoint;
  int32_t num_topics = 0;
  double alpha = 0.0;  ///< Initial alpha (pre optimize_alpha drift).
  double gamma = 0.0;
  uint64_t seed = 0;
  int32_t num_threads = 1;  ///< As configured (0 = hardware concurrency).
  bool optimize_alpha = false;
  bool use_emulsion_likelihood = false;
  bool gmm_init = false;
  uint64_t num_documents = 0;
  uint64_t vocab_size = 0;

  bool operator==(const CheckpointFingerprint&) const = default;
  std::string ToString() const;
};

/// Raw per-topic sufficient statistics of the collapsed sampler (stored
/// verbatim, round-off drift included, so restore is bit-exact).
struct TopicStatsSnapshot {
  uint64_t n = 0;
  std::vector<double> sum;        ///< dim entries.
  std::vector<double> sum_outer;  ///< dim*dim entries, row-major.
};

/// Full restorable sampler state. Count matrices are stored alongside the
/// assignments even though they are derivable from z/y + the dataset: on
/// restore they are rebuilt and compared, which catches resuming against a
/// different or modified corpus.
struct CheckpointState {
  CheckpointFingerprint fingerprint;
  int32_t completed_sweeps = 0;
  double current_alpha = 0.0;  ///< May differ from fingerprint.alpha.
  Rng::State master_rng;
  std::vector<Rng::State> shard_rngs;  ///< Empty when the parallel engine
                                       ///< was never spun up.
  std::vector<int32_t> y;
  std::vector<std::vector<int32_t>> z;
  std::vector<std::vector<int32_t>> n_dk;
  std::vector<std::vector<int32_t>> n_kv;
  std::vector<int32_t> n_k;
  std::vector<int32_t> m_k;
  /// SamplerKind::kJoint only: the instantiated eq.-4 Gaussians and the
  /// likelihood trace.
  std::vector<math::Gaussian> gel_topics;
  std::vector<math::Gaussian> emulsion_topics;
  std::vector<double> likelihood_trace;
  /// SamplerKind::kCollapsed only.
  std::vector<TopicStatsSnapshot> gel_stats;
  std::vector<TopicStatsSnapshot> emulsion_stats;
};

/// Serializes `state` into a framed, checksummed byte string.
std::string EncodeCheckpoint(const CheckpointState& state);

/// Parses and validates a frame produced by EncodeCheckpoint. Any
/// truncation (every strict prefix), trailing garbage, checksum mismatch,
/// or structurally inconsistent payload is rejected with a clean Status —
/// never a crash, never a partially populated state. A frame written by the
/// removed sparse z-sampler is refused with FailedPrecondition.
StatusOr<CheckpointState> DecodeCheckpoint(std::string_view bytes);

/// Writes `state` to `path` via the atomic write-temp + fsync + rename
/// path, so a crash mid-checkpoint can never leave a torn file under the
/// checkpoint name.
Status WriteCheckpointFile(const std::string& path,
                           const CheckpointState& state,
                           FileOps& ops = FileOps::Real());

/// Reads and decodes one checkpoint file.
StatusOr<CheckpointState> ReadCheckpointFile(const std::string& path);

/// Canonical file name for the checkpoint taken after `sweep` completed
/// sweeps: "ckpt-000000123.ckpt" (zero-padded so lexicographic order is
/// sweep order).
std::string CheckpointFileName(int sweep);

/// Checkpoint files in `dir`, newest (highest sweep) first. Non-checkpoint
/// files (including *.tmp left by a crash-before-rename) are ignored.
/// Returns full paths; empty when the directory is missing or empty.
std::vector<std::string> ListCheckpointFiles(const std::string& dir);

/// Scans `dir` newest-first and returns the first checkpoint that decodes
/// cleanly, silently skipping torn or corrupt files. NotFound when no
/// valid checkpoint exists. `path_out` (optional) receives the winning
/// file's path.
StatusOr<CheckpointState> LoadLatestValidCheckpoint(
    const std::string& dir, std::string* path_out = nullptr);

/// Deletes all but the newest `keep_last` checkpoint files in `dir`
/// (keep_last < 1 keeps one). Removal failures are reported but the newest
/// files are never touched.
Status PruneCheckpoints(const std::string& dir, int keep_last,
                        FileOps& ops = FileOps::Real());

/// Rebuilds the count matrices implied by `state`'s assignments over
/// `dataset`'s current tokens and compares them with the stored ones. A
/// mismatch means the checkpoint was taken against a different (or
/// since-modified) corpus; restoring it would silently corrupt the chain.
Status ValidateCheckpointAgainstDataset(const CheckpointState& state,
                                        const recipe::Dataset& dataset);

/// Conversions between the models' `int` state vectors and the
/// checkpoint's fixed-width int32 representation.
inline std::vector<int32_t> ToCheckpointInts(const std::vector<int>& v) {
  return std::vector<int32_t>(v.begin(), v.end());
}
inline std::vector<std::vector<int32_t>> ToCheckpointRows(
    const std::vector<std::vector<int>>& rows) {
  std::vector<std::vector<int32_t>> out;
  out.reserve(rows.size());
  for (const auto& r : rows) out.push_back(ToCheckpointInts(r));
  return out;
}
inline std::vector<int> FromCheckpointInts(const std::vector<int32_t>& v) {
  return std::vector<int>(v.begin(), v.end());
}
inline std::vector<std::vector<int>> FromCheckpointRows(
    const std::vector<std::vector<int32_t>>& rows) {
  std::vector<std::vector<int>> out;
  out.reserve(rows.size());
  for (const auto& r : rows) out.push_back(FromCheckpointInts(r));
  return out;
}

}  // namespace texrheo::core

#endif  // TEXRHEO_CORE_CHECKPOINT_H_
