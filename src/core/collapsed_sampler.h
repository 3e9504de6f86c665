#ifndef TEXRHEO_CORE_COLLAPSED_SAMPLER_H_
#define TEXRHEO_CORE_COLLAPSED_SAMPLER_H_

#include <utility>
#include <vector>

#include "core/joint_topic_model.h"
#include "core/parallel_gibbs.h"
#include "math/student_t.h"

namespace texrheo::core {

/// Collapsed Gibbs sampler for the same joint topic model: instead of
/// instantiating (mu_k, Lambda_k) and redrawing them each sweep (the
/// paper's eq. 4), the Gaussian parameters are integrated out analytically
/// and y_d is sampled from the multivariate Student-t posterior predictive
/// of each topic's Normal-Wishart posterior (Rao-Blackwellized variant;
/// mixes faster on small corpora at a higher per-step cost).
///
/// Accepts the same configuration as JointTopicModel; the
/// `use_emulsion_likelihood` switch behaves identically.
class CollapsedJointTopicModel {
 public:
  static texrheo::StatusOr<CollapsedJointTopicModel> Create(
      const JointTopicModelConfig& config, const recipe::Dataset* dataset);

  CollapsedJointTopicModel(CollapsedJointTopicModel&&) = default;
  CollapsedJointTopicModel& operator=(CollapsedJointTopicModel&&) = default;

  texrheo::Status RunSweeps(int n);
  texrheo::Status Train() { return RunSweeps(config_.sweeps); }

  /// Point estimates in the same shape as JointTopicModel::Estimate();
  /// topic Gaussians are the Normal-Wishart posterior means.
  texrheo::StatusOr<TopicEstimates> Estimate() const;

  /// Collapsed predictive log likelihood of the concentration vectors plus
  /// the token likelihood (monitoring quantity; increases as the chain
  /// mixes).
  texrheo::StatusOr<double> PredictiveLogLikelihood() const;

  const std::vector<int>& y() const { return y_; }
  const std::vector<std::vector<int>>& z() const { return z_; }
  int num_topics() const { return config_.num_topics; }
  int completed_sweeps() const { return completed_sweeps_; }

  /// Rebuilds the count caches and per-topic sufficient statistics from the
  /// current assignments and the dataset's *current* tokens/features. Used
  /// by the Geweke harness, which resamples the data between sweeps;
  /// document count and per-document token counts must be unchanged.
  texrheo::Status ResyncWithData();

  /// Snapshot of the complete sampler state. The per-topic sufficient
  /// statistics are captured verbatim (including accumulated round-off from
  /// incremental removes) so a serial chain resumes bit-exactly.
  CheckpointState CaptureCheckpoint() const;

  /// Restores a CaptureCheckpoint snapshot; same fingerprint and corpus
  /// validation contract as JointTopicModel::RestoreFromCheckpoint.
  texrheo::Status RestoreFromCheckpoint(const CheckpointState& state);

  /// Loads the newest valid checkpoint in config.checkpoint_dir and
  /// restores it; NotFound when no valid checkpoint exists.
  texrheo::Status Resume();

  /// Writes a checkpoint immediately and applies the retention policy.
  texrheo::Status WriteCheckpointNow();

  /// OK when the per-topic sufficient statistics are finite and consistent
  /// with the y assignments. Runs after every sweep, before any checkpoint.
  texrheo::Status CheckNumericalHealth() const;

  /// Test seam: routes checkpoint writes through `ops` (fault injection).
  void set_checkpoint_file_ops(FileOps* ops) { checkpoint_file_ops_ = ops; }

 private:
  /// Incremental per-topic sufficient statistics of one vector family.
  struct TopicStats {
    size_t n = 0;
    math::Vector sum;
    math::Matrix sum_outer;

    explicit TopicStats(size_t dim) : sum(dim), sum_outer(dim, dim) {}
    void Add(const math::Vector& x);
    void Remove(const math::Vector& x);
    math::Vector Mean() const;
    math::Matrix Scatter() const;
  };

  CollapsedJointTopicModel(const JointTopicModelConfig& config,
                           const recipe::Dataset* dataset);

  texrheo::Status Initialize();
  /// Eq.-2 phase: the shard engine runs SweepZShard over every shard.
  void SampleZ();
  /// Eq.-3 phase: SampleYShard over every shard. One shard updates the
  /// live statistics in place (the serial chain); several each sample
  /// against a private copy of the sweep-start statistics, which are then
  /// rebuilt from the final y_. Returns the first failing shard's Status
  /// in shard order.
  texrheo::Status SampleY();
  /// The eq.-3 loop over documents [range.first, range.second) against
  /// `gel` / `emu`, updated incrementally as each y moves.
  texrheo::Status SampleYShard(std::pair<size_t, size_t> range, Rng& rng,
                               std::vector<TopicStats>& gel,
                               std::vector<TopicStats>& emu);
  /// Recomputes gel_stats_/emulsion_stats_ from scratch off the current y_
  /// (the deterministic reduction after a sharded y sweep; also clears
  /// incremental-remove round-off).
  void RebuildTopicStats();
  /// Posterior predictive of one topic's gel (or emulsion) family given its
  /// sufficient statistics.
  texrheo::StatusOr<math::StudentT> Predictive(const TopicStats& stats,
                                               bool use_gel) const;
  CheckpointFingerprint MakeFingerprint() const;
  texrheo::Status MaybeWriteCheckpoint();

  JointTopicModelConfig config_;
  const recipe::Dataset* docs_;
  size_t vocab_size_ = 0;
  FileOps* checkpoint_file_ops_ = nullptr;  ///< Test seam; not owned.
  Rng rng_;
  ShardEngine engine_;  ///< Shard plan, pool, streams (see num_threads).

  std::vector<std::vector<int>> z_;
  std::vector<int> y_;
  std::vector<std::vector<int>> n_dk_;
  std::vector<int> n_vk_;  ///< [v * K + k], term-major.
  std::vector<int> n_k_;
  std::vector<TopicStats> gel_stats_;
  std::vector<TopicStats> emulsion_stats_;
  int completed_sweeps_ = 0;
};

}  // namespace texrheo::core

#endif  // TEXRHEO_CORE_COLLAPSED_SAMPLER_H_
