#ifndef TEXRHEO_CORE_JOINT_TOPIC_MODEL_H_
#define TEXRHEO_CORE_JOINT_TOPIC_MODEL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/parallel_gibbs.h"
#include "core/topic_gaussians.h"
#include "math/distributions.h"
#include "math/running_stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "math/linalg.h"
#include "recipe/dataset.h"
#include "util/atomic_file.h"
#include "util/rng.h"
#include "util/status.h"

namespace texrheo::core {

/// Hyperparameters and schedule of the joint topic model (paper Section
/// III.B, Fig. 1). Each topic k owns:
///   phi_k  ~ Dir(gamma)                    - texture-term distribution
///   (mu_k, Lambda_k) ~ NW(gel prior)       - gel-concentration Gaussian
///   (m_k,  L_k)      ~ NW(emulsion prior)  - emulsion Gaussian
/// Each recipe d draws theta_d ~ Dir(alpha); every texture word w_dn gets a
/// topic z_dn ~ Mult(theta_d), and the whole recipe's concentration vectors
/// get one topic y_d ~ Mult(theta_d).
struct JointTopicModelConfig {
  int num_topics = 10;
  double alpha = 0.3;   ///< Symmetric Dirichlet on theta_d.
  double gamma = 0.1;   ///< Symmetric Dirichlet on phi_k.

  /// Normal-Wishart hyperparameters. When `auto_prior` is true (default)
  /// mu0 / scale are derived from the data (empirical mean; scale set so
  /// E[Lambda] matches the empirical feature variance), which is the usual
  /// practice when the paper does not publish its hyperparameters.
  bool auto_prior = true;
  math::NormalWishartParams gel_prior;
  math::NormalWishartParams emulsion_prior;
  /// Pseudo-count strength used by the auto prior.
  double prior_beta = 0.5;
  double prior_nu_extra = 3.0;  ///< nu = dim + prior_nu_extra.

  int burn_in_sweeps = 60;
  int sweeps = 200;     ///< Total Gibbs sweeps (including burn-in).
  uint64_t seed = 1;

  /// When true, the symmetric alpha is re-estimated every
  /// `alpha_update_interval` sweeps (after burn-in) by Minka's fixed-point
  /// update on the current topic-count matrix. The paper fixes its
  /// hyperparameters; this is an optional extension.
  bool optimize_alpha = false;
  int alpha_update_interval = 20;

  /// When true, the per-recipe topics y are initialized from a Gaussian
  /// mixture fit on the gel features (k-means++-seeded EM) instead of
  /// uniformly at random. Cuts burn-in on well-separated corpora; the
  /// stationary distribution is unchanged.
  bool gmm_init = false;

  /// Eq. (3) as printed carries only the gel Gaussian even though the
  /// graphical model draws e_d from the y_d component too. The literal
  /// equation (false, default) reproduces the paper's Section V.B behaviour:
  /// topics keep within-topic emulsion diversity, which is what the
  /// Bavarois / Milk-jelly emulsion-KL analysis of Figs. 3-4 relies on.
  /// True adds the emulsion Gaussian to the y conditional (ablation) and
  /// yields emulsion-pure topics instead.
  bool use_emulsion_likelihood = false;

  /// Worker threads for the z/y sweeps; 0 resolves to the hardware
  /// concurrency. Every sweep runs the shard engine (core/parallel_gibbs):
  /// documents are split into one token-balanced shard per thread, and
  /// each shard sweeps its range against a frozen snapshot of the
  /// topic-word counts plus its own count delta (SweepZShard), with the
  /// deltas merged after the sweep. One thread (default) is one shard run
  /// inline on the caller's thread with the master RNG stream, which is
  /// exactly the serial chain, bit for bit. More threads give the AD-LDA
  /// approximation: only *statistically* equivalent to the serial chain
  /// (same stationary distribution up to the standard AD-LDA
  /// approximation), never bit-identical, but fully deterministic at a
  /// fixed (seed, num_threads) because every shard draws from its own
  /// SplitMix64-split RNG stream.
  int num_threads = 1;

  /// Sweeps between entries of the joint log-likelihood trace (>= 1). The
  /// likelihood pass is O(tokens) (two memoized logs per token and a
  /// Gaussian log-density per document), and at four threads it is still a
  /// serial phase of every sweep it runs in; trainers that only need a
  /// thinned trace can raise this. The pass is a pure read of the
  /// sampler state and draws no RNG, so the chain trajectory is identical
  /// at any interval — only the trace density (and the per-sweep
  /// non-finiteness guard it doubles as) changes.
  int likelihood_interval = 1;

  /// Crash-safe checkpointing. When `checkpoint_interval` > 0 and
  /// `checkpoint_dir` is non-empty, RunSweeps writes an atomic,
  /// checksummed snapshot of the full sampler state every
  /// `checkpoint_interval` completed sweeps and keeps only the newest
  /// `checkpoint_keep_last` files. A serial chain (num_threads == 1)
  /// resumed from such a checkpoint continues *bit-exactly*; a parallel
  /// chain continues deterministically at fixed (seed, num_threads).
  int checkpoint_interval = 0;
  std::string checkpoint_dir;
  int checkpoint_keep_last = 3;
};

/// Point estimates after Gibbs convergence (paper eq. 5).
struct TopicEstimates {
  /// phi[k][v]: P(term v | topic k).
  std::vector<std::vector<double>> phi;
  /// theta[d][k]: P(topic k | recipe d).
  std::vector<std::vector<double>> theta;
  /// Per-topic gel Gaussian (over -log-concentration features).
  std::vector<math::Gaussian> gel_topics;
  /// Per-topic emulsion Gaussian.
  std::vector<math::Gaussian> emulsion_topics;
  /// Hard assignment: argmax_k theta[d][k].
  std::vector<int> doc_topic;
  /// Number of recipes per topic under the hard assignment.
  std::vector<int> topic_recipe_count;
};

/// Joint topic model trained by Gibbs sampling (paper eqs. 2-4).
///
/// The texture-term component is collapsed (phi integrated out; eq. 2 uses
/// count ratios), while the Gaussian components are instantiated and
/// resampled from their Normal-Wishart posteriors each sweep (eq. 4), as in
/// the paper.
class JointTopicModel {
 public:
  /// Validates config and initializes state over `dataset` (which must
  /// outlive the model). Topics are seeded by random assignment.
  static texrheo::StatusOr<JointTopicModel> Create(
      const JointTopicModelConfig& config, const recipe::Dataset* dataset);

  JointTopicModel(JointTopicModel&&) = default;
  JointTopicModel& operator=(JointTopicModel&&) = default;

  /// Runs `n` full Gibbs sweeps (z for every token, y for every recipe,
  /// Gaussian parameter redraws).
  texrheo::Status RunSweeps(int n);

  /// Runs the configured schedule (config.sweeps).
  texrheo::Status Train() { return RunSweeps(config_.sweeps); }

  /// Complete-data log likelihood under current assignments; increases to a
  /// plateau as the chain mixes (used for convergence checks and tests).
  double LogJointLikelihood() const;

  /// Extracts eq.-5 point estimates from the current state.
  TopicEstimates Estimate() const;

  /// Mean gel feature vector of recipes currently assigned (y_d) to topic k;
  /// zero vector when the topic is empty.
  math::Vector TopicGelFeatureMean(int k) const;

  int num_topics() const { return config_.num_topics; }
  size_t num_documents() const { return docs_->documents.size(); }
  size_t vocab_size() const { return vocab_size_; }
  const JointTopicModelConfig& config() const { return config_; }
  int completed_sweeps() const { return completed_sweeps_; }
  const std::vector<double>& likelihood_trace() const {
    return likelihood_trace_;
  }

  /// Current per-recipe concentration-topic assignments y_d.
  const std::vector<int>& y() const { return y_; }

  /// Current per-token topic assignments z_[d][n].
  const std::vector<std::vector<int>>& z() const { return z_; }

  /// Current instantiated per-topic Gaussians (latent state of eq. 4).
  const std::vector<math::Gaussian>& gel_topics() const {
    return gel_topics_;
  }
  const std::vector<math::Gaussian>& emulsion_topics() const {
    return emulsion_topics_;
  }

  /// Rebuilds the topic-word count caches from the current assignments and
  /// the dataset's *current* token ids, then redraws the topic Gaussians
  /// from their Normal-Wishart posteriors. The sampler-correctness harness
  /// (Geweke successive-conditional chain) mutates the dataset's term ids
  /// and features between sweeps and calls this to re-anchor the chain;
  /// document count and per-document token counts must be unchanged.
  texrheo::Status ResyncWithData();

  /// Current symmetric alpha (changes only when optimize_alpha is set).
  double alpha() const { return config_.alpha; }

  /// One Minka fixed-point update of the symmetric alpha from the current
  /// document-topic counts (words + the y pseudo-count, matching eq. 5's
  /// theta). Returns the new alpha; exposed for tests.
  double UpdateAlpha();

  /// Infers the most likely concentration topic for an unseen (gel,
  /// emulsion) feature pair under the current Gaussians (prior-weighted by
  /// topic sizes). Used by the recipe-annotator example.
  int InferTopicForFeatures(const math::Vector& gel_feature,
                            const math::Vector& emulsion_feature) const;

  /// Folds an unseen document into the trained model: holds phi and the
  /// Gaussians fixed and Gibbs-samples the document's own z / y for
  /// `fold_in_sweeps`, then returns the eq.-5 theta estimate. This is the
  /// standard way to score or place recipes that were not in the training
  /// corpus.
  ///
  /// The read path is const and touches only frozen model state (count
  /// caches, instantiated Gaussians, config); all per-document scratch is
  /// local and the caller supplies the RNG, so any number of threads may
  /// fold in documents concurrently against one model — each with its own
  /// `rng` — as long as no thread is mutating the model (RunSweeps /
  /// Restore / Resync). The serving layer and the TSan-covered
  /// concurrent-query test rely on exactly this contract.
  texrheo::StatusOr<std::vector<double>> FoldInTheta(
      const recipe::Document& doc, int fold_in_sweeps, Rng& rng) const;

  /// Convenience overload drawing from the model's own master RNG stream
  /// (non-const: advances the stream; single-threaded callers only).
  texrheo::StatusOr<std::vector<double>> FoldInTheta(
      const recipe::Document& doc, int fold_in_sweeps = 30) {
    return FoldInTheta(doc, fold_in_sweeps, rng_);
  }

  /// Snapshot of the complete sampler state (assignments, counts, RNG
  /// streams, instantiated Gaussians, likelihood trace) for checkpointing.
  CheckpointState CaptureCheckpoint() const;

  /// Restores a CaptureCheckpoint snapshot. Refuses (FailedPrecondition)
  /// when the checkpoint's fingerprint does not match this model's
  /// configuration, and (InvalidArgument) when the stored count matrices
  /// disagree with a rebuild from the checkpoint's assignments and this
  /// model's dataset — i.e. the corpus changed since the checkpoint.
  texrheo::Status RestoreFromCheckpoint(const CheckpointState& state);

  /// Warm-starts from a checkpoint taken over a *prefix* of this model's
  /// corpus: hyperparameters must match exactly, but the checkpoint may
  /// cover fewer documents and a smaller vocabulary than the dataset —
  /// the streaming-refresh case, where the batch corpus and its term ids
  /// are unchanged, new documents are appended, and the vocabulary is
  /// extended append-only. Prefix documents resume from their
  /// checkpointed assignments; appended documents are initialized against
  /// the checkpointed topic Gaussians; counts are rebuilt at the new
  /// dimensions and the Gaussians redrawn. The chain is not bit-exact
  /// with any batch run (the corpus grew), but it is deterministic and
  /// starts from the mixed state instead of a cold one.
  texrheo::Status WarmStartFromCheckpoint(const CheckpointState& state);

  /// Loads the newest valid checkpoint in config.checkpoint_dir (skipping
  /// torn or corrupt files) and restores it. NotFound when no valid
  /// checkpoint exists.
  texrheo::Status Resume();

  /// Writes a checkpoint for the current state immediately (regardless of
  /// the interval) and applies the retention policy.
  texrheo::Status WriteCheckpointNow();

  /// OK when the sampler state is numerically healthy: finite likelihood,
  /// finite Gaussian parameters, sane alpha. Runs automatically after each
  /// sweep; a poisoned state stops RunSweeps with this Status *before* any
  /// checkpoint of it is written.
  texrheo::Status CheckNumericalHealth() const;

  /// Test seam: routes checkpoint writes through `ops` (fault injection).
  /// Pass nullptr to restore the real filesystem. Not owned.
  void set_checkpoint_file_ops(FileOps* ops) { checkpoint_file_ops_ = ops; }

  /// Attaches the trainer to an observability layer (either may be null;
  /// neither is owned and both must outlive the model). With `metrics` set,
  /// every sweep exports its timing breakdown (train.sweep_us,
  /// train.shard_sample_us split into train.z_sweep_us and
  /// train.y_sweep_us, train.gaussian_update_us, and train.likelihood_us on
  /// the sweeps that run the likelihood pass), progress counters
  /// (train.sweeps_completed, train.checkpoints_written), and state gauges
  /// (train.log_likelihood, train.alpha, train.alpha_drift). With `tracer`
  /// set, each sweep emits the matching span tree, stamped by the tracer's
  /// injected clock: sweep -> shard_sample (-> z_sweep, y_sweep) /
  /// gaussian_update / likelihood.
  ///
  /// Instrumentation reads the sampler state but never writes it and never
  /// draws from any RNG stream: the chain trajectory is bit-identical with
  /// observability attached or not (enforced by sampler_exactness_test).
  void SetObservability(obs::MetricsRegistry* metrics, obs::Tracer* tracer);

 private:
  JointTopicModel(const JointTopicModelConfig& config,
                  const recipe::Dataset* dataset);

  /// Gel and emulsion moments of the documents each topic holds (y_d == k).
  struct TopicMoments {
    std::vector<math::RunningMoments> gel;
    std::vector<math::RunningMoments> emu;
  };

  texrheo::Status InitializePriors();
  texrheo::Status InitializeAssignments();
  /// Accumulates every topic's moments in one pass over the documents;
  /// each topic sees its documents in index order.
  TopicMoments AccumulateTopicMoments() const;
  texrheo::Status ResampleGaussians();
  /// Eq.-2 phase: the shard engine runs SweepZShard over every shard.
  void SampleZ();
  /// Eq.-3 phase: SampleYShard over every shard, then m_k_ is recounted
  /// from y_. Returns the first shard's Internal, in shard order, when a
  /// document's topic weights turn non-finite.
  texrheo::Status SampleY();
  /// The eq.-3 loop over documents [range.first, range.second), reading
  /// log(n_dk + alpha) from `log_count`[n_dk]. The y conditionals depend
  /// only on the document's own counts and the frozen Gaussians, so shards
  /// sample exactly the conditionals a serial scan would.
  texrheo::Status SampleYShard(std::pair<size_t, size_t> range,
                               const std::vector<double>& log_count,
                               Rng& rng);
  ZSweep MakeZSweep();
  /// Repacks gel_soa_/emu_soa_ from the current instantiated Gaussians.
  void RebuildGaussianSoA();
  CheckpointFingerprint MakeFingerprint() const;
  /// Writes a checkpoint when the configured interval divides
  /// completed_sweeps_; no-op when checkpointing is not configured.
  texrheo::Status MaybeWriteCheckpoint();

  JointTopicModelConfig config_;
  const recipe::Dataset* docs_;
  size_t vocab_size_ = 0;
  /// Corpus shape, fixed at construction (ResyncWithData refuses a changed
  /// token count); bounds the memoized-log tables.
  size_t num_tokens_ = 0;
  size_t max_doc_length_ = 0;
  /// config_.alpha as configured, before any optimize_alpha drift; part of
  /// the checkpoint fingerprint.
  double initial_alpha_ = 0.0;
  FileOps* checkpoint_file_ops_ = nullptr;  ///< Test seam; not owned.

  // Observability (see SetObservability). All null when detached; the
  // handles are owned by the registry. The timing clock is the tracer's
  // when one is attached (so ManualClock tests see deterministic
  // durations), the steady clock otherwise.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* obs_sweeps_ = nullptr;
  obs::Counter* obs_checkpoints_ = nullptr;
  obs::Gauge* obs_likelihood_ = nullptr;
  obs::Gauge* obs_alpha_ = nullptr;
  obs::Gauge* obs_alpha_drift_ = nullptr;
  LatencyHistogram* obs_sweep_us_ = nullptr;
  LatencyHistogram* obs_sample_us_ = nullptr;
  LatencyHistogram* obs_z_us_ = nullptr;
  LatencyHistogram* obs_y_us_ = nullptr;
  LatencyHistogram* obs_gaussian_us_ = nullptr;
  LatencyHistogram* obs_likelihood_us_ = nullptr;

  Rng rng_;
  ShardEngine engine_;  ///< Shard plan, pool, streams (see num_threads).
  // Latent state.
  std::vector<std::vector<int>> z_;  // z_[d][n]: topic of token n of doc d.
  std::vector<int> y_;               // y_[d]: topic of doc d's vectors.
  // Count caches.
  std::vector<std::vector<int>> n_dk_;  // words of topic k in doc d.
  std::vector<int> n_vk_;               // [v * K + k]: term v in topic k.
  std::vector<int> n_k_;                // words in topic k.
  std::vector<int> m_k_;                // docs whose y == k.
  // Gaussian components (instantiated, resampled each sweep).
  std::vector<math::Gaussian> gel_topics_;
  std::vector<math::Gaussian> emulsion_topics_;
  // SoA mirrors of the Gaussians for the batched eq.-3 log-density loop;
  // repacked by RebuildGaussianSoA whenever the Gaussians change. Read-only
  // between repacks, so const readers (FoldInTheta) may share them.
  TopicGaussiansSoA gel_soa_;
  TopicGaussiansSoA emu_soa_;

  int completed_sweeps_ = 0;
  std::vector<double> likelihood_trace_;
};

}  // namespace texrheo::core

#endif  // TEXRHEO_CORE_JOINT_TOPIC_MODEL_H_
