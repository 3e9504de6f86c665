#include "core/joint_topic_model.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>

#include "core/fold_in.h"
#include "core/gmm_baseline.h"
#include "math/running_stats.h"
#include "math/special.h"

namespace texrheo::core {
namespace {

using recipe::Document;

// Empirical diagonal Normal-Wishart prior: mu0 at the data mean, scale set
// so the prior-expected precision E[Lambda] = nu * S matches the empirical
// per-dimension precision.
math::NormalWishartParams AutoPrior(
    const std::vector<Document>& docs, bool use_gel, double beta,
    double nu_extra) {
  size_t dim = use_gel ? docs.front().gel_feature.size()
                       : docs.front().emulsion_feature.size();
  math::RunningMoments moments(dim);
  for (const Document& d : docs) {
    moments.Add(use_gel ? d.gel_feature : d.emulsion_feature);
  }
  math::Matrix cov = moments.Covariance();
  math::NormalWishartParams prior;
  prior.mu0 = moments.Mean();
  prior.beta = beta;
  prior.nu = static_cast<double>(dim) + nu_extra;
  prior.scale = math::Matrix(dim, dim);
  for (size_t i = 0; i < dim; ++i) {
    double var = std::max(cov(i, i), 1e-3);
    prior.scale(i, i) = 1.0 / (var * prior.nu);
  }
  return prior;
}

/// Normal-Wishart posterior-mean Gaussian given a topic's member moments.
texrheo::StatusOr<math::Gaussian> PosteriorMean(
    const math::NormalWishartParams& prior,
    const math::RunningMoments& moments) {
  TEXRHEO_ASSIGN_OR_RETURN(
      math::NormalWishartParams post,
      prior.Posterior(moments.count(), moments.Mean(), moments.Scatter()));
  return math::NormalWishartMean(post);
}

bool GaussianIsFinite(const math::Gaussian& g) {
  for (size_t i = 0; i < g.dim(); ++i) {
    if (!std::isfinite(g.mean()[i])) return false;
  }
  for (size_t r = 0; r < g.dim(); ++r) {
    for (size_t c = 0; c < g.dim(); ++c) {
      if (!std::isfinite(g.precision()(r, c))) return false;
    }
  }
  return true;
}

}  // namespace

JointTopicModel::JointTopicModel(const JointTopicModelConfig& config,
                                 const recipe::Dataset* dataset)
    : config_(config),
      docs_(dataset),
      vocab_size_(dataset->term_vocab.size()),
      initial_alpha_(config.alpha),
      rng_(config.seed),
      engine_(config.num_threads, config.seed, config.num_topics,
              vocab_size_, &dataset->documents) {
  for (const Document& doc : dataset->documents) {
    num_tokens_ += doc.term_ids.size();
    max_doc_length_ = std::max(max_doc_length_, doc.term_ids.size());
  }
}

texrheo::StatusOr<JointTopicModel> JointTopicModel::Create(
    const JointTopicModelConfig& config, const recipe::Dataset* dataset) {
  if (dataset == nullptr || dataset->documents.empty()) {
    return Status::InvalidArgument("joint topic model: empty dataset");
  }
  if (config.num_topics < 1) {
    return Status::InvalidArgument("joint topic model: num_topics < 1");
  }
  if (config.alpha <= 0.0 || config.gamma <= 0.0) {
    return Status::InvalidArgument(
        "joint topic model: alpha and gamma must be positive");
  }
  if (config.num_threads < 0) {
    return Status::InvalidArgument(
        "joint topic model: num_threads must be >= 0");
  }
  if (config.likelihood_interval < 1) {
    return Status::InvalidArgument(
        "joint topic model: likelihood_interval must be >= 1");
  }
  JointTopicModel model(config, dataset);
  TEXRHEO_RETURN_IF_ERROR(model.InitializePriors());
  TEXRHEO_RETURN_IF_ERROR(model.InitializeAssignments());
  return model;
}

texrheo::Status JointTopicModel::InitializePriors() {
  const auto& documents = docs_->documents;
  if (config_.auto_prior) {
    config_.gel_prior = AutoPrior(documents, /*use_gel=*/true,
                                  config_.prior_beta, config_.prior_nu_extra);
    config_.emulsion_prior =
        AutoPrior(documents, /*use_gel=*/false, config_.prior_beta,
                  config_.prior_nu_extra);
  }
  TEXRHEO_RETURN_IF_ERROR(config_.gel_prior.Validate());
  TEXRHEO_RETURN_IF_ERROR(config_.emulsion_prior.Validate());
  return Status::OK();
}

texrheo::Status JointTopicModel::InitializeAssignments() {
  const auto& documents = docs_->documents;
  size_t d_count = documents.size();
  int k_count = config_.num_topics;

  z_.resize(d_count);
  y_.resize(d_count);
  n_dk_.assign(d_count, std::vector<int>(k_count, 0));
  n_vk_.assign(vocab_size_ * static_cast<size_t>(k_count), 0);
  n_k_.assign(static_cast<size_t>(k_count), 0);
  m_k_.assign(static_cast<size_t>(k_count), 0);

  for (size_t d = 0; d < d_count; ++d) {
    const Document& doc = documents[d];
    z_[d].resize(doc.term_ids.size());
    for (size_t n = 0; n < doc.term_ids.size(); ++n) {
      int k = static_cast<int>(rng_.NextUint(static_cast<uint64_t>(k_count)));
      z_[d][n] = k;
      ++n_dk_[d][static_cast<size_t>(k)];
      ++n_vk_[static_cast<size_t>(doc.term_ids[n]) *
                  static_cast<size_t>(k_count) +
              static_cast<size_t>(k)];
      ++n_k_[static_cast<size_t>(k)];
    }
    int k = static_cast<int>(rng_.NextUint(static_cast<uint64_t>(k_count)));
    y_[d] = k;
    ++m_k_[static_cast<size_t>(k)];
  }
  if (config_.gmm_init) {
    // Replace the uniform y initialization with GMM hard assignments on
    // the gel features (burn-in accelerator; see config comment).
    std::vector<math::Vector> points;
    points.reserve(d_count);
    for (const auto& doc : documents) points.push_back(doc.gel_feature);
    GmmConfig gmm_config;
    gmm_config.num_components = k_count;
    gmm_config.seed = config_.seed + 1;
    auto gmm = GaussianMixture::Fit(gmm_config, points);
    if (gmm.ok()) {
      std::vector<int> assignments = gmm->HardAssignments(points);
      m_k_.assign(static_cast<size_t>(k_count), 0);
      for (size_t d = 0; d < d_count; ++d) {
        y_[d] = assignments[d];
        ++m_k_[static_cast<size_t>(y_[d])];
      }
    }
  }
  return ResampleGaussians();
}

JointTopicModel::TopicMoments JointTopicModel::AccumulateTopicMoments()
    const {
  const auto& documents = docs_->documents;
  const size_t k_count = static_cast<size_t>(config_.num_topics);
  TopicMoments moments{
      std::vector<math::RunningMoments>(
          k_count, math::RunningMoments(documents.front().gel_feature.size())),
      std::vector<math::RunningMoments>(
          k_count,
          math::RunningMoments(documents.front().emulsion_feature.size()))};
  for (size_t d = 0; d < documents.size(); ++d) {
    const size_t k = static_cast<size_t>(y_[d]);
    moments.gel[k].Add(documents[d].gel_feature);
    moments.emu[k].Add(documents[d].emulsion_feature);
  }
  return moments;
}

texrheo::Status JointTopicModel::ResampleGaussians() {
  const TopicMoments moments = AccumulateTopicMoments();
  std::vector<math::Gaussian> new_gel, new_emu;
  new_gel.reserve(static_cast<size_t>(config_.num_topics));
  new_emu.reserve(static_cast<size_t>(config_.num_topics));

  // The draws keep topic order, gel before emulsion, on the master stream.
  for (size_t k = 0; k < moments.gel.size(); ++k) {
    const math::RunningMoments& gel_moments = moments.gel[k];
    const math::RunningMoments& emu_moments = moments.emu[k];
    TEXRHEO_ASSIGN_OR_RETURN(
        math::NormalWishartParams gel_post,
        config_.gel_prior.Posterior(gel_moments.count(), gel_moments.Mean(),
                                    gel_moments.Scatter()));
    TEXRHEO_ASSIGN_OR_RETURN(
        math::NormalWishartParams emu_post,
        config_.emulsion_prior.Posterior(
            emu_moments.count(), emu_moments.Mean(), emu_moments.Scatter()));
    TEXRHEO_ASSIGN_OR_RETURN(math::Gaussian g,
                             math::NormalWishartSample(rng_, gel_post));
    TEXRHEO_ASSIGN_OR_RETURN(math::Gaussian e,
                             math::NormalWishartSample(rng_, emu_post));
    new_gel.push_back(std::move(g));
    new_emu.push_back(std::move(e));
  }
  gel_topics_ = std::move(new_gel);
  emulsion_topics_ = std::move(new_emu);
  RebuildGaussianSoA();
  return Status::OK();
}

void JointTopicModel::RebuildGaussianSoA() {
  gel_soa_ = TopicGaussiansSoA::FromGaussians(gel_topics_);
  emu_soa_ = TopicGaussiansSoA::FromGaussians(emulsion_topics_);
}

ZSweep JointTopicModel::MakeZSweep() {
  return ZSweep{&docs_->documents,
                &y_,
                &z_,
                &n_dk_,
                &n_vk_,
                &n_k_,
                static_cast<size_t>(config_.num_topics),
                config_.alpha,
                config_.gamma,
                config_.gamma * static_cast<double>(vocab_size_)};
}

void JointTopicModel::SampleZ() { engine_.SweepZ(MakeZSweep(), rng_); }

texrheo::Status JointTopicModel::SampleY() {
  // log(n_dk + alpha) for every count a document can hold (n_dk is at most
  // its length), built per call because alpha moves under optimize_alpha.
  std::vector<double> log_count(max_doc_length_ + 1);
  for (size_t n = 0; n < log_count.size(); ++n) {
    log_count[n] = std::log(static_cast<double>(n) + config_.alpha);
  }
  const Status status = engine_.ForEachShard(rng_, [&](size_t s, Rng& rng) {
    return SampleYShard(engine_.shard(s), log_count, rng);
  });
  m_k_.assign(static_cast<size_t>(config_.num_topics), 0);
  for (int k : y_) ++m_k_[static_cast<size_t>(k)];
  return status;
}

texrheo::Status JointTopicModel::SampleYShard(
    std::pair<size_t, size_t> range, const std::vector<double>& log_count,
    Rng& rng) {
  const auto& documents = docs_->documents;
  const size_t k_count = static_cast<size_t>(config_.num_topics);
  std::vector<double> log_w(k_count);
  std::vector<double> weights(k_count);
  std::vector<double> gel_lp(k_count);
  std::vector<double> emu_lp(k_count);
  TopicGaussiansSoA::Scratch scratch;
  for (size_t d = range.first; d < range.second; ++d) {
    const Document& doc = documents[d];
    // Paper eq. (3): (N_dk + M_dk^{-d} + alpha_k) x N(g_d | mu_k, Lambda_k)
    // (x N(e_d | m_k, L_k) per the graphical model). The doc's own vector
    // is excluded, so M_dk^{-d} = 0. Densities come from the batched SoA
    // evaluator, which is bit-identical to per-topic Gaussian::LogPdf.
    gel_soa_.BatchLogPdf(doc.gel_feature, scratch, gel_lp.data());
    if (config_.use_emulsion_likelihood) {
      emu_soa_.BatchLogPdf(doc.emulsion_feature, scratch, emu_lp.data());
    }
    const int* doc_counts = n_dk_[d].data();
    for (size_t k = 0; k < k_count; ++k) {
      double lw = log_count[static_cast<size_t>(doc_counts[k])];
      lw += gel_lp[k];
      if (config_.use_emulsion_likelihood) {
        lw += emu_lp[k];
      }
      log_w[k] = lw;
    }
    double norm = math::LogSumExp(log_w.data(), log_w.size());
    if (!std::isfinite(norm)) {
      return Status::Internal(
          "numerical health: non-finite topic weights for document " +
          std::to_string(d));
    }
    for (size_t k = 0; k < k_count; ++k) {
      weights[k] = std::exp(log_w[k] - norm);
    }
    y_[d] = static_cast<int>(rng.NextCategorical(weights));
  }
  return Status::OK();
}

texrheo::Status JointTopicModel::ResyncWithData() {
  const auto& documents = docs_->documents;
  if (documents.size() != z_.size()) {
    return Status::InvalidArgument("resync: document count changed");
  }
  const size_t k_count = static_cast<size_t>(config_.num_topics);
  std::fill(n_vk_.begin(), n_vk_.end(), 0);
  std::fill(n_k_.begin(), n_k_.end(), 0);
  for (size_t d = 0; d < documents.size(); ++d) {
    const Document& doc = documents[d];
    if (doc.term_ids.size() != z_[d].size()) {
      return Status::InvalidArgument("resync: token count changed");
    }
    for (size_t n = 0; n < doc.term_ids.size(); ++n) {
      if (doc.term_ids[n] < 0 ||
          static_cast<size_t>(doc.term_ids[n]) >= vocab_size_) {
        return Status::OutOfRange("resync: term id outside vocab");
      }
      ++n_vk_[static_cast<size_t>(doc.term_ids[n]) * k_count +
              static_cast<size_t>(z_[d][n])];
      ++n_k_[static_cast<size_t>(z_[d][n])];
    }
  }
  // The instantiated Gaussians are conditioned on the old features; redraw
  // them so the next sweep's y conditionals see p(mu, Lambda | y, new data).
  return ResampleGaussians();
}

void JointTopicModel::SetObservability(obs::MetricsRegistry* metrics,
                                       obs::Tracer* tracer) {
  metrics_ = metrics;
  tracer_ = tracer;
  if (metrics_ == nullptr) {
    obs_sweeps_ = obs_checkpoints_ = nullptr;
    obs_likelihood_ = obs_alpha_ = obs_alpha_drift_ = nullptr;
    obs_sweep_us_ = obs_sample_us_ = obs_z_us_ = obs_y_us_ = nullptr;
    obs_gaussian_us_ = obs_likelihood_us_ = nullptr;
    return;
  }
  obs_sweeps_ = metrics_->RegisterCounter("train.sweeps_completed");
  obs_checkpoints_ = metrics_->RegisterCounter("train.checkpoints_written");
  obs_likelihood_ = metrics_->RegisterGauge("train.log_likelihood");
  obs_alpha_ = metrics_->RegisterGauge("train.alpha");
  obs_alpha_drift_ = metrics_->RegisterGauge("train.alpha_drift");
  obs_sweep_us_ = metrics_->RegisterHistogram("train.sweep_us");
  obs_sample_us_ = metrics_->RegisterHistogram("train.shard_sample_us");
  obs_z_us_ = metrics_->RegisterHistogram("train.z_sweep_us");
  obs_y_us_ = metrics_->RegisterHistogram("train.y_sweep_us");
  obs_gaussian_us_ = metrics_->RegisterHistogram("train.gaussian_update_us");
  obs_likelihood_us_ = metrics_->RegisterHistogram("train.likelihood_us");
}

texrheo::Status JointTopicModel::RunSweeps(int n) {
  // Observability never touches the sampler: when detached, the sweep loop
  // takes zero clock reads; when attached, it adds a handful of clock reads
  // and relaxed increments per sweep (benchmarked < 2% in
  // BM_InstrumentedSweep) and no RNG draws either way.
  const bool observed = metrics_ != nullptr || tracer_ != nullptr;
  const obs::Clock* clock =
      tracer_ != nullptr ? &tracer_->clock() : &obs::Clock::Steady();
  for (int sweep = 0; sweep < n; ++sweep) {
    // A child of an inert span is inert, so only the root needs the check.
    obs::TraceSpan sweep_span;
    if (tracer_ != nullptr) sweep_span = tracer_->StartSpan("sweep");
    const int64_t t_start = observed ? clock->NowMicros() : 0;
    int64_t t_z = 0;
    {
      obs::TraceSpan sample_span = sweep_span.StartChild("shard_sample");
      {
        obs::TraceSpan z_span = sample_span.StartChild("z_sweep");
        SampleZ();
      }
      t_z = observed ? clock->NowMicros() : 0;
      obs::TraceSpan y_span = sample_span.StartChild("y_sweep");
      TEXRHEO_RETURN_IF_ERROR(SampleY());
    }
    const int64_t t_sampled = observed ? clock->NowMicros() : 0;
    {
      obs::TraceSpan gaussian_span = sweep_span.StartChild("gaussian_update");
      TEXRHEO_RETURN_IF_ERROR(ResampleGaussians());
    }
    const int64_t t_gaussians = observed ? clock->NowMicros() : 0;
    ++completed_sweeps_;
    if (config_.optimize_alpha &&
        completed_sweeps_ > config_.burn_in_sweeps &&
        completed_sweeps_ % config_.alpha_update_interval == 0) {
      UpdateAlpha();
    }
    // Health guard runs before the checkpoint hook so a numerically
    // poisoned state is never persisted.
    TEXRHEO_RETURN_IF_ERROR(CheckNumericalHealth());
    // The likelihood pass reads state without touching the RNG, so thinning
    // it leaves the chain trajectory bit-identical.
    const bool trace_due =
        completed_sweeps_ % config_.likelihood_interval == 0;
    double ll = 0.0;
    int64_t likelihood_us = 0;
    if (trace_due) {
      obs::TraceSpan likelihood_span = sweep_span.StartChild("likelihood");
      const int64_t t_likelihood = observed ? clock->NowMicros() : 0;
      ll = LogJointLikelihood();
      if (observed) likelihood_us = clock->NowMicros() - t_likelihood;
      if (!std::isfinite(ll)) {
        return Status::Internal(
            "numerical health: log joint likelihood became non-finite at "
            "sweep " + std::to_string(completed_sweeps_));
      }
      likelihood_trace_.push_back(ll);
    }
    if (metrics_ != nullptr) {
      obs_sweeps_->Increment();
      if (trace_due) {
        obs_likelihood_->Set(ll);
        obs_likelihood_us_->Record(likelihood_us);
      }
      obs_alpha_->Set(config_.alpha);
      obs_alpha_drift_->Set(config_.alpha - initial_alpha_);
      obs_sample_us_->Record(t_sampled - t_start);
      obs_z_us_->Record(t_z - t_start);
      obs_y_us_->Record(t_sampled - t_z);
      obs_gaussian_us_->Record(t_gaussians - t_sampled);
      obs_sweep_us_->Record(clock->NowMicros() - t_start);
    }
    TEXRHEO_RETURN_IF_ERROR(MaybeWriteCheckpoint());
  }
  return Status::OK();
}

texrheo::Status JointTopicModel::CheckNumericalHealth() const {
  if (!std::isfinite(config_.alpha) || config_.alpha <= 0.0) {
    return Status::Internal(
        "numerical health: alpha is no longer positive and finite");
  }
  for (size_t k = 0; k < gel_topics_.size(); ++k) {
    if (!GaussianIsFinite(gel_topics_[k]) ||
        !GaussianIsFinite(emulsion_topics_[k])) {
      return Status::Internal(
          "numerical health: non-finite Gaussian parameters in topic " +
          std::to_string(k));
    }
  }
  return Status::OK();
}

CheckpointFingerprint JointTopicModel::MakeFingerprint() const {
  CheckpointFingerprint fp;
  fp.sampler = SamplerKind::kJoint;
  fp.num_topics = config_.num_topics;
  fp.alpha = initial_alpha_;
  fp.gamma = config_.gamma;
  fp.seed = config_.seed;
  fp.num_threads = config_.num_threads;
  fp.optimize_alpha = config_.optimize_alpha;
  fp.use_emulsion_likelihood = config_.use_emulsion_likelihood;
  fp.gmm_init = config_.gmm_init;
  fp.num_documents = docs_->documents.size();
  fp.vocab_size = vocab_size_;
  return fp;
}

CheckpointState JointTopicModel::CaptureCheckpoint() const {
  CheckpointState state;
  state.fingerprint = MakeFingerprint();
  state.completed_sweeps = completed_sweeps_;
  state.current_alpha = config_.alpha;
  state.master_rng = rng_.SaveState();
  engine_.CaptureStreams(state);
  state.y = ToCheckpointInts(y_);
  state.z = ToCheckpointRows(z_);
  state.n_dk = ToCheckpointRows(n_dk_);
  state.n_kv = ToCheckpointRows(
      TopicRows(n_vk_, static_cast<size_t>(config_.num_topics)));
  state.n_k = ToCheckpointInts(n_k_);
  state.m_k = ToCheckpointInts(m_k_);
  state.gel_topics = gel_topics_;
  state.emulsion_topics = emulsion_topics_;
  state.likelihood_trace = likelihood_trace_;
  return state;
}

texrheo::Status JointTopicModel::RestoreFromCheckpoint(
    const CheckpointState& state) {
  CheckpointFingerprint expected = MakeFingerprint();
  if (!(state.fingerprint == expected)) {
    return Status::FailedPrecondition(
        "checkpoint fingerprint mismatch\n  checkpoint: " +
        state.fingerprint.ToString() + "\n  model:      " +
        expected.ToString());
  }
  TEXRHEO_RETURN_IF_ERROR(ValidateCheckpointAgainstDataset(state, *docs_));
  size_t k_count = static_cast<size_t>(config_.num_topics);
  if (state.gel_topics.size() != k_count ||
      state.emulsion_topics.size() != k_count) {
    return Status::InvalidArgument(
        "checkpoint is missing instantiated topic Gaussians");
  }
  TEXRHEO_RETURN_IF_ERROR(engine_.ValidateStreams(state));
  // All validation happens above this line so a rejected checkpoint never
  // leaves the model partially restored.
  y_ = FromCheckpointInts(state.y);
  z_ = FromCheckpointRows(state.z);
  n_dk_ = FromCheckpointRows(state.n_dk);
  n_vk_ = TermMajor(FromCheckpointRows(state.n_kv));
  n_k_ = FromCheckpointInts(state.n_k);
  m_k_ = FromCheckpointInts(state.m_k);
  gel_topics_ = state.gel_topics;
  emulsion_topics_ = state.emulsion_topics;
  RebuildGaussianSoA();
  likelihood_trace_ = state.likelihood_trace;
  completed_sweeps_ = state.completed_sweeps;
  config_.alpha = state.current_alpha;
  rng_.RestoreState(state.master_rng);
  engine_.RestoreStreams(state);
  return Status::OK();
}

texrheo::Status JointTopicModel::WarmStartFromCheckpoint(
    const CheckpointState& state) {
  const auto& documents = docs_->documents;
  size_t old_docs = static_cast<size_t>(state.fingerprint.num_documents);
  size_t old_vocab = static_cast<size_t>(state.fingerprint.vocab_size);
  if (old_docs > documents.size() || old_vocab > vocab_size_) {
    return Status::FailedPrecondition(
        "warm start: checkpoint covers more documents or terms than the "
        "corpus (not a prefix)");
  }
  // Hyperparameters must agree exactly; only the corpus is allowed to grow.
  CheckpointFingerprint expected = MakeFingerprint();
  CheckpointFingerprint relaxed = state.fingerprint;
  relaxed.num_documents = expected.num_documents;
  relaxed.vocab_size = expected.vocab_size;
  if (!(relaxed == expected)) {
    return Status::FailedPrecondition(
        "warm start: hyperparameter mismatch\n  checkpoint: " +
        state.fingerprint.ToString() + "\n  model:      " +
        expected.ToString());
  }
  size_t k_count = static_cast<size_t>(config_.num_topics);
  if (state.z.size() != old_docs || state.y.size() != old_docs) {
    return Status::InvalidArgument(
        "warm start: assignment count disagrees with checkpoint fingerprint");
  }
  if (state.gel_topics.size() != k_count ||
      state.emulsion_topics.size() != k_count) {
    return Status::InvalidArgument(
        "warm start: checkpoint is missing instantiated topic Gaussians");
  }
  // Prefix stability: every checkpointed document must still have the same
  // token count, and its term ids must fit the checkpoint's vocabulary.
  // Old ids changing (a re-sorted vocabulary) would silently rebuild the
  // counts against the wrong terms.
  for (size_t d = 0; d < old_docs; ++d) {
    const Document& doc = documents[d];
    if (state.z[d].size() != doc.term_ids.size()) {
      return Status::InvalidArgument(
          "warm start: document " + std::to_string(d) +
          " changed since the checkpoint (the old corpus must be stable)");
    }
    for (int32_t v : doc.term_ids) {
      if (v < 0 || static_cast<size_t>(v) >= vocab_size_) {
        return Status::InvalidArgument(
            "warm start: term id out of range in document " +
            std::to_string(d));
      }
    }
  }
  // All validation happens above this line (restore-or-reject contract,
  // same as RestoreFromCheckpoint).
  rng_.RestoreState(state.master_rng);
  gel_topics_ = state.gel_topics;
  emulsion_topics_ = state.emulsion_topics;
  config_.alpha = state.current_alpha;
  completed_sweeps_ = state.completed_sweeps;
  likelihood_trace_ = state.likelihood_trace;

  z_.assign(documents.size(), {});
  y_.assign(documents.size(), 0);
  m_k_.assign(k_count, 0);
  for (size_t d = 0; d < old_docs; ++d) {
    z_[d].assign(state.z[d].begin(), state.z[d].end());
    y_[d] = state.y[d];
    ++m_k_[static_cast<size_t>(y_[d])];
  }
  // Appended documents: tokens start uniform (one fresh sweep re-places
  // them against the mixed counts), but y comes from the checkpointed
  // Gaussians so each new recipe lands in the topic that already explains
  // its composition.
  for (size_t d = old_docs; d < documents.size(); ++d) {
    const Document& doc = documents[d];
    z_[d].resize(doc.term_ids.size());
    for (size_t n = 0; n < doc.term_ids.size(); ++n) {
      z_[d][n] = static_cast<int>(
          rng_.NextUint(static_cast<uint64_t>(config_.num_topics)));
    }
    y_[d] = InferTopicForFeatures(doc.gel_feature, doc.emulsion_feature);
    ++m_k_[static_cast<size_t>(y_[d])];
  }
  // Rebuild the count caches at the grown dimensions.
  n_dk_.assign(documents.size(), std::vector<int>(config_.num_topics, 0));
  n_vk_.assign(vocab_size_ * k_count, 0);
  n_k_.assign(k_count, 0);
  for (size_t d = 0; d < documents.size(); ++d) {
    const Document& doc = documents[d];
    for (size_t n = 0; n < doc.term_ids.size(); ++n) {
      size_t k = static_cast<size_t>(z_[d][n]);
      ++n_dk_[d][k];
      ++n_vk_[static_cast<size_t>(doc.term_ids[n]) * k_count + k];
      ++n_k_[k];
    }
  }
  // The document count changed, so any checkpointed shard plan is stale;
  // the engine replans (and re-splits its RNG streams) lazily.
  engine_.Reset();
  return ResampleGaussians();
}

texrheo::Status JointTopicModel::Resume() {
  if (config_.checkpoint_dir.empty()) {
    return Status::FailedPrecondition("resume: checkpoint_dir not configured");
  }
  TEXRHEO_ASSIGN_OR_RETURN(CheckpointState state,
                           LoadLatestValidCheckpoint(config_.checkpoint_dir));
  return RestoreFromCheckpoint(state);
}

texrheo::Status JointTopicModel::WriteCheckpointNow() {
  if (config_.checkpoint_dir.empty()) {
    return Status::FailedPrecondition(
        "checkpoint: checkpoint_dir not configured");
  }
  FileOps& ops =
      checkpoint_file_ops_ != nullptr ? *checkpoint_file_ops_ : FileOps::Real();
  std::error_code ec;
  std::filesystem::create_directories(config_.checkpoint_dir, ec);
  std::string path =
      (std::filesystem::path(config_.checkpoint_dir) /
       CheckpointFileName(completed_sweeps_))
          .string();
  TEXRHEO_RETURN_IF_ERROR(WriteCheckpointFile(path, CaptureCheckpoint(), ops));
  if (obs_checkpoints_ != nullptr) obs_checkpoints_->Increment();
  return PruneCheckpoints(config_.checkpoint_dir, config_.checkpoint_keep_last,
                          ops);
}

texrheo::Status JointTopicModel::MaybeWriteCheckpoint() {
  if (config_.checkpoint_interval <= 0 || config_.checkpoint_dir.empty()) {
    return Status::OK();
  }
  if (completed_sweeps_ % config_.checkpoint_interval != 0) {
    return Status::OK();
  }
  return WriteCheckpointNow();
}

double JointTopicModel::UpdateAlpha() {
  // Minka's fixed-point update for a symmetric Dirichlet:
  //   alpha <- alpha * sum_{d,k} [Psi(n_dk + alpha) - Psi(alpha)]
  //                  / (K sum_d [Psi(n_d + K alpha) - Psi(K alpha)]).
  // Counts follow eq. 5's theta: word counts plus the y_d pseudo-count.
  const auto& documents = docs_->documents;
  double k_count = static_cast<double>(config_.num_topics);
  double alpha = config_.alpha;
  double numerator = 0.0;
  double denominator = 0.0;
  for (size_t d = 0; d < documents.size(); ++d) {
    double n_d = static_cast<double>(documents[d].term_ids.size()) + 1.0;
    for (int k = 0; k < config_.num_topics; ++k) {
      double n_dk = static_cast<double>(n_dk_[d][static_cast<size_t>(k)]) +
                    (y_[d] == k ? 1.0 : 0.0);
      numerator += math::Digamma(n_dk + alpha) - math::Digamma(alpha);
    }
    denominator += math::Digamma(n_d + k_count * alpha) -
                   math::Digamma(k_count * alpha);
  }
  if (denominator > 0.0 && numerator > 0.0) {
    double updated = alpha * numerator / (k_count * denominator);
    // Guard the fixed point against degenerate steps.
    config_.alpha = std::clamp(updated, 1e-4, 10.0);
  }
  return config_.alpha;
}

double JointTopicModel::LogJointLikelihood() const {
  const auto& documents = docs_->documents;
  const size_t k_count = static_cast<size_t>(config_.num_topics);
  const double gamma_v = config_.gamma * static_cast<double>(vocab_size_);
  const double alpha_sum =
      config_.alpha * static_cast<double>(config_.num_topics);
  // A token's eq.-5 ratios: phi of its (term, topic), and theta of its
  // document's length and topic count (n_dk plus the y_d pseudo-count,
  // summed as integers, which is exact).
  const auto phi = [&](size_t v, size_t k) {
    return (static_cast<double>(n_vk_[v * k_count + k]) + config_.gamma) /
           (static_cast<double>(n_k_[k]) + gamma_v);
  };
  const auto theta = [&](size_t length, size_t count) {
    return (static_cast<double>(count) + config_.alpha) /
           (static_cast<double>(length) + 1.0 + alpha_sum);
  };
  // Their logs, memoized per call (the counts move every sweep, and alpha
  // under optimize_alpha). A table is filled only while it has no more
  // entries than there are tokens to read it; a token outside it takes
  // its log directly, from the same expression.
  std::vector<double> log_phi;
  if (vocab_size_ * k_count <= num_tokens_) {
    log_phi.resize(vocab_size_ * k_count);
    for (size_t v = 0; v < vocab_size_; ++v) {
      for (size_t k = 0; k < k_count; ++k) {
        log_phi[v * k_count + k] = std::log(phi(v, k));
      }
    }
  }
  // Row `length` of the theta table holds counts 0..length + 1.
  const auto row_start = [](size_t length) {
    return length * (length + 3) / 2;
  };
  size_t theta_rows = 0;
  while (theta_rows <= max_doc_length_ &&
         row_start(theta_rows + 1) <= num_tokens_) {
    ++theta_rows;
  }
  std::vector<double> log_theta(row_start(theta_rows));
  for (size_t length = 0; length < theta_rows; ++length) {
    for (size_t count = 0; count <= length + 1; ++count) {
      log_theta[row_start(length) + count] = std::log(theta(length, count));
    }
  }

  double ll = 0.0;
  for (size_t d = 0; d < documents.size(); ++d) {
    const Document& doc = documents[d];
    const size_t length = doc.term_ids.size();
    const double* theta_row =
        length < theta_rows ? log_theta.data() + row_start(length) : nullptr;
    const int* doc_counts = n_dk_[d].data();
    const int y_d = y_[d];
    for (size_t n = 0; n < length; ++n) {
      const int z_dn = z_[d][n];
      const size_t k = static_cast<size_t>(z_dn);
      const size_t v = static_cast<size_t>(doc.term_ids[n]);
      const size_t count =
          static_cast<size_t>(doc_counts[k] + (y_d == z_dn ? 1 : 0));
      const double log_phi_vk = log_phi.empty() ? std::log(phi(v, k))
                                                : log_phi[v * k_count + k];
      const double log_theta_dk = theta_row != nullptr
                                      ? theta_row[count]
                                      : std::log(theta(length, count));
      ll += log_phi_vk + log_theta_dk;
    }
    // The SoA evaluator is bit-identical to Gaussian::LogPdf and needs no
    // heap scratch.
    const size_t yk = static_cast<size_t>(y_d);
    ll += gel_soa_.LogPdfScalar(yk, doc.gel_feature);
    if (config_.use_emulsion_likelihood) {
      ll += emu_soa_.LogPdfScalar(yk, doc.emulsion_feature);
    }
  }
  return ll;
}

TopicEstimates JointTopicModel::Estimate() const {
  const auto& documents = docs_->documents;
  int k_count = config_.num_topics;
  double gamma_v = config_.gamma * static_cast<double>(vocab_size_);
  double alpha_sum = config_.alpha * static_cast<double>(k_count);

  TopicEstimates est;
  est.phi.assign(static_cast<size_t>(k_count),
                 std::vector<double>(vocab_size_, 0.0));
  for (int k = 0; k < k_count; ++k) {
    size_t ks = static_cast<size_t>(k);
    for (size_t v = 0; v < vocab_size_; ++v) {
      est.phi[ks][v] =
          (static_cast<double>(n_vk_[v * static_cast<size_t>(k_count) + ks]) +
           config_.gamma) /
          (static_cast<double>(n_k_[ks]) + gamma_v);
    }
  }
  est.theta.assign(documents.size(),
                   std::vector<double>(static_cast<size_t>(k_count), 0.0));
  est.doc_topic.resize(documents.size());
  est.topic_recipe_count.assign(static_cast<size_t>(k_count), 0);
  for (size_t d = 0; d < documents.size(); ++d) {
    double n_d = static_cast<double>(documents[d].term_ids.size());
    int best = 0;
    double best_val = -1.0;
    for (int k = 0; k < k_count; ++k) {
      size_t ks = static_cast<size_t>(k);
      // Eq. (5): theta_dk = (N_dk + M_dk) / (N_d + M_d + sum alpha).
      double val = (static_cast<double>(n_dk_[d][ks]) +
                    (y_[d] == k ? 1.0 : 0.0) + config_.alpha) /
                   (n_d + 1.0 + alpha_sum);
      est.theta[d][ks] = val;
      if (val > best_val) {
        best_val = val;
        best = k;
      }
    }
    est.doc_topic[d] = best;
    ++est.topic_recipe_count[static_cast<size_t>(best)];
  }
  // For reporting and linkage, replace the last Gibbs *sample* of each
  // Gaussian with the Normal-Wishart posterior mean given the current
  // assignments: the chain needs samples, but tables built from a single
  // sample are needlessly noisy (exp(-mu) amplifies mean noise badly).
  const TopicMoments moments = AccumulateTopicMoments();
  for (size_t k = 0; k < moments.gel.size(); ++k) {
    auto gel_mean = PosteriorMean(config_.gel_prior, moments.gel[k]);
    auto emu_mean = PosteriorMean(config_.emulsion_prior, moments.emu[k]);
    est.gel_topics.push_back(gel_mean.ok() ? std::move(gel_mean).value()
                                           : gel_topics_[k]);
    est.emulsion_topics.push_back(emu_mean.ok() ? std::move(emu_mean).value()
                                                : emulsion_topics_[k]);
  }
  return est;
}

math::Vector JointTopicModel::TopicGelFeatureMean(int k) const {
  const auto& documents = docs_->documents;
  math::Vector mean(documents.front().gel_feature.size());
  int count = 0;
  for (size_t d = 0; d < documents.size(); ++d) {
    if (y_[d] != k) continue;
    mean += documents[d].gel_feature;
    ++count;
  }
  if (count > 0) mean *= 1.0 / static_cast<double>(count);
  return mean;
}

texrheo::StatusOr<std::vector<double>> JointTopicModel::FoldInTheta(
    const recipe::Document& doc, int fold_in_sweeps, Rng& rng) const {
  if (fold_in_sweeps < 1) {
    return Status::InvalidArgument("fold-in: sweeps must be >= 1");
  }
  double gamma_v = config_.gamma * static_cast<double>(vocab_size_);
  for (int32_t term : doc.term_ids) {
    if (term < 0 || static_cast<size_t>(term) >= vocab_size_) {
      return Status::OutOfRange("fold-in: term id outside training vocab");
    }
  }

  // Count ratios and the frozen Gaussians' log-densities are fixed for the
  // whole fold-in (corpus statistics are treated as the posterior), so the
  // shared eq.-5 kernel gets them precomputed.
  const size_t k_count = static_cast<size_t>(config_.num_topics);
  std::vector<double> term_weights(doc.term_ids.size() * k_count);
  for (size_t n = 0; n < doc.term_ids.size(); ++n) {
    const size_t v = static_cast<size_t>(doc.term_ids[n]);
    for (size_t k = 0; k < k_count; ++k) {
      term_weights[n * k_count + k] =
          (static_cast<double>(n_vk_[v * k_count + k]) + config_.gamma) /
          (static_cast<double>(n_k_[k]) + gamma_v);
    }
  }
  std::vector<double> log_density(k_count);
  std::vector<double> emu_lp(k_count);
  TopicGaussiansSoA::Scratch scratch;
  gel_soa_.BatchLogPdf(doc.gel_feature, scratch, log_density.data());
  if (config_.use_emulsion_likelihood) {
    emu_soa_.BatchLogPdf(doc.emulsion_feature, scratch, emu_lp.data());
    for (size_t k = 0; k < k_count; ++k) log_density[k] += emu_lp[k];
  }
  return FoldInDocument(term_weights, log_density, fold_in_sweeps,
                        config_.alpha, rng);
}

int JointTopicModel::InferTopicForFeatures(
    const math::Vector& gel_feature,
    const math::Vector& emulsion_feature) const {
  int best = 0;
  double best_lw = -std::numeric_limits<double>::infinity();
  for (int k = 0; k < config_.num_topics; ++k) {
    size_t ks = static_cast<size_t>(k);
    double lw = std::log(static_cast<double>(m_k_[ks]) + config_.alpha) +
                gel_topics_[ks].LogPdf(gel_feature);
    if (config_.use_emulsion_likelihood) {
      lw += emulsion_topics_[ks].LogPdf(emulsion_feature);
    }
    if (lw > best_lw) {
      best_lw = lw;
      best = k;
    }
  }
  return best;
}

}  // namespace texrheo::core
