#include "core/collapsed_sampler.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <filesystem>
#include <optional>

#include "math/running_stats.h"

namespace texrheo::core {

void CollapsedJointTopicModel::TopicStats::Add(const math::Vector& x) {
  ++n;
  sum += x;
  sum_outer.AddOuter(x);
}

void CollapsedJointTopicModel::TopicStats::Remove(const math::Vector& x) {
  assert(n > 0);
  --n;
  sum -= x;
  sum_outer.SubtractOuter(x);
}

math::Vector CollapsedJointTopicModel::TopicStats::Mean() const {
  math::Vector m = sum;
  if (n > 0) m *= 1.0 / static_cast<double>(n);
  return m;
}

math::Matrix CollapsedJointTopicModel::TopicStats::Scatter() const {
  math::Matrix s = sum_outer;
  if (n > 0) {
    math::Vector m = Mean();
    s -= static_cast<double>(n) * math::Matrix::Outer(m, m);
  }
  // Symmetrize and clip round-off from incremental removes.
  for (size_t r = 0; r < s.rows(); ++r) {
    for (size_t c = r + 1; c < s.cols(); ++c) {
      double avg = 0.5 * (s(r, c) + s(c, r));
      s(r, c) = avg;
      s(c, r) = avg;
    }
    if (s(r, r) < 0.0) s(r, r) = 0.0;
  }
  return s;
}

CollapsedJointTopicModel::CollapsedJointTopicModel(
    const JointTopicModelConfig& config, const recipe::Dataset* dataset)
    : config_(config),
      docs_(dataset),
      vocab_size_(dataset->term_vocab.size()),
      rng_(config.seed),
      engine_(config.num_threads, config.seed, config.num_topics,
              vocab_size_, &dataset->documents) {}

texrheo::StatusOr<CollapsedJointTopicModel> CollapsedJointTopicModel::Create(
    const JointTopicModelConfig& config, const recipe::Dataset* dataset) {
  if (dataset == nullptr || dataset->documents.empty()) {
    return Status::InvalidArgument("collapsed model: empty dataset");
  }
  if (config.num_topics < 1 || config.alpha <= 0.0 || config.gamma <= 0.0 ||
      config.num_threads < 0) {
    return Status::InvalidArgument("collapsed model: invalid config");
  }
  CollapsedJointTopicModel model(config, dataset);
  TEXRHEO_RETURN_IF_ERROR(model.Initialize());
  return model;
}

texrheo::Status CollapsedJointTopicModel::Initialize() {
  const auto& documents = docs_->documents;
  size_t gel_dim = documents.front().gel_feature.size();
  size_t emu_dim = documents.front().emulsion_feature.size();

  if (config_.auto_prior) {
    // Same empirical prior as the non-collapsed sampler.
    math::RunningMoments gel_moments(gel_dim), emu_moments(emu_dim);
    for (const auto& doc : documents) {
      gel_moments.Add(doc.gel_feature);
      emu_moments.Add(doc.emulsion_feature);
    }
    auto make_prior = [this](const math::RunningMoments& m) {
      math::NormalWishartParams prior;
      size_t dim = m.dim();
      prior.mu0 = m.Mean();
      prior.beta = config_.prior_beta;
      prior.nu = static_cast<double>(dim) + config_.prior_nu_extra;
      prior.scale = math::Matrix(dim, dim);
      math::Matrix cov = m.Covariance();
      for (size_t i = 0; i < dim; ++i) {
        prior.scale(i, i) = 1.0 / (std::max(cov(i, i), 1e-3) * prior.nu);
      }
      return prior;
    };
    config_.gel_prior = make_prior(gel_moments);
    config_.emulsion_prior = make_prior(emu_moments);
  }
  TEXRHEO_RETURN_IF_ERROR(config_.gel_prior.Validate());
  TEXRHEO_RETURN_IF_ERROR(config_.emulsion_prior.Validate());

  size_t d_count = documents.size();
  int k_count = config_.num_topics;
  z_.resize(d_count);
  y_.resize(d_count);
  n_dk_.assign(d_count, std::vector<int>(k_count, 0));
  n_vk_.assign(vocab_size_ * static_cast<size_t>(k_count), 0);
  n_k_.assign(static_cast<size_t>(k_count), 0);
  gel_stats_.assign(static_cast<size_t>(k_count), TopicStats(gel_dim));
  emulsion_stats_.assign(static_cast<size_t>(k_count), TopicStats(emu_dim));

  for (size_t d = 0; d < d_count; ++d) {
    const auto& doc = documents[d];
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
    gel_stats_[static_cast<size_t>(k)].Add(doc.gel_feature);
    emulsion_stats_[static_cast<size_t>(k)].Add(doc.emulsion_feature);
  }
  return Status::OK();
}

texrheo::StatusOr<math::StudentT> CollapsedJointTopicModel::Predictive(
    const TopicStats& stats, bool use_gel) const {
  const math::NormalWishartParams& prior =
      use_gel ? config_.gel_prior : config_.emulsion_prior;
  TEXRHEO_ASSIGN_OR_RETURN(
      math::NormalWishartParams post,
      prior.Posterior(stats.n, stats.Mean(), stats.Scatter()));
  return math::StudentT::PosteriorPredictive(post);
}

void CollapsedJointTopicModel::SampleZ() {
  const ZSweep sweep{&docs_->documents,
                     &y_,
                     &z_,
                     &n_dk_,
                     &n_vk_,
                     &n_k_,
                     static_cast<size_t>(config_.num_topics),
                     config_.alpha,
                     config_.gamma,
                     config_.gamma * static_cast<double>(vocab_size_)};
  engine_.SweepZ(sweep, rng_);
}

texrheo::Status CollapsedJointTopicModel::SampleY() {
  // The collapsed y conditionals couple documents through the per-topic
  // sufficient statistics. With several shards each one samples against a
  // private copy of the sweep-start statistics (stale with respect to the
  // other shards, the same approximation AD-LDA makes for word counts),
  // and the globals are rebuilt from the final y_, which is both the
  // deterministic reduction and a round-off reset.
  engine_.Ensure();
  const bool in_place = engine_.num_shards() == 1;
  const Status status = engine_.ForEachShard(rng_, [&](size_t s, Rng& rng) {
    if (in_place) {
      return SampleYShard(engine_.shard(s), rng, gel_stats_, emulsion_stats_);
    }
    std::vector<TopicStats> gel = gel_stats_;
    std::vector<TopicStats> emu = emulsion_stats_;
    return SampleYShard(engine_.shard(s), rng, gel, emu);
  });
  if (!in_place) RebuildTopicStats();
  return status;
}

texrheo::Status CollapsedJointTopicModel::SampleYShard(
    std::pair<size_t, size_t> range, Rng& rng, std::vector<TopicStats>& gel,
    std::vector<TopicStats>& emu) {
  const auto& documents = docs_->documents;
  const size_t k_count = static_cast<size_t>(config_.num_topics);
  std::vector<double> log_w(k_count);
  std::vector<double> weights(k_count);
  // Draws document d's topic under the statistics with d removed.
  auto draw = [&](size_t d) -> texrheo::StatusOr<size_t> {
    const auto& doc = documents[d];
    for (size_t k = 0; k < k_count; ++k) {
      double lw = std::log(static_cast<double>(n_dk_[d][k]) + config_.alpha);
      TEXRHEO_ASSIGN_OR_RETURN(math::StudentT gel_pred,
                               Predictive(gel[k], /*use_gel=*/true));
      lw += gel_pred.LogPdf(doc.gel_feature);
      if (config_.use_emulsion_likelihood) {
        TEXRHEO_ASSIGN_OR_RETURN(math::StudentT emu_pred,
                                 Predictive(emu[k], /*use_gel=*/false));
        lw += emu_pred.LogPdf(doc.emulsion_feature);
      }
      log_w[k] = lw;
    }
    const std::optional<size_t> k = rng.NextCategoricalFromLogs(log_w, weights);
    if (!k) {
      return Status::Internal(
          "numerical health: non-finite topic weights for document " +
          std::to_string(d));
    }
    return *k;
  };
  for (size_t d = range.first; d < range.second; ++d) {
    const auto& doc = documents[d];
    const size_t old_k = static_cast<size_t>(y_[d]);
    gel[old_k].Remove(doc.gel_feature);
    emu[old_k].Remove(doc.emulsion_feature);
    const texrheo::StatusOr<size_t> drawn = draw(d);
    if (!drawn.ok()) {
      gel[old_k].Add(doc.gel_feature);  // State stays consistent.
      emu[old_k].Add(doc.emulsion_feature);
      return drawn.status();
    }
    const size_t new_k = *drawn;
    y_[d] = static_cast<int>(new_k);
    gel[new_k].Add(doc.gel_feature);
    emu[new_k].Add(doc.emulsion_feature);
  }
  return Status::OK();
}

void CollapsedJointTopicModel::RebuildTopicStats() {
  const auto& documents = docs_->documents;
  size_t gel_dim = documents.front().gel_feature.size();
  size_t emu_dim = documents.front().emulsion_feature.size();
  gel_stats_.assign(static_cast<size_t>(config_.num_topics),
                    TopicStats(gel_dim));
  emulsion_stats_.assign(static_cast<size_t>(config_.num_topics),
                         TopicStats(emu_dim));
  for (size_t d = 0; d < documents.size(); ++d) {
    gel_stats_[static_cast<size_t>(y_[d])].Add(documents[d].gel_feature);
    emulsion_stats_[static_cast<size_t>(y_[d])].Add(
        documents[d].emulsion_feature);
  }
}

texrheo::Status CollapsedJointTopicModel::ResyncWithData() {
  const auto& documents = docs_->documents;
  if (documents.size() != z_.size()) {
    return Status::InvalidArgument("resync: document count changed");
  }
  const size_t k_count = static_cast<size_t>(config_.num_topics);
  std::fill(n_vk_.begin(), n_vk_.end(), 0);
  std::fill(n_k_.begin(), n_k_.end(), 0);
  for (size_t d = 0; d < documents.size(); ++d) {
    const auto& doc = documents[d];
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
  RebuildTopicStats();
  return Status::OK();
}

texrheo::Status CollapsedJointTopicModel::RunSweeps(int n) {
  for (int sweep = 0; sweep < n; ++sweep) {
    SampleZ();
    TEXRHEO_RETURN_IF_ERROR(SampleY());
    ++completed_sweeps_;
    // Health guard runs before the checkpoint hook so a numerically
    // poisoned state is never persisted.
    TEXRHEO_RETURN_IF_ERROR(CheckNumericalHealth());
    TEXRHEO_RETURN_IF_ERROR(MaybeWriteCheckpoint());
  }
  return Status::OK();
}

texrheo::Status CollapsedJointTopicModel::CheckNumericalHealth() const {
  size_t total = 0;
  for (size_t k = 0; k < gel_stats_.size(); ++k) {
    const TopicStats* families[] = {&gel_stats_[k], &emulsion_stats_[k]};
    for (const TopicStats* stats : families) {
      for (size_t i = 0; i < stats->sum.size(); ++i) {
        if (!std::isfinite(stats->sum[i])) {
          return Status::Internal(
              "numerical health: non-finite statistics in topic " +
              std::to_string(k));
        }
      }
      for (size_t r = 0; r < stats->sum_outer.rows(); ++r) {
        for (size_t c = 0; c < stats->sum_outer.cols(); ++c) {
          if (!std::isfinite(stats->sum_outer(r, c))) {
            return Status::Internal(
                "numerical health: non-finite scatter in topic " +
                std::to_string(k));
          }
        }
      }
    }
    if (gel_stats_[k].n != emulsion_stats_[k].n) {
      return Status::Internal(
          "numerical health: gel/emulsion member counts diverged in topic " +
          std::to_string(k));
    }
    total += gel_stats_[k].n;
  }
  if (total != y_.size()) {
    return Status::Internal(
        "numerical health: topic member counts do not sum to the corpus");
  }
  return Status::OK();
}

CheckpointFingerprint CollapsedJointTopicModel::MakeFingerprint() const {
  CheckpointFingerprint fp;
  fp.sampler = SamplerKind::kCollapsed;
  fp.num_topics = config_.num_topics;
  fp.alpha = config_.alpha;
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

CheckpointState CollapsedJointTopicModel::CaptureCheckpoint() const {
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
  // The collapsed sampler has no explicit m_k; it lives in the per-topic
  // statistics. Stored anyway so the corpus cross-check covers y.
  state.m_k.reserve(gel_stats_.size());
  for (const TopicStats& stats : gel_stats_) {
    state.m_k.push_back(static_cast<int32_t>(stats.n));
  }
  auto snapshot = [](const TopicStats& stats) {
    TopicStatsSnapshot snap;
    snap.n = static_cast<uint64_t>(stats.n);
    snap.sum.assign(stats.sum.data().begin(), stats.sum.data().end());
    size_t dim = stats.sum_outer.rows();
    snap.sum_outer.reserve(dim * dim);
    for (size_t r = 0; r < dim; ++r) {
      for (size_t c = 0; c < dim; ++c) {
        snap.sum_outer.push_back(stats.sum_outer(r, c));
      }
    }
    return snap;
  };
  for (const TopicStats& stats : gel_stats_) {
    state.gel_stats.push_back(snapshot(stats));
  }
  for (const TopicStats& stats : emulsion_stats_) {
    state.emulsion_stats.push_back(snapshot(stats));
  }
  return state;
}

texrheo::Status CollapsedJointTopicModel::RestoreFromCheckpoint(
    const CheckpointState& state) {
  CheckpointFingerprint expected = MakeFingerprint();
  if (!(state.fingerprint == expected)) {
    return Status::FailedPrecondition(
        "checkpoint fingerprint mismatch\n  checkpoint: " +
        state.fingerprint.ToString() + "\n  model:      " +
        expected.ToString());
  }
  TEXRHEO_RETURN_IF_ERROR(ValidateCheckpointAgainstDataset(state, *docs_));
  const auto& documents = docs_->documents;
  size_t k_count = static_cast<size_t>(config_.num_topics);
  size_t gel_dim = documents.front().gel_feature.size();
  size_t emu_dim = documents.front().emulsion_feature.size();
  if (state.gel_stats.size() != k_count ||
      state.emulsion_stats.size() != k_count) {
    return Status::InvalidArgument(
        "checkpoint is missing per-topic sufficient statistics");
  }
  for (size_t k = 0; k < k_count; ++k) {
    if (state.gel_stats[k].sum.size() != gel_dim ||
        state.emulsion_stats[k].sum.size() != emu_dim) {
      return Status::InvalidArgument(
          "checkpoint statistics dimension disagrees with dataset features");
    }
    if (state.gel_stats[k].n != static_cast<uint64_t>(state.m_k[k])) {
      return Status::InvalidArgument(
          "checkpoint statistics member counts disagree with y assignments");
    }
  }
  TEXRHEO_RETURN_IF_ERROR(engine_.ValidateStreams(state));
  // All validation happens above this line so a rejected checkpoint never
  // leaves the model partially restored.
  y_ = FromCheckpointInts(state.y);
  z_ = FromCheckpointRows(state.z);
  n_dk_ = FromCheckpointRows(state.n_dk);
  n_vk_ = TermMajor(FromCheckpointRows(state.n_kv));
  n_k_ = FromCheckpointInts(state.n_k);
  auto unsnapshot = [](const TopicStatsSnapshot& snap, size_t dim) {
    TopicStats stats(dim);
    stats.n = static_cast<size_t>(snap.n);
    for (size_t i = 0; i < dim; ++i) stats.sum[i] = snap.sum[i];
    for (size_t r = 0; r < dim; ++r) {
      for (size_t c = 0; c < dim; ++c) {
        stats.sum_outer(r, c) = snap.sum_outer[r * dim + c];
      }
    }
    return stats;
  };
  gel_stats_.clear();
  emulsion_stats_.clear();
  for (size_t k = 0; k < k_count; ++k) {
    gel_stats_.push_back(unsnapshot(state.gel_stats[k], gel_dim));
    emulsion_stats_.push_back(unsnapshot(state.emulsion_stats[k], emu_dim));
  }
  completed_sweeps_ = state.completed_sweeps;
  rng_.RestoreState(state.master_rng);
  engine_.RestoreStreams(state);
  return Status::OK();
}

texrheo::Status CollapsedJointTopicModel::Resume() {
  if (config_.checkpoint_dir.empty()) {
    return Status::FailedPrecondition("resume: checkpoint_dir not configured");
  }
  TEXRHEO_ASSIGN_OR_RETURN(CheckpointState state,
                           LoadLatestValidCheckpoint(config_.checkpoint_dir));
  return RestoreFromCheckpoint(state);
}

texrheo::Status CollapsedJointTopicModel::WriteCheckpointNow() {
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
  return PruneCheckpoints(config_.checkpoint_dir, config_.checkpoint_keep_last,
                          ops);
}

texrheo::Status CollapsedJointTopicModel::MaybeWriteCheckpoint() {
  if (config_.checkpoint_interval <= 0 || config_.checkpoint_dir.empty()) {
    return Status::OK();
  }
  if (completed_sweeps_ % config_.checkpoint_interval != 0) {
    return Status::OK();
  }
  return WriteCheckpointNow();
}

texrheo::StatusOr<TopicEstimates> CollapsedJointTopicModel::Estimate() const {
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
    TEXRHEO_ASSIGN_OR_RETURN(
        math::NormalWishartParams gel_post,
        config_.gel_prior.Posterior(gel_stats_[ks].n, gel_stats_[ks].Mean(),
                                    gel_stats_[ks].Scatter()));
    TEXRHEO_ASSIGN_OR_RETURN(
        math::NormalWishartParams emu_post,
        config_.emulsion_prior.Posterior(emulsion_stats_[ks].n,
                                         emulsion_stats_[ks].Mean(),
                                         emulsion_stats_[ks].Scatter()));
    TEXRHEO_ASSIGN_OR_RETURN(math::Gaussian g,
                             math::NormalWishartMean(gel_post));
    TEXRHEO_ASSIGN_OR_RETURN(math::Gaussian e,
                             math::NormalWishartMean(emu_post));
    est.gel_topics.push_back(std::move(g));
    est.emulsion_topics.push_back(std::move(e));
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
  return est;
}

texrheo::StatusOr<double> CollapsedJointTopicModel::PredictiveLogLikelihood()
    const {
  const auto& documents = docs_->documents;
  double gamma_v = config_.gamma * static_cast<double>(vocab_size_);
  const size_t k_count = static_cast<size_t>(config_.num_topics);
  double ll = 0.0;
  // Precompute per-topic predictives once.
  std::vector<math::StudentT> gel_pred, emu_pred;
  for (size_t k = 0; k < k_count; ++k) {
    TEXRHEO_ASSIGN_OR_RETURN(math::StudentT g, Predictive(gel_stats_[k], true));
    gel_pred.push_back(std::move(g));
    if (config_.use_emulsion_likelihood) {
      TEXRHEO_ASSIGN_OR_RETURN(math::StudentT e,
                               Predictive(emulsion_stats_[k], false));
      emu_pred.push_back(std::move(e));
    }
  }
  for (size_t d = 0; d < documents.size(); ++d) {
    const auto& doc = documents[d];
    for (size_t n = 0; n < doc.term_ids.size(); ++n) {
      size_t k = static_cast<size_t>(z_[d][n]);
      size_t v = static_cast<size_t>(doc.term_ids[n]);
      ll += std::log((static_cast<double>(n_vk_[v * k_count + k]) +
                      config_.gamma) /
                     (static_cast<double>(n_k_[k]) + gamma_v));
    }
    size_t yk = static_cast<size_t>(y_[d]);
    ll += gel_pred[yk].LogPdf(doc.gel_feature);
    if (config_.use_emulsion_likelihood) {
      ll += emu_pred[yk].LogPdf(doc.emulsion_feature);
    }
  }
  return ll;
}

}  // namespace texrheo::core
