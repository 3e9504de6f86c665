#include "core/variational.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "math/running_stats.h"
#include "math/special.h"
#include "util/rng.h"

namespace texrheo::core {

VariationalJointTopicModel::VariationalJointTopicModel(
    const JointTopicModelConfig& config, const recipe::Dataset* dataset)
    : config_(config), docs_(dataset) {}

texrheo::StatusOr<VariationalJointTopicModel>
VariationalJointTopicModel::Create(const JointTopicModelConfig& config,
                                   const recipe::Dataset* dataset) {
  if (dataset == nullptr || dataset->documents.empty()) {
    return Status::InvalidArgument("variational model: empty dataset");
  }
  if (config.num_topics < 1 || config.alpha <= 0.0 || config.gamma <= 0.0) {
    return Status::InvalidArgument("variational model: invalid config");
  }
  VariationalJointTopicModel model(config, dataset);
  TEXRHEO_RETURN_IF_ERROR(model.Initialize());
  return model;
}

texrheo::Status VariationalJointTopicModel::Initialize() {
  const auto& documents = docs_->documents;
  vocab_size_ = docs_->term_vocab.size();
  size_t d_count = documents.size();
  size_t k_count = static_cast<size_t>(config_.num_topics);

  if (config_.auto_prior) {
    // Same empirical prior recipe as the samplers.
    size_t gel_dim = documents.front().gel_feature.size();
    size_t emu_dim = documents.front().emulsion_feature.size();
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

  Rng rng(config_.seed);
  gamma_.resize(d_count);
  rho_.assign(d_count, std::vector<double>(k_count, 0.0));
  e_n_dk_.assign(d_count, std::vector<double>(k_count, 0.0));
  e_n_kv_.assign(k_count, std::vector<double>(vocab_size_, 0.0));
  e_n_k_.assign(k_count, 0.0);

  for (size_t d = 0; d < d_count; ++d) {
    const auto& doc = documents[d];
    gamma_[d].resize(doc.term_ids.size());
    for (size_t n = 0; n < doc.term_ids.size(); ++n) {
      // Random simplex initialization breaks symmetry.
      gamma_[d][n] =
          math::DirichletSample(rng, k_count, 1.0).data();
      for (size_t k = 0; k < k_count; ++k) {
        double g = gamma_[d][n][k];
        e_n_dk_[d][k] += g;
        e_n_kv_[k][static_cast<size_t>(doc.term_ids[n])] += g;
        e_n_k_[k] += g;
      }
    }
    rho_[d] = math::DirichletSample(rng, k_count, 1.0).data();
  }
  return UpdateGaussians();
}

texrheo::Status VariationalJointTopicModel::UpdateGaussians() {
  const auto& documents = docs_->documents;
  size_t k_count = static_cast<size_t>(config_.num_topics);
  size_t gel_dim = documents.front().gel_feature.size();
  size_t emu_dim = documents.front().emulsion_feature.size();

  std::vector<math::Gaussian> new_gel, new_emu;
  new_gel.reserve(k_count);
  new_emu.reserve(k_count);
  for (size_t k = 0; k < k_count; ++k) {
    // Responsibility-weighted mean and scatter.
    double weight = 0.0;
    math::Vector gel_sum(gel_dim), emu_sum(emu_dim);
    for (size_t d = 0; d < documents.size(); ++d) {
      double r = rho_[d][k];
      weight += r;
      gel_sum += r * documents[d].gel_feature;
      emu_sum += r * documents[d].emulsion_feature;
    }
    math::Vector gel_mean = gel_sum, emu_mean = emu_sum;
    if (weight > 1e-12) {
      gel_mean *= 1.0 / weight;
      emu_mean *= 1.0 / weight;
    }
    math::Matrix gel_scatter(gel_dim, gel_dim);
    math::Matrix emu_scatter(emu_dim, emu_dim);
    for (size_t d = 0; d < documents.size(); ++d) {
      double r = rho_[d][k];
      if (r <= 1e-12) continue;
      math::Vector dg = documents[d].gel_feature - gel_mean;
      math::Vector de = documents[d].emulsion_feature - emu_mean;
      gel_scatter += r * math::Matrix::Outer(dg, dg);
      emu_scatter += r * math::Matrix::Outer(de, de);
    }
    TEXRHEO_ASSIGN_OR_RETURN(
        math::NormalWishartParams gel_post,
        config_.gel_prior.PosteriorWeighted(weight, gel_mean, gel_scatter));
    TEXRHEO_ASSIGN_OR_RETURN(
        math::NormalWishartParams emu_post,
        config_.emulsion_prior.PosteriorWeighted(weight, emu_mean,
                                                 emu_scatter));
    TEXRHEO_ASSIGN_OR_RETURN(math::Gaussian g,
                             math::NormalWishartMean(gel_post));
    TEXRHEO_ASSIGN_OR_RETURN(math::Gaussian e,
                             math::NormalWishartMean(emu_post));
    new_gel.push_back(std::move(g));
    new_emu.push_back(std::move(e));
  }
  gel_topics_ = std::move(new_gel);
  emulsion_topics_ = std::move(new_emu);
  return Status::OK();
}

void VariationalJointTopicModel::UpdateWordResponsibilities() {
  const auto& documents = docs_->documents;
  size_t k_count = static_cast<size_t>(config_.num_topics);
  double gamma_v = config_.gamma * static_cast<double>(vocab_size_);
  std::vector<double> weights(k_count);

  for (size_t d = 0; d < documents.size(); ++d) {
    const auto& doc = documents[d];
    for (size_t n = 0; n < doc.term_ids.size(); ++n) {
      size_t v = static_cast<size_t>(doc.term_ids[n]);
      // Remove this token's own responsibility (CVB0's "minus self").
      for (size_t k = 0; k < k_count; ++k) {
        double g = gamma_[d][n][k];
        e_n_dk_[d][k] -= g;
        e_n_kv_[k][v] -= g;
        e_n_k_[k] -= g;
      }
      double total = 0.0;
      for (size_t k = 0; k < k_count; ++k) {
        double doc_part = e_n_dk_[d][k] + rho_[d][k] + config_.alpha;
        double word_part = (e_n_kv_[k][v] + config_.gamma) /
                           (e_n_k_[k] + gamma_v);
        weights[k] = std::max(doc_part, 1e-12) * std::max(word_part, 1e-12);
        total += weights[k];
      }
      for (size_t k = 0; k < k_count; ++k) {
        double g = weights[k] / total;
        gamma_[d][n][k] = g;
        e_n_dk_[d][k] += g;
        e_n_kv_[k][v] += g;
        e_n_k_[k] += g;
      }
    }
  }
}

void VariationalJointTopicModel::UpdateDocResponsibilities() {
  const auto& documents = docs_->documents;
  size_t k_count = static_cast<size_t>(config_.num_topics);
  std::vector<double> log_w(k_count);
  for (size_t d = 0; d < documents.size(); ++d) {
    const auto& doc = documents[d];
    for (size_t k = 0; k < k_count; ++k) {
      double lw = std::log(e_n_dk_[d][k] + config_.alpha);
      lw += gel_topics_[k].LogPdf(doc.gel_feature);
      if (config_.use_emulsion_likelihood) {
        lw += emulsion_topics_[k].LogPdf(doc.emulsion_feature);
      }
      log_w[k] = lw;
    }
    double norm = math::LogSumExp(log_w.data(), log_w.size());
    for (size_t k = 0; k < k_count; ++k) {
      rho_[d][k] = std::exp(log_w[k] - norm);
    }
  }
}

double VariationalJointTopicModel::ComputeObjective() const {
  const auto& documents = docs_->documents;
  size_t k_count = static_cast<size_t>(config_.num_topics);
  double gamma_v = config_.gamma * static_cast<double>(vocab_size_);
  double alpha_sum = config_.alpha * static_cast<double>(k_count);
  double objective = 0.0;
  for (size_t d = 0; d < documents.size(); ++d) {
    const auto& doc = documents[d];
    double n_d = static_cast<double>(doc.term_ids.size());
    for (size_t n = 0; n < doc.term_ids.size(); ++n) {
      size_t v = static_cast<size_t>(doc.term_ids[n]);
      double p = 0.0;
      for (size_t k = 0; k < k_count; ++k) {
        double theta = (e_n_dk_[d][k] + rho_[d][k] + config_.alpha) /
                       (n_d + 1.0 + alpha_sum);
        double phi = (e_n_kv_[k][v] + config_.gamma) / (e_n_k_[k] + gamma_v);
        p += theta * phi;
      }
      objective += std::log(std::max(p, 1e-300));
    }
    for (size_t k = 0; k < k_count; ++k) {
      double r = rho_[d][k];
      if (r <= 1e-12) continue;
      double lw = gel_topics_[k].LogPdf(doc.gel_feature);
      if (config_.use_emulsion_likelihood) {
        lw += emulsion_topics_[k].LogPdf(doc.emulsion_feature);
      }
      objective += r * lw;
    }
  }
  return objective;
}

texrheo::Status VariationalJointTopicModel::Run(int max_iterations,
                                                double tolerance) {
  double previous = -std::numeric_limits<double>::infinity();
  for (int iter = 0; iter < max_iterations; ++iter) {
    UpdateWordResponsibilities();
    UpdateDocResponsibilities();
    TEXRHEO_RETURN_IF_ERROR(UpdateGaussians());
    objective_ = ComputeObjective();
    ++iterations_run_;
    if (iter > 0 && std::fabs(objective_ - previous) <=
                        tolerance * (std::fabs(previous) + 1.0)) {
      break;
    }
    previous = objective_;
  }
  return Status::OK();
}

texrheo::StatusOr<TopicEstimates> VariationalJointTopicModel::Estimate()
    const {
  const auto& documents = docs_->documents;
  size_t k_count = static_cast<size_t>(config_.num_topics);
  double gamma_v = config_.gamma * static_cast<double>(vocab_size_);
  double alpha_sum = config_.alpha * static_cast<double>(k_count);

  TopicEstimates est;
  est.phi.assign(k_count, std::vector<double>(vocab_size_, 0.0));
  for (size_t k = 0; k < k_count; ++k) {
    for (size_t v = 0; v < vocab_size_; ++v) {
      est.phi[k][v] = (e_n_kv_[k][v] + config_.gamma) /
                      (e_n_k_[k] + gamma_v);
    }
  }
  est.gel_topics = gel_topics_;
  est.emulsion_topics = emulsion_topics_;
  est.theta.assign(documents.size(), std::vector<double>(k_count, 0.0));
  est.doc_topic.resize(documents.size());
  est.topic_recipe_count.assign(k_count, 0);
  for (size_t d = 0; d < documents.size(); ++d) {
    double n_d = static_cast<double>(documents[d].term_ids.size());
    int best = 0;
    double best_val = -1.0;
    for (size_t k = 0; k < k_count; ++k) {
      double val = (e_n_dk_[d][k] + rho_[d][k] + config_.alpha) /
                   (n_d + 1.0 + alpha_sum);
      est.theta[d][k] = val;
      if (val > best_val) {
        best_val = val;
        best = static_cast<int>(k);
      }
    }
    est.doc_topic[d] = best;
    ++est.topic_recipe_count[static_cast<size_t>(best)];
  }
  return est;
}

}  // namespace texrheo::core
