#include "core/lda_baseline.h"

#include <cmath>

#include "math/running_stats.h"

namespace texrheo::core {

LdaModel::LdaModel(const LdaConfig& config, const recipe::Dataset* dataset)
    : config_(config), docs_(dataset), rng_(config.seed) {}

texrheo::StatusOr<LdaModel> LdaModel::Create(const LdaConfig& config,
                                             const recipe::Dataset* dataset) {
  if (dataset == nullptr || dataset->documents.empty()) {
    return Status::InvalidArgument("lda: empty dataset");
  }
  if (config.num_topics < 1 || config.alpha <= 0.0 || config.gamma <= 0.0) {
    return Status::InvalidArgument("lda: invalid hyperparameters");
  }
  LdaModel model(config, dataset);
  model.vocab_size_ = dataset->term_vocab.size();
  size_t d_count = dataset->documents.size();
  int k_count = config.num_topics;
  model.z_.resize(d_count);
  model.n_dk_.assign(d_count, std::vector<int>(k_count, 0));
  model.n_kv_.assign(static_cast<size_t>(k_count),
                     std::vector<int>(model.vocab_size_, 0));
  model.n_k_.assign(static_cast<size_t>(k_count), 0);
  for (size_t d = 0; d < d_count; ++d) {
    const auto& doc = dataset->documents[d];
    model.z_[d].resize(doc.term_ids.size());
    for (size_t n = 0; n < doc.term_ids.size(); ++n) {
      int k = static_cast<int>(
          model.rng_.NextUint(static_cast<uint64_t>(k_count)));
      model.z_[d][n] = k;
      ++model.n_dk_[d][static_cast<size_t>(k)];
      ++model.n_kv_[static_cast<size_t>(k)]
                   [static_cast<size_t>(doc.term_ids[n])];
      ++model.n_k_[static_cast<size_t>(k)];
    }
  }
  return model;
}

texrheo::Status LdaModel::RunSweeps(int sweeps) {
  int k_count = config_.num_topics;
  double gamma_v = config_.gamma * static_cast<double>(vocab_size_);
  std::vector<double> weights(static_cast<size_t>(k_count));
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (size_t d = 0; d < docs_->documents.size(); ++d) {
      const auto& doc = docs_->documents[d];
      for (size_t n = 0; n < doc.term_ids.size(); ++n) {
        size_t v = static_cast<size_t>(doc.term_ids[n]);
        int old_k = z_[d][n];
        --n_dk_[d][static_cast<size_t>(old_k)];
        --n_kv_[static_cast<size_t>(old_k)][v];
        --n_k_[static_cast<size_t>(old_k)];
        for (int k = 0; k < k_count; ++k) {
          size_t ks = static_cast<size_t>(k);
          weights[ks] =
              (static_cast<double>(n_dk_[d][ks]) + config_.alpha) *
              (static_cast<double>(n_kv_[ks][v]) + config_.gamma) /
              (static_cast<double>(n_k_[ks]) + gamma_v);
        }
        int new_k = static_cast<int>(rng_.NextCategorical(weights));
        z_[d][n] = new_k;
        ++n_dk_[d][static_cast<size_t>(new_k)];
        ++n_kv_[static_cast<size_t>(new_k)][v];
        ++n_k_[static_cast<size_t>(new_k)];
      }
    }
  }
  return Status::OK();
}

std::vector<std::vector<double>> LdaModel::Phi() const {
  double gamma_v = config_.gamma * static_cast<double>(vocab_size_);
  std::vector<std::vector<double>> phi(
      static_cast<size_t>(config_.num_topics),
      std::vector<double>(vocab_size_, 0.0));
  for (int k = 0; k < config_.num_topics; ++k) {
    size_t ks = static_cast<size_t>(k);
    for (size_t v = 0; v < vocab_size_; ++v) {
      phi[ks][v] = (static_cast<double>(n_kv_[ks][v]) + config_.gamma) /
                   (static_cast<double>(n_k_[ks]) + gamma_v);
    }
  }
  return phi;
}

std::vector<std::vector<double>> LdaModel::Theta() const {
  double alpha_sum = config_.alpha * static_cast<double>(config_.num_topics);
  std::vector<std::vector<double>> theta(
      docs_->documents.size(),
      std::vector<double>(static_cast<size_t>(config_.num_topics), 0.0));
  for (size_t d = 0; d < docs_->documents.size(); ++d) {
    double n_d = static_cast<double>(docs_->documents[d].term_ids.size());
    for (int k = 0; k < config_.num_topics; ++k) {
      size_t ks = static_cast<size_t>(k);
      theta[d][ks] =
          (static_cast<double>(n_dk_[d][ks]) + config_.alpha) /
          (n_d + alpha_sum);
    }
  }
  return theta;
}

std::vector<int> LdaModel::DocTopics() const {
  std::vector<int> out(docs_->documents.size(), 0);
  for (size_t d = 0; d < docs_->documents.size(); ++d) {
    int best = 0;
    int best_count = -1;
    for (int k = 0; k < config_.num_topics; ++k) {
      if (n_dk_[d][static_cast<size_t>(k)] > best_count) {
        best_count = n_dk_[d][static_cast<size_t>(k)];
        best = k;
      }
    }
    out[d] = best;
  }
  return out;
}

double LdaModel::LogLikelihood() const {
  double gamma_v = config_.gamma * static_cast<double>(vocab_size_);
  double ll = 0.0;
  for (size_t d = 0; d < docs_->documents.size(); ++d) {
    const auto& doc = docs_->documents[d];
    for (size_t n = 0; n < doc.term_ids.size(); ++n) {
      size_t k = static_cast<size_t>(z_[d][n]);
      size_t v = static_cast<size_t>(doc.term_ids[n]);
      ll += std::log((static_cast<double>(n_kv_[k][v]) + config_.gamma) /
                     (static_cast<double>(n_k_[k]) + gamma_v));
    }
  }
  return ll;
}

texrheo::StatusOr<std::vector<math::Gaussian>> FitPostHocGaussians(
    const recipe::Dataset& dataset, const std::vector<int>& doc_topic,
    int num_topics, bool use_gel, const math::NormalWishartParams& prior) {
  if (doc_topic.size() != dataset.documents.size()) {
    return Status::InvalidArgument("doc_topic size mismatch");
  }
  std::vector<math::Gaussian> out;
  out.reserve(static_cast<size_t>(num_topics));
  size_t dim = use_gel ? dataset.documents.front().gel_feature.size()
                       : dataset.documents.front().emulsion_feature.size();
  for (int k = 0; k < num_topics; ++k) {
    math::RunningMoments moments(dim);
    for (size_t d = 0; d < dataset.documents.size(); ++d) {
      if (doc_topic[d] != k) continue;
      moments.Add(use_gel ? dataset.documents[d].gel_feature
                          : dataset.documents[d].emulsion_feature);
    }
    // MAP-style estimate: posterior-mean Gaussian of the Normal-Wishart
    // update (degenerate sample covariance is regularized by the prior).
    TEXRHEO_ASSIGN_OR_RETURN(
        math::NormalWishartParams post,
        prior.Posterior(moments.count(), moments.Mean(), moments.Scatter()));
    TEXRHEO_ASSIGN_OR_RETURN(math::Gaussian g, math::NormalWishartMean(post));
    out.push_back(std::move(g));
  }
  return out;
}

}  // namespace texrheo::core
