#include "serve/snapshot.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/checkpoint.h"
#include "core/fold_in.h"
#include "core/joint_topic_model.h"
#include "util/crc32.h"

namespace texrheo::serve {

namespace {

constexpr int kTopTermsPerTopic = 12;

bool EndsWith(const std::string& s, const char* suffix) {
  size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// TPA pole a vocabulary word contributes to (see CategoryMasses).
enum class Pole : uint8_t { kHard, kSoft, kElastic, kCrumbly, kSticky, kDry,
                            kOther };

Pole ClassifyWord(const text::TextureDictionary& dict, std::string_view word) {
  const text::TextureTerm* term = dict.Find(word);
  if (term == nullptr) return Pole::kOther;
  if (text::IsHardTerm(*term)) return Pole::kHard;
  if (text::IsSoftTerm(*term)) return Pole::kSoft;
  if (text::IsElasticTerm(*term)) return Pole::kElastic;
  if (text::IsCrumblyTerm(*term)) return Pole::kCrumbly;
  if (text::IsStickyTerm(*term)) return Pole::kSticky;
  return Pole::kDry;
}

StatusOr<math::Gaussian> GaussianFromSpans(size_t dim,
                                           std::span<const double> mean,
                                           std::span<const double> precision) {
  math::Vector mu(dim);
  for (size_t i = 0; i < dim; ++i) mu[i] = mean[i];
  math::Matrix lambda(dim, dim);
  for (size_t r = 0; r < dim; ++r) {
    for (size_t c = 0; c < dim; ++c) lambda(r, c) = precision[r * dim + c];
  }
  return math::Gaussian::FromPrecision(std::move(mu), std::move(lambda));
}

}  // namespace

int32_t ServingSnapshot::WordId(std::string_view term) const {
  if (mapped_ == nullptr) return model_.vocab.IdOf(term);
  auto it = word_index_.find(term);
  return it == word_index_.end() ? text::Vocabulary::kUnknownId : it->second;
}

Status ServingSnapshot::Validate() const {
  const core::TopicEstimates& est = estimates();
  if (num_topics_ < 1) {
    return Status::InvalidArgument("serving snapshot: model has no topics");
  }
  size_t k_count = static_cast<size_t>(num_topics_);
  for (int k = 0; k < num_topics_; ++k) {
    std::span<const double> row = phi(k);
    if (row.size() != vocab_size_) {
      return Status::InvalidArgument(
          "serving snapshot: phi row width disagrees with vocabulary");
    }
    for (double p : row) {
      if (!std::isfinite(p) || p < 0.0) {
        return Status::InvalidArgument(
            "serving snapshot: phi contains negative or non-finite mass");
      }
    }
  }
  if (est.gel_topics.size() != k_count ||
      est.emulsion_topics.size() != k_count) {
    return Status::InvalidArgument(
        "serving snapshot: per-topic Gaussian count disagrees with phi");
  }
  if (!est.topic_recipe_count.empty() &&
      est.topic_recipe_count.size() != k_count) {
    return Status::InvalidArgument(
        "serving snapshot: topic_recipe_count size disagrees with phi");
  }
  if (has_embeddings()) {
    embed::EmbeddingView view = embedding_view();
    if (view.vocab != vocab_size_) {
      return Status::InvalidArgument(
          "serving snapshot: embedding vocabulary disagrees with the model");
    }
    // Value-level finiteness was already enforced where the table entered
    // the process (ValidateEmbeddingTable on the heap path, MappedModel::
    // Open on the mmap path); only the alignment needs re-checking here.
  }
  return Status::OK();
}

void ServingSnapshot::BuildSummaries(const text::TextureDictionary& dict,
                                     int top_terms) {
  // Classify each vocabulary word into its pole once (V dictionary lookups
  // instead of K*V): summary building is on the reload path, and on the
  // mmap path it is most of the load cost.
  std::vector<Pole> poles(vocab_size_);
  for (size_t v = 0; v < vocab_size_; ++v) {
    poles[v] = ClassifyWord(dict, word(v));
  }
  summaries_.clear();
  summaries_.resize(static_cast<size_t>(num_topics_));
  std::vector<size_t> order(vocab_size_);
  for (int k = 0; k < num_topics_; ++k) {
    TopicTermSummary& summary = summaries_[static_cast<size_t>(k)];
    std::span<const double> row = phi(k);
    for (size_t v = 0; v < vocab_size_; ++v) {
      double p = row[v];
      switch (poles[v]) {
        case Pole::kHard: summary.masses.hard += p; break;
        case Pole::kSoft: summary.masses.soft += p; break;
        case Pole::kElastic: summary.masses.elastic += p; break;
        case Pole::kCrumbly: summary.masses.crumbly += p; break;
        case Pole::kSticky: summary.masses.sticky += p; break;
        case Pole::kDry: summary.masses.dry += p; break;
        case Pole::kOther: summary.masses.other += p; break;
      }
    }
    // Only the top terms are materialized as strings; sort ids, not pairs.
    size_t keep = std::min<size_t>(static_cast<size_t>(top_terms),
                                   vocab_size_);
    for (size_t v = 0; v < vocab_size_; ++v) order[v] = v;
    std::partial_sort(order.begin(), order.begin() + static_cast<long>(keep),
                      order.end(), [&row](size_t a, size_t b) {
                        if (row[a] != row[b]) return row[a] > row[b];
                        return a < b;  // Deterministic among ties.
                      });
    summary.top_terms.reserve(keep);
    for (size_t i = 0; i < keep; ++i) {
      summary.top_terms.emplace_back(std::string(word(order[i])),
                                     row[order[i]]);
    }
  }
}

Status ServingSnapshot::Finalize() {
  TEXRHEO_RETURN_IF_ERROR(Validate());
  BuildSummaries(text::TextureDictionary::Embedded(), kTopTermsPerTopic);
  return Status::OK();
}

StatusOr<std::shared_ptr<const ServingSnapshot>> ServingSnapshot::FromModel(
    core::ModelSnapshot model, std::string source,
    embed::EmbeddingTable embeddings) {
  TEXRHEO_RETURN_IF_ERROR(embed::ValidateEmbeddingTable(embeddings));
  auto snapshot = std::shared_ptr<ServingSnapshot>(new ServingSnapshot());
  snapshot->model_ = std::move(model);
  snapshot->embeddings_ = std::move(embeddings);
  snapshot->source_ = std::move(source);
  snapshot->num_topics_ = snapshot->model_.num_topics();
  snapshot->vocab_size_ = snapshot->model_.vocab.size();
  // The fingerprint hashes the canonical text serialization, so it is
  // stable across load paths: a model file, the checkpoint it was exported
  // from, and the packed binary all produce the same id when they encode
  // the same estimates.
  snapshot->fingerprint_ = Crc32(core::SerializeModel(snapshot->model_));
  TEXRHEO_RETURN_IF_ERROR(snapshot->Finalize());
  return std::shared_ptr<const ServingSnapshot>(std::move(snapshot));
}

StatusOr<std::shared_ptr<const ServingSnapshot>>
ServingSnapshot::FromModelFile(const std::string& path) {
  TEXRHEO_ASSIGN_OR_RETURN(core::ModelSnapshot model, core::LoadModel(path));
  return FromModel(std::move(model), path);
}

StatusOr<std::shared_ptr<const ServingSnapshot>>
ServingSnapshot::FromBinaryFile(const std::string& path,
                                core::MemoryMapOps& ops) {
  TEXRHEO_ASSIGN_OR_RETURN(std::shared_ptr<const core::MappedModel> mapped,
                           core::MappedModel::Open(path, ops));
  auto snapshot = std::shared_ptr<ServingSnapshot>(new ServingSnapshot());
  snapshot->source_ = mapped->idx_path();
  snapshot->num_topics_ = mapped->num_topics();
  snapshot->vocab_size_ = mapped->vocab_size();
  // MappedModel::Open already verified the index and every section CRC;
  // the stored fingerprint is the CRC32 of the canonical v2 serialization
  // computed at pack time, so loading does not re-serialize the model.
  snapshot->fingerprint_ = mapped->fingerprint();

  // Materialize the per-topic Gaussians (they need a Cholesky for LogPdf
  // anyway - tiny: K blocks of Dg^2 + De^2 doubles) and the Table-I
  // linkage counts. phi stays in the mapping.
  core::TopicEstimates& est = snapshot->gaussian_estimates_;
  int k_count = mapped->num_topics();
  est.gel_topics.reserve(static_cast<size_t>(k_count));
  est.emulsion_topics.reserve(static_cast<size_t>(k_count));
  for (int k = 0; k < k_count; ++k) {
    auto gel = GaussianFromSpans(mapped->gel_dim(), mapped->gel_mean(k),
                                 mapped->gel_precision(k));
    if (!gel.ok()) {
      return Status::InvalidArgument(
          "model binary: gel gaussian for topic " + std::to_string(k) +
          " is not positive definite: " + gel.status().message());
    }
    est.gel_topics.push_back(std::move(gel).value());
    auto emulsion =
        GaussianFromSpans(mapped->emulsion_dim(), mapped->emulsion_mean(k),
                          mapped->emulsion_precision(k));
    if (!emulsion.ok()) {
      return Status::InvalidArgument(
          "model binary: emulsion gaussian for topic " + std::to_string(k) +
          " is not positive definite: " + emulsion.status().message());
    }
    est.emulsion_topics.push_back(std::move(emulsion).value());
  }
  est.topic_recipe_count.reserve(static_cast<size_t>(k_count));
  for (int64_t n : mapped->recipe_counts()) {
    est.topic_recipe_count.push_back(static_cast<int>(n));
  }

  // Word -> id over string_views into the pool (stable while the mapping
  // lives). A duplicated word would make lookups ambiguous - reject.
  snapshot->word_index_.reserve(mapped->vocab_size());
  for (size_t v = 0; v < mapped->vocab_size(); ++v) {
    auto [it, inserted] =
        snapshot->word_index_.emplace(mapped->word(v),
                                      static_cast<int32_t>(v));
    if (!inserted) {
      return Status::InvalidArgument(
          "model binary: vocabulary pool contains duplicate words");
    }
  }

  snapshot->mapped_ = std::move(mapped);
  TEXRHEO_RETURN_IF_ERROR(snapshot->Finalize());
  return std::shared_ptr<const ServingSnapshot>(std::move(snapshot));
}

StatusOr<std::shared_ptr<const ServingSnapshot>> ServingSnapshot::FromFile(
    const std::string& path) {
  if (EndsWith(path, ".idx") || EndsWith(path, ".dat")) {
    return FromBinaryFile(path);
  }
  return FromModelFile(path);
}

StatusOr<std::shared_ptr<const ServingSnapshot>>
ServingSnapshot::FromCheckpointFile(const std::string& path,
                                    const recipe::Dataset& dataset) {
  TEXRHEO_ASSIGN_OR_RETURN(core::CheckpointState state,
                           core::ReadCheckpointFile(path));
  if (state.fingerprint.sampler != core::SamplerKind::kJoint) {
    return Status::FailedPrecondition(
        "serving snapshot: checkpoint was written by a different sampler");
  }
  // Reconstruct the training configuration from the checkpoint fingerprint;
  // RestoreFromCheckpoint then re-verifies the fingerprint and cross-checks
  // the count matrices against `dataset`, refusing a corpus mismatch.
  core::JointTopicModelConfig config;
  config.num_topics = state.fingerprint.num_topics;
  config.alpha = state.fingerprint.alpha;
  config.gamma = state.fingerprint.gamma;
  config.seed = state.fingerprint.seed;
  config.num_threads = state.fingerprint.num_threads;
  config.optimize_alpha = state.fingerprint.optimize_alpha;
  config.use_emulsion_likelihood = state.fingerprint.use_emulsion_likelihood;
  config.gmm_init = state.fingerprint.gmm_init;
  TEXRHEO_ASSIGN_OR_RETURN(core::JointTopicModel model,
                           core::JointTopicModel::Create(config, &dataset));
  TEXRHEO_RETURN_IF_ERROR(model.RestoreFromCheckpoint(state));
  return FromModel(core::MakeSnapshot(model.Estimate(), dataset.term_vocab),
                   path);
}

StatusOr<std::vector<double>> ServingSnapshot::FoldInTheta(
    const std::vector<int32_t>& term_ids, const math::Vector& gel_feature,
    int sweeps, double alpha, Rng& rng) const {
  if (sweeps < 1) {
    return Status::InvalidArgument("fold-in: sweeps must be >= 1");
  }
  if (alpha <= 0.0) {
    return Status::InvalidArgument("fold-in: alpha must be positive");
  }
  const core::TopicEstimates& est = estimates();
  for (int32_t term : term_ids) {
    if (term < 0 || static_cast<size_t>(term) >= vocab_size()) {
      return Status::OutOfRange("fold-in: term id outside model vocabulary");
    }
  }
  if (gel_feature.size() != est.gel_topics.front().dim()) {
    return Status::InvalidArgument(
        "fold-in: gel feature dimension does not match model");
  }
  // The same eq.-5 kernel as JointTopicModel::FoldInTheta, with the
  // collapsed count ratios replaced by the snapshot's phi point estimates.
  // Phi and the gel densities are fixed for the query, so both are looked
  // up once here instead of once per sweep.
  const size_t k_count = static_cast<size_t>(num_topics());
  std::vector<double> term_weights(term_ids.size() * k_count);
  std::vector<double> log_density(k_count);
  for (size_t k = 0; k < k_count; ++k) {
    std::span<const double> row = phi(static_cast<int>(k));
    for (size_t n = 0; n < term_ids.size(); ++n) {
      term_weights[n * k_count + k] = row[static_cast<size_t>(term_ids[n])];
    }
    log_density[k] = est.gel_topics[k].LogPdf(gel_feature);
  }
  return core::FoldInDocument(term_weights, log_density, sweeps, alpha, rng);
}

int ServingSnapshot::InferTopicForFeatures(
    const math::Vector& gel_feature) const {
  const core::TopicEstimates& est = estimates();
  int best = 0;
  double best_lw = -std::numeric_limits<double>::infinity();
  for (int k = 0; k < num_topics(); ++k) {
    size_t ks = static_cast<size_t>(k);
    double prior = 1.0;
    if (!est.topic_recipe_count.empty()) {
      prior += static_cast<double>(est.topic_recipe_count[ks]);
    }
    double lw = std::log(prior) + est.gel_topics[ks].LogPdf(gel_feature);
    if (lw > best_lw) {
      best_lw = lw;
      best = k;
    }
  }
  return best;
}

}  // namespace texrheo::serve
