#include "serve/snapshot.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/fold_in.h"

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

}  // namespace

int32_t ServingSnapshot::WordId(std::string_view term) const {
  auto it = word_index_.find(term);
  return it == word_index_.end() ? text::Vocabulary::kUnknownId : it->second;
}

void ServingSnapshot::BuildSummaries(const text::TextureDictionary& dict,
                                     int top_terms) {
  // Classify each vocabulary word into its pole once (V dictionary lookups
  // instead of K*V): summary building is on the reload path, and it is
  // most of the load cost.
  const size_t v_count = vocab_size();
  std::vector<Pole> poles(v_count);
  for (size_t v = 0; v < v_count; ++v) {
    poles[v] = ClassifyWord(dict, word(v));
  }
  summaries_.clear();
  summaries_.resize(static_cast<size_t>(num_topics()));
  std::vector<size_t> order(v_count);
  for (int k = 0; k < num_topics(); ++k) {
    TopicTermSummary& summary = summaries_[static_cast<size_t>(k)];
    std::span<const double> row = phi(k);
    for (size_t v = 0; v < v_count; ++v) {
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
                                   v_count);
    for (size_t v = 0; v < v_count; ++v) order[v] = v;
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

StatusOr<std::shared_ptr<const ServingSnapshot>> ServingSnapshot::FromImage(
    std::shared_ptr<const core::MappedModel> model, std::string source) {
  auto snapshot = std::shared_ptr<ServingSnapshot>(new ServingSnapshot());
  snapshot->source_ = std::move(source);
  TEXRHEO_ASSIGN_OR_RETURN(snapshot->estimates_,
                           core::MappedTopicEstimates(*model));
  // Word -> id over string_views into the pool (stable while the image
  // lives). A duplicated word would make lookups ambiguous - reject.
  snapshot->word_index_.reserve(model->vocab_size());
  for (size_t v = 0; v < model->vocab_size(); ++v) {
    auto [it, inserted] =
        snapshot->word_index_.emplace(model->word(v), static_cast<int32_t>(v));
    if (!inserted) {
      return Status::InvalidArgument(
          "model binary: vocabulary pool contains duplicate words");
    }
  }
  // The image checks cover shapes and the embeddings; phi's values are the
  // one thing left to refuse.
  for (int k = 0; k < model->num_topics(); ++k) {
    for (double p : model->phi_row(k)) {
      if (!std::isfinite(p) || p < 0.0) {
        return Status::InvalidArgument(
            "serving snapshot: phi contains negative or non-finite mass");
      }
    }
  }
  snapshot->model_ = std::move(model);
  snapshot->BuildSummaries(text::TextureDictionary::Embedded(),
                           kTopTermsPerTopic);
  return std::shared_ptr<const ServingSnapshot>(std::move(snapshot));
}

StatusOr<std::shared_ptr<const ServingSnapshot>> ServingSnapshot::FromModel(
    const core::ModelSnapshot& model, std::string source,
    const embed::EmbeddingTable& embeddings) {
  TEXRHEO_ASSIGN_OR_RETURN(core::PackedModel packed,
                           core::PackModelBinary(model, &embeddings));
  TEXRHEO_ASSIGN_OR_RETURN(std::shared_ptr<const core::MappedModel> image,
                           core::MappedModel::FromPacked(std::move(packed)));
  return FromImage(std::move(image), std::move(source));
}

StatusOr<std::shared_ptr<const ServingSnapshot>>
ServingSnapshot::FromModelFile(const std::string& path) {
  TEXRHEO_ASSIGN_OR_RETURN(core::ModelSnapshot model, core::LoadModel(path));
  return FromModel(model, path);
}

StatusOr<std::shared_ptr<const ServingSnapshot>>
ServingSnapshot::FromBinaryFile(const std::string& path,
                                core::MemoryMapOps& ops) {
  TEXRHEO_ASSIGN_OR_RETURN(std::shared_ptr<const core::MappedModel> mapped,
                           core::MappedModel::Open(path, ops));
  std::string source = mapped->idx_path();
  return FromImage(std::move(mapped), std::move(source));
}

StatusOr<std::shared_ptr<const ServingSnapshot>> ServingSnapshot::FromFile(
    const std::string& path) {
  if (EndsWith(path, ".idx") || EndsWith(path, ".dat")) {
    return FromBinaryFile(path);
  }
  return FromModelFile(path);
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
    double prior = 1.0 + static_cast<double>(est.topic_recipe_count[ks]);
    double lw = std::log(prior) + est.gel_topics[ks].LogPdf(gel_feature);
    if (lw > best_lw) {
      best_lw = lw;
      best = k;
    }
  }
  return best;
}

}  // namespace texrheo::serve
