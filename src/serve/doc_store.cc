#include "serve/doc_store.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "math/divergence.h"

namespace texrheo::serve {

double KlDistance(const SimilarDoc& query, const SimilarDoc& doc) {
  if (doc.emulsion.size() != query.emulsion.size()) {
    return std::numeric_limits<double>::infinity();
  }
  return math::NormalizedKL(doc.emulsion, query.emulsion);
}

double CosineDistance(const SimilarDoc& query, const SimilarDoc& doc) {
  const double denom = query.norm * doc.norm;
  if (denom <= 0.0) return 2.0;
  double dot = 0.0;
  for (size_t i = 0; i < query.mean.size(); ++i) {
    dot += static_cast<double>(query.mean[i]) * doc.mean[i];
  }
  return 1.0 - dot / denom;
}

double JaccardDistance(const SimilarDoc& query, const SimilarDoc& doc) {
  const std::vector<int32_t>& a = query.terms;
  const std::vector<int32_t>& b = doc.terms;
  if (a.empty() || b.empty()) return 1.0;
  size_t i = 0;
  size_t j = 0;
  size_t both = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++both;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  size_t either = a.size() + b.size() - both;
  return 1.0 - static_cast<double>(both) / static_cast<double>(either);
}

bool Nearer(const SimilarRecipe& a, const SimilarRecipe& b) {
  if (a.divergence != b.divergence) return a.divergence < b.divergence;
  return a.recipe_index < b.recipe_index;
}

std::vector<SimilarRecipe> Score(
    DocDistance distance, const SimilarDoc& query,
    std::span<const SimilarDoc* const> candidates) {
  std::vector<SimilarRecipe> scored;
  scored.reserve(candidates.size());
  for (const SimilarDoc* doc : candidates) {
    scored.push_back(SimilarRecipe{doc->recipe_index, distance(query, *doc)});
  }
  return scored;
}

void KeepNearest(std::vector<SimilarRecipe>& ranking, size_t keep) {
  keep = std::min(keep, ranking.size());
  std::partial_sort(ranking.begin(),
                    ranking.begin() + static_cast<std::ptrdiff_t>(keep),
                    ranking.end(), Nearer);
  ranking.resize(keep);
}

namespace {

/// Bound on |screen - KlDistance| for one candidate. The two are one
/// 6-term sum of p_i log(p_i / q_i) in exact arithmetic, and each rounds off
/// by a few ulps of its largest log. The smoothing keeps a query's
/// probabilities (ratios in [0, 1]) at or above 1e-4 / 6.0006, so every log
/// in either sum is about 11 or less in magnitude (well under 20 when a
/// recipe's ingredients add up within one type) and the round-off stays far
/// below 1e-12; logs near kMinScreenLog would still keep it below 1e-11.
constexpr double kKlScreenSlack = 1e-9;

/// A query log below this may come from a probability so small that
/// p / q overflows inside KlDistance; such a query is scored in full.
constexpr double kMinScreenLog = -700.0;

}  // namespace

std::vector<SimilarRecipe> NearestByKl(
    const SimilarDoc& query, std::span<const SimilarDoc* const> candidates,
    size_t keep) {
  if (keep == 0) return {};
  const math::Vector& q = query.emulsion;
  std::vector<double> log_q(q.size());
  bool screen_pays = keep < candidates.size();
  for (size_t i = 0; i < q.size(); ++i) {
    log_q[i] = std::log(q[i]);
    // A NaN log fails the comparison too.
    screen_pays = screen_pays && log_q[i] >= kMinScreenLog;
  }
  if (!screen_pays) {
    std::vector<SimilarRecipe> ranking = Score(KlDistance, query, candidates);
    KeepNearest(ranking, keep);
    return ranking;
  }

  // screen = KlDistance +- kKlScreenSlack for every candidate, and +inf
  // exactly where KlDistance is +inf.
  std::vector<double> screen(candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    const math::Vector& p = candidates[c]->emulsion;
    if (p.size() != q.size()) {
      screen[c] = std::numeric_limits<double>::infinity();
      continue;
    }
    double cross = 0.0;
    for (size_t i = 0; i < p.size(); ++i) {
      if (p[i] > 0.0) cross += p[i] * log_q[i];
    }
    screen[c] = candidates[c]->emulsion_plogp - cross;
  }
  // With t the keep-th smallest screen, keep candidates have a KL of at
  // most t + slack, so every member of the true top `keep` screens at or
  // below t + 2 * slack.
  std::vector<double> order = screen;
  std::nth_element(order.begin(),
                   order.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                   order.end());
  const double cutoff = order[keep - 1] + 2.0 * kKlScreenSlack;
  std::vector<SimilarRecipe> ranking;
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (screen[c] <= cutoff) {
      ranking.push_back(SimilarRecipe{candidates[c]->recipe_index,
                                      KlDistance(query, *candidates[c])});
    }
  }
  KeepNearest(ranking, keep);
  return ranking;
}

DocStore::DocStore(int num_topics, embed::EmbeddingView embeddings)
    : embeddings_(embeddings) {
  base_.by_topic.resize(static_cast<size_t>(num_topics));
  delta_.by_topic.resize(static_cast<size_t>(num_topics));
}

SimilarDoc DocStore::Prepare(int topic, const math::Vector& emulsion,
                             std::vector<int32_t> terms) const {
  SimilarDoc doc;
  doc.topic = topic;
  if (auto normalized = math::NormalizeWeights(emulsion, kEmulsionKlSmoothing);
      normalized.ok()) {
    doc.emulsion = *std::move(normalized);
    for (size_t i = 0; i < doc.emulsion.size(); ++i) {
      const double p = doc.emulsion[i];
      if (p > 0.0) doc.emulsion_plogp += p * std::log(p);
    }
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  if (!embeddings_.empty()) {
    // Mean of the in-vocabulary term vectors (all zeros when none qualify).
    doc.mean.assign(embeddings_.dim, 0.0f);
    size_t used = 0;
    for (int32_t id : terms) {
      if (id < 0 || static_cast<size_t>(id) >= embeddings_.vocab) continue;
      std::span<const float> v = embeddings_.vec(static_cast<size_t>(id));
      for (size_t i = 0; i < v.size(); ++i) doc.mean[i] += v[i];
      ++used;
    }
    if (used > 1) {
      const float inv = 1.0f / static_cast<float>(used);
      for (float& x : doc.mean) x *= inv;
    }
    double sum = 0.0;
    for (float x : doc.mean) sum += static_cast<double>(x) * x;
    doc.norm = std::sqrt(sum);
  }
  doc.terms = std::move(terms);
  return doc;
}

void DocStore::Segment::Append(SimilarDoc doc, size_t first_index) {
  doc.recipe_index = first_index + docs.size();
  doc.norm = static_cast<float>(doc.norm);
  docs.push_back(std::move(doc));
  by_topic[static_cast<size_t>(docs.back().topic)].push_back(&docs.back());
}

void DocStore::AppendBase(SimilarDoc doc) { base_.Append(std::move(doc), 0); }

std::optional<int> DocStore::AppendDelta(uint64_t ingest_sequence,
                                         SimilarDoc doc) {
  std::lock_guard<std::mutex> lock(delta_mu_);
  if (ingest_sequence != 0) {
    auto [it, fresh] = delta_topics_.emplace(ingest_sequence, doc.topic);
    if (!fresh) return it->second;
  }
  delta_.Append(std::move(doc), base_.docs.size());
  return std::nullopt;
}

std::optional<int> DocStore::DeltaTopic(uint64_t ingest_sequence) const {
  if (ingest_sequence == 0) return std::nullopt;
  std::lock_guard<std::mutex> lock(delta_mu_);
  auto it = delta_topics_.find(ingest_sequence);
  if (it == delta_topics_.end()) return std::nullopt;
  return it->second;
}

std::vector<const SimilarDoc*> DocStore::Candidates(int topic) const {
  const auto k = static_cast<size_t>(topic);
  if (topic < 0 || k >= base_.by_topic.size()) return {};
  std::vector<const SimilarDoc*> candidates = base_.by_topic[k];
  std::lock_guard<std::mutex> lock(delta_mu_);
  const std::vector<const SimilarDoc*>& streamed = delta_.by_topic[k];
  candidates.insert(candidates.end(), streamed.begin(), streamed.end());
  return candidates;
}

size_t DocStore::delta_size() const {
  std::lock_guard<std::mutex> lock(delta_mu_);
  return delta_.docs.size();
}

}  // namespace texrheo::serve
