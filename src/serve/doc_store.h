#ifndef TEXRHEO_SERVE_DOC_STORE_H_
#define TEXRHEO_SERVE_DOC_STORE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "embed/embedding.h"
#include "math/linalg.h"

namespace texrheo::serve {

/// Smoothing of SIMILAR's emulsion KL (the paper's Section V.B ranking;
/// eval::RankByEmulsionKL's default for the Fig. 3 analysis).
inline constexpr double kEmulsionKlSmoothing = 1e-4;

/// Everything a SIMILAR distance reads about one recipe or one query,
/// prepared once by DocStore::Prepare.
struct SimilarDoc {
  size_t recipe_index = 0;  ///< Set when a store appends the record.
  int topic = 0;
  /// Smoothed, normalized emulsion distribution. Empty when the raw row
  /// does not normalize; such a recipe sorts last under kl.
  math::Vector emulsion;
  /// Sum of p_i log p_i over the positive entries of `emulsion` (0 when it
  /// is empty): the half of KL(doc || query) that no query changes, which
  /// lets NearestByKl screen a record without a log.
  double emulsion_plogp = 0.0;
  std::vector<int32_t> terms;  ///< Snapshot vocabulary ids, sorted-unique.
  /// Mean SGNS vector of `terms` (empty without embeddings) and its L2
  /// norm. Stored records keep the norm at float precision; a query keeps
  /// it in double.
  std::vector<float> mean;
  double norm = 0.0;
};

/// One ranked recipe: a SimilarRecipes answer row.
struct SimilarRecipe {
  size_t recipe_index = 0;  ///< Document index in the indexed corpus.
  /// Distance under the query's mode, ascending: emulsion KL (kl),
  /// 1 - cosine (embed), 1 - Jaccard (lexical), or the negated RRF score
  /// (fused) so "smaller is nearer" holds across all four.
  double divergence = 0.0;
};

// One distance per mode, used for every candidate of both segments.

/// KL(doc || query) over the normalized emulsion rows; +inf for a record
/// whose row did not normalize.
double KlDistance(const SimilarDoc& query, const SimilarDoc& doc);
/// 1 - cos(query.mean, doc.mean) in [0, 2]. A zero-norm side (no
/// in-vocabulary term) yields the sentinel 2.0, ranking it strictly after
/// any recipe with a real angle.
double CosineDistance(const SimilarDoc& query, const SimilarDoc& doc);
/// 1 - Jaccard of the term sets (1.0 when either is empty).
double JaccardDistance(const SimilarDoc& query, const SimilarDoc& doc);

using DocDistance = double (*)(const SimilarDoc& query, const SimilarDoc& doc);

/// The one SIMILAR order: ascending distance, ties on ascending
/// recipe_index.
bool Nearer(const SimilarRecipe& a, const SimilarRecipe& b);

/// `distance` from `query` to every candidate, in candidate order.
std::vector<SimilarRecipe> Score(DocDistance distance, const SimilarDoc& query,
                                 std::span<const SimilarDoc* const> candidates);

/// Keeps the `keep` nearest entries of `ranking`, ordered by Nearer.
void KeepNearest(std::vector<SimilarRecipe>& ranking, size_t keep);

/// The `keep` nearest candidates under KlDistance, ordered by Nearer:
/// exactly KeepNearest(Score(KlDistance, query, candidates), keep), the
/// same recipes with the same divergence bits. A log-free screen,
/// emulsion_plogp - sum_i p_i log q_i (KL itself in exact arithmetic),
/// finds the candidates that can reach the top `keep`, and KlDistance runs
/// only on those. The query and every candidate must come from Prepare.
std::vector<SimilarRecipe> NearestByKl(
    const SimilarDoc& query, std::span<const SimilarDoc* const> candidates,
    size_t keep);

/// SIMILAR's candidate records for one serving state, in two segments of
/// one layout. The base segment holds the attached corpus (recipe_index =
/// corpus document index) and is filled before the state is published; the
/// delta segment holds recipes folded in against that state since
/// (recipe_index = corpus size + arrival order) and grows under its own
/// lock while queries read it. Records never move once appended, so
/// candidate pointers stay valid for the store's lifetime.
class DocStore {
 public:
  /// `embeddings` may be empty; its storage must outlive the store.
  DocStore(int num_topics, embed::EmbeddingView embeddings);

  /// The record of raw observables: normalized emulsion row and its
  /// sum p log p, sorted-unique terms, SGNS mean and norm. Queries and
  /// stored recipes both go through here, so every distance compares like
  /// with like.
  SimilarDoc Prepare(int topic, const math::Vector& emulsion,
                     std::vector<int32_t> terms) const;

  /// Appends a corpus recipe. Only while the state is being built.
  void AppendBase(SimilarDoc doc);

  /// Appends a streamed recipe and returns nullopt, unless a record with
  /// the same nonzero ingest_sequence (0 marks recipes the model already
  /// absorbed) is resident: then nothing is appended and that record's
  /// topic is returned.
  std::optional<int> AppendDelta(uint64_t ingest_sequence, SimilarDoc doc);

  /// Topic of the resident delta record with this nonzero ingest_sequence.
  std::optional<int> DeltaTopic(uint64_t ingest_sequence) const;

  /// Every record in `topic`, base segment first. None for a topic this
  /// store's model does not have (a query placed by a model published
  /// since this state).
  std::vector<const SimilarDoc*> Candidates(int topic) const;

  size_t delta_size() const;

 private:
  struct Segment {
    std::deque<SimilarDoc> docs;
    std::vector<std::vector<const SimilarDoc*>> by_topic;

    void Append(SimilarDoc doc, size_t first_index);
  };

  const embed::EmbeddingView embeddings_;
  Segment base_;
  mutable std::mutex delta_mu_;
  Segment delta_;  // Guarded by delta_mu_.
  /// ingest_sequence -> topic of the resident delta record.
  std::unordered_map<uint64_t, int> delta_topics_;  // Guarded by delta_mu_.
};

}  // namespace texrheo::serve

#endif  // TEXRHEO_SERVE_DOC_STORE_H_
