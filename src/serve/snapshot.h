#ifndef TEXRHEO_SERVE_SNAPSHOT_H_
#define TEXRHEO_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/model_binary.h"
#include "core/serialization.h"
#include "embed/embedding.h"
#include "math/linalg.h"
#include "text/texture_dictionary.h"
#include "util/rng.h"
#include "util/status.h"

namespace texrheo::serve {

/// Probability mass a topic's term distribution puts on each pole of the
/// three TPA axes (hardness, cohesiveness, adhesiveness). `other` absorbs
/// vocabulary words absent from the texture dictionary.
struct CategoryMasses {
  double hard = 0.0;
  double soft = 0.0;
  double elastic = 0.0;
  double crumbly = 0.0;
  double sticky = 0.0;
  double dry = 0.0;
  double other = 0.0;
};

/// Pre-aggregated term view of one topic, derived once at snapshot build
/// time so per-query work never touches the raw phi matrix for reporting.
struct TopicTermSummary {
  CategoryMasses masses;
  /// Top terms by phi, descending: (surface form, probability).
  std::vector<std::pair<std::string, double>> top_terms;
};

/// An immutable, self-contained trained model prepared for serving.
///
/// ServingSnapshot is the unit the query engine swaps on hot reload: it is
/// built fully before it becomes visible, never mutated afterwards, and
/// handed out as shared_ptr<const ServingSnapshot> so an in-flight query
/// keeps its model alive across any number of reloads. Every accessor is
/// therefore safe from any thread by construction.
///
/// Every snapshot serves from one verified model-binary image (see
/// core/model_binary.h), held as a shared_ptr<const core::MappedModel>:
/// FromBinaryFile maps a `.dat`/`.idx` pair, and FromModel packs an
/// in-memory model with the same writer WriteModelBinary uses. phi rows,
/// the vocabulary and the embeddings are spans into the image; only the
/// per-topic Gaussians and the word index are built at load. The image,
/// and a mapping with it, lives until the last snapshot and in-flight
/// query holding it drops its reference.
class ServingSnapshot {
 public:
  /// Packs `model` (canonicalized through the v2 text round-trip, exactly
  /// as SaveModel + LoadModel would leave it) and serves the image, so a
  /// model serves the same bits whether passed here or saved and loaded.
  /// Fails where the pack or the image checks fail: shape mismatches,
  /// vocabulary words the v2 format cannot hold (whitespace or control
  /// bytes, over 4,096 bytes), non-finite or negative phi. A non-empty
  /// `embeddings` table (vocabulary-aligned with the model) enables the
  /// embed/fused SIMILAR backends; it does not enter the fingerprint, which
  /// identifies the topic model alone (see WriteModelBinary).
  static StatusOr<std::shared_ptr<const ServingSnapshot>> FromModel(
      const core::ModelSnapshot& model, std::string source,
      const embed::EmbeddingTable& embeddings = {});

  /// Loads a text-format (v2) model file.
  static StatusOr<std::shared_ptr<const ServingSnapshot>> FromModelFile(
      const std::string& path);

  /// Maps a packed binary model pair (see core/model_binary.h). `path` may
  /// be the `.idx`, the `.dat`, or the bare base path. The fingerprint is
  /// read from the verified index header rather than recomputed, so load
  /// cost is the mmap, one CRC pass, and the per-topic summaries.
  static StatusOr<std::shared_ptr<const ServingSnapshot>> FromBinaryFile(
      const std::string& path,
      core::MemoryMapOps& ops = core::MemoryMapOps::Real());

  /// Dispatches on the file name: `.idx`/`.dat` go to FromBinaryFile,
  /// anything else to FromModelFile. What RELOAD and --model accept.
  static StatusOr<std::shared_ptr<const ServingSnapshot>> FromFile(
      const std::string& path);

  int num_topics() const { return model_->num_topics(); }
  size_t vocab_size() const { return model_->vocab_size(); }
  /// CRC32 of the canonical serialized model text: two snapshots with the
  /// same fingerprint serve identical answers.
  uint32_t fingerprint() const { return model_->fingerprint(); }
  /// Where the snapshot came from (path or label), for /statsz.
  const std::string& source() const { return source_; }
  /// Bytes of the model image, mapped or packed.
  size_t mapped_bytes() const { return model_->mapped_bytes(); }

  /// P(term v | topic k): a view into the image.
  std::span<const double> phi(int k) const { return model_->phi_row(k); }
  /// True when the image carries the embedding section pair, so the
  /// snapshot can serve embedding-backed similarity.
  bool has_embeddings() const { return model_->has_embeddings(); }
  /// Zero-copy span view of the embedding sections; empty view when
  /// has_embeddings() is false. Valid while the snapshot lives — exactly
  /// the lifetime every in-flight query already holds.
  embed::EmbeddingView embedding_view() const {
    return model_->embedding_view();
  }

  /// Surface form of a vocabulary id.
  std::string_view word(size_t v) const { return model_->word(v); }
  /// Id of `term`, or text::Vocabulary::kUnknownId.
  int32_t WordId(std::string_view term) const;
  /// Per-topic Gaussians and Table-I linkage counts, materialized once at
  /// load (they need a Cholesky for LogPdf anyway). `phi` inside is
  /// intentionally empty - use phi(k).
  const core::TopicEstimates& estimates() const { return estimates_; }

  const TopicTermSummary& term_summary(int k) const {
    return summaries_[static_cast<size_t>(k)];
  }

  /// Eq.-5 fold-in against the snapshot's *point estimates*: phi replaces
  /// the training count ratios and the stored per-topic gel Gaussian
  /// replaces the instantiated eq.-4 sample. Gibbs-samples the query's own
  /// z / y for `sweeps` and returns the theta estimate. Const and
  /// re-entrant: the caller supplies the RNG, all scratch is local.
  StatusOr<std::vector<double>> FoldInTheta(
      const std::vector<int32_t>& term_ids, const math::Vector& gel_feature,
      int sweeps, double alpha, Rng& rng) const;

  /// Most likely topic for a gel feature vector alone, prior-weighted by
  /// the per-topic training recipe counts (the serving analogue of
  /// JointTopicModel::InferTopicForFeatures).
  int InferTopicForFeatures(const math::Vector& gel_feature) const;

 private:
  ServingSnapshot() = default;

  /// Shared tail of every factory: decode the Gaussians, index the words,
  /// check phi's values, and derive the per-topic summaries.
  static StatusOr<std::shared_ptr<const ServingSnapshot>> FromImage(
      std::shared_ptr<const core::MappedModel> model, std::string source);
  void BuildSummaries(const text::TextureDictionary& dict, int top_terms);

  std::string source_;
  std::shared_ptr<const core::MappedModel> model_;
  core::TopicEstimates estimates_;  ///< phi left empty; see estimates().
  /// Word -> id over string_views into the image's pool.
  std::unordered_map<std::string_view, int32_t> word_index_;
  std::vector<TopicTermSummary> summaries_;
};

}  // namespace texrheo::serve

#endif  // TEXRHEO_SERVE_SNAPSHOT_H_
