#ifndef TEXRHEO_CORE_SERIALIZATION_H_
#define TEXRHEO_CORE_SERIALIZATION_H_

#include <string>

#include "core/joint_topic_model.h"
#include "text/vocabulary.h"
#include "util/atomic_file.h"
#include "util/status.h"

namespace texrheo::core {

/// A trained model's distributable state: the texture-term vocabulary, the
/// per-topic term distributions, and the per-topic Gaussians. Everything a
/// downstream user needs to annotate new recipes or link new measurements
/// (per-document theta is derivable and intentionally not persisted).
struct ModelSnapshot {
  text::Vocabulary vocab;
  TopicEstimates estimates;  ///< theta / doc_topic left empty.

  /// Number of topics in the snapshot.
  int num_topics() const {
    return static_cast<int>(estimates.phi.size());
  }
};

/// Builds a snapshot from a trained model's estimates and the dataset
/// vocabulary (theta and per-document fields are stripped).
ModelSnapshot MakeSnapshot(const TopicEstimates& estimates,
                           const text::Vocabulary& vocab);

/// Serializes the snapshot to a line-oriented text format:
///   texrheo-model 2
///   vocab <V>            followed by V lines: <word> <count>
///   topics <K>
///   phi k v0 v1 ... (one line per topic)
///   gel_topic k <dim> <mean...> <precision row-major...>
///   emulsion_topic k <dim> <mean...> <precision row-major...>
///   recipe_count k <n>
///   end
/// The trailing `end` sentinel (and the required final newline) make every
/// strict prefix of a serialized model detectably truncated.
std::string SerializeModel(const ModelSnapshot& snapshot);

/// Parses a snapshot produced by SerializeModel; validates dimensions and
/// positive-definiteness of the stored precisions. Errors carry the
/// 1-based line number, the byte offset of the line start (the same
/// position shape the binary model format reports), and an excerpt of the
/// offending line. Parsing is a fixed point of serialization: vocabulary
/// counts are preserved, so serialize(parse(bytes)) == bytes for any valid
/// model file. This text is the interchange format; every served model
/// reads its packed binary sibling (core/model_binary.h), which is written
/// from this round-trip.
StatusOr<ModelSnapshot> DeserializeModel(const std::string& content);

/// Convenience file wrappers. SaveModel writes atomically (temp file +
/// fsync + rename), so a crash mid-save never clobbers an existing model;
/// the FileOps overload is the fault-injection seam for tests.
Status SaveModel(const std::string& path, const ModelSnapshot& snapshot);
Status SaveModel(const std::string& path, const ModelSnapshot& snapshot,
                 FileOps& ops);
StatusOr<ModelSnapshot> LoadModel(const std::string& path);

}  // namespace texrheo::core

#endif  // TEXRHEO_CORE_SERIALIZATION_H_
