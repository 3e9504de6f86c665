#ifndef TEXRHEO_CORE_MODEL_BINARY_H_
#define TEXRHEO_CORE_MODEL_BINARY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/serialization.h"
#include "embed/embedding.h"
#include "util/atomic_file.h"
#include "util/status.h"

namespace texrheo::core {

/// Memory-mapped indexed model format (the `.dat`/`.idx` pairing).
///
/// A packed model is two sibling files sharing a base name:
///
///   <base>.dat - flat data file: an 8-byte magic followed by fixed-offset,
///                64-byte-aligned sections (phi topic-term table, per-topic
///                Gaussian parameters in SoA layout, Table-I linkage data,
///                vocabulary string pool).
///   <base>.idx - small index: versioned magic, model header (K, V, dims,
///                content fingerprint), a section table (id, offset, size,
///                count, per-section CRC32 over the .dat bytes), and a
///                trailing CRC32 over the index itself.
///
/// The writer emits `.dat` first and `.idx` last (both via AtomicWriteFile),
/// so a valid index implies valid data: any crash mid-pack leaves either the
/// old pair or a dangling `.dat` that no index points at. The reader mmaps
/// `.dat` read-only and serves phi rows and Gaussian blocks as spans over
/// the mapping - load cost is O(pages touched + one CRC pass), not a parse,
/// and N serving processes on one box share the page cache. A model built
/// in memory is packed into the same image by the same writer
/// (PackModelBinary) and served through the same view, so every served
/// model reads one layout.
///
/// Like the checkpoint format, doubles travel as raw native-endian bit
/// patterns: this is a single-machine serving artifact, not an interchange
/// format. Pack canonicalizes through the v2 text round-trip first, so a
/// binary model is bit-identical to "save v2 then load v2" of the same
/// model, and the stored fingerprint equals the v2 load path's fingerprint.

inline constexpr uint32_t kModelBinaryVersion = 1;

/// Section ids, in canonical file order. Sections 1-9 are mandatory and
/// appear exactly once. Sections 10-11 are an optional trailing pair (both
/// present or both absent): packs written before the embedding subsystem
/// carry nine sections and stay fully servable, and a nine-section reader
/// rejects eleven-section packs by count rather than misreading them.
enum class ModelSection : uint32_t {
  kPhi = 1,                ///< K*V doubles, row-major (topic-major SoA).
  kGelMean = 2,            ///< K*Dg doubles.
  kGelPrecision = 3,       ///< K*Dg*Dg doubles, row-major per topic.
  kEmulsionMean = 4,       ///< K*De doubles.
  kEmulsionPrecision = 5,  ///< K*De*De doubles, row-major per topic.
  kRecipeCount = 6,        ///< K int64 (Table-I linkage prior weights).
  kVocabOffsets = 7,       ///< V+1 uint64: string-pool offsets, offs[V]=pool size.
  kVocabCounts = 8,        ///< V int64 occurrence counts.
  kVocabPool = 9,          ///< Concatenated word bytes (count == byte size).
  kEmbedding = 10,         ///< V*dim floats, row-major by vocab id (optional).
  kEmbeddingNorms = 11,    ///< V floats: cached L2 norms (optional).
};
inline constexpr size_t kModelSectionCount = 9;
inline constexpr size_t kModelSectionCountWithEmbeddings = 11;

/// Human-readable name of a section id ("phi", "vocab_pool", ...).
const char* ModelSectionName(ModelSection id);

/// One row of the `.idx` section table.
struct ModelSectionEntry {
  uint32_t id = 0;
  uint64_t offset = 0;  ///< Absolute byte offset in the `.dat` file.
  uint64_t size = 0;    ///< Byte length.
  uint64_t count = 0;   ///< Element count (bytes for kVocabPool).
  uint32_t crc32 = 0;   ///< CRC32 over exactly `size` bytes at `offset`.
};

/// Decoded `.idx` contents. Exposed (with Encode/Parse below) so the
/// format-torture tests and fuzzers can mutate individual fields and
/// re-emit an index whose trailing CRC is valid, reaching the deep
/// section-table validators instead of bouncing off the checksum.
struct ModelBinaryIndex {
  uint32_t version = kModelBinaryVersion;
  uint32_t num_topics = 0;
  uint64_t vocab_size = 0;
  uint32_t gel_dim = 0;
  uint32_t emulsion_dim = 0;
  uint32_t fingerprint = 0;     ///< CRC32 of the canonical v2 serialization.
  uint64_t data_file_size = 0;  ///< Exact `.dat` byte length.
  std::vector<ModelSectionEntry> sections;
};

/// Serializes an index to the on-disk `.idx` byte layout (magic through
/// trailing CRC). Always produces a well-framed file; the *fields* may
/// still be structurally invalid - that is what ValidateModelBinaryIndex
/// rejects on read.
std::string EncodeModelBinaryIndex(const ModelBinaryIndex& index);

/// Parses `.idx` bytes: magic, version, frame shape, and the trailing CRC.
/// Errors carry the byte offset of the offending field.
StatusOr<ModelBinaryIndex> ParseModelBinaryIndex(std::string_view bytes);

/// Structural validation of a parsed index against the format rules:
/// sane header bounds, every mandatory section present exactly once with
/// the count implied by the header, 64-byte-aligned in-bounds offsets, and
/// no overlapping sections. Rejection messages name the section.
Status ValidateModelBinaryIndex(const ModelBinaryIndex& index);

/// Sibling paths of a packed model. `base_or_idx` may be the bare base
/// ("dir/model"), the `.idx` path, or the `.dat` path.
struct ModelBinaryPaths {
  std::string dat;
  std::string idx;
};
ModelBinaryPaths ModelBinaryPathsFor(const std::string& base_or_idx);

/// A model-binary image in memory: the index and the `.dat` bytes, exactly
/// what WriteModelBinary puts on disk.
struct PackedModel {
  ModelBinaryIndex index;
  std::string dat;
};

/// Packs `snapshot` into its model-binary image. The model is first
/// canonicalized through the v2 text round-trip (serialize + reparse), so
/// the packed doubles are bit-identical to what LoadModel of the v2 file
/// would produce and the stored fingerprint matches the v2 load path.
///
/// A non-null, non-empty `embeddings` table is appended as the optional
/// trailing section pair; its vocabulary size must match the model's. The
/// fingerprint deliberately stays the CRC of the v2 *text* serialization
/// (which has no embedding representation): it identifies the topic model,
/// and a pack with and without embeddings of the same model are the same
/// model to fingerprint-keyed machinery (reload checks, router
/// convergence).
StatusOr<PackedModel> PackModelBinary(
    const ModelSnapshot& snapshot,
    const embed::EmbeddingTable* embeddings = nullptr);

/// Writes PackModelBinary's image to `<base>.dat` + `<base>.idx`. Both
/// files are written atomically, `.idx` last.
Status WriteModelBinary(const ModelSnapshot& snapshot,
                        const std::string& base_or_idx,
                        FileOps& ops = FileOps::Real(),
                        const embed::EmbeddingTable* embeddings = nullptr);

/// Converts a v2 text model file into the binary pair (LoadModel +
/// WriteModelBinary), optionally attaching an embedding table.
Status ConvertModelFileToBinary(const std::string& v2_path,
                                const std::string& base_or_idx,
                                FileOps& ops = FileOps::Real(),
                                const embed::EmbeddingTable* embeddings =
                                    nullptr);

/// A read-only byte range returned by MemoryMapOps::Map.
struct MappedRegion {
  const uint8_t* data = nullptr;
  size_t size = 0;
};

/// Seam over mmap/munmap, mirroring FileOps: production uses Real()
/// (open + fstat + mmap(PROT_READ, MAP_SHARED)), tests subclass it to
/// fail maps, serve from aligned heap buffers, and observe exactly when
/// a region is unmapped relative to in-flight readers.
class MemoryMapOps {
 public:
  virtual ~MemoryMapOps() = default;

  /// Maps the whole of `path` read-only.
  virtual StatusOr<MappedRegion> Map(const std::string& path);
  /// Releases a region previously returned by Map on this instance.
  virtual void Unmap(MappedRegion region);

  /// Shared pass-through instance backed by the real mmap.
  static MemoryMapOps& Real();
};

/// RAII view over a fully verified model-binary image: a read-only mapping
/// of a `.dat`/`.idx` pair (Open) or an image packed in memory
/// (FromPacked).
///
/// Both factories validate everything up front - index frame + CRC (Open
/// only: a packed index never left memory), section table, data size,
/// per-section CRC32 over the image bytes, and vocabulary pool structure -
/// so accessors can be unchecked span math. A truncated, bit-flipped,
/// swapped, or hostile image is rejected with a clean Status naming the
/// failing section; no partially-valid MappedModel ever exists.
///
/// The model owns its bytes: a mapping is released in the destructor, a
/// packed image with the object, so holders (ServingSnapshot, and
/// transitively every in-flight query) keep them alive via shared_ptr
/// until the last reference drops.
class MappedModel {
 public:
  static StatusOr<std::shared_ptr<const MappedModel>> Open(
      const std::string& base_or_idx,
      MemoryMapOps& ops = MemoryMapOps::Real());
  /// Takes ownership of an image from PackModelBinary and runs the checks
  /// Open runs on a mapping.
  static StatusOr<std::shared_ptr<const MappedModel>> FromPacked(
      PackedModel packed);

  ~MappedModel();
  MappedModel(const MappedModel&) = delete;
  MappedModel& operator=(const MappedModel&) = delete;

  int num_topics() const { return static_cast<int>(index_.num_topics); }
  size_t vocab_size() const { return static_cast<size_t>(index_.vocab_size); }
  size_t gel_dim() const { return index_.gel_dim; }
  size_t emulsion_dim() const { return index_.emulsion_dim; }
  /// Fingerprint recorded at pack time: CRC32 of the canonical v2 text
  /// serialization, equal to what the v2 load path computes.
  uint32_t fingerprint() const { return index_.fingerprint; }
  /// Bytes of the `.dat` image, mapped or packed.
  size_t mapped_bytes() const { return region_.size; }
  /// The `.idx` path Open was given; empty for a packed image.
  const std::string& idx_path() const { return idx_path_; }

  /// P(term v | topic k) row, served directly from the image.
  std::span<const double> phi_row(int k) const {
    return {phi_ + static_cast<size_t>(k) * vocab_size(), vocab_size()};
  }
  std::span<const double> gel_mean(int k) const {
    return {gel_mean_ + static_cast<size_t>(k) * gel_dim(), gel_dim()};
  }
  /// Row-major Dg*Dg precision block.
  std::span<const double> gel_precision(int k) const {
    size_t n = gel_dim() * gel_dim();
    return {gel_prec_ + static_cast<size_t>(k) * n, n};
  }
  std::span<const double> emulsion_mean(int k) const {
    return {emulsion_mean_ + static_cast<size_t>(k) * emulsion_dim(),
            emulsion_dim()};
  }
  std::span<const double> emulsion_precision(int k) const {
    size_t n = emulsion_dim() * emulsion_dim();
    return {emulsion_prec_ + static_cast<size_t>(k) * n, n};
  }
  std::span<const int64_t> recipe_counts() const {
    return {recipe_counts_, static_cast<size_t>(num_topics())};
  }
  std::string_view word(size_t v) const {
    return {pool_ + vocab_offsets_[v],
            static_cast<size_t>(vocab_offsets_[v + 1] - vocab_offsets_[v])};
  }
  int64_t word_count(size_t v) const { return vocab_counts_[v]; }

  /// True when the pack carries the optional embedding section pair.
  bool has_embeddings() const { return embedding_ != nullptr; }
  size_t embedding_dim() const { return embedding_dim_; }
  /// Whole V*dim matrix / V norms, served directly from the image; both
  /// empty on a legacy nine-section pack.
  std::span<const float> embedding_matrix() const {
    return embedding_ == nullptr
               ? std::span<const float>{}
               : std::span<const float>{embedding_,
                                        vocab_size() * embedding_dim_};
  }
  std::span<const float> embedding_norms() const {
    return embedding_norms_ == nullptr
               ? std::span<const float>{}
               : std::span<const float>{embedding_norms_, vocab_size()};
  }
  /// Zero-copy view usable wherever a heap table's view is (empty view on a
  /// legacy pack). Valid only while this MappedModel is alive.
  embed::EmbeddingView embedding_view() const {
    if (!has_embeddings()) return embed::EmbeddingView{};
    return embed::EmbeddingView{vocab_size(), embedding_dim_,
                                embedding_matrix(), embedding_norms()};
  }

 private:
  /// A file mapping when `ops` is set; otherwise the bytes are `image`.
  MappedModel(ModelBinaryIndex index, std::string idx_path,
              MappedRegion region, MemoryMapOps* ops, std::string image);

  ModelBinaryIndex index_;
  std::string idx_path_;
  // A packed image lives in one heap block from operator new, which aligns
  // it to __STDCPP_DEFAULT_NEW_ALIGNMENT__ (at least 8, asserted in the
  // .cc); every image outgrows the small-string buffer, since its header
  // alone is 64 bytes. So the 64-byte section offsets keep every double
  // and int64 block 8-byte aligned, as they do in a page-aligned mapping.
  // Declared before region_, which points into it.
  std::string image_;
  MappedRegion region_;
  MemoryMapOps* ops_;  ///< Null for a packed image: nothing to unmap.
  // Typed section bases into region_, resolved once at construction.
  const double* phi_ = nullptr;
  const double* gel_mean_ = nullptr;
  const double* gel_prec_ = nullptr;
  const double* emulsion_mean_ = nullptr;
  const double* emulsion_prec_ = nullptr;
  const int64_t* recipe_counts_ = nullptr;
  const uint64_t* vocab_offsets_ = nullptr;
  const int64_t* vocab_counts_ = nullptr;
  const char* pool_ = nullptr;
  const float* embedding_ = nullptr;        ///< Null on legacy packs.
  const float* embedding_norms_ = nullptr;  ///< Null on legacy packs.
  size_t embedding_dim_ = 0;
};

/// Deep-copies the embedding sections of a mapped pack into a heap table
/// (empty table when the pack has none). Used by `texrheo_modelpack unpack`
/// to round-trip the sections byte-for-byte into the sidecar format.
embed::EmbeddingTable CopyEmbeddingTable(const MappedModel& mapped);

/// Decodes the per-topic Gaussians (which need a Cholesky for LogPdf) and
/// the recipe counts of a verified image; phi is left empty, since it is
/// served from the image by MappedModel::phi_row.
StatusOr<TopicEstimates> MappedTopicEstimates(const MappedModel& mapped);

/// Fully decodes a binary pair back into a heap ModelSnapshot (the inverse
/// of WriteModelBinary; used by `texrheo_modelpack unpack` and by
/// equivalence tests). Serving should prefer MappedModel - this copies.
StatusOr<ModelSnapshot> ReadModelBinary(
    const std::string& base_or_idx, MemoryMapOps& ops = MemoryMapOps::Real());

}  // namespace texrheo::core

#endif  // TEXRHEO_CORE_MODEL_BINARY_H_
