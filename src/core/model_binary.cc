#include "core/model_binary.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

#include "util/crc32.h"
#include "util/csv.h"

namespace texrheo::core {
namespace {

// Eight-byte magics: a swapped or mislabelled file is caught before any
// field is interpreted. The trailing '1' is the major layout revision.
constexpr char kIdxMagic[8] = {'t', 'e', 'x', 'r', 'm', 'b', 'i', '1'};
constexpr char kDatMagic[8] = {'t', 'e', 'x', 'r', 'm', 'b', 'd', '1'};

// Every section starts on a 64-byte boundary: cache-line friendly, and
// (more importantly) it guarantees 8-byte alignment for the double/int64
// SoA blocks no matter where the mapping lands.
constexpr size_t kSectionAlignment = 64;
constexpr size_t kDatHeaderBytes = kSectionAlignment;  // magic + padding.

// Fixed .idx frame: header then section_count 32-byte entries then a CRC.
constexpr size_t kIdxHeaderBytes = 48;
constexpr size_t kIdxEntryBytes = 32;
constexpr size_t kMaxSectionCount = 64;  // Parse-time cap, pre-validation.

// Structural bounds. Far above anything this system trains, far below
// anything that could overflow the offset arithmetic (K*V*8 < 2^54).
constexpr uint64_t kMaxTopics = 1u << 20;
constexpr uint64_t kMaxVocab = 1ull << 31;
constexpr uint64_t kMaxDim = 1024;
constexpr size_t kMaxWordBytes = 4096;

template <typename T>
void Put(std::string& out, T value) {
  const char* bytes = reinterpret_cast<const char*>(&value);
  out.append(bytes, sizeof(T));
}

template <typename T>
T TakeAt(std::string_view data, size_t offset) {
  T value;
  std::memcpy(&value, data.data() + offset, sizeof(T));
  return value;
}

Status IndexError(size_t byte_offset, std::string what) {
  return Status::InvalidArgument("model binary index @ byte " +
                                 std::to_string(byte_offset) + ": " +
                                 std::move(what));
}

Status SectionError(ModelSection id, std::string what) {
  return Status::InvalidArgument(std::string("model binary: section '") +
                                 ModelSectionName(id) + "': " +
                                 std::move(what));
}

/// Canonical section order and the element width of each.
struct SectionSpec {
  ModelSection id;
  size_t elem_bytes;
};
constexpr SectionSpec kSectionSpecs[kModelSectionCountWithEmbeddings] = {
    {ModelSection::kPhi, sizeof(double)},
    {ModelSection::kGelMean, sizeof(double)},
    {ModelSection::kGelPrecision, sizeof(double)},
    {ModelSection::kEmulsionMean, sizeof(double)},
    {ModelSection::kEmulsionPrecision, sizeof(double)},
    {ModelSection::kRecipeCount, sizeof(int64_t)},
    {ModelSection::kVocabOffsets, sizeof(uint64_t)},
    {ModelSection::kVocabCounts, sizeof(int64_t)},
    {ModelSection::kVocabPool, 1},
    {ModelSection::kEmbedding, sizeof(float)},
    {ModelSection::kEmbeddingNorms, sizeof(float)},
};

/// Element count each section must carry, derived from the header.
uint64_t ExpectedCount(const ModelBinaryIndex& index, ModelSection id) {
  uint64_t k = index.num_topics;
  uint64_t v = index.vocab_size;
  uint64_t dg = index.gel_dim;
  uint64_t de = index.emulsion_dim;
  switch (id) {
    case ModelSection::kPhi: return k * v;
    case ModelSection::kGelMean: return k * dg;
    case ModelSection::kGelPrecision: return k * dg * dg;
    case ModelSection::kEmulsionMean: return k * de;
    case ModelSection::kEmulsionPrecision: return k * de * de;
    case ModelSection::kRecipeCount: return k;
    case ModelSection::kVocabOffsets: return v + 1;
    case ModelSection::kVocabCounts: return v;
    case ModelSection::kVocabPool: return 0;  // Free-length; checked apart.
    case ModelSection::kEmbedding: return 0;  // V*dim; dim checked apart.
    case ModelSection::kEmbeddingNorms: return v;
  }
  return 0;
}

/// True for the two sections whose counts are not a pure function of the
/// header and get dedicated validation below.
bool FreeLengthSection(ModelSection id) {
  return id == ModelSection::kVocabPool || id == ModelSection::kEmbedding;
}

bool EndsWith(const std::string& s, const char* suffix) {
  size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace

const char* ModelSectionName(ModelSection id) {
  switch (id) {
    case ModelSection::kPhi: return "phi";
    case ModelSection::kGelMean: return "gel_mean";
    case ModelSection::kGelPrecision: return "gel_precision";
    case ModelSection::kEmulsionMean: return "emulsion_mean";
    case ModelSection::kEmulsionPrecision: return "emulsion_precision";
    case ModelSection::kRecipeCount: return "recipe_count";
    case ModelSection::kVocabOffsets: return "vocab_offsets";
    case ModelSection::kVocabCounts: return "vocab_counts";
    case ModelSection::kVocabPool: return "vocab_pool";
    case ModelSection::kEmbedding: return "embedding";
    case ModelSection::kEmbeddingNorms: return "embedding_norms";
  }
  return "unknown";
}

ModelBinaryPaths ModelBinaryPathsFor(const std::string& base_or_idx) {
  std::string base = base_or_idx;
  if (EndsWith(base, ".idx") || EndsWith(base, ".dat")) {
    base.resize(base.size() - 4);
  }
  return ModelBinaryPaths{base + ".dat", base + ".idx"};
}

std::string EncodeModelBinaryIndex(const ModelBinaryIndex& index) {
  std::string out;
  out.append(kIdxMagic, sizeof(kIdxMagic));
  Put<uint32_t>(out, index.version);
  Put<uint32_t>(out, index.num_topics);
  Put<uint64_t>(out, index.vocab_size);
  Put<uint32_t>(out, index.gel_dim);
  Put<uint32_t>(out, index.emulsion_dim);
  Put<uint32_t>(out, index.fingerprint);
  Put<uint32_t>(out, static_cast<uint32_t>(index.sections.size()));
  Put<uint64_t>(out, index.data_file_size);
  for (const ModelSectionEntry& entry : index.sections) {
    Put<uint32_t>(out, entry.id);
    Put<uint32_t>(out, entry.crc32);
    Put<uint64_t>(out, entry.offset);
    Put<uint64_t>(out, entry.size);
    Put<uint64_t>(out, entry.count);
  }
  Put<uint32_t>(out, Crc32(out));
  return out;
}

StatusOr<ModelBinaryIndex> ParseModelBinaryIndex(std::string_view bytes) {
  if (bytes.size() < kIdxHeaderBytes + sizeof(uint32_t)) {
    return IndexError(bytes.size(), "truncated index (header incomplete)");
  }
  if (std::memcmp(bytes.data(), kIdxMagic, sizeof(kIdxMagic)) != 0) {
    return IndexError(0, "bad magic: not a texrheo binary model index");
  }
  ModelBinaryIndex index;
  index.version = TakeAt<uint32_t>(bytes, 8);
  if (index.version != kModelBinaryVersion) {
    return IndexError(8, "unsupported format version " +
                             std::to_string(index.version) + " (expected " +
                             std::to_string(kModelBinaryVersion) + ")");
  }
  index.num_topics = TakeAt<uint32_t>(bytes, 12);
  index.vocab_size = TakeAt<uint64_t>(bytes, 16);
  index.gel_dim = TakeAt<uint32_t>(bytes, 24);
  index.emulsion_dim = TakeAt<uint32_t>(bytes, 28);
  index.fingerprint = TakeAt<uint32_t>(bytes, 32);
  uint32_t section_count = TakeAt<uint32_t>(bytes, 36);
  index.data_file_size = TakeAt<uint64_t>(bytes, 40);
  if (section_count > kMaxSectionCount) {
    return IndexError(36, "implausible section count " +
                              std::to_string(section_count));
  }
  size_t expected_size =
      kIdxHeaderBytes + section_count * kIdxEntryBytes + sizeof(uint32_t);
  if (bytes.size() != expected_size) {
    return IndexError(bytes.size(),
                      "index size " + std::to_string(bytes.size()) +
                          " does not match section count (expected " +
                          std::to_string(expected_size) + " bytes)");
  }
  // Trailing CRC over everything before it: a torn or bit-flipped index is
  // rejected before any field below is trusted.
  uint32_t stored_crc = TakeAt<uint32_t>(bytes, bytes.size() - 4);
  uint32_t actual_crc = Crc32(bytes.data(), bytes.size() - 4);
  if (stored_crc != actual_crc) {
    return IndexError(bytes.size() - 4, "index checksum mismatch");
  }
  index.sections.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    size_t at = kIdxHeaderBytes + i * kIdxEntryBytes;
    ModelSectionEntry entry;
    entry.id = TakeAt<uint32_t>(bytes, at);
    entry.crc32 = TakeAt<uint32_t>(bytes, at + 4);
    entry.offset = TakeAt<uint64_t>(bytes, at + 8);
    entry.size = TakeAt<uint64_t>(bytes, at + 16);
    entry.count = TakeAt<uint64_t>(bytes, at + 24);
    index.sections.push_back(entry);
  }
  return index;
}

Status ValidateModelBinaryIndex(const ModelBinaryIndex& index) {
  if (index.num_topics < 1 || index.num_topics > kMaxTopics) {
    return Status::InvalidArgument(
        "model binary: topic count out of range: " +
        std::to_string(index.num_topics));
  }
  if (index.vocab_size > kMaxVocab) {
    return Status::InvalidArgument("model binary: implausible vocab size " +
                                   std::to_string(index.vocab_size));
  }
  if (index.gel_dim < 1 || index.gel_dim > kMaxDim ||
      index.emulsion_dim < 1 || index.emulsion_dim > kMaxDim) {
    return Status::InvalidArgument(
        "model binary: gaussian dimension out of range");
  }
  if (index.data_file_size < kDatHeaderBytes) {
    return Status::InvalidArgument(
        "model binary: data file size smaller than its header");
  }
  // Nine sections is a legacy (pre-embedding) pack; eleven carries the
  // optional trailing embedding pair. Nothing in between.
  if (index.sections.size() != kModelSectionCount &&
      index.sections.size() != kModelSectionCountWithEmbeddings) {
    return Status::InvalidArgument(
        "model binary: expected " + std::to_string(kModelSectionCount) +
        " or " + std::to_string(kModelSectionCountWithEmbeddings) +
        " sections, index lists " + std::to_string(index.sections.size()));
  }
  uint64_t previous_end = kDatHeaderBytes;
  for (size_t i = 0; i < index.sections.size(); ++i) {
    const SectionSpec& spec = kSectionSpecs[i];
    const ModelSectionEntry& entry = index.sections[i];
    ModelSection id = spec.id;
    if (entry.id != static_cast<uint32_t>(id)) {
      return Status::InvalidArgument(
          "model binary: section table out of canonical order (slot " +
          std::to_string(i) + " holds id " + std::to_string(entry.id) +
          ", expected '" + ModelSectionName(id) + "')");
    }
    if (!FreeLengthSection(id) && entry.count != ExpectedCount(index, id)) {
      return SectionError(
          id, "element count " + std::to_string(entry.count) +
                  " disagrees with header (expected " +
                  std::to_string(ExpectedCount(index, id)) + ")");
    }
    if (entry.size != entry.count * spec.elem_bytes) {
      return SectionError(id, "byte size " + std::to_string(entry.size) +
                                  " != count * " +
                                  std::to_string(spec.elem_bytes));
    }
    if (entry.offset % kSectionAlignment != 0) {
      return SectionError(id, "misaligned offset " +
                                  std::to_string(entry.offset) +
                                  " (sections are 64-byte aligned)");
    }
    if (entry.offset < previous_end) {
      return SectionError(id, "offset " + std::to_string(entry.offset) +
                                  " overlaps the previous section");
    }
    if (entry.offset > index.data_file_size ||
        entry.size > index.data_file_size - entry.offset) {
      return SectionError(id, "extends past the end of the data file");
    }
    previous_end = entry.offset + entry.size;
  }
  if (index.sections.size() == kModelSectionCountWithEmbeddings) {
    if (index.vocab_size == 0) {
      return SectionError(ModelSection::kEmbedding,
                          "embedding sections require a vocabulary");
    }
    const ModelSectionEntry& matrix = index.sections[9];
    if (matrix.count == 0 || matrix.count % index.vocab_size != 0) {
      return SectionError(
          ModelSection::kEmbedding,
          "element count " + std::to_string(matrix.count) +
              " is not a positive multiple of the vocabulary size");
    }
    uint64_t dim = matrix.count / index.vocab_size;
    if (dim > kMaxDim) {
      return SectionError(ModelSection::kEmbedding,
                          "implied dimension " + std::to_string(dim) +
                              " out of range");
    }
  }
  return Status::OK();
}

StatusOr<PackedModel> PackModelBinary(
    const ModelSnapshot& snapshot, const embed::EmbeddingTable* embeddings) {
  // Canonicalize through the v2 text round-trip: the packed doubles are
  // exactly what LoadModel of the v2 file would produce, so a binary model
  // and its v2 twin serve bit-identical answers, and the fingerprint below
  // is the one the v2 load path computes.
  std::string canonical = SerializeModel(snapshot);
  uint32_t fingerprint = Crc32(canonical);
  StatusOr<ModelSnapshot> canon = DeserializeModel(canonical);
  if (!canon.ok()) {
    return Status::InvalidArgument(
        "model binary: snapshot failed canonical v2 round-trip: " +
        canon.status().message());
  }
  const ModelSnapshot& model = *canon;
  const TopicEstimates& est = model.estimates;
  size_t k_count = est.phi.size();
  size_t v_count = model.vocab.size();
  if (k_count == 0) {
    return Status::InvalidArgument("model binary: model has no topics");
  }
  // The reader's limits (ValidateModelBinaryIndex): an image beyond them
  // would be written but never open.
  if (k_count > kMaxTopics) {
    return Status::InvalidArgument("model binary: topic count out of range: " +
                                   std::to_string(k_count));
  }
  if (v_count > kMaxVocab) {
    return Status::InvalidArgument("model binary: implausible vocab size " +
                                   std::to_string(v_count));
  }
  size_t gel_dim = est.gel_topics.front().dim();
  size_t emulsion_dim = est.emulsion_topics.front().dim();
  if (gel_dim == 0 || emulsion_dim == 0 || gel_dim > kMaxDim ||
      emulsion_dim > kMaxDim) {
    return Status::InvalidArgument(
        "model binary: gaussian dimension out of range");
  }
  for (size_t k = 0; k < k_count; ++k) {
    if (est.gel_topics[k].dim() != gel_dim ||
        est.emulsion_topics[k].dim() != emulsion_dim) {
      return Status::InvalidArgument(
          "model binary: per-topic gaussian dimensions are not uniform");
    }
  }

  // Flatten every section into its SoA buffer.
  std::vector<double> phi;
  phi.reserve(k_count * v_count);
  for (const auto& row : est.phi) phi.insert(phi.end(), row.begin(), row.end());
  std::vector<double> gel_means, gel_precs, emu_means, emu_precs;
  gel_means.reserve(k_count * gel_dim);
  gel_precs.reserve(k_count * gel_dim * gel_dim);
  emu_means.reserve(k_count * emulsion_dim);
  emu_precs.reserve(k_count * emulsion_dim * emulsion_dim);
  auto flatten = [](const math::Gaussian& g, std::vector<double>& means,
                    std::vector<double>& precs) {
    for (size_t i = 0; i < g.dim(); ++i) means.push_back(g.mean()[i]);
    for (size_t r = 0; r < g.dim(); ++r) {
      for (size_t c = 0; c < g.dim(); ++c) {
        precs.push_back(g.precision()(r, c));
      }
    }
  };
  for (size_t k = 0; k < k_count; ++k) {
    flatten(est.gel_topics[k], gel_means, gel_precs);
    flatten(est.emulsion_topics[k], emu_means, emu_precs);
  }
  std::vector<int64_t> recipe_counts(k_count, 0);
  for (size_t k = 0; k < est.topic_recipe_count.size() && k < k_count; ++k) {
    recipe_counts[k] = est.topic_recipe_count[k];
  }
  std::string pool;
  std::vector<uint64_t> offsets;
  std::vector<int64_t> word_counts;
  // In this order: reserving `offsets` first makes GCC 12's TSan build
  // report a false -Walloc-size-larger-than on `word_counts`.
  word_counts.reserve(v_count);
  offsets.reserve(v_count + 1);
  for (size_t v = 0; v < v_count; ++v) {
    const std::string& word = model.vocab.WordOf(static_cast<int32_t>(v));
    if (word.empty() || word.size() > kMaxWordBytes) {
      return Status::InvalidArgument(
          "model binary: vocabulary word length out of range");
    }
    offsets.push_back(pool.size());
    pool += word;
    word_counts.push_back(model.vocab.CountOf(static_cast<int32_t>(v)));
  }
  offsets.push_back(pool.size());

  // Assemble the .dat image and the section table in one pass.
  PackedModel packed;
  ModelBinaryIndex& index = packed.index;
  index.num_topics = static_cast<uint32_t>(k_count);
  index.vocab_size = v_count;
  index.gel_dim = static_cast<uint32_t>(gel_dim);
  index.emulsion_dim = static_cast<uint32_t>(emulsion_dim);
  index.fingerprint = fingerprint;
  std::string& dat = packed.dat;
  dat.append(kDatMagic, sizeof(kDatMagic));
  auto add_section = [&dat, &index](ModelSection id, const void* data,
                                    size_t bytes, uint64_t count) {
    dat.resize((dat.size() + kSectionAlignment - 1) / kSectionAlignment *
               kSectionAlignment);
    ModelSectionEntry entry;
    entry.id = static_cast<uint32_t>(id);
    entry.offset = dat.size();
    entry.size = bytes;
    entry.count = count;
    entry.crc32 = Crc32(data, bytes);
    dat.append(static_cast<const char*>(data), bytes);
    index.sections.push_back(entry);
  };
  auto add_doubles = [&add_section](ModelSection id,
                                    const std::vector<double>& values) {
    add_section(id, values.data(), values.size() * sizeof(double),
                values.size());
  };
  add_doubles(ModelSection::kPhi, phi);
  add_doubles(ModelSection::kGelMean, gel_means);
  add_doubles(ModelSection::kGelPrecision, gel_precs);
  add_doubles(ModelSection::kEmulsionMean, emu_means);
  add_doubles(ModelSection::kEmulsionPrecision, emu_precs);
  add_section(ModelSection::kRecipeCount, recipe_counts.data(),
              recipe_counts.size() * sizeof(int64_t), recipe_counts.size());
  add_section(ModelSection::kVocabOffsets, offsets.data(),
              offsets.size() * sizeof(uint64_t), offsets.size());
  add_section(ModelSection::kVocabCounts, word_counts.data(),
              word_counts.size() * sizeof(int64_t), word_counts.size());
  add_section(ModelSection::kVocabPool, pool.data(), pool.size(),
              pool.size());
  if (embeddings != nullptr) {
    TEXRHEO_RETURN_IF_ERROR(embed::ValidateEmbeddingTable(*embeddings));
  }
  if (embeddings != nullptr && !embeddings->empty()) {
    if (embeddings->vocab_size() != v_count) {
      return Status::InvalidArgument(
          "model binary: embedding table covers " +
          std::to_string(embeddings->vocab_size()) +
          " words, model vocabulary has " + std::to_string(v_count));
    }
    add_section(ModelSection::kEmbedding, embeddings->vectors.data(),
                embeddings->vectors.size() * sizeof(float),
                embeddings->vectors.size());
    add_section(ModelSection::kEmbeddingNorms, embeddings->norms.data(),
                embeddings->norms.size() * sizeof(float),
                embeddings->norms.size());
  }
  index.data_file_size = dat.size();
  return packed;
}

Status WriteModelBinary(const ModelSnapshot& snapshot,
                        const std::string& base_or_idx, FileOps& ops,
                        const embed::EmbeddingTable* embeddings) {
  TEXRHEO_ASSIGN_OR_RETURN(PackedModel packed,
                           PackModelBinary(snapshot, embeddings));
  // .dat first, .idx last: both renames are atomic, so a crash anywhere in
  // between leaves either the previous pair or a fresh .dat that no valid
  // index references yet. A readable .idx therefore implies a fully
  // written .dat.
  ModelBinaryPaths paths = ModelBinaryPathsFor(base_or_idx);
  TEXRHEO_RETURN_IF_ERROR(AtomicWriteFile(paths.dat, packed.dat, ops));
  return AtomicWriteFile(paths.idx, EncodeModelBinaryIndex(packed.index),
                         ops);
}

Status ConvertModelFileToBinary(const std::string& v2_path,
                                const std::string& base_or_idx, FileOps& ops,
                                const embed::EmbeddingTable* embeddings) {
  TEXRHEO_ASSIGN_OR_RETURN(ModelSnapshot model, LoadModel(v2_path));
  return WriteModelBinary(model, base_or_idx, ops, embeddings);
}

StatusOr<MappedRegion> MemoryMapOps::Map(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return errno == ENOENT
               ? Status::NotFound("mmap: no such file: " + path)
               : Status::IOError("mmap: open failed for " + path + ": " +
                                 std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("mmap: fstat failed for " + path);
  }
  if (st.st_size <= 0) {
    ::close(fd);
    return Status::InvalidArgument("mmap: empty file: " + path);
  }
  size_t size = static_cast<size_t>(st.st_size);
  // MAP_SHARED + PROT_READ: every process mapping the same model file
  // shares one copy of the pages in the page cache.
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) {
    return Status::IOError("mmap: map failed for " + path + ": " +
                           std::strerror(errno));
  }
  return MappedRegion{static_cast<const uint8_t*>(addr), size};
}

void MemoryMapOps::Unmap(MappedRegion region) {
  if (region.data != nullptr) {
    ::munmap(const_cast<uint8_t*>(region.data), region.size);
  }
}

MemoryMapOps& MemoryMapOps::Real() {
  static MemoryMapOps* ops = new MemoryMapOps();
  return *ops;
}

namespace {

// A packed image's bytes come from operator new (see MappedModel::image_).
static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= alignof(double),
              "packed model images need 8-byte-aligned heap blocks");

/// Checks an image's bytes against its validated index: size, magic,
/// per-section CRC, vocabulary fence and embedding finiteness. Open runs it
/// on a mapping and FromPacked on an in-memory pack, so both serve only
/// what this accepts.
Status VerifyImage(const ModelBinaryIndex& index, MappedRegion image) {
  const uint8_t* data = image.data;
  if (image.size != index.data_file_size) {
    return Status::InvalidArgument(
        "model binary: data file is " + std::to_string(image.size) +
        " bytes, index expects " + std::to_string(index.data_file_size) +
        " (truncated or swapped?)");
  }
  if (std::memcmp(data, kDatMagic, sizeof(kDatMagic)) != 0) {
    return Status::InvalidArgument(
        "model binary: bad data-file magic (is this the .dat of this .idx?)");
  }
  // Per-section CRC32 over the image bytes: one sequential pass that
  // detects any bit flip before a single value is served, and doubles as
  // the page-cache warmup for the serving path.
  for (const ModelSectionEntry& entry : index.sections) {
    uint32_t actual = Crc32(data + entry.offset, entry.size);
    if (actual != entry.crc32) {
      return SectionError(static_cast<ModelSection>(entry.id),
                          "crc mismatch (data file corrupted)");
    }
  }
  // Vocabulary pool structure: offsets must be a monotone fence over the
  // pool with sane word lengths and v2-compatible word bytes, or string
  // accessors could read out of bounds / serve garbage.
  {
    size_t v_count = static_cast<size_t>(index.vocab_size);
    const ModelSectionEntry& offsets_entry = index.sections[6];
    const ModelSectionEntry& pool_entry = index.sections[8];
    const uint64_t* offsets =
        reinterpret_cast<const uint64_t*>(data + offsets_entry.offset);
    if (offsets[0] != 0 || offsets[v_count] != pool_entry.count) {
      return SectionError(ModelSection::kVocabOffsets,
                          "pool fence does not span the string pool");
    }
    const char* pool = reinterpret_cast<const char*>(data + pool_entry.offset);
    for (size_t v = 0; v < v_count; ++v) {
      if (offsets[v + 1] < offsets[v]) {
        return SectionError(ModelSection::kVocabOffsets,
                            "offsets not monotone at word " +
                                std::to_string(v));
      }
      uint64_t len = offsets[v + 1] - offsets[v];
      if (len == 0 || len > kMaxWordBytes) {
        return SectionError(ModelSection::kVocabPool,
                            "word " + std::to_string(v) +
                                " has length out of range");
      }
      for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
        if (static_cast<unsigned char>(pool[i]) <= 0x20) {
          return SectionError(ModelSection::kVocabPool,
                              "word " + std::to_string(v) +
                                  " contains whitespace or control bytes");
        }
      }
    }
  }
  // Embedding content: every float must be finite and the cached norms
  // non-negative, or cosine scans would serve NaN divergences. (Bit flips
  // are already caught by the CRC pass; this rejects hostile packs whose
  // index is internally consistent but whose payload is poisoned.)
  if (index.sections.size() == kModelSectionCountWithEmbeddings) {
    const ModelSectionEntry& matrix = index.sections[9];
    const ModelSectionEntry& norms = index.sections[10];
    const float* vectors =
        reinterpret_cast<const float*>(data + matrix.offset);
    for (uint64_t i = 0; i < matrix.count; ++i) {
      if (!std::isfinite(vectors[i])) {
        return SectionError(ModelSection::kEmbedding,
                            "non-finite value at element " +
                                std::to_string(i));
      }
    }
    const float* norm_vals =
        reinterpret_cast<const float*>(data + norms.offset);
    for (uint64_t i = 0; i < norms.count; ++i) {
      if (!std::isfinite(norm_vals[i]) || norm_vals[i] < 0.0f) {
        return SectionError(ModelSection::kEmbeddingNorms,
                            "negative or non-finite norm at element " +
                                std::to_string(i));
      }
    }
  }
  return Status::OK();
}

MappedRegion RegionOf(const std::string& bytes) {
  return {reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()};
}

}  // namespace

MappedModel::MappedModel(ModelBinaryIndex index, std::string idx_path,
                         MappedRegion region, MemoryMapOps* ops,
                         std::string image)
    : index_(std::move(index)),
      idx_path_(std::move(idx_path)),
      image_(std::move(image)),
      region_(ops != nullptr ? region : RegionOf(image_)),
      ops_(ops) {
  auto base = [this](size_t slot) {
    return region_.data + index_.sections[slot].offset;
  };
  phi_ = reinterpret_cast<const double*>(base(0));
  gel_mean_ = reinterpret_cast<const double*>(base(1));
  gel_prec_ = reinterpret_cast<const double*>(base(2));
  emulsion_mean_ = reinterpret_cast<const double*>(base(3));
  emulsion_prec_ = reinterpret_cast<const double*>(base(4));
  recipe_counts_ = reinterpret_cast<const int64_t*>(base(5));
  vocab_offsets_ = reinterpret_cast<const uint64_t*>(base(6));
  vocab_counts_ = reinterpret_cast<const int64_t*>(base(7));
  pool_ = reinterpret_cast<const char*>(base(8));
  if (index_.sections.size() == kModelSectionCountWithEmbeddings) {
    embedding_ = reinterpret_cast<const float*>(base(9));
    embedding_norms_ = reinterpret_cast<const float*>(base(10));
    embedding_dim_ =
        static_cast<size_t>(index_.sections[9].count / index_.vocab_size);
  }
}

MappedModel::~MappedModel() {
  if (ops_ != nullptr) ops_->Unmap(region_);
}

StatusOr<std::shared_ptr<const MappedModel>> MappedModel::Open(
    const std::string& base_or_idx, MemoryMapOps& ops) {
  ModelBinaryPaths paths = ModelBinaryPathsFor(base_or_idx);
  TEXRHEO_ASSIGN_OR_RETURN(std::string idx_bytes,
                           ReadFileToString(paths.idx));
  TEXRHEO_ASSIGN_OR_RETURN(ModelBinaryIndex index,
                           ParseModelBinaryIndex(idx_bytes));
  TEXRHEO_RETURN_IF_ERROR(ValidateModelBinaryIndex(index));

  TEXRHEO_ASSIGN_OR_RETURN(MappedRegion region, ops.Map(paths.dat));
  if (Status status = VerifyImage(index, region); !status.ok()) {
    ops.Unmap(region);
    return status;
  }
  return std::shared_ptr<const MappedModel>(new MappedModel(
      std::move(index), std::move(paths.idx), region, &ops, std::string()));
}

StatusOr<std::shared_ptr<const MappedModel>> MappedModel::FromPacked(
    PackedModel packed) {
  TEXRHEO_RETURN_IF_ERROR(ValidateModelBinaryIndex(packed.index));
  TEXRHEO_RETURN_IF_ERROR(VerifyImage(packed.index, RegionOf(packed.dat)));
  return std::shared_ptr<const MappedModel>(
      new MappedModel(std::move(packed.index), std::string(), MappedRegion{},
                      nullptr, std::move(packed.dat)));
}

embed::EmbeddingTable CopyEmbeddingTable(const MappedModel& mapped) {
  embed::EmbeddingTable table;
  if (!mapped.has_embeddings()) return table;
  table.dim = static_cast<uint32_t>(mapped.embedding_dim());
  std::span<const float> matrix = mapped.embedding_matrix();
  std::span<const float> norms = mapped.embedding_norms();
  table.vectors.assign(matrix.begin(), matrix.end());
  table.norms.assign(norms.begin(), norms.end());
  return table;
}

StatusOr<TopicEstimates> MappedTopicEstimates(const MappedModel& mapped) {
  auto decode = [](const char* kind, int k, size_t dim,
                   std::span<const double> mean,
                   std::span<const double> prec) -> StatusOr<math::Gaussian> {
    math::Vector mu(dim);
    for (size_t i = 0; i < dim; ++i) mu[i] = mean[i];
    math::Matrix lambda(dim, dim);
    for (size_t r = 0; r < dim; ++r) {
      for (size_t c = 0; c < dim; ++c) lambda(r, c) = prec[r * dim + c];
    }
    auto g = math::Gaussian::FromPrecision(std::move(mu), std::move(lambda));
    if (!g.ok()) {
      return Status::InvalidArgument(
          std::string("model binary: ") + kind + " gaussian for topic " +
          std::to_string(k) + " is not positive definite: " +
          g.status().message());
    }
    return g;
  };
  TopicEstimates est;
  int k_count = mapped.num_topics();
  est.gel_topics.reserve(static_cast<size_t>(k_count));
  est.emulsion_topics.reserve(static_cast<size_t>(k_count));
  for (int k = 0; k < k_count; ++k) {
    TEXRHEO_ASSIGN_OR_RETURN(
        math::Gaussian gel,
        decode("gel", k, mapped.gel_dim(), mapped.gel_mean(k),
               mapped.gel_precision(k)));
    est.gel_topics.push_back(std::move(gel));
    TEXRHEO_ASSIGN_OR_RETURN(
        math::Gaussian emulsion,
        decode("emulsion", k, mapped.emulsion_dim(), mapped.emulsion_mean(k),
               mapped.emulsion_precision(k)));
    est.emulsion_topics.push_back(std::move(emulsion));
  }
  est.topic_recipe_count.reserve(static_cast<size_t>(k_count));
  for (int64_t n : mapped.recipe_counts()) {
    est.topic_recipe_count.push_back(static_cast<int>(n));
  }
  return est;
}

StatusOr<ModelSnapshot> ReadModelBinary(const std::string& base_or_idx,
                                        MemoryMapOps& ops) {
  TEXRHEO_ASSIGN_OR_RETURN(std::shared_ptr<const MappedModel> mapped,
                           MappedModel::Open(base_or_idx, ops));
  ModelSnapshot model;
  for (size_t v = 0; v < mapped->vocab_size(); ++v) {
    model.vocab.AddWithCount(mapped->word(v), mapped->word_count(v));
  }
  if (model.vocab.size() != mapped->vocab_size()) {
    return Status::InvalidArgument(
        "model binary: vocabulary pool contains duplicate words");
  }
  TEXRHEO_ASSIGN_OR_RETURN(model.estimates, MappedTopicEstimates(*mapped));
  model.estimates.phi.reserve(static_cast<size_t>(mapped->num_topics()));
  for (int k = 0; k < mapped->num_topics(); ++k) {
    std::span<const double> row = mapped->phi_row(k);
    model.estimates.phi.emplace_back(row.begin(), row.end());
  }
  return model;
}

}  // namespace texrheo::core
