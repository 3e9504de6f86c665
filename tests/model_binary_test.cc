// Format-torture suite for the memory-mapped binary model format
// (core/model_binary.h): byte-for-byte round-trip equivalence against the
// v2 text path, exhaustive truncation of both files, bit-flip corruption
// across every section, structure-aware index mutations (overlaps,
// out-of-bounds offsets, zero/huge counts, misalignment), hostile data
// payloads (NaN phi, duplicate pool words), and mmap fault injection.
// The invariant throughout: a clean Status, never a crash, never a
// partially valid snapshot, never a silent wrong answer.

#include "core/model_binary.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/serialization.h"
#include "embed/embedding.h"
#include "math/distributions.h"
#include "serve/snapshot.h"
#include "util/crc32.h"
#include "util/csv.h"
#include "util/rng.h"

namespace texrheo::core {
namespace {

math::Gaussian MakeGaussian(double mean, size_t dim) {
  auto g = math::Gaussian::FromPrecision(math::Vector(dim, mean),
                                         math::Matrix::Identity(dim, 4.0));
  EXPECT_TRUE(g.ok());
  return *g;
}

/// Two well-separated topics over a 4-word vocabulary (the serving tests'
/// TinyModel shape: dictionary words on three poles plus one unknown).
ModelSnapshot TinyModel() {
  ModelSnapshot model;
  model.vocab.AddWithCount("katai", 7);
  model.vocab.AddWithCount("purupuru", 5);
  model.vocab.AddWithCount("fuwafuwa", 3);
  model.vocab.AddWithCount("zzz-not-a-texture-word", 1);
  model.estimates.phi = {{0.7, 0.1, 0.1, 0.1}, {0.05, 0.75, 0.1, 0.1}};
  model.estimates.gel_topics = {MakeGaussian(2.0, 3), MakeGaussian(6.0, 3)};
  model.estimates.emulsion_topics = {MakeGaussian(1.0, 6),
                                     MakeGaussian(3.0, 6)};
  model.estimates.topic_recipe_count = {1, 2};
  return model;
}

std::string TempBase(const char* name) {
  return testing::TempDir() + "/" + name;
}

/// Packs TinyModel under `name` and returns the base path.
std::string PackTiny(const char* name) {
  std::string base = TempBase(name);
  Status status = WriteModelBinary(TinyModel(), base);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return base;
}

std::string MustRead(const std::string& path) {
  auto bytes = ReadFileToString(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.value_or("");
}

void MustWrite(const std::string& path, std::string_view bytes) {
  Status status = WriteStringToFile(path, bytes);
  ASSERT_TRUE(status.ok()) << status.ToString();
}

/// Applies `mutate` to the parsed index (and optionally the raw dat bytes)
/// of a freshly packed TinyModel, re-encodes the index with a *valid*
/// trailing CRC and refreshed per-section CRCs over the mutated data, and
/// returns the base path. This reaches the deep structural validators
/// instead of bouncing off the checksums.
template <typename Fn>
std::string PackMutated(const char* name, Fn mutate) {
  std::string base = PackTiny(name);
  ModelBinaryPaths paths = ModelBinaryPathsFor(base);
  auto index = ParseModelBinaryIndex(MustRead(paths.idx));
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  std::string dat = MustRead(paths.dat);
  mutate(*index, dat);
  MustWrite(paths.dat, dat);
  MustWrite(paths.idx, EncodeModelBinaryIndex(*index));
  return base;
}

/// Recomputes one section's CRC after its dat bytes were patched (keeps the
/// mutation "hostile producer"-shaped: everything checksums, content lies).
void RefreshSectionCrc(ModelBinaryIndex& index, std::string& dat,
                       size_t slot) {
  ModelSectionEntry& entry = index.sections[slot];
  entry.crc32 = Crc32(dat.data() + entry.offset, entry.size);
}

// --- CRC-32 known answers ---------------------------------------------------

TEST(Crc32Test, MatchesIeee8023CheckValueAndBytewiseDefinition) {
  // The standard check value pins the polynomial, reflection, and final
  // xor; every CRC in the .idx/.dat framing depends on it.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
  // The sliced fast path must agree with the bit-at-a-time definition on
  // buffers of every alignment and tail length.
  std::string buf(1025, '\0');
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<char>(i * 7 + 3);
  }
  for (size_t len : {1u, 7u, 8u, 9u, 63u, 64u, 65u, 1024u, 1025u}) {
    uint32_t crc = 0xFFFFFFFFu;
    for (size_t i = 0; i < len; ++i) {
      uint32_t c = (crc ^ static_cast<unsigned char>(buf[i])) & 0xFFu;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      crc = c ^ (crc >> 8);
    }
    EXPECT_EQ(Crc32(buf.data(), len), crc ^ 0xFFFFFFFFu) << "len " << len;
  }
}

// --- Round-trip equivalence -------------------------------------------------

TEST(ModelBinaryTest, PathsForAcceptsBaseIdxAndDat) {
  for (const char* spelling : {"dir/m", "dir/m.idx", "dir/m.dat"}) {
    ModelBinaryPaths paths = ModelBinaryPathsFor(spelling);
    EXPECT_EQ(paths.dat, "dir/m.dat");
    EXPECT_EQ(paths.idx, "dir/m.idx");
  }
}

TEST(ModelBinaryTest, PackUnpackReproducesCanonicalV2Bytes) {
  // Binary pack canonicalizes through the v2 round-trip, so unpacking must
  // reproduce the v2 serialization byte-for-byte (fixed point).
  std::string base = PackTiny("mb_fixed_point");
  auto canonical = DeserializeModel(SerializeModel(TinyModel()));
  ASSERT_TRUE(canonical.ok());
  auto unpacked = ReadModelBinary(base);
  ASSERT_TRUE(unpacked.ok()) << unpacked.status().ToString();
  EXPECT_EQ(SerializeModel(*unpacked), SerializeModel(*canonical));
}

TEST(ModelBinaryTest, ConvertModelFileMatchesDirectPack) {
  std::string v2_path = TempBase("mb_convert.txt");
  ASSERT_TRUE(SaveModel(v2_path, TinyModel()).ok());
  std::string converted = TempBase("mb_converted");
  ASSERT_TRUE(ConvertModelFileToBinary(v2_path, converted).ok());
  std::string direct = PackTiny("mb_direct");
  EXPECT_EQ(MustRead(converted + ".dat"), MustRead(direct + ".dat"));
  EXPECT_EQ(MustRead(converted + ".idx"), MustRead(direct + ".idx"));
}

TEST(ModelBinaryTest, MappedModelServesExactValues) {
  std::string base = PackTiny("mb_values");
  auto mapped = MappedModel::Open(base);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto canonical = DeserializeModel(SerializeModel(TinyModel()));
  ASSERT_TRUE(canonical.ok());

  EXPECT_EQ((*mapped)->num_topics(), 2);
  EXPECT_EQ((*mapped)->vocab_size(), 4u);
  EXPECT_EQ((*mapped)->gel_dim(), 3u);
  EXPECT_EQ((*mapped)->emulsion_dim(), 6u);
  EXPECT_EQ((*mapped)->fingerprint(), Crc32(SerializeModel(*canonical)));
  for (int k = 0; k < 2; ++k) {
    std::span<const double> row = (*mapped)->phi_row(k);
    ASSERT_EQ(row.size(), 4u);
    for (size_t v = 0; v < row.size(); ++v) {
      // Bit-identical to the v2-loaded values, not merely close.
      EXPECT_EQ(row[v], canonical->estimates.phi[static_cast<size_t>(k)][v]);
    }
    std::span<const double> mean = (*mapped)->gel_mean(k);
    for (size_t i = 0; i < mean.size(); ++i) {
      EXPECT_EQ(mean[i],
                canonical->estimates.gel_topics[static_cast<size_t>(k)]
                    .mean()[i]);
    }
  }
  for (size_t v = 0; v < 4; ++v) {
    EXPECT_EQ((*mapped)->word(v),
              canonical->vocab.WordOf(static_cast<int32_t>(v)));
    EXPECT_EQ((*mapped)->word_count(v),
              canonical->vocab.CountOf(static_cast<int32_t>(v)));
  }
  EXPECT_EQ((*mapped)->recipe_counts()[0], 1);
  EXPECT_EQ((*mapped)->recipe_counts()[1], 2);
}

TEST(ModelBinaryTest, MmapSnapshotEqualsV2Snapshot) {
  std::string v2_path = TempBase("mb_equiv.txt");
  ASSERT_TRUE(SaveModel(v2_path, TinyModel()).ok());
  std::string base = TempBase("mb_equiv");
  ASSERT_TRUE(ConvertModelFileToBinary(v2_path, base).ok());

  auto from_text = serve::ServingSnapshot::FromModelFile(v2_path);
  auto from_map = serve::ServingSnapshot::FromBinaryFile(base + ".idx");
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  ASSERT_TRUE(from_map.ok()) << from_map.status().ToString();
  const serve::ServingSnapshot& text = **from_text;
  const serve::ServingSnapshot& mmapped = **from_map;

  EXPECT_GT(mmapped.mapped_bytes(), 0u);
  EXPECT_EQ(text.fingerprint(), mmapped.fingerprint());
  ASSERT_EQ(text.num_topics(), mmapped.num_topics());
  ASSERT_EQ(text.vocab_size(), mmapped.vocab_size());
  for (int k = 0; k < text.num_topics(); ++k) {
    std::span<const double> a = text.phi(k);
    std::span<const double> b = mmapped.phi(k);
    ASSERT_EQ(a.size(), b.size());
    for (size_t v = 0; v < a.size(); ++v) EXPECT_EQ(a[v], b[v]);
    // Derived summaries agree too (same inputs, same code path).
    EXPECT_EQ(text.term_summary(k).top_terms,
              mmapped.term_summary(k).top_terms);
  }
  for (size_t v = 0; v < text.vocab_size(); ++v) {
    EXPECT_EQ(text.word(v), mmapped.word(v));
    EXPECT_EQ(text.WordId(text.word(v)), mmapped.WordId(mmapped.word(v)));
  }
  EXPECT_EQ(mmapped.WordId("no-such-word"), text::Vocabulary::kUnknownId);

  // Identical fold-in: same stream, bit-identical theta on both paths.
  Rng rng_a = Rng::ForStream(7, 1);
  Rng rng_b = Rng::ForStream(7, 1);
  auto theta_a = text.FoldInTheta({0, 1, 1}, math::Vector(3, 4.0), 30, 0.3,
                                  rng_a);
  auto theta_b = mmapped.FoldInTheta({0, 1, 1}, math::Vector(3, 4.0), 30,
                                     0.3, rng_b);
  ASSERT_TRUE(theta_a.ok() && theta_b.ok());
  EXPECT_EQ(*theta_a, *theta_b);
  EXPECT_EQ(text.InferTopicForFeatures(math::Vector(3, 6.0)),
            mmapped.InferTopicForFeatures(math::Vector(3, 6.0)));
}

// --- Truncation -------------------------------------------------------------

TEST(ModelBinaryTest, EveryIdxTruncationPrefixRejected) {
  std::string base = PackTiny("mb_trunc_idx");
  ModelBinaryPaths paths = ModelBinaryPathsFor(base);
  std::string idx = MustRead(paths.idx);
  ASSERT_GT(idx.size(), 0u);
  for (size_t len = 0; len < idx.size(); ++len) {
    MustWrite(paths.idx, std::string_view(idx).substr(0, len));
    auto opened = MappedModel::Open(base);
    EXPECT_FALSE(opened.ok()) << "idx prefix of " << len
                              << " bytes was accepted";
  }
  MustWrite(paths.idx, idx);
  EXPECT_TRUE(MappedModel::Open(base).ok());
}

TEST(ModelBinaryTest, EveryDatTruncationPrefixRejected) {
  std::string base = PackTiny("mb_trunc_dat");
  ModelBinaryPaths paths = ModelBinaryPathsFor(base);
  std::string dat = MustRead(paths.dat);
  ASSERT_GT(dat.size(), 0u);
  for (size_t len = 0; len < dat.size(); ++len) {
    MustWrite(paths.dat, std::string_view(dat).substr(0, len));
    auto opened = MappedModel::Open(base);
    EXPECT_FALSE(opened.ok()) << "dat prefix of " << len
                              << " bytes was accepted";
  }
  MustWrite(paths.dat, dat);
  EXPECT_TRUE(MappedModel::Open(base).ok());
}

TEST(ModelBinaryTest, MissingSiblingFilesRejected) {
  std::string base = PackTiny("mb_missing");
  ModelBinaryPaths paths = ModelBinaryPathsFor(base);
  std::string dat = MustRead(paths.dat);
  std::remove(paths.dat.c_str());
  EXPECT_FALSE(MappedModel::Open(base).ok());  // Valid idx, no dat.
  MustWrite(paths.dat, dat);
  std::remove(paths.idx.c_str());
  EXPECT_FALSE(MappedModel::Open(base).ok());  // Valid dat, no idx.
}

// --- Bit-flip corruption ----------------------------------------------------

TEST(ModelBinaryTest, AnySingleBitFlipInIdxRejected) {
  std::string base = PackTiny("mb_flip_idx");
  ModelBinaryPaths paths = ModelBinaryPathsFor(base);
  std::string idx = MustRead(paths.idx);
  for (size_t pos = 0; pos < idx.size(); ++pos) {
    std::string corrupt = idx;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
    MustWrite(paths.idx, corrupt);
    auto opened = MappedModel::Open(base);
    EXPECT_FALSE(opened.ok()) << "bit flip at idx byte " << pos
                              << " was accepted";
  }
}

TEST(ModelBinaryTest, BitFlipInEveryDatSectionCaughtByItsCrc) {
  std::string base = PackTiny("mb_flip_dat");
  ModelBinaryPaths paths = ModelBinaryPathsFor(base);
  auto index = ParseModelBinaryIndex(MustRead(paths.idx));
  ASSERT_TRUE(index.ok());
  std::string dat = MustRead(paths.dat);
  for (const ModelSectionEntry& entry : index->sections) {
    ASSERT_GT(entry.size, 0u);
    // Flip one bit at the start, middle, and end of the section.
    for (uint64_t at : {entry.offset, entry.offset + entry.size / 2,
                        entry.offset + entry.size - 1}) {
      std::string corrupt = dat;
      corrupt[at] = static_cast<char>(corrupt[at] ^ 0x01);
      MustWrite(paths.dat, corrupt);
      auto opened = MappedModel::Open(base);
      ASSERT_FALSE(opened.ok())
          << "bit flip in section "
          << ModelSectionName(static_cast<ModelSection>(entry.id))
          << " was accepted";
      EXPECT_NE(opened.status().message().find(ModelSectionName(
                    static_cast<ModelSection>(entry.id))),
                std::string::npos)
          << opened.status().message();
    }
  }
  MustWrite(paths.dat, dat);
  EXPECT_TRUE(MappedModel::Open(base).ok());
}

TEST(ModelBinaryTest, DatMagicMismatchRejected) {
  std::string base = PackMutated("mb_dat_magic",
                                 [](ModelBinaryIndex&, std::string& dat) {
                                   dat[0] = 'X';
                                 });
  auto opened = MappedModel::Open(base);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("magic"), std::string::npos);
}

// --- Embedding section pair (sections 10 and 11) ----------------------------

embed::EmbeddingTable TinyEmbeddings() {
  embed::EmbeddingTable table;
  table.dim = 8;
  table.vectors.resize(4 * table.dim);
  for (size_t i = 0; i < table.vectors.size(); ++i) {
    table.vectors[i] = 0.25f * static_cast<float>(i % 7) - 0.5f;
  }
  table.RecomputeNorms();
  return table;
}

/// Packs TinyModel with the optional embedding pair appended.
std::string PackTinyWithEmbeddings(const char* name) {
  std::string base = TempBase(name);
  embed::EmbeddingTable table = TinyEmbeddings();
  Status status =
      WriteModelBinary(TinyModel(), base, FileOps::Real(), &table);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return base;
}

TEST(ModelBinaryTest, MappedEmbeddingSectionsServeExactBytes) {
  std::string base = PackTinyWithEmbeddings("mb_embed_exact");
  auto opened = MappedModel::Open(base);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const MappedModel& mapped = **opened;
  embed::EmbeddingTable table = TinyEmbeddings();
  ASSERT_TRUE(mapped.has_embeddings());
  ASSERT_EQ(mapped.embedding_dim(), table.dim);
  ASSERT_EQ(mapped.embedding_matrix().size(), table.vectors.size());
  EXPECT_EQ(std::memcmp(mapped.embedding_matrix().data(),
                        table.vectors.data(),
                        table.vectors.size() * sizeof(float)),
            0);
  ASSERT_EQ(mapped.embedding_norms().size(), table.norms.size());
  EXPECT_EQ(std::memcmp(mapped.embedding_norms().data(), table.norms.data(),
                        table.norms.size() * sizeof(float)),
            0);
  // The deep-copy helper reproduces the heap table exactly.
  embed::EmbeddingTable copied = CopyEmbeddingTable(mapped);
  EXPECT_EQ(copied.dim, table.dim);
  EXPECT_EQ(copied.vectors, table.vectors);
  EXPECT_EQ(copied.norms, table.norms);
  // A pack written without the pair reports none (legacy contract).
  auto legacy = MappedModel::Open(PackTiny("mb_embed_legacy"));
  ASSERT_TRUE(legacy.ok());
  EXPECT_FALSE((*legacy)->has_embeddings());
  EXPECT_TRUE((*legacy)->embedding_matrix().empty());
}

TEST(ModelBinaryTest, EmbeddingPackEveryTruncationPrefixRejected) {
  std::string base = PackTinyWithEmbeddings("mb_embed_trunc");
  ModelBinaryPaths paths = ModelBinaryPathsFor(base);
  // The longer 11-section index must fail cleanly at every prefix too.
  std::string idx = MustRead(paths.idx);
  for (size_t len = 0; len < idx.size(); ++len) {
    MustWrite(paths.idx, std::string_view(idx).substr(0, len));
    EXPECT_FALSE(MappedModel::Open(base).ok())
        << "idx prefix of " << len << " bytes was accepted";
  }
  MustWrite(paths.idx, idx);
  // Strict truncation of the payload: chopping anywhere — including inside
  // the trailing optional sections — must be rejected, never served as a
  // shorter embedding table.
  std::string dat = MustRead(paths.dat);
  for (size_t len = 0; len < dat.size(); ++len) {
    MustWrite(paths.dat, std::string_view(dat).substr(0, len));
    EXPECT_FALSE(MappedModel::Open(base).ok())
        << "dat prefix of " << len << " bytes was accepted";
  }
  MustWrite(paths.dat, dat);
  EXPECT_TRUE(MappedModel::Open(base).ok());
}

TEST(ModelBinaryTest, EmbeddingSectionBitFlipsCaughtByTheirCrcs) {
  std::string base = PackTinyWithEmbeddings("mb_embed_flip");
  ModelBinaryPaths paths = ModelBinaryPathsFor(base);
  auto index = ParseModelBinaryIndex(MustRead(paths.idx));
  ASSERT_TRUE(index.ok());
  ASSERT_EQ(index->sections.size(), kModelSectionCountWithEmbeddings);
  std::string dat = MustRead(paths.dat);
  for (ModelSection section :
       {ModelSection::kEmbedding, ModelSection::kEmbeddingNorms}) {
    const ModelSectionEntry& entry =
        index->sections[static_cast<size_t>(section) - 1];
    ASSERT_EQ(entry.id, static_cast<uint32_t>(section));
    ASSERT_GT(entry.size, 0u);
    for (uint64_t at : {entry.offset, entry.offset + entry.size / 2,
                        entry.offset + entry.size - 1}) {
      std::string corrupt = dat;
      corrupt[at] = static_cast<char>(corrupt[at] ^ 0x01);
      MustWrite(paths.dat, corrupt);
      auto opened = MappedModel::Open(base);
      ASSERT_FALSE(opened.ok())
          << "bit flip at dat byte " << at << " in "
          << ModelSectionName(section) << " was accepted";
      EXPECT_NE(opened.status().message().find(ModelSectionName(section)),
                std::string::npos)
          << opened.status().message();
    }
  }
  MustWrite(paths.dat, dat);
  EXPECT_TRUE(MappedModel::Open(base).ok());
}

TEST(ModelBinaryTest, LonelyEmbeddingSectionRejected) {
  // The pair is both-or-neither: an index listing ten sections (matrix
  // without norms) is structurally invalid no matter what it checksums to.
  std::string base = PackTinyWithEmbeddings("mb_embed_lonely");
  ModelBinaryPaths paths = ModelBinaryPathsFor(base);
  auto index = ParseModelBinaryIndex(MustRead(paths.idx));
  ASSERT_TRUE(index.ok());
  ASSERT_EQ(index->sections.size(), kModelSectionCountWithEmbeddings);
  index->sections.pop_back();
  MustWrite(paths.idx, EncodeModelBinaryIndex(*index));
  auto opened = MappedModel::Open(base);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("model binary"),
            std::string::npos)
      << opened.status().message();
}

// --- Structure-aware index mutations ---------------------------------------

struct IndexMutation {
  const char* name;
  void (*apply)(ModelBinaryIndex&);
};

TEST(ModelBinaryTest, HostileIndexTableMutationsRejected) {
  const IndexMutation kMutations[] = {
      {"zero_topics", [](ModelBinaryIndex& i) { i.num_topics = 0; }},
      {"huge_topics", [](ModelBinaryIndex& i) { i.num_topics = 1u << 30; }},
      {"huge_vocab",
       [](ModelBinaryIndex& i) { i.vocab_size = 1ull << 40; }},
      {"zero_gel_dim", [](ModelBinaryIndex& i) { i.gel_dim = 0; }},
      {"huge_gel_dim", [](ModelBinaryIndex& i) { i.gel_dim = 4096; }},
      {"huge_emulsion_dim",
       [](ModelBinaryIndex& i) { i.emulsion_dim = 100000; }},
      {"zero_count",
       [](ModelBinaryIndex& i) {
         i.sections[0].count = 0;
         i.sections[0].size = 0;
       }},
      {"huge_count",
       [](ModelBinaryIndex& i) {
         i.sections[0].count = 1ull << 40;
         i.sections[0].size = (1ull << 40) * 8;
       }},
      {"count_size_disagree",
       [](ModelBinaryIndex& i) { i.sections[0].size += 8; }},
      {"misaligned_soa_block",
       [](ModelBinaryIndex& i) { i.sections[2].offset += 8; }},
      {"overlapping_sections",
       [](ModelBinaryIndex& i) {
         i.sections[1].offset = i.sections[0].offset;
       }},
      {"offset_into_header",
       [](ModelBinaryIndex& i) { i.sections[0].offset = 0; }},
      {"out_of_bounds_offset",
       [](ModelBinaryIndex& i) {
         i.sections[8].offset = i.data_file_size + (1u << 20);
       }},
      {"overflowing_offset",
       [](ModelBinaryIndex& i) {
         i.sections[8].offset = ~uint64_t{0} - 63;  // Aligned, wraps on +size.
       }},
      {"duplicate_section",
       [](ModelBinaryIndex& i) { i.sections[1].id = i.sections[0].id; }},
      {"unknown_section_id",
       [](ModelBinaryIndex& i) { i.sections[0].id = 99; }},
      {"dropped_section",
       [](ModelBinaryIndex& i) { i.sections.pop_back(); }},
      {"extra_section",
       [](ModelBinaryIndex& i) { i.sections.push_back(i.sections.back()); }},
      {"out_of_order_sections",
       [](ModelBinaryIndex& i) {
         std::swap(i.sections[0], i.sections[1]);
       }},
      {"data_file_size_lies_short",
       [](ModelBinaryIndex& i) { i.data_file_size -= 64; }},
      {"data_file_size_lies_long",
       [](ModelBinaryIndex& i) { i.data_file_size += 1; }},
  };
  for (const IndexMutation& mutation : kMutations) {
    std::string base = PackMutated(
        (std::string("mb_mut_") + mutation.name).c_str(),
        [&mutation](ModelBinaryIndex& index, std::string&) {
          mutation.apply(index);
        });
    auto opened = MappedModel::Open(base);
    EXPECT_FALSE(opened.ok())
        << "mutation '" << mutation.name << "' was accepted";
    // Clean, descriptive Status - and no partial snapshot to misuse.
    EXPECT_FALSE(opened.status().message().empty());
  }
}

TEST(ModelBinaryTest, UnsupportedVersionRejectedAtParse) {
  std::string base = PackMutated("mb_version",
                                 [](ModelBinaryIndex& index, std::string&) {
                                   index.version = kModelBinaryVersion + 1;
                                 });
  auto opened = MappedModel::Open(base);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("version"), std::string::npos);
}

// --- Hostile data payloads (valid CRCs, lying content) ----------------------

TEST(ModelBinaryTest, NanPhiPassesCrcButSnapshotRejectsIt) {
  // A hostile producer can checksum anything; finiteness is the serving
  // layer's validation. The mapping opens (format-valid) but no snapshot
  // may be built over it.
  std::string base = PackMutated(
      "mb_nan_phi", [](ModelBinaryIndex& index, std::string& dat) {
        double nan = std::nan("");
        std::memcpy(dat.data() + index.sections[0].offset, &nan,
                    sizeof(nan));
        RefreshSectionCrc(index, dat, 0);
      });
  ASSERT_TRUE(MappedModel::Open(base).ok());
  auto snapshot = serve::ServingSnapshot::FromBinaryFile(base + ".idx");
  ASSERT_FALSE(snapshot.ok());
  EXPECT_NE(snapshot.status().message().find("non-finite"),
            std::string::npos);
}

TEST(ModelBinaryTest, VocabPoolFenceMutationsRejected) {
  struct PoolMutation {
    const char* name;
    uint64_t new_first_offset;
  };
  // offsets[0] must be 0; any other start breaks the fence.
  std::string base = PackMutated(
      "mb_pool_fence", [](ModelBinaryIndex& index, std::string& dat) {
        uint64_t bad = 1;
        std::memcpy(dat.data() + index.sections[6].offset, &bad, sizeof(bad));
        RefreshSectionCrc(index, dat, 6);
      });
  auto opened = MappedModel::Open(base);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("vocab_offsets"),
            std::string::npos);

  // Non-monotone offsets (word length would go negative / out of bounds).
  base = PackMutated(
      "mb_pool_monotone", [](ModelBinaryIndex& index, std::string& dat) {
        uint64_t huge = ~uint64_t{0} / 2;
        std::memcpy(dat.data() + index.sections[6].offset + 8, &huge,
                    sizeof(huge));
        RefreshSectionCrc(index, dat, 6);
      });
  EXPECT_FALSE(MappedModel::Open(base).ok());

  // A whitespace byte inside a word would break the v2 fixed point.
  base = PackMutated(
      "mb_pool_whitespace", [](ModelBinaryIndex& index, std::string& dat) {
        dat[index.sections[8].offset] = ' ';
        RefreshSectionCrc(index, dat, 8);
      });
  EXPECT_FALSE(MappedModel::Open(base).ok());
}

TEST(ModelBinaryTest, DuplicatePoolWordsRejectedBySnapshotAndUnpack) {
  // Make word 1 byte-identical to word 0 ("katai" x2) with valid CRCs:
  // rewrite the offsets fence so both words alias the same pool range.
  std::string base = PackMutated(
      "mb_pool_dup", [](ModelBinaryIndex& index, std::string& dat) {
        uint64_t offsets[2];
        std::memcpy(offsets, dat.data() + index.sections[6].offset,
                    sizeof(offsets));
        // offsets[1] = end of word 0; make word 1 = word 0 by aliasing and
        // padding the fence so later words stay in bounds.
        uint64_t word0_len = offsets[1] - offsets[0];
        uint64_t alias[2] = {0, word0_len};
        std::memcpy(dat.data() + index.sections[6].offset, alias,
                    sizeof(alias));
        uint64_t second_start = 0;
        std::memcpy(dat.data() + index.sections[6].offset + 8,
                    &second_start, sizeof(second_start));
        RefreshSectionCrc(index, dat, 6);
      });
  // The fence may or may not stay structurally valid after this surgery;
  // what matters is that no duplicate-word snapshot is ever served.
  auto snapshot = serve::ServingSnapshot::FromBinaryFile(base + ".idx");
  EXPECT_FALSE(snapshot.ok());
  auto unpacked = ReadModelBinary(base);
  EXPECT_FALSE(unpacked.ok());
}

// --- Writer validation ------------------------------------------------------

TEST(ModelBinaryTest, WriterRejectsStructurallyBrokenModels) {
  {
    ModelSnapshot model;  // No topics at all.
    EXPECT_FALSE(WriteModelBinary(model, TempBase("mb_w_empty")).ok());
  }
  {
    ModelSnapshot model = TinyModel();
    model.estimates.gel_topics[1] = MakeGaussian(6.0, 2);  // Non-uniform dim.
    EXPECT_FALSE(WriteModelBinary(model, TempBase("mb_w_dim")).ok());
  }
  {
    ModelSnapshot model = TinyModel();
    model.estimates.phi[1].pop_back();  // Row width != vocab size: the
    // canonical v2 round-trip refuses it before any byte is written.
    EXPECT_FALSE(WriteModelBinary(model, TempBase("mb_w_row")).ok());
  }
}

// --- Mmap fault injection ---------------------------------------------------

/// Delegates to the real mmap but counts maps/unmaps and can fail Map.
class CountingMapOps final : public MemoryMapOps {
 public:
  StatusOr<MappedRegion> Map(const std::string& path) override {
    ++maps;
    if (fail_map) return Status::IOError("injected mmap failure");
    return MemoryMapOps::Map(path);
  }
  void Unmap(MappedRegion region) override {
    ++unmaps;
    MemoryMapOps::Unmap(region);
  }

  int maps = 0;
  int unmaps = 0;
  bool fail_map = false;
};

TEST(ModelBinaryTest, MapFailureSurfacesCleanly) {
  std::string base = PackTiny("mb_fault_map");
  CountingMapOps ops;
  ops.fail_map = true;
  auto opened = MappedModel::Open(base, ops);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("injected"), std::string::npos);
  EXPECT_EQ(ops.unmaps, 0);  // Nothing was mapped, nothing to release.
}

TEST(ModelBinaryTest, RegionUnmappedExactlyOnceOnSuccessAndFailure) {
  std::string base = PackTiny("mb_fault_unmap");
  CountingMapOps ops;
  {
    auto opened = MappedModel::Open(base, ops);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(ops.maps, 1);
    EXPECT_EQ(ops.unmaps, 0);  // Held by the live MappedModel.
  }
  EXPECT_EQ(ops.unmaps, 1);  // Released when the last reference dropped.

  // Validation failure *after* a successful map must still release it.
  ModelBinaryPaths paths = ModelBinaryPathsFor(base);
  std::string dat = MustRead(paths.dat);
  std::string corrupt = dat;
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x01);
  MustWrite(paths.dat, corrupt);
  CountingMapOps ops2;
  EXPECT_FALSE(MappedModel::Open(base, ops2).ok());
  EXPECT_EQ(ops2.maps, 1);
  EXPECT_EQ(ops2.unmaps, 1);
}

}  // namespace
}  // namespace texrheo::core
