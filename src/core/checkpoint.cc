#include "core/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "util/crc32.h"
#include "util/csv.h"
#include "util/string_util.h"

namespace texrheo::core {
namespace {

constexpr char kMagic[8] = {'T', 'X', 'R', 'C', 'K', 'P', 'T', '1'};
// v2: fingerprint grew the sparse-sampler knobs and the payload grew the
// stale alias-bank section. v1 readers no longer exist anywhere (no
// long-lived checkpoint files are shipped), so the version is bumped
// rather than branched on. The sparse sampler has since been removed; its
// slots are still written (as zeros) so the layout, and every dense
// checkpoint written under v2, stays valid.
constexpr uint32_t kVersion = 2;
constexpr size_t kHeaderSize = sizeof(kMagic) + sizeof(uint32_t) +
                               sizeof(uint64_t);
constexpr char kFilePrefix[] = "ckpt-";
constexpr char kFileSuffix[] = ".ckpt";

// ---------------------------------------------------------------------------
// Payload writer: fixed-width native-endian scalars appended to a string.

template <typename T>
void Put(std::string& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}

void PutF64(std::string& out, double v) { Put(out, v); }

void PutI32Vec(std::string& out, const std::vector<int32_t>& v) {
  Put<uint64_t>(out, v.size());
  for (int32_t x : v) Put(out, x);
}

void PutF64Vec(std::string& out, const std::vector<double>& v) {
  Put<uint64_t>(out, v.size());
  for (double x : v) PutF64(out, x);
}

void PutRngState(std::string& out, const Rng::State& s) {
  for (uint64_t w : s.words) Put(out, w);
  Put<uint8_t>(out, s.has_cached_gaussian ? 1 : 0);
  Put(out, s.cached_gaussian_bits);
}

void PutGaussian(std::string& out, const math::Gaussian& g) {
  Put<uint64_t>(out, g.dim());
  for (size_t i = 0; i < g.dim(); ++i) PutF64(out, g.mean()[i]);
  for (size_t r = 0; r < g.dim(); ++r) {
    for (size_t c = 0; c < g.dim(); ++c) PutF64(out, g.precision()(r, c));
  }
}

void PutTopicStats(std::string& out, const TopicStatsSnapshot& s) {
  Put(out, s.n);
  PutF64Vec(out, s.sum);
  PutF64Vec(out, s.sum_outer);
}

// ---------------------------------------------------------------------------
// Payload reader: bounds-checked; any overrun flips a sticky error.

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  template <typename T>
  T Take() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    if (failed_ || data_.size() - pos_ < sizeof(T)) {
      failed_ = true;
      return v;
    }
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// Length-prefixed vector with an element-count sanity cap: a corrupt
  /// length field must not trigger a huge allocation before the bounds
  /// check catches it.
  template <typename T>
  std::vector<T> TakeVec() {
    uint64_t len = Take<uint64_t>();
    if (failed_ || len > (data_.size() - pos_) / sizeof(T)) {
      failed_ = true;
      return {};
    }
    std::vector<T> v(static_cast<size_t>(len));
    for (auto& x : v) x = Take<T>();
    return v;
  }

  Rng::State TakeRngState() {
    Rng::State s;
    for (auto& w : s.words) w = Take<uint64_t>();
    s.has_cached_gaussian = Take<uint8_t>() != 0;
    s.cached_gaussian_bits = Take<uint64_t>();
    return s;
  }

  bool failed() const { return failed_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

StatusOr<math::Gaussian> TakeGaussian(Reader& reader) {
  uint64_t dim = reader.Take<uint64_t>();
  if (reader.failed() || dim == 0 || dim > 1024) {
    return Status::InvalidArgument("checkpoint: bad gaussian dimension");
  }
  math::Vector mean(static_cast<size_t>(dim));
  for (size_t i = 0; i < dim; ++i) mean[i] = reader.Take<double>();
  math::Matrix precision(static_cast<size_t>(dim), static_cast<size_t>(dim));
  for (size_t r = 0; r < dim; ++r) {
    for (size_t c = 0; c < dim; ++c) precision(r, c) = reader.Take<double>();
  }
  if (reader.failed()) {
    return Status::InvalidArgument("checkpoint: truncated gaussian");
  }
  return math::Gaussian::FromPrecision(std::move(mean), std::move(precision));
}

StatusOr<TopicStatsSnapshot> TakeTopicStats(Reader& reader) {
  TopicStatsSnapshot s;
  s.n = reader.Take<uint64_t>();
  s.sum = reader.TakeVec<double>();
  s.sum_outer = reader.TakeVec<double>();
  if (reader.failed() || s.sum_outer.size() != s.sum.size() * s.sum.size()) {
    return Status::InvalidArgument("checkpoint: malformed topic stats");
  }
  return s;
}

Status StructuralCheck(const CheckpointState& state) {
  const CheckpointFingerprint& fp = state.fingerprint;
  size_t k_count = static_cast<size_t>(fp.num_topics);
  size_t d_count = static_cast<size_t>(fp.num_documents);
  size_t v_count = static_cast<size_t>(fp.vocab_size);
  if (fp.num_topics < 1 || fp.alpha <= 0.0 || fp.gamma <= 0.0 ||
      fp.num_threads < 0) {
    return Status::InvalidArgument("checkpoint: invalid fingerprint");
  }
  if (state.completed_sweeps < 0) {
    return Status::InvalidArgument("checkpoint: negative sweep index");
  }
  if (state.y.size() != d_count || state.z.size() != d_count ||
      state.n_dk.size() != d_count) {
    return Status::InvalidArgument("checkpoint: document count mismatch");
  }
  if (state.n_kv.size() != k_count || state.n_k.size() != k_count ||
      state.m_k.size() != k_count) {
    return Status::InvalidArgument("checkpoint: topic count mismatch");
  }
  for (int32_t yk : state.y) {
    if (yk < 0 || yk >= fp.num_topics) {
      return Status::OutOfRange("checkpoint: y assignment out of range");
    }
  }
  for (const auto& row : state.z) {
    for (int32_t zk : row) {
      if (zk < 0 || zk >= fp.num_topics) {
        return Status::OutOfRange("checkpoint: z assignment out of range");
      }
    }
  }
  for (const auto& row : state.n_dk) {
    if (row.size() != k_count) {
      return Status::InvalidArgument("checkpoint: n_dk row size mismatch");
    }
  }
  for (const auto& row : state.n_kv) {
    if (row.size() != v_count) {
      return Status::InvalidArgument("checkpoint: n_kv row size mismatch");
    }
  }
  if (fp.sampler == SamplerKind::kJoint) {
    if (state.gel_topics.size() != k_count ||
        state.emulsion_topics.size() != k_count) {
      return Status::InvalidArgument("checkpoint: missing topic gaussians");
    }
  } else {
    if (state.gel_stats.size() != k_count ||
        state.emulsion_stats.size() != k_count) {
      return Status::InvalidArgument("checkpoint: missing topic statistics");
    }
  }
  return Status::OK();
}

/// A nonzero sparse-sampler fingerprint byte or stale alias-section flag
/// marks a frame written by the removed sparse z-sampler.
Status SparseFrameRefused() {
  return Status::FailedPrecondition(
      "checkpoint: written by the removed sparse z-sampler; it cannot "
      "resume");
}

/// Parses "ckpt-<sweep>.ckpt"; returns -1 when the name does not match.
int SweepOfFileName(const std::string& name) {
  if (!StartsWith(name, kFilePrefix) || !EndsWith(name, kFileSuffix)) {
    return -1;
  }
  std::string_view digits(name);
  digits.remove_prefix(sizeof(kFilePrefix) - 1);
  digits.remove_suffix(sizeof(kFileSuffix) - 1);
  auto parsed = ParseInt(digits);
  if (!parsed.ok() || *parsed < 0) return -1;
  return static_cast<int>(*parsed);
}

}  // namespace

std::string CheckpointFingerprint::ToString() const {
  return StrFormat(
      "sampler=%d K=%d alpha=%.12g gamma=%.12g seed=%llu threads=%d "
      "optimize_alpha=%d emulsion=%d gmm_init=%d docs=%llu vocab=%llu",
      static_cast<int>(sampler), num_topics, alpha, gamma,
      static_cast<unsigned long long>(seed), num_threads,
      optimize_alpha ? 1 : 0, use_emulsion_likelihood ? 1 : 0,
      gmm_init ? 1 : 0, static_cast<unsigned long long>(num_documents),
      static_cast<unsigned long long>(vocab_size));
}

std::string EncodeCheckpoint(const CheckpointState& state) {
  std::string payload;
  const CheckpointFingerprint& fp = state.fingerprint;
  Put<int32_t>(payload, static_cast<int32_t>(fp.sampler));
  Put(payload, fp.num_topics);
  PutF64(payload, fp.alpha);
  PutF64(payload, fp.gamma);
  Put(payload, fp.seed);
  Put(payload, fp.num_threads);
  Put<uint8_t>(payload, fp.optimize_alpha ? 1 : 0);
  Put<uint8_t>(payload, fp.use_emulsion_likelihood ? 1 : 0);
  Put<uint8_t>(payload, fp.gmm_init ? 1 : 0);
  // The removed sparse sampler's slots: its flag, rebuild interval and MH
  // steps.
  Put<uint8_t>(payload, 0);
  Put<int32_t>(payload, 0);
  Put<int32_t>(payload, 0);
  Put(payload, fp.num_documents);
  Put(payload, fp.vocab_size);

  Put(payload, state.completed_sweeps);
  PutF64(payload, state.current_alpha);
  PutRngState(payload, state.master_rng);
  Put<uint64_t>(payload, state.shard_rngs.size());
  for (const auto& s : state.shard_rngs) PutRngState(payload, s);
  PutI32Vec(payload, state.y);
  Put<uint64_t>(payload, state.z.size());
  for (const auto& row : state.z) PutI32Vec(payload, row);
  Put<uint64_t>(payload, state.n_dk.size());
  for (const auto& row : state.n_dk) PutI32Vec(payload, row);
  Put<uint64_t>(payload, state.n_kv.size());
  for (const auto& row : state.n_kv) PutI32Vec(payload, row);
  PutI32Vec(payload, state.n_k);
  PutI32Vec(payload, state.m_k);

  Put<uint8_t>(payload, state.gel_topics.empty() ? 0 : 1);
  if (!state.gel_topics.empty()) {
    Put<uint64_t>(payload, state.gel_topics.size());
    for (const auto& g : state.gel_topics) PutGaussian(payload, g);
    Put<uint64_t>(payload, state.emulsion_topics.size());
    for (const auto& g : state.emulsion_topics) PutGaussian(payload, g);
  }
  PutF64Vec(payload, state.likelihood_trace);
  Put<uint8_t>(payload, state.gel_stats.empty() ? 0 : 1);
  if (!state.gel_stats.empty()) {
    Put<uint64_t>(payload, state.gel_stats.size());
    for (const auto& s : state.gel_stats) PutTopicStats(payload, s);
    Put<uint64_t>(payload, state.emulsion_stats.size());
    for (const auto& s : state.emulsion_stats) PutTopicStats(payload, s);
  }
  Put<uint8_t>(payload, 0);  // The removed stale alias-section flag.

  std::string frame;
  frame.reserve(kHeaderSize + payload.size() + sizeof(uint32_t));
  frame.append(kMagic, sizeof(kMagic));
  Put(frame, kVersion);
  Put<uint64_t>(frame, payload.size());
  frame += payload;
  Put(frame, Crc32(payload));
  return frame;
}

StatusOr<CheckpointState> DecodeCheckpoint(std::string_view bytes) {
  if (bytes.size() < kHeaderSize + sizeof(uint32_t)) {
    return Status::InvalidArgument("checkpoint: file shorter than header");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("checkpoint: bad magic");
  }
  uint32_t version;
  std::memcpy(&version, bytes.data() + sizeof(kMagic), sizeof(version));
  if (version != kVersion) {
    return Status::InvalidArgument("checkpoint: unsupported version " +
                                   std::to_string(version));
  }
  uint64_t payload_size;
  std::memcpy(&payload_size,
              bytes.data() + sizeof(kMagic) + sizeof(uint32_t),
              sizeof(payload_size));
  if (payload_size != bytes.size() - kHeaderSize - sizeof(uint32_t)) {
    return Status::InvalidArgument(
        "checkpoint: size mismatch (torn or truncated file)");
  }
  std::string_view payload = bytes.substr(kHeaderSize,
                                          static_cast<size_t>(payload_size));
  uint32_t stored_crc;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - sizeof(stored_crc),
              sizeof(stored_crc));
  if (Crc32(payload) != stored_crc) {
    return Status::InvalidArgument("checkpoint: CRC32 mismatch (corrupt file)");
  }

  Reader reader(payload);
  CheckpointState state;
  CheckpointFingerprint& fp = state.fingerprint;
  int32_t sampler = reader.Take<int32_t>();
  if (sampler != static_cast<int32_t>(SamplerKind::kJoint) &&
      sampler != static_cast<int32_t>(SamplerKind::kCollapsed)) {
    return Status::InvalidArgument("checkpoint: unknown sampler kind");
  }
  fp.sampler = static_cast<SamplerKind>(sampler);
  fp.num_topics = reader.Take<int32_t>();
  fp.alpha = reader.Take<double>();
  fp.gamma = reader.Take<double>();
  fp.seed = reader.Take<uint64_t>();
  fp.num_threads = reader.Take<int32_t>();
  fp.optimize_alpha = reader.Take<uint8_t>() != 0;
  fp.use_emulsion_likelihood = reader.Take<uint8_t>() != 0;
  fp.gmm_init = reader.Take<uint8_t>() != 0;
  // The removed sparse sampler's slots; only a frame it wrote sets the flag.
  if (reader.Take<uint8_t>() != 0) return SparseFrameRefused();
  reader.Take<int32_t>();  // Its alias rebuild interval.
  reader.Take<int32_t>();  // Its MH steps.
  fp.num_documents = reader.Take<uint64_t>();
  fp.vocab_size = reader.Take<uint64_t>();

  state.completed_sweeps = reader.Take<int32_t>();
  state.current_alpha = reader.Take<double>();
  state.master_rng = reader.TakeRngState();
  uint64_t shard_count = reader.Take<uint64_t>();
  if (reader.failed() || shard_count > 1u << 20) {
    return Status::InvalidArgument("checkpoint: bad shard count");
  }
  state.shard_rngs.reserve(static_cast<size_t>(shard_count));
  for (uint64_t s = 0; s < shard_count; ++s) {
    state.shard_rngs.push_back(reader.TakeRngState());
  }
  state.y = reader.TakeVec<int32_t>();
  uint64_t z_rows = reader.Take<uint64_t>();
  if (reader.failed() || z_rows != state.y.size()) {
    return Status::InvalidArgument("checkpoint: z/y row count mismatch");
  }
  state.z.reserve(static_cast<size_t>(z_rows));
  for (uint64_t d = 0; d < z_rows; ++d) {
    state.z.push_back(reader.TakeVec<int32_t>());
  }
  uint64_t n_dk_rows = reader.Take<uint64_t>();
  if (reader.failed() || n_dk_rows != state.y.size()) {
    return Status::InvalidArgument("checkpoint: n_dk row count mismatch");
  }
  for (uint64_t d = 0; d < n_dk_rows; ++d) {
    state.n_dk.push_back(reader.TakeVec<int32_t>());
  }
  uint64_t n_kv_rows = reader.Take<uint64_t>();
  if (reader.failed() || n_kv_rows > 1u << 20) {
    return Status::InvalidArgument("checkpoint: bad n_kv row count");
  }
  for (uint64_t k = 0; k < n_kv_rows; ++k) {
    state.n_kv.push_back(reader.TakeVec<int32_t>());
  }
  state.n_k = reader.TakeVec<int32_t>();
  state.m_k = reader.TakeVec<int32_t>();

  if (reader.Take<uint8_t>() != 0) {
    uint64_t gel_count = reader.Take<uint64_t>();
    if (reader.failed() || gel_count > 1u << 20) {
      return Status::InvalidArgument("checkpoint: bad gaussian count");
    }
    for (uint64_t k = 0; k < gel_count; ++k) {
      TEXRHEO_ASSIGN_OR_RETURN(math::Gaussian g, TakeGaussian(reader));
      state.gel_topics.push_back(std::move(g));
    }
    uint64_t emu_count = reader.Take<uint64_t>();
    if (reader.failed() || emu_count != gel_count) {
      return Status::InvalidArgument("checkpoint: gaussian count mismatch");
    }
    for (uint64_t k = 0; k < emu_count; ++k) {
      TEXRHEO_ASSIGN_OR_RETURN(math::Gaussian g, TakeGaussian(reader));
      state.emulsion_topics.push_back(std::move(g));
    }
  }
  state.likelihood_trace = reader.TakeVec<double>();
  if (reader.Take<uint8_t>() != 0) {
    uint64_t gel_count = reader.Take<uint64_t>();
    if (reader.failed() || gel_count > 1u << 20) {
      return Status::InvalidArgument("checkpoint: bad stats count");
    }
    for (uint64_t k = 0; k < gel_count; ++k) {
      TEXRHEO_ASSIGN_OR_RETURN(TopicStatsSnapshot s, TakeTopicStats(reader));
      state.gel_stats.push_back(std::move(s));
    }
    uint64_t emu_count = reader.Take<uint64_t>();
    if (reader.failed() || emu_count != gel_count) {
      return Status::InvalidArgument("checkpoint: stats count mismatch");
    }
    for (uint64_t k = 0; k < emu_count; ++k) {
      TEXRHEO_ASSIGN_OR_RETURN(TopicStatsSnapshot s, TakeTopicStats(reader));
      state.emulsion_stats.push_back(std::move(s));
    }
  }
  if (reader.Take<uint8_t>() != 0) return SparseFrameRefused();

  if (reader.failed()) {
    return Status::InvalidArgument("checkpoint: truncated payload");
  }
  if (!reader.exhausted()) {
    return Status::InvalidArgument("checkpoint: trailing bytes in payload");
  }
  TEXRHEO_RETURN_IF_ERROR(StructuralCheck(state));
  return state;
}

Status WriteCheckpointFile(const std::string& path,
                           const CheckpointState& state, FileOps& ops) {
  return AtomicWriteFile(path, EncodeCheckpoint(state), ops);
}

StatusOr<CheckpointState> ReadCheckpointFile(const std::string& path) {
  TEXRHEO_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return DecodeCheckpoint(bytes);
}

std::string CheckpointFileName(int sweep) {
  return StrFormat("%s%09d%s", kFilePrefix, sweep, kFileSuffix);
}

std::vector<std::string> ListCheckpointFiles(const std::string& dir) {
  std::vector<std::pair<int, std::string>> found;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    std::string name = entry.path().filename().string();
    int sweep = SweepOfFileName(name);
    if (sweep < 0) continue;
    found.emplace_back(sweep, entry.path().string());
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [sweep, path] : found) paths.push_back(std::move(path));
  return paths;
}

StatusOr<CheckpointState> LoadLatestValidCheckpoint(const std::string& dir,
                                                    std::string* path_out) {
  for (const std::string& path : ListCheckpointFiles(dir)) {
    auto state = ReadCheckpointFile(path);
    if (state.ok()) {
      if (path_out != nullptr) *path_out = path;
      return state;
    }
    // Torn / corrupt / unreadable: fall through to the next-newest file.
  }
  return Status::NotFound("no valid checkpoint in " + dir);
}

Status ValidateCheckpointAgainstDataset(const CheckpointState& state,
                                        const recipe::Dataset& dataset) {
  const auto& documents = dataset.documents;
  size_t k_count = static_cast<size_t>(state.fingerprint.num_topics);
  if (documents.size() != state.z.size() ||
      documents.size() != static_cast<size_t>(state.fingerprint.num_documents)) {
    return Status::InvalidArgument(
        "checkpoint document count disagrees with dataset "
        "(wrong or modified corpus)");
  }
  size_t vocab = dataset.term_vocab.size();
  if (vocab != static_cast<size_t>(state.fingerprint.vocab_size)) {
    return Status::InvalidArgument(
        "checkpoint vocabulary size disagrees with dataset "
        "(wrong or modified corpus)");
  }
  std::vector<std::vector<int32_t>> n_dk(
      documents.size(), std::vector<int32_t>(k_count, 0));
  std::vector<std::vector<int32_t>> n_kv(k_count,
                                         std::vector<int32_t>(vocab, 0));
  std::vector<int32_t> n_k(k_count, 0);
  std::vector<int32_t> m_k(k_count, 0);
  for (size_t d = 0; d < documents.size(); ++d) {
    const auto& doc = documents[d];
    if (doc.term_ids.size() != state.z[d].size()) {
      return Status::InvalidArgument(
          "checkpoint token count disagrees with dataset at document " +
          std::to_string(d) + " (wrong or modified corpus)");
    }
    for (size_t n = 0; n < doc.term_ids.size(); ++n) {
      if (doc.term_ids[n] < 0 ||
          static_cast<size_t>(doc.term_ids[n]) >= vocab) {
        return Status::OutOfRange("dataset term id outside vocabulary");
      }
      size_t k = static_cast<size_t>(state.z[d][n]);
      ++n_dk[d][k];
      ++n_kv[k][static_cast<size_t>(doc.term_ids[n])];
      ++n_k[k];
    }
    ++m_k[static_cast<size_t>(state.y[d])];
  }
  if (n_dk != state.n_dk || n_kv != state.n_kv || n_k != state.n_k ||
      m_k != state.m_k) {
    return Status::InvalidArgument(
        "checkpoint count matrices disagree with a rebuild from its "
        "assignments over this dataset (wrong or modified corpus)");
  }
  return Status::OK();
}

Status PruneCheckpoints(const std::string& dir, int keep_last, FileOps& ops) {
  std::vector<std::string> files = ListCheckpointFiles(dir);
  size_t keep = static_cast<size_t>(std::max(keep_last, 1));
  Status first_error = Status::OK();
  for (size_t i = keep; i < files.size(); ++i) {
    Status removed = ops.Remove(files[i]);
    if (!removed.ok() && first_error.ok()) first_error = removed;
  }
  return first_error;
}

}  // namespace texrheo::core
