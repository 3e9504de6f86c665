#ifndef TEXRHEO_SERVE_QUERY_ENGINE_H_
#define TEXRHEO_SERVE_QUERY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/linkage.h"
#include "math/linalg.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recipe/dataset.h"
#include "rheology/empirical_data.h"
#include "serve/batcher.h"
#include "serve/doc_store.h"
#include "serve/snapshot.h"
#include "util/histogram.h"
#include "util/lru_cache.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace texrheo::serve {

/// Tuning of a QueryEngine instance. Defaults are sized for the toy serving
/// path; a production deployment raises cache_capacity / max_queue.
struct QueryEngineConfig {
  /// Gibbs sweeps per fold-in (eq.-5 scoring of an unseen recipe).
  int fold_in_sweeps = 25;
  /// Symmetric Dirichlet on the query document's theta. The model file does
  /// not persist training alpha, so serving declares its own (default
  /// matches JointTopicModelConfig::alpha).
  double alpha = 0.3;
  /// Seed of the per-query RNG streams: query N draws from
  /// Rng::ForStream(seed, N), so a single-client session is reproducible.
  uint64_t seed = 1234;
  /// ThreadPool parallelism used *inside* a fold-in batch. 0 = hardware
  /// concurrency, 1 = run batches on the dispatcher thread alone.
  int num_threads = 1;

  /// PredictTexture result cache (canonicalized keys). 0 disables.
  size_t cache_capacity = 4096;
  /// Quantization step of the canonical key, in concentration-ratio units.
  double cache_quantum = 1e-4;

  /// Admission control + micro-batching (see FoldInBatcher).
  size_t max_queue = 256;
  size_t batch_max_size = 16;
  int batch_linger_micros = 200;

  /// Result sizing.
  int top_terms = 8;
  size_t max_similar = 20;

  /// SimilarRecipes result cache (keyed by canonical query key + mode +
  /// top_n, flushed on reload). 0 disables.
  size_t similar_cache_capacity = 1024;

  /// Weighted reciprocal-rank fusion of the three SIMILAR backends
  /// (mode=fused): score(d) = sum_m w_m / (rrf_k + rank_m(d)), ranks
  /// 1-based within the query's topic. The KL backend carries the paper's
  /// Section V.B signal and dominates; embeddings and term overlap are
  /// corrective perspectives. Defaults tuned on bench_similarity's
  /// template-precision sweep (ci.sh --bench gates fused >= every single
  /// backend at these values).
  double fusion_kl_weight = 1.0;
  double fusion_embed_weight = 0.1;
  double fusion_lexical_weight = 0.1;
  double fusion_rrf_k = 60.0;

  /// Concentration -> feature transform; must match training.
  recipe::FeatureConfig feature;
  /// Default Table-I linkage scoring for NearestRheology.
  core::LinkageOptions linkage;

  /// Registry every serve.* metric lives in — the single source of truth
  /// STATSZ and METRICSZ render from. Shared so the protocol server and
  /// the periodic metrics writer see the same counters. Null => the engine
  /// creates (and owns) its own.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  /// Optional tracer (not owned; must outlive the engine). When set, every
  /// query produces an admission span, and each dispatched batch produces
  /// a batch_dispatch span with per-job fold_in children parented to the
  /// requests' admission spans. Never consulted on the RNG path.
  obs::Tracer* tracer = nullptr;
};

/// One texture query: the observables of an *unseen* recipe. Concentration
/// vectors are raw ratios (same space as recipe::Concentrations); either
/// may be empty, meaning all-zero. texture_terms are optional surface
/// forms; words outside the model vocabulary are ignored (counted in
/// stats, not errors — recipe text is noisy).
struct TextureQuery {
  math::Vector gel_concentration;
  math::Vector emulsion_concentration;
  std::vector<std::string> texture_terms;
};

/// Builds a TextureQuery from free-form (ingredient name, concentration
/// ratio) pairs, resolving names through the embedded ingredient database.
/// Order-independent: {gelatin: .02, milk: .1} == {milk: .1, gelatin: .02}.
/// Non-gel, non-emulsion ingredients (water, fruit...) are ignored — they
/// do not enter the model's concentration space. Unknown names are errors.
/// Duplicate names accumulate.
StatusOr<TextureQuery> QueryFromIngredients(
    const std::vector<std::pair<std::string, double>>& ingredients,
    std::vector<std::string> texture_terms = {});

/// PredictTexture answer: where the recipe lands in topic space and what
/// texture its topic's terms describe.
struct TexturePrediction {
  std::vector<double> theta;  ///< Eq.-5 fold-in estimate.
  int topic = 0;              ///< argmax theta.
  /// Theta-weighted per-pole term mass across topics (the per-category
  /// texture-term distribution of the query).
  CategoryMasses categories;
  /// Theta-weighted phi, top terms descending: (surface, probability).
  std::vector<std::pair<std::string, double>> top_terms;
  bool from_cache = false;
  uint32_t model_fingerprint = 0;
};

/// One Table-I rheometer setting ranked against a topic.
struct RheologyMatch {
  int setting_id = 0;
  std::string source;
  double divergence = 0.0;
  rheology::TpaAttributes attributes;
};

/// Ranking backend of SimilarRecipes. All modes rank within the query's
/// topic (the paper's Section V.B scoping); they differ in the distance:
///  - kKl: emulsion-concentration KL (the paper's ranking, the default);
///  - kEmbed: cosine distance between mean ingredient-embedding vectors
///    (requires a snapshot with embeddings and in-vocabulary terms=);
///  - kLexical: 1 - Jaccard overlap of the term bags;
///  - kFused: weighted reciprocal-rank fusion of all three (see
///    QueryEngineConfig fusion_* weights; requires embeddings).
enum class SimilarityMode : uint8_t {
  kKl = 0,
  kEmbed = 1,
  kLexical = 2,
  kFused = 3,
};
inline constexpr size_t kNumSimilarityModes = 4;

/// Wire/display name: "kl", "embed", "lexical", "fused".
const char* SimilarityModeName(SimilarityMode mode);

/// Inverse of SimilarityModeName; InvalidArgument on anything else.
StatusOr<SimilarityMode> ParseSimilarityMode(std::string_view name);

struct SimilarRecipesResult {
  int topic = 0;
  SimilarityMode mode = SimilarityMode::kKl;
  bool from_cache = false;
  std::vector<SimilarRecipe> recipes;  ///< Nearest first.
};

/// TopicCard answer: a one-topic summary (phi top terms + Gaussian means
/// mapped back to concentration space).
struct TopicCardResult {
  int topic = 0;
  int recipe_count = 0;
  std::vector<std::pair<std::string, double>> top_terms;
  CategoryMasses categories;
  math::Vector gel_mean_concentration;
  math::Vector emulsion_mean_concentration;
};

/// Point-in-time view of the engine's streamed-delta state (INGESTZ).
struct DeltaStats {
  uint64_t folded = 0;        ///< Lifetime recipes folded via FoldInDelta.
  uint64_t delta_docs = 0;    ///< Resident in the served state's delta.
  uint64_t pending_terms = 0;
  uint64_t stale_vocab_queries = 0;
  uint64_t delta_generation = 0;
};

/// Point-in-time engine statistics.
struct QueryEngineStats {
  LatencyHistogram::Snapshot predict;
  LatencyHistogram::Snapshot nearest;
  LatencyHistogram::Snapshot similar;
  LatencyHistogram::Snapshot topic_card;
  LruCacheStats cache;
  FoldInBatcher::Stats batcher;
  uint64_t reloads = 0;
  uint64_t errors = 0;
  uint64_t unknown_terms = 0;
  uint32_t model_fingerprint = 0;
};

/// Concurrent serving layer over one trained model.
///
/// All four query methods are safe to call from any number of threads.
/// The model lives in an immutable ServingSnapshot behind a
/// shared_ptr swap: readers take a reference under a short lock, then work
/// entirely on their private reference, so Reload never blocks or fails an
/// in-flight query — it only changes what *subsequent* queries see.
/// PredictTexture misses flow through the FoldInBatcher (bounded queue,
/// micro-batching, shed-with-Unavailable under overload) and land in a
/// canonicalized LRU result cache.
class QueryEngine {
 public:
  /// `corpus` (optional, may be null) enables SimilarRecipes: its documents
  /// are indexed by topic at construction and on every reload. The corpus
  /// must outlive the engine.
  static StatusOr<std::unique_ptr<QueryEngine>> Create(
      const QueryEngineConfig& config,
      std::shared_ptr<const ServingSnapshot> snapshot,
      const recipe::Dataset* corpus);

  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Folds the query into the model and reports its per-category
  /// texture-term distribution (paper eq. 5). Cached by canonical key.
  /// `deadline` is the request's absolute budget: a query that has already
  /// blown it is shed with DeadlineExceeded at batcher admission (or while
  /// queued) instead of occupying a batch slot. Cache hits always succeed —
  /// answering from memory is cheaper than shedding.
  /// `trace_parent` (0 = root) parents the query's admission span, letting
  /// a protocol front-end stitch request -> admission across layers.
  StatusOr<TexturePrediction> PredictTexture(const TextureQuery& query,
                                             Deadline deadline = kNoDeadline,
                                             uint64_t trace_parent = 0);

  /// Ranks the paper's Table-I rheometer settings by divergence to
  /// `topic`'s gel Gaussian (Section III.C.4 linkage), nearest first.
  /// `options` overrides the config default when non-null.
  StatusOr<std::vector<RheologyMatch>> NearestRheology(
      int topic, const core::LinkageOptions* options = nullptr);

  /// Places the query in its topic, then ranks that topic's indexed and
  /// streamed recipes under `mode` (see SimilarityMode), nearest first, ties
  /// on ascending recipe_index. top_n == 0 uses config.max_similar.
  /// `deadline` guards the embedded fold-in exactly as in PredictTexture.
  /// Results are cached per (canonical query, mode, top_n) — the mode is
  /// part of the key, so a kl answer can never be served for a fused query.
  StatusOr<SimilarRecipesResult> SimilarRecipes(
      const TextureQuery& query, size_t top_n = 0,
      Deadline deadline = kNoDeadline, uint64_t trace_parent = 0,
      SimilarityMode mode = SimilarityMode::kKl);

  /// Summarizes one topic (phi top terms + Gaussian summaries).
  StatusOr<TopicCardResult> TopicCard(int topic);

  /// Folds an accepted streamed recipe into the live serving state via the
  /// eq.-5 path (through the batcher, so it is queryable within one batch
  /// linger) and returns the topic it landed in. Delta documents join
  /// SimilarRecipes rankings with recipe_index >= the indexed corpus size,
  /// scored exactly as a corpus recipe with the same content. The delta
  /// belongs to the serving state the recipe was folded against, so a
  /// Reload starts an empty one (a refreshed model has absorbed the
  /// recipes; the ingest layer re-folds any it has not). A nonzero
  /// `ingest_sequence` already resident in the delta is not folded again:
  /// the call returns the resident record's topic. Not counted as a query
  /// — the ingest layer keeps its own pipeline counters.
  StatusOr<int> FoldInDelta(const TextureQuery& query,
                            uint64_t ingest_sequence,
                            Deadline deadline = kNoDeadline);

  /// Registers surface terms the ingest layer has durably accepted but the
  /// served vocabulary does not know yet. Queries naming a pending term
  /// get a clean FailedPrecondition (counted in serve.queries.stale_vocab)
  /// instead of a silently degraded answer; terms resolve automatically at
  /// the reload that brings them into the vocabulary. Terms already in the
  /// served vocabulary are ignored.
  void NotePendingTerms(const std::vector<std::string>& terms);

  DeltaStats GetDeltaStats() const;

  /// Renders the engine's INGESTZ section (delta + pending-term state).
  std::string RenderIngestz() const;

  /// Atomically swaps in a new model snapshot: validates it, rebuilds the
  /// corpus topic index against it, flushes the (now stale) result cache,
  /// and publishes. In-flight queries complete against the snapshot they
  /// started with; zero queries fail due to a reload.
  Status Reload(std::shared_ptr<const ServingSnapshot> snapshot);

  /// Reload() from a model file on disk: `.idx`/`.dat` paths mmap the
  /// packed binary pair (reload becomes an mmap + pointer swap), anything
  /// else parses the v2 text format.
  Status ReloadFromFile(const std::string& path);

  /// Snapshot currently being served.
  std::shared_ptr<const ServingSnapshot> snapshot() const;

  QueryEngineStats GetStats() const;

  /// The registry backing this engine (never null). The protocol server
  /// registers its serve.server.* counters here so one snapshot covers the
  /// whole serving stack.
  obs::MetricsRegistry* metrics() const { return metrics_.get(); }
  obs::Tracer* tracer() const { return config_.tracer; }

  /// Refreshes derived gauges (cache occupancy and friends) and takes one
  /// consistent snapshot of the registry. Every STATSZ/METRICSZ render
  /// starts here, so the two pages can never disagree with each other.
  obs::MetricsSnapshot TakeMetricsSnapshot() const;

  /// Renders the engine sections of the /statsz page from an
  /// already-taken snapshot (so server sections can share the same one).
  std::string RenderStatsz(const obs::MetricsSnapshot& snap) const;

  /// Human-readable multi-line counters dump (the /statsz page).
  std::string Statsz() const;

  /// METRICSZ payload: the registry snapshot JSON with a "model" object
  /// (fingerprint/topics/vocab/source) spliced into the root.
  std::string MetricszJson() const;

  const QueryEngineConfig& config() const { return config_; }

 private:
  /// Serving state bundle; replaced wholesale on reload so the snapshot
  /// and the documents indexed against it can never be observed out of
  /// sync.
  struct ServingState {
    std::shared_ptr<const ServingSnapshot> snapshot;
    /// SimilarRecipes candidates: the corpus (base segment, filled before
    /// the state is published) and the recipes FoldInDelta folded against
    /// this snapshot (delta segment, the one part of a published state that
    /// grows). Never null; views embeddings in `snapshot`, which this
    /// bundle co-owns.
    std::unique_ptr<DocStore> docs;
  };

  QueryEngine(const QueryEngineConfig& config, const recipe::Dataset* corpus);

  std::shared_ptr<const ServingState> state() const;
  static std::shared_ptr<const ServingState> BuildState(
      std::shared_ptr<const ServingSnapshot> snapshot,
      const recipe::Dataset* corpus);

  /// Resolves surface terms to vocab ids against `snapshot`; unknown
  /// surfaces are dropped and counted.
  std::vector<int32_t> ResolveTerms(const ServingSnapshot& snapshot,
                                    const std::vector<std::string>& terms);
  /// FailedPrecondition when a query term is out of the served vocabulary
  /// but known to be pending in the ingest pipeline (satellite contract:
  /// fail clean, never silently drop a term the WAL already holds).
  Status CheckTermFreshness(const ServingSnapshot& snapshot,
                            const std::vector<std::string>& terms);
  Status ValidateQuery(const TextureQuery& query) const;
  /// Fills the derived fields of a prediction from theta.
  TexturePrediction BuildPrediction(const ServingSnapshot& snapshot,
                                    std::vector<double> theta) const;
  void RunBatch(std::vector<FoldInJob>& batch);
  void RefreshDerivedGauges() const;

  const QueryEngineConfig config_;
  const recipe::Dataset* corpus_;  ///< Not owned; may be null.

  mutable std::mutex state_mu_;
  std::shared_ptr<const ServingState> state_;  // Guarded by state_mu_.

  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<FoldInBatcher> batcher_;
  LruCache<std::string, TexturePrediction> cache_;
  /// SIMILAR results keyed by canonical query key + mode + top_n; flushed
  /// together with cache_ on reload.
  LruCache<std::string, SimilarRecipesResult> similar_cache_;

  /// All counters/gauges/latency histograms live in the registry; the
  /// members below are pre-registered handles (lock-free on the hot path).
  /// serve.queries.accepted is registered before the batcher's pipeline
  /// counters and serve.queries.completed after them, matching the order a
  /// request touches them, so registry snapshots are monotone-consistent:
  /// accepted >= batcher.submitted >= batcher.jobs_processed and
  /// accepted >= completed in every snapshot.
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  obs::Counter* queries_accepted_ = nullptr;
  obs::Counter* queries_completed_ = nullptr;
  obs::Counter* cache_hits_ = nullptr;
  obs::Counter* cache_misses_ = nullptr;
  obs::Counter* errors_ = nullptr;
  obs::Counter* unknown_terms_ = nullptr;
  obs::Counter* stale_vocab_ = nullptr;
  obs::Counter* delta_folded_ = nullptr;
  obs::Counter* reloads_ = nullptr;
  obs::Gauge* delta_docs_gauge_ = nullptr;
  obs::Gauge* pending_terms_gauge_ = nullptr;
  /// serve.similar.mode.{kl,embed,lexical,fused}, indexed by
  /// SimilarityMode. Registered right after accepted, so snapshots obey
  /// accepted >= sum(mode counters).
  obs::Counter* similar_mode_[kNumSimilarityModes] = {};
  obs::Counter* similar_cache_hits_ = nullptr;
  obs::Counter* similar_cache_misses_ = nullptr;
  obs::Gauge* cache_size_ = nullptr;
  obs::Gauge* cache_capacity_ = nullptr;
  obs::Gauge* cache_evictions_ = nullptr;
  obs::Gauge* cache_insertions_ = nullptr;
  LatencyHistogram* predict_latency_ = nullptr;
  LatencyHistogram* nearest_latency_ = nullptr;
  LatencyHistogram* similar_latency_ = nullptr;
  LatencyHistogram* topic_card_latency_ = nullptr;

  std::atomic<uint64_t> sequence_{0};

  /// delta_generation_ versions the SIMILAR cache key so a fold-in or
  /// reload invalidates cached rankings without flushing unrelated entries.
  mutable std::mutex pending_mu_;
  std::unordered_set<std::string> pending_terms_;  // Guarded by pending_mu_.
  std::atomic<uint64_t> delta_generation_{0};
};

}  // namespace texrheo::serve

#endif  // TEXRHEO_SERVE_QUERY_ENGINE_H_
