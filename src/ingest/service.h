#ifndef TEXRHEO_INGEST_SERVICE_H_
#define TEXRHEO_INGEST_SERVICE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/joint_topic_model.h"
#include "ingest/record.h"
#include "ingest/wal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recipe/dataset.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "util/backoff.h"

namespace texrheo::ingest {

/// How a refresh cycle retrains and republishes the model.
struct RefreshTrainConfig {
  /// Hyperparameters of the model being refreshed. Must match the run
  /// that produced the checkpoints in `train.checkpoint_dir` — the warm
  /// start validates this and refuses a mismatched resume. The dataset
  /// grows between refreshes; num_documents/vocab_size are derived, not
  /// taken from here.
  core::JointTopicModelConfig train;
  /// Gibbs sweeps per refresh on top of the warm-started state. When no
  /// checkpoint exists yet (first deployment), train.sweeps cold-start
  /// sweeps run instead.
  int refresh_sweeps = 5;
  /// Directory receiving the packed model pairs (model-r<N>.dat/.idx).
  std::string model_dir;
  /// Feature map used to lift concentration ratios into feature space for
  /// the training documents (must match the base corpus funnel).
  recipe::FeatureConfig feature;
  /// Retry schedule for RefreshWithRetry.
  BackoffPolicy backoff;
  int max_attempts = 3;
  uint64_t backoff_seed = 0x16e57;
};

struct IngestServiceConfig {
  /// WAL segments, the delta-corpus file, and recovery state live here.
  std::string wal_dir;
  size_t wal_segment_bytes = 64 * 1024;
  RefreshTrainConfig refresh;
  /// Optional; refresh cycles emit refresh_cycle/build_dataset/train/
  /// pack/reload/compact spans when set. Not owned.
  obs::Tracer* tracer = nullptr;
};

/// Durable streaming ingestion in front of a serving QueryEngine.
///
/// Accept path (Ingest): canonicalize -> content-key dedup -> CRC-framed
/// WAL append + fsync -> acknowledge -> fold into the live engine delta
/// (eq. 5, queryable on return) -> register still-unknown
/// terms as pending. The acknowledgement is durable: after a crash,
/// Recover() replays the WAL and re-folds every acknowledged record
/// exactly once (redelivery of the same content re-acknowledges the
/// original sequence without a second WAL append).
///
/// Refresh path (Refresh / RefreshWithRetry): snapshot the accepted
/// records, rebuild the combined dataset (base corpus + previously
/// absorbed records + fresh WAL records; vocabulary extended append-only
/// so checkpointed term ids stay valid), warm-start Gibbs from the latest
/// checkpoint, run refresh sweeps, pack a fresh .dat/.idx pair, verify it
/// loads, drive the reload callback (engine reload or router rolling
/// reload), then absorb the covered records into the delta corpus and
/// compact the WAL. Every failure leaves the old snapshot serving and the
/// WAL accepting; RefreshWithRetry retries under util/backoff.
///
/// Counters register in pipeline order (accepted before deduped before
/// folded) in the *engine's* registry, so any METRICSZ snapshot obeys
/// ingest.records.accepted >= deduped >= folded.
class IngestService {
 public:
  struct IngestResult {
    uint64_t sequence = 0;  ///< Durable WAL sequence (original's on dedup).
    bool deduped = false;   ///< Content already acknowledged earlier.
    /// Topic the fold-in landed in; -1 when the fold was skipped (dedup)
    /// or shed under load (the record is still durable and will be
    /// covered by recovery/refresh).
    int topic = -1;
  };

  struct RefreshOutcome {
    uint32_t fingerprint = 0;
    std::string model_idx_path;
    uint64_t covered_sequence = 0;
    size_t trained_documents = 0;
    size_t vocab_size = 0;
    int attempts = 1;
  };

  /// `engine` executes fold-ins and (by default) reloads; `base_corpus`
  /// is the dataset the base model was trained on (may be null only if no
  /// refresh will ever run). Both must outlive the service. Counters
  /// register in the engine's metrics registry.
  static StatusOr<std::unique_ptr<IngestService>> Create(
      const IngestServiceConfig& config, serve::QueryEngine* engine,
      const recipe::Dataset* base_corpus, FileOps& ops = FileOps::Real());

  /// Replays the WAL and delta corpus: rebuilds the dedup index, re-folds
  /// every acknowledged record into the engine delta exactly once, and
  /// re-registers pending vocabulary terms. Call once, before serving.
  Status Recover();

  /// Accepts one record (see class comment). A returned OK is a durable
  /// acknowledgement.
  StatusOr<IngestResult> Ingest(const IngestRecord& record);

  /// One refresh cycle; see class comment. No-op Unavailable when another
  /// refresh is already running.
  StatusOr<RefreshOutcome> Refresh();

  /// Refresh with up to config.refresh.max_attempts attempts under the
  /// configured backoff. Sleeps between attempts.
  StatusOr<RefreshOutcome> RefreshWithRetry();

  /// Replaces the reload step (default: engine->ReloadFromFile). Used to
  /// drive a router's rolling reload across a replica fleet instead.
  void SetReloadCallback(std::function<Status(const std::string&)> cb);

  /// INGESTZ page: ingest pipeline + WAL + engine delta state.
  std::string RenderIngestz();

  uint64_t high_water_sequence() const;
  uint64_t absorbed_sequence() const;
  size_t live_records() const;
  size_t absorbed_records() const;

 private:
  IngestService(const IngestServiceConfig& config,
                serve::QueryEngine* engine,
                const recipe::Dataset* base_corpus, FileOps& ops);

  /// Folds one record into the engine delta and registers its unknown
  /// terms; returns the topic (or -1 on shed) without failing the caller.
  int FoldIntoEngine(const IngestRecord& record, uint64_t sequence);
  /// Refreshes the WAL gauges from the log's current state.
  void RefreshWalGauges();
  /// Serializes absorbed records + high-water mark to the delta-corpus
  /// file (atomic rewrite).
  Status PersistDeltaCorpus();
  StatusOr<RefreshOutcome> RefreshLocked();

  const IngestServiceConfig config_;
  serve::QueryEngine* engine_;            ///< Not owned.
  const recipe::Dataset* base_corpus_;    ///< Not owned; may be null.
  FileOps& ops_;

  std::unique_ptr<WriteAheadLog> wal_;

  mutable std::mutex mu_;
  /// Content key -> acknowledged sequence (0 for records absorbed before
  /// sequence tracking began). Guarded by mu_.
  std::unordered_map<std::string, uint64_t> dedup_;
  /// Acknowledged, not yet absorbed, by sequence. Guarded by mu_.
  std::map<uint64_t, IngestRecord> live_;
  /// Records absorbed into a refreshed model, in absorption order (this
  /// order is the model's document order beyond the base corpus, so it
  /// must stay stable for checkpoint warm starts). Guarded by mu_.
  std::vector<IngestRecord> absorbed_;
  uint64_t absorbed_sequence_ = 0;  // Guarded by mu_.
  uint64_t refresh_count_ = 0;      // Guarded by refresh_mu_.

  std::mutex refresh_mu_;  ///< At most one refresh cycle at a time.

  std::function<Status(const std::string&)> reload_cb_;

  // Pre-registered handles into the engine's registry.
  obs::Counter* accepted_ = nullptr;
  obs::Counter* deduped_ = nullptr;
  obs::Counter* folded_ = nullptr;
  obs::Counter* fold_failed_ = nullptr;
  obs::Counter* recovered_ = nullptr;
  obs::Counter* wal_appends_ = nullptr;
  obs::Counter* wal_rotations_ = nullptr;
  obs::Counter* wal_segments_removed_ = nullptr;
  obs::Counter* refresh_attempts_ = nullptr;
  obs::Counter* refresh_failures_ = nullptr;
  obs::Counter* refresh_success_ = nullptr;
  obs::Gauge* wal_segments_ = nullptr;
  obs::Gauge* wal_open_bytes_ = nullptr;
  obs::Gauge* wal_next_sequence_ = nullptr;
  obs::Gauge* live_gauge_ = nullptr;
  obs::Gauge* absorbed_gauge_ = nullptr;
};

/// Line-protocol command surface of texrheo_ingest (fronted by
/// serve::LineProtocolServer in handler mode):
///
///   PING
///   INGEST <name=ratio,...|-> [terms=a,b,...]   -> OK seq=N dedup=0|1 topic=K
///   REFRESH                                      -> OK refreshed fingerprint=..
///   INGESTZ                                      (multi-line, "." terminated)
///   STATSZ                                       (alias of INGESTZ)
///   METRICSZ                                     (engine registry JSON)
///   QUIT
class IngestCommandHandler : public serve::CommandHandler {
 public:
  /// Both must outlive the handler.
  IngestCommandHandler(IngestService* service, serve::QueryEngine* engine)
      : service_(service), engine_(engine) {}

  std::string Handle(const std::string& line, bool* quit,
                     serve::Deadline deadline) override;

 private:
  IngestService* service_;
  serve::QueryEngine* engine_;
};

}  // namespace texrheo::ingest

#endif  // TEXRHEO_INGEST_SERVICE_H_
