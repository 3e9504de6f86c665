// Set-up shared by the workloads: the paper-shaped training dataset, the
// held-out query set, the trained and packed model, and in-process serving
// fleets (replicas, router front, ingest front).
#ifndef PERFBENCH_FIXTURE_H_
#define PERFBENCH_FIXTURE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/joint_topic_model.h"
#include "core/serialization.h"
#include "embed/embedding.h"
#include "eval/experiment.h"
#include "ingest/service.h"
#include "recipe/dataset.h"
#include "serve/query_engine.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "stats.h"
#include "util/status.h"

namespace perfbench {

/// Command-line knobs that shape the inputs.
struct BenchOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Generator seed of the held-out query pool (differs from the training
  /// corpus seed, so the pool is new recipes).
  uint64_t heldout_seed = 20221001;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny-scale mode for the benchmark's own tests: a small corpus and
  /// short phases, so every metric is emitted within a few seconds.
  bool smoke = false;
  std::string work_dir;  ///< Scratch files (WAL, packed model, traces).
};

/// Wall time of the set-up stages the traced run reports (Estimate, pack
/// and load are timed by the layer probe instead).
struct SetupTimes {
  double generate_s = 0.0;  ///< corpus::CorpusGenerator::Generate.
  double dataset_s = 0.0;   ///< word2vec screen + recipe::BuildDataset.
  double sgns_s = 0.0;      ///< embed::TrainSgns.
};

/// The paper-shaped experiment configuration: DefaultExperimentConfig at
/// scale 1.0 (K = 10, word2vec screen on) with its own seeds.
texrheo::eval::ExperimentConfig PaperConfig(const BenchOptions& options);

/// Generator -> word2vec screen -> dataset funnel.
texrheo::StatusOr<texrheo::recipe::Dataset> BuildTrainingDataset(
    const texrheo::eval::ExperimentConfig& config, SetupTimes* times);

/// One held-out recipe as a protocol query.
struct HeldOut {
  std::string ingredients;  ///< "gelatin=0.0123,milk=0.2" (or "-").
  std::string terms;        ///< "katai,purupuru" (may be empty).
  texrheo::serve::TextureQuery query;
  /// "<ingredients> terms=<terms>": the argument tail of a command line.
  std::string Args() const {
    return terms.empty() ? ingredients : ingredients + " terms=" + terms;
  }
};

/// Recipes from the generator under `heldout_seed`, run through the same
/// funnel, deduplicated by canonical query key and checked absent from the
/// training corpus (an overlap is an error). Order is seeded-shuffled.
texrheo::StatusOr<std::vector<HeldOut>> BuildHeldOut(
    const texrheo::eval::ExperimentConfig& config, uint64_t heldout_seed,
    const texrheo::recipe::Dataset& training);

/// Trained model, its embeddings, and the packed binary pair.
struct PackedModel {
  texrheo::core::ModelSnapshot model;
  texrheo::embed::EmbeddingTable embeddings;
  std::string idx_path;
  std::shared_ptr<const texrheo::serve::ServingSnapshot> snapshot;
};

/// Train -> Estimate -> SGNS -> WriteModelBinary -> FromFile(.idx).
texrheo::StatusOr<PackedModel> TrainAndPack(
    const texrheo::eval::ExperimentConfig& config,
    const texrheo::recipe::Dataset& dataset, const std::string& base_path,
    SetupTimes* times);

struct FleetOptions {
  int replicas = 1;
  bool router = false;
  bool ingest = false;
  std::string wal_dir;  ///< Required with ingest; emptied first.
};

/// In-process fleet: `replicas` engines (default QueryEngineConfig, corpus
/// attached) behind LineProtocolServers, optionally a ReplicaRouter front
/// and an ingest front over replica 0's engine.
struct Fleet {
  FleetOptions options;  ///< What StartFleet built this fleet from.
  struct Replica {
    std::unique_ptr<texrheo::serve::QueryEngine> engine;
    std::unique_ptr<texrheo::serve::LineProtocolServer> server;
  };
  std::vector<Replica> replicas;
  std::unique_ptr<texrheo::serve::ReplicaRouter> router;
  std::unique_ptr<texrheo::serve::LineProtocolServer> router_server;
  std::unique_ptr<texrheo::ingest::IngestService> ingest;
  std::unique_ptr<texrheo::ingest::IngestCommandHandler> ingest_handler;
  std::shared_ptr<texrheo::obs::MetricsRegistry> ingest_server_metrics;
  std::unique_ptr<texrheo::serve::LineProtocolServer> ingest_server;

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() { Stop(); }
  /// Stops fronts before replicas, router before the servers it probes.
  void Stop();
};

texrheo::StatusOr<std::unique_ptr<Fleet>> StartFleet(
    const FleetOptions& options,
    std::shared_ptr<const texrheo::serve::ServingSnapshot> snapshot,
    const texrheo::recipe::Dataset* corpus);

/// A client connection to 127.0.0.1:`port` with a 10 s I/O budget.
texrheo::StatusOr<std::unique_ptr<texrheo::serve::LineClient>> Connect(
    int port);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// File-system type name of `path` ("ext4", "tmpfs", "overlay", ...).
std::string FileSystemType(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURE_H_
