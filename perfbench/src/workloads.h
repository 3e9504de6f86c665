// The two workloads (train, serve-lone) and the per-layer probe of the
// traced run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fixture.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

/// Everything set-up builds for one workload. Heap-allocated and never
/// moved: the fleet's engines point at `dataset`.
struct Context {
  BenchOptions options;
  texrheo::eval::ExperimentConfig config;
  SetupTimes times;
  texrheo::recipe::Dataset dataset;
  std::vector<HeldOut> heldout;       ///< Serving workloads and traced runs.
  std::unique_ptr<PackedModel> packed;  ///< Serving workloads and traced runs.
  std::unique_ptr<Fleet> fleet;       ///< serve-lone only.
};

/// Builds the Context for `options.workload`. `for_probe` also builds the
/// serving model a traced run's layer probe needs.
texrheo::StatusOr<std::unique_ptr<Context>> Setup(const BenchOptions& options,
                                                  bool for_probe);

/// Replaces the context's fleet with a fresh one built the same way: cold
/// caches, engine query sequence back at 0, empty WAL. No-op without one.
texrheo::Status RestartFleet(Context& ctx);

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// A workload's BENCHMARK.json end-to-end slots: p50_us, p99_us,
  /// side_p50_us, rate_per_s (setup_s and peak_rss_mb are added by main).
  /// The layer probe's per-layer metrics.
  MetricMap metrics;
  /// The same numbers under their workload-specific names
  /// (train.sweeps_per_s, lone.predict_p50_us, ...).
  MetricMap named;
  std::vector<std::string> notes;
  std::string error;  ///< Non-empty: the run could not produce its metrics.
};

RunResult RunTrain(Context& ctx, double seconds, SpanLog& spans);
RunResult RunLone(Context& ctx, double seconds, SpanLog& spans);

/// The traced run's layer probe: replays requests through each layer's
/// public entry point in-process and returns every per-layer metric except
/// trace.overhead_pct. A short routed read/write mix on a fleet of its own
/// gives the router, ingest, batching and cache counters; its requests are
/// checked and counted in the result's attempted and failed.
RunResult RunLayerProbe(Context& ctx, SpanLog& spans);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
