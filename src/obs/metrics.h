#ifndef TEXRHEO_OBS_METRICS_H_
#define TEXRHEO_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/histogram.h"
#include "util/json.h"

namespace texrheo::obs {

/// Monotone counter. Increment is one atomic fetch_add; the handle is
/// registered once (cold path) and then used lock-free from any thread.
///
/// Increments use release ordering and snapshot reads use acquire ordering;
/// together with MetricsRegistry's reverse-registration-order snapshot this
/// is what makes pipeline-ordered counter pairs monotone-consistent (see
/// MetricsRegistry::TakeSnapshot).
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_release);
  }
  uint64_t Value() const { return value_.load(std::memory_order_acquire); }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  const std::string name_;
  std::atomic<uint64_t> value_{0};
};

/// Double-valued gauge (set / add / running max). Stored as an atomic
/// double; Add and SetMax are CAS loops, Set is a plain store.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_release); }
  void Add(double delta) {
    double prev = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(prev, prev + delta,
                                         std::memory_order_release,
                                         std::memory_order_relaxed)) {
    }
  }
  /// Raises the gauge to `v` if `v` is larger (peak tracking).
  void SetMax(double v) {
    double prev = value_.load(std::memory_order_relaxed);
    while (prev < v && !value_.compare_exchange_weak(
                           prev, v, std::memory_order_release,
                           std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_acquire); }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  const std::string name_;
  std::atomic<double> value_{0.0};
};

/// Point-in-time view of every registered metric. Counters and gauges are
/// in registration order; `Counter`/`Gauge`/`Histogram` look up by name
/// (0 / empty snapshot when absent, so render code stays branch-light).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, LatencyHistogram::Snapshot>> histograms;

  uint64_t CounterValue(std::string_view name) const;
  double GaugeValue(std::string_view name) const;
  const LatencyHistogram::Snapshot* Histogram(std::string_view name) const;

  /// Stable machine-readable form (the METRICSZ schema):
  ///   {"schema_version": 2,
  ///    "counters":   {name: integer, ...},
  ///    "gauges":     {name: number, ...},
  ///    "histograms": {name: {"count": n, "sum_us": n, "max_us": n,
  ///                          "mean_us": x, "p50_us": n, "p95_us": n,
  ///                          "p99_us": n}, ...}}
  /// Keys are sorted (JsonValue objects are ordered maps), so the rendered
  /// text is deterministic for a given state.
  JsonValue ToJson() const;
};

/// Process-wide named-metrics registry: the single source of truth every
/// statsz/metricsz page renders from.
///
/// Usage pattern: each subsystem registers its handles once at
/// construction (mutex-protected, idempotent — re-registering a name
/// returns the same handle), keeps the raw pointers, and bumps them on the
/// hot path with no registry involvement. Handles live as long as the
/// registry; they are never invalidated by later registrations.
///
/// Snapshot consistency contract: TakeSnapshot reads counters in *reverse
/// registration order*. Register counters in the order a request touches
/// them (admission first, completion last) and the snapshot is
/// monotone-consistent for every such pair: if each request increments A
/// strictly before B and A was registered before B, no snapshot will ever
/// show B > A. This is the whole fix for the classic
/// "completed > accepted" statsz glitch — one registry, one read pass,
/// pipeline-ordered reads — without any lock on the increment path.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or finds) a metric. The returned handle is owned by the
  /// registry and stays valid for the registry's lifetime. Registering the
  /// same name with two different types is a programming error and
  /// asserts in debug builds; in release the first registration wins and
  /// a fresh unconnected handle is returned for the mismatched request.
  Counter* RegisterCounter(std::string_view name);
  Gauge* RegisterGauge(std::string_view name);
  LatencyHistogram* RegisterHistogram(std::string_view name);

  /// One consistent pass over every metric (see class comment for the
  /// counter-ordering guarantee). Histograms are racy-but-monotone like
  /// LatencyHistogram::TakeSnapshot.
  MetricsSnapshot TakeSnapshot() const;

  /// TakeSnapshot().ToJson().Serialize() — the METRICSZ payload.
  std::string RenderJson() const;

 private:
  mutable std::mutex mu_;
  // unique_ptr elements give stable handle addresses across growth (the
  // handles themselves hold atomics and are neither movable nor copyable);
  // histograms are emplaced directly, which a deque never relocates.
  std::deque<std::unique_ptr<Counter>> counters_;
  std::deque<std::unique_ptr<Gauge>> gauges_;
  std::deque<LatencyHistogram> histograms_;
  std::deque<std::string> histogram_names_;
  std::unordered_map<std::string, size_t> counter_index_;
  std::unordered_map<std::string, size_t> gauge_index_;
  std::unordered_map<std::string, size_t> histogram_index_;
};

}  // namespace texrheo::obs

#endif  // TEXRHEO_OBS_METRICS_H_
