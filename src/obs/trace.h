#ifndef TEXRHEO_OBS_TRACE_H_
#define TEXRHEO_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/clock.h"
#include "obs/metrics.h"

namespace texrheo::obs {

/// One finished span: a named interval with an explicit parent, so a trace
/// is a forest (sweep -> shard-sample -> gaussian-update; request ->
/// admission -> batch-dispatch -> fold-in). parent_id == 0 means root.
struct SpanRecord {
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  std::string name;
  int64_t start_micros = 0;
  int64_t duration_micros = 0;
};

class Tracer;

/// Move-only RAII span. Ends (and records) at destruction or on an
/// explicit End(); ending twice is a no-op. Children are created
/// explicitly — either from the span (same thread or not) or from the
/// tracer with the parent's id (for a parent on another thread or one
/// that has already ended, as a query's admission span has by the time
/// its fold_in span starts).
class TraceSpan {
 public:
  TraceSpan() = default;  ///< Inert span (no tracer); End is a no-op.
  TraceSpan(TraceSpan&& other) noexcept { *this = std::move(other); }
  TraceSpan& operator=(TraceSpan&& other) noexcept;
  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Stops the clock and hands the record to the tracer. Idempotent.
  void End();

  /// Child span starting now. Valid only before End().
  TraceSpan StartChild(std::string_view name);

  uint64_t span_id() const { return span_id_; }
  bool active() const { return tracer_ != nullptr; }

 private:
  friend class Tracer;
  TraceSpan(Tracer* tracer, uint64_t span_id, uint64_t parent_id,
            std::string name, int64_t start_micros)
      : tracer_(tracer),
        span_id_(span_id),
        parent_id_(parent_id),
        name_(std::move(name)),
        start_micros_(start_micros) {}

  Tracer* tracer_ = nullptr;  ///< Null once ended / moved-from.
  uint64_t span_id_ = 0;
  uint64_t parent_id_ = 0;
  std::string name_;
  int64_t start_micros_ = 0;
};

/// Span factory + bounded completed-span buffer.
///
/// The clock is injected (ManualClock in tests, Clock::Steady() in
/// production) and span ids come from one atomic, so traces are
/// deterministic whenever the clock and the span-creation order are.
/// Finished records land in a bounded ring (oldest dropped first, drops
/// counted) under a short mutex; when a MetricsRegistry is attached every
/// span additionally records its duration into a "trace.<name>_us"
/// histogram, which is how span timings reach METRICSZ without keeping
/// unbounded per-span state.
class Tracer {
 public:
  struct Options {
    /// Completed-record ring capacity. 0 disables record keeping entirely
    /// (durations still flow to the metrics registry) — the configuration
    /// for always-on production tracing.
    size_t max_records = 4096;
  };

  explicit Tracer(const Clock* clock = nullptr) : Tracer(clock, Options{}) {}
  Tracer(const Clock* clock, Options options);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Root span starting now.
  TraceSpan StartSpan(std::string_view name) {
    return StartSpanWithParent(name, 0);
  }

  /// Span parented to an already-known span id — the cross-thread /
  /// cross-component form (the id travels in a job struct; the parent may
  /// even have ended already, which is normal for queued work).
  TraceSpan StartSpanWithParent(std::string_view name, uint64_t parent_id);

  /// Mirror every span duration into `registry` as a
  /// "trace.<name>_us" histogram. Must be called before spans start.
  void ExportDurationsTo(MetricsRegistry* registry);

  /// Completed records, oldest first (a copy; the buffer keeps them).
  std::vector<SpanRecord> Records() const;

  /// Removes and returns all completed records, oldest first.
  std::vector<SpanRecord> Drain();

  /// Records lost to the ring bound since construction.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  const Clock& clock() const { return *clock_; }

 private:
  friend class TraceSpan;
  void Finish(const TraceSpan& span, int64_t end_micros);
  LatencyHistogram* HistogramFor(const std::string& span_name);

  const Clock* clock_;
  const Options options_;
  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<uint64_t> dropped_{0};
  MetricsRegistry* registry_ = nullptr;  ///< Not owned; may be null.

  mutable std::mutex mu_;
  std::deque<SpanRecord> records_;  // Guarded by mu_.
  /// Span-name -> histogram handle memo (guarded by mu_; the handle itself
  /// is then used lock-free).
  std::unordered_map<std::string, LatencyHistogram*> histograms_;
};

}  // namespace texrheo::obs

#endif  // TEXRHEO_OBS_TRACE_H_
