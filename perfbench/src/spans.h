// Benchmark-side tracing: spans recorded around the calls the harness makes
// into the program, kept in memory and written out when the run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root.
  uint64_t request = 0;  ///< Shared by every span of one request.
  std::string name;
  int64_t start_ns = 0;  ///< Since the log's epoch.
  int64_t end_ns = 0;
};

/// Thread-safe in-memory span store. A disabled log records nothing and
/// costs one branch per span, so workload loops take a log unconditionally.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  /// Reserves an id for a span that is about to start.
  uint64_t NextId() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_id_;
  }

  void Add(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Durations (ns) of every span called `name`.
  std::vector<double> DurationsNs(const std::string& name) const;

  /// Self time (ns) of every span called `name`: its duration minus the
  /// part of its interval that its children cover.
  std::vector<double> SelfTimesNs(const std::string& name) const;

  /// Writes one JSON object per span, with its self time, to `path`.
  bool WriteJsonl(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 0;     // Guarded by mu_.
  std::vector<Span> spans_;  // Guarded by mu_.
};

/// RAII span: records [construction, End()/destruction) when the log is on.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, uint64_t parent = 0,
             uint64_t request = 0)
      : log_(log) {
    if (!log_.enabled()) return;
    span_.id = log_.NextId();
    span_.parent = parent;
    span_.request = request;
    span_.name = name;
    span_.start_ns = log_.NowNs();
  }
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void End() {
    if (!log_.enabled() || ended_) return;
    ended_ = true;
    span_.end_ns = log_.NowNs();
    log_.Add(span_);
  }
  uint64_t id() const { return span_.id; }

 private:
  SpanLog& log_;
  Span span_;
  bool ended_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
