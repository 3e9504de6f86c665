#include "obs/metrics.h"

#include <cassert>
#include <chrono>

#include "obs/clock.h"

namespace texrheo::obs {

namespace {

class SteadyClockImpl : public Clock {
 public:
  int64_t NowMicros() const override {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

}  // namespace

const Clock& Clock::Steady() {
  static const SteadyClockImpl clock;
  return clock;
}

Counter* MetricsRegistry::RegisterCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string key(name);
  assert(gauge_index_.find(key) == gauge_index_.end() &&
         histogram_index_.find(key) == histogram_index_.end());
  auto it = counter_index_.find(key);
  if (it != counter_index_.end()) return counters_[it->second].get();
  counters_.push_back(std::unique_ptr<Counter>(new Counter(key)));
  counter_index_.emplace(std::move(key), counters_.size() - 1);
  return counters_.back().get();
}

Gauge* MetricsRegistry::RegisterGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string key(name);
  assert(counter_index_.find(key) == counter_index_.end() &&
         histogram_index_.find(key) == histogram_index_.end());
  auto it = gauge_index_.find(key);
  if (it != gauge_index_.end()) return gauges_[it->second].get();
  gauges_.push_back(std::unique_ptr<Gauge>(new Gauge(key)));
  gauge_index_.emplace(std::move(key), gauges_.size() - 1);
  return gauges_.back().get();
}

LatencyHistogram* MetricsRegistry::RegisterHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string key(name);
  assert(counter_index_.find(key) == counter_index_.end() &&
         gauge_index_.find(key) == gauge_index_.end());
  auto it = histogram_index_.find(key);
  if (it != histogram_index_.end()) return &histograms_[it->second];
  histograms_.emplace_back();
  histogram_names_.push_back(key);
  histogram_index_.emplace(std::move(key), histograms_.size() - 1);
  return &histograms_.back();
}

MetricsSnapshot MetricsRegistry::TakeSnapshot() const {
  // The lock pins the registration tables (no handle is added mid-pass);
  // it does not serialize against increments, which are lock-free.
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.resize(counters_.size());
  // Reverse registration order: a counter registered (and, per the usage
  // contract, incremented) later in a request's pipeline is read first, so
  // "completion" counts can never be observed ahead of their "admission"
  // counterparts.
  for (size_t i = counters_.size(); i-- > 0;) {
    snap.counters[i] = {counters_[i]->name(), counters_[i]->Value()};
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& g : gauges_) {
    snap.gauges.emplace_back(g->name(), g->Value());
  }
  snap.histograms.reserve(histograms_.size());
  for (size_t i = 0; i < histograms_.size(); ++i) {
    snap.histograms.emplace_back(histogram_names_[i],
                                 histograms_[i].TakeSnapshot());
  }
  return snap;
}

std::string MetricsRegistry::RenderJson() const {
  return TakeSnapshot().ToJson().Serialize();
}

uint64_t MetricsSnapshot::CounterValue(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

double MetricsSnapshot::GaugeValue(std::string_view name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0.0;
}

const LatencyHistogram::Snapshot* MetricsSnapshot::Histogram(
    std::string_view name) const {
  for (const auto& [n, v] : histograms) {
    if (n == name) return &v;
  }
  return nullptr;
}

JsonValue MetricsSnapshot::ToJson() const {
  JsonValue root = JsonValue::MakeObject();
  root.AsObject()["schema_version"] = JsonValue::Number(2);
  JsonValue counter_obj = JsonValue::MakeObject();
  for (const auto& [name, value] : counters) {
    counter_obj.AsObject()[name] =
        JsonValue::Number(static_cast<double>(value));
  }
  root.AsObject()["counters"] = std::move(counter_obj);
  JsonValue gauge_obj = JsonValue::MakeObject();
  for (const auto& [name, value] : gauges) {
    gauge_obj.AsObject()[name] = JsonValue::Number(value);
  }
  root.AsObject()["gauges"] = std::move(gauge_obj);
  JsonValue hist_obj = JsonValue::MakeObject();
  for (const auto& [name, snap] : histograms) {
    JsonValue h = JsonValue::MakeObject();
    auto& obj = h.AsObject();
    obj["count"] = JsonValue::Number(static_cast<double>(snap.count));
    obj["sum_us"] = JsonValue::Number(static_cast<double>(snap.sum_micros));
    obj["max_us"] = JsonValue::Number(static_cast<double>(snap.max_micros));
    obj["mean_us"] = JsonValue::Number(snap.MeanMicros());
    obj["p50_us"] = JsonValue::Number(
        static_cast<double>(snap.QuantileUpperBound(0.50)));
    obj["p95_us"] = JsonValue::Number(
        static_cast<double>(snap.QuantileUpperBound(0.95)));
    obj["p99_us"] = JsonValue::Number(
        static_cast<double>(snap.QuantileUpperBound(0.99)));
    hist_obj.AsObject()[name] = std::move(h);
  }
  root.AsObject()["histograms"] = std::move(hist_obj);
  return root;
}

}  // namespace texrheo::obs
