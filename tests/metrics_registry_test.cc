// MetricsRegistry: handle identity and idempotent registration, lock-free
// concurrent increments summing exactly, the reverse-registration-order
// snapshot guarantee (no snapshot ever shows a downstream counter ahead of
// its upstream), histogram integration, and METRICSZ JSON schema
// round-trip stability. ci.sh re-runs this binary under TSan.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "util/json.h"

namespace texrheo::obs {
namespace {

TEST(MetricsRegistryTest, RegistrationIsIdempotentAndStable) {
  MetricsRegistry registry;
  Counter* a = registry.RegisterCounter("x.count");
  Counter* again = registry.RegisterCounter("x.count");
  EXPECT_EQ(a, again);
  Gauge* g = registry.RegisterGauge("x.level");
  EXPECT_EQ(g, registry.RegisterGauge("x.level"));
  LatencyHistogram* h = registry.RegisterHistogram("x.latency_us");
  EXPECT_EQ(h, registry.RegisterHistogram("x.latency_us"));

  // Handles stay valid (same address) across later registrations.
  for (int i = 0; i < 100; ++i) {
    registry.RegisterCounter("filler." + std::to_string(i));
  }
  EXPECT_EQ(a, registry.RegisterCounter("x.count"));
  a->Increment(7);
  EXPECT_EQ(registry.TakeSnapshot().CounterValue("x.count"), 7u);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsSumExactly) {
  MetricsRegistry registry;
  Counter* counter = registry.RegisterCounter("concurrent.count");
  Gauge* gauge = registry.RegisterGauge("concurrent.sum");
  Gauge* peak = registry.RegisterGauge("concurrent.peak");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter, gauge, peak, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        gauge->Add(1.0);
        peak->SetMax(static_cast<double>(t * kPerThread + i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(gauge->Value(), static_cast<double>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(peak->Value(),
                   static_cast<double>(kThreads * kPerThread - 1));
}

// The statsz-glitch regression: writer threads increment upstream strictly
// before downstream, registration is in the same order, and NO snapshot may
// ever observe downstream > upstream. With a single-pass read in
// registration order this fails readily; the reverse-order read makes it
// impossible.
TEST(MetricsRegistryTest, SnapshotsAreMonotoneConsistent) {
  MetricsRegistry registry;
  Counter* accepted = registry.RegisterCounter("pipe.accepted");
  Counter* completed = registry.RegisterCounter("pipe.completed");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        accepted->Increment();
        completed->Increment();
      }
    });
  }
  for (int i = 0; i < 2000; ++i) {
    MetricsSnapshot snap = registry.TakeSnapshot();
    EXPECT_GE(snap.CounterValue("pipe.accepted"),
              snap.CounterValue("pipe.completed"))
        << "snapshot " << i << " shows completions ahead of admissions";
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(accepted->Value(), completed->Value());
}

TEST(MetricsRegistryTest, SnapshotLookupsDefaultWhenAbsent) {
  MetricsRegistry registry;
  MetricsSnapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.CounterValue("nope"), 0u);
  EXPECT_DOUBLE_EQ(snap.GaugeValue("nope"), 0.0);
  EXPECT_EQ(snap.Histogram("nope"), nullptr);
}

TEST(MetricsRegistryTest, HistogramsFlowIntoSnapshots) {
  MetricsRegistry registry;
  LatencyHistogram* hist = registry.RegisterHistogram("op.latency_us");
  hist->Record(100);
  hist->Record(200);
  hist->Record(400);
  MetricsSnapshot snap = registry.TakeSnapshot();
  const LatencyHistogram::Snapshot* h = snap.Histogram("op.latency_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3u);
  EXPECT_EQ(h->sum_micros, 700u);
  EXPECT_EQ(h->max_micros, 400u);
}

// The METRICSZ schema is a public contract: stable keys, schema_version 2,
// and a rendered document that parses back to the same values.
TEST(MetricsRegistryTest, JsonSchemaRoundTrips) {
  MetricsRegistry registry;
  registry.RegisterCounter("b.count")->Increment(3);
  registry.RegisterCounter("a.count")->Increment(1);
  registry.RegisterGauge("a.level")->Set(2.5);
  registry.RegisterHistogram("a.latency_us")->Record(50);

  std::string rendered = registry.RenderJson();
  auto parsed = JsonValue::Parse(rendered);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  const JsonValue* version = parsed->Find("schema_version");
  ASSERT_NE(version, nullptr);
  EXPECT_DOUBLE_EQ(version->AsNumber(), 2.0);

  const JsonValue* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_object());
  EXPECT_DOUBLE_EQ(counters->Find("a.count")->AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(counters->Find("b.count")->AsNumber(), 3.0);

  const JsonValue* gauges = parsed->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->Find("a.level")->AsNumber(), 2.5);

  const JsonValue* histograms = parsed->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* hist = histograms->Find("a.latency_us");
  ASSERT_NE(hist, nullptr);
  for (const char* key :
       {"count", "sum_us", "max_us", "mean_us", "p50_us", "p95_us",
        "p99_us"}) {
    EXPECT_NE(hist->Find(key), nullptr) << "histogram missing key " << key;
  }
  EXPECT_DOUBLE_EQ(hist->Find("count")->AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(hist->Find("sum_us")->AsNumber(), 50.0);

  // Rendering is deterministic for a fixed state (sorted object keys).
  EXPECT_EQ(rendered, registry.RenderJson());
}

}  // namespace
}  // namespace texrheo::obs
