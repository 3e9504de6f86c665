// Streaming-ingestion SLO benchmark: an in-process IngestService in front
// of a 3-engine "fleet" (the reload callback walks the replicas the way
// the router's ROLLING_RELOAD does).
//
// Two numbers matter and both are measured here:
//   - arrival -> queryable latency: wall time from calling Ingest() to the
//     recipe's content answering a PREDICT against the live snapshot (WAL
//     append + fsync + content-key dedup + eq.-5 fold-in + query).
//   - refresh-window availability: a fixed-cadence query stream runs
//     across a full refresh cycle (retrain over base + streamed records,
//     pack, verify, rolling reload of all three replicas, WAL compaction);
//     availability is the fraction of queries answered OK. Scheduled
//     arrivals, so a stalled swap shows up as failures, not as silence.
//
// Writes bench/out/ingest.json. ci.sh --bench gates on:
//   - refresh_window.availability >= 0.99
//   - refresh_window.fingerprint_changed == true (the refresh was real)
//
// Flags: --records <n> (default 200) --qps <n> (default 1000)
//        --out <path> (default bench/out/ingest.json)

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ingest/record.h"
#include "ingest/service.h"
#include "math/distributions.h"
#include "recipe/dataset.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "util/flags.h"
#include "util/json.h"

namespace texrheo {
namespace {

using std::chrono::duration_cast;
using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

math::Gaussian BenchGaussian(double mean, size_t dim) {
  auto g = math::Gaussian::FromPrecision(math::Vector(dim, mean),
                                         math::Matrix::Identity(dim, 4.0));
  return *g;
}

core::ModelSnapshot BenchModel() {
  core::ModelSnapshot model;
  model.vocab.Add("katai");
  model.vocab.Add("purupuru");
  model.vocab.Add("fuwafuwa");
  model.estimates.phi = {{0.8, 0.1, 0.1}, {0.1, 0.45, 0.45}};
  model.estimates.gel_topics = {BenchGaussian(2.0, 3), BenchGaussian(6.0, 3)};
  model.estimates.emulsion_topics = {BenchGaussian(1.0, 6),
                                     BenchGaussian(3.0, 6)};
  model.estimates.topic_recipe_count = {16, 16};
  return model;
}

recipe::Dataset BenchCorpus() {
  recipe::Dataset ds;
  ds.term_vocab.Add("katai");
  ds.term_vocab.Add("purupuru");
  ds.term_vocab.Add("fuwafuwa");
  for (int i = 0; i < 32; ++i) {
    recipe::Document doc;
    doc.recipe_index = static_cast<size_t>(i);
    doc.term_ids = i % 2 == 0 ? std::vector<int32_t>{0, 0}
                              : std::vector<int32_t>{1, 2};
    doc.gel_feature = math::Vector(3, i % 2 == 0 ? 2.0 : 6.0);
    doc.gel_concentration = math::Vector(3, 0.01);
    doc.emulsion_feature = math::Vector(6, 1.0 + 0.2 * (i % 4));
    doc.emulsion_concentration = math::Vector(6, 0.1 + 0.05 * (i % 4));
    ds.documents.push_back(std::move(doc));
  }
  return ds;
}

ingest::IngestRecord StreamedRecord(int i) {
  ingest::IngestRecord record;
  record.gel = math::Vector(3);
  record.gel[0] = 0.008 + 1e-5 * i;
  record.emulsion = math::Vector(6, 0.1 + 0.01 * (i % 5));
  record.terms = {i % 2 == 0 ? "katai" : "purupuru"};
  return record;
}

int64_t Percentile(const std::vector<int64_t>& sorted_us, double p) {
  if (sorted_us.empty()) return 0;
  size_t index =
      static_cast<size_t>(p * static_cast<double>(sorted_us.size() - 1));
  return sorted_us[index];
}

int Run(int argc, char** argv) {
  FlagParser flags;
  (void)flags.Parse(argc, argv);
  if (flags.GetBool("help", false)) {
    std::printf(
        "bench_ingest: arrival->queryable latency and refresh-window "
        "availability of the streaming ingestion tier.\n"
        "flags: --records <n> (default 200) --qps <n> (default 1000) "
        "--out <path>\n");
    return 0;
  }
  const int records =
      static_cast<int>(flags.GetInt("records", 200).value_or(200));
  const int qps = static_cast<int>(flags.GetInt("qps", 1000).value_or(1000));
  const std::string out_path =
      flags.GetString("out", "bench/out/ingest.json");
  const char* tmp = std::getenv("TMPDIR");
  const std::string data_dir = std::string(tmp != nullptr ? tmp : "/tmp") +
                               "/texrheo_bench_ingest." +
                               std::to_string(::getpid());
  std::filesystem::remove_all(data_dir);
  std::filesystem::create_directories(data_dir);

  // --- The fleet: three engines over the same base snapshot. -----------
  auto snapshot_or =
      serve::ServingSnapshot::FromModel(BenchModel(), "bench_ingest");
  if (!snapshot_or.ok()) {
    std::fprintf(stderr, "snapshot: %s\n",
                 snapshot_or.status().ToString().c_str());
    return 1;
  }
  constexpr int kReplicas = 3;
  std::vector<recipe::Dataset> corpora;
  std::vector<std::unique_ptr<serve::QueryEngine>> fleet;
  corpora.reserve(kReplicas);
  for (int i = 0; i < kReplicas; ++i) corpora.push_back(BenchCorpus());
  for (int i = 0; i < kReplicas; ++i) {
    serve::QueryEngineConfig config;
    config.fold_in_sweeps = 10;
    auto engine =
        serve::QueryEngine::Create(config, *snapshot_or, &corpora[i]);
    if (!engine.ok()) {
      std::fprintf(stderr, "engine %d: %s\n", i,
                   engine.status().ToString().c_str());
      return 1;
    }
    fleet.push_back(std::move(engine).value());
  }

  ingest::IngestServiceConfig config;
  config.wal_dir = data_dir + "/wal";
  config.refresh.train.num_topics = 2;
  config.refresh.train.alpha = 0.5;
  config.refresh.train.gamma = 0.5;
  config.refresh.train.burn_in_sweeps = 5;
  config.refresh.train.sweeps = 15;
  config.refresh.train.seed = 77;
  config.refresh.refresh_sweeps = 10;
  config.refresh.model_dir = data_dir + "/models";
  auto service_or = ingest::IngestService::Create(config, fleet[0].get(),
                                                  &corpora[0]);
  if (!service_or.ok()) {
    std::fprintf(stderr, "service: %s\n",
                 service_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<ingest::IngestService> service =
      std::move(service_or).value();
  if (Status recovered = service->Recover(); !recovered.ok()) {
    std::fprintf(stderr, "recover: %s\n", recovered.ToString().c_str());
    return 1;
  }
  service->SetReloadCallback([&](const std::string& path) -> Status {
    for (auto& replica : fleet) {  // The rolling reload, replica by replica.
      TEXRHEO_RETURN_IF_ERROR(replica->ReloadFromFile(path));
    }
    return Status::OK();
  });

  // --- Phase 1: arrival -> queryable. ----------------------------------
  std::vector<int64_t> latencies_us;
  latencies_us.reserve(static_cast<size_t>(records));
  for (int i = 0; i < records; ++i) {
    ingest::IngestRecord record = StreamedRecord(i);
    serve::TextureQuery query = ingest::RecordToQuery(record);
    const auto t0 = steady_clock::now();
    auto acked = service->Ingest(record);
    if (!acked.ok()) {
      std::fprintf(stderr, "ingest %d: %s\n", i,
                   acked.status().ToString().c_str());
      return 1;
    }
    auto answered = fleet[0]->PredictTexture(query);
    if (!answered.ok()) {
      std::fprintf(stderr, "post-ingest query %d: %s\n", i,
                   answered.status().ToString().c_str());
      return 1;
    }
    latencies_us.push_back(
        duration_cast<microseconds>(steady_clock::now() - t0).count());
  }
  std::sort(latencies_us.begin(), latencies_us.end());
  int64_t sum_us = 0;
  for (int64_t v : latencies_us) sum_us += v;

  // --- Phase 2: availability across a refresh cycle. -------------------
  // Fixed-cadence queries round-robin over the fleet while the refresh
  // retrains, packs, and rolls all three replicas; the stream keeps going
  // for at least a full second so the window brackets the swap.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> window_queries{0};
  std::atomic<int64_t> window_failures{0};
  std::thread load([&] {
    serve::TextureQuery query;
    query.gel_concentration = math::Vector(3, 0.01);
    query.texture_terms = {"katai"};
    const auto start = steady_clock::now();
    const auto period = microseconds(1000000 / std::max(1, qps));
    int64_t tick = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      serve::QueryEngine* engine =
          fleet[static_cast<size_t>(tick % kReplicas)].get();
      if (!engine->PredictTexture(query).ok()) {
        window_failures.fetch_add(1, std::memory_order_relaxed);
      }
      window_queries.fetch_add(1, std::memory_order_relaxed);
      ++tick;
      std::this_thread::sleep_until(start + period * tick);
    }
  });

  const uint32_t fingerprint_before = fleet[0]->snapshot()->fingerprint();
  const auto refresh_t0 = steady_clock::now();
  auto outcome = service->RefreshWithRetry();
  const int64_t refresh_ms =
      duration_cast<milliseconds>(steady_clock::now() - refresh_t0).count();
  std::this_thread::sleep_until(refresh_t0 + milliseconds(1000));
  stop = true;
  load.join();
  if (!outcome.ok()) {
    std::fprintf(stderr, "refresh: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }
  bool converged = true;
  for (auto& replica : fleet) {
    converged &=
        replica->snapshot()->fingerprint() == outcome->fingerprint;
  }
  const double availability =
      window_queries.load() == 0
          ? 0.0
          : 1.0 - static_cast<double>(window_failures.load()) /
                      static_cast<double>(window_queries.load());

  JsonValue root = JsonValue::MakeObject();
  JsonValue ingest_obj = JsonValue::MakeObject();
  ingest_obj.AsObject()["records"] =
      JsonValue::Number(static_cast<double>(records));
  ingest_obj.AsObject()["p50_us"] =
      JsonValue::Number(static_cast<double>(Percentile(latencies_us, 0.5)));
  ingest_obj.AsObject()["p99_us"] =
      JsonValue::Number(static_cast<double>(Percentile(latencies_us, 0.99)));
  ingest_obj.AsObject()["mean_us"] = JsonValue::Number(
      latencies_us.empty()
          ? 0.0
          : static_cast<double>(sum_us) /
                static_cast<double>(latencies_us.size()));
  root.AsObject()["ingest"] = std::move(ingest_obj);
  JsonValue window = JsonValue::MakeObject();
  window.AsObject()["queries"] =
      JsonValue::Number(static_cast<double>(window_queries.load()));
  window.AsObject()["failed"] =
      JsonValue::Number(static_cast<double>(window_failures.load()));
  window.AsObject()["availability"] = JsonValue::Number(availability);
  window.AsObject()["refresh_millis"] =
      JsonValue::Number(static_cast<double>(refresh_ms));
  window.AsObject()["fingerprint_changed"] =
      JsonValue::Bool(outcome->fingerprint != fingerprint_before);
  window.AsObject()["fleet_converged"] = JsonValue::Bool(converged);
  window.AsObject()["trained_documents"] =
      JsonValue::Number(static_cast<double>(outcome->trained_documents));
  root.AsObject()["refresh_window"] = std::move(window);

  const size_t slash = out_path.rfind('/');
  if (slash != std::string::npos) {
    std::filesystem::create_directories(out_path.substr(0, slash));
  }
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  const std::string json = root.Serialize();
  std::fwrite(json.data(), 1, json.size(), out);
  std::fputc('\n', out);
  std::fclose(out);

  std::printf(
      "bench_ingest: %d records | arrival->queryable p50=%lldus "
      "p99=%lldus | refresh %lldms over %d docs | window %lld queries "
      "%lld failed (availability %.4f, converged=%d)\n",
      records,
      static_cast<long long>(Percentile(latencies_us, 0.5)),
      static_cast<long long>(Percentile(latencies_us, 0.99)),
      static_cast<long long>(refresh_ms),
      static_cast<int>(outcome->trained_documents),
      static_cast<long long>(window_queries.load()),
      static_cast<long long>(window_failures.load()), availability,
      converged ? 1 : 0);

  std::filesystem::remove_all(data_dir);
  return 0;
}

}  // namespace
}  // namespace texrheo

int main(int argc, char** argv) { return texrheo::Run(argc, argv); }
