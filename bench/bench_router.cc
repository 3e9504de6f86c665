// Router SLO benchmark: an in-process 3-replica fleet behind
// texrheo_router's ReplicaRouter + front LineProtocolServer, driven by an
// open-loop load generator (arrivals on a fixed schedule, latency measured
// from the *scheduled* start — a backed-up worker makes the numbers worse,
// never invisible, which closed-loop clients get wrong via coordinated
// omission). Keys are Zipf-skewed over ~200 query variants so replica
// caches and consistent-hash affinity matter, a slow-loris connection
// squats on the front socket for the whole run, and one replica is killed
// and restarted mid-run.
//
// Writes bench/out/router_slo.json. ci.sh --bench gates on it:
//   - healthy (outside the kill window): error_rate == 0 and shed_rate == 0
//   - kill window: availability >= 0.99 (retries + breaker ejection must
//     hide a whole-replica outage from clients)
//
// Flags: --qps <n> (default 300) --seconds <n> (default 4)
//        --out <path> (default bench/out/router_slo.json)

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "math/distributions.h"
#include "serve/query_engine.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "util/flags.h"
#include "util/histogram.h"
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
  model.estimates.phi = {{0.7, 0.2, 0.1}, {0.1, 0.6, 0.3}};
  model.estimates.gel_topics = {BenchGaussian(2.0, 3), BenchGaussian(6.0, 3)};
  model.estimates.emulsion_topics = {BenchGaussian(1.0, 6),
                                     BenchGaussian(3.0, 6)};
  model.estimates.topic_recipe_count = {2, 2};
  return model;
}

struct ReplicaProcess {
  std::unique_ptr<serve::QueryEngine> engine;
  std::unique_ptr<serve::LineProtocolServer> server;
  int port = 0;
};

bool StartReplica(std::shared_ptr<const serve::ServingSnapshot> snapshot,
                  ReplicaProcess* replica, int port) {
  serve::QueryEngineConfig config;
  config.fold_in_sweeps = 10;
  auto engine = serve::QueryEngine::Create(config, std::move(snapshot),
                                           nullptr);
  if (!engine.ok()) return false;
  replica->engine = std::move(engine).value();
  serve::ServerOptions options;
  options.port = port;
  replica->server = std::make_unique<serve::LineProtocolServer>(
      replica->engine.get(), options);
  if (!replica->server->Start().ok()) return false;
  replica->port = replica->server->port();
  return true;
}

/// ~200 query variants: PREDICT dominates (cacheable, fold-in on a miss),
/// NEAREST / TOPIC are the cheap deterministic fillers.
std::vector<std::string> BuildQueryMix() {
  std::vector<std::string> mix;
  for (int v = 0; v < 200; ++v) {
    switch (v % 4) {
      case 0:
      case 1: {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "PREDICT gelatin=%.4f terms=katai",
                      0.01 + 1e-4 * v);
        mix.push_back(buf);
        break;
      }
      case 2:
        mix.push_back("NEAREST " + std::to_string(v % 2));
        break;
      default:
        mix.push_back("TOPIC " + std::to_string(v % 2));
    }
  }
  return mix;
}

/// Zipf(s=1.07) CDF over the mix: a hot head (cache hits on the owning
/// replica) and a long tail (fold-in misses keep admission control honest).
std::vector<double> ZipfCdf(size_t n) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), 1.07);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

int RawConnect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int Run(int argc, char** argv) {
  FlagParser flags;
  (void)flags.Parse(argc, argv);
  if (flags.GetBool("help", false)) {
    std::printf(
        "bench_router: open-loop SLO bench of the replicated router.\n"
        "flags: --qps <n> (default 300) --seconds <n> (default 4) "
        "--out <path>\n");
    return 0;
  }
  const int qps = static_cast<int>(flags.GetInt("qps", 300).value_or(300));
  const int seconds =
      static_cast<int>(flags.GetInt("seconds", 4).value_or(4));
  const std::string out_path =
      flags.GetString("out", "bench/out/router_slo.json");

  auto snapshot_or =
      serve::ServingSnapshot::FromModel(BenchModel(), "bench_router");
  if (!snapshot_or.ok()) {
    std::fprintf(stderr, "snapshot: %s\n",
                 snapshot_or.status().ToString().c_str());
    return 1;
  }
  auto snapshot = *snapshot_or;

  constexpr int kReplicas = 3;
  std::vector<ReplicaProcess> fleet(kReplicas);
  for (int i = 0; i < kReplicas; ++i) {
    if (!StartReplica(snapshot, &fleet[i], 0)) {
      std::fprintf(stderr, "replica %d failed to start\n", i);
      return 1;
    }
  }

  serve::RouterOptions router_options;
  for (const ReplicaProcess& replica : fleet) {
    router_options.replicas.push_back({"127.0.0.1", replica.port});
  }
  router_options.probe_interval_millis = 100;
  router_options.breaker.failure_threshold = 2;
  router_options.breaker.cooldown_millis = 300;
  router_options.max_tries = 3;
  router_options.hedge_delay_millis = -1;  // Auto: hedge above observed p99.
  router_options.replica_io_timeout_millis = 5000;
  auto router_or = serve::ReplicaRouter::Create(router_options);
  if (!router_or.ok() || !(*router_or)->Start().ok()) {
    std::fprintf(stderr, "router failed to start\n");
    return 1;
  }
  std::unique_ptr<serve::ReplicaRouter> router = std::move(router_or).value();

  serve::ServerOptions front_options;
  front_options.idle_timeout_millis = 600000;  // Loris outlives the run.
  serve::LineProtocolServer front(router.get(), router->metrics(),
                                  front_options);
  if (!front.Start().ok()) {
    std::fprintf(stderr, "front server failed to start\n");
    return 1;
  }

  // The slow loris: half a request line, then silence for the whole run.
  int loris = RawConnect(front.port());
  if (loris >= 0) (void)::send(loris, "PREDICT gelatin=", 16, MSG_NOSIGNAL);

  const std::vector<std::string> mix = BuildQueryMix();
  const std::vector<double> cdf = ZipfCdf(mix.size());
  const long long total_requests =
      static_cast<long long>(qps) * seconds;
  const long long interarrival_us = 1000000ll / std::max(1, qps);

  // Open-loop: request k is *due* at start + k * interarrival regardless of
  // how the previous ones went; workers claim indices from a shared cursor
  // and latency runs from the due time.
  std::atomic<long long> cursor{0};
  std::atomic<long long> ok_healthy{0}, err_healthy{0};
  std::atomic<long long> ok_kill{0}, err_kill{0};
  LatencyHistogram latency;
  std::mutex latency_mu;  // Record is cheap; one histogram, many workers.

  const auto start = steady_clock::now();
  const auto kill_at = start + milliseconds(seconds * 1000 * 2 / 5);
  const auto restart_at = start + milliseconds(seconds * 1000 * 7 / 10);
  std::atomic<bool> killed{false}, restarted{false};

  constexpr int kWorkers = 8;
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      serve::LineClientOptions client_options;
      client_options.io_timeout_millis = 30000;
      auto client = serve::LineClient::Connect("127.0.0.1", front.port(),
                                               client_options);
      if (!client.ok()) return;
      std::mt19937_64 rng(0x5105e + w);
      std::uniform_real_distribution<double> unit(0.0, 1.0);
      for (;;) {
        const long long k = cursor.fetch_add(1);
        if (k >= total_requests) break;
        const auto due = start + microseconds(k * interarrival_us);
        std::this_thread::sleep_until(due);  // No-op when already late.
        const double u = unit(rng);
        size_t pick = 0;
        while (pick + 1 < cdf.size() && cdf[pick] < u) ++pick;
        auto reply = (*client)->RoundTrip(mix[pick]);
        const auto now = steady_clock::now();
        const bool good = reply.ok() && reply->rfind("OK", 0) == 0;
        // "During the kill window" = scheduled while replica 1 was down.
        const bool in_kill_window = due >= kill_at && due < restart_at;
        if (in_kill_window) {
          (good ? ok_kill : err_kill).fetch_add(1);
        } else {
          (good ? ok_healthy : err_healthy).fetch_add(1);
        }
        {
          std::lock_guard<std::mutex> lock(latency_mu);
          latency.Record(duration_cast<microseconds>(now - due).count());
        }
        if (!good) {
          // A reply that failed at the transport layer poisons the
          // connection; reconnect rather than misattribute later errors.
          if (!reply.ok()) {
            auto fresh = serve::LineClient::Connect("127.0.0.1", front.port(),
                                                    client_options);
            if (fresh.ok()) client = std::move(fresh);
          }
        }
      }
    });
  }

  // Chaos thread: whole-replica kill + restart on schedule.
  std::thread chaos([&] {
    std::this_thread::sleep_until(kill_at);
    fleet[1].server->Stop();
    killed.store(true);
    std::this_thread::sleep_until(restart_at);
    const int port = fleet[1].port;
    restarted.store(StartReplica(snapshot, &fleet[1], port));
  });

  for (auto& worker : workers) worker.join();
  chaos.join();
  if (loris >= 0) ::close(loris);

  const LatencyHistogram::Snapshot lat = latency.TakeSnapshot();
  const obs::MetricsSnapshot snap = router->metrics()->TakeSnapshot();
  const serve::ServerStats front_stats = front.GetStats();
  front.Stop();
  router->Stop();

  const long long healthy_total = ok_healthy.load() + err_healthy.load();
  const long long kill_total = ok_kill.load() + err_kill.load();
  const double error_rate =
      healthy_total > 0
          ? static_cast<double>(err_healthy.load()) / healthy_total
          : 0.0;
  const double shed_rate =
      front_stats.connections_accepted + front_stats.connections_shed > 0
          ? static_cast<double>(front_stats.connections_shed) /
                static_cast<double>(front_stats.connections_accepted +
                                    front_stats.connections_shed)
          : 0.0;
  const double availability =
      kill_total > 0 ? static_cast<double>(ok_kill.load()) / kill_total : 1.0;
  const uint64_t requests = snap.CounterValue("router.requests");
  const uint64_t retries = snap.CounterValue("router.retries");
  const uint64_t hedges = snap.CounterValue("router.hedges");
  const uint64_t hedge_wins = snap.CounterValue("router.hedge_wins");

  JsonValue root = JsonValue::MakeObject();
  JsonValue config = JsonValue::MakeObject();
  config.AsObject()["qps"] = JsonValue::Number(qps);
  config.AsObject()["seconds"] = JsonValue::Number(seconds);
  config.AsObject()["replicas"] = JsonValue::Number(kReplicas);
  config.AsObject()["workers"] = JsonValue::Number(kWorkers);
  root.AsObject()["config"] = std::move(config);
  root.AsObject()["p50_us"] =
      JsonValue::Number(static_cast<double>(lat.QuantileUpperBound(0.5)));
  root.AsObject()["p99_us"] =
      JsonValue::Number(static_cast<double>(lat.QuantileUpperBound(0.99)));
  root.AsObject()["p999_us"] =
      JsonValue::Number(static_cast<double>(lat.QuantileUpperBound(0.999)));
  JsonValue healthy = JsonValue::MakeObject();
  healthy.AsObject()["requests"] =
      JsonValue::Number(static_cast<double>(healthy_total));
  healthy.AsObject()["errors"] =
      JsonValue::Number(static_cast<double>(err_healthy.load()));
  healthy.AsObject()["error_rate"] = JsonValue::Number(error_rate);
  healthy.AsObject()["shed_rate"] = JsonValue::Number(shed_rate);
  root.AsObject()["healthy"] = std::move(healthy);
  JsonValue kill_window = JsonValue::MakeObject();
  kill_window.AsObject()["requests"] =
      JsonValue::Number(static_cast<double>(kill_total));
  kill_window.AsObject()["ok"] =
      JsonValue::Number(static_cast<double>(ok_kill.load()));
  kill_window.AsObject()["availability"] = JsonValue::Number(availability);
  kill_window.AsObject()["replica_restarted"] =
      JsonValue::Bool(restarted.load());
  root.AsObject()["kill_window"] = std::move(kill_window);
  root.AsObject()["retry_rate"] = JsonValue::Number(
      requests > 0 ? static_cast<double>(retries) / requests : 0.0);
  root.AsObject()["hedge_win_rate"] = JsonValue::Number(
      hedges > 0 ? static_cast<double>(hedge_wins) / hedges : 0.0);
  JsonValue counters = JsonValue::MakeObject();
  counters.AsObject()["requests"] =
      JsonValue::Number(static_cast<double>(requests));
  counters.AsObject()["answered"] = JsonValue::Number(
      static_cast<double>(snap.CounterValue("router.answered")));
  counters.AsObject()["unavailable"] = JsonValue::Number(
      static_cast<double>(snap.CounterValue("router.unavailable")));
  counters.AsObject()["retries"] =
      JsonValue::Number(static_cast<double>(retries));
  counters.AsObject()["hedges"] =
      JsonValue::Number(static_cast<double>(hedges));
  counters.AsObject()["hedge_wins"] =
      JsonValue::Number(static_cast<double>(hedge_wins));
  counters.AsObject()["breaker_trips"] = JsonValue::Number(
      static_cast<double>(snap.CounterValue("router.breaker.trips")));
  counters.AsObject()["breaker_recoveries"] = JsonValue::Number(
      static_cast<double>(snap.CounterValue("router.breaker.recoveries")));
  root.AsObject()["counters"] = std::move(counters);

  // ci.sh pre-creates bench/out; cover direct runs from the repo root too.
  const size_t slash = out_path.rfind('/');
  if (slash != std::string::npos) {
    (void)::mkdir(out_path.substr(0, slash).c_str(), 0755);
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
      "bench_router: %lld requests @ %d qps | p50=%lldus p99=%lldus "
      "p999=%lldus | healthy errors=%lld shed_rate=%.4f | kill window "
      "availability=%.4f (%lld/%lld) | retries=%llu hedges=%llu "
      "hedge_wins=%llu\n",
      total_requests, qps,
      static_cast<long long>(lat.QuantileUpperBound(0.5)),
      static_cast<long long>(lat.QuantileUpperBound(0.99)),
      static_cast<long long>(lat.QuantileUpperBound(0.999)),
      err_healthy.load(), shed_rate, availability, ok_kill.load(),
      kill_total, static_cast<unsigned long long>(retries),
      static_cast<unsigned long long>(hedges),
      static_cast<unsigned long long>(hedge_wins));
  std::printf("wrote %s\n", out_path.c_str());

  return (error_rate == 0.0 && shed_rate == 0.0 && availability >= 0.99) ? 0
                                                                         : 1;
}

}  // namespace
}  // namespace texrheo

int main(int argc, char** argv) { return texrheo::Run(argc, argv); }
