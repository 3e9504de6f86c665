// ReplicaRouter over a real in-process fleet: each replica is a full
// QueryEngine + LineProtocolServer on an ephemeral loopback port. Covers
// cache-affinity routing, failover retries, breaker ejection/readmission
// driven by an injected clock, tail hedging against a stuck replica,
// zero-downtime rolling reloads under live traffic, and the router's own
// front server speaking the wire protocol end to end.

#include "serve/router.h"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/serialization.h"
#include "math/distributions.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "util/json.h"

namespace texrheo::serve {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

math::Gaussian MakeGaussian(double mean, size_t dim) {
  auto g = math::Gaussian::FromPrecision(math::Vector(dim, mean),
                                         math::Matrix::Identity(dim, 4.0));
  EXPECT_TRUE(g.ok());
  return *g;
}

core::ModelSnapshot TinyModel() {
  core::ModelSnapshot model;
  model.vocab.Add("katai");
  model.vocab.Add("purupuru");
  model.estimates.phi = {{0.8, 0.2}, {0.1, 0.9}};
  model.estimates.gel_topics = {MakeGaussian(2.0, 3), MakeGaussian(6.0, 3)};
  model.estimates.emulsion_topics = {MakeGaussian(1.0, 6),
                                     MakeGaussian(3.0, 6)};
  model.estimates.topic_recipe_count = {2, 2};
  return model;
}

/// One replica: engine + line-protocol server on an ephemeral port.
struct ReplicaProcess {
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<LineProtocolServer> server;
  int port = 0;
};

class RouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto snapshot = ServingSnapshot::FromModel(TinyModel(), "router-test");
    ASSERT_TRUE(snapshot.ok());
    snapshot_ = *snapshot;
  }

  /// Starts one replica; with `port` == 0 an ephemeral port is chosen
  /// (pass a previous port to model a replica *restart*).
  void StartReplica(ReplicaProcess* replica, int port = 0) {
    QueryEngineConfig config;
    config.fold_in_sweeps = 10;
    auto engine = QueryEngine::Create(config, snapshot_, nullptr);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    replica->engine = std::move(engine).value();
    ServerOptions options;
    options.port = port;
    replica->server = std::make_unique<LineProtocolServer>(
        replica->engine.get(), options);
    ASSERT_TRUE(replica->server->Start().ok());
    replica->port = replica->server->port();
  }

  void StartFleet(int n) {
    fleet_.resize(n);
    for (int i = 0; i < n; ++i) {
      StartReplica(&fleet_[i]);
      ASSERT_GT(fleet_[i].port, 0);
    }
  }

  RouterOptions BaseOptions() const {
    RouterOptions options;
    for (const ReplicaProcess& replica : fleet_) {
      options.replicas.push_back({"127.0.0.1", replica.port});
    }
    options.probe_interval_millis = 0;  // Tests drive ProbeAllOnce.
    options.replica_io_timeout_millis = 10000;
    return options;
  }

  std::unique_ptr<ReplicaRouter> MakeRouter(const RouterOptions& options) {
    auto router = ReplicaRouter::Create(options);
    EXPECT_TRUE(router.ok()) << router.status().ToString();
    return router.ok() ? std::move(router).value() : nullptr;
  }

  std::string Handle(ReplicaRouter& router, const std::string& line) {
    bool quit = false;
    return router.Handle(line, &quit, kNoDeadline);
  }

  std::shared_ptr<const ServingSnapshot> snapshot_;
  std::vector<ReplicaProcess> fleet_;
};

TEST_F(RouterTest, ForwardsEveryQueryTypeAndAnswersControlLocally) {
  StartFleet(2);
  auto router = MakeRouter(BaseOptions());
  ASSERT_NE(router, nullptr);

  EXPECT_EQ(Handle(*router, "PING"), "OK pong");
  EXPECT_EQ(Handle(*router, "PREDICT gelatin=0.01 terms=katai")
                .rfind("OK topic=", 0),
            0u);
  EXPECT_EQ(Handle(*router, "NEAREST 0").rfind("OK setting=", 0), 0u);
  EXPECT_EQ(Handle(*router, "TOPIC 1").rfind("OK", 0), 0u);
  // SIMILAR forwards too; these replicas have no corpus, so the replica's
  // own ERR passes through byte-for-byte (the router adds no dialect).
  EXPECT_EQ(Handle(*router, "SIMILAR gelatin=0.01")
                .rfind("ERR FailedPrecondition", 0),
            0u);
  // A line the replicas would reject parses locally: same parser, same
  // error, no replica round trip.
  EXPECT_EQ(Handle(*router, "PREDICT unobtainium=0.5").rfind("ERR", 0), 0u);
  EXPECT_EQ(Handle(*router, "FROBNICATE").rfind("ERR", 0), 0u);
  // Single-replica RELOAD is refused with a pointer to the rolling path.
  std::string reload = Handle(*router, "RELOAD /tmp/x.txt");
  EXPECT_EQ(reload.rfind("ERR", 0), 0u);
  EXPECT_NE(reload.find("ROLLING_RELOAD"), std::string::npos);

  bool quit = false;
  EXPECT_EQ(router->Handle("QUIT", &quit, kNoDeadline), "OK bye");
  EXPECT_TRUE(quit);
}

TEST_F(RouterTest, AffinityKeepsARecipeOnOneReplicaAndItsCacheHot) {
  StartFleet(3);
  auto router = MakeRouter(BaseOptions());
  ASSERT_NE(router, nullptr);

  const std::string query = "PREDICT gelatin=0.012,milk=0.25 terms=katai";
  // Same recipe, different text assembly: the canonical routing key must
  // send both to the same replica, in the same candidate order.
  const std::string shuffled = "PREDICT milk=0.25,gelatin=0.012 terms=katai";
  std::vector<int> order = router->CandidatesFor(query);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, router->CandidatesFor(shuffled));

  std::string first = Handle(*router, query);
  ASSERT_EQ(first.rfind("OK topic=", 0), 0u) << first;
  EXPECT_NE(first.find("cached=0"), std::string::npos) << first;
  // The repeat (even re-shuffled) lands on the same replica's LRU.
  std::string second = Handle(*router, shuffled);
  EXPECT_NE(second.find("cached=1"), std::string::npos) << second;

  // Distinct recipes spread: with 3 replicas and enough keys, no replica
  // owns everything.
  std::set<int> primaries;
  for (int i = 1; i <= 30; ++i) {
    primaries.insert(
        router->CandidatesFor("TOPIC " + std::to_string(i)).front());
  }
  EXPECT_GT(primaries.size(), 1u);
}

TEST_F(RouterTest, FailsOverToNextReplicaWhenPrimaryDies) {
  StartFleet(3);
  RouterOptions options = BaseOptions();
  options.breaker.failure_threshold = 1;
  auto router = MakeRouter(options);
  ASSERT_NE(router, nullptr);

  const std::string query = "NEAREST 0";
  const int primary = router->CandidatesFor(query).front();
  const std::string expected = Handle(*router, query);
  ASSERT_EQ(expected.rfind("OK setting=", 0), 0u);

  // Kill the primary. The next query must fail over and still answer —
  // byte-identically, since NEAREST is deterministic and every replica
  // serves the same snapshot.
  fleet_[primary].server->Stop();
  EXPECT_EQ(Handle(*router, query), expected);
  EXPECT_GE(router->metrics()->TakeSnapshot().CounterValue("router.retries"),
            1u);
  // The dead replica's breaker tripped (threshold 1): it is ejected, so
  // further queries skip it without paying the connect failure.
  EXPECT_EQ(router->GetReplicaViews()[primary].state,
            CircuitBreaker::State::kOpen);
  EXPECT_EQ(Handle(*router, query), expected);
}

TEST_F(RouterTest, BreakerEjectsDeadReplicaAndProbeReadmitsIt) {
  StartFleet(2);
  RouterOptions options = BaseOptions();
  options.breaker.failure_threshold = 1;
  options.breaker.cooldown_millis = 1000;
  options.probe_timeout_millis = 2000;
  // Injected clock: ejection and readmission are stepped, never slept.
  const auto epoch = steady_clock::now();
  std::atomic<int64_t> clock_millis{0};
  options.now_fn = [epoch, &clock_millis] {
    return epoch + milliseconds(clock_millis.load());
  };
  auto router = MakeRouter(options);
  ASSERT_NE(router, nullptr);

  const int victim = 0;
  const int victim_port = fleet_[victim].port;
  fleet_[victim].server->Stop();

  // First probe pass: the dead replica records a failure and trips.
  router->ProbeAllOnce();
  EXPECT_EQ(router->GetReplicaViews()[victim].state,
            CircuitBreaker::State::kOpen);
  obs::MetricsSnapshot snap = router->metrics()->TakeSnapshot();
  EXPECT_EQ(snap.CounterValue("router.breaker.trips"), 1u);
  EXPECT_EQ(snap.CounterValue("router.probe_failures"), 1u);
  EXPECT_EQ(snap.GaugeValue("router.replica.0.healthy"), 0.0);
  EXPECT_EQ(snap.GaugeValue("router.replica.1.healthy"), 1.0);

  // Mid-cooldown probe: still open, no trial burned.
  clock_millis.store(500);
  router->ProbeAllOnce();
  EXPECT_EQ(router->GetReplicaViews()[victim].state,
            CircuitBreaker::State::kOpen);

  // Replica restarts on its old port; after the cooldown the next probe is
  // the half-open readmission trial and recloses the breaker.
  StartReplica(&fleet_[victim], victim_port);
  clock_millis.store(1100);
  router->ProbeAllOnce();
  EXPECT_EQ(router->GetReplicaViews()[victim].state,
            CircuitBreaker::State::kClosed);
  snap = router->metrics()->TakeSnapshot();
  EXPECT_EQ(snap.CounterValue("router.breaker.half_open_trials"), 1u);
  EXPECT_EQ(snap.CounterValue("router.breaker.recoveries"), 1u);
  EXPECT_EQ(snap.GaugeValue("router.replica.0.healthy"), 1.0);
  // And the readmitted replica serves again.
  EXPECT_EQ(Handle(*router, "NEAREST 0").rfind("OK setting=", 0), 0u);
}

/// Raw listener that accepts connections and never answers: the classic
/// stuck-but-alive replica a hedge exists for.
class BlackHoleReplica {
 public:
  BlackHoleReplica() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 16) != 0) {
      return;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    // Never accept: connects complete out of the backlog, then starve.
  }
  ~BlackHoleReplica() {
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }
  int port() const { return port_; }

 private:
  int listen_fd_ = -1;
  int port_ = 0;
};

TEST_F(RouterTest, HedgeWinsAgainstStuckReplica) {
  StartFleet(1);
  BlackHoleReplica stuck;
  ASSERT_GT(stuck.port(), 0);

  RouterOptions options;
  options.replicas = {{"127.0.0.1", stuck.port()},
                      {"127.0.0.1", fleet_[0].port}};
  options.probe_interval_millis = 0;
  options.max_tries = 2;
  options.hedge_delay_millis = 20;
  options.replica_io_timeout_millis = 10000;  // Without hedging: 10s stall.
  auto router = MakeRouter(options);
  ASSERT_NE(router, nullptr);

  // Find a query whose primary is the black hole, so the hedge leg (not
  // plain first-try luck) must produce the answer.
  std::string query;
  for (int i = 0; i < 64 && query.empty(); ++i) {
    std::string candidate = "NEAREST " + std::to_string(i % 2) +
                            (i % 2 == 0 ? "" : " method=euclidean");
    // Vary the key space via TOPIC too.
    if (i >= 2) candidate = "TOPIC " + std::to_string(i % 2);
    if (i >= 4) {
      candidate = "PREDICT gelatin=0.0" + std::to_string(1 + i % 9) +
                  " terms=katai";
    }
    if (router->CandidatesFor(candidate).front() == 0) query = candidate;
  }
  ASSERT_FALSE(query.empty()) << "no key maps to the stuck replica";

  const auto t0 = steady_clock::now();
  std::string reply = Handle(*router, query);
  const auto elapsed =
      std::chrono::duration_cast<milliseconds>(steady_clock::now() - t0);
  EXPECT_EQ(reply.rfind("OK", 0), 0u) << reply;
  // The answer came from the hedge leg, long before the stuck replica's
  // I/O budget would have expired.
  EXPECT_LT(elapsed.count(), 5000);
  obs::MetricsSnapshot snap = router->metrics()->TakeSnapshot();
  EXPECT_GE(snap.CounterValue("router.hedges"), 1u);
  EXPECT_GE(snap.CounterValue("router.hedge_wins"), 1u);
}

TEST_F(RouterTest, RollingReloadLosesNoQueriesAndKeepsAnswersByteIdentical) {
  StartFleet(3);
  RouterOptions options = BaseOptions();
  options.rolling_drain_millis = 10000;
  auto router = MakeRouter(options);
  ASSERT_NE(router, nullptr);

  // A reload target on disk: same model content, so post-reload answers
  // must be byte-identical and the fleet fingerprint must converge.
  const char* tmp = std::getenv("TMPDIR");
  const std::string model_file = std::string(tmp != nullptr ? tmp : "/tmp") +
                                 "/router_test_reload_model.txt";
  ASSERT_TRUE(core::SaveModel(model_file, TinyModel()).ok());

  // Deterministic queries pinned before the rollout: NEAREST and TOPIC
  // have no per-admission RNG, so byte-identity across the reload proves
  // the swapped-in snapshot is the same model (PREDICT responses are
  // sequence-dependent by design and are checked for success only).
  const std::vector<std::string> pinned = {
      "NEAREST 0", "NEAREST 1 method=mahalanobis", "TOPIC 0", "TOPIC 1"};
  std::vector<std::string> before;
  for (const std::string& query : pinned) {
    before.push_back(Handle(*router, query));
    ASSERT_EQ(before.back().rfind("OK", 0), 0u) << before.back();
  }

  // Live traffic throughout the rollout; every response must be OK — a
  // drained replica hands its keys to the rest of the ring, it never
  // drops them.
  std::atomic<bool> stop{false};
  std::atomic<int> sent{0}, failed{0};
  std::vector<std::thread> load;
  for (int t = 0; t < 3; ++t) {
    load.emplace_back([&, t] {
      int i = 0;
      while (!stop.load()) {
        std::string query;
        switch ((t + i) % 3) {
          case 0:
            query = "NEAREST " + std::to_string(i % 2);
            break;
          case 1:
            query = "TOPIC " + std::to_string(i % 2);
            break;
          default:
            query = "PREDICT gelatin=0.0" + std::to_string(1 + i % 9) +
                    " terms=katai";
        }
        std::string reply = Handle(*router, query);
        ++sent;
        if (reply.rfind("OK", 0) != 0) {
          ++failed;
          ADD_FAILURE() << "query failed during rolling reload: " << query
                        << " -> " << reply;
        }
        ++i;
      }
    });
  }

  std::string summary = Handle(*router, "ROLLING_RELOAD " + model_file);
  // Let traffic continue a moment on the fully-rolled fleet.
  std::this_thread::sleep_for(milliseconds(50));
  stop.store(true);
  for (auto& thread : load) thread.join();

  ASSERT_EQ(summary.rfind("OK rolled replicas=3 fingerprint=", 0), 0u)
      << summary;
  EXPECT_GT(sent.load(), 0);
  EXPECT_EQ(failed.load(), 0);

  // Byte-identical deterministic answers after the swap.
  for (size_t i = 0; i < pinned.size(); ++i) {
    EXPECT_EQ(Handle(*router, pinned[i]), before[i]) << pinned[i];
  }
  // The fleet converged on one fingerprint, visible in METRICSZ and in
  // the per-replica views.
  std::string metricsz = Handle(*router, "METRICSZ");
  auto parsed = JsonValue::Parse(metricsz);
  ASSERT_TRUE(parsed.ok()) << metricsz;
  const JsonValue* fleet_obj = parsed.value().Find("fleet");
  ASSERT_NE(fleet_obj, nullptr);
  const JsonValue* fingerprints = fleet_obj->Find("fingerprints");
  ASSERT_NE(fingerprints, nullptr);
  ASSERT_EQ(fingerprints->AsArray().size(), 3u);
  const std::string fp0 = fingerprints->AsArray()[0].AsString();
  EXPECT_NE(fp0, "00000000");
  for (const JsonValue& fp : fingerprints->AsArray()) {
    EXPECT_EQ(fp.AsString(), fp0);
  }
  std::vector<ReplicaRouter::ReplicaView> views = router->GetReplicaViews();
  for (const ReplicaRouter::ReplicaView& view : views) {
    EXPECT_FALSE(view.draining);
    EXPECT_EQ(view.inflight, 0u);
    EXPECT_EQ(view.fingerprint, views[0].fingerprint);
  }
  EXPECT_EQ(router->metrics()->TakeSnapshot().CounterValue(
                "router.rolling_reload_failures"),
            0u);
}

TEST_F(RouterTest, FrontServerSpeaksTheWireProtocolEndToEnd) {
  StartFleet(2);
  RouterOptions options = BaseOptions();
  auto router = MakeRouter(options);
  ASSERT_NE(router, nullptr);
  ASSERT_TRUE(router->Start().ok());

  ServerOptions front_options;
  LineProtocolServer front(router.get(), router->metrics(), front_options);
  ASSERT_TRUE(front.Start().ok());
  ASSERT_GT(front.port(), 0);

  auto client = LineClient::Connect("127.0.0.1", front.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto ping = (*client)->RoundTrip("PING");
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(*ping, "OK pong");
  auto predict = (*client)->RoundTrip("PREDICT gelatin=0.01 terms=katai");
  ASSERT_TRUE(predict.ok());
  EXPECT_EQ(predict->rfind("OK topic=", 0), 0u) << *predict;

  // STATSZ is multi-line with the router's own sections.
  ASSERT_TRUE((*client)->SendLine("STATSZ").ok());
  auto statsz = (*client)->ReadUntilDot();
  ASSERT_TRUE(statsz.ok());
  EXPECT_NE(statsz->find("texrheo_router statsz"), std::string::npos);
  EXPECT_NE(statsz->find("router: requests="), std::string::npos);
  EXPECT_NE(statsz->find("replica 0:"), std::string::npos);

  // METRICSZ: one JSON line carrying both the serve.server.* front-socket
  // counters (registered into the router's registry) and the fleet object.
  auto metricsz = (*client)->RoundTrip("METRICSZ");
  ASSERT_TRUE(metricsz.ok());
  auto parsed = JsonValue::Parse(*metricsz);
  ASSERT_TRUE(parsed.ok()) << *metricsz;
  const JsonValue* counters = parsed.value().Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_NE(counters->Find("serve.server.requests_received"), nullptr);
  EXPECT_NE(counters->Find("router.requests"), nullptr);
  const JsonValue* fleet_obj = parsed.value().Find("fleet");
  ASSERT_NE(fleet_obj, nullptr);
  EXPECT_EQ(fleet_obj->Find("replicas")->AsNumber(), 2.0);

  auto bye = (*client)->RoundTrip("QUIT");
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(*bye, "OK bye");
  front.Stop();
  router->Stop();
}

}  // namespace
}  // namespace texrheo::serve
