// Chaos harness for the router's replica links: socket fault injection
// (partial I/O, EINTR, mid-stream resets) on the router->replica path,
// whole-replica kill/restart under live load, and a fully deterministic
// walk of the ejection breaker's state machine on an injected clock. The
// contract under every fault mix is correct-or-clean-error: a query either
// returns the right "OK ..." line or a typed "ERR <Status>" — never a
// hang, a partial line, or a crash. This suite runs under TSan and ASan
// in ci.sh.

#include "serve/router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "math/distributions.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "socket_fault_injection.h"

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

struct ReplicaProcess {
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<LineProtocolServer> server;
  int port = 0;
};

class RouterChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto snapshot = ServingSnapshot::FromModel(TinyModel(), "router-chaos");
    ASSERT_TRUE(snapshot.ok());
    snapshot_ = *snapshot;
  }

  // The replica servers themselves run on real sockets: only the
  // router->replica links are faulted, so every observed failure is one
  // the router (not the replica) had to absorb.
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
    options.probe_interval_millis = 0;
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

  static std::string MixedQuery(int i) {
    switch (i % 3) {
      case 0:
        return "NEAREST " + std::to_string(i % 2);
      case 1:
        return "TOPIC " + std::to_string(i % 2);
      default:
        return "PREDICT gelatin=0.0" + std::to_string(1 + i % 9) +
               " terms=katai";
    }
  }

  /// A PREDICT line whose first routing candidate is `replica`, or "" if
  /// none is. MixedQuery has only 7 distinct routing keys, and the ring is
  /// labelled by ephemeral ports, so all 7 can route elsewhere; this
  /// searches 256 distinct keys (gelatin=0.0001 through 0.0256, one cache
  /// quantum apart).
  static std::string QueryAimedAt(const ReplicaRouter& router, int replica) {
    for (int i = 1; i <= 256; ++i) {
      char ratio[16];
      std::snprintf(ratio, sizeof(ratio), "0.0%03d", i);
      const std::string query =
          std::string("PREDICT gelatin=") + ratio + " terms=katai";
      if (router.CandidatesFor(query).front() == replica) return query;
    }
    return "";
  }

  std::shared_ptr<const ServingSnapshot> snapshot_;
  std::vector<ReplicaProcess> fleet_;
};

TEST_F(RouterChaosTest, PartialIoAndEintrOnReplicaLinksStayInvisible) {
  StartFleet(2);
  FaultInjectingSocketOps::Options faults;
  faults.partial_recv_every = 3;
  faults.partial_send_every = 4;
  faults.eintr_recv_every = 5;
  faults.eintr_send_every = 7;
  faults.eintr_poll_every = 11;
  FaultInjectingSocketOps ops(faults);

  RouterOptions options = BaseOptions();
  options.socket_ops = &ops;
  auto router = MakeRouter(options);
  ASSERT_NE(router, nullptr);

  // Short reads / short writes / EINTR are kernel noise, not failures:
  // every query must still answer OK, with zero retries burned.
  for (int i = 0; i < 60; ++i) {
    std::string reply = Handle(*router, MixedQuery(i));
    EXPECT_EQ(reply.rfind("OK", 0), 0u) << MixedQuery(i) << " -> " << reply;
  }
  EXPECT_GT(ops.injected_faults(), 0);
  obs::MetricsSnapshot snap = router->metrics()->TakeSnapshot();
  EXPECT_EQ(snap.CounterValue("router.answered"), 60u);
  EXPECT_EQ(snap.CounterValue("router.retries"), 0u);
  EXPECT_EQ(snap.CounterValue("router.unavailable"), 0u);
}

TEST_F(RouterChaosTest, ResetMidStreamFailsOverToTheNextReplica) {
  StartFleet(2);
  FaultInjectingSocketOps::Options faults;
  faults.reset_recv_on_call = 1;  // Very first reply read: ECONNRESET.
  FaultInjectingSocketOps ops(faults);

  RouterOptions options = BaseOptions();
  options.socket_ops = &ops;
  auto router = MakeRouter(options);
  ASSERT_NE(router, nullptr);

  // The first leg's connection dies mid-round-trip. The router must not
  // surface the transport error: the retry leg on the other replica
  // answers, and the poisoned connection never returns to the pool.
  std::string reply = Handle(*router, "NEAREST 0");
  EXPECT_EQ(reply.rfind("OK setting=", 0), 0u) << reply;
  obs::MetricsSnapshot snap = router->metrics()->TakeSnapshot();
  EXPECT_EQ(snap.CounterValue("router.retries"), 1u);
  EXPECT_EQ(snap.CounterValue("router.answered"), 1u);

  // Follow-up queries are clean (the reset was one-shot): nothing reuses
  // the dead socket.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(Handle(*router, MixedQuery(i)).rfind("OK", 0), 0u);
  }
}

TEST_F(RouterChaosTest, ReplicaKillAndRestartUnderLoadLosesNoQueries) {
  StartFleet(3);
  RouterOptions options = BaseOptions();
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown_millis = 200;
  auto router = MakeRouter(options);
  ASSERT_NE(router, nullptr);

  // Concurrent clients before, during, and after a whole-replica outage.
  // Retries + breaker ejection must keep every single response "OK": one
  // replica's death is the router's problem, never the client's.
  std::atomic<bool> stop{false};
  std::atomic<int> sent{0}, failed{0};
  std::vector<std::thread> load;
  for (int t = 0; t < 3; ++t) {
    load.emplace_back([&, t] {
      for (int i = 0; !stop.load(); ++i) {
        const std::string query = MixedQuery(t * 31 + i);
        std::string reply = Handle(*router, query);
        ++sent;
        if (reply.rfind("OK", 0) != 0) {
          ++failed;
          ADD_FAILURE() << "query failed during replica outage: " << query
                        << " -> " << reply;
        }
      }
    });
  }

  std::this_thread::sleep_for(milliseconds(200));
  // Kill the replica that owns the largest share of the load mix's keys:
  // an unlucky ephemeral-port ring layout can starve a fixed victim of
  // primary traffic, which would let the outage pass without a single
  // retry (and leave no query to aim at it after readmission).
  std::vector<int> owned(fleet_.size(), 0);
  for (int i = 0; i < 64; ++i) {
    ++owned[router->CandidatesFor(MixedQuery(i)).front()];
  }
  const int victim = static_cast<int>(
      std::max_element(owned.begin(), owned.end()) - owned.begin());
  const int victim_port = fleet_[victim].port;
  fleet_[victim].server->Stop();  // Kill: drains, then closes every socket.
  std::this_thread::sleep_for(milliseconds(400));
  StartReplica(&fleet_[victim], victim_port);  // Restart on the same port.
  std::this_thread::sleep_for(milliseconds(300));
  stop.store(true);
  for (auto& thread : load) thread.join();

  EXPECT_GT(sent.load(), 0);
  EXPECT_EQ(failed.load(), 0);

  // The outage was not invisible luck: the router actually absorbed it.
  obs::MetricsSnapshot snap = router->metrics()->TakeSnapshot();
  EXPECT_GE(snap.CounterValue("router.retries"), 1u);

  // After a probe pass (cooldown has long elapsed), the restarted replica
  // is readmitted and serves a query aimed straight at it.
  router->ProbeAllOnce();
  EXPECT_EQ(router->GetReplicaViews()[victim].state,
            CircuitBreaker::State::kClosed);
  const std::string aimed = QueryAimedAt(*router, victim);
  ASSERT_FALSE(aimed.empty());
  EXPECT_EQ(Handle(*router, aimed).rfind("OK", 0), 0u);
}

TEST_F(RouterChaosTest, BreakerTransitionsAreDeterministicOnInjectedClock) {
  StartFleet(2);
  RouterOptions options = BaseOptions();
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown_millis = 1000;
  options.probe_timeout_millis = 2000;
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

  // Threshold 2: the first failed probe leaves the breaker closed...
  router->ProbeAllOnce();
  EXPECT_EQ(router->GetReplicaViews()[victim].state,
            CircuitBreaker::State::kClosed);
  obs::MetricsSnapshot snap = router->metrics()->TakeSnapshot();
  EXPECT_EQ(snap.CounterValue("router.breaker.trips"), 0u);
  EXPECT_EQ(snap.CounterValue("router.probe_failures"), 1u);

  // ...the second trips it. Exactly one transition.
  clock_millis.store(10);
  router->ProbeAllOnce();
  snap = router->metrics()->TakeSnapshot();
  EXPECT_EQ(router->GetReplicaViews()[victim].state,
            CircuitBreaker::State::kOpen);
  EXPECT_EQ(snap.CounterValue("router.breaker.trips"), 1u);
  EXPECT_EQ(snap.GaugeValue("router.replica.0.healthy"), 0.0);

  // Probes inside the cooldown are rejected by the breaker: no trial is
  // burned, no connection is attempted.
  clock_millis.store(500);
  router->ProbeAllOnce();
  snap = router->metrics()->TakeSnapshot();
  EXPECT_EQ(snap.CounterValue("router.breaker.half_open_trials"), 0u);
  EXPECT_EQ(router->GetReplicaViews()[victim].state,
            CircuitBreaker::State::kOpen);

  // Cooldown elapsed but the replica is still down: the readmission trial
  // runs, fails, and re-trips for another full cooldown.
  clock_millis.store(1011);
  router->ProbeAllOnce();
  snap = router->metrics()->TakeSnapshot();
  EXPECT_EQ(snap.CounterValue("router.breaker.half_open_trials"), 1u);
  EXPECT_EQ(snap.CounterValue("router.breaker.trips"), 2u);
  EXPECT_EQ(snap.CounterValue("router.breaker.recoveries"), 0u);
  EXPECT_EQ(router->GetReplicaViews()[victim].state,
            CircuitBreaker::State::kOpen);

  // Replica back + second cooldown elapsed: trial succeeds, breaker
  // recloses, and the registry's aggregate counters agree exactly with
  // the per-replica CircuitBreaker::Stats.
  StartReplica(&fleet_[victim], victim_port);
  clock_millis.store(2022);
  router->ProbeAllOnce();
  snap = router->metrics()->TakeSnapshot();
  ReplicaRouter::ReplicaView view = router->GetReplicaViews()[victim];
  EXPECT_EQ(view.state, CircuitBreaker::State::kClosed);
  EXPECT_EQ(snap.CounterValue("router.breaker.half_open_trials"), 2u);
  EXPECT_EQ(snap.CounterValue("router.breaker.recoveries"), 1u);
  EXPECT_EQ(view.breaker.opened, 2u);
  EXPECT_EQ(view.breaker.half_opened, 2u);
  EXPECT_EQ(view.breaker.reclosed, 1u);
  EXPECT_EQ(snap.GaugeValue("router.replica.0.healthy"), 1.0);
  // And the readmitted replica carries traffic again.
  const std::string aimed = QueryAimedAt(*router, victim);
  ASSERT_FALSE(aimed.empty());
  EXPECT_EQ(Handle(*router, aimed).rfind("OK", 0), 0u);
}

}  // namespace
}  // namespace texrheo::serve
