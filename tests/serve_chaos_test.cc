// Socket chaos suite: full LineProtocolServer round trips driven through
// FaultInjectingSocketOps (partial reads/writes, EINTR, resets, stalls on
// both the server's and the client's side of the wire). Every session must
// either complete with correct responses or fail with a clean Status —
// never hang, crash, or corrupt a response. ci.sh re-runs this suite under
// TSan (the fault schedule is atomic-counter based, so it is TSan-clean by
// construction).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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

class ChaosTest : public ::testing::Test {
 protected:
  /// Builds engine + server wired to `ops`; returns false on setup failure.
  void StartServer(SocketOps* ops, ServerOptions overrides = ServerOptions{}) {
    auto snapshot = ServingSnapshot::FromModel(TinyModel(), "chaos-test");
    ASSERT_TRUE(snapshot.ok());
    QueryEngineConfig config;
    config.fold_in_sweeps = 10;
    auto engine = QueryEngine::Create(config, *snapshot, nullptr);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(engine).value();
    overrides.socket_ops = ops;
    server_ =
        std::make_unique<LineProtocolServer>(engine_.get(), overrides);
    ASSERT_TRUE(server_->Start().ok());
  }

  LineClientOptions ClientOptions(SocketOps* ops) {
    LineClientOptions options;
    options.socket_ops = ops;
    options.io_timeout_millis = 10000;  // Chaos must not hang the suite.
    return options;
  }

  /// The fault injector must be a fixture member declared before the
  /// server: the server's threads call into it until server_'s destructor
  /// joins them, so a test-body local would be destroyed too early.
  FaultInjectingSocketOps* MakeChaos(
      const FaultInjectingSocketOps::Options& faults) {
    chaos_ = std::make_unique<FaultInjectingSocketOps>(faults);
    return chaos_.get();
  }

  std::unique_ptr<FaultInjectingSocketOps> chaos_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<LineProtocolServer> server_;
};

/// One full scripted session with heavy partial I/O and EINTR on both
/// sides: every byte of every request and response crosses the wire one
/// at a time part of the time, and every handful of syscalls is
/// interrupted. Responses must come back byte-identical to the
/// fault-free protocol.
TEST_F(ChaosTest, PartialIoAndEintrPreserveEverySession) {
  FaultInjectingSocketOps::Options faults;
  faults.partial_recv_every = 2;  // Every other read delivers one byte.
  faults.partial_send_every = 3;
  faults.eintr_recv_every = 5;
  faults.eintr_send_every = 7;
  faults.eintr_poll_every = 11;
  FaultInjectingSocketOps* chaos = MakeChaos(faults);
  StartServer(chaos);

  auto client =
      LineClient::Connect("127.0.0.1", server_->port(), ClientOptions(chaos));
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto ping = (*client)->RoundTrip("PING");
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  EXPECT_EQ(*ping, "OK pong");

  auto predict = (*client)->RoundTrip("PREDICT gelatin=0.01 terms=katai");
  ASSERT_TRUE(predict.ok()) << predict.status().ToString();
  EXPECT_EQ(predict->rfind("OK topic=", 0), 0u) << *predict;

  auto nearest = (*client)->RoundTrip("NEAREST 0");
  ASSERT_TRUE(nearest.ok());
  EXPECT_EQ(nearest->rfind("OK setting=", 0), 0u) << *nearest;

  // Malformed input must still produce a clean ERR under chaos.
  auto err = (*client)->RoundTrip("NEAREST 9999");
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->rfind("ERR", 0), 0u) << *err;

  auto bye = (*client)->RoundTrip("QUIT");
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(*bye, "OK bye");

  EXPECT_GT(chaos->injected_faults(), 0);
}

/// Concurrent sessions with moderate fault rates plus stalls: all commands
/// answered correctly, server survives, shutdown is clean. This is the
/// TSan target: connection handlers, the accept loop, the fold-ins they
/// run and the engine's in-flight counter, and the fault-schedule atomics
/// all race here.
TEST_F(ChaosTest, ConcurrentSessionsSurviveChaos) {
  FaultInjectingSocketOps::Options faults;
  faults.partial_recv_every = 3;
  faults.partial_send_every = 4;
  faults.eintr_recv_every = 7;
  faults.eintr_send_every = 9;
  faults.eintr_poll_every = 13;
  faults.eintr_accept_every = 2;  // Every other accept is interrupted.
  faults.stall_every = 17;
  faults.stall_millis = 2;
  FaultInjectingSocketOps* chaos = MakeChaos(faults);
  StartServer(chaos);

  constexpr int kClients = 4;
  constexpr int kCommands = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = LineClient::Connect("127.0.0.1", server_->port(),
                                        ClientOptions(chaos));
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kCommands; ++i) {
        std::string cmd;
        switch ((c + i) % 3) {
          case 0:
            cmd = "PREDICT gelatin=0.00" + std::to_string(i % 5 + 1);
            break;
          case 1:
            cmd = "NEAREST " + std::to_string(i % 2);
            break;
          default:
            cmd = "TOPIC " + std::to_string(i % 2);
        }
        auto reply = (*client)->RoundTrip(cmd);
        if (!reply.ok() || reply->rfind("OK", 0) != 0) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  server_->Stop();
}

/// A reset injected mid-connection must surface to the client as a clean
/// error (never a hang or a garbled response), and the server must keep
/// serving fresh connections afterwards.
TEST_F(ChaosTest, InjectedResetFailsCleanlyAndServerSurvives) {
  FaultInjectingSocketOps::Options faults;
  // Fire the reset a few reads into the connection's life: past the
  // handshake, in the middle of request traffic.
  faults.reset_recv_on_call = 3;
  FaultInjectingSocketOps* chaos = MakeChaos(faults);
  StartServer(chaos);

  // Clients use the real kernel ops so every chaos recv call — including
  // the poisoned one — is guaranteed to land on the server's side.
  // Run a few commands; one of them hits the injected reset and its round
  // trip (or a later one) fails cleanly when the server drops the
  // connection.
  auto victim = LineClient::Connect("127.0.0.1", server_->port(),
                                    ClientOptions(nullptr));
  ASSERT_TRUE(victim.ok());
  bool saw_failure = false;
  for (int i = 0; i < 5 && !saw_failure; ++i) {
    auto reply = (*victim)->RoundTrip("PING");
    if (!reply.ok()) {
      saw_failure = true;
    } else {
      EXPECT_EQ(*reply, "OK pong");  // Never a corrupted success.
    }
  }
  EXPECT_TRUE(saw_failure);

  // The server shrugged it off: a fresh connection works (reset was
  // one-shot, so this session is fault-free).
  auto fresh = LineClient::Connect("127.0.0.1", server_->port(),
                                   ClientOptions(nullptr));
  ASSERT_TRUE(fresh.ok());
  auto reply = (*fresh)->RoundTrip("PING");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(*reply, "OK pong");
  EXPECT_GE(server_->GetStats().io_errors, 1u);
}

/// Stop() with chaotic sessions in flight: drain must complete promptly
/// and join every thread — even with EINTR and stalls injected into the
/// very syscalls the drain path relies on.
TEST_F(ChaosTest, DrainUnderChaosIsBoundedAndClean) {
  FaultInjectingSocketOps::Options faults;
  faults.partial_recv_every = 2;
  faults.eintr_poll_every = 3;
  faults.stall_every = 5;
  faults.stall_millis = 2;
  FaultInjectingSocketOps* chaos = MakeChaos(faults);
  ServerOptions options;
  options.drain_deadline_millis = 1000;
  StartServer(chaos, options);

  std::atomic<bool> stop_workers{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      auto client = LineClient::Connect("127.0.0.1", server_->port(),
                                        ClientOptions(chaos));
      if (!client.ok()) return;
      while (!stop_workers.load()) {
        // Failures are expected once the drain begins; the assertion is
        // that everything terminates.
        (void)(*client)->RoundTrip("PREDICT gelatin=0.004");
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto begin = std::chrono::steady_clock::now();
  server_->Stop();
  auto stop_millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - begin)
                         .count();
  stop_workers.store(true);
  for (auto& t : threads) t.join();
  // Drain deadline 1s + force-close overhead; anything near the idle
  // timeout (30s default) would mean the drain never fired.
  EXPECT_LT(stop_millis, 5000);
}

}  // namespace
}  // namespace texrheo::serve
