// Hostile-input suite: a live LineProtocolServer attacked with raw
// sockets — oversized request lines, binary garbage, abrupt disconnects,
// slow-loris clients, pipelining, and connection floods. The server must
// answer cleanly, reap abusers within its configured budgets, and keep
// healthy clients fast. ci.sh re-runs this suite under ASan (hostile
// framing is where buffer bugs live).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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

// ---------------------------------------------------------------------------
// Raw-socket attacker toolkit. LineClient is deliberately NOT used here:
// hostile behavior (half lines, binary blobs, silent stalls) needs direct
// byte-level control of the wire.

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

bool RawSendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t w = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(w);
  }
  return true;
}

/// Reads one '\n'-terminated line (newline stripped) with a poll-based
/// budget. Empty return = EOF or timeout before a complete line.
std::string RawReadLine(int fd, std::string* carry, int timeout_millis) {
  auto deadline = steady_clock::now() + milliseconds(timeout_millis);
  for (;;) {
    size_t pos = carry->find('\n');
    if (pos != std::string::npos) {
      std::string line = carry->substr(0, pos);
      carry->erase(0, pos + 1);
      return line;
    }
    int remaining = static_cast<int>(
        std::chrono::duration_cast<milliseconds>(deadline - steady_clock::now())
            .count());
    if (remaining <= 0) return "";
    pollfd pfd{fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, remaining);
    if (ready <= 0) {
      if (ready < 0 && errno == EINTR) continue;
      return "";
    }
    char buf[512];
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return "";  // Peer closed (or errored) before a full line.
    }
    carry->append(buf, static_cast<size_t>(n));
  }
}

/// True when the peer closes the connection within the budget (recv -> 0).
bool RawWaitForClose(int fd, int timeout_millis) {
  auto deadline = steady_clock::now() + milliseconds(timeout_millis);
  for (;;) {
    int remaining = static_cast<int>(
        std::chrono::duration_cast<milliseconds>(deadline - steady_clock::now())
            .count());
    if (remaining <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, remaining);
    if (ready <= 0) {
      if (ready < 0 && errno == EINTR) continue;
      return false;
    }
    char buf[512];
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) return true;
    if (n < 0 && errno != EINTR) return true;  // Reset counts as closed.
  }
}

class HostileTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = ServerOptions{},
                   int fold_in_sweeps = 10) {
    auto snapshot = ServingSnapshot::FromModel(TinyModel(), "hostile-test");
    ASSERT_TRUE(snapshot.ok());
    QueryEngineConfig config;
    config.fold_in_sweeps = fold_in_sweeps;
    auto engine = QueryEngine::Create(config, *snapshot, nullptr);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(engine).value();
    server_ = std::make_unique<LineProtocolServer>(engine_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  /// Sanity probe: the server still answers a well-behaved client.
  void ExpectServerAlive() {
    int fd = RawConnect(server_->port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(RawSendAll(fd, "PING\n"));
    std::string carry;
    EXPECT_EQ(RawReadLine(fd, &carry, 2000), "OK pong");
    ::close(fd);
  }

  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<LineProtocolServer> server_;
};

TEST_F(HostileTest, OversizedLineGetsOneErrThenClose) {
  ServerOptions options;
  options.max_line_bytes = 256;
  StartServer(options);

  int fd = RawConnect(server_->port());
  ASSERT_GE(fd, 0);
  std::string attack(2048, 'A');
  attack += '\n';
  ASSERT_TRUE(RawSendAll(fd, attack));
  std::string carry;
  std::string reply = RawReadLine(fd, &carry, 2000);
  EXPECT_EQ(reply.rfind("ERR", 0), 0u) << reply;
  EXPECT_NE(reply.find("line"), std::string::npos) << reply;
  EXPECT_TRUE(RawWaitForClose(fd, 2000));
  ::close(fd);

  EXPECT_GE(server_->GetStats().oversized_rejected, 1u);
  ExpectServerAlive();
}

TEST_F(HostileTest, OversizedLineWithoutNewlineIsAlsoRejected) {
  // The buffer cap must fire even when the attacker never sends '\n' —
  // otherwise an unterminated stream grows server memory without bound.
  ServerOptions options;
  options.max_line_bytes = 256;
  StartServer(options);

  int fd = RawConnect(server_->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(RawSendAll(fd, std::string(4096, 'B')));  // No newline, ever.
  std::string carry;
  std::string reply = RawReadLine(fd, &carry, 2000);
  EXPECT_EQ(reply.rfind("ERR", 0), 0u) << reply;
  EXPECT_TRUE(RawWaitForClose(fd, 2000));
  ::close(fd);
  EXPECT_GE(server_->GetStats().oversized_rejected, 1u);
}

TEST_F(HostileTest, BinaryGarbageGetsErrNotCrash) {
  StartServer();
  int fd = RawConnect(server_->port());
  ASSERT_GE(fd, 0);
  // NUL bytes, high-bit bytes, control characters — all inside one line.
  std::string garbage;
  garbage.push_back('\0');
  garbage += "\x01\x02\xff\xfe PREDICT \x00\x7f garbage";
  garbage.push_back('\0');
  garbage += "\n";
  ASSERT_TRUE(RawSendAll(fd, garbage));
  std::string carry;
  std::string reply = RawReadLine(fd, &carry, 2000);
  EXPECT_EQ(reply.rfind("ERR", 0), 0u) << reply;

  // The connection survives garbage: a valid command still works on it.
  ASSERT_TRUE(RawSendAll(fd, "PING\n"));
  EXPECT_EQ(RawReadLine(fd, &carry, 2000), "OK pong");
  ::close(fd);
}

TEST_F(HostileTest, AbruptDisconnectMidCommandLeavesServerHealthy) {
  StartServer();
  for (int i = 0; i < 3; ++i) {
    int fd = RawConnect(server_->port());
    ASSERT_GE(fd, 0);
    // Half a command, then vanish without a close handshake.
    ASSERT_TRUE(RawSendAll(fd, "PREDICT gelatin=0.0"));
    struct linger hard_close {1, 0};  // RST instead of FIN.
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_close, sizeof(hard_close));
    ::close(fd);
  }
  // Give the handlers a beat to observe the disconnects, then verify the
  // server still answers and has reaped the dead connections.
  ExpectServerAlive();
  auto deadline = steady_clock::now() + milliseconds(2000);
  while (server_->GetStats().current_connections > 1 &&
         steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_LE(server_->GetStats().current_connections, 1u);
}

TEST_F(HostileTest, NeverWritingClientIsReapedByIdleTimeout) {
  ServerOptions options;
  options.idle_timeout_millis = 150;
  StartServer(options);

  int fd = RawConnect(server_->port());
  ASSERT_GE(fd, 0);
  // Send nothing. The server must reap us: one ERR line, then close.
  std::string carry;
  auto begin = steady_clock::now();
  std::string reply = RawReadLine(fd, &carry, 5000);
  auto waited = std::chrono::duration_cast<milliseconds>(
                    steady_clock::now() - begin)
                    .count();
  EXPECT_EQ(reply.rfind("ERR", 0), 0u) << reply;
  EXPECT_NE(reply.find("idle"), std::string::npos) << reply;
  EXPECT_TRUE(RawWaitForClose(fd, 2000));
  ::close(fd);
  // Reaped around the configured budget — not instantly, not at the
  // default 30s.
  EXPECT_GE(waited, 100);
  EXPECT_LT(waited, 3000);
  EXPECT_GE(server_->GetStats().idle_reaped, 1u);
}

TEST_F(HostileTest, SlowLorisDrippingBytesIsStillReaped) {
  // Feeding one byte at a time must not reset the idle clock: only
  // complete request lines count as progress.
  ServerOptions options;
  options.idle_timeout_millis = 200;
  StartServer(options);

  int fd = RawConnect(server_->port());
  ASSERT_GE(fd, 0);
  std::string carry;
  std::string reply;
  auto begin = steady_clock::now();
  // Drip a byte every 50 ms — well inside any per-byte timeout, but the
  // line never completes.
  for (int i = 0; i < 100; ++i) {
    if (!RawSendAll(fd, "P")) break;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 50) > 0) {
      reply = RawReadLine(fd, &carry, 1000);
      break;
    }
  }
  auto waited = std::chrono::duration_cast<milliseconds>(
                    steady_clock::now() - begin)
                    .count();
  EXPECT_EQ(reply.rfind("ERR", 0), 0u) << reply;
  EXPECT_LT(waited, 3000);  // Reaped near 200 ms, not after 100 drips.
  ::close(fd);
  EXPECT_GE(server_->GetStats().idle_reaped, 1u);
}

TEST_F(HostileTest, PipelinedCommandsAnswerInOrder) {
  StartServer();
  int fd = RawConnect(server_->port());
  ASSERT_GE(fd, 0);
  // All three commands in a single segment, before reading anything.
  ASSERT_TRUE(RawSendAll(fd, "PING\nTOPIC 0\nPING\n"));
  std::string carry;
  EXPECT_EQ(RawReadLine(fd, &carry, 2000), "OK pong");
  std::string topic = RawReadLine(fd, &carry, 2000);
  EXPECT_EQ(topic.rfind("OK", 0), 0u) << topic;
  EXPECT_EQ(RawReadLine(fd, &carry, 2000), "OK pong");
  ::close(fd);
}

TEST_F(HostileTest, ConnectionCapShedsWithErrLine) {
  ServerOptions options;
  options.max_connections = 2;
  StartServer(options);

  // Two legitimate occupants (a PING each proves they're registered).
  int a = RawConnect(server_->port());
  int b = RawConnect(server_->port());
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  std::string carry_a, carry_b;
  ASSERT_TRUE(RawSendAll(a, "PING\n"));
  ASSERT_TRUE(RawSendAll(b, "PING\n"));
  ASSERT_EQ(RawReadLine(a, &carry_a, 2000), "OK pong");
  ASSERT_EQ(RawReadLine(b, &carry_b, 2000), "OK pong");

  // Third connection: shed at accept time with one ERR, then closed.
  int c = RawConnect(server_->port());
  ASSERT_GE(c, 0);
  std::string carry_c;
  std::string reply = RawReadLine(c, &carry_c, 2000);
  EXPECT_EQ(reply.rfind("ERR Unavailable", 0), 0u) << reply;
  EXPECT_TRUE(RawWaitForClose(c, 2000));
  ::close(c);
  EXPECT_GE(server_->GetStats().connections_shed, 1u);
  EXPECT_EQ(server_->GetStats().peak_connections, 2u);

  // An occupant leaving frees a slot for a newcomer.
  ASSERT_TRUE(RawSendAll(a, "QUIT\n"));
  EXPECT_EQ(RawReadLine(a, &carry_a, 2000), "OK bye");
  ::close(a);
  auto deadline = steady_clock::now() + milliseconds(2000);
  int d = -1;
  std::string carry_d, pong;
  while (steady_clock::now() < deadline) {
    d = RawConnect(server_->port());
    if (d >= 0) {
      ASSERT_TRUE(RawSendAll(d, "PING\n"));
      pong = RawReadLine(d, &carry_d, 500);
      ::close(d);
      if (pong == "OK pong") break;
    }
    std::this_thread::sleep_for(milliseconds(20));
  }
  EXPECT_EQ(pong, "OK pong");
  ::close(b);
}

TEST_F(HostileTest, StalledClientDoesNotDelayHealthyClients) {
  ServerOptions options;
  options.idle_timeout_millis = 5000;  // The staller survives the test.
  StartServer(options);

  // The staller: half a request line, then silence, holding its thread.
  int staller = RawConnect(server_->port());
  ASSERT_GE(staller, 0);
  ASSERT_TRUE(RawSendAll(staller, "PREDICT gelatin="));

  // Healthy traffic must be unaffected: every round trip far below the
  // staller's timeout.
  for (int i = 0; i < 5; ++i) {
    int fd = RawConnect(server_->port());
    ASSERT_GE(fd, 0);
    auto begin = steady_clock::now();
    ASSERT_TRUE(RawSendAll(fd, "PREDICT gelatin=0.01 terms=katai\n"));
    std::string carry;
    std::string reply = RawReadLine(fd, &carry, 2000);
    auto took = std::chrono::duration_cast<milliseconds>(
                    steady_clock::now() - begin)
                    .count();
    EXPECT_EQ(reply.rfind("OK", 0), 0u) << reply;
    EXPECT_LT(took, 1500) << "healthy client delayed behind a staller";
    ::close(fd);
  }
  ::close(staller);
}

TEST_F(HostileTest, GracefulDrainFlushesInFlightResponse) {
  // An expensive query (many fold-in sweeps) is in flight when Stop()
  // begins. The drain contract: the computed response is flushed to the
  // client, not dropped.
  // Sweep count sized so the query is reliably still in flight when
  // Stop() begins (hundreds of ms in a normal build) yet comfortably
  // inside the drain deadline even under ASan's ~10x slowdown.
  ServerOptions options;
  options.drain_deadline_millis = 30000;
  StartServer(options, /*fold_in_sweeps=*/5000000);

  int fd = RawConnect(server_->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(RawSendAll(fd, "PREDICT gelatin=0.013 terms=katai\n"));

  // Let the command reach the engine, then drain concurrently with it.
  std::this_thread::sleep_for(milliseconds(30));
  std::thread stopper([&] { server_->Stop(); });

  std::string carry;
  std::string reply = RawReadLine(fd, &carry, 30000);
  EXPECT_EQ(reply.rfind("OK topic=", 0), 0u)
      << "in-flight response lost by drain: '" << reply << "'";
  // After the response is flushed the drain closes the connection.
  EXPECT_TRUE(RawWaitForClose(fd, 5000));
  ::close(fd);
  stopper.join();

  // Fully stopped: new connections are refused or go unanswered.
  int post = RawConnect(server_->port());
  if (post >= 0) {
    std::string post_carry;
    RawSendAll(post, "PING\n");
    EXPECT_EQ(RawReadLine(post, &post_carry, 300), "");
    ::close(post);
  }
}

TEST_F(HostileTest, RequestDeadlineShedsAsDeadlineExceeded) {
  // The request is admitted well inside its 50 ms budget, but its fold-in
  // runs for hundreds of ms. The engine checks the deadline again when the
  // fold-in returns: the client must get DeadlineExceeded (and the engine
  // must count it) rather than an answer it has already given up on.
  ServerOptions options;
  options.request_deadline_millis = 50;
  StartServer(options, /*fold_in_sweeps=*/5000000);

  int fd = RawConnect(server_->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(RawSendAll(fd, "PREDICT gelatin=0.022 terms=katai\n"));
  std::string carry;
  std::string reply = RawReadLine(fd, &carry, 30000);
  EXPECT_EQ(reply.rfind("ERR DeadlineExceeded", 0), 0u) << reply;
  ::close(fd);

  EXPECT_GE(server_->GetStats().deadlines_exceeded, 1u);
  QueryEngineStats engine_stats = engine_->GetStats();
  EXPECT_GE(engine_stats.batcher.deadline_expired, 1u);
}

TEST_F(HostileTest, ReloadBreakerTripsOnRepeatedFailures) {
  ServerOptions options;
  options.reload_failure_threshold = 2;
  options.reload_cooldown_millis = 60000;  // Stays open for the test.
  StartServer(options);

  int fd = RawConnect(server_->port());
  ASSERT_GE(fd, 0);
  std::string carry;
  // Two failing reloads trip the breaker...
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(RawSendAll(fd, "RELOAD /nonexistent/model.txt\n"));
    std::string reply = RawReadLine(fd, &carry, 2000);
    EXPECT_EQ(reply.rfind("ERR", 0), 0u) << reply;
  }
  // ...after which RELOAD is rejected up front, without touching the file.
  ASSERT_TRUE(RawSendAll(fd, "RELOAD /nonexistent/model.txt\n"));
  std::string rejected = RawReadLine(fd, &carry, 2000);
  EXPECT_NE(rejected.find("circuit breaker"), std::string::npos) << rejected;
  ::close(fd);

  ServerStats stats = server_->GetStats();
  EXPECT_EQ(stats.reload_failures, 2u);
  EXPECT_GE(stats.reload_rejected_by_breaker, 1u);
  EXPECT_EQ(stats.breaker_state, CircuitBreaker::State::kOpen);
  EXPECT_EQ(stats.breaker.opened, 1u);
}

// Counter consistency under fire: a METRICSZ snapshot taken while PREDICTs
// are in flight must never show a pipeline-downstream counter ahead of its
// upstream (completions ahead of admissions, fold-ins completed ahead of
// admitted).
// The registry guarantees this via reverse-registration-order snapshot
// reads; this test is the live regression for the old Statsz() glitch where
// independently-read atomics could disagree mid-request.
TEST_F(HostileTest, MetricsStayMonotoneConsistentUnderConcurrentLoad) {
  StartServer();
  const int port = server_->port();

  std::atomic<bool> stop{false};
  std::vector<std::thread> hammers;
  for (int t = 0; t < 4; ++t) {
    hammers.emplace_back([port, t, &stop] {
      int fd = RawConnect(port);
      ASSERT_GE(fd, 0);
      std::string carry;
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Distinct concentrations defeat the result cache so every request
        // takes the full admission -> fold-in path.
        std::string cmd = "PREDICT gelatin=0.0" + std::to_string(t) +
                          std::to_string(++i % 1000) + " terms=katai\n";
        ASSERT_TRUE(RawSendAll(fd, cmd));
        std::string reply = RawReadLine(fd, &carry, 5000);
        ASSERT_FALSE(reply.empty());
      }
      ::close(fd);
    });
  }

  int fd = RawConnect(port);
  ASSERT_GE(fd, 0);
  std::string carry;
  for (int snap = 0; snap < 200; ++snap) {
    ASSERT_TRUE(RawSendAll(fd, "METRICSZ\n"));
    std::string line = RawReadLine(fd, &carry, 5000);
    ASSERT_FALSE(line.empty());
    auto parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    const JsonValue* counters = parsed->Find("counters");
    ASSERT_NE(counters, nullptr);
    auto counter = [counters](const char* name) {
      const JsonValue* v = counters->Find(name);
      return v == nullptr ? 0.0 : v->AsNumber();
    };
    EXPECT_GE(counter("serve.queries.accepted"),
              counter("serve.queries.completed"))
        << "snapshot " << snap << ": completions ahead of admissions";
    EXPECT_GE(counter("serve.server.requests_received"),
              counter("serve.server.requests_completed"))
        << "snapshot " << snap
        << ": request completions ahead of receptions";
    EXPECT_GE(counter("serve.fold_in.admitted"),
              counter("serve.fold_in.completed"))
        << "snapshot " << snap << ": fold-ins completed ahead of admitted";
    EXPECT_GE(counter("serve.queries.accepted"),
              counter("serve.fold_in.admitted"))
        << "snapshot " << snap << ": fold-ins admitted ahead of queries";
  }
  ::close(fd);
  stop.store(true);
  for (std::thread& t : hammers) t.join();

  // Quiescent: the pipeline drains to exact equality.
  auto snap = engine_->TakeMetricsSnapshot();
  EXPECT_EQ(snap.CounterValue("serve.queries.accepted"),
            snap.CounterValue("serve.queries.completed"));
}

}  // namespace
}  // namespace texrheo::serve
