// LineProtocolServer + LineClient: end-to-end TCP sessions on an ephemeral
// port, protocol parsing (including malformed input), concurrent clients,
// and clean shutdown with connections open.

#include "serve/server.h"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "math/distributions.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"

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

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto snapshot = ServingSnapshot::FromModel(TinyModel(), "server-test");
    ASSERT_TRUE(snapshot.ok());
    QueryEngineConfig config;
    config.fold_in_sweeps = 10;
    auto engine = QueryEngine::Create(config, *snapshot, nullptr);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(engine).value();
    server_ = std::make_unique<LineProtocolServer>(engine_.get(),
                                                   ServerOptions{});
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<LineProtocolServer> server_;
};

TEST_F(ServerTest, PingPong) {
  auto client = LineClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto reply = (*client)->RoundTrip("PING");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "OK pong");
}

TEST_F(ServerTest, FullScriptedSession) {
  auto client = LineClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  auto predict =
      (*client)->RoundTrip("PREDICT gelatin=0.01 terms=katai,katai");
  ASSERT_TRUE(predict.ok());
  EXPECT_EQ(predict->rfind("OK topic=", 0), 0u) << *predict;
  EXPECT_NE(predict->find("cached=0"), std::string::npos);

  auto cached = (*client)->RoundTrip("PREDICT gelatin=0.01 terms=katai,katai");
  ASSERT_TRUE(cached.ok());
  EXPECT_NE(cached->find("cached=1"), std::string::npos) << *cached;

  auto nearest = (*client)->RoundTrip("NEAREST 0");
  ASSERT_TRUE(nearest.ok());
  EXPECT_EQ(nearest->rfind("OK setting=", 0), 0u) << *nearest;

  auto topic = (*client)->RoundTrip("TOPIC 1");
  ASSERT_TRUE(topic.ok());
  EXPECT_NE(topic->find("top=purupuru"), std::string::npos) << *topic;

  ASSERT_TRUE((*client)->SendLine("STATSZ").ok());
  auto statsz = (*client)->ReadUntilDot();
  ASSERT_TRUE(statsz.ok());
  EXPECT_NE(statsz->find("cache:"), std::string::npos);

  auto bye = (*client)->RoundTrip("QUIT");
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(*bye, "OK bye");
}

TEST_F(ServerTest, MalformedCommandsGetErrNotDisconnect) {
  auto client = LineClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  for (const char* bad :
       {"FROBNICATE", "PREDICT", "PREDICT gelatin", "PREDICT gelatin=x",
        "PREDICT unobtainium=0.5", "NEAREST", "NEAREST abc", "NEAREST 42",
        "NEAREST 0 method=cosine", "TOPIC -3", "SIMILAR -",
        "RELOAD /nonexistent/model.txt"}) {
    auto reply = (*client)->RoundTrip(bad);
    ASSERT_TRUE(reply.ok()) << bad;
    EXPECT_EQ(reply->rfind("ERR", 0), 0u) << bad << " -> " << *reply;
  }
  // Numeric fields parse strictly: n= is a whole unsigned 32-bit decimal,
  // a topic index fits in an int, and a ratio is a finite decimal double
  // with no sign, hex or underflow. These fail in the parser, before the
  // engine could answer FailedPrecondition (this fixture has no corpus).
  for (const char* bad :
       {"SIMILAR gelatin=0.01 n=-1", "SIMILAR gelatin=0.01 n=abc",
        "SIMILAR gelatin=0.01 n=5x", "SIMILAR gelatin=0.01 n=",
        "SIMILAR gelatin=0.01 n=+5", "SIMILAR gelatin=0.01 n=4294967296",
        "TOPIC 4294967297", "TOPIC 1x", "NEAREST -4294967295",
        "PREDICT gelatin=0x1p-4", "PREDICT gelatin=1e-400",
        "PREDICT gelatin=+0.02", "PREDICT gelatin=inf",
        "PREDICT gelatin=nan", "PREDICT gelatin=-0"}) {
    auto reply = (*client)->RoundTrip(bad);
    ASSERT_TRUE(reply.ok()) << bad;
    EXPECT_EQ(reply->rfind("ERR InvalidArgument", 0), 0u)
        << bad << " -> " << *reply;
  }
  // The connection survived all of it.
  auto reply = (*client)->RoundTrip("PING");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "OK pong");
}

TEST_F(ServerTest, SimilarWithoutCorpusIsFailedPrecondition) {
  auto client = LineClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  auto reply = (*client)->RoundTrip("SIMILAR gelatin=0.01");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->rfind("ERR FailedPrecondition", 0), 0u) << *reply;
}

TEST_F(ServerTest, ConcurrentClientsAllGetAnswers) {
  constexpr int kClients = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = LineClient::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 10; ++i) {
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
  EXPECT_GE(server_->connections_accepted(), static_cast<uint64_t>(kClients));
}

TEST_F(ServerTest, StopWithOpenConnectionsIsClean) {
  auto client = LineClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->RoundTrip("PING").ok());
  server_->Stop();  // Client still open: must not hang or crash.
  // After stop, the next read fails instead of blocking forever.
  auto reply = (*client)->RoundTrip("PING");
  EXPECT_FALSE(reply.ok());
}

// --- LineClient status-code contract ---------------------------------------
// The router's retry policy keys on these codes (serve/server.h): connect
// failures and mid-stream closes are Unavailable, an unresponsive-but-open
// peer is DeadlineExceeded. These tests pin the contract with a raw TCP
// peer so a refactor cannot silently blur "down" and "slow".

/// Minimal raw TCP peer: accepts one connection, swallows the request,
/// then either writes `payload` and closes (mid-stream close / partial
/// line) or goes silent until torn down (stuck peer).
class RawPeer {
 public:
  enum class Mode { kCloseAfterPayload, kSilent };

  explicit RawPeer(Mode mode, std::string payload = "")
      : mode_(mode), payload_(std::move(payload)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 4) != 0) {
      return;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] {
      int conn = ::accept(listen_fd_, nullptr, nullptr);
      if (conn < 0) return;
      char buf[256];
      (void)::recv(conn, buf, sizeof(buf), 0);
      if (mode_ == Mode::kCloseAfterPayload) {
        if (!payload_.empty()) {
          (void)::send(conn, payload_.data(), payload_.size(), 0);
        }
        ::close(conn);
        return;
      }
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_; });
      ::close(conn);
    });
  }

  ~RawPeer() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (listen_fd_ >= 0) {
      ::shutdown(listen_fd_, SHUT_RDWR);
      ::close(listen_fd_);
    }
    if (thread_.joinable()) thread_.join();
  }

  int port() const { return port_; }

 private:
  const Mode mode_;
  const std::string payload_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // Guarded by mu_.
  std::thread thread_;
};

TEST(LineClientContractTest, ConnectRefusedIsUnavailable) {
  // Grab an ephemeral port, then close it so the connect is refused.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const int dead_port = ntohs(addr.sin_port);
  ::close(fd);

  auto client = LineClient::Connect("127.0.0.1", dead_port);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kUnavailable)
      << client.status().ToString();
}

TEST(LineClientContractTest, PartialLineAtEofIsUnavailableAndDropsBytes) {
  // The peer sends response bytes with no terminating newline, then
  // closes. The client must fail Unavailable — and must say it dropped an
  // unterminated partial line, not surface the fragment as a response.
  RawPeer peer(RawPeer::Mode::kCloseAfterPayload, "OK half-a-respo");
  ASSERT_GT(peer.port(), 0);
  LineClientOptions options;
  options.io_timeout_millis = 5000;
  auto client = LineClient::Connect("127.0.0.1", peer.port(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto reply = (*client)->RoundTrip("PING");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable)
      << reply.status().ToString();
  EXPECT_NE(reply.status().message().find("unterminated"), std::string::npos)
      << reply.status().ToString();
}

TEST(LineClientContractTest, CleanCloseWithNoBufferedBytesIsUnavailable) {
  RawPeer peer(RawPeer::Mode::kCloseAfterPayload, "");
  ASSERT_GT(peer.port(), 0);
  LineClientOptions options;
  options.io_timeout_millis = 5000;
  auto client = LineClient::Connect("127.0.0.1", peer.port(), options);
  ASSERT_TRUE(client.ok());
  auto reply = (*client)->RoundTrip("PING");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
  // No partial bytes were buffered, so the error must not claim any.
  EXPECT_EQ(reply.status().message().find("unterminated"), std::string::npos)
      << reply.status().ToString();
}

TEST(LineClientContractTest, SilentOpenPeerIsDeadlineExceeded) {
  RawPeer peer(RawPeer::Mode::kSilent);
  ASSERT_GT(peer.port(), 0);
  LineClientOptions options;
  options.io_timeout_millis = 100;  // "Slow", not "down".
  auto client = LineClient::Connect("127.0.0.1", peer.port(), options);
  ASSERT_TRUE(client.ok());
  auto reply = (*client)->RoundTrip("PING");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded)
      << reply.status().ToString();
}

TEST(ServerProtocolTest, HandleCommandIsUsableWithoutSockets) {
  auto snapshot = ServingSnapshot::FromModel(TinyModel(), "proto-test");
  ASSERT_TRUE(snapshot.ok());
  QueryEngineConfig config;
  config.fold_in_sweeps = 5;
  auto engine = QueryEngine::Create(config, *snapshot, nullptr);
  ASSERT_TRUE(engine.ok());
  LineProtocolServer server(engine->get(), ServerOptions{});
  bool quit = false;
  EXPECT_EQ(server.HandleCommand("PING", &quit), "OK pong");
  EXPECT_FALSE(quit);
  EXPECT_EQ(server.HandleCommand("QUIT", &quit), "OK bye");
  EXPECT_TRUE(quit);
  quit = false;
  std::string statsz = server.HandleCommand("STATSZ", &quit);
  EXPECT_NE(statsz.find("texrheo_serve statsz"), std::string::npos);
  EXPECT_EQ(statsz.substr(statsz.size() - 2), "\n.");
}

/// printf's "%.*f" of `v`, with room for every digit.
std::string PrintfFixed(double v, int precision) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

TEST(ServerProtocolTest, AppendFixedWritesWhatPrintfWrites) {
  std::vector<double> values = {0.0,
                                -0.0,
                                1.0,
                                -1.0,
                                0.03125,  // Exact ties at the 4th decimal.
                                0.00005,
                                0.000015,
                                2.5e-5,
                                123456.789,
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                -std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  // Near-ties: the halfway points at the 4th and 5th decimal and the
  // doubles on either side of them, over a spread of magnitudes.
  for (int scale : {10000, 100000}) {
    for (int i = 0; i < 20000; ++i) {
      const double mid = (i + 0.5) / scale;
      for (double v : {mid, std::nextafter(mid, 0.0), std::nextafter(mid, 1.0),
                       -mid, mid * 1e6}) {
        values.push_back(v);
      }
    }
  }
  for (int e = -40; e <= 40; ++e) {
    values.push_back(1.2345678901234567 * std::pow(10.0, e));
  }
  for (double v : values) {
    for (int precision : {4, 5}) {
      std::string out = "x=";
      AppendFixed(&out, v, precision);
      EXPECT_EQ(out, "x=" + PrintfFixed(v, precision))
          << "precision " << precision;
    }
  }
  // Every integer digit stays: 1e34 is the double
  // 9999999999999999455752309870428160.
  std::string out;
  AppendFixed(&out, 1e34, 4);
  EXPECT_EQ(out, "9999999999999999455752309870428160.0000");
}

}  // namespace
}  // namespace texrheo::serve
