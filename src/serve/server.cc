#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "serve/protocol.h"

namespace texrheo::serve {

namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

/// How long a connection thread parks in one poll() before re-checking the
/// stop/drain flags and its idle budget. Small enough that drain latency
/// and idle-reap precision stay well under any configured timeout.
constexpr int kPollSliceMillis = 50;

long MillisSince(steady_clock::time_point start) {
  return std::chrono::duration_cast<milliseconds>(steady_clock::now() - start)
      .count();
}

}  // namespace

LineProtocolServer::LineProtocolServer(QueryEngine* engine,
                                       const ServerOptions& options)
    : LineProtocolServer(engine, nullptr, engine->metrics(), options) {}

LineProtocolServer::LineProtocolServer(CommandHandler* handler,
                                       obs::MetricsRegistry* metrics,
                                       const ServerOptions& options)
    : LineProtocolServer(nullptr, handler, metrics, options) {}

LineProtocolServer::LineProtocolServer(QueryEngine* engine,
                                       CommandHandler* handler,
                                       obs::MetricsRegistry* metrics,
                                       const ServerOptions& options)
    : engine_(engine),
      handler_(handler),
      options_(options),
      ops_(options.socket_ops != nullptr ? options.socket_ops
                                         : &SocketOps::Real()),
      reload_breaker_(CircuitBreaker::Options{
          options.reload_failure_threshold, options.reload_cooldown_millis}) {
  // All server counters live in one registry (the engine's in engine mode)
  // so one snapshot covers the whole serving stack. received before
  // completed = the monotone-consistency pair (see header).
  requests_received_ = metrics->RegisterCounter("serve.server.requests_received");
  connections_accepted_ =
      metrics->RegisterCounter("serve.server.connections_accepted");
  connections_shed_ = metrics->RegisterCounter("serve.server.connections_shed");
  idle_reaped_ = metrics->RegisterCounter("serve.server.idle_reaped");
  oversized_rejected_ =
      metrics->RegisterCounter("serve.server.oversized_rejected");
  deadlines_exceeded_ =
      metrics->RegisterCounter("serve.server.deadlines_exceeded");
  io_errors_ = metrics->RegisterCounter("serve.server.io_errors");
  reload_failures_ = metrics->RegisterCounter("serve.server.reload_failures");
  reload_rejected_by_breaker_ =
      metrics->RegisterCounter("serve.server.reload_rejected_by_breaker");
  requests_completed_ =
      metrics->RegisterCounter("serve.server.requests_completed");
  current_connections_ =
      metrics->RegisterGauge("serve.server.current_connections");
  peak_connections_ = metrics->RegisterGauge("serve.server.peak_connections");
  if (engine_ != nullptr) {
    // Surface the reload breaker's transitions as counters (not just the
    // STATSZ text section) so METRICSZ consumers see ejections. Counter
    // increments are lock-free, which is what SetListeners requires.
    obs::Counter* trips = metrics->RegisterCounter("serve.breaker.trips");
    obs::Counter* trials =
        metrics->RegisterCounter("serve.breaker.half_open_trials");
    obs::Counter* recoveries =
        metrics->RegisterCounter("serve.breaker.recoveries");
    reload_breaker_.SetListeners(CircuitBreaker::TransitionListeners{
        [trips] { trips->Increment(); },
        [trials] { trials->Increment(); },
        [recoveries] { recoveries->Increment(); }});
  }
}

LineProtocolServer::~LineProtocolServer() { Stop(); }

Status LineProtocolServer::Start() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr =
      options_.loopback_only ? htonl(INADDR_LOOPBACK) : htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status =
        Status::Internal(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 16) < 0) {
    Status status =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  listen_fd_.store(fd, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void LineProtocolServer::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stopped_) return;

  // Phase 1 — stop accepting. Connection threads observe draining_ within
  // one poll slice; a thread mid-command finishes it and flushes the
  // response before closing (no computed response is ever dropped here).
  draining_.store(true, std::memory_order_release);
  int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    // shutdown() unblocks accept(); close() alone does not on Linux.
    ops_->Shutdown(fd, SHUT_RDWR);
    ops_->Close(fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  // Phase 2 — drain: wait for in-flight handlers to finish on their own.
  {
    std::unique_lock<std::mutex> lock(conn_mu_);
    conn_cv_.wait_for(lock,
                      milliseconds(std::max(0, options_.drain_deadline_millis)),
                      [this] { return active_ == 0; });
  }

  // Phase 3 — force: shut down whatever is still connected. This unblocks
  // threads parked in poll/recv/send; a thread still inside the engine
  // finishes its query and then fails the write cleanly.
  stopping_.store(true, std::memory_order_release);
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int cfd : conn_fds_) ops_->Shutdown(cfd, SHUT_RDWR);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  stopped_ = true;
}

void LineProtocolServer::AcceptLoop() {
  for (;;) {
    int lfd = listen_fd_.load(std::memory_order_acquire);
    if (lfd < 0) return;
    int fd = ops_->Accept(lfd);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_relaxed) ||
          draining_.load(std::memory_order_relaxed)) {
        return;
      }
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK) {
        continue;
      }
      return;  // Listener gone.
    }
    SetNonBlocking(fd);
    bool at_capacity;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      at_capacity = conn_fds_.size() >= options_.max_connections;
    }
    if (at_capacity) {
      // Shed at the door: one crisp ERR beats an unbounded connection
      // backlog that turns overload into latency for everyone.
      connections_shed_->Increment();
      WriteAll(fd, "ERR Unavailable: connection capacity (" +
                       std::to_string(options_.max_connections) +
                       ") reached; retry later\n");
      ops_->Close(fd);
      continue;
    }
    connections_accepted_->Increment();
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_fds_.push_back(fd);
    double cur = static_cast<double>(conn_fds_.size());
    current_connections_->Set(cur);
    peak_connections_->SetMax(cur);
    ++active_;
    conn_threads_.emplace_back([this, fd] { HandleConnection(fd); });
  }
}

bool LineProtocolServer::WriteAll(int fd, const std::string& data) {
  size_t sent = 0;
  steady_clock::time_point last_progress = steady_clock::now();
  while (sent < data.size()) {
    ssize_t w = ops_->Send(fd, data.data() + sent, data.size() - sent);
    if (w > 0) {
      sent += static_cast<size_t>(w);
      last_progress = steady_clock::now();
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Kernel buffer full: the peer is not reading. Wait for writability,
      // but only as long as the write-progress budget allows — a stalled
      // reader must not park this thread forever.
      long waited = MillisSince(last_progress);
      if (options_.write_timeout_millis > 0 &&
          waited >= options_.write_timeout_millis) {
        io_errors_->Increment();
        return false;
      }
      int slice = kPollSliceMillis;
      if (options_.write_timeout_millis > 0) {
        slice = static_cast<int>(std::min<long>(
            slice, options_.write_timeout_millis - waited));
      }
      int ready = ops_->Poll(fd, POLLOUT, std::max(1, slice));
      if (ready < 0 && errno != EINTR) {
        io_errors_->Increment();
        return false;
      }
      continue;
    }
    io_errors_->Increment();
    return false;  // Hard error (EPIPE, ECONNRESET, ...).
  }
  return true;
}

void LineProtocolServer::HandleConnection(int fd) {
  std::string buffer;
  char chunk[1024];
  bool quit = false;
  // The idle clock measures time since the last *complete request line* —
  // a slow-loris client dripping one byte per interval gains nothing.
  steady_clock::time_point last_line = steady_clock::now();
  while (!quit) {
    if (stopping_.load(std::memory_order_relaxed) ||
        draining_.load(std::memory_order_relaxed)) {
      break;
    }
    int slice = kPollSliceMillis;
    if (options_.idle_timeout_millis > 0) {
      long idle = MillisSince(last_line);
      long remaining = options_.idle_timeout_millis - idle;
      if (remaining <= 0) {
        idle_reaped_->Increment();
        WriteAll(fd, Err(Status::DeadlineExceeded(
                     "idle for more than " +
                     std::to_string(options_.idle_timeout_millis) +
                     " ms; closing")) +
                         "\n");
        break;
      }
      slice = static_cast<int>(std::min<long>(slice, remaining));
    }
    int ready = ops_->Poll(fd, POLLIN, std::max(1, slice));
    if (ready < 0) {
      if (errno == EINTR) continue;
      io_errors_->Increment();
      break;
    }
    if (ready == 0) continue;  // Slice elapsed; re-check stop/idle above.
    ssize_t n = ops_->Recv(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      io_errors_->Increment();
      break;
    }
    if (n == 0) break;  // Peer closed.
    buffer.append(chunk, static_cast<size_t>(n));
    size_t newline;
    while (!quit && (newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (line.size() > options_.max_line_bytes) {
        oversized_rejected_->Increment();
        WriteAll(fd, Err(Status::InvalidArgument(
                     "request line exceeds " +
                     std::to_string(options_.max_line_bytes) + " bytes")) +
                         "\n");
        quit = true;
        break;
      }
      last_line = steady_clock::now();
      Deadline deadline =
          DeadlineAfterMillis(options_.request_deadline_millis);
      std::string response = HandleCommand(line, &quit, deadline) + "\n";
      if (!WriteAll(fd, response)) {
        quit = true;
        break;
      }
      // Drain request arrived while this command ran: its response is
      // flushed (above), remaining pipelined input is abandoned.
      if (draining_.load(std::memory_order_relaxed)) {
        quit = true;
        break;
      }
    }
    if (!quit && buffer.size() > options_.max_line_bytes) {
      // A line this long is still incomplete: cap the buffer instead of
      // letting a hostile client grow it without bound.
      oversized_rejected_->Increment();
      WriteAll(fd, Err(Status::InvalidArgument(
                   "request line exceeds " +
                   std::to_string(options_.max_line_bytes) + " bytes")) +
                       "\n");
      break;
    }
  }
  // Deregister before close so Stop() can never shutdown() a recycled fd.
  DeregisterConnection(fd);
  ops_->Close(fd);
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    --active_;
  }
  conn_cv_.notify_all();
}

void LineProtocolServer::DeregisterConnection(int fd) {
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (size_t i = 0; i < conn_fds_.size(); ++i) {
    if (conn_fds_[i] == fd) {
      conn_fds_[i] = conn_fds_.back();
      conn_fds_.pop_back();
      break;
    }
  }
  current_connections_->Set(static_cast<double>(conn_fds_.size()));
}

std::string LineProtocolServer::Err(const Status& status) {
  if (status.code() == StatusCode::kDeadlineExceeded) {
    deadlines_exceeded_->Increment();
  }
  return "ERR " + status.ToString();
}

ServerStats LineProtocolServer::GetStats() const {
  ServerStats stats;
  stats.requests_received = requests_received_->Value();
  stats.requests_completed = requests_completed_->Value();
  stats.connections_accepted = connections_accepted_->Value();
  stats.connections_shed = connections_shed_->Value();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    stats.current_connections = conn_fds_.size();
  }
  stats.peak_connections =
      static_cast<uint64_t>(peak_connections_->Value());
  stats.idle_reaped = idle_reaped_->Value();
  stats.oversized_rejected = oversized_rejected_->Value();
  stats.deadlines_exceeded = deadlines_exceeded_->Value();
  stats.io_errors = io_errors_->Value();
  stats.reload_failures = reload_failures_->Value();
  stats.reload_rejected_by_breaker = reload_rejected_by_breaker_->Value();
  stats.breaker_state = reload_breaker_.state();
  stats.breaker = reload_breaker_.GetStats();
  return stats;
}

std::string LineProtocolServer::StatszSection(
    const obs::MetricsSnapshot& snap) const {
  std::ostringstream out;
  out << "server: requests="
      << snap.CounterValue("serve.server.requests_received") << "/"
      << snap.CounterValue("serve.server.requests_completed")
      << " accepted=" << snap.CounterValue("serve.server.connections_accepted")
      << " shed=" << snap.CounterValue("serve.server.connections_shed")
      << " current="
      << static_cast<uint64_t>(
             snap.GaugeValue("serve.server.current_connections"))
      << " peak="
      << static_cast<uint64_t>(
             snap.GaugeValue("serve.server.peak_connections"))
      << " idle_reaped=" << snap.CounterValue("serve.server.idle_reaped")
      << " oversized="
      << snap.CounterValue("serve.server.oversized_rejected")
      << " deadlines_exceeded="
      << snap.CounterValue("serve.server.deadlines_exceeded")
      << " io_errors=" << snap.CounterValue("serve.server.io_errors") << "\n";
  CircuitBreaker::Stats breaker = reload_breaker_.GetStats();
  out << "reload_breaker: state="
      << CircuitBreaker::StateName(reload_breaker_.state())
      << " failures=" << snap.CounterValue("serve.server.reload_failures")
      << " rejected="
      << snap.CounterValue("serve.server.reload_rejected_by_breaker")
      << " opened=" << breaker.opened
      << " half_opened=" << breaker.half_opened
      << " reclosed=" << breaker.reclosed;
  return out.str();
}

std::string LineProtocolServer::HandleCommand(const std::string& line,
                                              bool* quit, Deadline deadline) {
  *quit = false;
  // received on entry, completed on every exit (the RAII below), in that
  // order — the registry snapshot can then never show completed > received.
  requests_received_->Increment();
  struct RequestScope {
    obs::Counter* completed;
    obs::TraceSpan span;  ///< Root "request" span; ends with the scope.
    ~RequestScope() { completed->Increment(); }
  } scope{requests_completed_, {}};
  // Handler mode: the handler owns the whole command surface (including
  // its own tracing); the server contributes only the counter pair above.
  if (handler_ != nullptr) return handler_->Handle(line, quit, deadline);
  obs::Tracer* tracer = engine_->tracer();
  if (tracer != nullptr) scope.span = tracer->StartSpan("request");
  const uint64_t trace_parent = scope.span.span_id();
  std::vector<std::string> tokens = SplitProtocolTokens(line);
  if (tokens.empty()) return Err(Status::InvalidArgument("empty command"));
  const std::string& cmd = tokens[0];

  if (cmd == "PING") return "OK pong";
  if (cmd == "QUIT") {
    *quit = true;
    return "OK bye";
  }

  if (cmd == "PREDICT") {
    auto query_or = ParseQueryCommand(tokens, nullptr);
    if (!query_or.ok()) return Err(query_or.status());
    auto prediction_or =
        engine_->PredictTexture(*query_or, deadline, trace_parent);
    if (!prediction_or.ok()) return Err(prediction_or.status());
    const TexturePrediction& p = *prediction_or;
    std::string out = "OK topic=" + std::to_string(p.topic) +
                      " cached=" + (p.from_cache ? "1" : "0");
    out += " hard=";
    AppendFixed(&out, p.categories.hard, 4);
    out += " soft=";
    AppendFixed(&out, p.categories.soft, 4);
    out += " elastic=";
    AppendFixed(&out, p.categories.elastic, 4);
    out += " crumbly=";
    AppendFixed(&out, p.categories.crumbly, 4);
    out += " sticky=";
    AppendFixed(&out, p.categories.sticky, 4);
    out += " dry=";
    AppendFixed(&out, p.categories.dry, 4);
    out += " top=";
    for (size_t i = 0; i < p.top_terms.size(); ++i) {
      if (i > 0) out += ',';
      out += p.top_terms[i].first + ':';
      AppendFixed(&out, p.top_terms[i].second, 4);
    }
    return out;
  }

  if (cmd == "NEAREST") {
    if (tokens.size() < 2) {
      return Err(
          Status::InvalidArgument("usage: NEAREST <topic> [method=...]"));
    }
    auto topic_or = ParseTopicIndex(tokens[1]);
    if (!topic_or.ok()) return Err(topic_or.status());
    core::LinkageOptions options = engine_->config().linkage;
    const core::LinkageOptions* options_ptr = nullptr;
    if (tokens.size() > 2) {
      if (tokens[2].rfind("method=", 0) != 0) {
        return Err(
            Status::InvalidArgument("unknown option '" + tokens[2] + "'"));
      }
      auto method_or = ParseLinkageMethod(tokens[2].substr(7));
      if (!method_or.ok()) return Err(method_or.status());
      options.method = *method_or;
      options_ptr = &options;
    }
    auto matches_or = engine_->NearestRheology(*topic_or, options_ptr);
    if (!matches_or.ok()) return Err(matches_or.status());
    std::string out = "OK";
    size_t rows = std::min(options_.max_rows, matches_or->size());
    for (size_t i = 0; i < rows; ++i) {
      const RheologyMatch& m = (*matches_or)[i];
      out += " setting=" + std::to_string(m.setting_id) + ":";
      AppendFixed(&out, m.divergence, 4);
    }
    return out;
  }

  if (cmd == "SIMILAR") {
    size_t top_n = 0;
    SimilarityMode mode = SimilarityMode::kKl;
    auto query_or = ParseQueryCommand(tokens, &top_n, &mode);
    if (!query_or.ok()) return Err(query_or.status());
    auto result_or =
        engine_->SimilarRecipes(*query_or, top_n, deadline, trace_parent, mode);
    if (!result_or.ok()) return Err(result_or.status());
    std::string out = "OK topic=" + std::to_string(result_or->topic) +
                      " mode=" + SimilarityModeName(result_or->mode);
    size_t rows = std::min(options_.max_rows, result_or->recipes.size());
    if (top_n != 0) rows = std::min(rows, top_n);
    out += " recipes=";
    for (size_t i = 0; i < rows; ++i) {
      if (i > 0) out += ',';
      out += std::to_string(result_or->recipes[i].recipe_index) + ':';
      AppendFixed(&out, result_or->recipes[i].divergence, 4);
    }
    return out;
  }

  if (cmd == "TOPIC") {
    if (tokens.size() < 2) {
      return Err(Status::InvalidArgument("usage: TOPIC <k>"));
    }
    auto topic_or = ParseTopicIndex(tokens[1]);
    if (!topic_or.ok()) return Err(topic_or.status());
    auto card_or = engine_->TopicCard(*topic_or);
    if (!card_or.ok()) return Err(card_or.status());
    std::string out = "OK topic=" + std::to_string(card_or->topic) +
                      " recipes=" + std::to_string(card_or->recipe_count) +
                      " top=";
    for (size_t i = 0; i < card_or->top_terms.size(); ++i) {
      if (i > 0) out += ',';
      out += card_or->top_terms[i].first + ':';
      AppendFixed(&out, card_or->top_terms[i].second, 4);
    }
    out += " gel=";
    for (size_t i = 0; i < card_or->gel_mean_concentration.size(); ++i) {
      if (i > 0) out += ',';
      AppendFixed(&out, card_or->gel_mean_concentration[i], 5);
    }
    return out;
  }

  if (cmd == "RELOAD") {
    if (tokens.size() < 2) {
      return Err(Status::InvalidArgument("usage: RELOAD <model-file>"));
    }
    // A model file that fails to load will fail identically on every
    // retry; the breaker stops a reload-retry loop from starving queries.
    if (!reload_breaker_.Allow(steady_clock::now())) {
      reload_rejected_by_breaker_->Increment();
      return Err(Status::Unavailable(
          "reload circuit breaker open after repeated failures; retry "
          "after cooldown"));
    }
    Status status = engine_->ReloadFromFile(tokens[1]);
    if (!status.ok()) {
      reload_failures_->Increment();
      reload_breaker_.RecordFailure(steady_clock::now());
      return Err(status);
    }
    reload_breaker_.RecordSuccess();
    char fp[16];
    std::snprintf(fp, sizeof(fp), "%08x",
                  engine_->snapshot()->fingerprint());
    return std::string("OK reloaded fingerprint=") + fp;
  }

  if (cmd == "INGESTZ") {
    // Streamed-delta state: recipes folded in since the last reload plus
    // pending-vocabulary terms (see QueryEngine::RenderIngestz).
    std::string stats = engine_->RenderIngestz();
    if (!stats.empty() && stats.back() == '\n') stats.pop_back();
    return stats + "\n.";
  }

  if (cmd == "STATSZ") {
    // One snapshot renders both the engine and server sections, so the
    // page is internally consistent by construction.
    obs::MetricsSnapshot snap = engine_->TakeMetricsSnapshot();
    std::string stats = engine_->RenderStatsz(snap);
    if (!stats.empty() && stats.back() == '\n') stats.pop_back();
    return stats + "\n" + StatszSection(snap) + "\n.";
  }

  if (cmd == "METRICSZ") {
    // Single bare JSON line (see header): the machine-readable twin of
    // STATSZ, rendered from the same registry.
    return engine_->MetricszJson();
  }

  return Err(Status::InvalidArgument("unknown command '" + cmd + "'"));
}

// --- LineClient ---------------------------------------------------------

LineClient::LineClient(int fd, const LineClientOptions& options,
                       SocketOps* ops, uint64_t connect_retries)
    : fd_(fd), options_(options), ops_(ops) {
  stats_.connect_retries = connect_retries;
}

StatusOr<std::unique_ptr<LineClient>> LineClient::Connect(
    const std::string& host, int port, const LineClientOptions& options) {
  SocketOps* ops = options.socket_ops != nullptr ? options.socket_ops
                                                 : &SocketOps::Real();
  Rng rng(options.backoff_seed);
  const int attempts = std::max(1, options.max_connect_attempts);
  uint64_t retries = 0;
  Status last = Status::Unavailable("connect: no attempts made");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      double delay = BackoffDelayMillis(options.backoff, attempt - 1, rng);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay));
      ++retries;
    }
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::Internal(std::string("socket: ") + std::strerror(errno));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      return Status::InvalidArgument("bad host '" + host + "'");
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      if (options.io_timeout_millis > 0) SetNonBlocking(fd);
      return std::unique_ptr<LineClient>(
          new LineClient(fd, options, ops, retries));
    }
    int err = errno;
    ::close(fd);
    const bool transient = err == ECONNREFUSED || err == ECONNRESET ||
                           err == ETIMEDOUT || err == EINTR ||
                           err == EAGAIN || err == ENETUNREACH;
    if (!transient) {
      // Still Unavailable, not Internal: whatever the errno, the peer is
      // unreachable — a router must treat it as "this replica is down"
      // (retry elsewhere now), never as a caller bug. Only retrying *here*
      // is pointless, hence no backoff loop.
      return Status::Unavailable(std::string("connect: ") +
                                 std::strerror(err));
    }
    last = Status::Unavailable(std::string("connect: ") + std::strerror(err) +
                               " (attempt " + std::to_string(attempt + 1) +
                               "/" + std::to_string(attempts) + ")");
  }
  return last;
}

LineClient::~LineClient() { Close(); }

void LineClient::Close() {
  if (fd_ >= 0) {
    ops_->Close(fd_);
    fd_ = -1;
  }
}

void LineClient::Abort() {
  // shutdown, not close: the fd stays allocated (no reuse race with the
  // thread still blocked in poll/recv on it), but every pending and future
  // I/O on it fails promptly. fd_ itself is only ever written by the owner
  // thread (ctor / Close), so this cross-thread read is race-free.
  if (fd_ >= 0) ops_->Shutdown(fd_, SHUT_RDWR);
}

Status LineClient::WaitReady(short events, Deadline deadline) {
  int timeout = -1;
  if (deadline != kNoDeadline) {
    auto remaining = std::chrono::duration_cast<milliseconds>(
                         deadline - steady_clock::now())
                         .count();
    if (remaining <= 0) {
      return Status::DeadlineExceeded("client i/o budget (" +
                                      std::to_string(
                                          options_.io_timeout_millis) +
                                      " ms) exhausted");
    }
    timeout = static_cast<int>(std::min<long long>(remaining, 1 << 20));
  }
  int ready = ops_->Poll(fd_, events, timeout);
  if (ready < 0 && errno != EINTR) {
    return Status::Internal(std::string("poll: ") + std::strerror(errno));
  }
  return Status::OK();  // Ready, timeout, or EINTR: caller re-checks.
}

Status LineClient::SendWithDeadline(const std::string& payload,
                                    Deadline deadline) {
  if (fd_ < 0) return Status::FailedPrecondition("client closed");
  size_t sent = 0;
  while (sent < payload.size()) {
    ssize_t w = ops_->Send(fd_, payload.data() + sent, payload.size() - sent);
    if (w > 0) {
      sent += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) {
      ++stats_.io_retries;
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      ++stats_.io_retries;
      TEXRHEO_RETURN_IF_ERROR(WaitReady(POLLOUT, deadline));
      continue;
    }
    // EPIPE / ECONNRESET / ...: the connection is gone, not slow.
    return Status::Unavailable(std::string("send: ") + std::strerror(errno));
  }
  return Status::OK();
}

StatusOr<std::string> LineClient::ReadLineWithDeadline(Deadline deadline) {
  if (fd_ < 0) return Status::FailedPrecondition("client closed");
  for (;;) {
    size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    char chunk[1024];
    ssize_t n = ops_->Recv(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      // Peer closed mid-response. A buffered unterminated line must be
      // reported and dropped — surfacing a truncated response as data
      // would hand the caller a silently-corrupt answer.
      if (!buffer_.empty()) {
        size_t dropped = buffer_.size();
        buffer_.clear();
        return Status::Unavailable(
            "connection closed mid-response with " +
            std::to_string(dropped) +
            " unterminated byte(s) buffered; partial line dropped");
      }
      return Status::Unavailable("connection closed while awaiting response");
    }
    if (errno == EINTR) {
      ++stats_.io_retries;
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      TEXRHEO_RETURN_IF_ERROR(WaitReady(POLLIN, deadline));
      continue;
    }
    return Status::Unavailable(std::string("recv: ") + std::strerror(errno));
  }
}

Status LineClient::SendLine(const std::string& line) {
  return SendWithDeadline(line + "\n",
                          DeadlineAfterMillis(options_.io_timeout_millis));
}

StatusOr<std::string> LineClient::ReadLine() {
  return ReadLineWithDeadline(
      DeadlineAfterMillis(options_.io_timeout_millis));
}

StatusOr<std::string> LineClient::RoundTrip(const std::string& line) {
  // One budget for the whole exchange, not one per leg.
  return RoundTrip(line, DeadlineAfterMillis(options_.io_timeout_millis));
}

StatusOr<std::string> LineClient::RoundTrip(const std::string& line,
                                            Deadline deadline) {
  TEXRHEO_RETURN_IF_ERROR(SendWithDeadline(line + "\n", deadline));
  return ReadLineWithDeadline(deadline);
}

StatusOr<std::string> LineClient::ReadUntilDot() {
  std::string all;
  for (;;) {
    TEXRHEO_ASSIGN_OR_RETURN(std::string line, ReadLine());
    if (line == ".") return all;
    if (!all.empty()) all += '\n';
    all += line;
  }
}

}  // namespace texrheo::serve
