#ifndef TEXRHEO_SERVE_SERVER_H_
#define TEXRHEO_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/query_engine.h"
#include "util/backoff.h"
#include "util/socket_ops.h"
#include "util/status.h"

namespace texrheo::serve {

/// Executes one protocol line and returns the full response (no trailing
/// newline; may contain internal newlines, e.g. a multi-line STATSZ page
/// ending in a lone "."). The seam that lets LineProtocolServer front
/// anything that speaks the line protocol: a QueryEngine (the built-in
/// handler below) or a ReplicaRouter fanning commands over a fleet
/// (serve/router.h). Implementations must be safe to call from many
/// connection threads at once.
class CommandHandler {
 public:
  virtual ~CommandHandler() = default;

  /// `deadline` is the request's absolute budget (kNoDeadline = unlimited).
  /// Set *quit to end the connection after the response is flushed.
  virtual std::string Handle(const std::string& line, bool* quit,
                             Deadline deadline) = 0;
};

/// Line protocol spoken by texrheo_serve. One request per line, one
/// response per line (STATSZ is multi-line, terminated by a lone ".").
/// Responses start with "OK" or "ERR <StatusCode>:", with one exception:
/// METRICSZ answers a single bare JSON line (machine consumers pipe it
/// straight into a JSON parser; an OK prefix would just be stripped).
///
///   PING
///   PREDICT <name=ratio[,name=ratio...]|-> [terms=a,b,...]
///   NEAREST <topic> [method=gaussian-kl|neg-log-density|mahalanobis|euclidean]
///   SIMILAR <name=ratio[,...]|-> [terms=a,b,...] [n=N]
///           [mode=kl|embed|lexical|fused]
///   TOPIC <k>
///   RELOAD <model-file>
///   INGESTZ
///   STATSZ
///   METRICSZ
///   QUIT
///
/// "-" stands for an empty ingredient list (texture-terms-only query).
/// Numeric fields parse strictly or get ERR InvalidArgument: N is a whole
/// unsigned decimal below 2^32 (0 = the engine default), <topic> / <k>
/// are decimal ints, and a ratio is a finite double in fixed or scientific
/// decimal notation (no '+', hex, inf, nan, or under- or overflow) that
/// must then lie in [0, 1].
/// STATSZ and METRICSZ render from one MetricsSnapshot of the engine's
/// registry, so the two pages (and any two counters within one page)
/// can never contradict each other.
struct ServerOptions {
  /// TCP port; 0 binds an ephemeral port (read back via port()).
  int port = 0;
  /// Loopback-only by default; the toy server has no auth story.
  bool loopback_only = true;
  /// NEAREST / SIMILAR rows per response line.
  size_t max_rows = 5;

  // --- Robustness knobs -------------------------------------------------

  /// Socket seam; null = SocketOps::Real(). Not owned; must outlive the
  /// server. Tests substitute a fault-injecting decorator here.
  SocketOps* socket_ops = nullptr;
  /// A connection with no complete request line for this long is reaped
  /// (slow-loris defense): it gets one ERR line, then close. <= 0 disables.
  int idle_timeout_millis = 30000;
  /// A response write that makes no progress for this long drops the
  /// connection (a stalled reader must not park a thread forever).
  int write_timeout_millis = 10000;
  /// Hard cap on buffered request-line bytes. A line that exceeds it gets
  /// one ERR response and the connection is closed — an unbounded buffer is
  /// a memory DoS vector.
  size_t max_line_bytes = 4096;
  /// Max concurrent connections; accepts beyond the cap are shed at accept
  /// time with one ERR line (overload must degrade crisply, not queue).
  size_t max_connections = 64;
  /// Per-request budget threaded into the engine (fold-in admission sheds
  /// blown requests with DeadlineExceeded). <= 0 = unlimited.
  int request_deadline_millis = 0;
  /// Stop(): how long in-flight commands may finish (and flush their
  /// responses) before remaining connections are force-closed.
  int drain_deadline_millis = 2000;
  /// RELOAD circuit breaker: after this many consecutive failures the
  /// server rejects RELOAD with Unavailable for `reload_cooldown_millis`,
  /// then admits one half-open trial.
  int reload_failure_threshold = 3;
  int reload_cooldown_millis = 5000;
};

/// Robustness counters (monotonic unless noted); exported in STATSZ.
/// Filled from the engine's metrics registry (serve.server.*) — the struct
/// is a convenience view for in-process callers, not a second store.
///
/// The reload breaker's state machine is additionally exported through the
/// registry (so METRICSZ consumers see ejections, not just the STATSZ text
/// section); names kept in sync with ci/metricsz_schema.jq:
///   serve.breaker.trips             transitions into kOpen
///   serve.breaker.half_open_trials  cooldown-elapsed trial admissions
///   serve.breaker.recoveries        half-open trials that reclosed
struct ServerStats {
  uint64_t requests_received = 0;   ///< Protocol lines entered HandleCommand.
  uint64_t requests_completed = 0;  ///< ... and produced a response.
  uint64_t connections_accepted = 0;
  uint64_t connections_shed = 0;  ///< Rejected at the connection cap.
  uint64_t current_connections = 0;  ///< Gauge.
  uint64_t peak_connections = 0;
  uint64_t idle_reaped = 0;          ///< Connections dropped by idle timeout.
  uint64_t oversized_rejected = 0;   ///< Request lines over max_line_bytes.
  uint64_t deadlines_exceeded = 0;   ///< Commands answered DeadlineExceeded.
  uint64_t io_errors = 0;  ///< Connections dropped on recv/send failure.
  uint64_t reload_failures = 0;
  uint64_t reload_rejected_by_breaker = 0;
  CircuitBreaker::State breaker_state = CircuitBreaker::State::kClosed;
  CircuitBreaker::Stats breaker;
};

/// Blocking thread-per-connection TCP front-end over a QueryEngine.
///
/// The server owns no model state: every command is answered through the
/// engine, so concurrent connections exercise exactly the same thread
/// safety the in-process API guarantees. All connection I/O is
/// non-blocking and driven through SocketOps::Poll with explicit
/// deadlines, so a slow or hostile peer can stall only its own
/// connection, and only until its idle/write timeout.
///
/// Stop() (or destruction) drains: the listener closes, in-flight commands
/// finish and flush their responses within drain_deadline_millis, then any
/// remaining connections are force-closed and all threads joined. A
/// response that was computed is never dropped by a drain.
class LineProtocolServer {
 public:
  /// `engine` must outlive the server. Commands run through the built-in
  /// engine protocol; serve.server.* and serve.breaker.* metrics register
  /// in the engine's registry.
  LineProtocolServer(QueryEngine* engine, const ServerOptions& options);

  /// Fronts an arbitrary CommandHandler (the router path). `handler` and
  /// `metrics` must outlive the server; serve.server.* metrics register in
  /// `metrics`. The handler owns the whole command surface — the server
  /// contributes only socket I/O, per-connection budgets, and counters.
  LineProtocolServer(CommandHandler* handler, obs::MetricsRegistry* metrics,
                     const ServerOptions& options);

  ~LineProtocolServer();

  LineProtocolServer(const LineProtocolServer&) = delete;
  LineProtocolServer& operator=(const LineProtocolServer&) = delete;

  /// Binds, listens, and starts the accept thread.
  Status Start();

  /// Graceful drain, then force-close: idempotent; safe to call while
  /// connections are active.
  void Stop();

  /// Bound port (valid after Start succeeded).
  int port() const { return port_; }

  uint64_t connections_accepted() const {
    return connections_accepted_->Value();
  }

  ServerStats GetStats() const;

  /// Executes one protocol line against the engine and returns the full
  /// response (no trailing newline; may contain internal newlines). Public
  /// so tests can drive the protocol without sockets. `deadline` is the
  /// request's absolute budget (kNoDeadline = unlimited).
  std::string HandleCommand(const std::string& line, bool* quit,
                            Deadline deadline = kNoDeadline);

 private:
  LineProtocolServer(QueryEngine* engine, CommandHandler* handler,
                     obs::MetricsRegistry* metrics,
                     const ServerOptions& options);

  void AcceptLoop();
  void HandleConnection(int fd);
  /// Writes all of `data`, looping over partial sends and EINTR, waiting
  /// for writability up to write_timeout_millis per unit of progress.
  /// False = connection is unusable (caller should drop it).
  bool WriteAll(int fd, const std::string& data);
  /// "ERR <status>", counting deadline-exceeded responses.
  std::string Err(const Status& status);
  /// One "server:" + "reload_breaker:" statsz section (appended to the
  /// engine's), rendered from the same snapshot as the engine sections.
  std::string StatszSection(const obs::MetricsSnapshot& snap) const;
  void DeregisterConnection(int fd);

  QueryEngine* engine_;      ///< Not owned; null in handler mode.
  CommandHandler* handler_;  ///< Not owned; null in engine mode.
  const ServerOptions options_;
  SocketOps* ops_;  ///< Not owned.

  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::thread accept_thread_;

  std::mutex stop_mu_;    ///< Serializes Stop() callers.
  bool stopped_ = false;  // Guarded by stop_mu_.

  mutable std::mutex conn_mu_;
  std::condition_variable conn_cv_;        ///< Signals active_ changes.
  std::vector<std::thread> conn_threads_;  // Guarded by conn_mu_.
  std::vector<int> conn_fds_;              // Live sockets; guarded by conn_mu_.
  size_t active_ = 0;                      // Live handler threads; conn_mu_.

  // Stats: pre-registered handles into the engine's registry
  // (serve.server.*), bumped lock-free from many connection threads.
  // requests_received is registered before requests_completed and each
  // request increments them in that order, so no registry snapshot ever
  // shows completed > received.
  obs::Counter* requests_received_ = nullptr;
  obs::Counter* requests_completed_ = nullptr;
  obs::Counter* connections_accepted_ = nullptr;
  obs::Counter* connections_shed_ = nullptr;
  obs::Counter* idle_reaped_ = nullptr;
  obs::Counter* oversized_rejected_ = nullptr;
  obs::Counter* deadlines_exceeded_ = nullptr;
  obs::Counter* io_errors_ = nullptr;
  obs::Counter* reload_failures_ = nullptr;
  obs::Counter* reload_rejected_by_breaker_ = nullptr;
  obs::Gauge* current_connections_ = nullptr;
  obs::Gauge* peak_connections_ = nullptr;
  CircuitBreaker reload_breaker_;
};

/// Client-side tuning. The defaults are the legacy behavior (single
/// connect attempt, block forever) so in-process test callers are
/// unchanged; production callers opt into budgets and retries.
struct LineClientOptions {
  /// Total connect attempts (>= 1). Transient connect failures (refused /
  /// reset / interrupted / timed out) are retried with exponential backoff
  /// + jitter; non-transient ones (bad address) fail immediately.
  int max_connect_attempts = 1;
  BackoffPolicy backoff;
  /// Seeds the jitter stream; fixed seed => reproducible schedule.
  uint64_t backoff_seed = 0x7ee1;
  /// Per-round-trip budget: SendLine / ReadLine fail with DeadlineExceeded
  /// when the socket makes no progress for this long. <= 0 = block forever.
  int io_timeout_millis = 0;
  /// Socket seam; null = SocketOps::Real(). Not owned.
  SocketOps* socket_ops = nullptr;
};

/// Minimal blocking client for the line protocol; used by tests, the
/// --selftest mode of texrheo_serve, and the router's replica links.
///
/// Status-code contract (the router's retry policy is built on it):
///  - connect-phase failures -> Unavailable ("replica down": trying the
///    next replica immediately is safe and costs nothing),
///  - per-round-trip budget exhausted -> DeadlineExceeded ("replica slow":
///    retrying elsewhere only makes sense if the request's own budget
///    still allows it),
///  - mid-stream close / reset -> Unavailable; when the peer closes with
///    an unterminated partial line buffered, the Status says so and the
///    partial bytes are dropped, never surfaced as a response.
class LineClient {
 public:
  struct Stats {
    uint64_t connect_retries = 0;
    uint64_t io_retries = 0;  ///< EINTR / partial-I/O continuations.
  };

  static StatusOr<std::unique_ptr<LineClient>> Connect(
      const std::string& host, int port,
      const LineClientOptions& options = LineClientOptions{});
  ~LineClient();

  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  Status SendLine(const std::string& line);
  /// Next newline-terminated line (without the newline).
  StatusOr<std::string> ReadLine();
  /// SendLine + ReadLine under one io_timeout budget.
  StatusOr<std::string> RoundTrip(const std::string& line);
  /// RoundTrip under an explicit absolute deadline instead of the client's
  /// io_timeout (how the router threads per-request / per-probe budgets
  /// through pooled connections).
  StatusOr<std::string> RoundTrip(const std::string& line, Deadline deadline);
  /// Reads lines until a lone "."; returns them joined by '\n' (for STATSZ).
  StatusOr<std::string> ReadUntilDot();

  void Close();

  /// Makes a thread blocked inside this client's I/O fail promptly with
  /// Unavailable by shutting the socket down (recv sees EOF, send sees
  /// EPIPE). Safe to call from another thread while one thread is inside
  /// SendLine / ReadLine / RoundTrip — this is how the router cancels the
  /// losing leg of a hedged request. The client is unusable afterwards.
  void Abort();

  Stats stats() const { return stats_; }

 private:
  LineClient(int fd, const LineClientOptions& options, SocketOps* ops,
             uint64_t connect_retries);

  Status SendWithDeadline(const std::string& payload, Deadline deadline);
  StatusOr<std::string> ReadLineWithDeadline(Deadline deadline);
  /// Blocks until `fd_` is ready for `events` or the deadline passes.
  Status WaitReady(short events, Deadline deadline);

  int fd_;
  const LineClientOptions options_;
  SocketOps* ops_;  ///< Not owned.
  std::string buffer_;
  Stats stats_;
};

}  // namespace texrheo::serve

#endif  // TEXRHEO_SERVE_SERVER_H_
