// fenrir::obs — the live introspection plane's front door.
//
// A dependency-free HTTP/1.1 status server: one background thread, a
// blocking accept loop (poll()-ticked so shutdown never hangs), one
// request per connection. It exists so a long-running `fenrirctl watch`
// or measurement campaign can be inspected *while it runs* instead of
// only through artifacts written at exit:
//
//   GET /metrics  — the process metrics registry in Prometheus
//                   exposition format (metrics.h::write_prometheus)
//   GET /healthz  — health JSON: {"status":"ok",...} with uptime and
//                   the StatusBoard publish age; answers HTTP 503 with
//                   {"status":"degraded","reason":...} once a journal
//                   or event sink has hit write errors (health.h) —
//                   liveness stays, trust in the artifacts does not
//   GET /status   — the StatusBoard fragments as one JSON object
//                   (status_board.h) plus an "events_recent" panel of
//                   the newest detection events
//   GET /profile  — the aggregated span tree as JSON
//                   (span.h::write_profile_json)
//   GET /events   — the detection event stream (events.h) as
//                   {"last_seq":...,"oldest_seq":...,"events":[...]}.
//                   Query: since=<seq> (events after that seq; default
//                   0 = everything still ringed), type=<t> and
//                   severity=<min> filter, wait_ms=<n> long-polls up to
//                   n ms (capped) for a fresh event before answering,
//                   max=<n> caps the batch. Malformed values answer 400.
//   GET /metrics/history — the windowed-aggregate snapshot ring
//                   (metrics_window.h) — rate/quantile trends as JSON
//
// Anything else answers 404; non-GET answers 405; a request line that
// does not parse answers 400. Responses carry Content-Length and
// Connection: close — curl-friendly, nothing persistent.
//
// Deliberately NOT a web framework: no TLS, no auth, no keep-alive, no
// request bodies. It binds 127.0.0.1 only — this is a local diagnostic
// socket, not a service. If the requested port is taken the server
// falls back to an ephemeral port (bind 0) and logs the one it got;
// `port()` reports the actual port, and fenrirctl can write it to a
// file (--status-port-file) so scripts need not parse logs.
//
// The serving thread only ever *reads* snapshots (the registry, board
// and profile all copy under their own locks), so a slow or stuck
// client cannot block the pipeline — observation never steers.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>

namespace fenrir::obs {

class HttpServer {
 public:
  HttpServer() = default;
  ~HttpServer();  // calls stop()

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 127.0.0.1:@p port (0 = ephemeral) and starts the serving
  /// thread. If @p port is taken, falls back to an ephemeral port and
  /// logs a warning with the replacement. Returns false only when no
  /// socket could be bound at all (the pipeline then proceeds without a
  /// status server — introspection is optional, the work is not).
  bool start(std::uint16_t port);

  /// Stops accepting, unblocks the serving thread, joins it. Idempotent;
  /// safe to call with the server never started. In-flight responses get
  /// ~200ms to finish writing before the socket closes under them.
  void stop();

  bool running() const noexcept { return running_.load(std::memory_order_acquire); }

  /// The actually bound port (after any ephemeral fallback); 0 when not
  /// running.
  std::uint16_t port() const noexcept { return port_.load(std::memory_order_acquire); }

  /// Requests served since start (tests; includes error responses).
  std::uint64_t requests_served() const noexcept {
    return served_.load(std::memory_order_relaxed);
  }

 private:
  void serve_loop();
  void handle_connection(int client_fd);

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint16_t> port_{0};
  std::atomic<std::uint64_t> served_{0};
  int listen_fd_ = -1;
};

/// A request's first line, split: a GET's target as path and query, or
/// the error status the server answers instead.
struct RequestLine {
  /// 0 when the line parsed as a GET; 400 when it is not "METHOD SP
  /// target SP HTTP/..."; 405 for any method but GET.
  int error_status = 0;
  std::string_view path;   // the target up to its first '?'
  std::string_view query;  // after that '?', without it (may be empty)
};

/// Splits the first line of @p request (up to its first "\r\n", or all
/// of it) as the server does before routing; the views point into
/// @p request. Pure, so the fuzzers can drive it without sockets.
RequestLine parse_request_line(std::string_view request);

/// Builds the response for @p path exactly as the server would. Returns
/// false for an unknown path (the caller's 404); for known paths sets
/// @p http_status (200, 400 on bad query parameters, 503 for a degraded
/// /healthz). @p query is the raw query string without the '?' (may be
/// empty); @p cancel (optional) aborts a long-polling /events wait
/// early, e.g. on server shutdown. Split out so tests can exercise
/// endpoint content without sockets, and so the body is rendered
/// identically everywhere.
bool render_endpoint(const std::string& path, const std::string& query,
                     std::string& body, std::string& content_type,
                     int& http_status,
                     const std::atomic<bool>* cancel = nullptr);

/// Query-less convenience overload (status discarded); the form most
/// tests and fenrirctl's --metrics-out path use.
bool render_endpoint(const std::string& path, std::string& body,
                     std::string& content_type);

}  // namespace fenrir::obs
