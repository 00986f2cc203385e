#include "obs/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <sstream>
#include <string_view>

#include "obs/events.h"
#include "obs/health.h"
#include "obs/lineage.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/query.h"
#include "obs/metrics_window.h"
#include "obs/span.h"
#include "obs/status_board.h"
#include "obs/trace_export.h"

namespace fenrir::obs {

namespace {

constexpr int kPollTickMs = 200;       // stop_ check cadence
constexpr std::size_t kMaxRequest = 8192;  // request head cap → 400

std::chrono::steady_clock::time_point server_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

Counter& requests_counter() {
  static Counter& c = registry().counter(
      "fenrir_status_requests_total", "HTTP requests served by the status server");
  return c;
}

std::string status_line(int code) {
  switch (code) {
    case 200: return "HTTP/1.1 200 OK";
    case 400: return "HTTP/1.1 400 Bad Request";
    case 404: return "HTTP/1.1 404 Not Found";
    case 405: return "HTTP/1.1 405 Method Not Allowed";
    case 503: return "HTTP/1.1 503 Service Unavailable";
    default:  return "HTTP/1.1 500 Internal Server Error";
  }
}

/// The /events endpoint: filterable catch-up read with optional
/// long-poll. Bad parameters answer 400 with the shared obs/query.h
/// JSON error bodies (byte-identical with /lineage — pinned by test).
void render_events(const std::string& query, std::string& body,
                   int& http_status, const std::atomic<bool>* cancel) {
  std::uint64_t since = 0;
  std::string type;
  Severity min_severity = Severity::kDebug;
  std::uint64_t wait_ms = 0;
  std::uint64_t max_events = 1000;

  const QueryParams params(query);
  http_status = 400;
  if (!params.get_u64("since", since, body)) return;
  if (const auto raw = params.raw("type")) type = *raw;
  if (!params.get_severity("severity", min_severity, body)) return;
  if (!params.get_u64("wait_ms", wait_ms, body)) return;
  wait_ms = std::min<std::uint64_t>(wait_ms, 30000);  // patience cap
  if (!params.get_positive_u64("max", max_events, body)) return;

  EventBus& bus = event_bus();
  if (wait_ms > 0 && bus.last_seq() <= since) {
    bus.wait_for(since, std::chrono::milliseconds(wait_ms), cancel);
  }
  const std::vector<Event> events =
      bus.since(since, type, min_severity, max_events);

  std::ostringstream os;
  os << "{\"last_seq\":" << bus.last_seq()
     << ",\"oldest_seq\":" << bus.oldest_seq() << ",\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i) os << ',';
    os << event_json(events[i]);
  }
  os << "]}\n";
  body = os.str();
  http_status = 200;
}

constexpr std::string_view kVerdictNames[] = {"new_mode", "recurrence",
                                              "repeat"};

/// The /lineage endpoint: the decision-record analogue of /events —
/// cursor + filters over the in-memory ring, same 400 taxonomy.
void render_lineage(const std::string& query, std::string& body,
                    int& http_status) {
  std::uint64_t since = 0;
  std::uint64_t max_records = 1000;
  std::optional<std::uint64_t> mode;
  std::optional<Verdict> verdict;

  const QueryParams params(query);
  http_status = 400;
  if (!params.get_u64("since", since, body)) return;
  if (params.raw("mode")) {
    std::uint64_t value = 0;
    if (!params.get_u64("mode", value, body)) return;
    mode = value;
  }
  std::string verdict_text;
  if (!params.get_one_of("verdict", kVerdictNames, verdict_text, body)) {
    return;
  }
  if (!verdict_text.empty()) verdict = parse_verdict(verdict_text);
  if (!params.get_positive_u64("max", max_records, body)) return;

  LineageStore& store = lineage();
  const std::vector<DecisionRecord> records =
      store.since(since, mode, verdict, max_records);

  std::ostringstream os;
  os << "{\"last_id\":" << store.last_id()
     << ",\"oldest_id\":" << store.oldest_id()
     << ",\"evicted_total\":" << store.evicted_total() << ",\"records\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i) os << ',';
    os << record_json(records[i]);
  }
  os << "]}\n";
  body = os.str();
  http_status = 200;
}

/// The /explain/<mode> endpoint: "why does the book keep calling
/// observations recurrences of this mode" — per-mode aggregates plus
/// the mode's recent records.
void render_explain(const std::string& mode_text, std::string& body,
                    int& http_status) {
  const auto mode = parse_u64(mode_text);
  if (!mode) {
    body = query_error_body("mode", "a non-negative integer");
    http_status = 400;
    return;
  }
  LineageStore& store = lineage();
  const auto agg = store.mode_lineage(*mode);
  if (!agg) {
    body = "{\"error\":\"mode " + std::to_string(*mode) +
           " has no lineage\"}\n";
    http_status = 404;
    return;
  }

  std::ostringstream os;
  os << "{\"mode\":" << *mode << ",\"visits\":" << agg->visits
     << ",\"recurrences\":" << agg->recurrences
     << ",\"runner_up\":" << agg->runner_up
     << ",\"last_phi\":" << render_double(agg->last_phi)
     << ",\"first_seen\":" << agg->first_seen
     << ",\"last_seen\":" << agg->last_seen << ",\"gap_histogram\":[";
  for (std::size_t i = 0; i < agg->gap_buckets.size(); ++i) {
    if (i) os << ',';
    os << "{\"le\":";
    if (i < kLineageGapBounds.size()) {
      os << kLineageGapBounds[i];
    } else {
      os << "\"+inf\"";
    }
    os << ",\"count\":" << agg->gap_buckets[i] << '}';
  }
  os << "],\"closest_confused\":";
  if (agg->closest_confused == kLineageNoMember) {
    os << "null";
  } else {
    os << "{\"mode\":" << agg->closest_confused
       << ",\"count\":" << agg->closest_confused_count << '}';
  }
  os << ",\"records\":[";
  const std::vector<DecisionRecord> records =
      store.since(0, *mode, std::nullopt, 0);
  const std::size_t keep = std::min<std::size_t>(records.size(), 16);
  for (std::size_t i = records.size() - keep; i < records.size(); ++i) {
    if (i != records.size() - keep) os << ',';
    os << record_json(records[i]);
  }
  os << "]}\n";
  body = os.str();
  http_status = 200;
}

std::string make_response(int code, const std::string& content_type,
                          const std::string& body) {
  std::string out = status_line(code);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

/// Sends all of @p data, tolerating partial writes. Gives up (and lets
/// the connection close) on error or when @p stop goes true.
void send_all(int fd, const std::string& data, const std::atomic<bool>& stop) {
  std::size_t sent = 0;
  while (sent < data.size() && !stop.load(std::memory_order_relaxed)) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) {
      struct pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, kPollTickMs);
      continue;
    }
    return;  // client went away; nothing to do
  }
}

}  // namespace

RequestLine parse_request_line(std::string_view request) {
  // "METHOD SP target SP HTTP/x.y" from the first line.
  const std::string_view line = request.substr(0, request.find("\r\n"));
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? std::string_view::npos
                                    : line.find(' ', sp1 + 1);
  RequestLine out;
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      line.substr(sp2 + 1).rfind("HTTP/", 0) != 0) {
    out.error_status = 400;
    return out;
  }
  if (line.substr(0, sp1) != "GET") {
    out.error_status = 405;
    return out;
  }
  const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t qmark = target.find('?');
  out.path = target.substr(0, qmark);
  if (qmark != std::string_view::npos) out.query = target.substr(qmark + 1);
  return out;
}

bool render_endpoint(const std::string& path, const std::string& query,
                     std::string& body, std::string& content_type,
                     int& http_status, const std::atomic<bool>* cancel) {
  http_status = 200;
  if (path == "/metrics") {
    std::ostringstream os;
    registry().write_prometheus(os);
    body = os.str();
    content_type = "text/plain; version=0.0.4; charset=utf-8";
    return true;
  }
  if (path == "/healthz") {
    const double uptime = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - server_epoch())
                              .count();
    // A degraded process is still alive, but its record is no longer
    // complete — 503 tells probes the difference honestly. The event
    // bus's own sinks count too: a dead --events-out file degrades.
    const bool degraded = is_degraded() || !event_bus().sinks_healthy();
    std::ostringstream os;
    os << "{\"status\":\"" << (degraded ? "degraded" : "ok") << '"';
    if (degraded) {
      const std::string reason = is_degraded()
                                     ? degraded_reason()
                                     : "event sink unhealthy";
      os << ",\"reason\":\"" << json_escape(reason) << '"';
    }
    os << ",\"uptime_seconds\":" << render_double(uptime)
       << ",\"last_publish_age_seconds\":"
       << render_double(status_board().last_publish_age_seconds()) << "}\n";
    body = os.str();
    content_type = "application/json";
    http_status = degraded ? 503 : 200;
    return true;
  }
  if (path == "/status") {
    std::ostringstream os;
    status_board().write_json_with(os, "events_recent",
                                   event_bus().recent_json(16));
    os << '\n';
    body = os.str();
    content_type = "application/json";
    return true;
  }
  if (path == "/profile") {
    std::ostringstream os;
    write_profile_json(os);
    os << '\n';
    body = os.str();
    content_type = "application/json";
    return true;
  }
  if (path == "/events") {
    render_events(query, body, http_status, cancel);
    content_type = "application/json";
    return true;
  }
  if (path == "/lineage") {
    render_lineage(query, body, http_status);
    content_type = "application/json";
    return true;
  }
  if (path.rfind("/explain/", 0) == 0) {
    render_explain(path.substr(std::strlen("/explain/")), body, http_status);
    content_type = "application/json";
    return true;
  }
  if (path == "/metrics/history") {
    std::ostringstream os;
    metrics_history().write_json(os);
    os << '\n';
    body = os.str();
    content_type = "application/json";
    return true;
  }
  return false;
}

bool render_endpoint(const std::string& path, std::string& body,
                     std::string& content_type) {
  int http_status = 0;
  return render_endpoint(path, std::string(), body, content_type,
                         http_status);
}

HttpServer::~HttpServer() { stop(); }

bool HttpServer::start(std::uint16_t port) {
  if (running_.load(std::memory_order_acquire)) return true;
  server_epoch();  // pin uptime zero

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    FENRIR_LOG(Warn).field("errno", errno)
        << "status server disabled: socket() failed";
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    // Port taken (or otherwise unusable): fall back to an ephemeral
    // port rather than refusing to run — the watch matters more than
    // the requested number.
    FENRIR_LOG(Warn)
            .field("requested_port", static_cast<std::uint64_t>(port))
            .field("errno", errno)
        << "status port unavailable, falling back to ephemeral";
    addr.sin_port = htons(0);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      FENRIR_LOG(Warn).field("errno", errno)
          << "status server disabled: bind failed";
      ::close(fd);
      return false;
    }
  }
  if (::listen(fd, 16) != 0) {
    FENRIR_LOG(Warn).field("errno", errno)
        << "status server disabled: listen failed";
    ::close(fd);
    return false;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_.store(ntohs(bound.sin_port), std::memory_order_release);
  }

  listen_fd_ = fd;
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  FENRIR_LOG(Info)
          .field("port", static_cast<std::uint64_t>(
                             port_.load(std::memory_order_acquire)))
      << "status server listening";
  return true;
}

void HttpServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  port_.store(0, std::memory_order_release);
  running_.store(false, std::memory_order_release);
}

void HttpServer::serve_loop() {
  set_trace_thread_name("fenrir-status");
  while (!stop_.load(std::memory_order_acquire)) {
    struct pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollTickMs);
    if (ready <= 0) continue;  // tick: re-check stop_
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    handle_connection(client);
    ::close(client);
  }
}

void HttpServer::handle_connection(int client_fd) {
  // Read until the end of the request head, a 2 s budget, the size cap,
  // or shutdown — never block indefinitely on a silent client.
  std::string request;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(2);
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() < kMaxRequest &&
         !stop_.load(std::memory_order_relaxed) &&
         std::chrono::steady_clock::now() < deadline) {
    struct pollfd pfd{client_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollTickMs);
    if (ready <= 0) continue;
    char buf[2048];
    const ssize_t n = ::recv(client_fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // peer closed or error
    request.append(buf, static_cast<std::size_t>(n));
  }

  served_.fetch_add(1, std::memory_order_relaxed);
  requests_counter().inc();

  const RequestLine line = parse_request_line(request);
  if (line.error_status == 400) {
    send_all(client_fd,
             make_response(400, "text/plain", "bad request line\n"), stop_);
    return;
  }
  if (line.error_status == 405) {
    send_all(client_fd,
             make_response(405, "text/plain", "only GET is supported\n"),
             stop_);
    return;
  }

  std::string body, content_type;
  int http_status = 0;
  if (!render_endpoint(std::string(line.path), std::string(line.query), body,
                       content_type, http_status, &stop_)) {
    send_all(client_fd,
             make_response(404, "text/plain",
                           "not found; try /metrics /metrics/history "
                           "/healthz /status /profile /events /lineage "
                           "/explain/<mode>\n"),
             stop_);
    return;
  }
  send_all(client_fd, make_response(http_status, content_type, body), stop_);
}

}  // namespace fenrir::obs
