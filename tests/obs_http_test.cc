// Tests for the fenrir::obs status server: endpoint content, the HTTP
// error taxonomy (400/404/405), ephemeral-port fallback when the
// requested port is taken, concurrent clients, clean shutdown even
// with a silent client attached, and mutation fuzzers over the request
// line and query string decoders. A real socket client is used against a
// real server on 127.0.0.1 — the server is simple enough that testing a
// mock instead would test nothing.
#include "obs/http_server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "chaos/corrupt.h"
#include "obs/events.h"
#include "obs/lineage.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/query.h"
#include "obs/status_board.h"

namespace fenrir::obs {
namespace {

/// Quiet logs (the server Warn-logs its port fallback by design).
struct LogSilencer {
  LogSilencer() { set_log_level(Level::kOff); }
  ~LogSilencer() { set_log_level(Level::kInfo); }
};

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends @p raw verbatim and reads the full response (server closes).
std::string roundtrip(std::uint16_t port, const std::string& raw) {
  const int fd = connect_to(port);
  if (fd < 0) return "";
  std::size_t sent = 0;
  while (sent < raw.size()) {
    const ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string get(std::uint16_t port, const std::string& path) {
  return roundtrip(port,
                   "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
}

// --- render_endpoint (socketless) ---

TEST(RenderEndpoint, MetricsIsPrometheusText) {
  registry().counter("http_test_hits_total", "test counter").inc();
  std::string body, type;
  ASSERT_TRUE(render_endpoint("/metrics", body, type));
  EXPECT_NE(type.find("text/plain"), std::string::npos);
  EXPECT_NE(body.find("# TYPE http_test_hits_total counter"),
            std::string::npos);
  EXPECT_NE(body.find("http_test_hits_total 1"), std::string::npos);
}

TEST(RenderEndpoint, HealthzReportsStatusAndAges) {
  std::string body, type;
  ASSERT_TRUE(render_endpoint("/healthz", body, type));
  EXPECT_EQ(type, "application/json");
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(body.find("\"uptime_seconds\":"), std::string::npos);
  EXPECT_NE(body.find("\"last_publish_age_seconds\":"), std::string::npos);
}

TEST(RenderEndpoint, StatusComposesBoardFragments) {
  status_board().publish("http_test", "{\"alive\":true}");
  std::string body, type;
  ASSERT_TRUE(render_endpoint("/status", body, type));
  EXPECT_EQ(type, "application/json");
  EXPECT_NE(body.find("\"http_test\":{\"alive\":true}"), std::string::npos);
}

TEST(RenderEndpoint, ProfileIsSpanJson) {
  std::string body, type;
  ASSERT_TRUE(render_endpoint("/profile", body, type));
  EXPECT_EQ(type, "application/json");
  EXPECT_EQ(body.rfind("{\"spans\":[", 0), 0u);
}

TEST(RenderEndpoint, UnknownPathIsRejected) {
  std::string body, type;
  EXPECT_FALSE(render_endpoint("/", body, type));
  EXPECT_FALSE(render_endpoint("/metricsx", body, type));
  EXPECT_FALSE(render_endpoint("", body, type));
}

// --- the live server ---

TEST(HttpServer, ServesEveryEndpointOnAnEphemeralPort) {
  LogSilencer quiet;
  HttpServer server;
  ASSERT_TRUE(server.start(0));
  EXPECT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);

  for (const char* path : {"/metrics", "/healthz", "/status", "/profile"}) {
    const std::string response = get(server.port(), path);
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << path;
    EXPECT_NE(response.find("Connection: close"), std::string::npos) << path;
    EXPECT_NE(response.find("Content-Length: "), std::string::npos) << path;
  }
  const std::string health = get(server.port(), "/healthz");
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);
}

TEST(HttpServer, QueryStringsAreStripped) {
  LogSilencer quiet;
  HttpServer server;
  ASSERT_TRUE(server.start(0));
  const std::string response = get(server.port(), "/healthz?verbose=1");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  server.stop();
}

TEST(HttpServer, ErrorTaxonomy) {
  LogSilencer quiet;
  HttpServer server;
  ASSERT_TRUE(server.start(0));

  EXPECT_NE(get(server.port(), "/nope").find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_NE(roundtrip(server.port(),
                      "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);
  EXPECT_NE(roundtrip(server.port(), "garbage\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(roundtrip(server.port(), "GET /metrics\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
  server.stop();
}

TEST(HttpServer, FallsBackToEphemeralWhenPortTaken) {
  LogSilencer quiet;
  HttpServer first;
  ASSERT_TRUE(first.start(0));
  ASSERT_NE(first.port(), 0);

  HttpServer second;
  ASSERT_TRUE(second.start(first.port()));  // taken → ephemeral fallback
  EXPECT_TRUE(second.running());
  EXPECT_NE(second.port(), 0);
  EXPECT_NE(second.port(), first.port());

  // Both keep serving.
  EXPECT_NE(get(first.port(), "/healthz").find("200 OK"), std::string::npos);
  EXPECT_NE(get(second.port(), "/healthz").find("200 OK"), std::string::npos);
  second.stop();
  first.stop();
}

TEST(HttpServer, ConcurrentClientsAllGetAnswers) {
  LogSilencer quiet;
  HttpServer server;
  ASSERT_TRUE(server.start(0));
  const std::uint64_t before = server.requests_served();

  constexpr int kThreads = 4;
  constexpr int kRequestsEach = 5;
  std::vector<std::thread> clients;
  std::vector<int> ok(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kRequestsEach; ++i) {
        const std::string response = get(server.port(), "/metrics");
        if (response.find("HTTP/1.1 200 OK") != std::string::npos) ++ok[t];
      }
    });
  }
  for (auto& c : clients) c.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(ok[t], kRequestsEach) << "client " << t;
  }
  EXPECT_GE(server.requests_served() - before,
            static_cast<std::uint64_t>(kThreads * kRequestsEach));
  server.stop();
}

TEST(HttpServer, StopIsIdempotentAndRestartable) {
  LogSilencer quiet;
  HttpServer server;
  server.stop();  // never started: no-op
  ASSERT_TRUE(server.start(0));
  EXPECT_TRUE(server.start(0));  // already running: no-op success
  server.stop();
  server.stop();  // double stop: no-op
  ASSERT_TRUE(server.start(0));  // restart binds a fresh socket
  EXPECT_NE(get(server.port(), "/healthz").find("200 OK"), std::string::npos);
  server.stop();
}

TEST(HttpServer, ShutsDownCleanlyWithASilentClientAttached) {
  LogSilencer quiet;
  HttpServer server;
  ASSERT_TRUE(server.start(0));
  // Connect and send nothing: the serving thread must not wedge on this
  // client when asked to stop (the read loop checks stop_ every tick).
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.stop();  // must return; the ctest timeout is the failure mode
  EXPECT_FALSE(server.running());
  ::close(fd);
}

// --- the lineage query surface (/lineage, /explain/<mode>) ---

DecisionRecord http_record(Verdict verdict, std::uint64_t mode, double phi) {
  DecisionRecord r;
  r.obs_time = 1000 + static_cast<std::int64_t>(mode);
  r.verdict = verdict;
  r.mode = mode;
  r.phi = phi;
  r.networks = 10;
  r.top[0] = {mode, phi};
  r.top_count = 1;
  return r;
}

TEST(HttpLineage, LineageEndpointFiltersAndFrames) {
  lineage().reset();
  lineage().record(http_record(Verdict::kNewMode, 0, 0.0));
  lineage().record(http_record(Verdict::kRepeat, 0, 0.98));
  lineage().record(http_record(Verdict::kNewMode, 1, 0.3));
  lineage().record(http_record(Verdict::kRecurrence, 0, 0.95));

  std::string body, type;
  int status = 0;
  ASSERT_TRUE(render_endpoint("/lineage", "", body, type, status));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(type, "application/json");
  EXPECT_NE(body.find("\"last_id\":4"), std::string::npos);
  EXPECT_NE(body.find("\"oldest_id\":1"), std::string::npos);
  EXPECT_NE(body.find("\"evicted_total\":0"), std::string::npos);
  EXPECT_NE(body.find("\"records\":["), std::string::npos);
  EXPECT_NE(body.find("\"verdict\":\"recurrence\""), std::string::npos);

  ASSERT_TRUE(render_endpoint("/lineage", "since=3", body, type, status));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body.find("\"id\":3"), std::string::npos);
  EXPECT_NE(body.find("\"id\":4"), std::string::npos);

  ASSERT_TRUE(render_endpoint("/lineage", "mode=1", body, type, status));
  EXPECT_NE(body.find("\"id\":3"), std::string::npos);
  EXPECT_EQ(body.find("\"id\":4"), std::string::npos);

  ASSERT_TRUE(
      render_endpoint("/lineage", "verdict=new_mode", body, type, status));
  EXPECT_NE(body.find("\"id\":1"), std::string::npos);
  EXPECT_NE(body.find("\"id\":3"), std::string::npos);
  EXPECT_EQ(body.find("\"id\":4"), std::string::npos);

  ASSERT_TRUE(render_endpoint("/lineage", "max=1", body, type, status));
  EXPECT_NE(body.find("\"id\":1"), std::string::npos);
  EXPECT_EQ(body.find("\"id\":2"), std::string::npos);
  lineage().reset();
}

TEST(HttpLineage, ExplainEndpointAggregatesAMode) {
  lineage().reset();
  lineage().record(http_record(Verdict::kNewMode, 2, 0.0));
  DecisionRecord rec = http_record(Verdict::kRecurrence, 2, 0.93);
  rec.gap_seconds = 7200;
  lineage().record(rec);

  std::string body, type;
  int status = 0;
  ASSERT_TRUE(render_endpoint("/explain/2", "", body, type, status));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(type, "application/json");
  EXPECT_NE(body.find("\"mode\":2"), std::string::npos);
  EXPECT_NE(body.find("\"visits\":2"), std::string::npos);
  EXPECT_NE(body.find("\"recurrences\":1"), std::string::npos);
  EXPECT_NE(body.find("\"last_phi\":0.93"), std::string::npos);
  EXPECT_NE(body.find("\"gap_histogram\":["), std::string::npos);
  EXPECT_NE(body.find("\"le\":\"+inf\""), std::string::npos);
  EXPECT_NE(body.find("\"records\":["), std::string::npos);

  // Unknown mode: a 404 naming the mode, not an empty 200.
  ASSERT_TRUE(render_endpoint("/explain/77", "", body, type, status));
  EXPECT_EQ(status, 404);
  EXPECT_EQ(body, "{\"error\":\"mode 77 has no lineage\"}\n");
  lineage().reset();
}

// The shared-parser satellite: /events and /lineage answer the same
// malformed parameter with byte-identical 400 bodies — both endpoints
// route through QueryParams, and these pins keep them from drifting
// apart again.
TEST(HttpLineage, EventsAndLineageShareExact400Bodies) {
  struct Case {
    const char* query;
    std::string body;
  };
  const Case cases[] = {
      {"since=banana", query_error_body("since", "a non-negative integer")},
      {"since=-3", query_error_body("since", "a non-negative integer")},
      {"max=0", query_error_body("max", "a positive integer")},
      {"max=-1", query_error_body("max", "a positive integer")},
  };
  for (const auto& c : cases) {
    for (const char* path : {"/events", "/lineage"}) {
      std::string body, type;
      int status = 0;
      ASSERT_TRUE(render_endpoint(path, c.query, body, type, status))
          << path << "?" << c.query;
      EXPECT_EQ(status, 400) << path << "?" << c.query;
      EXPECT_EQ(body, c.body) << path << "?" << c.query;
    }
  }
  // Endpoint-specific enums keep the same formatter.
  std::string body, type;
  int status = 0;
  ASSERT_TRUE(
      render_endpoint("/events", "severity=fatal", body, type, status));
  EXPECT_EQ(status, 400);
  EXPECT_EQ(body,
            query_error_body("severity", "one of debug|info|notice|warn|alert"));
  ASSERT_TRUE(
      render_endpoint("/lineage", "verdict=novel", body, type, status));
  EXPECT_EQ(status, 400);
  EXPECT_EQ(body,
            query_error_body("verdict", "one of new_mode|recurrence|repeat"));
  ASSERT_TRUE(render_endpoint("/explain/abc", "", body, type, status));
  EXPECT_EQ(status, 400);
  EXPECT_EQ(body, query_error_body("mode", "a non-negative integer"));
}

TEST(QueryParamsParser, FirstKeyWinsAndGettersAreStrict) {
  const QueryParams params("a=1&b=2&a=9&junk&c=");
  ASSERT_TRUE(params.raw("a").has_value());
  EXPECT_EQ(*params.raw("a"), "1");
  EXPECT_EQ(*params.raw("c"), "");
  EXPECT_FALSE(params.raw("junk").has_value());
  EXPECT_FALSE(params.raw("missing").has_value());

  std::uint64_t out = 7;
  std::string error;
  EXPECT_TRUE(params.get_u64("missing", out, error));
  EXPECT_EQ(out, 7u);  // absent leaves the default untouched
  EXPECT_TRUE(params.get_u64("b", out, error));
  EXPECT_EQ(out, 2u);
  EXPECT_FALSE(params.get_u64("c", out, error));  // empty is malformed
  EXPECT_EQ(error, query_error_body("c", "a non-negative integer"));
  // parse_u64 is strict base-10: no sign, no hex, no overflow-length.
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_FALSE(parse_u64("+1").has_value());
  EXPECT_FALSE(parse_u64("0x10").has_value());
  EXPECT_FALSE(parse_u64("12345678901234567890").has_value());
  ASSERT_TRUE(parse_u64("42").has_value());
  EXPECT_EQ(*parse_u64("42"), 42u);
}

// --- mutation fuzzers over the server's two decoders of client bytes,
// the request line and the query string. Whatever the bytes, each must
// parse or reject cleanly, never crash or read outside its input (the
// asan+ubsan legs run these). Seeded, with a time budget. ---

/// Seeded byte edits: one to four replacements, insertions or erasures
/// of bytes drawn from @p alphabet.
std::string edit_bytes(std::string text, std::uint64_t& state,
                       std::string_view alphabet) {
  const auto draw = [&state](std::uint64_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % bound;
  };
  const std::uint64_t edits = 1 + draw(4);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::size_t at = draw(text.size() + 1);
    const char c = alphabet[draw(alphabet.size())];
    switch (draw(3)) {
      case 0:
        if (at < text.size()) text[at] = c;
        break;
      case 1:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), c);
        break;
      default:
        if (at < text.size()) text.erase(at, 1);
    }
  }
  return text;
}

/// chaos::corrupt_text's five damage kinds over @p seeds, then byte
/// edits until @p budget, each mutant passed to @p check.
template <typename Check>
void fuzz(const std::vector<std::string>& seeds, std::uint64_t state,
          std::chrono::seconds budget, Check check) {
  // The bytes that steer the decoders, high bytes, and plain ones.
  const std::string alphabet = " ?&=%/\r\n\x80\xc3\xff" "GETHP1.a09_";
  for (const auto kind :
       {chaos::Corruption::kTruncate, chaos::Corruption::kBadMagic,
        chaos::Corruption::kRaggedRows, chaos::Corruption::kFlipValidFlags,
        chaos::Corruption::kBadTimes}) {
    for (const std::string& seed : seeds) {
      for (std::uint64_t k = 1; k <= 8; ++k) {
        check(chaos::corrupt_text(seed, kind, k));
      }
    }
  }
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t mutants = 0; mutants < 20000; ++mutants) {
    if (mutants >= 1000 && std::chrono::steady_clock::now() - start > budget) {
      break;
    }
    std::string text = seeds[mutants % seeds.size()];
    // Every fourth mutant builds on the previous one's damage.
    for (std::size_t round = 0; round <= mutants % 4; ++round) {
      text = edit_bytes(std::move(text), state, alphabet);
    }
    check(text);
  }
}

TEST(HttpRequestFuzz, MutatedRequestLinesParseOrAreRejected) {
  LogSilencer quiet;
  const std::vector<std::string> seeds = {
      "GET /events?since=3&type=mode_created&severity=warn&max=5&wait_ms=50 "
      "HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
      "GET /lineage?after=2&mode=1&verdict=recurrence&max=3 HTTP/1.1\r\n\r\n",
      "GET /explain/7 HTTP/1.0\r\n\r\n",
      "GET /healthz HTTP/1.1\r\n\r\n",
      "GET /metrics/history?x=1 HTTP/1.1\r\n\r\n",
      "POST /status HTTP/1.1\r\n\r\n",
  };
  const std::atomic<bool> cancel{true};  // a long poll answers at once
  std::size_t parsed = 0;
  fuzz(seeds, 0x4177, std::chrono::seconds(3), [&](const std::string& raw) {
    const RequestLine line = parse_request_line(raw);
    if (line.error_status != 0) {
      EXPECT_TRUE(line.error_status == 400 || line.error_status == 405)
          << line.error_status;
      return;
    }
    ++parsed;
    // The views lie inside the first line, and the path holds no '?'.
    const std::string_view first = std::string_view(raw).substr(0, raw.find("\r\n"));
    for (const std::string_view part : {line.path, line.query}) {
      if (part.empty()) continue;
      EXPECT_GE(part.data(), first.data());
      EXPECT_LE(part.data() + part.size(), first.data() + first.size());
    }
    EXPECT_EQ(line.path.find('?'), std::string_view::npos);
    // Routing: a known path answers 200, 400, 404 (/explain of a mode
    // never seen) or 503; an unknown one is the caller's 404.
    std::string body, type;
    int status = 0;
    if (render_endpoint(std::string(line.path), std::string(line.query), body,
                        type, status, &cancel)) {
      EXPECT_TRUE(status == 200 || status == 400 || status == 404 ||
                  status == 503)
          << status;
      EXPECT_FALSE(type.empty()) << line.path;
    }
  });
  EXPECT_GT(parsed, 0u);
}

TEST(QueryParamsFuzz, MutatedQueriesParseOrAreRejected) {
  const std::vector<std::string> seeds = {
      "since=3&type=mode_created&severity=warn&max=5&wait_ms=250",
      "after=2&mode=1&verdict=recurrence&max=3",
      "a=1&b=2&a=9&junk&c=&=&&since=18446744073709551615",
  };
  const std::vector<std::string> keys = {"since", "type", "severity", "max",
                                         "wait_ms", "after", "mode",
                                         "verdict", "a", "b", "c", ""};
  const std::array<std::string_view, 3> verdicts = {"new_mode", "repeat",
                                                    "recurrence"};
  fuzz(seeds, 0x9a3, std::chrono::seconds(3), [&](const std::string& query) {
    const QueryParams params(query);
    for (const std::string& key : keys) {
      // The oracle: the value of the first '&'-separated pair whose
      // text before its first '=' is the key.
      std::optional<std::string> want;
      for (std::size_t pos = 0; pos <= query.size() && !want;) {
        const std::size_t amp = std::min(query.find('&', pos), query.size());
        const std::string pair = query.substr(pos, amp - pos);
        const std::size_t eq = pair.find('=');
        if (eq != std::string::npos && pair.compare(0, eq, key) == 0 &&
            eq == key.size()) {
          want = pair.substr(eq + 1);
        }
        pos = amp + 1;
      }
      ASSERT_EQ(params.raw(key), want) << query << " key " << key;
      const bool digits =
          want && !want->empty() && want->size() <= 19 &&
          want->find_first_not_of("0123456789") == std::string::npos;
      const std::string rejected = "{\"error\":\"" + key + " must be ";

      std::uint64_t value = 7;
      std::string error;
      EXPECT_EQ(params.get_u64(key, value, error), !want || digits) << query;
      if (!want) {
        EXPECT_EQ(value, 7u);
      } else if (digits) {
        EXPECT_EQ(value, std::stoull(*want));
      } else {
        EXPECT_EQ(error.rfind(rejected, 0), 0u) << error;
      }

      error.clear();
      const bool positive = digits && std::stoull(*want) != 0;
      EXPECT_EQ(params.get_positive_u64(key, value, error), !want || positive);
      if (want && !positive) {
        EXPECT_EQ(error.rfind(rejected, 0), 0u);
      }

      error.clear();
      Severity severity = Severity::kInfo;
      const bool severity_ok = params.get_severity(key, severity, error);
      EXPECT_EQ(severity_ok, !want || parse_severity(*want).has_value());
      if (!severity_ok) {
        EXPECT_EQ(error.rfind(rejected, 0), 0u);
      }

      error.clear();
      std::string verdict;
      if (params.get_one_of(key, verdicts, verdict, error)) {
        if (want) {
          EXPECT_EQ(verdict, *want);
        }
      } else {
        EXPECT_EQ(error.rfind(rejected, 0), 0u);
      }
    }
  });
}

TEST(HttpServer, ServesLineageAndExplainOverSockets) {
  LogSilencer quiet;
  lineage().reset();
  lineage().record(http_record(Verdict::kNewMode, 0, 0.0));
  HttpServer server;
  ASSERT_TRUE(server.start(0));
  const std::string listing = get(server.port(), "/lineage");
  EXPECT_NE(listing.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(listing.find("\"last_id\":1"), std::string::npos);
  const std::string explain = get(server.port(), "/explain/0");
  EXPECT_NE(explain.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(explain.find("\"visits\":1"), std::string::npos);
  EXPECT_NE(get(server.port(), "/explain/9").find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_NE(get(server.port(), "/lineage?since=x").find("HTTP/1.1 400"),
            std::string::npos);
  server.stop();
  lineage().reset();
}

}  // namespace
}  // namespace fenrir::obs
