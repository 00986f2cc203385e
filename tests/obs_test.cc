#include "obs/log.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <random>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "core/vector.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/status_board.h"

namespace fenrir {
namespace {

/// Restores global logging/profiling state so tests can't leak config
/// into each other.
class ObsGuard {
 public:
  ObsGuard() {
    obs::set_log_sink(&captured_);
    obs::set_log_level(obs::Level::kWarn);
    obs::set_log_format(obs::LogFormat::kText);
    obs::set_profiling(false);
    obs::reset_profile();
  }
  ~ObsGuard() {
    obs::set_log_sink(nullptr);
    obs::set_log_level(obs::Level::kWarn);
    obs::set_log_format(obs::LogFormat::kText);
    obs::set_profiling(false);
    obs::reset_profile();
  }
  std::string text() const { return captured_.str(); }

 private:
  std::ostringstream captured_;
};

TEST(Log, LevelFiltering) {
  ObsGuard guard;
  obs::set_log_level(obs::Level::kInfo);
  FENRIR_LOG(Debug) << "hidden";
  FENRIR_LOG(Info) << "shown";
  FENRIR_LOG(Error) << "also shown";
  const std::string out = guard.text();
  EXPECT_EQ(out.find("hidden"), std::string::npos);
  EXPECT_NE(out.find("shown"), std::string::npos);
  EXPECT_NE(out.find("also shown"), std::string::npos);
}

TEST(Log, DisabledLevelEvaluatesNothing) {
  ObsGuard guard;
  obs::set_log_level(obs::Level::kError);
  int evaluations = 0;
  const auto expensive = [&] {
    ++evaluations;
    return 42;
  };
  FENRIR_LOG(Debug) << "cost " << expensive();
  EXPECT_EQ(evaluations, 0);
  FENRIR_LOG(Error) << "cost " << expensive();
  EXPECT_EQ(evaluations, 1);
}

TEST(Log, LevelNamesParse) {
  ObsGuard guard;
  EXPECT_TRUE(obs::set_log_level("TRACE"));
  EXPECT_EQ(obs::log_level(), obs::Level::kTrace);
  EXPECT_TRUE(obs::set_log_level("off"));
  EXPECT_EQ(obs::log_level(), obs::Level::kOff);
  EXPECT_FALSE(obs::set_log_level("verbose"));
  EXPECT_EQ(obs::log_level(), obs::Level::kOff);  // unchanged on failure
}

TEST(Log, TextFormatCarriesFields) {
  ObsGuard guard;
  obs::set_log_level(obs::Level::kInfo);
  FENRIR_LOG(Info).field("sent", 120).field("policy", "pessimistic")
      << "sweep done";
  const std::string out = guard.text();
  EXPECT_NE(out.find("sweep done"), std::string::npos);
  EXPECT_NE(out.find("sent=120"), std::string::npos);
  EXPECT_NE(out.find("policy=pessimistic"), std::string::npos);
  EXPECT_NE(out.find("info"), std::string::npos);
}

TEST(Log, JsonSinkEscaping) {
  ObsGuard guard;
  obs::set_log_level(obs::Level::kInfo);
  obs::set_log_format(obs::LogFormat::kJson);
  FENRIR_LOG(Info).field("path", "a\\b\"c").field("count", 3)
      << "line1\nline2\ttabbed \x01 ctrl";
  const std::string out = guard.text();
  EXPECT_NE(out.find("\"msg\":\"line1\\nline2\\ttabbed \\u0001 ctrl\""),
            std::string::npos);
  EXPECT_NE(out.find("\"path\":\"a\\\\b\\\"c\""), std::string::npos);
  EXPECT_NE(out.find("\"count\":3"), std::string::npos);  // unquoted number
  EXPECT_NE(out.find("\"level\":\"info\""), std::string::npos);
  // One JSON object per line.
  EXPECT_EQ(out.back(), '\n');
  EXPECT_EQ(out.front(), '{');
}

TEST(Log, JsonEscapeFunction) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("q\"b\\"), "q\\\"b\\\\");
  EXPECT_EQ(obs::json_escape("\n\r\t\b\f"), "\\n\\r\\t\\b\\f");
  EXPECT_EQ(obs::json_escape(std::string_view("\x02", 1)), "\\u0002");
}

TEST(Metrics, CounterSemantics) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeSetAndAdd) {
  obs::Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_EQ(g.value(), 1.5);
}

TEST(Metrics, ConcurrentIncrementsAreExact) {
  obs::Counter c;
  obs::Gauge g;
  obs::Histogram h({1.0, 2.0, 3.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        g.add(1.0);
        h.observe(1.5);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(g.value(), static_cast<double>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.sum(), 1.5 * kThreads * kPerThread);
}

TEST(Metrics, HistogramBucketsAndQuantiles) {
  obs::Histogram h({1.0, 10.0, 100.0});
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  for (int i = 0; i < 90; ++i) h.observe(0.5);   // bucket le=1
  for (int i = 0; i < 9; ++i) h.observe(5.0);    // bucket le=10
  h.observe(1e9);                                // +Inf bucket
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.bucket_count(0), 90u);
  EXPECT_EQ(h.bucket_count(1), 9u);
  EXPECT_EQ(h.bucket_count(2), 0u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // +Inf
  EXPECT_EQ(h.quantile(0.50), 1.0);   // falls in first bucket
  EXPECT_EQ(h.quantile(0.95), 10.0);  // second bucket
  EXPECT_EQ(h.quantile(1.00), 100.0);  // +Inf clamps to last bound
  EXPECT_THROW(obs::Histogram({}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Metrics, RegistryIdentityAndKindMismatch) {
  obs::Registry r;
  obs::Counter& a = r.counter("x_total", "help text");
  obs::Counter& b = r.counter("x_total");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW(r.gauge("x_total"), std::logic_error);
  EXPECT_EQ(r.size(), 1u);

  // Identity holds for first registrations racing on several threads
  // (two parallel_for instantiations register their job counter that
  // way): every thread gets the one instrument the registry keeps.
  constexpr int kThreads = 8;
  constexpr int kNames = 300;
  std::vector<std::vector<const void*>> seen(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&r, &seen, t] {
      for (int k = 0; k < kNames; ++k) {
        const std::string n = std::to_string(k);
        seen[t].push_back(&r.counter("race_" + n + "_total"));
        seen[t].push_back(&r.gauge("race_" + n));
        seen[t].push_back(&r.histogram("race_" + n + "_seconds", {1.0}));
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int k = 0; k < kNames; ++k) {
    const std::string n = std::to_string(k);
    const void* want[] = {&r.counter("race_" + n + "_total"),
                          &r.gauge("race_" + n),
                          &r.histogram("race_" + n + "_seconds", {1.0})};
    for (int t = 0; t < kThreads; ++t) {
      for (int m = 0; m < 3; ++m) {
        ASSERT_EQ(seen[t][3 * k + m], want[m])
            << "thread " << t << " name " << k;
      }
    }
  }
}

TEST(Metrics, PrometheusExposition) {
  obs::Registry r;
  r.counter("fenrir_test_total", "a counter").inc(7);
  r.gauge("fenrir_test_ratio", "a gauge").set(0.5);
  obs::Histogram& h = r.histogram("fenrir_test_seconds", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.05);
  h.observe(10.0);
  std::ostringstream out;
  r.write_prometheus(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("# HELP fenrir_test_total a counter"), std::string::npos);
  EXPECT_NE(s.find("# TYPE fenrir_test_total counter"), std::string::npos);
  EXPECT_NE(s.find("fenrir_test_total 7"), std::string::npos);
  EXPECT_NE(s.find("fenrir_test_ratio 0.5"), std::string::npos);
  // Cumulative buckets: 2 at le=0.1, still 2 at le=1, 3 at +Inf.
  EXPECT_NE(s.find("fenrir_test_seconds_bucket{le=\"0.1\"} 2"),
            std::string::npos);
  EXPECT_NE(s.find("fenrir_test_seconds_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(s.find("fenrir_test_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(s.find("fenrir_test_seconds_sum 10.1"), std::string::npos);
  EXPECT_NE(s.find("fenrir_test_seconds_count 3"), std::string::npos);
}

TEST(Metrics, ExpositionEscapingFunctions) {
  EXPECT_EQ(obs::escape_help("plain"), "plain");
  EXPECT_EQ(obs::escape_help("a\\b\nc"), "a\\\\b\\nc");
  // HELP text does NOT escape quotes (the grammar keeps them literal).
  EXPECT_EQ(obs::escape_help("say \"hi\""), "say \"hi\"");
  EXPECT_EQ(obs::escape_label_value("plain"), "plain");
  EXPECT_EQ(obs::escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
}

/// The stream search render_double replaces: the lowest %g precision
/// whose text reads back as @p x, then fixed notation when that is no
/// longer and the %g text is scientific.
std::string render_double_by_streams(double x) {
  std::ostringstream out;
  out.precision(17);
  out << x;
  std::string s = out.str();
  for (int p = 1; p < 17; ++p) {
    std::ostringstream trial;
    trial.precision(p);
    trial << x;
    double back = 0.0;
    std::istringstream(trial.str()) >> back;
    if (back == x) {
      s = trial.str();
      break;
    }
  }
  if (s.find('e') != std::string::npos) {
    for (int p = 0; p < 17; ++p) {
      std::ostringstream trial;
      trial << std::fixed;
      trial.precision(p);
      trial << x;
      double back = 0.0;
      std::istringstream(trial.str()) >> back;
      if (back == x) {
        if (trial.str().size() <= s.size()) s = trial.str();
        break;
      }
    }
  }
  return s;
}

TEST(Metrics, RenderDoubleMatchesStreamSearch) {
  std::vector<double> xs = {0.0,
                            -0.0,
                            1.0,
                            10.0,
                            1e5,
                            1e16,
                            1e17,
                            123456789012345678.0,
                            0.1,
                            1e-4,
                            1e-5,
                            1.25e-7,
                            2.2250738585072014e-308,
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::max() / 2,
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN(),
                            -std::numeric_limits<double>::quiet_NaN()};
  // Φ-like ratios, decision timestamps, and every power of two (whose
  // rounding interval is lopsided).
  for (int n = 1; n <= 100; ++n) {
    for (int k = 0; k <= n; ++k) xs.push_back(static_cast<double>(k) / n);
  }
  for (int i = 0; i < 500; ++i) xs.push_back(1.7e9 + i * 0.001234567);
  for (int e = -1074; e <= 1023; ++e) xs.push_back(std::ldexp(1.0, e));
  std::mt19937_64 bits(7);
  for (int i = 0; i < 4000; ++i) {
    const double x = std::bit_cast<double>(bits());
    if (std::isfinite(x) && std::abs(x) != std::numeric_limits<double>::max()) {
      xs.push_back(x);
    }
  }
  for (const double x : xs) {
    EXPECT_EQ(obs::render_double(x), render_double_by_streams(x)) << std::hexfloat << x;
  }
  // The one departure: the stream search read "2e+308" back through
  // istream's overflow clamp to DBL_MAX. render_double round-trips.
  const std::string max = obs::render_double(std::numeric_limits<double>::max());
  EXPECT_EQ(std::strtod(max.c_str(), nullptr), std::numeric_limits<double>::max());
}

TEST(Metrics, LabeledSeriesShareOneFamilyHeader) {
  obs::Registry r;
  r.counter("req_total", obs::Labels{{"code", "200"}}, "requests by code")
      .inc(3);
  r.counter("req_total", obs::Labels{{"code", "404"}}).inc();
  std::ostringstream out;
  r.write_prometheus(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("# HELP req_total requests by code"), std::string::npos);
  EXPECT_NE(s.find("# TYPE req_total counter"), std::string::npos);
  EXPECT_NE(s.find("req_total{code=\"200\"} 3"), std::string::npos);
  EXPECT_NE(s.find("req_total{code=\"404\"} 1"), std::string::npos);
  // Exactly one HELP and one TYPE line for the family.
  EXPECT_EQ(s.find("# TYPE req_total"), s.rfind("# TYPE req_total"));
  EXPECT_EQ(s.find("# HELP req_total"), s.rfind("# HELP req_total"));
  // Same name+labels returns the same series; different labels do not.
  EXPECT_EQ(&r.counter("req_total", obs::Labels{{"code", "200"}}),
            &r.counter("req_total", obs::Labels{{"code", "200"}}));
  EXPECT_NE(&r.counter("req_total", obs::Labels{{"code", "200"}}),
            &r.counter("req_total", obs::Labels{{"code", "404"}}));
}

TEST(Metrics, LabelValuesAndHelpAreEscaped) {
  obs::Registry r;
  r.gauge("weird", obs::Labels{{"v", "a\\b\"c\nd"}}, "help \\ with\nnewline")
      .set(1.0);
  std::ostringstream out;
  r.write_prometheus(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("# HELP weird help \\\\ with\\nnewline"),
            std::string::npos);
  EXPECT_NE(s.find("weird{v=\"a\\\\b\\\"c\\nd\"} 1"), std::string::npos);
  // The raw newline must not survive into the exposition stream.
  EXPECT_EQ(s.find("with\nnewline"), std::string::npos);
}

TEST(Metrics, LabeledFamilyKindIsConsistent) {
  obs::Registry r;
  r.counter("fam_total", obs::Labels{{"a", "1"}});
  EXPECT_THROW(r.gauge("fam_total", obs::Labels{{"a", "2"}}),
               std::logic_error);
  EXPECT_THROW(r.gauge("fam_total"), std::logic_error);
}

TEST(Metrics, ExpositionMatchesGrammar) {
  // Every line of the exposition must be a comment (HELP/TYPE) or a
  // sample: metric_name{labels} value — the subset of the Prometheus
  // text-format grammar this writer emits.
  obs::Registry r;
  r.counter("fenrir_a_total", "counts").inc(2);
  r.gauge("fenrir_b_ratio").set(0.25);
  r.gauge("fenrir_build_info",
          obs::Labels{{"sha", "abc123"}, {"type", "Release\\x \"q\""}},
          "identity")
      .set(1.0);
  r.histogram("fenrir_c_seconds", {0.1, 1.0}, "latencies").observe(0.5);
  std::ostringstream out;
  r.write_prometheus(out);

  const std::regex help_re(R"(^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$)");
  const std::regex type_re(
      R"(^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$)");
  const std::regex sample_re(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (\+Inf|-?[0-9.eE+-]+)$)");
  std::istringstream lines(out.str());
  std::string line;
  std::size_t samples = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const bool ok = std::regex_match(line, help_re) ||
                    std::regex_match(line, type_re) ||
                    std::regex_match(line, sample_re);
    EXPECT_TRUE(ok) << "line violates exposition grammar: " << line;
    if (line[0] != '#') ++samples;
  }
  // 1 counter + 1 gauge + 1 labeled gauge + histogram (2 buckets + +Inf
  // + sum + count) = 8 sample lines.
  EXPECT_EQ(samples, 8u);
}

TEST(StatusBoard, PublishFragmentAndAge) {
  obs::StatusBoard board;
  EXPECT_EQ(board.last_publish_age_seconds(), -1.0);
  EXPECT_EQ(board.fragment("campaign"), nullptr);
  board.publish("campaign", "{\"sweeps\":3}");
  ASSERT_NE(board.fragment("campaign"), nullptr);
  EXPECT_EQ(*board.fragment("campaign"), "{\"sweeps\":3}");
  EXPECT_GE(board.last_publish_age_seconds(), 0.0);
  // Re-publishing swaps; old shared_ptr snapshots stay readable.
  const auto old = board.fragment("campaign");
  board.publish("campaign", "{\"sweeps\":4}");
  EXPECT_EQ(*old, "{\"sweeps\":3}");
  EXPECT_EQ(*board.fragment("campaign"), "{\"sweeps\":4}");
  EXPECT_EQ(board.size(), 1u);
  board.reset();
  EXPECT_EQ(board.size(), 0u);
  EXPECT_EQ(board.last_publish_age_seconds(), -1.0);
}

TEST(StatusBoard, WriteJsonComposesFragments) {
  obs::StatusBoard board;
  board.publish("b_second", "{\"x\":1}");
  board.publish("a_first", "[1,2]");
  std::ostringstream out;
  board.write_json(out);
  // Keys sorted, fragments embedded verbatim.
  EXPECT_EQ(out.str(), "{\"a_first\":[1,2],\"b_second\":{\"x\":1}}");
  std::ostringstream empty;
  obs::StatusBoard().write_json(empty);
  EXPECT_EQ(empty.str(), "{}");
}

TEST(BuildInfo, IdentityIsPopulatedEverywhere) {
  const obs::BuildInfo& info = obs::build_info();
  EXPECT_NE(info.version, nullptr);
  EXPECT_STRNE(info.version, "");
  const std::string s = obs::build_info_string();
  EXPECT_EQ(s.rfind("fenrir ", 0), 0u);
  EXPECT_NE(s.find(info.git_sha), std::string::npos);
  EXPECT_NE(s.find(info.build_type), std::string::npos);

  obs::register_build_info_metric();
  std::ostringstream out;
  obs::registry().write_prometheus(out);
  const std::string prom = out.str();
  EXPECT_NE(prom.find("fenrir_build_info{version=\""), std::string::npos);
  EXPECT_NE(prom.find("git_sha=\""), std::string::npos);
  // Registration is idempotent.
  obs::register_build_info_metric();
}

TEST(Metrics, CsvAndJsonExposition) {
  obs::Registry r;
  r.counter("c_total").inc(3);
  r.gauge("g").set(1.25);
  r.histogram("h_seconds", {1.0, 2.0}).observe(0.5);
  std::ostringstream csv;
  r.write_csv(csv);
  EXPECT_NE(csv.str().find("kind,name,field,value"), std::string::npos);
  EXPECT_NE(csv.str().find("counter,c_total,value,3"), std::string::npos);
  EXPECT_NE(csv.str().find("gauge,g,value,1.25"), std::string::npos);
  EXPECT_NE(csv.str().find("histogram,h_seconds,count,1"),
            std::string::npos);
  std::ostringstream json;
  r.write_json(json);
  EXPECT_NE(json.str().find("\"counters\":{\"c_total\":3}"),
            std::string::npos);
  EXPECT_NE(json.str().find("\"gauges\":{\"g\":1.25}"), std::string::npos);
  EXPECT_NE(json.str().find("\"h_seconds\":{\"count\":1"),
            std::string::npos);
}

TEST(Metrics, ResetZeroesButKeepsReferences) {
  obs::Registry r;
  obs::Counter& c = r.counter("c_total");
  c.inc(5);
  r.reset();
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  EXPECT_EQ(r.counter("c_total").value(), 1u);
}

TEST(Span, DisabledSpansRecordNothing) {
  ObsGuard guard;
  { obs::Span span("should_not_appear"); }
  EXPECT_TRUE(obs::profile_entries().empty());
}

TEST(Span, NestingAndAggregation) {
  ObsGuard guard;
  obs::set_profiling(true);
  for (int i = 0; i < 3; ++i) {
    obs::Span outer("work");
    { obs::Span inner("step_a"); }
    { obs::Span inner("step_a"); }
    { obs::Span inner("step_b"); }
  }
  const auto entries = obs::profile_entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "work");
  EXPECT_EQ(entries[0].depth, 0);
  EXPECT_EQ(entries[0].count, 3u);
  // Children sorted by name, one level deeper, aggregated across the
  // three outer iterations.
  EXPECT_EQ(entries[1].name, "step_a");
  EXPECT_EQ(entries[1].depth, 1);
  EXPECT_EQ(entries[1].count, 6u);
  EXPECT_EQ(entries[2].name, "step_b");
  EXPECT_EQ(entries[2].depth, 1);
  EXPECT_EQ(entries[2].count, 3u);
  EXPECT_GE(entries[0].total_seconds, 0.0);
}

TEST(Span, SlashPathsOpenHierarchy) {
  ObsGuard guard;
  obs::set_profiling(true);
  { obs::Span span("clean/interpolate"); }
  { obs::Span span("clean/micro"); }
  const auto entries = obs::profile_entries();
  // The "clean" parent node exists but was never itself timed (count 0),
  // so reports omit it and surface only the observed leaves.
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "interpolate");
  EXPECT_EQ(entries[0].count, 1u);
  EXPECT_EQ(entries[1].name, "micro");
  EXPECT_EQ(entries[1].count, 1u);
}

TEST(Span, WriteProfileRendersTree) {
  ObsGuard guard;
  obs::set_profiling(true);
  {
    obs::Span outer("analyze");
    obs::Span inner("phi_matrix");
  }
  std::ostringstream out;
  obs::write_profile(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("Fenrir profile"), std::string::npos);
  EXPECT_NE(s.find("analyze"), std::string::npos);
  EXPECT_NE(s.find("  phi_matrix"), std::string::npos);
}

TEST(Span, WriteProfileJsonIsFlattenedTree) {
  ObsGuard guard;
  obs::set_profiling(true);
  {
    obs::Span outer("analyze");
    obs::Span inner("phi_matrix");
  }
  std::ostringstream out;
  obs::write_profile_json(out);
  const std::string s = out.str();
  EXPECT_EQ(s.rfind("{\"spans\":[", 0), 0u);
  EXPECT_NE(s.find("\"name\":\"analyze\",\"depth\":0,\"count\":1"),
            std::string::npos);
  EXPECT_NE(s.find("\"name\":\"phi_matrix\",\"depth\":1,\"count\":1"),
            std::string::npos);
  EXPECT_NE(s.find("\"total_seconds\":"), std::string::npos);

  obs::reset_profile();
  std::ostringstream empty;
  obs::write_profile_json(empty);
  EXPECT_EQ(empty.str(), "{\"spans\":[]}");
}

core::Dataset pipeline_dataset() {
  core::Dataset d;
  d.name = "obs-smoke";
  constexpr std::size_t kNets = 120;
  for (std::size_t n = 0; n < kNets; ++n) d.networks.intern(n);
  const core::SiteId a = d.sites.intern("A");
  const core::SiteId b = d.sites.intern("B");
  core::TimePoint t = core::from_date(2024, 1, 1);
  for (int i = 0; i < 16; ++i) {
    core::RoutingVector v;
    v.time = t;
    t += core::kDay;
    v.assignment.assign(kNets, i < 8 ? a : b);
    d.series.push_back(std::move(v));
  }
  return d;
}

TEST(Instrumentation, AnalyzeEmitsAllFourStageSpans) {
  ObsGuard guard;
  obs::set_profiling(true);
  const core::Dataset d = pipeline_dataset();
  (void)core::analyze(d);
  const auto entries = obs::profile_entries();
  const auto has = [&](std::string_view name, int depth) {
    for (const auto& e : entries) {
      if (e.name == name && e.depth == depth && e.count >= 1) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("analyze", 0));
  EXPECT_TRUE(has("phi_matrix", 1));
  EXPECT_TRUE(has("hac_clustering", 1));
  EXPECT_TRUE(has("mode_extraction", 1));
  EXPECT_TRUE(has("event_detection", 1));
}

TEST(Instrumentation, ResultsBitIdenticalWithObservabilityOnOrOff) {
  ObsGuard guard;
  const core::Dataset d = pipeline_dataset();

  obs::set_profiling(false);
  obs::set_log_level(obs::Level::kOff);
  const core::AnalysisResult off = core::analyze(d);

  obs::set_profiling(true);
  obs::set_log_level(obs::Level::kTrace);  // captured by the guard's sink
  const core::AnalysisResult on = core::analyze(d);

  ASSERT_EQ(off.matrix.size(), on.matrix.size());
  for (std::size_t i = 0; i < off.matrix.size(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      ASSERT_EQ(off.matrix.phi(i, j), on.matrix.phi(i, j));
    }
  }
  EXPECT_EQ(off.clustering.labels, on.clustering.labels);
  EXPECT_EQ(off.clustering.threshold, on.clustering.threshold);
  ASSERT_EQ(off.modes.size(), on.modes.size());
  ASSERT_EQ(off.events.size(), on.events.size());
  for (std::size_t e = 0; e < off.events.size(); ++e) {
    EXPECT_EQ(off.events[e].index, on.events[e].index);
    EXPECT_EQ(off.events[e].phi, on.events[e].phi);
  }
  // The analyze counters moved while results stayed identical.
  EXPECT_GE(obs::registry()
                .counter("fenrir_analyze_runs_total")
                .value(),
            2u);
}

}  // namespace
}  // namespace fenrir
