// Tests for the decision lineage store (obs/lineage.h): verdict name
// round trips, record JSON framing and parse-back, the bounded ring
// with gap-free ids and an eviction horizon, since() filters, pending
// anchor/provenance context consumption, per-mode aggregates behind
// /explain, the JSONL lineage log's journal framing with its
// ts-stripped determinism property, the ModeBook emit site, and the
// fenrir_decision_* metric families.
#include "obs/lineage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/modebook.h"
#include "core/vector.h"
#include "obs/journal.h"
#include "obs/metrics.h"

namespace fenrir::obs {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "fenrir_lineage_" + name;
}

struct FileCleaner {
  explicit FileCleaner(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
  }
  ~FileCleaner() { std::remove(path.c_str()); }
  std::string path;
};

// "ts" is the lineage record's only wall-clock field; stripping it
// yields the deterministic line the chaos prefix property compares.
std::string strip_ts(const std::string& line) {
  const auto start = line.find(",\"ts\":");
  if (start == std::string::npos) return line;
  const auto end = line.find(',', start + 6);
  return line.substr(0, start) + line.substr(end);
}

DecisionRecord sample_record() {
  DecisionRecord r;
  r.obs_time = 1700000000;
  r.verdict = Verdict::kRecurrence;
  r.mode = 3;
  r.phi = 0.9375;
  r.gap_seconds = 7200;
  r.networks = 200;
  r.matches = 180;
  r.mismatches = 5;
  r.unknown = 15;
  r.scanned = 4;
  r.top[0] = {3, 0.9375};
  r.top[1] = {1, 0.5};
  r.top_count = 2;
  return r;
}

TEST(Lineage, VerdictNamesRoundTrip) {
  for (const Verdict v :
       {Verdict::kNewMode, Verdict::kRecurrence, Verdict::kRepeat}) {
    const auto parsed = parse_verdict(verdict_name(v));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, v);
  }
  EXPECT_FALSE(parse_verdict("novel").has_value());
  EXPECT_FALSE(parse_verdict("").has_value());
}

TEST(Lineage, RecordJsonFramesEveryField) {
  DecisionRecord r = sample_record();
  r.id = 7;
  r.unix_time = 1700000000.5;
  EXPECT_EQ(record_json(r),
            "{\"id\":7,\"ts\":1700000000.5,\"time\":1700000000,"
            "\"verdict\":\"recurrence\",\"mode\":3,\"phi\":0.9375,"
            "\"gap_seconds\":7200,\"networks\":200,\"matches\":180,"
            "\"mismatches\":5,\"unknown\":15,\"scanned\":4,"
            "\"top\":[{\"mode\":3,\"phi\":0.9375},{\"mode\":1,\"phi\":0.5}]}");
  // Optional sections: anchors (with the kernel marker when the chain
  // is empty) and federation provenance.
  r.has_anchor_info = true;
  r.anchor_chain[0] = 6;
  r.anchor_chain[1] = 2;
  r.anchor_count = 2;
  r.federated = true;
  r.member = 1;
  r.staleness = 2;
  r.disagreements = 9;
  const std::string json = record_json(r);
  EXPECT_NE(json.find(",\"anchors\":[6,2]"), std::string::npos);
  EXPECT_NE(json.find(",\"member\":1,\"staleness\":2,\"disagreements\":9"),
            std::string::npos);
  EXPECT_EQ(json.find("\"kernel\""), std::string::npos);
  r.anchor_count = 0;
  EXPECT_NE(record_json(r).find(",\"anchors\":[],\"kernel\":true"),
            std::string::npos);
  // A new mode has no gap; the field disappears rather than lying.
  r.gap_seconds = -1;
  EXPECT_EQ(record_json(r).find("gap_seconds"), std::string::npos);
}

TEST(Lineage, RecordJsonParsesBackLossless) {
  DecisionRecord r = sample_record();
  r.id = 42;
  r.unix_time = 123.25;
  r.has_anchor_info = true;
  r.anchor_chain[0] = 11;
  r.anchor_count = 1;
  r.federated = true;
  r.member = kLineageNoMember;  // serialized as -1
  r.staleness = 3;
  r.disagreements = 1;
  const auto parsed = parse_record_json(record_json(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->id, 42u);
  EXPECT_EQ(parsed->obs_time, r.obs_time);
  EXPECT_EQ(parsed->verdict, Verdict::kRecurrence);
  EXPECT_EQ(parsed->mode, 3u);
  EXPECT_DOUBLE_EQ(parsed->phi, r.phi);
  EXPECT_EQ(parsed->gap_seconds, 7200);
  EXPECT_EQ(parsed->networks, 200u);
  EXPECT_EQ(parsed->matches, 180u);
  EXPECT_EQ(parsed->mismatches, 5u);
  EXPECT_EQ(parsed->unknown, 15u);
  EXPECT_EQ(parsed->scanned, 4u);
  ASSERT_EQ(parsed->top_count, 2u);
  EXPECT_EQ(parsed->top[1].mode, 1u);
  EXPECT_DOUBLE_EQ(parsed->top[1].phi, 0.5);
  ASSERT_TRUE(parsed->has_anchor_info);
  ASSERT_EQ(parsed->anchor_count, 1u);
  EXPECT_EQ(parsed->anchor_chain[0], 11u);
  ASSERT_TRUE(parsed->federated);
  EXPECT_EQ(parsed->member, kLineageNoMember);
  EXPECT_EQ(parsed->staleness, 3u);
  EXPECT_EQ(parsed->disagreements, 1u);
  // Non-lineage lines (a sweep journal line, garbage) are nullopt, not
  // a throw — replay files may interleave.
  EXPECT_FALSE(parse_record_json("{\"sweep\":1,\"targets\":9}").has_value());
  EXPECT_FALSE(parse_record_json("not json").has_value());
}

TEST(Lineage, RingAssignsGapFreeIdsAndEvicts) {
  LineageStore store(LineageStore::Config{4});
  EXPECT_TRUE(store.enabled());
  EXPECT_EQ(store.last_id(), 0u);
  EXPECT_EQ(store.oldest_id(), 0u);
  for (int i = 0; i < 10; ++i) {
    DecisionRecord r = sample_record();
    r.mode = static_cast<std::uint64_t>(i);
    EXPECT_EQ(store.record(r), static_cast<std::uint64_t>(i + 1));
  }
  EXPECT_EQ(store.last_id(), 10u);
  EXPECT_EQ(store.oldest_id(), 7u);
  EXPECT_EQ(store.evicted_total(), 6u);
  const auto records = store.since(0);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().id, 7u);
  EXPECT_EQ(records.back().id, 10u);
  // Aggregates survive eviction: all 10 visits are still counted.
  std::uint64_t visits = 0;
  for (const std::uint64_t mode : store.known_modes()) {
    visits += store.mode_lineage(mode)->visits;
  }
  EXPECT_EQ(visits, 10u);
}

TEST(Lineage, SinceFiltersByModeVerdictAndCap) {
  LineageStore store(LineageStore::Config{64});
  DecisionRecord r = sample_record();
  r.verdict = Verdict::kNewMode;
  r.mode = 0;
  store.record(r);
  r.verdict = Verdict::kRepeat;
  store.record(r);
  r.verdict = Verdict::kNewMode;
  r.mode = 1;
  store.record(r);
  r.verdict = Verdict::kRecurrence;
  r.mode = 0;
  store.record(r);

  EXPECT_EQ(store.since(0).size(), 4u);
  EXPECT_EQ(store.since(2).size(), 2u);
  EXPECT_EQ(store.since(0, 0).size(), 3u);
  EXPECT_EQ(store.since(0, {}, Verdict::kNewMode).size(), 2u);
  EXPECT_EQ(store.since(0, {}, {}, 2).size(), 2u);
  // Filters compose: mode 0 records after id 1.
  const auto tail = store.since(1, 0);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].id, 2u);
  EXPECT_EQ(tail[1].verdict, Verdict::kRecurrence);
}

TEST(Lineage, DisabledStoreRecordsNothing) {
  LineageStore store(LineageStore::Config{0});
  EXPECT_FALSE(store.enabled());
  EXPECT_EQ(store.record(sample_record()), 0u);
  EXPECT_EQ(store.last_id(), 0u);
  EXPECT_TRUE(store.known_modes().empty());
  store.set_capacity(2);
  EXPECT_TRUE(store.enabled());
  EXPECT_EQ(store.record(sample_record()), 1u);
  store.set_capacity(0);
  EXPECT_FALSE(store.enabled());
  EXPECT_EQ(store.record(sample_record()), 0u);
}

TEST(Lineage, PendingContextIsConsumedByExactlyOneRecord) {
  LineageStore store(LineageStore::Config{16});
  const std::vector<std::size_t> chain = {5, 3, 1};
  store.set_anchor_context(chain);
  store.set_provenance_context(2, 4, 1);
  store.record(sample_record());
  store.record(sample_record());  // context must not ride along
  const auto records = store.since(0);
  ASSERT_EQ(records.size(), 2u);
  ASSERT_TRUE(records[0].has_anchor_info);
  ASSERT_EQ(records[0].anchor_count, 3u);
  EXPECT_EQ(records[0].anchor_chain[0], 5u);
  EXPECT_EQ(records[0].anchor_chain[2], 1u);
  ASSERT_TRUE(records[0].federated);
  EXPECT_EQ(records[0].member, 2u);
  EXPECT_EQ(records[0].staleness, 4u);
  EXPECT_EQ(records[0].disagreements, 1u);
  EXPECT_FALSE(records[1].has_anchor_info);
  EXPECT_FALSE(records[1].federated);
  // clear_context() drops context a skipped (invalid) row would
  // otherwise leak onto its successor.
  store.set_anchor_context(chain);
  store.clear_context();
  store.record(sample_record());
  EXPECT_FALSE(store.since(2)[0].has_anchor_info);
  // An empty chain is real information (the row paid the kernels), not
  // absence of information.
  store.set_anchor_context({});
  store.record(sample_record());
  const auto kernel = store.since(3);
  ASSERT_EQ(kernel.size(), 1u);
  EXPECT_TRUE(kernel[0].has_anchor_info);
  EXPECT_EQ(kernel[0].anchor_count, 0u);
}

TEST(Lineage, ChainsLongerThanDepthAreTruncated) {
  LineageStore store(LineageStore::Config{4});
  std::vector<std::size_t> chain(kLineageChainDepth + 5);
  for (std::size_t i = 0; i < chain.size(); ++i) chain[i] = 100 + i;
  store.set_anchor_context(chain);
  store.record(sample_record());
  const auto records = store.since(0);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].anchor_count, kLineageChainDepth);
  EXPECT_EQ(records[0].anchor_chain[0], 100u);
  EXPECT_EQ(records[0].anchor_chain[kLineageChainDepth - 1],
            100u + kLineageChainDepth - 1);
}

TEST(Lineage, ModeAggregatesTrackExplainFields) {
  LineageStore store(LineageStore::Config{64});
  DecisionRecord r;
  r.networks = 10;
  // Modes 0 and 1 founded, then mode 0 repeated and twice recurring
  // with gaps landing in the <=1h and <=1d buckets; mode 1 chases the
  // winner on all three of those decisions.
  r.verdict = Verdict::kNewMode;
  r.mode = 0;
  r.obs_time = 1000;
  r.phi = 0.0;
  r.top_count = 0;
  store.record(r);
  r.mode = 1;
  r.obs_time = 1200;
  r.phi = 0.3;
  store.record(r);
  r.mode = 0;
  r.verdict = Verdict::kRepeat;
  r.obs_time = 1600;
  r.phi = 0.99;
  r.top[0] = {0, 0.99};
  r.top[1] = {1, 0.4};
  r.top_count = 2;
  store.record(r);
  r.verdict = Verdict::kRecurrence;
  r.obs_time = 5200;
  r.gap_seconds = 3600;
  store.record(r);
  r.obs_time = 91600;
  r.gap_seconds = 86400;
  r.phi = 0.95;
  store.record(r);

  const auto agg = store.mode_lineage(0);
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->visits, 4u);
  EXPECT_EQ(agg->recurrences, 2u);
  EXPECT_DOUBLE_EQ(agg->last_phi, 0.95);
  EXPECT_EQ(agg->first_seen, 1000);
  EXPECT_EQ(agg->last_seen, 91600);
  EXPECT_EQ(agg->gap_buckets[0], 1u);  // <=1h
  EXPECT_EQ(agg->gap_buckets[2], 1u);  // <=1d
  EXPECT_EQ(agg->closest_confused, 1u);
  EXPECT_EQ(agg->closest_confused_count, 3u);
  // Mode 1 won only its founding decision but chased three others.
  const auto runner = store.mode_lineage(1);
  ASSERT_TRUE(runner.has_value());
  EXPECT_EQ(runner->visits, 1u);
  EXPECT_EQ(runner->runner_up, 3u);
  EXPECT_FALSE(store.mode_lineage(99).has_value());
  EXPECT_EQ(store.known_modes(), (std::vector<std::uint64_t>{0, 1}));
}

TEST(Lineage, LogRoundTripsThroughJournalFraming) {
  FileCleaner f(temp_path("log.jsonl"));
  LineageStore store(LineageStore::Config{8});
  ASSERT_TRUE(store.open_log(f.path, /*truncate=*/true));
  EXPECT_TRUE(store.log_open());
  DecisionRecord r = sample_record();
  store.record(r);
  r.verdict = Verdict::kNewMode;
  r.mode = 9;
  store.record(r);
  store.close_log();

  const std::vector<std::string> lines = read_journal(f.path);
  ASSERT_EQ(lines.size(), 2u);
  const auto first = parse_record_json(lines[0]);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->id, 1u);
  EXPECT_GT(first->unix_time, 0.0);  // the store stamped wall time
  const auto second = parse_record_json(lines[1]);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->mode, 9u);
  EXPECT_EQ(second->verdict, Verdict::kNewMode);
}

// The determinism half of the chaos prefix property, at unit scale:
// two stores fed the same decisions write ts-stripped-identical logs.
TEST(Lineage, TsStrippedLogLinesAreDeterministic) {
  FileCleaner a(temp_path("det_a.jsonl"));
  FileCleaner b(temp_path("det_b.jsonl"));
  for (const std::string& path : {a.path, b.path}) {
    LineageStore store(LineageStore::Config{8});
    ASSERT_TRUE(store.open_log(path, /*truncate=*/true));
    DecisionRecord r = sample_record();
    store.set_anchor_context(std::vector<std::size_t>{2, 1});
    store.record(r);
    r.verdict = Verdict::kRepeat;
    store.record(r);
  }
  const auto lines_a = read_journal(a.path);
  const auto lines_b = read_journal(b.path);
  ASSERT_EQ(lines_a.size(), 2u);
  ASSERT_EQ(lines_b.size(), 2u);
  for (std::size_t i = 0; i < lines_a.size(); ++i) {
    EXPECT_NE(lines_a[i], lines_b[i]);  // wall clocks differ...
    EXPECT_EQ(strip_ts(lines_a[i]), strip_ts(lines_b[i]));  // ...only
  }
}

// A kill mid-append can cut the log's last line anywhere, even inside
// an array. A resumed watch reopens the log: a line cut inside its
// anchors or top array is torn and skipped, never read past, and the id
// sequence continues after the last whole record. A top entry's mode is
// an integer; one that is negative or written as a double ends the list.
TEST(Lineage, OpenLogSkipsATornRecord) {
  FileCleaner f(temp_path("torn.jsonl"));
  DecisionRecord r = sample_record();
  r.has_anchor_info = true;
  r.anchor_chain[0] = 6;
  r.anchor_chain[1] = 2;
  r.anchor_count = 2;
  std::string log;
  for (std::uint64_t id = 1; id <= 2; ++id) {
    r.id = id;
    log += record_json(r) + "\n";
  }
  r.id = 3;
  const std::string whole = record_json(r);
  const std::string torn = whole.substr(0, whole.find("\"anchors\":[6") + 12);
  ASSERT_EQ(torn.back(), '6');
  EXPECT_FALSE(parse_record_json(torn).has_value());
  EXPECT_FALSE(
      parse_record_json(whole.substr(0, whole.find("\"top\":[") + 15))
          .has_value());
  { std::ofstream(f.path, std::ios::binary) << log << torn; }

  LineageStore store(LineageStore::Config{8});
  ASSERT_TRUE(store.open_log(f.path, /*truncate=*/false));
  EXPECT_EQ(store.record(sample_record()), 3u)
      << "ids continue after the last whole record";
  store.close_log();

  for (const char* mode : {"-1", "1e30", "2.5"}) {
    std::string line = whole;
    line.replace(line.find("{\"mode\":3") + 8, 1, mode);
    const auto parsed = parse_record_json(line);
    ASSERT_TRUE(parsed.has_value()) << mode;
    EXPECT_EQ(parsed->top_count, 0u) << mode;
  }
}

// The resume half of the torn-tail rule: a kill cut the log's last
// record short, and the resumed session's first record must read back
// as a record of its own — not glued onto the torn line — with the id
// after the last whole one.
TEST(Lineage, ResumedLogAfterATornRecordReadsBackIntact) {
  FileCleaner f(temp_path("torn_resume.jsonl"));
  DecisionRecord r = sample_record();
  r.id = 1;
  const std::string whole = record_json(r);
  r.id = 2;
  const std::string torn = record_json(r);
  {
    std::ofstream(f.path, std::ios::binary)
        << whole << "\n" << torn.substr(0, torn.size() - 5);
  }
  LineageStore store(LineageStore::Config{8});
  ASSERT_TRUE(store.open_log(f.path, /*truncate=*/false));
  DecisionRecord next = sample_record();
  next.verdict = Verdict::kNewMode;
  next.mode = 9;
  EXPECT_EQ(store.record(next), 2u);
  store.close_log();

  const std::vector<std::string> lines = read_journal(f.path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], whole);
  const auto resumed = parse_record_json(lines[1]);
  ASSERT_TRUE(resumed.has_value()) << lines[1];
  EXPECT_EQ(record_json(*resumed), lines[1]) << "one record per line";
  EXPECT_EQ(resumed->id, 2u);
  EXPECT_EQ(resumed->mode, 9u);
  EXPECT_EQ(resumed->verdict, Verdict::kNewMode);
}

TEST(Lineage, ModeBookObserveEmitsRecords) {
  LineageStore& store = lineage();
  store.reset();
  store.set_capacity(64);
  core::ModeBook book;
  core::RoutingVector normal;
  normal.time = 1000;
  normal.assignment.assign(50, core::kFirstRealSite);
  core::RoutingVector drain;
  drain.time = 2000;
  drain.assignment.assign(50, core::kFirstRealSite + 1);
  book.observe(normal);
  book.observe(drain);
  core::RoutingVector back = normal;
  back.time = 3000;
  book.observe(back);
  core::RoutingVector invalid;
  invalid.valid = false;
  book.observe(invalid);  // not a decision: no record

  const auto records = store.since(0);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].verdict, Verdict::kNewMode);
  EXPECT_EQ(records[0].mode, 0u);
  EXPECT_EQ(records[0].top_count, 0u);  // nothing to scan yet
  EXPECT_EQ(records[1].verdict, Verdict::kNewMode);
  EXPECT_EQ(records[1].mode, 1u);
  EXPECT_EQ(records[2].verdict, Verdict::kRecurrence);
  EXPECT_EQ(records[2].mode, 0u);
  EXPECT_DOUBLE_EQ(records[2].phi, 1.0);
  EXPECT_EQ(records[2].gap_seconds, 2000);  // last seen at t=1000
  EXPECT_EQ(records[2].networks, 50u);
  EXPECT_EQ(records[2].matches, 50u);
  EXPECT_EQ(records[2].mismatches, 0u);
  EXPECT_EQ(records[2].unknown, 0u);
  ASSERT_GE(records[2].top_count, 1u);
  EXPECT_EQ(records[2].top[0].mode, 0u);
  store.reset();
  store.set_capacity(512);
}

// A weighted book scores with weights but still tallies networks in its
// decision records: the detour matched at Φ 100/103 records one match
// and three mismatches.
TEST(Lineage, WeightedModeBookRecordsNetworkCounts) {
  LineageStore& store = lineage();
  store.reset();
  store.set_capacity(64);
  core::ModeBook book(core::ModeBook::Config{}, {100.0, 1.0, 1.0, 1.0});
  core::RoutingVector home;
  home.time = 1000;
  home.assignment.assign(4, core::kFirstRealSite);
  core::RoutingVector detour = home;
  detour.time = 2000;
  detour.assignment[1] = detour.assignment[2] = detour.assignment[3] =
      core::kFirstRealSite + 1;
  book.observe(home);
  book.observe(detour);

  const auto records = store.since(0);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].verdict, Verdict::kRepeat);
  EXPECT_DOUBLE_EQ(records[1].phi, 100.0 / 103.0);
  EXPECT_EQ(records[1].networks, 4u);
  EXPECT_EQ(records[1].matches, 1u);
  EXPECT_EQ(records[1].mismatches, 3u);
  EXPECT_EQ(records[1].unknown, 0u);
  store.reset();
  store.set_capacity(512);
}

TEST(Lineage, MetricsCountRecordsAndEvictions) {
  Counter& records_total = registry().counter("fenrir_decision_records_total");
  Counter& evictions_total =
      registry().counter("fenrir_decision_evictions_total");
  const double records_before = records_total.value();
  const double evictions_before = evictions_total.value();
  LineageStore store(LineageStore::Config{2});
  for (int i = 0; i < 5; ++i) store.record(sample_record());
  EXPECT_DOUBLE_EQ(records_total.value() - records_before, 5.0);
  EXPECT_DOUBLE_EQ(evictions_total.value() - evictions_before, 3.0);
}

// The exposition-grammar satellite over the new families: the
// fenrir_decision_* counters and the runner-up gap histogram must obey
// the same Prometheus text-format subset as every other metric.
TEST(Lineage, DecisionMetricFamiliesMatchExpositionGrammar) {
  // The flush-errors counter registers lazily on the first failed
  // append; touch it so the family is present for the grammar check.
  registry().counter("fenrir_decision_flush_errors_total",
                     "lineage log appends that failed to reach the file");
  LineageStore store(LineageStore::Config{1});
  DecisionRecord r = sample_record();
  store.record(r);  // top_count == 2 -> observes the gap histogram
  store.record(r);  // evicts the first -> the evictions family exists
                    // even when this test runs alone under ctest
  std::ostringstream out;
  registry().write_prometheus(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("# TYPE fenrir_decision_records_total counter"),
            std::string::npos);
  EXPECT_NE(s.find("# TYPE fenrir_decision_evictions_total counter"),
            std::string::npos);
  EXPECT_NE(s.find("# TYPE fenrir_decision_flush_errors_total counter"),
            std::string::npos);
  EXPECT_NE(s.find("# TYPE fenrir_decision_runnerup_phi_gap histogram"),
            std::string::npos);
  EXPECT_NE(s.find("fenrir_decision_runnerup_phi_gap_bucket{le=\"+Inf\"}"),
            std::string::npos);

  const std::regex help_re(R"(^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$)");
  const std::regex type_re(
      R"(^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$)");
  const std::regex sample_re(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (\+Inf|-?[0-9.eE+-]+|nan)$)");
  std::istringstream lines(s);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line.rfind("fenrir_decision", 0) != 0) continue;
    EXPECT_TRUE(std::regex_match(line, sample_re) ||
                std::regex_match(line, help_re) ||
                std::regex_match(line, type_re))
        << "line violates exposition grammar: " << line;
  }
}

// ---------------------------------------------------------------------
// LineageFuzz: the lineage JSONL readers' "parse or skip" promise,
// checked the way DatasetIoFuzz checks the dataset decoder. A log of
// records with top lists, anchor chains and federation provenance is
// cut at every byte of its last line, then mutated by seeded edits
// drawn from the bytes that steer the parsers. read_journal must return
// lines or throw JournalError; parse_record_json must return a record
// inside its bounds or nothing, and never read past the line (the
// sanitizer builds catch that); open_log must continue the id sequence
// after the largest id any line of the file parses to.

std::string fuzz_log() {
  std::string log;
  DecisionRecord r = sample_record();
  for (std::uint64_t id = 1; id <= 6; ++id) {
    r.id = id;
    r.unix_time = 1700000000.25 + static_cast<double>(id);
    r.verdict = static_cast<Verdict>(id % 3);
    r.has_anchor_info = id % 2 == 0;
    r.anchor_count = static_cast<std::uint32_t>(id % 3);
    for (std::uint32_t k = 0; k < r.anchor_count; ++k) {
      r.anchor_chain[k] = 10 * id + k;
    }
    r.federated = id % 3 == 0;
    r.member = id == 3 ? kLineageNoMember : 1;
    r.staleness = id;
    log += record_json(r) + "\n";
  }
  return log;
}

void expect_parses_or_skips(const std::string& path, const std::string& text,
                            const std::string& label) {
  { std::ofstream(path, std::ios::binary | std::ios::trunc) << text; }
  try {
    for (const std::string& line : read_journal(path)) {
      (void)parse_record_json(line);
    }
  } catch (const JournalError&) {
  }
  std::uint64_t max_id = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const auto r = parse_record_json(line);
    if (!r) continue;
    ASSERT_GT(r->id, 0u) << label;
    ASSERT_LE(r->top_count, kLineageTopK) << label;
    ASSERT_LE(r->anchor_count, kLineageChainDepth) << label;
    max_id = std::max(max_id, r->id);
  }
  LineageStore store(LineageStore::Config{4});
  ASSERT_TRUE(store.open_log(path, /*truncate=*/false)) << label;
  EXPECT_EQ(store.record(sample_record()), max_id + 1) << label;
}

TEST(LineageFuzz, MutatedLogsParseOrSkip) {
  FileCleaner f(temp_path("fuzz.jsonl"));
  const std::string text = fuzz_log();
  const std::size_t last = text.rfind('\n', text.size() - 2) + 1;
  for (std::size_t cut = last; cut < text.size(); ++cut) {
    expect_parses_or_skips(f.path, text.substr(0, cut),
                           "cut at " + std::to_string(cut));
    if (HasFatalFailure()) return;
  }
  // The bytes that steer the scanners and the number parsers, and the
  // rest.
  const std::string alphabet = "{}[],:\"\n-+.eE0123456789 xm";
  const auto start = std::chrono::steady_clock::now();
  const auto budget = std::chrono::seconds(5);
  std::uint64_t state = 0x11ea;
  const auto draw = [&state](std::uint64_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % bound;
  };
  std::size_t mutants = 0;
  for (; mutants < 4000; ++mutants) {
    if (mutants >= 500 && std::chrono::steady_clock::now() - start > budget) {
      break;
    }
    std::string bad = text;
    const std::uint64_t edits = 1 + draw(4);
    for (std::uint64_t e = 0; e < edits; ++e) {
      const std::size_t at = draw(bad.size() + 1);
      const char c = alphabet[draw(alphabet.size())];
      switch (draw(3)) {
        case 0:
          if (at < bad.size()) bad[at] = c;
          break;
        case 1:
          bad.insert(bad.begin() + static_cast<std::ptrdiff_t>(at), c);
          break;
        default:
          if (at < bad.size()) bad.erase(at, 1);
      }
    }
    expect_parses_or_skips(f.path, bad, "mutant " + std::to_string(mutants));
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(mutants, 500u);
}

}  // namespace
}  // namespace fenrir::obs
