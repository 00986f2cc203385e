// fenrirctl — the Fenrir command-line analyst.
//
// Operates on Fenrir dataset CSV files (see core/dataset_io.h), so any
// measurement pipeline that can emit "one catchment label per network per
// observation" can use the full analysis without writing C++:
//
//   fenrirctl demo out.csv                generate a sample dataset
//   fenrirctl info data.csv               dataset summary
//   fenrirctl analyze data.csv [options]  modes, recurrences, events
//   fenrirctl watch data.csv [options]    online mode recognition per
//                                         observation (is this routing
//                                         new, or a mode seen before?)
//   fenrirctl clean in.csv out.csv        interpolate gaps, fold micros
//   fenrirctl compare data.csv T1 T2      Gower phi between two instants
//   fenrirctl transitions data.csv T1 T2  the Table-3 style matrix
//   fenrirctl journal file.jsonl          replay a sweep journal (see
//                                         src/obs/journal.h); summarizes
//                                         sweeps and breaker transitions
//   fenrirctl events file.jsonl           replay an event log written by
//                                         --events-out: summary table by
//                                         type and severity
//   fenrirctl events --port N [opts]      tail a live server's /events
//                                         endpoint (see below)
//   fenrirctl federate out.csv [opts]     run a synthetic federated
//                                         multi-prober campaign
//                                         (measure::Federation): N
//                                         member probers with skewed
//                                         clocks and overlapping target
//                                         slices merge into one dataset;
//                                         one member goes dark mid-run
//                                         and rejoins
//   fenrirctl explain M [opts]            why does the book keep calling
//                                         observations recurrences of
//                                         mode M: visits, gaps, top-k
//                                         phi, per-category counts,
//                                         anchor chains, federation
//                                         provenance. Offline over a
//                                         --lineage FILE.jsonl log, or
//                                         live against --port N
//   fenrirctl lineage replay FILE.jsonl   summarize a decision lineage
//                                         log written by --lineage:
//                                         verdict and per-mode tables
//   fenrirctl blackbox dump FILE          read back a --blackbox flight
//                                         recorder ring — works on the
//                                         wreckage after any kill or
//                                         crash; corrupt rings exit 3
//   fenrirctl segment ls DIR              list a FENRSEG segment store:
//                                         per-segment rows/bytes/times,
//                                         tail size, retained window
//   fenrirctl segment verify DIR          check every segment file against
//                                         the manifest and every record
//                                         against its checksum; corrupt
//                                         stores exit 3
//   fenrirctl --version                   build identity (version, git
//                                         sha, build type, sanitizers)
//
// analyze options:
//   --known-only          known-only unknown policy (default pessimistic)
//   --linkage L           single | complete | average
//   --min-drop X          detector threshold (default 0.02)
//   --heatmap FILE.pgm    write the all-pairs heatmap image
//   --heatmap-csv FILE    write the full phi matrix as CSV
//   --stack FILE.csv      write the per-site stack series
//   --ascii               print an ASCII heatmap
//   --matrix-cache DIR    reuse DIR, a FENRSEG segment store
//                         (io/segment_store.h, created if absent), as the
//                         phi matrix cache: mmap-loaded, only the new
//                         rows appended, O(new rows) written back. Stale
//                         caches are recomputed with a warning; corrupt
//                         ones, or a DIR that is not a directory, are
//                         exit code 3. Output is byte-identical either
//                         way — every matrix path is.
//
// watch options:
//   --threshold X         mode match threshold (default 0.85)
//   --pessimistic         pessimistic unknown policy (default known-only)
//   --adapt               representatives follow the latest member
//   --store DIR           keep the session in DIR, a FENRSEG segment
//                         store (created if absent): the mode book and
//                         the phi matrix survive restarts, and a rerun
//                         processes only new observations. Each
//                         observation is appended as one record (O(new
//                         rows) per save interval, never the history),
//                         sealed segments are mmap-adopted on resume
//                         (flat warm-start), cold runs compact in the
//                         background. A DIR that is not a directory, or
//                         a corrupt store, is exit code 3
//   --seal-rows N         records per tail segment before seal + rotate
//                         (default 256)
//   --retain-days X       retire sealed segments whose newest observation
//                         is more than X days (fractional ok) older than
//                         the newest seen — observation time, not wall
//                         clock
//   --retain-obs N        keep at least the newest N observations; whole
//                         cold segments beyond them are retired
//
// clean options:
//   --limit N             interpolation distance (default 3)
//   --fill-edges          replicate nearest observation into edge gaps
//   --micro X             fold sites whose peak share is below X
//
// events options (tail mode):
//   --port N              status server port to tail (required)
//   --since S             start after sequence number S (default 0)
//   --type T              only events of type T
//   --severity S          only events of severity >= S
//                         (debug|info|notice|warn|alert)
//   --follow              keep long-polling until SIGINT or the server
//                         goes away (default: one fetch and exit)
//   --retries N           consecutive failed fetches tolerated before
//                         giving up (default 5). Attempts back off
//                         exponentially (250ms doubling, capped at 4s)
//                         and the counter resets on any success; the
//                         final diagnostic names the attempt count
//
// federate options:
//   --members N           member probers (default 3, min 2)
//   --epochs N            federation epochs to run (default 8)
//   --overlap N           extra targets each member's slice extends
//                         into its neighbors' (default 2)
//   --kill-member I       with --kill-epoch: member I's fault plan
//   --kill-epoch E        kills the process mid-sweep in epoch E
//                         (exit 1; resumable via --checkpoint)
//   --checkpoint DIR      resume from DIR if it holds a federation
//                         checkpoint; save state there on a kill (and
//                         on success). A killed run rerun with the same
//                         arguments produces a byte-identical dataset.
//   --provenance FILE     write per-epoch per-target provenance CSV
//                         (serving member, staleness, disagreement)
//
// exit codes: 0 success; 2 usage errors; 3 I/O errors (unreadable,
// unwritable, or malformed dataset/state files); 1 analysis errors and
// everything else.
//
// observability (any command; see src/obs/):
//   --log-level L         trace|debug|info|warn|error|off (also settable
//                         via FENRIR_LOG_LEVEL; FENRIR_LOG_FORMAT=json
//                         switches the sink to JSON-lines)
//   --metrics FILE        write the metrics registry after the command:
//                         Prometheus text, or CSV/JSON if FILE ends in
//                         .csv/.json
//   --profile             print the span-tree wall-time profile to
//                         stderr (stdout output stays byte-identical)
//   --trace-out FILE      record span begin/end events and write them as
//                         Chrome trace JSON (chrome://tracing, Perfetto)
//   --status-port N       serve GET /metrics /healthz /status /profile
//                         on 127.0.0.1:N while the command runs (0 =
//                         ephemeral; also via FENRIR_STATUS_PORT; if N
//                         is taken an ephemeral port replaces it)
//   --status-port-file F  write the actually bound status port to F, so
//                         scripts need not parse logs
//   --serve               keep the status server (and the process) alive
//                         after the command until SIGINT/SIGTERM
//   --journal FILE        watch only: append one JSONL entry per
//                         observation (replay with `fenrirctl journal`)
//   --events-out FILE     append every detection event (obs/events.h)
//                         to FILE as JSONL — same torn-tail-tolerant
//                         framing as the journal; replay with
//                         `fenrirctl events FILE`
//   --lineage FILE        append one DecisionRecord (obs/lineage.h) per
//                         ModeBook verdict to FILE as JSONL — the why
//                         behind every new-mode/recurrence call; read
//                         back with `fenrirctl explain M --lineage
//                         FILE` or `fenrirctl lineage replay FILE`
//   --blackbox FILE       keep a crash-safe mmap'd ring of the last
//                         decisions and events in FILE; sealed on exit
//                         and on fatal signals, readable after ANY
//                         crash with `fenrirctl blackbox dump FILE`
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos/killpoint.h"
#include "core/cleaning.h"
#include "core/dataset_io.h"
#include "core/heatmap.h"
#include "core/modebook.h"
#include "core/pipeline.h"
#include "core/stackplot.h"
#include "core/transition.h"
#include "io/csv.h"
#include "io/segment_store.h"
#include "io/table.h"
#include "measure/federation.h"
#include "measure/verfploeter.h"
#include "netbase/hitlist.h"
#include "obs/build_info.h"
#include "obs/events.h"
#include "obs/http_client.h"
#include "obs/http_server.h"
#include "obs/flight_recorder.h"
#include "obs/journal.h"
#include "obs/lineage.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/query.h"
#include "obs/metrics_window.h"
#include "obs/span.h"
#include "obs/status_board.h"
#include "obs/trace_export.h"
#include "scenarios/world.h"

using namespace fenrir;

namespace {

int usage() {
  std::cerr << "usage: fenrirctl "
               "<demo|info|analyze|watch|clean|compare|transitions|journal"
               "|events|federate|explain|lineage|blackbox|segment> "
               "...\n(see the header of tools/fenrirctl.cpp for options)\n";
  return 2;
}

std::atomic<bool> g_shutdown{false};

void handle_shutdown_signal(int) { g_shutdown.store(true); }

struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> options;

  bool has(const std::string& flag) const {
    for (const auto& [k, _] : options) {
      if (k == flag) return true;
    }
    return false;
  }
  std::string get(const std::string& flag, const std::string& fallback) const {
    for (const auto& [k, v] : options) {
      if (k == flag) return v;
    }
    return fallback;
  }
};

Args parse_args(int argc, char** argv, int first) {
  // Flags with a value; everything else is boolean or positional.
  const auto takes_value = [](const std::string& flag) {
    return flag == "--linkage" || flag == "--min-drop" ||
           flag == "--threshold" || flag == "--mode-strip" ||
           flag == "--heatmap" || flag == "--heatmap-csv" ||
           flag == "--stack" || flag == "--limit" || flag == "--micro" ||
           flag == "--log-level" || flag == "--metrics" ||
           flag == "--matrix-cache" ||
           flag == "--trace-out" || flag == "--status-port" ||
           flag == "--status-port-file" || flag == "--journal" ||
           flag == "--events-out" || flag == "--port" ||
           flag == "--since" || flag == "--type" || flag == "--severity" ||
           flag == "--retries" || flag == "--members" || flag == "--epochs" ||
           flag == "--overlap" || flag == "--kill-member" ||
           flag == "--kill-epoch" || flag == "--checkpoint" ||
           flag == "--provenance" || flag == "--lineage" ||
           flag == "--blackbox" || flag == "--store" ||
           flag == "--seal-rows" || flag == "--retain-days" ||
           flag == "--retain-obs";
  };
  Args out;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      if (takes_value(a)) {
        if (i + 1 >= argc) throw std::runtime_error(a + " needs a value");
        out.options.emplace_back(a, argv[++i]);
      } else {
        out.options.emplace_back(a, "");
      }
    } else {
      out.positional.push_back(a);
    }
  }
  return out;
}

/// Store tuning shared by watch --store, analyze --matrix-cache, and
/// the segment subcommands. --retain-days is observation time, so a
/// fractional value is fine and retention stays deterministic.
io::SegmentStoreConfig segment_config(const Args& args) {
  io::SegmentStoreConfig cfg;
  cfg.seal_rows =
      static_cast<std::size_t>(std::stoul(args.get("--seal-rows", "256")));
  cfg.retain_obs = std::stoull(args.get("--retain-obs", "0"));
  cfg.retain_seconds = static_cast<std::int64_t>(
      std::stod(args.get("--retain-days", "0")) *
      static_cast<double>(core::kDay));
  cfg.threads = 0;
  return cfg;
}

core::TimePoint parse_time_or_throw(const std::string& text) {
  const auto t = core::parse_time(text);
  if (!t) throw std::runtime_error("bad time (want YYYY-MM-DD[ HH:MM]): " +
                                   text);
  return *t;
}

/// Nearest valid observation to t; throws if the dataset is empty.
std::size_t observation_at(const core::Dataset& d, core::TimePoint t) {
  if (d.series.empty()) throw std::runtime_error("dataset has no series");
  const std::size_t i = d.index_at(t);
  return i >= d.series.size() ? d.series.size() - 1 : i;
}

int cmd_demo(const Args& args) {
  if (args.positional.size() != 1) return usage();
  // A compact version of examples/quickstart.cpp: three sites, a drain,
  // and a third-party shift, saved as a dataset file.
  scenarios::WorldConfig wc;
  wc.topo.stub_count = 400;
  wc.topo.seed = 77;
  scenarios::World world = scenarios::make_world(wc);
  bgp::AnycastService service(*netbase::Prefix::parse("192.0.2.0/24"));
  service.add_site(0, world.topo.stubs[5]);
  service.add_site(1, world.topo.stubs[200]);
  service.add_site(2, world.topo.stubs[395]);
  rng::Rng rng(7);
  const std::vector<bgp::Origin> verify = service.active_origins();
  const auto cone = scenarios::add_shiftable_cone(
      world, world.topo.stubs[5], world.topo.stubs[395], 0.15, 64900, rng,
      &verify);

  netbase::Hitlist hitlist(world.topo.blocks, 3);
  measure::VerfploeterConfig vc;
  vc.seed = 3;
  const measure::VerfploeterProbe probe(&hitlist, vc);

  core::Dataset data;
  data.name = "fenrirctl demo";
  for (std::size_t i = 0; i < hitlist.size(); ++i) {
    data.networks.intern(hitlist.block(i));
  }
  const auto site_map =
      scenarios::make_site_mapping(data.sites, {"alpha", "beta", "gamma"});
  const core::TimePoint t0 = core::from_date(2025, 1, 1);
  for (int day = 0; day < 45; ++day) {
    if (day == 15) service.set_drained(1, true);
    if (day == 22) service.set_drained(1, false);
    if (day == 33 && cone) cone->flip.apply(world.topo.graph);
    const auto& routing =
        world.cache.get(world.topo.graph, service.active_origins());
    core::RoutingVector v;
    v.time = t0 + day * core::kDay;
    v.assignment =
        probe.measure(v.time, world.topo.graph, routing, site_map);
    data.series.push_back(std::move(v));
  }
  core::save_dataset_file(data, args.positional[0]);
  std::cout << "wrote " << args.positional[0] << ": "
            << data.series.size() << " observations x "
            << data.networks.size()
            << " networks (drain day 15-21, third-party shift day 33)\n";
  return 0;
}

int cmd_analyze(const Args& args) {
  if (args.positional.size() != 1) return usage();
  core::Dataset data = core::load_dataset_file(args.positional[0]);
  if (data.series.size() < 2) {
    // The pipeline needs at least one consecutive pair; bail with a
    // diagnostic instead of letting a deep stage assert.
    FENRIR_LOG(Error).field("file", args.positional[0])
            .field("observations", data.series.size())
        << "analyze needs at least 2 observations; "
           "nothing to compare (is the dataset empty or truncated?)";
    return 1;
  }

  core::AnalysisConfig cfg;
  if (args.has("--known-only")) cfg.policy = core::UnknownPolicy::kKnownOnly;
  const std::string linkage = args.get("--linkage", "single");
  if (linkage == "complete") {
    cfg.linkage = core::Linkage::kComplete;
  } else if (linkage == "average") {
    cfg.linkage = core::Linkage::kAverage;
  } else if (linkage != "single") {
    throw std::runtime_error("unknown linkage: " + linkage);
  }
  cfg.detector.min_drop = std::stod(args.get("--min-drop", "0.02"));

  // --matrix-cache DIR: reuse a segment store's Φ rows when they are a
  // prefix of this dataset built under the same flags; append the
  // remainder and hand it to the pipeline. Every matrix path is
  // bit-identical, so the report is byte-for-byte the same as a cold
  // run — the cache only moves time around. A corrupt cache is an error
  // (exit 3), a stale one is merely ignored.
  const std::string cache_path = args.get("--matrix-cache", "");
  std::optional<io::SegmentStore> seg_cache;
  std::optional<core::SimilarityMatrix> cached;
  if (!cache_path.empty()) {
    seg_cache.emplace(cache_path, segment_config(args));
    seg_cache->attach(&data);
    bool usable = !seg_cache->empty();
    if (usable && seg_cache->base_row() > 0) {
      // Retention already dropped rows analyze needs (it computes over
      // the whole dataset). Recompute cold and leave the store alone —
      // writing full-history rows into it would undo the retention.
      FENRIR_LOG(Warn).field("cache", cache_path)
              .field("base_row", seg_cache->base_row())
          << "segment cache retains only a suffix; analyze needs the "
             "full history — recomputing without the cache";
      seg_cache.reset();
      usable = false;
    } else if (usable && seg_cache->policy() != cfg.policy) {
      FENRIR_LOG(Warn).field("cache", cache_path)
          << "segment cache was built under another unknown policy; "
             "recomputing without the cache";
      seg_cache.reset();
      usable = false;
    }
    if (usable) {
      io::SegmentStore::Loaded loaded = seg_cache->load(&data);
      cached = std::move(loaded.matrix);
      cached->append_batch(
          std::span(data.series).subspan(loaded.processed));
      FENRIR_LOG(Info).field("cache", cache_path)
              .field("cached_rows", loaded.processed)
              .field("appended", data.series.size() - loaded.processed)
          << "analyze: segment cache hit";
    }
  }

  const core::AnalysisResult result =
      cached.has_value() ? core::analyze(data, cfg, std::move(*cached))
                         : core::analyze(data, cfg);
  if (seg_cache.has_value()) {
    // O(new rows): only the observations the store has not seen are
    // spilled; the sealed history is never rewritten.
    for (std::size_t t = static_cast<std::size_t>(seg_cache->processed());
         t < data.series.size(); ++t) {
      seg_cache->spill_row(data.series[t], result.matrix, t);
    }
    seg_cache->flush();
  }
  core::print_report(data, result, std::cout);

  if (args.has("--ascii")) {
    std::cout << "\n" << core::heatmap_ascii(result.matrix, 72);
  }
  if (const auto path = args.get("--heatmap", ""); !path.empty()) {
    core::heatmap_image(result.matrix).write_pgm_file(path);
    std::cout << "wrote " << path << "\n";
  }
  if (const auto path = args.get("--mode-strip", ""); !path.empty()) {
    core::mode_strip_image(result.clustering).write_ppm_file(path);
    std::cout << "wrote " << path << "\n";
  }
  if (const auto path = args.get("--heatmap-csv", ""); !path.empty()) {
    std::ofstream out(path);
    core::write_heatmap_csv(result.matrix, data, out);
    std::cout << "wrote " << path << "\n";
  }
  if (const auto path = args.get("--stack", ""); !path.empty()) {
    std::ofstream out(path);
    core::StackSeries::compute(data).write_csv(out);
    std::cout << "wrote " << path << "\n";
  }
  return 0;
}

int cmd_info(const Args& args) {
  if (args.positional.size() != 1) return usage();
  const core::Dataset data = core::load_dataset_file(args.positional[0]);
  std::cout << "name:      " << data.name << "\n";
  std::cout << "networks:  " << data.networks.size() << "\n";
  std::cout << "sites:     " << data.sites.real_site_count();
  for (core::SiteId s = core::kFirstRealSite; s < data.sites.size(); ++s) {
    std::cout << (s == core::kFirstRealSite ? "  (" : ", ")
              << data.sites.name(s);
  }
  if (data.sites.real_site_count() > 0) std::cout << ")";
  std::cout << "\n";
  std::size_t invalid = 0;
  double known_sum = 0;
  for (const auto& v : data.series) {
    invalid += !v.valid;
    if (v.valid) known_sum += core::known_fraction(v);
  }
  std::cout << "series:    " << data.series.size() << " observations";
  if (!data.series.empty()) {
    std::cout << ", " << core::format_time(data.series.front().time) << " .. "
              << core::format_time(data.series.back().time);
  }
  std::cout << "\n";
  std::cout << "outages:   " << invalid << "\n";
  if (data.series.size() > invalid) {
    std::cout << "known:     "
              << io::fixed(100.0 * known_sum /
                               static_cast<double>(data.series.size() - invalid),
                           1)
              << "% of networks per valid observation (mean)\n";
  }
  std::cout << "weights:   "
            << (data.weights.empty() ? "uniform" : "per-network") << "\n";
  return 0;
}

int cmd_watch(const Args& args) {
  if (args.positional.size() != 1) return usage();
  core::Dataset data = core::load_dataset_file(args.positional[0]);
  core::ModeBook::Config cfg;
  cfg.match_threshold = std::stod(args.get("--threshold", "0.85"));
  if (args.has("--pessimistic")) {
    cfg.policy = core::UnknownPolicy::kPessimistic;
  }
  cfg.adapt_representative = args.has("--adapt");
  core::ModeBook book(cfg, data.weights);
  obs::event_bus().emit(
      obs::Severity::kInfo, "watch_started",
      "\"dataset\":\"" + obs::json_escape(data.name) +
          "\",\"observations\":" + std::to_string(data.series.size()));

  // A stateful watch (--store) also maintains the Φ matrix and spills
  // each row to the segment store as it goes — resuming then mmaps the
  // sealed history instead of paying the O(T²·N) rebuild. A plain watch
  // stays matrix-free; its output and cost are untouched by any of this.
  std::size_t start = 0;
  // base maps between global observation indices (the loop's i) and
  // local matrix rows: the store's retention may have retired the
  // oldest rows, so the loaded matrix starts at global row `base`.
  std::size_t base = 0;
  std::optional<io::SegmentStore> store;
  std::optional<core::SimilarityMatrix> matrix;
  if (const std::string store_dir = args.get("--store", "");
      !store_dir.empty()) {
    store.emplace(store_dir, segment_config(args));
    store->attach(&data);
    if (store->processed() == 0) {
      // A fresh store inherits the session's policy now so load() below
      // (and every future resume check) sees the right one.
      store->configure(cfg.policy, data.weights);
    }
    if (store->policy() != cfg.policy) {
      throw core::DatasetIoError(
          "segment store " + store_dir + " was built under the " +
          (store->policy() == core::UnknownPolicy::kKnownOnly
               ? "known-only"
               : "pessimistic") +
          " unknown policy; rerun with matching flags or point --store "
          "at a fresh directory");
    }
    io::SegmentStore::Loaded loaded = store->load(&data);
    base = static_cast<std::size_t>(loaded.base_row);
    start = static_cast<std::size_t>(loaded.processed);
    matrix = std::move(loaded.matrix);
    if (loaded.has_modebook) {
      // The book's history holds one entry per valid observation before
      // start: their times give each mode's last sighting back.
      std::vector<core::TimePoint> seen;
      for (std::size_t i = 0; i < std::min(start, data.series.size()); ++i) {
        if (data.series[i].valid) seen.push_back(data.series[i].time);
      }
      try {
        book.restore(std::move(loaded.representatives),
                     std::move(loaded.history), seen);
      } catch (const std::invalid_argument& e) {
        throw core::DatasetIoError(std::string("segment store: ") +
                                   e.what());
      }
    }
    if (start > 0) {
      static obs::Counter& resumes = obs::registry().counter(
          "fenrir_watch_resumes_total", "watch sessions resumed from state");
      resumes.inc();
      obs::event_bus().emit(
          obs::Severity::kNotice, "watch_resumed",
          "\"processed\":" + std::to_string(start) +
              ",\"modes\":" + std::to_string(book.mode_count()));
      std::cout << "resumed: " << start
                << " observations already processed, " << book.mode_count()
                << " known modes\n";
    }
  }

  // --journal FILE: one JSONL entry per observation, flushed as it is
  // written (obs/journal.h). A fresh watch truncates; a resumed one
  // appends, continuing the existing record. A stateful watch killed
  // between periodic flushes (or before the first) leaves journal and
  // lineage lines for sweeps past the store's durable rows, which this
  // session processes again: both logs are first cut back to the lines
  // before the first unprocessed sweep's time (keeping durable sweeps
  // that share it).
  const std::string journal_path = args.get("--journal", "");
  if (store.has_value() && start < data.series.size()) {
    const core::TimePoint from = data.series[start].time;
    std::size_t durable_at_from = 0, durable_verdicts_at_from = 0;
    for (std::size_t i = start; i-- > 0 && data.series[i].time == from;) {
      ++durable_at_from;
      durable_verdicts_at_from += data.series[i].valid;  // outages record none
    }
    if (!journal_path.empty()) {
      obs::cut_journal(journal_path, from, durable_at_from);
    }
    obs::lineage().cut_log(from, durable_verdicts_at_from);
  }
  obs::Journal journal;
  if (!journal_path.empty()) journal.open(journal_path, /*truncate=*/start == 0);

  for (std::size_t i = start; i < data.series.size(); ++i) {
    const core::RoutingVector& v = data.series[i];
    if (matrix.has_value()) matrix->append(v);
    // A stateful watch's lineage records carry the anchor chain the
    // matrix just used for this row (how the Φ plane ingested the same
    // observation the book is about to judge).
    if (matrix.has_value() && obs::lineage().enabled()) {
      std::vector<std::size_t> chain = matrix->anchor_chain(i - base);
      for (std::size_t& c : chain) c += base;  // records stay global
      obs::lineage().set_anchor_context(chain);
    }
    const auto match = book.observe(v);
    obs::lineage().clear_context();  // outage rows never consume it
    // Spill-as-you-go: the row is queued now and its record written by
    // the next periodic flush, at the end of every 64th sweep.
    if (store.has_value()) store->spill(v, *matrix);
    std::cout << core::format_time(v.time) << "  mode " << match.mode
              << "  phi " << io::fixed(match.phi, 3);
    if (!v.valid) {
      std::cout << "  (outage)";
    } else if (match.is_new) {
      std::cout << "  NEW MODE";
    } else if (match.is_recurrence) {
      std::cout << "  RECURRENCE";
    }
    std::cout << "\n";
    if (journal.is_open()) {
      std::ostringstream os;
      os << "{\"type\":\"watch\",\"time\":" << v.time
         << ",\"mode\":" << match.mode
         << ",\"phi\":" << obs::render_double(match.phi)
         << ",\"valid\":" << (v.valid ? "true" : "false")
         << ",\"is_new\":" << (match.is_new ? "true" : "false")
         << ",\"is_recurrence\":" << (match.is_recurrence ? "true" : "false")
         << "}";
      journal.append(os.str());
    }
    obs::status_board().publish("modebook", book.status_json());
    // One windowed-metrics snapshot per observation, rate-limited
    // inside — the watch loop is /metrics/history's sampling cadence.
    obs::metrics_history().sample(false);
    // The save interval (O(rows since last flush)) comes last, after the
    // sweep's verdict and journal line: a kill inside the flush leaves
    // the sweep reported, and the resume starts after its durable rows.
    // Every flush carries the book, so a kill between flushes resumes
    // with the modes of the rows it made durable.
    if (store.has_value() && (i + 1 - start) % 64 == 0) store->flush(&book);
    chaos::maybe_kill_at("watch_sweep");  // "@N" dies after this run's Nth
  }
  std::cout << book.mode_count() << " modes over " << book.history().size()
            << " observations\n";
  // Publish once even when every observation was already processed, so
  // /status has a modebook fragment under --serve.
  obs::status_board().publish("modebook", book.status_json());
  obs::event_bus().emit(
      obs::Severity::kInfo, "watch_finished",
      "\"modes\":" + std::to_string(book.mode_count()) +
          ",\"observations\":" + std::to_string(book.history().size()));
  // Force a final snapshot so even a short run leaves /metrics/history
  // non-empty under --serve.
  obs::metrics_history().sample(true);
  if (store.has_value()) store->flush(&book);
  return 0;
}

/// Pulls the numeric or bare-literal value of "key": out of a flat JSON
/// object line — enough for the journal's own writer-side format, not a
/// general parser.
std::string json_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto at = line.find(needle);
  if (at == std::string::npos) return "";
  std::size_t from = at + needle.size();
  std::size_t to = from;
  if (to < line.size() && line[to] == '"') {
    ++from;
    to = line.find('"', from);
    return to == std::string::npos ? "" : line.substr(from, to - from);
  }
  while (to < line.size() && line[to] != ',' && line[to] != '}') ++to;
  return line.substr(from, to - from);
}

int cmd_journal(const Args& args) {
  if (args.positional.size() != 1) return usage();
  std::vector<std::string> lines;
  try {
    lines = obs::read_journal(args.positional[0]);
  } catch (const obs::JournalError& e) {
    // Unreadable or corrupt journal files sit in the same taxonomy slot
    // as malformed datasets: exit code 3.
    throw core::DatasetIoError(e.what());
  }

  io::TextTable table;
  table.header({"sweep", "answered", "retried-out", "broken", "unrouted",
                "retries", "coverage", "valid"});
  std::size_t sweeps = 0, breakers = 0, watches = 0, other = 0;
  for (const std::string& line : lines) {
    const std::string type = json_field(line, "type");
    if (type == "sweep") {
      ++sweeps;
      table.row(json_field(line, "sweep"), json_field(line, "answered"),
                json_field(line, "retried_out"), json_field(line, "broken"),
                json_field(line, "unrouted"), json_field(line, "retries"),
                json_field(line, "coverage"), json_field(line, "valid"));
    } else if (type == "breaker") {
      ++breakers;
    } else if (type == "watch") {
      ++watches;
    } else {
      ++other;
    }
  }
  if (sweeps > 0) table.print(std::cout);
  std::cout << lines.size() << " journal entries: " << sweeps << " sweeps, "
            << breakers << " breaker transitions, " << watches
            << " watch observations";
  if (other > 0) std::cout << ", " << other << " other";
  std::cout << "\n";
  return 0;
}

/// Splits the "events":[...] array of an /events response into its
/// top-level JSON objects. Tracks string/escape state so braces inside
/// field values (dataset names, error strings) cannot derail it.
std::vector<std::string> extract_event_objects(const std::string& body) {
  std::vector<std::string> out;
  const auto at = body.find("\"events\":[");
  if (at == std::string::npos) return out;
  int depth = 0;
  bool in_string = false, escaped = false;
  std::size_t start = 0;
  for (std::size_t i = at + 10; i < body.size(); ++i) {
    const char c = body[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth++ == 0) start = i;
    } else if (c == '}') {
      if (--depth == 0) out.push_back(body.substr(start, i - start + 1));
    } else if (c == ']' && depth == 0) {
      break;
    }
  }
  return out;
}

/// One tail line per event: seq, wall time, severity, type, then the
/// event's own fields verbatim (everything after the envelope keys).
void print_event_line(const std::string& object) {
  const std::string ts = json_field(object, "ts");
  std::string when = "-";
  try {
    when = core::format_time(
        static_cast<core::TimePoint>(std::stod(ts)));
  } catch (const std::exception&) {
  }
  std::string severity = json_field(object, "severity");
  severity.resize(6, ' ');  // "notice" is the widest level
  std::ostringstream os;
  os << json_field(object, "seq") << "  " << when << "  " << severity << "  "
     << json_field(object, "type");
  // The fields fragment starts after the closing quote of "type":"...".
  const auto type_at = object.find("\"type\":\"");
  if (type_at != std::string::npos) {
    const auto end = object.find('"', type_at + 8);
    if (end != std::string::npos && end + 1 < object.size() &&
        object[end + 1] == ',') {
      os << "  "
         << object.substr(end + 2, object.size() - end - 3);  // strip final }
    }
  }
  std::cout << os.str() << "\n";
}

/// Replay mode: summarize an --events-out JSONL file. Corrupt interior
/// lines are exit code 3, same taxonomy as `fenrirctl journal`.
int events_replay(const std::string& path) {
  std::vector<std::string> lines;
  try {
    lines = obs::read_journal(path);
  } catch (const obs::JournalError& e) {
    throw core::DatasetIoError(e.what());
  }
  // Count per (type, severity); map keeps the table deterministic.
  std::map<std::pair<std::string, std::string>,
           std::pair<std::size_t, std::size_t>>
      by_kind;  // -> {events, suppressed}
  std::size_t suppressed_total = 0;
  for (const std::string& line : lines) {
    auto& slot = by_kind[{json_field(line, "type"),
                          json_field(line, "severity")}];
    ++slot.first;
    if (const std::string s = json_field(line, "suppressed"); !s.empty()) {
      const auto n = std::stoul(s);
      slot.second += n;
      suppressed_total += n;
    }
  }
  if (!by_kind.empty()) {
    io::TextTable table;
    table.header({"type", "severity", "events", "suppressed"});
    for (const auto& [kind, counts] : by_kind) {
      table.row(kind.first, kind.second, counts.first, counts.second);
    }
    table.print(std::cout);
  }
  std::cout << lines.size() << " events";
  if (suppressed_total > 0) {
    std::cout << " (+" << suppressed_total << " suppressed by dedup)";
  }
  std::cout << "\n";
  return 0;
}

/// Tail mode: GET /events from a live status server, optionally
/// long-polling with --follow until SIGINT or the server goes away.
int events_tail(const Args& args) {
  long port = -1;
  try {
    port = std::stol(args.get("--port", ""));
  } catch (const std::exception&) {
  }
  if (port < 0 || port > 65535) {
    std::cerr << "fenrirctl: events tail needs --port N\n";
    return 2;
  }
  std::uint64_t since = 0;
  if (const auto s = args.get("--since", ""); !s.empty()) {
    since = std::stoull(s);
  }
  const std::string type = args.get("--type", "");
  const std::string severity = args.get("--severity", "");
  if (!severity.empty() && !obs::parse_severity(severity)) {
    std::cerr << "fenrirctl: bad --severity '" << severity
              << "' (want debug|info|notice|warn|alert)\n";
    return 2;
  }
  // --retries N: consecutive failed fetches tolerated before giving up.
  // A status server restarting mid-tail (or not yet listening) should
  // cost a few backed-off retries, not an instant exit — but the retry
  // must be bounded and the final diagnostic must say what was tried.
  long retries = 5;
  if (const auto r = args.get("--retries", ""); !r.empty()) {
    try {
      retries = std::stol(r);
    } catch (const std::exception&) {
      retries = 0;
    }
    if (retries < 1) {
      std::cerr << "fenrirctl: bad --retries '" << r
                << "' (want a positive attempt count)\n";
      return 2;
    }
  }
  const bool follow = args.has("--follow");
  if (follow) {
    std::signal(SIGINT, handle_shutdown_signal);
    std::signal(SIGTERM, handle_shutdown_signal);
  }

  bool connected = false;
  long failures = 0;
  while (!g_shutdown.load()) {
    std::string target = "/events?since=" + std::to_string(since);
    if (!type.empty()) target += "&type=" + type;
    if (!severity.empty()) target += "&severity=" + severity;
    // Long-poll only once we are caught up; the first fetch drains the
    // backlog immediately.
    if (follow && connected) target += "&wait_ms=20000";
    const auto response =
        obs::http_get(static_cast<std::uint16_t>(port), target, 25000);
    if (!response) {
      ++failures;
      if (failures >= retries) {
        if (connected) {
          std::cout << "server on port " << port << " went away (gave up after "
                    << failures << (failures == 1 ? " attempt" : " attempts")
                    << ")\n";
          return 0;
        }
        std::cerr << "fenrirctl: no status server on 127.0.0.1:" << port
                  << " after " << failures
                  << (failures == 1 ? " attempt" : " attempts")
                  << "; is the producer running with --status-port " << port
                  << "? (--retries raises the limit)\n";
        return 1;
      }
      // Exponential backoff between attempts: 250ms doubling, capped at
      // 4s — a restarting server gets a window, a dead one costs ~8s at
      // the default 5 attempts.
      const long shift = failures - 1 < 10 ? failures - 1 : 10;
      const long delay_ms = std::min(4000L, 250L << shift);
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      continue;
    }
    if (response->status != 200) {
      std::cerr << "fenrirctl: /events answered HTTP " << response->status
                << ": " << response->body;
      return 1;
    }
    connected = true;
    failures = 0;
    for (const std::string& object : extract_event_objects(response->body)) {
      print_event_line(object);
      try {
        since = std::max(
            since,
            static_cast<std::uint64_t>(std::stoull(json_field(object, "seq"))));
      } catch (const std::exception&) {
      }
    }
    if (const std::string last = json_field(response->body, "last_seq");
        !last.empty()) {
      since = std::max(since, static_cast<std::uint64_t>(std::stoull(last)));
    }
    if (!follow) break;
  }
  return 0;
}

int cmd_events(const Args& args) {
  if (args.positional.size() == 1) return events_replay(args.positional[0]);
  if (args.positional.empty() && args.has("--port")) return events_tail(args);
  return usage();
}

std::size_t parse_count(const Args& args, const std::string& flag,
                        std::size_t fallback, std::size_t lo, std::size_t hi) {
  const std::string text = args.get(flag, "");
  if (text.empty()) return fallback;
  std::size_t value = 0;
  try {
    value = std::stoul(text);
  } catch (const std::exception&) {
    throw std::runtime_error("bad " + flag + " '" + text + "' (want a count)");
  }
  if (value < lo || value > hi) {
    throw std::runtime_error(flag + " must be in [" + std::to_string(lo) +
                             ", " + std::to_string(hi) + "]");
  }
  return value;
}

/// A synthetic federated campaign over the demo world: N member probers
/// with skewed clocks and overlapping slices of the hitlist merge into
/// one dataset through measure::Federation. The timeline carries a
/// drain (epochs 3-4, like the demo's day 15-21) and the last member
/// goes fully dark for epochs 2-4 — long enough to be declared dead and
/// for its answers to age out — then rejoins. --kill-member/--kill-epoch
/// add a one-shot process kill, and --checkpoint makes that kill
/// resumable to a byte-identical dataset.
int cmd_federate(const Args& args) {
  if (args.positional.size() != 1) return usage();
  const std::size_t member_count = parse_count(args, "--members", 3, 2, 64);
  const std::size_t epochs = parse_count(args, "--epochs", 8, 1, 512);
  const std::size_t overlap = parse_count(args, "--overlap", 2, 0, 1024);
  const bool has_kill = args.has("--kill-member") || args.has("--kill-epoch");
  std::size_t kill_member = 0, kill_epoch = 0;
  if (has_kill) {
    if (!args.has("--kill-member") || !args.has("--kill-epoch")) {
      throw std::runtime_error(
          "--kill-member and --kill-epoch must be given together");
    }
    kill_member =
        parse_count(args, "--kill-member", 0, 0, member_count - 1);
    kill_epoch = parse_count(args, "--kill-epoch", 0, 0, 1 << 20);
  }

  // The demo world, with the drain expressed as a second routing table
  // the prober switches to inside the drain window.
  scenarios::WorldConfig wc;
  wc.topo.stub_count = 400;
  wc.topo.seed = 77;
  scenarios::World world = scenarios::make_world(wc);
  bgp::AnycastService service(*netbase::Prefix::parse("192.0.2.0/24"));
  service.add_site(0, world.topo.stubs[5]);
  service.add_site(1, world.topo.stubs[200]);
  service.add_site(2, world.topo.stubs[395]);
  netbase::Hitlist hitlist(world.topo.blocks, 3);
  measure::VerfploeterConfig vc;
  vc.seed = 3;
  const measure::VerfploeterProbe probe(&hitlist, vc);

  core::Dataset data;
  data.name = "fenrirctl federate";
  for (std::size_t i = 0; i < hitlist.size(); ++i) {
    data.networks.intern(hitlist.block(i));
  }
  const auto site_map =
      scenarios::make_site_mapping(data.sites, {"alpha", "beta", "gamma"});
  const bgp::RoutingTable routing_base =
      world.cache.get(world.topo.graph, service.active_origins());
  service.set_drained(1, true);
  const bgp::RoutingTable routing_drained =
      world.cache.get(world.topo.graph, service.active_origins());
  service.set_drained(1, false);

  const core::TimePoint t0 = core::from_date(2025, 1, 1);
  const core::TimePoint epoch_len = core::kHour;
  const core::TimePoint drain_from = t0 + 3 * epoch_len;
  const core::TimePoint drain_to = t0 + 5 * epoch_len;

  const std::size_t global = hitlist.size();
  std::vector<std::uint64_t> keys(global);
  for (std::size_t i = 0; i < global; ++i) keys[i] = hitlist.block(i);
  const measure::FnProber world_prober(
      std::move(keys),
      [&](std::size_t index, core::TimePoint when) {
        const bgp::RoutingTable& routing =
            (when >= drain_from && when < drain_to) ? routing_drained
                                                    : routing_base;
        const auto reply = probe.measure_one(index, when, world.topo.graph,
                                             routing, site_map);
        measure::ProbeReply out;
        out.site = reply.site;
        switch (reply.outcome) {
          case measure::VerfploeterOutcome::kAnswered:
            out.status = measure::ProbeStatus::kAnswered;
            break;
          case measure::VerfploeterOutcome::kUnrouted:
            out.status = measure::ProbeStatus::kUnrouted;
            break;
          default:
            out.status = measure::ProbeStatus::kNoReply;
        }
        return out;
      });

  // Members: contiguous slices of the hitlist, each widened by --overlap
  // on both sides, each with its own clock skew and in-epoch phase. The
  // last member carries the built-in dark window (epochs 2-4 in true
  // time, converted to its local clock — fault plans run on local time).
  static constexpr std::int64_t kOffsets[] = {0, 127, -61, 45, -203, 350};
  static constexpr std::int64_t kDrifts[] = {0, 180, -90, 40, 250, -130};
  std::vector<chaos::FaultPlan> plans;
  plans.reserve(member_count);
  std::vector<measure::MemberConfig> members(member_count);
  for (std::size_t i = 0; i < member_count; ++i) {
    measure::MemberConfig& m = members[i];
    m.name = "probe-" + std::to_string(i);
    const std::size_t lo = i * global / member_count;
    const std::size_t hi = (i + 1) * global / member_count;
    const std::size_t from = lo > overlap ? lo - overlap : 0;
    const std::size_t to = std::min(global, hi + overlap);
    for (std::size_t g = from; g < to; ++g) m.targets.push_back(g);
    m.clock.offset_seconds = kOffsets[i % 6];
    m.clock.drift_ppm = kDrifts[i % 6];
    m.start_offset =
        static_cast<core::TimePoint>(i * epoch_len / (2 * member_count));
    plans.emplace_back(chaos::FaultPlan(1000 + i));
    if (i == member_count - 1) {
      plans.back().add_loss_burst(m.clock.to_local(t0 + 2 * epoch_len),
                                  m.clock.to_local(t0 + 5 * epoch_len), 1.0);
    }
    if (has_kill && i == kill_member) {
      plans.back().add_kill(kill_epoch, 0.5);
    }
  }
  for (std::size_t i = 0; i < member_count; ++i) {
    members[i].faults = &plans[i];
  }

  measure::FederationConfig fc;
  fc.global_targets = global;
  fc.start = t0;
  fc.epoch_length = epoch_len;
  fc.staleness_bound = 2;
  fc.dead_after = 2;
  fc.coverage_floor = 0.10;
  measure::Federation fed(world_prober, fc, std::move(members));

  const std::string ckpt = args.get("--checkpoint", "");
  if (!ckpt.empty() && std::ifstream(ckpt + "/federation.csv").good()) {
    fed.load_checkpoint_dir(ckpt);
    std::cout << "resumed: " << fed.epochs_done()
              << " epochs already folded\n";
  }
  const measure::FederationResult result = fed.run(epochs);
  if (result.interrupted) {
    if (ckpt.empty()) {
      std::cerr << "fenrirctl: federation killed mid-sweep during epoch "
                << fed.epochs_done()
                << "; no --checkpoint, progress is lost\n";
    } else {
      fed.save_checkpoint_dir(ckpt);
      std::cerr << "fenrirctl: federation killed mid-sweep during epoch "
                << fed.epochs_done() << "; checkpoint saved to " << ckpt
                << " -- rerun the same command to resume\n";
    }
    return 1;
  }
  if (!ckpt.empty()) fed.save_checkpoint_dir(ckpt);

  io::TextTable table;
  table.header({"epoch", "fresh", "stale", "aged", "unserved", "disagree",
                "coverage", "floor", "valid"});
  for (const auto& r : result.reports) {
    table.row(std::to_string(r.epoch), std::to_string(r.fresh),
              std::to_string(r.stale), std::to_string(r.aged_out),
              std::to_string(r.unserved), std::to_string(r.disagreements),
              io::fixed(r.coverage(), 3), io::fixed(r.floor, 3),
              r.low_coverage ? "LOW" : "ok");
  }
  table.print(std::cout);
  for (std::size_t i = 0; i < fed.member_count(); ++i) {
    std::cout << "member " << i << " (probe-" << i << "): "
              << fed.member(i).target_count() << " targets, health "
              << measure::to_string(fed.member_health(i)) << ", weight "
              << io::fixed(fed.member_weight(i), 2) << "\n";
  }

  // Classify the merged series through a ModeBook with full decision
  // lineage: every epoch's record carries the fold's anchor chain plus
  // this epoch's provenance rollup (who served it, how stale, whether
  // members disagreed) — the federated path into the lineage plane.
  // Pure fold over the accumulated result, so a resumed run prints
  // exactly what the uninterrupted one would.
  {
    std::vector<measure::ProvenanceSummary> summaries;
    summaries.reserve(result.provenance.size());
    for (const auto& epoch : result.provenance) {
      summaries.push_back(measure::summarize_provenance(epoch));
    }
    core::ModeBook book;
    measure::fold_phi(result.series, book, summaries);
    std::cout << "classified: " << book.mode_count() << " modes over "
              << book.history().size() << " valid epochs\n";
  }

  if (const auto path = args.get("--provenance", ""); !path.empty()) {
    std::ofstream out(path);
    if (!out) {
      throw core::DatasetIoError("cannot write provenance file " + path);
    }
    out << "epoch,target,member,staleness,disagreed\n";
    for (std::size_t e = 0; e < result.provenance.size(); ++e) {
      for (std::size_t g = 0; g < result.provenance[e].size(); ++g) {
        const measure::TargetProvenance& p = result.provenance[e][g];
        out << e << ',' << g << ',';
        if (p.member == measure::kNoMember) {
          out << '-';
        } else {
          out << p.member;
        }
        out << ',' << p.staleness << ',' << (p.disagreed ? 1 : 0) << '\n';
      }
    }
    if (!out) {
      throw core::DatasetIoError("cannot write provenance file " + path);
    }
    std::cout << "wrote " << path << "\n";
  }

  data.series = result.series;
  core::save_dataset_file(data, args.positional[0]);
  std::cout << "wrote " << args.positional[0] << ": " << data.series.size()
            << " epochs x " << data.networks.size() << " networks ("
            << fed.member_count()
            << " members; drain epochs 3-4, member "
            << fed.member_count() - 1 << " dark epochs 2-4)\n";
  return 0;
}

int cmd_clean(const Args& args) {
  if (args.positional.size() != 2) return usage();
  core::Dataset data = core::load_dataset_file(args.positional[0]);
  core::InterpolateConfig icfg;
  icfg.max_distance = std::stoul(args.get("--limit", "3"));
  icfg.fill_edges = args.has("--fill-edges");
  const auto istats = core::interpolate_missing(data, icfg);
  core::CleaningStats mstats;
  if (const auto micro = args.get("--micro", ""); !micro.empty()) {
    mstats = core::remove_micro_catchments(data, std::stod(micro));
  }
  core::save_dataset_file(data, args.positional[1]);
  std::cout << "filled " << istats.gaps_filled << " gaps, folded "
            << mstats.micro_sites_folded << " micro-catchments; wrote "
            << args.positional[1] << "\n";
  return 0;
}

int cmd_compare(const Args& args) {
  if (args.positional.size() != 3) return usage();
  const core::Dataset data = core::load_dataset_file(args.positional[0]);
  const std::size_t i =
      observation_at(data, parse_time_or_throw(args.positional[1]));
  const std::size_t j =
      observation_at(data, parse_time_or_throw(args.positional[2]));
  const auto phi = [&](core::UnknownPolicy p) {
    return data.weights.empty()
               ? core::gower_similarity(data.series[i], data.series[j], p)
               : core::gower_similarity(data.series[i], data.series[j],
                                        data.weights, p);
  };
  std::cout << "phi(" << core::format_time(data.series[i].time) << ", "
            << core::format_time(data.series[j].time) << "):\n"
            << "  pessimistic "
            << io::fixed(phi(core::UnknownPolicy::kPessimistic), 4)
            << "\n  known-only  "
            << io::fixed(phi(core::UnknownPolicy::kKnownOnly), 4) << "\n";
  return 0;
}

int cmd_transitions(const Args& args) {
  if (args.positional.size() != 3) return usage();
  const core::Dataset data = core::load_dataset_file(args.positional[0]);
  const std::size_t i =
      observation_at(data, parse_time_or_throw(args.positional[1]));
  const std::size_t j =
      observation_at(data, parse_time_or_throw(args.positional[2]));
  const auto t = core::TransitionMatrix::compute(
      data.series[i], data.series[j], data.sites.size());
  std::cout << "transitions " << core::format_time(data.series[i].time)
            << " -> " << core::format_time(data.series[j].time) << ":\n";
  t.print(data.sites, std::cout);
  std::cout << "stayed " << t.stayed() << ", moved " << t.moved() << "\n";
  return 0;
}

/// One human-readable explanation block for a decision record: the
/// verdict, the candidate Φ ranking, the per-category counts, the
/// anchor chain, and (when federated) the provenance.
void print_decision(const obs::DecisionRecord& r) {
  std::cout << "  "
            << core::format_time(static_cast<core::TimePoint>(r.obs_time))
            << "  " << obs::verdict_name(r.verdict) << "  mode " << r.mode
            << "  phi " << io::fixed(r.phi, 3);
  if (r.gap_seconds >= 0) std::cout << "  gap " << r.gap_seconds << "s";
  std::cout << "\n";
  std::cout << "    counts: " << r.matches << " match / " << r.mismatches
            << " mismatch / " << r.unknown << " unknown of " << r.networks
            << " networks; scanned " << r.scanned << " representatives\n";
  if (r.top_count > 0) {
    std::cout << "    candidates:";
    for (std::uint32_t k = 0; k < r.top_count; ++k) {
      std::cout << (k ? ", " : " ") << "mode " << r.top[k].mode << " phi "
                << io::fixed(r.top[k].phi, 3);
    }
    if (r.top_count >= 2) {
      std::cout << " (margin " << io::fixed(r.top[0].phi - r.top[1].phi, 3)
                << ")";
    }
    std::cout << "\n";
  }
  if (r.has_anchor_info) {
    std::cout << "    anchors:";
    if (r.anchor_count == 0) {
      std::cout << " none (novel row; paid the packed kernels)";
    } else {
      for (std::uint32_t k = 0; k < r.anchor_count; ++k) {
        std::cout << (k ? " <- row " : " row ") << r.anchor_chain[k];
      }
    }
    std::cout << "\n";
  }
  if (r.federated) {
    std::cout << "    served by ";
    if (r.member == obs::kLineageNoMember) {
      std::cout << "no member";
    } else {
      std::cout << "member " << r.member;
    }
    std::cout << ", staleness " << r.staleness << ", disagreements "
              << r.disagreements << "\n";
  }
}

/// The offline `explain` body: aggregates plus recent records for one
/// mode out of a replayed store. Returns the process exit code.
int print_explanation(const obs::LineageStore& store, std::uint64_t mode) {
  const auto agg = store.mode_lineage(mode);
  if (!agg) {
    std::cout << "mode " << mode
              << " has no lineage (never a verdict in this log)\n";
    return 1;
  }
  std::cout << "mode " << mode << ": " << agg->visits << " visits, "
            << agg->recurrences << " recurrences, first seen "
            << core::format_time(static_cast<core::TimePoint>(agg->first_seen))
            << ", last seen "
            << core::format_time(static_cast<core::TimePoint>(agg->last_seen))
            << " (phi " << io::fixed(agg->last_phi, 3) << ")\n";
  std::cout << "runner-up in " << agg->runner_up << " other verdicts";
  if (agg->closest_confused != obs::kLineageNoMember) {
    std::cout << "; closest confused with mode " << agg->closest_confused
              << " (chased " << agg->closest_confused_count
              << (agg->closest_confused_count == 1 ? " time" : " times")
              << ")";
  }
  std::cout << "\n";
  bool any_gap = false;
  for (const auto count : agg->gap_buckets) any_gap = any_gap || count > 0;
  if (any_gap) {
    static constexpr const char* kGapNames[] = {
        "<=1h", "<=6h", "<=1d", "<=3d", "<=1w", "<=30d", "<=180d", ">180d"};
    std::cout << "recurrence gaps:";
    for (std::size_t b = 0; b < agg->gap_buckets.size(); ++b) {
      if (agg->gap_buckets[b] > 0) {
        std::cout << " " << kGapNames[b] << ":" << agg->gap_buckets[b];
      }
    }
    std::cout << "\n";
  }
  const auto records = store.since(0, mode, std::nullopt, 0);
  const std::size_t keep = std::min<std::size_t>(records.size(), 8);
  std::cout << "recent decisions (" << keep << " of " << records.size()
            << " retained):\n";
  for (std::size_t i = records.size() - keep; i < records.size(); ++i) {
    print_decision(records[i]);
  }
  return 0;
}

int cmd_explain(const Args& args) {
  if (args.positional.size() != 1) return usage();
  const auto mode = obs::parse_u64(args.positional[0]);
  if (!mode) {
    std::cerr << "fenrirctl: explain wants a mode id, got '"
              << args.positional[0] << "'\n";
    return 2;
  }
  // Live path: ask a running server's /explain endpoint and print the
  // JSON verbatim (scripts parse it; the offline path is the prose one).
  if (args.has("--port")) {
    long port = -1;
    try {
      port = std::stol(args.get("--port", ""));
    } catch (const std::exception&) {
    }
    if (port < 0 || port > 65535) {
      std::cerr << "fenrirctl: explain needs a valid --port N\n";
      return 2;
    }
    const auto response =
        obs::http_get(static_cast<std::uint16_t>(port),
                      "/explain/" + std::to_string(*mode), 5000);
    if (!response) {
      std::cerr << "fenrirctl: no status server on 127.0.0.1:" << port
                << "\n";
      return 1;
    }
    if (response->status != 200) {
      std::cerr << "fenrirctl: /explain answered HTTP " << response->status
                << ": " << response->body;
      return 1;
    }
    std::cout << response->body;
    return 0;
  }
  const std::string path = args.get("--lineage", "");
  if (path.empty()) {
    std::cerr << "fenrirctl: explain needs --lineage FILE.jsonl or "
                 "--port N\n";
    return 2;
  }
  std::vector<std::string> lines;
  try {
    lines = obs::read_journal(path);
  } catch (const obs::JournalError& e) {
    throw core::DatasetIoError(e.what());
  }
  // Replay into a private store: the global one may have a log attached
  // (main's --lineage wiring is skipped for read-only commands, but a
  // private store also keeps ids aligned with the log's own).
  obs::LineageStore store(obs::LineageStore::Config{65536});
  std::size_t skipped = 0;
  for (const std::string& line : lines) {
    if (const auto record = obs::parse_record_json(line)) {
      store.record(*record);
    } else {
      ++skipped;
    }
  }
  if (skipped > 0) {
    std::cerr << "fenrirctl: skipped " << skipped << " non-lineage "
              << (skipped == 1 ? "line" : "lines") << " in " << path << "\n";
  }
  return print_explanation(store, *mode);
}

int cmd_lineage(const Args& args) {
  if (args.positional.size() != 2 || args.positional[0] != "replay") {
    return usage();
  }
  std::vector<std::string> lines;
  try {
    lines = obs::read_journal(args.positional[1]);
  } catch (const obs::JournalError& e) {
    throw core::DatasetIoError(e.what());
  }
  // verdict index -> count, plus per-mode rows; maps keep the table
  // deterministic.
  std::array<std::uint64_t, 3> verdicts{};
  std::map<std::uint64_t, std::array<std::uint64_t, 3>> by_mode;
  std::size_t federated = 0, skipped = 0;
  for (const std::string& line : lines) {
    const auto record = obs::parse_record_json(line);
    if (!record) {
      ++skipped;
      continue;
    }
    const auto v = static_cast<std::size_t>(record->verdict);
    ++verdicts[v];
    ++by_mode[record->mode][v];
    federated += record->federated ? 1 : 0;
  }
  if (!by_mode.empty()) {
    io::TextTable table;
    table.header({"mode", "new", "recurrences", "repeats", "total"});
    for (const auto& [mode, counts] : by_mode) {
      table.row(std::to_string(mode), std::to_string(counts[0]),
                std::to_string(counts[1]), std::to_string(counts[2]),
                std::to_string(counts[0] + counts[1] + counts[2]));
    }
    table.print(std::cout);
  }
  std::cout << (lines.size() - skipped) << " decisions: " << verdicts[0]
            << " new modes, " << verdicts[1] << " recurrences, "
            << verdicts[2] << " repeats";
  if (federated > 0) std::cout << " (" << federated << " federated)";
  if (skipped > 0) std::cout << "; " << skipped << " non-lineage lines";
  std::cout << "\n";
  return 0;
}

const char* blackbox_kind_name(obs::FlightRecorder::Kind kind) {
  switch (kind) {
    case obs::FlightRecorder::Kind::kDecision: return "decision";
    case obs::FlightRecorder::Kind::kEvent: return "event";
    case obs::FlightRecorder::Kind::kMetrics: return "metrics";
  }
  return "?";
}

int cmd_blackbox(const Args& args) {
  if (args.positional.size() != 2 || args.positional[0] != "dump") {
    return usage();
  }
  obs::FlightRecorder::DumpReport report;
  try {
    report = obs::FlightRecorder::dump(args.positional[1]);
  } catch (const obs::FlightRecorderError& e) {
    // Same taxonomy slot as corrupt stores and journals: exit 3.
    throw core::DatasetIoError(e.what());
  }
  std::cout << "blackbox " << args.positional[1] << ": ";
  if (report.sealed) {
    std::cout << "sealed (" << report.seal_reason << ")";
  } else {
    std::cout << "UNSEALED (died without a handler -- SIGKILL or power "
                 "loss)";
  }
  std::cout << ", " << report.written_total << " entries written, "
            << report.entries.size() << " recovered";
  if (report.torn_slots > 0) std::cout << ", " << report.torn_slots << " torn";
  std::cout << "\n";
  for (const auto& entry : report.entries) {
    std::cout << "  seq " << entry.seq << "  " << blackbox_kind_name(entry.kind)
              << "  " << entry.payload << "\n";
  }
  return 0;
}

int cmd_segment(const Args& args) {
  if (args.positional.size() < 2) return usage();
  const std::string& sub = args.positional[0];
  const io::SegmentStoreConfig cfg = segment_config(args);

  if (sub == "ls") {
    if (args.positional.size() != 2) return usage();
    const std::string& dir = args.positional[1];
    if (!io::SegmentStore::looks_like_store(dir)) {
      throw core::DatasetIoError(dir +
                                 " is not a segment store (no MANIFEST)");
    }
    const io::SegmentStore store(dir, cfg);
    const std::vector<io::SegmentInfo> segments = store.segments();
    std::cout << "window:    [" << store.base_row() << ", "
              << store.processed() << ")  "
              << (store.processed() - store.base_row())
              << " observations retained\n";
    std::cout << "segments:  " << segments.size() << " sealed ("
              << store.cold_bytes() << " cold bytes), tail "
              << store.tail_rows() << " rows\n";
    for (const io::SegmentInfo& s : segments) {
      std::cout << "  seg-" << s.id << "  rows [" << s.base_row << ", "
                << s.base_row + s.rows << ")  width " << s.bits << " bits  "
                << io::kSegmentHeaderBytes + s.payload_bytes << " bytes  "
                << core::format_time(s.min_time) << " .. "
                << core::format_time(s.max_time) << "\n";
    }
    return 0;
  }

  if (sub == "verify") {
    if (args.positional.size() != 2) return usage();
    const std::string& dir = args.positional[1];
    if (!io::SegmentStore::looks_like_store(dir)) {
      throw core::DatasetIoError(dir +
                                 " is not a segment store (no MANIFEST)");
    }
    const io::SegmentStore store(dir, cfg);
    std::string error;
    if (!store.verify(&error)) {
      throw core::DatasetIoError("segment store " + dir + ": " + error);
    }
    std::cout << "ok: " << store.segments().size() << " sealed segments, "
              << store.tail_rows() << " tail rows, "
              << (store.processed() - store.base_row())
              << " observations retained\n";
    return 0;
  }

  return usage();
}

}  // namespace

int dispatch(const std::string& cmd, const Args& args) {
  if (cmd == "demo") return cmd_demo(args);
  if (cmd == "info") return cmd_info(args);
  if (cmd == "analyze") return cmd_analyze(args);
  if (cmd == "watch") return cmd_watch(args);
  if (cmd == "clean") return cmd_clean(args);
  if (cmd == "compare") return cmd_compare(args);
  if (cmd == "transitions") return cmd_transitions(args);
  if (cmd == "journal") return cmd_journal(args);
  if (cmd == "events") return cmd_events(args);
  if (cmd == "federate") return cmd_federate(args);
  if (cmd == "explain") return cmd_explain(args);
  if (cmd == "lineage") return cmd_lineage(args);
  if (cmd == "blackbox") return cmd_blackbox(args);
  if (cmd == "segment") return cmd_segment(args);
  return usage();
}

/// Ensures the well-known Fenrir metrics exist (at zero) even when this
/// command never reached their code path, so --metrics always writes the
/// complete catalog. Names mirror the instrumentation sites (grep the
/// name to find the site); re-registration there is idempotent and
/// supplies the help text.
void register_metric_catalog() {
  auto& r = obs::registry();
  for (const char* name :
       {"fenrir_analyze_runs_total", "fenrir_analyze_events_total",
        "fenrir_clean_incorrect_removed_total",
        "fenrir_clean_micro_sites_folded_total",
        "fenrir_clean_micro_assignments_folded_total",
        "fenrir_clean_gaps_filled_total", "fenrir_parallel_jobs_total",
        "fenrir_probes_sent_total", "fenrir_probes_answered_total",
        "fenrir_probes_lost_total", "fenrir_probes_unrouted_total",
        "fenrir_probes_unreachable_total", "fenrir_bgp_computations_total",
        "fenrir_bgp_routes_installed_total",
        "fenrir_bgp_worklist_pops_total", "fenrir_campaign_sweeps_total",
        "fenrir_campaign_probes_total", "fenrir_campaign_retries_total",
        "fenrir_campaign_retried_out_total",
        "fenrir_campaign_breaker_trips_total",
        "fenrir_campaign_breaker_skips_total",
        "fenrir_campaign_low_coverage_sweeps_total",
        "fenrir_campaign_quorum_disagreements_total",
        "fenrir_campaign_resumes_total",
        "fenrir_federation_epochs_total",
        "fenrir_federation_member_sweeps_total",
        "fenrir_federation_stale_served_total",
        "fenrir_federation_aged_out_total", "fenrir_federation_deaths_total",
        "fenrir_federation_rejoins_total",
        "fenrir_federation_disagreements_total",
        "fenrir_federation_low_coverage_epochs_total",
        "fenrir_federation_resumes_total", "fenrir_watch_resumes_total",
        "fenrir_status_requests_total", "fenrir_journal_lines_total",
        "fenrir_journal_write_errors_total",
        "fenrir_events_suppressed_total", "fenrir_events_overwritten_total",
        "fenrir_decision_records_total", "fenrir_decision_evictions_total",
        "fenrir_decision_flush_errors_total",
        "fenrir_health_degraded_reports_total",
        "fenrir_modebook_new_modes_total", "fenrir_modebook_recurrences_total",
        "fenrir_trace_events_dropped_total", "fenrir_phi_appends_total",
        "fenrir_phi_rows_delta_total", "fenrir_phi_rows_kernel_total",
        "fenrir_segment_sealed_total",
        "fenrir_segment_compacted_total", "fenrir_segment_retired_total",
        "fenrir_segment_mmap_bytes_total", "fenrir_segment_tail_flush_total",
        "fenrir_segment_tail_bytes_total",
        "fenrir_segment_checksum_verified_total"}) {
    r.counter(name);
  }
  for (const char* name :
       {"fenrir_analyze_observations", "fenrir_analyze_clusters",
        "fenrir_analyze_modes", "fenrir_parallel_imbalance_ratio",
        "fenrir_campaign_coverage", "fenrir_campaign_confidence",
        "fenrir_federation_coverage", "fenrir_federation_adaptive_floor",
        "fenrir_federation_members_healthy", "fenrir_federation_members_dead",
        "fenrir_phi_delta_density", "fenrir_phi_delta_speedup_ratio"}) {
    r.gauge(name);
  }
}

/// Wires the default windowed-metrics set (obs/metrics_window.h): which
/// series get EWMA rates and tail-latency quantiles is a tools-layer
/// decision, so the obs library never hardcodes other layers' metric
/// names. Sampling itself rides the pipeline cadence (watch loop,
/// campaign sweeps, analyze end).
void track_default_metric_windows() {
  auto& history = obs::metrics_history();
  history.track_histogram("fenrir_phi_append_seconds",
                          obs::Histogram::duration_bounds());
  history.track_histogram("fenrir_modebook_scan_length",
                          {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
  history.track_counter("fenrir_phi_appends_total");
  history.track_counter("fenrir_campaign_sweeps_total");
  history.track_counter("fenrir_journal_lines_total");
  history.track_counter("fenrir_status_requests_total");
  history.track_counter("fenrir_modebook_new_modes_total");
  history.track_counter("fenrir_modebook_recurrences_total");
  for (const char* severity : {"debug", "info", "notice", "warn", "alert"}) {
    history.track_counter("fenrir_events_emitted_total",
                          {{"severity", severity}});
  }
}

/// Renders the metrics registry by file extension: .csv/.json get those
/// formats, everything else Prometheus text exposition. Returns false
/// when the file cannot be written.
bool write_metrics_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "fenrirctl: cannot write metrics file " << path << "\n";
    return false;
  }
  if (path.size() >= 4 && path.substr(path.size() - 4) == ".csv") {
    obs::registry().write_csv(out);
  } else if (path.size() >= 5 && path.substr(path.size() - 5) == ".json") {
    obs::registry().write_json(out);
  } else {
    obs::registry().write_prometheus(out);
  }
  return static_cast<bool>(out);
}

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "--version" || cmd == "version") {
    std::cout << obs::build_info_string() << "\n";
    return 0;
  }
  obs::init_log_from_env();
  try {
    const Args args = parse_args(argc, argv, 2);
    if (const auto level = args.get("--log-level", ""); !level.empty()) {
      if (!obs::set_log_level(level)) {
        std::cerr << "fenrirctl: bad --log-level '" << level
                  << "' (want trace|debug|info|warn|error|off)\n";
        return 2;
      }
    }
    if (args.has("--profile")) obs::set_profiling(true);
    if (args.has("--trace-out")) obs::set_tracing(true);
    if (args.has("--metrics")) register_metric_catalog();
    obs::register_build_info_metric();
    track_default_metric_windows();

    // --events-out FILE: every detection event also lands in FILE as
    // JSONL (append mode, so a resumed run continues its record — the
    // same convention as a resumed watch's --journal). The sink stays
    // attached through --serve so events emitted while serving land
    // too; the guard detaches it on every exit path before the sink is
    // destroyed (the bus outlives this frame).
    struct EventSinkGuard {
      obs::JsonlEventSink sink;
      bool attached = false;
      ~EventSinkGuard() {
        if (attached) obs::event_bus().remove_sink(&sink);
      }
    } event_sink;
    if (const auto path = args.get("--events-out", ""); !path.empty()) {
      if (!event_sink.sink.open(path, /*truncate=*/false)) {
        std::cerr << "fenrirctl: cannot write events file " << path << "\n";
        return 3;
      }
      obs::event_bus().add_sink(&event_sink.sink);
      event_sink.attached = true;
    }

    // --lineage FILE: every ModeBook verdict appends one DecisionRecord
    // line (journal framing, append mode — the --events-out convention).
    // Read-only commands take --lineage as an INPUT path instead; they
    // must not open it for appending.
    const bool lineage_is_input =
        cmd == "explain" || cmd == "lineage" || cmd == "blackbox";
    struct LineageLogGuard {
      bool attached = false;
      ~LineageLogGuard() {
        if (attached) obs::lineage().close_log();
      }
    } lineage_log;
    if (const auto path = args.get("--lineage", "");
        !path.empty() && !lineage_is_input) {
      if (!obs::lineage().open_log(path, /*truncate=*/false)) {
        std::cerr << "fenrirctl: cannot write lineage file " << path << "\n";
        return 3;
      }
      lineage_log.attached = true;
    }

    // --blackbox FILE: the crash-safe flight recorder — last decisions
    // and events land in a preallocated mmap'd ring, sealed on clean
    // exit and on fatal signals, recoverable after ANY kill with
    // `fenrirctl blackbox dump`.
    struct BlackboxGuard {
      obs::FlightRecorder recorder;
      bool attached = false;
      ~BlackboxGuard() {
        if (!attached) return;
        obs::FlightRecorder::install_signal_handlers(nullptr);
        obs::lineage().remove_sink(&recorder);
        obs::event_bus().remove_sink(&recorder);
        recorder.note_metrics(
            "{\"decisions_total\":" + std::to_string(obs::lineage().last_id()) +
            ",\"events_total\":" + std::to_string(obs::event_bus().last_seq()) +
            "}");
        recorder.close("clean shutdown");
      }
    } blackbox;
    if (const auto path = args.get("--blackbox", "");
        !path.empty() && !lineage_is_input) {
      if (!blackbox.recorder.open(path)) {
        std::cerr << "fenrirctl: cannot create blackbox file " << path << "\n";
        return 3;
      }
      obs::lineage().add_sink(&blackbox.recorder);
      obs::event_bus().add_sink(&blackbox.recorder);
      obs::FlightRecorder::install_signal_handlers(&blackbox.recorder);
      blackbox.attached = true;
    }
    {
      const obs::BuildInfo& info = obs::build_info();
      FENRIR_LOG(Info)
              .field("version", info.version)
              .field("git_sha", info.git_sha)
              .field("build_type", info.build_type)
              .field("sanitize", info.sanitize)
          << "fenrirctl starting";
    }

    // Live introspection plane: --status-port N (or FENRIR_STATUS_PORT)
    // serves /metrics /healthz /status /profile while the command runs.
    obs::HttpServer server;
    std::string port_spec = args.get("--status-port", "");
    if (port_spec.empty()) {
      if (const char* env = std::getenv("FENRIR_STATUS_PORT")) {
        port_spec = env;
      }
    }
    const bool want_server = !port_spec.empty();
    if (want_server) {
      long port = -1;
      try {
        port = std::stol(port_spec);
      } catch (const std::exception&) {
        port = -1;  // falls into the range check → usage error
      }
      if (port < 0 || port > 65535) {
        std::cerr << "fenrirctl: bad status port '" << port_spec << "'\n";
        return 2;
      }
      if (server.start(static_cast<std::uint16_t>(port))) {
        if (const auto path = args.get("--status-port-file", "");
            !path.empty()) {
          std::ofstream out(path);
          out << server.port() << "\n";
        }
      }
    }

    // Install the shutdown handlers before dispatch: a SIGTERM that
    // lands while the command is still running must mean "finish and
    // shut down", not "die with the default action" — scripts curl the
    // server as soon as the port file appears, which can be mid-command.
    if (args.has("--serve") && server.running()) {
      std::signal(SIGINT, handle_shutdown_signal);
      std::signal(SIGTERM, handle_shutdown_signal);
    }

    int rc = dispatch(cmd, args);

    // --serve: the command is done but the status server stays up for
    // inspection until SIGINT/SIGTERM (the smoke test's curl window).
    if (args.has("--serve") && server.running()) {
      while (!g_shutdown.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
    server.stop();

    // Telemetry goes to its own sinks (file / stderr) so the command's
    // stdout stays byte-identical with or without these flags.
    if (const auto path = args.get("--metrics", ""); !path.empty()) {
      if (!write_metrics_file(path) && rc == 0) rc = 3;
    }
    if (const auto path = args.get("--trace-out", ""); !path.empty()) {
      if (!obs::write_trace_json_file(path)) {
        std::cerr << "fenrirctl: cannot write trace file " << path << "\n";
        if (rc == 0) rc = 3;
      }
    }
    if (args.has("--profile")) obs::write_profile(std::cerr);
    return rc;
  } catch (const core::DatasetIoError& e) {
    // Exit code taxonomy (see README): 2 usage, 3 I/O (unreadable,
    // unwritable, or malformed dataset/state files), 1 everything else.
    std::cerr << "fenrirctl: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "fenrirctl: " << e.what() << "\n";
    return 1;
  }
}
