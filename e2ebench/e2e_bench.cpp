// e2e_bench — end-to-end benchmark harness for Fenrir's online watch and
// batch analyze paths. README.md in this directory describes the
// workloads, the metrics and how to read the output; run.py drives it.
//
//   e2e_bench gen WORKLOAD --seed N --world DIR --inputs DIR [--tiny]
//       Builds the workload's routing world once per DIR (the paper case
//       study at the scenario's default seed, saved as world.csv), then
//       draws the seed's measurement noise over it into the inputs
//       directory, together with the reference verdict stream of a
//       matrix-free ModeBook for the online workloads. Never timed.
//
//   e2e_bench run WORKLOAD --seed N --world DIR --inputs DIR --work DIR
//                 --seconds S --trace 0|1 [--tiny] [--watch-reference F]
//                 [--report-reference F] [--perturb-reference]
//       Repeats fixed-size passes until S seconds have passed (and at
//       least a minimum number of passes ran), checks every output against
//       its reference, and prints one JSON result object as the last line
//       of stdout. With --trace 1 untraced and traced passes alternate and
//       the JSON carries the per-layer table.
//
// The online passes replay `fenrirctl watch DATA --store DIR --journal F
// --lineage F --events-out F` step for step (WatchSession mirrors
// cmd_watch in tools/fenrirctl.cpp); a batch pass is `fenrirctl clean
// --micro 0.001` followed by `fenrirctl analyze`, in memory.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/cleaning.h"
#include "core/compare.h"
#include "core/dataset_io.h"
#include "core/modebook.h"
#include "core/pipeline.h"
#include "core/simd_dispatch.h"
#include "io/segment_store.h"
#include "io/table.h"
#include "obs/build_info.h"
#include "obs/events.h"
#include "obs/journal.h"
#include "obs/lineage.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/metrics_window.h"
#include "obs/span.h"
#include "obs/status_board.h"
#include "obs/trace_export.h"
#include "rng/rng.h"
#include "scenarios/broot.h"
#include "scenarios/groot.h"

namespace fs = std::filesystem;
using namespace fenrir;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time of all threads of this process, in seconds. It excludes time
/// the hypervisor steals from the guest and time spent blocked on the
/// device, which is why the gated metrics use it (README: noise).
double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------------------
// Arguments and workload sizes

enum class Workload { kGroot, kPaper, kBatch };

struct Options {
  std::string command;
  Workload workload = Workload::kGroot;
  std::string workload_name;
  std::uint64_t seed = 1;
  fs::path world;
  fs::path inputs;
  fs::path work;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool perturb_reference = false;
  std::string watch_reference;
  std::string report_reference;
};

Options parse_options(int argc, char** argv) {
  if (argc < 3) {
    throw std::invalid_argument(
        "usage: e2e_bench gen|run WORKLOAD --seed N --world DIR --inputs DIR "
        "[--work DIR --seconds S --trace 0|1] [--tiny]");
  }
  Options o;
  o.command = argv[1];
  o.workload_name = argv[2];
  if (o.workload_name == "groot_4min_resume") {
    o.workload = Workload::kGroot;
  } else if (o.workload_name == "broot_paper_5m") {
    o.workload = Workload::kPaper;
  } else if (o.workload_name == "broot_daily_batch") {
    o.workload = Workload::kBatch;
  } else {
    throw std::invalid_argument("unknown workload: " + o.workload_name);
  }
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--world") {
      o.world = value();
    } else if (a == "--inputs") {
      o.inputs = value();
    } else if (a == "--work") {
      o.work = value();
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--perturb-reference") {
      o.perturb_reference = true;
    } else if (a == "--watch-reference") {
      o.watch_reference = value();
    } else if (a == "--report-reference") {
      o.report_reference = value();
    } else {
      throw std::invalid_argument("unknown option: " + a);
    }
  }
  if (o.world.empty() || o.inputs.empty()) {
    throw std::invalid_argument("--world and --inputs are required");
  }
  if (o.command == "run" && o.work.empty()) {
    throw std::invalid_argument("--work is required");
  }
  return o;
}

/// Input sizes. The full sizes are the benchmark; --tiny is for the
/// self-test.
struct Sizes {
  // groot_4min_resume: VPs and cadence of the G-Root Figure 1 series.
  std::size_t groot_vps;
  core::TimePoint groot_cadence;
  // broot_paper_5m: weekly B-Root topology, replication, sweeps fed.
  std::size_t paper_stubs;
  std::size_t paper_replicas;
  std::size_t paper_sweeps;
  // broot_daily_batch: topology and cadence of the archive.
  std::size_t batch_stubs;
  core::TimePoint batch_cadence;
};

Sizes sizes_for(bool tiny) {
  if (tiny) return {120, 60 * core::kMinute, 150, 4, 16, 120, 7 * core::kDay};
  return {2500, 4 * core::kMinute, 2000, 112, 104, 400, core::kDay};
}

/// Verfploeter's responsiveness model (measure/verfploeter.h defaults):
/// a stable population answering 96% of sweeps, a flaky one 8%, and 2%
/// transient loss on every probe.
constexpr double kStableFraction = 0.55;
constexpr double kStableAnswer = 0.96 * 0.98;
constexpr double kFlakyAnswer = 0.08 * 0.98;
/// Atlas VPs that fail to report a sweep (G-Root: "nearly all known").
constexpr double kAtlasLoss = 0.002;

// ---------------------------------------------------------------------------
// Small utilities

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile (q in [0,1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t k = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(k, v.size() - 1)];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double unit_interval(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

double proc_status_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return std::stod(line.substr(prefix.size())) / 1024.0;
  }
  return 0.0;
}

/// Resets the VmHWM high-water mark to the current RSS (Linux clear_refs
/// "5"), so each pass reports its own peak.
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

/// CPU milliseconds of a fixed serial dependency chain: FNV-1a over 4 MB,
/// 12 times, i.e. 12M multiply-xor steps of ~4 cycles each. The guest
/// exposes no cycle counter, so this chain is the clock estimate: its
/// time tracks the core frequency the host grants right now.
double host_yardstick_ms() {
  static const std::vector<std::uint32_t> buf = [] {
    std::vector<std::uint32_t> b(1u << 20);
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = static_cast<std::uint32_t>(i * 2654435761u);
    }
    return b;
  }();
  const auto thread_cpu_ms = [] {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
  };
  // Interrupts only ever lengthen a run: the fastest of three is the
  // clock estimate.
  double best = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    const double t0 = thread_cpu_ms();
    std::uint64_t h = 1469598103934665603ULL;
    for (int round = 0; round < 12; ++round) {
      for (const std::uint32_t x : buf) {
        h ^= x;
        h *= 1099511628211ULL;
      }
    }
    const double ms = thread_cpu_ms() - t0 + (h == 0 ? 1e-9 : 0.0);  // keeps h live
    if (trial == 0 || ms < best) best = ms;
  }
  return best;
}

/// The yardstick's time at a 3.0 GHz clock (48M cycles). Gated times are
/// CPU time rescaled by kYardstickReferenceMs / yardstick: CPU seconds at
/// that reference clock, i.e. an estimate of cycles / 3.0 GHz.
constexpr double kYardstickReferenceMs = 16.0;

/// The machine-wide "cpu" line of /proc/stat: stolen and total ticks.
struct CpuTimes {
  double steal = 0.0;
  double total = 0.0;
  static CpuTimes sample() {
    std::ifstream in("/proc/stat");
    std::string label;
    in >> label;
    CpuTimes t;
    for (int field = 0; field < 8; ++field) {
      double v = 0.0;
      in >> v;
      t.total += v;
      if (field == 7) t.steal = v;
    }
    return t;
  }
};

std::uint64_t tree_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

std::uint64_t file_bytes(const fs::path& p) {
  std::error_code ec;
  const auto n = fs::file_size(p, ec);
  return ec ? 0 : n;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + p.string());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const fs::path& p, const std::string& text) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + p.string());
}

std::string filesystem_name(const fs::path& p) {
  struct statfs st {};
  if (::statfs(p.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL: return "ext2/3/4";
    case 0x01021994UL: return "tmpfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      std::ostringstream os;
      os << "0x" << std::hex << static_cast<unsigned long>(st.f_type);
      return os.str();
    }
  }
}

/// A number with every digit it has (round-trip precision).
std::string num(double x) {
  if (!std::isfinite(x)) return "0";
  std::ostringstream os;
  os << std::setprecision(17) << x;
  return os.str();
}

// ---------------------------------------------------------------------------
// Layer calls: in traced passes each public call is bracketed by an
// obs::Span named "<layer>.<call>", so the profile tree the program
// emits carries the breakdown, and its duration is kept for per-call
// quantiles. Untraced passes call straight through.

bool g_traced_pass = false;
std::map<std::string, std::vector<double>> g_call_seconds;

template <typename Fn>
decltype(auto) layer_call(const char* name, Fn&& fn) {
  if (!g_traced_pass) return fn();
  struct Timer {
    const char* name;
    Clock::time_point t0 = Clock::now();
    obs::Span span;
    explicit Timer(const char* n) : name(n), span(n) {}
    ~Timer() { g_call_seconds[name].push_back(seconds_between(t0, Clock::now())); }
  } timer(name);
  return fn();
}

// ---------------------------------------------------------------------------
// Verdict streams: one line per sweep, Φ as an exact hexfloat.

struct Verdict {
  std::size_t mode = 0;
  double phi = 0.0;
  bool is_new = false;
  bool is_recurrence = false;
  bool operator==(const Verdict&) const = default;
};

void write_verdicts(const fs::path& p, const std::vector<Verdict>& vs) {
  std::ofstream out(p, std::ios::trunc);
  out << std::hexfloat;
  for (const Verdict& v : vs) {
    out << v.mode << ' ' << v.phi << ' ' << v.is_new << ' ' << v.is_recurrence
        << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + p.string());
}

std::vector<Verdict> read_verdicts(const fs::path& p) {
  std::ifstream in(p);
  if (!in) throw std::runtime_error("cannot read " + p.string());
  std::vector<Verdict> out;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream is(line);
    Verdict v;
    std::string phi;
    is >> v.mode >> phi >> v.is_new >> v.is_recurrence;
    if (!is) throw std::runtime_error("bad reference line in " + p.string());
    v.phi = std::strtod(phi.c_str(), nullptr);
    out.push_back(v);
  }
  return out;
}

core::ModeBook::Config watch_config() {
  // fenrirctl watch defaults: threshold 0.85, known-only, frozen reps.
  core::ModeBook::Config cfg;
  cfg.match_threshold = 0.85;
  cfg.policy = core::UnknownPolicy::kKnownOnly;
  cfg.adapt_representative = false;
  return cfg;
}

// ---------------------------------------------------------------------------
// Worlds and seeded inputs

/// Each block's catchment per sweep: its observed site, carried forward
/// and then backward across sweeps where the world's own probe of the
/// block went unanswered.
std::vector<std::vector<core::SiteId>> fill_truth(const core::Dataset& world) {
  const std::size_t sweeps = world.series.size();
  const std::size_t blocks = world.networks.size();
  std::vector<std::vector<core::SiteId>> truth(
      sweeps, std::vector<core::SiteId>(blocks, core::kUnknownSite));
  for (std::size_t b = 0; b < blocks; ++b) {
    core::SiteId last = core::kUnknownSite;
    for (std::size_t t = 0; t < sweeps; ++t) {
      const core::SiteId s = world.series[t].assignment[b];
      if (s != core::kUnknownSite) last = s;
      truth[t][b] = last;
    }
    core::SiteId next = core::kUnknownSite;
    for (std::size_t t = sweeps; t-- > 0;) {
      const core::SiteId s = world.series[t].assignment[b];
      if (s != core::kUnknownSite) next = s;
      if (truth[t][b] == core::kUnknownSite) truth[t][b] = next;
    }
  }
  return truth;
}

/// broot_paper_5m: each world block is replicated into `replicas`
/// networks; a network answers a sweep by an independent Verfploeter draw
/// and an answer carries the block's catchment at that sweep.
class PaperExpander {
 public:
  PaperExpander(const core::Dataset& world, std::size_t replicas,
                std::uint64_t seed)
      : replicas_(replicas), seed_(seed), truth_(fill_truth(world)) {
    for (const core::RoutingVector& v : world.series) {
      times_.push_back(v.time);
      valid_.push_back(v.valid);
    }
    stable_.resize(world.networks.size() * replicas);
    for (std::size_t n = 0; n < stable_.size(); ++n) {
      stable_[n] = unit_interval(rng::mix(seed_, 0x57ab1eULL, n)) < kStableFraction;
    }
  }

  std::size_t sweeps() const { return truth_.size(); }
  std::size_t networks() const { return stable_.size(); }

  /// Sweep @p t's vector, written into @p out (reusing its storage).
  void expand(std::size_t t, core::RoutingVector& out) const {
    out.time = times_[t];
    out.valid = valid_[t];
    out.assignment.resize(stable_.size());
    const std::uint64_t sweep_key = rng::mix(seed_, 0x5eedULL, t);
    std::size_t n = 0;
    for (const core::SiteId truth : truth_[t]) {
      const core::SiteId site = out.valid ? truth : core::kUnknownSite;
      for (std::size_t r = 0; r < replicas_; ++r, ++n) {
        const double p = stable_[n] ? kStableAnswer : kFlakyAnswer;
        out.assignment[n] =
            unit_interval(rng::mix(sweep_key, n)) < p ? site : core::kUnknownSite;
      }
    }
  }

 private:
  std::size_t replicas_;
  std::uint64_t seed_;
  std::vector<std::vector<core::SiteId>> truth_;
  std::vector<core::TimePoint> times_;
  std::vector<char> valid_;
  std::vector<char> stable_;
};

/// The Dataset a watch over the replicated sweeps holds: one network key
/// per replica (the store's identity hashes them) and the world's sites.
/// The series itself is generated sweep by sweep.
core::Dataset paper_dataset(const core::Dataset& world, std::size_t replicas) {
  core::Dataset d;
  d.name = world.name + " x" + std::to_string(replicas);
  d.sites = world.sites;
  for (core::NetId b = 0; b < world.networks.size(); ++b) {
    for (std::size_t r = 0; r < replicas; ++r) {
      d.networks.intern((world.networks.key(b) << 8) | r);
    }
  }
  return d;
}

/// broot_daily_batch: the world's catchments, re-probed with the seed's
/// own Verfploeter responsiveness draws (outage sweeps stay outages).
void redraw_verfploeter(core::Dataset& d, std::uint64_t seed) {
  const auto truth = fill_truth(d);
  for (std::size_t t = 0; t < d.series.size(); ++t) {
    core::RoutingVector& v = d.series[t];
    if (!v.valid) continue;
    const std::uint64_t sweep_key = rng::mix(seed, 0x5eedULL, t);
    for (std::size_t b = 0; b < v.assignment.size(); ++b) {
      const bool stable =
          unit_interval(rng::mix(seed, 0x57ab1eULL, b)) < kStableFraction;
      const double p = stable ? kStableAnswer : kFlakyAnswer;
      v.assignment[b] = unit_interval(rng::mix(sweep_key, b)) < p
                            ? truth[t][b]
                            : core::kUnknownSite;
    }
  }
}

/// groot_4min_resume: each VP misses a sweep with the Atlas loss rate.
void drop_atlas_reports(core::Dataset& d, std::uint64_t seed) {
  for (std::size_t t = 0; t < d.series.size(); ++t) {
    const std::uint64_t sweep_key = rng::mix(seed, 0xa71a5ULL, t);
    auto& a = d.series[t].assignment;
    for (std::size_t n = 0; n < a.size(); ++n) {
      if (unit_interval(rng::mix(sweep_key, n)) < kAtlasLoss) {
        a[n] = core::kUnknownSite;
      }
    }
  }
}

/// The workload's routing world: the paper case study at the scenario's
/// default seed, generated once per world directory.
core::Dataset load_world(const Options& o) {
  const fs::path path = o.world / "world.csv";
  if (!fs::exists(path)) {
    const Sizes sz = sizes_for(o.tiny);
    const auto t0 = Clock::now();
    core::Dataset world;
    if (o.workload == Workload::kGroot) {
      scenarios::GrootConfig cfg;
      cfg.vp_count = sz.groot_vps;
      cfg.cadence = sz.groot_cadence;
      world = scenarios::make_groot(cfg).figure1;
    } else {
      scenarios::BrootConfig cfg;
      const bool paper = o.workload == Workload::kPaper;
      cfg.cadence = paper ? 7 * core::kDay : sz.batch_cadence;
      cfg.topo_stubs = paper ? sz.paper_stubs : sz.batch_stubs;
      world = scenarios::make_broot(cfg).dataset;
      if (paper && world.series.size() > sz.paper_sweeps) {
        world.series.resize(sz.paper_sweeps);
      }
    }
    fs::create_directories(o.world);
    const fs::path tmp = o.world / "world.csv.tmp";
    core::save_dataset_file(world, tmp.string());
    fs::rename(tmp, path);
    std::cout << "world " << o.workload_name << ": " << world.series.size()
              << " sweeps x " << world.networks.size() << " networks, simulated in "
              << seconds_between(t0, Clock::now()) << " s\n";
  }
  return core::load_dataset_file(path.string());
}

std::vector<Verdict> modebook_reference(
    const std::function<const core::RoutingVector&(std::size_t)>& sweep,
    std::size_t count) {
  // Matrix-free: no store, no anchors, lineage off.
  obs::lineage().set_capacity(0);
  core::ModeBook book(watch_config());
  std::vector<Verdict> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto m = book.observe(sweep(i));
    out.push_back({m.mode, m.phi, m.is_new, m.is_recurrence});
  }
  obs::lineage().set_capacity(obs::LineageStore::Config{}.capacity);
  return out;
}

int cmd_gen(const Options& o) {
  const auto t0 = Clock::now();
  core::Dataset world = load_world(o);
  fs::create_directories(o.inputs);
  const std::size_t sweeps = world.series.size();
  if (o.workload == Workload::kGroot) {
    drop_atlas_reports(world, o.seed);
    core::save_dataset_file(world, (o.inputs / "groot.csv").string());
    core::Dataset first = world;
    first.series.resize(first.series.size() / 2);
    core::save_dataset_file(first, (o.inputs / "groot_first.csv").string());
    // The reference reads the CSV the watch reads.
    const core::Dataset full =
        core::load_dataset_file((o.inputs / "groot.csv").string());
    write_verdicts(o.inputs / "reference.txt",
                   modebook_reference(
                       [&](std::size_t i) -> const core::RoutingVector& {
                         return full.series[i];
                       },
                       full.series.size()));
  } else if (o.workload == Workload::kPaper) {
    const PaperExpander expander(world, sizes_for(o.tiny).paper_replicas, o.seed);
    core::RoutingVector v;
    write_verdicts(o.inputs / "reference.txt",
                   modebook_reference(
                       [&](std::size_t i) -> const core::RoutingVector& {
                         expander.expand(i, v);
                         return v;
                       },
                       expander.sweeps()));
  } else {
    redraw_verfploeter(world, o.seed);
    core::save_dataset_file(world, (o.inputs / "archive.csv").string());
  }
  std::cout << "inputs " << o.workload_name << " seed " << o.seed << ": "
            << sweeps << " sweeps, prepared in "
            << seconds_between(t0, Clock::now()) << " s\n";
  return 0;
}

// ---------------------------------------------------------------------------
// The online watch path: fenrirctl watch --store, step for step.

struct WatchFiles {
  fs::path store;
  fs::path journal;
  fs::path lineage;
  fs::path events;
};

WatchFiles files_in(const fs::path& dir) {
  return {dir / "store", dir / "watch.jsonl", dir / "lineage.jsonl",
          dir / "events.jsonl"};
}

/// What fenrirctl's main() wires around every command: the build-info
/// metric and the default windowed-metrics set, so that
/// metrics_history().sample does the same work.
void wire_like_fenrirctl() {
  obs::register_build_info_metric();
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

class WatchSession {
 public:
  /// Everything before the first sweep can be handed over: the
  /// --events-out and --lineage sinks main() opens before dispatch, then
  /// cmd_watch's book, store open/attach/load, restore, anchor re-pin and
  /// journal. @p total is the dataset's observation count.
  WatchSession(const core::Dataset& data, std::size_t total,
               const WatchFiles& files, std::ostream& out)
      : out_(out), book_(watch_config()) {
    layer_call("obs.events.open", [&] {
      if (!events_.open(files.events.string(), false)) {
        throw std::runtime_error("cannot open " + files.events.string());
      }
      obs::event_bus().add_sink(&events_);
      if (!obs::lineage().open_log(files.lineage.string(), false)) {
        throw std::runtime_error("cannot open " + files.lineage.string());
      }
    });
    layer_call("obs.events.emit", [&] {
      obs::event_bus().emit(obs::Severity::kInfo, "watch_started",
                            "\"dataset\":\"" + obs::json_escape(data.name) +
                                "\",\"observations\":" + std::to_string(total));
    });
    io::SegmentStoreConfig scfg;  // fenrirctl's segment_config() defaults
    scfg.threads = 0;
    layer_call("io.segment_store.open", [&] {
      store_.emplace(files.store, scfg);
      store_->attach(&data);
      if (store_->processed() == 0) {
        store_->configure(watch_config().policy, data.weights);
      }
    });
    if (store_->policy() != watch_config().policy) {
      throw std::runtime_error("segment store built under another policy");
    }
    io::SegmentStore::Loaded loaded =
        layer_call("io.segment_store.load", [&] { return store_->load(&data); });
    base_ = static_cast<std::size_t>(loaded.base_row);
    start_ = static_cast<std::size_t>(loaded.processed);
    matrix_.emplace(std::move(loaded.matrix));
    if (loaded.has_modebook) {
      layer_call("core.modebook.restore", [&] {
        book_.restore(std::move(loaded.representatives), std::move(loaded.history));
      });
    }
    if (start_ > 0) {
      layer_call("core.distance_matrix.repin", [&] {
        std::vector<bool> seen(book_.mode_count(), false);
        std::size_t valid_seen = 0;
        for (std::size_t i = 0; i < start_; ++i) {
          if (!data.series[i].valid) continue;
          if (valid_seen >= book_.history().size()) break;
          const std::size_t mode = book_.history()[valid_seen++];
          if (mode < seen.size() && !seen[mode]) {
            seen[mode] = true;
            if (i >= base_) matrix_->pin_anchor(i - base_);
          }
        }
      });
      layer_call("obs.events.emit", [&] {
        obs::registry()
            .counter("fenrir_watch_resumes_total", "watch sessions resumed from state")
            .inc();
        obs::event_bus().emit(obs::Severity::kNotice, "watch_resumed",
                              "\"processed\":" + std::to_string(start_) +
                                  ",\"modes\":" + std::to_string(book_.mode_count()));
      });
      layer_call("cli.verdict_line", [&] {
        out_ << "resumed: " << start_ << " observations already processed, "
             << book_.mode_count() << " known modes\n";
      });
    }
    layer_call("obs.journal.open", [&] {
      journal_.open(files.journal.string(), /*truncate=*/start_ == 0);
    });
  }

  ~WatchSession() {
    obs::event_bus().remove_sink(&events_);
    obs::lineage().close_log();
  }
  WatchSession(const WatchSession&) = delete;
  WatchSession& operator=(const WatchSession&) = delete;

  std::size_t start() const { return start_; }
  std::size_t modes() const { return book_.mode_count(); }

  /// cmd_watch's loop body: sweep handed over → verdict emitted.
  core::ModeBook::Match step(std::size_t i, const core::RoutingVector& v) {
    layer_call("core.distance_matrix.append", [&] { matrix_->append(v); });
    if (obs::lineage().enabled()) {
      layer_call("core.distance_matrix.anchor_chain", [&] {
        std::vector<std::size_t> chain = matrix_->anchor_chain(i - base_);
        for (std::size_t& c : chain) c += base_;
        obs::lineage().set_anchor_context(chain);
      });
    }
    const core::ModeBook::Match match =
        layer_call("core.modebook.observe", [&] { return book_.observe(v); });
    obs::lineage().clear_context();
    if (match.is_new) {
      layer_call("core.distance_matrix.pin_anchor",
                 [&] { matrix_->pin_anchor(i - base_); });
    }
    layer_call("io.segment_store.spill", [&] { store_->spill(v, *matrix_); });
    if ((i + 1 - start_) % 64 == 0) {
      layer_call("io.segment_store.flush", [&] { store_->flush(); });
    }
    layer_call("cli.verdict_line", [&] {
      out_ << core::format_time(v.time) << "  mode " << match.mode << "  phi "
           << io::fixed(match.phi, 3);
      if (!v.valid) {
        out_ << "  (outage)";
      } else if (match.is_new) {
        out_ << "  NEW MODE";
      } else if (match.is_recurrence) {
        out_ << "  RECURRENCE";
      }
      out_ << "\n";
    });
    layer_call("obs.journal.append", [&] {
      std::ostringstream os;
      os << "{\"type\":\"watch\",\"time\":" << v.time << ",\"mode\":" << match.mode
         << ",\"phi\":" << obs::render_double(match.phi)
         << ",\"valid\":" << (v.valid ? "true" : "false")
         << ",\"is_new\":" << (match.is_new ? "true" : "false")
         << ",\"is_recurrence\":" << (match.is_recurrence ? "true" : "false") << "}";
      journal_.append(os.str());
    });
    layer_call("obs.status_board.publish", [&] {
      obs::status_board().publish("modebook", book_.status_json());
    });
    layer_call("obs.metrics_window.sample",
               [&] { obs::metrics_history().sample(false); });
    return match;
  }

  /// cmd_watch's tail, ending with the final durable flush(&book).
  void finish() {
    layer_call("cli.verdict_line", [&] {
      out_ << book_.mode_count() << " modes over " << book_.history().size()
           << " observations\n";
    });
    layer_call("obs.status_board.publish", [&] {
      obs::status_board().publish("modebook", book_.status_json());
    });
    layer_call("obs.events.emit", [&] {
      obs::event_bus().emit(obs::Severity::kInfo, "watch_finished",
                            "\"modes\":" + std::to_string(book_.mode_count()) +
                                ",\"observations\":" +
                                std::to_string(book_.history().size()));
    });
    layer_call("obs.metrics_window.sample",
               [&] { obs::metrics_history().sample(true); });
    layer_call("io.segment_store.flush", [&] { store_->flush(&book_); });
  }

  /// Closes the store (joining any background compaction) and the journal.
  void close() {
    layer_call("io.segment_store.close", [&] { store_.reset(); });
    journal_.close();
  }

 private:
  std::ostream& out_;
  obs::JsonlEventSink events_;
  obs::Journal journal_;
  core::ModeBook book_;
  std::optional<io::SegmentStore> store_;
  std::optional<core::SimilarityMatrix> matrix_;
  std::size_t base_ = 0;
  std::size_t start_ = 0;
};

// ---------------------------------------------------------------------------
// Passes

struct PassResult {
  bool traced = false;
  double setup_wall_s = 0.0;
  double setup_cpu_s = 0.0;
  double work_wall_s = 0.0;  // timed work (online: through the final flush)
  double work_cpu_s = 0.0;
  /// Reference-clock rescaling of this pass's CPU times (the yardstick
  /// taken before and after it).
  double clock_scale = 1.0;
  std::size_t observations = 0;
  std::vector<double> verdict_wall_s;  // online: one per sweep
  std::vector<double> verdict_cpu_s;
  double peak_rss_mb = 0.0;
  double store_mb = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, double> counts;  // exact, per pass
};

/// The registry counters the per-layer table reads, around a pass.
struct CounterSnapshot {
  std::map<std::string, double> values;

  static CounterSnapshot take() {
    CounterSnapshot s;
    for (const char* name :
         {"fenrir_phi_appends_total", "fenrir_phi_rows_delta_total",
          "fenrir_phi_rows_kernel_total", "fenrir_phi_anchor_probes_total",
          "fenrir_parallel_jobs_total", "fenrir_decision_records_total",
          "fenrir_decision_flush_errors_total", "fenrir_events_suppressed_total",
          "fenrir_journal_write_errors_total", "fenrir_segment_tail_flush_total",
          "fenrir_segment_sealed_total", "fenrir_clean_gaps_filled_total"}) {
      s.values[name] = static_cast<double>(obs::registry().counter(name).value());
    }
    double emitted = 0.0;
    for (const char* sev : {"debug", "info", "notice", "warn", "alert"}) {
      emitted += static_cast<double>(
          obs::registry()
              .counter("fenrir_events_emitted_total", obs::Labels{{"severity", sev}})
              .value());
    }
    s.values["events_emitted"] = emitted;
    obs::Histogram& scans = obs::registry().histogram(
        "fenrir_modebook_scan_length", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
    s.values["scan_sum"] = scans.sum();
    s.values["scan_count"] = static_cast<double>(scans.count());
    return s;
  }
};

void record_counts(PassResult& r, const CounterSnapshot& before,
                   const CounterSnapshot& after) {
  const auto d = [&](const char* name) {
    return after.values.at(name) - before.values.at(name);
  };
  const double appended = d("fenrir_phi_appends_total");
  r.counts["core.distance_matrix.rows_delta"] = d("fenrir_phi_rows_delta_total");
  r.counts["core.distance_matrix.rows_kernel"] = d("fenrir_phi_rows_kernel_total");
  r.counts["core.distance_matrix.anchor_probes"] = d("fenrir_phi_anchor_probes_total");
  r.counts["core.distance_matrix.delta_share"] =
      appended > 0 ? d("fenrir_phi_rows_delta_total") / appended : 0.0;
  r.counts["core.parallel.jobs"] = d("fenrir_parallel_jobs_total");
  r.counts["core.parallel.imbalance_ratio"] =
      obs::registry().gauge("fenrir_parallel_imbalance_ratio").value();
  r.counts["core.cleaning.cells_filled"] = d("fenrir_clean_gaps_filled_total");
  r.counts["core.modebook.scan_length_mean"] =
      d("scan_count") > 0 ? d("scan_sum") / d("scan_count") : 0.0;
  r.counts["io.segment_store.flushes"] = d("fenrir_segment_tail_flush_total");
  r.counts["io.segment_store.seals"] = d("fenrir_segment_sealed_total");
  r.counts["obs.lineage.records"] = d("fenrir_decision_records_total");
  r.counts["obs.lineage.flush_errors"] = d("fenrir_decision_flush_errors_total");
  r.counts["obs.events.emitted"] = d("events_emitted");
  r.counts["obs.events.suppressed"] = d("fenrir_events_suppressed_total");
  r.counts["obs.journal.write_errors"] = d("fenrir_journal_write_errors_total");
}

struct OnlineInputs {
  const core::Dataset* data = nullptr;  // network/site tables (+ series)
  std::size_t total = 0;                // sweeps in the whole series
  std::function<const core::RoutingVector&(std::size_t)> sweep;
};

/// One closed-loop pass: restore the prepared state (a copy, untimed) and
/// feed sweeps start..total-1, each handed over after the previous
/// verdict. Set-up runs @p setup_repeats times on the same on-disk state
/// (open + load are read-only on a clean store) and reports the median.
PassResult online_pass(const OnlineInputs& in, const fs::path& prepared,
                       const std::vector<Verdict>& reference,
                       const fs::path& dir, std::size_t setup_repeats,
                       std::string& lines_out) {
  PassResult r;
  r.traced = g_traced_pass;
  fs::remove_all(dir);
  if (prepared.empty()) {
    fs::create_directories(dir);
  } else {
    fs::copy(prepared, dir, fs::copy_options::recursive);
  }
  const WatchFiles files = files_in(dir);
  const auto logs_bytes = [&] {
    return file_bytes(files.journal) + file_bytes(files.lineage) +
           file_bytes(files.events);
  };
  std::vector<double> setup_wall, setup_cpu;
  for (std::size_t k = 1; k < setup_repeats; ++k) {
    std::ostringstream discard;
    const auto t0 = Clock::now();
    const double c0 = process_cpu_s();
    { WatchSession probe(*in.data, in.total, files, discard); }
    setup_cpu.push_back(process_cpu_s() - c0);
    setup_wall.push_back(seconds_between(t0, Clock::now()));
  }
  // After the repeated set-ups, whose watch_started events reach the log.
  const std::uint64_t store_before = tree_bytes(files.store);
  const std::uint64_t logs_before = logs_bytes();
  reset_peak_rss();
  const CounterSnapshot before = CounterSnapshot::take();
  std::ostringstream lines;
  const auto t0 = Clock::now();
  const double c0 = process_cpu_s();
  WatchSession session(*in.data, in.total, files, lines);
  setup_cpu.push_back(process_cpu_s() - c0);
  setup_wall.push_back(seconds_between(t0, Clock::now()));
  r.setup_wall_s = median(setup_wall);
  r.setup_cpu_s = median(setup_cpu);

  // Timed work: each sweep from hand-over to verdict, then the final
  // durable flush. Generating the next sweep in between is not timed.
  const std::size_t start = session.start();
  std::vector<Verdict> got;
  got.reserve(in.total - start);
  for (std::size_t i = start; i < in.total; ++i) {
    const core::RoutingVector& v = in.sweep(i);
    const auto t = Clock::now();
    const double c = process_cpu_s();
    Verdict verdict;
    try {
      const core::ModeBook::Match m = session.step(i, v);
      verdict = {m.mode, m.phi, m.is_new, m.is_recurrence};
    } catch (const std::exception& e) {
      std::cerr << "sweep " << i << " failed: " << e.what() << "\n";
      verdict.mode = static_cast<std::size_t>(-1);
    }
    r.verdict_cpu_s.push_back(process_cpu_s() - c);
    r.verdict_wall_s.push_back(seconds_between(t, Clock::now()));
    got.push_back(verdict);
  }
  const auto t_finish = Clock::now();
  const double c_finish = process_cpu_s();
  session.finish();
  r.work_cpu_s = sum(r.verdict_cpu_s) + process_cpu_s() - c_finish;
  r.work_wall_s = sum(r.verdict_wall_s) + seconds_between(t_finish, Clock::now());
  r.peak_rss_mb = proc_status_mb("VmHWM");
  session.close();
  record_counts(r, before, CounterSnapshot::take());

  r.observations = in.total - start;
  r.attempted = r.observations;
  for (std::size_t k = 0; k < got.size(); ++k) {
    if (!(got[k] == reference.at(start + k))) ++r.failed;
  }
  const std::uint64_t store_after = tree_bytes(files.store);
  r.store_mb = static_cast<double>(store_after) / 1e6;
  const double n = static_cast<double>(r.observations);
  r.counts["io.segment_store.bytes_per_obs"] =
      static_cast<double>(store_after - store_before) / n;
  r.counts["obs.logs.bytes_per_obs"] =
      static_cast<double>(logs_bytes() - logs_before) / n;
  r.counts["core.modebook.modes"] = static_cast<double>(session.modes());
  // Durability: the reopened store verifies and holds every sweep fed.
  io::SegmentStoreConfig cfg;
  cfg.background_compaction = false;
  const io::SegmentStore reopened(files.store, cfg);
  std::string error;
  if (!reopened.verify(&error) || reopened.processed() != in.total) {
    std::cerr << "store verify failed: " << error << " (processed "
              << reopened.processed() << " of " << in.total << ")\n";
    r.failed = r.attempted;
  }
  lines_out = lines.str();
  return r;
}

/// Sampled Φ cells of the final store against scalar gower_similarity;
/// returns how many differ.
std::size_t check_phi_samples(const OnlineInputs& in, const fs::path& store,
                              std::size_t samples, std::uint64_t seed) {
  io::SegmentStoreConfig cfg;
  cfg.background_compaction = false;
  io::SegmentStore reopened(store, cfg);
  // broot_paper_5m keeps no series in its Dataset (sweeps are generated
  // one at a time), so there is nothing to check identity against.
  const core::Dataset* identity = in.data->series.empty() ? nullptr : in.data;
  reopened.attach(identity);
  const io::SegmentStore::Loaded loaded = reopened.load(identity);
  const std::size_t base = static_cast<std::size_t>(loaded.base_row);
  const std::size_t rows = loaded.matrix.size();
  std::size_t bad = 0;
  rng::Rng pick(rng::mix(seed, 0xce11ULL));
  for (std::size_t k = 0; k < samples && rows > 0; ++k) {
    const std::size_t i = static_cast<std::size_t>(pick.uniform(rows));
    const std::size_t j = static_cast<std::size_t>(pick.uniform(i + 1));
    const core::RoutingVector vi = in.sweep(base + i);  // copy: sweep() reuses
    const core::RoutingVector& vj = in.sweep(base + j);
    const double want = vi.valid && vj.valid
                            ? core::gower_similarity(vi, vj, watch_config().policy)
                            : 0.0;
    if (loaded.matrix.phi(i, j) != want) {
      std::cerr << "phi(" << base + i << "," << base + j
                << ") = " << loaded.matrix.phi(i, j) << ", scalar " << want << "\n";
      ++bad;
    }
  }
  return bad;
}

/// One batch pass: load (set-up), clean, analyze, report.
PassResult batch_pass(const fs::path& archive, const std::string& reference,
                      const fs::path& work) {
  PassResult r;
  r.traced = g_traced_pass;
  reset_peak_rss();
  const CounterSnapshot before = CounterSnapshot::take();
  const double rss0 = proc_status_mb("VmRSS");
  const auto t0 = Clock::now();
  const double c0 = process_cpu_s();
  core::Dataset data = layer_call("core.dataset_io.load", [&] {
    return core::load_dataset_file(archive.string());
  });
  const double c1 = process_cpu_s();
  const auto t1 = Clock::now();
  r.counts["core.dataset_io.rss_growth_mb"] = proc_status_mb("VmHWM") - rss0;
  std::ostringstream report;
  bool ok = true;
  try {
    layer_call("core.cleaning.interpolate",
               [&] { core::interpolate_missing(data, core::InterpolateConfig{}); });
    layer_call("core.cleaning.micro",
               [&] { core::remove_micro_catchments(data, 0.001); });
    core::AnalysisConfig cfg;  // fenrirctl analyze defaults
    cfg.detector.min_drop = 0.02;
    const core::AnalysisResult result =
        layer_call("core.pipeline.analyze", [&] { return core::analyze(data, cfg); });
    layer_call("core.pipeline.report",
               [&] { core::print_report(data, result, report); });
  } catch (const std::exception& e) {
    std::cerr << "analysis failed: " << e.what() << "\n";
    ok = false;
  }
  r.work_cpu_s = process_cpu_s() - c1;
  r.work_wall_s = seconds_between(t1, Clock::now());
  r.setup_cpu_s = c1 - c0;
  r.setup_wall_s = seconds_between(t0, t1);
  r.peak_rss_mb = proc_status_mb("VmHWM");
  record_counts(r, before, CounterSnapshot::take());
  r.observations = data.series.size();
  r.verdict_wall_s.push_back(r.work_wall_s);
  r.verdict_cpu_s.push_back(r.work_cpu_s);
  r.attempted = 1;
  if (!ok || report.str() != reference) {
    r.failed = 1;
    if (ok) write_file(work / "report.mismatch", report.str());
  }
  return r;
}

// ---------------------------------------------------------------------------
// Per-layer table from the span profile

/// Layer of a profile-tree node. The benchmark's own spans are named
/// "<layer>.<call>" (all obs.* calls form the obs layer); the program's
/// internal spans belong to the layer whose code opens them.
std::string layer_of(const std::string& span) {
  static const std::map<std::string, std::string> internal = {
      {"analyze", "core.pipeline"},          {"phi_matrix", "core.distance_matrix"},
      {"hac_clustering", "core.pipeline"},   {"mode_extraction", "core.pipeline"},
      {"event_detection", "core.pipeline"},  {"interpolate", "core.cleaning"},
      {"micro_catchments", "core.cleaning"}, {"remove_incorrect", "core.cleaning"},
  };
  if (const auto it = internal.find(span); it != internal.end()) return it->second;
  if (span.rfind("obs.", 0) == 0) return "obs";
  const auto dot = span.rfind('.');
  return dot == std::string::npos ? "unattributed" : span.substr(0, dot);
}

struct LayerTable {
  std::map<std::string, double> self_s;   // per layer
  std::map<std::string, double> total_s;  // per span name
  double top_level_s = 0.0;               // spans opened at depth 0
};

/// Self time = a node's total minus its direct children's totals.
LayerTable layer_table() {
  LayerTable t;
  const std::vector<obs::ProfileEntry> e = obs::profile_entries();
  for (std::size_t k = 0; k < e.size(); ++k) {
    double children = 0.0;
    for (std::size_t c = k + 1; c < e.size() && e[c].depth > e[k].depth; ++c) {
      if (e[c].depth == e[k].depth + 1) children += e[c].total_seconds;
    }
    t.self_s[layer_of(e[k].name)] += e[k].total_seconds - children;
    t.total_s[e[k].name] += e[k].total_seconds;
    if (e[k].depth == 0) t.top_level_s += e[k].total_seconds;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_table(const std::string& title, const std::vector<Metric>& ms) {
  std::cout << "# " << title << "\n";
  for (const Metric& m : ms) {
    std::cout << "#   " << std::left << std::setw(40) << m.name << std::right
              << std::setw(24) << num(m.value) << " " << m.unit << "\n";
  }
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t k = 0; k < ms.size(); ++k) {
    if (k) out += ", ";
    out += "\"" + ms[k].name + "\": {\"value\": " + num(ms[k].value) +
           ", \"unit\": \"" + ms[k].unit + "\"}";
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// run

int cmd_run(const Options& o) {
  const Sizes sz = sizes_for(o.tiny);
  fs::create_directories(o.work);
  wire_like_fenrirctl();
  obs::set_log_level("warn");
  const bool online = o.workload != Workload::kBatch;

  // Inputs, untimed: what gen wrote. Only the CSV load itself is the
  // online workloads' core.dataset_io.load_s.
  double input_load_s = 0.0;
  const auto load_input = [&](const fs::path& csv) {
    const auto t0 = Clock::now();
    core::Dataset d = core::load_dataset_file(csv.string());
    input_load_s = seconds_between(t0, Clock::now());
    return d;
  };
  std::optional<core::Dataset> data;
  std::optional<PaperExpander> expander;
  core::RoutingVector scratch;
  OnlineInputs in;
  fs::path input_csv;
  if (o.workload == Workload::kGroot) {
    input_csv = o.inputs / "groot.csv";
    data.emplace(load_input(input_csv));
    in.sweep = [&](std::size_t i) -> const core::RoutingVector& {
      return data->series[i];
    };
    in.total = data->series.size();
  } else if (o.workload == Workload::kPaper) {
    input_csv = o.world / "world.csv";
    const core::Dataset world = load_input(input_csv);
    expander.emplace(world, sz.paper_replicas, o.seed);
    data.emplace(paper_dataset(world, sz.paper_replicas));
    in.sweep = [&](std::size_t i) -> const core::RoutingVector& {
      expander->expand(i, scratch);
      return scratch;
    };
    in.total = expander->sweeps();
  } else {
    input_csv = o.inputs / "archive.csv";
  }
  in.data = data ? &*data : nullptr;

  std::vector<Verdict> reference;
  std::string report_reference;
  if (online) {
    reference = read_verdicts(o.inputs / "reference.txt");
    if (reference.size() != in.total) {
      throw std::runtime_error("reference verdict count mismatch");
    }
    // Shows the gate able to fail: every 7th reference verdict moves.
    if (o.perturb_reference) {
      for (std::size_t i = 0; i < reference.size(); i += 7) reference[i].mode += 1;
    }
  } else if (!o.report_reference.empty()) {
    report_reference = read_file(o.report_reference);
    if (o.perturb_reference) report_reference += "\n";
  }

  // groot_4min_resume resumes a store holding the first half of the
  // series, left by a watch over the first-half dataset (as an earlier
  // session would have left it).
  fs::path prepared;
  if (o.workload == Workload::kGroot) {
    const core::Dataset first =
        core::load_dataset_file((o.inputs / "groot_first.csv").string());
    prepared = o.work / "prepared";
    fs::remove_all(prepared);
    fs::create_directories(prepared);
    std::ostringstream discard;
    WatchSession s(first, first.series.size(), files_in(prepared), discard);
    for (std::size_t i = s.start(); i < first.series.size(); ++i) {
      s.step(i, first.series[i]);
    }
    s.finish();
    s.close();
  }

  // Passes: fixed work each, repeated while the next pass (predicted to
  // last as long as the previous one) still ends within the time budget.
  // Traced runs alternate untraced and traced passes.
  const std::size_t min_passes = o.workload == Workload::kPaper ? (o.trace ? 2 : 1) : 3;
  const std::size_t setup_repeats = o.workload == Workload::kPaper ? 5 : 3;
  const fs::path pass_dir = o.work / "pass";
  std::vector<PassResult> passes;
  std::string watch_lines;
  std::size_t attempted = 0, failed = 0;
  std::vector<double> yardstick_ms;
  const CpuTimes cpu0 = CpuTimes::sample();
  const auto t_run = Clock::now();
  double last_pass_s = 0.0;
  for (std::size_t p = 0;; ++p) {
    const auto t_pass = Clock::now();
    if (p >= min_passes && seconds_between(t_run, t_pass) + last_pass_s > o.seconds) {
      break;
    }
    // Every pass starts from the same heap: freed memory goes back to the
    // kernel, so each pass faults its working set in afresh, as a new
    // process would.
    ::malloc_trim(0);
    const double yard_before = host_yardstick_ms();
    rusage ru0{};
    ::getrusage(RUSAGE_SELF, &ru0);
    g_traced_pass = o.trace && p % 2 == 1;
    obs::set_profiling(g_traced_pass);
    obs::set_tracing(g_traced_pass);
    // A traced pass sets up once, so its spans cover exactly its timed
    // intervals.
    PassResult r = online ? online_pass(in, prepared, reference, pass_dir,
                                        g_traced_pass ? 1 : setup_repeats, watch_lines)
                          : batch_pass(input_csv, report_reference, o.work);
    obs::set_profiling(false);
    obs::set_tracing(false);
    g_traced_pass = false;
    yardstick_ms.push_back(0.5 * (yard_before + host_yardstick_ms()));
    r.clock_scale = kYardstickReferenceMs / yardstick_ms.back();
    std::cout << "# pass " << p << (r.traced ? " (traced)" : "") << ": setup "
              << num(r.setup_cpu_s) << " s cpu / " << num(r.setup_wall_s)
              << " s wall, work " << num(r.work_cpu_s) << " s cpu / "
              << num(r.work_wall_s) << " s wall, failed " << r.failed << "/"
              << r.attempted << ", yardstick " << num(yardstick_ms.back()) << " ms";
    rusage ru1{};
    ::getrusage(RUSAGE_SELF, &ru1);
    const auto tv = [](const timeval& a, const timeval& b) {
      return static_cast<double>(b.tv_sec - a.tv_sec) +
             static_cast<double>(b.tv_usec - a.tv_usec) * 1e-6;
    };
    std::cout << " (user " << num(tv(ru0.ru_utime, ru1.ru_utime)) << " s, sys "
              << num(tv(ru0.ru_stime, ru1.ru_stime)) << " s, minor faults "
              << ru1.ru_minflt - ru0.ru_minflt << ")\n";
    attempted += r.attempted;
    failed += r.failed;
    passes.push_back(std::move(r));
    last_pass_s = seconds_between(t_pass, Clock::now());
  }
  const double run_s = seconds_between(t_run, Clock::now());
  const CpuTimes cpu1 = CpuTimes::sample();

  // Checks on the final state: Φ samples against the scalar reference,
  // and the resumed session's output against fenrirctl's.
  std::size_t phi_bad = 0;
  bool watch_match = true;
  if (online) {
    phi_bad = check_phi_samples(in, files_in(pass_dir).store,
                                o.workload == Workload::kPaper ? 6 : 32, o.seed);
    failed += phi_bad;
  }
  if (!o.watch_reference.empty()) {
    std::string want = read_file(o.watch_reference);
    if (o.perturb_reference && !want.empty()) want[want.size() / 2] ^= 1;
    watch_match = want == watch_lines;
    if (!watch_match) {
      write_file(o.work / "watch.mismatch", watch_lines);
      std::istringstream a(want), b(watch_lines);
      std::string la, lb;
      std::size_t differing = 0;
      for (;;) {
        const bool ga = static_cast<bool>(std::getline(a, la));
        const bool gb = static_cast<bool>(std::getline(b, lb));
        if (!ga && !gb) break;
        if (!ga || !gb || la != lb) ++differing;
      }
      failed += std::max<std::size_t>(differing, 1);
      std::cerr << "watch output differs from fenrirctl watch in " << differing
                << " lines\n";
    }
  }
  if (phi_bad) std::cerr << phi_bad << " sampled phi cells differ from scalar\n";
  fs::remove_all(pass_dir);
  fs::remove_all(prepared);

  // Run-level figures: medians over the untraced passes.
  std::vector<const PassResult*> plain, traced;
  for (const PassResult& r : passes) (r.traced ? traced : plain).push_back(&r);
  const auto med = [](const std::vector<const PassResult*>& ps,
                      const std::function<double(const PassResult&)>& f) {
    std::vector<double> v;
    for (const PassResult* r : ps) v.push_back(f(*r));
    return median(v);
  };
  const auto cpu_ms_per_obs = [](const PassResult& r) {
    return r.work_cpu_s * r.clock_scale * 1e3 / static_cast<double>(r.observations);
  };
  const auto obs_per_s = [](const PassResult& r) {
    return static_cast<double>(r.observations) / r.work_wall_s;
  };
  const auto q_ms = [](double q, bool cpu) {
    return [q, cpu](const PassResult& r) {
      return cpu ? quantile(r.verdict_cpu_s, q) * r.clock_scale * 1e3
                 : quantile(r.verdict_wall_s, q) * 1e3;
    };
  };

  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "# host: {\"nproc\": " << hw << ", \"simd_tier\": \""
            << core::simd::tier_name(core::simd::active_tier()) << "\", \"pool\": \""
            << (hw > 0 ? hw - 1 : 0) << " helpers + caller\", \"store_fs\": \""
            << filesystem_name(o.work) << "\", \"build_type\": \""
            << obs::build_info().build_type << "\", \"steal_share\": "
            << num(cpu1.total > cpu0.total
                       ? (cpu1.steal - cpu0.steal) / (cpu1.total - cpu0.total)
                       : 0.0)
            << ", \"yardstick_ms\": " << num(median(yardstick_ms)) << "}\n";
  std::cout << "# workload " << o.workload_name << " seed " << o.seed
            << (o.tiny ? " (tiny)" : "") << ": " << passes.size() << " passes ("
            << traced.size() << " traced) in " << num(run_s) << " s, "
            << passes.front().observations << " observations per pass; input "
            << "CSV loaded in " << num(input_load_s) << " s\n";

  // Gated: CPU time at the reference clock (free of steal, device latency
  // and the host's frequency swings), and memory.
  const std::vector<Metric> e2e = {
      {"setup_s",
       med(plain, [](const PassResult& r) { return r.setup_cpu_s * r.clock_scale; }),
       "s"},
      {"cpu_ms_per_obs", med(plain, cpu_ms_per_obs), "ms"},
      {"verdict_cpu_p50_ms", med(plain, q_ms(0.5, true)), "ms"},
      {"peak_rss_mb", med(plain, [](const PassResult& r) { return r.peak_rss_mb; }), "MB"},
  };
  // Wall clock, as an operator sees it on this host, and raw CPU time.
  std::vector<Metric> wall = {
      {"setup_cpu_raw_s", med(plain, [](const PassResult& r) { return r.setup_cpu_s; }),
       "s"},
      {"cpu_ms_per_obs_raw", med(plain, [](const PassResult& r) {
         return r.work_cpu_s * 1e3 / static_cast<double>(r.observations);
       }),
       "ms"},
      {"setup_wall_s", med(plain, [](const PassResult& r) { return r.setup_wall_s; }), "s"},
      {"obs_per_s", med(plain, obs_per_s), "1/s"},
      {"verdict_p50_ms", med(plain, q_ms(0.5, false)), "ms"},
  };
  if (online) {
    // The highest percentile with at least ten verdicts beyond it.
    const std::size_t per_pass = passes.front().observations;
    if (per_pass >= 1000) {
      wall.push_back({"verdict_p99_ms", med(plain, q_ms(0.99, false)), "ms"});
    } else if (per_pass >= 100) {
      wall.push_back({"verdict_p90_ms", med(plain, q_ms(0.90, false)), "ms"});
    }
    wall.push_back({"store_mb", passes.back().store_mb, "MB"});
  }
  print_table("end-to-end, gated: CPU time at the reference clock, memory "
              "(medians over untraced passes)",
              e2e);
  print_table("end-to-end, raw CPU time and wall clock (medians over untraced passes)",
              wall);

  std::vector<Metric> json_metrics = e2e;
  if (o.trace) {
    const LayerTable lt = layer_table();
    double traced_wall = 0.0;
    for (const PassResult* r : traced) traced_wall += r->setup_wall_s + r->work_wall_s;
    const double n_traced = static_cast<double>(std::max<std::size_t>(traced.size(), 1));
    const auto calls = [&](const std::string& name) {
      const auto it = g_call_seconds.find(name);
      return it == g_call_seconds.end() ? std::vector<double>{} : it->second;
    };
    const auto call_s = [&](const std::string& name) { return sum(calls(name)) / n_traced; };
    const auto p50_ms = [&](const std::string& name) {
      return quantile(calls(name), 0.5) * 1e3;
    };
    const auto max_ms = [&](const std::string& name) {
      const std::vector<double> v = calls(name);
      return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()) * 1e3;
    };
    const auto node_s = [&](const std::string& name) {
      const auto it = lt.total_s.find(name);
      return it == lt.total_s.end() ? 0.0 : it->second / n_traced;
    };
    const auto count = [&](const std::string& name, const char* unit) {
      return Metric{name, med(traced, [&](const PassResult& r) {
                              const auto it = r.counts.find(name);
                              return it == r.counts.end() ? 0.0 : it->second;
                            }),
                    unit};
    };
    const auto share = [&](const std::string& layer) {
      const auto it = lt.self_s.find(layer);
      return it == lt.self_s.end() || traced_wall <= 0 ? 0.0 : it->second / traced_wall;
    };
    const double append_s =
        online ? call_s("core.distance_matrix.append") : node_s("phi_matrix");
    const double load_s = online ? input_load_s : call_s("core.dataset_io.load");
    const double input_mb = static_cast<double>(file_bytes(input_csv)) / 1e6;
    const double untraced_cost = med(plain, cpu_ms_per_obs);
    const double traced_cost = med(traced, cpu_ms_per_obs);
    // Every layer metric by name; a layer the workload never calls reads
    // 0. Times are per traced pass, counts are medians over traced passes.
    const std::vector<Metric> table = {
        {"core.dataset_io.load_s", load_s, "s"},
        {"core.dataset_io.mb_per_s", load_s > 0 ? input_mb / load_s : 0.0, "MB/s"},
        count("core.dataset_io.rss_growth_mb", "MB"),
        {"core.cleaning.interpolate_s", call_s("core.cleaning.interpolate"), "s"},
        {"core.cleaning.micro_s", call_s("core.cleaning.micro"), "s"},
        count("core.cleaning.cells_filled", "count"),
        {"core.pipeline.phi_matrix_s", node_s("phi_matrix"), "s"},
        {"core.pipeline.hac_s", node_s("hac_clustering"), "s"},
        {"core.pipeline.event_detection_s", node_s("event_detection"), "s"},
        {"core.pipeline.report_s", call_s("core.pipeline.report"), "s"},
        {"core.distance_matrix.append_ms_p50",
         online ? p50_ms("core.distance_matrix.append")
                : append_s * 1e3 / static_cast<double>(passes.front().observations),
         "ms"},
        {"core.distance_matrix.append_s", append_s, "s"},
        {"core.distance_matrix.repin_s", call_s("core.distance_matrix.repin"), "s"},
        count("core.distance_matrix.rows_delta", "count"),
        count("core.distance_matrix.rows_kernel", "count"),
        count("core.distance_matrix.anchor_probes", "count"),
        count("core.distance_matrix.delta_share", "ratio"),
        count("core.parallel.jobs", "count"),
        count("core.parallel.imbalance_ratio", "ratio"),
        {"core.modebook.observe_ms_p50", p50_ms("core.modebook.observe"), "ms"},
        {"core.modebook.observe_s", call_s("core.modebook.observe"), "s"},
        count("core.modebook.scan_length_mean", "count"),
        count("core.modebook.modes", "count"),
        {"core.modebook.restore_s", call_s("core.modebook.restore"), "s"},
        {"io.segment_store.load_s", call_s("io.segment_store.load"), "s"},
        {"io.segment_store.spill_ms_p50", p50_ms("io.segment_store.spill"), "ms"},
        {"io.segment_store.spill_s", call_s("io.segment_store.spill"), "s"},
        {"io.segment_store.flush_ms_p50", p50_ms("io.segment_store.flush"), "ms"},
        {"io.segment_store.flush_ms_max", max_ms("io.segment_store.flush"), "ms"},
        count("io.segment_store.flushes", "count"),
        count("io.segment_store.seals", "count"),
        count("io.segment_store.bytes_per_obs", "B"),
        {"io.segment_store.close_s", call_s("io.segment_store.close"), "s"},
        {"obs.journal.append_s", call_s("obs.journal.append"), "s"},
        {"obs.status_board.publish_s", call_s("obs.status_board.publish"), "s"},
        {"obs.metrics_window.sample_s", call_s("obs.metrics_window.sample"), "s"},
        count("obs.lineage.records", "count"),
        count("obs.events.emitted", "count"),
        count("obs.events.suppressed", "count"),
        count("obs.logs.bytes_per_obs", "B"),
        count("obs.journal.write_errors", "count"),
        count("obs.lineage.flush_errors", "count"),
        // Closing the store follows the timed work, so its span is not
        // part of the covered time.
        {"trace.unattributed_share",
         traced_wall > 0 ? std::max(0.0, 1.0 - (lt.top_level_s -
                                                 node_s("io.segment_store.close") *
                                                     n_traced) /
                                                    traced_wall)
                         : 0.0,
         "share"},
        {"trace.overhead", untraced_cost > 0 ? traced_cost / untraced_cost : 0.0, "ratio"},
    };
    print_table("per-layer table (traced passes)", table);
    std::vector<Metric> shares;
    for (const char* layer : {"core.dataset_io", "core.cleaning", "core.pipeline",
                              "core.distance_matrix", "core.modebook",
                              "io.segment_store", "obs", "cli"}) {
      shares.push_back({std::string(layer) + ".share", share(layer), "share"});
    }
    print_table("self time per layer, as a share of the traced passes' timed wall time",
                shares);
    obs::write_trace_json_file((o.work / "trace.json").string());
    std::ofstream profile(o.work / "profile.txt");
    obs::write_profile(profile);
    // The JSON carries what every workload measures: a layer some
    // workload never calls would read a constant 0 s there. So: the
    // shares, the exact counts and ratios, and the times that are
    // measured on every workload.
    json_metrics = shares;
    for (const Metric& m : table) {
      const bool time = m.unit == "s" || m.unit == "ms" || m.unit == "MB/s";
      if (!time || m.name == "core.dataset_io.load_s" ||
          m.name == "core.dataset_io.mb_per_s" ||
          m.name == "core.distance_matrix.append_s" ||
          m.name == "core.distance_matrix.append_ms_p50") {
        json_metrics.push_back(m);
      }
    }
  }
  const bool correct = failed == 0 && watch_match;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(json_metrics) << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_options(argc, argv);
    if (o.command == "gen") return cmd_gen(o);
    if (o.command == "run") return cmd_run(o);
    std::cerr << "e2e_bench: unknown command " << o.command << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 1;
  }
}
