// fenrir::obs — metrics registry: named counters, gauges, histograms.
//
// The second third of the observability subsystem (see log.h, span.h).
// Instrumented code holds a reference to a metric and bumps it with one
// relaxed atomic op; a process-wide Registry owns every metric by name
// and renders them on demand:
//
//   static obs::Counter& sent =
//       obs::registry().counter("fenrir_probes_sent_total", "probes sent");
//   sent.inc(hitlist.size());
//
// Exposition formats: Prometheus text (write_prometheus — the format
// every scraper understands), CSV (write_csv — spreadsheet-ready), and
// JSON (write_json — machine-readable perf trajectories; bench/micro_core
// emits BENCH_core.json through it).
//
// Concurrency contract: metric updates are lock-free atomics, safe from
// any thread (parallel_for workers included). Registration takes a mutex
// but callers cache the returned reference in a function-local static, so
// the hot path never locks. References stay valid for the process
// lifetime; reset() zeroes values but never invalidates references.
// Metrics are observation only — they must never feed back into analysis
// results (results stay bit-identical with metrics on or off).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fenrir::obs {

/// Shortest decimal form of @p x that still round-trips: keeps exposition
/// files small and their diffs stable. Shared by the metrics writers, the
/// sweep journal, and the trace exporter.
std::string render_double(double x);

/// Prometheus exposition escaping. HELP text escapes backslash and
/// newline; label values additionally escape the double quote. Applied
/// by write_prometheus — exposed so tests can pin the grammar.
std::string escape_help(std::string_view text);
std::string escape_label_value(std::string_view text);

/// Monotonically increasing count (events, probes, routes installed).
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time double (imbalance ratio, last cluster count). Stored as
/// bit-cast u64 so set/add are lock-free without std::atomic<double>.
class Gauge {
 public:
  void set(double x) noexcept {
    bits_.store(std::bit_cast<std::uint64_t>(x), std::memory_order_relaxed);
  }
  void add(double dx) noexcept {
    std::uint64_t old = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(
        old, std::bit_cast<std::uint64_t>(std::bit_cast<double>(old) + dx),
        std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<std::uint64_t> bits_{std::bit_cast<std::uint64_t>(0.0)};
};

/// Fixed-bucket histogram: cumulative-style buckets over caller-chosen
/// upper bounds plus an implicit +Inf bucket. Used for latencies; spans
/// record seconds into one (see span.h). Quantiles are bucket-resolution
/// estimates (the upper bound of the bucket the quantile falls in),
/// which is what Prometheus' histogram_quantile computes too.
class Histogram {
 public:
  /// @p upper_bounds must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double x) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept {
    return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
  }
  /// Estimated quantile, q in [0,1]. Returns 0 when empty; the last
  /// finite bound when the quantile lands in the +Inf bucket.
  double quantile(double q) const noexcept;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Count in bucket i (i == bounds().size() is the +Inf bucket).
  std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Default bucket ladder for durations in seconds: 1 µs .. 100 s in
  /// 1/2.5/5 decade steps.
  static std::vector<double> duration_bounds();

  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds+1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{std::bit_cast<std::uint64_t>(0.0)};
};

/// An ordered label set, e.g. {{"git_sha","9f61d0f"},{"build","Release"}}.
/// Order is preserved in exposition; the same name with the same labels
/// (in the same order) names the same metric.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Thread-safe name → metric registry with deterministic (sorted)
/// exposition order. Re-requesting a name returns the same metric;
/// requesting it as a different kind throws std::logic_error.
class Registry {
 public:
  Counter& counter(std::string_view name, std::string_view help = "");
  Gauge& gauge(std::string_view name, std::string_view help = "");
  Histogram& histogram(std::string_view name,
                       std::vector<double> upper_bounds,
                       std::string_view help = "");

  /// Labeled variants: one series per (name, labels) pair, rendered as
  /// name{key="value",...} with exposition-escaped values. All series of
  /// a family share one HELP/TYPE header (first help text wins).
  Counter& counter(std::string_view name, const Labels& labels,
                   std::string_view help = "");
  Gauge& gauge(std::string_view name, const Labels& labels,
               std::string_view help = "");

  /// Prometheus text exposition format: HELP/TYPE headers, histogram
  /// cumulative buckets with le labels, _sum and _count series.
  void write_prometheus(std::ostream& out) const;

  /// One metric per row: kind,name,field,value. Histograms expand to
  /// count/sum/p50/p95 rows.
  void write_csv(std::ostream& out) const;

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,
  /// p50,p95}}} — stable key order.
  void write_json(std::ostream& out) const;

  /// Zeroes every metric value. References handed out earlier remain
  /// valid (entries are never removed) — for tests and repeated benches.
  void reset();

  std::size_t size() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string family;  // metric name without the label block
    Labels labels;       // empty for plain metrics
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// The entry for @p name and @p labels, with its instrument; a new one
  /// is made whole under mu_ (@p upper_bounds only for a histogram).
  Entry& find_or_create(std::string_view name, const Labels& labels,
                        Kind kind, std::string_view help,
                        std::vector<double> upper_bounds);

  mutable std::mutex mu_;
  // Keyed by family plus the rendered label block, so labeled series of
  // one family are distinct entries with deterministic order.
  std::map<std::string, Entry, std::less<>> entries_;
  // Every series of a family must share one kind (the exposition format
  // has a single TYPE line per family).
  std::map<std::string, Kind, std::less<>> family_kind_;
};

/// The process-wide registry every instrumentation site uses.
Registry& registry();

}  // namespace fenrir::obs
