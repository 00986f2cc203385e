#include "obs/metrics.h"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/log.h"

namespace fenrir::obs {

std::string render_double(double x) {
  std::ostringstream out;
  out.precision(17);
  out << x;
  std::string s = out.str();
  // Try shorter representations that still round-trip.
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
  // Default-format can pick scientific for round values ("1e+01" for
  // 10), which leaks into window="10s"-style labels and JSON meant for
  // humans. Prefer plain fixed notation whenever it round-trips at no
  // greater length.
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

std::string escape_help(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string escape_label_value(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

namespace {

std::string render(double x) { return render_double(x); }

/// The exposition form of a label block, e.g. {a="x",b="y"}; empty
/// string for an empty label set. Doubles as the registry key suffix.
std::string render_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    out += escape_label_value(value);
    out += '"';
  }
  out += '}';
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: no buckets");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument("Histogram: bounds must strictly increase");
  }
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::observe(double x) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  const std::size_t i = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t old = sum_bits_.load(std::memory_order_relaxed);
  while (!sum_bits_.compare_exchange_weak(
      old, std::bit_cast<std::uint64_t>(std::bit_cast<double>(old) + x),
      std::memory_order_relaxed)) {
  }
}

double Histogram::quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const double rank = q * static_cast<double>(n);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    cumulative += bucket_count(i);
    if (static_cast<double>(cumulative) >= rank) {
      return i < bounds_.size() ? bounds_[i] : bounds_.back();
    }
  }
  return bounds_.back();
}

std::vector<double> Histogram::duration_bounds() {
  std::vector<double> bounds;
  for (double decade = 1e-6; decade < 1e3; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(decade * 2.5);
    bounds.push_back(decade * 5.0);
  }
  return bounds;
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(std::bit_cast<std::uint64_t>(0.0),
                  std::memory_order_relaxed);
}

Registry::Entry& Registry::find_or_create(std::string_view name,
                                          const Labels& labels, Kind kind,
                                          std::string_view help,
                                          std::vector<double> upper_bounds) {
  const std::string key = std::string(name) + render_labels(labels);
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.kind != kind) {
      throw std::logic_error("Registry: '" + key +
                             "' already registered as a different kind");
    }
    // Pre-registration (e.g. fenrirctl's catalog) may not know the help
    // text; let the instrumentation site fill it in later.
    if (it->second.help.empty() && !help.empty()) {
      it->second.help = std::string(help);
    }
    return it->second;
  }
  const auto family = family_kind_.find(name);
  if (family != family_kind_.end() && family->second != kind) {
    throw std::logic_error("Registry: family '" + std::string(name) +
                           "' already registered as a different kind");
  }
  Entry entry;
  entry.kind = kind;
  entry.family = std::string(name);
  entry.labels = labels;
  entry.help = std::string(help);
  // The instrument is made with its entry, under the lock, so neither a
  // racing first registration of the same name nor an exporter ever
  // sees an entry without one; a histogram's bad bounds throw before
  // anything is registered.
  switch (kind) {
    case Kind::kCounter: entry.counter = std::make_unique<Counter>(); break;
    case Kind::kGauge: entry.gauge = std::make_unique<Gauge>(); break;
    case Kind::kHistogram:
      entry.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
      break;
  }
  if (family == family_kind_.end()) {
    family_kind_.emplace(std::string(name), kind);
  }
  return entries_.emplace(key, std::move(entry)).first->second;
}

Counter& Registry::counter(std::string_view name, std::string_view help) {
  return counter(name, Labels{}, help);
}

Gauge& Registry::gauge(std::string_view name, std::string_view help) {
  return gauge(name, Labels{}, help);
}

Counter& Registry::counter(std::string_view name, const Labels& labels,
                           std::string_view help) {
  return *find_or_create(name, labels, Kind::kCounter, help, {}).counter;
}

Gauge& Registry::gauge(std::string_view name, const Labels& labels,
                       std::string_view help) {
  return *find_or_create(name, labels, Kind::kGauge, help, {}).gauge;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> upper_bounds,
                               std::string_view help) {
  return *find_or_create(name, Labels{}, Kind::kHistogram, help,
                         std::move(upper_bounds))
              .histogram;
}

void Registry::write_prometheus(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Series of one family must form one block under a single HELP/TYPE
  // header (the exposition grammar forbids interleaving), so group by
  // family first: plain "foo" and labeled "foo{...}" would otherwise be
  // split by an unrelated "foo_bar" in the sorted entry map.
  std::map<std::string, std::vector<const Entry*>, std::less<>> families;
  for (const auto& [key, e] : entries_) {
    families[e.family].push_back(&e);
  }
  for (const auto& [family, series] : families) {
    const Entry& first = *series.front();
    if (!first.help.empty()) {
      out << "# HELP " << family << ' ' << escape_help(first.help) << '\n';
    }
    switch (first.kind) {
      case Kind::kCounter: out << "# TYPE " << family << " counter\n"; break;
      case Kind::kGauge: out << "# TYPE " << family << " gauge\n"; break;
      case Kind::kHistogram:
        out << "# TYPE " << family << " histogram\n";
        break;
    }
    for (const Entry* entry : series) {
      const Entry& e = *entry;
      const std::string labels = render_labels(e.labels);
      switch (e.kind) {
        case Kind::kCounter:
          out << family << labels << ' ' << e.counter->value() << '\n';
          break;
        case Kind::kGauge:
          out << family << labels << ' ' << render(e.gauge->value()) << '\n';
          break;
        case Kind::kHistogram: {
          const Histogram& h = *e.histogram;
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < h.bounds().size(); ++i) {
            cumulative += h.bucket_count(i);
            out << family << "_bucket{le=\"" << render(h.bounds()[i])
                << "\"} " << cumulative << '\n';
          }
          out << family << "_bucket{le=\"+Inf\"} " << h.count() << '\n';
          out << family << "_sum " << render(h.sum()) << '\n';
          out << family << "_count " << h.count() << '\n';
          break;
        }
      }
    }
  }
}

void Registry::write_csv(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  out << "kind,name,field,value\n";
  for (const auto& [name, e] : entries_) {
    switch (e.kind) {
      case Kind::kCounter:
        out << "counter," << name << ",value," << e.counter->value() << '\n';
        break;
      case Kind::kGauge:
        out << "gauge," << name << ",value," << render(e.gauge->value())
            << '\n';
        break;
      case Kind::kHistogram: {
        const Histogram& h = *e.histogram;
        out << "histogram," << name << ",count," << h.count() << '\n';
        out << "histogram," << name << ",sum," << render(h.sum()) << '\n';
        out << "histogram," << name << ",p50," << render(h.quantile(0.50))
            << '\n';
        out << "histogram," << name << ",p95," << render(h.quantile(0.95))
            << '\n';
        break;
      }
    }
  }
}

void Registry::write_json(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto emit_kind = [&](Kind kind, const char* label, bool& first_kind) {
    if (!first_kind) out << ',';
    first_kind = false;
    out << '"' << label << "\":{";
    bool first = true;
    for (const auto& [name, e] : entries_) {
      if (e.kind != kind) continue;
      if (!first) out << ',';
      first = false;
      out << '"' << json_escape(name) << "\":";
      switch (kind) {
        case Kind::kCounter: out << e.counter->value(); break;
        case Kind::kGauge: out << render(e.gauge->value()); break;
        case Kind::kHistogram: {
          const Histogram& h = *e.histogram;
          out << "{\"count\":" << h.count() << ",\"sum\":" << render(h.sum())
              << ",\"p50\":" << render(h.quantile(0.50))
              << ",\"p95\":" << render(h.quantile(0.95)) << '}';
          break;
        }
      }
    }
    out << '}';
  };
  out << '{';
  bool first_kind = true;
  emit_kind(Kind::kCounter, "counters", first_kind);
  emit_kind(Kind::kGauge, "gauges", first_kind);
  emit_kind(Kind::kHistogram, "histograms", first_kind);
  out << "}\n";
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, e] : entries_) {
    switch (e.kind) {
      case Kind::kCounter: e.counter->reset(); break;
      case Kind::kGauge: e.gauge->reset(); break;
      case Kind::kHistogram: e.histogram->reset(); break;
    }
  }
}

std::size_t Registry::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

Registry& registry() {
  static Registry* instance = new Registry();  // never destroyed: metric
  return *instance;  // refs in static objects may outlive main's exit
}

}  // namespace fenrir::obs
