#include "obs/lineage.h"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "obs/metrics.h"
#include "obs/query.h"

namespace fenrir::obs {

namespace {

Counter& records_counter() {
  static Counter& c = registry().counter(
      "fenrir_decision_records_total",
      "decision records kept by the lineage store");
  return c;
}

Counter& evictions_counter() {
  static Counter& c = registry().counter(
      "fenrir_decision_evictions_total",
      "decision records evicted from the lineage ring");
  return c;
}

Counter& flush_errors_counter() {
  static Counter& c = registry().counter(
      "fenrir_decision_flush_errors_total",
      "lineage log appends that failed to reach the file");
  return c;
}

Histogram& runnerup_gap_histogram() {
  static Histogram& h = registry().histogram(
      "fenrir_decision_runnerup_phi_gap",
      {0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5},
      "phi margin between the winning mode and the runner-up per "
      "decision (small = nearly a coin flip)");
  return h;
}

double wall_clock_seconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

constexpr std::string_view kVerdictNames[] = {"new_mode", "recurrence",
                                              "repeat"};

/// Scans a number (integer or double, optionally negative) after
/// `"key":` in a flat JSON line. Returns the text, empty when absent.
std::string_view number_after(std::string_view line, std::string_view key,
                              std::size_t from = 0) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const std::size_t at = line.find(needle, from);
  if (at == std::string_view::npos) return {};
  std::size_t begin = at + needle.size();
  std::size_t end = begin;
  while (end < line.size() &&
         (line[end] == '-' || line[end] == '.' || line[end] == '+' ||
          line[end] == 'e' || line[end] == 'E' ||
          (line[end] >= '0' && line[end] <= '9'))) {
    ++end;
  }
  return line.substr(begin, end - begin);
}

std::optional<std::int64_t> int_after(std::string_view line,
                                      std::string_view key) {
  const std::string_view text = number_after(line, key);
  if (text.empty()) return std::nullopt;
  try {
    return std::stoll(std::string(text));
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<double> double_after(std::string_view line,
                                   std::string_view key,
                                   std::size_t from = 0) {
  const std::string_view text = number_after(line, key, from);
  if (text.empty()) return std::nullopt;
  try {
    return std::stod(std::string(text));
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<std::string> string_after(std::string_view line,
                                        std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  const std::size_t begin = at + needle.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string_view::npos) return std::nullopt;
  return std::string(line.substr(begin, end - begin));
}

}  // namespace

std::string_view verdict_name(Verdict verdict) {
  const auto i = static_cast<std::size_t>(verdict);
  return i < std::size(kVerdictNames) ? kVerdictNames[i] : "unknown";
}

std::optional<Verdict> parse_verdict(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kVerdictNames); ++i) {
    if (name == kVerdictNames[i]) return static_cast<Verdict>(i);
  }
  return std::nullopt;
}

std::string record_json(const DecisionRecord& r) {
  std::string out = "{\"id\":" + std::to_string(r.id) +
                    ",\"ts\":" + render_double(r.unix_time) +
                    ",\"time\":" + std::to_string(r.obs_time) +
                    ",\"verdict\":\"" + std::string(verdict_name(r.verdict)) +
                    "\",\"mode\":" + std::to_string(r.mode) +
                    ",\"phi\":" + render_double(r.phi);
  if (r.gap_seconds >= 0) {
    out += ",\"gap_seconds\":" + std::to_string(r.gap_seconds);
  }
  out += ",\"networks\":" + std::to_string(r.networks) +
         ",\"matches\":" + std::to_string(r.matches) +
         ",\"mismatches\":" + std::to_string(r.mismatches) +
         ",\"unknown\":" + std::to_string(r.unknown) +
         ",\"scanned\":" + std::to_string(r.scanned) + ",\"top\":[";
  for (std::uint32_t i = 0; i < r.top_count; ++i) {
    if (i) out += ',';
    out += "{\"mode\":" + std::to_string(r.top[i].mode) +
           ",\"phi\":" + render_double(r.top[i].phi) + "}";
  }
  out += "]";
  if (r.federated) {
    out += ",\"member\":";
    out += r.member == kLineageNoMember ? "-1" : std::to_string(r.member);
    out += ",\"staleness\":" + std::to_string(r.staleness) +
           ",\"disagreements\":" + std::to_string(r.disagreements);
  }
  out += "}";
  return out;
}

std::optional<DecisionRecord> parse_record_json(const std::string& line) {
  DecisionRecord r;
  const auto id = int_after(line, "id");
  const auto verdict_text = string_after(line, "verdict");
  if (!id || *id <= 0 || !verdict_text) return std::nullopt;
  const auto verdict = parse_verdict(*verdict_text);
  if (!verdict) return std::nullopt;
  r.id = static_cast<std::uint64_t>(*id);
  r.verdict = *verdict;
  if (const auto v = double_after(line, "ts")) r.unix_time = *v;
  if (const auto v = int_after(line, "time")) r.obs_time = *v;
  if (const auto v = int_after(line, "mode")) {
    r.mode = static_cast<std::uint64_t>(*v);
  } else {
    return std::nullopt;
  }
  if (const auto v = double_after(line, "phi")) r.phi = *v;
  if (const auto v = int_after(line, "gap_seconds")) r.gap_seconds = *v;
  if (const auto v = int_after(line, "networks")) {
    r.networks = static_cast<std::uint64_t>(*v);
  }
  if (const auto v = int_after(line, "matches")) {
    r.matches = static_cast<std::uint64_t>(*v);
  }
  if (const auto v = int_after(line, "mismatches")) {
    r.mismatches = static_cast<std::uint64_t>(*v);
  }
  if (const auto v = int_after(line, "unknown")) {
    r.unknown = static_cast<std::uint64_t>(*v);
  }
  if (const auto v = int_after(line, "scanned")) {
    r.scanned = static_cast<std::uint64_t>(*v);
  }

  // "top":[{"mode":..,"phi":..},...] — scan pairwise inside the array.
  // A line cut inside it (a kill mid-append) is torn.
  const std::size_t top_at = line.find("\"top\":[");
  if (top_at != std::string::npos) {
    const std::size_t top_end = line.find(']', top_at);
    if (top_end == std::string::npos) return std::nullopt;
    std::size_t cursor = top_at + 7;
    while (r.top_count < kLineageTopK && cursor < top_end) {
      const std::size_t obj = line.find('{', cursor);
      if (obj == std::string::npos || obj > top_end) break;
      const std::string_view view(line);
      const auto mode = parse_u64(number_after(view, "mode", obj));
      const auto phi = double_after(view, "phi", obj);
      if (!mode || !phi) break;
      r.top[r.top_count].mode = *mode;
      r.top[r.top_count].phi = *phi;
      ++r.top_count;
      cursor = line.find('}', obj);
      if (cursor == std::string::npos) break;
    }
  }

  if (const auto v = int_after(line, "member")) {
    r.federated = true;
    r.member = *v < 0 ? kLineageNoMember : static_cast<std::uint64_t>(*v);
    if (const auto s = int_after(line, "staleness")) {
      r.staleness = static_cast<std::uint64_t>(*s);
    }
    if (const auto d = int_after(line, "disagreements")) {
      r.disagreements = static_cast<std::uint64_t>(*d);
    }
  }
  return r;
}

LineageStore::LineageStore(const Config& config) : config_(config) {
  ring_.reserve(config_.capacity);
}

bool LineageStore::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return config_.capacity > 0;
}

void LineageStore::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  config_.capacity = capacity;
  ring_.clear();
  ring_.reserve(capacity);
}

void LineageStore::set_anchor_context(
    std::span<const std::size_t> /*chain*/) {}

void LineageStore::set_provenance_context(std::uint64_t member,
                                          std::uint64_t staleness,
                                          std::uint64_t disagreements) {
  std::lock_guard<std::mutex> lock(mu_);
  if (config_.capacity == 0) return;  // no record will consume it
  pending_provenance_ = true;
  pending_member_ = member;
  pending_staleness_ = staleness;
  pending_disagreements_ = disagreements;
}

void LineageStore::clear_context() {
  std::lock_guard<std::mutex> lock(mu_);
  pending_provenance_ = false;
}

std::uint64_t LineageStore::record(DecisionRecord record) {
  std::unique_lock<std::mutex> lock(mu_);
  if (config_.capacity == 0) {
    // Context set for a record that will never exist must not leak
    // into a later one after re-enabling.
    pending_provenance_ = false;
    return 0;
  }
  record.id = next_id_++;
  record.unix_time = wall_clock_seconds();
  if (pending_provenance_) {
    record.federated = true;
    record.member = pending_member_;
    record.staleness = pending_staleness_;
    record.disagreements = pending_disagreements_;
    pending_provenance_ = false;
  }

  // Ring insert (slot = (id-1) % capacity), counting evictions. Slots
  // ahead of the write cursor hold id-0 placeholders (possible after a
  // mid-stream set_capacity), so readers key on the stored id.
  const std::size_t slot = (record.id - 1) % config_.capacity;
  if (slot < ring_.size()) {
    if (ring_[slot].id != 0) {
      evicted_ += 1;
      evictions_counter().inc();
    }
    ring_[slot] = record;
  } else {
    ring_.resize(slot);  // id-0 placeholders, skipped on read
    ring_.push_back(record);
  }

  // Per-mode aggregates (the /explain substrate).
  ModeAggregate& agg = modes_[record.mode];
  ModeLineage& m = agg.lineage;
  if (m.visits == 0) m.first_seen = record.obs_time;
  m.visits += 1;
  m.last_seen = record.obs_time;
  m.last_phi = record.phi;
  if (record.verdict == Verdict::kRecurrence) {
    m.recurrences += 1;
    if (record.gap_seconds >= 0) {
      std::size_t bucket = kLineageGapBounds.size();
      for (std::size_t b = 0; b < kLineageGapBounds.size(); ++b) {
        if (record.gap_seconds <= kLineageGapBounds[b]) {
          bucket = b;
          break;
        }
      }
      m.gap_buckets[bucket] += 1;
    }
  }
  if (record.top_count >= 2 && record.top[0].mode == record.mode) {
    const std::uint64_t chaser = record.top[1].mode;
    const std::uint64_t count = ++agg.chasers[chaser];
    if (count > m.closest_confused_count ||
        (count == m.closest_confused_count && chaser < m.closest_confused)) {
      m.closest_confused = chaser;
      m.closest_confused_count = count;
    }
    auto runner = modes_.find(chaser);
    if (runner != modes_.end()) runner->second.lineage.runner_up += 1;
  }

  records_counter().inc();
  if (record.top_count >= 2) {
    runnerup_gap_histogram().observe(record.top[0].phi - record.top[1].phi);
  }

  // Lazy render: JSON exists only when someone consumes it.
  if (log_.is_open() || !sinks_.empty()) {
    const std::string json = record_json(record);
    if (log_.is_open()) {
      log_.append(json);
      if (log_.write_failed()) flush_errors_counter().inc();
    }
    for (DecisionSink* sink : sinks_) sink->consume(record, json);
  }
  return record.id;
}

namespace {

/// The largest record id in the log at @p path (0 for none), over the
/// lines read_journal would keep: a torn last line holds no record,
/// even when parse_record_json reads one from it. Unparseable lines
/// (interleaved non-lineage lines) are skipped.
std::uint64_t last_logged_id(const std::string& path) {
  std::uint64_t max_id = 0;
  for (const std::string& line : journal_lines(path)) {
    if (const auto r = parse_record_json(line)) {
      max_id = std::max(max_id, r->id);
    }
  }
  return max_id;
}

}  // namespace

bool LineageStore::open_log(const std::string& path, bool truncate) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!truncate) {
    // Appending to an existing log (a resumed run): continue the id
    // sequence after the last record already on disk, so the completed
    // file reads back as one gap-free decision sequence — the resume
    // half of the chaos prefix property.
    const std::uint64_t max_id = last_logged_id(path);
    if (max_id >= next_id_) next_id_ = max_id + 1;
  }
  return log_.open(path, truncate);
}

void LineageStore::cut_log(std::int64_t from, std::size_t keep) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!log_.is_open()) return;
  const std::string path = log_.path();
  log_.close();
  cut_journal(path, from, keep);
  // Ids continue after the last record kept, unless this process has
  // already recorded past it.
  std::uint64_t next = last_logged_id(path) + 1;
  for (const DecisionRecord& r : ring_) next = std::max(next, r.id + 1);
  next_id_ = next;
  log_.open(path);
}

void LineageStore::close_log() {
  std::lock_guard<std::mutex> lock(mu_);
  log_.close();
}

bool LineageStore::log_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_.is_open();
}

void LineageStore::add_sink(DecisionSink* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.push_back(sink);
}

void LineageStore::remove_sink(DecisionSink* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = sinks_.begin(); it != sinks_.end(); ++it) {
    if (*it == sink) {
      sinks_.erase(it);
      return;
    }
  }
}

std::vector<DecisionRecord> LineageStore::since(
    std::uint64_t after_id, std::optional<std::uint64_t> mode,
    std::optional<Verdict> verdict, std::size_t max_records) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DecisionRecord> out;
  if (ring_.empty()) return out;
  const std::uint64_t newest = next_id_ - 1;
  const std::uint64_t oldest =
      newest >= config_.capacity ? newest - config_.capacity + 1 : 1;
  for (std::uint64_t id = std::max(after_id + 1, oldest); id <= newest;
       ++id) {
    const DecisionRecord& r = ring_[(id - 1) % config_.capacity];
    if (r.id != id) continue;  // evicted before the slot existed
    if (mode && r.mode != *mode) continue;
    if (verdict && r.verdict != *verdict) continue;
    out.push_back(r);
    if (max_records != 0 && out.size() >= max_records) break;
  }
  return out;
}

std::uint64_t LineageStore::last_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_ - 1;
}

std::uint64_t LineageStore::oldest_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t oldest = 0;
  for (const DecisionRecord& r : ring_) {
    if (r.id != 0 && (oldest == 0 || r.id < oldest)) oldest = r.id;
  }
  return oldest;
}

std::uint64_t LineageStore::evicted_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

std::optional<ModeLineage> LineageStore::mode_lineage(
    std::uint64_t mode) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = modes_.find(mode);
  if (it == modes_.end()) return std::nullopt;
  return it->second.lineage;
}

std::vector<std::uint64_t> LineageStore::known_modes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> out;
  out.reserve(modes_.size());
  for (const auto& [mode, _] : modes_) out.push_back(mode);
  return out;
}

void LineageStore::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  modes_.clear();
  sinks_.clear();
  next_id_ = 1;
  evicted_ = 0;
  pending_provenance_ = false;
}

LineageStore& lineage() {
  // Leaked, never destroyed: verdict sites may record during static
  // destruction (same discipline as event_bus()).
  static LineageStore* store = new LineageStore();
  return *store;
}

}  // namespace fenrir::obs
