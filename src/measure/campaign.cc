#include "measure/campaign.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "io/csv.h"
#include "obs/events.h"
#include "obs/journal.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/metrics_window.h"
#include "obs/span.h"
#include "obs/status_board.h"

namespace fenrir::measure {

namespace {

// v2: report rows carry the floor each sweep was judged against, and an
// optional "floor" row serializes the adaptive EWMA state.
constexpr const char* kMagic = "#fenrir-campaign-checkpoint";
constexpr const char* kVersion = "v2";

struct Metrics {
  obs::Counter& sweeps;
  obs::Counter& probes;
  obs::Counter& retries;
  obs::Counter& retried_out;
  obs::Counter& breaker_trips;
  obs::Counter& breaker_skips;
  obs::Counter& low_coverage;
  obs::Counter& disagreements;
  obs::Counter& resumes;
  obs::Gauge& coverage;
  obs::Gauge& confidence;
};

Metrics& metrics() {
  static Metrics m{
      obs::registry().counter("fenrir_campaign_sweeps_total",
                              "campaign sweeps completed"),
      obs::registry().counter("fenrir_campaign_probes_total",
                              "campaign first-attempt probes"),
      obs::registry().counter("fenrir_campaign_retries_total",
                              "campaign retry probes"),
      obs::registry().counter("fenrir_campaign_retried_out_total",
                              "targets that exhausted their retry budget"),
      obs::registry().counter("fenrir_campaign_breaker_trips_total",
                              "circuit breakers opened"),
      obs::registry().counter("fenrir_campaign_breaker_skips_total",
                              "probes skipped because a breaker was open"),
      obs::registry().counter("fenrir_campaign_low_coverage_sweeps_total",
                              "sweeps emitted invalid: below coverage floor"),
      obs::registry().counter("fenrir_campaign_quorum_disagreements_total",
                              "targets where probers disagreed"),
      obs::registry().counter("fenrir_campaign_resumes_total",
                              "campaigns resumed from a checkpoint"),
      obs::registry().gauge("fenrir_campaign_coverage",
                            "last sweep's answered/targets"),
      obs::registry().gauge("fenrir_campaign_confidence",
                            "last sweep's quorum agreement"),
  };
  return m;
}

std::uint64_t parse_u64_field(const std::string& text, const char* what) {
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw CampaignError(std::string("checkpoint: bad ") + what + ": " + text);
  }
  return out;
}

std::int64_t parse_i64_field(const std::string& text, const char* what) {
  std::int64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw CampaignError(std::string("checkpoint: bad ") + what + ": " + text);
  }
  return out;
}

// Doubles in checkpoints use C99 hexfloats: exact round-trip, so a
// resumed campaign's floor state is bit-identical to the saved one.
std::string render_hexdouble(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

double parse_hexdouble(const std::string& text, const char* what) {
  char* end = nullptr;
  const double out = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || text.empty()) {
    throw CampaignError(std::string("checkpoint: bad ") + what + ": " + text);
  }
  return out;
}

}  // namespace

QuorumMerge merge_quorum(std::span<const core::RoutingVector> views) {
  if (views.empty()) throw CampaignError("merge_quorum: no views");
  const std::size_t n = views.front().assignment.size();
  for (const auto& v : views) {
    if (v.assignment.size() != n) {
      throw CampaignError("merge_quorum: views disagree on network count");
    }
  }
  QuorumMerge out;
  out.vector.time = views.front().time;
  out.vector.valid = views.front().valid;
  out.vector.assignment.assign(n, core::kUnknownSite);
  std::size_t with_votes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // Majority among known labels; ties break to the smallest SiteId so
    // the merge is deterministic regardless of view order.
    std::map<core::SiteId, std::size_t> votes;
    for (const auto& v : views) {
      const core::SiteId s = v.assignment[i];
      if (s != core::kUnknownSite) ++votes[s];
    }
    if (votes.empty()) continue;
    ++with_votes;
    auto best = votes.begin();
    for (auto it = votes.begin(); it != votes.end(); ++it) {
      if (it->second > best->second) best = it;
    }
    out.vector.assignment[i] = best->first;
    if (votes.size() > 1) ++out.disagreements;
  }
  // No network carried any known vote: agreement over an empty set is
  // undefined, and 1.0 would let a silent lone prober masquerade as
  // consensus. Report NaN explicitly (pinned in chaos_campaign_test).
  out.confidence =
      with_votes == 0 ? std::numeric_limits<double>::quiet_NaN()
                      : 1.0 - static_cast<double>(out.disagreements) /
                                  static_cast<double>(with_votes);
  return out;
}

Campaign::Campaign(std::vector<const TargetProber*> probers,
                   CampaignConfig config)
    : probers_(std::move(probers)),
      config_(config),
      targets_(probers_.empty() ? 0 : probers_.front()->target_count()),
      schedule_([&]() -> SweepSchedule {
        if (probers_.empty() || probers_.front() == nullptr) {
          throw CampaignError("Campaign: no probers");
        }
        if (probers_.front()->target_count() == 0) {
          throw CampaignError("Campaign: prober has no targets");
        }
        if (config.packets_per_second <= 0) {
          throw CampaignError("Campaign: packets_per_second must be > 0");
        }
        if (config.retry.max_attempts < 1) {
          throw CampaignError("Campaign: retry.max_attempts must be >= 1");
        }
        return SweepSchedule(probers_.front()->target_count(),
                             config.packets_per_second, 1, config.start,
                             config.idle_gap);
      }()),
      clock_(config.start) {
  for (const TargetProber* p : probers_) {
    if (p == nullptr) throw CampaignError("Campaign: null prober");
    if (p->target_count() != targets_) {
      throw CampaignError("Campaign: probers disagree on target count (" +
                          std::to_string(p->target_count()) + " vs " +
                          std::to_string(targets_) + ")");
    }
  }
  health_.assign(targets_, TargetHealth{});
  outcome_.assign(targets_, Outcome::kPending);
  assignment_.assign(targets_, core::kUnknownSite);
  AdaptiveFloor::Config floor_config = config_.adaptive.config;
  floor_config.initial = config_.coverage_floor;
  floor_ = AdaptiveFloor(floor_config);
}

double Campaign::current_floor() const noexcept {
  return config_.adaptive.enabled ? floor_.floor() : config_.coverage_floor;
}

int Campaign::effective_open_after() const noexcept {
  const int base = config_.breaker.open_after;
  if (!config_.adaptive.enabled ||
      floor_.samples() < config_.adaptive.config.warmup) {
    return base;
  }
  // At ambient EWMA coverage c a healthy target still misses ~(1-c) of
  // its sweeps, so the dark-sweep budget scales as 1/c: a campaign at
  // half coverage needs twice the consecutive misses before one target
  // is singled out as persistently dark.
  const double c = std::clamp(floor_.mean(), 0.05, 1.0);
  const int scaled = static_cast<int>(std::ceil(static_cast<double>(base) / c));
  return std::max(base, scaled);
}

ProbeReply Campaign::probe_slot(std::size_t index, core::TimePoint when) {
  const std::uint64_t key = probers_.front()->target_key(index);
  if (plan_ != nullptr && plan_->probe_lost(key, when)) {
    // The injected loss swallows the probe before any prober sees it —
    // even an unrouted verdict needs a packet to come back.
    return ProbeReply{core::kUnknownSite, ProbeStatus::kNoReply};
  }
  std::size_t known = 0;
  bool any_unrouted = false;
  // Majority among probers that answered; ties break to the smallest
  // SiteId (map iteration order) so quorum is deterministic.
  std::map<core::SiteId, std::size_t> votes;
  for (const TargetProber* p : probers_) {
    const ProbeReply r = p->probe(index, when);
    switch (r.status) {
      case ProbeStatus::kAnswered:
        ++known;
        ++votes[r.site];
        break;
      case ProbeStatus::kUnrouted:
        any_unrouted = true;
        break;
      case ProbeStatus::kNoReply:
        break;
    }
  }
  if (known > 0) {
    auto best = votes.begin();
    for (auto it = votes.begin(); it != votes.end(); ++it) {
      if (it->second > best->second) best = it;
    }
    if (votes.size() > 1) {
      ++tally_.disagreements;
      metrics().disagreements.inc();
    }
    return ProbeReply{best->first, ProbeStatus::kAnswered};
  }
  if (any_unrouted) {
    return ProbeReply{core::kUnknownSite, ProbeStatus::kUnrouted};
  }
  return ProbeReply{core::kUnknownSite, ProbeStatus::kNoReply};
}

void Campaign::begin_sweep() {
  outcome_.assign(targets_, Outcome::kPending);
  assignment_.assign(targets_, core::kUnknownSite);
  tally_ = SweepReport{};
  tally_.sweep = sweep_;
  tally_.targets = targets_;
  tally_.start = schedule_.probe_time(sweep_, 0);
  next_index_ = 0;
  in_sweep_ = true;
}

bool Campaign::run_current_sweep() {
  obs::Span span("campaign/sweep");
  clock_.advance_to(schedule_.probe_time(sweep_, next_index_ == targets_
                                                     ? targets_ - 1
                                                     : next_index_));
  for (; next_index_ < targets_; ++next_index_) {
    const std::size_t i = next_index_;
    if (plan_ != nullptr) {
      const auto kill = plan_->kill_index(sweep_, targets_, kills_fired_);
      if (kill && *kill == i) {
        ++kills_fired_;
        FENRIR_LOG(Warn)
                .field("sweep", sweep_)
                .field("index", i)
            << "campaign killed mid-sweep (fault plan)";
        return false;
      }
    }
    const core::TimePoint t = schedule_.probe_time(sweep_, i);
    clock_.advance_to(t);

    TargetHealth& h = health_[i];
    if (h.state == BreakerState::kOpen && sweep_ < h.reopen_sweep) {
      outcome_[i] = Outcome::kBroken;
      ++tally_.broken;
      metrics().breaker_skips.inc();
      continue;
    }
    // Closed, or open past cooldown: the latter is the half-open trial.
    metrics().probes.inc();
    const ProbeReply r = probe_slot(i, t);
    switch (r.status) {
      case ProbeStatus::kAnswered:
        outcome_[i] = Outcome::kAnswered;
        assignment_[i] = r.site;
        ++tally_.answered;
        break;
      case ProbeStatus::kUnrouted:
        outcome_[i] = Outcome::kUnrouted;
        ++tally_.unrouted;
        break;
      case ProbeStatus::kNoReply:
        outcome_[i] = Outcome::kRetrying;
        break;
    }
  }
  // A kill with fraction 1.0 lands here: after every first attempt but
  // before the retry waves.
  if (plan_ != nullptr) {
    const auto kill = plan_->kill_index(sweep_, targets_, kills_fired_);
    if (kill && *kill == targets_) {
      ++kills_fired_;
      FENRIR_LOG(Warn).field("sweep", sweep_)
          << "campaign killed between main pass and retries (fault plan)";
      return false;
    }
  }
  run_retry_waves();
  finish_sweep();
  return true;
}

void Campaign::run_retry_waves() {
  // Wave w starts backoff * multiplier^(w-1) after the previous pass
  // ends and probes the still-pending targets in index order at the
  // schedule's packet rate — retries consume simulated time exactly the
  // way first attempts do, they just spend the sweep's slack for it.
  core::TimePoint pass_end =
      tally_.start +
      static_cast<core::TimePoint>(schedule_.sweep_seconds()) + 1;
  double wait = static_cast<double>(config_.retry.backoff);
  for (int attempt = 1; attempt < config_.retry.max_attempts; ++attempt) {
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < targets_; ++i) {
      if (outcome_[i] == Outcome::kRetrying) pending.push_back(i);
    }
    if (pending.empty()) break;
    const core::TimePoint wave_start =
        pass_end + static_cast<core::TimePoint>(wait);
    for (std::size_t j = 0; j < pending.size(); ++j) {
      const std::size_t i = pending[j];
      const core::TimePoint t =
          wave_start + static_cast<core::TimePoint>(
                           static_cast<double>(j) /
                           config_.packets_per_second);
      clock_.advance_to(t);
      ++tally_.retries;
      metrics().retries.inc();
      const ProbeReply r = probe_slot(i, t);
      switch (r.status) {
        case ProbeStatus::kAnswered:
          outcome_[i] = Outcome::kAnswered;
          assignment_[i] = r.site;
          ++tally_.answered;
          break;
        case ProbeStatus::kUnrouted:
          outcome_[i] = Outcome::kUnrouted;
          ++tally_.unrouted;
          break;
        case ProbeStatus::kNoReply:
          break;  // stays kRetrying for the next wave
      }
    }
    pass_end = wave_start +
               static_cast<core::TimePoint>(
                   static_cast<double>(pending.size()) /
                   config_.packets_per_second) +
               1;
    wait *= config_.retry.backoff_multiplier;
  }
  for (std::size_t i = 0; i < targets_; ++i) {
    if (outcome_[i] == Outcome::kRetrying) {
      outcome_[i] = Outcome::kRetriedOut;
      ++tally_.retried_out;
      metrics().retried_out.inc();
    }
  }
  clock_.advance_to(pass_end);
  tally_.end = pass_end;
}

std::string Campaign::journal_entry(const SweepReport& r, bool valid) {
  std::ostringstream os;
  os << "{\"type\":\"sweep\",\"sweep\":" << r.sweep << ",\"start\":" << r.start
     << ",\"end\":" << r.end << ",\"targets\":" << r.targets
     << ",\"answered\":" << r.answered << ",\"retried_out\":" << r.retried_out
     << ",\"broken\":" << r.broken << ",\"unrouted\":" << r.unrouted
     << ",\"retries\":" << r.retries
     << ",\"disagreements\":" << r.disagreements
     << ",\"coverage\":" << obs::render_double(r.coverage())
     << ",\"floor\":" << obs::render_double(r.floor)
     << ",\"confidence\":" << obs::render_double(r.confidence())
     << ",\"valid\":" << (valid ? "true" : "false")
     << ",\"low_coverage\":" << (r.low_coverage ? "true" : "false")
     << ",\"collector_gap\":" << (r.collector_gap ? "true" : "false") << "}";
  return os.str();
}

void Campaign::finish_sweep() {
  // The floor judging this sweep comes from the sweeps BEFORE it — the
  // adaptive EWMA is only fed afterwards (and never from a flagged
  // sweep), so an observation cannot move its own goalposts and an
  // outage cannot teach the floor that darkness is normal.
  tally_.floor = current_floor();
  tally_.low_coverage = tally_.coverage() < tally_.floor;
  tally_.collector_gap =
      plan_ != nullptr && plan_->collector_down(tally_.start);

  core::RoutingVector v;
  v.time = tally_.start;
  if (tally_.collector_gap) {
    // The probes ran; the archive did not survive. Keep the timeline
    // slot (the paper's blank-region semantics), lose the data.
    v.assignment.assign(targets_, core::kUnknownSite);
    v.valid = false;
  } else {
    v.assignment = assignment_;
    v.valid = !tally_.low_coverage;
  }
  if (tally_.low_coverage) {
    metrics().low_coverage.inc();
    obs::event_bus().emit(
        obs::Severity::kWarn, "coverage_floor_breach",
        "\"sweep\":" + std::to_string(tally_.sweep) +
            ",\"coverage\":" + obs::render_double(tally_.coverage()) +
            ",\"floor\":" + obs::render_double(tally_.floor));
  }

  update_health();
  if (config_.adaptive.enabled && !tally_.low_coverage) {
    floor_.observe(tally_.coverage());
  }

  metrics().sweeps.inc();
  metrics().coverage.set(tally_.coverage());
  metrics().confidence.set(tally_.confidence());
  FENRIR_LOG(Debug)
          .field("sweep", tally_.sweep)
          .field("answered", tally_.answered)
          .field("retried_out", tally_.retried_out)
          .field("broken", tally_.broken)
          .field("unrouted", tally_.unrouted)
          .field("retries", tally_.retries)
          .field("valid", v.valid)
      << "campaign sweep";

  // Journal order within a sweep: breaker transitions (written by
  // update_health above) first, then the sweep summary — deterministic,
  // so the chaos prefix property holds line-for-line. The event stream
  // follows the same order (breaker events above, sweep events here),
  // so an event JSONL has its own prefix property by type sequence.
  if (journal_ != nullptr) journal_->append(journal_entry(tally_, v.valid));

  if (!v.valid) {
    // The sweep still produced a timeline slot — salvaged, not lost; the
    // analysis skips it but the record stays whole.
    obs::event_bus().emit(
        obs::Severity::kNotice, "sweep_salvaged",
        "\"sweep\":" + std::to_string(tally_.sweep) + ",\"reason\":\"" +
            (tally_.collector_gap ? "collector_gap" : "low_coverage") +
            "\"");
  }

  std::size_t breakers_open = 0;
  for (const TargetHealth& h : health_) {
    if (h.state == BreakerState::kOpen) ++breakers_open;
  }
  {
    std::ostringstream os;
    os << "{\"sweeps_completed\":" << (sweep_ + 1)
       << ",\"last_coverage\":" << obs::render_double(tally_.coverage())
       << ",\"last_confidence\":" << obs::render_double(tally_.confidence())
       << ",\"last_valid\":" << (v.valid ? "true" : "false")
       << ",\"breakers_open\":" << breakers_open
       << ",\"retries\":" << tally_.retries << "}";
    obs::status_board().publish("campaign", os.str());
  }
  // One windowed-metrics snapshot per sweep — the campaign's natural
  // cadence (rate-limited inside, so rapid simulated sweeps cannot
  // flood the history ring).
  obs::metrics_history().sample(false);

  series_.push_back(std::move(v));
  reports_.push_back(tally_);
  in_sweep_ = false;
  next_index_ = 0;
  ++sweep_;
}

void Campaign::update_health() {
  // A sweep that lost nearly everything indicts the campaign (or the
  // collector), not the targets: skip health bookkeeping so a global
  // outage cannot trip every breaker at once.
  if (tally_.low_coverage) return;
  for (std::size_t i = 0; i < targets_; ++i) {
    TargetHealth& h = health_[i];
    switch (outcome_[i]) {
      case Outcome::kAnswered:
      case Outcome::kUnrouted:
        // Unrouted is a crisp verdict, not a miss: the probe pipeline
        // works, the address space is simply empty.
        h.consecutive_misses = 0;
        if (h.state == BreakerState::kOpen) {
          h.state = BreakerState::kClosed;
          h.reason = BreakReason::kNone;
          h.reopen_sweep = 0;
          if (journal_ != nullptr) {
            journal_->append("{\"type\":\"breaker\",\"sweep\":" +
                             std::to_string(sweep_) + ",\"target\":" +
                             std::to_string(i) + ",\"state\":\"closed\"}");
          }
          obs::event_bus().emit(obs::Severity::kNotice, "breaker_close",
                                "\"sweep\":" + std::to_string(sweep_) +
                                    ",\"target\":" + std::to_string(i));
        }
        break;
      case Outcome::kRetriedOut: {
        ++h.consecutive_misses;
        const bool failed_trial =
            h.state == BreakerState::kOpen && sweep_ >= h.reopen_sweep;
        if (failed_trial ||
            (h.state == BreakerState::kClosed &&
             h.consecutive_misses >=
                 static_cast<std::uint32_t>(effective_open_after()))) {
          h.state = BreakerState::kOpen;
          h.reason = BreakReason::kPersistentlyDark;
          h.reopen_sweep = static_cast<std::uint32_t>(
              sweep_ + 1 + config_.breaker.cooldown_sweeps);
          ++h.trips;
          metrics().breaker_trips.inc();
          if (journal_ != nullptr) {
            journal_->append(
                "{\"type\":\"breaker\",\"sweep\":" + std::to_string(sweep_) +
                ",\"target\":" + std::to_string(i) +
                ",\"state\":\"open\",\"reason\":\"persistently_dark\"}");
          }
          obs::event_bus().emit(
              obs::Severity::kWarn, "breaker_open",
              "\"sweep\":" + std::to_string(sweep_) +
                  ",\"target\":" + std::to_string(i) +
                  ",\"reason\":\"persistently_dark\"");
        }
        break;
      }
      case Outcome::kBroken:
      case Outcome::kPending:
      case Outcome::kRetrying:
        break;
    }
  }
}

bool Campaign::advance(std::size_t sweep_count) {
  obs::Span span("campaign/run");
  while (sweep_ < sweep_count || in_sweep_) {
    if (!in_sweep_) begin_sweep();
    if (!run_current_sweep()) return false;
  }
  return true;
}

CampaignResult Campaign::run(std::size_t sweep_count) {
  CampaignResult out;
  out.interrupted = !advance(sweep_count);
  out.series = series_;
  out.reports = reports_;
  return out;
}

void Campaign::save_checkpoint(std::ostream& out) const {
  io::CsvWriter csv(out);
  csv.row(kMagic, kVersion);
  csv.row("targets", targets_, "probers", probers_.size());
  csv.row("position", sweep_, next_index_, in_sweep_ ? 1 : 0, kills_fired_);
  if (config_.adaptive.enabled) {
    csv.row("floor", render_hexdouble(floor_.mean()),
            render_hexdouble(floor_.variance()), floor_.samples());
  }
  if (in_sweep_) {
    csv.row("tallies", tally_.start, tally_.answered, tally_.retried_out,
            tally_.broken, tally_.unrouted, tally_.retries,
            tally_.disagreements);
    {
      // Outcome codes, one char per target (see enum Outcome).
      std::string codes(targets_, '0');
      for (std::size_t i = 0; i < targets_; ++i) {
        codes[i] = static_cast<char>('0' + static_cast<int>(outcome_[i]));
      }
      csv.row("outcomes", codes);
    }
    {
      std::vector<std::string> row{"sites"};
      row.reserve(targets_ + 1);
      for (const core::SiteId s : assignment_) {
        row.push_back(std::to_string(s));
      }
      csv.write_row(row);
    }
  }
  for (std::size_t i = 0; i < targets_; ++i) {
    const TargetHealth& h = health_[i];
    if (h.is_default()) continue;
    csv.row("health", i, h.consecutive_misses,
            static_cast<int>(h.state), h.reopen_sweep,
            static_cast<int>(h.reason), h.trips);
  }
  for (std::size_t k = 0; k < series_.size(); ++k) {
    const core::RoutingVector& v = series_[k];
    std::vector<std::string> row{"vector", std::to_string(v.time),
                                 v.valid ? "1" : "0"};
    row.reserve(targets_ + 3);
    for (const core::SiteId s : v.assignment) row.push_back(std::to_string(s));
    csv.write_row(row);
    const SweepReport& r = reports_[k];
    csv.row("report", r.sweep, r.start, r.end, r.targets, r.answered,
            r.retried_out, r.broken, r.unrouted, r.retries, r.disagreements,
            render_hexdouble(r.floor), r.low_coverage ? 1 : 0,
            r.collector_gap ? 1 : 0);
  }
}

void Campaign::load_checkpoint(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto rows = io::parse_csv(buffer.str());
  if (rows.size() < 3 || rows[0].size() < 2 || rows[0][0] != kMagic) {
    throw CampaignError("not a campaign checkpoint (bad magic)");
  }
  if (rows[0][1] != kVersion) {
    throw CampaignError("unsupported checkpoint version " + rows[0][1]);
  }
  if (rows[1].size() < 2 || rows[1][0] != "targets" ||
      parse_u64_field(rows[1][1], "target count") != targets_) {
    throw CampaignError(
        "checkpoint target count does not match this campaign (" +
        (rows[1].size() > 1 ? rows[1][1] : std::string("?")) + " vs " +
        std::to_string(targets_) + ")");
  }
  if (rows[2].size() != 5 || rows[2][0] != "position") {
    throw CampaignError("checkpoint: malformed position row");
  }

  // Reset, then replay the rows.
  sweep_ = parse_u64_field(rows[2][1], "sweep");
  next_index_ = parse_u64_field(rows[2][2], "index");
  in_sweep_ = rows[2][3] == "1";
  kills_fired_ = parse_u64_field(rows[2][4], "kill count");
  health_.assign(targets_, TargetHealth{});
  outcome_.assign(targets_, Outcome::kPending);
  assignment_.assign(targets_, core::kUnknownSite);
  tally_ = SweepReport{};
  floor_.restore(0.0, 0.0, 0);
  series_.clear();
  reports_.clear();

  if (in_sweep_) {
    tally_.sweep = sweep_;
    tally_.targets = targets_;
  }
  for (std::size_t r = 3; r < rows.size(); ++r) {
    const auto& row = rows[r];
    if (row.empty()) continue;
    const std::string& kind = row[0];
    if (kind == "tallies") {
      if (row.size() != 8 || !in_sweep_) {
        throw CampaignError("checkpoint: malformed tallies row");
      }
      tally_.start = parse_i64_field(row[1], "tally start");
      tally_.answered = parse_u64_field(row[2], "answered");
      tally_.retried_out = parse_u64_field(row[3], "retried_out");
      tally_.broken = parse_u64_field(row[4], "broken");
      tally_.unrouted = parse_u64_field(row[5], "unrouted");
      tally_.retries = parse_u64_field(row[6], "retries");
      tally_.disagreements = parse_u64_field(row[7], "disagreements");
    } else if (kind == "outcomes") {
      if (row.size() != 2 || row[1].size() != targets_) {
        throw CampaignError("checkpoint: malformed outcomes row");
      }
      for (std::size_t i = 0; i < targets_; ++i) {
        const int code = row[1][i] - '0';
        if (code < 0 || code > 5) {
          throw CampaignError("checkpoint: bad outcome code");
        }
        outcome_[i] = static_cast<Outcome>(code);
      }
    } else if (kind == "sites") {
      if (row.size() != targets_ + 1) {
        throw CampaignError("checkpoint: malformed sites row");
      }
      for (std::size_t i = 0; i < targets_; ++i) {
        assignment_[i] = static_cast<core::SiteId>(
            parse_u64_field(row[i + 1], "site id"));
      }
    } else if (kind == "floor") {
      if (row.size() != 4) {
        throw CampaignError("checkpoint: malformed floor row");
      }
      floor_.restore(parse_hexdouble(row[1], "floor mean"),
                     parse_hexdouble(row[2], "floor variance"),
                     parse_u64_field(row[3], "floor samples"));
    } else if (kind == "health") {
      if (row.size() != 7) {
        throw CampaignError("checkpoint: malformed health row");
      }
      const std::size_t i = parse_u64_field(row[1], "health index");
      if (i >= targets_) throw CampaignError("checkpoint: health index range");
      TargetHealth& h = health_[i];
      h.consecutive_misses =
          static_cast<std::uint32_t>(parse_u64_field(row[2], "misses"));
      h.state = static_cast<BreakerState>(parse_u64_field(row[3], "state"));
      h.reopen_sweep =
          static_cast<std::uint32_t>(parse_u64_field(row[4], "reopen"));
      h.reason = static_cast<BreakReason>(parse_u64_field(row[5], "reason"));
      h.trips = static_cast<std::uint32_t>(parse_u64_field(row[6], "trips"));
    } else if (kind == "vector") {
      if (row.size() != targets_ + 3) {
        throw CampaignError("checkpoint: malformed vector row");
      }
      core::RoutingVector v;
      v.time = parse_i64_field(row[1], "vector time");
      v.valid = row[2] == "1";
      v.assignment.reserve(targets_);
      for (std::size_t i = 0; i < targets_; ++i) {
        v.assignment.push_back(static_cast<core::SiteId>(
            parse_u64_field(row[i + 3], "vector site")));
      }
      series_.push_back(std::move(v));
    } else if (kind == "report") {
      if (row.size() != 14) {
        throw CampaignError("checkpoint: malformed report row");
      }
      SweepReport rep;
      rep.sweep = parse_u64_field(row[1], "report sweep");
      rep.start = parse_i64_field(row[2], "report start");
      rep.end = parse_i64_field(row[3], "report end");
      rep.targets = parse_u64_field(row[4], "report targets");
      rep.answered = parse_u64_field(row[5], "report answered");
      rep.retried_out = parse_u64_field(row[6], "report retried_out");
      rep.broken = parse_u64_field(row[7], "report broken");
      rep.unrouted = parse_u64_field(row[8], "report unrouted");
      rep.retries = parse_u64_field(row[9], "report retries");
      rep.disagreements = parse_u64_field(row[10], "report disagreements");
      rep.floor = parse_hexdouble(row[11], "report floor");
      rep.low_coverage = row[12] == "1";
      rep.collector_gap = row[13] == "1";
      reports_.push_back(rep);
    } else {
      throw CampaignError("checkpoint: unknown row kind: " + kind);
    }
  }
  if (series_.size() != reports_.size()) {
    throw CampaignError("checkpoint: series/report count mismatch");
  }
  clock_.advance_to(in_sweep_ ? tally_.start
                              : (sweep_ == 0 ? config_.start
                                             : reports_.empty()
                                                   ? config_.start
                                                   : reports_.back().end));
  metrics().resumes.inc();
  obs::event_bus().emit(obs::Severity::kNotice, "campaign_resumed",
                        "\"sweep\":" + std::to_string(sweep_) +
                            ",\"index\":" + std::to_string(next_index_) +
                            ",\"completed\":" +
                            std::to_string(series_.size()));
  FENRIR_LOG(Info)
          .field("sweep", sweep_)
          .field("index", next_index_)
          .field("completed", series_.size())
      << "campaign resumed from checkpoint";
}

void Campaign::save_checkpoint_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw CampaignError("cannot open " + path + " for writing");
  }
  save_checkpoint(out);
  if (!out) throw CampaignError("checkpoint write failed: " + path);
}

void Campaign::load_checkpoint_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw CampaignError("cannot open " + path);
  load_checkpoint(in);
}

}  // namespace fenrir::measure
