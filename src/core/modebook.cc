#include "core/modebook.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "obs/events.h"
#include "obs/lineage.h"
#include "obs/metrics.h"

namespace fenrir::core {

namespace {

obs::Histogram& scan_length_histogram() {
  static obs::Histogram& h = obs::registry().histogram(
      "fenrir_modebook_scan_length",
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024},
      "representatives scanned per ModeBook::observe before the best "
      "match was settled");
  return h;
}

obs::Counter& new_modes_counter() {
  static obs::Counter& c = obs::registry().counter(
      "fenrir_modebook_new_modes_total", "modes founded by observations");
  return c;
}

obs::Counter& recurrences_counter() {
  static obs::Counter& c = obs::registry().counter(
      "fenrir_modebook_recurrences_total",
      "observations that re-entered a mode other than the previous one");
  return c;
}

/// The runner-up must be this close to the winner (and above the match
/// threshold) before the match is flagged ambiguous.
constexpr double kAmbiguityMargin = 0.02;

}  // namespace

ModeBook::ModeBook(const Config& config, std::vector<double> weights)
    : config_(config),
      weights_(std::move(weights)),
      total_weight_(in_order_sum(weights_)) {}

ModeBook::Match ModeBook::observe(const RoutingVector& v) {
  Match out;
  if (!v.valid) {
    out.mode = history_.empty() ? 0 : history_.back();
    return out;
  }

  // Pack the observation once as a candidate row; every representative
  // comparison is then one packed kernel pass. The first pass tallies
  // the candidate against representative 0 and itself, which caches its
  // known count. If the vector founds a new mode the row stays;
  // otherwise it is popped again.
  packed_.append(v);
  const std::size_t candidate = packed_.rows() - 1;

  std::optional<std::size_t> best;
  double best_phi = -1.0;
  double second_phi = -1.0;
  std::size_t second = 0;
  std::size_t scanned = 0;
  MatchCounts best_counts;
  // Top-k candidates for the decision record, best first. Insertion
  // into a 4-slot array costs one compare per representative in the
  // common miss case — cheap next to the packed counts() pass.
  std::array<obs::DecisionCandidate, obs::kLineageTopK> top{};
  std::size_t top_count = 0;
  for (std::size_t m = 0; m < candidate; ++m) {
    ++scanned;
    // The same Φ the matrix computes: weighted when the dataset is.
    MatchCounts counts;
    double phi;
    if (weights_.empty()) {
      counts = packed_.counts(candidate, m);
      phi = phi_from_counts(counts, v.assignment.size(), config_.policy);
    } else {
      phi = phi_from_weighted(packed_.weighted_counts(
          m, candidate, weights_, config_.policy, total_weight_));
    }
    if (phi > best_phi) {
      second_phi = best_phi;
      second = best.value_or(0);
      best_phi = phi;
      best = m;
      best_counts = counts;
    } else if (phi > second_phi) {
      second_phi = phi;
      second = m;
    }
    if (top_count < top.size() || phi > top[top_count - 1].phi) {
      std::size_t at = std::min(top_count, top.size() - 1);
      while (at > 0 && phi > top[at - 1].phi) {
        top[at] = top[at - 1];
        --at;
      }
      top[at] = {m, phi};
      if (top_count < top.size()) ++top_count;
    }
    // A perfect match cannot be beaten, only tied — and a later tie
    // loses to the earlier mode under the strict > above.
    if (best_phi >= 1.0) break;
  }
  scan_length_histogram().observe(static_cast<double>(scanned));
  // The decision record tallies networks, weighted or not: a weighted
  // scan counts the winner once, and only when a record will be made.
  if (!weights_.empty() && best && obs::lineage().enabled()) {
    best_counts = packed_.counts(candidate, *best);
  }

  if (best && best_phi >= config_.match_threshold) {
    out.mode = *best;
    out.phi = best_phi;
    out.is_recurrence = !history_.empty() && history_.back() != *best;
    if (config_.adapt_representative) packed_.copy_row(*best, candidate);
    packed_.pop_back();
    if (out.is_recurrence) {
      recurrences_counter().inc();
      // Lazy fields: a long watch sees a recurrence per observation and
      // dedup suppresses most of them — render_double only for the kept.
      obs::event_bus().emit_with(
          obs::Severity::kNotice, "recurrence", [&] {
            std::string fields = "\"mode\":" + std::to_string(out.mode) +
                                 ",\"phi\":" + obs::render_double(out.phi);
            if (out.mode < last_seen_.size() && last_seen_[out.mode]) {
              fields += ",\"gap_seconds\":" +
                        std::to_string(v.time - *last_seen_[out.mode]);
            }
            return fields;
          });
    }
    // A close runner-up means the mode identity was nearly a coin flip —
    // worth an operator's eyes even though the earliest-mode tie rule
    // kept the decision deterministic.
    if (second_phi >= config_.match_threshold &&
        best_phi - second_phi < kAmbiguityMargin && second != *best) {
      obs::event_bus().emit(
          obs::Severity::kWarn, "ambiguous_match",
          "\"mode\":" + std::to_string(*best) +
              ",\"phi\":" + obs::render_double(best_phi) +
              ",\"runner_up\":" + std::to_string(second) +
              ",\"runner_up_phi\":" + obs::render_double(second_phi));
    }
  } else {
    out.mode = candidate;  // the candidate row stays in packed_
    out.phi = best_phi < 0 ? 0.0 : best_phi;
    out.is_new = true;
    new_modes_counter().inc();
    obs::event_bus().emit(obs::Severity::kNotice, "mode_created",
                          "\"mode\":" + std::to_string(out.mode) +
                              ",\"best_phi\":" + obs::render_double(out.phi) +
                              ",\"modes\":" +
                              std::to_string(mode_count()));
  }
  // Every verdict leaves a decision record (see CONTRIBUTING): the
  // struct is flat and the store renders JSON lazily, so the recording
  // cost is bench-gated within 5% of a recording-free observe.
  if (obs::LineageStore& lin = obs::lineage(); lin.enabled()) {
    obs::DecisionRecord rec;
    rec.obs_time = static_cast<std::int64_t>(v.time);
    rec.verdict = out.is_new          ? obs::Verdict::kNewMode
                  : out.is_recurrence ? obs::Verdict::kRecurrence
                                      : obs::Verdict::kRepeat;
    rec.mode = out.mode;
    rec.phi = out.phi;
    if (!out.is_new && out.mode < last_seen_.size() &&
        last_seen_[out.mode]) {
      rec.gap_seconds =
          static_cast<std::int64_t>(v.time - *last_seen_[out.mode]);
    }
    rec.networks = v.assignment.size();
    if (scanned > 0) {
      rec.matches = best_counts.matches;
      rec.mismatches = best_counts.mutual_known - best_counts.matches;
      rec.unknown = rec.networks - best_counts.mutual_known;
    }
    rec.scanned = scanned;
    rec.top = top;
    rec.top_count = static_cast<std::uint32_t>(top_count);
    lin.record(rec);
  }
  if (out.mode >= last_seen_.size()) last_seen_.resize(out.mode + 1);
  last_seen_[out.mode] = v.time;
  history_.push_back(out.mode);
  last_ = out;
  return out;
}

std::string ModeBook::status_json() const {
  std::string out = "{\"modes\":" + std::to_string(mode_count()) +
                    ",\"observations\":" + std::to_string(history_.size());
  if (last_) {
    out += ",\"last_mode\":" + std::to_string(last_->mode) +
           ",\"last_phi\":" + obs::render_double(last_->phi) +
           ",\"last_is_new\":" + (last_->is_new ? "true" : "false") +
           ",\"last_is_recurrence\":" +
           (last_->is_recurrence ? "true" : "false");
  }
  out += "}";
  return out;
}

RoutingVector ModeBook::representative(std::size_t mode) const {
  if (mode >= mode_count()) {
    throw std::out_of_range("ModeBook::representative");
  }
  RoutingVector v;
  v.assignment.resize(packed_.networks());
  for (std::size_t n = 0; n < v.assignment.size(); ++n) {
    v.assignment[n] = packed_.value_at(mode, n);
  }
  return v;
}

void ModeBook::restore(PackedSeries representatives,
                       std::vector<std::size_t> history,
                       std::span<const TimePoint> times) {
  for (const std::size_t mode : history) {
    if (mode >= representatives.rows()) {
      throw std::invalid_argument(
          "ModeBook::restore: history names mode " + std::to_string(mode) +
          " but only " + std::to_string(representatives.rows()) +
          " representatives were given");
    }
  }
  if (!times.empty() && times.size() != history.size()) {
    throw std::invalid_argument(
        "ModeBook::restore: " + std::to_string(times.size()) +
        " observation times for a history of " +
        std::to_string(history.size()));
  }
  packed_ = std::move(representatives);
  history_ = std::move(history);
  // Each mode was last seen at its last history entry's time; without
  // times the gaps restart unknown, and the first recurrence of each
  // mode omits its gap.
  last_seen_.assign(mode_count(), std::nullopt);
  for (std::size_t k = 0; k < times.size(); ++k) {
    last_seen_[history_[k]] = times[k];
  }
}

}  // namespace fenrir::core
