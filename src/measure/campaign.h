// fenrir::measure — a resilient measurement-campaign runner.
//
// Every prober in this directory models loss but nothing *recovers* from
// it: a lost probe is silently kUnknownSite and a killed campaign
// restarts from zero. Campaign wraps any prober (via the per-target
// TargetProber view) and adds the recovery discipline a months-long
// paper campaign actually needs:
//
//   * bounded retry with exponential backoff — unanswered targets are
//     re-probed in waves after the sweep's main pass, at the schedule's
//     packet rate, so retries cost simulated time, not magic;
//   * a per-target health tracker with a circuit breaker — targets that
//     retry out sweep after sweep stop being probed for a cooldown and
//     the reason is recorded (re-probing persistently dark blocks is how
//     real campaigns waste their probe budget);
//   * quorum merging — when several probers cover the same targets the
//     majority label wins and disagreement downgrades the sweep's
//     confidence;
//   * graceful degradation — every sweep emits a RoutingVector plus a
//     SweepReport whose buckets account for every target exactly
//     (answered + retried_out + broken + unrouted == targets); sweeps
//     below the coverage floor are marked invalid instead of poisoning
//     core::analyze();
//   * checkpoint/resume — the full campaign state serializes to a
//     dataset_io-style CSV, so a campaign killed mid-sweep (for real, or
//     by a chaos::FaultPlan) resumes at the interrupted target and
//     produces bit-identical output to an uninterrupted run.
//
// Determinism: probe instants come from SweepSchedule arithmetic and
// probers are pure functions of (target, instant), so a campaign is a
// pure function of its configuration — which is what makes the resume
// guarantee testable (tests/chaos_campaign_test.cc).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "core/time.h"
#include "core/vector.h"
#include "measure/adaptive_floor.h"
#include "measure/schedule.h"

namespace fenrir::obs {
class Journal;
}  // namespace fenrir::obs

namespace fenrir::measure {

class CampaignError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class ProbeStatus : std::uint8_t {
  kAnswered,  // got a catchment label
  kNoReply,   // timeout — dark target, transient loss, broken route
  kUnrouted,  // target in unrouted space: no retry will ever help
};

struct ProbeReply {
  core::SiteId site = core::kUnknownSite;
  ProbeStatus status = ProbeStatus::kNoReply;
};

/// Per-target view of a prober. The whole-sweep probers (verfploeter,
/// atlas, ednscs, traceroute) adapt to this with a lambda or a small
/// wrapper; implementations must be deterministic in (index, when).
class TargetProber {
 public:
  virtual ~TargetProber() = default;
  virtual std::size_t target_count() const = 0;
  /// Stable network key of target @p index (a /24 block, a VP id...).
  virtual std::uint64_t target_key(std::size_t index) const = 0;
  virtual ProbeReply probe(std::size_t index, core::TimePoint when) const = 0;
};

/// Lambda-backed TargetProber, the cheapest way to adapt anything.
class FnProber : public TargetProber {
 public:
  using Fn = std::function<ProbeReply(std::size_t, core::TimePoint)>;
  FnProber(std::vector<std::uint64_t> keys, Fn fn)
      : keys_(std::move(keys)), fn_(std::move(fn)) {
    if (!fn_) throw CampaignError("FnProber: null probe function");
  }
  std::size_t target_count() const override { return keys_.size(); }
  std::uint64_t target_key(std::size_t index) const override {
    return keys_.at(index);
  }
  ProbeReply probe(std::size_t index, core::TimePoint when) const override {
    return fn_(index, when);
  }

 private:
  std::vector<std::uint64_t> keys_;
  Fn fn_;
};

struct RetryPolicy {
  /// Total probes a target may receive per sweep (first attempt included).
  int max_attempts = 3;
  /// Simulated seconds between the main pass and the first retry wave.
  core::TimePoint backoff = 30;
  /// Each further wave waits backoff * multiplier^(wave-1).
  double backoff_multiplier = 2.0;
};

struct BreakerPolicy {
  /// Consecutive retried-out sweeps before the target's breaker opens.
  int open_after = 3;
  /// Sweeps skipped while open; then one half-open trial probe decides.
  std::size_t cooldown_sweeps = 2;
};

/// Opt-in adaptive coverage floor (adaptive_floor.h). When enabled, the
/// static coverage_floor only seeds the warmup; after that the floor
/// tracks the campaign's own accepted-sweep history (EWMA - k*sigma),
/// and the breaker's open_after threshold scales with the same signal:
/// at ambient EWMA coverage c, a target must miss ceil(open_after / c)
/// consecutive sweeps before its breaker trips — ambient loss is not
/// evidence against one target.
struct AdaptiveFloorPolicy {
  bool enabled = false;
  /// Tuning for the EWMA band; `initial` is overridden by the
  /// campaign's coverage_floor so the warmup matches the static path.
  AdaptiveFloor::Config config;
};

struct CampaignConfig {
  /// SweepSchedule discipline (the paper's 550 pps USC scan by default).
  double packets_per_second = 550.0;
  core::TimePoint start = 0;
  core::TimePoint idle_gap = 0;
  RetryPolicy retry;
  BreakerPolicy breaker;
  /// Sweeps with answered/targets below the floor are emitted
  /// valid = false. With adaptive.enabled this fraction only seeds the
  /// warmup; the floor then follows sweep history.
  double coverage_floor = 0.10;
  AdaptiveFloorPolicy adaptive;
};

/// Why a target's circuit breaker is open.
enum class BreakReason : std::uint8_t { kNone = 0, kPersistentlyDark = 1 };

enum class BreakerState : std::uint8_t { kClosed = 0, kOpen = 1 };

struct TargetHealth {
  std::uint32_t consecutive_misses = 0;
  BreakerState state = BreakerState::kClosed;
  /// First sweep allowed to send a half-open trial probe (when open).
  std::uint32_t reopen_sweep = 0;
  BreakReason reason = BreakReason::kNone;
  std::uint32_t trips = 0;

  bool is_default() const noexcept {
    return consecutive_misses == 0 && state == BreakerState::kClosed &&
           reopen_sweep == 0 && reason == BreakReason::kNone && trips == 0;
  }
};

/// Per-sweep coverage/confidence accounting. The four outcome buckets
/// partition the target set exactly; accounted() is the invariant the
/// chaos property test asserts under every fault plan.
struct SweepReport {
  std::size_t sweep = 0;
  core::TimePoint start = 0;
  core::TimePoint end = 0;  // after the last retry wave
  std::size_t targets = 0;
  std::size_t answered = 0;
  std::size_t retried_out = 0;
  std::size_t broken = 0;   // skipped: breaker open
  std::size_t unrouted = 0;
  std::size_t retries = 0;  // probes beyond the first attempt
  /// Targets where probers returned conflicting known labels.
  std::size_t disagreements = 0;
  /// The coverage floor this sweep was judged against (the static
  /// fraction, or the adaptive floor derived from earlier sweeps).
  double floor = 0.0;
  bool low_coverage = false;
  bool collector_gap = false;

  double coverage() const noexcept {
    return targets == 0
               ? 0.0
               : static_cast<double>(answered) / static_cast<double>(targets);
  }
  /// Quorum agreement among answered targets (1.0 for a lone prober).
  double confidence() const noexcept {
    return answered == 0 ? 1.0
                         : 1.0 - static_cast<double>(disagreements) /
                                     static_cast<double>(answered);
  }
  bool accounted() const noexcept {
    return answered + retried_out + broken + unrouted == targets;
  }
};

struct CampaignResult {
  /// One vector per completed sweep (time = sweep start). Invalid when
  /// below the coverage floor or inside a collector gap.
  std::vector<core::RoutingVector> series;
  std::vector<SweepReport> reports;
  /// True when a chaos::FaultPlan kill interrupted the run mid-sweep;
  /// save_checkpoint() then captures everything needed to resume.
  bool interrupted = false;
};

/// Merges independently collected vectors covering the same network
/// universe: per network, the majority known label wins (ties break to
/// the smallest SiteId); networks with conflicting known votes count as
/// disagreements and downgrade confidence. Time/validity come from the
/// first view.
struct QuorumMerge {
  core::RoutingVector vector;
  std::size_t disagreements = 0;
  /// 1 - disagreements / networks-with-known-votes. When NO network had
  /// any known vote (a lone prober that answered nothing), agreement is
  /// undefined and this is NaN — deliberately not 1.0, so silence can
  /// never be mistaken for consensus. Check with std::isnan.
  double confidence = 1.0;
};
QuorumMerge merge_quorum(std::span<const core::RoutingVector> views);

class Campaign {
 public:
  /// All probers must report the same target_count; keys come from the
  /// first. Probers and the optional fault plan must outlive the
  /// campaign. Throws CampaignError on an empty or mismatched set.
  Campaign(std::vector<const TargetProber*> probers, CampaignConfig config);

  /// Injects faults (loss bursts, outages, collector gaps, kills). Pass
  /// nullptr to disable. With no plan — or an empty one — the campaign
  /// is exactly the retry/breaker/coverage machinery, nothing else.
  void set_fault_plan(const chaos::FaultPlan* plan) noexcept {
    plan_ = plan;
  }

  /// Streams one JSONL entry per finished sweep (plus one per breaker
  /// transition) into @p journal — the write-ahead record a killed
  /// campaign leaves behind (obs/journal.h; schema in DESIGN.md §9).
  /// Pass nullptr to detach. The journal must outlive the campaign.
  void set_journal(obs::Journal* journal) noexcept { journal_ = journal; }

  /// The journal entry finish_sweep() would write for @p report —
  /// exposed so tests and `fenrirctl journal` replay against the exact
  /// writer-side format.
  static std::string journal_entry(const SweepReport& report, bool valid);

  /// Runs sweeps up to @p sweep_count (resuming mid-sweep if a
  /// checkpoint said so). The result carries the FULL accumulated
  /// series, so a resumed campaign returns the same result an
  /// uninterrupted one would. Never throws on injected faults.
  CampaignResult run(std::size_t sweep_count);

  /// Like run() but without materializing a result copy — the driver
  /// reads series()/reports() in place (measure::Federation advances
  /// members one epoch at a time this way). Returns false when a fault
  /// plan kill interrupted the run; state is left resumable.
  bool advance(std::size_t sweep_count);

  /// Serializes the complete campaign state (position, partial sweep,
  /// health table, finished series/reports) as dataset_io-style CSV.
  /// SiteIds are stored numerically: resume with the same site table.
  void save_checkpoint(std::ostream& out) const;
  void save_checkpoint_file(const std::string& path) const;

  /// Restores a checkpoint into a campaign constructed with the same
  /// probers and config. Throws CampaignError on malformed input or a
  /// target-count mismatch.
  void load_checkpoint(std::istream& in);
  void load_checkpoint_file(const std::string& path);

  std::size_t target_count() const noexcept { return targets_; }
  std::size_t next_sweep() const noexcept { return sweep_; }
  const chaos::FaultClock& clock() const noexcept { return clock_; }
  const TargetHealth& health(std::size_t index) const {
    return health_.at(index);
  }
  const SweepSchedule& schedule() const noexcept { return schedule_; }
  /// Finished sweeps so far, in place (what run() copies out).
  const std::vector<core::RoutingVector>& series() const noexcept {
    return series_;
  }
  const std::vector<SweepReport>& reports() const noexcept {
    return reports_;
  }
  /// The floor the NEXT sweep will be judged against.
  double current_floor() const noexcept;
  /// The breaker threshold in effect (scaled by ambient coverage when
  /// the adaptive floor is enabled).
  int effective_open_after() const noexcept;

 private:
  /// Per-target outcome within the current sweep.
  enum class Outcome : std::uint8_t {
    kPending = 0,   // not yet probed this sweep
    kAnswered = 1,
    kRetrying = 2,  // first attempt failed; queued for retry waves
    kRetriedOut = 3,
    kBroken = 4,    // skipped, breaker open
    kUnrouted = 5,
  };

  ProbeReply probe_slot(std::size_t index, core::TimePoint when);
  void begin_sweep();
  /// Runs the current sweep from next_index_. Returns false when a kill
  /// fired (state is left resumable), true when the sweep completed.
  bool run_current_sweep();
  void run_retry_waves();
  void finish_sweep();
  void update_health();

  std::vector<const TargetProber*> probers_;
  CampaignConfig config_;
  std::size_t targets_;
  SweepSchedule schedule_;
  const chaos::FaultPlan* plan_ = nullptr;
  obs::Journal* journal_ = nullptr;
  chaos::FaultClock clock_;

  // Campaign position.
  std::size_t sweep_ = 0;
  std::size_t next_index_ = 0;
  bool in_sweep_ = false;
  std::size_t kills_fired_ = 0;

  // Current-sweep working state (meaningful while in_sweep_).
  std::vector<Outcome> outcome_;
  std::vector<core::SiteId> assignment_;
  SweepReport tally_;

  // Cross-sweep state.
  std::vector<TargetHealth> health_;
  AdaptiveFloor floor_;
  std::vector<core::RoutingVector> series_;
  std::vector<SweepReport> reports_;
};

}  // namespace fenrir::measure
