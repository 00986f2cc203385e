// fenrir::measure — a federated multi-prober campaign.
//
// One Campaign models one vantage point. The paper's recurring scans are
// federated in practice: several probers, each covering its own slice of
// the target list (with some deliberate overlap), each on its own
// schedule and its own imperfect clock, feeding one merge point that
// must keep producing a routing vector even while members fail.
// Federation is that merge point:
//
//   * each member is a full Campaign over a subset of the global target
//     list, with its own retry/breaker/floor discipline, its own
//     chaos::FaultPlan, and its own chaos::ClockModel — members stamp
//     observations in local time and the merge aligns them to
//     federation epochs through the model's inverse;
//   * every epoch the member views fold into one RoutingVector with
//     per-target provenance: which member's answer won, how stale it
//     is, and whether the fresh votes disagreed. Votes are weighted by
//     each member's own coverage history (an EWMA — a member that
//     answers 95% of its slice outvotes one limping at 40%), and
//     answers older than `staleness_bound` epochs age out entirely, so
//     a dead prober's last words cannot be served forever;
//   * a per-member health machine (healthy -> lagging -> dead ->
//     rejoined) driven by whether the member landed a valid sweep in
//     the epoch, with `prober_dead` / `prober_rejoined` events on the
//     bus and fenrir_federation_* metrics;
//   * the epoch-level coverage floor is adaptive (adaptive_floor.h):
//     "degraded" means outside the federation's own recent band, with
//     zero hand-tuned thresholds;
//   * checkpoint/resume over a directory (one CSV per member plus a
//     manifest). A federation killed mid-sweep in ANY member resumes to
//     bit-identical output: member state restores exactly, and the
//     merge fold is deterministically replayed from the restored member
//     series with all emission suppressed.
//
// Determinism: members advance in index order, one epoch at a time, and
// every merge rule breaks ties the same way (smallest SiteId, then
// smallest member index), so a federation is a pure function of its
// configuration — which is what the kill/resume and event-log-prefix
// properties in tests/measure_federation_test.cc pin down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "chaos/clock_model.h"
#include "core/distance_matrix.h"
#include "core/modebook.h"
#include "measure/adaptive_floor.h"
#include "measure/campaign.h"

namespace fenrir::measure {

class FederationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One member prober's slot in the federation.
struct MemberConfig {
  std::string name;
  /// Global target indices this member covers (subsets may overlap).
  std::vector<std::size_t> targets;
  /// The member's clock relative to federation (true) time.
  chaos::ClockModel clock;
  /// True seconds into each epoch at which this member's sweep begins.
  core::TimePoint start_offset = 0;
  /// Per-member campaign discipline. `start` and `idle_gap` are derived
  /// by the federation (the sweep period is locked to the epoch length);
  /// everything else — rate, retries, breakers, floors — is the
  /// member's own.
  CampaignConfig campaign;
  /// Optional per-member fault plan (outages, loss, kills). Must
  /// outlive the federation.
  const chaos::FaultPlan* faults = nullptr;
};

struct FederationConfig {
  /// Size of the merged target universe; member target indices must be
  /// below this.
  std::size_t global_targets = 0;
  /// Federation (true-time) start of epoch 0.
  core::TimePoint start = 0;
  /// True seconds per federation epoch; every member's sweep period is
  /// locked to this, so "one sweep per epoch" holds by construction.
  core::TimePoint epoch_length = 0;
  /// Epochs a member's last answer stays servable; beyond this it ages
  /// out and the target goes unserved rather than stale.
  std::size_t staleness_bound = 3;
  /// Consecutive lagging epochs before a member is declared dead.
  int dead_after = 2;
  /// Seeds the adaptive epoch floor's warmup (then the floor tracks the
  /// federation's own accepted-epoch history).
  double coverage_floor = 0.10;
  AdaptiveFloor::Config floor_tuning;
};

enum class MemberHealth : std::uint8_t {
  kHealthy = 0,
  kLagging = 1,   // missed (or flunked) the current epoch
  kDead = 2,      // dead_after consecutive lagging epochs
  kRejoined = 3,  // back from the dead this epoch; healthy next
};

const char* to_string(MemberHealth h) noexcept;

/// No member served this target this epoch.
inline constexpr std::size_t kNoMember = static_cast<std::size_t>(-1);

/// Where one merged target's label came from.
struct TargetProvenance {
  std::size_t member = kNoMember;
  /// Epochs since the serving member last answered this target (0 =
  /// fresh this epoch).
  std::size_t staleness = 0;
  /// Fresh votes from distinct members named distinct sites.
  bool disagreed = false;
};

/// One epoch's provenance, rolled up for the decision lineage plane:
/// who mostly served the merged vector, how stale its worst answer
/// was, and how many targets had split votes.
struct ProvenanceSummary {
  std::size_t member = kNoMember;  // dominant serving member
  std::size_t max_staleness = 0;
  std::size_t disagreements = 0;
};

/// Rolls up one epoch's FederationResult::provenance row. Dominant
/// member = the one serving the most targets (ties to the smaller
/// index, the federation's usual tie-break).
ProvenanceSummary summarize_provenance(
    std::span<const TargetProvenance> epoch);

/// Folds a federated series into the all-pairs Φ matrix through one
/// SimilarityMatrix::append_batch() and ALSO classifies every epoch
/// through @p book, recording full decision lineage: each observation's
/// DecisionRecord carries the anchor chain the fold's matrix used for
/// that row plus the epoch's provenance summary (when provided —
/// provenance[r] explains series[r]; shorter spans leave later epochs
/// without provenance rather than erroring). Returns the matrix an
/// append() loop builds; verdicts are identical to calling
/// book.observe() per epoch — lineage observes, never steers.
core::SimilarityMatrix fold_phi(
    std::span<const core::RoutingVector> series, core::ModeBook& book,
    std::span<const ProvenanceSummary> provenance,
    core::UnknownPolicy policy = core::UnknownPolicy::kPessimistic,
    std::vector<double> weights = {}, unsigned threads = 0);

/// Per-epoch accounting. served + unserved == targets, and
/// fresh + stale == served; aged_out counts unserved targets that DID
/// have an answer, just one too old to trust.
struct EpochReport {
  std::size_t epoch = 0;
  core::TimePoint start = 0;
  core::TimePoint end = 0;
  std::size_t targets = 0;
  std::size_t fresh = 0;
  std::size_t stale = 0;
  std::size_t aged_out = 0;
  std::size_t unserved = 0;
  std::size_t disagreements = 0;
  std::size_t members_healthy = 0;
  std::size_t members_lagging = 0;
  std::size_t members_dead = 0;
  /// The adaptive floor this epoch was judged against.
  double floor = 0.0;
  bool low_coverage = false;

  std::size_t served() const noexcept { return fresh + stale; }
  double coverage() const noexcept {
    return targets == 0
               ? 0.0
               : static_cast<double>(served()) / static_cast<double>(targets);
  }
};

struct FederationResult {
  /// One merged vector per epoch (time = epoch's true start; invalid
  /// when the epoch fell below the adaptive floor).
  std::vector<core::RoutingVector> series;
  std::vector<EpochReport> reports;
  /// provenance[e][g] explains series[e].assignment[g].
  std::vector<std::vector<TargetProvenance>> provenance;
  /// A member's fault plan killed the run mid-sweep;
  /// save_checkpoint_dir() then captures everything needed to resume.
  bool interrupted = false;
};

class Federation {
 public:
  /// @p prober is the shared ground-truth prober over the GLOBAL target
  /// list (each member sees only its slice of it, through its own
  /// clock). Prober, config and every member fault plan must outlive
  /// the federation. Throws FederationError on inconsistent members.
  Federation(const TargetProber& prober, FederationConfig config,
             std::vector<MemberConfig> members);
  ~Federation();
  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  /// Streams one JSONL entry per member per epoch plus one per epoch
  /// into @p journal. Pass nullptr to detach.
  void set_journal(obs::Journal* journal) noexcept { journal_ = journal; }

  /// Runs epochs up to @p epoch_count, resuming where a previous run
  /// (or a restored checkpoint) left off. The result carries the FULL
  /// accumulated series, so a resumed federation returns the same
  /// result an uninterrupted one would. Never throws on injected
  /// faults.
  FederationResult run(std::size_t epoch_count);

  /// Serializes the full federation state into @p dir (created if
  /// missing): federation.csv plus one member_<i>.csv per member.
  void save_checkpoint_dir(const std::string& dir) const;

  /// Restores a checkpoint saved by a federation with the same
  /// configuration: members restore exactly, then the merge fold is
  /// replayed (emission suppressed) so the in-memory state is
  /// bit-identical to the moment of the kill.
  void load_checkpoint_dir(const std::string& dir);

  /// The federation epoch containing true instant @p t (clamped to 0
  /// before the start).
  std::size_t epoch_of(core::TimePoint t) const noexcept;

  std::size_t member_count() const noexcept { return members_.size(); }
  std::size_t target_count() const noexcept { return config_.global_targets; }
  const Campaign& member(std::size_t i) const;
  MemberHealth member_health(std::size_t i) const;
  std::size_t epochs_done() const noexcept { return reports_.size(); }
  const std::vector<core::RoutingVector>& series() const noexcept {
    return series_;
  }
  const std::vector<EpochReport>& reports() const noexcept { return reports_; }
  const std::vector<std::vector<TargetProvenance>>& provenance()
      const noexcept {
    return provenance_;
  }
  /// The adaptive floor the NEXT epoch will be judged against.
  double current_floor() const noexcept { return floor_.floor(); }
  /// Voting weight member @p i carries right now (its coverage EWMA).
  double member_weight(std::size_t i) const;

  /// The journal entry the fold writes for @p report — exposed so tests
  /// replay against the exact writer-side format.
  static std::string journal_entry(const EpochReport& report);

 private:
  struct MemberState;  // member campaign + clock + freshness tables

  /// Advances every member through epoch `epochs_done()` and folds
  /// their views into one merged vector. Returns false when a member's
  /// fault plan killed the run (state is left resumable).
  bool step_epoch();
  /// Merges the member views for @p epoch: provenance, health, events,
  /// metrics. Pure fold over member series — replayable.
  void fold_epoch(std::size_t epoch);
  void update_member_health(std::size_t index, std::size_t epoch, bool fresh);

  FederationConfig config_;
  std::vector<std::unique_ptr<MemberState>> members_;
  obs::Journal* journal_ = nullptr;

  /// True while load_checkpoint_dir() replays the fold: no events, no
  /// metrics, no journal, no logs — the replay must be invisible.
  bool replaying_ = false;

  AdaptiveFloor floor_;
  std::vector<core::RoutingVector> series_;
  std::vector<EpochReport> reports_;
  std::vector<std::vector<TargetProvenance>> provenance_;
};

}  // namespace fenrir::measure
