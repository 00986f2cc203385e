// fenrir::obs — the decision lineage store (obs v3).
//
// The paper's operator question is "is the current routing new, or a
// mode I have seen before?" — and until now Fenrir only published the
// *verdict* (mode_created / recurrence events), not the *why*. The
// lineage store keeps, for every ModeBook::observe(), one compact
// DecisionRecord: the verdict, the exact Φ of the top-k candidate
// modes, the winner's per-category match/mismatch/unknown counts, the
// anchor chain the similarity matrix used to ingest the same row, and
// — when the observation came through a federated fold — which member
// served it, how stale its answer was, and whether members disagreed.
//
// Storage is two-tier, mirroring the event plane:
//   * a bounded in-memory ring (default 512 records) backing the
//     /lineage and /explain/<mode> HTTP endpoints and fenrirctl
//     explain;
//   * an optional append-only JSONL log through obs::Journal — the
//     same torn-tail-tolerant framing as the sweep journal, so a
//     killed run leaves a ts-stripped line prefix of the uninterrupted
//     run's log (chaos_campaign_test pins this).
//
// Cost discipline: a DecisionRecord is a flat struct (fixed arrays, no
// heap) and record() renders JSON only when a log or sink is attached
// — the lazy-render discipline emit_with() set for events. The bench
// gate holds BM_ModeBookObserveLineage within 5% of the recording-free
// BM_ModeBookObserve.
//
// Like every fenrir::obs surface, lineage observes and never steers:
// nothing may read records back into analysis decisions, and results
// are bit-identical with the store on, off, or full.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/journal.h"

namespace fenrir::obs {

enum class Verdict : std::uint8_t {
  kNewMode = 0,     // the observation founded a mode
  kRecurrence = 1,  // matched a mode other than the previous one
  kRepeat = 2,      // matched the same mode as the previous observation
};

std::string_view verdict_name(Verdict verdict);
std::optional<Verdict> parse_verdict(std::string_view name);

/// One candidate mode considered by a verdict, with its exact Φ.
struct DecisionCandidate {
  std::uint64_t mode = 0;
  double phi = 0.0;
};

/// Top-k candidates carried per record (best first).
inline constexpr std::size_t kLineageTopK = 4;
/// Anchor-chain rows carried per record (immediate anchor first).
inline constexpr std::size_t kLineageChainDepth = 8;
/// DecisionRecord::member when no federation member served the row.
inline constexpr std::uint64_t kLineageNoMember =
    static_cast<std::uint64_t>(-1);

/// One classified observation. Flat — fixed arrays, no heap — so
/// recording is a struct copy, not an allocation.
struct DecisionRecord {
  std::uint64_t id = 0;       // assigned by the store, gap-free from 1
  double unix_time = 0.0;     // wall clock (metadata, never an input)
  std::int64_t obs_time = 0;  // the observation's dataset time
  Verdict verdict = Verdict::kNewMode;
  std::uint64_t mode = 0;  // the (possibly new) mode the verdict named
  double phi = 0.0;        // Φ against that mode's representative
  /// Seconds since the matched mode was last seen; -1 when unknown
  /// (new modes, or the first sighting after a restore).
  std::int64_t gap_seconds = -1;
  /// Winner's per-category counts over @p networks sites: matches +
  /// mismatches + unknown == networks (unknown = either side unknown).
  std::uint64_t networks = 0;
  std::uint64_t matches = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t unknown = 0;
  /// Representatives scanned before the verdict settled.
  std::uint64_t scanned = 0;
  /// Top-k candidate modes, best first. top_count may be 0 (the first
  /// observation has no candidates).
  std::array<DecisionCandidate, kLineageTopK> top{};
  std::uint32_t top_count = 0;
  /// Anchor chain the similarity matrix walked appending this row
  /// (immediate anchor first; empty with has_anchor_info means the row
  /// paid the packed kernels — a novel routing state). Absent entirely
  /// when no matrix rode along (plain watch, unit drives).
  std::array<std::uint64_t, kLineageChainDepth> anchor_chain{};
  std::uint32_t anchor_count = 0;
  bool has_anchor_info = false;
  /// Federation provenance (set when the series came through
  /// measure::fold_phi over a federated merge).
  bool federated = false;
  std::uint64_t member = kLineageNoMember;  // dominant serving member
  std::uint64_t staleness = 0;              // max epochs stale
  std::uint64_t disagreements = 0;          // targets with split votes
};

/// {"id":1,"ts":...,"time":...,"verdict":"recurrence",...} — one line,
/// journal-framable. "ts" is the only wall-clock (nondeterministic)
/// field, so stripping it yields the deterministic line the chaos
/// prefix tests compare.
std::string record_json(const DecisionRecord& record);

/// Parses a record_json() line back (fenrirctl lineage replay /
/// explain). Nullopt when the line is not a lineage record.
std::optional<DecisionRecord> parse_record_json(const std::string& line);

/// A consumer of recorded decisions (the flight recorder). consume()
/// runs on the observing thread under the store lock with the JSON
/// already rendered: keep it fast, never call back into the store.
class DecisionSink {
 public:
  virtual ~DecisionSink() = default;
  virtual void consume(const DecisionRecord& record,
                       std::string_view json) = 0;
};

/// Upper bounds (seconds) of the per-mode recurrence-gap histogram
/// /explain reports: 1h, 6h, 1d, 3d, 1w, 30d, 180d, +inf.
inline constexpr std::array<std::int64_t, 7> kLineageGapBounds = {
    3600, 21600, 86400, 259200, 604800, 2592000, 15552000};

/// Per-mode aggregate the /explain endpoint renders.
struct ModeLineage {
  std::uint64_t visits = 0;       // records with this verdict mode
  std::uint64_t recurrences = 0;  // of those, verdict == recurrence
  std::uint64_t runner_up = 0;    // times this mode was the runner-up
  double last_phi = 0.0;
  std::int64_t first_seen = 0;  // obs_time of the founding record
  std::int64_t last_seen = 0;
  /// Recurrence-gap histogram: counts per kLineageGapBounds bucket
  /// plus one overflow bucket.
  std::array<std::uint64_t, kLineageGapBounds.size() + 1> gap_buckets{};
  /// The mode most often runner-up when this mode won — the mode this
  /// one is closest to being confused with. kLineageNoMember when the
  /// mode always won unopposed.
  std::uint64_t closest_confused = kLineageNoMember;
  std::uint64_t closest_confused_count = 0;
};

class LineageStore {
 public:
  struct Config {
    /// Ring slots; 0 disables recording entirely (record() returns 0
    /// and builds nothing — the bench baseline's configuration).
    std::size_t capacity = 512;
  };

  LineageStore() : LineageStore(Config{}) {}
  explicit LineageStore(const Config& config);

  LineageStore(const LineageStore&) = delete;
  LineageStore& operator=(const LineageStore&) = delete;

  /// True when record() would keep the record — the emit site's cheap
  /// pre-check (ModeBook skips building the record entirely when off).
  bool enabled() const;
  /// Resizes the ring (existing records are dropped; ids continue).
  /// 0 disables recording.
  void set_capacity(std::size_t capacity);

  /// Context for the NEXT record: the anchor chain the similarity
  /// matrix used for the row about to be classified. Consumed (and
  /// cleared) by record(). Chains longer than kLineageChainDepth are
  /// truncated.
  void set_anchor_context(std::span<const std::size_t> chain);
  /// Context for the NEXT record: federation provenance summary.
  void set_provenance_context(std::uint64_t member, std::uint64_t staleness,
                              std::uint64_t disagreements);
  void clear_context();

  /// Records one decision: assigns the id, merges pending context,
  /// stamps wall time, updates per-mode aggregates and metrics, and —
  /// only when a log or sink is attached — renders the JSON once and
  /// fans it out. Returns the id (0 when disabled).
  std::uint64_t record(DecisionRecord record);

  /// Opens the append-only JSONL lineage log (obs::Journal framing:
  /// flushed per line, torn-tail tolerant on read-back). @p truncate
  /// drops prior content — fresh runs truncate, resumed ones append.
  bool open_log(const std::string& path, bool truncate = false);
  /// Cuts the open log back to a resumed run's durable prefix (see
  /// obs::cut_journal: records from observation time @p from on, past
  /// the first @p keep) and continues the id sequence after the last
  /// record kept. No-op without an open log.
  void cut_log(std::int64_t from, std::size_t keep);
  void close_log();
  bool log_open() const;

  /// Sinks are borrowed, not owned; remove before destroying the sink.
  void add_sink(DecisionSink* sink);
  void remove_sink(DecisionSink* sink);

  /// Records with id > @p after_id passing the filters, oldest first,
  /// at most @p max_records (0 = no cap). @p mode / @p verdict nullopt
  /// match everything. Records the ring has evicted are gone —
  /// oldest_id() names the horizon.
  std::vector<DecisionRecord> since(
      std::uint64_t after_id, std::optional<std::uint64_t> mode = {},
      std::optional<Verdict> verdict = {}, std::size_t max_records = 0) const;

  std::uint64_t last_id() const;
  std::uint64_t oldest_id() const;
  std::uint64_t evicted_total() const;

  /// Aggregate for @p mode; nullopt when the store never saw it.
  std::optional<ModeLineage> mode_lineage(std::uint64_t mode) const;
  /// Modes with any aggregate, ascending.
  std::vector<std::uint64_t> known_modes() const;

  /// Drops every record, aggregate, context, sink, and the id counter
  /// (tests; the log stays attached).
  void reset();

 private:
  struct ModeAggregate {
    ModeLineage lineage;
    /// runner-up mode -> times it chased this mode (closest-confused).
    std::map<std::uint64_t, std::uint64_t> chasers;
  };

  mutable std::mutex mu_;
  Config config_;
  std::vector<DecisionRecord> ring_;  // slot = (id - 1) % capacity
  std::uint64_t next_id_ = 1;
  std::uint64_t evicted_ = 0;
  std::map<std::uint64_t, ModeAggregate> modes_;
  Journal log_;
  std::vector<DecisionSink*> sinks_;
  // Pending context (consumed by the next record).
  bool pending_anchor_ = false;
  std::array<std::uint64_t, kLineageChainDepth> pending_chain_{};
  std::uint32_t pending_chain_count_ = 0;
  bool pending_provenance_ = false;
  std::uint64_t pending_member_ = kLineageNoMember;
  std::uint64_t pending_staleness_ = 0;
  std::uint64_t pending_disagreements_ = 0;
};

/// The process-wide store every verdict site records into (leaked,
/// like event_bus(), so late emitters never race destruction).
LineageStore& lineage();

}  // namespace fenrir::obs
