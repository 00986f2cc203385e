#include "core/distance_matrix.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>

#include "core/parallel.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace fenrir::core {

namespace {

struct PhiMetrics {
  obs::Counter& appends;
  obs::Counter& rows_delta;
  obs::Counter& rows_kernel;
  obs::Gauge& delta_density;
  obs::Gauge& delta_speedup;
  // Which anchor won the row (see the header's path taxonomy).
  obs::Counter& anchor_predecessor;
  obs::Counter& anchor_chained;
  obs::Counter& anchor_representative;
  obs::Counter& anchor_packed;
  obs::Counter& anchor_probes;
  obs::Counter& anchor_pins;
  obs::Counter& anchor_refreshes;
  obs::Gauge& anchor_est_delta;
  obs::Gauge& anchor_realized_delta;
  obs::Histogram& append_seconds;
};

PhiMetrics& phi_metrics() {
  static PhiMetrics m{
      obs::registry().counter("fenrir_phi_appends_total",
                              "rows appended to similarity matrices"),
      obs::registry().counter(
          "fenrir_phi_rows_delta_total",
          "matrix rows computed by patching an anchor's cached counts"),
      obs::registry().counter("fenrir_phi_rows_kernel_total",
                              "matrix rows computed by the packed kernels"),
      obs::registry().gauge(
          "fenrir_phi_delta_density",
          "churn fraction |delta|/N at the last delta-vs-kernel decision"),
      obs::registry().gauge(
          "fenrir_phi_delta_speedup_ratio",
          "estimated per-pair work ratio N/(|delta|+1) of the last "
          "delta-path row (scalar scan cost over patch cost)"),
      obs::registry().counter(
          "fenrir_phi_anchor_predecessor_total",
          "rows patched from the immediate predecessor anchor"),
      obs::registry().counter(
          "fenrir_phi_anchor_chained_total",
          "rows patched from a recent anchor reached via the chained "
          "bound or a probe"),
      obs::registry().counter(
          "fenrir_phi_anchor_representative_total",
          "rows patched from a representative (mode) anchor — the "
          "recurrence fast path"),
      obs::registry().counter(
          "fenrir_phi_anchor_packed_total",
          "rows where no anchor was cheap and the packed kernels ran"),
      obs::registry().counter(
          "fenrir_phi_anchor_probes_total",
          "exact change-set scans spent probing anchor candidates"),
      obs::registry().counter(
          "fenrir_phi_anchor_pins_total",
          "rows pinned as representative anchors (auto + pin_anchor)"),
      obs::registry().counter(
          "fenrir_phi_anchor_refreshes_total",
          "representative anchors re-anchored to the row they just "
          "explained (mode drift tracking)"),
      obs::registry().gauge(
          "fenrir_phi_anchor_est_delta",
          "chained upper bound on |delta| for the chosen anchor at the "
          "last delta-path row"),
      obs::registry().gauge(
          "fenrir_phi_anchor_realized_delta",
          "realized |delta| against the chosen anchor at the last "
          "delta-path row"),
      obs::registry().histogram(
          "fenrir_phi_append_seconds", obs::Histogram::duration_bounds(),
          "wall time of one SimilarityMatrix::append row")};
  return m;
}

/// Times the whole append — every exit path — into the latency
/// histogram the /metrics/history p99 series is built from. Two clock
/// reads per row, noise next to the row's own O(i) work.
struct AppendTimer {
  obs::Histogram& histogram;
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  explicit AppendTimer(obs::Histogram& h) : histogram(h) {}
  ~AppendTimer() {
    histogram.observe(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
};

constexpr std::size_t kEstSaturated = std::numeric_limits<std::size_t>::max();

std::size_t sat_add(std::size_t a, std::size_t b) {
  return a > kEstSaturated - b ? kEstSaturated : a + b;
}

}  // namespace

SimilarityMatrix::SimilarityMatrix(UnknownPolicy policy,
                                   std::vector<double> weights,
                                   unsigned threads)
    : policy_(policy), weights_(std::move(weights)), threads_(threads) {
  total_weight_ = in_order_sum(weights_);
}

SimilarityMatrix SimilarityMatrix::compute(const Dataset& dataset,
                                           UnknownPolicy policy,
                                           unsigned threads) {
  const bool weighted = !dataset.weights.empty();
  if (weighted && dataset.weights.size() != dataset.networks.size()) {
    throw std::invalid_argument("SimilarityMatrix: weight size mismatch");
  }
  SimilarityMatrix m(policy, dataset.weights, threads);
  m.append_batch(dataset.series);
  return m;
}

SimilarityMatrix SimilarityMatrix::compute_reference(const Dataset& dataset,
                                                     UnknownPolicy policy) {
  const bool weighted = !dataset.weights.empty();
  if (weighted && dataset.weights.size() != dataset.networks.size()) {
    throw std::invalid_argument("SimilarityMatrix: weight size mismatch");
  }
  SimilarityMatrix m(policy, dataset.weights, 1);
  const std::size_t n = dataset.series.size();
  m.n_ = n;
  m.values_.assign_owned(n);
  m.valid_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    m.valid_[i] = dataset.series[i].valid ? 1 : 0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!m.valid_[i]) continue;
    double* vrow = m.values_.owned_row(i);
    for (std::size_t j = 0; j <= i; ++j) {
      if (!m.valid_[j]) continue;
      const double phi =
          weighted ? gower_similarity(dataset.series[i], dataset.series[j],
                                      dataset.weights, policy)
                   : gower_similarity(dataset.series[i], dataset.series[j],
                                      policy);
      vrow[j] = phi;
    }
  }
  return m;
}

SimilarityMatrix::AnchorRow* SimilarityMatrix::find_anchor(std::size_t row) {
  for (AnchorRow& a : recent_) {
    if (a.row == row) return &a;
  }
  for (AnchorRow& a : representatives_) {
    if (a.row == row) return &a;
  }
  return nullptr;
}

void SimilarityMatrix::pin_representative(AnchorRow anchor) {
  for (const AnchorRow& a : representatives_) {
    if (a.row == anchor.row) return;
  }
  if (representative_limit_ == 0) return;
  phi_metrics().anchor_pins.inc();
  if (representatives_.size() >= representative_limit_) {
    auto oldest = std::min_element(
        representatives_.begin(), representatives_.end(),
        [](const AnchorRow& a, const AnchorRow& b) {
          return a.last_used < b.last_used;
        });
    *oldest = std::move(anchor);
    return;
  }
  representatives_.push_back(std::move(anchor));
}

void SimilarityMatrix::pin_anchor(std::size_t row) {
  if (row >= n_) throw std::out_of_range("SimilarityMatrix::pin_anchor");
  if (!weights_.empty() || !valid_[row] || representative_limit_ == 0) return;
  if (packed_.rows() != n_) {
    throw std::logic_error(
        "SimilarityMatrix::pin_anchor: compute_reference matrices carry no "
        "packed rows to anchor");
  }
  for (const AnchorRow& a : representatives_) {
    if (a.row == row) return;
  }
  AnchorRow anchor;
  anchor.row = row;
  anchor.last_used = append_clock_;
  if (const AnchorRow* existing = find_anchor(row)) {
    anchor.counts = existing->counts;
    anchor.est_delta = existing->est_delta;
  } else {
    // The row left the anchor set; rebuild its counts at kernel cost.
    anchor.counts.resize(n_);
    for (std::size_t j = 0; j < n_; ++j) {
      if (valid_[j]) anchor.counts[j] = packed_.counts(row, j);
    }
    anchor.est_delta = kEstSaturated;  // unknown distance to the latest row
  }
  pin_representative(std::move(anchor));
}

void SimilarityMatrix::set_anchor_limits(std::size_t recent,
                                        std::size_t representatives) {
  recent_limit_ = recent;
  representative_limit_ = representatives;
  while (recent_.size() > recent_limit_) recent_.pop_front();
  while (representatives_.size() > representative_limit_) {
    auto oldest = std::min_element(
        representatives_.begin(), representatives_.end(),
        [](const AnchorRow& a, const AnchorRow& b) {
          return a.last_used < b.last_used;
        });
    representatives_.erase(oldest);
  }
}

std::uint64_t SimilarityMatrix::known(std::size_t row) {
  if (known_[row] == kKnownUnset) {
    known_[row] = packed_.counts(row, row).mutual_known;
  }
  return known_[row];
}

void SimilarityMatrix::extend_bounds_across(std::size_t i) {
  if (i == 0 || (recent_.empty() && representatives_.empty())) return;
  const std::size_t step = step_size(i, packed_.counts(i - 1, i));
  for (AnchorRow& a : recent_) a.est_delta = sat_add(a.est_delta, step);
  for (AnchorRow& a : representatives_) {
    a.est_delta = sat_add(a.est_delta, step);
  }
}

SimilarityMatrix::AnchorRow* SimilarityMatrix::select_anchor(
    std::size_t i, std::size_t step, std::vector<DeltaEntry>& delta,
    bool& chose_rep) {
  PhiMetrics& metrics = phi_metrics();
  const std::size_t nets = packed_.networks();

  // Extend every anchor's chained bound by this row's step size (the
  // triangle inequality holds through any intermediate row, valid or
  // not), then pick the cheapest anchor.
  const bool anchors_on = !recent_.empty() || !representatives_.empty();
  if (anchors_on && i > 0) {
    for (AnchorRow& a : recent_) {
      a.est_delta = a.row == i - 1 ? step : sat_add(a.est_delta, step);
    }
    for (AnchorRow& a : representatives_) {
      a.est_delta = a.row == i - 1 ? step : sat_add(a.est_delta, step);
    }
  }

  // Candidates, recent first (newest to oldest), then representatives
  // not already listed.
  std::vector<AnchorRow*> candidates;
  if (anchors_on) {
    candidates.reserve(recent_.size() + representatives_.size());
    for (auto it = recent_.rbegin(); it != recent_.rend(); ++it) {
      candidates.push_back(&*it);
    }
    for (AnchorRow& a : representatives_) {
      if (!std::any_of(recent_.begin(), recent_.end(),
                       [&](const AnchorRow& r) { return r.row == a.row; })) {
        candidates.push_back(&a);
      }
    }
  }

  const auto max_delta = static_cast<std::size_t>(
      kDeltaDensityThreshold * static_cast<double>(nets));
  AnchorRow* chosen = nullptr;
  delta.clear();
  std::size_t chosen_bound = kEstSaturated;
  bool probed = false;

  // 1. Chained bounds: if some anchor's running Σ|Δ| already clears the
  // threshold, the exact change set can only be smaller.
  for (AnchorRow* a : candidates) {
    if (a->est_delta < chosen_bound) {
      chosen_bound = a->est_delta;
      chosen = a;
    }
  }
  if (chosen != nullptr && chosen_bound <= max_delta) {
    delta = packed_.delta_between(chosen->row, i);
  } else if (!candidates.empty() && candidates.size() * 4 <= i &&
             probe_cooldown_ == 0) {
    // 2. Probe: one bounded scan per candidate — the recurrence
    // rediscovery. The cap shrinks to the best change-set found so far,
    // so a candidate from the wrong mode bails after ~cap mismatches
    // instead of paying a full O(N) scan; the winner is still the
    // smallest change-set ≤ the density threshold, exactly as an
    // unbounded sweep would pick. Worth it only once the row is long
    // enough that the scans are small next to the O(T·N) kernel
    // fallback.
    chosen = nullptr;
    std::size_t best_size = kEstSaturated;
    std::vector<DeltaEntry> probe;
    for (AnchorRow* a : candidates) {
      metrics.anchor_probes.inc();
      const std::size_t cap =
          best_size == kEstSaturated ? max_delta : best_size - 1;
      if (packed_.delta_between_bounded(a->row, i, cap, probe)) {
        a->est_delta = probe.size();  // the bound re-anchors to exact
        best_size = probe.size();
        chosen = a;
        delta.swap(probe);
        if (best_size == 0) break;  // a duplicate row cannot be beaten
      }
      // On a bailed probe the anchor keeps its chained bound: the scan
      // only learned |Δ| > cap, which is a lower bound and must not
      // replace an upper one.
    }
    probed = true;
    if (chosen == nullptr) {
      delta.clear();
      probe_failures_ += 1;
      probe_cooldown_ = std::min<std::size_t>(
          std::size_t{1} << std::min<std::size_t>(probe_failures_, 6), 64);
    } else {
      chosen_bound = best_size;
      probe_failures_ = 0;
    }
  } else {
    chosen = nullptr;
  }

  const bool use_delta = chosen != nullptr;
  chose_rep =
      use_delta && std::any_of(representatives_.begin(),
                               representatives_.end(),
                               [&](const AnchorRow& a) { return &a == chosen; });
  if (use_delta) {
    chosen->est_delta = delta.size();
    chosen->last_used = append_clock_;
    probe_failures_ = 0;
    metrics.rows_delta.inc();
    metrics.delta_density.set(
        nets == 0 ? 1.0
                  : static_cast<double>(delta.size()) /
                        static_cast<double>(nets));
    metrics.delta_speedup.set(static_cast<double>(nets) /
                              static_cast<double>(delta.size() + 1));
    metrics.anchor_est_delta.set(static_cast<double>(chosen_bound));
    metrics.anchor_realized_delta.set(static_cast<double>(delta.size()));
    if (chosen->row == i - 1) {
      metrics.anchor_predecessor.inc();
    } else if (chose_rep) {
      metrics.anchor_representative.inc();
    } else {
      metrics.anchor_chained.inc();
    }
  } else {
    metrics.rows_kernel.inc();
    metrics.anchor_packed.inc();
    if (probe_cooldown_ > 0 && !probed) probe_cooldown_ -= 1;
    // No anchor explained this row: O(T·N) kernel fallback. One is a new
    // routing state; a storm means the anchor set stopped covering the
    // workload. Debug severity — the bus's per-type dedup condenses a
    // storm to its first burst plus a suppressed count.
    obs::event_bus().emit(obs::Severity::kDebug, "anchor_fallback",
                          "\"row\":" + std::to_string(i) +
                              ",\"candidates\":" +
                              std::to_string(candidates.size()));
  }
  return chosen;
}

std::vector<std::size_t> SimilarityMatrix::anchor_chain(
    std::size_t row, std::size_t max_depth) const {
  std::vector<std::size_t> out;
  std::size_t at = row;
  while (out.size() < max_depth && at < anchor_of_.size()) {
    const std::size_t base = anchor_of_[at];
    // Bases are always earlier rows, so the strict decrease also guards
    // against any malformed chain looping.
    if (base == kNoAnchorRow || base >= at) break;
    out.push_back(base);
    at = base;
  }
  return out;
}

void SimilarityMatrix::append(const RoutingVector& v) {
  if (packed_.rows() != n_) {
    throw std::logic_error(
        "SimilarityMatrix::append: matrix was not built incrementally "
        "(compute_reference matrices are read-only)");
  }
  if (!weights_.empty() && v.assignment.size() != weights_.size()) {
    throw std::invalid_argument("SimilarityMatrix: weight size mismatch");
  }
  const std::size_t i = n_;
  packed_.append(v);  // also rejects size mismatches against earlier rows
  n_ += 1;
  values_.push_row();
  valid_.push_back(v.valid ? 1 : 0);
  known_.push_back(kKnownUnset);
  anchor_of_.resize(n_, kNoAnchorRow);
  append_clock_ += 1;
  PhiMetrics& metrics = phi_metrics();
  metrics.appends.inc();
  AppendTimer timer(metrics.append_seconds);
  const bool weighted = !weights_.empty();
  if (!v.valid) {
    // The slot keeps its timeline position. Anchors stay alive — their
    // chained bounds extend through the slot below — but their counts
    // rows need a placeholder so column indices keep lining up.
    for (AnchorRow& a : recent_) a.counts.emplace_back();
    for (AnchorRow& a : representatives_) a.counts.emplace_back();
    extend_bounds_across(i);
    return;
  }

  const std::size_t nets = packed_.networks();
  double* vrow = values_.owned_row(i);  // new rows are always owned

  // The counts the step size needs are the row's own: the diagonal and
  // the predecessor column, computed here once and kept for the fill —
  // columns [settled, i] need no work there beyond their Φ.
  std::vector<MatchCounts> row(i + 1);
  std::size_t settled = i + 1;
  std::vector<DeltaEntry> delta;
  bool chose_rep = false;
  AnchorRow* chosen = nullptr;
  if (!weighted) {
    const std::uint64_t k = known(i);
    row[i] = {k, k};
    settled = i;
    std::size_t step = 0;
    if (i > 0 && (!recent_.empty() || !representatives_.empty())) {
      const MatchCounts prev = packed_.counts(i - 1, i);
      step = step_size(i, prev);
      if (valid_[i - 1]) {
        row[i - 1] = prev;
        settled = i - 1;
      }
    }
    chosen = select_anchor(i, step, delta, chose_rep);
  }
  const bool use_delta = chosen != nullptr;
  // Chain lineage before the representative refresh below reassigns
  // chosen->row to i.
  if (use_delta) anchor_of_[i] = chosen->row;

  const AnchorRow* anchor = chosen;  // stable across the parallel fill
  // Classified once, replayed against every column through the
  // dispatched patch kernels (the batch fill's path, one row at a time).
  const PreparedDelta prep = use_delta ? prepare_delta(delta) : PreparedDelta{};
  auto fill_column = [&](std::size_t j) {
    if (!valid_[j]) return;
    if (weighted) {
      vrow[j] = phi_from_weighted(
          packed_.weighted_counts(i, j, weights_, policy_, total_weight_));
      return;
    }
    if (j >= settled) {
      vrow[j] = phi_from_counts(row[j], nets, policy_);
      return;
    }
    MatchCounts c;
    if (use_delta) {
      c = ColumnPatcher(packed_, j).apply(anchor->counts[j], prep);
    } else {
      c = packed_.counts(i, j);  // kernel-path row
    }
    row[j] = c;
    vrow[j] = phi_from_counts(c, nets, policy_);
  };

  // The grain makes small rows skip pool dispatch entirely (a delta row
  // over a short matrix is microseconds of work — a pool wakeup costs
  // more than it saves); the cutoff affects time only, never values.
  const std::size_t per_pair = use_delta ? delta.size() + 1 : nets;
  parallel_for(i + 1, fill_column, threads_,
               std::max<std::size_t>(
                   1, 65536 / std::max<std::size_t>(per_pair, 1)));

  if (weighted) return;

  // Every anchor learns its counts against the new row "for free":
  // counts(a, i) = counts(i, a), which the row just computed.
  for (AnchorRow& a : recent_) a.counts.push_back(row[a.row]);
  for (AnchorRow& a : representatives_) a.counts.push_back(row[a.row]);

  // A representative that explained this row re-anchors to it: the
  // anchor tracks the mode's *latest* state, so the next return pays
  // only the away-gap churn. Left at its original row, every
  // representative would drift toward the density threshold as the mode
  // churns and recurrence would decay back to kernel rows.
  if (chose_rep && !delta.empty()) {
    chosen->row = i;
    chosen->counts = row;  // exact counts(i, ·), just computed
    chosen->est_delta = 0;
    metrics.anchor_refreshes.inc();
  }

  // A kernel-fallback row is a routing state no anchor explained — the
  // online analogue of ModeBook registering a new mode — so it becomes
  // a representative anchor before the recency window rolls it out.
  AnchorRow fresh;
  fresh.row = i;
  fresh.est_delta = 0;
  fresh.last_used = append_clock_;
  if (!use_delta && representative_limit_ > 0) {
    AnchorRow rep = fresh;
    rep.counts = row;
    pin_representative(std::move(rep));
  }
  if (recent_limit_ > 0) {
    fresh.counts = std::move(row);
    recent_.push_back(std::move(fresh));
    while (recent_.size() > recent_limit_) recent_.pop_front();
  }
}

void SimilarityMatrix::append_batch(std::span<const RoutingVector> batch) {
  // One reservation for the whole batch: growing the triangle chunk by
  // chunk would reallocate it, and copy every earlier row, per chunk.
  reserve(n_ + batch.size());
  // Weighted matrices carry no cached counts to batch over — and the
  // one-row batch has nothing to amortize.
  if (!weights_.empty() || batch.size() == 1) {
    for (const RoutingVector& v : batch) append(v);
    return;
  }
  // Chunking bounds the transient per-row counts at ~kChunk·T entries
  // while keeping enough rows in flight for the column-outer fill to
  // reuse each old row from cache.
  constexpr std::size_t kChunk = 64;
  for (std::size_t off = 0; off < batch.size(); off += kChunk) {
    append_chunk(batch.subspan(off, std::min(kChunk, batch.size() - off)));
  }
}

void SimilarityMatrix::append_chunk(std::span<const RoutingVector> batch) {
  if (packed_.rows() != n_) {
    throw std::logic_error(
        "SimilarityMatrix::append: matrix was not built incrementally "
        "(compute_reference matrices are read-only)");
  }
  const std::size_t n0 = n_;
  const std::size_t k = batch.size();
  if (k == 0) return;
  PhiMetrics& metrics = phi_metrics();
  AppendTimer timer(metrics.append_seconds);  // one sample per chunk

  // Pass 0: pack every row and grow the value/validity stores (already
  // reserved by append_batch), so the planning pass can probe any batch
  // row.
  for (const RoutingVector& v : batch) {
    packed_.append(v);
    valid_.push_back(v.valid ? 1 : 0);
    known_.push_back(kKnownUnset);
    values_.push_row();
  }
  n_ = n0 + k;
  anchor_of_.resize(n_, kNoAnchorRow);

  // Pass A: sequential anchor planning — the exact selection sequence an
  // append() loop would run (selection never reads anchor counts, only
  // the chained bounds and packed rows, so the fills can be deferred).
  // Counts-carrying bookkeeping is deferred to pass C; an anchor
  // created or refreshed during the batch is recognizable there by its
  // in-batch row id.
  struct RowPlan {
    enum class Path { kInvalid, kKernel, kDelta } path = Path::kInvalid;
    std::size_t base = 0;  // global row id of the chosen anchor
    std::vector<DeltaEntry> delta;
    // The change-set classified by endpoint known-ness, once per row —
    // the fills replay it against every column without re-testing the
    // column-invariant kUnknownSite conditions.
    PreparedDelta prep;
    // Pre-batch anchors can be evicted or refreshed later in the plan,
    // so their old-column counts are snapshotted here at selection time.
    std::vector<MatchCounts> base_counts;
  };
  std::vector<RowPlan> plan(k);
  for (std::size_t r = 0; r < k; ++r) {
    const std::size_t i = n0 + r;
    metrics.appends.inc();
    append_clock_ += 1;
    if (!batch[r].valid) {
      extend_bounds_across(i);
      continue;
    }
    std::size_t step = 0;
    if (i > 0 && (!recent_.empty() || !representatives_.empty())) {
      step = step_size(i, packed_.counts(i - 1, i));
    }
    bool chose_rep = false;
    std::vector<DeltaEntry> delta;
    AnchorRow* chosen = select_anchor(i, step, delta, chose_rep);
    if (chosen != nullptr) {
      plan[r].path = RowPlan::Path::kDelta;
      plan[r].base = chosen->row;
      anchor_of_[i] = chosen->row;
      if (chosen->row < n0) {
        plan[r].base_counts.assign(chosen->counts.begin(),
                                   chosen->counts.begin() +
                                       static_cast<std::ptrdiff_t>(n0));
      }
      plan[r].delta = std::move(delta);
      plan[r].prep = prepare_delta(plan[r].delta);
      if (chose_rep && !plan[r].delta.empty()) {
        // Representative refresh, counts deferred: the new row id is
        // what pass C rebuilds the counts from.
        chosen->row = i;
        chosen->est_delta = 0;
        metrics.anchor_refreshes.inc();
      }
    } else {
      plan[r].path = RowPlan::Path::kKernel;
      if (representative_limit_ > 0) {
        AnchorRow rep;
        rep.row = i;
        rep.est_delta = 0;
        rep.last_used = append_clock_;
        pin_representative(std::move(rep));
      }
    }
    if (recent_limit_ > 0) {
      AnchorRow fresh;
      fresh.row = i;
      fresh.est_delta = 0;
      fresh.last_used = append_clock_;
      recent_.push_back(std::move(fresh));
      while (recent_.size() > recent_limit_) recent_.pop_front();
    }
  }

  const std::size_t nets = packed_.networks();
  std::vector<std::vector<MatchCounts>> row_counts(k);
  std::size_t per_col = 1;
  for (std::size_t r = 0; r < k; ++r) {
    if (plan[r].path == RowPlan::Path::kInvalid) continue;
    row_counts[r].resize(n0 + r + 1);
    per_col +=
        plan[r].path == RowPlan::Path::kDelta ? plan[r].delta.size() + 1 : nets;
  }

  // Pass B1: columns against the pre-batch rows, column-outer — row j's
  // packed bytes are loaded once and stay cache-hot across every batch
  // row's patch, instead of being re-fetched k times as the append()
  // loop would. In-batch bases (predecessor chains) resolve within the
  // same column: base row r' < r was patched earlier in the inner loop.
  auto fill_old = [&](std::size_t j) {
    if (!valid_[j]) return;
    packed_.prefetch_row(j + 1 < n0 ? j + 1 : j);
    const ColumnPatcher patcher(packed_, j);
    for (std::size_t r = 0; r < k; ++r) {
      const RowPlan& p = plan[r];
      if (p.path == RowPlan::Path::kInvalid) continue;
      const std::size_t i = n0 + r;
      MatchCounts c;
      if (p.path == RowPlan::Path::kDelta) {
        const MatchCounts base =
            p.base < n0 ? p.base_counts[j] : row_counts[p.base - n0][j];
        c = patcher.apply(base, p.prep);
      } else {
        c = packed_.counts(i, j);
      }
      row_counts[r][j] = c;
      values_.owned_row(i)[j] = phi_from_counts(c, nets, policy_);
    }
  };
  parallel_for(n0, fill_old, threads_,
               std::max<std::size_t>(1, 65536 / per_col));

  // Pass B2: the k×k corner, row-major. Every base a delta row needs is
  // a pair among earlier batch rows (or a pre-batch anchor against an
  // earlier batch column), already in row_counts by symmetry:
  // counts(a, b) for a > b lives at row_counts[a - n0][b].
  for (std::size_t r = 0; r < k; ++r) {
    const RowPlan& p = plan[r];
    if (p.path == RowPlan::Path::kInvalid) continue;
    const std::size_t i = n0 + r;
    double* vrow = values_.owned_row(i);
    for (std::size_t s = 0; s <= r; ++s) {
      const std::size_t j = n0 + s;
      if (!valid_[j]) continue;
      MatchCounts c;
      if (s == r) {
        const std::uint64_t known_i = known(i);  // the diagonal
        c = {known_i, known_i};
      } else if (p.path == RowPlan::Path::kDelta) {
        const std::size_t b = p.base;
        const MatchCounts base = (b >= n0 && b - n0 > s)
                                     ? row_counts[b - n0][j]
                                     : row_counts[s][b];
        c = apply_prepared(base, p.prep, packed_, j);
      } else {
        c = packed_.counts(i, j);
      }
      row_counts[r][j] = c;
      vrow[j] = phi_from_counts(c, nets, policy_);
    }
  }

  // Pass C: anchor counts catch up with the batch. An anchor whose row
  // id is in-batch was created or refreshed there — its counts are that
  // row's computed counts, extended by the later rows; a pre-batch
  // anchor extends its existing counts by one entry per batch row
  // (counts(a, i_r) = counts(i_r, a), just computed — invalid rows get
  // the usual never-read placeholder).
  const auto rebuild = [&](AnchorRow& a) {
    std::size_t from = 0;
    if (a.row >= n0) {
      const std::size_t r0 = a.row - n0;
      a.counts = row_counts[r0];
      from = r0 + 1;
    }
    a.counts.reserve(n0 + k);
    for (std::size_t r = from; r < k; ++r) {
      a.counts.push_back(batch[r].valid ? row_counts[r][a.row]
                                        : MatchCounts{});
    }
  };
  for (AnchorRow& a : recent_) rebuild(a);
  for (AnchorRow& a : representatives_) rebuild(a);
}

void SimilarityMatrix::adopt_rows(std::size_t networks, std::size_t bits,
                                  std::span<const AdoptedRow> rows,
                                  std::shared_ptr<const void> keepalive) {
  if (n_ != 0 || packed_.rows() != 0) {
    throw std::logic_error("SimilarityMatrix::adopt_rows: matrix not empty");
  }
  std::vector<const std::byte*> packed_rows;
  packed_rows.reserve(rows.size());
  for (const AdoptedRow& r : rows) packed_rows.push_back(r.packed);
  packed_.adopt_rows(networks, bits, packed_rows, keepalive);
  valid_.reserve(rows.size());
  anchor_of_.reserve(rows.size());
  known_.assign(rows.size(), kKnownUnset);
  for (const AdoptedRow& r : rows) {
    values_.adopt_row(r.phi);
    valid_.push_back(r.valid ? 1 : 0);
    anchor_of_.push_back(r.anchor_of);
  }
  // The Φ rows and packed rows live in the same mapping, but the packed
  // store may drop its borrow independently (a widening append), so the
  // triangle pins the mapping too.
  values_.set_keepalive(std::move(keepalive));
  n_ = rows.size();
  append_clock_ = n_;
}

void SimilarityMatrix::append_precomputed(const AdoptedRow& row,
                                          std::size_t src_bits) {
  const std::size_t i = n_;
  packed_.append_packed(row.packed, src_bits);
  valid_.push_back(row.valid ? 1 : 0);
  known_.push_back(kKnownUnset);
  anchor_of_.push_back(row.anchor_of);
  values_.push_row();
  std::memcpy(values_.owned_row(i), row.phi, (i + 1) * sizeof(double));
  n_ += 1;
  append_clock_ += 1;
  // Load paths run before any anchors exist; if a caller mixes this
  // with live appends anyway, keep the anchor invariants exact: every
  // anchor's counts column for the new row, at kernel cost.
  for (AnchorRow& a : recent_) {
    a.counts.push_back(row.valid && valid_[a.row] ? packed_.counts(a.row, i)
                                                  : MatchCounts{});
    a.est_delta = kEstSaturated;
  }
  for (AnchorRow& a : representatives_) {
    a.counts.push_back(row.valid && valid_[a.row] ? packed_.counts(a.row, i)
                                                  : MatchCounts{});
    a.est_delta = kEstSaturated;
  }
}

std::size_t SimilarityMatrix::valid_count() const {
  std::size_t c = 0;
  for (const char v : valid_) c += (v != 0);
  return c;
}

std::vector<std::pair<std::size_t, std::size_t>> SimilarityMatrix::pair_keys(
    const std::vector<std::size_t>& a, const std::vector<std::size_t>& b) const {
  std::vector<std::pair<std::size_t, std::size_t>> keys;
  keys.reserve(a.size() * b.size());
  for (const std::size_t i : a) {
    if (!valid(i)) continue;
    for (const std::size_t j : b) {
      if (!valid(j) || i == j) continue;
      // Canonical for the unordered pair: row-major, row >= col.
      keys.emplace_back(std::max(i, j), std::min(i, j));
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

SimilarityMatrix::Range SimilarityMatrix::range_between(
    const std::vector<std::size_t>& a, const std::vector<std::size_t>& b) const {
  Range out;
  for (const auto& [i, j] : pair_keys(a, b)) {
    const double p = values_.get(i, j);
    if (!out.any) {
      out.min = out.max = p;
      out.any = true;
    } else {
      out.min = std::min(out.min, p);
      out.max = std::max(out.max, p);
    }
  }
  return out;
}

SimilarityMatrix::Range SimilarityMatrix::range_within(
    const std::vector<std::size_t>& a) const {
  Range out;
  for (std::size_t x = 0; x < a.size(); ++x) {
    for (std::size_t y = x + 1; y < a.size(); ++y) {
      if (!valid(a[x]) || !valid(a[y])) continue;
      const double p = phi(a[x], a[y]);
      if (!out.any) {
        out.min = out.max = p;
        out.any = true;
      } else {
        out.min = std::min(out.min, p);
        out.max = std::max(out.max, p);
      }
    }
  }
  return out;
}

double SimilarityMatrix::median_between(
    const std::vector<std::size_t>& a, const std::vector<std::size_t>& b) const {
  const auto keys = pair_keys(a, b);
  if (keys.empty()) return 0.0;
  std::vector<double> values;
  values.reserve(keys.size());
  for (const auto& [i, j] : keys) values.push_back(values_.get(i, j));
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  return values[mid];
}

}  // namespace fenrir::core
