#include "core/distance_matrix.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "core/parallel.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace fenrir::core {

namespace {

struct PhiMetrics {
  obs::Counter& appends;
  obs::Counter& rows_delta;
  obs::Counter& rows_kernel;
  obs::Gauge& delta_density;
  obs::Gauge& delta_speedup;
  obs::Histogram& append_seconds;
};

PhiMetrics& phi_metrics() {
  static PhiMetrics m{
      obs::registry().counter("fenrir_phi_appends_total",
                              "rows appended to similarity matrices"),
      obs::registry().counter(
          "fenrir_phi_rows_delta_total",
          "matrix rows computed by patching the predecessor's cached counts"),
      obs::registry().counter("fenrir_phi_rows_kernel_total",
                              "matrix rows computed by the packed kernels"),
      obs::registry().gauge(
          "fenrir_phi_delta_density",
          "churn fraction |delta|/N at the last delta-vs-kernel decision"),
      obs::registry().gauge(
          "fenrir_phi_delta_speedup_ratio",
          "estimated per-pair work ratio N/(|delta|+1) of the last "
          "delta-path row (scalar scan cost over patch cost)"),
      obs::registry().histogram(
          "fenrir_phi_append_seconds", obs::Histogram::duration_bounds(),
          "wall time of one SimilarityMatrix row append (pack + plan) or "
          "settle (the batched Phi fill): one sample per appended row plus "
          "one per settle")};
  return m;
}

/// Times a whole row append or settle — every exit path — into the
/// latency histogram the /metrics/history p99 series is built from. Two
/// clock reads per call, noise next to the call's own O(N) work.
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
  m.settle_.settled.store(n);
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

void SimilarityMatrix::pin_anchor(std::size_t row) const {
  if (row >= n_) throw std::out_of_range("SimilarityMatrix::pin_anchor");
}

bool SimilarityMatrix::plan_row(std::size_t base, std::size_t i,
                                std::size_t churn,
                                std::vector<DeltaEntry>& delta) {
  PhiMetrics& metrics = phi_metrics();
  const std::size_t nets = packed_.networks();
  bool patch = false;
  if (base != kNoAnchorRow) {
    // No change set is built unless the row patches.
    metrics.delta_density.set(
        nets == 0 ? 1.0
                  : static_cast<double>(churn) / static_cast<double>(nets));
    patch = churn <= static_cast<std::size_t>(kDeltaDensityThreshold *
                                              static_cast<double>(nets));
  }
  if (patch) {
    delta = packed_.delta_between(base, i);
    metrics.rows_delta.inc();
    metrics.delta_speedup.set(static_cast<double>(nets) /
                              static_cast<double>(delta.size() + 1));
  } else {
    metrics.rows_kernel.inc();
    // The predecessor did not explain this row (or there was none): an
    // O(T·N) kernel row. One is a new routing state; a storm means the
    // series churns past the threshold. Debug severity — the bus's
    // per-type dedup condenses a storm to its first burst plus a
    // suppressed count.
    obs::event_bus().emit(obs::Severity::kDebug, "anchor_fallback",
                          "\"row\":" + std::to_string(i));
  }
  return patch;
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

void SimilarityMatrix::ingest(const RoutingVector& v) {
  if (packed_.rows() != n_) {
    throw std::logic_error(
        "SimilarityMatrix::append: matrix was not built incrementally "
        "(compute_reference matrices are read-only)");
  }
  const bool weighted = !weights_.empty();
  if (weighted && v.assignment.size() != weights_.size()) {
    throw std::invalid_argument("SimilarityMatrix: weight size mismatch");
  }
  PhiMetrics& metrics = phi_metrics();
  AppendTimer timer(metrics.append_seconds);
  const std::size_t i = n_;
  packed_.append(v);  // also rejects size mismatches against earlier rows
  n_ += 1;
  values_.push_row();
  valid_.push_back(v.valid ? 1 : 0);
  anchor_of_.resize(n_, kNoAnchorRow);
  metrics.appends.inc();
  RowPlan& plan = pending_.emplace_back();
  // An invalid slot keeps its timeline position and fills nothing.
  if (!v.valid) return;
  if (weighted) {
    plan.path = RowPlan::Path::kWeighted;
    return;
  }
  // The path an append() has always taken, against the same
  // predecessor, whether or not that row has settled: planning reads
  // packed rows only. One pass of the new row against {prev, itself}
  // gives the churn |Δ(prev, i)| and caches the row's known count.
  const std::size_t churn =
      prev_ == kNoAnchorRow ? 0 : packed_.tally(i, prev_).differ;
  std::vector<DeltaEntry> delta;
  if (plan_row(prev_, i, churn, delta)) {
    plan.path = RowPlan::Path::kDelta;
    plan.base = prev_;
    plan.delta_size = delta.size();
    plan.prep = prepare_delta(delta);
    anchor_of_[i] = prev_;
  } else {
    plan.path = RowPlan::Path::kKernel;
  }
  prev_ = i;
}

void SimilarityMatrix::append(const RoutingVector& v) {
  ingest(v);
  if (pending_.size() >= kSettleRows) settle();
}

void SimilarityMatrix::append_batch(std::span<const RoutingVector> batch) {
  obs::Span span("phi_matrix");
  // One reservation for the whole batch: growing the triangle row by row
  // would reallocate it, and copy every earlier row, over and over.
  reserve(n_ + batch.size());
  for (const RoutingVector& v : batch) {
    ingest(v);
    if (pending_.size() >= kSettleRows) fill_pending();
  }
  fill_pending();
}

void SimilarityMatrix::settle() const {
  if (settle_.settled.load() == n_) return;
  const std::lock_guard<std::mutex> lock(settle_.mutex);
  if (settle_.settled.load() == n_) return;
  obs::Span span("phi_matrix");
  fill_pending();
}

void SimilarityMatrix::fill_pending() const {
  using Path = RowPlan::Path;
  const std::size_t k = pending_.size();
  if (k == 0) return;
  const std::size_t n0 = n_ - k;
  AppendTimer timer(phi_metrics().append_seconds);  // one sample per settle
  const std::size_t nets = packed_.networks();
  // Weighted rows keep the reference's in-order accumulation, per pair.
  const auto weighted_phi = [&](std::size_t i, std::size_t j) {
    return phi_from_weighted(
        packed_.weighted_counts(i, j, weights_, policy_, total_weight_));
  };
  std::vector<std::vector<MatchCounts>> row_counts(k);
  std::vector<std::size_t> kernel_rows;
  std::size_t per_col = 1;  // one old column's delta and weighted work
  bool any_by_column = false;
  for (std::size_t r = 0; r < k; ++r) {
    const RowPlan& p = pending_[r];
    if (p.path == Path::kKernel || p.path == Path::kDelta) {
      row_counts[r].resize(n0 + r + 1);
    }
    if (p.path == Path::kKernel) kernel_rows.push_back(r);
    if (p.path == Path::kDelta || p.path == Path::kWeighted) {
      any_by_column = true;
      per_col += p.path == Path::kDelta ? p.delta_size + 1 : nets;
    }
  }
  // Kernel rows first: a delta row may patch from one of them.
  if (!kernel_rows.empty()) fill_kernel_tiles(kernel_rows, row_counts);

  // Delta and weighted rows against the settled rows, column-outer: row
  // j's packed bytes are loaded once and patched against every pending
  // row. A pending base resolves within the same column — row r' < r was
  // filled earlier in the inner loop, or by the tiles.
  const auto fill_old = [&](std::size_t j) {
    if (!valid_[j]) return;
    packed_.prefetch_row(j + 1 < n0 ? j + 1 : j);
    const ColumnPatcher patcher(packed_, j);
    for (std::size_t r = 0; r < k; ++r) {
      const RowPlan& p = pending_[r];
      const std::size_t i = n0 + r;
      if (p.path == Path::kWeighted) {
        values_.owned_row(i)[j] = weighted_phi(i, j);
      } else if (p.path == Path::kDelta) {
        const MatchCounts base =
            p.base < n0 ? prev_counts_[j] : row_counts[p.base - n0][j];
        const MatchCounts c = patcher.apply(base, p.prep);
        row_counts[r][j] = c;
        values_.owned_row(i)[j] = phi_from_counts(c, nets, policy_);
      }
    }
  };
  // The grain keeps small settles on the calling thread, starting no
  // helper (a few delta rows over a short matrix are microseconds of
  // work); the cutoff affects time only, never values.
  if (any_by_column) {
    parallel_for(n0, fill_old, threads_,
                 std::max<std::size_t>(1, 65536 / per_col));
  }

  // The delta and weighted rows' k×k corner, row-major. Every base a
  // delta row needs is a pair among earlier pending rows (or the cached
  // predecessor against an earlier pending column), already in
  // row_counts by symmetry: counts(a, b) for a > b lives at
  // row_counts[a - n0][b].
  for (std::size_t r = 0; r < k; ++r) {
    const RowPlan& p = pending_[r];
    if (p.path != Path::kDelta && p.path != Path::kWeighted) continue;
    const std::size_t i = n0 + r;
    double* vrow = values_.owned_row(i);
    for (std::size_t s = 0; s <= r; ++s) {
      const std::size_t j = n0 + s;
      if (!valid_[j]) continue;
      if (p.path == Path::kWeighted) {
        vrow[j] = weighted_phi(i, j);
        continue;
      }
      MatchCounts c;
      if (s == r) {
        const std::uint64_t known_i = packed_.known(i);  // the diagonal
        c = {known_i, known_i};
      } else {
        const std::size_t b = p.base;
        const MatchCounts base = (b >= n0 && b - n0 > s)
                                     ? row_counts[b - n0][j]
                                     : row_counts[s][b];
        c = apply_prepared(base, p.prep, packed_, j);
      }
      row_counts[r][j] = c;
      vrow[j] = phi_from_counts(c, nets, policy_);
    }
  }

  // The newest valid pending row's counts become the cache, padded with
  // placeholders for the invalid rows after it.
  for (std::size_t r = k; r-- > 0;) {
    if (!row_counts[r].empty()) {
      prev_counts_ = std::move(row_counts[r]);
      break;
    }
  }
  if (prev_ != kNoAnchorRow) prev_counts_.resize(n_);
  pending_.clear();
  settle_.settled.store(n_);
}

void SimilarityMatrix::fill_kernel_tiles(
    std::span<const std::size_t> rows,
    std::vector<std::vector<MatchCounts>>& row_counts) const {
  const std::size_t n0 = n_ - pending_.size();
  const std::size_t nets = packed_.networks();
  const std::size_t chunk = kTileBytes * 8 / packed_.bits();  // even
  // A row of no networks still gets its Φ columns from one empty chunk.
  const std::size_t chunks =
      std::max<std::size_t>(1, (nets + chunk - 1) / chunk);
  // Columns [0, cols) meet at least one kernel row (the diagonals come
  // from the known counts). Rows ascend, so the rows after column j are
  // a suffix.
  const std::size_t cols = n0 + rows.back();
  // Every known count the workers read is counted now, on this thread:
  // a lazy fill inside the parallel region would race. A column adopted
  // from a store pays its one self-tally here, once per session.
  for (std::size_t j = 0; j < cols; ++j) {
    if (valid_[j]) packed_.known(j);
  }
  for (const std::size_t r : rows) packed_.known(n0 + r);
  // Worker w owns columns w, w+W, ...: each count has one writer, so the
  // chunks' partial sums need no reduction. The grain keeps a small
  // settle on the calling thread; it affects time only, never values.
  const std::size_t grain =
      std::max<std::size_t>(1, 65536 / (rows.size() * nets + 1));
  const unsigned wanted =
      threads_ != 0 ? threads_ : std::thread::hardware_concurrency();
  const auto workers = static_cast<unsigned>(
      std::max<std::size_t>(1, std::min<std::size_t>(wanted, cols / grain)));

  const auto run = [&](std::size_t w) {
    // The worker's valid columns, ascending, and for each the first
    // kernel row after it. The chunk tallies of kernel row x against
    // the worker's column p sum at sums[p * k + x], which no other
    // worker writes.
    const std::size_t k = rows.size();
    std::vector<std::size_t> mine, first;
    std::size_t x0 = 0;
    for (std::size_t j = w; j < cols; j += workers) {
      while (n0 + rows[x0] <= j) ++x0;
      if (!valid_[j]) continue;
      mine.push_back(j);
      first.push_back(x0);
    }
    std::vector<PairTally> sums(mine.size() * k);
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = c * chunk;
      const std::size_t len = std::min(chunk, nets - lo);
      // Column-outer, two columns a pass: each kernel row's chunk, which
      // stays in L2 across the columns, streams past both columns'
      // chunks at once. The rows between the two columns meet only the
      // first.
      for (std::size_t p = 0; p < mine.size(); p += 2) {
        PairTally* s0 = sums.data() + p * k;
        const std::size_t mid = p + 1 < mine.size() ? first[p + 1] : k;
        for (std::size_t x = first[p]; x < mid; ++x) {
          s0[x] += packed_.tally(n0 + rows[x], mine[p], lo, len);
        }
        for (std::size_t x = mid; x < k; ++x) {
          const auto [t0, t1] =
              packed_.tally2(n0 + rows[x], mine[p], mine[p + 1], lo, len);
          s0[x] += t0;
          s0[k + x] += t1;
        }
      }
    }
    // The whole-row tallies, with the known counts, give the counts.
    for (std::size_t p = 0; p < mine.size(); ++p) {
      const std::size_t j = mine[p];
      for (std::size_t x = first[p]; x < k; ++x) {
        const std::size_t i = n0 + rows[x];
        const MatchCounts m = match_counts(sums[p * k + x], packed_.known(i),
                                           packed_.known(j));
        row_counts[rows[x]][j] = m;
        values_.owned_row(i)[j] = phi_from_counts(m, nets, policy_);
      }
    }
  };
  parallel_for(workers, run, workers);

  for (const std::size_t r : rows) {
    const std::size_t i = n0 + r;
    const std::uint64_t known_i = packed_.known(i);  // the diagonal
    row_counts[r][i] = {known_i, known_i};
    values_.owned_row(i)[i] = phi_from_counts(row_counts[r][i], nets, policy_);
  }
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
  settle_.settled.store(n_);
}

void SimilarityMatrix::append_precomputed(const AdoptedRow& row,
                                          std::size_t src_bits) {
  settle();  // the rows before it fill against the cache they planned on
  const std::size_t i = n_;
  packed_.append_packed(row.packed, src_bits);
  valid_.push_back(row.valid ? 1 : 0);
  anchor_of_.push_back(row.anchor_of);
  values_.push_row();
  std::memcpy(values_.owned_row(i), row.phi, (i + 1) * sizeof(double));
  n_ += 1;
  settle_.settled.store(n_);
  // No counts for this row: drop the cache rather than pay a kernel row
  // to extend it, so the next valid append pays the kernels instead.
  prev_ = kNoAnchorRow;
  prev_counts_.clear();
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
  settle();
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
  settle();
  std::vector<double> values;
  values.reserve(keys.size());
  for (const auto& [i, j] : keys) values.push_back(values_.get(i, j));
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  return values[mid];
}

}  // namespace fenrir::core
