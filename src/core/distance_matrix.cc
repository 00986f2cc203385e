#include "core/distance_matrix.h"

#include <algorithm>
#include <chrono>
#include <cstring>

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

void SimilarityMatrix::pin_anchor(std::size_t row) const {
  if (row >= n_) throw std::out_of_range("SimilarityMatrix::pin_anchor");
}

std::uint64_t SimilarityMatrix::known(std::size_t row) {
  if (known_[row] == kKnownUnset) {
    known_[row] = packed_.counts(row, row).mutual_known;
  }
  return known_[row];
}

bool SimilarityMatrix::plan_row(std::size_t base, std::size_t i,
                                const MatchCounts& c,
                                std::vector<DeltaEntry>& delta) {
  PhiMetrics& metrics = phi_metrics();
  const std::size_t nets = packed_.networks();
  bool patch = false;
  if (base != kNoAnchorRow) {
    // Exact |Δ(base, i)| from counts the row needs for its base column
    // anyway: no change set is built unless the row patches.
    const auto churn = static_cast<std::size_t>(
        known(base) + known(i) - c.mutual_known - c.matches);
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
  PhiMetrics& metrics = phi_metrics();
  metrics.appends.inc();
  AppendTimer timer(metrics.append_seconds);
  if (!v.valid) {
    // The slot keeps its timeline position; the cache gets a placeholder
    // so column indices keep lining up.
    if (prev_ != kNoAnchorRow) prev_counts_.emplace_back();
    return;
  }

  const bool weighted = !weights_.empty();
  const std::size_t nets = packed_.networks();
  double* vrow = values_.owned_row(i);  // new rows are always owned

  // The diagonal and the predecessor column are computed here, once —
  // the path rule reads them — and kept for the fill.
  std::vector<MatchCounts> row(i + 1);
  const std::size_t base = weighted ? kNoAnchorRow : prev_;
  std::vector<DeltaEntry> delta;
  bool use_delta = false;
  if (!weighted) {
    const std::uint64_t k = known(i);
    row[i] = {k, k};
    MatchCounts c;
    if (base != kNoAnchorRow) row[base] = c = packed_.counts(base, i);
    use_delta = plan_row(base, i, c, delta);
  }
  if (use_delta) anchor_of_[i] = base;

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
    if (j != i && j != base) {
      row[j] = use_delta
                   ? ColumnPatcher(packed_, j).apply(prev_counts_[j], prep)
                   : packed_.counts(i, j);
    }
    vrow[j] = phi_from_counts(row[j], nets, policy_);
  };

  // The grain makes small rows skip pool dispatch entirely (a delta row
  // over a short matrix is microseconds of work — a pool wakeup costs
  // more than it saves); the cutoff affects time only, never values.
  const std::size_t per_pair = use_delta ? delta.size() + 1 : nets;
  parallel_for(i + 1, fill_column, threads_,
               std::max<std::size_t>(
                   1, 65536 / std::max<std::size_t>(per_pair, 1)));

  if (weighted) return;
  // Whatever the path, the row's exact counts are the next row's cache.
  prev_ = i;
  prev_counts_ = std::move(row);
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
  // reserved by append_batch), so the planning pass can read any batch
  // row.
  for (const RoutingVector& v : batch) {
    packed_.append(v);
    valid_.push_back(v.valid ? 1 : 0);
    known_.push_back(kKnownUnset);
    values_.push_row();
  }
  n_ = n0 + k;
  anchor_of_.resize(n_, kNoAnchorRow);

  // Pass A: sequential planning — the path an append() loop would take
  // for each row, against the same predecessor. Only the first valid
  // row can patch from a pre-batch row (the cached prev_counts_, which
  // stays put until pass C); every later one patches from an earlier
  // batch row.
  struct RowPlan {
    enum class Path { kInvalid, kKernel, kDelta } path = Path::kInvalid;
    std::size_t base = 0;  // global row id of the predecessor
    std::vector<DeltaEntry> delta;
    // The change-set classified by endpoint known-ness, once per row —
    // the fills replay it against every column without re-testing the
    // column-invariant kUnknownSite conditions.
    PreparedDelta prep;
  };
  std::vector<RowPlan> plan(k);
  std::size_t prev = prev_;
  for (std::size_t r = 0; r < k; ++r) {
    const std::size_t i = n0 + r;
    metrics.appends.inc();
    if (!batch[r].valid) continue;
    const MatchCounts c =
        prev == kNoAnchorRow ? MatchCounts{} : packed_.counts(prev, i);
    if (plan_row(prev, i, c, plan[r].delta)) {
      plan[r].path = RowPlan::Path::kDelta;
      plan[r].base = prev;
      plan[r].prep = prepare_delta(plan[r].delta);
      anchor_of_[i] = prev;
    } else {
      plan[r].path = RowPlan::Path::kKernel;
    }
    prev = i;
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
  // loop would. In-batch bases resolve within the same column: base row
  // r' < r was patched earlier in the inner loop.
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
            p.base < n0 ? prev_counts_[j] : row_counts[p.base - n0][j];
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
  // a pair among earlier batch rows (or the pre-batch predecessor
  // against an earlier batch column), already in row_counts by symmetry:
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

  // Pass C: the last valid batch row's counts become the cache, padded
  // with placeholders for the invalid rows after it.
  if (prev != prev_) {
    prev_ = prev;
    prev_counts_ = std::move(row_counts[prev - n0]);
  }
  if (prev_ != kNoAnchorRow) prev_counts_.resize(n_);
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
