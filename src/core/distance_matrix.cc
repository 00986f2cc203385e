#include "core/distance_matrix.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace fenrir::core {

namespace {

struct PhiMetrics {
  obs::Counter& appends;
  obs::Counter& rows_kernel;
  obs::Histogram& append_seconds;
};

PhiMetrics& phi_metrics() {
  static PhiMetrics m{
      obs::registry().counter("fenrir_phi_appends_total",
                              "rows appended to similarity matrices"),
      obs::registry().counter("fenrir_phi_rows_kernel_total",
                              "matrix rows computed by the packed kernels"),
      obs::registry().histogram(
          "fenrir_phi_append_seconds", obs::Histogram::duration_bounds(),
          "wall time of one SimilarityMatrix row append (the pack) or "
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

std::vector<std::size_t> SimilarityMatrix::anchor_chain(
    std::size_t /*row*/, std::size_t /*max_depth*/) const {
  return {};
}

void SimilarityMatrix::ingest(const RoutingVector& v) {
  if (packed_.rows() != n_) {
    throw std::logic_error(
        "SimilarityMatrix::append: matrix was not built incrementally "
        "(compute_reference matrices are read-only)");
  }
  if (!weights_.empty() && v.assignment.size() != weights_.size()) {
    throw std::invalid_argument("SimilarityMatrix: weight size mismatch");
  }
  PhiMetrics& metrics = phi_metrics();
  AppendTimer timer(metrics.append_seconds);
  packed_.append(v);  // also rejects size mismatches against earlier rows
  n_ += 1;
  values_.push_row();
  valid_.push_back(v.valid ? 1 : 0);
  metrics.appends.inc();
  if (v.valid && weights_.empty()) metrics.rows_kernel.inc();
}

void SimilarityMatrix::append(const RoutingVector& v) {
  ingest(v);
  if (pending() >= kSettleRows) settle();
}

void SimilarityMatrix::append_batch(std::span<const RoutingVector> batch) {
  obs::Span span("phi_matrix");
  // One reservation for the whole batch: growing the triangle row by row
  // would reallocate it, and copy every earlier row, over and over.
  reserve(n_ + batch.size());
  for (const RoutingVector& v : batch) {
    ingest(v);
    if (pending() >= kSettleRows) fill_pending();
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
  const std::size_t k = pending();
  if (k == 0) return;
  const std::size_t n0 = n_ - k;
  AppendTimer timer(phi_metrics().append_seconds);  // one sample per settle
  // An invalid slot keeps its timeline position and fills nothing.
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < k; ++r) {
    if (valid_[n0 + r]) rows.push_back(r);
  }
  if (!rows.empty()) {
    if (weights_.empty()) {
      fill_kernel_tiles(rows);
    } else {
      fill_weighted(rows);
    }
  }
  settle_.settled.store(n_);
}

void SimilarityMatrix::fill_weighted(std::span<const std::size_t> rows) const {
  const std::size_t n0 = n_ - pending();
  const auto weighted_phi = [&](std::size_t i, std::size_t j) {
    return phi_from_weighted(
        packed_.weighted_counts(i, j, weights_, policy_, total_weight_));
  };
  const auto fill_old = [&](std::size_t j) {
    if (!valid_[j]) return;
    for (const std::size_t r : rows) {
      values_.owned_row(n0 + r)[j] = weighted_phi(n0 + r, j);
    }
  };
  // The grain keeps small settles on the calling thread, starting no
  // helper; the cutoff affects time only, never values.
  const std::size_t per_col = 1 + rows.size() * packed_.networks();
  parallel_for(n0, fill_old, threads_,
               std::max<std::size_t>(1, 65536 / per_col));
  for (const std::size_t r : rows) {
    const std::size_t i = n0 + r;
    for (std::size_t j = n0; j <= i; ++j) {
      if (valid_[j]) values_.owned_row(i)[j] = weighted_phi(i, j);
    }
  }
}

void SimilarityMatrix::fill_kernel_tiles(
    std::span<const std::size_t> rows) const {
  const std::size_t n0 = n_ - pending();
  const std::size_t k = rows.size();
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
  const std::size_t grain = std::max<std::size_t>(1, 65536 / (k * nets + 1));
  const unsigned wanted =
      threads_ != 0 ? threads_ : std::thread::hardware_concurrency();
  const auto workers = static_cast<unsigned>(
      std::max<std::size_t>(1, std::min<std::size_t>(wanted, cols / grain)));

  // Worker w's valid columns, ascending, are mine[start[w], start[w+1]),
  // each with the first kernel row after it in first[]; the chunk
  // tallies of kernel row x against column p sum at sums[p * k + x].
  // All three are laid out here, so the helpers a settle starts
  // allocate nothing.
  std::vector<std::size_t> mine, first, start;
  for (std::size_t w = 0; w < workers; ++w) {
    start.push_back(mine.size());
    std::size_t x0 = 0;
    for (std::size_t j = w; j < cols; j += workers) {
      while (n0 + rows[x0] <= j) ++x0;
      if (!valid_[j]) continue;
      mine.push_back(j);
      first.push_back(x0);
    }
  }
  start.push_back(mine.size());
  std::vector<PairTally> sums(mine.size() * k);

  const auto run = [&](std::size_t w) {
    const std::size_t begin = start[w], end = start[w + 1];
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = c * chunk;
      const std::size_t len = std::min(chunk, nets - lo);
      // Column-outer, two columns a pass: each kernel row's chunk, which
      // stays in L2 across the columns, streams past both columns'
      // chunks at once. The rows between the two columns meet only the
      // first.
      for (std::size_t p = begin; p < end; p += 2) {
        PairTally* s0 = sums.data() + p * k;
        const std::size_t mid = p + 1 < end ? first[p + 1] : k;
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
    // The whole-row tallies, with the known counts, give Φ.
    for (std::size_t p = begin; p < end; ++p) {
      const std::size_t j = mine[p];
      for (std::size_t x = first[p]; x < k; ++x) {
        const std::size_t i = n0 + rows[x];
        values_.owned_row(i)[j] = phi_from_counts(
            match_counts(sums[p * k + x], packed_.known(i), packed_.known(j)),
            nets, policy_);
      }
    }
  };
  parallel_for(workers, run, workers);

  for (const std::size_t r : rows) {
    const std::size_t i = n0 + r;
    const std::uint64_t known_i = packed_.known(i);  // the diagonal
    values_.owned_row(i)[i] = phi_from_counts({known_i, known_i}, nets, policy_);
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
  for (const AdoptedRow& r : rows) {
    values_.adopt_row(r.phi);
    valid_.push_back(r.valid ? 1 : 0);
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
  settle();  // the rows before it keep the settled-prefix invariant
  const std::size_t i = n_;
  packed_.append_packed(row.packed, src_bits);
  valid_.push_back(row.valid ? 1 : 0);
  values_.push_row();
  std::memcpy(values_.owned_row(i), row.phi, (i + 1) * sizeof(double));
  n_ += 1;
  settle_.settled.store(n_);
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
