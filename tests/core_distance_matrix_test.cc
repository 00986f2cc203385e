#include "core/distance_matrix.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/simd_dispatch.h"
#include "io/segment_store.h"
#include "obs/metrics.h"
#include "rng/rng.h"

namespace fenrir::core {
namespace {

// A series with controllable churn: each vector flips `churn` of the
// networks of its predecessor — the paper's recurring-routing structure
// that the delta path exploits. Includes invalid (outage) slots.
Dataset churn_dataset(std::size_t obs, std::size_t nets, double churn,
                      std::uint64_t seed, double invalid_frac = 0.0,
                      double unknown_frac = 0.1, bool weighted = false) {
  Dataset d;
  d.name = "churn";
  for (std::size_t n = 0; n < nets; ++n) d.networks.intern(n);
  for (int s = 0; s < 6; ++s) d.sites.intern("s" + std::to_string(s));
  rng::Rng r(seed);
  RoutingVector v;
  v.assignment.resize(nets);
  for (auto& s : v.assignment) {
    s = r.bernoulli(unknown_frac)
            ? kUnknownSite
            : static_cast<SiteId>(kFirstRealSite + r.uniform(6));
  }
  for (std::size_t t = 0; t < obs; ++t) {
    v.time = static_cast<TimePoint>(t) * kDay;
    v.valid = !r.bernoulli(invalid_frac);
    d.series.push_back(v);
    const auto flips = static_cast<std::size_t>(churn * nets);
    for (std::size_t k = 0; k < flips; ++k) {
      v.assignment[r.uniform(nets)] =
          r.bernoulli(unknown_frac)
              ? kUnknownSite
              : static_cast<SiteId>(kFirstRealSite + r.uniform(6));
    }
  }
  if (weighted) {
    d.weights.resize(nets);
    for (auto& w : d.weights) w = 0.1 + r.uniform01() * 2.0;
  }
  return d;
}

// Two routing modes alternating in blocks of `period` — the paper's
// recurring structure. Each mode keeps its own slowly-churning vector
// (only the active mode churns), so a return to a mode lands within a
// few change-sets of that mode's previous occurrence while staying far
// from the immediate predecessor: every mode flip pays a kernel row.
Dataset periodic_dataset(std::size_t obs, std::size_t nets,
                         std::size_t period, double churn,
                         std::uint64_t seed, double invalid_frac = 0.0,
                         double unknown_frac = 0.1) {
  Dataset d;
  d.name = "periodic";
  for (std::size_t n = 0; n < nets; ++n) d.networks.intern(n);
  for (int s = 0; s < 6; ++s) d.sites.intern("s" + std::to_string(s));
  rng::Rng r(seed);
  const auto random_site = [&]() -> SiteId {
    return r.bernoulli(unknown_frac)
               ? kUnknownSite
               : static_cast<SiteId>(kFirstRealSite + r.uniform(6));
  };
  RoutingVector modes[2];
  for (auto& m : modes) {
    m.assignment.resize(nets);
    for (auto& s : m.assignment) s = random_site();
  }
  const auto flips = static_cast<std::size_t>(churn * nets);
  for (std::size_t t = 0; t < obs; ++t) {
    RoutingVector& m = modes[(t / period) % 2];
    m.time = static_cast<TimePoint>(t) * kDay;
    m.valid = !r.bernoulli(invalid_frac);
    d.series.push_back(m);
    for (std::size_t k = 0; k < flips; ++k) {
      m.assignment[r.uniform(nets)] = random_site();
    }
  }
  return d;
}

void expect_bit_identical(const SimilarityMatrix& got,
                          const SimilarityMatrix& want,
                          const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.valid(i), want.valid(i)) << label << " row " << i;
    for (std::size_t j = 0; j <= i; ++j) {
      ASSERT_EQ(got.phi(i, j), want.phi(i, j))
          << label << " phi(" << i << "," << j << ")";
    }
  }
}

// The acceptance property: compute() (packed kernels + delta path +
// append construction) is bit-identical to the scalar reference across
// churn levels, policies, weighting, invalid slots, and thread counts.
TEST(SimilarityMatrixFast, ComputeBitIdenticalToReference) {
  struct Case {
    double churn;
    double invalid;
    bool weighted;
  };
  const Case cases[] = {
      {0.01, 0.0, false},  // low churn: delta path
      {0.01, 0.2, false},  // delta path interrupted by outages
      {0.5, 0.1, false},   // high churn: kernel path
      {0.01, 0.1, true},   // weighted: kernel path only
  };
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const Case& c : cases) {
      for (const auto policy :
           {UnknownPolicy::kPessimistic, UnknownPolicy::kKnownOnly}) {
        const Dataset d =
            churn_dataset(24, 400, c.churn, seed, c.invalid, 0.15, c.weighted);
        const auto ref = SimilarityMatrix::compute_reference(d, policy);
        for (const unsigned threads : {1u, 0u, 3u}) {
          const auto fast = SimilarityMatrix::compute(d, policy, threads);
          expect_bit_identical(
              fast, ref,
              "churn=" + std::to_string(c.churn) + " weighted=" +
                  std::to_string(c.weighted) + " threads=" +
                  std::to_string(threads) + " seed=" + std::to_string(seed));
        }
      }
    }
  }
}

TEST(SimilarityMatrixFast, AppendLoopBitIdenticalToReference) {
  const Dataset d = churn_dataset(30, 300, 0.02, 9, 0.15);
  for (const auto policy :
       {UnknownPolicy::kPessimistic, UnknownPolicy::kKnownOnly}) {
    const auto ref = SimilarityMatrix::compute_reference(d, policy);
    SimilarityMatrix grown(policy, d.weights, 1);
    for (const RoutingVector& v : d.series) {
      grown.append(v);
      // Every prefix of the grown matrix already agrees with the final
      // reference values — append never revisits old cells.
      const std::size_t t = grown.size() - 1;
      for (std::size_t j = 0; j <= t; ++j) {
        ASSERT_EQ(grown.phi(t, j), ref.phi(t, j)) << t << "," << j;
      }
    }
    expect_bit_identical(grown, ref, "append loop");
  }
}

TEST(SimilarityMatrixFast, AppendOnReferenceMatrixThrows) {
  const Dataset d = churn_dataset(4, 50, 0.1, 3);
  auto ref = SimilarityMatrix::compute_reference(d);
  EXPECT_THROW(ref.append(d.series[0]), std::logic_error);
}

TEST(SimilarityMatrixFast, AppendChecksWeightSize) {
  SimilarityMatrix m(UnknownPolicy::kPessimistic, {1.0, 2.0}, 1);
  RoutingVector v;
  v.assignment = {3, 4, 5};
  EXPECT_THROW(m.append(v), std::invalid_argument);
}

TEST(SimilarityMatrixFast, DeltaPathEngagesOnLowChurn) {
  auto& delta_rows =
      obs::registry().counter("fenrir_phi_rows_delta_total");
  auto& kernel_rows =
      obs::registry().counter("fenrir_phi_rows_kernel_total");
  const auto delta_before = delta_rows.value();
  const auto kernel_before = kernel_rows.value();

  // 1% churn over 2000 networks: every row after the first patches.
  const Dataset low = churn_dataset(12, 2000, 0.01, 21);
  (void)SimilarityMatrix::compute(low, UnknownPolicy::kPessimistic, 1);
  EXPECT_GE(delta_rows.value() - delta_before, 10u);

  // 50% churn: the kernels take over.
  const auto delta_mid = delta_rows.value();
  const Dataset high = churn_dataset(12, 2000, 0.5, 22);
  (void)SimilarityMatrix::compute(high, UnknownPolicy::kPessimistic, 1);
  EXPECT_EQ(delta_rows.value(), delta_mid);
  EXPECT_GE(kernel_rows.value() - kernel_before, 12u);
}

// Mode alternation mixes both paths — predecessor patches within a block,
// kernel rows at each flip — and both must stay bit-identical to the
// scalar reference.
TEST(SimilarityMatrixAnchors, PeriodicBitIdenticalToReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const auto policy :
         {UnknownPolicy::kPessimistic, UnknownPolicy::kKnownOnly}) {
      const Dataset d = periodic_dataset(36, 400, 6, 0.01, seed,
                                         seed == 3 ? 0.15 : 0.0);
      const auto ref = SimilarityMatrix::compute_reference(d, policy);
      for (const unsigned threads : {1u, 0u}) {
        const auto fast = SimilarityMatrix::compute(d, policy, threads);
        expect_bit_identical(fast, ref,
                             "periodic seed=" + std::to_string(seed) +
                                 " threads=" + std::to_string(threads));
      }
    }
  }
}

// pin_anchor is a range-checked no-op: pinning any row, valid or not,
// changes neither a value nor a path.
TEST(SimilarityMatrixAnchors, PinAnchorValidatesAndStaysIdentical) {
  const Dataset d = churn_dataset(20, 300, 0.02, 5, 0.1);
  const auto ref = SimilarityMatrix::compute_reference(d);
  EXPECT_NO_THROW(ref.pin_anchor(0));
  EXPECT_THROW(ref.pin_anchor(d.series.size()), std::out_of_range);

  SimilarityMatrix plain(UnknownPolicy::kPessimistic, d.weights, 1);
  for (const RoutingVector& v : d.series) plain.append(v);

  SimilarityMatrix m(UnknownPolicy::kPessimistic, d.weights, 1);
  EXPECT_THROW(m.pin_anchor(0), std::out_of_range);
  for (std::size_t t = 0; t < d.series.size(); ++t) {
    m.append(d.series[t]);
    m.pin_anchor(t);
    m.pin_anchor(t / 2);
  }
  EXPECT_THROW(m.pin_anchor(99), std::out_of_range);
  expect_bit_identical(m, ref, "pinned");
  for (std::size_t row = 0; row < m.size(); ++row) {
    EXPECT_EQ(m.anchor_chain(row), plain.anchor_chain(row)) << "row " << row;
  }

  // Weighted matrices run kernels only; pinning is a documented no-op.
  SimilarityMatrix w(UnknownPolicy::kPessimistic, {1.0, 2.0, 3.0}, 1);
  RoutingVector v;
  v.assignment = {3, 4, 5};
  v.valid = true;
  w.append(v);
  EXPECT_NO_THROW(w.pin_anchor(0));
}

// append_batch must produce exactly the matrix an append() loop does —
// across churn shapes, outage slots, policies, warm starts, and batch
// sizes that cross the internal chunk boundary. The cache a batch leaves
// must also be equivalent: appends *after* a batch stay identical too.
TEST(SimilarityMatrixBatch, BatchBitIdenticalToAppendLoop) {
  struct Case {
    Dataset d;
    std::string label;
  };
  const Case cases[] = {
      {churn_dataset(40, 300, 0.02, 5, 0.15), "churn"},
      {periodic_dataset(40, 300, 6, 0.01, 7, 0.1), "periodic"},
      {churn_dataset(70, 120, 0.5, 9), "high churn (kernel rows)"},
      {churn_dataset(90, 60, 0.02, 13, 0.1), "crosses the 64-row chunk"},
  };
  for (const Case& c : cases) {
    for (const auto policy :
         {UnknownPolicy::kPessimistic, UnknownPolicy::kKnownOnly}) {
      SimilarityMatrix loop(policy, c.d.weights, 1);
      for (const RoutingVector& v : c.d.series) loop.append(v);
      SimilarityMatrix batch(policy, c.d.weights, 1);
      batch.append_batch(c.d.series);
      expect_bit_identical(batch, loop, c.label + " one batch");
    }
  }
}

TEST(SimilarityMatrixBatch, WarmBatchAndPostBatchAppendsStayIdentical) {
  const Dataset d = periodic_dataset(48, 400, 8, 0.01, 17, 0.1);
  SimilarityMatrix loop(UnknownPolicy::kPessimistic, d.weights, 1);
  for (const RoutingVector& v : d.series) loop.append(v);

  // Warm start: 20 rows one at a time, a 16-row batch, then the tail
  // appended row-at-a-time again — the post-batch appends only agree if
  // the batch left the cached predecessor counts in the equivalent state.
  SimilarityMatrix mixed(UnknownPolicy::kPessimistic, d.weights, 1);
  for (std::size_t t = 0; t < 20; ++t) mixed.append(d.series[t]);
  mixed.append_batch(
      std::span(d.series).subspan(20, 16));
  for (std::size_t t = 36; t < d.series.size(); ++t) mixed.append(d.series[t]);
  expect_bit_identical(mixed, loop, "warm batch");

  // Degenerate batches.
  SimilarityMatrix tiny(UnknownPolicy::kPessimistic, d.weights, 1);
  tiny.append_batch(std::span(d.series).subspan(0, 0));
  EXPECT_EQ(tiny.size(), 0u);
  tiny.append_batch(std::span(d.series).subspan(0, 1));
  EXPECT_EQ(tiny.size(), 1u);
  EXPECT_EQ(tiny.phi(0, 0), loop.phi(0, 0));
}

TEST(SimilarityMatrixBatch, WeightedBatchFallsBackBitIdentical) {
  const Dataset d = churn_dataset(16, 200, 0.05, 23, 0.1, 0.1, true);
  SimilarityMatrix loop(UnknownPolicy::kKnownOnly, d.weights, 1);
  for (const RoutingVector& v : d.series) loop.append(v);
  SimilarityMatrix batch(UnknownPolicy::kKnownOnly, d.weights, 1);
  batch.append_batch(d.series);
  expect_bit_identical(batch, loop, "weighted batch");
}

// Verfploeter-style sweeps: one slowly drifting routing state, each
// sweep hearing from every network independently with probability
// 1 − unknown_frac — consecutive rows differ in about half of their
// networks at 50% unknown, far past the delta threshold, like the
// paper-scale B-Root workload.
Dataset verfploeter_dataset(std::size_t obs, std::size_t nets,
                            std::uint64_t seed, double unknown_frac = 0.5,
                            double invalid_frac = 0.1) {
  Dataset d;
  d.name = "verfploeter";
  for (std::size_t n = 0; n < nets; ++n) d.networks.intern(n);
  for (int s = 0; s < 6; ++s) d.sites.intern("s" + std::to_string(s));
  rng::Rng r(seed);
  std::vector<SiteId> routing(nets);
  for (auto& s : routing) {
    s = static_cast<SiteId>(kFirstRealSite + r.uniform(6));
  }
  for (std::size_t t = 0; t < obs; ++t) {
    for (std::size_t k = 0; k < nets / 100; ++k) {
      routing[r.uniform(nets)] =
          static_cast<SiteId>(kFirstRealSite + r.uniform(6));
    }
    RoutingVector v;
    v.time = static_cast<TimePoint>(t) * kDay;
    v.valid = !r.bernoulli(invalid_frac);
    v.assignment.resize(nets);
    for (std::size_t n = 0; n < nets; ++n) {
      v.assignment[n] = r.bernoulli(unknown_frac) ? kUnknownSite : routing[n];
    }
    d.series.push_back(std::move(v));
  }
  return d;
}

// The predecessor rule restated element-wise from the raw vectors, with
// no counts: a valid row patches exactly when the newest valid row
// before it still has its counts cached — not across a load at row
// @p load_at, and not for the first valid row — and the two vectors
// differ in at most kDeltaDensityThreshold of the networks. Returns each
// row's expected base, −1 for kernel and invalid rows.
std::vector<long> oracle_bases(
    const Dataset& d, std::size_t load_at = static_cast<std::size_t>(-1)) {
  std::vector<long> bases(d.series.size(), -1);
  long prev = -1;
  for (std::size_t i = 0; i < d.series.size(); ++i) {
    if (i == load_at) prev = -1;
    const RoutingVector& v = d.series[i];
    if (!v.valid) continue;
    if (prev >= 0) {
      const std::vector<SiteId>& before = d.series[prev].assignment;
      std::size_t churn = 0;
      for (std::size_t n = 0; n < before.size(); ++n) {
        churn += before[n] != v.assignment[n];
      }
      if (static_cast<double>(churn) <=
          SimilarityMatrix::kDeltaDensityThreshold *
              static_cast<double>(before.size())) {
        bases[i] = prev;
      }
    }
    prev = static_cast<long>(i);
  }
  return bases;
}

// Each row's anchor-chain base, −1 for none.
std::vector<long> bases_of(const SimilarityMatrix& m) {
  std::vector<long> bases;
  for (std::size_t row = 0; row < m.size(); ++row) {
    const std::vector<std::size_t> chain = m.anchor_chain(row);
    bases.push_back(chain.empty() ? -1 : static_cast<long>(chain[0]));
  }
  return bases;
}

// What append()/append_batch() chose, row by row: each row's base, and
// how the path counters moved.
struct PathTrace {
  std::vector<long> base;
  std::vector<double> counters;  // kPathCounters order
};

constexpr const char* kPathCounters[] = {
    "fenrir_phi_rows_delta_total",
    "fenrir_phi_rows_kernel_total",
};

PathTrace trace_paths(const Dataset& d, bool batch) {
  std::vector<double> before;
  for (const char* name : kPathCounters) {
    before.push_back(obs::registry().counter(name).value());
  }
  SimilarityMatrix m(UnknownPolicy::kPessimistic, d.weights, 1);
  if (batch) {
    m.append_batch(d.series);
  } else {
    for (const RoutingVector& v : d.series) m.append(v);
  }
  expect_bit_identical(m, SimilarityMatrix::compute_reference(d), d.name);
  PathTrace out;
  out.base = bases_of(m);
  for (std::size_t row = 0; row < m.size(); ++row) {
    // The rest of the chain is the base's own chain, truncated.
    const std::vector<std::size_t> chain = m.anchor_chain(row);
    if (!chain.empty()) {
      std::vector<std::size_t> rest = m.anchor_chain(chain[0], 7);
      rest.insert(rest.begin(), chain[0]);
      EXPECT_EQ(chain, rest) << d.name << " row " << row;
    }
  }
  for (std::size_t k = 0; k < std::size(kPathCounters); ++k) {
    out.counters.push_back(
        obs::registry().counter(kPathCounters[k]).value() - before[k]);
  }
  return out;
}

// The per-row bases and path counters, pinned from oracle_bases() for a
// >5%-churn Verfploeter series (kernel rows throughout, invalid slots)
// and a two-mode periodic one (predecessor patches within each block,
// bridging invalid slots, and a kernel row at each flip). A path change
// shows here before it shows in a benchmark.
TEST(SimilarityMatrixAnchors, PathChoicesArePinned) {
  const Dataset verf = verfploeter_dataset(160, 2000, 29);
  const std::vector<long> verf_base(160, -1);
  // rows_delta, rows_kernel.
  const std::vector<double> verf_counters{0, 145};

  const Dataset periodic = periodic_dataset(64, 2000, 8, 0.005, 77, 0.1);
  const std::vector<long> periodic_base{
      -1, 0,  1,  2,  -1, 3,  5,  6,  -1, -1, 8,  -1, 10, 12, -1, -1,
      -1, 16, 17, 18, 19, 20, 21, 22, -1, 24, 25, -1, 26, 28, 29, 30,
      -1, 32, 33, 34, 35, 36, 37, 38, -1, 40, -1, 41, 43, 44, 45, 46,
      -1, -1, 49, -1, 50, 52, 53, 54, -1, 56, 57, 58, -1, 59, 61, 62};
  const std::vector<double> periodic_counters{46, 8};

  EXPECT_EQ(oracle_bases(verf), verf_base);
  EXPECT_EQ(oracle_bases(periodic), periodic_base);
  for (const bool batch : {false, true}) {
    const std::string how = batch ? " append_batch" : " append";
    const PathTrace v = trace_paths(verf, batch);
    EXPECT_EQ(v.base, verf_base) << "verfploeter" << how;
    EXPECT_EQ(v.counters, verf_counters) << "verfploeter" << how;
    const PathTrace p = trace_paths(periodic, batch);
    EXPECT_EQ(p.base, periodic_base) << "periodic" << how;
    EXPECT_EQ(p.counters, periodic_counters) << "periodic" << how;
  }
}

// A precomputed row carries no counts, so it drops the cache: the next
// valid row pays the kernels however little it churns, and the rows
// after it patch again. The precomputed row keeps its recorded base.
TEST(SimilarityMatrixAnchors, AppendPrecomputedDropsTheCache) {
  const Dataset d = churn_dataset(8, 300, 0.01, 4);
  const auto ref = SimilarityMatrix::compute_reference(d);
  SimilarityMatrix m(UnknownPolicy::kPessimistic, d.weights, 1);
  for (std::size_t t = 0; t < 4; ++t) m.append(d.series[t]);
  const std::vector<SiteId>& sites = d.series[4].assignment;
  const std::vector<std::uint8_t> packed(sites.begin(), sites.end());
  std::vector<double> phi;
  for (std::size_t j = 0; j <= 4; ++j) phi.push_back(ref.phi(4, j));
  m.append_precomputed({reinterpret_cast<const std::byte*>(packed.data()),
                        phi.data(), true, 3},
                       8);
  for (std::size_t t = 5; t < d.series.size(); ++t) m.append(d.series[t]);
  expect_bit_identical(m, ref, "precomputed row 4");
  EXPECT_EQ(bases_of(m), oracle_bases(d, 5));
  EXPECT_EQ(bases_of(m), (std::vector<long>{-1, 0, 1, 2, 3, -1, 5, 6}));
}

// Grows @p m over series[from, to) in a random mix of single appends and
// batches of 2..100 rows; returns how many batches crossed the 64-row
// chunk.
std::size_t grow_mixed(SimilarityMatrix& m, const Dataset& d,
                       std::size_t from, std::size_t to, rng::Rng& r) {
  std::size_t crossed = 0;
  for (std::size_t t = from; t < to;) {
    const std::size_t k =
        std::min<std::size_t>(to - t, r.bernoulli(0.4) ? 1 : 2 + r.uniform(99));
    if (k == 1) {
      m.append(d.series[t]);
    } else {
      m.append_batch(std::span(d.series).subspan(t, k));
    }
    crossed += k > 64;
    t += k;
  }
  return crossed;
}

// The predecessor rule against oracle_bases() and Φ against the scalar
// reference, through every way a row enters a matrix: churn, periodic
// and Verfploeter-style series with outage slots (the 2%-unknown one
// straddles the threshold), both policies, serial and pooled fills,
// mixed append/append_batch calls, and a segment-store flush and load
// at a random row — sealed segments come back by page adoption, the
// tail by append_precomputed, and neither brings counts back, so the
// first valid row after the load pays the kernels.
TEST(SimilarityMatrixAnchors, PredecessorRuleMatchesOracle) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("fenrir_predecessor_oracle_" + std::to_string(::getpid()));
  rng::Rng r(2026);
  const Dataset series[] = {
      churn_dataset(150, 400, 0.02, 3, 0.15),
      periodic_dataset(150, 400, 6, 0.01, 5, 0.1),
      verfploeter_dataset(150, 400, 7),
      verfploeter_dataset(150, 400, 8, 0.02),
  };
  std::size_t crossed = 0, delta_rows = 0, kernel_rows = 0;
  for (const Dataset& d : series) {
    for (const auto policy :
         {UnknownPolicy::kPessimistic, UnknownPolicy::kKnownOnly}) {
      const auto ref = SimilarityMatrix::compute_reference(d, policy);
      for (const unsigned threads : {1u, 0u}) {
        const std::size_t load_at = 1 + r.uniform(d.series.size() - 1);
        const std::string label =
            d.name + " policy=" + std::to_string(static_cast<int>(policy)) +
            " threads=" + std::to_string(threads) +
            " load_at=" + std::to_string(load_at);
        std::filesystem::remove_all(dir);
        io::SegmentStoreConfig cfg;
        cfg.seal_rows = 16;
        cfg.threads = threads;
        cfg.background_compaction = false;
        {
          SimilarityMatrix m(policy, d.weights, threads);
          crossed += grow_mixed(m, d, 0, load_at, r);
          io::SegmentStore store(dir, cfg);
          store.attach(&d);
          for (std::size_t t = 0; t < load_at; ++t) {
            store.spill_row(d.series[t], m, t);
          }
          store.flush();
        }
        io::SegmentStore store(dir, cfg);
        store.attach(&d);
        SimilarityMatrix m = store.load(&d).matrix;
        ASSERT_EQ(m.size(), load_at) << label;
        crossed += grow_mixed(m, d, load_at, d.series.size(), r);
        expect_bit_identical(m, ref, label);

        const std::vector<long> want = oracle_bases(d, load_at);
        const std::vector<long> got = bases_of(m);
        EXPECT_EQ(got, want) << label;
        long newest_valid = -1;
        bool after_load = false;
        for (std::size_t row = 0; row < d.series.size(); ++row) {
          after_load = after_load || row == load_at;
          if (!d.series[row].valid) continue;
          if (got[row] >= 0) {
            EXPECT_EQ(got[row], newest_valid) << label << " row " << row;
            ++delta_rows;
          } else {
            ++kernel_rows;
          }
          if (after_load) {
            EXPECT_EQ(got[row], -1) << label << " first valid row " << row
                                    << " after the load";
            after_load = false;
          }
          newest_valid = static_cast<long>(row);
        }
      }
    }
  }
  std::filesystem::remove_all(dir);
  EXPECT_GT(crossed, 0u) << "no batch crossed the 64-row chunk";
  EXPECT_GT(delta_rows, 0u);
  EXPECT_GT(kernel_rows, 0u);
}

// --- the deferred, tiled fill -------------------------------------------

// A series whose rows span three kernel tiles: two routing modes
// alternating every six rows, each churning 1% of its networks per row
// (delta rows inside a block, a kernel row at every flip), 10% outage
// slots, ~15% unknown, and site ids drawn from @p sites so the rows pack
// at 4 (6 sites), 8 (40), 16 (400) or 32 bits (70,000). @p width_bits
// sizes N: two whole tiles plus an odd remainder, so the last tile ends
// mid-vector and, at 4 bits, on a lone low nibble.
Dataset tiled_dataset(std::size_t obs, std::size_t width_bits,
                      std::size_t sites, std::uint64_t seed,
                      bool weighted = false) {
  const std::size_t tile = SimilarityMatrix::kTileBytes * 8 / width_bits;
  const std::size_t nets = 2 * tile + 1001;
  Dataset d;
  d.name = "tiled-" + std::to_string(width_bits);
  for (std::size_t n = 0; n < nets; ++n) d.networks.intern(n);
  rng::Rng r(seed);
  const auto random_site = [&]() -> SiteId {
    return r.bernoulli(0.15)
               ? kUnknownSite
               : static_cast<SiteId>(kFirstRealSite + r.uniform(sites));
  };
  RoutingVector modes[2];
  for (auto& m : modes) {
    m.assignment.resize(nets);
    for (auto& s : m.assignment) s = random_site();
  }
  for (std::size_t t = 0; t < obs; ++t) {
    RoutingVector& m = modes[(t / 6) % 2];
    m.time = static_cast<TimePoint>(t) * kDay;
    m.valid = !r.bernoulli(0.1);
    d.series.push_back(m);
    for (std::size_t k = 0; k < nets / 100; ++k) {
      m.assignment[r.uniform(nets)] = random_site();
    }
  }
  if (weighted) {
    d.weights.resize(nets);
    for (auto& w : d.weights) w = 0.1 + r.uniform01() * 2.0;
  }
  return d;
}

// The three builds against the scalar reference, serial and pooled: an
// append() loop whose first kSettleRows rows settle together at the
// 64th and whose later rows settle at Φ reads made at random points, a
// warm append_batch(), and compute().
void expect_builds_match_reference(const Dataset& d, rng::Rng& r) {
  for (const auto policy :
       {UnknownPolicy::kPessimistic, UnknownPolicy::kKnownOnly}) {
    const auto ref = SimilarityMatrix::compute_reference(d, policy);
    for (const unsigned threads : {1u, 0u}) {
      const std::string label =
          d.name + (d.weights.empty() ? "" : " weighted") +
          " policy=" + std::to_string(static_cast<int>(policy)) +
          " threads=" + std::to_string(threads);
      SimilarityMatrix loop(policy, d.weights, threads);
      for (std::size_t t = 0; t < d.series.size(); ++t) {
        loop.append(d.series[t]);
        if (t >= SimilarityMatrix::kSettleRows && r.bernoulli(0.25)) {
          const std::size_t j = r.uniform(t + 1);
          ASSERT_EQ(loop.phi(t, j), ref.phi(t, j))
              << label << " read at " << t << "," << j;
        }
      }
      expect_bit_identical(loop, ref, label + " append loop");

      SimilarityMatrix batch(policy, d.weights, threads);
      const std::span<const RoutingVector> all(d.series);
      batch.append_batch(all.first(5));
      batch.append_batch(all.subspan(5));
      expect_bit_identical(batch, ref, label + " append_batch");

      expect_bit_identical(SimilarityMatrix::compute(d, policy, threads), ref,
                           label + " compute");
    }
  }
}

// What one tier must reproduce: ranged tallies that add up at any byte
// split, including splits inside a 64-byte vector, one- and two-column
// alike, and the three builds over rows of three tiles at every packed
// width, weighted rows beside them. Every interior tile edge (16 KiB)
// also falls inside the AVX2 count kernels' 4,064-byte accumulation
// block.
void check_tiled_fill_on_active_tier() {
  rng::Rng r(2027);
  const std::size_t widths[][2] = {{4, 6}, {8, 40}, {16, 400}, {32, 70'000}};
  for (const auto& [bits, sites] : widths) {
    const Dataset d = tiled_dataset(72, bits, sites, 31 + bits);
    const std::size_t nets = d.networks.size();
    ASSERT_EQ(nets % 2, 1u);
    ASSERT_GT(packed_row_bytes(nets, bits), 2 * SimilarityMatrix::kTileBytes);

    const PackedSeries packed = PackedSeries::pack(d);
    ASSERT_EQ(packed.bits(), bits) << d.name;
    for (std::size_t trial = 0; trial < 16; ++trial) {
      const std::size_t i = r.uniform(d.series.size());
      const std::size_t j = r.uniform(d.series.size());
      const std::size_t j1 = r.uniform(d.series.size());
      const std::size_t lo = 2 * r.uniform(nets / 2 + 1);
      const PairTally whole = packed.tally(i, j);
      const PairTally head = packed.tally(i, j, 0, lo);
      const auto [rest, rest1] = packed.tally2(i, j, j1, lo, nets - lo);
      ASSERT_EQ(head.differ + rest.differ, whole.differ) << lo;
      ASSERT_EQ(head.either + rest.either, whole.either) << lo;
      const PairTally head1 = packed.tally2(i, j1, i, 0, lo)[0];
      ASSERT_EQ(head1.differ + rest1.differ, packed.tally(i, j1).differ)
          << lo;
      ASSERT_EQ(head1.either + rest1.either, packed.tally(i, j1).either)
          << lo;
    }

    // Kernel, delta and invalid rows all occur.
    const SimilarityMatrix m = SimilarityMatrix::compute(d);
    std::size_t kernel = 0, delta = 0, invalid = 0;
    for (std::size_t row = 0; row < m.size(); ++row) {
      if (!m.valid(row)) {
        ++invalid;
      } else if (m.anchor_chain(row).empty()) {
        ++kernel;
      } else {
        ++delta;
      }
    }
    EXPECT_GT(kernel, 1u) << d.name;
    EXPECT_GT(delta, 1u) << d.name;
    EXPECT_GT(invalid, 0u) << d.name;

    expect_builds_match_reference(d, r);
  }
  // Weighted rows settle on their in-order per-pair kernel, never tiled.
  Dataset weighted = churn_dataset(72, 3001, 0.02, 37, 0.1, 0.15, true);
  expect_builds_match_reference(weighted, r);
}

// The deferred, tiled fill against the scalar reference on every tier
// this build and host offer. The dispatch tier is fixed per process, so
// each tier runs in a child process started with FENRIR_SIMD set to it.
TEST(SimilarityMatrixTiles, DeferredFillBitIdenticalOnEveryTier) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const simd::Tier tier :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::table_for(tier) == nullptr) continue;
    EXPECT_EXIT(
        {
          ::setenv("FENRIR_SIMD", simd::tier_name(tier), 1);
          EXPECT_EQ(simd::active_tier(), tier);
          check_tiled_fill_on_active_tier();
          ::_exit(::testing::Test::HasFailure() ? 1 : 0);
        },
        ::testing::ExitedWithCode(0), "")
        << simd::tier_name(tier);
  }
}

// Kernel rows settled at 4 threads onto columns adopted from a store:
// the sealed rows come back by page adoption, the tail by
// append_precomputed, and neither brings its known count back, so the
// first settle counts every column's before its workers start. Every
// row after the load churns past the delta threshold (a kernel row),
// and rows of 33,001 4-bit networks span two tiles.
TEST(SimilarityMatrixTiles, KernelRowsMeetAdoptedColumnsAtFourThreads) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("fenrir_tiles_adopted_" + std::to_string(::getpid()));
  const Dataset d = churn_dataset(60, 33'001, 0.3, 43, 0.1, 0.5);
  const std::size_t load_at = 25;
  io::SegmentStoreConfig cfg;
  cfg.seal_rows = 8;
  cfg.threads = 4;
  cfg.background_compaction = false;
  for (const UnknownPolicy policy :
       {UnknownPolicy::kPessimistic, UnknownPolicy::kKnownOnly}) {
    const std::string label =
        "policy " + std::to_string(static_cast<int>(policy));
    std::filesystem::remove_all(dir);
    {
      SimilarityMatrix m(policy, d.weights, 4);
      m.append_batch(std::span(d.series).first(load_at));
      io::SegmentStore store(dir, cfg);
      store.attach(&d);
      for (std::size_t t = 0; t < load_at; ++t) {
        store.spill_row(d.series[t], m, t);
      }
      store.flush();
    }
    io::SegmentStore store(dir, cfg);
    store.attach(&d);
    SimilarityMatrix m = store.load(&d).matrix;
    ASSERT_EQ(m.size(), load_at) << label;
    m.append_batch(std::span(d.series).subspan(load_at));
    expect_bit_identical(m, SimilarityMatrix::compute_reference(d, policy),
                         label);
    for (std::size_t row = load_at; row < m.size(); ++row) {
      EXPECT_TRUE(m.anchor_chain(row).empty()) << label << " row " << row;
    }
  }
  std::filesystem::remove_all(dir);
}

// Const readers may race to a pending row: the first settles under the
// lock while the others wait, and every read sees the settled value.
TEST(SimilarityMatrixTiles, ConcurrentReadersSettleOnce) {
  const Dataset d = churn_dataset(40, 2000, 0.3, 41, 0.1);
  const auto ref = SimilarityMatrix::compute_reference(d);
  for (const unsigned threads : {1u, 0u}) {
    SimilarityMatrix m(UnknownPolicy::kPessimistic, d.weights, threads);
    for (const RoutingVector& v : d.series) m.append(v);  // all pending
    std::atomic<std::size_t> mismatches{0};
    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < 4; ++t) {
      readers.emplace_back([&, t] {
        for (std::size_t i = m.size(); i-- > 0;) {
          for (std::size_t j = t; j <= i; j += 4) {
            if (m.phi(i, j) != ref.phi(i, j)) ++mismatches;
          }
        }
      });
    }
    for (std::thread& reader : readers) reader.join();
    EXPECT_EQ(mismatches.load(), 0u) << "threads=" << threads;
  }
}

// Regression: range_between/median_between used to visit each unordered
// pair twice when the index lists overlap, duplicating every value and
// skewing the median.
TEST(SimilarityMatrixRanges, OverlappingListsCountEachPairOnce) {
  // Four networks, phi = fraction matching: phi(0,1)=0.75, phi(0,2)=0.25,
  // phi(1,2)=0.5.
  Dataset d;
  d.name = "overlap";
  for (std::size_t n = 0; n < 4; ++n) d.networks.intern(n);
  for (int s = 0; s < 4; ++s) d.sites.intern("s" + std::to_string(s));
  const auto vec = [](std::vector<SiteId> a) {
    RoutingVector v;
    v.assignment = std::move(a);
    return v;
  };
  d.series.push_back(vec({3, 4, 5, 6}));
  d.series.push_back(vec({3, 4, 5, 7}));  // 3 of 4 match row 0
  d.series.push_back(vec({3, 7, 7, 7}));  // 1 of 4 match row 0, 2 of 4 row 1
  const auto m = SimilarityMatrix::compute(d);
  ASSERT_DOUBLE_EQ(m.phi(1, 0), 0.75);
  ASSERT_DOUBLE_EQ(m.phi(2, 0), 0.25);
  ASSERT_DOUBLE_EQ(m.phi(2, 1), 0.5);

  const std::vector<std::size_t> a{0, 1};
  const std::vector<std::size_t> b{0, 1, 2};
  // Distinct unordered pairs {0,1},{0,2},{1,2}: median is 0.5. The old
  // double-counting produced {0.75,0.25,0.75,0.5} whose median was 0.75.
  EXPECT_DOUBLE_EQ(m.median_between(a, b), 0.5);

  const auto r = m.range_between(a, b);
  EXPECT_TRUE(r.any);
  EXPECT_DOUBLE_EQ(r.min, 0.25);
  EXPECT_DOUBLE_EQ(r.max, 0.75);

  // Fully overlapping lists behave like range_within.
  const auto between = m.range_between(b, b);
  const auto within = m.range_within(b);
  EXPECT_EQ(between.any, within.any);
  EXPECT_DOUBLE_EQ(between.min, within.min);
  EXPECT_DOUBLE_EQ(between.max, within.max);
}

TEST(SimilarityMatrixRanges, DisjointListsKeepTheirSemantics) {
  const Dataset d = churn_dataset(8, 100, 0.2, 31);
  const auto m = SimilarityMatrix::compute(d);
  const std::vector<std::size_t> a{0, 1, 2};
  const std::vector<std::size_t> b{5, 6, 7};
  const auto r = m.range_between(a, b);
  double lo = 2.0, hi = -1.0;
  bool any = false;
  for (const auto i : a) {
    for (const auto j : b) {
      if (!m.valid(i) || !m.valid(j)) continue;
      lo = std::min(lo, m.phi(i, j));
      hi = std::max(hi, m.phi(i, j));
      any = true;
    }
  }
  ASSERT_EQ(r.any, any);
  if (any) {
    EXPECT_DOUBLE_EQ(r.min, lo);
    EXPECT_DOUBLE_EQ(r.max, hi);
  }
}

}  // namespace
}  // namespace fenrir::core
