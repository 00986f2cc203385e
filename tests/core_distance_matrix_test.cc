#include "core/distance_matrix.h"

#include <gtest/gtest.h>

#include <iterator>
#include <span>
#include <string>
#include <vector>

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
// from the immediate predecessor. This is the shape anchors exist for.
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

// Mode alternation exercises every anchor path — predecessor, recent,
// probed representative, kernel fallback — and all of them must stay
// bit-identical to the scalar reference.
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

// On a long two-mode alternation the first row of each novel block pays
// the kernels once and becomes a representative anchor; later returns
// to the mode probe it and patch. The metrics prove which paths ran.
TEST(SimilarityMatrixAnchors, RepresentativesEngageOnRecurrence) {
  auto& representative =
      obs::registry().counter("fenrir_phi_anchor_representative_total");
  auto& chained = obs::registry().counter("fenrir_phi_anchor_chained_total");
  auto& probes = obs::registry().counter("fenrir_phi_anchor_probes_total");
  auto& pins = obs::registry().counter("fenrir_phi_anchor_pins_total");
  const auto rep_before = representative.value();
  const auto chained_before = chained.value();
  const auto probes_before = probes.value();
  const auto pins_before = pins.value();

  // 0.5% intra-mode churn over 2000 networks, period 8: recurrences are
  // ~8 change-sets from the mode's previous block — well under the 5%
  // delta threshold, but far beyond the predecessor's reach.
  const Dataset d = periodic_dataset(48, 2000, 8, 0.005, 77);
  const auto ref = SimilarityMatrix::compute_reference(d);
  const auto fast = SimilarityMatrix::compute(d, UnknownPolicy::kPessimistic, 1);
  expect_bit_identical(fast, ref, "recurrence");

  EXPECT_GT(pins.value(), pins_before);      // novel blocks were pinned
  EXPECT_GT(probes.value(), probes_before);  // stale bounds were probed
  EXPECT_GT(representative.value() + chained.value(),
            rep_before + chained_before)
      << "no recurrence ever patched from a non-predecessor anchor";
}

TEST(SimilarityMatrixAnchors, PinAnchorValidatesAndStaysIdentical) {
  const Dataset d = churn_dataset(20, 300, 0.02, 5, 0.1);
  std::size_t valid_row = 0;  // pin_anchor no-ops on invalid rows
  while (!d.series[valid_row].valid) ++valid_row;
  auto ref = SimilarityMatrix::compute_reference(d);
  EXPECT_THROW(ref.pin_anchor(valid_row), std::logic_error);

  SimilarityMatrix m(UnknownPolicy::kPessimistic, d.weights, 1);
  EXPECT_THROW(m.pin_anchor(0), std::out_of_range);
  for (std::size_t t = 0; t < 10; ++t) m.append(d.series[t]);
  m.pin_anchor(valid_row);  // left the recent set: O(T·N) rebuild
  m.pin_anchor(valid_row);  // already pinned: no-op
  EXPECT_THROW(m.pin_anchor(99), std::out_of_range);
  for (std::size_t t = 10; t < d.series.size(); ++t) m.append(d.series[t]);
  expect_bit_identical(m, ref, "pinned");

  // Weighted matrices run kernels only; pinning is a documented no-op.
  SimilarityMatrix w(UnknownPolicy::kPessimistic, {1.0, 2.0, 3.0}, 1);
  RoutingVector v;
  v.assignment = {3, 4, 5};
  v.valid = true;
  w.append(v);
  EXPECT_NO_THROW(w.pin_anchor(0));
}

// set_anchor_limits trades speed, never values: predecessor-only (the
// old builds' delta path) and fully disabled both match the reference.
TEST(SimilarityMatrixAnchors, AnchorLimitsAffectTimeOnly) {
  const Dataset d = periodic_dataset(24, 300, 6, 0.01, 11, 0.1);
  const auto ref = SimilarityMatrix::compute_reference(d);
  for (const auto limits :
       {std::pair<std::size_t, std::size_t>{1, 0}, {0, 0}, {2, 1}}) {
    SimilarityMatrix m(UnknownPolicy::kPessimistic, d.weights, 1);
    m.set_anchor_limits(limits.first, limits.second);
    for (const RoutingVector& v : d.series) m.append(v);
    expect_bit_identical(m, ref,
                         "limits " + std::to_string(limits.first) + "," +
                             std::to_string(limits.second));
  }
  // Shrinking the sets mid-series drops existing anchors but keeps the
  // values exact.
  SimilarityMatrix m(UnknownPolicy::kPessimistic, d.weights, 1);
  for (std::size_t t = 0; t < 12; ++t) m.append(d.series[t]);
  m.set_anchor_limits(1, 0);
  for (std::size_t t = 12; t < d.series.size(); ++t) m.append(d.series[t]);
  expect_bit_identical(m, ref, "limits shrunk mid-series");
}

// append_batch must produce exactly the matrix an append() loop does —
// across churn shapes, outage slots, policies, warm starts, and batch
// sizes that cross the internal chunk boundary. Anchor bookkeeping
// after the batch must also be equivalent: appends *after* a batch stay
// identical too.
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
  // the batch left the anchor set in the equivalent state.
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

// Satellite regression: the chained/probed recent-anchor stage used to
// be dead in every bench (fenrir_phi_anchor_chained_total == 0). A
// period-2 alternation with representatives disabled forces it: the
// predecessor is always the *other* mode (chained bounds saturate), so
// the probe stage must rediscover the same-mode recent anchor at i-2.
TEST(SimilarityMatrixAnchors, ChainedStageEngagesOnAlternation) {
  auto& chained = obs::registry().counter("fenrir_phi_anchor_chained_total");
  const auto before = chained.value();
  const Dataset d = periodic_dataset(64, 2000, 2, 0.005, 41);
  const auto ref = SimilarityMatrix::compute_reference(d);
  SimilarityMatrix m(UnknownPolicy::kPessimistic, d.weights, 1);
  m.set_anchor_limits(SimilarityMatrix::kRecentAnchors, 0);
  for (const RoutingVector& v : d.series) m.append(v);
  expect_bit_identical(m, ref, "alternation");
  EXPECT_GT(chained.value(), before)
      << "period-2 alternation never took the chained/probed recent path";
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

// What append()/append_batch() chose, row by row: each row's anchor
// base (−1 for none), and how the path counters moved.
struct PathTrace {
  std::vector<long> base;
  std::vector<double> counters;  // kPathCounters order
};

constexpr const char* kPathCounters[] = {
    "fenrir_phi_rows_delta_total",
    "fenrir_phi_rows_kernel_total",
    "fenrir_phi_anchor_predecessor_total",
    "fenrir_phi_anchor_chained_total",
    "fenrir_phi_anchor_representative_total",
    "fenrir_phi_anchor_packed_total",
    "fenrir_phi_anchor_probes_total",
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
  for (std::size_t row = 0; row < m.size(); ++row) {
    const std::vector<std::size_t> chain = m.anchor_chain(row);
    out.base.push_back(chain.empty() ? -1 : static_cast<long>(chain[0]));
    // The rest of the chain is the base's own chain, truncated.
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

// Path choices are time, never values — but deriving the anchor bounds
// differently must not move them either. Both series pin the per-row
// anchor bases and path counters recorded on a build that materialized
// every step change set: a >5%-churn Verfploeter series (kernel rows,
// failed probes and their back-off, invalid slots) and a two-mode
// periodic one (predecessor, chained and representative patches, probes,
// invalid slots).
TEST(SimilarityMatrixAnchors, PathChoicesArePinned) {
  const Dataset verf = verfploeter_dataset(160, 2000, 29);
  const std::vector<long> verf_base(160, -1);
  // rows_delta, rows_kernel, predecessor, chained, representative,
  // packed, probes.
  const std::vector<double> verf_counters{0, 145, 0, 0, 0, 145, 128};

  const Dataset periodic = periodic_dataset(64, 2000, 8, 0.005, 77, 0.1);
  const std::vector<long> periodic_base{
      -1, 0,  1,  2,  -1, 3,  5,  6,  -1, -1, 8,  -1, 10, 12, -1, -1,
      -1, 16, 17, 18, 19, 20, 21, 22, -1, 24, 25, -1, 26, 28, 29, 30,
      16, 32, 33, 34, 35, 36, 37, 38, 24, 40, -1, 41, 43, 44, 45, 46,
      -1, 32, 49, -1, 50, 52, 53, 54, 40, 56, 57, 58, -1, 59, 61, 62};
  const std::vector<double> periodic_counters{50, 4, 39, 7, 4, 4, 32};

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
