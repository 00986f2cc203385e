#include "core/modebook.h"

#include <gtest/gtest.h>

#include <initializer_list>

#include "core/distance_matrix.h"
#include "obs/metrics.h"
#include "rng/rng.h"

namespace fenrir::core {
namespace {

RoutingVector vec(SiteId dominant, std::size_t n, std::size_t flips,
                  SiteId other, std::uint64_t salt = 0) {
  RoutingVector v;
  v.assignment.assign(n, dominant);
  rng::Rng r(salt + 100);
  for (std::size_t i = 0; i < flips; ++i) {
    v.assignment[r.uniform(n)] = other;
  }
  return v;
}

constexpr SiteId A = kFirstRealSite, B = kFirstRealSite + 1;
constexpr std::size_t N = 200;

/// Representatives as restore() takes them: row m is mode m.
PackedSeries packed(std::initializer_list<RoutingVector> reps) {
  PackedSeries s;
  for (const RoutingVector& r : reps) s.append(r);
  return s;
}

TEST(ModeBook, FirstObservationFoundsModeZero) {
  ModeBook book;
  const auto m = book.observe(vec(A, N, 0, B));
  EXPECT_EQ(m.mode, 0u);
  EXPECT_TRUE(m.is_new);
  EXPECT_FALSE(m.is_recurrence);
  EXPECT_EQ(book.mode_count(), 1u);
}

TEST(ModeBook, SimilarVectorsJoinTheSameMode) {
  ModeBook book;
  book.observe(vec(A, N, 2, B, 1));
  for (int i = 2; i < 8; ++i) {
    const auto m = book.observe(vec(A, N, 2, B, i));
    EXPECT_EQ(m.mode, 0u);
    EXPECT_FALSE(m.is_new);
    EXPECT_GT(m.phi, 0.9);
  }
  EXPECT_EQ(book.mode_count(), 1u);
}

TEST(ModeBook, DissimilarVectorFoundsANewMode) {
  ModeBook book;
  book.observe(vec(A, N, 0, B));
  const auto m = book.observe(vec(B, N, 0, A));
  EXPECT_EQ(m.mode, 1u);
  EXPECT_TRUE(m.is_new);
  EXPECT_EQ(book.mode_count(), 2u);
}

TEST(ModeBook, RecurringModeIsRediscovered) {
  // The paper's headline behaviour, online: normal -> drain -> normal ->
  // drain again. The second drain must come back as mode 1, flagged as a
  // recurrence, not as a new mode.
  ModeBook book;
  EXPECT_EQ(book.observe(vec(A, N, 0, B)).mode, 0u);   // normal
  EXPECT_EQ(book.observe(vec(B, N, 0, A)).mode, 1u);   // drain state
  const auto back = book.observe(vec(A, N, 0, B));
  EXPECT_EQ(back.mode, 0u);
  EXPECT_TRUE(back.is_recurrence);
  const auto drain_again = book.observe(vec(B, N, 3, A, 9));
  EXPECT_EQ(drain_again.mode, 1u);
  EXPECT_TRUE(drain_again.is_recurrence);
  EXPECT_FALSE(drain_again.is_new);
  EXPECT_EQ(book.mode_count(), 2u);
  EXPECT_EQ(book.history(),
            (std::vector<std::size_t>{0, 1, 0, 1}));
}

TEST(ModeBook, ThresholdControlsGranularity) {
  ModeBook::Config strict;
  strict.match_threshold = 0.99;
  ModeBook picky(strict);
  picky.observe(vec(A, N, 0, B));
  // 4 flips = phi 0.98 < 0.99: a new mode for the picky book.
  EXPECT_TRUE(picky.observe(vec(A, N, 4, B, 5)).is_new);

  ModeBook::Config loose;
  loose.match_threshold = 0.5;
  ModeBook tolerant(loose);
  tolerant.observe(vec(A, N, 0, B));
  EXPECT_FALSE(tolerant.observe(vec(A, N, 4, B, 5)).is_new);
}

TEST(ModeBook, InvalidObservationsAreIgnored) {
  ModeBook book;
  book.observe(vec(A, N, 0, B));
  RoutingVector outage;
  outage.valid = false;
  outage.assignment.assign(N, kUnknownSite);
  const auto m = book.observe(outage);
  EXPECT_EQ(m.mode, 0u);  // reports the standing mode
  EXPECT_FALSE(m.is_new);
  EXPECT_EQ(book.history().size(), 1u);  // not recorded
}

TEST(ModeBook, AdaptiveRepresentativeFollowsSlowDrift) {
  // 1% drift per step: after 30 steps the state is ~26% away from the
  // start. A frozen book eventually declares a new mode; an adaptive one
  // follows the drift and never does.
  ModeBook::Config adapt;
  adapt.adapt_representative = true;
  adapt.match_threshold = 0.9;
  ModeBook follower(adapt);
  ModeBook::Config frozen;
  frozen.adapt_representative = false;
  frozen.match_threshold = 0.9;
  ModeBook strict(frozen);

  RoutingVector v;
  v.assignment.assign(N, A);
  for (std::size_t step = 0; step < 30; ++step) {
    for (std::size_t k = 0; k < 2; ++k) {
      v.assignment[(step * 2 + k) % N] = B;
    }
    follower.observe(v);
    strict.observe(v);
  }
  EXPECT_EQ(follower.mode_count(), 1u);
  EXPECT_GT(strict.mode_count(), 1u);
}

TEST(ModeBook, KnownOnlyPolicyIgnoresCoverageGaps) {
  // 40% of networks unknown each time (mostly different 40%): known-only
  // matching judges the overlap and keeps one mode; pessimistic splits.
  ModeBook book;  // default kKnownOnly
  RoutingVector a;
  a.assignment.assign(N, A);
  for (std::size_t i = 0; i < 2 * N / 5; ++i) a.assignment[i] = kUnknownSite;
  RoutingVector b;
  b.assignment.assign(N, A);
  for (std::size_t i = 3 * N / 5; i < N; ++i) b.assignment[i] = kUnknownSite;
  book.observe(a);
  const auto m = book.observe(b);
  EXPECT_FALSE(m.is_new);

  ModeBook::Config pess;
  pess.policy = UnknownPolicy::kPessimistic;
  ModeBook pbook(pess);
  pbook.observe(a);
  EXPECT_TRUE(pbook.observe(b).is_new);
}

TEST(ModeBook, PerfectMatchKeepsTheEarliestMode) {
  // Restore installs two byte-identical representatives (observe alone
  // could never create that state); a perfect match must resolve to the
  // earlier mode — the invariant that makes the Φ = 1.0 early-exit safe.
  ModeBook book;
  const auto rep = vec(A, N, 0, B);
  book.restore(packed({rep, rep, vec(B, N, 0, A)}), {0, 1, 2});
  const auto m = book.observe(rep);
  EXPECT_EQ(m.mode, 0u);
  EXPECT_FALSE(m.is_new);
  EXPECT_DOUBLE_EQ(m.phi, 1.0);
}

TEST(ModeBook, ScanLengthHistogramRecordsObserves) {
  auto& h = obs::registry().histogram("fenrir_modebook_scan_length",
                                      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
                                       1024});
  const auto before = h.count();
  ModeBook book;
  book.observe(vec(A, N, 0, B));      // empty book: scan length 0
  book.observe(vec(B, N, 0, A));      // scans 1 rep, founds mode 1
  book.observe(vec(A, N, 0, B));      // perfect match on rep 0: early exit
  EXPECT_EQ(h.count() - before, 3u);
}

TEST(ModeBook, PackedScanMatchesScalarSimilarity) {
  // The kernel-based scan must classify exactly like gower_similarity:
  // replay a noisy series through the book and re-check every match
  // score against the scalar on the stored representative.
  rng::Rng r(404);
  ModeBook book;
  for (int step = 0; step < 40; ++step) {
    const SiteId dominant = step % 3 == 0 ? A : (step % 3 == 1 ? B : A + 2);
    const auto v = vec(dominant, N, r.uniform(8), B, 1000 + step);
    const auto m = book.observe(v);
    if (!m.is_new) {
      EXPECT_EQ(m.phi, gower_similarity(book.representative(m.mode), v,
                                        UnknownPolicy::kKnownOnly));
    }
  }
}

TEST(ModeBook, RestoreRebuildsThePackedScan) {
  ModeBook source;
  source.observe(vec(A, N, 0, B));
  source.observe(vec(B, N, 0, A));

  ModeBook resumed;
  resumed.restore(
      packed({source.representative(0), source.representative(1)}), {0, 1});
  const auto m = resumed.observe(vec(A, N, 2, B, 77));
  EXPECT_EQ(m.mode, 0u);
  EXPECT_FALSE(m.is_new);
}

// A heavy network stays at LAX while three light ones visit AMS and
// come back (weights 100,1,1,1). Weighted, the detour is Φ 100/103: one
// mode, as compare and analyze say. The book must score every pair
// exactly like the Φ matrix, under either unknown policy.
TEST(ModeBook, WeightedBookScoresLikeTheMatrix) {
  Dataset d;
  for (std::uint64_t key = 1; key <= 4; ++key) d.networks.intern(key);
  const SiteId lax = d.sites.intern("LAX");
  const SiteId ams = d.sites.intern("AMS");
  d.weights = {100.0, 1.0, 1.0, 1.0};
  const std::vector<SiteId> home = {lax, lax, lax, lax};
  const std::vector<SiteId> detour = {lax, ams, ams, ams};
  for (const std::vector<SiteId>& a : {home, detour, home}) {
    RoutingVector v;
    v.time = static_cast<TimePoint>(d.series.size()) * kDay;
    v.assignment = a;
    d.series.push_back(v);
  }
  for (const UnknownPolicy policy :
       {UnknownPolicy::kKnownOnly, UnknownPolicy::kPessimistic}) {
    ModeBook::Config cfg;
    cfg.policy = policy;
    ModeBook book(cfg, d.weights);
    const SimilarityMatrix matrix = SimilarityMatrix::compute(d, policy);
    for (std::size_t i = 0; i < d.series.size(); ++i) {
      const auto m = book.observe(d.series[i]);
      EXPECT_EQ(m.mode, 0u) << "observation " << i;
      if (i > 0) {
        EXPECT_EQ(m.phi, matrix.phi(i, 0)) << "observation " << i;
      }
    }
    EXPECT_EQ(book.mode_count(), 1u);
    EXPECT_DOUBLE_EQ(matrix.phi(1, 0), 100.0 / 103.0);
  }
  // Uniform weights keep the unweighted verdict: the detour is a mode.
  ModeBook uniform;
  for (const RoutingVector& v : d.series) uniform.observe(v);
  EXPECT_EQ(uniform.mode_count(), 2u);
}

}  // namespace
}  // namespace fenrir::core
