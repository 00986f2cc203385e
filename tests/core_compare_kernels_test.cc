#include "core/compare_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/compare.h"
#include "core/simd_dispatch.h"
#include "rng/rng.h"

namespace fenrir::core {
namespace {

RoutingVector random_vector(rng::Rng& r, std::size_t n, SiteId max_site,
                            double unknown_frac) {
  RoutingVector v;
  v.assignment.resize(n);
  for (auto& s : v.assignment) {
    s = r.bernoulli(unknown_frac)
            ? kUnknownSite
            : static_cast<SiteId>(kFirstRealSite + r.uniform(max_site));
  }
  return v;
}

TEST(PackedSeries, WidthFollowsTheLargestId) {
  RoutingVector nibble;
  nibble.assignment = {3, 4, 15};
  RoutingVector sixteen;
  sixteen.assignment = {3, 16, 5};
  RoutingVector small;
  small.assignment = {3, 4, 200};
  RoutingVector medium;
  medium.assignment = {3, 4, 300};
  RoutingVector large;
  large.assignment = {3, 4, 70'000};

  PackedSeries s;
  s.append(nibble);
  EXPECT_EQ(s.bits(), 4u);  // 15 is the largest id two to a byte
  EXPECT_EQ(s.row_bytes(), 2u);
  s.append(sixteen);
  EXPECT_EQ(s.bits(), 8u);
  s.append(small);
  EXPECT_EQ(s.bits(), 8u);
  s.append(medium);
  EXPECT_EQ(s.bits(), 16u);
  s.append(large);
  EXPECT_EQ(s.bits(), 32u);
  EXPECT_EQ(s.rows(), 5u);

  // Widening preserved the earlier rows' values.
  EXPECT_EQ(s.value_at(0, 2), 15u);
  EXPECT_EQ(s.value_at(1, 1), 16u);
  EXPECT_EQ(s.value_at(2, 2), 200u);
  EXPECT_EQ(s.value_at(3, 2), 300u);
  EXPECT_EQ(s.value_at(4, 2), 70'000u);

  // A mapped 4-bit prefix widens to 8 bits through the same path: three
  // ids two to a byte, low nibble first, the odd row's last high nibble
  // 0 — and a 16 appended after it moves every row into owned slabs.
  auto pages = std::make_shared<std::vector<std::byte>>(std::vector<std::byte>{
      std::byte{0xF1}, std::byte{0x07}, std::byte{0x20}, std::byte{0x0E}});
  const std::vector<const std::byte*> prefix = {pages->data(),
                                                pages->data() + 2};
  PackedSeries m;
  m.adopt_rows(3, 4, prefix, pages);
  EXPECT_EQ(m.mapped_rows(), 2u);
  const std::vector<std::vector<SiteId>> want = {
      {1, 15, 7}, {0, 2, 14}, {16, 0, 9}};
  RoutingVector wide;
  wide.assignment = want[2];
  m.append(wide);
  EXPECT_EQ(m.bits(), 8u);
  EXPECT_EQ(m.mapped_rows(), 0u);
  pages.reset();  // the widened rows no longer borrow the pages
  for (std::size_t r = 0; r < want.size(); ++r) {
    for (std::size_t n = 0; n < 3; ++n) {
      EXPECT_EQ(m.value_at(r, n), want[r][n]) << r << "," << n;
    }
  }
  EXPECT_EQ(m.counts(0, 1).mutual_known, 2u);
  EXPECT_EQ(m.counts(0, 0).matches, 3u);

  // Each row is read once: the pack at the current width reports the
  // largest id, and only a row that does not fit is packed again wider.
  // A row whose only wide id is its last element (an odd row's last
  // nibble at 4 bits) widens 4 → 8 and 8 → 16 through that second pack,
  // on an owned series and on one with a mapped 4-bit prefix alike.
  const std::size_t n = 129;
  std::vector<SiteId> narrow(n);
  for (std::size_t i = 0; i < n; ++i) narrow[i] = static_cast<SiteId>(i % 16);
  for (const bool mapped : {false, true}) {
    auto bytes = std::make_shared<std::vector<std::byte>>(
        packed_row_bytes(n, 4));
    RoutingVector row;
    row.assignment = narrow;
    PackedSeries p;
    if (mapped) {
      pack_row(narrow.data(), n, 4, bytes->data());
      const std::vector<const std::byte*> rows = {bytes->data()};
      p.adopt_rows(n, 4, rows, bytes);
    } else {
      p.append(row);
    }
    std::vector<std::vector<SiteId>> want = {narrow};
    for (const auto& [last, bits] : {std::pair<SiteId, std::size_t>{16, 8},
                                    {15, 8},
                                    {300, 16}}) {
      row.assignment.back() = last;
      p.append(row);
      want.push_back(row.assignment);
      EXPECT_EQ(p.bits(), bits) << "mapped=" << mapped << " last=" << last;
    }
    EXPECT_EQ(p.mapped_rows(), 0u) << "mapped=" << mapped;
    ASSERT_EQ(p.rows(), want.size());
    for (std::size_t r = 0; r < want.size(); ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(p.value_at(r, i), want[r][i])
            << "mapped=" << mapped << " row " << r << " element " << i;
      }
    }
  }
}

TEST(PackedSeries, SizeMismatchThrows) {
  RoutingVector a;
  a.assignment = {3, 4};
  RoutingVector b;
  b.assignment = {3};
  PackedSeries s;
  s.append(a);
  EXPECT_THROW(s.append(b), std::invalid_argument);
}

TEST(PackedSeries, PopBackAndCopyRow) {
  RoutingVector a;
  a.assignment = {3, 4, 5};
  RoutingVector b;
  b.assignment = {6, kUnknownSite, 8};
  PackedSeries s;
  s.append(a);
  s.append(b);
  EXPECT_EQ(s.known(0), 3u);
  EXPECT_EQ(s.known(1), 2u);
  s.copy_row(0, 1);  // the known count moves with the bytes
  EXPECT_EQ(s.value_at(0, 0), 6u);
  EXPECT_EQ(s.known(0), 2u);
  s.pop_back();
  EXPECT_EQ(s.rows(), 1u);
  s.append(a);  // the popped row's slot, counted afresh
  EXPECT_EQ(s.known(1), 3u);
  s.pop_back();
  s.pop_back();
  EXPECT_EQ(s.rows(), 0u);
  s.pop_back();  // no-op on empty
  EXPECT_EQ(s.rows(), 0u);
  EXPECT_THROW(s.known(0), std::out_of_range);
}

// The determinism contract: Φ derived from packed kernel counts must be
// bit-identical to the scalar reference, across sizes that exercise the
// blocked loop (full blocks, tails, tiny), every width, both policies,
// and unknown fractions from none to nearly-all.
/// The scalar oracle's counts over two routing vectors.
MatchCounts oracle_counts(const RoutingVector& a, const RoutingVector& b) {
  MatchCounts c;
  for (std::size_t n = 0; n < a.assignment.size(); ++n) {
    const SiteId x = a.assignment[n];
    const SiteId y = b.assignment[n];
    c.matches += x == y && x != kUnknownSite;
    c.mutual_known += x != kUnknownSite && y != kUnknownSite;
  }
  return c;
}

/// Every row of @p s against the vectors it was built from: each
/// element through value_at, its known count (cached by an earlier
/// stage or counted now), and counts() on the diagonal and against the
/// first and last rows.
void expect_rows_match(const PackedSeries& s,
                       const std::vector<RoutingVector>& want,
                       const std::string& stage) {
  ASSERT_EQ(s.rows(), want.size()) << stage;
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(s.known(r), oracle_counts(want[r], want[r]).mutual_known)
        << stage << " row " << r;
    for (std::size_t n = 0; n < s.networks(); ++n) {
      ASSERT_EQ(s.value_at(r, n), want[r].assignment[n])
          << stage << " row " << r << " network " << n;
    }
    for (const std::size_t j : {r, std::size_t{0}, want.size() - 1}) {
      const MatchCounts got = s.counts(r, j);
      const MatchCounts expect = oracle_counts(want[r], want[j]);
      EXPECT_EQ(got.matches, expect.matches) << stage << " " << r << "," << j;
      EXPECT_EQ(got.mutual_known, expect.mutual_known)
          << stage << " " << r << "," << j;
    }
  }
}

// One series through every storage path: a mapped prefix, appends that
// cross slab boundaries, pop_back/append cycles reusing a slot, a
// copy_row onto a mapped row (which moves every row into owned slabs),
// and three widening appends. 100,003 networks put twenty 4-bit rows
// (50,002 bytes, the odd last byte half padding), ten 8-bit rows, five
// 16-bit rows and two 32-bit rows in a slab.
TEST(PackedSeries, RowStorageMatchesOracleThroughEveryPath) {
  const std::size_t nets = 100'003;
  rng::Rng r(2024);
  std::vector<RoutingVector> want;
  const auto draw = [&](SiteId max_site) {
    RoutingVector v = random_vector(r, nets, max_site, 0.3);
    want.push_back(v);
    return v;
  };

  // The mapped prefix: three 4-bit rows in a buffer the series borrows
  // for as long as the keepalive lives. draw(13) yields ids up to
  // kFirstRealSite + 12 = 15, the largest a nibble holds.
  const std::size_t row_bytes = packed_row_bytes(nets, 4);
  auto pages = std::make_shared<std::vector<std::byte>>(3 * row_bytes);
  std::vector<const std::byte*> prefix;
  for (std::size_t row = 0; row < 3; ++row) {
    const RoutingVector v = draw(13);
    std::byte* out = pages->data() + row * row_bytes;
    for (std::size_t n = 0; n < nets; ++n) {
      out[n / 2] |= static_cast<std::byte>(v.assignment[n] << (4 * (n % 2)));
    }
    prefix.push_back(out);
  }
  PackedSeries s;
  s.adopt_rows(nets, 4, prefix, pages);
  EXPECT_EQ(s.mapped_rows(), 3u);
  expect_rows_match(s, want, "mapped prefix");

  for (int k = 0; k < 22; ++k) s.append(draw(13));
  expect_rows_match(s, want, "appends past a slab");

  for (int k = 0; k < 3; ++k) {
    s.pop_back();
    want.pop_back();
    s.append(draw(13));
  }
  expect_rows_match(s, want, "pop_back/append cycles");

  s.copy_row(1, 7);
  want[1] = want[7];
  EXPECT_EQ(s.mapped_rows(), 0u);
  expect_rows_match(s, want, "copy_row onto a mapped row");

  RoutingVector byte_row = draw(13);
  byte_row.assignment[nets / 2] = 200;
  want.back() = byte_row;
  s.append(byte_row);
  EXPECT_EQ(s.bits(), 8u);
  for (int k = 0; k < 12; ++k) s.append(draw(200));
  expect_rows_match(s, want, "8-bit rows");

  RoutingVector wide = draw(200);
  wide.assignment[nets - 1] = 300;
  want.back() = wide;
  s.append(wide);
  EXPECT_EQ(s.bits(), 16u);
  for (int k = 0; k < 6; ++k) s.append(draw(60'000));
  expect_rows_match(s, want, "16-bit rows");

  RoutingVector wider = draw(60'000);
  wider.assignment[0] = 70'000;
  want.back() = wider;
  s.append(wider);
  EXPECT_EQ(s.bits(), 32u);
  for (int k = 0; k < 3; ++k) s.append(draw(1'000'000));
  s.pop_back();
  want.pop_back();
  expect_rows_match(s, want, "32-bit rows");
}

TEST(PackedKernels, BitIdenticalToScalarReference) {
  const std::size_t sizes[] = {0, 1, 7, 255, 4096, 4097, 10'000};
  const SiteId site_counts[] = {5, 200, 300, 70'000};
  const double unknown_fracs[] = {0.0, 0.3, 0.9};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    rng::Rng r(seed);
    for (const std::size_t n : sizes) {
      for (const SiteId sites : site_counts) {
        for (const double uf : unknown_fracs) {
          const auto a = random_vector(r, n, sites, uf);
          const auto b = random_vector(r, n, sites, uf);
          Dataset d;
          d.series = {a, b};
          const PackedSeries s = PackedSeries::pack(d);
          const MatchCounts c = s.counts(0, 1);
          for (const auto policy :
               {UnknownPolicy::kPessimistic, UnknownPolicy::kKnownOnly}) {
            EXPECT_EQ(phi_from_counts(c, n, policy),
                      gower_similarity(a, b, policy))
                << "n=" << n << " sites=" << sites << " uf=" << uf;
          }
        }
      }
    }
  }
}

TEST(PackedKernels, WeightedBitIdenticalToScalarReference) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    rng::Rng r(seed * 17);
    const std::size_t n = 1 + r.uniform(5000);
    const SiteId sites = seed % 2 == 0 ? 12 : 40;  // 4- and 8-bit rows
    const auto a = random_vector(r, n, sites, 0.4);
    const auto b = random_vector(r, n, sites, 0.4);
    std::vector<double> w(n);
    for (auto& x : w) x = 0.01 + r.uniform01() * 3.0;
    Dataset d;
    d.series = {a, b};
    const PackedSeries s = PackedSeries::pack(d);
    const double total = in_order_sum(w);
    for (const auto policy :
         {UnknownPolicy::kPessimistic, UnknownPolicy::kKnownOnly}) {
      const WeightedCounts c = s.weighted_counts(0, 1, w, policy, total);
      EXPECT_EQ(phi_from_weighted(c), gower_similarity(a, b, w, policy))
          << "n=" << n;
    }
  }
}

TEST(DeltaKernels, ChangeSetIsSortedAndExact) {
  RoutingVector a;
  a.assignment = {3, 4, 5, kUnknownSite, 6};
  RoutingVector b = a;
  b.assignment[1] = 9;
  b.assignment[3] = 7;
  Dataset d;
  d.series = {a, b};
  const PackedSeries s = PackedSeries::pack(d);
  const auto delta = s.delta_between(0, 1);
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta[0].index, 1u);
  EXPECT_EQ(delta[0].before, 4u);
  EXPECT_EQ(delta[0].after, 9u);
  EXPECT_EQ(delta[1].index, 3u);
  EXPECT_EQ(delta[1].before, kUnknownSite);
  EXPECT_EQ(delta[1].after, 7u);
}

// The prepared patch must take counts(prev, partner) to exactly
// counts(cur, partner) — the identity the delta Φ path relies on.
TEST(DeltaKernels, PatchedCountsEqualDirectCounts) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    rng::Rng r(seed * 101);
    const std::size_t n = 500 + r.uniform(2000);
    const SiteId sites = seed % 2 == 0 ? 12 : 200;  // 4- and 8-bit rows
    const auto prev = random_vector(r, n, sites, 0.3);
    RoutingVector cur = prev;
    const std::size_t flips = r.uniform(n / 10);
    for (std::size_t k = 0; k < flips; ++k) {
      // Includes flips to/from unknown, the trickiest accounting.
      cur.assignment[r.uniform(n)] =
          r.bernoulli(0.2)
              ? kUnknownSite
              : static_cast<SiteId>(kFirstRealSite + r.uniform(sites));
    }
    const auto partner = random_vector(r, n, sites, 0.3);
    Dataset d;
    d.series = {prev, cur, partner};
    const PackedSeries s = PackedSeries::pack(d);
    const auto delta = s.delta_between(0, 1);
    const MatchCounts patched =
        apply_prepared(s.counts(0, 2), prepare_delta(delta), s, 2);
    const MatchCounts direct = s.counts(1, 2);
    EXPECT_EQ(patched.matches, direct.matches) << "seed=" << seed;
    EXPECT_EQ(patched.mutual_known, direct.mutual_known) << "seed=" << seed;
  }
}

// ---------------------------------------------------------------------
// SIMD dispatch property suite: every tier this build/host can run must
// reproduce the scalar oracle's integer counts and change-sets exactly,
// across widths × tail lengths (non-multiples of every lane count) ×
// unknown fractions. Counts equality implies bit-identical
// Φ for both UnknownPolicy variants (phi_from_counts is a pure function
// of the two integers), asserted explicitly below anyway.

std::vector<simd::Tier> available_tiers() {
  std::vector<simd::Tier> tiers;
  for (const simd::Tier t :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::table_for(t) != nullptr) tiers.push_back(t);
  }
  return tiers;
}

template <typename T>
std::vector<T> random_sites(rng::Rng& r, std::size_t n, SiteId max_site,
                            double unknown_frac) {
  std::vector<T> v(n);
  for (auto& s : v) {
    s = r.bernoulli(unknown_frac)
            ? T{0}
            : static_cast<T>(kFirstRealSite + r.uniform(max_site));
  }
  return v;
}

// Tail lengths straddle every lane boundary in play (8/16/32 lanes for
// AVX2, 16/32/64 for AVX-512) plus the AVX2 u8 drain boundary at
// 255 iterations × 32 lanes = 8160.
constexpr std::size_t kSimdSizes[] = {0,  1,  3,    31,   32,   33,
                                      63, 64, 65,   129,  1000, 4097,
                                      8159, 8160, 8161, 10'007};

/// The element-wise tally of rows @p a and @p b (n elements each).
template <typename A, typename B>
PairTally elementwise_tally(const A& a, const B& b, std::size_t n) {
  PairTally t;
  for (std::size_t i = 0; i < n; ++i) {
    t.differ += a[i] != b[i];
    t.either += a[i] != 0 || b[i] != 0;
  }
  return t;
}

void expect_tally(const PairTally& got, const PairTally& want,
                  const std::string& label) {
  EXPECT_EQ(got.differ, want.differ) << label;
  EXPECT_EQ(got.either, want.either) << label;
}

TEST(SimdKernels, CountsBitIdenticalToScalarOracleAllTiers) {
  const simd::KernelTable& oracle = *simd::table_for(simd::Tier::kScalar);
  const double unknown_fracs[] = {0.0, 0.3, 0.9};
  for (const simd::Tier tier : available_tiers()) {
    rng::Rng r(99);
    const simd::KernelTable& t = *simd::table_for(tier);
    for (const std::size_t n : kSimdSizes) {
      for (const double uf : unknown_fracs) {
        const std::string label = std::string(simd::tier_name(tier)) +
                                  " n=" + std::to_string(n) +
                                  " uf=" + std::to_string(uf);
        // The tier's tally, and Φ derived from it with both rows' known
        // counts, equal the oracle's.
        const auto check = [&]<typename T>(simd::CountFn<T, 1> kernel,
                                           simd::CountFn<T, 1> ref,
                                           const std::vector<T>& a,
                                           const std::vector<T>& b) {
          const PairTally got = kernel(a.data(), {b.data()}, n)[0];
          const PairTally want = ref(a.data(), {b.data()}, n)[0];
          expect_tally(got, want, label + " width " +
                                      std::to_string(8 * sizeof(T)));
          const std::uint64_t ka = ref(a.data(), {a.data()}, n)[0].either;
          const std::uint64_t kb = ref(b.data(), {b.data()}, n)[0].either;
          for (const auto policy :
               {UnknownPolicy::kPessimistic, UnknownPolicy::kKnownOnly}) {
            EXPECT_EQ(phi_from_counts(match_counts(got, ka, kb), n, policy),
                      phi_from_counts(match_counts(want, ka, kb), n, policy))
                << label;
          }
        };
        check(t.count_u8, oracle.count_u8,
              random_sites<std::uint8_t>(r, n, 200, uf),
              random_sites<std::uint8_t>(r, n, 200, uf));
        check(t.count_u16, oracle.count_u16,
              random_sites<std::uint16_t>(r, n, 60'000, uf),
              random_sites<std::uint16_t>(r, n, 60'000, uf));
        check(t.count_u32, oracle.count_u32,
              random_sites<std::uint32_t>(r, n, 1'000'000, uf),
              random_sites<std::uint32_t>(r, n, 1'000'000, uf));
      }
    }
  }
}

template <typename T>
using DeltaFn = void (*)(const T*, const T*, std::size_t,
                         std::vector<DeltaEntry>&);

template <typename T>
void expect_delta_identical(DeltaFn<T> kernel, DeltaFn<T> ref,
                            const std::vector<T>& a, const std::vector<T>& b,
                            const char* tier) {
  std::vector<DeltaEntry> got, want;
  kernel(a.data(), b.data(), a.size(), got);
  ref(a.data(), b.data(), a.size(), want);
  ASSERT_EQ(got.size(), want.size()) << tier << " n=" << a.size();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index) << tier;
    EXPECT_EQ(got[i].before, want[i].before) << tier;
    EXPECT_EQ(got[i].after, want[i].after) << tier;
  }
}

template <typename T>
void run_delta_suite(DeltaFn<T> kernel, DeltaFn<T> ref, rng::Rng& r,
                     SiteId max_site, const char* tier) {
  for (const std::size_t n : kSimdSizes) {
    auto a = random_sites<T>(r, n, max_site, 0.2);
    auto b = a;
    const std::size_t flips = n == 0 ? 0 : r.uniform(n / 8 + 1);
    for (std::size_t k = 0; k < flips; ++k) {
      b[r.uniform(n)] =
          r.bernoulli(0.3)
              ? T{0}
              : static_cast<T>(kFirstRealSite + r.uniform(max_site));
    }
    expect_delta_identical(kernel, ref, a, b, tier);
  }
}

TEST(SimdKernels, DeltaScansBitIdenticalToScalarOracleAllTiers) {
  const simd::KernelTable& oracle = *simd::table_for(simd::Tier::kScalar);
  for (const simd::Tier tier : available_tiers()) {
    rng::Rng r(1234);
    const simd::KernelTable& t = *simd::table_for(tier);
    const char* name = simd::tier_name(tier);
    run_delta_suite<std::uint8_t>(t.delta_u8, oracle.delta_u8, r, 200, name);
    run_delta_suite<std::uint16_t>(t.delta_u16, oracle.delta_u16, r, 60'000,
                                   name);
    run_delta_suite<std::uint32_t>(t.delta_u32, oracle.delta_u32, r,
                                   1'000'000, name);
  }
}

/// The inputs a one-pass pack kernel must report the maximum of: @p
/// fits (every id fits the width), ids up to 1,000,000 anywhere, and
/// @p fits with one id of @p wide placed first, in the middle and last.
std::vector<std::vector<SiteId>> pack_inputs(rng::Rng& r,
                                             const std::vector<SiteId>& fits,
                                             SiteId wide) {
  const std::size_t n = fits.size();
  std::vector<std::vector<SiteId>> inputs{
      fits, random_sites<SiteId>(r, n, 1'000'000, 0.1)};
  if (n == 0) return inputs;
  for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
    inputs.push_back(fits);
    inputs.back()[at] = wide;
  }
  return inputs;
}

/// What every tier's pack kernel must reproduce: the row's largest id.
SiteId max_id_oracle(const std::vector<SiteId>& ids) {
  return ids.empty() ? 0 : *std::max_element(ids.begin(), ids.end());
}

// Tail lengths straddle every lane boundary in play and cover every
// length mod 128 — the AVX-512 masked tails and the AVX2 scalar
// remainders, odd and even.
std::vector<std::size_t> pack_sizes() {
  std::vector<std::size_t> sizes(std::begin(kSimdSizes), std::end(kSimdSizes));
  for (std::size_t n = 2048; n < 2048 + 128; ++n) sizes.push_back(n);
  return sizes;
}

// The row-ingest kernels (pack_u8/u16) and the swap-class patch kernel
// must match the scalar oracle exactly for every tier — they feed
// PackedSeries::append and ColumnPatcher, so a divergence would silently
// corrupt the packed store or the batched Φ fill. A pack returns the
// largest id it read, wherever the widest id sits and whether or not it
// fits; its bytes are compared only when that id fits the width, and it
// never writes past the row.
TEST(SimdKernels, IngestAndSwapPatchBitIdenticalToScalarOracleAllTiers) {
  const simd::KernelTable& oracle = *simd::table_for(simd::Tier::kScalar);
  for (const simd::Tier tier : available_tiers()) {
    rng::Rng r(4321);
    const simd::KernelTable& t = *simd::table_for(tier);
    const char* name = simd::tier_name(tier);
    for (const std::size_t n : pack_sizes()) {
      for (const auto& src :
           pack_inputs(r, random_sites<SiteId>(r, n, 200, 0.1), 256)) {
        const SiteId top = max_id_oracle(src);
        std::vector<std::uint8_t> got(n + 8, 0xAB), want(n + 8, 0xAB);
        EXPECT_EQ(t.pack_u8(src.data(), got.data(), n), top)
            << name << " n=" << n;
        EXPECT_EQ(oracle.pack_u8(src.data(), want.data(), n), top)
            << "oracle n=" << n;
        if (top <= 0xFF) {
          EXPECT_EQ(got, want) << name << " n=" << n;
        }
        for (std::size_t k = n; k < got.size(); ++k) {
          ASSERT_EQ(got[k], 0xAB) << name << " n=" << n << " wrote past";
        }
      }
      for (const auto& src :
           pack_inputs(r, random_sites<SiteId>(r, n, 60'000, 0.1), 65'536)) {
        const SiteId top = max_id_oracle(src);
        std::vector<std::uint16_t> got(n + 4, 0xABCD), want(n + 4, 0xABCD);
        EXPECT_EQ(t.pack_u16(src.data(), got.data(), n), top)
            << name << " n=" << n;
        EXPECT_EQ(oracle.pack_u16(src.data(), want.data(), n), top)
            << "oracle n=" << n;
        if (top <= 0xFFFF) {
          EXPECT_EQ(got, want) << name << " n=" << n;
        }
        for (std::size_t k = n; k < got.size(); ++k) {
          ASSERT_EQ(got[k], 0xABCD) << name << " n=" << n << " wrote past";
        }
      }
      if (n > 0) {
        // Swap patch: ascending indices with the row's last elements
        // always included, so the gather tier's peeled scalar suffix is
        // exercised at every size. Mix in before/after values that can
        // never fit a u8 row — the lane compare must still agree with
        // the scalar SiteId compare.
        const auto row = random_sites<std::uint8_t>(r, n, 200, 0.2);
        std::vector<std::uint32_t> idx;
        std::vector<SiteId> before, after;
        for (std::uint32_t i = 0; i < n; ++i) {
          if (!r.bernoulli(0.25) && i + 4 <= n) continue;
          idx.push_back(i);
          const SiteId b = row[i];
          before.push_back(r.bernoulli(0.4)
                               ? b
                               : kFirstRealSite + r.uniform(300));
          after.push_back(r.bernoulli(0.4) ? b
                                           : kFirstRealSite + r.uniform(300));
        }
        EXPECT_EQ(t.swap_u8(row.data(), idx.data(), before.data(),
                            after.data(), idx.size(), n),
                  oracle.swap_u8(row.data(), idx.data(), before.data(),
                                 after.data(), idx.size(), n))
            << name << " n=" << n;
      }
    }
  }
}

// ---------------------------------------------------------------------
// The 4-bit kernels. Rows hold ids 0..15 two to a byte; an odd row's
// last high nibble is padding. Every tier must reproduce the scalar
// oracle — and the oracle an element-by-element count over the ids —
// at every tail length mod 128 elements (every AVX-512 byte tail, odd
// and even), across the AVX2 drain boundary (127 iterations × 32 bytes
// = 8128 elements), and at unknown fractions 0, 0.5 and 1.

std::vector<std::size_t> u4_sizes() {
  std::vector<std::size_t> sizes = pack_sizes();
  for (const std::size_t n : {8127, 8128, 8129, 8191, 8192, 8193, 20'011}) {
    sizes.push_back(n);
  }
  return sizes;
}

/// @p n ids in 0..15, each unknown with probability @p uf.
std::vector<SiteId> random_u4_ids(rng::Rng& r, std::size_t n, double uf) {
  std::vector<SiteId> ids(n);
  for (SiteId& x : ids) {
    x = r.bernoulli(uf) ? kUnknownSite : static_cast<SiteId>(1 + r.uniform(15));
  }
  return ids;
}

std::vector<std::uint8_t> pack_u4_oracle(const std::vector<SiteId>& ids) {
  std::vector<std::uint8_t> out(packed_row_bytes(ids.size(), 4));
  simd::table_for(simd::Tier::kScalar)->pack_u4(ids.data(), out.data(),
                                               ids.size());
  return out;
}

TEST(SimdKernels, FourBitPackAndCountsBitIdenticalToScalarOracleAllTiers) {
  const simd::KernelTable& oracle = *simd::table_for(simd::Tier::kScalar);
  for (const simd::Tier tier : available_tiers()) {
    rng::Rng r(404);
    const simd::KernelTable& t = *simd::table_for(tier);
    const char* name = simd::tier_name(tier);
    for (const std::size_t n : u4_sizes()) {
      for (const double uf : {0.0, 0.5, 1.0}) {
        const auto ia = random_u4_ids(r, n, uf);
        const auto ib = random_u4_ids(r, n, uf);
        const auto a = pack_u4_oracle(ia);
        const auto b = pack_u4_oracle(ib);
        // The tier's pack returns the row's largest id and writes
        // exactly the oracle's bytes — the odd row's padding nibble 0
        // included — and nothing past the row. A row with an id past 15
        // (first, middle, or last: an odd row's last nibble) reports it
        // and still writes nothing past the row; its bytes are
        // unspecified.
        for (const auto& ids : pack_inputs(r, ia, 16)) {
          const SiteId top = max_id_oracle(ids);
          std::vector<std::uint8_t> got(a.size() + 8, 0xAB);
          std::vector<std::uint8_t> want(a.size());
          ASSERT_EQ(t.pack_u4(ids.data(), got.data(), n), top)
              << name << " n=" << n;
          ASSERT_EQ(oracle.pack_u4(ids.data(), want.data(), n), top)
              << "oracle n=" << n;
          if (top <= 0xF) {
            ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
                << name << " n=" << n;
          }
          for (std::size_t k = a.size(); k < got.size(); ++k) {
            ASSERT_EQ(got[k], 0xAB) << name << " n=" << n << " wrote past";
          }
        }
        if (n % 2 != 0) {
          ASSERT_EQ(a.back() >> 4, 0) << "padding nibble";
        }

        const std::string label = std::string(name) +
                                  " n=" + std::to_string(n) +
                                  " uf=" + std::to_string(uf);
        const PairTally want = elementwise_tally(ia, ib, n);
        expect_tally(oracle.count_u4(a.data(), {b.data()}, n)[0], want,
                     "oracle " + label);
        expect_tally(t.count_u4(a.data(), {b.data()}, n)[0], want, label);
        expect_tally(t.count_u4(a.data(), {a.data()}, n)[0],
                     elementwise_tally(ia, ia, n), label + " self");

        // A nonzero padding nibble is not an element: it never counts.
        if (n % 2 != 0) {
          auto pa = a;
          auto pb = b;
          pa.back() |= 0x50;
          pb.back() |= 0x30;
          expect_tally(t.count_u4(pa.data(), {pb.data()}, n)[0], want,
                       label + " padded");
        }
      }
    }
  }
}

TEST(SimdKernels, FourBitDeltaScansBitIdenticalToScalarOracleAllTiers) {
  const simd::KernelTable& oracle = *simd::table_for(simd::Tier::kScalar);
  for (const simd::Tier tier : available_tiers()) {
    rng::Rng r(505);
    const simd::KernelTable& t = *simd::table_for(tier);
    const char* name = simd::tier_name(tier);
    for (const std::size_t n : u4_sizes()) {
      for (const double uf : {0.0, 0.5, 1.0}) {
        const auto ia = random_u4_ids(r, n, uf);
        auto ib = ia;
        const std::size_t flips = n == 0 ? 0 : r.uniform(n / 8 + 2);
        for (std::size_t k = 0; k < flips; ++k) {
          ib[r.uniform(n)] = static_cast<SiteId>(r.uniform(16));
        }
        if (n > 0) ib[n - 1] = ia[n - 1] == 15 ? 14 : 15;  // the last element
        const auto a = pack_u4_oracle(ia);
        const auto b = pack_u4_oracle(ib);
        std::vector<DeltaEntry> want;
        for (std::size_t i = 0; i < n; ++i) {
          if (ia[i] != ib[i]) {
            want.push_back({static_cast<std::uint32_t>(i), ia[i], ib[i]});
          }
        }
        std::vector<DeltaEntry> full;
        oracle.delta_u4(a.data(), b.data(), n, full);
        ASSERT_EQ(full.size(), want.size()) << "oracle n=" << n;
        for (std::size_t k = 0; k < want.size(); ++k) {
          EXPECT_EQ(full[k].index, want[k].index) << "oracle n=" << n;
          EXPECT_EQ(full[k].before, want[k].before) << "oracle n=" << n;
          EXPECT_EQ(full[k].after, want[k].after) << "oracle n=" << n;
        }
        std::vector<DeltaEntry> got;
        t.delta_u4(a.data(), b.data(), n, got);
        ASSERT_EQ(got.size(), want.size()) << name << " n=" << n;
        for (std::size_t k = 0; k < got.size(); ++k) {
          EXPECT_EQ(got[k].index, want[k].index) << name << " n=" << n;
          EXPECT_EQ(got[k].before, want[k].before) << name << " n=" << n;
          EXPECT_EQ(got[k].after, want[k].after) << name << " n=" << n;
        }
        if (n % 2 != 0) {
          // Differing padding nibbles are no change.
          auto pb = b;
          pb.back() ^= 0xA0;
          std::vector<DeltaEntry> padded;
          t.delta_u4(a.data(), pb.data(), n, padded);
          EXPECT_EQ(padded.size(), want.size()) << name << " n=" << n;
        }
      }
    }
  }
}

TEST(SimdKernels, FourBitPatchKernelsBitIdenticalToScalarOracleAllTiers) {
  const simd::KernelTable& oracle = *simd::table_for(simd::Tier::kScalar);
  for (const simd::Tier tier : available_tiers()) {
    rng::Rng r(606);
    const simd::KernelTable& t = *simd::table_for(tier);
    const char* name = simd::tier_name(tier);
    for (const std::size_t n : u4_sizes()) {
      if (n == 0) continue;
      for (const double uf : {0.0, 0.5, 1.0}) {
        const auto ids = random_u4_ids(r, n, uf);
        const auto row = pack_u4_oracle(ids);
        // Ascending indices, the row's last eight elements always
        // included, so every gather whose 4 bytes would cross the row
        // end lands in the peeled suffix. Before/after values past 15
        // can never match a nibble. swap_u4 and known_u4 (the gain/lose
        // classes' sums) both run over the same entries.
        std::vector<std::uint32_t> idx;
        std::vector<SiteId> before, after;
        std::int64_t want = 0;
        KnownPatchSums want_known;
        for (std::uint32_t i = 0; i < n; ++i) {
          if (!r.bernoulli(0.25) && i + 8 < n) continue;
          idx.push_back(i);
          before.push_back(r.bernoulli(0.4) ? ids[i] : r.uniform(21));
          after.push_back(r.bernoulli(0.4) ? ids[i] : r.uniform(21));
          want += (after.back() == ids[i]) - (before.back() == ids[i]);
          want_known.equal += after.back() == ids[i];
          want_known.known += ids[i] != kUnknownSite;
        }
        EXPECT_EQ(oracle.swap_u4(row.data(), idx.data(), before.data(),
                                 after.data(), idx.size(), n),
                  want)
            << "oracle n=" << n;
        EXPECT_EQ(t.swap_u4(row.data(), idx.data(), before.data(),
                            after.data(), idx.size(), n),
                  want)
            << name << " n=" << n << " uf=" << uf;
        for (const KnownPatchSums got :
             {oracle.known_u4(row.data(), idx.data(), after.data(),
                              idx.size(), n),
              t.known_u4(row.data(), idx.data(), after.data(), idx.size(),
                         n)}) {
          EXPECT_EQ(got.equal, want_known.equal) << name << " n=" << n;
          EXPECT_EQ(got.known, want_known.known) << name << " n=" << n;
        }
      }
    }
  }
}

// The step size the similarity matrix plans with: a tally's differ
// count must be exactly the change set's size — for every tier, width
// and unknown fraction, on independent and on near-identical row pairs.
template <typename T>
void expect_step_identity(simd::CountFn<T, 1> count, DeltaFn<T> delta,
                          rng::Rng& r, SiteId max_site, const char* tier) {
  for (const std::size_t n : kSimdSizes) {
    for (const double uf : {0.0, 0.5, 1.0}) {
      const auto a = random_sites<T>(r, n, max_site, uf);
      auto near = a;
      for (std::size_t k = 0; n > 0 && k < n / 20 + 1; ++k) {
        near[r.uniform(n)] =
            r.bernoulli(uf) ? T{0}
                            : static_cast<T>(kFirstRealSite + r.uniform(max_site));
      }
      for (const auto& b : {random_sites<T>(r, n, max_site, uf), near}) {
        std::vector<DeltaEntry> changes;
        delta(a.data(), b.data(), n, changes);
        EXPECT_EQ(count(a.data(), {b.data()}, n)[0].differ, changes.size())
            << tier << " width " << sizeof(T) << " n=" << n << " uf=" << uf;
      }
    }
  }
}

TEST(SimdKernels, StepSizeIdentityAllTiers) {
  for (const simd::Tier tier : available_tiers()) {
    rng::Rng r(777);
    const simd::KernelTable& t = *simd::table_for(tier);
    const char* name = simd::tier_name(tier);
    expect_step_identity<std::uint8_t>(t.count_u8, t.delta_u8, r, 200, name);
    expect_step_identity<std::uint16_t>(t.count_u16, t.delta_u16, r, 60'000,
                                        name);
    expect_step_identity<std::uint32_t>(t.count_u32, t.delta_u32, r,
                                        1'000'000, name);
    for (const std::size_t n : u4_sizes()) {
      for (const double uf : {0.0, 0.5, 1.0}) {
        const auto ia = random_u4_ids(r, n, uf);
        auto near = ia;
        for (std::size_t k = 0; n > 0 && k < n / 20 + 1; ++k) {
          near[r.uniform(n)] = static_cast<SiteId>(r.uniform(16));
        }
        const auto a = pack_u4_oracle(ia);
        for (const auto& ib : {random_u4_ids(r, n, uf), near}) {
          const auto b = pack_u4_oracle(ib);
          std::vector<DeltaEntry> changes;
          t.delta_u4(a.data(), b.data(), n, changes);
          EXPECT_EQ(t.count_u4(a.data(), {b.data()}, n)[0].differ,
                    changes.size())
              << name << " 4 bits n=" << n << " uf=" << uf;
        }
      }
    }
  }
}

// The tally contract on every tier and width: for tails of every length
// mod 128 — short rows, rows across the AVX2 drains (8,128 4-bit and
// 8,160 8-bit elements) and, at 4 bits, rows across the AVX-512 drain
// (255 blocks of 128 elements) — at unknown fractions 0, 0.5 and 1, the
// one-column tally equals the element-wise count; the MatchCounts
// derived from it and the rows' self-tallies equal the element-wise
// definitions of matches and mutual_known; and the two-column form
// equals two one-column calls, a column being the row itself included.
// Odd 4-bit rows carry a nonzero padding nibble in every row, which
// must never count.
template <typename T>
struct TallyCase {
  simd::CountFn<T, 1> one;
  simd::CountFn<T, 2> two;
  std::vector<T> a, b, c;  // packed rows
};

template <typename T>
void expect_tally_contract(const TallyCase<T>& k,
                           const std::vector<SiteId>& ia,
                           const std::vector<SiteId>& ib, std::size_t n,
                           const std::string& label) {
  const PairTally ab = k.one(k.a.data(), {k.b.data()}, n)[0];
  expect_tally(ab, elementwise_tally(ia, ib, n), label);
  MatchCounts want;
  for (std::size_t i = 0; i < n; ++i) {
    want.matches += ia[i] == ib[i] && ia[i] != kUnknownSite;
    want.mutual_known += ia[i] != kUnknownSite && ib[i] != kUnknownSite;
  }
  const MatchCounts got =
      match_counts(ab, k.one(k.a.data(), {k.a.data()}, n)[0].either,
                   k.one(k.b.data(), {k.b.data()}, n)[0].either);
  EXPECT_EQ(got.matches, want.matches) << label;
  EXPECT_EQ(got.mutual_known, want.mutual_known) << label;

  const T* a = k.a.data();
  for (const auto& [c0, c1] : {std::pair{k.b.data(), k.c.data()},
                               std::pair{k.b.data(), a},
                               std::pair{a, k.c.data()}}) {
    const auto two = k.two(a, {c0, c1}, n);
    expect_tally(two[0], k.one(a, {c0}, n)[0], label + " column 0");
    expect_tally(two[1], k.one(a, {c1}, n)[0], label + " column 1");
  }
}

TEST(SimdKernels, TallyContractAllTiersAndWidths) {
  std::vector<std::size_t> sizes;
  for (const std::size_t base : {0, 8'128, 32'704}) {
    for (std::size_t r = 0; r < 128; ++r) sizes.push_back(base + r);
  }
  for (const simd::Tier tier : available_tiers()) {
    rng::Rng r(2028);
    const simd::KernelTable& t = *simd::table_for(tier);
    for (const std::size_t n : sizes) {
      for (const double uf : {0.0, 0.5, 1.0}) {
        const std::string label = std::string(simd::tier_name(tier)) +
                                  " n=" + std::to_string(n) +
                                  " uf=" + std::to_string(uf);
        {
          const auto ia = random_u4_ids(r, n, uf);
          const auto ib = random_u4_ids(r, n, uf);
          TallyCase<std::uint8_t> k{t.count_u4, t.count2_u4,
                                    pack_u4_oracle(ia), pack_u4_oracle(ib),
                                    pack_u4_oracle(random_u4_ids(r, n, uf))};
          if (n % 2 != 0) {
            k.a.back() |= 0x50;
            k.b.back() |= 0x30;
            k.c.back() |= 0xF0;
          }
          expect_tally_contract(k, ia, ib, n, label + " 4 bits");
        }
        const auto wide = [&]<typename T>(simd::CountFn<T, 1> one,
                                          simd::CountFn<T, 2> two,
                                          SiteId max_site) {
          const auto a = random_sites<T>(r, n, max_site, uf);
          const auto b = random_sites<T>(r, n, max_site, uf);
          const std::vector<SiteId> ia(a.begin(), a.end());
          const std::vector<SiteId> ib(b.begin(), b.end());
          const TallyCase<T> k{one, two, a, b,
                               random_sites<T>(r, n, max_site, uf)};
          expect_tally_contract(k, ia, ib, n,
                                label + " " + std::to_string(8 * sizeof(T)) +
                                    " bits");
        };
        // The wider kernels drain at 8,160 elements or past 256,000.
        if (n > 32'000) continue;
        wide(t.count_u8, t.count2_u8, 200);
        wide(t.count_u16, t.count2_u16, 60'000);
        wide(t.count_u32, t.count2_u32, 1'000'000);
      }
    }
  }
}

TEST(SimdDispatch, ScalarTierAlwaysAvailable) {
  ASSERT_NE(simd::table_for(simd::Tier::kScalar), nullptr);
  EXPECT_LE(static_cast<int>(simd::active_tier()),
            static_cast<int>(simd::detected_tier()));
  // The active tier must be one the dispatcher can actually serve.
  EXPECT_NE(simd::table_for(simd::active_tier()), nullptr);
}

// With FENRIR_SIMD set (the override smoke ctest runs this suite under
// FENRIR_SIMD=scalar), the active tier must obey the override; without
// it this only pins the tier names.
TEST(SimdDispatch, EnvOverrideClampsActiveTier) {
  EXPECT_STREQ(simd::tier_name(simd::Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::tier_name(simd::Tier::kAvx2), "avx2");
  EXPECT_STREQ(simd::tier_name(simd::Tier::kAvx512), "avx512");
  const char* env = std::getenv("FENRIR_SIMD");
  if (env != nullptr && std::string_view(env) == "scalar") {
    EXPECT_EQ(simd::active_tier(), simd::Tier::kScalar);
  }
}

TEST(Kernels, InOrderSumMatchesSequentialAccumulation) {
  rng::Rng r(7);
  std::vector<double> w(1000);
  for (auto& x : w) x = r.uniform01() * 1e-3 + 1e-9;
  double expect = 0.0;
  for (const double x : w) expect += x;
  EXPECT_EQ(in_order_sum(w), expect);
}

}  // namespace
}  // namespace fenrir::core
