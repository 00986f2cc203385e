// fenrir::core::simd — runtime CPU-feature dispatch for the Φ kernels.
//
// The packed count kernels are the loop every unweighted Φ in the system
// funnels through. compare_kernels.cc keeps the scalar implementations
// — the oracle every other tier must reproduce bit-for-bit — and this
// header names the faster tiers built from explicit intrinsics:
//
//   kScalar  — the untouched blocked branchless loops (always present).
//   kAvx2    — 256-bit lanes: pcmpeq + byte-mask accumulation drained
//              through psadbw (u4, u8), madd (u16), or lane adds (u32).
//   kAvx512  — 512-bit lanes: compares straight into mask registers;
//              tails use masked loads, so there is no scalar remainder
//              loop at all. 4-bit rows are never unpacked: a^b and a|b
//              tested against 0x0F/0xF0 give four predicate masks per
//              byte lane, counted by masked byte adds that drain through
//              vpsadbw. The wider rows count cmpneq(a, b) and
//              test(a|b) masks with scalar popcount.
//
// A tier is *available* when the compiler could build its TU (CMake
// probes -mavx2 / -mavx512f -mavx512bw) AND the running CPU reports the
// feature. Dispatch picks the best available tier once, at first use;
// FENRIR_SIMD=scalar|avx2|avx512 overrides downward for testing (a
// request above what the host supports clamps down with a warning, so
// the override is always safe to set in CI). Because every tier produces
// the same integer PairTally, Φ stays bit-identical to the scalar
// reference whichever tier runs — the property suite in
// tests/core_compare_kernels_test.cc pins every available tier against
// the oracle across widths, policies, tails, and unknown fractions.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "core/compare_kernels.h"

namespace fenrir::core::simd {

enum class Tier : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Human-readable tier name ("scalar", "avx2", "avx512").
const char* tier_name(Tier t) noexcept;

/// Best tier the host CPU *and* this build support (env ignored).
Tier detected_tier() noexcept;

/// The tier dispatch actually uses: detected_tier() clamped down by a
/// FENRIR_SIMD override. Resolved once at first use.
Tier active_tier() noexcept;

/// A count kernel over K columns (1 or 2): the PairTally of row @p a
/// against each of @p cols in one pass over a's bytes, column by column
/// equal to K one-column calls.
template <typename T, std::size_t K>
using CountFn = std::array<PairTally, K> (*)(const T* a,
                                             std::array<const T*, K> cols,
                                             std::size_t n);

/// One tier's kernel entry points. count_* tally row pairs — the integer
/// core of unweighted Φ — and count2_* tally one row against two columns;
/// each tier writes both as one template over the column count.
struct KernelTable {
  // The 4-bit kernels take the row's element count n and read
  // packed_row_bytes(n, 4) bytes; the high nibble of an odd row's last
  // byte is not an element and never counts.
  CountFn<std::uint8_t, 1> count_u4;
  CountFn<std::uint8_t, 1> count_u8;
  CountFn<std::uint16_t, 1> count_u16;
  CountFn<std::uint32_t, 1> count_u32;
  CountFn<std::uint8_t, 2> count2_u4;
  CountFn<std::uint8_t, 2> count2_u8;
  CountFn<std::uint16_t, 2> count2_u16;
  CountFn<std::uint32_t, 2> count2_u32;
  // Row-ingest kernels: pack_u4/u8/u16 narrow a SiteId row into the
  // packed store in one pass and return the largest id they read. The
  // bytes are the packed row when that id fits the width (≤ 15, 255,
  // 65,535; pack_u4 then leaves an odd row's last high nibble 0) and
  // unspecified otherwise — PackedSeries::append widens the store and
  // packs again. No tier writes past the row's packed_row_bytes.
  SiteId (*pack_u4)(const SiteId* src, std::uint8_t* dst, std::size_t n);
  SiteId (*pack_u8)(const SiteId* src, std::uint8_t* dst, std::size_t n);
  SiteId (*pack_u16)(const SiteId* src, std::uint16_t* dst, std::size_t n);
};

/// The table for active_tier() — what PackedSeries dispatches through.
const KernelTable& active();

/// The table for a specific tier, or nullptr when this build/host does
/// not support it. Lets the property tests pin every available tier
/// against the scalar oracle regardless of FENRIR_SIMD.
const KernelTable* table_for(Tier t) noexcept;

// Per-tier entry points. The scalar set is defined in
// compare_kernels.cc; the AVX sets live in their own TUs compiled with
// the matching -m flags (present only when CMake found the flags, and
// called only after the runtime CPU check passed).
// count_u4_scalar<K> tallies 4-bit rows, count_scalar<T, K> rows of
// T elements; both are instantiated for K = 1 and 2.
template <std::size_t K>
std::array<PairTally, K> count_u4_scalar(const std::uint8_t*,
                                         std::array<const std::uint8_t*, K>,
                                         std::size_t);
template <typename T, std::size_t K>
std::array<PairTally, K> count_scalar(const T*, std::array<const T*, K>,
                                      std::size_t);
SiteId pack_u4_scalar(const SiteId*, std::uint8_t*, std::size_t);
SiteId pack_u8_scalar(const SiteId*, std::uint8_t*, std::size_t);
SiteId pack_u16_scalar(const SiteId*, std::uint16_t*, std::size_t);

#if defined(FENRIR_BUILD_AVX2)
// count_u4_avx2<K> tallies 4-bit rows, count_avx2<T, K> rows of
// T elements; both are instantiated for K = 1 and 2.
template <std::size_t K>
std::array<PairTally, K> count_u4_avx2(const std::uint8_t*,
                                       std::array<const std::uint8_t*, K>,
                                       std::size_t);
template <typename T, std::size_t K>
std::array<PairTally, K> count_avx2(const T*, std::array<const T*, K>,
                                    std::size_t);
SiteId pack_u4_avx2(const SiteId*, std::uint8_t*, std::size_t);
SiteId pack_u8_avx2(const SiteId*, std::uint8_t*, std::size_t);
SiteId pack_u16_avx2(const SiteId*, std::uint16_t*, std::size_t);
#endif

#if defined(FENRIR_BUILD_AVX512)
// count_u4_avx512<K> tallies 4-bit rows, count_avx512<T, K> rows of
// T elements; both are instantiated for K = 1 and 2.
template <std::size_t K>
std::array<PairTally, K> count_u4_avx512(const std::uint8_t*,
                                         std::array<const std::uint8_t*, K>,
                                         std::size_t);
template <typename T, std::size_t K>
std::array<PairTally, K> count_avx512(const T*, std::array<const T*, K>,
                                      std::size_t);
SiteId pack_u4_avx512(const SiteId*, std::uint8_t*, std::size_t);
SiteId pack_u8_avx512(const SiteId*, std::uint8_t*, std::size_t);
SiteId pack_u16_avx512(const SiteId*, std::uint16_t*, std::size_t);
#endif

}  // namespace fenrir::core::simd
