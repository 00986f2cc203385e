// AVX2 tier of the Φ kernels (see simd_dispatch.h). Compiled with
// -mavx2 in its own TU so the rest of fenrir_core stays baseline-ISA;
// dispatch only lands here after __builtin_cpu_supports("avx2").
//
// The count kernels follow the classic byte-mask accumulation shape:
// pcmpeq produces 0xFF/0x00 lanes, subtracting the mask adds 0/1 per
// lane, and the per-lane accumulators are drained into wide sums before
// they can wrap (255 iterations for u8 via psadbw, 16k for u16 via
// pmaddwd, u32 lanes drain per block). A pass tallies a against b (and
// a second column, when it has one) with two compares per vector: a ==
// b and (a | b) == 0. Counts are exact integers, so Φ derived from them
// is bit-identical to the scalar oracle by construction — there is no
// float in sight. 4-bit rows stay packed: each nibble's predicate comes
// from a^b or a|b masked with 0x0F or 0xF0, so a byte lane counts up to
// two elements per iteration.
#include "core/simd_dispatch.h"

#include <algorithm>
#include <array>

#if defined(FENRIR_BUILD_AVX2) && defined(__AVX2__)

#include <immintrin.h>

namespace fenrir::core::simd {

namespace {

inline std::uint64_t hsum_epi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return static_cast<std::uint64_t>(_mm_extract_epi64(s, 0)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
}

/// @p v, held in a register, so its block is loaded once rather than
/// folded into each instruction that reads it (see the AVX-512 tier).
inline __m256i in_register(__m256i v) {
  asm("" : "+x"(v));
  return v;
}

inline std::uint64_t hsum_epi32(__m256i v) {
  // Zero-extend the eight u32 lanes into u64 pairs before summing; the
  // lane values are block-bounded well below 2^32, so no wrap.
  const __m256i zero = _mm256_setzero_si256();
  const __m256i lo = _mm256_unpacklo_epi32(v, zero);
  const __m256i hi = _mm256_unpackhi_epi32(v, zero);
  return hsum_epi64(_mm256_add_epi64(lo, hi));
}

}  // namespace

template <std::size_t K>
std::array<PairTally, K> count_u4_avx2(const std::uint8_t* a,
                                       std::array<const std::uint8_t*, K> b,
                                       std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i lo = _mm256_set1_epi8(0x0F);
  const __m256i hi = _mm256_set1_epi8(static_cast<char>(0xF0));
  const __m256i two = _mm256_set1_epi8(2);
  // Nonzero nibbles of @p v: 2 per lane, less one (0xFF) for each
  // nibble that is zero.
  const auto nonzero_nibbles = [&](__m256i v) {
    return _mm256_add_epi8(
        _mm256_add_epi8(_mm256_cmpeq_epi8(_mm256_and_si256(v, lo), zero),
                        _mm256_cmpeq_epi8(_mm256_and_si256(v, hi), zero)),
        two);
  };
  __m256i dsum[K], esum[K];  // u64 lanes
  for (std::size_t k = 0; k < K; ++k) dsum[k] = esum[k] = zero;
  const std::size_t full = n / 2;
  std::size_t i = 0;
  while (i + 32 <= full) {
    // Byte accumulators gain up to two counts per iteration (one per
    // nibble); drain via psadbw before 128 iterations could wrap them.
    const std::size_t iters = std::min<std::size_t>((full - i) / 32, 127);
    __m256i accd[K], acce[K];
    for (std::size_t k = 0; k < K; ++k) accd[k] = acce[k] = zero;
    for (std::size_t t = 0; t < iters; ++t, i += 32) {
      const __m256i va = in_register(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)));
#pragma GCC unroll 2
      for (std::size_t k = 0; k < K; ++k) {
        const __m256i vb = in_register(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b[k] + i)));
        accd[k] = _mm256_add_epi8(
            accd[k], nonzero_nibbles(_mm256_xor_si256(va, vb)));
        acce[k] =
            _mm256_add_epi8(acce[k], nonzero_nibbles(_mm256_or_si256(va, vb)));
      }
    }
    for (std::size_t k = 0; k < K; ++k) {
      dsum[k] = _mm256_add_epi64(dsum[k], _mm256_sad_epu8(accd[k], zero));
      esum[k] = _mm256_add_epi64(esum[k], _mm256_sad_epu8(acce[k], zero));
    }
  }
  // The remaining bytes, and an odd row's last element, go through the
  // scalar oracle at their byte offset.
  for (std::size_t k = 0; k < K; ++k) b[k] += i;
  std::array<PairTally, K> out = count_u4_scalar<K>(a + i, b, n - 2 * i);
  for (std::size_t k = 0; k < K; ++k) {
    out[k] += {hsum_epi64(dsum[k]), hsum_epi64(esum[k])};
  }
  return out;
}

namespace {

// Per-width lane operations of the 8/16/32-bit count kernels. Equal and
// both-zero lanes are counted (a compare gives 0xFF.., subtracting it
// adds 1); differ and either are the lanes counted less those. Each
// accumulator lane gains at most one per iteration and is drained
// before kMaxIters iterations could wrap it: psadbw for bytes, pmaddwd
// for words (signed operands, so well below 2^15), lane sums for dwords.
template <typename T>
struct Lanes;

template <>
struct Lanes<std::uint8_t> {
  static constexpr std::size_t kMaxIters = 255;
  static __m256i eq(__m256i a, __m256i b) { return _mm256_cmpeq_epi8(a, b); }
  static __m256i sub(__m256i a, __m256i b) { return _mm256_sub_epi8(a, b); }
  static std::uint64_t drain(__m256i v) {
    return hsum_epi64(_mm256_sad_epu8(v, _mm256_setzero_si256()));
  }
};

template <>
struct Lanes<std::uint16_t> {
  static constexpr std::size_t kMaxIters = 16'000;
  static __m256i eq(__m256i a, __m256i b) { return _mm256_cmpeq_epi16(a, b); }
  static __m256i sub(__m256i a, __m256i b) { return _mm256_sub_epi16(a, b); }
  static std::uint64_t drain(__m256i v) {
    return hsum_epi32(_mm256_madd_epi16(v, _mm256_set1_epi16(1)));
  }
};

template <>
struct Lanes<std::uint32_t> {
  static constexpr std::size_t kMaxIters = std::size_t{1} << 24;
  static __m256i eq(__m256i a, __m256i b) { return _mm256_cmpeq_epi32(a, b); }
  static __m256i sub(__m256i a, __m256i b) { return _mm256_sub_epi32(a, b); }
  static std::uint64_t drain(__m256i v) { return hsum_epi32(v); }
};

}  // namespace

template <typename T, std::size_t K>
std::array<PairTally, K> count_avx2(const T* a, std::array<const T*, K> b,
                                    std::size_t n) {
  using L = Lanes<T>;
  constexpr std::size_t kLanes = 32 / sizeof(T);
  const __m256i zero = _mm256_setzero_si256();
  std::array<PairTally, K> out{};
  std::size_t i = 0;
  while (i + kLanes <= n) {
    const std::size_t iters = std::min(L::kMaxIters, (n - i) / kLanes);
    __m256i acc_eq[K], acc_zero[K];
    for (std::size_t k = 0; k < K; ++k) acc_eq[k] = acc_zero[k] = zero;
    for (std::size_t t = 0; t < iters; ++t, i += kLanes) {
      const __m256i va = in_register(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)));
#pragma GCC unroll 2
      for (std::size_t k = 0; k < K; ++k) {
        const __m256i vb = in_register(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b[k] + i)));
        acc_eq[k] = L::sub(acc_eq[k], L::eq(va, vb));
        acc_zero[k] =
            L::sub(acc_zero[k], L::eq(_mm256_or_si256(va, vb), zero));
      }
    }
    const std::uint64_t lanes = iters * kLanes;
    for (std::size_t k = 0; k < K; ++k) {
      out[k] += {lanes - L::drain(acc_eq[k]), lanes - L::drain(acc_zero[k])};
    }
  }
  for (; i < n; ++i) {
    for (std::size_t k = 0; k < K; ++k) {
      out[k] += {a[i] != b[k][i], (a[i] | b[k][i]) != 0};
    }
  }
  return out;
}

template std::array<PairTally, 1> count_u4_avx2<1>(
    const std::uint8_t*, std::array<const std::uint8_t*, 1>, std::size_t);
template std::array<PairTally, 2> count_u4_avx2<2>(
    const std::uint8_t*, std::array<const std::uint8_t*, 2>, std::size_t);
template std::array<PairTally, 1> count_avx2<std::uint8_t, 1>(
    const std::uint8_t*, std::array<const std::uint8_t*, 1>, std::size_t);
template std::array<PairTally, 2> count_avx2<std::uint8_t, 2>(
    const std::uint8_t*, std::array<const std::uint8_t*, 2>, std::size_t);
template std::array<PairTally, 1> count_avx2<std::uint16_t, 1>(
    const std::uint16_t*, std::array<const std::uint16_t*, 1>, std::size_t);
template std::array<PairTally, 2> count_avx2<std::uint16_t, 2>(
    const std::uint16_t*, std::array<const std::uint16_t*, 2>, std::size_t);
template std::array<PairTally, 1> count_avx2<std::uint32_t, 1>(
    const std::uint32_t*, std::array<const std::uint32_t*, 1>, std::size_t);
template std::array<PairTally, 2> count_avx2<std::uint32_t, 2>(
    const std::uint32_t*, std::array<const std::uint32_t*, 2>, std::size_t);

namespace {

template <typename T>
inline void push_entry(std::vector<DeltaEntry>& out, std::size_t index,
                       T before, T after) {
  out.push_back({static_cast<std::uint32_t>(index),
                 static_cast<SiteId>(before), static_cast<SiteId>(after)});
}

/// Pushes the differing elements of byte @p t of two 4-bit rows of @p n
/// elements, low nibble first.
inline void push_nibbles(std::vector<DeltaEntry>& out, const std::uint8_t* a,
                         const std::uint8_t* b, std::size_t t, std::size_t n) {
  const unsigned x = a[t];
  const unsigned y = b[t];
  if (((x ^ y) & 0xFu) != 0) push_entry(out, 2 * t, x & 0xFu, y & 0xFu);
  if (((x ^ y) >> 4) != 0 && 2 * t + 1 < n) {
    push_entry(out, 2 * t + 1, x >> 4, y >> 4);
  }
}

}  // namespace

void delta_u4_avx2(const std::uint8_t* a, const std::uint8_t* b, std::size_t n,
                   std::vector<DeltaEntry>& out) {
  const std::size_t bytes = packed_row_bytes(n, 4);
  std::size_t t = 0;
  for (; t + 32 <= bytes; t += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + t));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + t));
    std::uint32_t neq = ~static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)));
    while (neq != 0) {
      const unsigned j = static_cast<unsigned>(__builtin_ctz(neq));
      neq &= neq - 1;
      push_nibbles(out, a, b, t + j, n);
    }
  }
  for (; t < bytes; ++t) {
    if (a[t] != b[t]) push_nibbles(out, a, b, t, n);
  }
}

void delta_u8_avx2(const std::uint8_t* a, const std::uint8_t* b, std::size_t n,
                   std::vector<DeltaEntry>& out) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    std::uint32_t neq = ~static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)));
    while (neq != 0) {
      const unsigned j = static_cast<unsigned>(__builtin_ctz(neq));
      neq &= neq - 1;
      push_entry(out, i + j, a[i + j], b[i + j]);
    }
  }
  for (; i < n; ++i) {
    if (a[i] != b[i]) push_entry(out, i, a[i], b[i]);
  }
}

void delta_u16_avx2(const std::uint16_t* a, const std::uint16_t* b,
                    std::size_t n, std::vector<DeltaEntry>& out) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    // Each u16 lane owns two movemask bits; keep the even one so each
    // mismatch contributes exactly one set bit at position 2*lane.
    std::uint32_t neq = ~static_cast<std::uint32_t>(_mm256_movemask_epi8(
                            _mm256_cmpeq_epi16(va, vb))) &
                        0x55555555u;
    while (neq != 0) {
      const unsigned j = static_cast<unsigned>(__builtin_ctz(neq)) >> 1;
      neq &= neq - 1;
      push_entry(out, i + j, a[i + j], b[i + j]);
    }
  }
  for (; i < n; ++i) {
    if (a[i] != b[i]) push_entry(out, i, a[i], b[i]);
  }
}

void delta_u32_avx2(const std::uint32_t* a, const std::uint32_t* b,
                    std::size_t n, std::vector<DeltaEntry>& out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    std::uint32_t neq = ~static_cast<std::uint32_t>(_mm256_movemask_ps(
                            _mm256_castsi256_ps(
                                _mm256_cmpeq_epi32(va, vb)))) &
                        0xFFu;
    while (neq != 0) {
      const unsigned j = static_cast<unsigned>(__builtin_ctz(neq));
      neq &= neq - 1;
      push_entry(out, i + j, a[i + j], b[i + j]);
    }
  }
  for (; i < n; ++i) {
    if (a[i] != b[i]) push_entry(out, i, a[i], b[i]);
  }
}

// The narrowing packs use saturating pack instructions, which are exact
// whenever the row fits the width; a row that does not comes back with
// its largest id, and PackedSeries::append packs it again wider. Every
// load also folds into a running unsigned max, so the width decision
// costs no second pass. packus interleaves 128-bit lanes, so a
// cross-lane permute restores element order.
namespace {

/// The largest of @p v's eight u32 lanes.
inline SiteId hmax_epu32(__m256i v) {
  const __m128i h = _mm_max_epu32(_mm256_castsi256_si128(v),
                                  _mm256_extracti128_si256(v, 1));
  const __m128i h2 = _mm_max_epu32(h, _mm_srli_si128(h, 8));
  const __m128i h3 = _mm_max_epu32(h2, _mm_srli_si128(h2, 4));
  return static_cast<SiteId>(_mm_cvtsi128_si32(h3));
}

/// Elements src[0..32) as 32 ordered bytes, folded into @p top.
inline __m256i narrow32_u8(const SiteId* src, __m256i& top) {
  const __m256i perm = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
  const __m256i b =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + 8));
  const __m256i c =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + 16));
  const __m256i d =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + 24));
  top = _mm256_max_epu32(top, _mm256_max_epu32(_mm256_max_epu32(a, b),
                                               _mm256_max_epu32(c, d)));
  const __m256i ab = _mm256_packus_epi32(a, b);
  const __m256i cd = _mm256_packus_epi32(c, d);
  return _mm256_permutevar8x32_epi32(_mm256_packus_epi16(ab, cd), perm);
}

/// 32 ordered element bytes as 16 words, each holding its pair's
/// packed byte: w | w >> 4 lifts the odd element into bits 4..7.
inline __m256i pair_nibbles(__m256i bytes) {
  return _mm256_and_si256(
      _mm256_or_si256(bytes, _mm256_srli_epi16(bytes, 4)),
      _mm256_set1_epi16(0x00FF));
}

}  // namespace

SiteId pack_u4_avx2(const SiteId* src, std::uint8_t* dst, std::size_t n) {
  __m256i top = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m256i packed =
        _mm256_packus_epi16(pair_nibbles(narrow32_u8(src + i, top)),
                            pair_nibbles(narrow32_u8(src + i + 32, top)));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i / 2),
        _mm256_permute4x64_epi64(packed, _MM_SHUFFLE(3, 1, 2, 0)));
  }
  return std::max(hmax_epu32(top),
                  pack_u4_scalar(src + i, dst + i / 2, n - i));
}

SiteId pack_u8_avx2(const SiteId* src, std::uint8_t* dst, std::size_t n) {
  __m256i top = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        narrow32_u8(src + i, top));
  }
  return std::max(hmax_epu32(top), pack_u8_scalar(src + i, dst + i, n - i));
}

SiteId pack_u16_avx2(const SiteId* src, std::uint16_t* dst, std::size_t n) {
  __m256i top = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 8));
    top = _mm256_max_epu32(top, _mm256_max_epu32(a, b));
    const __m256i ab = _mm256_packus_epi32(a, b);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_permute4x64_epi64(ab, _MM_SHUFFLE(3, 1, 2, 0)));
  }
  return std::max(hmax_epu32(top),
                  pack_u16_scalar(src + i, dst + i, n - i));
}

}  // namespace fenrir::core::simd

#endif  // FENRIR_BUILD_AVX2 && __AVX2__
