// AVX2 tier of the Φ kernels (see simd_dispatch.h). Compiled with
// -mavx2 in its own TU so the rest of fenrir_core stays baseline-ISA;
// dispatch only lands here after __builtin_cpu_supports("avx2").
//
// The match kernels follow the classic byte-mask accumulation shape:
// pcmpeq produces 0xFF/0x00 lanes, subtracting the mask adds 0/1 per
// lane, and the per-lane accumulators are drained into wide sums before
// they can wrap (255 iterations for u8 via psadbw, 16k for u16 via
// pmaddwd, u32 lanes drain per block). Counts are exact integers, so Φ
// derived from them is bit-identical to the scalar oracle by
// construction — there is no float in sight. 4-bit rows stay packed:
// each nibble's predicates come from the byte lane masked with 0x0F or
// 0xF0, so a byte lane counts up to two elements per iteration.
#include "core/simd_dispatch.h"

#include <algorithm>

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

inline std::uint64_t hsum_epi32(__m256i v) {
  // Zero-extend the eight u32 lanes into u64 pairs before summing; the
  // lane values are block-bounded well below 2^32, so no wrap.
  const __m256i zero = _mm256_setzero_si256();
  const __m256i lo = _mm256_unpacklo_epi32(v, zero);
  const __m256i hi = _mm256_unpackhi_epi32(v, zero);
  return hsum_epi64(_mm256_add_epi64(lo, hi));
}

}  // namespace

MatchCounts count_u4_avx2(const std::uint8_t* a, const std::uint8_t* b,
                          std::size_t n) {
  MatchCounts out;
  const __m256i zero = _mm256_setzero_si256();
  const __m256i lo = _mm256_set1_epi8(0x0F);
  const __m256i hi = _mm256_set1_epi8(static_cast<char>(0xF0));
  // 0xFF where the nibble of @p v selected by @p half is zero.
  const auto zero_nibble = [&](__m256i v, __m256i half) {
    return _mm256_cmpeq_epi8(_mm256_and_si256(v, half), zero);
  };
  __m256i msum = zero, ksum = zero;  // u64 lanes
  const std::size_t full = n / 2;
  std::size_t i = 0;
  while (i + 32 <= full) {
    // Byte accumulators gain up to two counts per iteration (one per
    // nibble); drain via psadbw before 128 iterations could wrap them.
    const std::size_t iters = std::min<std::size_t>((full - i) / 32, 127);
    __m256i accm = zero, acck = zero;
    for (std::size_t t = 0; t < iters; ++t, i += 32) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
      const __m256i x = _mm256_xor_si256(va, vb);
      const __m256i az_lo = zero_nibble(va, lo);
      const __m256i az_hi = zero_nibble(va, hi);
      // match: the nibbles agree and a's is known.
      accm = _mm256_sub_epi8(accm,
                             _mm256_andnot_si256(az_lo, zero_nibble(x, lo)));
      accm = _mm256_sub_epi8(accm,
                             _mm256_andnot_si256(az_hi, zero_nibble(x, hi)));
      // known: 2 per lane, less one (0xFF) for each nibble that is
      // zero on either side.
      acck = _mm256_add_epi8(
          acck, _mm256_add_epi8(_mm256_or_si256(az_lo, zero_nibble(vb, lo)),
                                _mm256_or_si256(az_hi, zero_nibble(vb, hi))));
      acck = _mm256_add_epi8(acck, _mm256_set1_epi8(2));
    }
    msum = _mm256_add_epi64(msum, _mm256_sad_epu8(accm, zero));
    ksum = _mm256_add_epi64(ksum, _mm256_sad_epu8(acck, zero));
  }
  out.matches = hsum_epi64(msum);
  out.mutual_known = hsum_epi64(ksum);
  // The remaining bytes, and an odd row's last element, go through the
  // scalar oracle at their byte offset.
  const MatchCounts rest = count_u4_scalar(a + i, b + i, n - 2 * i);
  out.matches += rest.matches;
  out.mutual_known += rest.mutual_known;
  return out;
}

MatchCounts count_u8_avx2(const std::uint8_t* a, const std::uint8_t* b,
                          std::size_t n) {
  MatchCounts out;
  const __m256i zero = _mm256_setzero_si256();
  const __m256i ones = _mm256_set1_epi8(-1);
  __m256i msum = zero, ksum = zero;  // u64 lanes
  std::size_t i = 0;
  while (i + 32 <= n) {
    // Byte accumulators hold at most one count per iteration; drain via
    // psadbw before 256 iterations could wrap them.
    const std::size_t iters = std::min<std::size_t>((n - i) / 32, 255);
    __m256i accm = zero, acck = zero;
    for (std::size_t t = 0; t < iters; ++t, i += 32) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
      const __m256i eq = _mm256_cmpeq_epi8(va, vb);
      const __m256i az = _mm256_cmpeq_epi8(va, zero);  // a == unknown
      const __m256i bz = _mm256_cmpeq_epi8(vb, zero);
      // match: equal and a known (b known follows from equality).
      const __m256i match = _mm256_andnot_si256(az, eq);
      const __m256i known =
          _mm256_andnot_si256(az, _mm256_andnot_si256(bz, ones));
      accm = _mm256_sub_epi8(accm, match);
      acck = _mm256_sub_epi8(acck, known);
    }
    msum = _mm256_add_epi64(msum, _mm256_sad_epu8(accm, zero));
    ksum = _mm256_add_epi64(ksum, _mm256_sad_epu8(acck, zero));
  }
  out.matches = hsum_epi64(msum);
  out.mutual_known = hsum_epi64(ksum);
  for (; i < n; ++i) {
    out.matches += (a[i] == b[i]) & (a[i] != 0);
    out.mutual_known += (a[i] != 0) & (b[i] != 0);
  }
  return out;
}

MatchCounts count_u16_avx2(const std::uint16_t* a, const std::uint16_t* b,
                           std::size_t n) {
  MatchCounts out;
  const __m256i zero = _mm256_setzero_si256();
  const __m256i ones16 = _mm256_set1_epi16(1);
  const __m256i allset = _mm256_set1_epi16(-1);
  std::size_t i = 0;
  while (i + 16 <= n) {
    // Word accumulators: one count per iteration, pmaddwd-drained well
    // before 2^15 iterations (the madd operands are signed).
    const std::size_t iters = std::min<std::size_t>((n - i) / 16, 16'000);
    __m256i accm = zero, acck = zero;
    for (std::size_t t = 0; t < iters; ++t, i += 16) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
      const __m256i eq = _mm256_cmpeq_epi16(va, vb);
      const __m256i az = _mm256_cmpeq_epi16(va, zero);
      const __m256i bz = _mm256_cmpeq_epi16(vb, zero);
      const __m256i match = _mm256_andnot_si256(az, eq);
      const __m256i known =
          _mm256_andnot_si256(az, _mm256_andnot_si256(bz, allset));
      accm = _mm256_sub_epi16(accm, match);
      acck = _mm256_sub_epi16(acck, known);
    }
    out.matches += hsum_epi32(_mm256_madd_epi16(accm, ones16));
    out.mutual_known += hsum_epi32(_mm256_madd_epi16(acck, ones16));
  }
  for (; i < n; ++i) {
    out.matches += (a[i] == b[i]) & (a[i] != 0);
    out.mutual_known += (a[i] != 0) & (b[i] != 0);
  }
  return out;
}

MatchCounts count_u32_avx2(const std::uint32_t* a, const std::uint32_t* b,
                           std::size_t n) {
  MatchCounts out;
  const __m256i zero = _mm256_setzero_si256();
  const __m256i allset = _mm256_set1_epi32(-1);
  std::size_t i = 0;
  while (i + 8 <= n) {
    // Dword accumulators: drain per block long before u32 wrap.
    const std::size_t iters = std::min<std::size_t>((n - i) / 8, 1u << 24);
    __m256i accm = zero, acck = zero;
    for (std::size_t t = 0; t < iters; ++t, i += 8) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
      const __m256i eq = _mm256_cmpeq_epi32(va, vb);
      const __m256i az = _mm256_cmpeq_epi32(va, zero);
      const __m256i bz = _mm256_cmpeq_epi32(vb, zero);
      const __m256i match = _mm256_andnot_si256(az, eq);
      const __m256i known =
          _mm256_andnot_si256(az, _mm256_andnot_si256(bz, allset));
      accm = _mm256_sub_epi32(accm, match);
      acck = _mm256_sub_epi32(acck, known);
    }
    out.matches += hsum_epi32(accm);
    out.mutual_known += hsum_epi32(acck);
  }
  for (; i < n; ++i) {
    out.matches += (a[i] == b[i]) & (a[i] != 0);
    out.mutual_known += (a[i] != 0) & (b[i] != 0);
  }
  return out;
}

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
