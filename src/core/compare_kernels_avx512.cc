// AVX-512 tier of the Φ kernels (see simd_dispatch.h). Compiled with
// -mavx512f -mavx512bw in its own TU; dispatch lands here only after
// the runtime check for avx512f+bw passed.
//
// Unlike the AVX2 tier's byte-mask accumulators, AVX-512 compares
// straight into mask registers: one cmp per predicate, two popcounts
// per 512-bit chunk, no drain bookkeeping. Tails use maskz loads, so
// every element — including the last partial vector — rides the same
// lanes and there is no scalar remainder loop. Masked-off lanes load as
// zero and are killed by the a!=0 predicate, exactly like the scalar
// oracle's unknown handling. All counts are exact integers — Φ is
// bit-identical by construction.
//
// 4-bit rows are never unpacked: a nibble's predicates are byte-lane
// tests against 0x0F (low nibble) or 0xF0 (high nibble), so one 64-byte
// load carries 128 elements through the same mask arithmetic.
#include "core/simd_dispatch.h"

#if defined(FENRIR_BUILD_AVX512) && defined(__AVX512F__) && \
    defined(__AVX512BW__)

#include <immintrin.h>

namespace fenrir::core::simd {

namespace {

/// The 4-bit counts of one 64-byte block. @p hi_valid drops the high
/// nibble of an odd row's last byte, which is not an element.
inline void count_u4_block(__m512i va, __m512i vb, std::uint64_t hi_valid,
                           std::uint64_t& matches, std::uint64_t& known) {
  const __m512i lo = _mm512_set1_epi8(0x0F);
  const __m512i hi = _mm512_set1_epi8(static_cast<char>(0xF0));
  const __m512i x = _mm512_xor_si512(va, vb);
  const std::uint64_t lo_ne = _mm512_test_epi8_mask(x, lo);
  const std::uint64_t hi_ne = _mm512_test_epi8_mask(x, hi);
  const std::uint64_t a_lo = _mm512_test_epi8_mask(va, lo);
  const std::uint64_t a_hi = _mm512_test_epi8_mask(va, hi) & hi_valid;
  const std::uint64_t b_lo = _mm512_test_epi8_mask(vb, lo);
  const std::uint64_t b_hi = _mm512_test_epi8_mask(vb, hi);
  // match: a's nibble known and equal to b's (so b's is known too).
  matches += static_cast<std::uint64_t>(__builtin_popcountll(a_lo & ~lo_ne)) +
             static_cast<std::uint64_t>(__builtin_popcountll(a_hi & ~hi_ne));
  known += static_cast<std::uint64_t>(__builtin_popcountll(a_lo & b_lo)) +
           static_cast<std::uint64_t>(__builtin_popcountll(a_hi & b_hi));
}

/// The load mask of the tail block at byte @p i of a row of @p n 4-bit
/// elements (bytes [i, packed_row_bytes(n, 4))); @p hi_valid gets the
/// same mask less an odd row's last byte, whose high nibble is padding.
inline std::uint64_t u4_tail_mask(std::size_t n, std::size_t i,
                                  std::uint64_t& hi_valid) {
  const std::size_t rem = packed_row_bytes(n, 4) - i;
  const std::uint64_t m = rem == 0 ? 0 : (~std::uint64_t{0}) >> (64 - rem);
  hi_valid = n % 2 != 0 ? m >> 1 : m;
  return m;
}

}  // namespace

MatchCounts count_u4_avx512(const std::uint8_t* a, const std::uint8_t* b,
                            std::size_t n) {
  std::uint64_t matches = 0, known = 0;
  const std::size_t full = n / 2;
  std::size_t i = 0;
  for (; i + 64 <= full; i += 64) {
    count_u4_block(_mm512_loadu_si512(a + i), _mm512_loadu_si512(b + i),
                   ~std::uint64_t{0}, matches, known);
  }
  std::uint64_t hi_valid = 0;
  if (const std::uint64_t m = u4_tail_mask(n, i, hi_valid); m != 0) {
    count_u4_block(_mm512_maskz_loadu_epi8(m, a + i),
                   _mm512_maskz_loadu_epi8(m, b + i), hi_valid, matches,
                   known);
  }
  return {matches, known};
}

MatchCounts count_u8_avx512(const std::uint8_t* a, const std::uint8_t* b,
                            std::size_t n) {
  MatchCounts out;
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    const __mmask64 eq = _mm512_cmpeq_epu8_mask(va, vb);
    const __mmask64 an = _mm512_test_epi8_mask(va, va);  // a != 0
    const __mmask64 bn = _mm512_test_epi8_mask(vb, vb);
    out.matches += static_cast<std::uint64_t>(__builtin_popcountll(eq & an));
    out.mutual_known +=
        static_cast<std::uint64_t>(__builtin_popcountll(an & bn));
  }
  if (const std::size_t rem = n - i; rem != 0) {
    const __mmask64 m = (~std::uint64_t{0}) >> (64 - rem);
    const __m512i va = _mm512_maskz_loadu_epi8(m, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi8(m, b + i);
    const __mmask64 eq = _mm512_cmpeq_epu8_mask(va, vb);
    const __mmask64 an = _mm512_test_epi8_mask(va, va);
    const __mmask64 bn = _mm512_test_epi8_mask(vb, vb);
    out.matches += static_cast<std::uint64_t>(__builtin_popcountll(eq & an));
    out.mutual_known +=
        static_cast<std::uint64_t>(__builtin_popcountll(an & bn));
  }
  return out;
}

MatchCounts count_u16_avx512(const std::uint16_t* a, const std::uint16_t* b,
                             std::size_t n) {
  MatchCounts out;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    const __mmask32 eq = _mm512_cmpeq_epu16_mask(va, vb);
    const __mmask32 an = _mm512_test_epi16_mask(va, va);
    const __mmask32 bn = _mm512_test_epi16_mask(vb, vb);
    out.matches += static_cast<std::uint64_t>(__builtin_popcount(eq & an));
    out.mutual_known +=
        static_cast<std::uint64_t>(__builtin_popcount(an & bn));
  }
  if (const std::size_t rem = n - i; rem != 0) {
    const __mmask32 m = (~std::uint32_t{0}) >> (32 - rem);
    const __m512i va = _mm512_maskz_loadu_epi16(m, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi16(m, b + i);
    const __mmask32 eq = _mm512_cmpeq_epu16_mask(va, vb);
    const __mmask32 an = _mm512_test_epi16_mask(va, va);
    const __mmask32 bn = _mm512_test_epi16_mask(vb, vb);
    out.matches += static_cast<std::uint64_t>(__builtin_popcount(eq & an));
    out.mutual_known +=
        static_cast<std::uint64_t>(__builtin_popcount(an & bn));
  }
  return out;
}

MatchCounts count_u32_avx512(const std::uint32_t* a, const std::uint32_t* b,
                             std::size_t n) {
  MatchCounts out;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    const __mmask16 eq = _mm512_cmpeq_epu32_mask(va, vb);
    const __mmask16 an = _mm512_test_epi32_mask(va, va);
    const __mmask16 bn = _mm512_test_epi32_mask(vb, vb);
    out.matches += static_cast<std::uint64_t>(
        __builtin_popcount(static_cast<unsigned>(eq & an)));
    out.mutual_known += static_cast<std::uint64_t>(
        __builtin_popcount(static_cast<unsigned>(an & bn)));
  }
  if (const std::size_t rem = n - i; rem != 0) {
    const __mmask16 m =
        static_cast<__mmask16>((1u << rem) - 1u);
    const __m512i va = _mm512_maskz_loadu_epi32(m, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi32(m, b + i);
    const __mmask16 eq = _mm512_cmpeq_epu32_mask(va, vb);
    const __mmask16 an = _mm512_test_epi32_mask(va, va);
    const __mmask16 bn = _mm512_test_epi32_mask(vb, vb);
    out.matches += static_cast<std::uint64_t>(
        __builtin_popcount(static_cast<unsigned>(eq & an)));
    out.mutual_known += static_cast<std::uint64_t>(
        __builtin_popcount(static_cast<unsigned>(an & bn)));
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

/// Pushes the differing elements of the bytes set in @p lo_ne | @p hi_ne
/// (a block starting at byte @p i), low nibble before high, so the
/// change-set stays sorted.
inline void push_nibbles(std::vector<DeltaEntry>& out, const std::uint8_t* a,
                         const std::uint8_t* b, std::size_t i,
                         std::uint64_t lo_ne, std::uint64_t hi_ne) {
  std::uint64_t any = lo_ne | hi_ne;
  while (any != 0) {
    const unsigned j = static_cast<unsigned>(__builtin_ctzll(any));
    any &= any - 1;
    const unsigned x = a[i + j];
    const unsigned y = b[i + j];
    const std::size_t e = 2 * (i + j);
    if (((lo_ne >> j) & 1) != 0) push_entry(out, e, x & 0xFu, y & 0xFu);
    if (((hi_ne >> j) & 1) != 0) push_entry(out, e + 1, x >> 4, y >> 4);
  }
}

}  // namespace

void delta_u4_avx512(const std::uint8_t* a, const std::uint8_t* b,
                     std::size_t n, std::vector<DeltaEntry>& out) {
  const __m512i lo = _mm512_set1_epi8(0x0F);
  const __m512i hi = _mm512_set1_epi8(static_cast<char>(0xF0));
  const std::size_t full = n / 2;
  std::size_t i = 0;
  for (; i + 64 <= full; i += 64) {
    const __m512i x = _mm512_xor_si512(_mm512_loadu_si512(a + i),
                                       _mm512_loadu_si512(b + i));
    const std::uint64_t lo_ne = _mm512_test_epi8_mask(x, lo);
    const std::uint64_t hi_ne = _mm512_test_epi8_mask(x, hi);
    if ((lo_ne | hi_ne) != 0) push_nibbles(out, a, b, i, lo_ne, hi_ne);
  }
  std::uint64_t hi_valid = 0;
  if (const std::uint64_t m = u4_tail_mask(n, i, hi_valid); m != 0) {
    const __m512i x = _mm512_xor_si512(_mm512_maskz_loadu_epi8(m, a + i),
                                       _mm512_maskz_loadu_epi8(m, b + i));
    const std::uint64_t lo_ne = _mm512_test_epi8_mask(x, lo);
    const std::uint64_t hi_ne = _mm512_test_epi8_mask(x, hi) & hi_valid;
    push_nibbles(out, a, b, i, lo_ne, hi_ne);
  }
}

void delta_u8_avx512(const std::uint8_t* a, const std::uint8_t* b,
                     std::size_t n, std::vector<DeltaEntry>& out) {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    std::uint64_t neq = _mm512_cmpneq_epu8_mask(va, vb);
    while (neq != 0) {
      const unsigned j = static_cast<unsigned>(__builtin_ctzll(neq));
      neq &= neq - 1;
      push_entry(out, i + j, a[i + j], b[i + j]);
    }
  }
  if (const std::size_t rem = n - i; rem != 0) {
    const __mmask64 m = (~std::uint64_t{0}) >> (64 - rem);
    const __m512i va = _mm512_maskz_loadu_epi8(m, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi8(m, b + i);
    std::uint64_t neq = _mm512_mask_cmpneq_epu8_mask(m, va, vb);
    while (neq != 0) {
      const unsigned j = static_cast<unsigned>(__builtin_ctzll(neq));
      neq &= neq - 1;
      push_entry(out, i + j, a[i + j], b[i + j]);
    }
  }
}

void delta_u16_avx512(const std::uint16_t* a, const std::uint16_t* b,
                      std::size_t n, std::vector<DeltaEntry>& out) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    std::uint32_t neq = _mm512_cmpneq_epu16_mask(va, vb);
    while (neq != 0) {
      const unsigned j = static_cast<unsigned>(__builtin_ctz(neq));
      neq &= neq - 1;
      push_entry(out, i + j, a[i + j], b[i + j]);
    }
  }
  if (const std::size_t rem = n - i; rem != 0) {
    const __mmask32 m = (~std::uint32_t{0}) >> (32 - rem);
    const __m512i va = _mm512_maskz_loadu_epi16(m, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi16(m, b + i);
    std::uint32_t neq = _mm512_mask_cmpneq_epu16_mask(m, va, vb);
    while (neq != 0) {
      const unsigned j = static_cast<unsigned>(__builtin_ctz(neq));
      neq &= neq - 1;
      push_entry(out, i + j, a[i + j], b[i + j]);
    }
  }
}

void delta_u32_avx512(const std::uint32_t* a, const std::uint32_t* b,
                      std::size_t n, std::vector<DeltaEntry>& out) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    std::uint32_t neq = _mm512_cmpneq_epu32_mask(va, vb);
    while (neq != 0) {
      const unsigned j = static_cast<unsigned>(__builtin_ctz(neq));
      neq &= neq - 1;
      push_entry(out, i + j, a[i + j], b[i + j]);
    }
  }
  if (const std::size_t rem = n - i; rem != 0) {
    const __mmask16 m = static_cast<__mmask16>((1u << rem) - 1u);
    const __m512i va = _mm512_maskz_loadu_epi32(m, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi32(m, b + i);
    std::uint32_t neq = _mm512_mask_cmpneq_epu32_mask(m, va, vb);
    while (neq != 0) {
      const unsigned j = static_cast<unsigned>(__builtin_ctz(neq));
      neq &= neq - 1;
      push_entry(out, i + j, a[i + j], b[i + j]);
    }
  }
}

// Every pack folds its loads into a running unsigned max — masked-off
// tail lanes load as 0, the identity of unsigned max — so the width
// decision costs no second pass over the row.
//
// pack_u4: two SiteIds as one u64 lane, e[2t] | e[2t+1] << 32: x | x >>
// 28 moves e[2t+1] into bits 4..7 (e[2t] ≤ 15 shifts out entirely) and
// vpmovqb keeps the low byte. A masked-off lane loads as 0, so an odd
// row's last high nibble comes out 0.
SiteId pack_u4_avx512(const SiteId* src, std::uint8_t* dst, std::size_t n) {
  __m512i top = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i v = _mm512_loadu_si512(src + i);
    top = _mm512_max_epu32(top, v);
    _mm_storel_epi64(
        reinterpret_cast<__m128i*>(dst + i / 2),
        _mm512_cvtepi64_epi8(_mm512_or_si512(v, _mm512_srli_epi64(v, 28))));
  }
  if (const std::size_t rem = n - i; rem != 0) {
    const __mmask16 m = static_cast<__mmask16>((1u << rem) - 1u);
    const __m512i v = _mm512_maskz_loadu_epi32(m, src + i);
    top = _mm512_max_epu32(top, v);
    const __mmask8 out = static_cast<__mmask8>((1u << ((rem + 1) / 2)) - 1u);
    _mm512_mask_cvtepi64_storeu_epi8(
        dst + i / 2, out, _mm512_or_si512(v, _mm512_srli_epi64(v, 28)));
  }
  return static_cast<SiteId>(_mm512_reduce_max_epu32(top));
}

// vpmovdb/vpmovdw truncate; the masked narrowing stores cover the tail
// with no scalar remainder.
SiteId pack_u8_avx512(const SiteId* src, std::uint8_t* dst, std::size_t n) {
  __m512i top = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i v = _mm512_loadu_si512(src + i);
    top = _mm512_max_epu32(top, v);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm512_cvtepi32_epi8(v));
  }
  if (const std::size_t rem = n - i; rem != 0) {
    const __mmask16 m = static_cast<__mmask16>((1u << rem) - 1u);
    const __m512i v = _mm512_maskz_loadu_epi32(m, src + i);
    top = _mm512_max_epu32(top, v);
    _mm512_mask_cvtepi32_storeu_epi8(dst + i, m, v);
  }
  return static_cast<SiteId>(_mm512_reduce_max_epu32(top));
}

SiteId pack_u16_avx512(const SiteId* src, std::uint16_t* dst, std::size_t n) {
  __m512i top = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i v = _mm512_loadu_si512(src + i);
    top = _mm512_max_epu32(top, v);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm512_cvtepi32_epi16(v));
  }
  if (const std::size_t rem = n - i; rem != 0) {
    const __mmask16 m = static_cast<__mmask16>((1u << rem) - 1u);
    const __m512i v = _mm512_maskz_loadu_epi32(m, src + i);
    top = _mm512_max_epu32(top, v);
    _mm512_mask_cvtepi32_storeu_epi16(dst + i, m, v);
  }
  return static_cast<SiteId>(_mm512_reduce_max_epu32(top));
}

namespace {

/// The 4-bit elements idx[t] names, for the lanes of @p m: each lane
/// loads the 4 bytes at row + idx[t] / 2, shifts the odd elements' high
/// nibble down and masks. Masked-off lanes touch no memory.
inline __m512i gather_nibbles(const std::uint8_t* row, __m512i vidx,
                              __mmask16 m) {
  const __m512i gathered = _mm512_mask_i32gather_epi32(
      _mm512_setzero_si512(), m, _mm512_srli_epi32(vidx, 1), row, 1);
  const __m512i shift =
      _mm512_slli_epi32(_mm512_and_si512(vidx, _mm512_set1_epi32(1)), 2);
  return _mm512_and_si512(_mm512_srlv_epi32(gathered, shift),
                          _mm512_set1_epi32(0xF));
}

/// How many of @p idx[0, n) gather: a lane whose byte lies in the row's
/// last 3 bytes would read past it. idx is sorted ascending, so those
/// lanes are a suffix, which the callers run scalar.
inline std::size_t u4_gather_count(const std::uint32_t* idx, std::size_t n,
                                   std::size_t row_len) {
  const std::size_t row_bytes = packed_row_bytes(row_len, 4);
  while (n > 0 && (idx[n - 1] >> 1) + 4 > row_bytes) --n;
  return n;
}

/// The lane mask for the 16-lane block at @p t of a run of @p n.
inline __mmask16 block_mask(std::size_t t, std::size_t n) {
  return n - t >= 16 ? __mmask16{0xFFFF}
                     : static_cast<__mmask16>((1u << (n - t)) - 1u);
}

}  // namespace

std::int64_t swap_patch_u4_avx512(const std::uint8_t* row,
                                  const std::uint32_t* idx,
                                  const SiteId* before, const SiteId* after,
                                  std::size_t n, std::size_t row_len) {
  const std::size_t n_gather = u4_gather_count(idx, n, row_len);
  std::int64_t d_matches = 0;
  std::size_t t = 0;
  for (; t < n_gather; t += 16) {
    const __mmask16 m = block_mask(t, n_gather);
    const __m512i b =
        gather_nibbles(row, _mm512_maskz_loadu_epi32(m, idx + t), m);
    const __mmask16 eq_after = _mm512_mask_cmpeq_epi32_mask(
        m, b, _mm512_maskz_loadu_epi32(m, after + t));
    const __mmask16 eq_before = _mm512_mask_cmpeq_epi32_mask(
        m, b, _mm512_maskz_loadu_epi32(m, before + t));
    d_matches += __builtin_popcount(static_cast<unsigned>(eq_after));
    d_matches -= __builtin_popcount(static_cast<unsigned>(eq_before));
  }
  const auto* r = reinterpret_cast<const std::byte*>(row);
  for (t = n_gather; t < n; ++t) {
    const SiteId b = packed_at<4>(r, idx[t]);
    d_matches += (after[t] == b);
    d_matches -= (before[t] == b);
  }
  return d_matches;
}

KnownPatchSums known_patch_u4_avx512(const std::uint8_t* row,
                                     const std::uint32_t* idx,
                                     const SiteId* value, std::size_t n,
                                     std::size_t row_len) {
  const std::size_t n_gather = u4_gather_count(idx, n, row_len);
  KnownPatchSums out;
  std::size_t t = 0;
  for (; t < n_gather; t += 16) {
    const __mmask16 m = block_mask(t, n_gather);
    const __m512i b =
        gather_nibbles(row, _mm512_maskz_loadu_epi32(m, idx + t), m);
    const __mmask16 eq = _mm512_mask_cmpeq_epi32_mask(
        m, b, _mm512_maskz_loadu_epi32(m, value + t));
    // Masked-off lanes gathered 0: they are never known.
    const __mmask16 known = _mm512_test_epi32_mask(b, b);
    out.equal += __builtin_popcount(static_cast<unsigned>(eq));
    out.known += __builtin_popcount(static_cast<unsigned>(known));
  }
  const auto* r = reinterpret_cast<const std::byte*>(row);
  for (t = n_gather; t < n; ++t) {
    const SiteId b = packed_at<4>(r, idx[t]);
    out.equal += (value[t] == b);
    out.known += (b != kUnknownSite);
  }
  return out;
}

std::int64_t swap_patch_u8_avx512(const std::uint8_t* row,
                                  const std::uint32_t* idx,
                                  const SiteId* before, const SiteId* after,
                                  std::size_t n, std::size_t row_len) {
  // Each gather lane loads the 4 bytes at row + idx[t] and keeps the low
  // byte (little-endian), so a lane whose index lands in the row's last 3
  // elements would read past the row. idx is sorted ascending — peel that
  // suffix off into the scalar tail instead of bounds-masking every lane.
  std::size_t n_gather = n;
  while (n_gather > 0 && idx[n_gather - 1] + 4 > row_len) --n_gather;

  std::int64_t d_matches = 0;
  const __m512i low_byte = _mm512_set1_epi32(0xFF);
  std::size_t t = 0;
  for (; t + 16 <= n_gather; t += 16) {
    const __m512i vidx = _mm512_loadu_si512(idx + t);
    const __m512i gathered = _mm512_i32gather_epi32(vidx, row, 1);
    const __m512i b = _mm512_and_si512(gathered, low_byte);
    const __mmask16 eq_after =
        _mm512_cmpeq_epi32_mask(b, _mm512_loadu_si512(after + t));
    const __mmask16 eq_before =
        _mm512_cmpeq_epi32_mask(b, _mm512_loadu_si512(before + t));
    d_matches += __builtin_popcount(static_cast<unsigned>(eq_after));
    d_matches -= __builtin_popcount(static_cast<unsigned>(eq_before));
  }
  if (t < n_gather) {
    const __mmask16 m =
        static_cast<__mmask16>((1u << (n_gather - t)) - 1u);
    const __m512i vidx = _mm512_maskz_loadu_epi32(m, idx + t);
    // Masked gather touches memory only on active lanes.
    const __m512i gathered = _mm512_mask_i32gather_epi32(
        _mm512_setzero_si512(), m, vidx, row, 1);
    const __m512i b = _mm512_and_si512(gathered, low_byte);
    const __mmask16 eq_after = _mm512_mask_cmpeq_epi32_mask(
        m, b, _mm512_maskz_loadu_epi32(m, after + t));
    const __mmask16 eq_before = _mm512_mask_cmpeq_epi32_mask(
        m, b, _mm512_maskz_loadu_epi32(m, before + t));
    d_matches += __builtin_popcount(static_cast<unsigned>(eq_after));
    d_matches -= __builtin_popcount(static_cast<unsigned>(eq_before));
    t = n_gather;
  }
  for (; t < n; ++t) {
    const SiteId b = row[idx[t]];
    d_matches += (after[t] == b);
    d_matches -= (before[t] == b);
  }
  return d_matches;
}

}  // namespace fenrir::core::simd

#endif  // FENRIR_BUILD_AVX512 && __AVX512F__ && __AVX512BW__
