// AVX-512 tier of the Φ kernels (see simd_dispatch.h). Compiled with
// -mavx512f -mavx512bw in its own TU; dispatch lands here only after
// the runtime check for avx512f+bw passed.
//
// Unlike the AVX2 tier's byte-mask accumulators, AVX-512 compares
// straight into mask registers. A pass tallies row a against one or two
// columns, loading each row's block once: test(a^b) gives the lanes
// that differ and test(a|b) those known on either side, each counted
// with scalar popcount; each block is loaded once (in_register). Tails
// use maskz loads, so every element — including the last partial
// vector — rides the same lanes and there is no scalar remainder loop;
// masked-off lanes load as zero on both sides and count in neither
// mask. All counts are exact integers — Φ is bit-identical by
// construction.
//
// 4-bit rows are never unpacked: a nibble's predicates are byte-lane
// tests of a^b and a|b against 0x0F (low nibble) or 0xF0 (high nibble),
// so one 64-byte load carries 128 elements through four tests. Each
// test's mask adds 1 to its byte lanes in a counter vector (a masked
// byte add, in place of a kmov and a popcount per mask), and the
// counters drain through vpsadbw every 255 blocks.
#include "core/simd_dispatch.h"

#if defined(FENRIR_BUILD_AVX512) && defined(__AVX512F__) && \
    defined(__AVX512BW__)

// GCC 12 warns that '__Y' may be used uninitialized inside
// avx512fintrin.h (the undefined-vector idiom behind the reductions,
// extracts and masked gathers); the warnings are located in the header,
// so silencing them here leaves -Wall -Wextra on this file's own lines.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include <algorithm>
#include <array>

namespace fenrir::core::simd {

namespace {

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

inline std::uint64_t popcount(std::uint64_t m) {
  return static_cast<std::uint64_t>(__builtin_popcountll(m));
}

/// @p v, held in a register. Left alone, the compiler folds a block's
/// load into each instruction that reads it (it rewrites a | (a ^ b) as
/// a | b to do so), and packed rows start at any 16-byte offset, so each
/// extra load of a block split across two cache lines costs a split
/// load: ~15% on a one-column u8 pass.
inline __m512i in_register(__m512i v) {
  asm("" : "+v"(v));
  return v;
}

/// The sum of @p v's eight u64 lanes.
inline std::uint64_t hsum_epi64(__m512i v) {
  alignas(64) std::uint64_t lanes[8];
  _mm512_store_si512(lanes, v);
  std::uint64_t sum = 0;
  for (const std::uint64_t x : lanes) sum += x;
  return sum;
}

}  // namespace

template <std::size_t K>
std::array<PairTally, K> count_u4_avx512(const std::uint8_t* a,
                                         std::array<const std::uint8_t*, K> b,
                                         std::size_t n) {
  const __m512i lo = _mm512_set1_epi8(0x0F);
  const __m512i hi = _mm512_set1_epi8(static_cast<char>(0xF0));
  const __m512i one = _mm512_set1_epi8(1);
  const __m512i zero = _mm512_setzero_si512();
  // Adds 1 to the byte lanes of @p acc where @p v's nibble under @p half
  // is nonzero.
  const auto add_nonzero = [&](__m512i acc, __m512i v, __m512i half) {
    return _mm512_mask_add_epi8(acc, _mm512_test_epi8_mask(v, half), acc, one);
  };
  __m512i dsum[K], esum[K];  // u64 lanes
  for (std::size_t k = 0; k < K; ++k) dsum[k] = esum[k] = zero;
  const std::size_t full = n / 2;
  std::size_t i = 0;
  while (i + 64 <= full) {
    // One byte counter per mask: a lane gains at most 1 per block, so
    // the counters drain through vpsadbw before 256 blocks could wrap
    // them. (Two counters, each taking both nibbles' masks, chain two
    // masked adds per block; in a tile loop on an AVX-512 Xeon that ran
    // 15% slower for one column.)
    const std::size_t blocks = std::min<std::size_t>((full - i) / 64, 255);
    __m512i dlo[K], dhi[K], elo[K], ehi[K];
    for (std::size_t k = 0; k < K; ++k) {
      dlo[k] = dhi[k] = elo[k] = ehi[k] = zero;
    }
    for (std::size_t t = 0; t < blocks; ++t, i += 64) {
      const __m512i va = in_register(_mm512_loadu_si512(a + i));
#pragma GCC unroll 2
      for (std::size_t k = 0; k < K; ++k) {
        const __m512i vb = in_register(_mm512_loadu_si512(b[k] + i));
        const __m512i x = _mm512_xor_si512(va, vb);
        const __m512i o = _mm512_or_si512(va, vb);
        dlo[k] = add_nonzero(dlo[k], x, lo);
        dhi[k] = add_nonzero(dhi[k], x, hi);
        elo[k] = add_nonzero(elo[k], o, lo);
        ehi[k] = add_nonzero(ehi[k], o, hi);
      }
    }
    for (std::size_t k = 0; k < K; ++k) {
      dsum[k] = _mm512_add_epi64(
          dsum[k], _mm512_add_epi64(_mm512_sad_epu8(dlo[k], zero),
                                    _mm512_sad_epu8(dhi[k], zero)));
      esum[k] = _mm512_add_epi64(
          esum[k], _mm512_add_epi64(_mm512_sad_epu8(elo[k], zero),
                                    _mm512_sad_epu8(ehi[k], zero)));
    }
  }
  std::array<PairTally, K> out;
  for (std::size_t k = 0; k < K; ++k) {
    out[k] = {hsum_epi64(dsum[k]), hsum_epi64(esum[k])};
  }
  // The tail block: masked loads zero the bytes past the row, and
  // hi_valid drops an odd row's padding nibble.
  std::uint64_t hi_valid = 0;
  if (const std::uint64_t m = u4_tail_mask(n, i, hi_valid); m != 0) {
    const __m512i va = _mm512_maskz_loadu_epi8(m, a + i);
    for (std::size_t k = 0; k < K; ++k) {
      const __m512i vb = _mm512_maskz_loadu_epi8(m, b[k] + i);
      const __m512i x = _mm512_xor_si512(va, vb);
      const __m512i o = _mm512_or_si512(va, vb);
      out[k] += {popcount(_mm512_test_epi8_mask(x, lo)) +
                     popcount(_mm512_mask_test_epi8_mask(hi_valid, x, hi)),
                 popcount(_mm512_test_epi8_mask(o, lo)) +
                     popcount(_mm512_mask_test_epi8_mask(hi_valid, o, hi))};
    }
  }
  return out;
}

namespace {

// Per-width lane operations of the 8/16/32-bit count kernels: a block
// of 64 bytes, its lane mask type, masked loads and the nonzero-lane
// test both predicates use (on a^b and on a|b).
template <typename T>
struct Lanes;

template <>
struct Lanes<std::uint8_t> {
  using Mask = __mmask64;
  static constexpr std::size_t kCount = 64;
  static __m512i load(Mask m, const std::uint8_t* p) {
    return _mm512_maskz_loadu_epi8(m, p);
  }
  static Mask nonzero(__m512i v) { return _mm512_test_epi8_mask(v, v); }
};

template <>
struct Lanes<std::uint16_t> {
  using Mask = __mmask32;
  static constexpr std::size_t kCount = 32;
  static __m512i load(Mask m, const std::uint16_t* p) {
    return _mm512_maskz_loadu_epi16(m, p);
  }
  static Mask nonzero(__m512i v) { return _mm512_test_epi16_mask(v, v); }
};

template <>
struct Lanes<std::uint32_t> {
  using Mask = __mmask16;
  static constexpr std::size_t kCount = 16;
  static __m512i load(Mask m, const std::uint32_t* p) {
    return _mm512_maskz_loadu_epi32(m, p);
  }
  static Mask nonzero(__m512i v) { return _mm512_test_epi32_mask(v, v); }
};

}  // namespace

template <typename T, std::size_t K>
std::array<PairTally, K> count_avx512(const T* a, std::array<const T*, K> b,
                                      std::size_t n) {
  using L = Lanes<T>;
  // Local sums: the result array is the caller's memory, which a store
  // per block would chain through.
  std::uint64_t d[K] = {}, e[K] = {};
  // One block at element @p i, its vectors read through @p load.
  const auto block = [&](const auto& load, std::size_t i) {
    const __m512i va = in_register(load(a + i));
#pragma GCC unroll 2
    for (std::size_t k = 0; k < K; ++k) {
      const __m512i vb = in_register(load(b[k] + i));
      d[k] += popcount(L::nonzero(_mm512_xor_si512(va, vb)));
      e[k] += popcount(L::nonzero(_mm512_or_si512(va, vb)));
    }
  };
  std::size_t i = 0;
  for (; i + L::kCount <= n; i += L::kCount) {
    block([](const T* p) { return _mm512_loadu_si512(p); }, i);
  }
  // The tail's masked-off lanes load as zero on both sides, so they
  // neither differ nor are known.
  if (const std::size_t rem = n - i; rem != 0) {
    const auto m =
        static_cast<typename L::Mask>((~std::uint64_t{0}) >> (64 - rem));
    block([m](const T* p) { return L::load(m, p); }, i);
  }
  std::array<PairTally, K> out;
  for (std::size_t k = 0; k < K; ++k) out[k] = {d[k], e[k]};
  return out;
}

template std::array<PairTally, 1> count_u4_avx512<1>(
    const std::uint8_t*, std::array<const std::uint8_t*, 1>, std::size_t);
template std::array<PairTally, 2> count_u4_avx512<2>(
    const std::uint8_t*, std::array<const std::uint8_t*, 2>, std::size_t);
template std::array<PairTally, 1> count_avx512<std::uint8_t, 1>(
    const std::uint8_t*, std::array<const std::uint8_t*, 1>, std::size_t);
template std::array<PairTally, 2> count_avx512<std::uint8_t, 2>(
    const std::uint8_t*, std::array<const std::uint8_t*, 2>, std::size_t);
template std::array<PairTally, 1> count_avx512<std::uint16_t, 1>(
    const std::uint16_t*, std::array<const std::uint16_t*, 1>, std::size_t);
template std::array<PairTally, 2> count_avx512<std::uint16_t, 2>(
    const std::uint16_t*, std::array<const std::uint16_t*, 2>, std::size_t);
template std::array<PairTally, 1> count_avx512<std::uint32_t, 1>(
    const std::uint32_t*, std::array<const std::uint32_t*, 1>, std::size_t);
template std::array<PairTally, 2> count_avx512<std::uint32_t, 2>(
    const std::uint32_t*, std::array<const std::uint32_t*, 2>, std::size_t);

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
