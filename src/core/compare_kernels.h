// fenrir::core — packed similarity kernels: the integer core of Φ.
//
// gower_similarity() is exact but scalar: one branchy comparison per
// network, on 4-byte SiteIds. At production scale (millions of networks,
// hundreds of observations) the all-pairs matrix does T²·N of those, and
// the paper's own thesis — routing *recurs*, consecutive vectors differ
// in a tiny fraction of networks — still costs every pair a pass. This
// header supplies the two fast layers the SimilarityMatrix builds on:
//
//  * PackedSeries — rows narrowed to the smallest element width that
//    holds every SiteId seen: 4 bits for ids ≤ 15 (two to a byte), 8
//    below 256, 16 below 64k, 32 otherwise. A packed row is 8×–1×
//    denser than the RoutingVector it came from, so the match kernels
//    stream up to 8× more networks per cache line.
//  * count kernels — blocked, branchless mask-accumulation loops
//    producing a PairTally: how many networks differ and how many are
//    known on either side. With each row's known count cached beside
//    it, a tally gives the pair's MatchCounts exactly — how many
//    networks match (both known, equal) and how many are mutually known
//    (match_counts). Both UnknownPolicy variants of Φ are pure functions
//    of those two integers (phi_from_counts), so any kernel that
//    reproduces the tally reproduces Φ *bit-identically* — the
//    determinism contract the property tests enforce.
//
// Weighted Φ accumulates doubles, where reordering changes the result
// bits. The weighted kernel therefore keeps the reference's in-order
// single accumulator and is branchless-select only (no SIMD reduction)
// — still bit-identical, still faster than the branchy scalar loop on
// unpredictable data.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "core/compare.h"
#include "core/vector.h"

namespace fenrir::io {
class SegmentCodec;  // segment-store persistence (io/segment_store.h)
}  // namespace fenrir::io

namespace fenrir::core {

/// The integer core of unweighted Φ between two rows.
struct MatchCounts {
  std::uint64_t matches = 0;       // both known and equal
  std::uint64_t mutual_known = 0;  // both sides != kUnknownSite
};

/// What one pass over rows a and b counts. An element is unknown when
/// it is 0 (kUnknownSite), so with known(r) = either(r, r):
///   matches      = either − differ
///   mutual_known = known(a) + known(b) − either
/// and differ is the size of the change set between the rows. A 4-bit
/// pass tests a^b and a|b against 0x0F and 0xF0: four nibble tests per
/// byte where matches and mutual_known directly take six.
struct PairTally {
  std::uint64_t differ = 0;  // a ≠ b
  std::uint64_t either = 0;  // a ≠ 0 or b ≠ 0

  PairTally& operator+=(const PairTally& o) {
    differ += o.differ;
    either += o.either;
    return *this;
  }
};

/// A pair's MatchCounts from its tally and the two rows' known counts:
/// exact integer arithmetic, so Φ from them is the reference's.
inline MatchCounts match_counts(const PairTally& t, std::uint64_t known_a,
                                std::uint64_t known_b) {
  return {t.either - t.differ, known_a + known_b - t.either};
}

/// The double core of weighted Φ (matched / denom, 0 if denom <= 0).
struct WeightedCounts {
  double matched = 0.0;
  double denom = 0.0;
};

/// Φ from integer counts — exactly compare.cc's divisions, so a kernel
/// producing the reference's counts produces the reference's bits.
inline double phi_from_counts(const MatchCounts& c, std::size_t n,
                              UnknownPolicy policy) {
  if (policy == UnknownPolicy::kPessimistic) {
    if (n == 0) return 0.0;
    return static_cast<double>(c.matches) / static_cast<double>(n);
  }
  if (c.mutual_known == 0) return 0.0;
  return static_cast<double>(c.matches) / static_cast<double>(c.mutual_known);
}

inline double phi_from_weighted(const WeightedCounts& c) {
  if (c.denom <= 0.0) return 0.0;
  return c.matched / c.denom;
}

/// Left-to-right sum of @p w — the bit-exact denominator the reference's
/// pessimistic weighted loop accumulates on every call, hoisted so the
/// matrix pays it once instead of once per pair.
double in_order_sum(std::span<const double> w);

/// Bytes one packed row of @p networks elements at @p bits per element
/// (4, 8, 16 or 32) occupies: a 4-bit row of odd length rounds up to a
/// whole byte. Exact for any @p networks ≤ SIZE_MAX / 4.
constexpr std::size_t packed_row_bytes(std::size_t networks,
                                       std::size_t bits) noexcept {
  return networks / 8 * bits + (networks % 8 * bits + 7) / 8;
}

// Packed rows are little-endian at every width, in memory as on disk
// (io/segment_store.h maps them straight from its files), and Fenrir
// runs on little-endian hosts only: this is the one place that says so.
static_assert(std::endian::native == std::endian::little,
              "Fenrir supports little-endian hosts only");

/// Element @p i of a packed row of @p Bits-bit elements: element 2t of a
/// 4-bit row is the low nibble of byte t and element 2t+1 the high one,
/// and an odd row's last high nibble is 0 (kUnknownSite).
template <unsigned Bits>
inline SiteId packed_at(const std::byte* row, std::size_t i) noexcept {
  if constexpr (Bits == 4) {
    const auto byte = std::to_integer<unsigned>(row[i >> 1]);
    return (byte >> ((i & 1) * 4)) & 0xFu;
  } else if constexpr (Bits == 8) {
    return std::to_integer<SiteId>(row[i]);
  } else {
    using T = std::conditional_t<Bits == 16, std::uint16_t, std::uint32_t>;
    T x;
    std::memcpy(&x, row + i * sizeof(T), sizeof x);
    return x;
  }
}

/// Calls @p f with std::integral_constant<unsigned, B> for the element
/// width @p bits (4, 8, 16; anything else is 32), so a loop over packed
/// elements is compiled once per width and dispatched once per row.
template <typename F>
decltype(auto) with_bits(std::size_t bits, F&& f) {
  switch (bits) {
    case 4: return f(std::integral_constant<unsigned, 4>{});
    case 8: return f(std::integral_constant<unsigned, 8>{});
    case 16: return f(std::integral_constant<unsigned, 16>{});
    default: return f(std::integral_constant<unsigned, 32>{});
  }
}

/// The narrowest packed width, in bits, that holds @p max_id: 4 for ids
/// ≤ 15, 8 below 256, 16 below 64k, 32 otherwise.
constexpr std::size_t packed_bits_for(SiteId max_id) noexcept {
  if (max_id <= 0xf) return 4;
  if (max_id <= 0xff) return 8;
  if (max_id <= 0xffff) return 16;
  return 32;
}

/// Packs the @p n site ids at @p src into @p dst at @p bits per element
/// (4, 8, 16 or 32) through the active dispatch tier, reading each id
/// once, and returns the largest id read. The packed_row_bytes(n, bits)
/// bytes at @p dst are the packed row when that id fits @p bits
/// (packed_bits_for(id) ≤ bits) and unspecified otherwise; nothing past
/// them is written.
SiteId pack_row(const SiteId* src, std::size_t n, std::size_t bits,
                std::byte* dst);

/// The one converter between packed row layouts: copies a row of @p n
/// elements from @p src_bits to @p dst_bits ≥ @p src_bits, both
/// little-endian; a plain copy when the widths agree. Widening appends,
/// relayout and the segment store's loads all go through it.
void convert_packed_row(const std::byte* src, std::size_t src_bits,
                        std::byte* dst, std::size_t dst_bits, std::size_t n);

/// A time-series of routing vectors packed to the narrowest element width
/// that holds every SiteId appended so far (4, 8, 16 or 32 bits).
/// An append reads its vector once: it packs at the current width, and
/// the pack reports the largest id it read. Only when that id needs a
/// wider element does the store re-pack at the wider width and pack the
/// row again (ids only grow as a dataset interns new sites, so that
/// happens at most three times per series and amortizes).
///
/// Every row is reached through one row-pointer table. Owned rows live
/// in fixed-size slabs that are never reallocated: an append writes its
/// row once into the next slot and never copies or re-faults the rows
/// before it, and pop_back() keeps the slot for the next append (the
/// ModeBook's candidate row cycles through one slot).
///
/// A series can start with a *mapped prefix*: rows adopted as borrowed
/// pointers (typically into mmap'd segment pages — io/segment_store.h)
/// instead of bytes copied into slabs. The kernels read both kinds
/// through the same table; mutation of a mapped row is impossible by
/// construction (only owned slots are ever written), and a widening
/// append or a copy_row() onto a mapped row first re-lays every row into
/// owned slabs. A keepalive shared_ptr pins the mapping for as long as
/// any pointer could be dereferenced.
///
/// Each row carries its known count (known()), so a pair's MatchCounts
/// cost one tally pass: the count is taken in the same pass as the
/// row's first tally, or by one self-tally for a row that never led one.
class PackedSeries {
 public:
  PackedSeries() = default;

  /// Packs every row of @p dataset (width from the largest id present).
  static PackedSeries pack(const Dataset& dataset);

  std::size_t rows() const noexcept { return row_.size(); }
  std::size_t networks() const noexcept { return networks_; }
  /// Bits per element: 4, 8, 16, or 32.
  std::size_t bits() const noexcept { return bits_; }
  /// Bytes one row occupies: packed_row_bytes(networks(), bits()).
  std::size_t row_bytes() const noexcept {
    return packed_row_bytes(networks_, bits_);
  }
  /// Rows borrowed from an adopted mapping (always a prefix of rows()).
  std::size_t mapped_rows() const noexcept { return mapped_; }

  /// Adopts @p rows as a borrowed prefix: row i reads through rows[i]
  /// (packed_row_bytes(networks, bits) bytes, any alignment ≥ the element
  /// size) for as long as @p keepalive stays alive. Only legal on an
  /// empty series; throws std::logic_error otherwise. Appends afterwards
  /// extend the series normally; an append that needs a wider element
  /// first copies the prefix into owned storage.
  void adopt_rows(std::size_t networks, std::size_t bits,
                  std::span<const std::byte* const> rows,
                  std::shared_ptr<const void> keepalive);

  /// Appends one already-packed row of @p src_bits-bit elements
  /// (networks() of them), converting between element widths as needed.
  /// The copy-fallback twin of adopt_rows for tail segments and
  /// mixed-width segment runs.
  void append_packed(const std::byte* src, std::size_t src_bits);

  /// Appends one packed row. The first row fixes networks(); later rows
  /// must match it (std::invalid_argument otherwise).
  void append(const RoutingVector& v);
  /// Drops the last row (for speculative appends, e.g. ModeBook's
  /// candidate row); an owned row's slot stays allocated for the next
  /// append. No-op on an empty series.
  void pop_back() noexcept;
  /// Overwrites row @p dst with a copy of row @p src (a mapped @p dst
  /// first moves every row into owned slabs).
  void copy_row(std::size_t dst, std::size_t src);
  void clear() noexcept;

  /// Networks with a known site in row @p r — either(r, r) — counted by
  /// the first call that needs it and cached with the row (appended,
  /// adopted and pre-packed rows start uncounted). A call that counts
  /// writes the cache, so threads sharing a series fill every count
  /// they will read before they start.
  std::uint64_t known(std::size_t r) const;

  /// The tally of rows i and j over the whole row. While row i's known
  /// count is uncounted, the same pass counts row i against itself too
  /// and caches it.
  PairTally tally(std::size_t i, std::size_t j) const;
  /// MatchCounts between rows i and j, from tally(i, j) and the two
  /// rows' known counts.
  MatchCounts counts(std::size_t i, std::size_t j) const {
    const PairTally t = tally(i, j);
    return match_counts(t, known(i), known(j));
  }

  /// The tally of rows i and j over the @p n elements from @p lo on —
  /// one network chunk of a tiled fill. @p lo must start a byte (even at
  /// 4 bits) and the range must lie inside the row (std::out_of_range
  /// otherwise). Never touches the known-count cache.
  PairTally tally(std::size_t i, std::size_t j, std::size_t lo,
                  std::size_t n) const;
  /// tally(i, j0, lo, n) and tally(i, j1, lo, n) in one pass over row
  /// i's bytes.
  std::array<PairTally, 2> tally2(std::size_t i, std::size_t j0,
                                  std::size_t j1, std::size_t lo,
                                  std::size_t n) const;

  /// Weighted counts between rows i and j, mirroring the reference's
  /// accumulation order. For kPessimistic the denominator does not
  /// depend on the rows; pass the hoisted in_order_sum(w) as
  /// @p pessimistic_total and it is returned as .denom unchanged.
  WeightedCounts weighted_counts(std::size_t i, std::size_t j,
                                 std::span<const double> w,
                                 UnknownPolicy policy,
                                 double pessimistic_total) const;

  /// SiteId at (row, network).
  SiteId value_at(std::size_t row, std::size_t n) const;

 private:
  friend class fenrir::io::SegmentCodec;
  /// Bytes one owned slab aims for: narrow rows share a slab (no
  /// per-row allocation), a row wider than this gets a slab of its own.
  static constexpr std::size_t kSlabBytes = std::size_t{1} << 20;

  /// Re-lays every row, mapped ones included, into fresh owned slabs at
  /// @p bits per element and drops the borrow — the one path that moves
  /// existing rows (widening, or a copy_row onto a mapped row).
  void relayout(std::size_t bits);
  /// Appends a row slot (the next owned slot, reusing one pop_back()
  /// released) and returns it for the caller to fill.
  std::byte* push_slot();
  const std::byte* row_ptr(std::size_t i) const { return row_[i]; }
  /// Row i's tallies against rows @p cols over [lo, lo + n), bounds
  /// checked, through the active tier's one- or two-column kernel.
  template <std::size_t K>
  std::array<PairTally, K> tally_cols(std::size_t i,
                                      std::array<std::size_t, K> cols,
                                      std::size_t lo, std::size_t n) const;

  std::size_t networks_ = 0;
  std::size_t bits_ = 4;
  /// The largest id append() has packed since the series was created or
  /// cleared; adopted and pre-packed rows do not raise it. The segment
  /// store reads it instead of scanning the vector again.
  SiteId max_id_ = 0;
  std::size_t mapped_ = 0;  // rows [0, mapped_) are borrowed
  /// Row i's bytes: the borrowed prefix, then owned row i at slot
  /// i − mapped_ of the slabs.
  std::vector<const std::byte*> row_;
  /// known(i) per row, kKnownUnset until counted; one entry per row_
  /// entry, kept exact by every path that adds, drops or rewrites a row.
  static constexpr std::uint64_t kKnownUnset = ~std::uint64_t{0};
  mutable std::vector<std::uint64_t> known_;
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::size_t slab_rows_ = 0;  // rows per slab at the current stride
  std::shared_ptr<const void> keepalive_;
};

}  // namespace fenrir::core
