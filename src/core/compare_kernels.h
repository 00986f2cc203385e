// fenrir::core — packed similarity kernels: the integer core of Φ.
//
// gower_similarity() is exact but scalar: one branchy comparison per
// network, on 4-byte SiteIds. At production scale (millions of networks,
// hundreds of observations) the all-pairs matrix does T²·N of those, and
// the paper's own thesis — routing *recurs*, consecutive vectors differ
// in a tiny fraction of networks — goes unexploited. This header supplies
// the three fast layers the SimilarityMatrix builds on:
//
//  * PackedSeries — rows narrowed to the smallest element width that
//    holds every SiteId seen (uint8 for < 255 sites, uint16 below 64k,
//    uint32 otherwise). A packed row is 4×–1× denser than the
//    RoutingVector it came from, so the match kernels stream 4× more
//    networks per cache line and auto-vectorize to 16–32 lanes per step.
//  * count_matches kernels — blocked, branchless mask-accumulation loops
//    producing MatchCounts: how many networks match (both known, equal)
//    and how many are mutually known. Both UnknownPolicy variants of Φ
//    are pure functions of these two integers (phi_from_counts), so any
//    kernel that reproduces the counts reproduces Φ *bit-identically* —
//    the determinism contract the property tests enforce.
//  * delta_between / apply_delta — a sorted change-set between a row and
//    its predecessor, and an O(|Δ|) patch taking counts(prev, b) to
//    counts(cur, b). When churn is sparse this replaces an O(N) scan per
//    pair; counts stay exact integers, so Φ stays bit-identical.
//
// Weighted Φ accumulates doubles, where reordering changes the result
// bits. The weighted kernel therefore keeps the reference's in-order
// single accumulator and is branchless-select only (no SIMD reduction,
// no delta path) — still bit-identical, still faster than the branchy
// scalar loop on unpredictable data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
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

/// One element of a change-set between a row and its predecessor.
struct DeltaEntry {
  std::uint32_t index = 0;  // network index
  SiteId before = kUnknownSite;
  SiteId after = kUnknownSite;
};

struct PreparedDelta;

/// A time-series of routing vectors packed to the narrowest element type
/// that holds every SiteId appended so far. Appending a vector with a
/// larger id transparently re-packs the store one width up (ids only grow
/// as a dataset interns new sites, so widening is rare and amortizes).
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
class PackedSeries {
 public:
  PackedSeries() = default;

  /// Packs every row of @p dataset (width from the largest id present).
  static PackedSeries pack(const Dataset& dataset);

  std::size_t rows() const noexcept { return row_.size(); }
  std::size_t networks() const noexcept { return networks_; }
  /// Bytes per element: 1, 2, or 4.
  std::size_t width() const noexcept { return width_; }
  /// Rows borrowed from an adopted mapping (always a prefix of rows()).
  std::size_t mapped_rows() const noexcept { return mapped_; }

  /// Adopts @p rows as a borrowed prefix: row i reads through rows[i]
  /// (networks × width bytes, any alignment ≥ the element width) for as
  /// long as @p keepalive stays alive. Only legal on an empty series;
  /// throws std::logic_error otherwise. Appends afterwards extend the
  /// series normally; an append that needs a wider element first copies
  /// the prefix into owned storage (widen_to materializes every row).
  void adopt_rows(std::size_t networks, std::size_t width,
                  std::span<const std::byte* const> rows,
                  std::shared_ptr<const void> keepalive);

  /// Appends one already-packed row of @p src_width-byte elements
  /// (networks() of them), converting between element widths as needed.
  /// The copy-fallback twin of adopt_rows for tail segments and
  /// big-endian hosts.
  void append_packed(const std::byte* src, std::size_t src_width);

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

  /// MatchCounts between rows i and j: the blocked branchless kernel.
  MatchCounts counts(std::size_t i, std::size_t j) const;

  /// Weighted counts between rows i and j, mirroring the reference's
  /// accumulation order. For kPessimistic the denominator does not
  /// depend on the rows; pass the hoisted in_order_sum(w) as
  /// @p pessimistic_total and it is returned as .denom unchanged.
  WeightedCounts weighted_counts(std::size_t i, std::size_t j,
                                 std::span<const double> w,
                                 UnknownPolicy policy,
                                 double pessimistic_total) const;

  /// SiteId at (row, network) — random access for delta patching.
  SiteId value_at(std::size_t row, std::size_t n) const;

  /// Sorted change-set taking row @p from to row @p to (same series).
  std::vector<DeltaEntry> delta_between(std::size_t from, std::size_t to) const;

  /// Bounded change-set scan: fills @p out with delta_between(from, to),
  /// aborting as soon as it would exceed @p cap entries. Returns true when
  /// the full change-set fit; false when |Δ| > cap (@p out is cleared).
  /// An aborted scan stops at the (cap+1)-th mismatch, so probing a
  /// dissimilar row costs O(cap/density) lanes instead of O(N) plus a
  /// change-set allocation that would only be thrown away.
  bool delta_between_bounded(std::size_t from, std::size_t to, std::size_t cap,
                             std::vector<DeltaEntry>& out) const;

  /// Hint-prefetches every line of row @p row. The batch fill walks
  /// columns sequentially but reads each column's row in random
  /// (delta-index) order, which the hardware prefetcher cannot learn —
  /// streaming the next column's row while the current one is patched
  /// overlaps those misses instead.
  void prefetch_row(std::size_t row) const {
    if (row >= rows()) return;
#if defined(__GNUC__) || defined(__clang__)
    const std::byte* b = row_ptr(row);
    const std::size_t bytes = networks_ * width_;
    for (std::size_t off = 0; off < bytes; off += 64) {
      __builtin_prefetch(b + off, 0, 1);
    }
#endif
  }

  /// Hint-prefetches the lines apply_delta will read in row @p row_b.
  /// The matrix's fill loop issues this a couple of pairs ahead so the
  /// patch's random reads overlap in the memory system instead of
  /// serialising one cache miss per entry.
  void prefetch_delta(std::size_t row_b,
                      std::span<const DeltaEntry> delta) const {
    if (row_b >= rows()) return;
    const std::byte* b = row_ptr(row_b);
#if defined(__GNUC__) || defined(__clang__)
    for (const DeltaEntry& d : delta) {
      __builtin_prefetch(b + static_cast<std::size_t>(d.index) * width_, 0, 1);
    }
#else
    (void)b;
#endif
  }

 private:
  friend MatchCounts apply_delta(MatchCounts, std::span<const DeltaEntry>,
                                 const PackedSeries&, std::size_t);
  friend MatchCounts apply_prepared(MatchCounts, const PreparedDelta&,
                                    const PackedSeries&, std::size_t);
  friend class ColumnPatcher;
  friend class fenrir::io::SegmentCodec;
  /// Bytes one owned slab aims for: narrow rows share a slab (no
  /// per-row allocation), a row wider than this gets a slab of its own.
  static constexpr std::size_t kSlabBytes = std::size_t{1} << 20;

  /// Re-lays every row, mapped ones included, into fresh owned slabs at
  /// element width @p width and drops the borrow — the one path that
  /// moves existing rows (widening, or a copy_row onto a mapped row).
  void relayout(std::size_t width);
  /// Appends a row slot (the next owned slot, reusing one pop_back()
  /// released) and returns it for the caller to fill.
  std::byte* push_slot();
  const std::byte* row_ptr(std::size_t i) const { return row_[i]; }

  std::size_t networks_ = 0;
  std::size_t width_ = 1;
  std::size_t mapped_ = 0;  // rows [0, mapped_) are borrowed
  /// Row i's bytes: the borrowed prefix, then owned row i at slot
  /// i − mapped_ of the slabs.
  std::vector<const std::byte*> row_;
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::size_t slab_rows_ = 0;  // rows per slab at the current stride
  std::shared_ptr<const void> keepalive_;
};

/// Patches counts(prev, b) into counts(cur, b) given the change-set
/// delta_between(prev, cur): O(|Δ|) with one random access into row
/// @p row_b per entry. Exact integer arithmetic — bit-identical Φ.
MatchCounts apply_delta(MatchCounts base, std::span<const DeltaEntry> delta,
                        const PackedSeries& series, std::size_t row_b);

/// A change-set pre-classified by endpoint known-ness. Whether `before`
/// or `after` equals kUnknownSite does not depend on the column being
/// patched, yet apply_delta re-tests both per entry per column. The
/// batch append classifies each planned row once and replays the
/// prepared form across every column:
///  - both endpoints known: mutual_known provably cancels (-known +known)
///    and only match membership can move — two compares per entry;
///  - before unknown → after known: the pair can only gain, one compare
///    plus the column's own known test;
///  - before known → after unknown: the mirror image.
/// (An entry with both endpoints unknown cannot appear in a change-set.)
/// Struct-of-arrays so the replay loop streams each class densely.
struct PreparedDelta {
  std::vector<std::uint32_t> idx_swap;
  std::vector<SiteId> before_swap;
  std::vector<SiteId> after_swap;
  std::vector<std::uint32_t> idx_gain;
  std::vector<SiteId> after_gain;
  std::vector<std::uint32_t> idx_lose;
  std::vector<SiteId> before_lose;
};

/// Classifies @p delta into its PreparedDelta form — O(|Δ|), done once
/// per planned batch row and amortized over every column it patches.
PreparedDelta prepare_delta(std::span<const DeltaEntry> delta);

/// Kernel signature for the swap-class patch against a u8 row: returns
/// the net match delta Σ (after[t] == row[idx[t]]) − (before[t] ==
/// row[idx[t]]). @p row_len is the row's element count — idx entries
/// are sorted ascending, so a vectorized tier can split off the suffix
/// whose gathers would read past the row and handle it scalar.
using SwapPatchU8Fn = std::int64_t (*)(const std::uint8_t* row,
                                       const std::uint32_t* idx,
                                       const SiteId* before,
                                       const SiteId* after, std::size_t n,
                                       std::size_t row_len);

/// The active dispatch tier's swap-patch kernel (compare_kernels.cc
/// resolves it; the header cannot include simd_dispatch.h, which
/// includes this header).
SwapPatchU8Fn active_swap_patch_u8() noexcept;

/// Applies prepared change-sets against one fixed column row, with the
/// row pointer, width, and swap-kernel dispatch resolved at
/// construction and the patch loops inlined. The batch fill patches
/// every planned batch row against the same column before moving on, so
/// the per-call dispatch and call overhead of apply_prepared would
/// otherwise be paid k times per column.
class ColumnPatcher {
 public:
  ColumnPatcher(const PackedSeries& series, std::size_t row_b)
      : row_(series.row_ptr(row_b)),
        width_(series.width()),
        networks_(series.networks()),
        swap_u8_(active_swap_patch_u8()) {}

  MatchCounts apply(MatchCounts base, const PreparedDelta& p) const {
    std::int64_t d_matches = 0;
    std::int64_t d_known = 0;
    switch (width_) {
      case 1: {
        // The swap class dominates (both endpoints known), and u8 is
        // the common packed width — route it through the dispatched
        // kernel; the gain/lose classes stay inline.
        const auto* row = reinterpret_cast<const std::uint8_t*>(row_);
        d_matches +=
            swap_u8_(row, p.idx_swap.data(), p.before_swap.data(),
                     p.after_swap.data(), p.idx_swap.size(), networks_);
        patch_rest(row, p, d_matches, d_known);
        break;
      }
      case 2: {
        const auto* row = reinterpret_cast<const std::uint16_t*>(row_);
        patch_swap(row, p, d_matches);
        patch_rest(row, p, d_matches, d_known);
        break;
      }
      default: {
        const auto* row = reinterpret_cast<const std::uint32_t*>(row_);
        patch_swap(row, p, d_matches);
        patch_rest(row, p, d_matches, d_known);
        break;
      }
    }
    base.matches = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(base.matches) + d_matches);
    base.mutual_known = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(base.mutual_known) + d_known);
    return base;
  }

 private:
  // Same exact integer arithmetic as apply_delta, with the
  // column-invariant kUnknownSite tests hoisted into prepare_delta: a
  // known endpoint that equals the column's value implies the column's
  // value is known, so only the gain/lose classes test it.
  template <typename T>
  static void patch_swap(const T* row_b, const PreparedDelta& p,
                         std::int64_t& d_matches) {
    const std::size_t n_swap = p.idx_swap.size();
    for (std::size_t t = 0; t < n_swap; ++t) {
      const SiteId b = row_b[p.idx_swap[t]];
      d_matches += (p.after_swap[t] == b);
      d_matches -= (p.before_swap[t] == b);
    }
  }

  template <typename T>
  static void patch_rest(const T* row_b, const PreparedDelta& p,
                         std::int64_t& d_matches, std::int64_t& d_known) {
    const std::size_t n_gain = p.idx_gain.size();
    for (std::size_t t = 0; t < n_gain; ++t) {
      const SiteId b = row_b[p.idx_gain[t]];
      d_matches += (p.after_gain[t] == b);
      d_known += (b != kUnknownSite);
    }
    const std::size_t n_lose = p.idx_lose.size();
    for (std::size_t t = 0; t < n_lose; ++t) {
      const SiteId b = row_b[p.idx_lose[t]];
      d_matches -= (p.before_lose[t] == b);
      d_known -= (b != kUnknownSite);
    }
  }

  const std::byte* row_;
  std::size_t width_;
  std::size_t networks_;
  SwapPatchU8Fn swap_u8_;
};

/// apply_delta over the prepared form — bit-identical to apply_delta on
/// the originating change-set (same exact integer arithmetic, with the
/// column-invariant kUnknownSite tests hoisted into prepare_delta).
MatchCounts apply_prepared(MatchCounts base, const PreparedDelta& delta,
                           const PackedSeries& series, std::size_t row_b);

}  // namespace fenrir::core
