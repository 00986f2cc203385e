// fenrir::core — all-pairs similarity over a time series (paper §2.7).
//
// SimilarityMatrix holds Φ(t,t') for every pair of observations in a
// Dataset. It is the input to the heatmap renderer and to hierarchical
// clustering (as distance 1-Φ). Invalid observations (collection outages)
// keep their timeline slot but carry no similarity values — they render
// blank and are excluded from clustering, matching the paper's blank
// 2023-07..12 band in Figure 3.
//
// Construction is incremental. append() packs the new row and *plans*
// it at once, choosing between
//   * the packed kernels (compare_kernels.h) — O(N) per pair but SIMD-
//     dense,
//   * delta patching from the *predecessor* — the newest valid row, whose
//     match counts against every column are cached — at O(|Δ|) per pair.
// The choice costs one pass: the new row tallied against {prev, itself}
// (compare_kernels.h) gives
//   |Δ(prev, i)| = differ(prev, i)
// and the row's known count, which its diagonal and every later pair
// read. The row patches when the churn is at most
// kDeltaDensityThreshold·N and pays the kernels otherwise; either way
// its own counts become the cache for the next row. A matrix adopted
// from storage starts with no cache, so its first valid row after a
// load pays the kernels. Delta patching applies to unweighted Φ only
// (weighted Φ would have to reorder double additions to go fast, which
// breaks bit-identity).
//
// The row's Φ columns stay *pending* until a settle fills every pending
// row together: at the kSettleRows-th pending row, at the first Φ read
// that reaches a pending row, or when a segment store flushes the rows
// it spilled. A settle patches delta rows as above and keeps weighted
// rows on their in-order per-pair kernel. Kernel rows tally all their
// pairs — old columns and the batch corner alike — a kTileBytes network
// chunk at a time: each parallel_for worker owns every W-th column and
// streams the kernel rows' chunks, which stay in its L2, past two of its
// columns' chunks per pass, summing exact integer tallies chunk by
// chunk; the whole-row tallies and the rows' known counts then give the
// counts. A row that fits one chunk is the plain column-parallel fill.
// Planning is eager, so anchor_chain() and the path counters never wait
// for a settle.
//
// compute() is one append_batch() — the same pack, plan and settle — so
// batch analysis and `fenrirctl watch` take the same path per row; every
// path is bit-identical to the scalar reference (compute_reference),
// which the property tests enforce. Path choice is exported as
// fenrir_phi_* metrics (observation only — never a result input).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/compare.h"
#include "core/compare_kernels.h"
#include "core/vector.h"

namespace fenrir::io {
class SegmentCodec;  // segment-store persistence (io/segment_store.h)
}  // namespace fenrir::io

namespace fenrir::core {

/// Lower-triangle Φ storage (row-major, diagonal included) whose row
/// prefix may be *borrowed* from a read-only mapping instead of owned.
/// A segment-store resume mmaps sealed segments and adopts their Φ rows
/// in place — one pointer per row — so warm-start cost stays flat in
/// history length; rows appended afterwards live in the owned vector.
/// Borrowed rows always form a strict prefix (they are the oldest
/// history), which keeps the owned offset arithmetic exact:
/// owned_off(i) = i(i+1)/2 − m(m+1)/2 for m borrowed rows.
class TriangleStore {
 public:
  std::size_t rows() const noexcept { return rows_; }
  std::size_t mapped_rows() const noexcept { return mapped_.size(); }

  /// Φ at (i, j); requires j <= i < rows() (callers canonicalize).
  double get(std::size_t i, std::size_t j) const {
    return i < mapped_.size() ? mapped_[i][j] : owned_[owned_off(i) + j];
  }

  /// Row @p i's columns 0..i inclusive.
  const double* row(std::size_t i) const {
    return i < mapped_.size() ? mapped_[i] : owned_.data() + owned_off(i);
  }

  /// Appends one zero-filled owned row of length rows()+1.
  void push_row() {
    owned_.resize(owned_.size() + rows_ + 1, 0.0);
    ++rows_;
  }

  /// Mutable access to an owned row; @p i must be >= mapped_rows()
  /// (borrowed pages are immutable).
  double* owned_row(std::size_t i) { return owned_.data() + owned_off(i); }

  /// Borrows @p row (columns 0..rows() inclusive) as the next row. Only
  /// legal while no owned rows exist — borrowed rows are a prefix.
  void adopt_row(const double* row) {
    if (!owned_.empty()) {
      throw std::logic_error("TriangleStore: adopt_row after owned rows");
    }
    mapped_.push_back(row);
    ++rows_;
  }

  /// Pins whatever mapping the borrowed rows point into for the
  /// store's lifetime.
  void set_keepalive(std::shared_ptr<const void> k) {
    keepalive_ = std::move(k);
  }

  void reserve_rows(std::size_t rows) {
    if (rows <= rows_) return;
    const std::size_t m = mapped_.size();
    owned_.reserve(rows * (rows + 1) / 2 - m * (m + 1) / 2);
  }

  /// Owned-only bulk (re)initialization: @p n zeroed rows, borrow
  /// dropped (compute_reference fills them through owned_row()).
  void assign_owned(std::size_t n) {
    mapped_.clear();
    keepalive_.reset();
    owned_.assign(n * (n + 1) / 2, 0.0);
    rows_ = n;
  }

  void clear() noexcept {
    rows_ = 0;
    mapped_.clear();
    owned_.clear();
    keepalive_.reset();
  }

 private:
  std::size_t owned_off(std::size_t i) const {
    const std::size_t m = mapped_.size();
    return i * (i + 1) / 2 - m * (m + 1) / 2;
  }

  std::size_t rows_ = 0;
  std::vector<const double*> mapped_;  // borrowed prefix, one ptr per row
  std::vector<double> owned_;          // rows mapped_.size()..rows_-1
  std::shared_ptr<const void> keepalive_;
};

class SimilarityMatrix {
 public:
  /// Churn fraction |Δ|/N at or below which append() patches the
  /// predecessor's cached counts instead of re-scanning packed rows.
  /// Delta patching touches ~|Δ| random elements per pair versus N
  /// sequential SIMD lanes, so the break-even sits well below the SIMD
  /// width.
  static constexpr double kDeltaDensityThreshold = 0.05;

  /// Pending rows that trigger a settle: append() fills its rows in
  /// batches of this many, which bounds a settle's transient counts at
  /// kSettleRows · T MatchCounts.
  static constexpr std::size_t kSettleRows = 64;

  /// Packed bytes of one row's network chunk in a kernel tile. The
  /// chunks of a settle's kernel rows (≤ kSettleRows × 16 KiB = 1 MiB)
  /// stay in a 2 MB L2 while each column's chunk streams past them once.
  static constexpr std::size_t kTileBytes = std::size_t{16} << 10;

  /// Computes Φ for all pairs of @p dataset.series (weights from the
  /// dataset; uniform if empty) through append_batch(). The fill
  /// parallelizes with @p threads workers (0 = hardware concurrency, 1 =
  /// serial); the result is bit-identical for any thread count and to
  /// compute_reference().
  static SimilarityMatrix compute(
      const Dataset& dataset,
      UnknownPolicy policy = UnknownPolicy::kPessimistic,
      unsigned threads = 0);

  /// The scalar reference: serial gower_similarity() per pair, no
  /// packing, no deltas. The oracle the fast paths are property-tested
  /// against and the baseline BM_SimilarityMatrixLowChurnScalar times.
  /// Reference matrices are read-only — append() on one throws.
  static SimilarityMatrix compute_reference(
      const Dataset& dataset,
      UnknownPolicy policy = UnknownPolicy::kPessimistic);

  /// An empty matrix ready to be grown with append(). @p weights are the
  /// per-network D_w (empty = uniform); @p threads as in compute().
  explicit SimilarityMatrix(UnknownPolicy policy = UnknownPolicy::kPessimistic,
                            std::vector<double> weights = {},
                            unsigned threads = 1);

  /// Appends one observation: packs it and plans its path (kernel or
  /// delta, anchor_of, the path counters) at O(N), and leaves its Φ
  /// columns pending. The kSettleRows-th pending row settles them all;
  /// so does the first Φ read that reaches a pending row, and a segment
  /// store's flush. A matrix grown by append() is bit-identical to
  /// compute() over the same series, whenever it settles.
  void append(const RoutingVector& v);

  /// Appends @p batch observations at once: packs and plans each row as
  /// append() does, settling every kSettleRows rows, then settles the
  /// rest — so it leaves nothing pending and produces exactly the matrix
  /// an append() loop does (bit-identical: every route to a row's counts
  /// is exact integer arithmetic, so path choice affects time only).
  /// Ingest paths that buffer observations (`fenrirctl analyze
  /// --matrix-cache` warm appends, Campaign epoch folds) and compute()
  /// route through this.
  void append_batch(std::span<const RoutingVector> batch);

  /// Pre-sizes the value triangle and the per-row bookkeeping for
  /// @p rows total observations (no-op when already that large). Ingest
  /// paths that know how much history they are about to replay — a
  /// matrix-cache warm append, a watch-resume rebuild, an epoch fold —
  /// call this so the appends grow storage once instead of reallocating
  /// (and copying the whole triangle) mid-stream. Packed rows need no
  /// reservation: their slabs never move (compare_kernels.h).
  void reserve(std::size_t rows) {
    if (rows <= n_) return;
    values_.reserve_rows(rows);
    valid_.reserve(rows);
  }

  /// A no-op that only checks @p row < size() (std::out_of_range
  /// otherwise). Rows patch from their predecessor alone, so there is
  /// nothing to pin; the call stays for callers that predate that rule.
  void pin_anchor(std::size_t row) const;

  std::size_t size() const noexcept { return n_; }

  /// Row @p row's anchor-chain base is absent: the row paid the packed
  /// kernels, was invalid or weighted, or its base fell outside a
  /// segment store's retained window on load.
  static constexpr std::size_t kNoAnchorRow =
      static_cast<std::size_t>(-1);

  /// The anchor chain append()/append_batch() walked ingesting @p row:
  /// the predecessor it delta-patched from first, then that row's own
  /// base, and so on, up to @p max_depth entries. Empty for kernel rows.
  /// Chains are observation-only lineage — they feed DecisionRecords and
  /// never steer a value; a segment store keeps each row's base, so they
  /// survive a resume within the retained window.
  std::vector<std::size_t> anchor_chain(std::size_t row,
                                        std::size_t max_depth = 8) const;

  /// One observation reconstructed from persistent storage: a packed
  /// assignment row (PackedSeries layout) plus the precomputed Φ row (columns
  /// 0..row inclusive). io::SegmentCodec builds these straight off
  /// mapped segment pages (adopt_rows, zero-copy) or from decoded
  /// records (append_precomputed, the copy fallback).
  struct AdoptedRow {
    const std::byte* packed = nullptr;
    const double* phi = nullptr;
    bool valid = false;
    std::size_t anchor_of = kNoAnchorRow;
  };

  /// Adopts @p rows as the matrix's entire contents without copying or
  /// recomputing Φ: packed bytes and Φ rows stay where they are (mapped
  /// segment pages), pinned by @p keepalive. Requires an empty matrix;
  /// @p bits is the shared packed element width of every row. No counts
  /// are cached, so the next valid append pays the kernels.
  void adopt_rows(std::size_t networks, std::size_t bits,
                  std::span<const AdoptedRow> rows,
                  std::shared_ptr<const void> keepalive);

  /// Copy-path twin of adopt_rows for one row: appends a row whose
  /// packed bytes (@p src_bits per element) and Φ values were already
  /// computed — a tail record or a mixed-width segment — without
  /// re-running the kernels. The matrix must have its network count set
  /// (adopt_rows with an empty span does that). Drops the cached counts,
  /// so the next valid append pays the kernels.
  void append_precomputed(const AdoptedRow& row, std::size_t src_bits);

  UnknownPolicy policy() const noexcept { return policy_; }
  const std::vector<double>& weights() const noexcept { return weights_; }

  /// Φ(i,j); 0.0 when either index is invalid. phi(i,i) is computed like
  /// any pair (under the pessimistic policy a vector with unknowns is not
  /// 100% similar to itself — the paper's Verfploeter ceiling).
  double phi(std::size_t i, std::size_t j) const {
    if (i >= n_ || j >= n_) throw std::out_of_range("SimilarityMatrix index");
    if (i < j) std::swap(i, j);
    if (i >= settle_.settled.load()) settle();
    return values_.get(i, j);
  }
  double dist(std::size_t i, std::size_t j) const { return 1.0 - phi(i, j); }

  bool valid(std::size_t i) const { return valid_.at(i); }
  std::size_t valid_count() const;

  /// Minimum / maximum Φ over all valid pairs drawn from two index sets
  /// (used for the paper's "Φ(M_i, M_ii) = [0.11, 0.48]" mode ranges).
  /// Each unordered pair {i,j} counts once even when the sets overlap.
  /// Returns {0,0} if no valid pair exists.
  struct Range {
    double min = 0.0, max = 0.0;
    bool any = false;
  };
  Range range_between(const std::vector<std::size_t>& a,
                      const std::vector<std::size_t>& b) const;
  /// Range over distinct pairs within one index set.
  Range range_within(const std::vector<std::size_t>& a) const;
  /// Median Φ between two index sets (0 if no valid pair); distinct
  /// unordered pairs only, so overlapping sets do not skew the median.
  double median_between(const std::vector<std::size_t>& a,
                        const std::vector<std::size_t>& b) const;

 private:
  friend class io::SegmentCodec;

  /// Canonical (row >= col) index pairs of all distinct valid unordered
  /// pairs drawn from a × b (sorted, deduplicated).
  std::vector<std::pair<std::size_t, std::size_t>> pair_keys(
      const std::vector<std::size_t>& a,
      const std::vector<std::size_t>& b) const;

  /// The path rule for valid row @p i of an unweighted matrix: with no
  /// cached predecessor (@p base == kNoAnchorRow, @p churn unread) the
  /// row pays the kernels; otherwise @p churn = |Δ(base, i)|, and at or
  /// below the density threshold the row patches from @p base with
  /// @p delta, the change set, filled in. Returns whether it patches and
  /// records the row's path metrics.
  bool plan_row(std::size_t base, std::size_t i, std::size_t churn,
                std::vector<DeltaEntry>& delta);

  /// Packs @p v and plans it as a pending row (one fenrir_phi_append_seconds
  /// sample).
  void ingest(const RoutingVector& v);

  /// Fills every pending row under one phi_matrix span; a no-op when none
  /// is pending. Safe from concurrent const readers: the first settles
  /// while the others wait on the lock.
  void settle() const;

  /// The settle itself (caller holds the lock or owns the matrix): the
  /// kernel rows through the tiles, then the delta and weighted rows'
  /// old columns column-outer and their corner row-major, then the
  /// newest valid row's counts become the cache.
  void fill_pending() const;

  /// Every pair of the pending kernel rows @p rows (ascending indices
  /// into pending_), old columns and corner alike, through network-chunk
  /// tiles, one parallel_for job: counts land in @p row_counts, Φ in the
  /// rows. Every known count the workers read is counted before it
  /// starts.
  void fill_kernel_tiles(std::span<const std::size_t> rows,
                         std::vector<std::vector<MatchCounts>>& row_counts)
      const;

  /// How a pending row fills: its path, the predecessor a delta row
  /// patches from, and the change set classified once for every column.
  struct RowPlan {
    enum class Path { kInvalid, kKernel, kDelta, kWeighted };
    Path path = Path::kInvalid;
    std::size_t base = 0;        // global row id of the predecessor
    std::size_t delta_size = 0;  // |Δ(base, row)|
    PreparedDelta prep;
  };

  /// Rows [0, settled) hold their Φ; rows [settled, size()) are pending.
  /// The lock lets a const reader settle while others read; moving a
  /// matrix carries the count over and gives the new one its own lock.
  struct SettleGuard {
    std::atomic<std::size_t> settled{0};
    std::mutex mutex;
    SettleGuard() = default;
    SettleGuard(SettleGuard&& o) noexcept : settled(o.settled.load()) {}
    SettleGuard& operator=(SettleGuard&& o) noexcept {
      settled.store(o.settled.load());
      return *this;
    }
  };

  std::size_t n_ = 0;
  // A settle fills values_, the packed rows' known counts and the cache
  // behind a const read, under settle_'s lock; everything else changes
  // only in non-const members.
  mutable TriangleStore values_;  // lower triangle incl. diagonal
  std::vector<char> valid_;

  UnknownPolicy policy_ = UnknownPolicy::kPessimistic;
  std::vector<double> weights_;
  double total_weight_ = 0.0;  // in-order sum of weights_ (pessimistic denom)
  unsigned threads_ = 1;
  PackedSeries packed_;  // one row per appended observation

  /// The newest valid row of an unweighted matrix whose counts are
  /// cached, or will be once the pending rows settle (kNoAnchorRow: none
  /// — a fresh, adopted, loaded or weighted matrix). prev_counts_ holds
  /// the cached row's counts against every settled column, with zero
  /// placeholders at invalid columns that are never read.
  std::size_t prev_ = kNoAnchorRow;
  mutable std::vector<MatchCounts> prev_counts_;
  /// The plans of rows [settled, size()), in order.
  mutable std::vector<RowPlan> pending_;
  mutable SettleGuard settle_;
  /// anchor_of_[i] = row that i delta-patched from (kNoAnchorRow for
  /// kernel/invalid/weighted rows). May be shorter than n_ in a
  /// compute_reference() matrix — anchor_chain() treats missing entries
  /// as absent.
  std::vector<std::size_t> anchor_of_;
};

}  // namespace fenrir::core
