#include "core/compare_kernels.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/simd_dispatch.h"

namespace fenrir::core {

double in_order_sum(std::span<const double> w) {
  double total = 0.0;
  for (const double x : w) total += x;
  return total;
}

namespace {

template <typename T>
void pack_row(std::byte* dst, const RoutingVector& v) {
  T* out = reinterpret_cast<T*>(dst);
  for (std::size_t i = 0; i < v.assignment.size(); ++i) {
    out[i] = static_cast<T>(v.assignment[i]);
  }
}

// Blocked branchless match counter. The inner block accumulates into
// 32-bit lanes the compiler widens from byte/word compares (pcmpeq +
// psadbw-style reductions); the outer loop drains them into 64-bit sums
// well before they could wrap.
template <typename T>
MatchCounts count_matches_impl(const T* a, const T* b, std::size_t n) {
  MatchCounts out;
  constexpr std::size_t kBlock = 4096;
  std::size_t i = 0;
  while (i < n) {
    const std::size_t end = std::min(n, i + kBlock);
    std::uint32_t m = 0, k = 0;
    for (std::size_t j = i; j < end; ++j) {
      const unsigned eq = a[j] == b[j];
      const unsigned an = a[j] != 0;  // kUnknownSite == 0 survives packing
      const unsigned bn = b[j] != 0;
      m += eq & an;
      k += an & bn;
    }
    out.matches += m;
    out.mutual_known += k;
    i = end;
  }
  return out;
}

// Weighted variant: same left-to-right accumulation as the scalar
// reference (reordering doubles changes the bits), but branchless
// selects instead of data-dependent branches.
template <typename T>
WeightedCounts weighted_impl(const T* a, const T* b, const double* w,
                             std::size_t n, UnknownPolicy policy,
                             double pessimistic_total) {
  WeightedCounts out;
  if (policy == UnknownPolicy::kPessimistic) {
    for (std::size_t i = 0; i < n; ++i) {
      const bool hit = a[i] == b[i] && a[i] != 0;
      out.matched += hit ? w[i] : 0.0;
    }
    out.denom = pessimistic_total;
    return out;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const bool known = a[i] != 0 && b[i] != 0;
    const bool hit = known && a[i] == b[i];
    out.denom += known ? w[i] : 0.0;
    out.matched += hit ? w[i] : 0.0;
  }
  return out;
}

std::size_t width_for(SiteId max_id) {
  if (max_id <= 0xff) return 1;
  if (max_id <= 0xffff) return 2;
  return 4;
}

// Typed change-set scan, bounded: bails at the (cap+1)-th mismatch.
// Mismatches are rare on the workloads that reach this path (that is why
// the delta layer exists), so the hot loop is a well-predicted equality
// test per element. The unbounded scan is this with cap = kNoCap — the
// bail branch never fires. Anchor probes call
// this against rows that are usually either near-identical (the probe
// wins) or near-total rewrites (bail after ~cap mismatches), so the
// abort is what keeps a failed probe cheap.
template <typename T>
bool delta_scan_bounded(const T* a, const T* b, std::size_t n,
                        std::size_t cap, std::vector<DeltaEntry>& out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      if (out.size() == cap) {
        out.clear();
        return false;
      }
      out.push_back({static_cast<std::uint32_t>(i),
                     static_cast<SiteId>(a[i]), static_cast<SiteId>(b[i])});
    }
  }
  return true;
}

}  // namespace

// Scalar tier of the dispatch table (simd_dispatch.h): thin typed
// wrappers over the oracle templates above. The unbounded delta scan is
// expressed as the bounded one with simd::kNoCap — out.size() can never
// reach SIZE_MAX, so the bail branch is dead and the loop body matches
// delta_scan exactly.
namespace simd {

MatchCounts count_u8_scalar(const std::uint8_t* a, const std::uint8_t* b,
                            std::size_t n) {
  return count_matches_impl(a, b, n);
}
MatchCounts count_u16_scalar(const std::uint16_t* a, const std::uint16_t* b,
                             std::size_t n) {
  return count_matches_impl(a, b, n);
}
MatchCounts count_u32_scalar(const std::uint32_t* a, const std::uint32_t* b,
                             std::size_t n) {
  return count_matches_impl(a, b, n);
}
bool delta_u8_scalar(const std::uint8_t* a, const std::uint8_t* b,
                     std::size_t n, std::size_t cap,
                     std::vector<DeltaEntry>& out) {
  return delta_scan_bounded(a, b, n, cap, out);
}
bool delta_u16_scalar(const std::uint16_t* a, const std::uint16_t* b,
                      std::size_t n, std::size_t cap,
                      std::vector<DeltaEntry>& out) {
  return delta_scan_bounded(a, b, n, cap, out);
}
bool delta_u32_scalar(const std::uint32_t* a, const std::uint32_t* b,
                      std::size_t n, std::size_t cap,
                      std::vector<DeltaEntry>& out) {
  return delta_scan_bounded(a, b, n, cap, out);
}
SiteId max_site_scalar(const SiteId* src, std::size_t n) {
  SiteId max_id = 0;
  for (std::size_t i = 0; i < n; ++i) max_id = std::max(max_id, src[i]);
  return max_id;
}
void pack_u8_scalar(const SiteId* src, std::uint8_t* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::uint8_t>(src[i]);
  }
}
void pack_u16_scalar(const SiteId* src, std::uint16_t* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::uint16_t>(src[i]);
  }
}

std::int64_t swap_patch_u8_scalar(const std::uint8_t* row,
                                  const std::uint32_t* idx,
                                  const SiteId* before, const SiteId* after,
                                  std::size_t n, std::size_t /*row_len*/) {
  std::int64_t d_matches = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const SiteId b = row[idx[t]];
    d_matches += (after[t] == b);
    d_matches -= (before[t] == b);
  }
  return d_matches;
}

}  // namespace simd

SwapPatchU8Fn active_swap_patch_u8() noexcept {
  return simd::active().swap_u8;
}

PackedSeries PackedSeries::pack(const Dataset& dataset) {
  PackedSeries s;
  const simd::KernelTable& k = simd::active();
  SiteId max_id = 0;
  for (const RoutingVector& v : dataset.series) {
    if (v.assignment.empty()) continue;
    max_id = std::max(max_id, k.max_site(v.assignment.data(),
                                         v.assignment.size()));
  }
  s.width_ = width_for(max_id);
  for (const RoutingVector& v : dataset.series) s.append(v);
  return s;
}

namespace {

/// Copies one row of @p n elements from @p src_width to @p dst_width ≥
/// @p src_width (host order on both sides); a plain memcpy when the
/// widths agree.
void convert_row(const std::byte* src, std::size_t src_width, std::byte* dst,
                 std::size_t dst_width, std::size_t n) {
  if (src_width == dst_width) {
    if (n > 0) std::memcpy(dst, src, n * dst_width);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    SiteId v = 0;
    if (src_width == 1) {
      std::uint8_t x;
      std::memcpy(&x, src + i, sizeof x);
      v = x;
    } else if (src_width == 2) {
      std::uint16_t x;
      std::memcpy(&x, src + i * 2, sizeof x);
      v = x;
    } else {
      std::memcpy(&v, src + i * 4, sizeof v);
    }
    std::byte* out = dst + i * dst_width;
    if (dst_width == 2) {
      const auto x = static_cast<std::uint16_t>(v);
      std::memcpy(out, &x, sizeof x);
    } else {
      std::memcpy(out, &v, sizeof v);
    }
  }
}

}  // namespace

std::byte* PackedSeries::push_slot() {
  const std::size_t stride = networks_ * width_;
  if (slab_rows_ == 0) {
    slab_rows_ = std::max<std::size_t>(1, kSlabBytes / std::max<std::size_t>(
                                                          stride, 1));
  }
  const std::size_t slot = row_.size() - mapped_;
  const std::size_t slab = slot / slab_rows_;
  if (slab == slabs_.size()) {
    // Uninitialized on purpose: pages are faulted in by the rows that
    // land on them, not by the allocation.
    slabs_.push_back(std::make_unique_for_overwrite<std::byte[]>(
        slab_rows_ * stride));
  }
  std::byte* dst = slabs_[slab].get() + (slot % slab_rows_) * stride;
  row_.push_back(dst);
  return dst;
}

void PackedSeries::append(const RoutingVector& v) {
  if (row_.empty() && networks_ == 0) {
    networks_ = v.assignment.size();
  } else if (v.assignment.size() != networks_) {
    throw std::invalid_argument("PackedSeries: vector size mismatch");
  }
  const simd::KernelTable& k = simd::active();
  const SiteId max_id =
      v.assignment.empty() ? 0
                           : k.max_site(v.assignment.data(),
                                        v.assignment.size());
  if (const std::size_t need = width_for(max_id); need > width_) {
    relayout(need);
  }
  std::byte* dst = push_slot();
  switch (width_) {
    case 1:
      k.pack_u8(v.assignment.data(), reinterpret_cast<std::uint8_t*>(dst),
                networks_);
      break;
    case 2:
      k.pack_u16(v.assignment.data(), reinterpret_cast<std::uint16_t*>(dst),
                 networks_);
      break;
    default:
      pack_row<std::uint32_t>(dst, v);
      break;
  }
}

void PackedSeries::pop_back() noexcept {
  if (row_.empty()) return;
  row_.pop_back();
  if (row_.size() < mapped_) {
    mapped_ = row_.size();
    if (mapped_ == 0) keepalive_.reset();
  }
}

void PackedSeries::copy_row(std::size_t dst, std::size_t src) {
  if (dst >= rows() || src >= rows()) {
    throw std::out_of_range("PackedSeries::copy_row");
  }
  if (dst == src) return;
  if (dst < mapped_) relayout(width_);
  std::memcpy(const_cast<std::byte*>(row_[dst]), row_[src],
              networks_ * width_);
}

void PackedSeries::clear() noexcept {
  networks_ = 0;
  width_ = 1;
  mapped_ = 0;
  row_.clear();
  slabs_.clear();
  slab_rows_ = 0;
  keepalive_.reset();
}

void PackedSeries::relayout(std::size_t width) {
  // Build the new layout beside the old one — convert_row reads every
  // row, mapped ones too, through the old table — then swap it in.
  PackedSeries out;
  out.networks_ = networks_;
  out.width_ = width;
  out.row_.reserve(row_.size());
  for (const std::byte* src : row_) {
    convert_row(src, width_, out.push_slot(), width, networks_);
  }
  *this = std::move(out);
}

void PackedSeries::adopt_rows(std::size_t networks, std::size_t width,
                              std::span<const std::byte* const> rows,
                              std::shared_ptr<const void> keepalive) {
  if (!row_.empty() || networks_ != 0) {
    throw std::logic_error("PackedSeries::adopt_rows: series not empty");
  }
  if (width != 1 && width != 2 && width != 4) {
    throw std::invalid_argument("PackedSeries::adopt_rows: bad width");
  }
  networks_ = networks;
  width_ = width;
  row_.assign(rows.begin(), rows.end());
  mapped_ = row_.size();
  keepalive_ = std::move(keepalive);
}

void PackedSeries::append_packed(const std::byte* src, std::size_t src_width) {
  if (networks_ == 0 && row_.empty()) {
    throw std::logic_error("PackedSeries::append_packed: networks unset");
  }
  if (src_width > width_) relayout(src_width);
  convert_row(src, src_width, push_slot(), width_, networks_);
}

MatchCounts PackedSeries::counts(std::size_t i, std::size_t j) const {
  if (i >= rows() || j >= rows()) {
    throw std::out_of_range("PackedSeries::counts");
  }
  const std::byte* a = row_ptr(i);
  const std::byte* b = row_ptr(j);
  const simd::KernelTable& k = simd::active();
  switch (width_) {
    case 1:
      return k.count_u8(reinterpret_cast<const std::uint8_t*>(a),
                        reinterpret_cast<const std::uint8_t*>(b), networks_);
    case 2:
      return k.count_u16(reinterpret_cast<const std::uint16_t*>(a),
                         reinterpret_cast<const std::uint16_t*>(b), networks_);
    default:
      return k.count_u32(reinterpret_cast<const std::uint32_t*>(a),
                         reinterpret_cast<const std::uint32_t*>(b), networks_);
  }
}

WeightedCounts PackedSeries::weighted_counts(std::size_t i, std::size_t j,
                                             std::span<const double> w,
                                             UnknownPolicy policy,
                                             double pessimistic_total) const {
  if (i >= rows() || j >= rows()) {
    throw std::out_of_range("PackedSeries::weighted_counts");
  }
  if (w.size() != networks_) {
    throw std::invalid_argument("PackedSeries: weight size mismatch");
  }
  const std::byte* a = row_ptr(i);
  const std::byte* b = row_ptr(j);
  switch (width_) {
    case 1:
      return weighted_impl(reinterpret_cast<const std::uint8_t*>(a),
                           reinterpret_cast<const std::uint8_t*>(b), w.data(),
                           networks_, policy, pessimistic_total);
    case 2:
      return weighted_impl(reinterpret_cast<const std::uint16_t*>(a),
                           reinterpret_cast<const std::uint16_t*>(b), w.data(),
                           networks_, policy, pessimistic_total);
    default:
      return weighted_impl(reinterpret_cast<const std::uint32_t*>(a),
                           reinterpret_cast<const std::uint32_t*>(b), w.data(),
                           networks_, policy, pessimistic_total);
  }
}

SiteId PackedSeries::value_at(std::size_t row, std::size_t n) const {
  const std::byte* p = row_ptr(row) + n * width_;
  switch (width_) {
    case 1: {
      std::uint8_t x;
      std::memcpy(&x, p, sizeof x);
      return x;
    }
    case 2: {
      std::uint16_t x;
      std::memcpy(&x, p, sizeof x);
      return x;
    }
    default: {
      SiteId x;
      std::memcpy(&x, p, sizeof x);
      return x;
    }
  }
}

std::vector<DeltaEntry> PackedSeries::delta_between(std::size_t from,
                                                    std::size_t to) const {
  if (from >= rows() || to >= rows()) {
    throw std::out_of_range("PackedSeries::delta_between");
  }
  std::vector<DeltaEntry> delta;
  delta_between_bounded(from, to, simd::kNoCap, delta);
  return delta;
}

bool PackedSeries::delta_between_bounded(std::size_t from, std::size_t to,
                                         std::size_t cap,
                                         std::vector<DeltaEntry>& out) const {
  if (from >= rows() || to >= rows()) {
    throw std::out_of_range("PackedSeries::delta_between_bounded");
  }
  out.clear();
  const std::byte* a = row_ptr(from);
  const std::byte* b = row_ptr(to);
  const simd::KernelTable& k = simd::active();
  switch (width_) {
    case 1:
      return k.delta_u8(reinterpret_cast<const std::uint8_t*>(a),
                        reinterpret_cast<const std::uint8_t*>(b), networks_,
                        cap, out);
    case 2:
      return k.delta_u16(reinterpret_cast<const std::uint16_t*>(a),
                         reinterpret_cast<const std::uint16_t*>(b), networks_,
                         cap, out);
    default:
      return k.delta_u32(reinterpret_cast<const std::uint32_t*>(a),
                         reinterpret_cast<const std::uint32_t*>(b), networks_,
                         cap, out);
  }
}

namespace {

// The per-entry body of apply_delta with the other row's width resolved
// once; the matrix's append loop calls this |Δ| times per cached pair,
// so a per-entry width dispatch would dominate the patch itself.
template <typename T>
void apply_delta_typed(const T* row_b, std::span<const DeltaEntry> delta,
                       std::int64_t& d_matches, std::int64_t& d_known) {
  for (const DeltaEntry& d : delta) {
    const SiteId b = row_b[d.index];
    const bool b_known = b != kUnknownSite;
    d_matches -= (d.before == b && d.before != kUnknownSite);
    d_known -= (d.before != kUnknownSite && b_known);
    d_matches += (d.after == b && d.after != kUnknownSite);
    d_known += (d.after != kUnknownSite && b_known);
  }
}

}  // namespace

MatchCounts apply_delta(MatchCounts base, std::span<const DeltaEntry> delta,
                        const PackedSeries& series, std::size_t row_b) {
  std::int64_t d_matches = 0;
  std::int64_t d_known = 0;
  const std::byte* b = series.row_ptr(row_b);
  switch (series.width_) {
    case 1:
      apply_delta_typed(reinterpret_cast<const std::uint8_t*>(b), delta,
                        d_matches, d_known);
      break;
    case 2:
      apply_delta_typed(reinterpret_cast<const std::uint16_t*>(b), delta,
                        d_matches, d_known);
      break;
    default:
      apply_delta_typed(reinterpret_cast<const std::uint32_t*>(b), delta,
                        d_matches, d_known);
      break;
  }
  base.matches = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(base.matches) + d_matches);
  base.mutual_known = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(base.mutual_known) + d_known);
  return base;
}

PreparedDelta prepare_delta(std::span<const DeltaEntry> delta) {
  PreparedDelta p;
  for (const DeltaEntry& d : delta) {
    const bool before_known = d.before != kUnknownSite;
    const bool after_known = d.after != kUnknownSite;
    if (before_known && after_known) {
      p.idx_swap.push_back(d.index);
      p.before_swap.push_back(d.before);
      p.after_swap.push_back(d.after);
    } else if (after_known) {
      p.idx_gain.push_back(d.index);
      p.after_gain.push_back(d.after);
    } else if (before_known) {
      p.idx_lose.push_back(d.index);
      p.before_lose.push_back(d.before);
    }
  }
  return p;
}

MatchCounts apply_prepared(MatchCounts base, const PreparedDelta& delta,
                           const PackedSeries& series, std::size_t row_b) {
  return ColumnPatcher(series, row_b).apply(base, delta);
}

}  // namespace fenrir::core
