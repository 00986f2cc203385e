#include "core/compare_kernels.h"

#include <algorithm>
#include <array>
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

// Weighted variant: same left-to-right accumulation as the scalar
// reference (reordering doubles changes the bits), but branchless
// selects instead of data-dependent branches.
template <unsigned Bits>
WeightedCounts weighted_impl(const std::byte* a, const std::byte* b,
                             const double* w, std::size_t n,
                             UnknownPolicy policy, double pessimistic_total) {
  WeightedCounts out;
  if (policy == UnknownPolicy::kPessimistic) {
    for (std::size_t i = 0; i < n; ++i) {
      const SiteId x = packed_at<Bits>(a, i);
      const bool hit = x == packed_at<Bits>(b, i) && x != 0;
      out.matched += hit ? w[i] : 0.0;
    }
    out.denom = pessimistic_total;
    return out;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const SiteId x = packed_at<Bits>(a, i);
    const SiteId y = packed_at<Bits>(b, i);
    const bool known = x != 0 && y != 0;
    const bool hit = known && x == y;
    out.denom += known ? w[i] : 0.0;
    out.matched += hit ? w[i] : 0.0;
  }
  return out;
}

}  // namespace

// Scalar tier of the dispatch table (simd_dispatch.h): thin typed
// wrappers over the oracle templates above.
namespace simd {

template <std::size_t K>
std::array<PairTally, K> count_u4_scalar(const std::uint8_t* a,
                                         std::array<const std::uint8_t*, K> b,
                                         std::size_t n) {
  // Byte t holds elements 2t (low nibble) and 2t+1 (high nibble); the
  // high nibble of an odd row's last byte is not an element and is
  // never read. The inner block accumulates in 32-bit lanes the
  // compiler can vectorize; the outer loop drains them into 64-bit sums
  // well before they could wrap.
  std::array<PairTally, K> out{};
  constexpr std::size_t kBlock = 4096;
  const std::size_t full = n / 2;
  for (std::size_t t = 0; t < full;) {
    const std::size_t end = std::min(full, t + kBlock);
    std::array<std::uint32_t, K> d{}, e{};
    for (std::size_t j = t; j < end; ++j) {
      for (std::size_t k = 0; k < K; ++k) {
        const unsigned x = a[j] ^ b[k][j];
        const unsigned o = a[j] | b[k][j];
        d[k] += ((x & 0xFu) != 0) + ((x >> 4) != 0);
        e[k] += ((o & 0xFu) != 0) + ((o >> 4) != 0);
      }
    }
    for (std::size_t k = 0; k < K; ++k) out[k] += {d[k], e[k]};
    t = end;
  }
  if (n % 2 != 0) {
    for (std::size_t k = 0; k < K; ++k) {
      out[k] += {((a[full] ^ b[k][full]) & 0xFu) != 0,
                 ((a[full] | b[k][full]) & 0xFu) != 0};
    }
  }
  return out;
}

template <typename T, std::size_t K>
std::array<PairTally, K> count_scalar(const T* a, std::array<const T*, K> b,
                                      std::size_t n) {
  // Blocked and branchless like the 4-bit loop. The tests do not depend
  // on byte order, so the elements are compared as stored.
  std::array<PairTally, K> out{};
  constexpr std::size_t kBlock = 4096;
  for (std::size_t i = 0; i < n;) {
    const std::size_t end = std::min(n, i + kBlock);
    std::array<std::uint32_t, K> d{}, e{};
    for (std::size_t j = i; j < end; ++j) {
      for (std::size_t k = 0; k < K; ++k) {
        d[k] += a[j] != b[k][j];
        e[k] += (a[j] | b[k][j]) != 0;  // kUnknownSite == 0 survives packing
      }
    }
    for (std::size_t k = 0; k < K; ++k) out[k] += {d[k], e[k]};
    i = end;
  }
  return out;
}

template std::array<PairTally, 1> count_u4_scalar<1>(
    const std::uint8_t*, std::array<const std::uint8_t*, 1>, std::size_t);
template std::array<PairTally, 2> count_u4_scalar<2>(
    const std::uint8_t*, std::array<const std::uint8_t*, 2>, std::size_t);
template std::array<PairTally, 1> count_scalar<std::uint8_t, 1>(
    const std::uint8_t*, std::array<const std::uint8_t*, 1>, std::size_t);
template std::array<PairTally, 2> count_scalar<std::uint8_t, 2>(
    const std::uint8_t*, std::array<const std::uint8_t*, 2>, std::size_t);
template std::array<PairTally, 1> count_scalar<std::uint16_t, 1>(
    const std::uint16_t*, std::array<const std::uint16_t*, 1>, std::size_t);
template std::array<PairTally, 2> count_scalar<std::uint16_t, 2>(
    const std::uint16_t*, std::array<const std::uint16_t*, 2>, std::size_t);
template std::array<PairTally, 1> count_scalar<std::uint32_t, 1>(
    const std::uint32_t*, std::array<const std::uint32_t*, 1>, std::size_t);
template std::array<PairTally, 2> count_scalar<std::uint32_t, 2>(
    const std::uint32_t*, std::array<const std::uint32_t*, 2>, std::size_t);

SiteId pack_u4_scalar(const SiteId* src, std::uint8_t* dst, std::size_t n) {
  SiteId top = 0;
  const std::size_t full = n / 2;
  for (std::size_t t = 0; t < full; ++t) {
    const SiteId lo = src[2 * t], hi = src[2 * t + 1];
    top = std::max(top, std::max(lo, hi));
    dst[t] = static_cast<std::uint8_t>(lo | (hi << 4));
  }
  // An odd row's last high nibble stays 0: kUnknownSite.
  if (n % 2 != 0) {
    top = std::max(top, src[n - 1]);
    dst[full] = static_cast<std::uint8_t>(src[n - 1]);
  }
  return top;
}
SiteId pack_u8_scalar(const SiteId* src, std::uint8_t* dst, std::size_t n) {
  SiteId top = 0;
  for (std::size_t i = 0; i < n; ++i) {
    top = std::max(top, src[i]);
    dst[i] = static_cast<std::uint8_t>(src[i]);
  }
  return top;
}
SiteId pack_u16_scalar(const SiteId* src, std::uint16_t* dst, std::size_t n) {
  SiteId top = 0;
  for (std::size_t i = 0; i < n; ++i) {
    top = std::max(top, src[i]);
    dst[i] = static_cast<std::uint16_t>(src[i]);
  }
  return top;
}

}  // namespace simd

SiteId pack_row(const SiteId* src, std::size_t n, std::size_t bits,
                std::byte* dst) {
  const simd::KernelTable& k = simd::active();
  switch (bits) {
    case 4:
      return k.pack_u4(src, reinterpret_cast<std::uint8_t*>(dst), n);
    case 8:
      return k.pack_u8(src, reinterpret_cast<std::uint8_t*>(dst), n);
    case 16:
      return k.pack_u16(src, reinterpret_cast<std::uint16_t*>(dst), n);
    default:
      if (n == 0) return 0;
      std::memcpy(dst, src, 4 * n);
      return *std::max_element(src, src + n);
  }
}

void convert_packed_row(const std::byte* src, std::size_t src_bits,
                        std::byte* dst, std::size_t dst_bits, std::size_t n) {
  if (src_bits == dst_bits) {
    if (n > 0) std::memcpy(dst, src, packed_row_bytes(n, dst_bits));
    return;
  }
  // Widening: dst_bits > src_bits ≥ 4, so every destination element is
  // whole bytes, written low byte first.
  const std::size_t dst_bytes = dst_bits / 8;
  with_bits(src_bits, [&](auto b) {
    constexpr unsigned kBits = decltype(b)::value;
    for (std::size_t i = 0; i < n; ++i) {
      const SiteId v = packed_at<kBits>(src, i);
      for (std::size_t k = 0; k < dst_bytes; ++k) {
        dst[i * dst_bytes + k] = static_cast<std::byte>((v >> (8 * k)) & 0xFFu);
      }
    }
  });
}

PackedSeries PackedSeries::pack(const Dataset& dataset) {
  PackedSeries s;
  for (const RoutingVector& v : dataset.series) s.append(v);
  return s;
}

std::byte* PackedSeries::push_slot() {
  const std::size_t stride = row_bytes();
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
  known_.push_back(kKnownUnset);
  return dst;
}

void PackedSeries::append(const RoutingVector& v) {
  if (row_.empty() && networks_ == 0) {
    networks_ = v.assignment.size();
  } else if (v.assignment.size() != networks_) {
    throw std::invalid_argument("PackedSeries: vector size mismatch");
  }
  // One pass at the current width. A row with an id too wide for it
  // leaves unspecified bytes in its slot: the slot is dropped, the store
  // widens, and the row is packed again at the width it needs.
  const SiteId* src = v.assignment.data();
  const SiteId top = pack_row(src, networks_, bits_, push_slot());
  if (const std::size_t need = packed_bits_for(top); need > bits_) {
    pop_back();
    relayout(need);
    pack_row(src, networks_, bits_, push_slot());
  }
  max_id_ = std::max(max_id_, top);
}

void PackedSeries::pop_back() noexcept {
  if (row_.empty()) return;
  row_.pop_back();
  known_.pop_back();
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
  if (dst < mapped_) relayout(bits_);
  std::memcpy(const_cast<std::byte*>(row_[dst]), row_[src], row_bytes());
  known_[dst] = known_[src];
}

void PackedSeries::clear() noexcept {
  networks_ = 0;
  bits_ = 4;
  max_id_ = 0;
  mapped_ = 0;
  row_.clear();
  known_.clear();
  slabs_.clear();
  slab_rows_ = 0;
  keepalive_.reset();
}

void PackedSeries::relayout(std::size_t bits) {
  // Build the new layout beside the old one — convert_packed_row reads
  // every row, mapped ones too, through the old table — then swap it in.
  PackedSeries out;
  out.networks_ = networks_;
  out.bits_ = bits;
  out.max_id_ = max_id_;
  out.row_.reserve(row_.size());
  for (const std::byte* src : row_) {
    convert_packed_row(src, bits_, out.push_slot(), bits, networks_);
  }
  out.known_ = std::move(known_);  // a relayout keeps every element's value
  *this = std::move(out);
}

void PackedSeries::adopt_rows(std::size_t networks, std::size_t bits,
                              std::span<const std::byte* const> rows,
                              std::shared_ptr<const void> keepalive) {
  if (!row_.empty() || networks_ != 0) {
    throw std::logic_error("PackedSeries::adopt_rows: series not empty");
  }
  if (bits != 4 && bits != 8 && bits != 16 && bits != 32) {
    throw std::invalid_argument("PackedSeries::adopt_rows: bad width");
  }
  networks_ = networks;
  bits_ = bits;
  row_.assign(rows.begin(), rows.end());
  known_.assign(row_.size(), kKnownUnset);
  mapped_ = row_.size();
  keepalive_ = std::move(keepalive);
}

void PackedSeries::append_packed(const std::byte* src, std::size_t src_bits) {
  if (networks_ == 0 && row_.empty()) {
    throw std::logic_error("PackedSeries::append_packed: networks unset");
  }
  if (src_bits > bits_) relayout(src_bits);
  convert_packed_row(src, src_bits, push_slot(), bits_, networks_);
}

template <std::size_t K>
std::array<PairTally, K> PackedSeries::tally_cols(
    std::size_t i, std::array<std::size_t, K> cols, std::size_t lo,
    std::size_t n) const {
  bool bad = i >= rows() || lo > networks_ || n > networks_ - lo ||
             (bits_ == 4 && lo % 2 != 0);
  for (const std::size_t j : cols) bad = bad || j >= rows();
  if (bad) throw std::out_of_range("PackedSeries::tally");
  const std::size_t offset = lo * bits_ / 8;
  const simd::KernelTable& k = simd::active();
  // Row i's and the columns' bytes from element lo on, as T elements.
  const auto run = [&]<typename T>(simd::CountFn<T, 1> one,
                                   simd::CountFn<T, 2> two) {
    const auto at = [&](std::size_t r) {
      return reinterpret_cast<const T*>(row_ptr(r) + offset);
    };
    std::array<const T*, K> b;
    for (std::size_t c = 0; c < K; ++c) b[c] = at(cols[c]);
    if constexpr (K == 1) {
      return one(at(i), b, n);
    } else {
      return two(at(i), b, n);
    }
  };
  switch (bits_) {
    case 4: return run(k.count_u4, k.count2_u4);
    case 8: return run(k.count_u8, k.count2_u8);
    case 16: return run(k.count_u16, k.count2_u16);
    default: return run(k.count_u32, k.count2_u32);
  }
}

std::uint64_t PackedSeries::known(std::size_t r) const {
  if (r >= rows()) throw std::out_of_range("PackedSeries::known");
  if (known_[r] == kKnownUnset) {
    known_[r] = tally_cols<1>(r, {r}, 0, networks_)[0].either;
  }
  return known_[r];
}

PairTally PackedSeries::tally(std::size_t i, std::size_t j) const {
  if (i < rows() && known_[i] == kKnownUnset) {
    // Row i's first tally: one pass against {j, i} caches its count.
    const auto [t, self] = tally_cols<2>(i, {j, i}, 0, networks_);
    known_[i] = self.either;
    return t;
  }
  return tally_cols<1>(i, {j}, 0, networks_)[0];
}

PairTally PackedSeries::tally(std::size_t i, std::size_t j, std::size_t lo,
                              std::size_t n) const {
  return tally_cols<1>(i, {j}, lo, n)[0];
}

std::array<PairTally, 2> PackedSeries::tally2(std::size_t i, std::size_t j0,
                                              std::size_t j1, std::size_t lo,
                                              std::size_t n) const {
  return tally_cols<2>(i, {j0, j1}, lo, n);
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
  return with_bits(bits_, [&](auto b) {
    return weighted_impl<decltype(b)::value>(row_ptr(i), row_ptr(j), w.data(),
                                             networks_, policy,
                                             pessimistic_total);
  });
}

SiteId PackedSeries::value_at(std::size_t row, std::size_t n) const {
  return with_bits(bits_, [&](auto b) {
    return packed_at<decltype(b)::value>(row_ptr(row), n);
  });
}

}  // namespace fenrir::core
