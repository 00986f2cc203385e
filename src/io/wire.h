// fenrir::io — little-endian wire primitives of the FENRSEG1 segment
// store (io/segment_store.h).
//
// The store's byte dialect: integers little-endian, doubles as IEEE-754
// bit patterns in a u64, bulk word arrays appended in one memcpy (hosts
// are little-endian, compare_kernels.h), and a 4-lane multiply–rotate
// payload checksum
// over segment records and the manifest. The store's identity hashes
// (IdentityHash below) run on the same multiply–rotate lanes, fed
// 64-bit words by value.
//
// Everything here is header-only and allocation-free except the
// std::string appends the put_* writers perform.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "core/dataset_io.h"

namespace fenrir::io::wire {

// The multiply–rotate lane both hashes below are built from.
inline constexpr std::uint64_t kLaneC1 = 0x9E3779B97F4A7C15ull;
inline constexpr std::uint64_t kLaneC2 = 0xD6E8FEB86659FD93ull;
inline constexpr std::uint64_t kLaneSeed[4] = {
    kLaneC1, kLaneC2, kLaneC1 ^ 0x5555555555555555ull,
    kLaneC2 ^ 0x3333333333333333ull};

/// One lane step. A bijection in @p h for fixed @p w and in @p w for
/// fixed @p h, so a single changed word always changes the lane.
inline std::uint64_t lane_mix(std::uint64_t h, std::uint64_t w) {
  h ^= w * kLaneC2;
  h = std::rotl(h, 27);
  return h * kLaneC1;
}

// The checksum of each segment record and of the manifest: four
// independent multiply–rotate lanes over 64-bit words, folded to 32
// bits. The target is bit rot and truncation, not adversarial
// collisions, and resuming a long watch decodes tens of megabytes — a
// table-driven CRC at a few hundred MB/s would cost more than the rest
// of the decode combined, while the four lanes keep the multiplier
// latency off the critical path and run at memory speed.
inline std::uint32_t payload_checksum(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h[4] = {kLaneSeed[0], kLaneSeed[1], kLaneSeed[2],
                        kLaneSeed[3]};
  std::size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    std::uint64_t w[4];
    std::memcpy(w, p + i, 32);
    h[0] = lane_mix(h[0], w[0]);
    h[1] = lane_mix(h[1], w[1]);
    h[2] = lane_mix(h[2], w[2]);
    h[3] = lane_mix(h[3], w[3]);
  }
  // Up to 31 bytes remain: each whole word goes to the next lane, then
  // the last 0..7 bytes as one zero-filled word — every byte reaches a
  // lane_mix on its own, so no change to one of them can hide.
  std::size_t lane = 0;
  for (; i + 8 <= size; i += 8, ++lane) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h[lane] = lane_mix(h[lane], w);
  }
  std::uint64_t tail = 0;
  for (int k = 0; i < size; ++i, ++k) {
    tail |= static_cast<std::uint64_t>(p[i]) << (8 * k);
  }
  h[lane] = lane_mix(h[lane], tail);
  std::uint64_t out = lane_mix(lane_mix(lane_mix(h[0], h[1]), h[2]), h[3]) ^
                      static_cast<std::uint64_t>(size);
  out ^= out >> 32;
  return static_cast<std::uint32_t>(out);
}

// --- little-endian primitives -------------------------------------------

inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

inline void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

inline void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

inline void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

// Bulk little-endian append of @p count 8-byte words, in one append.
// The big sections (Φ columns) are megabytes per record at paper scale;
// a per-element put_u64 would dominate the spill.
inline void put_u64_array(std::string& out, const void* words,
                          std::size_t count) {
  out.append(static_cast<const char*>(words), count * 8);
}

inline void patch_u64(std::string& out, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[at + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
}

/// Bounds-checked reads over a validated payload. The length and CRC
/// checks run first, so an overrun here means internal inconsistency
/// (crafted or miswritten sections), not bit rot. @p what prefixes the
/// diagnostics so a segment failure and a manifest failure stay
/// distinguishable ("segment manifest: malformed section — ...").
struct Reader {
  const unsigned char* p;
  std::size_t size;
  std::size_t off = 0;
  const char* what;

  void need(std::size_t k) const {
    if (size - off < k) {
      throw core::DatasetIoError(
          std::string(what) +
          ": malformed section — a field extends past the recorded "
          "payload");
    }
  }
  std::uint8_t get_u8() {
    need(1);
    return p[off++];
  }
  std::uint32_t get_u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(p[off + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    off += 4;
    return v;
  }
  std::uint64_t get_u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(p[off + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    off += 8;
    return v;
  }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  /// A u64 count that is about to size a container: cap it by what the
  /// remaining payload could possibly hold for @p element_bytes-sized
  /// elements, so a crafted count cannot drive a huge allocation.
  std::size_t get_count(std::size_t element_bytes) {
    const std::uint64_t v = get_u64();
    if (element_bytes > 0 && v > (size - off) / element_bytes) {
      throw core::DatasetIoError(
          std::string(what) +
          ": malformed section — a count exceeds the recorded "
          "payload");
    }
    return static_cast<std::size_t>(v);
  }
  /// Steps over @p k bytes and returns where they start — zero-copy
  /// access to a packed array.
  const unsigned char* take(std::size_t k) {
    need(k);
    const unsigned char* at = p + off;
    off += k;
    return at;
  }
  void get_bytes(void* dst, std::size_t k) {
    need(k);
    if (k == 0) return;  // an empty array's dst may be null
    std::memcpy(dst, p + off, k);
    off += k;
  }
  /// Bulk read of @p count little-endian 8-byte words — the decode-side
  /// twin of put_u64_array, one memcpy.
  void get_u64_array(void* dst, std::size_t count) {
    get_bytes(dst, count * 8);
  }
};

// --- identity hash --------------------------------------------------------

/// The segment store's identity hash: payload_checksum's four lanes over
/// a stream of 64-bit words (word k feeds lane k mod 4), folded, mixed
/// with the word count, and finished with a 64-bit avalanche. Callers
/// build each word by value — network keys and weight bit patterns one
/// to a word, name bytes eight to a word, low first — so the result is
/// the same on every host with no byte-order branch. A zero-filled last
/// word reads like explicit zeros, so callers add a length before each
/// variable-length run.
/// Like the checksum it guards against mix-ups and bit rot, not
/// adversaries.
class IdentityHash {
 public:
  void add(std::uint64_t w) {
    lanes_[words_ & 3] = lane_mix(lanes_[words_ & 3], w);
    ++words_;
  }

  /// Adds @p count words, word(i) for i in [0, count), four lanes per
  /// step with the lane state in registers.
  template <class Word>
  void add_words(std::size_t count, Word&& word) {
    std::size_t i = 0;
    for (; i < count && (words_ & 3) != 0; ++i) add(word(i));
    std::uint64_t a = lanes_[0], b = lanes_[1], c = lanes_[2], d = lanes_[3];
    const std::size_t start = i;
    for (; i + 4 <= count; i += 4) {
      a = lane_mix(a, word(i));
      b = lane_mix(b, word(i + 1));
      c = lane_mix(c, word(i + 2));
      d = lane_mix(d, word(i + 3));
    }
    lanes_[0] = a;
    lanes_[1] = b;
    lanes_[2] = c;
    lanes_[3] = d;
    words_ += i - start;
    for (; i < count; ++i) add(word(i));
  }

  /// Adds bytes eight to a word, little-endian by value; a short last
  /// word is zero-filled.
  void add_bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; i += 8) {
      std::uint64_t w = 0;
      for (std::size_t k = 0; k < 8 && i + k < size; ++k) {
        w |= static_cast<std::uint64_t>(p[i + k]) << (8 * k);
      }
      add(w);
    }
  }

  /// The hash of the words added so far; the avalanche is the MurmurHash3
  /// 64-bit finalizer.
  std::uint64_t finish() const {
    std::uint64_t x =
        lane_mix(lane_mix(lane_mix(lanes_[0], lanes_[1]), lanes_[2]),
                 lanes_[3]) ^
        words_;
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ull;
    x ^= x >> 33;
    return x;
  }

 private:
  std::uint64_t lanes_[4] = {kLaneSeed[0], kLaneSeed[1], kLaneSeed[2],
                             kLaneSeed[3]};
  std::uint64_t words_ = 0;
};

}  // namespace fenrir::io::wire
