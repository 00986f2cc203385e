// fenrir::core — symbol tables for catchment sites and networks.
//
// A routing vector assigns every network one of |S| values (paper §2.2).
// SiteTable interns site labels ("LAX", "codfw", an upstream's AS name)
// into dense SiteIds; three ids are reserved:
//
//   kUnknownSite — no observation (missing data; pessimistic in Φ)
//   kErrorSite   — probe answered but the service did not ("err")
//   kOtherSite   — response mapped to no known site ("other")
//
// Error and other are real states (the paper's transition matrices carry
// err/oth rows); only kUnknownSite is excluded from similarity matches.
//
// NetworkTable interns the measurement's network keys (a /24 block index,
// an Atlas VP id, an EDNS-CS prefix) into dense NetIds so vectors are flat
// arrays.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace fenrir::core {

using SiteId = std::uint32_t;
using NetId = std::uint32_t;

inline constexpr SiteId kUnknownSite = 0;
inline constexpr SiteId kErrorSite = 1;
inline constexpr SiteId kOtherSite = 2;
inline constexpr SiteId kFirstRealSite = 3;

class SiteTable {
 public:
  SiteTable() : names_{"unknown", "err", "other"} {}

  /// Interns @p name, returning an id >= kFirstRealSite. Reserved names
  /// ("unknown"/"err"/"other") return their reserved ids.
  SiteId intern(std::string_view name);

  std::optional<SiteId> find(std::string_view name) const;

  const std::string& name(SiteId id) const { return names_.at(id); }

  /// Total ids including the three reserved ones.
  std::size_t size() const noexcept { return names_.size(); }
  /// Real (service) sites only.
  std::size_t real_site_count() const noexcept { return names_.size() - 3; }

  /// Iterate real site ids: kFirstRealSite .. size()-1.
  SiteId first_real() const noexcept { return kFirstRealSite; }

 private:
  /// Hashes std::string and std::string_view alike, so lookups by view
  /// build no string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const noexcept {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, SiteId, NameHash, std::equal_to<>> by_name_;
};

class NetworkTable {
 public:
  /// Interns a network key, returning its dense id (stable across calls).
  NetId intern(std::uint64_t key);

  std::optional<NetId> find(std::uint64_t key) const;

  std::uint64_t key(NetId id) const { return keys_.at(id); }
  std::size_t size() const noexcept { return keys_.size(); }

 private:
  std::vector<std::uint64_t> keys_;
  std::unordered_map<std::uint64_t, NetId> by_key_;
};

}  // namespace fenrir::core
