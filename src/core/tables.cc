#include "core/tables.h"

namespace fenrir::core {

SiteId SiteTable::intern(std::string_view name) {
  if (name == "unknown") return kUnknownSite;
  if (name == "err") return kErrorSite;
  if (name == "other") return kOtherSite;
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  const SiteId id = static_cast<SiteId>(names_.size());
  names_.emplace_back(name);
  by_name_.emplace(names_.back(), id);
  return id;
}

std::optional<SiteId> SiteTable::find(std::string_view name) const {
  if (name == "unknown") return kUnknownSite;
  if (name == "err") return kErrorSite;
  if (name == "other") return kOtherSite;
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

NetId NetworkTable::intern(std::uint64_t key) {
  const auto it = by_key_.find(key);
  if (it != by_key_.end()) return it->second;
  const NetId id = static_cast<NetId>(keys_.size());
  keys_.push_back(key);
  by_key_.emplace(key, id);
  return id;
}

std::optional<NetId> NetworkTable::find(std::uint64_t key) const {
  const auto it = by_key_.find(key);
  if (it == by_key_.end()) return std::nullopt;
  return it->second;
}

}  // namespace fenrir::core
