#include "scenarios/world.h"

#include <algorithm>
#include <stdexcept>

namespace fenrir::scenarios {

World make_world(const WorldConfig& config) {
  return World{bgp::generate_topology(config.topo), bgp::RouteCache{}, {}};
}

double catchment_shift_fraction(const bgp::Topology& topo,
                                const bgp::RoutingTable& before,
                                const bgp::RoutingTable& after) {
  if (topo.stubs.empty()) return 0.0;
  std::size_t changed = 0;
  for (const bgp::AsIndex as : topo.stubs) {
    if (before.catchment(as) != after.catchment(as)) ++changed;
  }
  return static_cast<double>(changed) /
         static_cast<double>(topo.stubs.size());
}

std::optional<PolicyFlip> find_effective_flip(
    bgp::AsGraph& graph, const bgp::Topology& topo,
    const std::vector<bgp::Origin>& origins, bgp::RouteCache& cache,
    double min_shift, double max_shift, rng::Rng& rng,
    std::size_t max_candidates, const ShiftMetric& metric) {
  // Candidates: ASes with at least two providers — only they can re-prefer.
  std::vector<bgp::AsIndex> candidates;
  for (bgp::AsIndex as = 0; as < graph.as_count(); ++as) {
    std::size_t providers = 0;
    for (const auto& l : graph.node(as).links) {
      providers += (l.relation == bgp::Relation::kProvider && l.up);
    }
    if (providers >= 2) candidates.push_back(as);
  }
  rng.shuffle(candidates);
  if (candidates.size() > max_candidates) candidates.resize(max_candidates);

  const bgp::RoutingTable before = bgp::compute_routes(graph, origins);

  for (const bgp::AsIndex as : candidates) {
    const auto& route = before.at(as);
    if (!route.reachable) continue;
    for (const auto& l : graph.node(as).links) {
      if (l.relation != bgp::Relation::kProvider || !l.up) continue;
      if (l.neighbor == route.from) continue;  // already preferred
      PolicyFlip flip{as, l.neighbor, 90, l.local_pref_adjust};
      flip.apply(graph);
      const bgp::RoutingTable& after = cache.get(graph, origins);
      const double shift = metric
                               ? metric(before, after)
                               : catchment_shift_fraction(topo, before, after);
      flip.revert(graph);
      if (shift >= min_shift && shift <= max_shift) return flip;
    }
  }
  return std::nullopt;
}

std::vector<PolicyFlip> find_effective_flips(
    bgp::AsGraph& graph, const bgp::Topology& topo,
    const std::vector<bgp::Origin>& origins, bgp::RouteCache& cache,
    double min_shift, double max_shift, rng::Rng& rng, std::size_t count,
    std::size_t max_candidates) {
  std::vector<bgp::AsIndex> candidates;
  for (bgp::AsIndex as = 0; as < graph.as_count(); ++as) {
    std::size_t providers = 0;
    for (const auto& l : graph.node(as).links) {
      providers += (l.relation == bgp::Relation::kProvider && l.up);
    }
    if (providers >= 2) candidates.push_back(as);
  }
  rng.shuffle(candidates);
  if (candidates.size() > max_candidates) candidates.resize(max_candidates);

  const bgp::RoutingTable before = bgp::compute_routes(graph, origins);
  std::vector<PolicyFlip> out;
  for (const bgp::AsIndex as : candidates) {
    if (out.size() >= count) break;
    const auto& route = before.at(as);
    if (!route.reachable) continue;
    for (const auto& l : graph.node(as).links) {
      if (l.relation != bgp::Relation::kProvider || !l.up) continue;
      if (l.neighbor == route.from) continue;
      PolicyFlip flip{as, l.neighbor, 90, l.local_pref_adjust};
      flip.apply(graph);
      const bgp::RoutingTable& after = cache.get(graph, origins);
      const double shift = catchment_shift_fraction(topo, before, after);
      flip.revert(graph);
      if (shift >= min_shift && shift <= max_shift) {
        out.push_back(flip);
        break;  // one flip per owner
      }
    }
  }
  return out;
}

namespace {

bgp::AsIndex first_provider(const bgp::AsGraph& graph, bgp::AsIndex as) {
  for (const auto& l : graph.node(as).links) {
    if (l.relation == bgp::Relation::kProvider && l.up) return l.neighbor;
  }
  throw std::invalid_argument("add_shiftable_cone: origin has no provider");
}

}  // namespace

std::optional<ShiftableCone> add_shiftable_cone(
    World& world, bgp::AsIndex origin_a, bgp::AsIndex origin_b,
    double stub_fraction, std::uint32_t asn, rng::Rng& rng,
    const std::vector<bgp::Origin>* verify_origins) {
  bgp::AsGraph& graph = world.topo.graph;
  const bgp::AsIndex pa = first_provider(graph, origin_a);
  const bgp::AsIndex pb = first_provider(graph, origin_b);
  if (pa == pb) {
    // The aggregator's two legs would reach the sites through the same
    // provider: there is no preference to flip.
    return std::nullopt;
  }

  // Aggregator placed near origin A's provider.
  const bgp::AsIndex agg = graph.add_as(
      netbase::Asn(asn), bgp::AsTier::kTier2, graph.node(pa).location,
      "agg-" + std::to_string(asn));
  graph.add_link(pa, agg, bgp::Relation::kCustomer);
  graph.add_link(pb, agg, bgp::Relation::kCustomer);
  // Initially prefer the A side.
  graph.set_local_pref_adjust(agg, pa, 10);

  ShiftableCone out;
  out.aggregator = agg;
  out.flip = PolicyFlip{agg, pb, 90, 0};

  // Never re-home a service origin: it would hand the aggregator a
  // customer route to that site, which outranks both provider routes and
  // freezes the flip.
  std::unordered_set<bgp::AsIndex> skip{origin_a, origin_b};
  if (verify_origins != nullptr) {
    for (const bgp::Origin& o : *verify_origins) skip.insert(o.as);
  }

  if (verify_origins != nullptr) {
    const bgp::RoutingTable base = bgp::compute_routes(graph, *verify_origins);
    out.flip.apply(graph);
    const bgp::RoutingTable flipped =
        bgp::compute_routes(graph, *verify_origins);
    out.flip.revert(graph);
    if (base.catchment(agg) == flipped.catchment(agg)) {
      return std::nullopt;  // flip would be a routing no-op
    }
  }

  // Re-home a random slice of stubs: add the aggregator as a strongly
  // preferred additional provider.
  std::vector<bgp::AsIndex> stubs = world.topo.stubs;
  rng.shuffle(stubs);
  const std::size_t want = static_cast<std::size_t>(
      stub_fraction * static_cast<double>(world.topo.stubs.size()));
  for (const bgp::AsIndex s : stubs) {
    if (out.cone_stubs.size() >= want) break;
    if (skip.contains(s) || world.cone_claimed.contains(s)) continue;
    graph.add_link(agg, s, bgp::Relation::kCustomer);
    graph.set_local_pref_adjust(s, agg, 60);
    world.cone_claimed.insert(s);
    out.cone_stubs.push_back(s);
  }
  return out;
}

namespace {

std::vector<bgp::AsIndex> tier_members(const bgp::Topology& topo,
                                       bgp::AsTier tier) {
  switch (tier) {
    case bgp::AsTier::kTier1: return topo.tier1;
    case bgp::AsTier::kTier2: return topo.tier2;
    case bgp::AsTier::kStub: return topo.stubs;
  }
  return {};
}

}  // namespace

bgp::AsIndex nearest_as(const bgp::Topology& topo, const geo::Coord& where,
                        bgp::AsTier tier) {
  const auto out = nearest_ases(topo, where, tier, 1);
  if (out.empty()) throw std::invalid_argument("nearest_as: no ASes in tier");
  return out.front();
}

std::vector<bgp::AsIndex> nearest_ases(const bgp::Topology& topo,
                                       const geo::Coord& where,
                                       bgp::AsTier tier, std::size_t n) {
  std::vector<bgp::AsIndex> members = tier_members(topo, tier);
  std::sort(members.begin(), members.end(),
            [&](bgp::AsIndex a, bgp::AsIndex b) {
              return geo::haversine_km(where, topo.graph.node(a).location) <
                     geo::haversine_km(where, topo.graph.node(b).location);
            });
  if (members.size() > n) members.resize(n);
  return members;
}

std::vector<core::SiteId> make_site_mapping(
    core::SiteTable& sites, const std::vector<std::string>& site_names) {
  std::vector<core::SiteId> out;
  out.reserve(site_names.size());
  for (const std::string& name : site_names) {
    out.push_back(sites.intern(name));
  }
  return out;
}

}  // namespace fenrir::scenarios
