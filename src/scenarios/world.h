// fenrir::scenarios — the shared synthetic Internet every experiment
// runs on, plus the tooling that makes scenarios faithful to the paper.
//
// Each dataset in the paper (Table 2) becomes a scenario: a topology, a
// service, a timeline of operational and third-party events, and a probe
// sweep producing a core::Dataset. This header provides:
//
//   * make_world()           — a standard three-tier topology + route cache;
//   * PolicyFlip             — a third-party local-pref change at some AS,
//                              revertible;
//   * find_effective_flip()  — searches the topology for a flip that
//                              actually moves a target share of networks
//                              between catchments. The paper's third-party
//                              events are exactly such changes: made by an
//                              AS multiple hops upstream, invisible to the
//                              service operator, visible in catchments.
//   * make_site_mapping()    — interns service site names into a dataset's
//                              SiteTable and returns service-site -> SiteId.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "bgp/service.h"
#include "bgp/topology_gen.h"
#include "core/tables.h"
#include "rng/rng.h"

namespace fenrir::scenarios {

struct WorldConfig {
  bgp::TopologyParams topo;
  WorldConfig() {
    topo.tier1_count = 8;
    topo.tier2_count = 64;
    topo.stub_count = 1200;
    topo.seed = 0xfe11;
  }
};

struct World {
  bgp::Topology topo;
  bgp::RouteCache cache;
  /// Stubs already re-homed onto some shiftable cone; cones claim
  /// disjoint sets so every flip moves its full advertised share.
  std::unordered_set<bgp::AsIndex> cone_claimed;
};

World make_world(const WorldConfig& config = {});

/// A revertible local-pref change applied by one AS to one neighbor.
struct PolicyFlip {
  bgp::AsIndex owner = bgp::kNoAs;
  bgp::AsIndex neighbor = bgp::kNoAs;
  std::int16_t flipped = 0;
  std::int16_t original = 0;

  void apply(bgp::AsGraph& graph) const {
    graph.set_local_pref_adjust(owner, neighbor, flipped);
  }
  void revert(bgp::AsGraph& graph) const {
    graph.set_local_pref_adjust(owner, neighbor, original);
  }
};

/// Fraction of stub ASes whose catchment differs between two tables.
double catchment_shift_fraction(const bgp::Topology& topo,
                                const bgp::RoutingTable& before,
                                const bgp::RoutingTable& after);

/// Scores the effect of a candidate change: given routing before and
/// after, returns the "effective shift" compared against the search
/// bounds. The default metric is catchment_shift_fraction over stubs.
using ShiftMetric = std::function<double(const bgp::RoutingTable& before,
                                         const bgp::RoutingTable& after)>;

/// Searches multi-provider ASes for a local-pref flip whose application
/// moves a fraction of stub catchments within [min_shift, max_shift] for
/// the given anycast origins. The graph is left UNCHANGED (candidates are
/// applied and reverted during the search); apply the returned flip when
/// the event should take effect. Returns nullopt if no candidate works.
/// A custom @p metric redefines what counts as shift (e.g. "fraction of
/// stubs moving specifically from CMH to SAT").
std::optional<PolicyFlip> find_effective_flip(
    bgp::AsGraph& graph, const bgp::Topology& topo,
    const std::vector<bgp::Origin>& origins, bgp::RouteCache& cache,
    double min_shift, double max_shift, rng::Rng& rng,
    std::size_t max_candidates = 200, const ShiftMetric& metric = {});

/// Collects up to @p count flips with distinct owner ASes, each with an
/// effective shift in [min_shift, max_shift]. May return fewer if the
/// topology does not offer enough; the graph is left unchanged.
std::vector<PolicyFlip> find_effective_flips(
    bgp::AsGraph& graph, const bgp::Topology& topo,
    const std::vector<bgp::Origin>& origins, bgp::RouteCache& cache,
    double min_shift, double max_shift, rng::Rng& rng, std::size_t count,
    std::size_t max_candidates = 600);

/// A constructed third-party change with a guaranteed effect: a transit
/// ("aggregator") AS multihomed to the first providers of two service
/// origins, carrying a cone of re-homed stubs. Because a provider of an
/// origin always selects that origin's customer route, the aggregator's
/// catchment is site A or site B depending purely on its own local
/// preference — several hops away from, and invisible to, the service
/// operator. Toggling the flip moves the whole cone between the sites.
struct ShiftableCone {
  bgp::AsIndex aggregator = bgp::kNoAs;
  /// Applying prefers the B-side provider; reverting restores the A-side.
  PolicyFlip flip;
  /// The stubs whose catchment follows the aggregator.
  std::vector<bgp::AsIndex> cone_stubs;
};

/// Builds a shiftable cone between the sites hosted at @p origin_a and
/// @p origin_b, re-homing ~@p stub_fraction of the topology's stubs onto
/// the aggregator (they keep their existing providers; the new link is
/// preferred). @p asn must be unused. Throws if an origin has no provider.
/// Returns nullopt, leaving the graph untouched, when both origins have
/// the same first provider: the aggregator would have nothing to flip.
///
/// When @p verify_origins is given, the cone is checked for effectiveness
/// first: the aggregator's catchment under those anycast origins must
/// actually differ between the two provider preferences (origins placed
/// at nearby metros can share upstream routing, making a flip a no-op).
/// An ineffective cone is abandoned — no stubs re-homed, nullopt
/// returned, the inert aggregator left behind.
std::optional<ShiftableCone> add_shiftable_cone(
    World& world, bgp::AsIndex origin_a, bgp::AsIndex origin_b,
    double stub_fraction, std::uint32_t asn, rng::Rng& rng,
    const std::vector<bgp::Origin>* verify_origins = nullptr);

/// The AS of the given tier nearest to @p where (throws if none exist).
bgp::AsIndex nearest_as(const bgp::Topology& topo, const geo::Coord& where,
                        bgp::AsTier tier);

/// The @p n ASes of the given tier nearest to @p where.
std::vector<bgp::AsIndex> nearest_ases(const bgp::Topology& topo,
                                       const geo::Coord& where,
                                       bgp::AsTier tier, std::size_t n);

/// Interns @p site_names into @p sites; returns service-site-index ->
/// core::SiteId (service sites are 0..names-1 in order).
std::vector<core::SiteId> make_site_mapping(
    core::SiteTable& sites, const std::vector<std::string>& site_names);

}  // namespace fenrir::scenarios
