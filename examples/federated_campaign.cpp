// Federated campaign: three probers, one merged truth, graceful decay —
//
//   1. build a synthetic anycast deployment (three sites) with a
//      mid-run drain, the same routing story as quickstart,
//   2. split the hitlist across three member probers with overlapping
//      slices, skewed clocks (offset + drift), and staggered in-epoch
//      phases, wrapped in a measure::Federation,
//   3. send one member fully dark for three epochs with a
//      chaos::FaultPlan loss burst: it is declared dead, its last
//      answers serve as "stale" until the staleness bound ages them
//      out, and it rejoins when the burst ends,
//   4. kill ANOTHER member mid-sweep, checkpoint the whole federation
//      to a directory, "restart the process", resume — and verify the
//      resumed merge is bit-identical to an uninterrupted twin,
//   5. print the per-epoch merge reports (fresh/stale/aged-out, the
//      adaptive coverage floor) and the federation metrics.
//
// Everything is deterministic: run it twice, get the same bytes.
#include <filesystem>
#include <iostream>

#include "bgp/service.h"
#include "chaos/fault_plan.h"
#include "io/table.h"
#include "measure/campaign.h"
#include "measure/federation.h"
#include "measure/verfploeter.h"
#include "netbase/hitlist.h"
#include "obs/metrics.h"
#include "scenarios/world.h"

using namespace fenrir;

namespace {

constexpr core::TimePoint kEpoch = core::kHour;

std::vector<std::size_t> slice(std::size_t global, std::size_t index,
                               std::size_t count, std::size_t overlap) {
  const std::size_t lo = index * global / count;
  const std::size_t hi = (index + 1) * global / count;
  const std::size_t from = lo > overlap ? lo - overlap : 0;
  const std::size_t to = std::min(global, hi + overlap);
  std::vector<std::size_t> out;
  for (std::size_t g = from; g < to; ++g) out.push_back(g);
  return out;
}

void print_reports(const std::vector<measure::EpochReport>& reports) {
  io::TextTable table;
  table.header({"epoch", "fresh", "stale", "aged", "unserved", "coverage",
                "floor", "healthy", "dead", "valid"});
  for (const measure::EpochReport& r : reports) {
    table.row(r.epoch, r.fresh, r.stale, r.aged_out, r.unserved,
              io::fixed(r.coverage(), 3), io::fixed(r.floor, 3),
              r.members_healthy, r.members_dead,
              r.low_coverage ? "LOW" : "ok");
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  // --- 1. The deployment, with a drain in the middle of the run. ---
  scenarios::WorldConfig wc;
  wc.topo.stub_count = 400;
  wc.topo.seed = 77;
  scenarios::World world = scenarios::make_world(wc);
  bgp::AnycastService service(*netbase::Prefix::parse("192.0.2.0/24"));
  service.add_site(0, world.topo.stubs[5]);
  service.add_site(1, world.topo.stubs[200]);
  service.add_site(2, world.topo.stubs[395]);
  netbase::Hitlist hitlist(world.topo.blocks, 3);
  measure::VerfploeterConfig vpc;
  vpc.seed = 3;
  const measure::VerfploeterProbe probe(&hitlist, vpc);

  core::SiteTable sites;
  const std::vector<core::SiteId> site_map =
      scenarios::make_site_mapping(sites, {"alpha", "beta", "gamma"});
  const bgp::RoutingTable routing_base =
      world.cache.get(world.topo.graph, service.active_origins());
  service.set_drained(1, true);
  const bgp::RoutingTable routing_drained =
      world.cache.get(world.topo.graph, service.active_origins());
  service.set_drained(1, false);

  const core::TimePoint t0 = core::from_date(2025, 1, 1);
  const core::TimePoint drain_from = t0 + 3 * kEpoch;
  const core::TimePoint drain_to = t0 + 5 * kEpoch;

  const std::size_t global = hitlist.size();
  std::vector<std::uint64_t> keys(global);
  for (std::size_t i = 0; i < global; ++i) keys[i] = hitlist.block(i);
  const measure::FnProber world_prober(
      std::move(keys), [&](std::size_t index, core::TimePoint when) {
        const bgp::RoutingTable& routing =
            (when >= drain_from && when < drain_to) ? routing_drained
                                                    : routing_base;
        const measure::VerfploeterReply reply = probe.measure_one(
            index, when, world.topo.graph, routing, site_map);
        measure::ProbeReply out;
        out.site = reply.site;
        out.status =
            reply.outcome == measure::VerfploeterOutcome::kAnswered
                ? measure::ProbeStatus::kAnswered
                : reply.outcome == measure::VerfploeterOutcome::kUnrouted
                      ? measure::ProbeStatus::kUnrouted
                      : measure::ProbeStatus::kNoReply;
        return out;
      });

  // --- 2 + 3. Three members; the third goes dark for epochs 2-4. Fault
  // windows run on the member's LOCAL clock, so the burst converts the
  // true-time window through the member's own skew model. ---
  const chaos::ClockModel clocks[3] = {{0, 0}, {127, 180}, {-61, -90}};
  const auto make_members = [&](const std::vector<chaos::FaultPlan>& plans) {
    std::vector<measure::MemberConfig> members(3);
    for (std::size_t i = 0; i < 3; ++i) {
      members[i].name = "probe-" + std::to_string(i);
      members[i].targets = slice(global, i, 3, /*overlap=*/2);
      members[i].clock = clocks[i];
      members[i].start_offset = static_cast<core::TimePoint>(i * 600);
      members[i].faults = &plans[i];
    }
    return members;
  };
  const auto dark_burst = [&](chaos::FaultPlan& plan) {
    plan.add_loss_burst(clocks[2].to_local(t0 + 2 * kEpoch),
                        clocks[2].to_local(t0 + 5 * kEpoch), 1.0);
  };

  measure::FederationConfig fc;
  fc.global_targets = global;
  fc.start = t0;
  fc.epoch_length = kEpoch;
  fc.staleness_bound = 2;  // answers older than 2 epochs age out
  fc.dead_after = 2;       // 2 lagging epochs => dead
  fc.coverage_floor = 0.10;

  std::cout << "federation: " << global << " targets, 3 members ("
            << "slices overlap by 2; probe-2 dark epochs 2-4)\n\n";

  // --- 4. Run, die mid-sweep in probe-1, checkpoint, resume. ---
  std::vector<chaos::FaultPlan> doomed_plans(3);
  dark_burst(doomed_plans[2]);
  doomed_plans[1].add_kill(/*sweep=*/3, /*fraction=*/0.5);

  measure::Federation doomed(world_prober, fc, make_members(doomed_plans));
  const measure::FederationResult partial = doomed.run(8);
  std::cout << "killed mid-sweep in epoch " << doomed.epochs_done()
            << " (interrupted=" << (partial.interrupted ? "yes" : "no")
            << ", " << partial.series.size() << " epochs merged)\n";

  const std::filesystem::path ckpt =
      std::filesystem::temp_directory_path() / "fenrir_federated_campaign";
  doomed.save_checkpoint_dir(ckpt.string());
  std::cout << "checkpoint: " << ckpt.string() << "\n";

  // A "new process": same config, same plans, state from the directory.
  measure::Federation resumed(world_prober, fc, make_members(doomed_plans));
  resumed.load_checkpoint_dir(ckpt.string());
  const measure::FederationResult result = resumed.run(8);
  std::filesystem::remove_all(ckpt);

  // The uninterrupted twin: same ambient faults, no kill.
  std::vector<chaos::FaultPlan> calm_plans(3);
  dark_burst(calm_plans[2]);
  measure::Federation twin(world_prober, fc, make_members(calm_plans));
  const measure::FederationResult uninterrupted = twin.run(8);

  bool identical = result.series.size() == uninterrupted.series.size();
  for (std::size_t i = 0; identical && i < result.series.size(); ++i) {
    identical = result.series[i].time == uninterrupted.series[i].time &&
                result.series[i].valid == uninterrupted.series[i].valid &&
                result.series[i].assignment ==
                    uninterrupted.series[i].assignment;
  }
  std::cout << "resumed vs uninterrupted: "
            << (identical ? "bit-identical" : "DIVERGED!") << "\n\n";

  // --- 5. The merge reports and the federation metrics. ---
  print_reports(result.reports);

  // The merged epochs fold straight into the all-pairs Φ matrix through
  // the batched append path — the shape a fenrird shard would use:
  // buffer an epoch slice, fold it in one append_batch().
  core::SimilarityMatrix phi(core::UnknownPolicy::kPessimistic, {}, 0);
  phi.append_batch(result.series);
  std::cout << "\nphi over " << phi.size() << " merged epochs: "
            << "first vs last "
            << io::fixed(phi.phi(0, phi.size() - 1), 3) << "\n";
  std::cout << "\nmember state after the run:\n";
  for (std::size_t i = 0; i < resumed.member_count(); ++i) {
    std::cout << "  probe-" << i << ": health "
              << measure::to_string(resumed.member_health(i)) << ", weight "
              << io::fixed(resumed.member_weight(i), 2) << "\n";
  }

  auto& reg = obs::registry();
  std::cout << "\nfederation metrics (all three runs):\n";
  for (const char* name :
       {"fenrir_federation_epochs_total",
        "fenrir_federation_member_sweeps_total",
        "fenrir_federation_stale_served_total",
        "fenrir_federation_aged_out_total", "fenrir_federation_deaths_total",
        "fenrir_federation_rejoins_total", "fenrir_federation_resumes_total"}) {
    std::cout << "  " << name << " " << reg.counter(name).value() << "\n";
  }
  return 0;
}
