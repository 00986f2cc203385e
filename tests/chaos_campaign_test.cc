// Property tests for fenrir::chaos + measure::Campaign: the recovery
// machinery must never throw under injected faults, must account for
// every target exactly, and a killed-and-resumed campaign must produce
// bit-identical output to an uninterrupted one.
#include "measure/campaign.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "core/distance_matrix.h"
#include "core/modebook.h"
#include "core/pipeline.h"
#include "obs/events.h"
#include "obs/flight_recorder.h"
#include "obs/journal.h"
#include "obs/lineage.h"
#include "rng/rng.h"

namespace fenrir::measure {
namespace {

constexpr core::SiteId kSiteA = core::kFirstRealSite;
constexpr core::SiteId kSiteB = core::kFirstRealSite + 1;

std::vector<std::uint64_t> keys(std::size_t n) {
  std::vector<std::uint64_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = 1000 + i;
  return out;
}

/// Always answers kSiteA.
FnProber steady_prober(std::size_t n) {
  return FnProber(keys(n), [](std::size_t, core::TimePoint) {
    return ProbeReply{kSiteA, ProbeStatus::kAnswered};
  });
}

/// Answers ~answer_prob of the time, deterministically in (index, when).
FnProber flaky_prober(std::size_t n, std::uint64_t seed,
                      double answer_prob) {
  return FnProber(keys(n), [seed, answer_prob](std::size_t i,
                                               core::TimePoint t) {
    const std::uint64_t draw =
        rng::mix(seed, i, static_cast<std::uint64_t>(t));
    const double u = static_cast<double>(draw >> 11) * 0x1.0p-53;
    return u < answer_prob ? ProbeReply{kSiteA, ProbeStatus::kAnswered}
                           : ProbeReply{core::kUnknownSite,
                                        ProbeStatus::kNoReply};
  });
}

CampaignConfig fast_config() {
  CampaignConfig cfg;
  cfg.packets_per_second = 10.0;
  cfg.retry.max_attempts = 2;
  cfg.retry.backoff = 5;
  return cfg;
}

void expect_equal_results(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.series.size(), b.series.size());
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].time, b.series[i].time) << "sweep " << i;
    EXPECT_EQ(a.series[i].valid, b.series[i].valid) << "sweep " << i;
    EXPECT_EQ(a.series[i].assignment, b.series[i].assignment) << "sweep " << i;
    const SweepReport& r = a.reports[i];
    const SweepReport& s = b.reports[i];
    EXPECT_EQ(r.sweep, s.sweep);
    EXPECT_EQ(r.start, s.start);
    EXPECT_EQ(r.end, s.end);
    EXPECT_EQ(r.answered, s.answered);
    EXPECT_EQ(r.retried_out, s.retried_out);
    EXPECT_EQ(r.broken, s.broken);
    EXPECT_EQ(r.unrouted, s.unrouted);
    EXPECT_EQ(r.retries, s.retries);
    EXPECT_EQ(r.disagreements, s.disagreements);
    EXPECT_EQ(r.low_coverage, s.low_coverage);
    EXPECT_EQ(r.collector_gap, s.collector_gap);
  }
}

// --- chaos primitives ---

TEST(FaultClock, IsMonotone) {
  chaos::FaultClock clock(100);
  clock.advance(-5);
  EXPECT_EQ(clock.now(), 100);
  clock.advance(10);
  EXPECT_EQ(clock.now(), 110);
  clock.advance_to(50);
  EXPECT_EQ(clock.now(), 110);
  clock.advance_to(200);
  EXPECT_EQ(clock.now(), 200);
}

TEST(FaultPlan, EmptyPlanInjectsNothing) {
  const chaos::FaultPlan plan(7);
  EXPECT_TRUE(plan.empty());
  for (core::TimePoint t = 0; t < 100; t += 13) {
    EXPECT_FALSE(plan.probe_lost(42, t));
    EXPECT_FALSE(plan.entity_dark(42, t));
    EXPECT_FALSE(plan.collector_down(t));
  }
  EXPECT_FALSE(plan.kill_index(0, 100, 0).has_value());
}

TEST(FaultPlan, OutageWindowsAreHalfOpen) {
  chaos::FaultPlan plan;
  plan.add_outage(5, 100, 200);
  EXPECT_FALSE(plan.entity_dark(5, 99));
  EXPECT_TRUE(plan.entity_dark(5, 100));
  EXPECT_TRUE(plan.entity_dark(5, 199));
  EXPECT_FALSE(plan.entity_dark(5, 200));  // scheduled recovery
  EXPECT_FALSE(plan.entity_dark(6, 150));  // other entities unaffected
  EXPECT_TRUE(plan.probe_lost(5, 150));
}

TEST(FaultPlan, BuildersValidate) {
  chaos::FaultPlan plan;
  EXPECT_THROW(plan.add_loss_burst(10, 5, 0.5), std::invalid_argument);
  EXPECT_THROW(plan.add_loss_burst(0, 10, 1.5), std::invalid_argument);
  EXPECT_THROW(plan.add_outage(1, 10, 5), std::invalid_argument);
  EXPECT_THROW(plan.add_collector_gap(10, 5), std::invalid_argument);
  EXPECT_THROW(plan.add_kill(0, 2.0), std::invalid_argument);
}

TEST(FaultPlan, LossBurstIsDeterministicAndRoughlyCalibrated) {
  chaos::FaultPlan plan(99);
  plan.add_loss_burst(0, 1000, 0.8);
  std::size_t lost = 0;
  for (core::TimePoint t = 0; t < 1000; ++t) {
    const bool a = plan.probe_lost(7, t);
    EXPECT_EQ(a, plan.probe_lost(7, t));  // pure function of the query
    lost += a;
    EXPECT_FALSE(plan.probe_lost(7, 1000 + t));  // outside the window
  }
  EXPECT_GT(lost, 700u);
  EXPECT_LT(lost, 900u);
}

TEST(FaultPlan, KillIndexFiresOncePerKill) {
  chaos::FaultPlan plan;
  plan.add_kill(2, 0.5);
  EXPECT_FALSE(plan.kill_index(0, 100, 0).has_value());
  const auto k = plan.kill_index(2, 100, 0);
  ASSERT_TRUE(k.has_value());
  EXPECT_EQ(*k, 50u);
  // Already fired: the same kill is not offered again.
  EXPECT_FALSE(plan.kill_index(2, 100, 1).has_value());
}

TEST(FaultPlan, RandomPlanIsSeedDeterministic) {
  chaos::FaultPlan::RandomConfig cfg;
  cfg.from = 0;
  cfg.to = 30 * core::kDay;
  cfg.entity_universe = 50;
  cfg.collector_gaps = 1;
  const auto a = chaos::FaultPlan::random(11, cfg);
  const auto b = chaos::FaultPlan::random(11, cfg);
  const auto c = chaos::FaultPlan::random(12, cfg);
  EXPECT_FALSE(a.empty());
  std::size_t same = 0, diff = 0;
  for (core::TimePoint t = 0; t < cfg.to; t += core::kHour) {
    for (std::uint64_t e = 0; e < 10; ++e) {
      EXPECT_EQ(a.probe_lost(e, t), b.probe_lost(e, t));
      (a.probe_lost(e, t) == c.probe_lost(e, t)) ? ++same : ++diff;
    }
  }
  EXPECT_GT(diff, 0u) << "different seeds should disagree somewhere";
}

// --- campaign basics ---

TEST(Campaign, SteadyProberAnswersEverything) {
  const FnProber p = steady_prober(20);
  Campaign c({&p}, fast_config());
  const CampaignResult r = c.run(3);
  EXPECT_FALSE(r.interrupted);
  ASSERT_EQ(r.series.size(), 3u);
  for (const SweepReport& rep : r.reports) {
    EXPECT_TRUE(rep.accounted());
    EXPECT_EQ(rep.answered, 20u);
    EXPECT_EQ(rep.retries, 0u);
    EXPECT_DOUBLE_EQ(rep.coverage(), 1.0);
    EXPECT_DOUBLE_EQ(rep.confidence(), 1.0);
  }
  for (const core::RoutingVector& v : r.series) {
    EXPECT_TRUE(v.valid);
    for (const core::SiteId s : v.assignment) EXPECT_EQ(s, kSiteA);
  }
}

TEST(Campaign, ValidatesItsProbers) {
  EXPECT_THROW(Campaign({}, fast_config()), CampaignError);
  const FnProber a = steady_prober(5);
  const FnProber b = steady_prober(6);
  EXPECT_THROW(Campaign({&a, &b}, fast_config()), CampaignError);
  CampaignConfig bad = fast_config();
  bad.retry.max_attempts = 0;
  EXPECT_THROW(Campaign({&a}, bad), CampaignError);
}

TEST(Campaign, RetriesRecoverTransientLoss) {
  // ~50% per-attempt loss; with 3 attempts ~87% of targets answer.
  const FnProber p = flaky_prober(200, 4, 0.5);
  CampaignConfig cfg = fast_config();
  cfg.packets_per_second = 100.0;
  cfg.retry.max_attempts = 3;
  Campaign c({&p}, cfg);
  const CampaignResult r = c.run(1);
  const SweepReport& rep = r.reports.at(0);
  EXPECT_TRUE(rep.accounted());
  EXPECT_GT(rep.retries, 0u);
  EXPECT_GT(rep.answered, 150u);  // far above the ~100 of one attempt
}

TEST(Campaign, EmptyFaultPlanChangesNothing) {
  const FnProber p = flaky_prober(50, 21, 0.7);
  Campaign plain({&p}, fast_config());
  Campaign chaotic({&p}, fast_config());
  const chaos::FaultPlan empty(123);
  chaotic.set_fault_plan(&empty);
  expect_equal_results(plain.run(3), chaotic.run(3));
}

TEST(Campaign, DeterministicPerSeed) {
  const FnProber p = flaky_prober(60, 9, 0.6);
  chaos::FaultPlan::RandomConfig fc;
  fc.from = 0;
  fc.to = 100;
  fc.entity_universe = 60;
  const chaos::FaultPlan plan = chaos::FaultPlan::random(5, fc);
  Campaign a({&p}, fast_config());
  Campaign b({&p}, fast_config());
  a.set_fault_plan(&plan);
  b.set_fault_plan(&plan);
  expect_equal_results(a.run(4), b.run(4));
}

// --- graceful degradation ---

TEST(Campaign, LowCoverageSweepsAreInvalidButKept) {
  // Nobody answers: coverage 0 < floor, vector invalid, nothing thrown.
  const FnProber p = flaky_prober(30, 3, 0.0);
  Campaign c({&p}, fast_config());
  const CampaignResult r = c.run(2);
  ASSERT_EQ(r.series.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_FALSE(r.series[i].valid);
    EXPECT_TRUE(r.reports[i].low_coverage);
    EXPECT_TRUE(r.reports[i].accounted());
    EXPECT_EQ(r.reports[i].retried_out, 30u);
  }
  // An all-dark sweep indicts the campaign, not the targets: health
  // bookkeeping is frozen and no breaker opens.
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(c.health(i).state, BreakerState::kClosed);
    EXPECT_EQ(c.health(i).trips, 0u);
  }
}

TEST(Campaign, CollectorGapKeepsTimelineSlot) {
  const FnProber p = steady_prober(10);
  CampaignConfig cfg = fast_config();
  Campaign probe_timing({&p}, cfg);
  const core::TimePoint s1 = probe_timing.schedule().probe_time(1, 0);
  chaos::FaultPlan plan;
  plan.add_collector_gap(s1, s1 + 1);  // swallow exactly sweep 1
  Campaign c({&p}, cfg);
  c.set_fault_plan(&plan);
  const CampaignResult r = c.run(3);
  ASSERT_EQ(r.series.size(), 3u);
  EXPECT_TRUE(r.series[0].valid);
  EXPECT_FALSE(r.series[1].valid);
  EXPECT_TRUE(r.series[2].valid);
  EXPECT_TRUE(r.reports[1].collector_gap);
  // The data plane still worked: accounting reflects the probes.
  EXPECT_EQ(r.reports[1].answered, 10u);
  for (const core::SiteId s : r.series[1].assignment) {
    EXPECT_EQ(s, core::kUnknownSite);
  }
}

TEST(Campaign, BreakerOpensCoolsAndRetrials) {
  // Target 0 is persistently dark; the rest answer. Floor low enough
  // that health updates stay live.
  const auto k = keys(4);
  const FnProber p(k, [](std::size_t i, core::TimePoint) {
    return i == 0 ? ProbeReply{core::kUnknownSite, ProbeStatus::kNoReply}
                  : ProbeReply{kSiteA, ProbeStatus::kAnswered};
  });
  CampaignConfig cfg = fast_config();
  cfg.breaker.open_after = 2;
  cfg.breaker.cooldown_sweeps = 1;
  Campaign c({&p}, cfg);
  const CampaignResult r = c.run(5);
  // Sweeps 0-1 retry target 0 out; after sweep 1 the breaker opens.
  EXPECT_EQ(r.reports[0].retried_out, 1u);
  EXPECT_EQ(r.reports[1].retried_out, 1u);
  // Sweep 2 skips it (cooldown), sweep 3 sends the half-open trial,
  // which fails and re-opens, so sweep 4 skips again.
  EXPECT_EQ(r.reports[2].broken, 1u);
  EXPECT_EQ(r.reports[3].retried_out, 1u);
  EXPECT_EQ(r.reports[4].broken, 1u);
  for (const SweepReport& rep : r.reports) EXPECT_TRUE(rep.accounted());
  EXPECT_EQ(c.health(0).state, BreakerState::kOpen);
  EXPECT_EQ(c.health(0).reason, BreakReason::kPersistentlyDark);
  EXPECT_EQ(c.health(0).trips, 2u);
  EXPECT_EQ(c.health(1).trips, 0u);
}

TEST(Campaign, UnroutedTargetsAreNotRetried) {
  const auto k = keys(6);
  const FnProber p(k, [](std::size_t i, core::TimePoint) {
    return i < 2 ? ProbeReply{core::kUnknownSite, ProbeStatus::kUnrouted}
                 : ProbeReply{kSiteA, ProbeStatus::kAnswered};
  });
  Campaign c({&p}, fast_config());
  const CampaignResult r = c.run(1);
  EXPECT_EQ(r.reports[0].unrouted, 2u);
  EXPECT_EQ(r.reports[0].retries, 0u);
  EXPECT_TRUE(r.reports[0].accounted());
  // Unrouted is a verdict, not a miss: no breaker pressure.
  EXPECT_EQ(c.health(0).consecutive_misses, 0u);
}

TEST(Campaign, FoldPhiMatchesAppendLoopOverTheSweepSeries) {
  // A campaign's sweep series folded through one
  // SimilarityMatrix::append_batch() must reproduce the append-loop
  // matrix bit for bit. The prober mixes sites and no-replies per
  // (target, time) so the series has real churn structure.
  const FnProber prober(keys(60), [](std::size_t i, core::TimePoint t) {
    const std::uint64_t draw =
        rng::mix(21, i, static_cast<std::uint64_t>(t));
    if (draw % 8 == 0) {
      return ProbeReply{core::kUnknownSite, ProbeStatus::kNoReply};
    }
    return ProbeReply{draw % 3 == 0 ? kSiteB : kSiteA,
                      ProbeStatus::kAnswered};
  });
  Campaign c({&prober}, fast_config());
  const CampaignResult r = c.run(6);
  ASSERT_EQ(r.series.size(), 6u);

  core::SimilarityMatrix loop(core::UnknownPolicy::kPessimistic, {}, 1);
  for (const auto& v : r.series) loop.append(v);
  core::SimilarityMatrix folded(core::UnknownPolicy::kPessimistic, {}, 0);
  folded.append_batch(r.series);
  ASSERT_EQ(folded.size(), loop.size());
  for (std::size_t i = 0; i < loop.size(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_EQ(folded.phi(i, j), loop.phi(i, j)) << i << "," << j;
    }
  }
}

// --- quorum ---

TEST(QuorumMerge, MajorityWinsAndDisagreementDowngrades) {
  core::RoutingVector a{100, {kSiteA, kSiteA, core::kUnknownSite}, true};
  core::RoutingVector b{100, {kSiteA, kSiteB, kSiteB}, true};
  core::RoutingVector c{100, {kSiteA, kSiteA, core::kUnknownSite}, true};
  const QuorumMerge m = merge_quorum(std::vector{a, b, c});
  EXPECT_EQ(m.vector.assignment[0], kSiteA);  // unanimous
  EXPECT_EQ(m.vector.assignment[1], kSiteA);  // 2-1 majority
  EXPECT_EQ(m.vector.assignment[2], kSiteB);  // only known vote wins
  EXPECT_EQ(m.disagreements, 1u);
  EXPECT_NEAR(m.confidence, 1.0 - 1.0 / 3.0, 1e-12);
  EXPECT_THROW(merge_quorum({}), CampaignError);
}

TEST(QuorumMerge, TiesBreakToSmallestSiteId) {
  core::RoutingVector a{0, {kSiteB}, true};
  core::RoutingVector b{0, {kSiteA}, true};
  const QuorumMerge m = merge_quorum(std::vector{a, b});
  EXPECT_EQ(m.vector.assignment[0], kSiteA);
}

TEST(QuorumMerge, NoKnownVotesYieldsNaNConfidence) {
  // Agreement over zero votes is undefined: 1.0 would let a silent lone
  // prober masquerade as consensus, 0.0 would page on nothing. The
  // contract (campaign.h) is an explicit NaN — pinned here so nobody
  // "fixes" it to either pole without noticing.
  core::RoutingVector a{0, {core::kUnknownSite, core::kUnknownSite}, true};
  core::RoutingVector b{0, {core::kUnknownSite, core::kUnknownSite}, true};
  const QuorumMerge m = merge_quorum(std::vector{a, b});
  EXPECT_TRUE(std::isnan(m.confidence));
  EXPECT_EQ(m.disagreements, 0u);
  for (const core::SiteId s : m.vector.assignment) {
    EXPECT_EQ(s, core::kUnknownSite);
  }
  // One known vote anywhere restores a defined (and perfect) agreement.
  core::RoutingVector c{0, {kSiteA, core::kUnknownSite}, true};
  EXPECT_DOUBLE_EQ(merge_quorum(std::vector{a, c}).confidence, 1.0);
}

TEST(Campaign, MultiProberQuorumCountsDisagreements) {
  const auto k = keys(8);
  const FnProber agree1(k, [](std::size_t, core::TimePoint) {
    return ProbeReply{kSiteA, ProbeStatus::kAnswered};
  });
  const FnProber agree2(k, [](std::size_t, core::TimePoint) {
    return ProbeReply{kSiteA, ProbeStatus::kAnswered};
  });
  const FnProber dissent(k, [](std::size_t, core::TimePoint) {
    return ProbeReply{kSiteB, ProbeStatus::kAnswered};
  });
  Campaign c({&agree1, &agree2, &dissent}, fast_config());
  const CampaignResult r = c.run(1);
  EXPECT_EQ(r.reports[0].answered, 8u);
  EXPECT_EQ(r.reports[0].disagreements, 8u);
  EXPECT_DOUBLE_EQ(r.reports[0].confidence(), 0.0);
  for (const core::SiteId s : r.series[0].assignment) EXPECT_EQ(s, kSiteA);
}

// --- the accounting invariant, under random chaos ---

TEST(Campaign, AccountingIsExactUnderRandomFaultPlans) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const FnProber p = flaky_prober(40, seed, 0.65);
    chaos::FaultPlan::RandomConfig fc;
    fc.from = 0;
    fc.to = 400;
    fc.bursts = 2;
    fc.burst_length = 30;
    fc.outages = 3;
    fc.outage_length = 60;
    fc.entity_universe = 40;
    fc.collector_gaps = 1;
    fc.gap_length = 20;
    const chaos::FaultPlan plan = chaos::FaultPlan::random(seed, fc);
    Campaign c({&p}, fast_config());
    c.set_fault_plan(&plan);
    CampaignResult r;
    ASSERT_NO_THROW(r = c.run(6)) << "seed " << seed;
    ASSERT_EQ(r.series.size(), 6u) << "seed " << seed;
    for (const SweepReport& rep : r.reports) {
      EXPECT_TRUE(rep.accounted())
          << "seed " << seed << " sweep " << rep.sweep << ": "
          << rep.answered << "+" << rep.retried_out << "+" << rep.broken
          << "+" << rep.unrouted << " != " << rep.targets;
      EXPECT_GE(rep.coverage(), 0.0);
      EXPECT_LE(rep.coverage(), 1.0);
    }
  }
}

// --- checkpoint / resume ---

TEST(Campaign, KillRestartIsBitIdentical) {
  const FnProber p = flaky_prober(50, 77, 0.6);

  // Shared ambient faults; the interrupted run also gets a mid-sweep kill.
  const auto ambient = [](chaos::FaultPlan& plan) {
    plan.add_loss_burst(10, 40, 0.7);
    plan.add_outage(1010, 0, 30);
  };
  chaos::FaultPlan baseline_plan(1);
  ambient(baseline_plan);
  chaos::FaultPlan killing_plan(1);
  ambient(killing_plan);
  killing_plan.add_kill(1, 0.4);

  Campaign baseline({&p}, fast_config());
  baseline.set_fault_plan(&baseline_plan);
  const CampaignResult expected = baseline.run(4);
  EXPECT_FALSE(expected.interrupted);

  Campaign doomed({&p}, fast_config());
  doomed.set_fault_plan(&killing_plan);
  const CampaignResult partial = doomed.run(4);
  EXPECT_TRUE(partial.interrupted);
  EXPECT_LT(partial.series.size(), 4u);

  std::ostringstream checkpoint;
  doomed.save_checkpoint(checkpoint);

  // A fresh process: same probers and config, state from the checkpoint.
  Campaign resumed({&p}, fast_config());
  resumed.set_fault_plan(&killing_plan);
  std::istringstream in(checkpoint.str());
  resumed.load_checkpoint(in);
  EXPECT_EQ(resumed.next_sweep(), 1u);
  const CampaignResult completed = resumed.run(4);
  EXPECT_FALSE(completed.interrupted);  // the kill already fired

  expect_equal_results(completed, expected);
}

TEST(Campaign, JournalOfKilledCampaignIsPrefixOfUninterruptedJournal) {
  // The sweep journal's integrity story (obs/journal.h) leans on the
  // determinism invariant: a campaign killed mid-run must leave behind
  // exactly the leading lines of the journal the uninterrupted campaign
  // writes — nothing reordered, nothing half-written, and a resumed
  // campaign appending to the same file completes it bit-identically.
  const FnProber p = flaky_prober(50, 77, 0.6);
  const auto ambient = [](chaos::FaultPlan& plan) {
    plan.add_loss_burst(10, 40, 0.7);
    plan.add_outage(1010, 0, 30);
  };
  chaos::FaultPlan baseline_plan(1);
  ambient(baseline_plan);
  chaos::FaultPlan killing_plan(1);
  ambient(killing_plan);
  killing_plan.add_kill(1, 0.4);

  const std::string full_path =
      ::testing::TempDir() + "fenrir_journal_full.jsonl";
  const std::string killed_path =
      ::testing::TempDir() + "fenrir_journal_killed.jsonl";
  std::remove(full_path.c_str());
  std::remove(killed_path.c_str());

  obs::Journal full_journal;
  ASSERT_TRUE(full_journal.open(full_path, /*truncate=*/true));
  Campaign baseline({&p}, fast_config());
  baseline.set_fault_plan(&baseline_plan);
  baseline.set_journal(&full_journal);
  baseline.run(4);
  full_journal.close();

  obs::Journal killed_journal;
  ASSERT_TRUE(killed_journal.open(killed_path, /*truncate=*/true));
  Campaign doomed({&p}, fast_config());
  doomed.set_fault_plan(&killing_plan);
  doomed.set_journal(&killed_journal);
  const CampaignResult partial = doomed.run(4);
  ASSERT_TRUE(partial.interrupted);
  killed_journal.close();

  const std::vector<std::string> full = obs::read_journal(full_path);
  const std::vector<std::string> killed = obs::read_journal(killed_path);
  ASSERT_FALSE(full.empty());
  ASSERT_LT(killed.size(), full.size());
  for (std::size_t i = 0; i < killed.size(); ++i) {
    EXPECT_EQ(killed[i], full[i]) << "journal line " << i;
  }

  // Resume from a checkpoint, appending to the killed journal: the
  // finished file must equal the uninterrupted journal line for line.
  std::ostringstream checkpoint;
  doomed.save_checkpoint(checkpoint);
  obs::Journal resumed_journal;
  ASSERT_TRUE(resumed_journal.open(killed_path, /*truncate=*/false));
  Campaign resumed({&p}, fast_config());
  resumed.set_fault_plan(&killing_plan);
  std::istringstream in(checkpoint.str());
  resumed.load_checkpoint(in);
  resumed.set_journal(&resumed_journal);
  resumed.run(4);
  resumed_journal.close();

  const std::vector<std::string> completed = obs::read_journal(killed_path);
  ASSERT_EQ(completed.size(), full.size());
  for (std::size_t i = 0; i < completed.size(); ++i) {
    EXPECT_EQ(completed[i], full[i]) << "journal line " << i;
  }
  std::remove(full_path.c_str());
  std::remove(killed_path.c_str());
}

namespace {

/// Event lines carry a wall-clock "ts" that legitimately differs
/// between two runs of the same deterministic campaign; strip it so the
/// rest of the line can be compared verbatim.
std::string without_ts(const std::string& line) {
  const auto at = line.find("\"ts\":");
  if (at == std::string::npos) return line;
  const auto comma = line.find(',', at);
  if (comma == std::string::npos) return line;
  return line.substr(0, at) + line.substr(comma + 1);
}

std::string event_type(const std::string& line) {
  const auto at = line.find("\"type\":\"");
  if (at == std::string::npos) return "";
  const auto end = line.find('"', at + 8);
  return end == std::string::npos ? "" : line.substr(at + 8, end - at - 8);
}

}  // namespace

TEST(Campaign, EventLogOfKilledCampaignIsPrefixOfUninterruptedLog) {
  // The detection event stream (obs/events.h) rides the same per-sweep
  // deterministic order as the journal, so a chaos-killed campaign's
  // --events-out file must be a valid JSONL prefix of the uninterrupted
  // run's — modulo the wall-clock "ts" stamps, which carry no analysis
  // meaning. Target 0 is persistently dark so breaker events fire
  // before and after the kill point.
  const auto k = keys(4);
  const FnProber p(k, [](std::size_t i, core::TimePoint) {
    return i == 0 ? ProbeReply{core::kUnknownSite, ProbeStatus::kNoReply}
                  : ProbeReply{kSiteA, ProbeStatus::kAnswered};
  });
  CampaignConfig cfg = fast_config();
  cfg.breaker.open_after = 2;
  cfg.breaker.cooldown_sweeps = 1;
  chaos::FaultPlan killing_plan;
  killing_plan.add_kill(2, 0.5);

  const std::string full_path =
      ::testing::TempDir() + "fenrir_events_full.jsonl";
  const std::string killed_path =
      ::testing::TempDir() + "fenrir_events_killed.jsonl";
  std::remove(full_path.c_str());
  std::remove(killed_path.c_str());

  {
    obs::event_bus().reset();
    obs::JsonlEventSink sink;
    ASSERT_TRUE(sink.open(full_path, /*truncate=*/true));
    obs::event_bus().add_sink(&sink);
    Campaign baseline({&p}, cfg);
    baseline.run(5);
    obs::event_bus().remove_sink(&sink);
  }
  std::ostringstream checkpoint;
  {
    obs::event_bus().reset();
    obs::JsonlEventSink sink;
    ASSERT_TRUE(sink.open(killed_path, /*truncate=*/true));
    obs::event_bus().add_sink(&sink);
    Campaign doomed({&p}, cfg);
    doomed.set_fault_plan(&killing_plan);
    const CampaignResult partial = doomed.run(5);
    ASSERT_TRUE(partial.interrupted);
    doomed.save_checkpoint(checkpoint);
    obs::event_bus().remove_sink(&sink);
  }

  // Both files read back cleanly (torn-tail-tolerant framing), and the
  // killed log is a strict, in-order prefix with gap-free seqs.
  const std::vector<std::string> full = obs::read_journal(full_path);
  const std::vector<std::string> killed = obs::read_journal(killed_path);
  ASSERT_FALSE(full.empty());
  ASSERT_LT(killed.size(), full.size());
  for (std::size_t i = 0; i < killed.size(); ++i) {
    EXPECT_EQ(without_ts(killed[i]), without_ts(full[i]))
        << "event line " << i;
    EXPECT_NE(killed[i].find("\"seq\":" + std::to_string(i + 1)),
              std::string::npos)
        << "seq gap at line " << i;
  }

  // Resume appending to the killed log: the record completes with a
  // campaign_resumed marker spliced in, then the same remaining events.
  {
    obs::event_bus().reset();
    obs::JsonlEventSink sink;
    ASSERT_TRUE(sink.open(killed_path, /*truncate=*/false));
    obs::event_bus().add_sink(&sink);
    Campaign resumed({&p}, cfg);
    resumed.set_fault_plan(&killing_plan);
    std::istringstream in(checkpoint.str());
    resumed.load_checkpoint(in);
    resumed.run(5);
    obs::event_bus().remove_sink(&sink);
  }
  const std::vector<std::string> completed = obs::read_journal(killed_path);
  std::vector<std::string> expected_types;
  for (const std::string& line : full) {
    expected_types.push_back(event_type(line));
    if (expected_types.size() == killed.size()) {
      expected_types.push_back("campaign_resumed");
    }
  }
  ASSERT_EQ(completed.size(), expected_types.size());
  for (std::size_t i = 0; i < completed.size(); ++i) {
    EXPECT_EQ(event_type(completed[i]), expected_types[i])
        << "event line " << i;
  }
  std::remove(full_path.c_str());
  std::remove(killed_path.c_str());
}

namespace {

/// A prober whose sweep-level routing flips between two states, so a
/// classified series has real mode structure: new modes, repeats, and
/// recurrences (the drain state returning).
FnProber mode_churn_prober(std::size_t n) {
  return FnProber(keys(n), [](std::size_t i, core::TimePoint t) {
    // Under fast_config 40 targets at 10 pps give a 5-second sweep
    // period; the bucket tracks the sweep, draining every third one.
    const std::uint64_t sweep_bucket = static_cast<std::uint64_t>(t) / 5;
    const bool drained = (sweep_bucket % 3) == 1;
    if (rng::mix(55, i, sweep_bucket) % 16 == 0) {
      return ProbeReply{core::kUnknownSite, ProbeStatus::kNoReply};
    }
    return ProbeReply{drained ? kSiteB : kSiteA, ProbeStatus::kAnswered};
  });
}

/// Classifies @p series through a fresh ModeBook, recording into the
/// global lineage store. @p record_from disables recording for the
/// leading rows — the resume path replays the already-logged prefix to
/// re-derive book state without re-recording it.
void classify_into_lineage(const std::vector<core::RoutingVector>& series,
                           std::size_t record_from = 0) {
  core::ModeBook book;
  obs::lineage().set_capacity(0);
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (i == record_from) obs::lineage().set_capacity(512);
    book.observe(series[i]);
  }
}

}  // namespace

TEST(Campaign, LineageLogOfKilledRunIsPrefixAndResumeCompletesIt) {
  // The tentpole's chaos contract: a run killed mid-campaign leaves a
  // lineage log whose ts-stripped lines are a strict prefix of the
  // uninterrupted run's, and a resumed run appending to that file
  // completes the decision sequence bit-identically (ids stay
  // gap-free across the splice).
  const FnProber p = mode_churn_prober(40);
  chaos::FaultPlan killing_plan;
  killing_plan.add_kill(3, 0.5);

  Campaign baseline({&p}, fast_config());
  const CampaignResult expected = baseline.run(6);
  ASSERT_FALSE(expected.interrupted);
  Campaign doomed({&p}, fast_config());
  doomed.set_fault_plan(&killing_plan);
  const CampaignResult partial = doomed.run(6);
  ASSERT_TRUE(partial.interrupted);
  const std::size_t k = partial.series.size();
  ASSERT_LT(k, expected.series.size());
  ASSERT_GT(k, 0u);

  const std::string full_path =
      ::testing::TempDir() + "fenrir_lineage_full.jsonl";
  const std::string killed_path =
      ::testing::TempDir() + "fenrir_lineage_killed.jsonl";
  std::remove(full_path.c_str());
  std::remove(killed_path.c_str());

  obs::lineage().reset();
  ASSERT_TRUE(obs::lineage().open_log(full_path, /*truncate=*/true));
  classify_into_lineage(expected.series);
  obs::lineage().close_log();

  obs::lineage().reset();
  ASSERT_TRUE(obs::lineage().open_log(killed_path, /*truncate=*/true));
  classify_into_lineage(partial.series);
  obs::lineage().close_log();

  const std::vector<std::string> full = obs::read_journal(full_path);
  const std::vector<std::string> killed = obs::read_journal(killed_path);
  ASSERT_EQ(full.size(), expected.series.size());  // every sweep decided
  ASSERT_EQ(killed.size(), k);
  for (std::size_t i = 0; i < killed.size(); ++i) {
    EXPECT_EQ(without_ts(killed[i]), without_ts(full[i]))
        << "lineage line " << i;
  }
  // The full run saw the churn pattern recur: at least one line says so.
  bool any_recurrence = false;
  for (const std::string& line : full) {
    any_recurrence |=
        line.find("\"verdict\":\"recurrence\"") != std::string::npos;
  }
  EXPECT_TRUE(any_recurrence);

  // Resume in a "fresh process": re-derive the book deterministically by
  // replaying the already-logged prefix with recording off, then append
  // the remaining decisions to the killed log. open_log(truncate=false)
  // continues the id sequence from the file.
  obs::lineage().reset();
  ASSERT_TRUE(obs::lineage().open_log(killed_path, /*truncate=*/false));
  classify_into_lineage(expected.series, /*record_from=*/k);
  obs::lineage().close_log();

  const std::vector<std::string> completed = obs::read_journal(killed_path);
  ASSERT_EQ(completed.size(), full.size());
  for (std::size_t i = 0; i < completed.size(); ++i) {
    EXPECT_EQ(without_ts(completed[i]), without_ts(full[i]))
        << "lineage line " << i;
    // Gap-free ids across the kill/resume splice.
    const auto rec = obs::parse_record_json(completed[i]);
    ASSERT_TRUE(rec.has_value()) << "lineage line " << i;
    EXPECT_EQ(rec->id, i + 1) << "lineage line " << i;
  }
  obs::lineage().reset();
  obs::lineage().set_capacity(512);
  std::remove(full_path.c_str());
  std::remove(killed_path.c_str());
}

TEST(Campaign, BlackboxDumpReconstructsPreKillDecisions) {
  // The flight recorder's post-mortem contract: after a mid-campaign
  // kill, `blackbox dump` on the on-disk ring — never sealed, exactly
  // what a SIGKILL leaves — reconstructs the final pre-kill decision
  // records verbatim.
  const FnProber p = mode_churn_prober(40);
  chaos::FaultPlan killing_plan;
  killing_plan.add_kill(3, 0.5);
  Campaign doomed({&p}, fast_config());
  doomed.set_fault_plan(&killing_plan);
  const CampaignResult partial = doomed.run(6);
  ASSERT_TRUE(partial.interrupted);
  ASSERT_GT(partial.series.size(), 1u);

  const std::string ring_path = ::testing::TempDir() + "fenrir_kill.ring";
  std::remove(ring_path.c_str());
  obs::FlightRecorder recorder;
  obs::FlightRecorder::Config cfg;
  cfg.slots = 8;  // smaller than some histories: the LAST decisions win
  ASSERT_TRUE(recorder.open(ring_path, cfg));
  obs::lineage().reset();
  obs::lineage().set_capacity(512);
  obs::lineage().add_sink(&recorder);
  classify_into_lineage(partial.series);
  obs::lineage().remove_sink(&recorder);

  // Dump the file as `fenrirctl blackbox dump` would after the process
  // died: the mapping is live, the header never sealed.
  const auto report = obs::FlightRecorder::dump(ring_path);
  EXPECT_FALSE(report.sealed);
  EXPECT_EQ(report.torn_slots, 0u);
  EXPECT_EQ(report.written_total, partial.series.size());
  const std::size_t kept = std::min<std::size_t>(8, partial.series.size());
  ASSERT_EQ(report.entries.size(), kept);
  const auto records = obs::lineage().since(0);
  ASSERT_EQ(records.size(), partial.series.size());
  for (std::size_t i = 0; i < kept; ++i) {
    const obs::DecisionRecord& want =
        records[records.size() - kept + i];
    EXPECT_EQ(report.entries[i].kind, obs::FlightRecorder::Kind::kDecision);
    EXPECT_EQ(report.entries[i].payload, obs::record_json(want))
        << "ring entry " << i;
  }
  recorder.close("clean shutdown");
  obs::lineage().reset();
  obs::lineage().set_capacity(512);
  std::remove(ring_path.c_str());
}

TEST(Campaign, CheckpointRoundTripsBetweenSweeps) {
  const FnProber p = flaky_prober(25, 8, 0.5);
  Campaign a({&p}, fast_config());
  a.run(2);
  std::ostringstream out;
  a.save_checkpoint(out);

  Campaign b({&p}, fast_config());
  std::istringstream in(out.str());
  b.load_checkpoint(in);
  EXPECT_EQ(b.next_sweep(), 2u);
  expect_equal_results(a.run(5), b.run(5));
}

TEST(Campaign, CheckpointRejectsGarbage) {
  const FnProber p = steady_prober(5);
  Campaign c({&p}, fast_config());
  const auto expect_reject = [&](const std::string& text) {
    std::istringstream in(text);
    EXPECT_THROW(c.load_checkpoint(in), CampaignError) << text;
  };
  expect_reject("");
  expect_reject("not,a,checkpoint\nx,y\nz,z\n");
  expect_reject("#fenrir-campaign-checkpoint,v99\ntargets,5,probers,1\n"
                "position,0,0,0,0\n");
  // Wrong target count: the checkpoint belongs to another campaign.
  expect_reject("#fenrir-campaign-checkpoint,v2\ntargets,9,probers,1\n"
                "position,0,0,0,0\n");
  EXPECT_THROW(c.load_checkpoint_file("/nonexistent/ckpt.csv"),
               CampaignError);
}

// --- end to end: a degraded campaign still feeds analyze() ---

TEST(Campaign, DegradedSeriesSurvivesAnalysis) {
  const FnProber p = flaky_prober(40, 13, 0.75);
  chaos::FaultPlan plan(2);
  plan.add_loss_burst(0, 30, 0.95);  // sweep 0 mostly dark
  CampaignConfig cfg = fast_config();
  cfg.idle_gap = 100;  // keep the burst confined to sweep 0
  cfg.coverage_floor = 0.5;
  Campaign c({&p}, cfg);
  c.set_fault_plan(&plan);
  const CampaignResult r = c.run(5);

  core::Dataset data;
  data.name = "chaos campaign";
  for (std::size_t i = 0; i < 40; ++i) data.networks.intern(1000 + i);
  data.sites.intern("alpha");  // kFirstRealSite, matching kSiteA
  data.series = r.series;
  ASSERT_NO_THROW(data.check_consistent());
  ASSERT_NO_THROW(core::analyze(data, core::AnalysisConfig{}));

  // Low-coverage sweeps are present-but-invalid, not silently dropped.
  ASSERT_EQ(data.series.size(), 5u);
  EXPECT_FALSE(data.series[0].valid);
  EXPECT_TRUE(r.reports[0].low_coverage);
}

}  // namespace
}  // namespace fenrir::measure
