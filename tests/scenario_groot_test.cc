#include "scenarios/groot.h"

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/stackplot.h"
#include "core/transition.h"

namespace fenrir::scenarios {
namespace {

GrootConfig test_config() {
  GrootConfig cfg;
  cfg.vp_count = 800;
  cfg.cadence = 2 * core::kHour;  // fast test cadence
  return cfg;
}

class GrootScenarioTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { scenario_ = new GrootScenario(make_groot(test_config())); }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }
  static GrootScenario* scenario_;
};

GrootScenario* GrootScenarioTest::scenario_ = nullptr;

TEST_F(GrootScenarioTest, DatasetShape) {
  const auto& d = scenario_->figure1;
  EXPECT_EQ(d.networks.size(), 800u);
  EXPECT_EQ(d.sites.real_site_count(), 6u);
  // 8 days at 2-hour cadence.
  EXPECT_EQ(d.series.size(), 8u * 12u);
  EXPECT_EQ(d.series.front().time, core::from_date(2020, 3, 1));
}

TEST_F(GrootScenarioTest, StrDrainVisibleInStackSeries) {
  const auto& d = scenario_->figure1;
  const auto stack = core::StackSeries::compute(d);
  const auto str = *d.sites.find("STR");
  const auto nap = *d.sites.find("NAP");

  const std::size_t before = d.index_at(core::from_date(2020, 3, 2));
  const std::size_t during =
      d.index_at(core::from_date(2020, 3, 3) + 2 * core::kHour);
  // STR holds users before the drain and nearly none during it.
  EXPECT_GT(stack.value(before, str), 20.0);
  EXPECT_LT(stack.value(during, str), stack.value(before, str) * 0.05);
  // NAP absorbs them.
  EXPECT_GT(stack.value(during, nap), stack.value(before, nap));
}

TEST_F(GrootScenarioTest, DrainRevertsAndRecurs) {
  const auto& d = scenario_->figure1;
  const auto stack = core::StackSeries::compute(d);
  const auto str = *d.sites.find("STR");
  const std::size_t after_revert =
      d.index_at(core::from_date(2020, 3, 3) + 6 * core::kHour);
  const std::size_t second_drain =
      d.index_at(core::from_date(2020, 3, 5) + 2 * core::kHour);
  const std::size_t final_drain =
      d.index_at(core::from_date(2020, 3, 8));
  EXPECT_GT(stack.value(after_revert, str), 20.0);
  EXPECT_LT(stack.value(second_drain, str), 5.0);
  EXPECT_LT(stack.value(final_drain, str), 5.0);  // stays down
}

TEST_F(GrootScenarioTest, DrainStatesRecurAsIdenticalVectors) {
  // The same drain mode appears on 03-03 and 03-05: vectors from the two
  // drain windows are more similar to each other than to normal state.
  const auto& d = scenario_->figure1;
  const std::size_t drain1 =
      d.index_at(core::from_date(2020, 3, 3) + 2 * core::kHour);
  const std::size_t drain2 =
      d.index_at(core::from_date(2020, 3, 5) + 2 * core::kHour);
  const std::size_t normal = d.index_at(core::from_date(2020, 3, 2));
  const double drain_sim = core::gower_similarity(
      d.series[drain1], d.series[drain2], core::UnknownPolicy::kPessimistic);
  const double cross_sim = core::gower_similarity(
      d.series[drain1], d.series[normal], core::UnknownPolicy::kPessimistic);
  EXPECT_GT(drain_sim, cross_sim + 0.02);
}

TEST_F(GrootScenarioTest, AnalysisDetectsTheDrainEvents) {
  const auto& d = scenario_->figure1;
  core::AnalysisConfig cfg;
  const auto result = core::analyze(d, cfg);
  // Five STR events (3 drains, 2 restores) must all be found.
  std::size_t found = 0;
  for (const core::TimePoint t :
       {core::from_date(2020, 3, 3),
        core::from_date(2020, 3, 3) + 4 * core::kHour + 30 * core::kMinute,
        core::from_date(2020, 3, 5),
        core::from_date(2020, 3, 5) + 4 * core::kHour + 30 * core::kMinute,
        core::from_date(2020, 3, 7) + 12 * core::kHour}) {
    for (const auto& e : result.events) {
      if (e.time >= t && e.time < t + 4 * core::kHour) {
        ++found;
        break;
      }
    }
  }
  EXPECT_EQ(found, 5u);
}

TEST_F(GrootScenarioTest, TransitionSeriesReproducesTable3Shape) {
  const auto& d = scenario_->transition;
  ASSERT_EQ(d.series.size(), 3u);
  const auto str = *d.sites.find("STR");
  const auto nap = *d.sites.find("NAP");
  const std::size_t sites = d.sites.size();

  // 21:56 -> 22:00: the big shift, with a transient err population.
  const auto t1 = core::TransitionMatrix::compute(d.series[0], d.series[1],
                                                  sites);
  EXPECT_GT(t1.count(str, nap), 0u);
  EXPECT_GT(t1.count(str, core::kErrorSite), 0u);
  EXPECT_GT(t1.count(str, nap), t1.count(str, str));

  // 22:00 -> 22:04: the drain completes; err recovers to NAP.
  const auto t2 = core::TransitionMatrix::compute(d.series[1], d.series[2],
                                                  sites);
  EXPECT_GT(t2.count(core::kErrorSite, nap), 0u);
  EXPECT_EQ(t2.col_total(str), 0u);  // nobody at STR after completion

  // The biggest mover of phase one is STR -> NAP, like the paper's 3097.
  const auto movers = t1.top_movers(1);
  ASSERT_EQ(movers.size(), 1u);
  EXPECT_EQ(movers[0].from, str);
  EXPECT_EQ(movers[0].to, nap);
}

TEST_F(GrootScenarioTest, ThirdPartyShiftWasInjected) {
  EXPECT_TRUE(scenario_->third_party_flip_found);
  // CMH shrinks and SAT grows during 03-06 .. 03-08.
  const auto& d = scenario_->figure1;
  const auto stack = core::StackSeries::compute(d);
  const auto cmh = *d.sites.find("CMH");
  const auto sat = *d.sites.find("SAT");
  const std::size_t before = d.index_at(core::from_date(2020, 3, 5) +
                                        6 * core::kHour);
  const std::size_t during = d.index_at(core::from_date(2020, 3, 6) +
                                        6 * core::kHour);
  EXPECT_LT(stack.value(during, cmh), stack.value(before, cmh));
  EXPECT_GT(stack.value(during, sat), stack.value(before, sat));
}

// Some seeds place CMH and SAT under one first provider, where no
// third-party cone exists; the scenario must still build without it.
TEST_F(GrootScenarioTest, EverySeedBuilds) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    GrootConfig cfg = test_config();
    cfg.seed = seed;
    const GrootScenario s = make_groot(cfg);
    EXPECT_EQ(s.figure1.series.size(), 8u * 12u) << "seed " << seed;
  }
}

TEST_F(GrootScenarioTest, DeterministicRebuild) {
  const GrootScenario again = make_groot(test_config());
  ASSERT_EQ(again.figure1.series.size(), scenario_->figure1.series.size());
  for (std::size_t i = 0; i < again.figure1.series.size(); i += 17) {
    EXPECT_EQ(again.figure1.series[i].assignment,
              scenario_->figure1.series[i].assignment);
  }
}

}  // namespace
}  // namespace fenrir::scenarios
