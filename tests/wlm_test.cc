#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "pi/pi_manager.h"
#include "sched/rdbms.h"
#include "storage/catalog.h"
#include "wlm/maintenance.h"
#include "wlm/speedup.h"
#include "wlm/wlm_advisor.h"

namespace mqpi::wlm {
namespace {

using engine::QuerySpec;
using pi::QueryLoad;

std::vector<QueryLoad> RandomLoads(Rng* rng, int n, bool uniform_weights) {
  std::vector<QueryLoad> loads;
  for (int i = 0; i < n; ++i) {
    loads.push_back(QueryLoad{
        static_cast<QueryId>(i + 1), rng->Uniform(1.0, 500.0),
        uniform_weights ? 1.0 : rng->Uniform(0.5, 8.0)});
  }
  return loads;
}

// ---- SingleQuerySpeedup: unit cases -----------------------------------------------

TEST(SingleSpeedupTest, LaterFinisherPreferredWhenHeavy) {
  // Target finishes first; any later query is a candidate; the paper's
  // rule picks the heaviest-weight one.
  std::vector<QueryLoad> loads{
      {1, 100.0, 1.0}, {2, 500.0, 1.0}, {3, 600.0, 4.0}};
  auto choice = SingleQuerySpeedup::ChooseVictims(loads, 1, 1, 100.0);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(choice->victims[0], 3u);  // weight 4 beats weight 1
}

TEST(SingleSpeedupTest, EarlierFinisherChosenByCost) {
  // Target finishes last: all victims are earlier finishers; benefit is
  // c_m / C, so the largest remaining cost wins.
  std::vector<QueryLoad> loads{
      {1, 50.0, 1.0}, {2, 200.0, 1.0}, {3, 900.0, 1.0}};
  auto choice = SingleQuerySpeedup::ChooseVictims(loads, 3, 1, 100.0);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(choice->victims[0], 2u);
  EXPECT_NEAR(choice->time_saved, 2.0, 1e-9);  // 200/100
}

TEST(SingleSpeedupTest, HVictimsAreTopBenefits) {
  std::vector<QueryLoad> loads{
      {1, 400.0, 1.0}, {2, 100.0, 1.0}, {3, 200.0, 1.0}, {4, 900.0, 1.0}};
  auto choice = SingleQuerySpeedup::ChooseVictims(loads, 1, 2, 100.0);
  ASSERT_TRUE(choice.ok());
  ASSERT_EQ(choice->victims.size(), 2u);
  // Equal weights: later finisher (q4) benefit = K; earlier finishers'
  // benefit = c/C. Verify the two largest were chosen.
  EXPECT_TRUE(std::find(choice->victims.begin(), choice->victims.end(), 4u) !=
              choice->victims.end());
}

TEST(SingleSpeedupTest, ErrorsOnBadArguments) {
  std::vector<QueryLoad> loads{{1, 10.0, 1.0}, {2, 10.0, 1.0}};
  EXPECT_FALSE(SingleQuerySpeedup::ChooseVictims(loads, 1, 0, 100.0).ok());
  EXPECT_FALSE(SingleQuerySpeedup::ChooseVictims(loads, 1, 2, 100.0).ok());
  EXPECT_FALSE(SingleQuerySpeedup::ChooseVictims(loads, 9, 1, 100.0).ok());
}

TEST(SingleSpeedupTest, EqualPriorityFastPath) {
  std::vector<QueryLoad> loads{
      {1, 100.0, 1.0}, {2, 300.0, 1.0}, {3, 50.0, 1.0}};
  // Target q3 (smallest): any bigger query qualifies.
  auto victim = SingleQuerySpeedup::ChooseVictimEqualPriority(loads, 3);
  ASSERT_TRUE(victim.ok());
  EXPECT_NE(*victim, 3u);
  auto target_load = loads[2];
  const QueryLoad* chosen = nullptr;
  for (const auto& q : loads) {
    if (q.id == *victim) chosen = &q;
  }
  ASSERT_NE(chosen, nullptr);
  EXPECT_GE(chosen->remaining_cost, target_load.remaining_cost);
  // Target q2 (largest): victim must be the largest of the others.
  auto v2 = SingleQuerySpeedup::ChooseVictimEqualPriority(loads, 2);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 1u);
}

TEST(SingleSpeedupTest, FastPathRejectsMixedWeights) {
  std::vector<QueryLoad> loads{{1, 100.0, 1.0}, {2, 300.0, 2.0}};
  EXPECT_EQ(SingleQuerySpeedup::ChooseVictimEqualPriority(loads, 1)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

// ---- SingleQuerySpeedup: property tests vs brute force ----------------------------

class SpeedupPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(SpeedupPropertyTest, FormulaMatchesExactBenefit) {
  // The paper's closed-form benefit must equal the first-principles
  // benefit (difference of two stage profiles) for every candidate.
  auto [seed, uniform] = GetParam();
  Rng rng(7000 + static_cast<std::uint64_t>(seed));
  const int n = static_cast<int>(rng.UniformInt(2, 12));
  auto loads = RandomLoads(&rng, n, uniform);
  const double rate = 100.0;
  const QueryId target =
      loads[static_cast<std::size_t>(rng.UniformInt(0, n - 1))].id;

  auto profile = pi::StageProfile::Compute(loads, rate);
  ASSERT_TRUE(profile.ok());
  const std::size_t pos = *profile->FinishPosition(target);
  double k_factor = 0.0;
  for (std::size_t j = 0; j <= pos; ++j) {
    k_factor += profile->stage_durations()[j] / profile->suffix_weights()[j];
  }
  for (std::size_t p = 0; p < profile->num_queries(); ++p) {
    if (p == pos) continue;
    const QueryLoad& q = profile->finish_order()[p];
    const double formula =
        p > pos ? q.weight * k_factor : q.remaining_cost / rate;
    auto exact = SingleQuerySpeedup::ExactBenefit(loads, target, q.id, rate);
    ASSERT_TRUE(exact.ok());
    EXPECT_NEAR(formula, *exact, 1e-6 * (1.0 + std::fabs(*exact)))
        << "victim " << q.id << " target " << target;
  }
}

TEST_P(SpeedupPropertyTest, ChosenVictimIsOptimal) {
  auto [seed, uniform] = GetParam();
  Rng rng(8000 + static_cast<std::uint64_t>(seed));
  const int n = static_cast<int>(rng.UniformInt(2, 12));
  auto loads = RandomLoads(&rng, n, uniform);
  const double rate = 100.0;
  const QueryId target =
      loads[static_cast<std::size_t>(rng.UniformInt(0, n - 1))].id;

  auto choice = SingleQuerySpeedup::ChooseVictims(loads, target, 1, rate);
  ASSERT_TRUE(choice.ok());
  auto chosen_benefit =
      SingleQuerySpeedup::ExactBenefit(loads, target, choice->victims[0],
                                       rate);
  ASSERT_TRUE(chosen_benefit.ok());
  // Brute force over all candidates.
  double best = 0.0;
  for (const QueryLoad& q : loads) {
    if (q.id == target) continue;
    auto benefit = SingleQuerySpeedup::ExactBenefit(loads, target, q.id, rate);
    ASSERT_TRUE(benefit.ok());
    best = std::max(best, *benefit);
  }
  EXPECT_NEAR(*chosen_benefit, best, 1e-6 * (1.0 + best));
}

TEST_P(SpeedupPropertyTest, EqualPriorityFastPathIsOptimal) {
  auto [seed, uniform] = GetParam();
  if (!uniform) GTEST_SKIP() << "fast path requires uniform weights";
  Rng rng(9000 + static_cast<std::uint64_t>(seed));
  const int n = static_cast<int>(rng.UniformInt(2, 12));
  auto loads = RandomLoads(&rng, n, true);
  const double rate = 100.0;
  const QueryId target =
      loads[static_cast<std::size_t>(rng.UniformInt(0, n - 1))].id;
  auto fast = SingleQuerySpeedup::ChooseVictimEqualPriority(loads, target);
  ASSERT_TRUE(fast.ok());
  auto fast_benefit =
      SingleQuerySpeedup::ExactBenefit(loads, target, *fast, rate);
  ASSERT_TRUE(fast_benefit.ok());
  double best = 0.0;
  for (const QueryLoad& q : loads) {
    if (q.id == target) continue;
    auto benefit = SingleQuerySpeedup::ExactBenefit(loads, target, q.id, rate);
    best = std::max(best, *benefit);
  }
  EXPECT_NEAR(*fast_benefit, best, 1e-6 * (1.0 + best));
}

TEST_P(SpeedupPropertyTest, MultiSpeedupFormulaMatchesExact) {
  auto [seed, uniform] = GetParam();
  Rng rng(10000 + static_cast<std::uint64_t>(seed));
  const int n = static_cast<int>(rng.UniformInt(2, 12));
  auto loads = RandomLoads(&rng, n, uniform);
  const double rate = 100.0;
  auto profile = pi::StageProfile::Compute(loads, rate);
  ASSERT_TRUE(profile.ok());
  double prefix = 0.0;
  for (std::size_t p = 0; p < profile->num_queries(); ++p) {
    prefix += static_cast<double>(n - 1 - static_cast<int>(p)) *
              profile->stage_durations()[p] / profile->suffix_weights()[p];
    const QueryLoad& q = profile->finish_order()[p];
    const double formula = q.weight * prefix;
    auto exact = MultiQuerySpeedup::ExactImprovement(loads, q.id, rate);
    ASSERT_TRUE(exact.ok());
    EXPECT_NEAR(formula, *exact, 1e-6 * (1.0 + std::fabs(*exact)))
        << "victim " << q.id;
  }
}

TEST_P(SpeedupPropertyTest, MultiSpeedupVictimIsOptimal) {
  auto [seed, uniform] = GetParam();
  Rng rng(11000 + static_cast<std::uint64_t>(seed));
  const int n = static_cast<int>(rng.UniformInt(2, 12));
  auto loads = RandomLoads(&rng, n, uniform);
  const double rate = 100.0;
  auto choice = MultiQuerySpeedup::ChooseVictim(loads, rate);
  ASSERT_TRUE(choice.ok());
  auto chosen = MultiQuerySpeedup::ExactImprovement(loads, choice->victim,
                                                    rate);
  ASSERT_TRUE(chosen.ok());
  double best = 0.0;
  for (const QueryLoad& q : loads) {
    auto improvement = MultiQuerySpeedup::ExactImprovement(loads, q.id, rate);
    best = std::max(best, *improvement);
  }
  EXPECT_NEAR(*chosen, best, 1e-6 * (1.0 + best));
}

TEST_P(SpeedupPropertyTest, CombinedBenefitIsExactlyAdditive) {
  // §3.1 additivity (speedup.h header note): the greedy h-victim
  // time_saved must equal both the sum of per-victim ExactBenefits
  // against the *original* load and the first-principles difference
  // r_before - r_after with every victim removed at once. In-model
  // this holds exactly, not approximately.
  auto [seed, uniform] = GetParam();
  Rng rng(12000 + static_cast<std::uint64_t>(seed));
  const int n = static_cast<int>(rng.UniformInt(4, 12));
  auto loads = RandomLoads(&rng, n, uniform);
  const double rate = 100.0;
  const QueryId target =
      loads[static_cast<std::size_t>(rng.UniformInt(0, n - 1))].id;
  const int h = static_cast<int>(rng.UniformInt(2, n - 1));

  auto choice = SingleQuerySpeedup::ChooseVictims(loads, target, h, rate);
  ASSERT_TRUE(choice.ok());
  ASSERT_EQ(choice->victims.size(), static_cast<std::size_t>(h));

  double summed = 0.0;
  std::vector<QueryLoad> survivors;
  for (const QueryLoad& q : loads) {
    if (std::find(choice->victims.begin(), choice->victims.end(), q.id) ==
        choice->victims.end()) {
      survivors.push_back(q);
    }
  }
  for (QueryId victim : choice->victims) {
    auto benefit = SingleQuerySpeedup::ExactBenefit(loads, target, victim,
                                                    rate);
    ASSERT_TRUE(benefit.ok());
    summed += *benefit;
  }
  auto before = pi::StageProfile::Compute(loads, rate);
  auto after = pi::StageProfile::Compute(survivors, rate);
  ASSERT_TRUE(before.ok() && after.ok());
  const double all_at_once =
      *before->RemainingTimeOf(target) - *after->RemainingTimeOf(target);
  EXPECT_NEAR(choice->time_saved, summed, 1e-7 * (1.0 + summed));
  EXPECT_NEAR(choice->time_saved, all_at_once, 1e-7 * (1.0 + all_at_once));
}

TEST_P(SpeedupPropertyTest, EngineOverloadMatchesVectorOverload) {
  // A fan-out over the stage sweep's O(1) removal benefits (the reads
  // MultiQueryPi::EstimateWhatIf composes for pure-removal scenarios)
  // must pick the same victims with the same combined benefit as the
  // stage-profile overload.
  auto [seed, uniform] = GetParam();
  Rng rng(13000 + static_cast<std::uint64_t>(seed));
  const int n = static_cast<int>(rng.UniformInt(3, 12));
  auto loads = RandomLoads(&rng, n, uniform);
  const double rate = 100.0;
  const QueryId target =
      loads[static_cast<std::size_t>(rng.UniformInt(0, n - 1))].id;
  const int h = static_cast<int>(rng.UniformInt(1, n - 1));

  pi::BatchEstimateKernel sweep;
  sweep.Compute(loads, rate);
  std::vector<std::pair<SimTime, QueryId>> candidates;
  for (const QueryLoad& q : loads) {
    if (q.id != target) {
      candidates.emplace_back(sweep.RemovalBenefit(target, q.id), q.id);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  std::vector<QueryId> victims;
  SimTime time_saved = 0.0;
  for (int i = 0; i < h; ++i) {
    victims.push_back(candidates[static_cast<std::size_t>(i)].second);
    time_saved += candidates[static_cast<std::size_t>(i)].first;
  }

  auto from_loads = SingleQuerySpeedup::ChooseVictims(loads, target, h, rate);
  ASSERT_TRUE(from_loads.ok());
  EXPECT_EQ(victims, from_loads->victims);
  EXPECT_NEAR(time_saved, from_loads->time_saved,
              1e-7 * (1.0 + from_loads->time_saved));
  // Per-victim reads agree with the two-profile computation.
  for (QueryId victim : victims) {
    auto slow = SingleQuerySpeedup::ExactBenefit(loads, target, victim,
                                                 rate);
    ASSERT_TRUE(slow.ok());
    EXPECT_NEAR(sweep.RemovalBenefit(target, victim), *slow,
                1e-7 * (1.0 + std::fabs(*slow)))
        << "victim " << victim;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, SpeedupPropertyTest,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Bool()));

// ---- MaintenancePlanner ------------------------------------------------------------

std::vector<MaintenanceQuery> SampleQueries() {
  return {{1, 10.0, 100.0},
          {2, 200.0, 50.0},
          {3, 40.0, 300.0},
          {4, 5.0, 20.0}};
}

TEST(MaintenanceTest, NothingAbortedWhenDeadlineGenerous) {
  auto plan = MaintenancePlanner::PlanGreedy(SampleQueries(), 100.0, 100.0,
                                             LossMetric::kCompletedWork);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->abort_now.empty());
  EXPECT_NEAR(plan->quiescent_time, 4.7, 1e-9);  // 470 U / 100
}

TEST(MaintenanceTest, GreedyAbortsCheapestLossFirst) {
  // Deadline 2 s -> budget 200 U; total remaining 470 U, so >= 270 U of
  // remaining cost must be shed. Loss/V ordering (Case 1):
  // q1: 10/100=0.1, q4: 5/20=0.25, q3: 40/300=0.133, q2: 200/50=4.
  // Order q1, q3, q4, q2: aborting q1 (370 left), then q3 (70 left) fits.
  auto plan = MaintenancePlanner::PlanGreedy(SampleQueries(), 2.0, 100.0,
                                             LossMetric::kCompletedWork);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->abort_now.size(), 2u);
  EXPECT_EQ(plan->abort_now[0], 1u);
  EXPECT_EQ(plan->abort_now[1], 3u);
  EXPECT_NEAR(plan->lost_work, 50.0, 1e-9);
  EXPECT_NEAR(plan->quiescent_time, 0.7, 1e-9);
}

TEST(MaintenanceTest, CaseTwoUsesTotalCost) {
  // Under Case 2 loss = e + c, the ratios change:
  // q1: 110/100=1.1, q2: 250/50=5, q3: 340/300=1.133, q4: 25/20=1.25.
  auto plan = MaintenancePlanner::PlanGreedy(SampleQueries(), 2.0, 100.0,
                                             LossMetric::kTotalCost);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->abort_now.size(), 2u);
  EXPECT_EQ(plan->abort_now[0], 1u);
  EXPECT_EQ(plan->abort_now[1], 3u);
  EXPECT_NEAR(plan->lost_work, 450.0, 1e-9);
}

TEST(MaintenanceTest, ZeroDeadlineAbortsEverythingWithWork) {
  auto plan = MaintenancePlanner::PlanGreedy(SampleQueries(), 0.0, 100.0,
                                             LossMetric::kCompletedWork);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->abort_now.size(), 4u);
  EXPECT_DOUBLE_EQ(plan->quiescent_time, 0.0);
}

TEST(MaintenanceTest, OptimalNeverWorseThanGreedy) {
  Rng rng(12000);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<MaintenanceQuery> queries;
    const int n = static_cast<int>(rng.UniformInt(1, 12));
    for (int i = 0; i < n; ++i) {
      queries.push_back(MaintenanceQuery{static_cast<QueryId>(i + 1),
                                         rng.Uniform(0.0, 200.0),
                                         rng.Uniform(1.0, 300.0)});
    }
    const double deadline = rng.Uniform(0.0, 5.0);
    for (auto metric :
         {LossMetric::kCompletedWork, LossMetric::kTotalCost}) {
      auto greedy =
          MaintenancePlanner::PlanGreedy(queries, deadline, 100.0, metric);
      auto optimal =
          MaintenancePlanner::PlanOptimal(queries, deadline, 100.0, metric);
      ASSERT_TRUE(greedy.ok());
      ASSERT_TRUE(optimal.ok());
      // Both plans must meet the deadline...
      EXPECT_LE(greedy->quiescent_time, deadline + 1e-9);
      EXPECT_LE(optimal->quiescent_time, deadline + 1e-9);
      // ...and the DP must not lose more work than the greedy
      // (tolerance for the quantization grid).
      EXPECT_LE(optimal->lost_work, greedy->lost_work + 1e-6);
    }
  }
}

TEST(MaintenanceTest, OptimalMatchesBruteForceSmall) {
  Rng rng(13000);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<MaintenanceQuery> queries;
    const int n = static_cast<int>(rng.UniformInt(1, 8));
    for (int i = 0; i < n; ++i) {
      queries.push_back(MaintenanceQuery{static_cast<QueryId>(i + 1),
                                         rng.Uniform(0.0, 100.0),
                                         rng.Uniform(1.0, 100.0)});
    }
    const double rate = 100.0;
    const double deadline = rng.Uniform(0.0, 3.0);
    const auto metric = LossMetric::kTotalCost;
    auto optimal = MaintenancePlanner::PlanOptimal(queries, deadline, rate,
                                                   metric, 1 << 14);
    ASSERT_TRUE(optimal.ok());
    // Brute force over all subsets.
    double best = 1e18;
    for (int mask = 0; mask < (1 << n); ++mask) {
      double kept_cost = 0.0, loss = 0.0;
      for (int i = 0; i < n; ++i) {
        if (mask & (1 << i)) {
          kept_cost += queries[static_cast<std::size_t>(i)].remaining;
        } else {
          loss += MaintenancePlanner::LossOf(
              queries[static_cast<std::size_t>(i)], metric);
        }
      }
      if (kept_cost <= rate * deadline) best = std::min(best, loss);
    }
    EXPECT_NEAR(optimal->lost_work, best,
                0.02 * (1.0 + best));  // quantization tolerance
  }
}

TEST(MaintenanceTest, InvalidInputs) {
  EXPECT_FALSE(MaintenancePlanner::PlanGreedy({}, -1.0, 100.0,
                                              LossMetric::kTotalCost)
                   .ok());
  EXPECT_FALSE(MaintenancePlanner::PlanGreedy({}, 1.0, 0.0,
                                              LossMetric::kTotalCost)
                   .ok());
  EXPECT_FALSE(MaintenancePlanner::PlanOptimal({{1, -1.0, 1.0}}, 1.0, 100.0,
                                               LossMetric::kTotalCost)
                   .ok());
}

// ---- WlmAdvisor on a live system ---------------------------------------------------

class AdvisorTest : public ::testing::Test {
 protected:
  AdvisorTest() {
    options_.processing_rate = 100.0;
    options_.quantum = 0.05;
    options_.cost_model.noise_sigma = 0.0;
    db_ = std::make_unique<sched::Rdbms>(&catalog_, options_);
  }
  storage::Catalog catalog_;
  sched::RdbmsOptions options_;
  std::unique_ptr<sched::Rdbms> db_;
};

TEST_F(AdvisorTest, SpeedUpQueryBlocksVictimAndHelps) {
  auto a = db_->Submit(QuerySpec::Synthetic(300.0));
  auto b = db_->Submit(QuerySpec::Synthetic(300.0));
  auto c = db_->Submit(QuerySpec::Synthetic(300.0));
  ASSERT_TRUE(c.ok());
  (void)b;
  WlmAdvisor advisor(db_.get());
  auto choice = advisor.SpeedUpQuery(*a, 1);
  ASSERT_TRUE(choice.ok()) << choice.status().ToString();
  ASSERT_EQ(choice->victims.size(), 1u);
  EXPECT_EQ(db_->info(choice->victims[0])->state,
            sched::QueryState::kBlocked);
  db_->RunUntilIdle();
  // With one of three blocked, a shares with one peer: 300/(100/2) = 6 s
  // instead of 9 s in the 3-way standard case.
  EXPECT_NEAR(db_->info(*a)->finish_time, 6.0, 0.2);
}

TEST_F(AdvisorTest, SpeedUpOthersPicksAndBlocks) {
  // Weights break the tie: the heavy high-priority query consumes 8/9
  // of the machine, so blocking it helps the other most.
  auto heavy = db_->Submit(QuerySpec::Synthetic(400.0), Priority::kCritical);
  auto light = db_->Submit(QuerySpec::Synthetic(400.0), Priority::kLow);
  ASSERT_TRUE(light.ok());
  (void)light;
  WlmAdvisor advisor(db_.get());
  auto choice = advisor.SpeedUpOthers();
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(choice->victim, *heavy);
  EXPECT_EQ(db_->info(*heavy)->state, sched::QueryState::kBlocked);
  EXPECT_GT(choice->total_response_improvement, 0.0);
}

TEST_F(AdvisorTest, MultiPiMaintenanceMeetsDeadline) {
  std::vector<QueryId> ids;
  for (int i = 1; i <= 5; ++i) {
    ids.push_back(*db_->Submit(QuerySpec::Synthetic(100.0 * i)));
  }
  db_->Step(1.0);  // accumulate some completed work
  WlmAdvisor advisor(db_.get());
  const SimTime deadline = 4.0;
  auto plan = advisor.PrepareMaintenance(deadline, LossMetric::kTotalCost,
                                         MaintenanceMethod::kMultiPi,
                                         nullptr);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(db_->admission_open());
  EXPECT_LE(plan->quiescent_time, deadline + 1e-6);
  const SimTime start = db_->now();
  db_->RunUntilIdle(start + deadline);
  // All survivors must have finished by the deadline.
  for (QueryId id : ids) {
    const auto info = *db_->info(id);
    if (info.state == sched::QueryState::kFinished) {
      EXPECT_LE(info.finish_time, start + deadline + 2 * options_.quantum);
    } else {
      EXPECT_EQ(info.state, sched::QueryState::kAborted);
    }
  }
}

TEST_F(AdvisorTest, NoPiMaintenanceOnlyClosesAdmission) {
  auto id = db_->Submit(QuerySpec::Synthetic(1000.0));
  ASSERT_TRUE(id.ok());
  WlmAdvisor advisor(db_.get());
  auto plan = advisor.PrepareMaintenance(1.0, LossMetric::kTotalCost,
                                         MaintenanceMethod::kNoPi, nullptr);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->abort_now.empty());
  EXPECT_FALSE(db_->admission_open());
  EXPECT_EQ(db_->info(*id)->state, sched::QueryState::kRunning);
}

TEST_F(AdvisorTest, SinglePiMaintenanceOverAborts) {
  // Five equal queries sharing C: each runs at C/5, so the single-query
  // PI thinks each needs 5x its solo time and aborts queries that would
  // in fact have finished.
  pi::PiManager pis(db_.get(), {.sample_interval = 10.0});
  std::vector<QueryId> ids;
  for (int i = 0; i < 5; ++i) {
    auto id = db_->Submit(QuerySpec::Synthetic(100.0));
    ids.push_back(*id);
    pis.Track(*id);
  }
  for (int step = 0; step < 4; ++step) {
    db_->Step(options_.quantum);
    pis.AfterStep();
  }
  WlmAdvisor advisor(db_.get());
  // Total work 500 U: everything can finish by t=5 (quiescent time),
  // but each query's single-PI estimate is ~5 s > deadline 4.5... so
  // the single-PI method aborts all five.
  auto plan = advisor.PrepareMaintenance(4.5, LossMetric::kTotalCost,
                                         MaintenanceMethod::kSinglePi, &pis);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->abort_now.size(), 5u);
  // The multi-PI method on the same state would abort nothing: verify
  // via the planner directly.
  std::vector<MaintenanceQuery> queries;
  for (QueryId id : ids) {
    queries.push_back(MaintenanceQuery{id, 20.0, 80.0});
  }
  auto multi_plan = MaintenancePlanner::PlanGreedy(
      queries, 4.5, 100.0, LossMetric::kTotalCost);
  ASSERT_TRUE(multi_plan.ok());
  EXPECT_TRUE(multi_plan->abort_now.empty());
}

TEST_F(AdvisorTest, AbortAllUnfinishedSweepsEveryState) {
  auto options = options_;
  options.max_concurrent = 1;
  sched::Rdbms db(&catalog_, options);
  auto a = db.Submit(QuerySpec::Synthetic(100.0));
  auto b = db.Submit(QuerySpec::Synthetic(100.0));  // queued
  ASSERT_TRUE(b.ok());
  WlmAdvisor advisor(&db);
  auto aborted = advisor.AbortAllUnfinished();
  EXPECT_EQ(aborted.size(), 2u);
  EXPECT_EQ(db.info(*a)->state, sched::QueryState::kAborted);
  EXPECT_EQ(db.info(*b)->state, sched::QueryState::kAborted);
  EXPECT_TRUE(db.Idle());
}

}  // namespace
}  // namespace mqpi::wlm
