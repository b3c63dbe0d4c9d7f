#include <gtest/gtest.h>

#include <cmath>

#include "sched/rdbms.h"
#include "storage/catalog.h"

namespace mqpi::sched {
namespace {

using engine::QuerySpec;

/// Most scheduler behaviour is exercised with synthetic (cost-only)
/// queries: their costs are exact, so finish times can be checked
/// against the paper's analytic model to quantum precision.
class RdbmsTest : public ::testing::Test {
 protected:
  RdbmsOptions BaseOptions() {
    RdbmsOptions options;
    options.processing_rate = 100.0;  // 100 U/s
    options.quantum = 0.1;
    options.cost_model.noise_sigma = 0.0;
    return options;
  }

  storage::Catalog catalog_;
};

TEST_F(RdbmsTest, SingleQueryRunsAtFullRate) {
  Rdbms db(&catalog_, BaseOptions());
  auto id = db.Submit(QuerySpec::Synthetic(200.0));
  ASSERT_TRUE(id.ok());
  db.RunUntilIdle();
  auto info = db.info(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, QueryState::kFinished);
  // 200 U at 100 U/s = 2 s (quantum tolerance).
  EXPECT_NEAR(info->finish_time, 2.0, 0.11);
  EXPECT_DOUBLE_EQ(info->completed_work, 200.0);
}

TEST_F(RdbmsTest, EqualPrioritiesShareFairly) {
  Rdbms db(&catalog_, BaseOptions());
  auto a = db.Submit(QuerySpec::Synthetic(100.0));
  auto b = db.Submit(QuerySpec::Synthetic(300.0));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  db.RunUntilIdle();
  // Stage model: A finishes at 2*100/100 = 2 s; B at 2 + 200/100 = 4 s.
  EXPECT_NEAR(db.info(*a)->finish_time, 2.0, 0.11);
  EXPECT_NEAR(db.info(*b)->finish_time, 4.0, 0.11);
}

TEST_F(RdbmsTest, PriorityWeightsSplitRate) {
  auto options = BaseOptions();
  options.weights = PriorityWeights(1.0, 1.0, 3.0, 8.0);
  Rdbms db(&catalog_, options);
  // High-priority (w=3) vs normal (w=1): high gets 75 U/s.
  auto high = db.Submit(QuerySpec::Synthetic(150.0), Priority::kHigh);
  auto normal = db.Submit(QuerySpec::Synthetic(150.0), Priority::kNormal);
  ASSERT_TRUE(high.ok());
  ASSERT_TRUE(normal.ok());
  db.RunUntilIdle();
  // High: 150/(100*0.75) = 2 s. Normal: at t=2 it has 150-2*25=100 left,
  // then full rate: 2 + 1 = 3 s.
  EXPECT_NEAR(db.info(*high)->finish_time, 2.0, 0.11);
  EXPECT_NEAR(db.info(*normal)->finish_time, 3.0, 0.11);
}

TEST_F(RdbmsTest, AdmissionQueueLimitsConcurrency) {
  auto options = BaseOptions();
  options.max_concurrent = 2;
  Rdbms db(&catalog_, options);
  auto a = db.Submit(QuerySpec::Synthetic(100.0));
  auto b = db.Submit(QuerySpec::Synthetic(100.0));
  auto c = db.Submit(QuerySpec::Synthetic(100.0));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(db.num_running(), 2);
  EXPECT_EQ(db.num_queued(), 1);
  EXPECT_EQ(db.info(*c)->state, QueryState::kQueued);
  db.RunUntilIdle();
  // a and b share until both finish at t=2; c runs alone 1 s more.
  EXPECT_NEAR(db.info(*a)->finish_time, 2.0, 0.11);
  EXPECT_NEAR(db.info(*b)->finish_time, 2.0, 0.11);
  EXPECT_NEAR(db.info(*c)->finish_time, 3.0, 0.21);
  EXPECT_NEAR(db.info(*c)->start_time, 2.0, 0.11);
}

TEST_F(RdbmsTest, ClosedAdmissionHoldsQueries) {
  Rdbms db(&catalog_, BaseOptions());
  db.SetAdmissionOpen(false);
  auto id = db.Submit(QuerySpec::Synthetic(50.0));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(db.info(*id)->state, QueryState::kQueued);
  db.Step(1.0);
  EXPECT_EQ(db.info(*id)->state, QueryState::kQueued);
  db.SetAdmissionOpen(true);
  EXPECT_EQ(db.info(*id)->state, QueryState::kRunning);
  db.RunUntilIdle();
  EXPECT_EQ(db.info(*id)->state, QueryState::kFinished);
}

TEST_F(RdbmsTest, BlockAndResume) {
  Rdbms db(&catalog_, BaseOptions());
  auto a = db.Submit(QuerySpec::Synthetic(100.0));
  auto b = db.Submit(QuerySpec::Synthetic(100.0));
  ASSERT_TRUE(db.Block(*b).ok());
  EXPECT_EQ(db.info(*b)->state, QueryState::kBlocked);
  db.Step(1.0);
  // Blocked query makes no progress; a gets the full rate.
  EXPECT_DOUBLE_EQ(db.info(*b)->completed_work, 0.0);
  EXPECT_NEAR(db.info(*a)->completed_work, 100.0, 10.1);
  ASSERT_TRUE(db.Resume(*b).ok());
  db.RunUntilIdle();
  EXPECT_EQ(db.info(*b)->state, QueryState::kFinished);
  // Double block is an error.
  EXPECT_TRUE(db.Block(*b).IsInvalidArgument() ||
              db.Block(*b).code() == StatusCode::kFailedPrecondition);
}

TEST_F(RdbmsTest, BlockedQueryHoldsItsSlot) {
  auto options = BaseOptions();
  options.max_concurrent = 1;
  Rdbms db(&catalog_, options);
  auto a = db.Submit(QuerySpec::Synthetic(100.0));
  auto b = db.Submit(QuerySpec::Synthetic(100.0));
  ASSERT_TRUE(db.Block(*a).ok());
  db.Step(1.0);
  // b must stay queued: the blocked query keeps the only slot.
  EXPECT_EQ(db.info(*b)->state, QueryState::kQueued);
  ASSERT_TRUE(db.Resume(*a).ok());
  db.RunUntilIdle();
  EXPECT_EQ(db.info(*b)->state, QueryState::kFinished);
}

TEST_F(RdbmsTest, AbortRunningQuery) {
  Rdbms db(&catalog_, BaseOptions());
  auto a = db.Submit(QuerySpec::Synthetic(1000.0));
  auto b = db.Submit(QuerySpec::Synthetic(100.0));
  db.Step(0.5);
  ASSERT_TRUE(db.Abort(*a).ok());
  EXPECT_EQ(db.info(*a)->state, QueryState::kAborted);
  EXPECT_NEAR(db.info(*a)->finish_time, 0.5, 1e-9);
  db.RunUntilIdle();
  // b sped up after the abort: 25 U done in shared phase, 75 alone.
  EXPECT_NEAR(db.info(*b)->finish_time, 1.25, 0.11);
  // Aborting again fails.
  EXPECT_EQ(db.Abort(*a).code(), StatusCode::kFailedPrecondition);
}

TEST_F(RdbmsTest, AbortQueuedQuery) {
  auto options = BaseOptions();
  options.max_concurrent = 1;
  Rdbms db(&catalog_, options);
  auto a = db.Submit(QuerySpec::Synthetic(100.0));
  auto b = db.Submit(QuerySpec::Synthetic(100.0));
  ASSERT_TRUE(db.Abort(*b).ok());
  db.RunUntilIdle();
  EXPECT_EQ(db.info(*a)->state, QueryState::kFinished);
  EXPECT_EQ(db.info(*b)->state, QueryState::kAborted);
  EXPECT_DOUBLE_EQ(db.info(*b)->completed_work, 0.0);
}

TEST_F(RdbmsTest, SetPriorityTakesEffect) {
  auto options = BaseOptions();
  options.weights = PriorityWeights(1.0, 1.0, 4.0, 8.0);
  Rdbms db(&catalog_, options);
  auto a = db.Submit(QuerySpec::Synthetic(200.0));
  auto b = db.Submit(QuerySpec::Synthetic(200.0));
  ASSERT_TRUE(db.SetPriority(*a, Priority::kHigh).ok());
  db.Step(1.0);
  // a should be ~4x faster than b.
  const double ratio =
      db.info(*a)->completed_work / db.info(*b)->completed_work;
  EXPECT_NEAR(ratio, 4.0, 0.2);
  (void)b;
}

TEST_F(RdbmsTest, FastForwardAdvancesWithoutTime) {
  Rdbms db(&catalog_, BaseOptions());
  auto id = db.Submit(QuerySpec::Synthetic(100.0));
  ASSERT_TRUE(db.FastForward(*id, 60.0).ok());
  EXPECT_DOUBLE_EQ(db.now(), 0.0);
  EXPECT_DOUBLE_EQ(db.info(*id)->completed_work, 60.0);
  // Fast-forwarding to completion fires the terminal transition.
  ASSERT_TRUE(db.FastForward(*id, 100.0).ok());
  EXPECT_EQ(db.info(*id)->state, QueryState::kFinished);
  EXPECT_TRUE(db.FastForward(*id, 1.0).code() ==
              StatusCode::kFailedPrecondition);
}

TEST_F(RdbmsTest, CompletionListenersFire) {
  Rdbms db(&catalog_, BaseOptions());
  std::vector<QueryId> completed;
  db.AddCompletionListener(
      [&](const QueryInfo& info) { completed.push_back(info.id); });
  auto a = db.Submit(QuerySpec::Synthetic(100.0));
  auto b = db.Submit(QuerySpec::Synthetic(200.0));
  db.RunUntilIdle();
  ASSERT_EQ(completed.size(), 2u);
  EXPECT_EQ(completed[0], *a);
  EXPECT_EQ(completed[1], *b);
}

TEST_F(RdbmsTest, InfoForUnknownQuery) {
  Rdbms db(&catalog_, BaseOptions());
  EXPECT_TRUE(db.info(999).status().IsNotFound());
  EXPECT_TRUE(db.Abort(999).IsNotFound());
  EXPECT_TRUE(db.Block(999).IsNotFound());

  // Records are indexed by id: pin both edges of the index and the
  // never-valid ids on every id-taking entry point.
  auto first = db.Submit(QuerySpec::Synthetic(50.0));
  auto last = db.Submit(QuerySpec::Synthetic(50.0));
  ASSERT_TRUE(first.ok() && last.ok());
  for (const QueryId id : {QueryId{0}, kInvalidQueryId, *last + 1}) {
    SCOPED_TRACE(id);
    EXPECT_TRUE(db.info(id).status().IsNotFound());
    EXPECT_TRUE(db.Abort(id).IsNotFound());
    EXPECT_TRUE(db.Block(id).IsNotFound());
    EXPECT_TRUE(db.Resume(id).IsNotFound());
    EXPECT_TRUE(db.SetPriority(id, Priority::kHigh).IsNotFound());
    EXPECT_TRUE(db.FastForward(id, 1.0).IsNotFound());
    EXPECT_TRUE(db.QueuePosition(id).status().IsNotFound());
  }
  // The edges themselves resolve.
  EXPECT_EQ(db.info(*first)->id, *first);
  EXPECT_EQ(db.info(*last)->id, *last);
  EXPECT_EQ(db.num_queries(), 2u);
}

TEST_F(RdbmsTest, IdleSemantics) {
  Rdbms db(&catalog_, BaseOptions());
  EXPECT_TRUE(db.Idle());
  auto id = db.Submit(QuerySpec::Synthetic(10.0));
  EXPECT_FALSE(db.Idle());
  db.RunUntilIdle();
  EXPECT_TRUE(db.Idle());
  // A blocked query alone does not prevent idleness...
  auto blocked = db.Submit(QuerySpec::Synthetic(10.0));
  ASSERT_TRUE(db.Block(*blocked).ok());
  EXPECT_TRUE(db.Idle());
  (void)id;
}

TEST_F(RdbmsTest, ThroughputConservation) {
  // Total work done per second equals C regardless of how many queries
  // run (Assumption 1 by construction).
  Rdbms db(&catalog_, BaseOptions());
  std::vector<QueryId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(*db.Submit(QuerySpec::Synthetic(1000.0)));
  }
  db.Step(2.0);
  double total = 0.0;
  for (QueryId id : ids) total += db.info(id)->completed_work;
  EXPECT_NEAR(total, 200.0, 1e-6);
}

// ---- perturbations -----------------------------------------------------------------

TEST_F(RdbmsTest, ThrashingDegradesAggregateRate) {
  auto options = BaseOptions();
  options.perturbation.thrash_threshold = 2;
  options.perturbation.thrash_factor = 0.2;
  Rdbms db(&catalog_, options);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db.Submit(QuerySpec::Synthetic(1000.0)).ok());
  }
  // 4 running, threshold 2 -> factor 1 - 0.2*2 = 0.6.
  EXPECT_NEAR(db.EffectiveRate(), 60.0, 1e-9);
  db.Step(1.0);
  double total = 0.0;
  for (const auto& info : db.RunningQueries()) total += info.completed_work;
  EXPECT_NEAR(total, 60.0, 1e-6);
}

TEST(PerturbationModelTest, RateFactorFloorsAtTenPercent) {
  PerturbationModel model({.thrash_threshold = 1, .thrash_factor = 0.5});
  EXPECT_DOUBLE_EQ(model.AggregateRateFactor(1), 1.0);
  EXPECT_DOUBLE_EQ(model.AggregateRateFactor(2), 0.5);
  EXPECT_DOUBLE_EQ(model.AggregateRateFactor(10), 0.1);
}

TEST(PerturbationModelTest, JitterOffMeansUnity) {
  PerturbationModel model{PerturbationOptions{}};
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(model.DrawSpeedMultiplier(), 1.0);
  }
}

TEST(PerturbationModelTest, JitterOnVaries) {
  PerturbationModel model({.speed_jitter_sigma = 0.5, .seed = 3});
  double spread = 0.0;
  for (int i = 0; i < 20; ++i) {
    spread += std::fabs(model.DrawSpeedMultiplier() - 1.0);
  }
  EXPECT_GT(spread, 0.5);
}

TEST(QueryStateTest, Names) {
  EXPECT_EQ(QueryStateName(QueryState::kQueued), "queued");
  EXPECT_EQ(QueryStateName(QueryState::kAborted), "aborted");
}

}  // namespace
}  // namespace mqpi::sched
