#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/random.h"
#include "sched/rdbms.h"
#include "storage/catalog.h"
#include "storage/tpcr_gen.h"

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

TEST_F(RdbmsTest, ReapFreesOnlyTerminalQueriesAndForgetsTheirIds) {
  auto options = BaseOptions();
  options.max_concurrent = 1;
  Rdbms db(&catalog_, options);
  auto done = db.Submit(QuerySpec::Synthetic(5.0));
  auto running = db.Submit(QuerySpec::Synthetic(500.0));
  auto dropped = db.Submit(QuerySpec::Synthetic(50.0));
  auto waiting = db.Submit(QuerySpec::Synthetic(50.0));
  ASSERT_TRUE(done.ok() && running.ok() && dropped.ok() && waiting.ok());
  db.Step();  // `done` finishes; `running` takes the only slot
  ASSERT_EQ(db.info(*done)->state, QueryState::kFinished);

  EXPECT_EQ(db.Reap(*running).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(db.Reap(*waiting).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(db.Reap(99).code(), StatusCode::kNotFound);
  ASSERT_TRUE(db.Reap(*done).ok());
  EXPECT_EQ(db.Reap(*done).code(), StatusCode::kNotFound);
  EXPECT_EQ(db.info(*done).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(db.Abort(*done).code(), StatusCode::kNotFound);
  EXPECT_EQ(db.QueuePosition(*done).status().code(), StatusCode::kNotFound);

  // Aborted in the queue, then reaped while its lazily removed entry
  // still sits in the admission queue: every queue walk skips it.
  ASSERT_TRUE(db.Abort(*dropped).ok());
  ASSERT_TRUE(db.Reap(*dropped).ok());
  EXPECT_EQ(*db.QueuePosition(*waiting), 0);
  ASSERT_EQ(db.QueuedQueries().size(), 1u);
  EXPECT_EQ(db.QueuedQueries()[0].id, *waiting);
  EXPECT_FALSE(db.Idle());

  std::vector<QueryId> visited;
  db.VisitQueries([&](const QueryInfo& info) { visited.push_back(info.id); });
  EXPECT_EQ(visited, (std::vector<QueryId>{*running, *waiting}));
  ASSERT_EQ(db.AllQueries().size(), 2u);
  EXPECT_EQ(db.num_queries(), 4u);  // ids are never reused

  db.RunUntilIdle();
  EXPECT_EQ(db.info(*waiting)->state, QueryState::kFinished);
  auto next = db.Submit(QuerySpec::Synthetic(1.0));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 5u);
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

TEST_F(RdbmsTest, VisitLiveSeesEachLiveQueryOnceInSchedulerOrder) {
  auto options = BaseOptions();
  options.max_concurrent = 4;
  Rdbms db(&catalog_, options);
  // 1 finishes, 2 runs, 3 is blocked, 4 is aborted while running.
  for (const WorkUnits work : {5.0, 1000.0, 1000.0, 1000.0}) {
    ASSERT_TRUE(db.Submit(QuerySpec::Synthetic(work)).ok());
  }
  // 5..7 queue behind the closed gate; 6 is aborted there and left in
  // the admission queue for lazy removal.
  db.SetAdmissionOpen(false);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db.Submit(QuerySpec::Synthetic(100.0)).ok());
  }
  ASSERT_TRUE(db.Block(3).ok());
  ASSERT_TRUE(db.Abort(4).ok());
  ASSERT_TRUE(db.Abort(6).ok());
  db.Step(1.0);
  ASSERT_EQ(db.info(1)->state, QueryState::kFinished);

  std::vector<QueryId> visited;
  std::vector<QueryState> states;
  db.VisitLive([&](const QueryInfo& info) {
    visited.push_back(info.id);
    states.push_back(info.state);
  });
  // The running set (blocked included), then admission order.
  EXPECT_EQ(visited, (std::vector<QueryId>{2, 3, 5, 7}));
  EXPECT_EQ(states,
            (std::vector<QueryState>{QueryState::kRunning,
                                     QueryState::kBlocked,
                                     QueryState::kQueued,
                                     QueryState::kQueued}));
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

// The serve order, the grants and the carried deficits are pinned bit
// for bit: any change to how StepOnce orders or serves the running set
// (sort, carried order, erase strategy) must reproduce these digests.
// FNV-1a over every quantum's (id, consumed_last_step,
// completed_work) in VisitRunning order, under a mixed load: three
// priorities, an MPL cap, blocks, resumes, priority changes, aborts,
// and correlated-sub-query SQL whose operator steps overshoot their
// entitlement (the debtor branch). With speed jitter every weight
// differs; without it equal-priority queries tie on deficit, so the
// id tie-break decides the order.
TEST_F(RdbmsTest, ServeOrderDigestIsPinned) {
  storage::Catalog catalog;
  storage::TpcrGenerator generator(
      {.num_part_keys = 200, .matches_per_key = 6, .seed = 5});
  ASSERT_TRUE(generator.BuildLineitem(&catalog).ok());
  ASSERT_TRUE(generator.BuildPartTable(&catalog, "part_a", 10).ok());
  ASSERT_TRUE(generator.BuildPartTable(&catalog, "part_b", 20).ok());

  const auto run = [&](double jitter, std::uint64_t* digest, int* starved) {
    auto options = BaseOptions();
    options.processing_rate = 400.0;
    options.max_concurrent = 10;
    options.perturbation.speed_jitter_sigma = jitter;
    options.perturbation.seed = 11;
    Rdbms db(&catalog, options);
    Rng rng(2024);
    constexpr Priority kPriorities[] = {Priority::kLow, Priority::kNormal,
                                        Priority::kHigh};
    const auto submit = [&] {
      const Priority priority = kPriorities[rng.UniformInt(0, 2)];
      const int kind = static_cast<int>(rng.UniformInt(0, 5));
      const QuerySpec spec =
          kind == 0   ? QuerySpec::TpcrPartPrice("part_a")
          : kind == 1 ? QuerySpec::TpcrPartPrice("part_b")
                      : QuerySpec::Synthetic(rng.Uniform(20.0, 400.0));
      ASSERT_TRUE(db.Submit(spec, priority).ok());
    };
    // A random running (unblocked) query, or 0 when none runs.
    const auto pick_running = [&] {
      std::vector<QueryId> running;
      db.VisitRunning(
          [&](const QueryInfo& info) { running.push_back(info.id); });
      return running.empty()
                 ? QueryId{0}
                 : running[rng.UniformInt(
                       0, static_cast<std::int64_t>(running.size()) - 1)];
    };
    for (int i = 0; i < 14; ++i) submit();

    *digest = 14695981039346656037ULL;
    const auto mix = [digest](std::uint64_t word) {
      for (int byte = 0; byte < 8; ++byte) {
        *digest ^= (word >> (8 * byte)) & 0xff;
        *digest *= 1099511628211ULL;
      }
    };
    const auto bits = [](double value) {
      std::uint64_t out;
      std::memcpy(&out, &value, sizeof out);
      return out;
    };
    std::vector<QueryId> blocked;
    *starved = 0;  // running rows served nothing: a debtor waited
    for (int quantum = 0; quantum < 400; ++quantum) {
      if (quantum % 3 == 0) submit();
      if (quantum % 7 == 3) {
        if (const QueryId id = pick_running(); id != 0) {
          ASSERT_TRUE(db.Block(id).ok());
          blocked.push_back(id);
        }
      }
      if (quantum % 5 == 4 && !blocked.empty()) {
        ASSERT_TRUE(db.Resume(blocked.front()).ok());
        blocked.erase(blocked.begin());
      }
      if (quantum % 11 == 6) {
        if (const QueryId id = pick_running(); id != 0) {
          ASSERT_TRUE(
              db.SetPriority(id, kPriorities[rng.UniformInt(0, 2)]).ok());
        }
      }
      if (quantum % 13 == 9) {
        if (const QueryId id = pick_running(); id != 0) {
          ASSERT_TRUE(db.Abort(id).ok());
        }
      }
      db.Step();
      db.VisitRunning([&](const QueryInfo& info) {
        mix(info.id);
        mix(bits(info.consumed_last_step));
        mix(bits(info.completed_work));
        if (info.consumed_last_step == 0.0) ++*starved;
      });
    }
  };
  std::uint64_t jittered = 0;
  std::uint64_t tied = 0;
  int starved_jittered = 0;
  int starved_tied = 0;
  run(0.3, &jittered, &starved_jittered);
  run(0.0, &tied, &starved_tied);
  EXPECT_GT(starved_jittered, 0);
  EXPECT_GT(starved_tied, 0);
  EXPECT_EQ(jittered, 1891157095162489026ULL);
  EXPECT_EQ(tied, 4512031643021134853ULL);
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
