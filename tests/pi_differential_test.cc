// System-level differential and metamorphic tests for MultiQueryPi.
//
// The PI answers from one of two exact paths per load epoch: the
// closed-form stage sweep (batch_kernel.h) when it can express the load,
// the analytic simulator otherwise. The suite pins that
//  * every estimate and the quiescent time equal the simulator's full
//    ForecastAll() of the same state, through lifecycle churn that
//    moves the PI between both paths in both directions;
//  * point what-ifs equal full what-if forecasts;
//  * scaling every priority weight by 2 changes no estimate at all
//    (weights only enter as ratios, and a power-of-two scale is exact
//    in floating point).
// Plus the load-validation rules the simulator path relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.h"
#include "pi/analytic_simulator.h"
#include "pi/multi_query_pi.h"
#include "sched/rdbms.h"
#include "storage/catalog.h"

namespace mqpi::pi {
namespace {

using engine::QuerySpec;

// ---- load validation (analytic simulator) ---------------------------------------

TEST(AnalyticSimulatorTest, RejectsDuplicateIdsAcrossAllSources) {
  AnalyticModelOptions options;
  options.rate = 100.0;
  const std::vector<QueryLoad> running{{1, 10.0, 1.0}, {2, 20.0, 1.0}};
  // Duplicate within the running set.
  {
    auto r = AnalyticSimulator::Forecast({{1, 10.0, 1.0}, {1, 5.0, 1.0}}, {},
                                         {}, options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  // Running vs queued.
  {
    auto r =
        AnalyticSimulator::Forecast(running, {{2, 5.0, 1.0}}, {}, options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  // Queued vs future arrival.
  {
    auto r = AnalyticSimulator::Forecast(
        running, {{3, 5.0, 1.0}}, {FutureArrival{1.0, 5.0, 1.0, 3}}, options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  // Virtual arrivals (kInvalidQueryId) are exempt from uniqueness.
  {
    auto r = AnalyticSimulator::Forecast(
        running, {},
        {FutureArrival{1.0, 5.0, 1.0, kInvalidQueryId},
         FutureArrival{2.0, 5.0, 1.0, kInvalidQueryId}},
        options);
    EXPECT_TRUE(r.ok());
  }
}

// ---- system soak: estimates vs the full simulator forecast -----------------------

sched::RdbmsOptions SoakOptions(Rng* rng) {
  sched::RdbmsOptions options;
  options.processing_rate = rng->Uniform(50.0, 200.0);
  options.quantum = 0.1;
  // Small admission limit: bursts queue up (simulator path), drains
  // empty the queue (sweep path) — both transitions exercised.
  options.max_concurrent = static_cast<int>(rng->UniformInt(2, 4));
  options.cost_model.noise_sigma = 0.1;
  return options;
}

class PiDifferentialSoakTest : public ::testing::TestWithParam<int> {};

TEST_P(PiDifferentialSoakTest, IncrementalMatchesSimulatorThroughChurn) {
  Rng rng(47000 + static_cast<std::uint64_t>(GetParam()));
  storage::Catalog catalog;
  auto options = SoakOptions(&rng);
  sched::Rdbms db(&catalog, options);
  MultiQueryPi pi(&db, {});

  // Every estimate — sweep or simulator — must agree with the full
  // simulator forecast of the same state. The simulator integrates
  // progress event by event while the sweep sums prefix costs, so the
  // system-level tolerance is looser than the sweep-vs-profile one.
  auto expect_agreement = [&](int op) {
    auto forecast = pi.ForecastAll();
    ASSERT_TRUE(forecast.ok()) << "op " << op;
    for (const auto& info : db.AllQueries()) {
      auto a = pi.EstimateRemainingTime(info);
      ASSERT_TRUE(a.ok()) << "op " << op << " id " << info.id;
      SimTime b;
      switch (info.state) {
        case sched::QueryState::kFinished:
        case sched::QueryState::kAborted:
          b = 0.0;
          break;
        case sched::QueryState::kBlocked:
          b = kInfiniteTime;
          break;
        default: {
          auto finish = forecast->FinishTimeOf(info.id);
          ASSERT_TRUE(finish.ok()) << "op " << op << " id " << info.id;
          b = *finish;
        }
      }
      if (*a == kInfiniteTime || b == kInfiniteTime) {
        EXPECT_EQ(*a, b) << "op " << op << " id " << info.id;
      } else {
        EXPECT_NEAR(*a, b, 1e-6 * std::max(1.0, std::fabs(b)))
            << "op " << op << " id " << info.id;
      }
    }
    auto quiescent = pi.QuiescentEta();
    ASSERT_TRUE(quiescent.ok()) << "op " << op;
    const SimTime expected = forecast->quiescent_time();
    if (*quiescent != kInfiniteTime && expected != kInfiniteTime) {
      EXPECT_NEAR(*quiescent, expected,
                  1e-6 * std::max(1.0, std::fabs(expected)))
          << "op " << op << " quiescent";
    }
  };

  std::vector<QueryId> ids;
  for (int op = 0; op < 300; ++op) {
    switch (rng.UniformInt(0, 9)) {
      case 0:
      case 1:
      case 2: {  // submit (occasionally a burst that overflows admission)
        const int burst = rng.NextDouble() < 0.2 ? 4 : 1;
        for (int i = 0; i < burst; ++i) {
          auto id = db.Submit(QuerySpec::Synthetic(rng.Uniform(5.0, 200.0)),
                              static_cast<Priority>(rng.UniformInt(0, 3)));
          ASSERT_TRUE(id.ok());
          ids.push_back(*id);
        }
        break;
      }
      case 3: {
        if (!ids.empty()) {
          db.Block(ids[static_cast<std::size_t>(
              rng.UniformInt(0, static_cast<std::int64_t>(ids.size()) - 1))]);
        }
        break;
      }
      case 4: {
        if (!ids.empty()) {
          db.Resume(ids[static_cast<std::size_t>(
              rng.UniformInt(0, static_cast<std::int64_t>(ids.size()) - 1))]);
        }
        break;
      }
      case 5: {
        if (!ids.empty()) {
          db.Abort(ids[static_cast<std::size_t>(
              rng.UniformInt(0, static_cast<std::int64_t>(ids.size()) - 1))]);
        }
        break;
      }
      case 6: {
        if (!ids.empty()) {
          db.SetPriority(
              ids[static_cast<std::size_t>(rng.UniformInt(
                  0, static_cast<std::int64_t>(ids.size()) - 1))],
              static_cast<Priority>(rng.UniformInt(0, 3)));
        }
        break;
      }
      default: {  // step 1-8 quanta (longer runs drain the queue)
        const int quanta = static_cast<int>(rng.UniformInt(1, 8));
        for (int i = 0; i < quanta; ++i) {
          db.Step(options.quantum);
          pi.ObserveStep();
        }
        break;
      }
    }
    expect_agreement(op);
    if (::testing::Test::HasFailure()) {
      FAIL() << "first divergence at op " << op;
    }
  }
  // The churn must have exercised both paths.
  EXPECT_GT(pi.incremental_fast_path(), 0u);
  EXPECT_GT(pi.incremental_fallback(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Random, PiDifferentialSoakTest,
                         ::testing::Range(0, 4));

// ---- point what-if vs full what-if ----------------------------------------------

TEST(IncrementalWhatIfTest, PointWhatIfMatchesFullForecast) {
  storage::Catalog catalog;
  sched::RdbmsOptions options;
  options.processing_rate = 100.0;
  options.quantum = 0.05;
  options.cost_model.noise_sigma = 0.0;
  sched::Rdbms db(&catalog, options);
  MultiQueryPi pi(&db, {});

  std::vector<QueryId> ids;
  for (int i = 0; i < 6; ++i) {
    auto id = db.Submit(QuerySpec::Synthetic(100.0 + 70.0 * i),
                        static_cast<Priority>(i % 3));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  db.Step(options.quantum);
  pi.ObserveStep();  // queue empty: the sweep serves the load
  const std::uint64_t fast_before = pi.incremental_fast_path();

  auto expect_matches = [&](const MultiQueryPi::WhatIf& scenario,
                            QueryId target, const char* what) {
    auto point = pi.EstimateWhatIf(scenario, target);
    auto full = pi.ForecastWhatIf(scenario);
    ASSERT_TRUE(point.ok()) << what;
    ASSERT_TRUE(full.ok()) << what;
    auto expected = full->FinishTimeOf(target);
    ASSERT_TRUE(expected.ok()) << what;
    EXPECT_NEAR(*expected, *point,
                1e-9 * std::max(1.0, std::fabs(*expected)))
        << what;
  };
  expect_matches({.blocked = {ids[1]}}, ids[0], "single block");
  expect_matches({.aborted = {ids[2], ids[4]}}, ids[0], "two aborts");
  expect_matches({.blocked = {ids[1]}, .aborted = {ids[5]}}, ids[3],
                 "mixed removal");
  // A duplicated victim across both lists is still one removal.
  expect_matches({.blocked = {ids[1]}, .aborted = {ids[1]}}, ids[0],
                 "duplicate victim");
  // Ids absent from the load are ignored, like ForecastWhatIf.
  expect_matches({.blocked = {ids[1], 9999}}, ids[0], "absent victim");
  // Pure removals above were answered from the sweep.
  EXPECT_GT(pi.incremental_fast_path(), fast_before);
  // Reweight scenarios fall back to the simulator — and still match.
  expect_matches({.blocked = {ids[1]}, .reweighted = {{ids[2], 6.0}}},
                 ids[0], "reweight fallback");
  // Removing the target itself is NotFound either way.
  auto gone = pi.EstimateWhatIf({.aborted = {ids[0]}}, ids[0]);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
  // The base estimates match the full forecast too.
  auto forecast = pi.ForecastAll();
  ASSERT_TRUE(forecast.ok());
  for (QueryId id : ids) {
    auto eta = pi.EstimateRemainingTime(id);
    ASSERT_TRUE(eta.ok());
    EXPECT_NEAR(*forecast->FinishTimeOf(id), *eta,
                1e-9 * std::max(1.0, *eta));
  }
}

// ---- metamorphic: priority weights scaled by 2 ----------------------------------

// Two schedulers that differ only in PriorityWeights scaled by 2 get the
// same submissions, control calls and steps. The model sees weights only
// as ratios (shares w/W, finish ratios c/w against sums of w), and
// doubling is exact in floating point, so every estimate must come out
// bit-identical — on the sweep path and on the simulator path alike.
class WeightScaleMetamorphicTest : public ::testing::TestWithParam<bool> {};

TEST_P(WeightScaleMetamorphicTest, DoubledWeightsAreBitIdentical) {
  const bool queue_work = GetParam();  // admission cap -> simulator path
  storage::Catalog catalog;
  sched::RdbmsOptions options;
  options.processing_rate = 120.0;
  options.quantum = 0.1;
  options.cost_model.noise_sigma = 0.1;
  if (queue_work) options.max_concurrent = 3;
  sched::RdbmsOptions doubled = options;
  doubled.weights = PriorityWeights(2.0, 4.0, 8.0, 16.0);
  sched::Rdbms db(&catalog, options);
  sched::Rdbms db2(&catalog, doubled);
  MultiQueryPi pi(&db, {});
  MultiQueryPi pi2(&db2, {});

  Rng rng(0x5ca1e + (queue_work ? 1u : 0u));
  std::vector<QueryId> ids;
  auto both = [&](auto&& action) {
    action(db);
    action(db2);
  };
  auto expect_identical = [&](const char* where) {
    SCOPED_TRACE(where);
    for (QueryId id : ids) {
      auto a = pi.EstimateRemainingTime(id);
      auto b = pi2.EstimateRemainingTime(id);
      ASSERT_EQ(a.ok(), b.ok()) << "id " << id;
      if (a.ok()) EXPECT_EQ(*a, *b) << "id " << id;
    }
    auto qa = pi.QuiescentEta();
    auto qb = pi2.QuiescentEta();
    ASSERT_EQ(qa.ok(), qb.ok());
    if (qa.ok()) EXPECT_EQ(*qa, *qb) << "quiescent";
    // Point what-ifs: block one query, ask about another.
    if (ids.size() >= 2) {
      const MultiQueryPi::WhatIf scenario{.blocked = {ids[1]}};
      auto wa = pi.EstimateWhatIf(scenario, ids[0]);
      auto wb = pi2.EstimateWhatIf(scenario, ids[0]);
      ASSERT_EQ(wa.ok(), wb.ok());
      if (wa.ok()) EXPECT_EQ(*wa, *wb) << "what-if";
    }
  };

  for (int round = 0; round < 12; ++round) {
    const double cost = rng.Uniform(50.0, 400.0);
    const auto priority = static_cast<Priority>(rng.UniformInt(0, 3));
    QueryId id = kInvalidQueryId;
    both([&](sched::Rdbms& d) {
      auto submitted = d.Submit(QuerySpec::Synthetic(cost), priority);
      ASSERT_TRUE(submitted.ok());
      id = *submitted;
    });
    ids.push_back(id);
    if (round % 4 == 3) {
      const auto raised = static_cast<Priority>(rng.UniformInt(0, 3));
      both([&](sched::Rdbms& d) {
        ASSERT_TRUE(d.SetPriority(ids.back(), raised).ok());
      });
    }
    expect_identical("after submit");
    for (int q = 0; q < 5; ++q) {
      db.Step(options.quantum);
      db2.Step(options.quantum);
      pi.ObserveStep();
      pi2.ObserveStep();
    }
    expect_identical("after steps");
    if (HasFailure()) FAIL() << "first divergence in round " << round;
  }
  // Each variant ran on the path it was built for.
  if (queue_work) {
    EXPECT_GT(pi.incremental_fallback(), 0u);
  } else {
    EXPECT_GT(pi.incremental_fast_path(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, WeightScaleMetamorphicTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "simulator" : "sweep";
                         });

}  // namespace
}  // namespace mqpi::pi
