// Differential suite for the stage sweep (pi/batch_kernel.h): every
// Compute is pinned two ways over the same load —
//  * vs. StageProfile::Compute (1e-9 scaled-relative): the remaining
//    times, the quiescent time and the finish order of the paper's
//    Section 2.2 stage decomposition;
//  * vs. the analytic simulator's event replay (1e-6, which layers
//    replay rounding on top).
// The cases cover degenerate shapes (empty, singleton, zero cost, exact
// ratio ties), the carried finish order across lifecycle edits and
// non-proportional progress, the Section 3.1 removal benefit, and five
// chaos soak regimes against a shadow load vector. Every parameterized
// case runs twice — under CPU-feature SIMD dispatch and pinned to the
// portable scalar sweep — so the vector paths are held to the same
// tolerance as the reference implementation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "pi/analytic_simulator.h"
#include "pi/batch_kernel.h"
#include "pi/stage_profile.h"
#include "wlm/speedup.h"

namespace mqpi::pi {
namespace {

constexpr double kProfileRelTol = 1e-9;
constexpr double kSimulatorRelTol = 1e-6;

void ExpectClose(double expected, double actual, const char* what,
                 double tol) {
  if (expected == kInfiniteTime || actual == kInfiniteTime) {
    EXPECT_EQ(expected, actual) << what;
    return;
  }
  EXPECT_NEAR(expected, actual, tol * std::max(1.0, std::fabs(expected)))
      << what;
}

std::vector<QueryId> FinishIds(const BatchEstimateKernel& kernel) {
  std::vector<QueryId> ids;
  for (const QueryLoad& q : kernel.FinishOrder()) ids.push_back(q.id);
  return ids;
}

// Runs one Compute over `loads` and pins every answer against a
// from-scratch stage profile and simulator run over the same loads (no
// arrivals, so forecast finish times are remaining times).
void ExpectTwoWayMatch(BatchEstimateKernel& kernel,
                       const std::vector<QueryLoad>& loads, double rate,
                       const char* where) {
  SCOPED_TRACE(where);
  kernel.Compute(loads, rate);
  ASSERT_EQ(kernel.size(), loads.size());

  auto profile = StageProfile::Compute(loads, rate);
  ASSERT_TRUE(profile.ok());
  AnalyticModelOptions model;
  model.rate = rate;
  model.horizon = kInfiniteTime;
  auto simulated = AnalyticSimulator::Forecast(loads, {}, {}, model);
  ASSERT_TRUE(simulated.ok());

  for (const QueryLoad& q : loads) {
    const SimTime* eta = kernel.Find(q.id);
    ASSERT_NE(eta, nullptr) << "id " << q.id;
    ExpectClose(*profile->RemainingTimeOf(q.id), *eta, "profile vs sweep",
                kProfileRelTol);
    auto sim = simulated->FinishTimeOf(q.id);
    ASSERT_TRUE(sim.ok()) << "id " << q.id;
    ExpectClose(*sim, *eta, "simulator vs sweep", kSimulatorRelTol);
  }
  ExpectClose(profile->quiescent_time(), kernel.QuiescentTime(),
              "quiescent", kProfileRelTol);
  // Finish order matches the profile's (same (c/w, id) tie-break).
  const std::vector<QueryId> order = FinishIds(kernel);
  ASSERT_EQ(order.size(), profile->finish_order().size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(profile->finish_order()[i].id, order[i])
        << "finish position " << i;
  }
}

// Each test runs with SIMD dispatch (param false) and pinned scalar
// (param true).
class BatchKernelTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { BatchEstimateKernel::ForceScalar(GetParam()); }
  void TearDown() override { BatchEstimateKernel::ForceScalar(false); }
};

TEST_P(BatchKernelTest, ForceScalarPinsDispatch) {
  if (GetParam()) {
    EXPECT_STREQ(BatchEstimateKernel::ActiveIsaName(), "scalar");
  } else {
    // Whatever the CPU offers; the differential tests below hold it to
    // the same numbers either way.
    SUCCEED() << BatchEstimateKernel::ActiveIsaName();
  }
}

TEST_P(BatchKernelTest, EmptyEngine) {
  BatchEstimateKernel kernel;
  ExpectTwoWayMatch(kernel, {}, 100.0, "empty");
  EXPECT_EQ(kernel.size(), 0u);
  EXPECT_EQ(kernel.QuiescentTime(), 0.0);
  EXPECT_EQ(kernel.Find(1), nullptr);
}

TEST_P(BatchKernelTest, SingleQuery) {
  BatchEstimateKernel kernel;
  ExpectTwoWayMatch(kernel, {{7, 300.0, 1.5}}, 100.0, "singleton");
  ASSERT_NE(kernel.Find(7), nullptr);
  EXPECT_NEAR(*kernel.Find(7), 3.0, 1e-12);  // alone: 300 U at full rate
  EXPECT_EQ(kernel.Find(6), nullptr);
  EXPECT_EQ(kernel.Find(8), nullptr);
}

TEST_P(BatchKernelTest, ZeroCostQueries) {
  BatchEstimateKernel kernel;
  ExpectTwoWayMatch(kernel, {{1, 0.0, 1.0}, {2, 100.0, 1.0}, {3, 0.0, 4.0}},
                    50.0, "zero-cost mix");
  EXPECT_EQ(*kernel.Find(1), 0.0);
  EXPECT_EQ(*kernel.Find(3), 0.0);
  EXPECT_GT(*kernel.Find(2), 0.0);  // still has work
}

TEST_P(BatchKernelTest, ExactThresholdTies) {
  // Four queries with identical c/w share one finish ratio; the
  // (ratio, id) tie-break must produce one well-defined prefix order
  // shared by profile and sweep.
  BatchEstimateKernel kernel;
  ExpectTwoWayMatch(kernel,
                    {{4, 200.0, 2.0}, {2, 100.0, 1.0}, {9, 400.0, 4.0},
                     {5, 100.0, 1.0}},
                    100.0, "exact ties");
  EXPECT_EQ(FinishIds(kernel), (std::vector<QueryId>{2, 4, 5, 9}));
  // Equal-ratio queries all retire at the same instant.
  for (QueryId id : {4, 5, 9}) {
    EXPECT_NEAR(*kernel.Find(2), *kernel.Find(id), 1e-9);
  }
}

TEST_P(BatchKernelTest, SurvivesRenormalization) {
  // Costs in the millions, then one progress step that consumes most of
  // them: the sweep re-derives every ratio from the current costs, so
  // there is no stale basis to re-anchor and the answers stay exact.
  BatchEstimateKernel kernel;
  std::vector<QueryLoad> loads{{1, 5e6, 1.0}, {2, 9e6, 2.0}};
  ExpectTwoWayMatch(kernel, loads, 1000.0, "large costs");
  for (QueryLoad& q : loads) q.remaining_cost -= q.weight * 2e6;
  ExpectTwoWayMatch(kernel, loads, 1000.0, "after a large step");
}

TEST_P(BatchKernelTest, CarriedOrderFollowsEveryCompute) {
  // The carried finish order is a hint, never state: departures leave
  // it, arrivals merge in, and a progress step that swaps two ratios is
  // re-sorted.
  BatchEstimateKernel kernel;
  std::vector<QueryLoad> loads{{1, 100.0, 1.0}, {2, 300.0, 1.0}};
  ExpectTwoWayMatch(kernel, loads, 100.0, "initial");
  EXPECT_EQ(FinishIds(kernel), (std::vector<QueryId>{1, 2}));

  loads.push_back({3, 50.0, 2.0});  // arrival finishing first
  ExpectTwoWayMatch(kernel, loads, 100.0, "arrival");
  EXPECT_EQ(FinishIds(kernel), (std::vector<QueryId>{3, 1, 2}));

  loads[1].remaining_cost = 10.0;  // query 2 overtakes everyone
  ExpectTwoWayMatch(kernel, loads, 100.0, "overtake");
  EXPECT_EQ(FinishIds(kernel), (std::vector<QueryId>{2, 3, 1}));

  loads.erase(loads.begin() + 2);  // departure
  loads[0].weight = 0.5;           // and a reweight
  ExpectTwoWayMatch(kernel, loads, 50.0, "departure and reweight");
  EXPECT_EQ(FinishIds(kernel), (std::vector<QueryId>{2, 1}));
  EXPECT_EQ(kernel.Find(3), nullptr);

  ExpectTwoWayMatch(kernel, {}, 50.0, "drained");
  EXPECT_EQ(kernel.Find(1), nullptr);
}

TEST_P(BatchKernelTest, SharedKernelAcrossEngines) {
  // Two kernels over two independent loads, interleaved, stay exact:
  // no state is shared between instances.
  BatchEstimateKernel ka, kb;
  std::vector<QueryLoad> a{{1, 100.0, 1.0}};
  const std::vector<QueryLoad> b{{2, 900.0, 3.0}};
  ExpectTwoWayMatch(ka, a, 100.0, "load a");
  ExpectTwoWayMatch(kb, b, 100.0, "load b");
  a.push_back({3, 40.0, 0.5});
  ExpectTwoWayMatch(ka, a, 100.0, "load a after growth");
  ExpectTwoWayMatch(kb, b, 100.0, "load b unchanged");
}

INSTANTIATE_TEST_SUITE_P(Dispatch, BatchKernelTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "scalar" : "simd";
                         });

// ---- incremental recompute vs. StageProfile -----------------------------------

TEST(IncrementalForecastTest, MatchesStageProfileOnStaticSet) {
  BatchEstimateKernel kernel;
  const std::vector<QueryLoad> loads{
      {1, 100.0, 1.0}, {2, 500.0, 2.0}, {3, 50.0, 4.0}, {4, 300.0, 1.0}};
  ExpectTwoWayMatch(kernel, loads, 100.0, "static set");
  // Another rate over the same carried order.
  ExpectTwoWayMatch(kernel, loads, 7.5, "static set, other rate");
}

TEST(IncrementalForecastTest, AdvanceEqualsRecomputedProfile) {
  BatchEstimateKernel kernel;
  std::vector<QueryLoad> loads{{1, 120.0, 1.0}, {2, 480.0, 3.0},
                               {3, 90.0, 2.0}};
  ExpectTwoWayMatch(kernel, loads, 100.0, "before progress");
  // Proportional progress of half the smallest c/w ratio: every query
  // loses dx per unit weight and the carried order stays sorted.
  double min_ratio = kInfiniteTime;
  for (const QueryLoad& q : loads) {
    min_ratio = std::min(min_ratio, q.remaining_cost / q.weight);
  }
  const double dx = 0.5 * min_ratio;
  for (QueryLoad& q : loads) q.remaining_cost -= q.weight * dx;
  ExpectTwoWayMatch(kernel, loads, 100.0, "after progress");
}

TEST(IncrementalForecastTest, LifecycleEditsStayExact) {
  BatchEstimateKernel kernel;
  std::vector<QueryLoad> loads{{1, 200.0, 1.0}, {2, 600.0, 2.0}};
  ExpectTwoWayMatch(kernel, loads, 50.0, "initial");
  loads.push_back({3, 150.0, 4.0});  // arrival mid-run
  ExpectTwoWayMatch(kernel, loads, 50.0, "after arrival");
  loads[1].weight = 8.0;  // priority change
  ExpectTwoWayMatch(kernel, loads, 50.0, "after reweight");
  loads.erase(loads.begin());  // abort
  ExpectTwoWayMatch(kernel, loads, 50.0, "after abort");
  EXPECT_EQ(kernel.Find(1), nullptr);
}

TEST(IncrementalForecastTest, RemovalBenefitMatchesTwoProfilesAndIsAdditive) {
  BatchEstimateKernel kernel;
  const std::vector<QueryLoad> loads{
      {1, 300.0, 1.0}, {2, 100.0, 2.0}, {3, 700.0, 1.0}, {4, 250.0, 3.0}};
  const double rate = 40.0;
  kernel.Compute(loads, rate);
  auto remaining_without = [&](QueryId target,
                               const std::vector<QueryId>& removed) {
    std::vector<QueryLoad> rest;
    for (const QueryLoad& q : loads) {
      if (std::find(removed.begin(), removed.end(), q.id) == removed.end()) {
        rest.push_back(q);
      }
    }
    auto profile = StageProfile::Compute(rest, rate);
    EXPECT_TRUE(profile.ok());
    return *profile->RemainingTimeOf(target);
  };
  const SimTime base = *kernel.Find(1);
  // Single victims, earlier and later finishers alike: the O(1) read
  // equals both the difference of two profiles and wlm's two-profile
  // ExactBenefit.
  for (QueryId victim : {QueryId{2}, QueryId{3}, QueryId{4}}) {
    const SimTime benefit = kernel.RemovalBenefit(1, victim);
    ExpectClose(base - remaining_without(1, {victim}), benefit,
                "single victim", kProfileRelTol);
    auto exact = wlm::SingleQuerySpeedup::ExactBenefit(loads, 1, victim, rate);
    ASSERT_TRUE(exact.ok());
    ExpectClose(*exact, benefit, "ExactBenefit", kProfileRelTol);
  }
  // Additivity: the summed reads equal the all-removed profile exactly
  // (in-model additivity, speedup.h header note).
  ExpectClose(base - remaining_without(1, {2, 3}),
              kernel.RemovalBenefit(1, 2) + kernel.RemovalBenefit(1, 3),
              "two victims", kProfileRelTol);
}

TEST(IncrementalForecastTest, RenormalizationKeepsAnswersStable) {
  // A rolling population over 4000 rounds: the sweep re-derives every
  // ratio from the current costs, so nothing accumulates across rounds
  // and the last round is as exact as the first.
  BatchEstimateKernel kernel;
  Rng rng(20260806);
  std::map<QueryId, QueryLoad> shadow;
  QueryId next_id = 1;
  for (int i = 0; i < 8; ++i) {
    const QueryLoad q{next_id++, rng.Uniform(50.0, 500.0),
                      rng.Uniform(0.5, 4.0)};
    shadow[q.id] = q;
  }
  std::vector<QueryLoad> loads;
  for (int round = 0; round < 4000; ++round) {
    // Progress by most of the smallest ratio, retire it, replace it.
    QueryId first = kInvalidQueryId;
    double min_ratio = kInfiniteTime;
    for (const auto& [id, q] : shadow) {
      const double ratio = q.remaining_cost / q.weight;
      if (ratio < min_ratio) {
        min_ratio = ratio;
        first = id;
      }
    }
    const double dx = 0.99 * min_ratio;
    for (auto& [id, q] : shadow) q.remaining_cost -= q.weight * dx;
    shadow.erase(first);
    const QueryLoad q{next_id++, rng.Uniform(50.0, 500.0),
                      rng.Uniform(0.5, 4.0)};
    shadow[q.id] = q;
    loads.clear();
    for (const auto& [id, load] : shadow) loads.push_back(load);
    kernel.Compute(loads, 100.0);
  }
  ExpectTwoWayMatch(kernel, loads, 100.0, "after 4000 rounds");
}

// Random insert / remove / update / progress interleavings against a
// shadow load map, compared after every operation.
class EngineSoakTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineSoakTest, RandomOpsMatchShadowProfileAfterEveryOp) {
  Rng rng(31000 + static_cast<std::uint64_t>(GetParam()));
  BatchEstimateKernel kernel;
  std::map<QueryId, QueryLoad> shadow;  // ordered: deterministic picks
  QueryId next_id = 1;
  const double rate = rng.Uniform(10.0, 500.0);

  auto pick = [&]() -> QueryId {
    auto it = shadow.begin();
    std::advance(it, rng.UniformInt(
                         0, static_cast<std::int64_t>(shadow.size()) - 1));
    return it->first;
  };
  for (int op = 0; op < 600; ++op) {
    switch (shadow.empty() ? 0 : rng.UniformInt(0, 5)) {
      case 0:
      case 1: {  // insert
        const QueryLoad q{next_id++, rng.Uniform(0.0, 400.0),
                          rng.Uniform(0.25, 8.0)};
        shadow[q.id] = q;
        break;
      }
      case 2:  // remove
        shadow.erase(pick());
        break;
      case 3: {  // update (reweight and/or cost re-estimate)
        QueryLoad& q = shadow[pick()];
        q.remaining_cost = rng.Uniform(0.0, 400.0);
        q.weight = rng.Uniform(0.25, 8.0);
        break;
      }
      default: {  // proportional progress, short of the first finisher
        double min_ratio = kInfiniteTime;
        for (const auto& [id, q] : shadow) {
          min_ratio = std::min(min_ratio, q.remaining_cost / q.weight);
        }
        if (min_ratio <= 0.0) break;  // a zero-cost query is "finishing"
        const double dx = rng.Uniform(0.0, 0.95 * min_ratio);
        for (auto& [id, q] : shadow) q.remaining_cost -= q.weight * dx;
        break;
      }
    }
    std::vector<QueryLoad> loads;
    for (const auto& [id, q] : shadow) loads.push_back(q);
    ExpectTwoWayMatch(kernel, loads, rate, "soak step");
    if (::testing::Test::HasFailure()) {
      FAIL() << "first divergence at op " << op;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, EngineSoakTest, ::testing::Range(0, 4));

// ---- chaos soak regimes -----------------------------------------------------

struct SoakRegime {
  const char* name;
  // Weights for op classes: insert, remove, update, progress.
  int insert, remove, update, progress;
  int ops;
  std::uint64_t seed;
};

class BatchKernelSoakTest
    : public ::testing::TestWithParam<std::tuple<bool, int>> {
 protected:
  void SetUp() override {
    BatchEstimateKernel::ForceScalar(std::get<0>(GetParam()));
  }
  void TearDown() override { BatchEstimateKernel::ForceScalar(false); }
};

const SoakRegime kRegimes[] = {
    {"mixed-churn", 3, 2, 2, 3, 320, 101},
    {"insert-heavy-growth", 6, 1, 1, 2, 320, 202},
    {"remove-heavy-drain", 1, 5, 1, 3, 320, 303},
    {"progress-dominated", 1, 1, 1, 12, 320, 404},
    {"reweight-storm", 1, 1, 8, 2, 320, 505},
};

TEST_P(BatchKernelSoakTest, RandomOpsStayExact) {
  const SoakRegime& regime = kRegimes[std::get<1>(GetParam())];
  SCOPED_TRACE(regime.name);
  Rng rng(regime.seed);
  BatchEstimateKernel kernel;
  std::vector<QueryLoad> live;  // the shadow load vector
  QueryId next_id = 1;
  int reorders = 0;  // progress ops that changed the finish order

  const int total_weight =
      regime.insert + regime.remove + regime.update + regime.progress;
  for (int op = 0; op < regime.ops; ++op) {
    int pick = static_cast<int>(rng.UniformInt(0, total_weight - 1));
    const auto any = [&] {
      return static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
    };
    std::vector<QueryId> order_before;
    if (pick < regime.insert || live.empty()) {
      live.push_back(QueryLoad{next_id++, rng.Uniform(0.0, 2000.0),
                               rng.Uniform(0.25, 8.0)});
    } else if ((pick -= regime.insert) < regime.remove) {
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(any()));
    } else if ((pick -= regime.remove) < regime.update) {
      QueryLoad& q = live[any()];
      q.remaining_cost = rng.Uniform(0.0, 2000.0);
      q.weight = rng.Uniform(0.25, 8.0);
    } else {
      // Non-proportional progress, as operator granularity and perturbed
      // speeds produce: each query consumes its fair share of the step
      // times a per-query jitter, so ratios cross and the carried order
      // must really be re-sorted.
      order_before = FinishIds(kernel);
      const double dx = rng.Uniform(0.0, 200.0);
      for (QueryLoad& q : live) {
        const double consumed = q.weight * dx * rng.Uniform(0.5, 1.5);
        q.remaining_cost = std::max(0.0, q.remaining_cost - consumed);
      }
    }
    // Differential check after every single operation, at a rate that
    // itself varies so the per-call scalar path is exercised too.
    const double rate = rng.Uniform(10.0, 500.0);
    ExpectTwoWayMatch(kernel, live, rate,
                      ("op " + std::to_string(op)).c_str());
    if (!order_before.empty() && FinishIds(kernel) != order_before) {
      ++reorders;
    }
  }
  EXPECT_GT(reorders, 0) << "no progress op ever reordered the load";
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, BatchKernelSoakTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Range(0, static_cast<int>(std::size(
                                               kRegimes)))),
    [](const ::testing::TestParamInfo<std::tuple<bool, int>>& info) {
      std::string name = kRegimes[std::get<1>(info.param)].name;
      std::replace(name.begin(), name.end(), '-', '_');
      return name + (std::get<0>(info.param) ? "_scalar" : "_simd");
    });

}  // namespace
}  // namespace mqpi::pi
