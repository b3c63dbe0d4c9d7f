#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>

#include "common/priority.h"
#include "common/query_label.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/units.h"

namespace mqpi {
namespace {

// ---- Status / Result ---------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing table");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing table");
  EXPECT_EQ(s.ToString(), "NotFound: missing table");
}

TEST(StatusTest, CopyIsCheapAndShared) {
  Status a = Status::Internal("boom");
  Status b = a;
  EXPECT_EQ(b.ToString(), a.ToString());
  EXPECT_TRUE(b.code() == StatusCode::kInternal);
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 8; ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

// ---- Rng ----------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.UniformInt(-3, 4);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 4);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 8u);  // all 8 values hit
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(11);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(RngTest, ExponentialHasRightMean) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Observe(rng.Exponential(0.25));
  EXPECT_NEAR(stats.mean(), 4.0, 0.1);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Observe(rng.Normal(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(RngTest, LogNormalFactorMedianNearOne) {
  Rng rng(19);
  std::vector<double> xs;
  for (int i = 0; i < 20001; ++i) xs.push_back(rng.LogNormalFactor(0.5));
  EXPECT_NEAR(Percentile(xs, 50.0), 1.0, 0.05);
  EXPECT_EQ(rng.LogNormalFactor(0.0), 1.0);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(23);
  Rng b = a.Fork();
  EXPECT_NE(a.Next(), b.Next());
}

// ---- ZipfSampler ---------------------------------------------------------------

class ZipfSamplerParamTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSamplerParamTest, ProbabilitiesSumToOne) {
  const double a = GetParam();
  ZipfSampler sampler(50, a);
  double total = 0.0;
  for (int k = 1; k <= 50; ++k) total += sampler.Probability(k);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST_P(ZipfSamplerParamTest, ProbabilitiesDecreaseWithRank) {
  ZipfSampler sampler(50, GetParam());
  for (int k = 2; k <= 50; ++k) {
    EXPECT_LT(sampler.Probability(k), sampler.Probability(k - 1));
  }
}

TEST_P(ZipfSamplerParamTest, EmpiricalMatchesAnalytic) {
  const double a = GetParam();
  ZipfSampler sampler(20, a);
  Rng rng(31);
  std::vector<int> counts(21, 0);
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++counts[sampler.Sample(&rng)];
  for (int k = 1; k <= 20; ++k) {
    const double expected = sampler.Probability(k) * kDraws;
    // Allow 5 sigma of binomial noise plus a small floor.
    const double sigma = std::sqrt(expected) + 1.0;
    EXPECT_NEAR(counts[k], expected, 5.0 * sigma) << "rank " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(ZipfParameters, ZipfSamplerParamTest,
                         ::testing::Values(0.5, 1.0, 1.2, 2.2, 3.0));

TEST(ZipfSamplerTest, DegenerateSingleRank) {
  ZipfSampler sampler(1, 2.0);
  Rng rng(37);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sampler.Sample(&rng), 1);
  EXPECT_DOUBLE_EQ(sampler.Probability(1), 1.0);
}

// ---- PoissonProcess -------------------------------------------------------------

TEST(PoissonProcessTest, ArrivalsAreMonotone) {
  PoissonProcess process(0.5);
  Rng rng(41);
  double prev = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double t = process.NextArrival(&rng);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(PoissonProcessTest, RateMatchesLambda) {
  PoissonProcess process(2.0);
  Rng rng(43);
  const int kArrivals = 100000;
  double last = 0.0;
  for (int i = 0; i < kArrivals; ++i) last = process.NextArrival(&rng);
  // Mean inter-arrival should be ~1/lambda.
  EXPECT_NEAR(last / kArrivals, 0.5, 0.01);
}

TEST(PoissonProcessTest, ZeroRateInactive) {
  PoissonProcess process(0.0);
  EXPECT_FALSE(process.active());
}

// ---- Ewma / RunningStats ---------------------------------------------------------

TEST(EwmaTest, FirstObservationTaken) {
  Ewma e(0.3);
  EXPECT_FALSE(e.has_value());
  e.Observe(10.0);
  EXPECT_TRUE(e.has_value());
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(EwmaTest, ConvergesToConstantInput) {
  Ewma e(0.3);
  for (int i = 0; i < 100; ++i) e.Observe(5.0);
  EXPECT_NEAR(e.value(), 5.0, 1e-9);
}

TEST(EwmaTest, TracksStepChange) {
  Ewma e(0.5);
  e.Observe(0.0);
  for (int i = 0; i < 30; ++i) e.Observe(10.0);
  EXPECT_NEAR(e.value(), 10.0, 1e-3);
}

TEST(EwmaTest, ResetClears) {
  Ewma e(0.3);
  e.Observe(4.0);
  e.Reset();
  EXPECT_FALSE(e.has_value());
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Observe(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

// ---- metric helpers ---------------------------------------------------------------

TEST(MetricsTest, RelativeErrorBasics) {
  EXPECT_DOUBLE_EQ(RelativeError(110.0, 100.0), 0.1);
  EXPECT_DOUBLE_EQ(RelativeError(90.0, 100.0), 0.1);
  EXPECT_DOUBLE_EQ(RelativeError(100.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(RelativeError(0.0, 0.0), 0.0);
}

TEST(MetricsTest, MeanAndPercentile) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({5.0, 1.0, 3.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({5.0, 1.0, 3.0}, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile({5.0, 1.0, 3.0}, 50.0), 3.0);
}

TEST(UnitsTest, ApproxEqual) {
  EXPECT_TRUE(ApproxEqual(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(ApproxEqual(1.0, 1.1));
  EXPECT_TRUE(ApproxEqual(1e9, 1e9 + 1.0, 1e-8));
}

// ---- priorities -------------------------------------------------------------------

TEST(PriorityTest, WeightsMonotone) {
  PriorityWeights weights;
  EXPECT_LT(weights.WeightOf(Priority::kLow),
            weights.WeightOf(Priority::kNormal));
  EXPECT_LT(weights.WeightOf(Priority::kNormal),
            weights.WeightOf(Priority::kHigh));
  EXPECT_LT(weights.WeightOf(Priority::kHigh),
            weights.WeightOf(Priority::kCritical));
}

TEST(PriorityTest, CustomWeights) {
  PriorityWeights weights(1.0, 3.0, 9.0, 27.0);
  EXPECT_DOUBLE_EQ(weights.WeightOf(Priority::kHigh), 9.0);
}

TEST(PriorityTest, Names) {
  EXPECT_EQ(PriorityName(Priority::kLow), "low");
  EXPECT_EQ(PriorityName(Priority::kCritical), "critical");
}

// ---- QueryLabel --------------------------------------------------------------

TEST(QueryLabelTest, CopiesShareOneBlockAndCompareByText) {
  const std::string text = "select agg(*) from lineitem where quantity > 7";
  QueryLabel label(text);
  EXPECT_EQ(label, text);
  EXPECT_EQ(label.size(), text.size());
  EXPECT_NE(label.data(), text.data());  // its own copy

  QueryLabel copy = label;
  EXPECT_EQ(copy.data(), label.data());  // shared, not copied
  QueryLabel other(text);
  EXPECT_EQ(other, label);  // equal text, separate block
  EXPECT_NE(other.data(), label.data());

  // The block outlives the handle it was made through.
  const char* block = label.data();
  label = QueryLabel("replaced");
  EXPECT_EQ(label, "replaced");
  EXPECT_EQ(copy, text);
  EXPECT_EQ(copy.data(), block);

  QueryLabel moved = std::move(copy);
  EXPECT_EQ(moved.data(), block);
  EXPECT_TRUE(copy.empty());  // a moved-from handle is empty
  moved = moved;              // self-assignment keeps the block
  EXPECT_EQ(moved, text);

  const QueryLabel empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty, "");
  EXPECT_TRUE(QueryLabel("").empty());
}

}  // namespace
}  // namespace mqpi
