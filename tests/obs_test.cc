// Observability tests: the runtime tracer (ring-buffer bounds, drop
// policy, Chrome trace_event / JSONL export), the estimate-accuracy
// auditor (closed-form trajectories plus the §2.2 standard-case
// workload through PiService), Prometheus text exposition, and a
// TSan-targeted stress test with concurrent accuracy-report readers —
// the whole suite carries the "sanitize" label.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/planner.h"
#include "fault/fault_injector.h"
#include "obs/auditor.h"
#include "obs/tracer.h"
#include "service/pi_service.h"
#include "service/session.h"
#include "storage/catalog.h"

namespace mqpi::obs {
namespace {

using engine::QuerySpec;

// ---- tracer -----------------------------------------------------------------

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer tracer;  // default options: disabled
  EXPECT_FALSE(tracer.enabled());
  tracer.Instant("test", "event");
  tracer.CounterValue("test", "value", 1.0);
  { TraceSpan span(&tracer, "test", "span"); }
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.Events().empty());
}

TEST(TracerTest, RecordsEventsInSequenceOrder) {
  Tracer tracer({.capacity = 64, .stripes = 2, .enabled = true});
  tracer.Instant("cat_a", "first", /*query=*/7, "t", 1.5);
  tracer.Instant("cat_b", "second");
  {
    TraceSpan span(&tracer, "cat_c", "work", /*query=*/9);
    span.arg("items", 3.0);
    span.arg("extra", 4.0);
    span.arg("ignored", 5.0);  // only two args stick
  }
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(tracer.recorded(), 3u);
  EXPECT_EQ(tracer.dropped(), 0u);

  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].seq, events[i - 1].seq);
  }
  EXPECT_STREQ(events[0].name, "first");
  EXPECT_EQ(events[0].phase, TracePhase::kInstant);
  EXPECT_EQ(events[0].query, 7u);
  EXPECT_STREQ(events[0].arg1_key, "t");
  EXPECT_DOUBLE_EQ(events[0].arg1, 1.5);

  EXPECT_STREQ(events[2].name, "work");
  EXPECT_EQ(events[2].phase, TracePhase::kComplete);
  EXPECT_EQ(events[2].query, 9u);
  EXPECT_STREQ(events[2].arg1_key, "items");
  EXPECT_STREQ(events[2].arg2_key, "extra");
  // The span's timestamp is its *start*: ts + dur never exceeds the
  // recording clock, so spans nest correctly in the viewer.
  EXPECT_GE(events[2].ts_ns + events[2].dur_ns, events[0].ts_ns);
}

TEST(TracerTest, RingOverwritesOldestAndCountsDrops) {
  Tracer tracer({.capacity = 16, .stripes = 1, .enabled = true});
  for (int i = 0; i < 40; ++i) {
    tracer.Instant("test", "tick", kInvalidQueryId, "i", i);
  }
  EXPECT_EQ(tracer.recorded(), 40u);
  EXPECT_EQ(tracer.dropped(), 24u);
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 16u);
  // Drop policy is oldest-first: the retained window is the most
  // recent 16 events, still in record order.
  EXPECT_DOUBLE_EQ(events.front().arg1, 24.0);
  EXPECT_DOUBLE_EQ(events.back().arg1, 39.0);
}

TEST(TracerTest, ClearResetsEverything) {
  Tracer tracer({.capacity = 8, .stripes = 1, .enabled = true});
  for (int i = 0; i < 20; ++i) tracer.Instant("test", "e");
  EXPECT_GT(tracer.dropped(), 0u);
  tracer.Clear();
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_TRUE(tracer.Events().empty());
  tracer.Instant("test", "after");
  EXPECT_EQ(tracer.Events().size(), 1u);
}

TEST(TracerTest, ChromeTraceAndJsonlExportFormats) {
  Tracer tracer({.capacity = 32, .stripes = 1, .enabled = true});
  tracer.Instant("query", "submitted", /*query=*/1, "t", 0.0);
  { TraceSpan span(&tracer, "rdbms", "step"); }
  tracer.CounterValue("service", "running", 2.0);

  std::ostringstream chrome;
  tracer.ExportChromeTrace(chrome);
  const std::string trace = chrome.str();
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"rdbms\""), std::string::npos);
  EXPECT_NE(trace.find("\"args\":{\"query\":1,\"t\":0}"), std::string::npos);
  EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Structurally valid JSON as far as brace/bracket balance goes.
  int braces = 0, brackets = 0;
  for (char c : trace) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);

  std::ostringstream jsonl;
  tracer.ExportJsonl(jsonl);
  std::istringstream lines(jsonl.str());
  std::string line;
  int count = 0;
  const std::regex object(R"(^\{"ts":[0-9.eE+-]+,.*\}$)");
  while (std::getline(lines, line)) {
    EXPECT_TRUE(std::regex_match(line, object)) << line;
    ++count;
  }
  EXPECT_EQ(count, 3);
}

TEST(TracerTest, StripedRecordingFromManyThreads) {
  Tracer tracer({.capacity = 4096, .stripes = 4, .enabled = true});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kPerThread; ++i) {
        TraceSpan span(&tracer, "test", "work");
        span.arg("i", i);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(tracer.recorded(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(tracer.dropped(), 0u);
  const auto events = tracer.Events();
  EXPECT_EQ(events.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].seq, events[i - 1].seq);
  }
}

// ---- auditor: closed-form trajectories --------------------------------------

EstimateObservation Sample(QueryId id, SimTime t, SimTime single,
                           SimTime multi) {
  EstimateObservation obs;
  obs.id = id;
  obs.time = t;
  obs.eta_single = single;
  obs.eta_multi = multi;
  return obs;
}

EstimateObservation Terminal(QueryId id, SimTime finish, bool finished) {
  EstimateObservation obs;
  obs.id = id;
  obs.time = finish;
  obs.terminal = true;
  obs.finished = finished;
  obs.finish_time = finish;
  return obs;
}

TEST(AuditorTest, ExactEstimatorScoresZeroErrorBiasedOneScoresItsBias) {
  EstimateAuditor auditor;
  // Query 1: arrival 0, finish 10. The multi estimate is exact
  // (10 - t); the single estimate is always double the truth.
  for (int t = 1; t <= 9; ++t) {
    const double truth = 10.0 - t;
    ASSERT_FALSE(
        auditor.Observe(Sample(1, t, 2.0 * truth, truth)).has_value());
  }
  auto report = auditor.Observe(Terminal(1, 10.0, /*finished=*/true));
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->finished);
  EXPECT_DOUBLE_EQ(report->lifetime, 10.0);

  EXPECT_EQ(report->multi.samples, 9);
  EXPECT_NEAR(report->multi.mape, 0.0, 1e-12);
  EXPECT_NEAR(report->multi.bias, 0.0, 1e-12);
  EXPECT_EQ(report->multi.monotonicity_violations, 0);
  // Exact from the first sample: converged at t=1, 10% of lifetime.
  EXPECT_DOUBLE_EQ(report->multi.converged_at, 1.0);
  EXPECT_NEAR(report->multi.converged_fraction, 0.1, 1e-12);

  EXPECT_NEAR(report->single.mape, 1.0, 1e-12);  // always +100% off
  EXPECT_NEAR(report->single.bias, 1.0, 1e-12);  // pessimistic
  EXPECT_EQ(report->single.converged_at, kUnknown);
  EXPECT_EQ(report->single.converged_fraction, kUnknown);

  const AccuracyAggregate agg = auditor.Aggregate();
  EXPECT_EQ(agg.queries_scored, 1u);
  EXPECT_EQ(agg.never_converged_single, 1u);
  EXPECT_EQ(agg.never_converged_multi, 0u);
}

TEST(AuditorTest, MonotonicityViolationsCountRises) {
  EstimateAuditor auditor;
  // Remaining-time readings that rise twice: 8 -> 9 (violation) and
  // 5 -> 7 (violation); the in-between declines are fine.
  const double readings[] = {8.0, 9.0, 6.0, 5.0, 7.0, 3.0};
  double t = 1.0;
  for (double reading : readings) {
    auditor.Observe(Sample(2, t, reading, reading));
    t += 1.0;
  }
  auto report = auditor.Observe(Terminal(2, 10.0, /*finished=*/true));
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->single.monotonicity_violations, 2);
  EXPECT_EQ(report->multi.monotonicity_violations, 2);
}

TEST(AuditorTest, AbortedQueriesAreCountedNotScored) {
  EstimateAuditor auditor;
  auditor.Observe(Sample(3, 1.0, 4.0, 4.0));
  auto report = auditor.Observe(Terminal(3, 2.0, /*finished=*/false));
  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->finished);
  EXPECT_EQ(report->single.samples, 0);
  EXPECT_EQ(report->multi.mape, kUnknown);
  const AccuracyAggregate agg = auditor.Aggregate();
  EXPECT_EQ(agg.queries_scored, 0u);
  EXPECT_EQ(agg.queries_aborted, 1u);
  // Re-observing a retired id is ignored.
  EXPECT_FALSE(auditor.Observe(Sample(3, 3.0, 1.0, 1.0)).has_value());
}

TEST(AuditorTest, UnusableEstimatesAreSkippedNotScored) {
  EstimateAuditor auditor;
  auditor.Observe(Sample(4, 1.0, kUnknown, 9.0));
  auditor.Observe(Sample(4, 2.0, kInfiniteTime, 8.0));
  auditor.Observe(Sample(4, 3.0, -2.0, 7.0));
  auto report = auditor.Observe(Terminal(4, 10.0, /*finished=*/true));
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->single.samples, 0);
  EXPECT_EQ(report->single.mape, kUnknown);
  EXPECT_EQ(report->multi.samples, 3);
  EXPECT_NEAR(report->multi.mape, 0.0, 1e-12);
}

TEST(AuditorTest, CompletedRetentionIsBoundedButAggregateIsNot) {
  AuditorOptions options;
  options.retain_completed = 2;
  EstimateAuditor auditor(options);
  for (QueryId id = 1; id <= 3; ++id) {
    auditor.Observe(Sample(id, 1.0, 9.0, 9.0));
    auditor.Observe(Terminal(id, 10.0, /*finished=*/true));
  }
  EXPECT_EQ(auditor.Completed().size(), 2u);
  EXPECT_EQ(auditor.ReportFor(1).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(auditor.ReportFor(3).ok());
  EXPECT_EQ(auditor.Aggregate().queries_scored, 3u);  // running sums
}

TEST(AuditorTest, ConvergenceHealsAfterLateViolation) {
  AuditorOptions options;
  options.convergence_band = 0.10;
  EstimateAuditor auditor(options);
  // Truth at t is 10 - t. In band at t=1..3, way off at t=4, back in
  // band t=5..9: converged_at must be 5, not 1.
  for (int t = 1; t <= 9; ++t) {
    const double truth = 10.0 - t;
    const double estimate = t == 4 ? 2.0 * truth : truth;
    auditor.Observe(Sample(5, t, estimate, estimate));
  }
  auto report = auditor.Observe(Terminal(5, 10.0, /*finished=*/true));
  ASSERT_TRUE(report.has_value());
  EXPECT_DOUBLE_EQ(report->multi.converged_at, 5.0);
  EXPECT_NEAR(report->multi.converged_fraction, 0.5, 1e-12);
}

TEST(AuditorTest, TruthResolutionForgivesSubResolutionError) {
  // The estimator predicts completion at t=10 but the publisher stamps
  // the finish at the end of the enclosing quantum (10.1): every sample
  // is off by exactly one quantum. With truth_resolution covering that
  // stamp quantization the trajectory scores as exact; without it the
  // endgame samples blow up relative error and kill convergence.
  auto run = [](double resolution) {
    AuditorOptions options;
    options.truth_resolution = resolution;
    EstimateAuditor auditor(options);
    for (int i = 1; i <= 99; ++i) {
      const double t = 0.1 * i;
      auditor.Observe(Sample(9, t, 10.0 - t, 10.0 - t));
    }
    return auditor.Observe(Terminal(9, 10.1, /*finished=*/true));
  };

  auto forgiving = run(/*resolution=*/0.2);
  ASSERT_TRUE(forgiving.has_value());
  EXPECT_DOUBLE_EQ(forgiving->multi.mape, 0.0);
  EXPECT_DOUBLE_EQ(forgiving->multi.bias, 0.0);
  EXPECT_NEAR(forgiving->multi.converged_at, 0.1, 1e-12);

  auto raw = run(/*resolution=*/0.0);
  ASSERT_TRUE(raw.has_value());
  EXPECT_GT(raw->multi.mape, 0.0);
  // The final scored sample (truth 0.3, estimate 0.2) is out of the 10%
  // band, so the raw trajectory never converges.
  EXPECT_EQ(raw->multi.converged_at, kUnknown);
}

TEST(AuditorTest, LongQueriesAreScoredOverTheirWholeLife) {
  // 10 000 observations at a 0.1 s quantum, far past the sample budget.
  // The estimate is exact for the first half and 1.5x the truth for the
  // second: one upward jump at the switch, then a steady countdown.
  EstimateAuditor auditor;
  const SimTime finish = 1000.1;
  for (int i = 1; i <= 10000; ++i) {
    const SimTime t = 0.1 * i;
    const double truth = finish - t;
    const double estimate = i <= 5000 ? truth : 1.5 * truth;
    auditor.Observe(Sample(10, t, estimate, estimate));
    ASSERT_LE(auditor.retained_samples(),
              auditor.options().max_samples_per_query);
  }
  auto report = auditor.Observe(Terminal(10, finish, /*finished=*/true));
  ASSERT_TRUE(report.has_value());
  // Scored samples exclude truths under 2% of the lifetime, so the
  // second half contributes 4800 of 9800 samples at 50% error.
  EXPECT_NEAR(report->multi.mape, 0.245, 0.01);
  EXPECT_NEAR(report->multi.bias, 0.245, 0.01);
  EXPECT_EQ(report->multi.converged_at, kUnknown);
  EXPECT_EQ(report->multi.monotonicity_violations, 1);
  EXPECT_EQ(auditor.retained_samples(), 0u);  // scoring frees them
}

TEST(AuditorTest, OverBudgetTrajectoriesThinUniformly) {
  AuditorOptions options;
  options.max_samples_per_query = 4;
  EstimateAuditor auditor(options);
  // Nine observations at t = 1..9 into a budget of 4: the fifth halves
  // the trajectory to t = 1, 3 (stride 2) and keeps t = 5; the ninth
  // halves it again to t = 1, 5 (stride 4) and keeps t = 9.
  const std::size_t retained[] = {1, 2, 3, 4, 3, 3, 4, 4, 3};
  for (int t = 1; t <= 9; ++t) {
    auditor.Observe(Sample(1, t, 10.0 - t, 10.0 - t));
    EXPECT_EQ(auditor.retained_samples(), retained[t - 1]) << "t=" << t;
  }
  EXPECT_EQ(auditor.live_queries(), 1u);
  auto report = auditor.Observe(Terminal(1, 10.0, /*finished=*/true));
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->multi.samples, 3);
  EXPECT_DOUBLE_EQ(report->multi.converged_at, 1.0);
  EXPECT_EQ(auditor.live_queries(), 0u);
}

// ---- auditor through the service: the §2.2 standard case --------------------

// Three queries of 100/200/300 U submitted together at C = 100 U/s,
// zero noise: processor sharing finishes them at t = 3, 5, and 6. The
// multi-query PI knows the full running set, so its remaining-time
// estimates are exact from the first quantum; the single-query PI
// extrapolates each query's own current speed and badly overestimates
// the long query early on (it cannot see the others finishing).
TEST(ServiceAuditTest, MultiPiBeatsSinglePiOnStandardCaseWorkload) {
  storage::Catalog catalog;
  service::PiServiceOptions options;
  options.rdbms.processing_rate = 100.0;
  options.rdbms.quantum = 0.1;
  options.rdbms.cost_model.noise_sigma = 0.0;
  options.start_ticker = false;
  service::PiService service(&catalog, options);
  auto session = service.OpenSession("audit");

  auto q1 = session->Submit(QuerySpec::Synthetic(100.0));
  auto q2 = session->Submit(QuerySpec::Synthetic(200.0));
  auto q3 = session->Submit(QuerySpec::Synthetic(300.0));
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  ASSERT_TRUE(q3.ok());
  ASSERT_TRUE(service.AdvanceUntilIdle(/*deadline=*/30.0).ok());

  const EstimateAuditor* auditor = service.auditor();
  const AccuracyAggregate agg = auditor->Aggregate();
  ASSERT_EQ(agg.queries_scored, 3u);
  EXPECT_EQ(agg.queries_aborted, 0u);

  // Multi-query PI: exact up to quantum granularity.
  EXPECT_LT(agg.mean_mape_multi, 0.05);
  EXPECT_EQ(agg.never_converged_multi, 0u);
  // Single-query PI: the long query's early estimates are ~60% high.
  auto long_report = auditor->ReportFor(*q3);
  ASSERT_TRUE(long_report.ok());
  EXPECT_GT(long_report->single.mape, 0.15);
  EXPECT_GT(long_report->single.bias, 0.0);  // overestimates
  EXPECT_GT(agg.mean_mape_single, agg.mean_mape_multi);

  // Completion published the labeled accuracy metrics.
  const std::string dump = service.metrics()->TextDump();
  EXPECT_NE(
      dump.find("pi.estimate_mape{estimator=multi,priority=normal}"),
      std::string::npos);
  EXPECT_NE(
      dump.find("pi.estimate_mape{estimator=single,priority=normal}"),
      std::string::npos);
  EXPECT_NE(dump.find("counter   pi.queries_scored 3"), std::string::npos);
  session->Close();
}

TEST(ServiceAuditTest, DisablingTheAuditorKeepsItEmpty) {
  storage::Catalog catalog;
  service::PiServiceOptions options;
  options.rdbms.processing_rate = 100.0;
  options.rdbms.quantum = 0.1;
  options.rdbms.cost_model.noise_sigma = 0.0;
  options.start_ticker = false;
  options.enable_auditor = false;
  service::PiService service(&catalog, options);
  auto session = service.OpenSession();
  ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(50.0)).ok());
  ASSERT_TRUE(service.AdvanceUntilIdle(30.0).ok());
  EXPECT_EQ(service.auditor()->Aggregate().queries_scored, 0u);
  EXPECT_EQ(service.auditor()->live_queries(), 0u);
  session->Close();
}

// Figures 6-7's SCQ setting through the service: three long queries
// (thousands of quanta each) share the system with Poisson arrivals of
// short ones, default cost-model noise on. Returns every completed
// report, keyed by id.
std::map<QueryId, QueryAccuracy> RunScqAudit(std::size_t budget) {
  storage::Catalog catalog;
  service::PiServiceOptions options;
  options.rdbms.processing_rate = 100.0;
  options.rdbms.quantum = 0.1;
  options.start_ticker = false;
  options.auditor.max_samples_per_query = budget;
  options.auditor.retain_completed = 1 << 20;
  service::PiService service(&catalog, options);
  auto session = service.OpenSession("scq");
  for (double cost : {8000.0, 12000.0, 16000.0}) {
    EXPECT_TRUE(session->Submit(QuerySpec::Synthetic(cost)).ok());
  }
  Rng rng(17);
  SimTime arrival = 0.0;
  for (int i = 0; i < 200; ++i) {
    arrival += rng.Exponential(0.4);
    EXPECT_TRUE(
        session->SubmitAt(arrival, QuerySpec::Synthetic(rng.Uniform(20, 100)))
            .ok());
  }
  EXPECT_TRUE(service.AdvanceUntilIdle(/*deadline=*/5000.0).ok());
  std::map<QueryId, QueryAccuracy> reports;
  for (const QueryAccuracy& report : service.auditor()->Completed()) {
    reports.emplace(report.id, report);
  }
  session->Close();
  return reports;
}

TEST(ServiceAuditTest, BudgetedTrajectoriesScoreLikeFullOnes) {
  constexpr std::size_t kBudget = 256;
  constexpr double kQuantum = 0.1;
  // Fixed tolerances for a thinned trajectory against the full one.
  constexpr double kMapeTolerance = 0.01;
  constexpr double kBiasTolerance = 0.01;
  constexpr double kConvergenceSlack = 0.01;  // plus one stride, one-sided

  const auto budgeted = RunScqAudit(kBudget);
  const auto full = RunScqAudit(std::size_t{1} << 20);
  ASSERT_EQ(budgeted.size(), 203u);
  ASSERT_EQ(full.size(), budgeted.size());

  int long_queries = 0;
  for (const auto& [id, expected] : full) {
    const QueryAccuracy& actual = budgeted.at(id);
    ASSERT_TRUE(expected.finished);
    // A query is observed once per quantum it is live; the stride is
    // the smallest power of two that fits those into the budget.
    const double lifetime_quanta = expected.lifetime / kQuantum;
    const double observations = std::ceil(lifetime_quanta) + 2.0;
    double stride = 1.0;
    while (observations > stride * kBudget) stride *= 2.0;
    if (lifetime_quanta >= 2000.0) ++long_queries;

    for (const bool single : {true, false}) {
      SCOPED_TRACE("query " + std::to_string(id) +
                   (single ? " single" : " multi"));
      const EstimatorScore& want = single ? expected.single : expected.multi;
      const EstimatorScore& got = single ? actual.single : actual.multi;
      EXPECT_EQ(got.monotonicity_violations, want.monotonicity_violations);
      if (stride == 1.0) {
        // Within the budget nothing was thinned: bit-identical scores.
        EXPECT_EQ(got.samples, want.samples);
        EXPECT_EQ(got.mape, want.mape);
        EXPECT_EQ(got.bias, want.bias);
        EXPECT_EQ(got.converged_at, want.converged_at);
        EXPECT_EQ(got.converged_fraction, want.converged_fraction);
        continue;
      }
      EXPECT_NEAR(got.mape, want.mape, kMapeTolerance);
      EXPECT_NEAR(got.bias, want.bias, kBiasTolerance);
      // Convergence is one-sided: thinning can skip a late, isolated
      // band violation, so the budgeted trajectory may settle earlier
      // than the full one, but never more than one stride later.
      // "Never settled" counts as settling at the end of the scored
      // window, 1 - kMinTruthFraction of the lifetime.
      const auto settled = [](const EstimatorScore& score) {
        return score.converged_fraction != kUnknown
                   ? score.converged_fraction
                   : 1.0 - kMinTruthFraction;
      };
      EXPECT_LE(settled(got), settled(want) + stride / lifetime_quanta +
                                  kConvergenceSlack);
    }
  }
  EXPECT_EQ(long_queries, 3);
}

TEST(ServiceAuditTest, EveryTerminalQueryIsFedExactlyOnce) {
  storage::Catalog catalog;
  fault::FaultInjector injector;
  service::PiServiceOptions options;
  options.rdbms.processing_rate = 100.0;
  options.rdbms.quantum = 0.1;
  options.rdbms.max_concurrent = 2;
  options.rdbms.cost_model.noise_sigma = 0.0;
  options.start_ticker = false;
  options.fault = &injector;
  // The check below counts terminal rows in the snapshot, so every
  // terminal row stays; the retention variant is the next test.
  options.terminal_retention_quanta = 1 << 30;
  service::PiService service(&catalog, options);
  auto session = service.OpenSession("once");
  const EstimateAuditor* auditor = service.auditor();

  // After every quantum the auditor agrees with the published snapshot
  // (the last one it was fed): one live trajectory per live row, and
  // one score or abort per terminal row.
  const auto check = [&](const char* step) {
    SCOPED_TRACE(step);
    const auto snapshot = service.snapshot();
    std::uint64_t live = 0;
    std::uint64_t terminal = 0;
    for (const service::QueryProgress& query : snapshot->queries) {
      ++(query.terminal() ? terminal : live);
    }
    const AccuracyAggregate agg = auditor->Aggregate();
    EXPECT_EQ(auditor->live_queries(), live);
    EXPECT_EQ(agg.queries_scored + agg.queries_aborted, terminal);
  };

  auto first = session->Submit(QuerySpec::Synthetic(1e4));
  auto second = session->Submit(QuerySpec::Synthetic(1e4));
  auto queued = session->Submit(QuerySpec::Synthetic(1e4));
  ASSERT_TRUE(first.ok() && second.ok() && queued.ok());
  ASSERT_TRUE(service.Advance(0.1).ok());
  check("two running, one queued");
  ASSERT_EQ(service.snapshot()->num_queued, 1);

  // Cancelled while still queued.
  ASSERT_TRUE(session->Abort(*queued).ok());
  ASSERT_TRUE(service.Advance(0.1).ok());
  check("cancelled while queued");
  EXPECT_EQ(auditor->Aggregate().queries_aborted, 1u);

  // Submitted and finished within one quantum: never seen live.
  ASSERT_TRUE(session->Abort(*second).ok());
  ASSERT_TRUE(service.Advance(0.1).ok());
  ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(1.0)).ok());
  ASSERT_TRUE(service.Advance(0.1).ok());
  check("finished in its submit quantum");
  EXPECT_EQ(auditor->Aggregate().queries_scored, 1u);
  EXPECT_EQ(auditor->Aggregate().queries_aborted, 2u);

  // Terminal during delayed publications: the pending ids carry over
  // to the next fed snapshot.
  injector.ArmSchedule(fault::kServicePublishDelay, {0, 1});
  ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(1.0)).ok());
  ASSERT_TRUE(service.Advance(0.1).ok());  // delayed; it finishes
  check("first delayed quantum");
  auto late = session->Submit(QuerySpec::Synthetic(1e4));
  ASSERT_TRUE(late.ok());
  ASSERT_TRUE(service.Advance(0.1).ok());  // delayed
  ASSERT_TRUE(session->Abort(*late).ok());
  check("second delayed quantum");
  EXPECT_EQ(auditor->Aggregate().queries_scored, 1u);
  ASSERT_TRUE(service.Advance(0.1).ok());  // fed again
  check("first fed quantum after the delay");
  EXPECT_EQ(auditor->Aggregate().queries_scored, 2u);
  EXPECT_EQ(auditor->Aggregate().queries_aborted, 3u);

  ASSERT_TRUE(service.AdvanceUntilIdle(/*deadline=*/1000.0).ok());
  check("idle");
  const AccuracyAggregate agg = auditor->Aggregate();
  EXPECT_EQ(agg.queries_scored, 3u);
  EXPECT_EQ(agg.queries_aborted, 3u);
  EXPECT_EQ(auditor->live_queries(), 0u);
  EXPECT_EQ(auditor->retained_samples(), 0u);
  EXPECT_EQ(service.metrics()->gauge("obs.auditor_samples")->value(), 0.0);
  session->Close();
}

// Freeing a reaped query waits for the auditor: queries that go
// terminal during a publication outage longer than the retention
// window have left the snapshots by the time publication resumes, yet
// each is still fed exactly once, from its record.
TEST(ServiceAuditTest, TerminalQueriesFedOnceAcrossDelayLongerThanRetention) {
  storage::Catalog catalog;
  fault::FaultInjector injector;
  service::PiServiceOptions options;
  options.rdbms.processing_rate = 100.0;
  options.rdbms.quantum = 0.1;
  options.rdbms.cost_model.noise_sigma = 0.0;
  options.start_ticker = false;
  options.fault = &injector;
  options.terminal_retention_quanta = 2;
  service::PiService service(&catalog, options);
  auto session = service.OpenSession("outage");
  const EstimateAuditor* auditor = service.auditor();

  auto cancelled = session->Submit(QuerySpec::Synthetic(1e4));
  auto survivor = session->Submit(QuerySpec::Synthetic(1e3));
  ASSERT_TRUE(cancelled.ok() && survivor.ok());
  ASSERT_TRUE(service.Advance(0.1).ok());
  EXPECT_EQ(auditor->live_queries(), 2u);

  // Six delayed quanta, three times the window.
  injector.ArmSchedule(fault::kServicePublishDelay, {0, 1, 2, 3, 4, 5});
  auto quick = session->Submit(QuerySpec::Synthetic(1.0));
  ASSERT_TRUE(quick.ok());
  ASSERT_TRUE(service.Advance(0.1).ok());  // `quick` finishes
  ASSERT_TRUE(session->Abort(*cancelled).ok());
  ASSERT_TRUE(service.Advance(0.5).ok());
  EXPECT_EQ(service.metrics()->counter("service.stale_snapshots")->value(),
            6u);
  EXPECT_EQ(auditor->Aggregate().queries_scored, 0u);
  EXPECT_EQ(auditor->Aggregate().queries_aborted, 0u);

  // First fed snapshot: both terminal rows are past the window, so
  // the snapshot no longer shows them, but the auditor gets each once.
  ASSERT_TRUE(service.Advance(0.1).ok());
  const auto snapshot = service.snapshot();
  EXPECT_EQ(snapshot->Find(*quick), nullptr);
  EXPECT_EQ(snapshot->Find(*cancelled), nullptr);
  ASSERT_NE(snapshot->Find(*survivor), nullptr);
  EXPECT_EQ(auditor->Aggregate().queries_scored, 1u);
  EXPECT_EQ(auditor->Aggregate().queries_aborted, 1u);
  EXPECT_EQ(auditor->live_queries(), 1u);
  ASSERT_TRUE(auditor->ReportFor(*quick).ok());
  EXPECT_TRUE(auditor->ReportFor(*quick)->finished);
  ASSERT_TRUE(auditor->ReportFor(*cancelled).ok());
  EXPECT_FALSE(auditor->ReportFor(*cancelled)->finished);
  // Their state is freed: the ids are unknown from here on.
  EXPECT_EQ(session->Progress(*quick).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(session->Abort(*cancelled).code(), StatusCode::kNotFound);

  ASSERT_TRUE(service.AdvanceUntilIdle(/*deadline=*/100.0).ok());
  const AccuracyAggregate agg = auditor->Aggregate();
  EXPECT_EQ(agg.queries_scored, 2u);
  EXPECT_EQ(agg.queries_aborted, 1u);
  EXPECT_EQ(auditor->live_queries(), 0u);
  EXPECT_EQ(auditor->retained_samples(), 0u);
  session->Close();
}

// ---- exposition + trace through a quickstart-sized service run --------------

TEST(ServiceObsTest, QuickstartRunExportsValidTraceAndPrometheusText) {
  GlobalTracer()->Clear();
  GlobalTracer()->set_enabled(true);

  storage::Catalog catalog;
  service::PiServiceOptions options;
  options.rdbms.processing_rate = 200.0;
  options.rdbms.quantum = 0.1;
  options.rdbms.cost_model.noise_sigma = 0.0;
  options.start_ticker = false;
  service::PiService service(&catalog, options);
  auto session = service.OpenSession("quickstart");
  ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(100.0)).ok());
  ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(300.0)).ok());
  ASSERT_TRUE(service.AdvanceUntilIdle(/*deadline=*/30.0).ok());
  session->Close();

  GlobalTracer()->set_enabled(false);

  // The whole stack recorded: engine steps, PI recomputation, service
  // publication, query lifecycle instants.
  std::ostringstream chrome;
  GlobalTracer()->ExportChromeTrace(chrome);
  const std::string trace = chrome.str();
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace.find("\"cat\":\"rdbms\",\"name\":\"step\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"pi\",\"name\":\"after_step\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"service\",\"name\":\"step_and_publish\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"query\",\"name\":\"submitted\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"query\",\"name\":\"finished\""),
            std::string::npos);
  int braces = 0;
  for (char c : trace) braces += c == '{' ? 1 : c == '}' ? -1 : 0;
  EXPECT_EQ(braces, 0);

  // Prometheus exposition: every non-empty line is a # TYPE header or
  // a `name{labels} value` sample.
  const std::string prom = service.metrics()->PrometheusDump();
  ASSERT_FALSE(prom.empty());
  const std::regex type_line(
      R"(^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$)");
  const std::regex sample_line(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")"
      R"((,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9.eE+-]+$)");
  std::istringstream lines(prom);
  std::string line;
  int samples = 0, types = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (std::regex_match(line, type_line)) {
      ++types;
    } else {
      EXPECT_TRUE(std::regex_match(line, sample_line)) << line;
      ++samples;
    }
  }
  EXPECT_GT(types, 5);
  EXPECT_GT(samples, types);
  // Spot-check the histogram expansion and name sanitization.
  EXPECT_NE(prom.find("# TYPE step_wall_ms histogram"), std::string::npos);
  EXPECT_NE(prom.find("step_wall_ms_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("step_wall_ms_sum"), std::string::npos);
  EXPECT_NE(prom.find("step_wall_ms_count"), std::string::npos);
  EXPECT_NE(prom.find("pi_estimate_mape_bucket{estimator=\"multi\","
                      "priority=\"normal\",le=\"0.01\"}"),
            std::string::npos);

  GlobalTracer()->Clear();
}

// ---- TSan stress: concurrent accuracy readers -------------------------------

// Ticker-mode service with tracing and auditing on; writers submit
// queries while readers hammer the accuracy report, the Prometheus
// dump, and the trace buffer. TSan (ctest -L sanitize on the
// -DMQPI_SANITIZE=thread build) proves the locking.
TEST(ServiceObsStressTest, ConcurrentAccuracyAndTraceReaders) {
  GlobalTracer()->Clear();
  GlobalTracer()->set_enabled(true);

  storage::Catalog catalog;
  service::PiServiceOptions options;
  options.rdbms.processing_rate = 400.0;
  options.rdbms.quantum = 0.05;
  options.rdbms.cost_model.noise_sigma = 0.0;
  options.time_scale = 0.0;
  service::PiService service(&catalog, options);

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&service, &done, r] {
      while (!done.load(std::memory_order_acquire)) {
        const AccuracyAggregate agg = service.auditor()->Aggregate();
        if (agg.queries_scored > 0) {
          // Means exist whenever anything scored; NaN would mean a
          // torn read of the running sums.
          EXPECT_FALSE(std::isnan(agg.mean_mape_multi));
        }
        switch (r) {
          case 0:
            (void)service.auditor()->RenderText();
            break;
          case 1:
            (void)service.metrics()->PrometheusDump();
            break;
          default:
            (void)service.tracer()->Events();
            break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  std::vector<std::thread> writers;
  std::atomic<int> submit_failures{0};
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&service, &submit_failures, w] {
      auto session = service.OpenSession("writer-" + std::to_string(w));
      for (int i = 0; i < 5; ++i) {
        if (!session->Submit(QuerySpec::Synthetic(40.0 + 10.0 * i)).ok()) {
          submit_failures.fetch_add(1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // Let this writer's queries drain before close (close aborts).
      for (int i = 0; i < 200 && session->LiveQueries() > 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      (void)session->Close();
    });
  }

  for (auto& writer : writers) writer.join();
  EXPECT_EQ(submit_failures.load(), 0);
  ASSERT_TRUE(service.WaitUntilIdle(/*timeout_seconds=*/60.0));
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  service.Stop();

  GlobalTracer()->set_enabled(false);
  const AccuracyAggregate agg = service.auditor()->Aggregate();
  EXPECT_EQ(agg.queries_scored + agg.queries_aborted, 10u);
  EXPECT_GT(GlobalTracer()->recorded(), 0u);
  GlobalTracer()->Clear();
}

}  // namespace
}  // namespace mqpi::obs
