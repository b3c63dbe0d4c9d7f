// Service-layer tests: metrics registry, manual-mode session
// lifecycle, ownership and admission accounting, scheduled-traffic
// replay, and the multi-threaded stress test that the TSan build
// (`-DMQPI_SANITIZE=thread`, ctest label "sanitize") runs to prove the
// snapshot publication scheme is race- and deadlock-free: N client
// threads submit and control queries while M reader threads poll
// Progress() flat out, and shutdown is clean with queries still
// running.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/planner.h"
#include "fault/fault_injector.h"
#include "net/wire.h"
#include "pi/multi_query_pi.h"
#include "pi/pi_manager.h"
#include "sched/rdbms.h"
#include "service/metrics.h"
#include "service/pi_service.h"
#include "service/session.h"
#include "service/traffic.h"
#include "storage/catalog.h"
#include "storage/tpcr_gen.h"
#include "workload/arrival_schedule.h"
#include "workload/zipf_workload.h"

namespace mqpi::service {
namespace {

using engine::QuerySpec;

PiServiceOptions ManualOptions() {
  PiServiceOptions options;
  options.rdbms.processing_rate = 100.0;
  options.rdbms.quantum = 0.1;
  options.rdbms.cost_model.noise_sigma = 0.0;
  options.start_ticker = false;
  return options;
}

// A retention window longer than any test run here: every terminal row
// stays in every later snapshot.
constexpr int kWholeRunQuanta = 1 << 30;

// A time/estimate value a snapshot may legally carry: the kUnknown
// sentinel, or a non-negative (possibly infinite) number — never NaN,
// never torn garbage.
bool LegalEta(SimTime eta) {
  return eta == kUnknown || (!std::isnan(eta) && eta >= 0.0);
}

// ---- metrics ----------------------------------------------------------------

TEST(MetricsTest, CounterGaugeHistogramBasics) {
  MetricsRegistry registry;
  Counter* submits = registry.counter("submits");
  submits->Increment();
  submits->Increment(4);
  EXPECT_EQ(submits->value(), 5u);
  // Same name -> same instrument.
  EXPECT_EQ(registry.counter("submits"), submits);

  registry.gauge("running")->Set(3.0);
  EXPECT_EQ(registry.gauge("running")->value(), 3.0);

  Histogram* latency = registry.histogram("step_ms");
  latency->Observe(0.5);
  latency->Observe(2.0);
  latency->Observe(100.0);
  EXPECT_EQ(latency->count(), 3u);
  EXPECT_DOUBLE_EQ(latency->sum(), 102.5);
  EXPECT_DOUBLE_EQ(latency->max(), 100.0);
  EXPECT_GT(latency->Quantile(0.99), latency->Quantile(0.01));
}

TEST(MetricsTest, TextDumpContainsAllInstruments) {
  MetricsRegistry registry;
  registry.counter("service.submits")->Increment(7);
  registry.gauge("queries.running")->Set(2);
  registry.histogram("step.wall_ms")->Observe(1.5);
  const std::string dump = registry.TextDump();
  EXPECT_NE(dump.find("counter   service.submits 7"), std::string::npos);
  EXPECT_NE(dump.find("gauge     queries.running 2"), std::string::npos);
  EXPECT_NE(dump.find("histogram step.wall_ms count=1"), std::string::npos);
}

TEST(MetricsTest, HistogramTracksMinAndRendersIt) {
  Histogram histogram;
  histogram.Observe(3.0);
  histogram.Observe(0.5);
  histogram.Observe(12.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.5);
  EXPECT_DOUBLE_EQ(histogram.max(), 12.0);
  EXPECT_NE(histogram.Render().find("min=0.5"), std::string::npos);
  // Empty histogram: min is 0, not garbage.
  EXPECT_DOUBLE_EQ(Histogram().min(), 0.0);
}

TEST(MetricsTest, QuantileInterpolatesWithinObservedRange) {
  Histogram histogram;  // default bounds end at 1024
  // All observations land in the overflow bucket (> 1024): every
  // quantile must interpolate between the observed min and max, not
  // report the last finite bound.
  histogram.Observe(5000.0);
  histogram.Observe(6000.0);
  histogram.Observe(7000.0);
  EXPECT_GE(histogram.Quantile(0.01), 5000.0);
  EXPECT_LE(histogram.Quantile(0.99), 7000.0);
  EXPECT_GT(histogram.Quantile(0.9), histogram.Quantile(0.1));

  // A single observation inside a wide bucket: the quantile is clamped
  // to the observed value instead of sweeping the whole bucket.
  Histogram single;
  single.Observe(2.0);  // bucket (1, 4]
  EXPECT_DOUBLE_EQ(single.Quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(single.Quantile(1.0), 2.0);
  EXPECT_DOUBLE_EQ(Histogram().Quantile(0.5), 0.0);  // empty
}

TEST(MetricsTest, LabeledSeriesAreDistinctWithinAFamily) {
  MetricsRegistry registry;
  Counter* high = registry.counter("wlm.blocks", {{"priority", "high"}});
  Counter* low = registry.counter("wlm.blocks", {{"priority", "low"}});
  Counter* bare = registry.counter("wlm.blocks");
  EXPECT_NE(high, low);
  EXPECT_NE(high, bare);
  // Label order does not matter: the registry canonicalises.
  EXPECT_EQ(registry.histogram("pi.err", {{"a", "1"}, {"b", "2"}}),
            registry.histogram("pi.err", {{"b", "2"}, {"a", "1"}}));

  high->Increment(3);
  low->Increment();
  bare->Increment(9);
  const std::string dump = registry.TextDump();
  EXPECT_NE(dump.find("counter   wlm.blocks 9"), std::string::npos);
  EXPECT_NE(dump.find("counter   wlm.blocks{priority=high} 3"),
            std::string::npos);
  EXPECT_NE(dump.find("counter   wlm.blocks{priority=low} 1"),
            std::string::npos);
}

TEST(MetricsTest, HistogramCustomBoundsApplyOnCreation) {
  MetricsRegistry registry;
  Histogram* mape =
      registry.histogram("pi.mape", {}, {0.1, 0.5, 1.0});
  mape->Observe(0.3);
  const auto snapshot = mape->snapshot();
  ASSERT_EQ(snapshot.bounds.size(), 3u);
  EXPECT_DOUBLE_EQ(snapshot.bounds[0], 0.1);
  ASSERT_EQ(snapshot.cumulative.size(), 4u);
  EXPECT_EQ(snapshot.cumulative[0], 0u);
  EXPECT_EQ(snapshot.cumulative[1], 1u);  // (0.1, 0.5]
  EXPECT_EQ(snapshot.cumulative[3], 1u);  // +Inf total
  // Later lookups return the existing instrument; bounds are ignored.
  EXPECT_EQ(registry.histogram("pi.mape", {}, {99.0}), mape);
}

TEST(MetricsTest, PrometheusDumpExposesTypedFamilies) {
  MetricsRegistry registry;
  registry.counter("service.submits")->Increment(7);
  registry.counter("service.submits", {{"priority", "high"}})->Increment(2);
  registry.gauge("queries.running")->Set(2);
  Histogram* latency = registry.histogram("step.wall_ms", {}, {1.0, 4.0});
  latency->Observe(0.5);
  latency->Observe(2.0);
  latency->Observe(100.0);

  const std::string prom = registry.PrometheusDump();
  // Dots sanitized, one TYPE header per family, labeled + bare samples.
  EXPECT_NE(prom.find("# TYPE service_submits counter\n"),
            std::string::npos);
  EXPECT_NE(prom.find("service_submits 7\n"), std::string::npos);
  EXPECT_NE(prom.find("service_submits{priority=\"high\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE queries_running gauge\n"), std::string::npos);
  EXPECT_NE(prom.find("queries_running 2\n"), std::string::npos);
  // Histogram expansion: cumulative buckets, +Inf, sum, count.
  EXPECT_NE(prom.find("# TYPE step_wall_ms histogram\n"), std::string::npos);
  EXPECT_NE(prom.find("step_wall_ms_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("step_wall_ms_bucket{le=\"4\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("step_wall_ms_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("step_wall_ms_sum 102.5\n"), std::string::npos);
  EXPECT_NE(prom.find("step_wall_ms_count 3\n"), std::string::npos);
}

TEST(MetricsTest, ConcurrentIncrementsDoNotLoseCounts) {
  MetricsRegistry registry;
  Counter* counter = registry.counter("c");
  Histogram* histogram = registry.histogram("h");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        histogram->Observe(1.0);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter->value(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(histogram->count(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(MetricsTest, OwnedCounterIsReadInPlace) {
  // A layer registers the counter it owns; the registry renders and
  // returns that instrument, never a copy.
  Counter owned;
  MetricsRegistry registry;
  EXPECT_EQ(registry.counter("layer.events", {}, &owned), &owned);
  EXPECT_EQ(registry.counter("layer.events"), &owned);
  owned.Increment(7);
  EXPECT_NE(registry.TextDump().find("counter   layer.events 7\n"),
            std::string::npos);
  EXPECT_NE(registry.PrometheusDump().find("layer_events 7\n"),
            std::string::npos);
}

TEST(MetricsTest, GaugeAddIsAtomicUnderConcurrentDeltas) {
  MetricsRegistry registry;
  Gauge* live = registry.gauge("live");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        live->Add(1.0);
        live->Add(-1.0);
        live->Add(1.0);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(live->value(), double(kThreads * kPerThread));
}

// ---- manual mode ------------------------------------------------------------

TEST(ServiceManualTest, SessionLifecycleAndSnapshotProgress) {
  storage::Catalog catalog;
  auto options = ManualOptions();
  // Retention is not the subject here: keep every terminal row.
  options.terminal_retention_quanta = kWholeRunQuanta;
  PiService service(&catalog, options);
  auto session = service.OpenSession("client-a");

  // Before any tick: the never-null sequence-0 snapshot.
  EXPECT_EQ(service.snapshot()->sequence, 0u);

  auto a = session->Submit(QuerySpec::Synthetic(50.0));
  auto b = session->Submit(QuerySpec::Synthetic(200.0));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(session->LiveQueries(), 2u);

  // PublishNow surfaces the submissions without advancing time.
  service.PublishNow();
  auto progress = session->Progress(*a);
  ASSERT_TRUE(progress.ok());
  EXPECT_EQ(progress->session_id, session->id());
  EXPECT_EQ(progress->fraction_done, 0.0);

  // The rate C = 100 U/s is shared between the two running queries, so
  // the 50 U query finishes at t = 1.0; by t = 1.1 only it is done.
  ASSERT_TRUE(service.Advance(1.1).ok());
  progress = session->Progress(*a);
  ASSERT_TRUE(progress.ok());
  EXPECT_EQ(progress->state, sched::QueryState::kFinished);
  EXPECT_EQ(progress->fraction_done, 1.0);
  EXPECT_EQ(progress->eta_multi, 0.0);
  progress = session->Progress(*b);
  ASSERT_TRUE(progress.ok());
  EXPECT_EQ(progress->state, sched::QueryState::kRunning);
  EXPECT_GT(progress->fraction_done, 0.0);
  EXPECT_LT(progress->fraction_done, 1.0);
  EXPECT_TRUE(LegalEta(progress->eta_multi));

  auto idle_at = service.AdvanceUntilIdle(/*deadline=*/60.0);
  ASSERT_TRUE(idle_at.ok());
  EXPECT_TRUE(service.Idle());
  EXPECT_EQ(session->ListQueries().size(), 2u);
  for (const auto& query : session->ListQueries()) {
    EXPECT_EQ(query.state, sched::QueryState::kFinished);
  }

  // Snapshot sequence advanced once per quantum plus the PublishNow.
  EXPECT_GT(service.snapshot()->sequence, 5u);
  EXPECT_EQ(service.metrics()->counter("queries.finished")->value(), 2u);
  EXPECT_TRUE(session->Close().ok());
}

// A label is rendered once at submit and shared: every snapshot row,
// Session::Progress and ListQueries show QuerySpec::ToString() — for
// running, queued and terminal rows alike — and a query's rows in
// consecutive snapshots point at the same label storage.
TEST(ServiceManualTest, LabelsAreVisibleAndSharedAcrossSnapshots) {
  storage::Catalog catalog;
  auto options = ManualOptions();
  options.rdbms.max_concurrent = 3;  // the last two queue
  options.terminal_retention_quanta = kWholeRunQuanta;
  PiService service(&catalog, options);
  auto session = service.OpenSession("labels");
  std::vector<QuerySpec> specs = {QuerySpec::Synthetic(4.0)};
  for (int i = 1; i < 5; ++i) {
    specs.push_back(QuerySpec::Synthetic(400.0 + 17.25 * i));
  }
  for (const QuerySpec& spec : specs) {
    ASSERT_TRUE(session->Submit(spec).ok());
  }
  ASSERT_TRUE(service.Advance(options.rdbms.quantum).ok());
  const SnapshotPtr first = service.snapshot();
  ASSERT_TRUE(service.Advance(options.rdbms.quantum).ok());
  const SnapshotPtr second = service.snapshot();

  ASSERT_EQ(second->queries.size(), specs.size());
  EXPECT_TRUE(second->Find(1)->terminal());
  EXPECT_EQ(second->num_queued, 1);
  for (const QueryProgress& row : second->queries) {
    SCOPED_TRACE("query " + std::to_string(row.id));
    const std::string expected = specs[row.id - 1].ToString();
    EXPECT_EQ(row.label, expected);
    const QueryProgress* earlier = first->Find(row.id);
    ASSERT_NE(earlier, nullptr);
    EXPECT_EQ(earlier->label.data(), row.label.data());
    auto progress = session->Progress(row.id);
    ASSERT_TRUE(progress.ok());
    EXPECT_EQ(progress->label, expected);
    EXPECT_EQ(progress->label.data(), row.label.data());
  }
  const std::vector<QueryProgress> listed = session->ListQueries();
  ASSERT_EQ(listed.size(), specs.size());
  for (const QueryProgress& row : listed) {
    EXPECT_EQ(row.label, specs[row.id - 1].ToString());
  }
  EXPECT_TRUE(session->Close().ok());
}

TEST(ServiceManualTest, ForecastCacheCountersPublished) {
  // The service republishes the PI's forecast-cache and estimator-path
  // statistics as metrics. Steady state: snapshots answer running-query
  // rows from the epoch's stage sweep, so fast-path reads accumulate
  // while full simulations stay bounded by the warm-up quanta.
  storage::Catalog catalog;
  PiService service(&catalog, ManualOptions());
  auto session = service.OpenSession("cache-watch");
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(500.0)).ok());
  }
  ASSERT_TRUE(service.Advance(2.0).ok());  // 20 quanta at 0.1 s

  const auto fast =
      service.metrics()->counter("pi.incremental_fast_path")->value();
  const auto fallback =
      service.metrics()->counter("pi.incremental_fallback")->value();
  const auto misses =
      service.metrics()->counter("pi.forecast_cache_miss")->value();
  EXPECT_GT(fast, 0u);
  // The closed form expresses this load from the first quantum on.
  EXPECT_LE(fallback, 20u);
  // <= one full simulation per quantum, with slack for submissions.
  EXPECT_LE(misses, 30u);
  const std::string dump = service.metrics()->TextDump();
  EXPECT_NE(dump.find("pi.forecast_cache_hit"), std::string::npos);
  EXPECT_NE(dump.find("pi.forecast_cache_miss"), std::string::npos);
  EXPECT_NE(dump.find("pi.incremental_fast_path"), std::string::npos);
  EXPECT_NE(dump.find("pi.incremental_fallback"), std::string::npos);
  EXPECT_TRUE(session->Close().ok());
}

TEST(ServiceManualTest, SteadyFastPathQuantaRunNoSimulation) {
  // A fast-path load (nothing queued, no arrival model, everything
  // inside the horizon) must be served entirely by the per-epoch stage
  // sweep: 50 manual quanta run zero simulations, and every estimate —
  // each snapshot row, the quiescent time, the sampler's probes — is
  // counted on the fast path.
  storage::Catalog catalog;
  PiService service(&catalog, ManualOptions());
  auto session = service.OpenSession("steady");
  constexpr std::uint64_t kQueries = 64;
  for (std::uint64_t i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(
        session->Submit(QuerySpec::Synthetic(1e5 + 100.0 * double(i))).ok());
  }
  ASSERT_TRUE(service.Advance(1.0).ok());  // warm-up
  MetricsRegistry* metrics = service.metrics();
  Counter* fast = metrics->counter("pi.incremental_fast_path");
  Counter* fallback = metrics->counter("pi.incremental_fallback");
  Counter* misses = metrics->counter("pi.forecast_cache_miss");
  const std::uint64_t fast_before = fast->value();
  const std::uint64_t fallback_before = fallback->value();
  const std::uint64_t misses_before = misses->value();

  constexpr std::uint64_t kQuanta = 50;
  for (std::uint64_t q = 0; q < kQuanta; ++q) {
    ASSERT_TRUE(service.Advance(0.1).ok());
  }
  EXPECT_EQ(service.snapshot()->num_running, int(kQueries));
  EXPECT_EQ(misses->value(), misses_before);
  EXPECT_EQ(fallback->value(), fallback_before);
  // At least one fast-path read per row per quantum.
  EXPECT_GE(fast->value() - fast_before, kQueries * kQuanta);
  EXPECT_TRUE(session->Close().ok());
}

TEST(ServiceManualTest, EstimatorPathGaugeNamesTheServingEstimator) {
  // pi.estimator_path{path} says which estimator served the last
  // snapshot, with exactly one series at 1: the stage sweep while every
  // query runs, the simulator once a query waits behind the MPL cap.
  storage::Catalog catalog;
  auto options = ManualOptions();
  options.rdbms.max_concurrent = 2;
  PiService service(&catalog, options);
  auto session = service.OpenSession("paths");
  const auto serving = [&] {
    std::vector<std::string> at_one;
    std::istringstream dump(service.metrics()->TextDump());
    std::string kind, name, value;
    while (dump >> kind >> name >> value) {
      if (name.starts_with("pi.estimator_path{") && value == "1") {
        at_one.push_back(name);
      }
    }
    return at_one;
  };
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(1e4)).ok());
  }
  ASSERT_TRUE(service.Advance(0.1).ok());
  ASSERT_EQ(service.snapshot()->num_running, 2);
  EXPECT_EQ(serving(),
            std::vector<std::string>{"pi.estimator_path{path=sweep}"});

  ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(1e4)).ok());
  ASSERT_TRUE(service.Advance(0.1).ok());
  ASSERT_EQ(service.snapshot()->num_queued, 1);
  EXPECT_EQ(serving(),
            std::vector<std::string>{"pi.estimator_path{path=simulator}"});
  EXPECT_EQ(service.metrics()
                ->gauge("pi.estimator_path", {{"path", "sweep"}})
                ->value(),
            0.0);
  EXPECT_TRUE(session->Close().ok());
}

// The PI's exported totals, by the name the service registers them
// under.
struct PiSeries {
  const char* name;
  std::uint64_t (pi::MultiQueryPi::*read)() const;
};
constexpr PiSeries kPiSeries[] = {
    {"pi.forecast_cache_hit", &pi::MultiQueryPi::forecast_cache_hits},
    {"pi.forecast_cache_miss", &pi::MultiQueryPi::forecast_cache_misses},
    {"pi.incremental_fast_path", &pi::MultiQueryPi::incremental_fast_path},
    {"pi.incremental_fallback", &pi::MultiQueryPi::incremental_fallback},
    {"pi.rate_floor_hits", &pi::MultiQueryPi::rate_floor_hits},
    {"pi.corrupt_rate_samples", &pi::MultiQueryPi::corrupt_rate_samples},
    {"pi.degraded_estimates", &pi::MultiQueryPi::degraded_estimates},
};

TEST(ServiceManualTest, WhatIfCountsBeforeTheNextQuantum) {
  // /metrics reads the PI's own counter: a what-if between quanta is
  // visible at once, not one quantum later.
  storage::Catalog catalog;
  PiService service(&catalog, ManualOptions());
  auto session = service.OpenSession();
  std::vector<QueryId> ids;
  for (int i = 0; i < 4; ++i) {
    auto id = session->Submit(QuerySpec::Synthetic(1e4 * (i + 1)));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  ASSERT_TRUE(service.Advance(1.0).ok());
  Counter* fast = service.metrics()->counter("pi.incremental_fast_path");
  const std::uint64_t before = fast->value();
  pi::MultiQueryPi::WhatIf scenario;
  scenario.blocked = {ids[1]};
  ASSERT_TRUE(service.EstimateWhatIf(scenario, ids[0]).ok());
  EXPECT_EQ(fast->value(), before + 1);
  EXPECT_TRUE(session->Close().ok());
}

TEST(ServiceManualTest, PiSeriesEqualTheirAccessorsEveryQuantum) {
  // Fast path (everything running) and simulator path (an MPL cap
  // queues most of the load): after every quantum each registered
  // pi.* series reads exactly what the PI reports.
  for (const int mpl : {sched::RdbmsOptions{}.max_concurrent, 2}) {
    SCOPED_TRACE(mpl);
    storage::Catalog catalog;
    auto options = ManualOptions();
    options.rdbms.max_concurrent = mpl;
    PiService service(&catalog, options);
    auto session = service.OpenSession();
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(200.0 * (i + 1))).ok());
    }
    const pi::MultiQueryPi& multi = service.multi_query_pi();
    for (int q = 0; q < 40; ++q) {
      ASSERT_TRUE(service.Advance(0.1).ok());
      for (const PiSeries& series : kPiSeries) {
        EXPECT_EQ(service.metrics()->counter(series.name)->value(),
                  (multi.*series.read)())
            << series.name << " after quantum " << q;
      }
    }
    if (mpl == 2) {
      EXPECT_GT(multi.incremental_fallback(), 0u);
      EXPECT_GT(multi.forecast_cache_misses(), 0u);
    } else {
      EXPECT_GT(multi.incremental_fast_path(), 0u);
    }
    EXPECT_TRUE(session->Close().ok());
  }
}

TEST(ServiceManualTest, StartupSeriesAreUnchanged) {
  // The series a fresh service exposes, with and without a fault
  // injector attached. Pinned: registering the PI's own instruments
  // must neither add nor drop a startup series.
  const std::vector<std::string> want = {
      "counter pi.corrupt_rate_samples",
      "counter pi.degraded_estimates",
      "counter pi.forecast_cache_hit",
      "counter pi.forecast_cache_miss",
      "counter pi.incremental_fallback",
      "counter pi.incremental_fast_path",
      "counter pi.rate_floor_hits",
      "counter service.drains",
      "counter service.quanta_stepped",
      "counter service.snapshot_reads",
      "counter service.snapshots_published",
      "counter service.stale_snapshots",
      "counter service.submits_shed",
      "counter service.ticker_pin_misses",
      "counter service.watchdog_restarts",
      "gauge obs.auditor_samples",
      "gauge service.ticker_last_step_age_quanta",
      "gauge service.uptime_quanta",
      "histogram snapshot.age_ms",
      "histogram step.wall_ms",
  };
  for (const bool with_injector : {false, true}) {
    SCOPED_TRACE(with_injector);
    storage::Catalog catalog;
    fault::FaultInjector injector;
    auto options = ManualOptions();
    if (with_injector) options.fault = &injector;
    PiService service(&catalog, options);
    std::vector<std::string> got;
    std::istringstream dump(service.metrics()->TextDump());
    std::string kind;
    std::string name;
    std::string rest;
    while (dump >> kind >> name && std::getline(dump, rest)) {
      got.push_back(kind + " " + name);
    }
    EXPECT_EQ(got, want);
  }
}

TEST(ServiceManualTest, QueuePositionsExposedWhileWaiting) {
  storage::Catalog catalog;
  auto options = ManualOptions();
  options.rdbms.max_concurrent = 1;
  PiService service(&catalog, options);
  auto session = service.OpenSession();

  auto running = session->Submit(QuerySpec::Synthetic(1000.0));
  auto first = session->Submit(QuerySpec::Synthetic(10.0));
  auto second = session->Submit(QuerySpec::Synthetic(10.0));
  ASSERT_TRUE(running.ok());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  service.PublishNow();

  auto snap = service.snapshot();
  EXPECT_EQ(snap->num_running, 1);
  EXPECT_EQ(snap->num_queued, 2);
  EXPECT_EQ(snap->Find(*running)->queue_position, -1);
  EXPECT_EQ(snap->Find(*first)->queue_position, 0);
  EXPECT_EQ(snap->Find(*second)->queue_position, 1);
  session->Close();
}

TEST(ServiceManualTest, ControlRequiresOwnership) {
  storage::Catalog catalog;
  PiService service(&catalog, ManualOptions());
  auto alice = service.OpenSession("alice");
  auto bob = service.OpenSession("bob");

  auto query = alice->Submit(QuerySpec::Synthetic(500.0));
  ASSERT_TRUE(query.ok());

  // Bob can *read* Alice's progress but not control her query.
  service.PublishNow();
  EXPECT_TRUE(bob->Progress(*query).ok());
  EXPECT_TRUE(bob->Block(*query).code() == StatusCode::kFailedPrecondition);
  EXPECT_FALSE(bob->Abort(*query).ok());
  EXPECT_FALSE(bob->SetPriority(*query, Priority::kHigh).ok());

  EXPECT_TRUE(alice->Block(*query).ok());
  EXPECT_TRUE(alice->Resume(*query).ok());
  EXPECT_TRUE(alice->SetPriority(*query, Priority::kHigh).ok());
  EXPECT_TRUE(alice->Abort(*query).ok());
  alice->Close();
  bob->Close();
}

TEST(ServiceManualTest, InflightCapRejectsExcessSubmits) {
  storage::Catalog catalog;
  auto options = ManualOptions();
  options.max_inflight_per_session = 2;
  PiService service(&catalog, options);
  auto session = service.OpenSession();

  ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(20.0)).ok());
  ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(20.0)).ok());
  auto rejected = session->Submit(QuerySpec::Synthetic(20.0));
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.metrics()->counter("service.submit_rejected")->value(),
            1u);

  // Capacity frees once queries finish.
  ASSERT_TRUE(service.AdvanceUntilIdle(60.0).ok());
  EXPECT_TRUE(session->Submit(QuerySpec::Synthetic(20.0)).ok());
  session->Close();
}

TEST(ServiceManualTest, InflightCapDropsExcessScheduledArrivals) {
  storage::Catalog catalog;
  auto options = ManualOptions();
  options.max_inflight_per_session = 2;
  PiService service(&catalog, options);
  auto session = service.OpenSession();

  // Scheduling is not admission: all three arrivals are accepted, and
  // the cap is checked when each one falls due.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(session->SubmitAt(0.05, QuerySpec::Synthetic(1000.0)).ok());
  }
  ASSERT_TRUE(service.Advance(0.3).ok());
  EXPECT_EQ(session->LiveQueries(), 2u);
  EXPECT_EQ(service.snapshot()->queries.size(), 2u);
  MetricsRegistry* metrics = service.metrics();
  EXPECT_EQ(metrics->counter("service.submit_rejected")->value(), 1u);
  EXPECT_EQ(metrics->counter("service.submits")->value(), 2u);
  EXPECT_EQ(metrics->counter("service.scheduled_arrivals")->value(), 3u);
  session->Close();
}

TEST(ServiceManualTest, CloseAbortsLiveQueriesAndDropsArrivals) {
  storage::Catalog catalog;
  PiService service(&catalog, ManualOptions());
  auto session = service.OpenSession();

  auto live = session->Submit(QuerySpec::Synthetic(1e6));
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(
      session->SubmitAt(5.0, QuerySpec::Synthetic(100.0)).ok());
  ASSERT_TRUE(session->Close().ok());
  EXPECT_TRUE(session->Close().ok());  // idempotent

  service.PublishNow();
  EXPECT_EQ(service.snapshot()->Find(*live)->state,
            sched::QueryState::kAborted);
  // The scheduled arrival was dropped with the session: advancing past
  // its due time admits nothing and the system is idle.
  ASSERT_TRUE(service.Advance(6.0).ok());
  EXPECT_TRUE(service.Idle());
  EXPECT_EQ(service.metrics()->counter("queries.aborted")->value(), 1u);
}

TEST(ServiceManualTest, ScheduledArrivalsSubmitOnTime) {
  storage::Catalog catalog;
  auto options = ManualOptions();
  // Retention is not the subject here: keep every terminal row.
  options.terminal_retention_quanta = kWholeRunQuanta;
  PiService service(&catalog, options);
  auto session = service.OpenSession();

  ASSERT_TRUE(session->SubmitAt(1.0, QuerySpec::Synthetic(30.0)).ok());
  ASSERT_TRUE(session->SubmitAt(2.5, QuerySpec::Synthetic(30.0)).ok());
  EXPECT_FALSE(service.Idle());  // pending arrivals count as work

  ASSERT_TRUE(service.Advance(0.5).ok());
  EXPECT_EQ(service.snapshot()->queries.size(), 0u);  // not yet due
  ASSERT_TRUE(service.Advance(1.0).ok());
  EXPECT_EQ(service.snapshot()->queries.size(), 1u);
  auto idle_at = service.AdvanceUntilIdle(60.0);
  ASSERT_TRUE(idle_at.ok());
  const auto queries = session->ListQueries();
  ASSERT_EQ(queries.size(), 2u);
  // Arrival timestamps match the schedule (quantized to the tick).
  EXPECT_NEAR(queries[0].arrival_time, 1.0, 0.1 + 1e-9);
  EXPECT_NEAR(queries[1].arrival_time, 2.5, 0.1 + 1e-9);
  session->Close();
}

TEST(ServiceManualTest, ZipfScheduleReplayDrivesServiceTraffic) {
  storage::Catalog catalog;
  storage::TpcrGenerator generator(
      {.num_part_keys = 200, .matches_per_key = 4, .seed = 7});
  workload::ZipfWorkload workload(&catalog, &generator,
                                  {.max_rank = 3, .a = 1.5, .n_scale = 1});
  ASSERT_TRUE(workload.MaterializeTables().ok());

  auto options = ManualOptions();
  options.rdbms.processing_rate = 500.0;
  // Retention is not the subject here: keep every terminal row.
  options.terminal_retention_quanta = kWholeRunQuanta;
  PiService service(&catalog, options);
  auto session = service.OpenSession("replay");

  Rng rng(11);
  const auto schedule =
      workload::GeneratePoissonArrivals(workload, /*lambda=*/0.5,
                                        /*horizon=*/10.0, &rng);
  ASSERT_FALSE(schedule.empty());
  ASSERT_TRUE(ReplaySchedule(session.get(), workload, schedule).ok());

  auto idle_at = service.AdvanceUntilIdle(/*deadline=*/600.0);
  ASSERT_TRUE(idle_at.ok());
  const auto queries = session->ListQueries();
  EXPECT_EQ(queries.size(), schedule.size());
  for (const auto& query : queries) {
    EXPECT_EQ(query.state, sched::QueryState::kFinished);
  }
  EXPECT_EQ(service.metrics()->counter("service.scheduled_arrivals")->value(),
            schedule.size());
  session->Close();
}

// ---- snapshot builder vs. the cold accessors --------------------------------

// The snapshot builder takes one pass over the scheduler's records and
// the service's per-query column; the reference here rebuilds every
// published row from the cold per-query accessors (Rdbms::AllQueries/
// QueuePosition, PiManager::EstimateSingle/SpeedOf,
// MultiQueryPi::EstimateRemainingTime) of a twin Rdbms + PiManager
// driven through the same operations, the twin tracking every id. The
// twin is deterministic, so every field must match exactly — a running
// row's eta_multi on the fast path included: the service reads it from
// the epoch's sweep by id and the reference from the twin's identical
// sweep, one row at a time. Two sessions own the queries, and one of
// them arrives through SubmitAt, so the owner column and both submit
// paths are checked. The service keeps its default retention window,
// so the reference is filtered by the same rule: live queries, plus
// terminal ones that finished less than the window before the
// snapshot.
TEST(ServiceManualTest, OnePassSnapshotMatchesColdAccessorReference) {
  storage::Catalog catalog;
  storage::TpcrGenerator generator(
      {.num_part_keys = 200, .matches_per_key = 4, .seed = 5});
  ASSERT_TRUE(generator.BuildLineitem(&catalog).ok());
  ASSERT_TRUE(generator.BuildPartTable(&catalog, "part_1", 2).ok());

  auto options = ManualOptions();
  options.rdbms.max_concurrent = 3;  // the last two submissions queue
  PiService service(&catalog, options);
  auto alice = service.OpenSession("alice");
  auto bob = service.OpenSession("bob");

  sched::Rdbms twin(&catalog, options.rdbms);
  pi::PiManager twin_pis(&twin);

  const std::vector<QuerySpec> specs = {
      QuerySpec::TpcrPartPrice("part_1"),  // 1: SQL, runs to completion
      QuerySpec::Synthetic(300.0),         // 2: re-prioritised
      QuerySpec::Synthetic(5000.0),        // 3: blocked, resumed, aborted
      QuerySpec::Synthetic(200.0),         // 4: queued, then finishes
      QuerySpec::Synthetic(150.0),         // 5: aborted while queued
      QuerySpec::Synthetic(250.0),         // 6: bob's arrival at t = 1
  };
  // Who submitted each id; bob owns 2, 4 and the arrival.
  const std::vector<Session*> owner = {alice.get(), bob.get(), alice.get(),
                                       bob.get(),   alice.get(), bob.get()};
  const auto twin_submit = [&](QueryId expected) {
    auto twin_id = twin.Submit(specs[expected - 1]);
    ASSERT_TRUE(twin_id.ok());
    ASSERT_EQ(*twin_id, expected);
    twin_pis.Track(*twin_id);
  };
  for (QueryId id = 1; id <= 5; ++id) {
    auto served = owner[id - 1]->Submit(specs[id - 1]);
    ASSERT_TRUE(served.ok());
    ASSERT_EQ(*served, id);
    twin_submit(id);
  }
  const SimTime arrival = 1.0;
  ASSERT_TRUE(bob->SubmitAt(arrival, specs[5]).ok());
  const auto both = [&](Status served, Status reference) {
    ASSERT_TRUE(served.ok()) << served.ToString();
    ASSERT_TRUE(reference.ok()) << reference.ToString();
  };

  const SimTime window =
      options.terminal_retention_quanta * options.rdbms.quantum;
  // Each query's row in the last snapshot that showed it.
  std::vector<QueryProgress> last_rows(specs.size());
  int reaped_quanta = 0;
  int fallback_quanta = 0;
  int fast_quanta = 0;
  for (int quantum = 1; quantum <= 600 && !twin.Idle(); ++quantum) {
    switch (quantum) {
      case 5:
        both(alice->Block(3), twin.Block(3));
        break;
      case 8:
        both(bob->SetPriority(2, Priority::kHigh),
             twin.SetPriority(2, Priority::kHigh));
        break;
      case 10:
        both(alice->Abort(5), twin.Abort(5));
        break;
      case 15:
        both(alice->Resume(3), twin.Resume(3));
        break;
      case 25:
        both(alice->Abort(3), twin.Abort(3));
        break;
      default:
        break;
    }
    ASSERT_TRUE(service.Advance(options.rdbms.quantum).ok());
    // The service submits a due arrival just before its Step.
    if (twin.num_queries() == 5 && arrival <= twin.now() + kTimeEpsilon) {
      twin_submit(6);
    }
    twin.Step(options.rdbms.quantum);
    twin_pis.AfterStep();
    SCOPED_TRACE("quantum " + std::to_string(quantum));

    const pi::MultiQueryPi& multi = *twin_pis.multi();
    const bool fast_path = twin.num_queued() == 0;
    if (twin.num_running() > 0) ++(fast_path ? fast_quanta : fallback_quanta);

    const auto snapshot = service.snapshot();
    std::vector<sched::QueryInfo> infos;
    for (const sched::QueryInfo& info : twin.AllQueries()) {
      const bool terminal = info.state == sched::QueryState::kFinished ||
                            info.state == sched::QueryState::kAborted;
      if (!terminal ||
          twin.now() - info.finish_time < window - kTimeEpsilon) {
        infos.push_back(info);
      }
    }
    if (infos.size() < twin.num_queries()) ++reaped_quanta;
    ASSERT_EQ(snapshot->queries.size(), infos.size());
    EXPECT_EQ(snapshot->sim_time, twin.now());
    EXPECT_EQ(snapshot->measured_rate, multi.estimated_rate());
    EXPECT_EQ(snapshot->quiescent_eta,
              multi.QuiescentEta().value_or(kUnknown));
    int running = 0;
    int queued = 0;
    int blocked = 0;
    for (std::size_t i = 0; i < infos.size(); ++i) {
      const sched::QueryInfo& info = infos[i];
      const QueryProgress& row = snapshot->queries[i];
      SCOPED_TRACE("query " + std::to_string(info.id));
      const bool finished = info.state == sched::QueryState::kFinished;
      const bool terminal =
          finished || info.state == sched::QueryState::kAborted;
      const double total =
          info.completed_work + info.estimated_remaining_cost;

      EXPECT_EQ(row.id, info.id);
      EXPECT_EQ(row.session_id, owner[info.id - 1]->id());
      EXPECT_EQ(row.label, twin.label(info.id));
      EXPECT_EQ(row.label, specs[info.id - 1].ToString());
      EXPECT_EQ(row.state, info.state);
      EXPECT_EQ(row.priority, info.priority);
      EXPECT_EQ(row.weight, info.weight);
      EXPECT_EQ(row.completed_work, info.completed_work);
      EXPECT_EQ(row.remaining_cost,
                finished ? 0.0 : info.estimated_remaining_cost);
      EXPECT_EQ(row.fraction_done,
                finished ? 1.0
                         : (total > 0.0 ? info.completed_work / total : 0.0));
      EXPECT_EQ(row.speed, twin_pis.SpeedOf(info.id));
      EXPECT_EQ(row.arrival_time, info.arrival_time);
      EXPECT_EQ(row.start_time, info.start_time);
      EXPECT_EQ(row.finish_time, info.finish_time);
      EXPECT_EQ(row.queue_position,
                twin.QueuePosition(info.id).value_or(-1));
      EXPECT_FALSE(row.degraded);

      SimTime eta_single = *twin_pis.EstimateSingle(info.id);
      if (terminal) eta_single = 0.0;
      if (info.state == sched::QueryState::kBlocked) {
        eta_single = kInfiniteTime;
      }
      EXPECT_EQ(row.eta_single, eta_single);
      EXPECT_EQ(row.eta_multi, *multi.EstimateRemainingTime(info));

      running += info.state == sched::QueryState::kRunning;
      queued += info.state == sched::QueryState::kQueued;
      blocked += info.state == sched::QueryState::kBlocked;
    }
    EXPECT_EQ(snapshot->num_running, running);
    EXPECT_EQ(snapshot->num_queued, queued);
    EXPECT_EQ(snapshot->num_blocked, blocked);
    for (const QueryProgress& row : snapshot->queries) {
      last_rows[row.id - 1] = row;
    }
    if (HasFailure()) break;  // one quantum's diff is enough to debug
  }

  ASSERT_TRUE(twin.Idle());
  // Rows did leave the snapshots while the run went on.
  EXPECT_GT(reaped_quanta, 0);
  const auto& final_rows = last_rows;
  EXPECT_EQ(final_rows[0].state, sched::QueryState::kFinished);
  EXPECT_EQ(final_rows[1].state, sched::QueryState::kFinished);
  EXPECT_EQ(final_rows[1].priority, Priority::kHigh);
  EXPECT_EQ(final_rows[2].state, sched::QueryState::kAborted);
  EXPECT_EQ(final_rows[3].state, sched::QueryState::kFinished);
  EXPECT_EQ(final_rows[4].state, sched::QueryState::kAborted);
  EXPECT_EQ(final_rows[5].state, sched::QueryState::kFinished);
  EXPECT_NEAR(final_rows[5].arrival_time, arrival, 1e-9);
  // Both estimator paths served published rows.
  EXPECT_GT(fallback_quanta, 0);
  EXPECT_GT(fast_quanta, 0);
  MetricsRegistry* metrics = service.metrics();
  EXPECT_GT(metrics->counter("pi.incremental_fallback")->value(), 0u);
  EXPECT_GT(metrics->counter("pi.incremental_fast_path")->value(), 0u);
  alice->Close();
  bob->Close();
}

// ---- retention --------------------------------------------------------------

// A terminal row is in exactly the snapshots built less than K quanta
// after its finish time: K step snapshots for a query that finishes
// inside a quantum, K - 1 for one aborted between quanta (its finish
// time is the start of the next quantum). Afterwards the id is gone
// from Progress, ListQueries and control.
TEST(ServiceRetentionTest, TerminalRowLivesInExactlyTheSnapshotsOfItsWindow) {
  storage::Catalog catalog;
  auto options = ManualOptions();
  PiService service(&catalog, options);
  const int k = options.terminal_retention_quanta;
  ASSERT_EQ(k, 10);  // the documented default
  auto session = service.OpenSession("retention");

  // C = 100 U/s: the short queries finish at different quanta.
  std::vector<QueryId> ids;
  for (double cost : {5.0, 30.0, 60.0, 400.0}) {
    auto id = session->Submit(QuerySpec::Synthetic(cost));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  const QueryId cancelled = ids.back();
  std::map<QueryId, SimTime> finish;
  std::map<QueryId, int> terminal_snapshots;
  const SimTime window = k * options.rdbms.quantum;
  for (int quantum = 1; quantum <= 60; ++quantum) {
    if (quantum == 7) {
      ASSERT_TRUE(session->Abort(cancelled).ok());
    }
    ASSERT_TRUE(service.Advance(options.rdbms.quantum).ok());
    const SnapshotPtr snapshot = service.snapshot();
    SCOPED_TRACE("t = " + std::to_string(snapshot->sim_time));
    EXPECT_EQ(service.metrics()->gauge("state.retained_queries")->value(),
              static_cast<double>(snapshot->queries.size()));
    const auto listed = session->ListQueries();
    for (QueryId id : ids) {
      const QueryProgress* row = snapshot->Find(id);
      const bool is_listed =
          std::any_of(listed.begin(), listed.end(),
                      [id](const QueryProgress& q) { return q.id == id; });
      EXPECT_EQ(is_listed, row != nullptr);
      if (row != nullptr && row->terminal()) {
        finish.emplace(id, row->finish_time);
        ++terminal_snapshots[id];
      }
      if (!finish.count(id)) {
        ASSERT_NE(row, nullptr) << "live query " << id << " missing";
        continue;
      }
      const bool retained =
          snapshot->sim_time - finish[id] < window - kTimeEpsilon;
      EXPECT_EQ(row != nullptr, retained) << "query " << id;
      if (retained) {
        // Still visible: control answers "already terminal".
        EXPECT_EQ(session->Abort(id).code(), StatusCode::kFailedPrecondition);
      } else {
        EXPECT_EQ(session->Progress(id).status().code(),
                  StatusCode::kNotFound);
        EXPECT_EQ(session->Abort(id).code(), StatusCode::kNotFound);
        EXPECT_EQ(session->SetPriority(id, Priority::kHigh).code(),
                  StatusCode::kNotFound);
      }
    }
  }
  ASSERT_EQ(finish.size(), ids.size());
  for (QueryId id : ids) {
    EXPECT_EQ(terminal_snapshots[id], id == cancelled ? k - 1 : k)
        << "query " << id;
  }
  EXPECT_TRUE(service.snapshot()->queries.empty());
  EXPECT_EQ(service.metrics()->gauge("state.retained_queries")->value(), 0.0);
  EXPECT_EQ(session->LiveQueries(), 0u);
  session->Close();
}

// Metamorphic check: retention changes which terminal rows a snapshot
// carries and nothing else. A service keeping every row and one with
// the default window, driven through the same churn (arrivals, a
// queue, the §2.4 arrival model, cancels), publish byte-identical rows
// for every query the windowed one shows, the same snapshot-level
// figures, and the same accuracy scores.
TEST(ServiceRetentionTest, WindowedAndKeepAllServicesPublishIdenticalRows) {
  storage::Catalog catalog;
  auto options = ManualOptions();
  options.rdbms.processing_rate = 1000.0;
  options.rdbms.max_concurrent = 6;  // bursts queue
  options.future_prior = {.lambda = 9.0, .avg_cost = 100.0};
  PiService windowed(&catalog, options);
  options.terminal_retention_quanta = kWholeRunQuanta;
  PiService keep_all(&catalog, options);
  auto a = windowed.OpenSession("churn");
  auto b = keep_all.OpenSession("churn");

  const auto row_bytes = [](const QueryProgress& row) {
    net::WireWriter writer;
    net::EncodeSnapshotRow(&writer, row);
    return writer.Take();
  };
  Rng rng(2024);
  std::vector<std::pair<int, QueryId>> cancels;  // (quantum, id)
  int compared_rows = 0;
  int reaped_rows = 0;
  for (int quantum = 0; quantum < 400; ++quantum) {
    for (int n = static_cast<int>(rng.UniformInt(0, 2)); n > 0; --n) {
      const auto spec = QuerySpec::Synthetic(10.0 + rng.Exponential(0.011));
      auto id_a = a->Submit(spec);
      auto id_b = b->Submit(spec);
      ASSERT_TRUE(id_a.ok() && id_b.ok());
      ASSERT_EQ(*id_a, *id_b);
      if (rng.NextDouble() < 0.1) {
        cancels.emplace_back(
            quantum + static_cast<int>(rng.UniformInt(1, 5)), *id_a);
      }
    }
    for (const auto& [due, id] : cancels) {
      if (due != quantum) continue;
      const QueryProgress* row = keep_all.snapshot()->Find(id);
      if (row == nullptr || row->terminal()) continue;
      EXPECT_EQ(a->Abort(id).code(), b->Abort(id).code());
    }
    ASSERT_TRUE(windowed.Advance(options.rdbms.quantum).ok());
    ASSERT_TRUE(keep_all.Advance(options.rdbms.quantum).ok());

    const SnapshotPtr small = windowed.snapshot();
    const SnapshotPtr full = keep_all.snapshot();
    SCOPED_TRACE("quantum " + std::to_string(quantum));
    EXPECT_EQ(small->sequence, full->sequence);
    EXPECT_EQ(small->sim_time, full->sim_time);
    EXPECT_EQ(small->num_running, full->num_running);
    EXPECT_EQ(small->num_queued, full->num_queued);
    EXPECT_EQ(small->num_blocked, full->num_blocked);
    EXPECT_EQ(small->measured_rate, full->measured_rate);
    EXPECT_EQ(small->quiescent_eta, full->quiescent_eta);
    for (const QueryProgress& row : full->queries) {
      const QueryProgress* mirror = small->Find(row.id);
      if (mirror == nullptr) {
        ASSERT_TRUE(row.terminal()) << "live query " << row.id << " missing";
        ++reaped_rows;
        continue;
      }
      ASSERT_EQ(row_bytes(*mirror), row_bytes(row)) << "query " << row.id;
      ++compared_rows;
    }
    if (HasFailure()) break;
  }
  EXPECT_GT(compared_rows, 0);
  EXPECT_GT(reaped_rows, 0);
  EXPECT_LT(windowed.snapshot()->queries.size(),
            keep_all.snapshot()->queries.size());

  const obs::AccuracyAggregate small_agg = windowed.auditor()->Aggregate();
  const obs::AccuracyAggregate full_agg = keep_all.auditor()->Aggregate();
  EXPECT_GT(full_agg.queries_scored, 0u);
  EXPECT_EQ(small_agg.queries_scored, full_agg.queries_scored);
  EXPECT_EQ(small_agg.queries_aborted, full_agg.queries_aborted);
  EXPECT_EQ(small_agg.mean_mape_multi, full_agg.mean_mape_multi);
  EXPECT_EQ(small_agg.mean_mape_single, full_agg.mean_mape_single);
  a->Close();
  b->Close();
}

// ---- ticker mode ------------------------------------------------------------

TEST(ServiceTickerTest, TickerDrainsSubmittedWork) {
  storage::Catalog catalog;
  PiServiceOptions options;
  options.rdbms.processing_rate = 1000.0;
  options.rdbms.quantum = 0.1;
  options.time_scale = 0.0;  // as fast as possible
  PiService service(&catalog, options);
  ASSERT_TRUE(service.ticking());

  auto session = service.OpenSession();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(100.0)).ok());
  }
  ASSERT_TRUE(service.WaitUntilIdle(/*timeout_seconds=*/30.0));
  // The ticker's last publish may still be in flight right after idle;
  // publish a definitive snapshot ourselves before asserting on it.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  service.PublishNow();
  for (const auto& query : session->ListQueries()) {
    EXPECT_EQ(query.state, sched::QueryState::kFinished);
  }
  // The parked ticker publishes nothing; sequence is stable once idle.
  const auto seq = service.snapshot()->sequence;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(service.snapshot()->sequence, seq);
  session->Close();
}

TEST(ServiceTickerTest, StopWithQueriesStillRunningIsClean) {
  storage::Catalog catalog;
  PiServiceOptions options;
  options.rdbms.processing_rate = 10.0;  // deliberately slow
  options.time_scale = 0.0;
  PiService service(&catalog, options);
  auto session = service.OpenSession();
  auto query = session->Submit(QuerySpec::Synthetic(1e9));
  ASSERT_TRUE(query.ok());

  // Let the ticker take a few quanta, then stop mid-flight.
  while (service.snapshot()->sequence < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.Stop();
  EXPECT_FALSE(service.ticking());

  // The final snapshot is still readable and consistent.
  auto snap = service.snapshot();
  const auto* progress = snap->Find(*query);
  ASSERT_NE(progress, nullptr);
  EXPECT_EQ(progress->state, sched::QueryState::kRunning);
  EXPECT_TRUE(LegalEta(progress->eta_multi));

  // A stopped service still accepts a clean session close (abort).
  EXPECT_TRUE(session->Close().ok());
}

// The flagship TSan scenario: writers submit/control queries from N
// threads while M readers poll snapshots flat out. Asserts no torn
// snapshots (monotonic sequence numbers, internally consistent rows)
// and a clean shutdown.
TEST(ServiceStressTest, ScrapesReadPiCountersWhileTickerAndWhatIfsRun) {
  // The PI's counters are read in place by scrape threads while the
  // ticker thread and a what-if caller (both under the state lock)
  // increment them: every read must be race-free (TSan) and no
  // counter may ever go backwards.
  storage::Catalog catalog;
  auto options = ManualOptions();
  options.start_ticker = true;
  options.time_scale = 0.0;
  PiService service(&catalog, options);
  auto session = service.OpenSession();
  std::vector<QueryId> ids;
  for (int i = 0; i < 16; ++i) {
    auto id = session->Submit(QuerySpec::Synthetic(1e6 + 1e4 * i));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread scraper([&] {
    std::uint64_t last[std::size(kPiSeries)] = {};
    while (!done.load(std::memory_order_acquire)) {
      if (service.metrics()->PrometheusDump().find(
              "pi_incremental_fast_path") == std::string::npos) {
        failures.fetch_add(1);
      }
      for (std::size_t i = 0; i < std::size(kPiSeries); ++i) {
        const std::uint64_t value =
            service.metrics()->counter(kPiSeries[i].name)->value();
        if (value < last[i]) failures.fetch_add(1);
        last[i] = value;
        (void)(service.multi_query_pi().*kPiSeries[i].read)();
      }
    }
  });
  std::thread whatifs([&] {
    pi::MultiQueryPi::WhatIf scenario;
    scenario.aborted = {ids[1]};
    while (!done.load(std::memory_order_acquire)) {
      (void)service.EstimateWhatIf(scenario, ids[0]);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  done.store(true, std::memory_order_release);
  scraper.join();
  whatifs.join();
  service.Stop();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(service.metrics()->counter("service.quanta_stepped")->value(), 0u);
  EXPECT_GT(service.multi_query_pi().incremental_fast_path(), 0u);
}

TEST(ServiceStressTest, ConcurrentSubmittersAndReaders) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kQueriesPerWriter = 6;

  // Writers submit real Zipf-mix queries over materialized tables
  // (small scale: this runs under TSan on modest machines).
  storage::Catalog catalog;
  storage::TpcrGenerator generator(
      {.num_part_keys = 100, .matches_per_key = 3, .seed = 13});
  workload::ZipfWorkload workload(&catalog, &generator,
                                  {.max_rank = 3, .a = 1.5, .n_scale = 1});
  ASSERT_TRUE(workload.MaterializeTables().ok());

  PiServiceOptions options;
  options.rdbms.processing_rate = 400.0;
  options.rdbms.quantum = 0.05;
  options.rdbms.max_concurrent = 6;  // force queueing
  options.time_scale = 0.0;
  options.future_prior = {.lambda = 0.5, .avg_cost = 100.0};
  options.future_prior_strength = 2.0;
  // Retention is not the subject here: the final snapshot must still
  // hold every query the writers submitted.
  options.terminal_retention_quanta = kWholeRunQuanta;
  PiService service(&catalog, options);

  std::atomic<bool> done{false};
  std::atomic<int> reader_failures{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&service, &done, &reader_failures] {
      std::uint64_t last_sequence = 0;
      SimTime last_sim_time = -1.0;
      while (!done.load(std::memory_order_acquire)) {
        const SnapshotPtr snap = service.snapshot();
        // Sequence numbers never go backwards, and simulated time
        // moves with them — a torn or stale-pointer read would break
        // this ordering.
        if (snap->sequence < last_sequence ||
            (snap->sequence > last_sequence &&
             snap->sim_time < last_sim_time - kTimeEpsilon)) {
          reader_failures.fetch_add(1);
        }
        last_sequence = snap->sequence;
        last_sim_time = snap->sim_time;
        QueryId previous_id = 0;
        for (const auto& query : snap->queries) {
          const bool sorted = query.id > previous_id;
          previous_id = query.id;
          const bool fraction_ok = query.fraction_done >= 0.0 &&
                                   query.fraction_done <= 1.0;
          if (!sorted || !fraction_ok || !LegalEta(query.eta_single) ||
              !LegalEta(query.eta_multi)) {
            reader_failures.fetch_add(1);
          }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  std::vector<std::thread> writers;
  std::atomic<int> submit_failures{0};
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&service, &workload, &submit_failures, w] {
      auto session =
          service.OpenSession("writer-" + std::to_string(w));
      Rng rng(static_cast<std::uint64_t>(1000 + w));
      std::vector<QueryId> mine;
      for (int i = 0; i < kQueriesPerWriter; ++i) {
        auto id = session->Submit(
            workload.SampleSpec(&rng),
            i % 2 == 0 ? Priority::kNormal : Priority::kHigh);
        if (!id.ok()) {
          submit_failures.fetch_add(1);
          continue;
        }
        mine.push_back(*id);
        // Exercise control operations mid-flight; failures from
        // already-finished queries are expected and fine.
        if (i == 2 && !mine.empty()) {
          (void)session->Block(mine.front());
          (void)session->Resume(mine.front());
        }
        if (i == 4 && mine.size() > 1) (void)session->Abort(mine[1]);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // Poll own progress a few times from the writer side too.
      for (int i = 0; i < 20; ++i) {
        for (QueryId id : mine) (void)session->Progress(id);
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
      // Keep queries running at close: don't abort them, let them
      // drain (ownership is released with the session).
      (void)session->Close();
    });
  }

  for (auto& writer : writers) writer.join();
  EXPECT_EQ(submit_failures.load(), 0);

  // Closing a session aborts whatever was still live; the rest
  // finished. Either way the system
  // must drain.
  ASSERT_TRUE(service.WaitUntilIdle(/*timeout_seconds=*/60.0));
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(reader_failures.load(), 0);

  // Session-close aborts and the last tick may postdate WaitUntilIdle's
  // return; publish a definitive final snapshot before asserting.
  service.PublishNow();
  const SnapshotPtr final_snapshot = service.snapshot();
  EXPECT_EQ(final_snapshot->queries.size(),
            static_cast<std::size_t>(kWriters * kQueriesPerWriter));
  for (const auto& query : final_snapshot->queries) {
    EXPECT_TRUE(query.terminal());
  }
  const auto finished =
      service.metrics()->counter("queries.finished")->value();
  const auto aborted =
      service.metrics()->counter("queries.aborted")->value();
  EXPECT_EQ(finished + aborted,
            static_cast<std::uint64_t>(kWriters * kQueriesPerWriter));
  EXPECT_GE(service.metrics()->counter("service.snapshot_reads")->value(),
            static_cast<std::uint64_t>(kReaders));
  service.Stop();
}

}  // namespace
}  // namespace mqpi::service
