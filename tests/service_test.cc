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
#include <string>
#include <thread>
#include <vector>

#include "engine/planner.h"
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

// ---- manual mode ------------------------------------------------------------

TEST(ServiceManualTest, SessionLifecycleAndSnapshotProgress) {
  storage::Catalog catalog;
  PiService service(&catalog, ManualOptions());
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

TEST(ServiceManualTest, ForecastCacheCountersPublished) {
  // The service republishes the PI's forecast-cache and incremental
  // engine statistics as metrics. Steady state with the incremental
  // engine on: snapshots answer running-query rows from O(log n)
  // point queries, so fast-path hits accumulate while full
  // simulations stay bounded by the warm-up quanta.
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
  // Fallbacks only before the first engine sync; never in steady state.
  EXPECT_LE(fallback, 20u);
  // <= one full simulation per quantum, with slack for submissions.
  EXPECT_LE(misses, 30u);
  const std::string dump = service.metrics()->TextDump();
  EXPECT_NE(dump.find("pi.forecast_cache_hit"), std::string::npos);
  EXPECT_NE(dump.find("pi.forecast_cache_miss"), std::string::npos);
  EXPECT_NE(dump.find("pi.incremental_fast_path"), std::string::npos);
  EXPECT_NE(dump.find("pi.incremental_fallback"), std::string::npos);
  EXPECT_NE(dump.find("pi.incremental_resyncs"), std::string::npos);
  // Snapshots consume the batch kernel once the fast path is up: every
  // call is either a mirror hit or a regen, and steady-state quanta
  // must produce hits (progress alone never invalidates the mirror).
  const auto batch_hits =
      service.metrics()->counter("pi.batch_kernel_hits")->value();
  const auto batch_regens =
      service.metrics()->counter("pi.batch_kernel_regens")->value();
  EXPECT_GT(batch_hits + batch_regens, 0u);
  EXPECT_GT(batch_hits, 0u);
  EXPECT_TRUE(session->Close().ok());
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
  PiService service(&catalog, ManualOptions());
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

// The snapshot builder takes one pass over the scheduler's records; the
// reference here rebuilds every published row from the cold per-query
// accessors (Rdbms::AllQueries/QueuePosition, PiManager::EstimateSingle/
// SpeedOf, MultiQueryPi::EstimateRemainingTime) of a twin Rdbms +
// PiManager driven through the same operations. The twin is
// deterministic, so every field must match exactly — except a running
// row's eta_multi on the fast path, which the service reads from the
// batch kernel and the reference from the treap (a few ULP apart by
// design, see batch_kernel.h).
TEST(ServiceManualTest, OnePassSnapshotMatchesColdAccessorReference) {
  storage::Catalog catalog;
  storage::TpcrGenerator generator(
      {.num_part_keys = 200, .matches_per_key = 4, .seed = 5});
  ASSERT_TRUE(generator.BuildLineitem(&catalog).ok());
  ASSERT_TRUE(generator.BuildPartTable(&catalog, "part_1", 2).ok());

  auto options = ManualOptions();
  options.rdbms.max_concurrent = 3;  // the last two submissions queue
  PiService service(&catalog, options);
  auto session = service.OpenSession("diff");

  sched::Rdbms twin(&catalog, options.rdbms);
  pi::PiManagerOptions twin_options = options.pi;
  twin_options.auto_track = true;  // the service always auto-tracks
  pi::PiManager twin_pis(&twin, twin_options);

  const std::vector<QuerySpec> specs = {
      QuerySpec::TpcrPartPrice("part_1"),  // 1: SQL, runs to completion
      QuerySpec::Synthetic(300.0),         // 2: re-prioritised
      QuerySpec::Synthetic(5000.0),        // 3: blocked, resumed, aborted
      QuerySpec::Synthetic(200.0),         // 4: queued, then finishes
      QuerySpec::Synthetic(150.0),         // 5: aborted while queued
  };
  for (const QuerySpec& spec : specs) {
    auto id = session->Submit(spec);
    auto twin_id = twin.Submit(spec);
    ASSERT_TRUE(id.ok() && twin_id.ok());
    ASSERT_EQ(*id, *twin_id);
  }
  const auto both = [&](Status served, Status reference) {
    ASSERT_TRUE(served.ok()) << served.ToString();
    ASSERT_TRUE(reference.ok()) << reference.ToString();
  };

  int fallback_quanta = 0;
  int fast_quanta = 0;
  for (int quantum = 1; quantum <= 600 && !twin.Idle(); ++quantum) {
    switch (quantum) {
      case 5:
        both(session->Block(3), twin.Block(3));
        break;
      case 8:
        both(session->SetPriority(2, Priority::kHigh),
             twin.SetPriority(2, Priority::kHigh));
        break;
      case 10:
        both(session->Abort(5), twin.Abort(5));
        break;
      case 15:
        both(session->Resume(3), twin.Resume(3));
        break;
      case 25:
        both(session->Abort(3), twin.Abort(3));
        break;
      default:
        break;
    }
    ASSERT_TRUE(service.Advance(options.rdbms.quantum).ok());
    twin.Step(options.rdbms.quantum);
    twin_pis.AfterStep();
    SCOPED_TRACE("quantum " + std::to_string(quantum));

    const pi::MultiQueryPi& multi = *twin_pis.multi();
    const bool fast_path = twin.num_queued() == 0;
    if (twin.num_running() > 0) ++(fast_path ? fast_quanta : fallback_quanta);

    const auto snapshot = service.snapshot();
    const auto infos = twin.AllQueries();
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
      EXPECT_EQ(row.session_id, session->id());
      EXPECT_EQ(row.label, info.label);
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
      const SimTime eta_multi = *multi.EstimateRemainingTime(info);
      if (fast_path && info.state == sched::QueryState::kRunning) {
        EXPECT_NEAR(row.eta_multi, eta_multi,
                    1e-9 * std::max(1.0, std::abs(eta_multi)));
      } else {
        EXPECT_EQ(row.eta_multi, eta_multi);
      }

      running += info.state == sched::QueryState::kRunning;
      queued += info.state == sched::QueryState::kQueued;
      blocked += info.state == sched::QueryState::kBlocked;
    }
    EXPECT_EQ(snapshot->num_running, running);
    EXPECT_EQ(snapshot->num_queued, queued);
    EXPECT_EQ(snapshot->num_blocked, blocked);
    if (HasFailure()) break;  // one quantum's diff is enough to debug
  }

  ASSERT_TRUE(twin.Idle());
  const auto final_rows = service.snapshot()->queries;
  ASSERT_EQ(final_rows.size(), specs.size());
  EXPECT_EQ(final_rows[0].state, sched::QueryState::kFinished);
  EXPECT_EQ(final_rows[1].state, sched::QueryState::kFinished);
  EXPECT_EQ(final_rows[1].priority, Priority::kHigh);
  EXPECT_EQ(final_rows[2].state, sched::QueryState::kAborted);
  EXPECT_EQ(final_rows[3].state, sched::QueryState::kFinished);
  EXPECT_EQ(final_rows[4].state, sched::QueryState::kAborted);
  // Both estimator paths served published rows.
  EXPECT_GT(fallback_quanta, 0);
  EXPECT_GT(fast_quanta, 0);
  MetricsRegistry* metrics = service.metrics();
  EXPECT_GT(metrics->counter("pi.incremental_fallback")->value(), 0u);
  EXPECT_GT(metrics->counter("pi.incremental_fast_path")->value(), 0u);
  session->Close();
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

  // Sessions closed with abort_queries_on_session_close=true abort
  // whatever was still live; the rest finished. Either way the system
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
