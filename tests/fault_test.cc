// Fault-injection and graceful-degradation tests:
//  * FaultInjector semantics — seeded determinism, independent
//    per-point streams, exact schedules, fire caps, disarm,
//  * Rdbms fault points — spurious aborts, admission flaps, rate
//    collapse, stalled quanta,
//  * MultiQueryPi guardrails — rate floor, corrupt-window rejection,
//  * PiService degradation — overload shedding, delayed publication
//    with staleness tags, session-control failures, last-known-good
//    estimate carry, and the ticker watchdog (runs under TSan via the
//    "sanitize" label).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "fault/fault_injector.h"
#include "pi/multi_query_pi.h"
#include "sched/rdbms.h"
#include "service/pi_service.h"
#include "service/session.h"
#include "storage/catalog.h"

namespace mqpi {
namespace {

using engine::QuerySpec;
using fault::FaultInjector;
using fault::FaultSpec;

// ---- injector semantics -----------------------------------------------------

std::vector<bool> FireSequence(FaultInjector* injector, const char* point,
                               int evaluations) {
  std::vector<bool> fired;
  fired.reserve(static_cast<std::size_t>(evaluations));
  for (int i = 0; i < evaluations; ++i) {
    fired.push_back(injector->ShouldFire(point));
  }
  return fired;
}

TEST(FaultInjectorTest, SameSeedReplaysTheSameFireSequence) {
  std::vector<bool> first;
  std::vector<bool> second;
  for (std::vector<bool>* out : {&first, &second}) {
    FaultInjector injector(42);
    injector.ArmProbability(fault::kSchedRateCollapse, 0.3, 0.5);
    *out = FireSequence(&injector, fault::kSchedRateCollapse, 200);
  }
  EXPECT_EQ(first, second);
  const auto fires = static_cast<std::size_t>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires, 0u);
  EXPECT_LT(fires, first.size());  // p = 0.3: neither never nor always

  FaultInjector other_seed(43);
  other_seed.ArmProbability(fault::kSchedRateCollapse, 0.3, 0.5);
  EXPECT_NE(first,
            FireSequence(&other_seed, fault::kSchedRateCollapse, 200));
}

TEST(FaultInjectorTest, PointStreamsAreIndependentOfOtherArmedPoints) {
  FaultInjector alone(7);
  alone.ArmProbability(fault::kSchedRateCollapse, 0.4);
  const auto solo = FireSequence(&alone, fault::kSchedRateCollapse, 100);

  // Same seed, but a second point armed and interleaved 1:1 — the
  // first point's decisions must not shift.
  FaultInjector crowded(7);
  crowded.ArmProbability(fault::kSchedRateCollapse, 0.4);
  crowded.ArmProbability(fault::kSchedRateSpike, 0.4);
  std::vector<bool> interleaved;
  for (int i = 0; i < 100; ++i) {
    interleaved.push_back(crowded.ShouldFire(fault::kSchedRateCollapse));
    crowded.ShouldFire(fault::kSchedRateSpike);
  }
  EXPECT_EQ(solo, interleaved);
}

TEST(FaultInjectorTest, ScheduleFiresExactlyOnListedEvaluations) {
  FaultInjector injector;
  injector.ArmSchedule(fault::kServiceTickerStall, {2, 5, 6}, 30.0);
  std::vector<std::uint64_t> fired_at;
  for (std::uint64_t i = 0; i < 10; ++i) {
    const auto fire = injector.Evaluate(fault::kServiceTickerStall);
    if (fire.fired) {
      fired_at.push_back(i);
      EXPECT_DOUBLE_EQ(fire.value, 30.0);
    }
  }
  EXPECT_EQ(fired_at, (std::vector<std::uint64_t>{2, 5, 6}));
}

TEST(FaultInjectorTest, MaxFiresCapsAnAlwaysOnPoint) {
  FaultInjector injector;
  FaultSpec spec;
  spec.probability = 1.0;
  spec.max_fires = 3;
  injector.Arm(fault::kSchedQuantumStall, spec);
  int fires = 0;
  for (int i = 0; i < 10; ++i) {
    if (injector.ShouldFire(fault::kSchedQuantumStall)) ++fires;
  }
  EXPECT_EQ(fires, 3);
  const auto stats = injector.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].evaluations, 10u);
  EXPECT_EQ(stats[0].fires, 3u);
  EXPECT_EQ(injector.total_fires(), 3u);
}

TEST(FaultInjectorTest, DisarmStopsFiresAndKeepsStats) {
  FaultInjector injector;
  EXPECT_FALSE(injector.enabled());
  injector.ArmProbability(fault::kPiCacheInvalidate, 1.0);
  EXPECT_TRUE(injector.enabled());
  EXPECT_TRUE(injector.ShouldFire(fault::kPiCacheInvalidate));

  injector.Disarm(fault::kPiCacheInvalidate);
  EXPECT_FALSE(injector.enabled());
  EXPECT_FALSE(injector.ShouldFire(fault::kPiCacheInvalidate));
  // The fire before the disarm is still auditable.
  const auto stats = injector.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].fires, 1u);

  injector.ArmProbability(fault::kPiCacheInvalidate, 1.0);
  injector.ArmProbability(fault::kPiWindowCorrupt, 1.0);
  EXPECT_TRUE(injector.enabled());
  injector.DisarmAll();
  EXPECT_FALSE(injector.enabled());
}

TEST(FaultInjectorTest, ScaleOrReturnsPayloadOnFireOnly) {
  FaultInjector injector;
  injector.ArmSchedule(fault::kSchedRateCollapse, {1}, 0.25);
  EXPECT_DOUBLE_EQ(injector.ScaleOr(fault::kSchedRateCollapse, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(injector.ScaleOr(fault::kSchedRateCollapse, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(injector.ScaleOr(fault::kSchedRateCollapse, 1.0), 1.0);
}

TEST(FaultInjectorTest, PickIndexIsDeterministicAndInRange) {
  std::vector<std::uint64_t> first;
  std::vector<std::uint64_t> second;
  for (std::vector<std::uint64_t>* out : {&first, &second}) {
    FaultInjector injector(99);
    injector.ArmProbability(fault::kSchedSpuriousAbort, 1.0);
    for (int i = 0; i < 50; ++i) {
      const std::uint64_t pick =
          injector.PickIndex(fault::kSchedSpuriousAbort, 7);
      EXPECT_LT(pick, 7u);
      out->push_back(pick);
    }
  }
  EXPECT_EQ(first, second);
}

// ---- Rdbms fault points -----------------------------------------------------

sched::RdbmsOptions QuietRdbms() {
  sched::RdbmsOptions options;
  options.processing_rate = 100.0;
  options.quantum = 0.1;
  options.cost_model.noise_sigma = 0.0;
  return options;
}

TEST(RdbmsFaultTest, SpuriousAbortKillsExactlyOneRunningQuery) {
  storage::Catalog catalog;
  sched::Rdbms db(&catalog, QuietRdbms());
  FaultInjector injector;
  db.SetFaultInjector(&injector);

  std::vector<QueryId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(*db.Submit(QuerySpec::Synthetic(1000.0)));
  }
  db.Step();  // admit; no faults armed yet
  ASSERT_GT(db.num_running(), 0);

  injector.ArmSchedule(fault::kSchedSpuriousAbort, {0});
  db.Step();
  int aborted = 0;
  for (QueryId id : ids) {
    if (db.info(id)->state == sched::QueryState::kAborted) ++aborted;
  }
  EXPECT_EQ(aborted, 1);
  db.Step();  // schedule exhausted: no further victims
  int aborted_after = 0;
  for (QueryId id : ids) {
    if (db.info(id)->state == sched::QueryState::kAborted) ++aborted_after;
  }
  EXPECT_EQ(aborted_after, 1);
}

TEST(RdbmsFaultTest, AdmissionFlapTogglesTheGate) {
  storage::Catalog catalog;
  sched::Rdbms db(&catalog, QuietRdbms());
  FaultInjector injector;
  db.SetFaultInjector(&injector);
  ASSERT_TRUE(db.admission_open());

  injector.ArmSchedule(fault::kSchedAdmissionFlap, {0});
  db.Step();
  EXPECT_FALSE(db.admission_open());
  // Closed gate: new submissions stay queued.
  const QueryId id = *db.Submit(QuerySpec::Synthetic(1000.0));
  db.Step();
  EXPECT_EQ(db.info(id)->state, sched::QueryState::kQueued);

  injector.ArmSchedule(fault::kSchedAdmissionFlap, {0});  // re-arm: flap back
  db.Step();
  EXPECT_TRUE(db.admission_open());
  db.Step();
  EXPECT_EQ(db.info(id)->state, sched::QueryState::kRunning);
}

TEST(RdbmsFaultTest, RateCollapseSlowsWorkQuantumStallStopsIt) {
  storage::Catalog catalog;
  sched::Rdbms baseline(&catalog, QuietRdbms());
  sched::Rdbms collapsed(&catalog, QuietRdbms());
  FaultInjector injector;
  collapsed.SetFaultInjector(&injector);
  injector.ArmProbability(fault::kSchedRateCollapse, 1.0, 0.25);

  const QueryId a = *baseline.Submit(QuerySpec::Synthetic(1000.0));
  const QueryId b = *collapsed.Submit(QuerySpec::Synthetic(1000.0));
  for (int i = 0; i < 10; ++i) {
    baseline.Step();
    collapsed.Step();
  }
  const double full = baseline.info(a)->completed_work;
  const double slowed = collapsed.info(b)->completed_work;
  EXPECT_GT(slowed, 0.0);
  EXPECT_LT(slowed, 0.5 * full);

  // A stalled quantum serves nothing, but the clock still advances.
  injector.DisarmAll();
  injector.ArmProbability(fault::kSchedQuantumStall, 1.0);
  const double before = collapsed.info(b)->completed_work;
  const SimTime now_before = collapsed.now();
  collapsed.Step();
  EXPECT_DOUBLE_EQ(collapsed.info(b)->completed_work, before);
  EXPECT_GT(collapsed.now(), now_before);
}

// ---- MultiQueryPi guardrails ------------------------------------------------

TEST(PiGuardrailTest, CollapsedRateIsClampedToTheFloor) {
  storage::Catalog catalog;
  sched::Rdbms db(&catalog, QuietRdbms());
  FaultInjector injector;
  db.SetFaultInjector(&injector);
  pi::MultiQueryPi pi(&db);

  const auto id = db.Submit(QuerySpec::Synthetic(1e6));
  ASSERT_TRUE(id.ok());
  // Warm up a healthy measurement, then collapse the rate to (nearly)
  // zero. The EWMA (alpha 0.2, one sample per 5 s window) needs ~35
  // collapsed windows to decay below the 0.1 U/s floor.
  for (int i = 0; i < 100; ++i) {
    db.Step();
    pi.ObserveStep();
  }
  injector.ArmProbability(fault::kSchedRateCollapse, 1.0, 1e-9);
  for (int i = 0; i < 2500; ++i) {
    db.Step();
    pi.ObserveStep();
  }
  const double floor = db.options().processing_rate * 1e-3;
  const double rate = pi.estimated_rate();
  EXPECT_TRUE(std::isfinite(rate));
  EXPECT_DOUBLE_EQ(rate, floor);
  EXPECT_GT(pi.rate_floor_hits(), 0u);
  // Estimates built on the floored rate stay finite.
  const auto eta = pi.EstimateRemainingTime(*id);
  ASSERT_TRUE(eta.ok());
  EXPECT_TRUE(std::isfinite(*eta) || *eta == kInfiniteTime);
  EXPECT_FALSE(std::isnan(*eta));
}

TEST(PiGuardrailTest, CorruptWindowSamplesAreRejectedNotSmoothed) {
  storage::Catalog catalog;
  sched::Rdbms db(&catalog, QuietRdbms());
  pi::MultiQueryPi pi(&db);
  FaultInjector injector;
  pi.SetFaultInjector(&injector);
  injector.ArmProbability(fault::kPiWindowCorrupt, 1.0,
                          std::numeric_limits<double>::quiet_NaN());

  ASSERT_TRUE(db.Submit(QuerySpec::Synthetic(1e6)).ok());
  for (int i = 0; i < 200; ++i) {
    db.Step();
    pi.ObserveStep();
  }
  // Every window accumulator was poisoned with NaN, every sample
  // rejected: the PI never observed a rate and falls back to the
  // configured one instead of smoothing garbage.
  EXPECT_GT(pi.corrupt_rate_samples(), 0u);
  EXPECT_DOUBLE_EQ(pi.estimated_rate(), db.options().processing_rate);
}

// ---- service degradation ----------------------------------------------------

service::PiServiceOptions ManualServiceOptions() {
  service::PiServiceOptions options;
  options.rdbms.processing_rate = 100.0;
  options.rdbms.quantum = 0.1;
  options.rdbms.cost_model.noise_sigma = 0.0;
  options.start_ticker = false;
  options.enable_auditor = false;
  return options;
}

TEST(ServiceDegradationTest, BoundedQueueShedsSubmitsWithResourceExhausted) {
  storage::Catalog catalog;
  auto options = ManualServiceOptions();
  options.rdbms.max_concurrent = 1;
  options.max_queued_queries = 2;
  service::PiService service(&catalog, options);
  auto session = service.OpenSession();

  ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(1e6)).ok());
  ASSERT_TRUE(service.Advance(0.1).ok());  // first query now running
  ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(10.0)).ok());
  ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(10.0)).ok());
  const auto shed = session->Submit(QuerySpec::Synthetic(10.0));
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted());
  EXPECT_EQ(service.metrics()->counter("service.submits_shed")->value(), 1u);
}

TEST(ServiceDegradationTest, BoundedArrivalBacklogShedsSubmitAt) {
  storage::Catalog catalog;
  auto options = ManualServiceOptions();
  options.max_pending_arrivals = 1;
  service::PiService service(&catalog, options);
  auto session = service.OpenSession();

  ASSERT_TRUE(session->SubmitAt(5.0, QuerySpec::Synthetic(10.0)).ok());
  const auto shed = session->SubmitAt(6.0, QuerySpec::Synthetic(10.0));
  EXPECT_TRUE(shed.IsResourceExhausted());
  EXPECT_EQ(service.metrics()->counter("service.submits_shed")->value(), 1u);
}

TEST(ServiceDegradationTest, DelayedPublicationTagsStalenessAndRecovers) {
  storage::Catalog catalog;
  FaultInjector injector;
  auto options = ManualServiceOptions();
  options.fault = &injector;
  options.stale_snapshot_quanta = 2;
  service::PiService service(&catalog, options);
  auto session = service.OpenSession();
  ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(1e5)).ok());

  ASSERT_TRUE(service.Advance(0.1).ok());  // one fresh snapshot first
  const auto fresh = service.snapshot();
  EXPECT_EQ(fresh->age_quanta, 0);
  EXPECT_FALSE(fresh->degraded);
  const std::uint64_t fresh_sequence = fresh->sequence;

  injector.ArmSchedule(fault::kServicePublishDelay, {0, 1, 2});
  ASSERT_TRUE(service.Advance(0.1).ok());
  auto stale = service.snapshot();
  EXPECT_EQ(stale->age_quanta, 1);
  EXPECT_FALSE(stale->degraded);  // below the threshold
  EXPECT_EQ(stale->sim_time, fresh->sim_time);  // frozen content

  ASSERT_TRUE(service.Advance(0.2).ok());
  stale = service.snapshot();
  EXPECT_EQ(stale->age_quanta, 3);
  EXPECT_TRUE(stale->degraded);  // at/past the threshold
  // Every re-publication still advanced the sequence: readers can see
  // the service is alive, just degraded.
  EXPECT_EQ(stale->sequence, fresh_sequence + 3);
  EXPECT_EQ(service.metrics()->counter("service.stale_snapshots")->value(),
            3u);

  // Publication heals: the next quantum publishes fresh content again.
  ASSERT_TRUE(service.Advance(0.1).ok());
  const auto healed = service.snapshot();
  EXPECT_EQ(healed->age_quanta, 0);
  EXPECT_FALSE(healed->degraded);
  EXPECT_GT(healed->sim_time, fresh->sim_time);
}

TEST(ServiceDegradationTest, SessionControlFaultFailsCleanly) {
  storage::Catalog catalog;
  FaultInjector injector;
  auto options = ManualServiceOptions();
  options.fault = &injector;
  service::PiService service(&catalog, options);
  auto session = service.OpenSession();
  const auto id = session->Submit(QuerySpec::Synthetic(1e5));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.Advance(0.1).ok());

  injector.ArmProbability(fault::kServiceSessionControlFail, 1.0);
  const Status blocked = session->Block(*id);
  ASSERT_FALSE(blocked.ok());
  // The failure is clean: the query is untouched and the operation
  // succeeds once the fault clears.
  EXPECT_EQ(service.snapshot()->Find(*id)->state,
            sched::QueryState::kRunning);
  injector.DisarmAll();
  EXPECT_TRUE(session->Block(*id).ok());
  EXPECT_TRUE(session->Resume(*id).ok());
}

TEST(ServiceDegradationTest, AbsurdEstimateDegradesToLastKnownGood) {
  storage::Catalog catalog;
  FaultInjector injector;
  auto options = ManualServiceOptions();
  options.fault = &injector;
  service::PiService service(&catalog, options);
  auto session = service.OpenSession();
  const auto id = session->Submit(QuerySpec::Synthetic(1000.0));
  ASSERT_TRUE(id.ok());

  // Healthy phase: the single-query ETA converges to a credible value
  // (its speed window needs >= 2 simulated seconds for a sample).
  ASSERT_TRUE(service.Advance(3.0).ok());
  const auto* healthy = service.snapshot()->Find(*id);
  ASSERT_NE(healthy, nullptr);
  ASSERT_TRUE(std::isfinite(healthy->eta_single));
  EXPECT_FALSE(healthy->degraded);

  // Collapse the engine rate to (nearly) zero: the single-query PI's
  // speed EWMA decays toward denormal and c/s explodes past the
  // forecast horizon — the signature the publication guardrail exists
  // to catch. (Long enough for the multi PI's windowed rate EWMA to
  // decay below its floor too: ~35 windows of 5 s.)
  injector.ArmProbability(fault::kSchedRateCollapse, 1.0, 1e-9);
  ASSERT_TRUE(service.Advance(200.0).ok());

  const auto* degraded = service.snapshot()->Find(*id);
  ASSERT_NE(degraded, nullptr);
  EXPECT_TRUE(degraded->degraded);
  // The published ETA is the last credible one, not the absurdity.
  EXPECT_TRUE(std::isfinite(degraded->eta_single));
  EXPECT_LE(degraded->eta_single, pi::MultiQueryPiOptions{}.horizon);
  EXPECT_GE(degraded->eta_single, 0.0);
  EXPECT_GT(service.metrics()->counter("pi.degraded_estimates")->value(),
            0u);
  // The multi-query estimator survives the same collapse through its
  // rate floor: finite and within-horizon without degradation.
  EXPECT_TRUE(std::isfinite(degraded->eta_multi));
  EXPECT_GT(
      service.metrics()->counter("pi.rate_floor_hits")->value(), 0u);
  // Per-point fire accounting reached the metrics registry.
  EXPECT_GT(service.metrics()
                ->counter("fault.injected",
                          {{"point", fault::kSchedRateCollapse}})
                ->value(),
            0u);
}

TEST(ServiceWatchdogTest, RestartsAStalledTickerAndDrains) {
  storage::Catalog catalog;
  FaultInjector injector;
  service::PiServiceOptions options;
  options.rdbms.processing_rate = 100.0;
  options.rdbms.quantum = 0.1;
  options.rdbms.cost_model.noise_sigma = 0.0;
  options.enable_auditor = false;
  options.fault = &injector;
  options.time_scale = 0.0;  // flat out
  options.watchdog.poll_interval_s = 0.01;
  options.watchdog.stall_threshold_s = 0.05;
  options.watchdog.backoff_initial_s = 0.01;
  // The first busy tick goes deaf for 30 wall seconds — only the
  // watchdog can save this run from timing out.
  injector.ArmSchedule(fault::kServiceTickerStall, {0}, 30.0);
  service::PiService service(&catalog, options);
  auto session = service.OpenSession();
  const auto id = session->Submit(QuerySpec::Synthetic(200.0));
  ASSERT_TRUE(id.ok());

  EXPECT_TRUE(service.WaitUntilIdle(/*timeout_seconds=*/20.0));
  EXPECT_GE(service.metrics()->counter("service.watchdog_restarts")->value(),
            1u);
  const auto* row = service.snapshot()->Find(*id);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->state, sched::QueryState::kFinished);
  service.Stop();
}

}  // namespace
}  // namespace mqpi
