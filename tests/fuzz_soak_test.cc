// Robustness tests:
//  * parser fuzzing — random token soups and mutated valid statements
//    must either parse or fail cleanly (no crash, no hang),
//  * scheduler soak — long random interleavings of submit / block /
//    resume / abort / priority / step keep every invariant intact,
//  * chaos soak — a deterministic FaultInjector batters the whole
//    stack (scheduler faults, PI cache invalidation and window
//    corruption, delayed publication, failing control calls) while
//    every published estimate stays sane, the forecast cache stays
//    coherent with an uncached reference PI, and the system drains
//    cleanly once the faults are disarmed.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/random.h"
#include "engine/sql_parser.h"
#include "fault/fault_injector.h"
#include "pi/multi_query_pi.h"
#include "sched/rdbms.h"
#include "service/pi_service.h"
#include "service/session.h"
#include "storage/catalog.h"

namespace mqpi {
namespace {

using engine::ParseSql;
using engine::QuerySpec;

// ---- parser fuzz -----------------------------------------------------------------

TEST(ParserFuzzTest, RandomTokenSoupNeverCrashes) {
  const char* vocabulary[] = {
      "select", "from",  "where",    "group",    "by",    "order", "limit",
      "join",   "on",    "count",    "sum",      "avg",   "min",   "max",
      "desc",   "asc",   "lineitem", "part_1",   "p",     "l",     "*",
      "(",      ")",     ",",        ".",        ">",     "=",     "/",
      "0.75",   "25",    "partkey",  "quantity", "retailprice",
      "extendedprice",   "suppkey"};
  Rng rng(90001);
  int parsed_ok = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string sql;
    const int len = static_cast<int>(rng.UniformInt(1, 24));
    for (int i = 0; i < len; ++i) {
      sql += vocabulary[rng.UniformInt(
          0, static_cast<std::int64_t>(std::size(vocabulary)) - 1)];
      sql += ' ';
    }
    auto result = ParseSql(sql);  // must not crash
    if (result.ok()) ++parsed_ok;
  }
  // Random soups occasionally form valid statements; most must fail.
  EXPECT_LT(parsed_ok, 300);
}

TEST(ParserFuzzTest, MutatedValidStatementsFailCleanly) {
  const std::string valid =
      "select * from part_1 p where p.retailprice * 0.75 > "
      "(select sum(l.extendedprice) / sum(l.quantity) from lineitem l "
      "where l.partkey = p.partkey)";
  Rng rng(90002);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = valid;
    const int mutations = static_cast<int>(rng.UniformInt(1, 3));
    for (int m = 0; m < mutations; ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(mutated.size()) - 1));
      switch (rng.UniformInt(0, 2)) {
        case 0:
          mutated.erase(pos, 1);
          break;
        case 1:
          mutated.insert(pos, 1, static_cast<char>(rng.UniformInt(32, 126)));
          break;
        default:
          mutated[pos] = static_cast<char>(rng.UniformInt(32, 126));
          break;
      }
    }
    auto result = ParseSql(mutated);  // must not crash
    if (result.ok()) {
      // If it still parses, it must be one of the known kinds.
      SUCCEED();
    }
  }
}

TEST(ParserFuzzTest, PathologicalInputs) {
  EXPECT_FALSE(ParseSql("").ok());
  EXPECT_FALSE(ParseSql("   \t\n  ").ok());
  EXPECT_FALSE(ParseSql(std::string(10000, '(')).ok());
  EXPECT_FALSE(ParseSql("select " + std::string(5000, 'x')).ok());
  std::string deep = "select count(*) from t where x > ";
  deep += std::string(2000, '9');
  auto r = ParseSql(deep);  // giant number literal
  EXPECT_TRUE(r.ok() || r.status().IsInvalidArgument());
}

// ---- scheduler soak -----------------------------------------------------------------

class SchedulerSoakTest : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerSoakTest, RandomOperationsPreserveInvariants) {
  Rng rng(91000 + static_cast<std::uint64_t>(GetParam()));
  storage::Catalog catalog;
  sched::RdbmsOptions options;
  options.processing_rate = rng.Uniform(50.0, 300.0);
  options.quantum = 0.1;
  options.max_concurrent = static_cast<int>(rng.UniformInt(1, 6));
  options.max_query_seconds =
      rng.NextDouble() < 0.3 ? rng.Uniform(1.0, 5.0) : 0.0;
  options.cost_model.noise_sigma = 0.2;
  sched::Rdbms db(&catalog, options);

  std::vector<QueryId> ids;
  double submitted_work = 0.0;
  for (int op = 0; op < 400; ++op) {
    switch (rng.UniformInt(0, 9)) {
      case 0:
      case 1:
      case 2: {  // submit
        const double cost = rng.Uniform(5.0, 300.0);
        auto id = db.Submit(QuerySpec::Synthetic(cost),
                            static_cast<Priority>(rng.UniformInt(0, 3)));
        ASSERT_TRUE(id.ok());
        ids.push_back(*id);
        submitted_work += cost;
        break;
      }
      case 3: {  // block something (may legitimately fail)
        if (!ids.empty()) {
          db.Block(ids[static_cast<std::size_t>(rng.UniformInt(
              0, static_cast<std::int64_t>(ids.size()) - 1))]);
        }
        break;
      }
      case 4: {  // resume something
        if (!ids.empty()) {
          db.Resume(ids[static_cast<std::size_t>(rng.UniformInt(
              0, static_cast<std::int64_t>(ids.size()) - 1))]);
        }
        break;
      }
      case 5: {  // abort something
        if (!ids.empty()) {
          db.Abort(ids[static_cast<std::size_t>(rng.UniformInt(
              0, static_cast<std::int64_t>(ids.size()) - 1))]);
        }
        break;
      }
      case 6: {  // change a priority
        if (!ids.empty()) {
          db.SetPriority(ids[static_cast<std::size_t>(rng.UniformInt(
                             0, static_cast<std::int64_t>(ids.size()) - 1))],
                         static_cast<Priority>(rng.UniformInt(0, 3)));
        }
        break;
      }
      case 7: {  // toggle admission
        db.SetAdmissionOpen(rng.NextDouble() < 0.8);
        break;
      }
      default: {  // step
        db.Step(rng.Uniform(0.1, 1.0));
        break;
      }
    }

    // Invariants after every operation.
    ASSERT_LE(db.num_running(), options.max_concurrent);
    double total_completed = 0.0;
    int blocked = 0;
    for (const auto& info : db.AllQueries()) {
      total_completed += info.completed_work;
      if (info.state == sched::QueryState::kBlocked) ++blocked;
      if (info.state == sched::QueryState::kFinished) {
        ASSERT_GE(info.finish_time, info.start_time - 1e-9);
      }
      if (info.state == sched::QueryState::kQueued) {
        ASSERT_DOUBLE_EQ(info.completed_work, 0.0);
      }
    }
    // Work is never manufactured from nothing.
    ASSERT_LE(total_completed,
              submitted_work + options.processing_rate * db.now() + 1e-6);
  }

  // Drain: resume everything blocked, reopen admission, run to idle.
  db.SetAdmissionOpen(true);
  for (QueryId id : ids) db.Resume(id);
  db.RunUntilIdle(db.now() + 10000.0);
  for (QueryId id : ids) {
    const auto info = *db.info(id);
    ASSERT_TRUE(info.state == sched::QueryState::kFinished ||
                info.state == sched::QueryState::kAborted)
        << "query " << id << " stuck in "
        << sched::QueryStateName(info.state);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SchedulerSoakTest, ::testing::Range(0, 6));

// ---- chaos soak -----------------------------------------------------------------

// Forced cache invalidation must be a correctness no-op: a PI whose
// memoized forecast is randomly dropped (while the scheduler itself is
// being battered with rate faults and spurious aborts) must produce
// estimates byte-identical to an uncached reference PI observing the
// same engine.
TEST(ChaosSoakTest, ForcedCacheInvalidationIsACorrectnessNoOp) {
  storage::Catalog catalog;
  sched::RdbmsOptions options;
  options.processing_rate = 100.0;
  options.quantum = 0.1;
  options.max_concurrent = 3;
  options.cost_model.noise_sigma = 0.0;
  sched::Rdbms db(&catalog, options);

  fault::FaultInjector sched_faults(1234);
  db.SetFaultInjector(&sched_faults);
  sched_faults.ArmProbability(fault::kSchedRateCollapse, 0.10, 0.2);
  sched_faults.ArmProbability(fault::kSchedRateSpike, 0.10, 3.0);
  sched_faults.ArmProbability(fault::kSchedQuantumStall, 0.05);
  sched_faults.ArmProbability(fault::kSchedSpuriousAbort, 0.02);

  pi::MultiQueryPiOptions cached_options;
  pi::MultiQueryPi cached(&db, cached_options);
  pi::MultiQueryPiOptions uncached_options;
  uncached_options.enable_forecast_cache = false;
  pi::MultiQueryPi uncached(&db, uncached_options);

  // Only the cached PI gets its cache chaos-invalidated (its own
  // injector, so the scheduler points' streams are untouched).
  fault::FaultInjector pi_faults(5678);
  cached.SetFaultInjector(&pi_faults);
  pi_faults.ArmProbability(fault::kPiCacheInvalidate, 0.3);

  Rng rng(92000);
  std::vector<QueryId> ids;
  for (int step = 0; step < 500; ++step) {
    if (ids.size() < 12 && rng.NextDouble() < 0.2) {
      auto id = db.Submit(QuerySpec::Synthetic(rng.Uniform(20.0, 400.0)));
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    db.Step();
    cached.ObserveStep();
    uncached.ObserveStep();

    for (QueryId id : ids) {
      const auto a = cached.EstimateRemainingTime(id);
      const auto b = uncached.EstimateRemainingTime(id);
      ASSERT_EQ(a.ok(), b.ok()) << "query " << id << " at step " << step;
      if (a.ok()) {
        // Exact equality: same inputs, same simulation, cache or not.
        ASSERT_EQ(*a, *b) << "query " << id << " at step " << step;
      }
    }
  }
  EXPECT_GT(pi_faults.total_fires(), 0u);
  EXPECT_GT(sched_faults.total_fires(), 0u);
}

// The full-stack soak: every fault point armed against a manual-mode
// service while random client traffic flows. Invariants checked on
// every published snapshot; afterwards the faults are disarmed and the
// system must drain to a clean, non-degraded final state.
TEST(ChaosSoakTest, ServiceSurvivesChaosAndRecovers) {
  storage::Catalog catalog;
  fault::FaultInjector injector(24680);
  service::PiServiceOptions options;
  options.rdbms.processing_rate = 100.0;
  options.rdbms.quantum = 0.1;
  options.rdbms.max_concurrent = 3;
  options.rdbms.cost_model.noise_sigma = 0.1;
  options.start_ticker = false;
  options.fault = &injector;
  options.max_queued_queries = 16;
  options.max_pending_arrivals = 8;
  options.stale_snapshot_quanta = 3;
  // Retention is not the subject here: the final snapshot must still
  // show every submitted query terminal.
  options.terminal_retention_quanta = 1 << 30;
  service::PiService service(&catalog, options);
  auto session = service.OpenSession("chaos");

  injector.ArmProbability(fault::kSchedSpuriousAbort, 0.02);
  injector.ArmProbability(fault::kSchedAdmissionFlap, 0.02);
  injector.ArmProbability(fault::kSchedRateCollapse, 0.05, 0.1);
  injector.ArmProbability(fault::kSchedRateSpike, 0.05, 4.0);
  injector.ArmProbability(fault::kSchedQuantumStall, 0.03);
  injector.ArmProbability(fault::kSchedQuantumOvershoot, 0.03, 2.0);
  injector.ArmProbability(fault::kServicePublishDelay, 0.10);
  injector.ArmProbability(fault::kServiceSessionControlFail, 0.20);
  injector.ArmProbability(fault::kPiCacheInvalidate, 0.10);
  injector.ArmProbability(fault::kPiWindowCorrupt, 0.05,
                          std::numeric_limits<double>::quiet_NaN());

  const SimTime horizon = pi::MultiQueryPiOptions{}.horizon;
  const auto check_snapshot = [&](const service::SnapshotPtr& snapshot) {
    ASSERT_NE(snapshot, nullptr);
    ASSERT_TRUE(std::isfinite(snapshot->measured_rate));
    ASSERT_GE(snapshot->measured_rate, 0.0);
    ASSERT_FALSE(std::isnan(snapshot->quiescent_eta));
    ASSERT_GE(snapshot->age_quanta, 0);
    for (const auto& row : snapshot->queries) {
      ASSERT_GE(row.fraction_done, 0.0) << "query " << row.id;
      ASSERT_LE(row.fraction_done, 1.0) << "query " << row.id;
      for (SimTime eta : {row.eta_single, row.eta_multi}) {
        ASSERT_FALSE(std::isnan(eta)) << "query " << row.id;
        // Finite non-negative, or an honest sentinel — never a finite
        // absurdity past the forecast horizon.
        ASSERT_TRUE(eta == kUnknown || eta == kInfiniteTime ||
                    (eta >= 0.0 && eta <= horizon))
            << "query " << row.id << " eta " << eta;
      }
    }
  };

  Rng rng(13579);
  std::vector<QueryId> ids;
  for (int step = 0; step < 600; ++step) {
    switch (rng.UniformInt(0, 9)) {
      case 0:
      case 1: {  // submit (shedding is an acceptable answer)
        auto id = session->Submit(QuerySpec::Synthetic(
            rng.Uniform(10.0, 500.0)));
        if (id.ok()) ids.push_back(*id);
        break;
      }
      case 2: {  // scheduled arrival
        (void)session->SubmitAt(service.snapshot()->sim_time +
                                    rng.Uniform(0.1, 5.0),
                                QuerySpec::Synthetic(50.0));
        break;
      }
      case 3:
      case 4: {  // control ops (may fail by injected fault — fine)
        if (!ids.empty()) {
          const QueryId id = ids[static_cast<std::size_t>(rng.UniformInt(
              0, static_cast<std::int64_t>(ids.size()) - 1))];
          switch (rng.UniformInt(0, 3)) {
            case 0: (void)session->Block(id); break;
            case 1: (void)session->Resume(id); break;
            case 2: (void)session->Abort(id); break;
            default:
              (void)session->SetPriority(
                  id, static_cast<Priority>(rng.UniformInt(0, 3)));
              break;
          }
        }
        break;
      }
      default: {  // advance one quantum
        ASSERT_TRUE(service.Advance(options.rdbms.quantum).ok());
        break;
      }
    }
    check_snapshot(service.snapshot());
  }
  EXPECT_GT(injector.total_fires(), 0u);

  // Recovery: disarm everything, heal the damage chaos may have left
  // (closed gate, blocked queries), and drain.
  injector.DisarmAll();
  service.SetAdmissionOpen(true);
  for (QueryId id : ids) (void)session->Resume(id);
  auto idle_at = service.AdvanceUntilIdle(/*deadline=*/100000.0);
  ASSERT_TRUE(idle_at.ok());

  const auto final_snapshot = service.snapshot();
  check_snapshot(final_snapshot);
  EXPECT_EQ(final_snapshot->age_quanta, 0);
  EXPECT_FALSE(final_snapshot->degraded);
  for (QueryId id : ids) {
    const auto* row = final_snapshot->Find(id);
    ASSERT_NE(row, nullptr);
    EXPECT_TRUE(row->terminal())
        << "query " << id << " stuck in "
        << sched::QueryStateName(row->state);
  }
}

}  // namespace
}  // namespace mqpi
