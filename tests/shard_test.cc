// Shard-plane tests: the global id space and FNV-1a routing, the
// coordinator's cached merge (sequence/count/rate sums, max sim_time,
// busy-gated quiescent ETA, globally sorted remapped rows) and its
// byte-stability under an idle fleet, global-id what-ifs with
// cross-shard rejection, the cross-shard WLM victim differential
// (greedy pick == brute-force per-shard EstimateWhatIf enumeration),
// the concurrent-drain regression (wall ~ max, not sum), the TSan
// stress run (session churn across 4 shards + a merged-snapshot
// reader + shard-scoped TCP subscribers), per-shard chaos soaks with
// independent seeds, sharded journal recovery, and a ResilientClient
// riding net.conn_drop against a sharded server.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/planner.h"
#include "fault/fault_injector.h"
#include "net/client.h"
#include "net/resilient_client.h"
#include "net/server.h"
#include "recover/durable_log.h"
#include "recover/recovery.h"
#include "service/pi_service.h"
#include "service/session.h"
#include "service/sharded_service.h"
#include "storage/catalog.h"
#include "wlm/cross_shard.h"

namespace mqpi {
namespace {

using engine::QuerySpec;
using service::GlobalId;
using service::LocalIdOf;
using service::PiService;
using service::PiServiceOptions;
using service::ProgressSnapshot;
using service::QueryProgress;
using service::RouteHash;
using service::ShardedPiService;
using service::ShardedPiServiceOptions;
using service::ShardOfGlobalId;
using service::SnapshotPtr;

storage::Catalog* TestCatalog() {
  static storage::Catalog catalog;
  return &catalog;
}

PiServiceOptions ManualShardOptions() {
  PiServiceOptions options;
  options.rdbms.processing_rate = 100.0;
  options.rdbms.quantum = 0.1;
  options.rdbms.cost_model.noise_sigma = 0.0;
  options.start_ticker = false;
  return options;
}

ShardedPiServiceOptions ManualSharded(int num_shards) {
  ShardedPiServiceOptions options;
  options.num_shards = num_shards;
  options.shard = ManualShardOptions();
  return options;
}

ShardedPiServiceOptions TickingSharded(int num_shards) {
  ShardedPiServiceOptions options = ManualSharded(num_shards);
  options.shard.start_ticker = true;
  options.shard.time_scale = 0.0;  // flat out
  return options;
}

// Open sessions until every shard hosts at least one, routing by name
// exactly like a fleet of tenants would. Returns (session, shard)
// pairs; at most 64 * num_shards names are tried (the hash covers a
// small fleet long before that).
std::vector<std::pair<std::unique_ptr<service::Session>, int>>
CoverEveryShard(ShardedPiService* coordinator, const std::string& prefix) {
  std::vector<std::pair<std::unique_ptr<service::Session>, int>> sessions;
  std::vector<bool> covered(
      static_cast<std::size_t>(coordinator->num_shards()), false);
  int remaining = coordinator->num_shards();
  for (int i = 0; remaining > 0 && i < coordinator->num_shards() * 64; ++i) {
    const std::string name = prefix + std::to_string(i);
    const int shard = coordinator->Route(name);
    if (covered[static_cast<std::size_t>(shard)]) continue;
    covered[static_cast<std::size_t>(shard)] = true;
    --remaining;
    int opened_on = -1;
    auto session = coordinator->OpenSession(name, &opened_on);
    EXPECT_EQ(opened_on, shard);
    sessions.emplace_back(std::move(session), shard);
  }
  EXPECT_EQ(remaining, 0);
  return sessions;
}

// ---- global id space --------------------------------------------------------

TEST(GlobalIdTest, EncodingRoundTripsAndShardZeroIsIdentity) {
  for (int shard : {0, 1, 7, 255}) {
    for (std::uint64_t local : {std::uint64_t{0}, std::uint64_t{1},
                                std::uint64_t{12345},
                                service::kShardLocalMask}) {
      const std::uint64_t global = GlobalId(shard, local);
      EXPECT_EQ(ShardOfGlobalId(global), shard);
      EXPECT_EQ(LocalIdOf(global), local);
    }
  }
  // Shard 0 encodes to the identity: a single-shard deployment speaks
  // the exact unsharded id space.
  EXPECT_EQ(GlobalId(0, 42u), 42u);
  EXPECT_EQ(GlobalId(0, service::kShardLocalMask), service::kShardLocalMask);
}

// ---- routing ----------------------------------------------------------------

TEST(RoutingTest, RouteIsDeterministicStatelessAndMatchesTheHash) {
  ShardedPiService coordinator(TestCatalog(), ManualSharded(4));
  ShardedPiService other(TestCatalog(), ManualSharded(4));
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 256; ++i) {
    const std::string name = "tenant-" + std::to_string(i);
    const int shard = coordinator.Route(name);
    EXPECT_EQ(shard, static_cast<int>(RouteHash(name) % 4));
    // Stateless: a second coordinator (a restarted process) places the
    // same tenant identically.
    EXPECT_EQ(other.Route(name), shard);
    ++hits[static_cast<std::size_t>(shard)];
  }
  // FNV-1a spreads a modest fleet across every shard.
  for (int shard = 0; shard < 4; ++shard) EXPECT_GT(hits[shard], 0);
}

// ---- merged global snapshot -------------------------------------------------

TEST(MergeTest, GlobalSnapshotSumsCountsRemapsIdsAndStaysSorted) {
  ShardedPiService coordinator(TestCatalog(), ManualSharded(4));
  auto sessions = CoverEveryShard(&coordinator, "merge-tenant-");
  for (auto& [session, shard] : sessions) {
    ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(200.0)).ok());
    ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(400.0)).ok());
  }
  // Distinct per-shard timelines: shard i advances i+1 quanta.
  for (int shard = 0; shard < 4; ++shard) {
    ASSERT_TRUE(
        coordinator.shard_service(shard)->Advance(0.1 * (shard + 1)).ok());
  }

  const SnapshotPtr merged = coordinator.GlobalSnapshot();
  std::uint64_t sequence_sum = 0;
  SimTime max_sim_time = 0.0;
  int running_sum = 0;
  int queued_sum = 0;
  double rate_sum = 0.0;
  std::size_t rows_sum = 0;
  for (int shard = 0; shard < 4; ++shard) {
    const SnapshotPtr snap = coordinator.shard_service(shard)->snapshot();
    sequence_sum += snap->sequence;
    max_sim_time = std::max(max_sim_time, snap->sim_time);
    running_sum += snap->num_running;
    queued_sum += snap->num_queued;
    rate_sum += snap->measured_rate;
    rows_sum += snap->queries.size();
  }
  EXPECT_EQ(merged->sequence, sequence_sum);
  EXPECT_DOUBLE_EQ(merged->sim_time, max_sim_time);
  EXPECT_EQ(merged->num_running, running_sum);
  EXPECT_EQ(merged->num_queued, queued_sum);
  EXPECT_DOUBLE_EQ(merged->measured_rate, rate_sum);
  ASSERT_EQ(merged->queries.size(), rows_sum);

  // Rows are globally sorted, remapped to global ids, and each row is
  // bit-for-bit its shard-local original.
  for (std::size_t i = 1; i < merged->queries.size(); ++i) {
    EXPECT_LT(merged->queries[i - 1].id, merged->queries[i].id);
  }
  for (const QueryProgress& row : merged->queries) {
    const int shard = ShardOfGlobalId(row.id);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 4);
    const SnapshotPtr snap = coordinator.shard_service(shard)->snapshot();
    const QueryProgress* local = snap->Find(LocalIdOf(row.id));
    ASSERT_NE(local, nullptr);
    EXPECT_EQ(ShardOfGlobalId(row.session_id), shard);
    EXPECT_EQ(LocalIdOf(row.session_id), local->session_id);
    EXPECT_DOUBLE_EQ(row.fraction_done, local->fraction_done);
    EXPECT_DOUBLE_EQ(row.remaining_cost, local->remaining_cost);
  }

  // Per-shard load gauges ride the merge, in shard order.
  ASSERT_EQ(merged->shard_loads.size(), 4u);
  for (int shard = 0; shard < 4; ++shard) {
    const service::ShardLoad& load =
        merged->shard_loads[static_cast<std::size_t>(shard)];
    const SnapshotPtr snap = coordinator.shard_service(shard)->snapshot();
    EXPECT_EQ(load.shard, shard);
    EXPECT_EQ(load.sequence, snap->sequence);
    EXPECT_EQ(load.num_running, snap->num_running);
    EXPECT_DOUBLE_EQ(load.sim_time, snap->sim_time);
  }

  // Coordinator instruments observed the work.
  EXPECT_EQ(coordinator.metrics()->gauge("coord.shards")->value(), 4.0);
  EXPECT_GE(coordinator.metrics()->counter("coord.merges")->value(), 1u);
}

TEST(MergeTest, IdleCoordinatorIsCachedAndByteStable) {
  ShardedPiService coordinator(TestCatalog(), ManualSharded(4));
  auto sessions = CoverEveryShard(&coordinator, "stable-tenant-");
  for (auto& [session, shard] : sessions) {
    ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(300.0)).ok());
  }
  for (int shard = 0; shard < 4; ++shard) {
    ASSERT_TRUE(coordinator.shard_service(shard)->Advance(0.2).ok());
  }

  // No shard publishes between these calls: the cache must return the
  // identical pointer, and an uncached re-merge must wire-encode to
  // the identical bytes (the acceptance differential).
  const SnapshotPtr first = coordinator.GlobalSnapshot();
  const SnapshotPtr second = coordinator.GlobalSnapshot();
  EXPECT_EQ(first.get(), second.get());
  const std::uint64_t merges_before =
      coordinator.metrics()->counter("coord.merges")->value();
  EXPECT_EQ(recover::EncodeSnapshotBytes(coordinator.MergeNow()),
            recover::EncodeSnapshotBytes(first));
  EXPECT_EQ(recover::EncodeSnapshotBytes(coordinator.MergeNow()),
            recover::EncodeSnapshotBytes(first));

  // A single shard publish invalidates the cache: exactly one addend
  // bumps by one.
  coordinator.shard_service(2)->PublishNow();
  const SnapshotPtr third = coordinator.GlobalSnapshot();
  EXPECT_NE(third.get(), first.get());
  EXPECT_EQ(third->sequence, first->sequence + 1);
  EXPECT_GT(coordinator.metrics()->counter("coord.merges")->value(),
            merges_before);
}

TEST(MergeTest, QuiescentEtaIsBusyGated) {
  ShardedPiService coordinator(TestCatalog(), ManualSharded(3));
  // A wholly idle fleet is quiescent now, even though every shard's
  // construction snapshot still carries the kUnknown sentinel.
  EXPECT_DOUBLE_EQ(coordinator.GlobalSnapshot()->quiescent_eta, 0.0);

  // Exactly one busy shard: the merged ETA is that shard's absolute
  // quiesce time re-expressed against the merged (max) sim_time.
  auto sessions = CoverEveryShard(&coordinator, "eta-tenant-");
  auto& [busy_session, busy_shard] = sessions.front();
  ASSERT_TRUE(busy_session->Submit(QuerySpec::Synthetic(500.0)).ok());
  for (int shard = 0; shard < 3; ++shard) {
    // Idle shards advance further than the busy one, so the merged
    // sim_time exceeds the busy shard's and the re-expression matters.
    const double dt = shard == busy_shard ? 0.2 : 0.5;
    ASSERT_TRUE(coordinator.shard_service(shard)->Advance(dt).ok());
  }
  const SnapshotPtr busy_snap =
      coordinator.shard_service(busy_shard)->snapshot();
  ASSERT_GT(busy_snap->num_running + busy_snap->num_queued, 0);
  const SnapshotPtr merged = coordinator.GlobalSnapshot();
  if (busy_snap->quiescent_eta < 0.0) {
    EXPECT_EQ(merged->quiescent_eta, kUnknown);
  } else if (std::isinf(busy_snap->quiescent_eta)) {
    EXPECT_GE(merged->quiescent_eta, kInfiniteTime);
  } else {
    const SimTime expected = std::max(
        0.0,
        busy_snap->sim_time + busy_snap->quiescent_eta - merged->sim_time);
    EXPECT_DOUBLE_EQ(merged->quiescent_eta, expected);
  }
}

// ---- global-id what-ifs -----------------------------------------------------

TEST(WhatIfTest, GlobalIdsRouteToTheirShardAndCrossShardIsRejected) {
  ShardedPiService coordinator(TestCatalog(), ManualSharded(4));
  auto sessions = CoverEveryShard(&coordinator, "whatif-tenant-");
  ASSERT_GE(sessions.size(), 2u);
  auto& [session_a, shard_a] = sessions[0];
  auto& [session_b, shard_b] = sessions[1];
  auto target = session_a->Submit(QuerySpec::Synthetic(400.0));
  auto rival = session_a->Submit(QuerySpec::Synthetic(400.0));
  auto foreign = session_b->Submit(QuerySpec::Synthetic(400.0));
  ASSERT_TRUE(target.ok() && rival.ok() && foreign.ok());
  for (int shard = 0; shard < 4; ++shard) {
    ASSERT_TRUE(coordinator.shard_service(shard)->Advance(0.5).ok());
  }

  // Global routing agrees with asking the shard directly in local ids.
  pi::MultiQueryPi::WhatIf global_scenario;
  global_scenario.blocked.push_back(GlobalId(shard_a, *rival));
  auto via_coordinator = coordinator.EstimateWhatIf(
      global_scenario, GlobalId(shard_a, *target));
  pi::MultiQueryPi::WhatIf local_scenario;
  local_scenario.blocked.push_back(*rival);
  auto via_shard = coordinator.shard_service(shard_a)->EstimateWhatIf(
      local_scenario, *target);
  ASSERT_TRUE(via_coordinator.ok()) << via_coordinator.status().ToString();
  ASSERT_TRUE(via_shard.ok());
  EXPECT_DOUBLE_EQ(*via_coordinator, *via_shard);

  // A scenario spanning two engines has no single forecast: rejected.
  pi::MultiQueryPi::WhatIf crossed;
  crossed.blocked.push_back(GlobalId(shard_b, *foreign));
  auto rejected =
      coordinator.EstimateWhatIf(crossed, GlobalId(shard_a, *target));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  // As does a target naming a shard the fleet does not have.
  auto missing = coordinator.EstimateWhatIf({}, GlobalId(9, *target));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
}

// ---- cross-shard WLM differential -------------------------------------------

// Independently re-derives the greedy pick: per shard, the bottleneck
// target is the running query with the largest finite eta_multi
// (largest remaining cost when none is finite), every other running
// query is a candidate, benefit = baseline - EstimateWhatIf({blocked:
// victim}), and the fleet-wide winner is the argmax with the selector's
// deterministic (shard, victim) tiebreak.
TEST(CrossShardWlmTest, BestVictimMatchesBruteForcePerShardEnumeration) {
  ShardedPiService coordinator(TestCatalog(), ManualSharded(3));
  auto sessions = CoverEveryShard(&coordinator, "wlm-tenant-");
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    auto& [session, shard] = sessions[s];
    // Uneven loads so shards disagree about the best trade.
    for (int i = 0; i < 3 + static_cast<int>(s); ++i) {
      ASSERT_TRUE(
          session
              ->Submit(QuerySpec::Synthetic(300.0 + 150.0 * i),
                       i % 2 == 0 ? Priority::kNormal : Priority::kHigh)
              .ok());
    }
  }
  for (int shard = 0; shard < 3; ++shard) {
    ASSERT_TRUE(coordinator.shard_service(shard)->Advance(0.5).ok());
  }

  struct Candidate {
    int shard = -1;
    QueryId victim = kInvalidQueryId;
    QueryId target = kInvalidQueryId;
    SimTime benefit = 0.0;
  };
  Candidate best;
  bool have_best = false;
  int enumerated = 0;
  for (int shard = 0; shard < 3; ++shard) {
    PiService* svc = coordinator.shard_service(shard);
    const SnapshotPtr snap = svc->snapshot();
    const QueryProgress* target = nullptr;
    bool target_finite = false;
    for (const QueryProgress& q : snap->queries) {
      if (q.state != sched::QueryState::kRunning) continue;
      const bool finite = q.eta_multi >= 0.0 && std::isfinite(q.eta_multi);
      if (target == nullptr || (finite && !target_finite) ||
          (finite == target_finite &&
           (finite ? q.eta_multi > target->eta_multi
                   : q.remaining_cost > target->remaining_cost))) {
        target = &q;
        target_finite = finite;
      }
    }
    if (target == nullptr) continue;
    auto baseline = svc->EstimateWhatIf({}, target->id);
    if (!baseline.ok()) continue;
    for (const QueryProgress& q : snap->queries) {
      if (q.state != sched::QueryState::kRunning || q.id == target->id) {
        continue;
      }
      pi::MultiQueryPi::WhatIf scenario;
      scenario.blocked.push_back(q.id);
      auto hypothetical = svc->EstimateWhatIf(scenario, target->id);
      if (!hypothetical.ok()) continue;
      ++enumerated;
      Candidate cand{shard, q.id, target->id, *baseline - *hypothetical};
      const bool wins =
          !have_best || cand.benefit > best.benefit ||
          (cand.benefit == best.benefit &&
           (cand.shard < best.shard ||
            (cand.shard == best.shard && cand.victim < best.victim)));
      if (wins) {
        best = cand;
        have_best = true;
      }
    }
  }
  ASSERT_TRUE(have_best);
  ASSERT_GT(best.benefit, 0.0);

  wlm::CrossShardSpeedup selector(&coordinator);
  auto picked = selector.BestVictim();
  ASSERT_TRUE(picked.ok()) << picked.status().ToString();
  EXPECT_EQ(picked->shard, best.shard);
  EXPECT_EQ(picked->victim, best.victim);
  EXPECT_EQ(picked->target, best.target);
  EXPECT_DOUBLE_EQ(picked->benefit, best.benefit);
  EXPECT_EQ(picked->global_victim, GlobalId(best.shard, best.victim));
  EXPECT_EQ(picked->global_target, GlobalId(best.shard, best.target));

  // Multi-pick under an unconstrained budget: decreasing benefits,
  // exact accounting, and the brute-force winner leads.
  wlm::CrossShardOptions options;
  options.max_victims = 3;
  auto choice = selector.ChooseVictims(options);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(choice->candidates, enumerated);
  ASSERT_FALSE(choice->victims.empty());
  EXPECT_EQ(choice->victims.front().victim, best.victim);
  SimTime total = 0.0;
  for (std::size_t i = 0; i < choice->victims.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(choice->victims[i].benefit, choice->victims[i - 1].benefit);
    }
    total += choice->victims[i].benefit;
  }
  EXPECT_DOUBLE_EQ(choice->total_benefit, total);

  // A budget below the best pick's rate share forces a cheaper pick
  // (or a clean error) — never an over-budget selection.
  wlm::CrossShardOptions tight;
  tight.max_victims = 3;
  tight.rate_budget = picked->rate_share * 0.5;
  auto constrained = selector.ChooseVictims(tight);
  if (constrained.ok()) {
    EXPECT_LE(constrained->rate_spent, tight.rate_budget);
    for (const auto& victim : constrained->victims) {
      EXPECT_NE(victim.global_victim, picked->global_victim);
    }
  } else {
    EXPECT_EQ(constrained.status().code(), StatusCode::kFailedPrecondition);
  }
}

// ---- concurrent drain -------------------------------------------------------

TEST(DrainTest, ShardDrainsRunConcurrentlySoWallIsMaxNotSum) {
  ShardedPiService coordinator(TestCatalog(), TickingSharded(4));
  std::atomic<int> flushes{0};
  std::atomic<int> goodbyes{0};
  ShardedPiService::DrainHooks hooks;
  hooks.flush = [&flushes](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    flushes.fetch_add(1);
  };
  hooks.goodbye = [&goodbyes] { goodbyes.fetch_add(1); };

  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(coordinator.Drain(hooks).ok());
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(flushes.load(), 4);
  EXPECT_EQ(goodbyes.load(), 1);
  EXPECT_TRUE(coordinator.draining());
  // Serial drains would sleep 4 x 150 ms = 600 ms; concurrent ones
  // sleep ~150 ms. The 450 ms ceiling leaves 3 shards' worth of slack
  // for scheduling noise while still refuting the serial shape.
  EXPECT_GE(wall, 0.15);
  EXPECT_LT(wall, 0.45);

  // Admissions are closed fleet-wide...
  auto session = coordinator.OpenSession("late-tenant");
  auto rejected = session->Submit(QuerySpec::Synthetic(10.0));
  EXPECT_FALSE(rejected.ok());
  // ...and a second coordinated drain is refused.
  EXPECT_EQ(coordinator.Drain().code(), StatusCode::kFailedPrecondition);
}

// ---- sharded server: stats, scoped subscribe, id translation ---------------

TEST(ShardServerTest, StatsCarriesShardRowsAndSubscribeScopesAreEnforced) {
  ShardedPiService coordinator(TestCatalog(), TickingSharded(4));
  net::PiServer server(&coordinator);
  ASSERT_TRUE(server.Start().ok());

  auto connected = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  auto client = std::move(connected).value();

  // STATS: one row per shard, in shard order (pi_top's footer).
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->shards.size(), 4u);
  for (int shard = 0; shard < 4; ++shard) {
    EXPECT_EQ(stats->shards[static_cast<std::size_t>(shard)].shard, shard);
  }

  // Submit over the wire: the reply id is globally encoded, readable
  // back through the same connection, and a same-local-id probe aimed
  // at a different shard is NotFound, not someone else's query.
  auto id = client->SubmitSynthetic(500.0);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const int home = ShardOfGlobalId(*id);
  ASSERT_LT(home, 4);
  coordinator.shard_service(home)->PublishNow();
  auto progress = client->Progress(*id);
  ASSERT_TRUE(progress.ok()) << progress.status().ToString();
  EXPECT_EQ(progress->row.id, *id);
  const std::uint64_t foreign = GlobalId((home + 1) % 4, LocalIdOf(*id));
  EXPECT_FALSE(client->Progress(foreign).ok());
  EXPECT_TRUE(client->Ping().ok());  // the error did not cost the conn

  // Subscribe scoping: out of range is an error that keeps the
  // connection; shard and merged scopes both stream.
  EXPECT_FALSE(client->Subscribe(7).ok());
  EXPECT_TRUE(client->Ping().ok());
  ASSERT_TRUE(client->Subscribe(home).ok());
  auto shard_sequence = client->WaitForSequence(1, 5.0);
  EXPECT_TRUE(shard_sequence.ok()) << shard_sequence.status().ToString();
  // Re-scope to the merged view: the next push is a SNAPSHOT_FULL of
  // the global snapshot. Pump until it lands, known by the per-shard
  // load gauges that only merged frames carry (WaitForSequence cannot
  // tell shard-local from merged sequence numbering, and a shard push
  // still in flight may itself be a full frame if the loop lagged).
  const std::uint64_t fulls_before = client->view().fulls_applied();
  ASSERT_TRUE(client->Subscribe(-1).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (client->view().shard_loads().size() != 4u &&
         std::chrono::steady_clock::now() < deadline) {
    auto pumped = client->PumpOne(0.2);
    ASSERT_TRUE(pumped.ok()) << pumped.status().ToString();
  }
  EXPECT_EQ(client->view().shard_loads().size(), 4u);
  ASSERT_GT(client->view().fulls_applied(), fulls_before);

  client.reset();
  server.Stop();
}

// ---- TSan stress ------------------------------------------------------------

TEST(ShardStressTest, ChurnAcrossShardsWithMergedAndShardScopedReaders) {
  ShardedPiService coordinator(TestCatalog(), TickingSharded(4));
  net::PiServer server(&coordinator);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  // Tenants churn: open, submit, close, across every shard.
  std::vector<std::thread> churners;
  for (int t = 0; t < 2; ++t) {
    churners.emplace_back([&, t] {
      for (int round = 0; round < 40 && !stop.load(); ++round) {
        auto session = coordinator.OpenSession(
            "churn-" + std::to_string(t) + "-" + std::to_string(round));
        for (int i = 0; i < 3; ++i) {
          if (!session->Submit(QuerySpec::Synthetic(50.0 + 10.0 * i)).ok()) {
            failures.fetch_add(1);
          }
        }
        session->Close();
      }
    });
  }

  // A merged reader hammers the coordinator's cache while shards
  // publish underneath it; sequence must never move backwards.
  std::thread merged_reader([&] {
    std::uint64_t last = 0;
    while (!stop.load()) {
      const SnapshotPtr merged = coordinator.GlobalSnapshot();
      if (merged->sequence < last) failures.fetch_add(1);
      last = merged->sequence;
    }
  });

  // Two shard-scoped TCP subscribers ride their shards' own streams.
  std::vector<std::thread> subscribers;
  for (int shard : {0, 1}) {
    subscribers.emplace_back([&, shard] {
      auto client = net::Client::Connect("127.0.0.1", server.port());
      if (!client.ok() || !(*client)->Subscribe(shard).ok()) {
        failures.fetch_add(1);
        return;
      }
      std::uint64_t want = 1;
      while (!stop.load()) {
        auto sequence = (*client)->WaitForSequence(want, 0.2);
        if (sequence.ok()) want = *sequence + 1;
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  stop.store(true);
  for (auto& t : churners) t.join();
  merged_reader.join();
  for (auto& t : subscribers) t.join();
  EXPECT_EQ(failures.load(), 0);

  server.Stop();
  coordinator.Stop();
}

// ---- per-shard chaos soak ---------------------------------------------------

TEST(ShardChaosTest, IndependentPerShardRegimesNeverPoisonTheMerge) {
  constexpr int kShards = 4;
  // One injector per shard, independently seeded: shard i's fault
  // stream is what it would be alone, so a chaos storm on one shard
  // proves isolation rather than synchronized failure.
  std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
  for (int shard = 0; shard < kShards; ++shard) {
    injectors.push_back(std::make_unique<fault::FaultInjector>(
        0xD1CEu + static_cast<std::uint64_t>(shard) * 0x9E37u));
    auto* injector = injectors.back().get();
    injector->ArmProbability(fault::kSchedRateCollapse, 0.2, 0.4);
    injector->ArmProbability(fault::kSchedQuantumStall, 0.1);
    injector->ArmProbability(fault::kSchedSpuriousAbort, 0.05);
    injector->ArmProbability(fault::kPiCacheInvalidate, 0.2);
    injector->ArmProbability(fault::kPiWindowCorrupt, 0.1, -5.0);
    injector->ArmProbability(fault::kServicePublishDelay, 0.2);
  }
  ShardedPiServiceOptions options = ManualSharded(kShards);
  options.per_shard = [&injectors](int shard, PiServiceOptions* opts) {
    opts->fault = injectors[static_cast<std::size_t>(shard)].get();
  };
  ShardedPiService coordinator(TestCatalog(), options);

  auto sessions = CoverEveryShard(&coordinator, "chaos-tenant-");
  for (auto& [session, shard] : sessions) {
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          session->Submit(QuerySpec::Synthetic(150.0 + 50.0 * i)).ok());
    }
  }
  for (int round = 0; round < 30; ++round) {
    for (int shard = 0; shard < kShards; ++shard) {
      ASSERT_TRUE(coordinator.shard_service(shard)->Advance(0.1).ok());
    }
    const SnapshotPtr merged = coordinator.GlobalSnapshot();
    for (std::size_t i = 0; i < merged->queries.size(); ++i) {
      const QueryProgress& row = merged->queries[i];
      EXPECT_FALSE(std::isnan(row.fraction_done));
      EXPECT_FALSE(std::isnan(row.eta_multi));
      if (i > 0) {
        EXPECT_LT(merged->queries[i - 1].id, row.id);
      }
    }
  }
  for (const auto& injector : injectors) {
    EXPECT_GT(injector->total_fires(), 0u);
  }
}

// ---- sharded recovery -------------------------------------------------------

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/mqpi_shard_XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    const std::string cmd = "rm -rf '" + path_ + "'";
    (void)::system(cmd.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(ShardRecoveryTest, PerShardJournalsRecoverByteIdentically) {
  constexpr int kShards = 4;
  TempDir root;
  std::vector<std::string> pre_images(kShards);

  {
    // Phase 1: a journaled sharded lifetime, ending in a "crash"
    // (sinks detached before teardown so nothing after the probe is
    // journaled).
    std::vector<std::unique_ptr<recover::DurableLog>> logs;
    for (int shard = 0; shard < kShards; ++shard) {
      logs.push_back(std::make_unique<recover::DurableLog>());
      ASSERT_TRUE(
          logs.back()
              ->Open(recover::ShardJournalDir(root.path(), shard), {})
              .ok());
    }
    ShardedPiServiceOptions options = ManualSharded(kShards);
    options.per_shard = [&logs](int shard, PiServiceOptions* opts) {
      opts->event_sink = logs[static_cast<std::size_t>(shard)].get();
    };
    ShardedPiService coordinator(TestCatalog(), options);

    auto sessions = CoverEveryShard(&coordinator, "recover-tenant-");
    for (auto& [session, shard] : sessions) {
      ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(120.0)).ok());
      ASSERT_TRUE(
          session->SubmitAt(0.4, QuerySpec::Synthetic(80.0)).ok());
    }
    for (int round = 0; round < 3; ++round) {
      for (int shard = 0; shard < kShards; ++shard) {
        ASSERT_TRUE(coordinator.shard_service(shard)->Advance(0.2).ok());
      }
    }
    for (int shard = 0; shard < kShards; ++shard) {
      ASSERT_TRUE(recover::Checkpoint(coordinator.shard_service(shard),
                                      logs[static_cast<std::size_t>(shard)]
                                          .get())
                      .ok());
    }
    // Post-checkpoint activity so replay continues past the cut.
    for (auto& [session, shard] : sessions) {
      ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(60.0)).ok());
    }
    for (int shard = 0; shard < kShards; ++shard) {
      ASSERT_TRUE(coordinator.shard_service(shard)->Advance(0.2).ok());
      pre_images[static_cast<std::size_t>(shard)] =
          recover::EncodeSnapshotBytes(coordinator.shard_service(shard)
                                           ->BuildUnpublishedSnapshot());
      ASSERT_TRUE(logs[static_cast<std::size_t>(shard)]->Sync().ok());
      coordinator.shard_service(shard)->SetEventSink(nullptr);
    }
    for (auto& [session, shard] : sessions) session->Close();
  }

  // Phase 2: recover every shard from its own journal directory.
  auto recovered = recover::RecoverSharded(TestCatalog(), root.path(),
                                           kShards, ManualShardOptions());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GT(recovered->events_replayed, 0u);
  EXPECT_TRUE(recovered->all_verified);
  ASSERT_EQ(recovered->shards.size(), static_cast<std::size_t>(kShards));
  for (int shard = 0; shard < kShards; ++shard) {
    auto& per_shard = recovered->shards[static_cast<std::size_t>(shard)];
    EXPECT_TRUE(per_shard.had_checkpoint);
    EXPECT_TRUE(per_shard.verified);
    EXPECT_EQ(recover::EncodeSnapshotBytes(
                  per_shard.service->BuildUnpublishedSnapshot()),
              pre_images[static_cast<std::size_t>(shard)]);
  }
  // The adopting coordinator fronts the recovered fleet: the merged
  // sequence is the sum of the replayed shard sequences, and routing
  // still places the journaled tenants where their journals live.
  std::uint64_t sequence_sum = 0;
  for (int shard = 0; shard < kShards; ++shard) {
    sequence_sum += recovered->coordinator->shard_service(shard)
                        ->snapshot()
                        ->sequence;
  }
  EXPECT_EQ(recovered->coordinator->GlobalSnapshot()->sequence, sequence_sum);
}

// ---- resilience under conn drops --------------------------------------------

TEST(ShardResilienceTest, ResilientClientsRideConnDropsOnAShardedServer) {
  fault::FaultInjector injector(0x5AAD5u);
  injector.ArmProbability(fault::kNetConnDrop, 0.25);

  ShardedPiService coordinator(TestCatalog(), TickingSharded(4));
  net::PiServerOptions server_options;
  server_options.fault = &injector;
  net::PiServer server(&coordinator, server_options);
  ASSERT_TRUE(server.Start().ok());

  // Long-running load on every shard keeps all streams moving.
  auto sessions = CoverEveryShard(&coordinator, "drop-tenant-");
  for (auto& [session, shard] : sessions) {
    ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(1e9)).ok());
  }

  net::ResilientClient::Options client_options;
  client_options.backoff_initial_s = 0.01;
  client_options.backoff_max_s = 0.1;
  // One merged subscriber, one pinned to shard 0: the scope must be
  // re-applied on every reconnect the drops force.
  net::ResilientClient merged("127.0.0.1", server.port(), client_options);
  client_options.subscribe_shard = 0;
  client_options.seed = 0xFEEDu;
  net::ResilientClient scoped("127.0.0.1", server.port(), client_options);

  EXPECT_TRUE(merged.WaitForSequence(40, 20.0));
  EXPECT_TRUE(scoped.WaitForSequence(10, 20.0));
  // Keep the streams running until the chaos actually bites, then
  // prove both mirrors still advance past it (the healing path).
  const auto chaos_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (injector.total_fires() == 0 &&
         std::chrono::steady_clock::now() < chaos_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(injector.total_fires(), 0u);
  const std::uint64_t merged_seq = merged.sequence();
  const std::uint64_t scoped_seq = scoped.sequence();
  EXPECT_TRUE(merged.WaitForSequence(merged_seq + 20, 20.0));
  EXPECT_TRUE(scoped.WaitForSequence(scoped_seq + 5, 20.0));
  // The merged mirror carries the fleet shape end to end.
  EXPECT_EQ(merged.View().shard_loads().size(), 4u);

  merged.Stop();
  scoped.Stop();
  injector.DisarmAll();
  for (auto& [session, shard] : sessions) session->Close();
  server.Stop();
  coordinator.Stop();
}

}  // namespace
}  // namespace mqpi
