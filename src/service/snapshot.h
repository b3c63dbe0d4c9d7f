// ProgressSnapshot: the immutable, point-in-time view of the whole
// system that the PI service publishes after every quantum.
//
// The ticker thread builds a fresh snapshot while it holds the engine
// lock, then swaps it in under a separate pointer lock. Readers
// (Session::Progress, dashboards, workload managers) grab a
// `shared_ptr<const ProgressSnapshot>` and work on it without ever
// touching the engine — the read path takes no lock that is held during
// `Rdbms::Step`, so estimate consumers can poll at any rate without
// slowing execution down. Sequence numbers increase by exactly one per
// published snapshot, which is what the stress test uses to prove reads
// are never torn.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/priority.h"
#include "common/query_label.h"
#include "common/units.h"
#include "sched/rdbms.h"

namespace mqpi::service {

/// Everything a client may want to know about one query, fused from the
/// scheduler's observables and both progress indicators.
struct QueryProgress {
  QueryId id = kInvalidQueryId;
  /// Owning session (0 for queries submitted outside the service API).
  std::uint64_t session_id = 0;
  /// The query's SQL-ish text: shared, immutable, rendered once at
  /// submit. Every snapshot row of a query holds a handle to the same
  /// block the scheduler's record holds, so publishing a row copies a
  /// pointer and dropping a snapshot frees no strings.
  QueryLabel label;
  sched::QueryState state = sched::QueryState::kQueued;
  Priority priority = Priority::kNormal;
  double weight = 1.0;
  WorkUnits completed_work = 0.0;
  WorkUnits remaining_cost = 0.0;
  /// completed / (completed + remaining), in [0, 1]; 1 once finished.
  double fraction_done = 0.0;
  /// Smoothed observed speed (U/s); 0 until the single-query PI warms.
  double speed = 0.0;
  /// Single-query PI ETA (t = c/s); kUnknown without an observation
  /// history, kInfiniteTime while blocked.
  SimTime eta_single = kUnknown;
  /// Multi-query PI ETA r_i (paper §2); kUnknown when no forecast
  /// covers the query, kInfiniteTime while blocked or past horizon.
  SimTime eta_multi = kUnknown;
  /// 0-based position in the admission queue; -1 unless queued.
  int queue_position = -1;
  SimTime arrival_time = 0.0;
  SimTime start_time = kUnknown;
  SimTime finish_time = kUnknown;
  /// An estimator produced a non-credible value (NaN, negative,
  /// infinite or beyond-horizon for a non-blocked query) and the
  /// published ETA is a degraded stand-in: the last credible estimate
  /// if one exists, kUnknown otherwise.
  bool degraded = false;

  bool terminal() const {
    return state == sched::QueryState::kFinished ||
           state == sched::QueryState::kAborted;
  }
};

/// Per-shard load gauge embedded in a merged (coordinator) snapshot so
/// global readers can see the shape of the fleet without N extra RPCs.
/// Single-shard snapshots leave `shard_loads` empty.
struct ShardLoad {
  int shard = 0;
  /// The shard-local sequence this row was merged from.
  std::uint64_t sequence = 0;
  SimTime sim_time = 0.0;
  int num_running = 0;
  int num_queued = 0;
  double measured_rate = 0.0;
  /// Shard-local quiescent ETA relative to the shard's sim_time.
  SimTime quiescent_eta = kUnknown;
  bool degraded = false;
};

struct ProgressSnapshot {
  /// Increases by exactly 1 per published snapshot, starting at 1 (the
  /// service publishes an empty snapshot 0 on construction).
  std::uint64_t sequence = 0;
  /// Simulated time the snapshot was taken at.
  SimTime sim_time = 0.0;
  int num_running = 0;
  int num_queued = 0;
  int num_blocked = 0;
  /// Aggregate rate the multi-query PI has measured (U/s).
  double measured_rate = 0.0;
  /// Forecast system quiescent time (§3.3), relative to sim_time;
  /// kUnknown when the forecast failed, kInfiniteTime past horizon.
  SimTime quiescent_eta = kUnknown;
  /// Quanta executed since this snapshot's content was built. 0 for a
  /// fresh snapshot; grows when publication is delayed (fault/outage)
  /// and the service re-publishes the previous content.
  int age_quanta = 0;
  /// Content is at least `stale_snapshot_quanta` quanta old — readers
  /// should treat every estimate in it as suspect.
  bool degraded = false;
  /// The live queries plus the terminal ones still inside the
  /// service's retention window (PiServiceOptions::
  /// terminal_retention_quanta), sorted by id. A finished or aborted
  /// query stays long enough for sessions to observe its final state,
  /// then leaves every later snapshot.
  std::vector<QueryProgress> queries;
  /// Non-empty only on coordinator-merged snapshots: one row per
  /// shard, in shard order (see service/sharded_service.h).
  std::vector<ShardLoad> shard_loads;

  /// Binary search by id; nullptr if the id is not in this snapshot.
  const QueryProgress* Find(QueryId id) const {
    auto it = std::lower_bound(
        queries.begin(), queries.end(), id,
        [](const QueryProgress& q, QueryId key) { return q.id < key; });
    return it != queries.end() && it->id == id ? &*it : nullptr;
  }
  QueryProgress* Find(QueryId id) {
    return const_cast<QueryProgress*>(std::as_const(*this).Find(id));
  }
};

using SnapshotPtr = std::shared_ptr<const ProgressSnapshot>;

}  // namespace mqpi::service
