// Session: one client's handle onto a PiService.
//
// A session owns the queries it submits: control operations (Block/
// Resume/Abort/SetPriority) are accepted only for that session's own
// queries, and the service keeps per-session admission accounting
// (live-query count, optional inflight cap, submit/finish/abort
// totals — surfaced through the metrics registry).
//
// Progress reads are served from the latest published snapshot and
// never touch the engine lock, so a client can poll as fast as it
// likes. Reads are not restricted to owned queries — progress data is
// not secret; ownership only gates *control*.
//
// Thread-safety: one session may be driven by one client thread at a
// time; use separate sessions for separate client threads (sessions
// are what the stress test hands to each writer thread). A Session
// must not outlive its PiService.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "engine/planner.h"
#include "service/snapshot.h"

namespace mqpi::service {

class PiService;

class Session {
 public:
  /// Closes the session (see Close()).
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  std::uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  // ---- admission ------------------------------------------------------------

  /// Plans and submits a query now; it is owned by this session.
  /// FailedPrecondition when the session is closed or at its inflight
  /// cap; ResourceExhausted when the service sheds the submit because
  /// the admission queue is at its configured bound.
  Result<QueryId> Submit(const engine::QuerySpec& spec,
                         Priority priority = Priority::kNormal);

  /// Schedules a submission at absolute simulated time `time` (past
  /// times submit on the next tick). The ticker performs the actual
  /// submit; the query then belongs to this session. The inflight cap
  /// and the queue bound apply at that point: an arrival refused by
  /// either is dropped and counted as a refused Submit would be. Used
  /// to replay workload arrival schedules as live service traffic.
  Status SubmitAt(SimTime time, engine::QuerySpec spec,
                  Priority priority = Priority::kNormal);

  /// Number of this session's queries not yet finished or aborted
  /// (scheduled-but-not-yet-submitted arrivals do not count).
  std::uint64_t LiveQueries() const;

  // ---- progress (snapshot reads; never block the ticker) --------------------

  /// Progress of any query in the latest snapshot (not just owned
  /// ones). NotFound if the id is not in it: not yet published, or
  /// terminal for longer than the service's retention window.
  Result<QueryProgress> Progress(QueryId id) const;

  /// This session's queries in the latest snapshot, sorted by id: the
  /// live ones plus the terminal ones still inside the retention
  /// window.
  std::vector<QueryProgress> ListQueries() const;

  /// The whole latest snapshot (dashboards).
  SnapshotPtr snapshot() const;

  // ---- control (owned queries only) -----------------------------------------
  // A query reaped after its retention window answers NotFound.

  Status Block(QueryId id);
  Status Resume(QueryId id);
  Status Abort(QueryId id);
  Status SetPriority(QueryId id, Priority priority);

  /// Idempotent. Drops scheduled arrivals and aborts still-live
  /// queries, then detaches from the service.
  Status Close();

 private:
  friend class PiService;
  Session(PiService* service, std::uint64_t id, std::string name);

  PiService* service_;
  std::uint64_t id_;
  std::string name_;
  std::atomic<bool> closed_{false};
};

}  // namespace mqpi::service
