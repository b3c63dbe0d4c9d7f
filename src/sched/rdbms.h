// Rdbms: the multi-query execution substrate.
//
// Owns a buffer pool, a planner, an admission queue, and a
// weighted-fair-share scheduler that distributes the aggregate
// processing rate C (work units per second) over the running queries in
// proportion to their priority weights — the execution model the paper
// assumes (Assumptions 1 and 3), with optional perturbations that
// violate those assumptions for the robustness ablation.
//
// Time advances in quanta via Step(dt). Within a quantum each running
// query receives budget C*dt*w_i/W (plus its carried deficit, so
// operator-granularity overshoot evens out), completions are detected,
// and queued queries are admitted into freed slots.
//
// Thread-safety: none — an Rdbms is single-threaded state, externally
// synchronized by its owner. The concurrent frontend is
// service::PiService, which serializes every call (including the
// listeners registered here, which fire on the mutating thread) under
// one lock and publishes lock-free read snapshots instead of exposing
// this class to reader threads.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/priority.h"
#include "common/query_label.h"
#include "common/status.h"
#include "common/units.h"
#include "engine/planner.h"
#include "sched/clock.h"
#include "sched/perturbation.h"
#include "storage/catalog.h"

namespace mqpi::obs {
class Tracer;
}  // namespace mqpi::obs

namespace mqpi::fault {
class FaultInjector;
}  // namespace mqpi::fault

namespace mqpi::sched {

enum class QueryState {
  kQueued,    // waiting in the admission queue
  kRunning,   // receiving a share of C
  kBlocked,   // suspended by workload management (holds its slot)
  kFinished,  // ran to completion
  kAborted,   // killed by workload management
};

std::string_view QueryStateName(QueryState state);

struct RdbmsOptions {
  /// Aggregate processing rate C in work units per second (Assumption 1).
  double processing_rate = 1000.0;
  /// Maximum queries running (or blocked) at once; others queue.
  int max_concurrent = 1 << 30;
  /// Scheduling quantum in simulated seconds.
  SimTime quantum = 0.1;
  /// Priority -> weight mapping (Assumption 3).
  PriorityWeights weights;
  /// Optimizer statistics noise.
  engine::CostModelOptions cost_model;
  /// Buffer pool configuration.
  storage::BufferOptions buffer;
  /// Assumption violations (defaults: assumptions hold exactly).
  PerturbationOptions perturbation;
  /// Statement timeout: a query still unfinished this many simulated
  /// seconds after it *started* is aborted automatically (0 disables),
  /// like a workload manager's runaway-query guard.
  SimTime max_query_seconds = 0.0;
};

/// Everything externally observable about one query. Progress
/// indicators must restrict themselves to the fields marked
/// "observable"; ground truth lives only in the run's own history.
struct QueryInfo {
  QueryId id = kInvalidQueryId;
  Priority priority = Priority::kNormal;
  double weight = 1.0;                       // observable
  QueryState state = QueryState::kQueued;
  SimTime arrival_time = 0.0;
  SimTime start_time = kUnknown;             // admission into running set
  SimTime finish_time = kUnknown;            // completion or abort
  WorkUnits optimizer_cost = 0.0;            // observable: plan-time estimate
  WorkUnits completed_work = 0.0;            // observable: e_i
  WorkUnits estimated_remaining_cost = 0.0;  // observable: refined c_i
  WorkUnits consumed_last_step = 0.0;        // observable: speed sample
  SimTime last_step_duration = 0.0;
  std::uint64_t rows_produced = 0;
  /// EXPLAIN ANALYZE-style I/O statistics (0 for synthetic queries).
  std::uint64_t pages_accessed = 0;
  std::uint64_t buffer_hits = 0;
};

/// Lifecycle events observable through Rdbms::AddEventListener.
enum class QueryEventKind {
  kSubmitted,  // entered the admission queue
  kStarted,    // admitted into the running set
  kBlocked,
  kResumed,
  kFinished,
  kAborted,
  kPriorityChanged,
};

std::string_view QueryEventKindName(QueryEventKind kind);

struct QueryEvent {
  QueryEventKind kind = QueryEventKind::kSubmitted;
  SimTime time = 0.0;
  QueryInfo info;
};

class Rdbms {
 public:
  /// `catalog` must outlive the Rdbms; data is shared read-only across
  /// instances so multi-run experiments build tables once.
  Rdbms(const storage::Catalog* catalog, RdbmsOptions options = {});
  ~Rdbms();

  Rdbms(const Rdbms&) = delete;
  Rdbms& operator=(const Rdbms&) = delete;

  // ---- submission and control ----------------------------------------------

  /// Plans and enqueues a query at the current simulated time. If a
  /// running slot is free (and admission is open) it starts
  /// immediately. Returns the new query id.
  Result<QueryId> Submit(const engine::QuerySpec& spec,
                         Priority priority = Priority::kNormal);

  /// Kills a queued, blocked, or running query (workload management
  /// operation O2'/O2). Completed work is lost.
  Status Abort(QueryId id);

  /// Suspends a running query; it keeps its slot but receives no work
  /// (the single-/multiple-query speed-up victim operation).
  Status Block(QueryId id);

  /// Resumes a blocked query.
  Status Resume(QueryId id);

  Status SetPriority(QueryId id, Priority priority);

  /// Frees a finished or aborted query's record (its operator tree
  /// included). Afterwards the id answers like one never handed out:
  /// info() and every control call return NotFound, and the Visit
  /// passes and AllQueries() skip it. Ids are never reused. Fires no
  /// event and leaves the load epoch alone — a terminal query is no
  /// forecast input. NotFound for unknown or already-reaped ids,
  /// FailedPrecondition for a query that is not terminal. Only a
  /// long-lived owner that bounds its history (the PI service's
  /// retention window) calls this; experiments never do.
  Status Reap(QueryId id);

  /// Instantaneously advances a running query by `work` units without
  /// consuming simulated time. Experiment setup only — used to start a
  /// scenario with queries "at a random point of their execution"
  /// (paper Sections 5.2.1 / 5.2.3). Fires completion listeners if the
  /// query finishes during the fast-forward.
  Status FastForward(QueryId id, WorkUnits work);

  /// Closes/opens the admission queue (maintenance operation O1).
  /// While closed, Submit() still queues queries but none are admitted.
  void SetAdmissionOpen(bool open);
  bool admission_open() const { return admission_open_; }

  // ---- time -----------------------------------------------------------------

  /// Advances simulated time by one quantum.
  void Step() { Step(options_.quantum); }

  /// Advances simulated time by `dt` (split into quanta internally).
  void Step(SimTime dt);

  /// Steps until no query is running or queued, or until `deadline`.
  /// Returns the final simulated time.
  SimTime RunUntilIdle(SimTime deadline = kInfiniteTime);

  SimTime now() const { return clock_.now(); }

  /// Monotonic load epoch: bumped by every transition that can change
  /// the inputs of a forecast — query lifecycle events (submit, admit,
  /// block/resume, finish, abort, priority change), every executed
  /// quantum (remaining costs and the clock move), fast-forwards, and
  /// admission-gate flips. Progress indicators key their forecast
  /// caches on it: as long as the epoch (and their own measured state)
  /// is unchanged, a memoized forecast is still exact. Reads follow the
  /// class's external-synchronization contract, same as every other
  /// accessor.
  std::uint64_t load_epoch() const { return load_epoch_; }

  // ---- inspection -----------------------------------------------------------

  // Per-quantum callers (the multi-query PI's base load, single-query
  // PIs, the snapshot builder) use the Visit* passes below; info() and
  // the vector accessors serve cold callers. Both read the same
  // records. A query's label is rendered once, at Submit, into a
  // shared immutable QueryLabel block; label(id) hands out that block,
  // and no pass copies it.

  Result<QueryInfo> info(QueryId id) const;
  /// The query's label (QuerySpec::Label(), rendered at Submit): a
  /// handle to the block the record holds, so owners that publish it
  /// every quantum share it instead of copying the text. An empty label
  /// for unknown and reaped ids.
  const QueryLabel& label(QueryId id) const;
  std::vector<QueryInfo> RunningQueries() const;   // excludes blocked
  std::vector<QueryInfo> BlockedQueries() const;
  std::vector<QueryInfo> QueuedQueries() const;    // admission-queue order
  std::vector<QueryInfo> AllQueries() const;       // ascending id

  /// One pass over a query set without materializing it: `fn` sees one
  /// QueryInfo per query, refilled in place between calls (so a pass
  /// allocates nothing). The reference is valid only for the duration
  /// of the call; `fn` may read the Rdbms but must not mutate it.
  using QueryVisitor = std::function<void(const QueryInfo&)>;
  /// The running (unblocked) queries, in RunningQueries() order.
  void VisitRunning(const QueryVisitor& fn) const;
  /// The live admission-queue entries, in QueuedQueries() order.
  void VisitQueued(const QueryVisitor& fn) const;
  /// Every non-terminal query: the running set (blocked included),
  /// then the live admission-queue entries in admission order.
  void VisitLive(const QueryVisitor& fn) const;
  /// Every query with id > `after`, ascending — AllQueries() order.
  /// Ids are dense from 1, so this costs O(ids visited); reaped ids
  /// are skipped.
  void VisitQueries(const QueryVisitor& fn, QueryId after = 0) const;
  /// The queries named by `ids`, in that order. Every id must have
  /// been handed out and not reaped.
  void VisitEach(std::span<const QueryId> ids, const QueryVisitor& fn) const;

  int num_running() const { return static_cast<int>(running_.size()); }
  int num_queued() const { return static_cast<int>(admission_queue_.size()); }
  /// Queries ever submitted, reaped ones included; the highest id
  /// handed out is the same number (ids are dense from 1).
  std::size_t num_queries() const { return queries_.size(); }
  bool Idle() const;

  /// 0-based position of a query among the live entries of the
  /// admission queue (the wait-line number a service shows the user).
  /// NotFound for unknown ids, FailedPrecondition if not queued.
  Result<int> QueuePosition(QueryId id) const;

  const RdbmsOptions& options() const { return options_; }

  /// The effective aggregate rate right now (C scaled by the
  /// perturbation model for the current multiprogramming level).
  double EffectiveRate() const;

  /// Completion hook: fired when a query finishes (not on abort).
  void AddCompletionListener(std::function<void(const QueryInfo&)> fn);

  /// Full lifecycle hook: fired for every QueryEvent (submission,
  /// start, block/resume, priority change, finish, abort).
  void AddEventListener(std::function<void(const QueryEvent&)> fn);

  /// Attaches a chaos harness (nullptr detaches). The injector is not
  /// owned and must outlive stepping. Once attached, every quantum
  /// evaluates the `sched.*` fault points (spurious aborts, admission
  /// flaps, rate collapse/spike, quantum stall/overshoot) before
  /// serving work; an unarmed injector costs one branch per quantum.
  void SetFaultInjector(fault::FaultInjector* injector) {
    fault_ = injector;
  }
  fault::FaultInjector* fault_injector() const { return fault_; }

  /// The planner (shared cost model / noise stream) — used by
  /// experiments to dry-run specs for ground truth.
  engine::Planner* planner() { return planner_.get(); }

  const storage::BufferManager& buffers() const { return *buffers_; }

 private:
  struct Record;

  /// One running query in the serve order. `deficit` is the record's,
  /// copied when the order is repaired, so the repair compares
  /// contiguous keys instead of chasing records.
  struct ServeEntry {
    WorkUnits deficit;
    QueryId id;
    Record* record;
  };

  void AdmitFromQueue();
  void StepOnce(SimTime dt);
  /// Priority weight times the Assumption-3 speed perturbation.
  double ServeWeight(const Record& record) const;
  /// Accrues every active query's share of `capacity` (by weight, over
  /// `total_weight`) and brings serve_order_ to this quantum's active
  /// set in serve order (deficit descending, then id ascending),
  /// starting from last quantum's order. `newcomers` are the active
  /// queries serve_order_ does not list. Returns serve_order_.
  const std::vector<ServeEntry>& AccrueAndOrder(
      const std::vector<Record*>& newcomers, WorkUnits capacity,
      double total_weight);
  /// Evaluates the per-quantum sched fault points; returns the rate
  /// multiplier the injected faults impose on this quantum (1 when
  /// quiet, 0 for a stalled quantum).
  double ApplyStepFaults();
  QueryInfo MakeInfo(const Record& record) const;
  /// Overwrites every field of `*info` from `record`.
  void FillInfo(const Record& record, QueryInfo* info) const;
  /// The record of `id`, or nullptr for 0, kInvalidQueryId, ids never
  /// handed out and reaped ids.
  const Record* Find(QueryId id) const;
  Record* Find(QueryId id) {
    return const_cast<Record*>(std::as_const(*this).Find(id));
  }
  /// The record of an admission-queue entry that is still waiting, or
  /// nullptr for a lazily removed one (aborted in the queue, and
  /// possibly reaped since).
  const Record* FindQueued(QueryId id) const;

  const storage::Catalog* catalog_;
  RdbmsOptions options_;
  obs::Tracer* tracer_;  // the process-wide tracer, cached
  SimClock clock_;
  std::unique_ptr<storage::BufferManager> buffers_;
  std::unique_ptr<engine::Planner> planner_;
  PerturbationModel perturbation_;
  fault::FaultInjector* fault_ = nullptr;  // optional chaos harness
  bool admission_open_ = true;

  /// Negative when the previous quantum's last served operator step
  /// overshot the pool; repaid from the next quantum's capacity.
  WorkUnits system_carry_ = 0.0;

  std::uint64_t load_epoch_ = 0;
  /// Every query ever submitted; query `id` lives at index id - 1, so
  /// the next id is size() + 1. A reaped query leaves a null slot.
  std::vector<std::unique_ptr<Record>> queries_;
  std::vector<QueryId> running_;           // running + blocked hold slots
  /// Last quantum's serve order, carried so the next quantum repairs
  /// it instead of sorting from scratch. Entries whose query stopped
  /// running (or was reaped) since are dropped by the next repair, so
  /// only `id` is trusted across quanta.
  std::vector<ServeEntry> serve_order_;
  std::deque<QueryId> admission_queue_;
  void Emit(QueryEventKind kind, const Record& record);

  std::vector<std::function<void(const QueryInfo&)>> completion_listeners_;
  std::vector<std::function<void(const QueryEvent&)>> event_listeners_;
};

}  // namespace mqpi::sched
