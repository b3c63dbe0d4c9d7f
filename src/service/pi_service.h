// PiService: the concurrent multi-session frontend over the engine —
// the first step from "simulator" to "server".
//
// One PiService owns an Rdbms, one MultiQueryPi, an optional
// FutureWorkloadModel, a MetricsRegistry, and one column of per-query
// state indexed like the Rdbms records (id - 1): the query's
// SingleQueryPi, its owning session and its last credible ETAs. A
// dedicated *ticker thread* drives them: each tick advances the
// simulated clock by one quantum (paced against wall time by
// `time_scale`, or flat out when it is 0), feeds the multi-query PI and
// the single-query PIs of the live queries, and publishes an immutable
// ProgressSnapshot.
//
// Retention: a snapshot holds the live queries plus the terminal ones
// that finished or aborted less than `terminal_retention_quanta`
// quanta before it was built — a pure function of (finish time,
// snapshot time, window), so replay and delayed publication agree.
// Once a query leaves the snapshots, its column entry is cleared and
// (after the auditor has scored it) its Rdbms record is reaped, so a
// quantum costs O(live + retained), not O(queries ever submitted).
//
// Thread-safety contract:
//   - All engine and PI state is guarded by one internal mutex
//     (`state_mu_`); session control calls (Submit/Block/Resume/Abort/
//     SetPriority) serialize against the ticker on it. These calls are
//     cheap relative to a quantum, so contention stays low.
//   - Estimate *reads* never touch `state_mu_`: `snapshot()` copies a
//     `shared_ptr` under a dedicated pointer lock that is only ever
//     held for the copy/swap itself — never during `Rdbms::Step` — so
//     any number of dashboard/WLM readers can poll at any rate without
//     slowing execution (enforced by the TSan stress test).
//   - Metrics are atomics / short per-instrument locks, updatable from
//     any thread.
//
// Sessions (see service/session.h) are per-client handles with query
// ownership and admission accounting; open them with OpenSession().
// Sessions must be closed or destroyed before the service.
//
// Two driving modes:
//   - ticker mode (`start_ticker` true, the default): a background
//     thread steps the engine; Start()/Stop() control it. The ticker
//     parks itself while the system is idle and wakes on submission.
//   - manual mode (`start_ticker` false): no thread; the owner calls
//     Advance(dt) to step synchronously — deterministic, for shells
//     and tests.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "obs/auditor.h"
#include "obs/flight_recorder.h"
#include "obs/tracer.h"
#include "pi/future_model.h"
#include "pi/multi_query_pi.h"
#include "pi/single_query_pi.h"
#include "recover/event.h"
#include "sched/rdbms.h"
#include "service/metrics.h"
#include "service/snapshot.h"

namespace mqpi::fault {
class FaultInjector;
}  // namespace mqpi::fault

namespace mqpi::service {

class Session;

/// Watchdog over the ticker thread (ticker mode only): a busy system
/// whose ticker has published nothing for `stall_threshold_s` wall
/// seconds is declared stalled; the watchdog kills and restarts the
/// ticker thread, with capped exponential backoff between successive
/// restarts so a persistently faulty ticker cannot spin the watchdog.
/// Every restart increments `service.watchdog_restarts`.
struct WatchdogOptions {
  bool enabled = true;
  /// Wall seconds between health checks.
  double poll_interval_s = 0.05;
  /// Busy + no publication for this long (wall seconds) = stalled.
  /// Automatically raised to cover several paced tick periods when
  /// `time_scale` > 0, so pacing gaps are never misread as stalls.
  double stall_threshold_s = 0.5;
  /// Backoff after a restart before the next stall verdict; doubles
  /// per consecutive restart, capped, and resets once publishes flow.
  double backoff_initial_s = 0.1;
  double backoff_max_s = 2.0;
};

struct PiServiceOptions {
  /// Engine configuration (rate C, quantum, MPL, perturbations...).
  sched::RdbmsOptions rdbms;
  /// §2.4 prior (lambda, c-bar, p-bar); lambda == 0 disables arrival
  /// forecasting entirely.
  pi::FutureWorkloadEstimate future_prior;
  /// > 0 makes the future model adaptive with this prior strength.
  double future_prior_strength = 0.0;
  /// Simulated seconds advanced per wall-clock second by the ticker;
  /// 0 means "as fast as possible" (tests, batch runs).
  double time_scale = 0.0;
  /// false = manual mode: no ticker thread, drive with Advance().
  bool start_ticker = true;
  /// Ticker parks while nothing is running, queued, or scheduled
  /// (instead of burning CPU advancing an empty clock).
  bool pause_when_idle = true;
  /// Closing a session aborts its still-live queries (and drops its
  /// scheduled arrivals either way).
  bool abort_queries_on_session_close = true;
  /// Retention window for terminal queries, in quanta: a finished or
  /// aborted query's row is in every snapshot built less than this
  /// many quanta after its finish_time, and in none after. Then its
  /// per-query state is freed: Session::Progress answers NotFound and
  /// control calls on the id answer NotFound. Clients that act on the
  /// last snapshot they saw (cancel unless it shows the row terminal)
  /// need a window longer than their reaction time.
  int terminal_retention_quanta = 10;
  /// Per-session cap on concurrently live (non-terminal) queries;
  /// Submit fails with FailedPrecondition at the cap, and a SubmitAt
  /// arrival that finds its session at the cap when it falls due is
  /// dropped. Both count in `service.submit_rejected`. 0 = unlimited.
  std::uint64_t max_inflight_per_session = 0;
  /// Feed every stepped snapshot's live rows to the estimate auditor
  /// (one lock per snapshot), plus each query once more when it
  /// finishes or aborts, and publish labeled accuracy metrics
  /// (pi.estimate_mape, pi.estimate_bias, pi.monotonicity_violations)
  /// as queries complete. Auditor memory is O(live queries × the
  /// per-query sample budget), independent of how long queries run.
  bool enable_auditor = true;
  /// Auditor tuning: per-query sample budget, convergence band, truth
  /// cutoff.
  obs::AuditorOptions auditor;
  /// Optional chaos harness (not owned; must outlive the service).
  /// Wired into the Rdbms, the multi-query PI, and the service's own
  /// `service.*` fault points. Null = zero fault machinery on any hot
  /// path beyond a single branch.
  fault::FaultInjector* fault = nullptr;
  /// Ticker-thread watchdog (ticker mode only; see WatchdogOptions).
  WatchdogOptions watchdog;
  /// Overload shedding: Submit fails with ResourceExhausted when the
  /// admission queue already holds this many queries (0 = unbounded).
  /// Counted in `service.submits_shed`.
  std::uint64_t max_queued_queries = 0;
  /// SubmitAt fails with ResourceExhausted when this many scheduled
  /// arrivals are already pending (0 = unbounded).
  std::uint64_t max_pending_arrivals = 0;
  /// Staleness tagging: when publication is delayed (fault or outage)
  /// the previous snapshot is re-published with `age_quanta`
  /// incremented; once the age reaches this many quanta the snapshot
  /// is flagged `degraded` so readers can distrust it.
  int stale_snapshot_quanta = 4;
  /// The incident black box (see obs/flight_recorder.h). Always
  /// recording by default; the service pulls its dump triggers on
  /// watchdog restarts and degraded publications, and the network
  /// edge adds consumer sheds.
  obs::FlightRecorderOptions flight_recorder;
  /// Arm the process-wide hot-path profiler (obs::GlobalProfiler())
  /// at construction so every quantum accumulates a per-site cost
  /// breakdown for /statusz. Off by default: disabled cost is one
  /// relaxed load per instrumented scope.
  bool enable_profiler = false;
  /// Pin the ticker thread to this CPU (sched_setaffinity on the
  /// thread). -1 = no pinning. Shards use this so each scheduler's
  /// ticker stays cache-hot on its own core; a pin to a nonexistent
  /// CPU is ignored with a metric bump, never fatal.
  int pin_cpu = -1;
  /// Durability: every state-changing input (session open/close,
  /// submit, control, admission flips, clock steps, snapshot probes)
  /// is appended here, under the state lock and in mutation order —
  /// the write-ahead journal recovery replays (see recover/event.h).
  /// Not owned; must outlive the service or be detached via
  /// SetEventSink(nullptr) first. Null = no journaling.
  recover::EventSink* event_sink = nullptr;
};

class PiService {
 public:
  /// `catalog` must outlive the service. Starts the ticker thread
  /// unless `options.start_ticker` is false.
  explicit PiService(const storage::Catalog* catalog,
                     PiServiceOptions options = {});
  /// Stops the ticker. Open sessions must already be closed/destroyed.
  ~PiService();

  PiService(const PiService&) = delete;
  PiService& operator=(const PiService&) = delete;

  // ---- sessions -------------------------------------------------------------

  /// Opens a client session. The returned handle is safe to use from
  /// one client thread at a time; different sessions are independent.
  std::unique_ptr<Session> OpenSession(std::string name = "");

  // ---- ticker control -------------------------------------------------------

  /// Starts the ticker (and watchdog, when enabled) if not running
  /// (no-op in manual mode after the constructor already started it
  /// per options).
  void Start();
  /// Stops and joins the ticker and watchdog; queries keep their state
  /// and a final snapshot stays readable. Safe to call with queries
  /// still running.
  void Stop();
  bool ticking() const;

  /// Manual mode only: synchronously advance simulated time by `dt`,
  /// submitting due scheduled arrivals, feeding PIs, and publishing
  /// snapshots per quantum. FailedPrecondition while a ticker runs.
  Status Advance(SimTime dt);

  /// Manual mode convenience: Advance one quantum at a time until
  /// idle or `deadline` (simulated). Returns final simulated time.
  Result<SimTime> AdvanceUntilIdle(SimTime deadline = kInfiniteTime);

  /// Blocks the calling thread until the system is idle (no running,
  /// queued, or scheduled work) or `timeout` wall seconds elapse.
  /// Returns whether the system is idle. Ticker mode only.
  bool WaitUntilIdle(double timeout_seconds);

  // ---- reads (never block the ticker's Step) --------------------------------

  /// The latest published snapshot; never null (sequence 0 before the
  /// first tick). O(1): a shared_ptr copy under a pointer-only lock.
  SnapshotPtr snapshot() const;

  /// Builds and publishes a fresh snapshot without advancing time —
  /// lets manual-mode dashboards observe submissions and control
  /// operations between Advance() calls.
  void PublishNow();

  /// Builds a fresh snapshot from live state WITHOUT publishing it
  /// (sequence stays 0; readers never see it) — the checkpoint
  /// verification probe. Journaled as a kProbe event because building
  /// a snapshot advances the last-credible-ETA carry state, which
  /// replay must reproduce.
  SnapshotPtr BuildUnpublishedSnapshot();

  /// Attaches/detaches the event journal at runtime — recovery replays
  /// with the sink detached, then reattaches it. Serialized against
  /// every mutation on the state lock.
  void SetEventSink(recover::EventSink* sink);

  // ---- graceful drain -------------------------------------------------------

  /// Caller-supplied drain steps, run in order between "admissions
  /// closed" and "ticker stopped" (the service layer cannot encode
  /// wire frames or own the journal — the owner wires these).
  struct DrainHooks {
    /// Flush the journal and cut the final checkpoint.
    std::function<void()> flush;
    /// Notify subscribers the service is going away (goodbye frames).
    std::function<void()> goodbye;
  };

  /// Graceful shutdown, in this order: (1) new submissions fail with
  /// kUnavailable, (2) `flush` runs (journal + final checkpoint),
  /// (3) `goodbye` runs, (4) the ticker and watchdog stop. Counted in
  /// `service.drains` and captured as a flight-recorder dump.
  /// FailedPrecondition on a second call.
  Status Drain(const DrainHooks& hooks = {});
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// Called with every published snapshot, after it is visible via
  /// snapshot(), outside all service locks — the network fan-out's
  /// feed. Must be O(1)-cheap (it runs on the ticker thread). Set to
  /// nullptr to detach; the caller must keep the hook's targets alive
  /// until after the detach returns.
  using PublishHook = std::function<void(const SnapshotPtr&)>;
  void SetPublishHook(PublishHook hook);

  /// §3 what-if evaluated against the live forecast: remaining time of
  /// `target` under the hypothetical scenario. Takes the state lock
  /// (cheap relative to a quantum, like session control calls).
  Result<SimTime> EstimateWhatIf(const pi::MultiQueryPi::WhatIf& scenario,
                                 QueryId target);

  MetricsRegistry* metrics() { return &metrics_; }

  /// Estimate-accuracy auditor (internally locked; reading its reports
  /// never touches the service's state lock).
  obs::EstimateAuditor* auditor() { return &auditor_; }
  const obs::EstimateAuditor* auditor() const { return &auditor_; }

  /// The process-wide tracer every subsystem records into. Enable with
  /// `tracer()->set_enabled(true)` before the run you want captured.
  obs::Tracer* tracer() { return tracer_; }

  /// The service's incident black box (internally locked).
  obs::FlightRecorder* flight_recorder() { return &flight_; }
  const obs::FlightRecorder* flight_recorder() const { return &flight_; }

  /// One liveness verdict shared by the ticker watchdog and the
  /// /healthz endpoint, so "healthy" means exactly one thing. Also
  /// refreshes the `service.uptime_quanta` and
  /// `service.ticker_last_step_age_quanta` gauges.
  struct Liveness {
    /// Work is pending (running, queued, or scheduled arrivals).
    bool busy = false;
    /// Wall seconds since the last snapshot publication.
    double since_publish_s = 0.0;
    /// Stall verdict boundary (watchdog threshold, pacing-adjusted).
    double stall_threshold_s = 0.0;
    /// since_publish_s expressed in expected tick periods.
    double age_quanta = 0.0;
    /// Quanta stepped since construction.
    std::uint64_t uptime_quanta = 0;
    bool stalled() const {
      return busy && since_publish_s > stall_threshold_s;
    }
  };
  Liveness CheckLiveness() const;

  const PiServiceOptions& options() const { return options_; }

  // ---- point-in-time engine reads (take the state lock) ---------------------

  SimTime now() const;
  bool Idle() const;
  /// Plan a spec without executing it (shell's `explain`).
  Result<std::string> Explain(const engine::QuerySpec& spec);
  /// Admission-queue gate (maintenance operation O1).
  void SetAdmissionOpen(bool open);

 private:
  friend class Session;

  struct SessionState {
    std::uint64_t id = 0;
    std::string name;
    std::unordered_set<QueryId> live;
    std::uint64_t submitted = 0;
    std::uint64_t finished = 0;
    std::uint64_t aborted = 0;
  };

  struct ScheduledSubmit {
    SimTime time = 0.0;
    std::uint64_t session_id = 0;
    engine::QuerySpec spec;
    Priority priority = Priority::kNormal;
  };
  struct ScheduledLater {
    bool operator()(const ScheduledSubmit& a,
                    const ScheduledSubmit& b) const {
      return a.time > b.time;  // min-heap on arrival time
    }
  };

  // Session-facing entry points (Session forwards here with its id).
  Result<QueryId> SessionSubmit(std::uint64_t session_id,
                                const engine::QuerySpec& spec,
                                Priority priority);
  Status SessionSubmitAt(std::uint64_t session_id, SimTime time,
                         engine::QuerySpec spec, Priority priority);
  Status SessionControl(std::uint64_t session_id, QueryId id,
                        sched::QueryEventKind op, Priority priority);
  Status CloseSession(std::uint64_t session_id);
  Result<std::uint64_t> SessionLiveCount(std::uint64_t session_id) const;

  // Requires state_mu_. Returns the session or nullptr.
  SessionState* FindSessionLocked(std::uint64_t session_id);
  // Requires state_mu_. The session that submitted `id`; 0 if none.
  std::uint64_t OwnerLocked(QueryId id) const;
  // Requires state_mu_. Ownership check for control operations.
  Status CheckOwnedLocked(std::uint64_t session_id, QueryId id) const;

  // Requires state_mu_. The one submit path: enforces the session's
  // inflight cap and the queue bound, submits, and gives the query its
  // column entry.
  Result<QueryId> SubmitLocked(SessionState* session,
                               const engine::QuerySpec& spec,
                               Priority priority);
  // Requires state_mu_. Submits every scheduled arrival due at `now`.
  void SubmitDueArrivalsLocked();
  // Requires state_mu_. Feeds the multi-query PI and the single-query
  // PIs of the live queries after a Step.
  void ObservePisLocked();
  // Requires state_mu_. True when nothing can make progress.
  bool IdleLocked() const;

  // Steps one quantum (or `dt`) and publishes a snapshot. Grabs
  // state_mu_ itself.
  void StepAndPublish(SimTime dt);
  // Publication-delay degradation: re-publishes a copy of the current
  // snapshot with `age_quanta` bumped and the degraded flag applied
  // past the staleness threshold.
  void PublishStaleCopy();
  // Feeds a freshly built snapshot to the auditor under one auditor
  // lock: every non-terminal row, plus `terminal` (one observation per
  // query that went terminal since the last fed snapshot, in id
  // order). Then publishes accuracy metrics for the queries just
  // scored. Called after state_mu_ is released.
  void FeedAuditor(const ProgressSnapshot& snapshot,
                   const std::vector<obs::EstimateObservation>& terminal);
  void RecordAccuracyMetrics(const obs::QueryAccuracy& report);
  // Requires state_mu_. Takes the pending terminal ids as observations
  // at the current time, read from their records (which outlive the
  // retention window until this has run).
  std::vector<obs::EstimateObservation> TakeTerminalObservationsLocked();
  // Requires state_mu_. Drops from visible_ every terminal query whose
  // retention window has closed by now, and clears its column entry.
  void ExpireTerminalLocked();
  // Requires state_mu_. Frees the Rdbms records of expired queries;
  // runs only once the auditor has taken their terminal observations.
  void ReapExpiredLocked();
  // Requires state_mu_.
  std::shared_ptr<ProgressSnapshot> BuildSnapshotLocked();
  void Publish(std::shared_ptr<ProgressSnapshot> snapshot);
  // Requires state_mu_. Appends to the journal when a sink is
  // attached; no-op otherwise.
  void AppendEventLocked(const recover::Event& event);

  void TickerLoop();
  void WatchdogLoop();
  // Spawn/kill just the ticker thread (both lock ticker_mu_). The
  // watchdog uses this pair to replace a stalled ticker without
  // touching the service-wide stop flag.
  void StartTickerThread();
  void StopTickerThread();
  // Requires ticker_mu_ and a joinable ticker_. Best-effort affinity.
  void PinTicker(int cpu);
  void NotifyWork();
  bool stop_requested() const {
    return stop_.load(std::memory_order_acquire);
  }
  bool ticker_stop_requested() const {
    return ticker_stop_.load(std::memory_order_acquire);
  }

  const PiServiceOptions options_;

  // Engine + PI state; everything below state_mu_ is guarded by it.
  mutable std::mutex state_mu_;
  std::unique_ptr<sched::Rdbms> db_;
  std::unique_ptr<pi::FutureWorkloadModel> future_;
  pi::MultiQueryPi multi_;
  /// Per-query state, at index id - 1 like the Rdbms records. The
  /// last credible (finite, within-horizon) published ETAs are the
  /// carry values when an estimator degrades.
  /// A reaped entry is cleared (owner 0, so control calls answer
  /// NotFound) and flagged.
  struct ServedQuery {
    std::uint64_t session_id = 0;
    /// The scheduler record's label block, shared by every row.
    QueryLabel label;
    pi::SingleQueryPi single{kInvalidQueryId};
    SimTime last_good_single = kUnknown;
    SimTime last_good_multi = kUnknown;
    bool reaped = false;
  };
  std::vector<ServedQuery> queries_;
  /// The ids a snapshot shows, ascending: every live query plus the
  /// terminal ones inside the retention window. Appended at submit.
  std::vector<QueryId> visible_;
  /// (finish_time, id) of terminal queries still in visible_, in the
  /// order they went terminal — finish times never decrease, so the
  /// ones whose window has closed are a prefix.
  std::vector<std::pair<SimTime, QueryId>> retiring_;
  /// Expired ids whose Rdbms record is not freed yet.
  std::vector<QueryId> expired_;
  std::priority_queue<ScheduledSubmit, std::vector<ScheduledSubmit>,
                      ScheduledLater>
      arrivals_;
  std::unordered_map<std::uint64_t, SessionState> sessions_;
  std::uint64_t next_session_id_ = 1;
  /// Ids that finished or aborted since the last snapshot fed to the
  /// auditor (filled by the event listener; empty when it is off).
  std::vector<QueryId> auditor_terminal_pending_;
  /// The attached journal (guarded by state_mu_; appends happen under
  /// it, in mutation order).
  recover::EventSink* event_sink_ = nullptr;
  /// Admissions gate: true once Drain() begins; submits fail with
  /// kUnavailable from then on.
  std::atomic<bool> draining_{false};

  // Published snapshot; snapshot_mu_ is held only for the pointer
  // copy/swap, never across engine work.
  mutable std::mutex snapshot_mu_;
  SnapshotPtr snapshot_;
  std::uint64_t published_ = 0;
  // Publish-hook slot; its own tiny lock so installing/clearing never
  // contends with snapshot reads.
  std::mutex hook_mu_;
  PublishHook publish_hook_;
  std::atomic<std::chrono::steady_clock::rep> publish_wall_ns_{0};

  // Ticker machinery. `stop_` stops the whole service; `ticker_stop_`
  // stops only the ticker thread (the watchdog's restart lever).
  // `ticker_mu_` guards the ticker thread object itself: the watchdog
  // and the owner thread (Start/Stop/Advance/ticking) both touch it.
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::uint64_t work_epoch_ = 0;  // guarded by wake_mu_
  std::atomic<bool> stop_{false};
  std::atomic<bool> ticker_stop_{false};
  mutable std::mutex ticker_mu_;
  std::thread ticker_;  // guarded by ticker_mu_

  // Watchdog machinery (thread managed by Start/Stop only).
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  std::thread watchdog_;

  // Requires state_mu_. Publishes the PI forecast-cache deltas since
  // the last call into the hit/miss counters.
  void RecordForecastCacheMetricsLocked();
  // Requires state_mu_. Publishes PI degradation-counter deltas
  // (rate-floor clamps, corrupt window samples, degraded estimates)
  // and per-point fault-fire counts.
  void RecordDegradationMetricsLocked();

  MetricsRegistry metrics_;
  // Hot-path instruments resolved on first use, so a series appears in
  // the exposition only once it has something to say. Atomic because
  // accuracy metrics are recorded outside state_mu_.
  template <typename T, typename Lookup>
  static T* Cached(std::atomic<T*>* slot, Lookup lookup);
  std::atomic<Counter*> admitted_{nullptr};
  std::atomic<Counter*> finished_{nullptr};
  std::atomic<Counter*> aborted_{nullptr};
  std::atomic<Counter*> submits_{nullptr};
  std::atomic<Gauge*> running_gauge_{nullptr};
  std::atomic<Gauge*> queued_gauge_{nullptr};
  std::atomic<Gauge*> blocked_gauge_{nullptr};
  std::atomic<Gauge*> sim_time_gauge_{nullptr};
  std::atomic<Gauge*> retained_queries_gauge_{nullptr};
  std::atomic<Gauge*> rate_ratio_gauge_{nullptr};
  /// Accuracy instruments, [estimator: single, multi][priority].
  struct AccuracyInstruments {
    std::atomic<Histogram*> mape{nullptr};
    std::atomic<Histogram*> bias{nullptr};
  };
  AccuracyInstruments accuracy_[2][kNumPriorities];
  std::atomic<Counter*> monotonicity_[2] = {nullptr, nullptr};
  std::atomic<Counter*> queries_scored_{nullptr};
  // Hot-path instruments, resolved once.
  Counter* quanta_stepped_;
  Counter* snapshots_published_;
  Counter* snapshot_reads_;
  Counter* forecast_cache_hit_;
  Counter* forecast_cache_miss_;
  Counter* incremental_fast_path_;
  Counter* incremental_fallback_;
  Counter* stale_snapshots_;
  Counter* watchdog_restarts_;
  Counter* submits_shed_;
  Counter* drains_;
  Counter* pin_misses_;
  Counter* degraded_estimates_;
  Counter* rate_floor_hits_;
  Counter* corrupt_rate_samples_;
  Gauge* uptime_quanta_gauge_;
  Gauge* auditor_samples_gauge_;
  Gauge* ticker_age_quanta_gauge_;
  Histogram* step_wall_ms_;
  Histogram* snapshot_age_ms_;
  // Last PI cache totals already published (guarded by state_mu_).
  std::uint64_t seen_cache_hits_ = 0;
  std::uint64_t seen_cache_misses_ = 0;
  // Last PI estimator-path totals already published (state_mu_).
  std::uint64_t seen_incremental_fast_path_ = 0;
  std::uint64_t seen_incremental_fallback_ = 0;
  // Last PI degradation totals already published (guarded by state_mu_).
  std::uint64_t seen_rate_floor_hits_ = 0;
  std::uint64_t seen_corrupt_rate_samples_ = 0;
  std::uint64_t seen_degraded_estimates_ = 0;
  // Last per-fault-point fire totals already published (state_mu_).
  std::unordered_map<const void*, std::uint64_t> seen_fault_fires_;

  fault::FaultInjector* const fault_;  // == options_.fault, cached

  obs::EstimateAuditor auditor_;
  obs::Tracer* tracer_;  // the process-wide tracer, cached
  obs::FlightRecorder flight_;
};

}  // namespace mqpi::service
