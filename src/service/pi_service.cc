#include "service/pi_service.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "fault/fault_injector.h"
#include "obs/profiler.h"
#include "service/session.h"

namespace mqpi::service {

namespace {

using WallClock = std::chrono::steady_clock;

double MsSince(WallClock::time_point start) {
  return std::chrono::duration<double, std::milli>(WallClock::now() - start)
      .count();
}

/// The §2.4 arrival model; null when the prior disables forecasting.
std::unique_ptr<pi::FutureWorkloadModel> MakeFutureModel(
    const PiServiceOptions& options) {
  if (options.future_prior_strength > 0.0) {
    return std::make_unique<pi::FutureWorkloadModel>(
        options.future_prior, options.future_prior_strength);
  }
  if (options.future_prior.lambda > 0.0) {
    return std::make_unique<pi::FutureWorkloadModel>(options.future_prior);
  }
  return nullptr;
}

/// The scheduler stamps finish times at quantum ends and estimates are
/// sampled once per published snapshot, so truth and estimate are each
/// only known to quantum resolution; score only the error above that.
obs::AuditorOptions ResolveAuditorOptions(const PiServiceOptions& options) {
  obs::AuditorOptions resolved = options.auditor;
  if (resolved.truth_resolution <= 0.0) {
    resolved.truth_resolution = 2.0 * options.rdbms.quantum;
  }
  return resolved;
}

/// Relative-error boundaries for the accuracy histograms: MAPE lives
/// in [0, a few], not in millisecond space.
std::vector<double> MapeBounds() {
  return {0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0};
}

/// Signed bias needs room below zero (optimistic underestimates).
std::vector<double> BiasBounds() {
  return {-1.0, -0.5, -0.2, -0.05, 0.0, 0.05, 0.2, 0.5, 1.0, 2.0};
}

}  // namespace

template <typename T, typename Lookup>
T* PiService::Cached(T** slot, Lookup lookup) {
  if (*slot == nullptr) *slot = lookup();
  return *slot;
}

PiService::PiService(const storage::Catalog* catalog, PiServiceOptions options)
    : options_(std::move(options)),
      db_(std::make_unique<sched::Rdbms>(catalog, options_.rdbms)),
      future_(MakeFutureModel(options_)),
      multi_(db_.get(), {}, future_.get()),
      fault_(options_.fault),
      auditor_(ResolveAuditorOptions(options_)),
      tracer_(obs::GlobalTracer()),
      flight_(options_.flight_recorder) {
  if (options_.enable_profiler) obs::GlobalProfiler()->set_enabled(true);
  if (fault_ != nullptr) {
    db_->SetFaultInjector(fault_);
    multi_.SetFaultInjector(fault_);
  }

  // Accounting hook: runs under state_mu_ (every Rdbms mutation goes
  // through a service method that holds it).
  db_->AddEventListener([this](const sched::QueryEvent& event) {
    switch (event.kind) {
      case sched::QueryEventKind::kStarted:
        Cached(&admitted_, [&] {
          return metrics_.counter("queries.admitted");
        })->Increment();
        break;
      case sched::QueryEventKind::kFinished:
      case sched::QueryEventKind::kAborted: {
        const bool finished =
            event.kind == sched::QueryEventKind::kFinished;
        if (finished) {
          Cached(&finished_, [&] {
            return metrics_.counter("queries.finished");
          })->Increment();
        } else {
          Cached(&aborted_, [&] {
            return metrics_.counter("queries.aborted");
          })->Increment();
        }
        // The row's retention window opens at its finish time.
        retiring_.emplace_back(event.info.finish_time, event.info.id);
        // The auditor scores a query once, in the first audited build
        // after this transition; rows already terminal are not sampled.
        if (options_.enable_auditor) {
          auditor_terminal_pending_.push_back(event.info.id);
        }
        auto session = sessions_.find(OwnerLocked(event.info.id));
        if (session != sessions_.end()) {
          session->second.live.erase(event.info.id);
          ++(finished ? session->second.finished : session->second.aborted);
        }
        break;
      }
      default:
        break;
    }
  });

  quanta_stepped_ = metrics_.counter("service.quanta_stepped");
  snapshots_published_ = metrics_.counter("service.snapshots_published");
  snapshot_reads_ = metrics_.counter("service.snapshot_reads");
  // The PI's own instruments, read in place: /metrics is current
  // between quanta too.
  pi::MultiQueryPi::Counters& own = *multi_.counters();
  metrics_.counter("pi.forecast_cache_hit", {}, &own.forecast_cache_hits);
  metrics_.counter("pi.forecast_cache_miss", {}, &own.forecast_cache_misses);
  metrics_.counter("pi.incremental_fast_path", {}, &own.incremental_fast_path);
  metrics_.counter("pi.incremental_fallback", {}, &own.incremental_fallback);
  metrics_.counter("pi.rate_floor_hits", {}, &own.rate_floor_hits);
  metrics_.counter("pi.corrupt_rate_samples", {}, &own.corrupt_rate_samples);
  degraded_estimates_ = metrics_.counter("pi.degraded_estimates", {},
                                         &own.degraded_estimates);
  stale_snapshots_ = metrics_.counter("service.stale_snapshots");
  watchdog_restarts_ = metrics_.counter("service.watchdog_restarts");
  submits_shed_ = metrics_.counter("service.submits_shed");
  drains_ = metrics_.counter("service.drains");
  pin_misses_ = metrics_.counter("service.ticker_pin_misses");
  uptime_quanta_gauge_ = metrics_.gauge("service.uptime_quanta");
  auditor_samples_gauge_ = metrics_.gauge("obs.auditor_samples");
  ticker_age_quanta_gauge_ =
      metrics_.gauge("service.ticker_last_step_age_quanta");
  step_wall_ms_ = metrics_.histogram("step.wall_ms");
  snapshot_age_ms_ = metrics_.histogram("snapshot.age_ms");

  event_sink_ = options_.event_sink;

  // Sequence-0 snapshot so snapshot() is never null.
  snapshot_ = std::make_shared<ProgressSnapshot>();
  publish_wall_ns_.store(
      WallClock::now().time_since_epoch().count(),
      std::memory_order_release);

  if (options_.start_ticker) Start();
}

PiService::~PiService() { Stop(); }

// ---- sessions ---------------------------------------------------------------

void PiService::AppendEventLocked(const recover::Event& event) {
  if (event_sink_ != nullptr) event_sink_->Append(event);
}

void PiService::SetEventSink(recover::EventSink* sink) {
  std::lock_guard<std::mutex> lock(state_mu_);
  event_sink_ = sink;
}

std::unique_ptr<Session> PiService::OpenSession(std::string name) {
  std::uint64_t id;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    id = next_session_id_++;
    SessionState state;
    state.id = id;
    state.name = name;
    sessions_.emplace(id, std::move(state));
    recover::Event event;
    event.kind = recover::EventKind::kSessionOpen;
    event.session_id = id;
    event.name = name;
    AppendEventLocked(event);
  }
  metrics_.counter("sessions.opened")->Increment();
  return std::unique_ptr<Session>(new Session(this, id, std::move(name)));
}

PiService::SessionState* PiService::FindSessionLocked(
    std::uint64_t session_id) {
  auto it = sessions_.find(session_id);
  return it == sessions_.end() ? nullptr : &it->second;
}

std::uint64_t PiService::OwnerLocked(QueryId id) const {
  if (id == 0 || id > queries_.size()) return 0;
  return queries_[id - 1].session_id;
}

Status PiService::CheckOwnedLocked(std::uint64_t session_id,
                                   QueryId id) const {
  const std::uint64_t owner = OwnerLocked(id);
  if (owner == 0) {
    return Status::NotFound("query " + std::to_string(id) +
                            " unknown to the service");
  }
  if (owner != session_id) {
    return Status::FailedPrecondition(
        "query " + std::to_string(id) + " belongs to session " +
        std::to_string(owner) + ", not session " +
        std::to_string(session_id));
  }
  return Status::OK();
}

Result<QueryId> PiService::SubmitLocked(SessionState* session,
                                        const engine::QuerySpec& spec,
                                        Priority priority) {
  if (options_.max_inflight_per_session > 0 &&
      session->live.size() >= options_.max_inflight_per_session) {
    metrics_.counter("service.submit_rejected")->Increment();
    return Status::FailedPrecondition(
        "session " + std::to_string(session->id) + " is at its inflight "
        "cap of " + std::to_string(options_.max_inflight_per_session));
  }
  // Overload shedding: a bounded admission queue rejects rather than
  // letting a flooded service grow its backlog (and its snapshot and
  // forecast cost) without limit.
  if (options_.max_queued_queries > 0 &&
      static_cast<std::uint64_t>(db_->num_queued()) >=
          options_.max_queued_queries) {
    submits_shed_->Increment();
    return Status::ResourceExhausted(
        "admission queue is at its cap of " +
        std::to_string(options_.max_queued_queries) + " queries");
  }
  auto submitted = db_->Submit(spec, priority);
  if (!submitted.ok()) {
    metrics_.counter("service.submit_errors")->Increment();
    return submitted.status();
  }
  MQPI_DCHECK(*submitted == queries_.size() + 1);
  queries_.push_back({session->id, db_->label(*submitted),
                      pi::SingleQueryPi(*submitted)});
  visible_.push_back(*submitted);  // ids ascend, so visible_ stays sorted
  session->live.insert(*submitted);
  ++session->submitted;
  Cached(&submits_, [&] {
    return metrics_.counter("service.submits");
  })->Increment();
  return submitted;
}

Result<QueryId> PiService::SessionSubmit(std::uint64_t session_id,
                                         const engine::QuerySpec& spec,
                                         Priority priority) {
  if (draining()) {
    return Status::Unavailable("service is draining; submissions closed");
  }
  QueryId id;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    SessionState* session = FindSessionLocked(session_id);
    if (session == nullptr) {
      return Status::FailedPrecondition("session closed");
    }
    auto submitted = SubmitLocked(session, spec, priority);
    if (!submitted.ok()) return submitted.status();
    id = *submitted;
    recover::Event event;
    event.kind = recover::EventKind::kSubmit;
    event.session_id = session_id;
    event.query_id = id;  // replay verifies the engine re-assigns it
    event.spec = spec;
    event.priority = priority;
    AppendEventLocked(event);
  }
  if (tracer_->enabled()) {
    tracer_->Instant("service", "session_submit", id, "session",
                     static_cast<double>(session_id));
  }
  NotifyWork();
  return id;
}

Status PiService::SessionSubmitAt(std::uint64_t session_id, SimTime time,
                                  engine::QuerySpec spec, Priority priority) {
  if (draining()) {
    return Status::Unavailable("service is draining; submissions closed");
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (FindSessionLocked(session_id) == nullptr) {
      return Status::FailedPrecondition("session closed");
    }
    if (options_.max_pending_arrivals > 0 &&
        static_cast<std::uint64_t>(arrivals_.size()) >=
            options_.max_pending_arrivals) {
      submits_shed_->Increment();
      return Status::ResourceExhausted(
          "scheduled-arrival backlog is at its cap of " +
          std::to_string(options_.max_pending_arrivals));
    }
    recover::Event event;
    event.kind = recover::EventKind::kSubmitAt;
    event.session_id = session_id;
    event.time = time;
    event.spec = spec;
    event.priority = priority;
    AppendEventLocked(event);
    ScheduledSubmit arrival;
    arrival.time = time;
    arrival.session_id = session_id;
    arrival.spec = std::move(spec);
    arrival.priority = priority;
    arrivals_.push(std::move(arrival));
    metrics_.counter("service.scheduled_arrivals")->Increment();
  }
  NotifyWork();
  return Status::OK();
}

Status PiService::SessionControl(std::uint64_t session_id, QueryId id,
                                 sched::QueryEventKind op,
                                 Priority priority) {
  Status status;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (FindSessionLocked(session_id) == nullptr) {
      return Status::FailedPrecondition("session closed");
    }
    MQPI_RETURN_NOT_OK(CheckOwnedLocked(session_id, id));
    if (fault_ != nullptr && fault_->enabled() &&
        fault_->ShouldFire(fault::kServiceSessionControlFail)) {
      return Status::Internal("injected fault: session control failed");
    }
    switch (op) {
      case sched::QueryEventKind::kBlocked:
        status = db_->Block(id);
        if (status.ok()) metrics_.counter("service.blocks")->Increment();
        break;
      case sched::QueryEventKind::kResumed:
        status = db_->Resume(id);
        if (status.ok()) metrics_.counter("service.resumes")->Increment();
        break;
      case sched::QueryEventKind::kAborted:
        status = db_->Abort(id);
        if (status.ok()) {
          metrics_.counter("service.aborts_requested")->Increment();
        }
        break;
      case sched::QueryEventKind::kPriorityChanged:
        status = db_->SetPriority(id, priority);
        break;
      default:
        status = Status::InvalidArgument("unsupported session operation");
        break;
    }
    if (status.ok()) {
      recover::Event event;
      event.kind = recover::EventKind::kControl;
      event.session_id = session_id;
      event.query_id = id;
      event.op = op;
      event.priority = priority;
      AppendEventLocked(event);
    }
  }
  // A resume can wake an otherwise-idle (all-blocked) system.
  if (status.ok() && op == sched::QueryEventKind::kResumed) NotifyWork();
  return status;
}

Status PiService::CloseSession(std::uint64_t session_id) {
  std::lock_guard<std::mutex> lock(state_mu_);
  SessionState* session = FindSessionLocked(session_id);
  if (session == nullptr) return Status::OK();  // idempotent

  {
    recover::Event event;
    event.kind = recover::EventKind::kSessionClose;
    event.session_id = session_id;
    AppendEventLocked(event);
  }

  // Drop this session's scheduled arrivals.
  if (!arrivals_.empty()) {
    std::vector<ScheduledSubmit> keep;
    keep.reserve(arrivals_.size());
    while (!arrivals_.empty()) {
      if (arrivals_.top().session_id != session_id) {
        keep.push_back(arrivals_.top());
      }
      arrivals_.pop();
    }
    for (auto& arrival : keep) arrivals_.push(std::move(arrival));
  }

  // Closing a session aborts its still-live queries. Abort fires the
  // event listener, which mutates session->live — iterate a copy.
  const std::vector<QueryId> live(session->live.begin(),
                                  session->live.end());
  for (QueryId id : live) {
    const Status status = db_->Abort(id);
    (void)status;  // already-terminal races are fine
  }
  sessions_.erase(session_id);
  metrics_.counter("sessions.closed")->Increment();
  return Status::OK();
}

Result<std::uint64_t> PiService::SessionLiveCount(
    std::uint64_t session_id) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::FailedPrecondition("session closed");
  }
  return static_cast<std::uint64_t>(it->second.live.size());
}

// ---- stepping ---------------------------------------------------------------

void PiService::SubmitDueArrivalsLocked() {
  while (!arrivals_.empty() &&
         arrivals_.top().time <= db_->now() + kTimeEpsilon) {
    ScheduledSubmit arrival = arrivals_.top();
    arrivals_.pop();
    SessionState* session = FindSessionLocked(arrival.session_id);
    if (session == nullptr) continue;  // closed since scheduling
    // An arrival the session cap or the queue bound refuses at its due
    // time is dropped, counted as a live Submit's refusal would be.
    (void)SubmitLocked(session, arrival.spec, arrival.priority);
  }
}

void PiService::ObservePisLocked() {
  MQPI_PROF_SITE(prof, "pi.after_step");
  obs::TraceSpan span(tracer_, "pi", "after_step");
  const SimTime now = db_->now();
  span.arg("t", now);
  multi_.ObserveStep();
  // Terminal queries need no observation: their rows publish ETA 0,
  // and their speed no longer changes.
  double live = 0.0;
  db_->VisitLive([&](const sched::QueryInfo& info) {
    queries_[info.id - 1].single.Observe(info, now);
    ++live;
  });
  span.arg("live", live);
}

bool PiService::IdleLocked() const { return db_->Idle() && arrivals_.empty(); }

void PiService::StepAndPublish(SimTime dt) {
  MQPI_PROF_SITE(prof, "service.step_quantum");
  obs::TraceSpan span(tracer_, "service", "step_and_publish");
  const auto start = WallClock::now();
  std::shared_ptr<ProgressSnapshot> snapshot;
  bool delayed = false;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    {
      recover::Event event;
      event.kind = recover::EventKind::kStep;
      event.time = dt;
      AppendEventLocked(event);
    }
    SubmitDueArrivalsLocked();
    db_->Step(dt);
    ObservePisLocked();
    delayed = fault_ != nullptr && fault_->enabled() &&
              fault_->ShouldFire(fault::kServicePublishDelay);
    if (!delayed) {
      // Stale re-publications are never audited: sampling the same
      // estimates twice would double-count trajectory samples.
      snapshot = BuildSnapshotLocked(options_.enable_auditor);
      Cached(&running_gauge_, [&] {
        return metrics_.gauge("queries.running");
      })->Set(snapshot->num_running);
      Cached(&queued_gauge_, [&] {
        return metrics_.gauge("queries.queued");
      })->Set(snapshot->num_queued);
      Cached(&blocked_gauge_, [&] {
        return metrics_.gauge("queries.blocked");
      })->Set(snapshot->num_blocked);
      Cached(&sim_time_gauge_, [&] {
        return metrics_.gauge("service.sim_time");
      })->Set(snapshot->sim_time);
      // Only an audited build scores the pending terminal ids; a delayed
      // quantum leaves them (and their records) for the next one.
      ReapExpiredLocked();
    }
    if (fault_ != nullptr) RecordFaultFiresLocked();
  }
  if (delayed) {
    // Publication is down this quantum: readers keep the previous
    // content, but honestly tagged with its age (and, past the
    // threshold, a degraded flag) instead of silently frozen.
    PublishStaleCopy();
  } else {
    span.arg("t", snapshot->sim_time);
    span.arg("queries", static_cast<double>(snapshot->queries.size()));
    Publish(std::move(snapshot));
  }
  quanta_stepped_->Increment();
  uptime_quanta_gauge_->Set(static_cast<double>(quanta_stepped_->value()));
  const double step_ms = MsSince(start);
  step_wall_ms_->Observe(step_ms);
  if (flight_.enabled()) {
    flight_.Record(obs::FlightEventKind::kSpan, "service", "step_quantum",
                   step_ms * 1e6);
  }
}

void PiService::PublishStaleCopy() {
  SnapshotPtr last;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    last = snapshot_;
  }
  if (!MQPI_DCHECK(last != nullptr)) return;
  auto stale = std::make_shared<ProgressSnapshot>(*last);
  stale->age_quanta = last->age_quanta + 1;
  stale->degraded = stale->age_quanta >= options_.stale_snapshot_quanta;
  stale_snapshots_->Increment();
  if (tracer_->enabled()) {
    tracer_->Instant("service", "stale_snapshot", kInvalidQueryId, "age",
                     static_cast<double>(stale->age_quanta));
  }
  if (flight_.enabled()) {
    flight_.Record(obs::FlightEventKind::kNote, "service", "stale_snapshot",
                   static_cast<double>(stale->age_quanta));
  }
  const bool degraded = stale->degraded;
  Publish(std::move(stale));
  // The black-box moment: publication has been stale long enough to be
  // flagged untrustworthy. Preserve the window leading up to it.
  if (degraded) flight_.Trigger("degraded_publish");
}

void PiService::ScoreTerminalLocked() {
  if (auditor_terminal_pending_.empty()) return;
  // Id order, as the rows are: reports fold into the running sums in
  // the order a full row scan would produce.
  std::sort(auditor_terminal_pending_.begin(),
            auditor_terminal_pending_.end());
  // The record, not the row: the row may already have left the
  // snapshots when publication was delayed past the retention window.
  db_->VisitEach(auditor_terminal_pending_, [&](const sched::QueryInfo& info) {
    obs::Trajectory& trajectory = queries_[info.id - 1].trajectory;
    audited_queries_ -= trajectory.observed() > 0 ? 1 : 0;
    auditor_samples_ -= trajectory.retained();
    obs::QueryAccuracy report;
    report.id = info.id;
    report.priority = info.priority;
    report.finished = info.state == sched::QueryState::kFinished;
    report.arrival_time = info.arrival_time;
    report.finish_time = info.finish_time;
    RecordAccuracyMetrics(auditor_.Score(report, &trajectory));
  });
  auditor_terminal_pending_.clear();
}

void PiService::RecordAccuracyMetrics(const obs::QueryAccuracy& report) {
  if (tracer_->enabled()) {
    tracer_->Instant("audit", report.finished ? "query_scored" : "query_lost",
                     report.id, "mape_multi", report.multi.mape);
  }
  if (!report.finished) return;  // aborted: no ground truth to score
  const auto record = [&](int index, const char* estimator,
                          const obs::EstimatorScore& score) {
    if (score.samples > 0) {
      AccuracyInstruments& slots =
          accuracy_[index][static_cast<int>(report.priority)];
      const auto labels = [&] {
        return Labels{{"estimator", estimator},
                      {"priority", std::string(PriorityName(report.priority))}};
      };
      Cached(&slots.mape, [&] {
        return metrics_.histogram("pi.estimate_mape", labels(), MapeBounds());
      })->Observe(score.mape);
      Cached(&slots.bias, [&] {
        return metrics_.histogram("pi.estimate_bias", labels(), BiasBounds());
      })->Observe(score.bias);
    }
    Cached(&monotonicity_[index], [&] {
      return metrics_.counter("pi.monotonicity_violations",
                              {{"estimator", estimator}});
    })->Increment(static_cast<std::uint64_t>(score.monotonicity_violations));
  };
  record(0, "single", report.single);
  record(1, "multi", report.multi);
  Cached(&queries_scored_, [&] {
    return metrics_.counter("pi.queries_scored");
  })->Increment();
}

void PiService::ExpireTerminalLocked() {
  const SimTime now = db_->now();
  const SimTime window =
      options_.terminal_retention_quanta * options_.rdbms.quantum;
  std::size_t closed = 0;
  for (; closed < retiring_.size() &&
         now - retiring_[closed].first >= window - kTimeEpsilon;
       ++closed) {
    const QueryId id = retiring_[closed].second;
    ServedQuery& served = queries_[id - 1];
    obs::Trajectory trajectory = std::move(served.trajectory);
    served = ServedQuery{};
    served.trajectory = std::move(trajectory);
    served.reaped = true;
    expired_.push_back(id);
  }
  if (closed == 0) return;
  // One pass each, only in builds that expire something.
  retiring_.erase(retiring_.begin(), retiring_.begin() + closed);
  std::erase_if(visible_,
                [this](QueryId id) { return queries_[id - 1].reaped; });
}

void PiService::ReapExpiredLocked() {
  for (QueryId id : expired_) {
    const Status status = db_->Reap(id);
    MQPI_DCHECK(status.ok());
  }
  expired_.clear();
}

std::shared_ptr<ProgressSnapshot> PiService::BuildSnapshotLocked(bool audit) {
  MQPI_PROF_SITE(prof, "service.build_snapshot");
  ExpireTerminalLocked();
  auto snapshot = std::make_shared<ProgressSnapshot>();
  snapshot->sim_time = db_->now();
  snapshot->measured_rate = multi_.estimated_rate();

  // Running-query estimates come from ONE batch call when the closed
  // form expresses the load: the epoch's stage sweep (batch_kernel.h),
  // which the row loop below reads by id in O(1). Otherwise the
  // per-row calls fall back to the memoized analytic forecast, so a
  // snapshot still costs at most one simulation per epoch either way.
  const pi::BatchEstimateKernel* batch =
      multi_.EstimateAllRunning().value_or(nullptr);
  const Result<SimTime> quiescent = multi_.QuiescentEta();
  snapshot->quiescent_eta = quiescent.value_or(kUnknown);
  // Which estimator served the snapshot: exactly one series reads 1.
  const int path = batch != nullptr ? 0 : quiescent.ok() ? 1 : 2;
  static constexpr const char* kPathNames[] = {"sweep", "simulator", "failed"};
  for (int i = 0; i < 3; ++i) {
    if (i == path) {
      Cached(&estimator_path_[i], [&] {
        return metrics_.gauge("pi.estimator_path", {{"path", kPathNames[i]}});
      })->Set(1.0);
    } else if (estimator_path_[i] != nullptr) {
      estimator_path_[i]->Set(0.0);
    }
  }

  // Publication guardrail: an ETA reaches readers as a finite,
  // non-negative, within-horizon number or as one of the two honest
  // sentinels (kUnknown "no estimate", kInfiniteTime "blocked /
  // beyond horizon / invisible to this estimator") — never NaN, never
  // negative, never a finite absurdity past the forecast horizon (the
  // signature of a denormal-speed division). A non-credible value is
  // degraded to the query's last credible published ETA (kUnknown when
  // none exists yet), the row is flagged, and the event is counted.
  const SimTime horizon = pi::MultiQueryPiOptions{}.horizon;
  const auto guard = [&](QueryProgress* query, SimTime eta,
                         SimTime* last_good) {
    if (eta == kUnknown || eta == kInfiniteTime) return eta;  // sentinels
    if (std::isfinite(eta) && eta >= 0.0 && eta <= horizon) {
      *last_good = eta;
      return eta;
    }
    query->degraded = true;
    degraded_estimates_->Increment();
    return *last_good;
  };

  // One pass over the visible records, ascending by id.
  snapshot->queries.reserve(visible_.size());
  db_->VisitEach(visible_, [&](const sched::QueryInfo& info) {
    ServedQuery& served = queries_[info.id - 1];
    QueryProgress query;
    query.id = info.id;
    query.session_id = served.session_id;
    query.label = served.label;
    query.state = info.state;
    query.priority = info.priority;
    query.weight = info.weight;
    query.completed_work = info.completed_work;
    query.remaining_cost = info.estimated_remaining_cost;
    query.arrival_time = info.arrival_time;
    query.start_time = info.start_time;
    query.finish_time = info.finish_time;
    const double total = info.completed_work + info.estimated_remaining_cost;
    query.fraction_done =
        total > 0.0 ? info.completed_work / total : 0.0;
    query.speed = served.single.speed();

    switch (info.state) {
      case sched::QueryState::kFinished:
        query.fraction_done = 1.0;
        query.remaining_cost = 0.0;
        [[fallthrough]];
      case sched::QueryState::kAborted:
        query.eta_single = 0.0;
        query.eta_multi = 0.0;
        break;
      case sched::QueryState::kBlocked:
        query.eta_single = kInfiniteTime;
        query.eta_multi = kInfiniteTime;
        break;
      case sched::QueryState::kQueued:
      case sched::QueryState::kRunning: {
        query.eta_single = guard(&query, served.single.EstimateRemainingTime(),
                                 &served.last_good_single);
        // Only running rows appear in the batch, so queued rows
        // always take the per-row call.
        const SimTime* batched =
            batch != nullptr ? batch->Find(info.id) : nullptr;
        const SimTime multi_raw =
            batched != nullptr
                ? *batched
                : multi_.EstimateRemainingTime(info).value_or(kUnknown);
        query.eta_multi = guard(&query, multi_raw, &served.last_good_multi);
        break;
      }
    }

    switch (info.state) {
      case sched::QueryState::kRunning:
        ++snapshot->num_running;
        break;
      case sched::QueryState::kQueued:
        ++snapshot->num_queued;
        break;
      case sched::QueryState::kBlocked:
        ++snapshot->num_blocked;
        break;
      default:
        break;
    }
    snapshot->queries.push_back(std::move(query));
  });
  int position = 0;
  db_->VisitQueued([&](const sched::QueryInfo& info) {
    snapshot->Find(info.id)->queue_position = position++;
  });
  Cached(&retained_queries_gauge_, [&] {
    return metrics_.gauge("state.retained_queries");
  })->Set(static_cast<double>(snapshot->queries.size()));
  // Measured rate over the configured C: 1 while the paper's
  // Assumption 1 holds; perturbations and rate faults pull it away.
  const double configured = options_.rdbms.processing_rate;
  Cached(&rate_ratio_gauge_, [&] {
    return metrics_.gauge("pi.rate_ratio");
  })->Set(configured > 0.0 ? snapshot->measured_rate / configured : 0.0);
  if (audit) {
    // Each live row's published ETAs join its trajectory. A loop of its
    // own rather than a step of the row pass: each trajectory's tail is
    // a cold line, and one cold store per row stalls that store-heavy
    // pass, while this short loop overlaps the misses (bench_quantum,
    // all running: faster at 2000 and at 20 000 rows).
    const std::size_t budget = auditor_.options().max_samples_per_query;
    for (const QueryProgress& query : snapshot->queries) {
      if (query.terminal()) continue;
      obs::Trajectory& trajectory = queries_[query.id - 1].trajectory;
      audited_queries_ += trajectory.observed() == 0 ? 1 : 0;
      trajectory.Record(snapshot->sim_time, query.eta_single, query.eta_multi,
                        budget, &auditor_samples_);
    }
    ScoreTerminalLocked();
    auditor_samples_gauge_->Set(static_cast<double>(auditor_samples_));
    Cached(&auditor_queries_gauge_, [&] {
      return metrics_.gauge("obs.auditor_queries");
    })->Set(static_cast<double>(audited_queries_));
  }
  return snapshot;
}

void PiService::Publish(std::shared_ptr<ProgressSnapshot> snapshot) {
  std::uint64_t sequence;
  SnapshotPtr published;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot->sequence = ++published_;
    sequence = snapshot->sequence;
    published = std::move(snapshot);
    snapshot_ = published;
  }
  publish_wall_ns_.store(WallClock::now().time_since_epoch().count(),
                         std::memory_order_release);
  snapshots_published_->Increment();
  if (tracer_->enabled()) {
    tracer_->Instant("service", "snapshot_published", kInvalidQueryId, "seq",
                     static_cast<double>(sequence));
  }
  // Fan the snapshot out to the network layer. Runs outside state_mu_
  // (every Publish call site already is) and outside snapshot_mu_, so
  // the hook may take its own locks; it must stay O(1)-cheap — the
  // ticker thread is the caller.
  PublishHook hook;
  {
    std::lock_guard<std::mutex> lock(hook_mu_);
    hook = publish_hook_;
  }
  if (hook) {
    MQPI_PROF_SITE(prof, "service.publish_hook");
    hook(published);
  }
}

void PiService::SetPublishHook(PublishHook hook) {
  std::lock_guard<std::mutex> lock(hook_mu_);
  publish_hook_ = std::move(hook);
}

Result<SimTime> PiService::EstimateWhatIf(
    const pi::MultiQueryPi::WhatIf& scenario, QueryId target) {
  std::lock_guard<std::mutex> lock(state_mu_);
  return multi_.EstimateWhatIf(scenario, target);
}

void PiService::RecordFaultFiresLocked() {
  // Per-point fire counts, labeled by fault-point name. The catalog
  // names are string literals with stable addresses, so the seen-map
  // can key on the pointer.
  for (const auto& stat : fault_->Stats()) {
    std::uint64_t* seen = &seen_fault_fires_[stat.point];
    if (stat.lifetime_fires > *seen) {
      const std::uint64_t fires = stat.lifetime_fires - *seen;
      metrics_.counter("fault.injected", {{"point", stat.point}})
          ->Increment(fires);
      if (flight_.enabled()) {
        flight_.Record(obs::FlightEventKind::kFault, "fault", stat.point,
                       static_cast<double>(fires));
      }
      *seen = stat.lifetime_fires;
    }
  }
}

void PiService::PublishNow() {
  std::shared_ptr<ProgressSnapshot> snapshot;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    {
      recover::Event event;
      event.kind = recover::EventKind::kPublish;
      AppendEventLocked(event);
    }
    snapshot = BuildSnapshotLocked(/*audit=*/false);
  }
  Publish(std::move(snapshot));
}

SnapshotPtr PiService::BuildUnpublishedSnapshot() {
  std::lock_guard<std::mutex> lock(state_mu_);
  {
    recover::Event event;
    event.kind = recover::EventKind::kProbe;
    AppendEventLocked(event);
  }
  return BuildSnapshotLocked(/*audit=*/false);
}

// ---- graceful drain ---------------------------------------------------------

Status PiService::Drain(const DrainHooks& hooks) {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) {
    return Status::FailedPrecondition("drain already in progress");
  }
  // From here every Submit/SubmitAt fails kUnavailable; in-flight work
  // keeps its state and the final checkpoint captures it.
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    recover::Event event;
    event.kind = recover::EventKind::kDrain;
    AppendEventLocked(event);
  }
  drains_->Increment();
  if (tracer_->enabled()) {
    tracer_->Instant("service", "drain", kInvalidQueryId, "drains",
                     static_cast<double>(drains_->value()));
  }
  if (flight_.enabled()) {
    flight_.Record(obs::FlightEventKind::kNote, "service", "drain",
                   static_cast<double>(drains_->value()));
  }
  if (hooks.flush) hooks.flush();
  if (hooks.goodbye) hooks.goodbye();
  // The shutdown moment is exactly what an incident review wants on
  // disk: preserve the window leading up to it, then stop the clock.
  flight_.Trigger("drain");
  Stop();
  return Status::OK();
}

PiService::Liveness PiService::CheckLiveness() const {
  Liveness live;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    live.busy = !IdleLocked();
  }
  const auto published = publish_wall_ns_.load(std::memory_order_acquire);
  live.since_publish_s =
      std::chrono::duration<double>(
          WallClock::duration(
              WallClock::now().time_since_epoch().count() - published))
          .count();
  // A paced ticker legitimately publishes only once per tick period;
  // never call a gap shorter than a few periods a stall.
  live.stall_threshold_s = options_.watchdog.stall_threshold_s;
  const double period_s =
      options_.time_scale > 0.0
          ? options_.rdbms.quantum / options_.time_scale
          : options_.rdbms.quantum;
  if (options_.time_scale > 0.0) {
    live.stall_threshold_s = std::max(live.stall_threshold_s, 4.0 * period_s);
  }
  live.age_quanta = period_s > 0.0 ? live.since_publish_s / period_s : 0.0;
  live.uptime_quanta = quanta_stepped_->value();
  uptime_quanta_gauge_->Set(static_cast<double>(live.uptime_quanta));
  ticker_age_quanta_gauge_->Set(live.age_quanta);
  return live;
}

SnapshotPtr PiService::snapshot() const {
  SnapshotPtr snapshot;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot = snapshot_;
  }
  snapshot_reads_->Increment();
  const auto published =
      publish_wall_ns_.load(std::memory_order_acquire);
  const auto now = WallClock::now().time_since_epoch().count();
  if (published != 0 && now > published) {
    snapshot_age_ms_->Observe(
        std::chrono::duration<double, std::milli>(
            WallClock::duration(now - published))
            .count());
  }
  return snapshot;
}

// ---- ticker -----------------------------------------------------------------

bool PiService::ticking() const {
  std::lock_guard<std::mutex> lock(ticker_mu_);
  return ticker_.joinable() && !stop_requested();
}

void PiService::Start() {
  stop_.store(false, std::memory_order_release);
  StartTickerThread();
  if (options_.watchdog.enabled && !watchdog_.joinable()) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

void PiService::Stop() {
  {
    // Under wake_mu_, or a ticker parking between its predicate check
    // and its wait misses both the flag and the notify (lost wakeup).
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  watchdog_cv_.notify_all();
  // Watchdog first: it may be mid-restart, manipulating the ticker
  // thread itself. Once it has exited, the ticker object is ours.
  if (watchdog_.joinable()) watchdog_.join();
  watchdog_ = std::thread();
  StopTickerThread();
}

void PiService::StartTickerThread() {
  std::lock_guard<std::mutex> lock(ticker_mu_);
  if (ticker_.joinable()) return;
  ticker_stop_.store(false, std::memory_order_release);
  ticker_ = std::thread([this] { TickerLoop(); });
  if (options_.pin_cpu >= 0) PinTicker(options_.pin_cpu);
}

void PiService::PinTicker(int cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (pthread_setaffinity_np(ticker_.native_handle(), sizeof(set), &set) !=
      0) {
    // A pin to an offline/nonexistent CPU must never kill the shard;
    // the ticker just runs unpinned and the miss is observable.
    pin_misses_->Increment();
  }
#else
  (void)cpu;
  pin_misses_->Increment();
#endif
}

void PiService::StopTickerThread() {
  std::thread victim;
  {
    std::lock_guard<std::mutex> lock(ticker_mu_);
    {
      // Lock order ticker_mu_ -> wake_mu_ (nothing takes them reversed).
      std::lock_guard<std::mutex> wake_lock(wake_mu_);  // see Stop()
      ticker_stop_.store(true, std::memory_order_release);
    }
    victim = std::move(ticker_);
    ticker_ = std::thread();
  }
  wake_cv_.notify_all();
  if (victim.joinable()) victim.join();
}

void PiService::NotifyWork() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    ++work_epoch_;
  }
  wake_cv_.notify_all();
}

void PiService::TickerLoop() {
  const SimTime quantum = options_.rdbms.quantum;
  auto next_tick = WallClock::now();
  while (!stop_requested() && !ticker_stop_requested()) {
    std::uint64_t seen_epoch;
    {
      std::lock_guard<std::mutex> lock(wake_mu_);
      seen_epoch = work_epoch_;
    }
    bool idle;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      idle = IdleLocked();
    }
    // Park while nothing is running, queued, or scheduled instead of
    // burning CPU advancing an empty clock.
    if (idle) {
      std::unique_lock<std::mutex> lock(wake_mu_);
      wake_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_acquire) ||
               ticker_stop_.load(std::memory_order_acquire) ||
               work_epoch_ != seen_epoch;
      });
      // Don't try to "catch up" wall time spent parked.
      next_tick = WallClock::now();
      continue;
    }

    if (fault_ != nullptr && fault_->enabled()) {
      const auto stall = fault_->Evaluate(fault::kServiceTickerStall);
      if (stall.fired) {
        // The failure mode the watchdog exists for: the ticker goes
        // deaf — no stepping, no publication, and (unlike the idle
        // park) no reaction to work notifications. Only stall expiry,
        // a watchdog kill, or service stop end it.
        const double stall_s = stall.value > 0.0 ? stall.value : 60.0;
        std::unique_lock<std::mutex> lock(wake_mu_);
        wake_cv_.wait_for(
            lock, std::chrono::duration<double>(stall_s), [&] {
              return stop_.load(std::memory_order_acquire) ||
                     ticker_stop_.load(std::memory_order_acquire);
            });
        next_tick = WallClock::now();
        continue;
      }
    }

    StepAndPublish(quantum);

    if (options_.time_scale > 0.0) {
      next_tick += std::chrono::duration_cast<WallClock::duration>(
          std::chrono::duration<double>(quantum / options_.time_scale));
      std::unique_lock<std::mutex> lock(wake_mu_);
      wake_cv_.wait_until(lock, next_tick, [&] {
        return stop_.load(std::memory_order_acquire) ||
               ticker_stop_.load(std::memory_order_acquire);
      });
    }
  }
}

void PiService::WatchdogLoop() {
  const WatchdogOptions& wd = options_.watchdog;
  double backoff_s = wd.backoff_initial_s;
  const auto interruptible_sleep = [&](double seconds) {
    std::unique_lock<std::mutex> lock(watchdog_mu_);
    watchdog_cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                          [&] { return stop_requested(); });
  };
  while (!stop_requested()) {
    interruptible_sleep(wd.poll_interval_s);
    if (stop_requested()) break;
    {
      std::lock_guard<std::mutex> lock(ticker_mu_);
      if (!ticker_.joinable()) continue;  // stopped deliberately
    }
    const Liveness live = CheckLiveness();
    if (!live.stalled()) {
      backoff_s = wd.backoff_initial_s;  // healthy: reset the backoff
      continue;
    }

    // Stalled: work is pending but nothing has been published for
    // over the threshold. Replace the ticker thread. All restart
    // observability lands between stop and start: the flight dump
    // must capture the ring leading up to the stall before the fresh
    // ticker appends to it, and the counter/trace/trigger must be
    // visible by the time the new ticker can make progress (anything
    // that observes the service healthy again sees the full record).
    StopTickerThread();
    if (stop_requested()) break;
    watchdog_restarts_->Increment();
    if (tracer_->enabled()) {
      tracer_->Instant("service", "watchdog_restart", kInvalidQueryId,
                       "stalled_s", live.since_publish_s);
    }
    if (flight_.enabled()) {
      flight_.Record(obs::FlightEventKind::kNote, "service",
                     "watchdog_restart", live.since_publish_s);
    }
    flight_.Trigger("watchdog_restart");
    StartTickerThread();
    interruptible_sleep(backoff_s);
    backoff_s = std::min(backoff_s * 2.0, wd.backoff_max_s);
  }
}

// ---- manual mode ------------------------------------------------------------

Status PiService::Advance(SimTime dt) {
  {
    std::lock_guard<std::mutex> lock(ticker_mu_);
    if (ticker_.joinable()) {
      return Status::FailedPrecondition(
          "Advance() is for manual mode; a ticker thread is running");
    }
  }
  if (dt < 0.0) return Status::InvalidArgument("dt must be >= 0");
  const SimTime quantum = options_.rdbms.quantum;
  SimTime remaining = dt;
  while (remaining > kTimeEpsilon) {
    const SimTime step = std::min(remaining, quantum);
    StepAndPublish(step);
    remaining -= step;
  }
  return Status::OK();
}

Result<SimTime> PiService::AdvanceUntilIdle(SimTime deadline) {
  {
    std::lock_guard<std::mutex> lock(ticker_mu_);
    if (ticker_.joinable()) {
      return Status::FailedPrecondition(
          "AdvanceUntilIdle() is for manual mode; a ticker thread is "
          "running");
    }
  }
  const SimTime quantum = options_.rdbms.quantum;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      if (IdleLocked()) break;
      if (db_->now() >= deadline - kTimeEpsilon) break;
    }
    StepAndPublish(quantum);
  }
  return now();
}

bool PiService::WaitUntilIdle(double timeout_seconds) {
  const auto deadline =
      WallClock::now() + std::chrono::duration_cast<WallClock::duration>(
                             std::chrono::duration<double>(timeout_seconds));
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      if (IdleLocked()) return true;
    }
    // A stopped ticker can never drain the system — but a missing
    // ticker with a live watchdog is just a restart in flight.
    if (stop_requested() || (!ticking() && !watchdog_.joinable())) {
      std::lock_guard<std::mutex> lock(state_mu_);
      return IdleLocked();
    }
    if (WallClock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// ---- point-in-time reads ----------------------------------------------------

SimTime PiService::now() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return db_->now();
}

bool PiService::Idle() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return IdleLocked();
}

Result<std::string> PiService::Explain(const engine::QuerySpec& spec) {
  std::lock_guard<std::mutex> lock(state_mu_);
  return db_->planner()->Explain(spec);
}

void PiService::SetAdmissionOpen(bool open) {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    recover::Event event;
    event.kind = recover::EventKind::kAdmission;
    event.flag = open;
    AppendEventLocked(event);
    db_->SetAdmissionOpen(open);
  }
  if (open) NotifyWork();
}

}  // namespace mqpi::service
