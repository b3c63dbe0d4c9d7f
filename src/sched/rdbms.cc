#include "sched/rdbms.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "fault/fault_injector.h"
#include "obs/profiler.h"
#include "obs/tracer.h"

namespace mqpi::sched {

namespace {

// Literal-backed names for trace events (TraceEvent stores pointers).
const char* TraceEventName(QueryEventKind kind) {
  switch (kind) {
    case QueryEventKind::kSubmitted:
      return "submitted";
    case QueryEventKind::kStarted:
      return "started";
    case QueryEventKind::kBlocked:
      return "blocked";
    case QueryEventKind::kResumed:
      return "resumed";
    case QueryEventKind::kFinished:
      return "finished";
    case QueryEventKind::kAborted:
      return "aborted";
    case QueryEventKind::kPriorityChanged:
      return "priority_changed";
  }
  return "unknown";
}

}  // namespace

std::string_view QueryEventKindName(QueryEventKind kind) {
  switch (kind) {
    case QueryEventKind::kSubmitted:
      return "submitted";
    case QueryEventKind::kStarted:
      return "started";
    case QueryEventKind::kBlocked:
      return "blocked";
    case QueryEventKind::kResumed:
      return "resumed";
    case QueryEventKind::kFinished:
      return "finished";
    case QueryEventKind::kAborted:
      return "aborted";
    case QueryEventKind::kPriorityChanged:
      return "priority_changed";
  }
  return "unknown";
}

std::string_view QueryStateName(QueryState state) {
  switch (state) {
    case QueryState::kQueued:
      return "queued";
    case QueryState::kRunning:
      return "running";
    case QueryState::kBlocked:
      return "blocked";
    case QueryState::kFinished:
      return "finished";
    case QueryState::kAborted:
      return "aborted";
  }
  return "unknown";
}

struct Rdbms::Record {
  QueryId id;
  QueryLabel label;  // QuerySpec::Label(), rendered once at Submit
  Priority priority;
  QueryState state;
  SimTime arrival_time;
  SimTime start_time = kUnknown;
  SimTime finish_time = kUnknown;
  WorkUnits optimizer_cost = 0.0;
  std::unique_ptr<engine::QueryExecution> execution;
  WorkUnits deficit = 0.0;           // carried budget imbalance
  double speed_multiplier = 1.0;     // Assumption-3 perturbation
  WorkUnits consumed_last_step = 0.0;
  SimTime last_step_duration = 0.0;
  bool in_serve_order = false;       // listed in serve_order_
};

Rdbms::Rdbms(const storage::Catalog* catalog, RdbmsOptions options)
    : catalog_(catalog),
      options_(options),
      tracer_(obs::GlobalTracer()),
      buffers_(std::make_unique<storage::BufferManager>(options.buffer)),
      planner_(std::make_unique<engine::Planner>(catalog, buffers_.get(),
                                                 options.cost_model)),
      perturbation_(options.perturbation) {}

Rdbms::~Rdbms() = default;

void Rdbms::Emit(QueryEventKind kind, const Record& record) {
  // Every lifecycle event changes the modelled load (who runs, who
  // queues, with what weight), so it invalidates cached forecasts.
  ++load_epoch_;
  if (tracer_->enabled()) {
    tracer_->Instant("query", TraceEventName(kind), record.id, "t",
                     clock_.now());
  }
  if (event_listeners_.empty()) return;
  QueryEvent event;
  event.kind = kind;
  event.time = clock_.now();
  event.info = MakeInfo(record);
  for (const auto& listener : event_listeners_) listener(event);
}

const Rdbms::Record* Rdbms::Find(QueryId id) const {
  if (id == 0 || id > queries_.size()) return nullptr;
  return queries_[id - 1].get();
}

const Rdbms::Record* Rdbms::FindQueued(QueryId id) const {
  const Record* record = Find(id);
  return record != nullptr && record->state == QueryState::kQueued ? record
                                                                   : nullptr;
}

Result<QueryId> Rdbms::Submit(const engine::QuerySpec& spec,
                              Priority priority) {
  obs::TraceSpan span(tracer_, "rdbms", "submit");
  auto prepared = planner_->Prepare(spec);
  if (!prepared.ok()) return prepared.status();

  auto record = std::make_unique<Record>();
  record->id = queries_.size() + 1;
  record->label = spec.Label();
  record->priority = priority;
  record->state = QueryState::kQueued;
  record->arrival_time = clock_.now();
  record->optimizer_cost = prepared->optimizer_cost;
  record->execution = std::move(prepared->execution);
  record->speed_multiplier = perturbation_.DrawSpeedMultiplier();

  const QueryId id = record->id;
  Record* raw = record.get();
  queries_.push_back(std::move(record));
  admission_queue_.push_back(id);
  Emit(QueryEventKind::kSubmitted, *raw);
  AdmitFromQueue();
  return id;
}

void Rdbms::AdmitFromQueue() {
  while (admission_open_ && !admission_queue_.empty() &&
         static_cast<int>(running_.size()) < options_.max_concurrent) {
    const QueryId id = admission_queue_.front();
    admission_queue_.pop_front();
    if (FindQueued(id) == nullptr) continue;  // aborted in queue
    Record* record = Find(id);
    record->state = QueryState::kRunning;
    record->start_time = clock_.now();
    running_.push_back(id);
    Emit(QueryEventKind::kStarted, *record);
  }
}

Status Rdbms::Abort(QueryId id) {
  Record* record = Find(id);
  if (record == nullptr) {
    return Status::NotFound("query " + std::to_string(id) + " unknown");
  }
  switch (record->state) {
    case QueryState::kFinished:
    case QueryState::kAborted:
      return Status::FailedPrecondition("query " + std::to_string(id) +
                                        " already terminal");
    case QueryState::kQueued:
      // Lazy removal: AdmitFromQueue skips non-queued entries.
      break;
    case QueryState::kRunning:
    case QueryState::kBlocked:
      running_.erase(std::find(running_.begin(), running_.end(), id));
      break;
  }
  record->state = QueryState::kAborted;
  record->finish_time = clock_.now();
  Emit(QueryEventKind::kAborted, *record);
  AdmitFromQueue();
  return Status::OK();
}

Status Rdbms::Reap(QueryId id) {
  const Record* record = Find(id);
  if (record == nullptr) {
    return Status::NotFound("query " + std::to_string(id) + " unknown");
  }
  if (record->state != QueryState::kFinished &&
      record->state != QueryState::kAborted) {
    return Status::FailedPrecondition(
        "query " + std::to_string(id) + " is " +
        std::string(QueryStateName(record->state)) + ", not terminal");
  }
  queries_[id - 1].reset();
  return Status::OK();
}

Status Rdbms::Block(QueryId id) {
  Record* record = Find(id);
  if (record == nullptr) {
    return Status::NotFound("query " + std::to_string(id) + " unknown");
  }
  if (record->state != QueryState::kRunning) {
    return Status::FailedPrecondition(
        "query " + std::to_string(id) + " is " +
        std::string(QueryStateName(record->state)) + ", not running");
  }
  record->state = QueryState::kBlocked;
  record->deficit = 0.0;
  Emit(QueryEventKind::kBlocked, *record);
  return Status::OK();
}

Status Rdbms::Resume(QueryId id) {
  Record* record = Find(id);
  if (record == nullptr) {
    return Status::NotFound("query " + std::to_string(id) + " unknown");
  }
  if (record->state != QueryState::kBlocked) {
    return Status::FailedPrecondition(
        "query " + std::to_string(id) + " is " +
        std::string(QueryStateName(record->state)) + ", not blocked");
  }
  record->state = QueryState::kRunning;
  Emit(QueryEventKind::kResumed, *record);
  return Status::OK();
}

Status Rdbms::SetPriority(QueryId id, Priority priority) {
  Record* record = Find(id);
  if (record == nullptr) {
    return Status::NotFound("query " + std::to_string(id) + " unknown");
  }
  if (record->state == QueryState::kFinished ||
      record->state == QueryState::kAborted) {
    return Status::FailedPrecondition("query " + std::to_string(id) +
                                      " already terminal");
  }
  record->priority = priority;
  Emit(QueryEventKind::kPriorityChanged, *record);
  return Status::OK();
}

Status Rdbms::FastForward(QueryId id, WorkUnits work) {
  Record* record = Find(id);
  if (record == nullptr) {
    return Status::NotFound("query " + std::to_string(id) + " unknown");
  }
  if (record->state != QueryState::kRunning) {
    return Status::FailedPrecondition(
        "query " + std::to_string(id) + " is " +
        std::string(QueryStateName(record->state)) + ", not running");
  }
  if (work < 0.0) {
    return Status::InvalidArgument("fast-forward work must be >= 0");
  }
  // Remaining cost changes even when the query survives.
  ++load_epoch_;
  record->execution->Advance(work);
  if (record->execution->done()) {
    record->state = QueryState::kFinished;
    record->finish_time = clock_.now();
    running_.erase(std::find(running_.begin(), running_.end(), record->id));
    const QueryInfo info = MakeInfo(*record);
    Emit(QueryEventKind::kFinished, *record);
    for (const auto& listener : completion_listeners_) listener(info);
    AdmitFromQueue();
  }
  return Status::OK();
}

void Rdbms::SetAdmissionOpen(bool open) {
  ++load_epoch_;
  admission_open_ = open;
  if (open) AdmitFromQueue();
}

void Rdbms::Step(SimTime dt) {
  if (!MQPI_DCHECK(dt >= 0.0)) return;
  MQPI_PROF_SITE(prof, "sched.step");
  SimTime remaining = dt;
  while (remaining > kTimeEpsilon) {
    const SimTime step = std::min(remaining, options_.quantum);
    StepOnce(step);
    remaining -= step;
  }
}

double Rdbms::ApplyStepFaults() {
  if (fault_->ShouldFire(fault::kSchedAdmissionFlap)) {
    SetAdmissionOpen(!admission_open_);
  }
  if (fault_->ShouldFire(fault::kSchedSpuriousAbort)) {
    std::vector<QueryId> victims;
    victims.reserve(running_.size());
    for (QueryId id : running_) {
      const Record* record = Find(id);
      if (record != nullptr && record->state == QueryState::kRunning) {
        victims.push_back(id);
      }
    }
    if (!victims.empty()) {
      const QueryId victim = victims[fault_->PickIndex(
          fault::kSchedSpuriousAbort, victims.size())];
      const Status status = Abort(victim);
      MQPI_DCHECK(status.ok());
    }
  }
  double factor = fault_->ScaleOr(fault::kSchedRateCollapse, 1.0) *
                  fault_->ScaleOr(fault::kSchedRateSpike, 1.0) *
                  fault_->ScaleOr(fault::kSchedQuantumOvershoot, 1.0);
  if (fault_->ShouldFire(fault::kSchedQuantumStall)) factor = 0.0;
  // A garbage payload (negative, NaN) must not corrupt the pot.
  if (!(factor >= 0.0) || !std::isfinite(factor)) factor = 0.0;
  return factor;
}

void Rdbms::StepOnce(SimTime dt) {
  obs::TraceSpan span(tracer_, "rdbms", "step");
  span.arg("t", clock_.now());
  // The quantum consumes work and advances the clock, so forecast
  // inputs (remaining costs, the forecast origin) change even when no
  // lifecycle event fires.
  ++load_epoch_;
  const double fault_factor =
      fault_ != nullptr && fault_->enabled() ? ApplyStepFaults() : 1.0;
  AdmitFromQueue();

  // One pass over the slot holders: reset the step observables, count
  // the active (running, unblocked) queries and total their weight, and
  // note the active ones the carried serve order does not list yet.
  int active = 0;
  double total_weight = 0.0;
  std::vector<Record*> newcomers;
  for (QueryId id : running_) {
    Record* record = Find(id);
    record->consumed_last_step = 0.0;
    record->last_step_duration = dt;
    if (record->state == QueryState::kRunning) {
      ++active;
      total_weight += ServeWeight(*record);
      if (!record->in_serve_order) newcomers.push_back(record);
    }
  }

  span.arg("active", static_cast<double>(active));

  if (active > 0 && total_weight > 0.0) {
    // Injected rate faults stack multiplicatively on the perturbation
    // model's MPL-dependent factor: a collapse squeezes the quantum's
    // capacity, an overshoot inflates it, a stall zeroes it (the clock
    // still advances, so the PI sees a quantum with no progress).
    const double rate = options_.processing_rate *
                        perturbation_.AggregateRateFactor(active) *
                        fault_factor;
    // The quantum's real capacity; system_carry_ repays any operator
    // overshoot from the previous quantum.
    WorkUnits pot = rate * dt + system_carry_;
    std::vector<Record*> finished;

    // Entitlements accrue by weight; serving drains them. A query's
    // deficit goes negative when an atomic operator step (e.g. one
    // correlated-sub-query probe) overshoots its entitlement; it then
    // waits until creditors have been served. Serve in
    // descending-entitlement order, creditors before debtors, so
    // capacity never idles while any query still has work (the paper's
    // Assumption 1) yet long-run shares stay proportional to the
    // weights (Assumption 3).
    const std::vector<ServeEntry>& order =
        AccrueAndOrder(newcomers, rate * dt, total_weight);
    for (int pass = 0; pass < 2 && pot > 1e-9; ++pass) {
      for (const ServeEntry& entry : order) {
        if (pot <= 1e-9) break;
        Record* record = entry.record;
        if (record->execution->done()) continue;
        // Pass 0 serves entitled (creditor) queries their claim; pass 1
        // hands leftover capacity to anyone with work (debtors included).
        WorkUnits grant;
        if (pass == 0) {
          if (record->deficit <= 0.0) continue;
          grant = std::min(record->deficit, pot);
        } else {
          grant = pot;
        }
        const WorkUnits consumed = record->execution->Advance(grant);
        record->consumed_last_step += consumed;
        record->deficit -= consumed;
        pot -= consumed;
        if (record->execution->done()) {
          record->deficit = 0.0;
          record->state = QueryState::kFinished;
          record->finish_time = clock_.now() + dt;
          finished.push_back(record);
        }
      }
    }
    // Carry operator overshoot into the next quantum; surplus capacity
    // (everything finished) does not accumulate.
    system_carry_ = pot < 0.0 ? pot : 0.0;

    // One order-preserving pass drops every finished query from the
    // slot list before any finish event fires. running_ order is the
    // summation order of total_weight, so keeping it keeps the bits.
    // No listener (PiService, sim::EventTrace) reads running_; one that
    // submits appends after the survivors either way.
    if (!finished.empty()) {
      std::erase_if(running_, [this](QueryId id) {
        return Find(id)->state == QueryState::kFinished;
      });
    }
    for (Record* record : finished) {
      const QueryInfo info = MakeInfo(*record);
      Emit(QueryEventKind::kFinished, *record);
      for (const auto& listener : completion_listeners_) listener(info);
    }
  }

  clock_.Advance(dt);

  // Statement-timeout guard: abort runaway queries.
  if (options_.max_query_seconds > 0.0) {
    std::vector<QueryId> expired;
    for (QueryId id : running_) {
      const Record& record = *Find(id);
      if (record.state == QueryState::kRunning &&
          record.start_time != kUnknown &&
          clock_.now() - record.start_time >
              options_.max_query_seconds + kTimeEpsilon) {
        expired.push_back(id);
      }
    }
    for (QueryId id : expired) {
      const Status status = Abort(id);
      MQPI_DCHECK(status.ok());
    }
  }

  AdmitFromQueue();
}

double Rdbms::ServeWeight(const Record& record) const {
  return options_.weights.WeightOf(record.priority) *
         record.speed_multiplier;
}

const std::vector<Rdbms::ServeEntry>& Rdbms::AccrueAndOrder(
    const std::vector<Record*>& newcomers, WorkUnits capacity,
    double total_weight) {
  // Every active query is either listed in last quantum's order or a
  // newcomer, so this one touch per query accrues its entitlement and
  // copies its key. Each query's accrual reads only its own record, so
  // the order of the touches does not change the bits.
  const auto accrue = [&](Record* record) {
    record->deficit += capacity * ServeWeight(*record) / total_weight;
    return ServeEntry{record->deficit, record->id, record};
  };
  // Last quantum's order, minus the queries that stopped running (and
  // the reaped ones).
  std::size_t kept = 0;
  for (const ServeEntry& entry : serve_order_) {
    Record* record = Find(entry.id);
    if (record == nullptr) continue;
    if (record->state != QueryState::kRunning) {
      record->in_serve_order = false;
      continue;
    }
    serve_order_[kept++] = accrue(record);
  }
  serve_order_.resize(kept);
  // Newcomers (admitted or resumed since) go last; the repair below
  // moves them to their rank.
  for (Record* record : newcomers) {
    record->in_serve_order = true;
    serve_order_.push_back(accrue(record));
  }

  // Deficit descending, then id ascending: a strict total order, so
  // every correct sort yields the same permutation, and repairing the
  // carried order serves exactly the sequence a full sort would.
  // Insertion sort costs O(n + inversions); a quantum's accruals and
  // grants leave few. Past a few moves per entry (a burst of
  // admissions, a priority change, a debtor repaying) it hands over to
  // std::sort.
  const auto before = [](const ServeEntry& a, const ServeEntry& b) {
    if (a.deficit != b.deficit) return a.deficit > b.deficit;
    return a.id < b.id;
  };
  const std::size_t n = serve_order_.size();
  const std::size_t budget = 8 * n + 64;
  std::size_t moves = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const ServeEntry entry = serve_order_[i];
    std::size_t j = i;
    while (j > 0 && before(entry, serve_order_[j - 1])) {
      serve_order_[j] = serve_order_[j - 1];
      --j;
      if (++moves > budget) {
        serve_order_[j] = entry;
        std::sort(serve_order_.begin(), serve_order_.end(), before);
        return serve_order_;
      }
    }
    serve_order_[j] = entry;
  }
  return serve_order_;
}

SimTime Rdbms::RunUntilIdle(SimTime deadline) {
  while (!Idle() && clock_.now() < deadline - kTimeEpsilon) {
    Step(options_.quantum);
  }
  return clock_.now();
}

bool Rdbms::Idle() const {
  if (!admission_queue_.empty()) {
    // Pending aborted entries don't count.
    for (QueryId id : admission_queue_) {
      if (FindQueued(id) != nullptr) return false;
    }
  }
  // Blocked queries hold slots but cannot make progress; they do not
  // prevent idleness on their own.
  for (QueryId id : running_) {
    if (Find(id)->state == QueryState::kRunning) return false;
  }
  return true;
}

double Rdbms::EffectiveRate() const {
  int active = 0;
  for (QueryId id : running_) {
    if (Find(id)->state == QueryState::kRunning) ++active;
  }
  return options_.processing_rate *
         perturbation_.AggregateRateFactor(active);
}

QueryInfo Rdbms::MakeInfo(const Record& record) const {
  QueryInfo info;
  FillInfo(record, &info);
  return info;
}

void Rdbms::FillInfo(const Record& record, QueryInfo* info) const {
  info->id = record.id;
  info->priority = record.priority;
  info->weight = options_.weights.WeightOf(record.priority);
  info->state = record.state;
  info->arrival_time = record.arrival_time;
  info->start_time = record.start_time;
  info->finish_time = record.finish_time;
  info->optimizer_cost = record.optimizer_cost;
  info->completed_work = record.execution->completed_work();
  info->estimated_remaining_cost = record.execution->EstimateRemainingCost();
  info->consumed_last_step = record.consumed_last_step;
  info->last_step_duration = record.last_step_duration;
  info->rows_produced = record.execution->rows_produced();
  const auto* account = record.execution->account();
  info->pages_accessed = account != nullptr ? account->pages_accessed() : 0;
  info->buffer_hits = account != nullptr ? account->buffer_hits() : 0;
}

const QueryLabel& Rdbms::label(QueryId id) const {
  static const QueryLabel kNone;
  const Record* record = Find(id);
  return record != nullptr ? record->label : kNone;
}

Result<QueryInfo> Rdbms::info(QueryId id) const {
  const Record* record = Find(id);
  if (record == nullptr) {
    return Status::NotFound("query " + std::to_string(id) + " unknown");
  }
  return MakeInfo(*record);
}

void Rdbms::VisitRunning(const QueryVisitor& fn) const {
  QueryInfo info;
  for (QueryId id : running_) {
    const Record& record = *Find(id);
    if (record.state != QueryState::kRunning) continue;
    FillInfo(record, &info);
    fn(info);
  }
}

void Rdbms::VisitQueued(const QueryVisitor& fn) const {
  QueryInfo info;
  for (QueryId id : admission_queue_) {
    const Record* record = FindQueued(id);
    if (record == nullptr) continue;  // lazily-removed
    FillInfo(*record, &info);
    fn(info);
  }
}

void Rdbms::VisitLive(const QueryVisitor& fn) const {
  QueryInfo info;
  for (QueryId id : running_) {
    FillInfo(*Find(id), &info);
    fn(info);
  }
  VisitQueued(fn);
}

void Rdbms::VisitQueries(const QueryVisitor& fn, QueryId after) const {
  QueryInfo info;
  for (std::size_t i = after; i < queries_.size(); ++i) {
    if (queries_[i] == nullptr) continue;  // reaped
    FillInfo(*queries_[i], &info);
    fn(info);
  }
}

void Rdbms::VisitEach(std::span<const QueryId> ids,
                      const QueryVisitor& fn) const {
  QueryInfo info;
  for (QueryId id : ids) {
    FillInfo(*queries_[id - 1], &info);
    fn(info);
  }
}

std::vector<QueryInfo> Rdbms::RunningQueries() const {
  std::vector<QueryInfo> out;
  VisitRunning([&out](const QueryInfo& info) { out.push_back(info); });
  return out;
}

std::vector<QueryInfo> Rdbms::BlockedQueries() const {
  std::vector<QueryInfo> out;
  for (QueryId id : running_) {
    const Record& record = *Find(id);
    if (record.state == QueryState::kBlocked) out.push_back(MakeInfo(record));
  }
  return out;
}

Result<int> Rdbms::QueuePosition(QueryId id) const {
  int position = 0;
  for (QueryId queued : admission_queue_) {
    if (FindQueued(queued) == nullptr) continue;  // lazily-removed abort
    if (queued == id) return position;
    ++position;
  }
  if (Find(id) == nullptr) {
    return Status::NotFound("query " + std::to_string(id) + " unknown");
  }
  return Status::FailedPrecondition("query " + std::to_string(id) +
                                    " is not queued");
}

std::vector<QueryInfo> Rdbms::QueuedQueries() const {
  std::vector<QueryInfo> out;
  VisitQueued([&out](const QueryInfo& info) { out.push_back(info); });
  return out;
}

std::vector<QueryInfo> Rdbms::AllQueries() const {
  std::vector<QueryInfo> out;
  out.reserve(queries_.size());
  VisitQueries([&out](const QueryInfo& info) { out.push_back(info); });
  return out;
}

void Rdbms::AddCompletionListener(std::function<void(const QueryInfo&)> fn) {
  completion_listeners_.push_back(std::move(fn));
}

void Rdbms::AddEventListener(std::function<void(const QueryEvent&)> fn) {
  event_listeners_.push_back(std::move(fn));
}

}  // namespace mqpi::sched
