#include "pi/pi_manager.h"

#include "obs/profiler.h"
#include "obs/tracer.h"

namespace mqpi::pi {

namespace {
MultiQueryPiOptions QueueBlind(MultiQueryPiOptions options) {
  options.consider_admission_queue = false;
  return options;
}
}  // namespace

PiManager::PiManager(const sched::Rdbms* db, PiManagerOptions options,
                     FutureWorkloadModel* future)
    : db_(db),
      options_(options),
      tracer_(obs::GlobalTracer()),
      multi_(db, options.multi, future) {
  if (options_.record_queue_blind_variant) {
    multi_blind_ =
        std::make_unique<MultiQueryPi>(db, QueueBlind(options.multi), future);
  }
}

void PiManager::Track(QueryId id) {
  tracked_.try_emplace(id, Tracked{SingleQueryPi(id,
                                                 options_.single_speed_alpha,
                                                 options_.single_speed_window),
                                   {}});
}

const SingleQueryPi* PiManager::FindSingle(QueryId id) const {
  auto it = tracked_.find(id);
  return it == tracked_.end() ? nullptr : &it->second.single;
}

Result<SimTime> PiManager::EstimateSingle(QueryId id) const {
  const SingleQueryPi* single = FindSingle(id);
  if (single == nullptr) return kUnknown;  // never tracked: no history
  return single->EstimateRemainingTime();
}

double PiManager::SpeedOf(QueryId id) const {
  const SingleQueryPi* single = FindSingle(id);
  return single == nullptr ? 0.0 : single->speed();
}

const std::vector<EstimateSample>& PiManager::Trace(QueryId id) const {
  static const std::vector<EstimateSample> kEmpty;
  auto it = tracked_.find(id);
  return it == tracked_.end() ? kEmpty : it->second.trace;
}

std::vector<PiManager::ProgressRow> PiManager::Report() const {
  std::vector<ProgressRow> rows;
  for (const auto& info : db_->AllQueries()) {
    if (info.state == sched::QueryState::kFinished ||
        info.state == sched::QueryState::kAborted) {
      continue;
    }
    ProgressRow row;
    row.id = info.id;
    row.label = db_->label(info.id);
    row.state = info.state;
    const double total =
        info.completed_work + info.estimated_remaining_cost;
    row.fraction_done = total > 0.0 ? info.completed_work / total : 0.0;
    if (const SingleQueryPi* single = FindSingle(info.id)) {
      row.speed = single->speed();
      row.eta_single = single->EstimateRemainingTime();
    }
    // Batched path: all rows probe one shared (cached) forecast.
    auto multi_eta = multi_.EstimateRemainingTime(info);
    if (multi_eta.ok()) row.eta_multi = *multi_eta;
    rows.push_back(std::move(row));
  }
  return rows;
}

void PiManager::AfterStep() {
  MQPI_PROF_SITE(prof, "pi.after_step");
  obs::TraceSpan span(tracer_, "pi", "after_step");
  span.arg("t", db_->now());
  span.arg("tracked", static_cast<double>(tracked_.size()));
  multi_.ObserveStep();
  if (multi_blind_) multi_blind_->ObserveStep();

  const SimTime now = db_->now();
  const bool sample_due = now + kTimeEpsilon >= next_sample_;
  if (sample_due) {
    // Advance from the *scheduled* time, not from `now`: a quantum that
    // overshoots the grid point would otherwise shift every later
    // sample by the overshoot, and the drift compounds for the whole
    // run. If the grid fell more than one interval behind (idle park,
    // coarse quanta), jump to the next grid point after `now` instead
    // of replaying a backlog of due samples.
    do {
      next_sample_ += options_.sample_interval;
    } while (next_sample_ <= now + kTimeEpsilon);
  }

  // One pass over the scheduler's records, merge-joined with the
  // tracked set (both ascend by id). A query's sample reads only its
  // own single-query PI, so sampling right after its observation gives
  // the values an observe-all-then-sample-all pass would.
  auto tracked = tracked_.begin();
  db_->VisitQueries([&](const sched::QueryInfo& info) {
    while (tracked != tracked_.end() && tracked->first < info.id) ++tracked;
    if (tracked == tracked_.end() || tracked->first != info.id) return;
    SingleQueryPi& single = tracked->second.single;
    single.Observe(info, now);
    if (!sample_due || info.state == sched::QueryState::kFinished ||
        info.state == sched::QueryState::kAborted) {
      return;  // trace ends at completion
    }
    EstimateSample sample;
    sample.time = now;
    sample.single = single.EstimateRemainingTime();
    sample.speed = single.speed();
    // Batched path: every tracked query probes the same cached
    // forecast, so the whole sampling loop costs one simulation.
    auto m = multi_.EstimateRemainingTime(info);
    sample.multi = m.ok() ? *m : kUnknown;
    if (multi_blind_) {
      auto mb = multi_blind_->EstimateRemainingTime(info);
      sample.multi_no_queue = mb.ok() ? *mb : kUnknown;
    }
    tracked->second.trace.push_back(sample);
  });
}

}  // namespace mqpi::pi
