#include "pi/multi_query_pi.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "fault/fault_injector.h"
#include "obs/tracer.h"

namespace mqpi::pi {

MultiQueryPi::MultiQueryPi(const sched::Rdbms* db,
                           MultiQueryPiOptions options,
                           FutureWorkloadModel* future)
    : db_(db),
      options_(options),
      future_(future),
      tracer_(obs::GlobalTracer()),
      rate_(options.rate_alpha),
      last_observed_now_(db->now()),
      // Queries already in the system are current load, not "arrivals";
      // only queries submitted after the PI attaches feed the future
      // model.
      last_seen_id_(db->num_queries()) {}

void MultiQueryPi::ObserveStep() {
  const SimTime now = db_->now();
  const SimTime since = std::max(0.0, now - last_observed_now_);
  last_observed_now_ = now;

  if (fault_ != nullptr && fault_->enabled()) {
    if (fault_->ShouldFire(fault::kPiCacheInvalidate)) {
      // Forced invalidation is a correctness no-op by construction:
      // the next estimate recomputes from the same inputs and must be
      // byte-identical (the chaos soak cross-checks this).
      memo_valid_ = false;
      base_valid_ = false;
      forecast_.reset();
    }
    const auto corrupt = fault_->Evaluate(fault::kPiWindowCorrupt);
    if (corrupt.fired) window_consumed_ = corrupt.value;
  }

  // Accumulate consumption across running queries; emit one rate
  // sample per full window (per-quantum totals are too noisy because
  // operators overshoot their budget by up to one probe). The same pass
  // takes the running half of this epoch's base load.
  std::vector<QueryLoad>& running = base_.running;
  running.clear();
  WorkUnits consumed = 0.0;
  SimTime dt = 0.0;
  db_->VisitRunning([&](const sched::QueryInfo& info) {
    running.push_back(
        QueryLoad{info.id, info.estimated_remaining_cost, info.weight});
    consumed += info.consumed_last_step;
    dt = std::max(dt, info.last_step_duration);
  });
  TakeQueuedLoad();
  if (dt > 0.0 && !running.empty()) {
    idle_elapsed_ = 0.0;
    window_consumed_ += consumed;
    window_elapsed_ += dt;
    if (window_elapsed_ + kTimeEpsilon >= options_.rate_window) {
      const double sample = window_consumed_ / window_elapsed_;
      // Guardrail: a corrupted accumulator (NaN, negative) or a fully
      // stalled window (zero consumption while queries nominally ran)
      // must not poison the EWMA — division by a ~zero smoothed rate
      // is how inf estimates are born. Reject the sample and keep the
      // last credible measurement instead.
      if (std::isfinite(sample) && sample > 0.0) {
        rate_.Observe(sample);
      } else {
        counters_.corrupt_rate_samples.Increment();
      }
      window_consumed_ = 0.0;
      window_elapsed_ = 0.0;
    }
  } else {
    // Idle (or blocked-only) quantum. Drop the partial window — the
    // pre-gap fragment would otherwise be silently concatenated with
    // post-gap consumption into one "window" spanning the gap — and
    // once the system has been idle for at least a full rate window,
    // flush the smoothed rate too: whatever speed was measured before
    // the gap describes a workload that no longer exists.
    window_consumed_ = 0.0;
    window_elapsed_ = 0.0;
    idle_elapsed_ += since;
    if (rate_.has_value() &&
        idle_elapsed_ + kTimeEpsilon >= options_.rate_window) {
      rate_.Reset();
    }
  }

  // Detect arrivals (ids above the watermark) for the future model:
  // O(new arrivals), not O(history).
  if (future_ != nullptr) {
    db_->VisitQueries(
        [&](const sched::QueryInfo& info) {
          last_seen_id_ = info.id;
          future_->ObserveArrival(info.arrival_time, info.optimizer_cost,
                                  info.weight);
        },
        last_seen_id_);
    future_->ObserveElapsed(now);
  }
}

double MultiQueryPi::estimated_rate() const {
  const double configured = db_->options().processing_rate;
  // The floor keeps the estimation rate strictly positive and finite
  // even when the measured rate collapses to zero/denormal or the
  // configured rate itself is degenerate.
  const double floor = std::max(configured * kMinRateFraction, 1e-12);
  const double rate = rate_.has_value() ? rate_.value() : configured;
  if (!std::isfinite(rate) || rate < floor) {
    counters_.rate_floor_hits.Increment();
    return floor;
  }
  return rate;
}

SimTime MultiQueryPi::SanitizeEta(SimTime eta) const {
  if (std::isnan(eta) || (eta < 0.0 && eta != kUnknown)) {
    counters_.degraded_estimates.Increment();
    return kUnknown;
  }
  return eta;
}

const MultiQueryPi::CacheKey& MultiQueryPi::RefreshMemo() const {
  CacheKey key;
  key.load_epoch = db_->load_epoch();
  key.rate = estimated_rate();
  if (future_ != nullptr) key.future = future_->Current();
  if (!options_.enable_forecast_cache || !memo_valid_ ||
      !(key == memo_key_)) {
    memo_key_ = key;
    memo_valid_ = true;
    sweep_checked_ = false;
    forecast_done_ = false;
    forecast_.reset();
  }
  return memo_key_;
}

const MultiQueryPi::BaseLoad& MultiQueryPi::SnapshotBaseLoad() const {
  const std::uint64_t epoch = db_->load_epoch();
  if (base_valid_ && base_epoch_ == epoch) return base_;
  base_.running.clear();
  db_->VisitRunning([this](const sched::QueryInfo& info) {
    base_.running.push_back(
        QueryLoad{info.id, info.estimated_remaining_cost, info.weight});
  });
  TakeQueuedLoad();
  return base_;
}

void MultiQueryPi::TakeQueuedLoad() const {
  base_.queued.clear();
  if (options_.consider_admission_queue) {
    db_->VisitQueued([this](const sched::QueryInfo& info) {
      base_.queued.push_back(
          QueryLoad{info.id, info.estimated_remaining_cost, info.weight});
    });
  }
  base_epoch_ = db_->load_epoch();
  base_valid_ = true;
}

AnalyticModelOptions MultiQueryPi::ModelOptions() const {
  AnalyticModelOptions model;
  model.rate = estimated_rate();
  model.max_concurrent = db_->options().max_concurrent;
  model.horizon = options_.horizon;
  model.max_events = options_.max_events;
  if (future_ != nullptr) {
    const FutureWorkloadEstimate est = future_->Current();
    if (est.lambda > 0.0 && est.avg_cost > 0.0) {
      model.virtual_interval = 1.0 / est.lambda;
      model.virtual_cost = est.avg_cost;
      model.virtual_weight = est.avg_weight;
    }
  }
  return model;
}

Result<std::shared_ptr<const ForecastResult>>
MultiQueryPi::ComputeBaseForecast() const {
  const BaseLoad& base = SnapshotBaseLoad();
  counters_.forecast_cache_misses.Increment();
  obs::TraceSpan span(tracer_, "pi", "forecast");
  span.arg("n", static_cast<double>(base.running.size() +
                                    base.queued.size()));
  span.arg("epoch", static_cast<double>(base_epoch_));
  auto forecast =
      AnalyticSimulator::Forecast(base.running, base.queued, {},
                                  ModelOptions());
  if (!forecast.ok()) return forecast.status();
  return std::make_shared<const ForecastResult>(*std::move(forecast));
}

Result<std::shared_ptr<const ForecastResult>> MultiQueryPi::ForecastShared()
    const {
  RefreshMemo();
  if (forecast_done_) {
    counters_.forecast_cache_hits.Increment();
    if (!forecast_status_.ok()) return forecast_status_;
    return forecast_;
  }
  auto forecast = ComputeBaseForecast();
  forecast_done_ = true;
  if (forecast.ok()) {
    forecast_status_ = Status::OK();
    forecast_ = *forecast;
  } else {
    forecast_status_ = forecast.status();
    forecast_.reset();
  }
  return forecast;
}

Result<ForecastResult> MultiQueryPi::ForecastAll() const {
  auto forecast = ForecastShared();
  if (!forecast.ok()) return forecast.status();
  return **forecast;
}

Result<ForecastResult> MultiQueryPi::ForecastWhatIf(
    const WhatIf& scenario) const {
  if (scenario.blocked.empty() && scenario.aborted.empty() &&
      scenario.reweighted.empty()) {
    // The empty scenario IS the base forecast — share the cache.
    return ForecastAll();
  }

  // Lookup structures built once per scenario, not scanned per query.
  std::unordered_set<QueryId> removed;
  removed.reserve(scenario.blocked.size() + scenario.aborted.size());
  removed.insert(scenario.blocked.begin(), scenario.blocked.end());
  removed.insert(scenario.aborted.begin(), scenario.aborted.end());
  std::unordered_map<QueryId, double> reweighted(
      scenario.reweighted.begin(), scenario.reweighted.end());

  auto apply = [&](const std::vector<QueryLoad>& loads,
                   std::vector<QueryLoad>* out) {
    out->reserve(loads.size());
    for (const QueryLoad& load : loads) {
      if (removed.count(load.id) != 0) continue;
      auto weight = reweighted.find(load.id);
      out->push_back(weight == reweighted.end()
                         ? load
                         : QueryLoad{load.id, load.remaining_cost,
                                     weight->second});
    }
  };

  const BaseLoad& base = SnapshotBaseLoad();
  std::vector<QueryLoad> running;
  std::vector<QueryLoad> queued;
  apply(base.running, &running);
  apply(base.queued, &queued);

  ++whatif_forecasts_;
  obs::TraceSpan span(tracer_, "pi", "forecast_whatif");
  span.arg("n", static_cast<double>(running.size() + queued.size()));
  return AnalyticSimulator::Forecast(running, queued, {}, ModelOptions());
}

bool MultiQueryPi::SweepReady() const {
  const CacheKey& key = RefreshMemo();
  if (!sweep_checked_) {
    sweep_ready_ = ComputeSweep(key);
    sweep_checked_ = true;
  }
  return sweep_ready_;
}

bool MultiQueryPi::ComputeSweep(const CacheKey& key) const {
  // A non-empty admission queue means future admissions the closed
  // form does not model (the simulator replays them instead).
  if (options_.consider_admission_queue && db_->num_queued() > 0) {
    return false;
  }
  const BaseLoad& base = SnapshotBaseLoad();
  // The simulator truncates at max_events / horizon; stay on its
  // exact regime so both paths agree (modulo rounding).
  if (base.running.size() > options_.max_events) return false;
  for (const QueryLoad& load : base.running) {
    // Degenerate loads stay on the simulator path, which reports them.
    if (!(load.weight > 0.0) || !(load.remaining_cost >= 0.0) ||
        !std::isfinite(load.weight) || !std::isfinite(load.remaining_cost)) {
      return false;
    }
  }
  kernel_.Compute(base.running, key.rate);
  const SimTime quiescent = kernel_.QuiescentTime();
  if (quiescent > options_.horizon) return false;
  // A virtual (Section 2.4) arrival due before the system quiesces
  // would join the modelled load mid-forecast — simulator territory.
  const FutureWorkloadEstimate& est = key.future;
  if (est.lambda > 0.0 && est.avg_cost > 0.0 &&
      quiescent + kTimeEpsilon >= 1.0 / est.lambda) {
    return false;
  }
  return true;
}

Result<SimTime> MultiQueryPi::EstimateRemainingTime(
    const sched::QueryInfo& info) const {
  switch (info.state) {
    case sched::QueryState::kFinished:
      return 0.0;
    case sched::QueryState::kAborted:
      return 0.0;
    case sched::QueryState::kBlocked:
      return kInfiniteTime;  // no progress while blocked
    case sched::QueryState::kQueued:
      if (!options_.consider_admission_queue) {
        // Without queue awareness the PI cannot see this query at all.
        return kInfiniteTime;
      }
      break;
    case sched::QueryState::kRunning:
      if (SweepReady()) {
        if (const SimTime* eta = kernel_.Find(info.id)) {
          counters_.incremental_fast_path.Increment();
          return SanitizeEta(*eta);
        }
        // Not in this epoch's base load (shouldn't happen) — the
        // simulator path below reports it authoritatively.
      }
      break;
  }
  counters_.incremental_fallback.Increment();
  auto forecast = ForecastShared();
  if (!forecast.ok()) return forecast.status();
  auto eta = (*forecast)->FinishTimeOf(info.id);
  if (!eta.ok()) return eta.status();
  return SanitizeEta(*eta);
}

Result<const BatchEstimateKernel*> MultiQueryPi::EstimateAllRunning()
    const {
  if (!SweepReady()) {
    return Status::FailedPrecondition(
        "closed form cannot express the load; estimate per row");
  }
  // Every row is a sweep-served estimate, same as n fast-path point
  // reads would have been. No per-row SanitizeEta pass: the sweep
  // clamps at zero and its inputs are finite (ComputeSweep validates
  // cost/weight, estimated_rate() is floored), so sanitization would
  // be a no-op on every row.
  counters_.incremental_fast_path.Increment(kernel_.size());
  return &kernel_;
}

Result<SimTime> MultiQueryPi::QuiescentEta() const {
  if (SweepReady()) {
    counters_.incremental_fast_path.Increment();
    return SanitizeEta(kernel_.QuiescentTime());
  }
  counters_.incremental_fallback.Increment();
  auto forecast = ForecastShared();
  if (!forecast.ok()) return forecast.status();
  return SanitizeEta((*forecast)->quiescent_time());
}

Result<SimTime> MultiQueryPi::EstimateWhatIf(const WhatIf& scenario,
                                             QueryId target) const {
  // Pure-removal scenarios compose from exactly additive point
  // reads: removing victims never changes the survivors' finish
  // ratios, so r' = r - sum of per-victim benefits (§3.1). Reweights
  // would reorder the survivors — those run the simulator.
  if (scenario.reweighted.empty() && SweepReady()) {
    std::vector<QueryId> removed(scenario.blocked);
    removed.insert(removed.end(), scenario.aborted.begin(),
                   scenario.aborted.end());
    std::sort(removed.begin(), removed.end());
    removed.erase(std::unique(removed.begin(), removed.end()),
                  removed.end());
    if (std::binary_search(removed.begin(), removed.end(), target)) {
      return Status::NotFound("query " + std::to_string(target) +
                              " not in forecast");
    }
    if (const SimTime* eta = kernel_.Find(target)) {
      SimTime remaining = *eta;
      for (QueryId victim : removed) {
        // Ids absent from the load are ignored, like ForecastWhatIf.
        if (kernel_.Find(victim) != nullptr) {
          remaining -= kernel_.RemovalBenefit(target, victim);
        }
      }
      counters_.incremental_fast_path.Increment();
      return SanitizeEta(std::max(0.0, remaining));
    }
    // Target not running — the simulator reports it authoritatively.
  }
  counters_.incremental_fallback.Increment();
  auto forecast = ForecastWhatIf(scenario);
  if (!forecast.ok()) return forecast.status();
  auto eta = forecast->FinishTimeOf(target);
  if (!eta.ok()) return eta.status();
  return SanitizeEta(*eta);
}

Result<SimTime> MultiQueryPi::EstimateRemainingTime(QueryId id) const {
  auto info = db_->info(id);
  if (!info.ok()) return info.status();
  return EstimateRemainingTime(*info);
}

}  // namespace mqpi::pi
