// MultiQueryPi: the paper's contribution.
//
// When estimating the remaining execution time of a query, the
// multi-query PI explicitly models
//   (1) every other running query — their remaining costs and priority
//       weights, via the staged execution model of Section 2.2,
//   (2) queries waiting in the admission queue — known future load
//       (Section 2.3), and
//   (3) predicted future arrivals — a virtual query of average cost and
//       priority every 1/lambda seconds (Section 2.4).
//
// The PI consumes only legal observables from the Rdbms: per-query
// refined remaining-cost estimates, priority weights, the admission
// queue contents, and the processing rate it measures itself from
// per-step consumption (so perturbations that violate Assumption 1 are
// felt through the measurement, exactly as a deployed PI would).
//
// Estimation cost: the paper computes all n remaining times in one
// O(n log n) pass (Section 2.2). The PI keeps one memo keyed on
// {Rdbms load epoch, measured rate, future-model estimate}. For a key
// whose load the closed form can express — nothing queued, no
// Section 2.4 arrival due before the system quiesces, everything
// inside the horizon — the memo is one exact stage sweep over the
// running set (batch_kernel.h), and every per-query estimate, the
// quiescent time and pure-removal what-ifs are O(1) reads of it.
// Otherwise the memo is the analytic simulator's ForecastResult,
// simulated lazily on first use. Either way the n per-query calls a
// sampler or dashboard issues within one quantum collapse to a single
// pass, and between-quantum submits and what-ifs get estimates on
// demand. The memo is exact, never heuristic: any load-relevant
// transition bumps the epoch (see sched::Rdbms::load_epoch) and forces
// a fresh pass.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "common/units.h"
#include "obs/instruments.h"
#include "pi/analytic_simulator.h"
#include "pi/batch_kernel.h"
#include "pi/future_model.h"
#include "sched/rdbms.h"

namespace mqpi::obs {
class Tracer;
}  // namespace mqpi::obs

namespace mqpi::fault {
class FaultInjector;
}  // namespace mqpi::fault

namespace mqpi::pi {

struct MultiQueryPiOptions {
  /// Fold the admission queue into the forecast (Section 2.3). Off
  /// reproduces the "multi-query estimate without considering admission
  /// queue" curve of Figure 5.
  bool consider_admission_queue = true;
  /// EWMA weight for the measured aggregate rate.
  double rate_alpha = 0.2;
  /// Span of simulated seconds per aggregate-rate sample. Operator
  /// granularity makes per-quantum totals noisy (budget overshoot), so
  /// the rate is measured over whole windows before smoothing.
  SimTime rate_window = 5.0;
  /// Memoize the per-key sweep or forecast (see the header comment).
  /// Disable only to cross-check cache coherence in tests and benches;
  /// the cached and uncached estimates are identical by construction.
  bool enable_forecast_cache = true;
  /// Analytic-model safety limits (rate and virtual stream are filled
  /// in per forecast).
  SimTime horizon = 1e7;
  std::size_t max_events = 4'000'000;
};

/// Rate guardrail: the effective estimation rate never drops below
/// this fraction of the configured rate. A measured rate at/below the
/// floor (a collapse, a corrupted window, a denormal EWMA tail) would
/// otherwise divide estimates toward infinity; the floor keeps every
/// forecast finite and counts the clamp in rate_floor_hits().
inline constexpr double kMinRateFraction = 1e-3;

class MultiQueryPi {
 public:
  /// `db` must outlive the PI. `future` is optional (Section 2.4);
  /// nullptr means no arrival forecasting. The model is not owned.
  MultiQueryPi(const sched::Rdbms* db, MultiQueryPiOptions options = {},
               FutureWorkloadModel* future = nullptr);

  /// Samples the system after each scheduler step: measures the
  /// aggregate processing rate and feeds observed arrivals to the
  /// future-workload model. Idle quanta reset the partially filled
  /// rate window (a pre-gap partial window must not be concatenated
  /// with post-gap samples), and an idle stretch of at least one full
  /// rate window flushes the smoothed rate entirely so post-idle
  /// forecasts restart from the configured rate instead of a stale
  /// pre-idle measurement. The same pass takes the quantum's base load,
  /// so the first estimate after a step needs no second walk.
  void ObserveStep();

  /// Predicted remaining execution time of `id` (0 if finished,
  /// kInfiniteTime if blocked or unbounded).
  Result<SimTime> EstimateRemainingTime(QueryId id) const;

  /// Same, for a caller that already holds the query's info (no
  /// per-call Rdbms::info lookup) — PiManager's report and sampling
  /// loops, and the service snapshot's rows that the batch below does
  /// not cover (queued rows, and every row when it is unavailable).
  /// When the closed form can express the load (see the header
  /// comment), a running query's estimate is an O(1) read of the key's
  /// stage sweep with no simulation at all; otherwise it falls back to
  /// the (memoized) analytic simulator. The split is observable via
  /// incremental_fast_path() / incremental_fallback().
  Result<SimTime> EstimateRemainingTime(const sched::QueryInfo& info) const;

  /// Estimated time until the system quiesces (last tracked query
  /// finishes; Section 3.3). O(1) on the fast path.
  Result<SimTime> QuiescentEta() const;

  /// Batch estimate: the key's stage sweep itself, an id-indexed view
  /// of EVERY running query's remaining time (BatchEstimateKernel::
  /// Find) — the snapshot builder's per-quantum hot path. Available
  /// only when the closed form can express the load (same condition as
  /// EstimateRemainingTime's fast path; FailedPrecondition otherwise,
  /// and the caller falls back to per-row estimates). The view remains
  /// valid until the next PI call — consume it under the same external
  /// lock. Counted per row in incremental_fast_path().
  Result<const BatchEstimateKernel*> EstimateAllRunning() const;

  /// Full forecast for all running + queued queries.
  Result<ForecastResult> ForecastAll() const;

  /// ForecastAll without copying the result out: the cached (or
  /// freshly computed) forecast, shared. Snapshot builders that probe
  /// many ids against one forecast use this.
  Result<std::shared_ptr<const ForecastResult>> ForecastShared() const;

  /// What-if analysis: hypothetical workload-management actions applied
  /// to the forecast without touching the system. Queries in `blocked`
  /// or `aborted` are removed from the modelled load; `reweighted`
  /// entries (id -> new weight) model priority changes. The PI data
  /// this uses is identical to ForecastAll's: scenarios are built from
  /// the cached base load snapshot, so a WLM fan-out evaluating many
  /// scenarios walks the Rdbms query tables once per epoch, not once
  /// per scenario.
  struct WhatIf {
    std::vector<QueryId> blocked{};
    std::vector<QueryId> aborted{};
    std::vector<std::pair<QueryId, double>> reweighted{};
  };
  Result<ForecastResult> ForecastWhatIf(const WhatIf& scenario) const;

  /// Point what-if: `target`'s remaining time under `scenario`,
  /// without materializing a full forecast. On the fast path a
  /// pure-removal scenario is answered from the sweep's exactly
  /// additive O(1) removal benefits — a WLM fan-out over n candidate
  /// victims costs O(n) instead of n full simulations (O(n^2 log n)).
  /// Scenarios that reweight queries (or any fallback) run one
  /// simulator what-if. Ids absent from the
  /// modelled load are ignored, like ForecastWhatIf; NotFound if
  /// `target` itself is removed or absent.
  Result<SimTime> EstimateWhatIf(const WhatIf& scenario,
                                 QueryId target) const;

  /// The measured aggregate rate C (falls back to the configured rate
  /// until a measurement exists).
  double estimated_rate() const;

  const FutureWorkloadModel* future_model() const { return future_; }

  /// The exported totals: instruments owned here and counted as
  /// estimates happen (relaxed atomics, readable from any thread).
  /// PiService registers each in its metrics registry as a `pi.*`
  /// counter; the accessors below read the same instruments.
  struct Counters {
    obs::Counter forecast_cache_hits;
    obs::Counter forecast_cache_misses;
    obs::Counter incremental_fast_path;
    obs::Counter incremental_fallback;
    obs::Counter rate_floor_hits;
    obs::Counter corrupt_rate_samples;
    obs::Counter degraded_estimates;
  };
  /// For registration, and for a caller that degrades a PI estimate
  /// itself (PiService's publication guardrail) to count it.
  Counters* counters() { return &counters_; }

  /// Forecast-cache statistics: a hit is an estimate served from the
  /// memoized simulator forecast, a miss is a full analytic simulation
  /// (at most one per key). Sweeps are not simulations; what-if
  /// scenario simulations are counted separately.
  std::uint64_t forecast_cache_hits() const {
    return counters_.forecast_cache_hits.value();
  }
  std::uint64_t forecast_cache_misses() const {
    return counters_.forecast_cache_misses.value();
  }
  std::uint64_t whatif_forecasts() const { return whatif_forecasts_; }

  /// Estimator-path statistics: estimates read from the closed-form
  /// stage sweep (a what-if answered from it counts when it is asked,
  /// not at the next quantum),
  std::uint64_t incremental_fast_path() const {
    return counters_.incremental_fast_path.value();
  }
  /// and estimates the closed form could not express, served by the
  /// analytic simulator instead.
  std::uint64_t incremental_fallback() const {
    return counters_.incremental_fallback.value();
  }

  /// Attaches a chaos harness (nullptr detaches; not owned). Armed
  /// `pi.*` points fire inside ObserveStep: forced cache invalidation
  /// and measurement-window corruption.
  void SetFaultInjector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

  /// Degradation accounting: times the rate floor (kMinRateFraction)
  /// had to clamp the measured rate,
  std::uint64_t rate_floor_hits() const {
    return counters_.rate_floor_hits.value();
  }
  /// rate-window samples rejected as non-finite or non-positive
  /// (injected corruption, stalled windows),
  std::uint64_t corrupt_rate_samples() const {
    return counters_.corrupt_rate_samples.value();
  }
  /// and estimates degraded instead of propagated: NaN/negative model
  /// output sanitized to kUnknown here, plus whatever a caller counts
  /// through counters() (PiService's non-credible published ETAs).
  std::uint64_t degraded_estimates() const {
    return counters_.degraded_estimates.value();
  }

 private:
  /// The base (no-scenario) load vectors, rebuilt only when the Rdbms
  /// load epoch moves.
  struct BaseLoad {
    std::vector<QueryLoad> running;
    std::vector<QueryLoad> queued;
  };

  /// Everything a memo's validity depends on beyond the load vectors
  /// themselves.
  struct CacheKey {
    std::uint64_t load_epoch = 0;
    double rate = 0.0;
    FutureWorkloadEstimate future;

    bool operator==(const CacheKey& other) const {
      return load_epoch == other.load_epoch && rate == other.rate &&
             future.lambda == other.future.lambda &&
             future.avg_cost == other.future.avg_cost &&
             future.avg_weight == other.future.avg_weight;
    }
  };

  /// Brings the memo to the current key (dropping the previous key's
  /// sweep verdict and forecast if it moved) and returns the key.
  const CacheKey& RefreshMemo() const;
  /// Whether the closed form expresses the current key's load; if so
  /// kernel_ holds its sweep (computed on first use per key).
  bool SweepReady() const;
  /// Runs the sweep over the base load at `key`, or returns false
  /// without one when the closed form cannot express the load.
  bool ComputeSweep(const CacheKey& key) const;
  /// Estimate guardrail: NaN or negative model output degrades to
  /// kUnknown (counted); finite non-negative values and the legitimate
  /// kInfiniteTime sentinel pass through.
  SimTime SanitizeEta(SimTime eta) const;
  /// Refreshes `base_` if the load epoch moved, then returns it.
  const BaseLoad& SnapshotBaseLoad() const;
  /// Completes `base_` once its running half is current: takes the
  /// queued half and stamps the load epoch.
  void TakeQueuedLoad() const;
  /// Model options with the measured rate and virtual stream filled in.
  AnalyticModelOptions ModelOptions() const;
  /// Runs one full simulation over the cached base load.
  Result<std::shared_ptr<const ForecastResult>> ComputeBaseForecast() const;

  const sched::Rdbms* db_;
  MultiQueryPiOptions options_;
  FutureWorkloadModel* future_;
  obs::Tracer* tracer_;  // the process-wide tracer, cached
  fault::FaultInjector* fault_ = nullptr;  // optional chaos harness
  Ewma rate_;
  WorkUnits window_consumed_ = 0.0;
  SimTime window_elapsed_ = 0.0;
  SimTime idle_elapsed_ = 0.0;  // consecutive idle time observed
  SimTime last_observed_now_ = 0.0;
  QueryId last_seen_id_ = 0;  // arrival detection watermark

  // Memoization state. Mutable: estimate entry points are logically
  // const reads. The PI shares the Rdbms's external-synchronization
  // contract (PiService serializes both under one lock), so no
  // internal locking is needed.
  mutable std::uint64_t base_epoch_ = 0;
  mutable bool base_valid_ = false;
  mutable BaseLoad base_;
  mutable bool memo_valid_ = false;
  mutable CacheKey memo_key_;
  mutable bool sweep_checked_ = false;  // sweep_ready_ is memo_key_'s
  mutable bool sweep_ready_ = false;
  mutable BatchEstimateKernel kernel_;
  mutable bool forecast_done_ = false;  // memo_key_'s simulation ran
  mutable Status forecast_status_;
  mutable std::shared_ptr<const ForecastResult> forecast_;
  mutable std::uint64_t whatif_forecasts_ = 0;
  // Mutable: const estimate calls count into them.
  mutable Counters counters_;
};

}  // namespace mqpi::pi
