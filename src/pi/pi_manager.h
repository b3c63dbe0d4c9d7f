// PiManager: the experiment harness. It attaches progress indicators
// to an Rdbms and records estimate traces over time — the
// instrumentation behind Figures 3-5 and 10 (estimated remaining time /
// observed speed as functions of time for selected queries). The
// service does not use it (see service/pi_service.h).
//
// Call AfterStep() once after every Rdbms::Step quantum; it feeds all
// attached PIs and appends samples at the configured interval.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "pi/multi_query_pi.h"
#include "pi/single_query_pi.h"
#include "sched/rdbms.h"

namespace mqpi::obs {
class Tracer;
}  // namespace mqpi::obs

namespace mqpi::pi {

struct EstimateSample {
  SimTime time = 0.0;
  /// Single-query PI estimate (t = c/s).
  SimTime single = kUnknown;
  /// Multi-query PI estimate (queue-aware if configured).
  SimTime multi = kUnknown;
  /// Multi-query estimate ignoring the admission queue (Figure 5's
  /// middle curve); kUnknown unless the variant is enabled.
  SimTime multi_no_queue = kUnknown;
  /// Smoothed observed execution speed of the query (U/s) — Figure 4.
  double speed = 0.0;
};

struct PiManagerOptions {
  /// Gap between recorded samples (simulated seconds).
  SimTime sample_interval = 1.0;
  /// Also maintain a queue-blind multi-query PI for comparison.
  bool record_queue_blind_variant = false;
  /// Configuration of the primary multi-query PI.
  MultiQueryPiOptions multi{};
  /// Sliding-window span for single-query speed samples (seconds).
  SimTime single_speed_window = 2.0;
};

class PiManager {
 public:
  /// `db` and `future` (optional) must outlive the manager.
  PiManager(const sched::Rdbms* db, PiManagerOptions options = {},
            FutureWorkloadModel* future = nullptr);

  /// Starts tracing a query. Idempotent; re-tracking an already
  /// tracked query keeps its observation history. Samples recorded
  /// before the first Track() call are simply absent from the trace.
  void Track(QueryId id);

  /// Feeds PIs and appends due samples; call after every Step quantum.
  void AfterStep();

  /// The recorded trace of a tracked query (empty if never sampled).
  const std::vector<EstimateSample>& Trace(QueryId id) const;

  /// Current single-query estimate. Untracked or finished ids are not
  /// an error: they report kUnknown (no observation history), so
  /// concurrent callers — e.g. service sessions polling arbitrary
  /// ids — need no Track()-before-sample ordering.
  Result<SimTime> EstimateSingle(QueryId id) const;

  /// Smoothed observed speed of a tracked query (U/s); 0 if untracked
  /// or not yet observed.
  double SpeedOf(QueryId id) const;

  /// The single-query PI of a tracked query, nullptr if untracked — one
  /// lookup for a caller that wants both its speed and its estimate.
  const SingleQueryPi* FindSingle(QueryId id) const;

  /// Current multi-query estimate.
  Result<SimTime> EstimateMulti(QueryId id) const {
    return multi_.EstimateRemainingTime(id);
  }

  MultiQueryPi* multi() { return &multi_; }
  const MultiQueryPi* multi() const { return &multi_; }

  /// Forwards a chaos harness to the primary multi-query PI. The
  /// queue-blind comparison variant stays un-faulted: a second PI
  /// drawing from the same fault-point streams would entangle both
  /// PIs' fire sequences with their evaluation interleaving.
  void SetFaultInjector(fault::FaultInjector* injector) {
    multi_.SetFaultInjector(injector);
  }

  /// One dashboard row per live query — the classic progress-indicator
  /// GUI payload (percent done + ETA), with both estimators side by
  /// side. Covers every non-terminal query in the system, tracked or
  /// not (untracked queries report kUnknown for the single-query ETA,
  /// which needs an observation history).
  struct ProgressRow {
    QueryId id = kInvalidQueryId;
    QueryLabel label;
    sched::QueryState state = sched::QueryState::kQueued;
    /// completed / (completed + estimated remaining), in [0, 1].
    double fraction_done = 0.0;
    double speed = 0.0;            // smoothed U/s (tracked queries)
    SimTime eta_single = kUnknown;
    SimTime eta_multi = kUnknown;
  };
  std::vector<ProgressRow> Report() const;

 private:
  const sched::Rdbms* db_;
  PiManagerOptions options_;
  obs::Tracer* tracer_;  // the process-wide tracer, cached
  MultiQueryPi multi_;
  std::unique_ptr<MultiQueryPi> multi_blind_;
  struct Tracked {
    SingleQueryPi single;
    std::vector<EstimateSample> trace;
  };
  /// Ascending id, like Rdbms::VisitQueries, so AfterStep merge-joins
  /// the two in one pass.
  std::map<QueryId, Tracked> tracked_;
  SimTime next_sample_ = 0.0;
};

}  // namespace mqpi::pi
