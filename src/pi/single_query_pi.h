// SingleQueryPi: the baseline progress indicator of Luo et al.
// [SIGMOD'04, ICDE'05], as characterized by this paper's Section 2:
//
//   "the PI refines the estimated remaining query cost c ... also
//    continuously monitors the current query execution speed s, and the
//    remaining query execution time is estimated as t = c / s."
//
// Speed is measured over a sliding window of simulated time (work done
// in the window / window length) and then EWMA-smoothed. Windowing
// matters because operator granularity makes single-quantum consumption
// lumpy — one correlated-sub-query probe can exceed a query's fair
// share for several quanta, so instantaneous speeds oscillate wildly
// even under a perfectly fair scheduler.
//
// The single-query PI implicitly feels other queries through the
// measured speed, but has no model of when they will finish or arrive —
// the weakness the multi-query PI fixes.
#pragma once

#include "common/stats.h"
#include "common/units.h"
#include "sched/rdbms.h"

namespace mqpi::pi {

class SingleQueryPi {
 public:
  static constexpr double kDefaultSpeedAlpha = 0.3;

  /// `speed_alpha` is the EWMA weight; `window` the minimum span of
  /// simulated seconds over which one speed sample is measured.
  explicit SingleQueryPi(QueryId id, double speed_alpha = kDefaultSpeedAlpha,
                         SimTime window = 2.0);

  QueryId id() const { return id_; }

  /// Feeds one observation of this query at simulated time `now`.
  void Observe(const sched::QueryInfo& info, SimTime now);

  /// t = c / s. Returns kInfiniteTime while no speed has been observed
  /// (e.g. the query is queued or blocked) and 0 once the query is done.
  SimTime EstimateRemainingTime() const;

  /// Latest smoothed speed (U/s); 0 if never observed running.
  double speed() const {
    return speed_.has_value() ? speed_.value() : 0.0;
  }

  /// Latest refined remaining-cost estimate c.
  WorkUnits remaining_cost() const { return remaining_cost_; }

  bool finished() const { return finished_; }

 private:
  QueryId id_;
  Ewma speed_;
  SimTime window_;
  SimTime window_start_ = kUnknown;
  WorkUnits window_start_work_ = 0.0;
  WorkUnits remaining_cost_ = 0.0;
  bool finished_ = false;
};

}  // namespace mqpi::pi
