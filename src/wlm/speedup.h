// Section 3.1 / 3.2: victim selection for query speed-up.
//
// Single-query speed up (§3.1): block h victim queries to shorten the
// remaining execution time of a target query Q_i as much as possible.
// With queries sorted by c/w (the standard-case finish order) and the
// target at position i, blocking a later-finishing victim Q_m (m > i)
// saves T_m = w_m * sum_{j<=i} t_j / W_j, while blocking an
// earlier-finishing victim (m < i) saves T_m = c_m / C. The optimal
// victim maximizes T_m over both sets; the greedy choice for h > 1 is
// the h largest benefits, and their sum is the exact combined
// benefit. O(n log n).
//
// On additivity: within the Section 2.2 model the per-victim benefits
// compose *exactly*, not approximately. Removing a victim never
// changes any survivor's finish threshold v_j = c_j / w_j, and the
// target's remaining time
//     r_i = (1/C) * [sum_{v_j <= v_i} c_j + v_i * sum_{v_j > v_i} w_j]
// is linear in the removed set, so blocking {Q_a, Q_b} saves exactly
// T_a + T_b (the telescoped K = sum_{j<=i} t_j / W_j equals v_i / C
// regardless of which other victims are gone; ExactBenefit-based
// cross-check in the tests). What IS an approximation is the model
// itself: `time_saved` assumes blocked victims stay blocked for the
// target's whole remaining run. A workload manager that later resumes
// a victim returns its weight to the pool early and recovers less
// than the predicted saving — the prediction is an upper bound under
// resumption, not an additivity artifact.
//
// When all priorities are equal the solution degenerates (paper §3.1):
// any query finishing after the target is optimal; if the target
// finishes last, the victim is the query with the largest remaining
// cost. O(n), no sorting.
//
// Multiple-query speed up (§3.2): block one victim to maximize the
// total response-time improvement of the other n-1 queries,
// R_m = w_m * sum_{j<=m} (n-j) * t_j / W_j. O(n log n).
#pragma once

#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "pi/stage_profile.h"

namespace mqpi::wlm {

struct SpeedupChoice {
  /// Chosen victims, in decreasing benefit order.
  std::vector<QueryId> victims;
  /// Predicted total shortening of the target's remaining time.
  SimTime time_saved = 0.0;
};

/// Section 3.1's first resort: "A natural choice is to increase the
/// priority of Q_i." Predicted effect of re-weighting the target.
struct PriorityRaiseAdvice {
  /// Remaining time at the current weight.
  SimTime current_remaining = 0.0;
  /// Remaining time if the target runs at the new weight.
  SimTime new_remaining = 0.0;
  SimTime time_saved = 0.0;
};

class SingleQuerySpeedup {
 public:
  /// Chooses the optimal h victims to block so that `target` speeds up
  /// most. Fails if target is unknown or h asks for more victims than
  /// there are other queries.
  static Result<SpeedupChoice> ChooseVictims(
      const std::vector<pi::QueryLoad>& running, QueryId target, int h,
      double rate);

  /// The equal-priority O(n) special case: returns one victim without
  /// sorting. All weights must be equal (checked).
  static Result<QueryId> ChooseVictimEqualPriority(
      const std::vector<pi::QueryLoad>& running, QueryId target);

  /// Exact benefit of blocking `victim`, computed from first principles
  /// (two stage profiles). Used by tests and the brute-force oracle.
  static Result<SimTime> ExactBenefit(
      const std::vector<pi::QueryLoad>& running, QueryId target,
      QueryId victim, double rate);

  /// Predicts the effect of changing the target's weight (raising its
  /// priority) while everything else keeps running — the option the
  /// paper considers before blocking victims.
  static Result<PriorityRaiseAdvice> EvaluateWeightChange(
      const std::vector<pi::QueryLoad>& running, QueryId target,
      double new_weight, double rate);
};

struct MultiSpeedupChoice {
  QueryId victim = kInvalidQueryId;
  /// Predicted improvement in total response time of the other queries.
  SimTime total_response_improvement = 0.0;
};

class MultiQuerySpeedup {
 public:
  /// Chooses the victim whose blocking most improves the total response
  /// time of all other queries.
  static Result<MultiSpeedupChoice> ChooseVictim(
      const std::vector<pi::QueryLoad>& running, double rate);

  /// Exact improvement from blocking `victim` (two stage profiles).
  static Result<SimTime> ExactImprovement(
      const std::vector<pi::QueryLoad>& running, QueryId victim,
      double rate);
};

}  // namespace mqpi::wlm
