// EstimateAuditor: live estimate-vs-actual accuracy scoring.
//
// The paper's whole evaluation (§4, Figures 1-11) is about how fast the
// remaining-time estimates r_i converge to the truth as queries run.
// The auditor computes those quality metrics *in production*. Each
// live query carries a Trajectory in its owner's per-query state (the
// service records one reading per published snapshot row, in the pass
// that builds the row); when the query finishes or aborts, the
// auditor scores that trajectory against ground truth — the query's
// actual remaining time at each sample, known exactly once the finish
// time is — and folds the report into its aggregates.
//
// Per query and per estimator (single-query PI vs multi-query PI) it
// reports:
//   - MAPE: mean |estimate - actual| / actual over scored samples,
//   - signed bias: mean (estimate - actual) / actual (>0 = pessimistic
//     overestimates, <0 = optimistic underestimates),
//   - monotonicity violations: readings where the remaining-time
//     estimate *rose* since the previous usable one (a perfect
//     estimator under stationary load only ever counts down; rises mark
//     load changes the estimator did not anticipate — Figures 6-7),
//   - convergence: the earliest time from which every later estimate
//     stays within 10% of the truth (Figure 1/10's "how soon can you
//     trust it" question), also expressed as a fraction of the query's
//     lifetime (0 = trustworthy immediately, unknown = never settled).
//
// Bounded trajectories. A trajectory retains at most
// `max_samples_per_query` samples however long its query runs: it
// keeps every `stride`-th reading, and when one more would exceed the
// budget it drops the odd positions and doubles `stride`, so the kept
// samples stay uniform in time. A trajectory that fits the budget keeps
// every reading and scores exactly as an unbounded one would; a longer
// one scores MAPE, bias and convergence on its uniform thinning. Its
// convergence is never more than one stride later than the full
// trajectory's, but may be earlier: a late band violation that falls
// between kept samples goes unseen. Monotonicity is counted on the
// full stream as readings arrive — it needs only the previous usable
// estimate — so thinning never changes it.
//
// Memory is O(live × budget) samples, held by the trajectories;
// scoring frees them. Rolling aggregates over every scored query are
// maintained as running sums, so Aggregate() reflects the full history
// even though only the most recent `retain_completed` per-query
// reports are kept.
//
// Thread-safety: a Trajectory belongs to its owner's lock. The auditor
// is internally locked: one writer calls Score(), and any number of
// reader threads may call Completed()/ReportFor()/Aggregate()/
// RenderText() concurrently — the TSan stress test drives exactly that
// pattern.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/priority.h"
#include "common/status.h"
#include "common/units.h"

namespace mqpi::obs {

/// Accuracy of one estimator over one completed query.
struct EstimatorScore {
  /// Samples with a usable estimate and a usable truth.
  int samples = 0;
  double mape = kUnknown;
  double bias = kUnknown;
  int monotonicity_violations = 0;
  /// Earliest sim time from which every later estimate stayed within
  /// the convergence band of the truth; kUnknown if it never settled.
  SimTime converged_at = kUnknown;
  /// (converged_at - arrival) / lifetime, in [0, 1]; kUnknown if never.
  double converged_fraction = kUnknown;
};

struct QueryAccuracy {
  QueryId id = kInvalidQueryId;
  Priority priority = Priority::kNormal;
  bool finished = false;  // aborted queries carry no scores (no truth)
  SimTime arrival_time = 0.0;
  SimTime finish_time = kUnknown;
  SimTime lifetime = 0.0;  // finish - arrival
  EstimatorScore single;
  EstimatorScore multi;
};

/// Rolling aggregates over every query scored so far.
struct AccuracyAggregate {
  std::uint64_t queries_scored = 0;
  std::uint64_t queries_aborted = 0;
  double mean_mape_single = kUnknown;
  double mean_mape_multi = kUnknown;
  double mean_bias_single = kUnknown;
  double mean_bias_multi = kUnknown;
  std::uint64_t monotonicity_violations_single = 0;
  std::uint64_t monotonicity_violations_multi = 0;
  /// Mean converged_fraction over queries that did converge.
  double mean_converged_fraction_single = kUnknown;
  double mean_converged_fraction_multi = kUnknown;
  std::uint64_t never_converged_single = 0;
  std::uint64_t never_converged_multi = 0;
};

/// Samples whose true remaining time is below this fraction of the
/// query lifetime are excluded from MAPE/bias: relative error against
/// a truth of ~0 is noise, not signal.
inline constexpr double kMinTruthFraction = 0.02;

struct AuditorOptions {
  /// Sample budget per live query. A trajectory keeps every
  /// `stride`-th reading; past the budget it halves itself (even
  /// positions kept) and doubles `stride`, so a query of any length
  /// holds at most this many samples, spread uniformly over its life.
  /// Trajectories within the budget are scored on every reading.
  /// Values below 1 are treated as 1.
  std::size_t max_samples_per_query = 256;
  /// Completed per-query reports retained for ReportFor()/Completed().
  std::size_t retain_completed = 1024;
  /// Relative-error band for convergence detection.
  double convergence_band = 0.10;
  /// Absolute slack subtracted from |estimate - truth| before a sample
  /// is scored. Ground truth is only known to the publisher's time
  /// resolution — the scheduler stamps finish times at quantum ends and
  /// snapshots sample estimates once per quantum — so sub-resolution
  /// disagreement is measurement noise, not estimator error. 0 scores
  /// raw errors; PiService defaults this to two scheduler quanta.
  double truth_resolution = 0.0;
};

/// One query's bounded estimate trajectory: its published readings,
/// thinned to the sample budget, plus the streaming rise counts. Owned
/// by the caller's per-query state until EstimateAuditor::Score.
class Trajectory {
 public:
  /// Records the remaining-time estimates published at `time`, keeping
  /// at most `budget` samples (>= 1); `*retained` tracks the caller's
  /// total of retained samples across trajectories.
  void Record(SimTime time, SimTime eta_single, SimTime eta_multi,
              std::size_t budget, std::size_t* retained);

  /// Readings recorded so far, kept or thinned.
  std::uint64_t observed() const { return observed_; }
  /// Samples held now.
  std::size_t retained() const { return samples_.size(); }

 private:
  friend class EstimateAuditor;
  struct Sample {
    SimTime time = 0.0;
    SimTime single = kUnknown;
    SimTime multi = kUnknown;
  };

  /// Every `stride_`-th reading; at most the budget.
  std::vector<Sample> samples_;
  std::uint64_t observed_ = 0;
  std::uint32_t stride_ = 1;
  // Streaming monotonicity: the last usable estimate per estimator and
  // the rises counted over every reading.
  int rises_single_ = 0;
  int rises_multi_ = 0;
  SimTime last_single_ = kUnknown;
  SimTime last_multi_ = kUnknown;
};

class EstimateAuditor {
 public:
  explicit EstimateAuditor(AuditorOptions options = {});

  /// Scores a terminal query once: `report` carries its id, priority,
  /// outcome (`finished`), arrival and finish time; its lifetime and
  /// scores are filled from `*trajectory` (a finished query with
  /// readings gets scores, an aborted one only counts). Folds the
  /// report into the aggregates and the completed reports, resets
  /// `*trajectory` (freeing its samples) and returns the report.
  QueryAccuracy Score(QueryAccuracy report, Trajectory* trajectory);

  /// Most recent completed reports, oldest first (bounded).
  std::vector<QueryAccuracy> Completed() const;

  /// Completed report for one query; NotFound if unknown or evicted.
  Result<QueryAccuracy> ReportFor(QueryId id) const;

  AccuracyAggregate Aggregate() const;

  /// Human-readable dump: the aggregate plus the most recent per-query
  /// lines (the shell's `accuracy` command).
  std::string RenderText(std::size_t max_recent = 10) const;

  const AuditorOptions& options() const { return options_; }

 private:
  /// Scores `samples` against the truth; monotonicity is the caller's.
  EstimatorScore ScoreTrajectory(
      const std::vector<Trajectory::Sample>& samples, SimTime arrival,
      SimTime finish, bool use_single) const;

  AuditorOptions options_;
  mutable std::mutex mu_;
  std::deque<QueryAccuracy> completed_;

  // Running aggregate sums (scored queries only).
  std::uint64_t queries_scored_ = 0;
  std::uint64_t queries_aborted_ = 0;
  double sum_mape_single_ = 0.0, sum_mape_multi_ = 0.0;
  std::uint64_t n_mape_single_ = 0, n_mape_multi_ = 0;
  double sum_bias_single_ = 0.0, sum_bias_multi_ = 0.0;
  std::uint64_t mono_single_ = 0, mono_multi_ = 0;
  double sum_conv_single_ = 0.0, sum_conv_multi_ = 0.0;
  std::uint64_t n_conv_single_ = 0, n_conv_multi_ = 0;
  std::uint64_t never_conv_single_ = 0, never_conv_multi_ = 0;
};

}  // namespace mqpi::obs
