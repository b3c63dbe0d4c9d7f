// EstimateAuditor: live estimate-vs-actual accuracy scoring.
//
// The paper's whole evaluation (§4, Figures 1-11) is about how fast the
// remaining-time estimates r_i converge to the truth as queries run.
// The auditor computes those quality metrics *in production*: it is fed
// one observation per live query per published quantum (the service
// does this from its snapshot loop, plus one terminal observation when
// a query finishes or aborts), keeps a bounded sample of each query's
// estimate trajectory, and when the query completes scores that sample
// against ground truth — the query's actual remaining time at each
// sample, known exactly once the finish time is.
//
// Per query and per estimator (single-query PI vs multi-query PI) it
// reports:
//   - MAPE: mean |estimate - actual| / actual over scored samples,
//   - signed bias: mean (estimate - actual) / actual (>0 = pessimistic
//     overestimates, <0 = optimistic underestimates),
//   - monotonicity violations: observations where the remaining-time
//     estimate *rose* since the previous usable one (a perfect
//     estimator under stationary load only ever counts down; rises mark
//     load changes the estimator did not anticipate — Figures 6-7),
//   - convergence: the earliest time from which every later estimate
//     stays within 10% of the truth (Figure 1/10's "how soon can you
//     trust it" question), also expressed as a fraction of the query's
//     lifetime (0 = trustworthy immediately, unknown = never settled).
//
// Bounded trajectories. A live query retains at most
// `max_samples_per_query` samples however long it runs: it keeps every
// `stride`-th observation, and when one more would exceed the budget
// it drops the odd positions and doubles `stride`, so the kept samples
// stay uniform in time. A trajectory that fits the budget keeps every
// observation and scores exactly as an unbounded one would; a longer
// one scores MAPE, bias and convergence on its uniform thinning. Its
// convergence is never more than one stride later than the full
// trajectory's, but may be earlier: a late band violation that falls
// between kept samples goes unseen. Monotonicity is counted on the
// full stream as observations arrive — it needs only the previous
// usable estimate — so thinning never changes it.
//
// Memory is O(tracked ids) small entries plus O(live × budget) samples;
// a scored query frees its samples. Rolling aggregates over every
// scored query are maintained as running sums, so Aggregate() reflects
// the full history even though only the most recent `retain_completed`
// per-query reports are kept.
//
// Ids. Per-query state lives in one column indexed by `id - 1`, so ids
// must be dense from 1 — the record ids `PiService` (and each shard's
// service) assigns. A sparse id space (for example global shard ids)
// would size the column by its largest id.
//
// Thread-safety: fully internally locked. One writer (the service's
// stepping thread) calls Observe() or fills a Batch, which holds the
// lock for a whole snapshot; any number of reader threads may call
// Completed()/ReportFor()/Aggregate()/RenderText() concurrently — the
// TSan stress test drives exactly that pattern.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/priority.h"
#include "common/status.h"
#include "common/units.h"

namespace mqpi::obs {

/// One per-quantum estimate reading for one query, as published in a
/// ProgressSnapshot. Estimates are *remaining seconds* from `time`;
/// kUnknown / kInfiniteTime readings are carried through and skipped
/// where truth comparison is impossible.
struct EstimateObservation {
  QueryId id = kInvalidQueryId;
  SimTime time = 0.0;
  SimTime eta_single = kUnknown;
  SimTime eta_multi = kUnknown;
  Priority priority = Priority::kNormal;
  SimTime arrival_time = 0.0;
  /// Terminal transition: set on the first observation in which the
  /// query is finished or aborted; triggers scoring.
  bool terminal = false;
  bool finished = false;           // vs aborted; valid when terminal
  SimTime finish_time = kUnknown;  // valid when terminal
};

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
  /// `stride`-th observation; past the budget it halves itself (even
  /// positions kept) and doubles `stride`, so a query of any length
  /// holds at most this many samples, spread uniformly over its life.
  /// Trajectories within the budget are scored on every observation.
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

class EstimateAuditor {
 public:
  explicit EstimateAuditor(AuditorOptions options = {});

  /// Holds the auditor's lock for a run of observations — one published
  /// snapshot — so feeding N rows costs one lock, not N.
  class Batch {
   public:
    explicit Batch(EstimateAuditor* auditor)
        : auditor_(auditor), lock_(auditor->mu_) {}
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    /// See EstimateAuditor::Observe.
    std::optional<QueryAccuracy> Observe(const EstimateObservation& obs) {
      return auditor_->ObserveLocked(obs);
    }
    /// Samples retained across all live trajectories.
    std::size_t retained_samples() const {
      return auditor_->retained_samples_;
    }

   private:
    EstimateAuditor* auditor_;
    std::lock_guard<std::mutex> lock_;
  };

  /// Feeds one observation (a one-row Batch). On the first terminal
  /// observation of a query, scores its trajectory and returns the
  /// completed record (callers use this to publish metrics); returns
  /// nullopt otherwise, and for every later observation of that id.
  std::optional<QueryAccuracy> Observe(const EstimateObservation& obs);

  /// Most recent completed reports, oldest first (bounded).
  std::vector<QueryAccuracy> Completed() const;

  /// Completed report for one query; NotFound if unknown or evicted.
  Result<QueryAccuracy> ReportFor(QueryId id) const;

  AccuracyAggregate Aggregate() const;

  /// Human-readable dump: the aggregate plus the most recent per-query
  /// lines (the shell's `accuracy` command).
  std::string RenderText(std::size_t max_recent = 10) const;

  /// Queries currently being tracked (live, not yet terminal).
  std::size_t live_queries() const;

  /// Samples retained across all live trajectories.
  std::size_t retained_samples() const;

  void Clear();

  const AuditorOptions& options() const { return options_; }

 private:
  struct Sample {
    SimTime time = 0.0;
    SimTime single = kUnknown;
    SimTime multi = kUnknown;
  };
  enum class Tracking : std::uint8_t { kUntracked, kLive, kScored };
  /// One query's column entry.
  struct Trajectory {
    /// Every `stride`-th non-terminal observation; at most the budget.
    std::vector<Sample> samples;
    std::uint64_t observed = 0;  // non-terminal observations so far
    std::uint32_t stride = 1;
    Tracking tracking = Tracking::kUntracked;
    // Streaming monotonicity: the last usable estimate per estimator
    // and the rises counted over every observation.
    int rises_single = 0;
    int rises_multi = 0;
    SimTime last_single = kUnknown;
    SimTime last_multi = kUnknown;
  };

  std::optional<QueryAccuracy> ObserveLocked(const EstimateObservation& obs);
  void TrackLocked(const EstimateObservation& obs, Trajectory* query);
  /// Scores `samples` against the truth; monotonicity is the caller's.
  EstimatorScore ScoreTrajectory(const std::vector<Sample>& samples,
                                 SimTime arrival, SimTime finish,
                                 bool use_single) const;

  AuditorOptions options_;
  mutable std::mutex mu_;
  std::vector<Trajectory> queries_;  // index id - 1
  std::size_t tracked_count_ = 0;  // entries in Tracking::kLive
  std::size_t retained_samples_ = 0;  // over live trajectories
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
