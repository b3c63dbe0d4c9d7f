#include "obs/auditor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace mqpi::obs {

namespace {

bool UsableEstimate(SimTime estimate) {
  return estimate != kUnknown && estimate >= 0.0 &&
         estimate < kInfiniteTime && !std::isnan(estimate);
}

std::string FormatMetric(double v) {
  if (v == kUnknown) return "?";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

EstimateAuditor::EstimateAuditor(AuditorOptions options)
    : options_(options) {
  options_.max_samples_per_query =
      std::max<std::size_t>(options_.max_samples_per_query, 1);
}

EstimatorScore EstimateAuditor::ScoreTrajectory(
    const std::vector<Sample>& samples, SimTime arrival, SimTime finish,
    bool use_single) const {
  EstimatorScore score;
  const double lifetime = std::max(finish - arrival, kTimeEpsilon);
  const double min_truth =
      std::max(options_.min_truth_fraction * lifetime, kTimeEpsilon);

  double sum_abs = 0.0;
  double sum_signed = 0.0;
  // Convergence: the last sample that *violated* the band decides;
  // everything after it was trustworthy.
  SimTime last_violation_after = kUnknown;  // time of first in-band
                                            // sample after the last
                                            // violation
  bool any_in_band_after_violation = false;
  bool saw_violation = false;
  SimTime first_usable = kUnknown;

  for (const Sample& sample : samples) {
    const SimTime estimate = use_single ? sample.single : sample.multi;
    if (!UsableEstimate(estimate)) continue;

    const double truth = finish - sample.time;
    if (truth < min_truth) continue;  // endgame noise, not signal

    const double diff = estimate - truth;
    const double magnitude =
        std::max(std::abs(diff) - options_.truth_resolution, 0.0);
    const double rel = std::copysign(magnitude, diff) / truth;
    ++score.samples;
    sum_abs += std::abs(rel);
    sum_signed += rel;
    if (first_usable == kUnknown) first_usable = sample.time;

    if (std::abs(rel) > options_.convergence_band) {
      saw_violation = true;
      any_in_band_after_violation = false;
      last_violation_after = kUnknown;
    } else if (saw_violation && !any_in_band_after_violation) {
      any_in_band_after_violation = true;
      last_violation_after = sample.time;
    }
  }

  if (score.samples > 0) {
    score.mape = sum_abs / score.samples;
    score.bias = sum_signed / score.samples;
    if (!saw_violation) {
      score.converged_at = first_usable;
    } else if (any_in_band_after_violation) {
      score.converged_at = last_violation_after;
    }
    if (score.converged_at != kUnknown) {
      score.converged_fraction = std::clamp(
          (score.converged_at - arrival) / lifetime, 0.0, 1.0);
    }
  }
  return score;
}

void EstimateAuditor::TrackLocked(const EstimateObservation& obs,
                                  Trajectory* query) {
  // Monotonicity: remaining time should count down between usable
  // estimates. Counted here, on every observation, so thinning below
  // never hides a rise.
  const auto count_rise = [](SimTime estimate, SimTime* last, int* rises) {
    if (!UsableEstimate(estimate)) return;
    if (*last != kUnknown && estimate > *last + 1e-6) ++*rises;
    *last = estimate;
  };
  count_rise(obs.eta_single, &query->last_single, &query->rises_single);
  count_rise(obs.eta_multi, &query->last_multi, &query->rises_multi);

  const std::uint64_t n = query->observed++;
  if (n % query->stride != 0) return;
  std::vector<Sample>& samples = query->samples;
  const std::size_t budget = options_.max_samples_per_query;
  if (samples.size() >= budget) {
    // Over budget: keep the even positions and double the stride, then
    // re-check this observation against the new stride.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < samples.size(); i += 2) {
      samples[kept++] = samples[i];
    }
    retained_samples_ -= samples.size() - kept;
    samples.resize(kept);
    query->stride *= 2;
    if (n % query->stride != 0) return;
  }
  if (samples.size() == samples.capacity()) {
    samples.reserve(std::min(budget, std::max<std::size_t>(
                                         8, 2 * samples.capacity())));
  }
  samples.push_back(Sample{obs.time, obs.eta_single, obs.eta_multi});
  ++retained_samples_;
}

std::optional<QueryAccuracy> EstimateAuditor::Observe(
    const EstimateObservation& obs) {
  Batch batch(this);
  return batch.Observe(obs);
}

std::optional<QueryAccuracy> EstimateAuditor::ObserveLocked(
    const EstimateObservation& obs) {
  if (obs.id == kInvalidQueryId) return std::nullopt;
  if (obs.id > queries_.size()) queries_.resize(obs.id);
  Trajectory& query = queries_[obs.id - 1];
  if (query.tracking == Tracking::kScored) return std::nullopt;

  if (!obs.terminal) {
    if (query.tracking == Tracking::kUntracked) {
      query.tracking = Tracking::kLive;
      ++tracked_count_;
    }
    TrackLocked(obs, &query);
    return std::nullopt;
  }

  // Terminal: score whatever trajectory we have and retire the query.
  const bool tracked = query.tracking == Tracking::kLive;
  if (tracked) --tracked_count_;
  query.tracking = Tracking::kScored;
  QueryAccuracy report;
  report.id = obs.id;
  report.priority = obs.priority;
  report.finished = obs.finished;
  report.arrival_time = obs.arrival_time;
  report.finish_time = obs.finish_time;
  report.lifetime =
      obs.finish_time != kUnknown ? obs.finish_time - obs.arrival_time : 0.0;

  if (obs.finished && obs.finish_time != kUnknown && tracked) {
    report.single = ScoreTrajectory(query.samples, obs.arrival_time,
                                    obs.finish_time, /*use_single=*/true);
    report.single.monotonicity_violations = query.rises_single;
    report.multi = ScoreTrajectory(query.samples, obs.arrival_time,
                                   obs.finish_time, /*use_single=*/false);
    report.multi.monotonicity_violations = query.rises_multi;
  }
  retained_samples_ -= query.samples.size();
  std::vector<Sample>().swap(query.samples);

  if (report.finished) {
    ++queries_scored_;
    auto fold = [](const EstimatorScore& s, double* sum_mape,
                   std::uint64_t* n_mape, double* sum_bias,
                   std::uint64_t* mono, double* sum_conv,
                   std::uint64_t* n_conv, std::uint64_t* never_conv) {
      if (s.mape != kUnknown) {
        *sum_mape += s.mape;
        *sum_bias += s.bias;
        ++*n_mape;
        if (s.converged_fraction != kUnknown) {
          *sum_conv += s.converged_fraction;
          ++*n_conv;
        } else {
          ++*never_conv;
        }
      }
      *mono += static_cast<std::uint64_t>(s.monotonicity_violations);
    };
    fold(report.single, &sum_mape_single_, &n_mape_single_,
         &sum_bias_single_, &mono_single_, &sum_conv_single_,
         &n_conv_single_, &never_conv_single_);
    fold(report.multi, &sum_mape_multi_, &n_mape_multi_, &sum_bias_multi_,
         &mono_multi_, &sum_conv_multi_, &n_conv_multi_,
         &never_conv_multi_);
  } else {
    ++queries_aborted_;
  }

  completed_.push_back(report);
  while (completed_.size() > options_.retain_completed) {
    completed_.pop_front();
  }
  return report;
}

std::vector<QueryAccuracy> EstimateAuditor::Completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {completed_.begin(), completed_.end()};
}

Result<QueryAccuracy> EstimateAuditor::ReportFor(QueryId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = completed_.rbegin(); it != completed_.rend(); ++it) {
    if (it->id == id) return *it;
  }
  return Status::NotFound("no completed accuracy report for query " +
                          std::to_string(id));
}

AccuracyAggregate EstimateAuditor::Aggregate() const {
  std::lock_guard<std::mutex> lock(mu_);
  AccuracyAggregate agg;
  agg.queries_scored = queries_scored_;
  agg.queries_aborted = queries_aborted_;
  if (n_mape_single_ > 0) {
    agg.mean_mape_single = sum_mape_single_ / n_mape_single_;
    agg.mean_bias_single = sum_bias_single_ / n_mape_single_;
  }
  if (n_mape_multi_ > 0) {
    agg.mean_mape_multi = sum_mape_multi_ / n_mape_multi_;
    agg.mean_bias_multi = sum_bias_multi_ / n_mape_multi_;
  }
  agg.monotonicity_violations_single = mono_single_;
  agg.monotonicity_violations_multi = mono_multi_;
  if (n_conv_single_ > 0) {
    agg.mean_converged_fraction_single = sum_conv_single_ / n_conv_single_;
  }
  if (n_conv_multi_ > 0) {
    agg.mean_converged_fraction_multi = sum_conv_multi_ / n_conv_multi_;
  }
  agg.never_converged_single = never_conv_single_;
  agg.never_converged_multi = never_conv_multi_;
  return agg;
}

std::size_t EstimateAuditor::live_queries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tracked_count_;
}

std::size_t EstimateAuditor::retained_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retained_samples_;
}

std::string EstimateAuditor::RenderText(std::size_t max_recent) const {
  const AccuracyAggregate agg = Aggregate();
  std::string out = "estimate accuracy: " +
                    std::to_string(agg.queries_scored) + " scored, " +
                    std::to_string(agg.queries_aborted) + " aborted\n";
  auto line = [&](const char* name, double mape, double bias,
                  std::uint64_t mono, double conv,
                  std::uint64_t never_conv) {
    out += "  ";
    out += name;
    out += ": MAPE " + FormatMetric(mape) + "  bias " + FormatMetric(bias) +
           "  monotonicity-violations " + std::to_string(mono) +
           "  convergence " + FormatMetric(conv) + " of lifetime (" +
           std::to_string(never_conv) + " never)\n";
  };
  line("single", agg.mean_mape_single, agg.mean_bias_single,
       agg.monotonicity_violations_single,
       agg.mean_converged_fraction_single, agg.never_converged_single);
  line("multi ", agg.mean_mape_multi, agg.mean_bias_multi,
       agg.monotonicity_violations_multi,
       agg.mean_converged_fraction_multi, agg.never_converged_multi);

  std::vector<QueryAccuracy> recent = Completed();
  if (recent.size() > max_recent) {
    recent.erase(recent.begin(),
                 recent.end() - static_cast<std::ptrdiff_t>(max_recent));
  }
  if (!recent.empty()) out += "recent queries:\n";
  for (const QueryAccuracy& q : recent) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "  #%llu %-8s %s lifetime %.1fs  single[mape %s] "
                  "multi[mape %s]\n",
                  static_cast<unsigned long long>(q.id),
                  std::string(PriorityName(q.priority)).c_str(),
                  q.finished ? "finished" : "aborted ", q.lifetime,
                  FormatMetric(q.single.mape).c_str(),
                  FormatMetric(q.multi.mape).c_str());
    out += buf;
  }
  return out;
}

void EstimateAuditor::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  queries_.clear();
  tracked_count_ = 0;
  retained_samples_ = 0;
  completed_.clear();
  queries_scored_ = queries_aborted_ = 0;
  sum_mape_single_ = sum_mape_multi_ = 0.0;
  n_mape_single_ = n_mape_multi_ = 0;
  sum_bias_single_ = sum_bias_multi_ = 0.0;
  mono_single_ = mono_multi_ = 0;
  sum_conv_single_ = sum_conv_multi_ = 0.0;
  n_conv_single_ = n_conv_multi_ = 0;
  never_conv_single_ = never_conv_multi_ = 0;
}

}  // namespace mqpi::obs
