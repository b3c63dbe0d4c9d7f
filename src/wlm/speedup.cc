#include "wlm/speedup.h"

#include <algorithm>
#include <string>

namespace mqpi::wlm {

using pi::QueryLoad;
using pi::StageProfile;

namespace {

Result<std::vector<QueryLoad>> Without(const std::vector<QueryLoad>& loads,
                                       QueryId victim) {
  std::vector<QueryLoad> out;
  out.reserve(loads.size());
  bool found = false;
  for (const QueryLoad& q : loads) {
    if (q.id == victim) {
      found = true;
    } else {
      out.push_back(q);
    }
  }
  if (!found) {
    return Status::NotFound("victim " + std::to_string(victim) +
                            " not among running queries");
  }
  return out;
}

}  // namespace

// ---- SingleQuerySpeedup ------------------------------------------------------

Result<SpeedupChoice> SingleQuerySpeedup::ChooseVictims(
    const std::vector<QueryLoad>& running, QueryId target, int h,
    double rate) {
  if (h < 1) return Status::InvalidArgument("h must be >= 1");
  if (static_cast<std::size_t>(h) >= running.size()) {
    return Status::InvalidArgument(
        "cannot block " + std::to_string(h) + " victims out of " +
        std::to_string(running.size()) + " queries (target must survive)");
  }
  auto profile = StageProfile::Compute(running, rate);
  if (!profile.ok()) return profile.status();
  auto pos = profile->FinishPosition(target);
  if (!pos.ok()) return pos.status();

  // K = sum_{j <= pos} t_j / W_j: the per-unit-weight shortening any
  // later-finishing victim contributes to the target's stages.
  double k_factor = 0.0;
  for (std::size_t j = 0; j <= *pos; ++j) {
    k_factor += profile->stage_durations()[j] / profile->suffix_weights()[j];
  }

  struct Candidate {
    QueryId id;
    SimTime benefit;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(running.size() - 1);
  const auto& order = profile->finish_order();
  for (std::size_t p = 0; p < order.size(); ++p) {
    if (p == *pos) continue;
    const QueryLoad& q = order[p];
    const SimTime benefit =
        p > *pos ? q.weight * k_factor : q.remaining_cost / rate;
    candidates.push_back(Candidate{q.id, benefit});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.benefit != b.benefit) return a.benefit > b.benefit;
              return a.id < b.id;
            });

  SpeedupChoice choice;
  for (int i = 0; i < h; ++i) {
    choice.victims.push_back(candidates[static_cast<std::size_t>(i)].id);
    choice.time_saved += candidates[static_cast<std::size_t>(i)].benefit;
  }
  return choice;
}

Result<QueryId> SingleQuerySpeedup::ChooseVictimEqualPriority(
    const std::vector<QueryLoad>& running, QueryId target) {
  if (running.size() < 2) {
    return Status::InvalidArgument("need at least two running queries");
  }
  const QueryLoad* target_load = nullptr;
  for (const QueryLoad& q : running) {
    if (q.id == target) target_load = &q;
  }
  if (target_load == nullptr) {
    return Status::NotFound("target " + std::to_string(target) +
                            " not among running queries");
  }
  for (const QueryLoad& q : running) {
    if (q.weight != running.front().weight) {
      return Status::FailedPrecondition(
          "equal-priority fast path requires uniform weights");
    }
  }
  // Single scan: any query with remaining cost >= the target's finishes
  // no earlier than the target, so it is an optimal victim; otherwise
  // fall back to the largest remaining cost (paper §3.1, special case).
  const QueryLoad* best = nullptr;
  for (const QueryLoad& q : running) {
    if (q.id == target) continue;
    if (q.remaining_cost >= target_load->remaining_cost) return q.id;
    if (best == nullptr || q.remaining_cost > best->remaining_cost) {
      best = &q;
    }
  }
  return best->id;
}

Result<SimTime> SingleQuerySpeedup::ExactBenefit(
    const std::vector<QueryLoad>& running, QueryId target, QueryId victim,
    double rate) {
  if (target == victim) {
    return Status::InvalidArgument("target cannot be its own victim");
  }
  auto before = StageProfile::Compute(running, rate);
  if (!before.ok()) return before.status();
  auto r_before = before->RemainingTimeOf(target);
  if (!r_before.ok()) return r_before.status();

  auto reduced = Without(running, victim);
  if (!reduced.ok()) return reduced.status();
  auto after = StageProfile::Compute(std::move(*reduced), rate);
  if (!after.ok()) return after.status();
  auto r_after = after->RemainingTimeOf(target);
  if (!r_after.ok()) return r_after.status();
  return *r_before - *r_after;
}

Result<PriorityRaiseAdvice> SingleQuerySpeedup::EvaluateWeightChange(
    const std::vector<QueryLoad>& running, QueryId target, double new_weight,
    double rate) {
  if (new_weight <= 0.0) {
    return Status::InvalidArgument("new weight must be positive");
  }
  auto before = StageProfile::Compute(running, rate);
  if (!before.ok()) return before.status();
  auto r_before = before->RemainingTimeOf(target);
  if (!r_before.ok()) return r_before.status();

  std::vector<QueryLoad> reweighted = running;
  for (QueryLoad& q : reweighted) {
    if (q.id == target) q.weight = new_weight;
  }
  auto after = StageProfile::Compute(std::move(reweighted), rate);
  if (!after.ok()) return after.status();
  auto r_after = after->RemainingTimeOf(target);
  if (!r_after.ok()) return r_after.status();

  PriorityRaiseAdvice advice;
  advice.current_remaining = *r_before;
  advice.new_remaining = *r_after;
  advice.time_saved = *r_before - *r_after;
  return advice;
}

// ---- MultiQuerySpeedup -------------------------------------------------------

Result<MultiSpeedupChoice> MultiQuerySpeedup::ChooseVictim(
    const std::vector<QueryLoad>& running, double rate) {
  if (running.size() < 2) {
    return Status::InvalidArgument("need at least two running queries");
  }
  auto profile = StageProfile::Compute(running, rate);
  if (!profile.ok()) return profile.status();

  const std::size_t n = profile->num_queries();
  // Prefix P_p = sum_{j <= p} (n-1-j) * t_j / W_j; R_p = w_p * P_p.
  MultiSpeedupChoice best;
  double prefix = 0.0;
  for (std::size_t p = 0; p < n; ++p) {
    prefix += static_cast<double>(n - 1 - p) *
              profile->stage_durations()[p] / profile->suffix_weights()[p];
    const QueryLoad& q = profile->finish_order()[p];
    const SimTime improvement = q.weight * prefix;
    if (best.victim == kInvalidQueryId ||
        improvement > best.total_response_improvement) {
      best.victim = q.id;
      best.total_response_improvement = improvement;
    }
  }
  return best;
}

Result<SimTime> MultiQuerySpeedup::ExactImprovement(
    const std::vector<QueryLoad>& running, QueryId victim, double rate) {
  auto before = StageProfile::Compute(running, rate);
  if (!before.ok()) return before.status();
  auto pos = before->FinishPosition(victim);
  if (!pos.ok()) return pos.status();
  double total_before = 0.0;
  for (std::size_t i = 0; i < before->num_queries(); ++i) {
    if (i == *pos) continue;
    total_before += before->remaining_times()[i];
  }

  auto reduced = Without(running, victim);
  if (!reduced.ok()) return reduced.status();
  auto after = StageProfile::Compute(std::move(*reduced), rate);
  if (!after.ok()) return after.status();
  double total_after = 0.0;
  for (const SimTime r : after->remaining_times()) total_after += r;
  return total_before - total_after;
}

}  // namespace mqpi::wlm
