#include "pi/batch_kernel.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "common/logging.h"
#include "obs/profiler.h"

#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace mqpi::pi {

namespace detail {

void SweepScalar(const double* v, const double* prefix_w,
                 const double* prefix_vw, std::size_t n, double x,
                 double total_w, double inv_rate, double* eta) {
  for (std::size_t i = 0; i < n; ++i) {
    const double r = prefix_vw[i] - x * prefix_w[i] +
                     (v[i] - x) * (total_w - prefix_w[i]);
    eta[i] = std::max(0.0, r) * inv_rate;
  }
}

#if defined(__aarch64__)
void SweepNeon(const double* v, const double* prefix_w,
               const double* prefix_vw, std::size_t n, double x,
               double total_w, double inv_rate, double* eta) {
  const float64x2_t vx = vdupq_n_f64(x);
  const float64x2_t vtw = vdupq_n_f64(total_w);
  const float64x2_t vinv = vdupq_n_f64(inv_rate);
  const float64x2_t vzero = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t vv = vld1q_f64(v + i);
    const float64x2_t vpw = vld1q_f64(prefix_w + i);
    const float64x2_t vpvw = vld1q_f64(prefix_vw + i);
    // r = pvw - x*pw + (v - x) * (W - pw)
    float64x2_t r = vfmsq_f64(vpvw, vx, vpw);
    r = vfmaq_f64(r, vsubq_f64(vv, vx), vsubq_f64(vtw, vpw));
    r = vmulq_f64(vmaxq_f64(r, vzero), vinv);
    vst1q_f64(eta + i, r);
  }
  for (; i < n; ++i) {
    const double r = prefix_vw[i] - x * prefix_w[i] +
                     (v[i] - x) * (total_w - prefix_w[i]);
    eta[i] = std::max(0.0, r) * inv_rate;
  }
}
#endif  // __aarch64__

}  // namespace detail

namespace {

std::atomic<bool> g_force_scalar{false};

detail::BatchSweepFn ResolveSweep() {
  if (g_force_scalar.load(std::memory_order_relaxed)) {
    return &detail::SweepScalar;
  }
#if defined(MQPI_HAVE_AVX2) && defined(__x86_64__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return &detail::SweepAvx2;
  }
#endif
#if defined(__aarch64__)
  return &detail::SweepNeon;
#endif
  return &detail::SweepScalar;
}

}  // namespace

const char* BatchEstimateKernel::ActiveIsaName() {
  const detail::BatchSweepFn sweep = ResolveSweep();
#if defined(MQPI_HAVE_AVX2) && defined(__x86_64__)
  if (sweep == &detail::SweepAvx2) return "avx2";
#endif
#if defined(__aarch64__)
  if (sweep == &detail::SweepNeon) return "neon";
#endif
  (void)sweep;
  return "scalar";
}

void BatchEstimateKernel::ForceScalar(bool force) {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

void BatchEstimateKernel::RepairOrder() {
  // Insertion sort: O(n + inversions), and consecutive quanta leave
  // only a handful. A reshuffle beyond a few moves per entry (a
  // reweight storm, a fast-forward) hands over to std::sort instead.
  const std::size_t n = order_.size();
  const std::size_t budget = 8 * n + 64;
  std::size_t moves = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const Entry entry = order_[i];
    std::size_t j = i;
    while (j > 0 && FinishesBefore(entry, order_[j - 1])) {
      order_[j] = order_[j - 1];
      --j;
      if (++moves > budget) {
        order_[j] = entry;
        std::sort(order_.begin(), order_.end(), FinishesBefore);
        return;
      }
    }
    order_[j] = entry;
  }
}

void BatchEstimateKernel::Compute(const std::vector<QueryLoad>& loads,
                                  double rate) {
  MQPI_PROF_SITE(prof, "pi.batch_estimate");
  if (!MQPI_DCHECK(rate > 0.0)) rate = 1.0;
  inv_rate_ = 1.0 / rate;

  // Survivors keep their previous finish order and newcomers are set
  // aside: mark each load at its id's previous rank, then compact the
  // previous order in place (writes never overtake reads), re-reading
  // every survivor's cost and weight from `loads`.
  load_at_rank_.assign(order_.size(), kNoRank);
  fresh_.clear();
  QueryId max_id = 0;
  for (std::uint32_t k = 0; k < loads.size(); ++k) {
    const QueryId id = loads[k].id;
    const std::uint32_t rank = RankOf(id);
    if (rank == kNoRank) {
      fresh_.push_back(EntryOf(loads[k]));
    } else {
      load_at_rank_[rank] = k;
    }
    max_id = std::max(max_id, id);
  }
  std::size_t kept = 0;
  for (std::size_t r = 0; r < order_.size(); ++r) {
    rank_[order_[r].id] = kNoRank;
    const std::uint32_t k = load_at_rank_[r];
    if (k == kNoRank) continue;  // departed
    order_[kept++] = EntryOf(loads[k]);
  }
  order_.resize(kept);
  RepairOrder();
  if (!fresh_.empty()) {
    std::sort(fresh_.begin(), fresh_.end(), FinishesBefore);
    merged_.resize(order_.size() + fresh_.size());
    std::merge(order_.begin(), order_.end(), fresh_.begin(), fresh_.end(),
               merged_.begin(), FinishesBefore);
    order_.swap(merged_);
  }

  // Prefix fold in finish order, then the sweep at offset 0.
  const std::size_t n = order_.size();
  if (rank_.size() <= max_id) rank_.resize(max_id + 1, kNoRank);
  v_.resize(n);
  prefix_w_.resize(n);
  prefix_c_.resize(n);
  eta_.resize(n);
  double sum_w = 0.0;
  double sum_c = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Entry& entry = order_[i];
    sum_w += entry.w;
    sum_c += entry.c;
    v_[i] = entry.v;
    prefix_w_[i] = sum_w;
    prefix_c_[i] = sum_c;
    rank_[entry.id] = static_cast<std::uint32_t>(i);
  }
  ResolveSweep()(v_.data(), prefix_w_.data(), prefix_c_.data(), n, 0.0,
                 sum_w, inv_rate_, eta_.data());
}

SimTime BatchEstimateKernel::QuiescentTime() const {
  return prefix_c_.empty() ? 0.0 : prefix_c_.back() * inv_rate_;
}

SimTime BatchEstimateKernel::RemovalBenefit(QueryId target,
                                            QueryId victim) const {
  const std::uint32_t t = RankOf(target);
  const std::uint32_t v = RankOf(victim);
  if (!MQPI_DCHECK(t != kNoRank && v != kNoRank)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return v <= t ? order_[v].c * inv_rate_
                : order_[t].v * order_[v].w * inv_rate_;
}

std::vector<QueryLoad> BatchEstimateKernel::FinishOrder() const {
  std::vector<QueryLoad> out;
  out.reserve(order_.size());
  for (const Entry& entry : order_) {
    out.push_back(QueryLoad{entry.id, entry.c, entry.w});
  }
  return out;
}

}  // namespace mqpi::pi
