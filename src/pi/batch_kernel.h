// BatchEstimateKernel: the paper's Section 2.2 stage formula for every
// running query in one exact pass.
//
// Under weighted fair sharing a query with remaining cost c and weight
// w finishes in order of its remaining ratio v = c/w. With the running
// set sorted by (v, id) and prefix sums over w and c, Abel-summing the
// stage durations collapses query i's remaining time to
//
//   eta[i] = (prefix_c[i] + v[i] * (W - prefix_w[i])) / C
//
// — one elementwise sweep with no data dependence between lanes, so it
// vectorizes (AVX2 on x86-64, NEON on aarch64, portable scalar
// everywhere else; the implementation is picked once at runtime from
// CPU features and can be pinned to scalar for differential tests).
//
// Each Compute is fed the authoritative loads, so nothing is carried
// that could drift from the scheduler's costs. What is carried is the
// previous finish order: survivors keep their relative order,
// newcomers are sorted and merged in, and an insertion sort repairs
// the few inversions that non-proportional progress (operator
// granularity, perturbed speeds) introduces between calls — O(n) on
// the nearly-sorted input of consecutive quanta, O(n log n) worst case.
//
// A dense id -> finish-rank table makes every per-query read O(1): the
// remaining time, the quiescent time sum(c)/C (Section 3.3), and the
// Section 3.1 benefit of removing one query on another's remaining
// time, which is exactly additive across victims because removal never
// changes the survivors' ratios.
//
// Exactness contract: answers equal StageProfile::Compute over the same
// loads up to floating-point rounding (the prefix sums accumulate in
// finish order, and SIMD lanes may contract multiply-adds); the
// differential suite pins 1e-9 against StageProfile and 1e-6 against
// the analytic simulator's event replay.
//
// Thread-safety: none; externally synchronized like the rest of the PI
// stack (PiService serializes under its state lock). The ForceScalar
// toggle is process-global and intended for tests/benches only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.h"
#include "pi/stage_profile.h"

namespace mqpi::pi {

namespace detail {

/// The elementwise stage sweep all ISA variants implement:
/// eta[i] = max(0, prefix_vw[i] - x*prefix_w[i]
///              + (v[i] - x) * (total_w - prefix_w[i])) * inv_rate.
using BatchSweepFn = void (*)(const double* v, const double* prefix_w,
                              const double* prefix_vw, std::size_t n,
                              double x, double total_w, double inv_rate,
                              double* eta);

void SweepScalar(const double* v, const double* prefix_w,
                 const double* prefix_vw, std::size_t n, double x,
                 double total_w, double inv_rate, double* eta);
#if defined(MQPI_HAVE_AVX2)
/// Compiled with -mavx2 -mfma in batch_kernel_avx2.cc; only ever
/// dispatched to after a runtime __builtin_cpu_supports check.
void SweepAvx2(const double* v, const double* prefix_w,
               const double* prefix_vw, std::size_t n, double x,
               double total_w, double inv_rate, double* eta);
#endif
#if defined(__aarch64__)
void SweepNeon(const double* v, const double* prefix_w,
               const double* prefix_vw, std::size_t n, double x,
               double total_w, double inv_rate, double* eta);
#endif

}  // namespace detail

class BatchEstimateKernel {
 public:
  BatchEstimateKernel() = default;
  BatchEstimateKernel(const BatchEstimateKernel&) = delete;
  BatchEstimateKernel& operator=(const BatchEstimateKernel&) = delete;

  /// Sorts `loads` into finish order and sweeps every remaining time at
  /// aggregate rate `rate` (> 0). The caller guarantees unique ids,
  /// finite costs >= 0 and finite weights > 0. Ids index a dense table,
  /// so they should be small (scheduler ids are dense from 1).
  void Compute(const std::vector<QueryLoad>& loads, double rate);

  std::size_t size() const { return order_.size(); }

  /// Remaining time of `id` in the last Compute, or nullptr if `id` was
  /// not part of it. O(1).
  const SimTime* Find(QueryId id) const {
    const std::uint32_t rank = RankOf(id);
    return rank == kNoRank ? nullptr : &eta_[rank];
  }

  /// When the last query finishes: sum(c) / C (0 if empty). O(1).
  SimTime QuiescentTime() const;

  /// Shortening of `target`'s remaining time if `victim` were removed:
  /// c_victim / C when the victim finishes no later than the target,
  /// v_target * w_victim / C otherwise (paper Section 3.1). Both must
  /// be part of the last Compute (checked: NaN otherwise). O(1).
  SimTime RemovalBenefit(QueryId target, QueryId victim) const;

  /// The last Compute's loads in finish order (ascending (c/w, id)).
  std::vector<QueryLoad> FinishOrder() const;

  /// The sweep implementation runtime dispatch resolves to right now
  /// ("avx2", "neon", or "scalar"), honoring ForceScalar.
  static const char* ActiveIsaName();

  /// Test/bench hook: true pins every kernel in the process to the
  /// portable scalar sweep; false restores CPU-feature dispatch.
  static void ForceScalar(bool force);

 private:
  static constexpr std::uint32_t kNoRank = ~std::uint32_t{0};

  struct Entry {
    QueryId id;
    double v;  // c / w, the finish key
    double w;
    double c;
  };
  static Entry EntryOf(const QueryLoad& q) {
    return Entry{q.id, q.remaining_cost / q.weight, q.weight,
                 q.remaining_cost};
  }
  static bool FinishesBefore(const Entry& a, const Entry& b) {
    if (a.v != b.v) return a.v < b.v;
    return a.id < b.id;
  }

  std::uint32_t RankOf(QueryId id) const {
    return id < rank_.size() ? rank_[id] : kNoRank;
  }
  /// Re-sorts order_ (survivors in carried order, nearly sorted).
  void RepairOrder();

  std::vector<Entry> order_;   // finish order of the last Compute
  std::vector<Entry> fresh_;   // ids new since the last Compute
  std::vector<Entry> merged_;  // merge output, swapped into order_
  std::vector<std::uint32_t> rank_;          // id -> index into order_
  std::vector<std::uint32_t> load_at_rank_;  // previous rank -> load index
  // Sweep columns, parallel to order_.
  std::vector<double> v_;
  std::vector<double> prefix_w_;
  std::vector<double> prefix_c_;
  std::vector<double> eta_;
  double inv_rate_ = 0.0;
};

}  // namespace mqpi::pi
