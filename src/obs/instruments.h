// The lock-free counter and gauge each layer keeps its own totals in.
// A metrics registry (service::MetricsRegistry) names an instrument and
// reads it in place, so no layer copies totals into another. Both are
// single relaxed atomics, safe to update on the owner's hot path and to
// read from any scrape thread.
#pragma once

#include <atomic>
#include <cstdint>

namespace mqpi::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous value, set outright or moved by concurrent deltas.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

}  // namespace mqpi::obs
