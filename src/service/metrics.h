// Metrics: a small thread-safe registry of counters, gauges, and
// latency histograms for the PI service layer.
//
// An instrument is created on first use (`registry.counter("name")`)
// and owned by the registry, or owned by the layer that counts it and
// registered once (`counter("name", labels, &owned)`; the owner must
// outlive the registry — PiService declares its MultiQueryPi before its
// registry). Either way a scrape reads the instrument in place, and a
// later lookup of the series returns the registered pointer. Pointers
// are stable, so hot paths cache them and update lock-free (counters
// and gauges are single atomics; histograms take a short
// per-instrument mutex). Every lookup may also carry labels —
// `histogram("pi.estimate_error", {{"priority", "high"}})` — which key
// a distinct series within the same named family, mirroring the
// Prometheus data model.
//
// Two renderings:
//   - `TextDump()` — flat, grep-friendly lines for the dashboard
//     example and tests. Unlabeled series render exactly as they always
//     have; labeled series append `{k=v,...}` to the name:
//
//       counter   service.quanta_stepped 1042
//       counter   wlm.blocks{priority=high} 3
//       gauge     queries.running 3
//       histogram step.wall_ms count=1042 sum=96.1 mean=0.092
//                 min=0.01 max=1.8 le_0.25=820 ... inf=1042
//
//   - `PrometheusDump()` — the Prometheus text exposition format
//     (`# TYPE` headers, `name{label="v"} value` samples, histogram
//     `_bucket{le="..."}` cumulative series). Dots in names become
//     underscores, the one transform needed for a legal metric name.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/instruments.h"

namespace mqpi::service {

/// Key/value pairs distinguishing series within a metric family.
/// Order-insensitive: the registry canonicalises by sorting on key.
using Labels = std::vector<std::pair<std::string, std::string>>;

using Counter = obs::Counter;
using Gauge = obs::Gauge;

/// Fixed-boundary histogram (cumulative buckets, Prometheus-style) with
/// count/sum/min/max. Default boundaries suit millisecond latencies.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds = DefaultBounds());

  void Observe(double v);

  std::uint64_t count() const;
  double sum() const;
  double min() const;
  double max() const;
  /// Value below which `quantile` (in [0,1]) of observations fall,
  /// linearly interpolated within its bucket and clamped to the
  /// observed [min, max] (the overflow bucket has no upper bound, so
  /// interpolation there runs to the observed max); 0 when empty.
  double Quantile(double quantile) const;

  static std::vector<double> DefaultBounds();

  /// Consistent point-in-time copy of the full state, for renderers
  /// that need buckets and summary stats together.
  struct Snapshot {
    std::vector<double> bounds;
    /// Cumulative counts per bound, plus the +Inf total at the end
    /// (size = bounds.size() + 1).
    std::vector<std::uint64_t> cumulative;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  Snapshot snapshot() const;

  /// "count=N sum=S mean=M min=L max=X le_<b>=c ... inf=N".
  std::string Render() const;

 private:
  mutable std::mutex mu_;
  std::vector<double> bounds_;          // ascending upper bounds
  std::vector<std::uint64_t> buckets_;  // bounds_.size() + 1 (overflow)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Named instruments, created on demand or registered by their owner.
/// Thread-safe; instrument pointers remain valid for the registry's
/// lifetime. A (name, labels) pair identifies one series; the same name
/// with different labels is the same family rendered as separate
/// samples.
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name, const Labels& labels = {});
  /// Registers `owned` (not owned by the registry; must outlive it) as
  /// the series and returns it. The series must not exist yet.
  Counter* counter(const std::string& name, const Labels& labels,
                   Counter* owned);
  Gauge* gauge(const std::string& name, const Labels& labels = {});
  /// `bounds` applies only when this call creates the series; later
  /// lookups return the existing instrument regardless.
  Histogram* histogram(const std::string& name, const Labels& labels = {},
                       std::vector<double> bounds = {});

  /// Every series, one per line, sorted by name (then label set)
  /// within each kind.
  std::string TextDump() const;

  /// The Prometheus text exposition format: one `# TYPE` header per
  /// family, then its samples. Histograms expand to `_bucket` series
  /// (cumulative, with the `le` label and a `+Inf` terminator) plus
  /// `_sum` and `_count`.
  std::string PrometheusDump() const;
  /// Same exposition with `extra` merged into every series' label set
  /// (the HTTP exporter injects `shard="i"` per shard registry).
  std::string PrometheusDump(const Labels& extra) const;

 private:
  template <typename T>
  struct Series {
    Labels labels;  // canonical (sorted by key)
    T* instrument = nullptr;  // == owned.get() unless registered
    std::unique_ptr<T> owned;
  };
  /// family name -> canonical label string -> series.
  template <typename T>
  using FamilyMap = std::map<std::string, std::map<std::string, Series<T>>>;
  /// The (name, labels) series' instrument; if absent, registers
  /// `make(&series.owned)`.
  template <typename T, typename Make>
  T* Lookup(FamilyMap<T>* families, const std::string& name,
            const Labels& labels, Make make);

  mutable std::mutex mu_;
  FamilyMap<Counter> counters_;
  FamilyMap<Gauge> gauges_;
  FamilyMap<Histogram> histograms_;
};

}  // namespace mqpi::service
