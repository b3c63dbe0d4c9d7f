#include "service/metrics.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"

namespace mqpi::service {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  // %g keeps counters integral-looking and latencies compact.
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

Labels Canonical(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

/// "k=v,k2=v2" — the within-family map key and the TextDump suffix.
std::string LabelKey(const Labels& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out += ",";
    out += k + "=" + v;
  }
  return out;
}

/// Dots are the only character our dotted.lowercase convention uses
/// that Prometheus metric names disallow.
std::string PromName(const std::string& name) {
  std::string out = name;
  std::replace(out.begin(), out.end(), '.', '_');
  return out;
}

std::string PromEscape(const std::string& v) {
  std::string out;
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// `k="v",k2="v2"` — no surrounding braces so callers can append `le`.
std::string PromLabelBody(const Labels& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out += ",";
    out += k + "=\"" + PromEscape(v) + "\"";
  }
  return out;
}

std::string PromSeries(const std::string& name, const std::string& body) {
  return body.empty() ? name : name + "{" + body + "}";
}

}  // namespace

std::vector<double> Histogram::DefaultBounds() {
  return {0.0625, 0.25, 1.0, 4.0, 16.0, 64.0, 256.0, 1024.0};
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {}

void Histogram::Observe(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  ++buckets_[i];
  ++count_;
  sum_ += v;
  if (count_ == 1) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mu_);
  return min_;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_;
}

double Histogram::Quantile(double quantile) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) return 0.0;
  quantile = std::clamp(quantile, 0.0, 1.0);
  const double target = quantile * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (seen + buckets_[i] < target) {
      seen += buckets_[i];
      continue;
    }
    // Interpolation endpoints clamped to the observed range: bucket
    // bounds say nothing about where observations sit inside them, and
    // the overflow bucket has no upper bound at all — its ceiling is
    // the observed max.
    double lo = i == 0 ? min_ : std::max(bounds_[i - 1], min_);
    double hi = i < bounds_.size() ? std::min(bounds_[i], max_) : max_;
    if (hi < lo) hi = lo;
    if (buckets_[i] == 0) return lo;
    const double within =
        (target - static_cast<double>(seen)) /
        static_cast<double>(buckets_[i]);
    return std::clamp(lo + within * (hi - lo), min_, max_);
  }
  return max_;
}

Histogram::Snapshot Histogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot s;
  s.bounds = bounds_;
  s.cumulative.reserve(buckets_.size());
  std::uint64_t cumulative = 0;
  for (std::uint64_t bucket : buckets_) {
    cumulative += bucket;
    s.cumulative.push_back(cumulative);
  }
  s.count = count_;
  s.sum = sum_;
  s.min = min_;
  s.max = max_;
  return s;
}

std::string Histogram::Render() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "count=" + FormatDouble(static_cast<double>(count_)) +
                    " sum=" + FormatDouble(sum_) + " mean=" +
                    FormatDouble(count_ > 0
                                     ? sum_ / static_cast<double>(count_)
                                     : 0.0) +
                    " min=" + FormatDouble(min_) +
                    " max=" + FormatDouble(max_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    cumulative += buckets_[i];
    out += " le_" + FormatDouble(bounds_[i]) + "=" +
           FormatDouble(static_cast<double>(cumulative));
  }
  cumulative += buckets_.back();
  out += " inf=" + FormatDouble(static_cast<double>(cumulative));
  return out;
}

template <typename T, typename Make>
T* MetricsRegistry::Lookup(FamilyMap<T>* families, const std::string& name,
                           const Labels& labels, Make make) {
  std::lock_guard<std::mutex> lock(mu_);
  Labels canon = Canonical(labels);
  auto& series = (*families)[name][LabelKey(canon)];
  if (series.instrument == nullptr) {
    series.labels = std::move(canon);
    series.instrument = make(&series.owned);
  }
  return series.instrument;
}

Counter* MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels) {
  return Lookup(&counters_, name, labels, [](auto* owned) {
    return (*owned = std::make_unique<Counter>()).get();
  });
}

Counter* MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels, Counter* owned) {
  Counter* registered =
      Lookup(&counters_, name, labels, [owned](auto*) { return owned; });
  MQPI_DCHECK(registered == owned);
  return registered;
}

Gauge* MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  return Lookup(&gauges_, name, labels, [](auto* owned) {
    return (*owned = std::make_unique<Gauge>()).get();
  });
}

Histogram* MetricsRegistry::histogram(const std::string& name,
                                      const Labels& labels,
                                      std::vector<double> bounds) {
  return Lookup(&histograms_, name, labels, [&bounds](auto* owned) {
    if (bounds.empty()) bounds = Histogram::DefaultBounds();
    return (*owned = std::make_unique<Histogram>(std::move(bounds))).get();
  });
}

std::string MetricsRegistry::TextDump() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  const auto series_name = [](const std::string& name,
                              const std::string& key) {
    return key.empty() ? name : name + "{" + key + "}";
  };
  for (const auto& [name, family] : counters_) {
    for (const auto& [key, series] : family) {
      out += "counter   " + series_name(name, key) + " " +
             FormatDouble(static_cast<double>(series.instrument->value())) +
             "\n";
    }
  }
  for (const auto& [name, family] : gauges_) {
    for (const auto& [key, series] : family) {
      out += "gauge     " + series_name(name, key) + " " +
             FormatDouble(series.instrument->value()) + "\n";
    }
  }
  for (const auto& [name, family] : histograms_) {
    for (const auto& [key, series] : family) {
      out += "histogram " + series_name(name, key) + " " +
             series.instrument->Render() + "\n";
    }
  }
  return out;
}

std::string MetricsRegistry::PrometheusDump() const {
  return PrometheusDump(Labels{});
}

std::string MetricsRegistry::PrometheusDump(const Labels& extra) const {
  // Per-shard registries are identical by construction; the exporter
  // injects {shard="i"} here so one scrape can tell them apart.
  const auto with_extra = [&extra](const Labels& labels) {
    if (extra.empty()) return labels;
    Labels merged = labels;
    merged.insert(merged.end(), extra.begin(), extra.end());
    return Canonical(merged);
  };
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, family] : counters_) {
    const std::string prom = PromName(name);
    out += "# TYPE " + prom + " counter\n";
    for (const auto& [key, series] : family) {
      out += PromSeries(prom, PromLabelBody(with_extra(series.labels))) +
             " " +
             FormatDouble(static_cast<double>(series.instrument->value())) +
             "\n";
    }
  }
  for (const auto& [name, family] : gauges_) {
    const std::string prom = PromName(name);
    out += "# TYPE " + prom + " gauge\n";
    for (const auto& [key, series] : family) {
      out += PromSeries(prom, PromLabelBody(with_extra(series.labels))) +
             " " + FormatDouble(series.instrument->value()) + "\n";
    }
  }
  for (const auto& [name, family] : histograms_) {
    const std::string prom = PromName(name);
    out += "# TYPE " + prom + " histogram\n";
    for (const auto& [key, series] : family) {
      const Histogram::Snapshot snap = series.instrument->snapshot();
      const std::string base = PromLabelBody(with_extra(series.labels));
      const std::string sep = base.empty() ? "" : ",";
      for (std::size_t i = 0; i < snap.bounds.size(); ++i) {
        out += prom + "_bucket{" + base + sep + "le=\"" +
               FormatDouble(snap.bounds[i]) + "\"} " +
               FormatDouble(static_cast<double>(snap.cumulative[i])) + "\n";
      }
      out += prom + "_bucket{" + base + sep + "le=\"+Inf\"} " +
             FormatDouble(static_cast<double>(snap.count)) + "\n";
      out += PromSeries(prom + "_sum", base) + " " + FormatDouble(snap.sum) +
             "\n";
      out += PromSeries(prom + "_count", base) + " " +
             FormatDouble(static_cast<double>(snap.count)) + "\n";
    }
  }
  return out;
}

}  // namespace mqpi::service
