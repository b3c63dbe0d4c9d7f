#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

bool Options::past_deadline() const {
  return deadline_ns > 0 && NowNs() > deadline_ns;
}

std::string Fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

// ---- Samples ----------------------------------------------------------------

double Samples::Sum() const {
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

// ---- OpLedger ---------------------------------------------------------------

void OpLedger::Fail(const std::string& what) {
  ++attempted_;
  ++failed_;
  if (reported_ < 20) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    ++reported_;
  }
}

bool OpLedger::Check(bool ok, const std::string& what) {
  if (ok) {
    Ok();
  } else {
    Fail(what);
  }
  return ok;
}

// ---- spans ------------------------------------------------------------------

int SpanLog::Open(const char* name, std::uint64_t seq,
                  std::int64_t start_ns) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  span.seq = seq;
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanLog::Close(int index, std::int64_t end_ns) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
  // Spans close in LIFO order (RAII); tolerate an out-of-order close by
  // dropping everything opened after it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

std::map<std::string, double> SpanLog::TotalNs() const {
  std::map<std::string, double> totals;
  for (const Span& span : spans_) {
    totals[span.name] += static_cast<double>(span.end_ns - span.start_ns);
  }
  return totals;
}

Timed::Timed(SpanLog* log, const char* name, std::uint64_t seq)
    : log_(log), start_ns_(NowNs()) {
  if (log_ != nullptr) index_ = log_->Open(name, seq, start_ns_);
}

Timed::~Timed() { End(); }

double Timed::End() {
  if (end_ns_ == 0) {
    end_ns_ = NowNs();
    if (log_ != nullptr) log_->Close(index_, end_ns_);
  }
  return static_cast<double>(end_ns_ - start_ns_) * 1e-3;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t origin = 0;
  for (const SpanLog* log : logs) {
    for (const auto& span : log->spans()) {
      if (origin == 0 || span.start_ns < origin) origin = span.start_ns;
    }
  }
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (const SpanLog* log : logs) {
    for (std::size_t i = 0; i < log->spans().size(); ++i) {
      const auto& span = log->spans()[i];
      out << (first ? "" : ",\n")
          << Fmt("{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"seq\":%llu}}",
                 span.name, log->tid(),
                 static_cast<double>(span.start_ns - origin) * 1e-3,
                 static_cast<double>(span.end_ns - span.start_ns) * 1e-3, i,
                 span.parent, static_cast<unsigned long long>(span.seq));
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---- profiler ledger --------------------------------------------------------

void ProfLedger::OpenWindow() { mqpi::obs::GlobalProfiler()->Reset(); }

void ProfLedger::CloseWindow() {
  for (const auto& site : mqpi::obs::GlobalProfiler()->Snapshot()) {
    Site& into = sites_[site.name];
    into.total_ns += static_cast<double>(site.total_ns);
    into.self_ns += static_cast<double>(site.self_ns);
    into.count += site.count;
  }
}

double ProfLedger::SelfNs(const std::string& site) const {
  auto it = sites_.find(site);
  return it == sites_.end() ? 0.0 : it->second.self_ns;
}

double ProfLedger::TotalNs(const std::string& site) const {
  auto it = sites_.find(site);
  return it == sites_.end() ? 0.0 : it->second.total_ns;
}

std::uint64_t ProfLedger::Count(const std::string& site) const {
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.count;
}

double ProfLedger::SelfNsUnder(const std::vector<std::string>& prefixes) const {
  double sum = 0.0;
  for (const auto& [name, site] : sites_) {
    for (const auto& prefix : prefixes) {
      if (name.rfind(prefix, 0) == 0) {
        sum += site.self_ns;
        break;
      }
    }
  }
  return sum;
}

// ---- counters ---------------------------------------------------------------

void CounterDelta::Mark(mqpi::service::PiService* service) {
  for (const auto& name : names_) {
    base_[name] = service->metrics()->counter(name)->value();
  }
}

void CounterDelta::Fold(mqpi::service::PiService* service) {
  for (const auto& name : names_) {
    totals_[name] += static_cast<double>(
        service->metrics()->counter(name)->value() - base_[name]);
  }
  Mark(service);
}

double CounterDelta::Total(const std::string& name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second;
}

// ---- metric registry --------------------------------------------------------

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> metrics = {
      {"setup_s", "s"},
      {"quantum_us.p50", "us"},
      {"request_us.p50", "us"},
      {"peak_rss_mb", "MB"},
  };
  return metrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> metrics = {
      {"sched.step_us", "us"},
      {"sched.retained_queries", "count"},
      {"pi.after_step_us", "us"},
      {"pi.batch_estimate_us", "us"},
      {"pi.batch_regen_us", "us"},
      {"pi.batch_regens_per_quantum", "count"},
      {"pi.fast_path_ratio", "ratio"},
      {"pi.simulations_per_quantum", "count"},
      {"pi.eta_mape_multi", "ratio"},
      {"pi.eta_mape_single", "ratio"},
      {"service.build_snapshot_us", "us"},
      {"service.snapshot_rows", "count"},
      {"service.publish_hook_us", "us"},
      {"service.unattributed_us", "us"},
      {"recover.append_us_per_event", "us"},
      {"recover.journal_bytes_per_event", "B"},
      {"recover.history_events", "count"},
      {"recover.checkpoint_mb", "MB"},
      {"recover.load_ms", "ms"},
      {"recover.replay_events_per_s", "1/s"},
      {"recover.recover_s", "s"},
      {"net.encode_us_per_frame", "us"},
      {"net.apply_us_per_frame", "us"},
      {"net.rows_per_frame", "count"},
      {"net.full_frame_ratio", "ratio"},
      {"net.push_snapshots_us", "us"},
      {"net.publish_ops_per_publish", "count"},
      {"net.publish_to_view_us.p50", "us"},
      {"net.publish_to_view_us.p99", "us"},
      {"net.wire_bytes_per_frame", "B"},
      {"bench.tick_lag_us.p90", "us"},
      {"obs.ledger_coverage", "ratio"},
      {"obs.trace_overhead_ratio", "ratio"},
  };
  return metrics;
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void AddQuantumLedger(const ProfLedger& prof, double advance_span_ns,
                      double quanta, double journal_in_step_ns,
                      Report* report) {
  if (quanta <= 0.0) return;
  auto& m = report->metrics;
  const auto per_quantum_us = [&](const char* site) {
    return prof.SelfNs(site) / quanta * 1e-3;
  };
  m["sched.step_us"] = per_quantum_us("sched.step");
  m["pi.after_step_us"] = per_quantum_us("pi.after_step");
  m["pi.batch_estimate_us"] = per_quantum_us("pi.batch_estimate");
  m["pi.batch_regen_us"] = per_quantum_us("pi.batch_regen");
  m["service.build_snapshot_us"] = per_quantum_us("service.build_snapshot");
  m["service.publish_hook_us"] = per_quantum_us("service.publish_hook");
  const double journal_us = journal_in_step_ns / quanta * 1e-3;
  m["service.unattributed_us"] =
      per_quantum_us("service.step_quantum") - journal_us;
  // Coverage: the self time of every site the quantum passes through
  // (the named ones above, plus any site a later change adds under
  // them) against the benchmark's own span around Advance.
  const double ledger_us =
      prof.SelfNsUnder({"sched.", "pi.", "service."}) / quanta * 1e-3;
  const double advance_us = advance_span_ns / quanta * 1e-3;
  m["obs.ledger_coverage"] = advance_us > 0.0 ? ledger_us / advance_us : 0.0;
  report->notes.push_back(Fmt(
      "ledger: %.1f us/quantum attributed of %.1f us in Advance (%.1f%%)",
      ledger_us, advance_us,
      advance_us > 0.0 ? 100.0 * ledger_us / advance_us : 0.0));
}

void AddLatencySummary(const Samples& quantum_us, double live_quanta,
                       const Samples& request_us, const char* request_name,
                       Report* report) {
  report->metrics["quantum_us.p50"] = quantum_us.Median();
  report->metrics["request_us.p50"] = request_us.Median();
  report->notes.push_back(Fmt(
      "quantum_us p50 %.1f p90 %.1f p99 %.1f over %zu quanta; "
      "%.0f live query-quanta per second of Advance",
      quantum_us.Median(), quantum_us.Quantile(0.9), quantum_us.Quantile(0.99),
      quantum_us.size(), live_quanta / (quantum_us.Sum() * 1e-6)));
  report->notes.push_back(Fmt("request_us (%s) p50 %.2f p90 %.2f over %zu",
                              request_name, request_us.Median(),
                              request_us.Quantile(0.9), request_us.size()));
}

CounterDelta EstimatorPathCounters() {
  return CounterDelta({"pi.incremental_fast_path", "pi.incremental_fallback",
                       "pi.batch_kernel_regens", "pi.forecast_cache_miss"});
}

void AddEstimatorPath(const CounterDelta& counters, double quanta,
                      Report* report) {
  auto& m = report->metrics;
  const double fast = counters.Total("pi.incremental_fast_path");
  const double fallback = counters.Total("pi.incremental_fallback");
  m["pi.fast_path_ratio"] =
      fast + fallback > 0.0 ? fast / (fast + fallback) : 0.0;
  if (quanta > 0.0) {
    m["pi.batch_regens_per_quantum"] =
        counters.Total("pi.batch_kernel_regens") / quanta;
    m["pi.simulations_per_quantum"] =
        counters.Total("pi.forecast_cache_miss") / quanta;
  }
}

}  // namespace perfbench
