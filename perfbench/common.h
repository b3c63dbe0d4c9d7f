// Shared pieces of the repository benchmark: run options, sample
// statistics, the in-memory span log of the traced run, the profiler
// ledger, and the report every workload fills in.
//
// A workload runs in one or two phases. An untraced phase measures the
// end-to-end metrics with the profiler off. A traced phase (--trace 1)
// turns on obs::GlobalProfiler() and the benchmark's own spans and
// yields the per-layer metrics; the traced run also repeats an untraced
// phase so it can report the tracing overhead.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/profiler.h"
#include "service/pi_service.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Toy-sized inputs for the self-test (seconds, not minutes).
  bool toy = false;
  /// Self-test only: corrupt the benchmark's copy of an output before
  /// its check ("eta" or "recover"), which must then fail.
  std::string tamper;
  /// Where the traced run writes its span file and the churn workload
  /// keeps its journal directories.
  std::string out_dir = ".bench_build/out";
  /// A run's work is fixed by its arguments; on a machine so slow that
  /// it would overrun this wall-clock deadline, the measured loops stop
  /// early (after at least one unit of work) so the run still ends.
  std::int64_t deadline_ns = 0;
  bool past_deadline() const;
};

std::int64_t NowNs();
double SecondsSince(std::int64_t start_ns);

/// An unordered bag of measurements.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  double Mean() const;
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// Counts of operations attempted and failed in one run; every failure
/// also leaves a line on stderr saying what failed.
class OpLedger {
 public:
  void Ok(std::uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& what);
  /// Records one check: attempted always, failed when `ok` is false.
  bool Check(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  int reported_ = 0;
};

/// The benchmark's own spans: name, start, end, parent and the quantum
/// sequence they belong to. Kept in memory by one thread each and
/// written once when the run ends. A disabled log records nothing.
class SpanLog {
 public:
  explicit SpanLog(int tid) : tid_(tid) {}
  void set_enabled(bool on) { enabled_ = on; }

  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::uint64_t seq = 0;
  };

  /// Opens a child of the innermost open span; returns its index, or
  /// -1 when disabled.
  int Open(const char* name, std::uint64_t seq, std::int64_t start_ns);
  void Close(int index, std::int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  int tid() const { return tid_; }
  /// Total duration per span name (ns).
  std::map<std::string, double> TotalNs() const;

 private:
  const int tid_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span that always measures its duration (the untraced phase uses
/// the number) and records itself when the log is enabled.
class Timed {
 public:
  Timed(SpanLog* log, const char* name, std::uint64_t seq = 0);
  ~Timed();
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  /// Ends the span now (idempotent) and returns its duration in us.
  double End();

 private:
  SpanLog* log_;
  int index_ = -1;
  std::int64_t start_ns_;
  std::int64_t end_ns_ = 0;
};

/// Writes every log's spans as one Chrome trace-event file.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

/// Profiler totals accumulated over the measured windows of a phase:
/// reset the profiler when a window opens, fold its sites in when the
/// window closes (so recovery replays or setup never count).
class ProfLedger {
 public:
  void OpenWindow();
  void CloseWindow();
  double SelfNs(const std::string& site) const;
  double TotalNs(const std::string& site) const;
  std::uint64_t Count(const std::string& site) const;
  /// Self time summed over every site whose name starts with one of
  /// `prefixes` (ns).
  double SelfNsUnder(const std::vector<std::string>& prefixes) const;

 private:
  struct Site {
    double total_ns = 0.0;
    double self_ns = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Site> sites_;
};

/// Counter movement read from services' metrics registries, summed over
/// the measured windows of a phase (one service or several in turn).
class CounterDelta {
 public:
  explicit CounterDelta(std::vector<std::string> names)
      : names_(std::move(names)) {}
  /// Baselines every counter of `service` at its current value.
  void Mark(mqpi::service::PiService* service);
  /// Adds the movement since Mark() into the running totals.
  void Fold(mqpi::service::PiService* service);
  double Total(const std::string& name) const;

 private:
  std::vector<std::string> names_;
  std::map<std::string, std::uint64_t> base_;
  std::map<std::string, double> totals_;
};

/// What one run of one workload reports.
struct Report {
  OpLedger ops;
  /// Metric name -> value; units come from the metric registry.
  std::map<std::string, double> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;
};

/// The metrics the benchmark publishes, with their units. End-to-end
/// metrics are reported by untraced runs, per-layer ones by traced runs.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// Peak resident set of this process so far, in MB.
double PeakRssMb();

/// The per-layer metrics derived from a traced phase's profiler ledger
/// and the benchmark's span around each Advance: layer self times per
/// quantum, the unattributed remainder, and the ledger's coverage of the
/// Advance span. `journal_in_step_ns` is journal append time spent
/// inside the steps (0 without a journal).
void AddQuantumLedger(const ProfLedger& prof, double advance_span_ns,
                      double quanta, double journal_in_step_ns,
                      Report* report);

/// The end-to-end latency metrics of an untraced phase: quantum_us.p50
/// and request_us.p50, plus a note with the tail percentiles, sample
/// counts and live query-quanta per second of Advance time.
void AddLatencySummary(const Samples& quantum_us, double live_quanta,
                       const Samples& request_us, const char* request_name,
                       Report* report);

/// The pi.* path counters AddEstimatorPath reads.
CounterDelta EstimatorPathCounters();

/// pi.* path counters the service publishes, as per-layer metrics.
void AddEstimatorPath(const CounterDelta& counters, double quanta,
                      Report* report);

std::string Fmt(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

// The workloads.
Report RunSteady(const Options& options);
Report RunChurn(const Options& options);
Report RunFanout(const Options& options);

}  // namespace perfbench
