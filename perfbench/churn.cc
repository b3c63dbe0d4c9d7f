// churn_journaled: one load thread over a manual-mode service with a
// DurableLog attached, fed by a seeded Poisson arrival schedule.
//
// Arrivals come at lambda = 0.95 of capacity (C = 10 000 U/s, mean cost
// 100 U), an MPL cap of 64 makes a queue form during bursts, and the
// §2.4 future model runs with the true lambda and c-bar, so estimates
// come from the simulator fallback. One query in ten is cancelled by its
// session a few quanta after it was submitted. Before each quantum the
// load thread submits every arrival due by then, so the offered work
// does not depend on how fast the service runs.
//
// An episode ends at a fixed number of submissions: the load thread cuts
// a checkpoint, detaches the journal (the crash), recovers the directory
// into a fresh service and requires the recovered snapshot to be
// byte-identical to the last one published before the crash. A run is
// a whole number of episodes, each on its own arrival stream drawn from
// the seed.
//
// The benchmark scores the estimates itself: for every finished query,
// each published ETA is compared with the remaining time the query
// really had (its finish time minus the snapshot time), averaged over
// the query's life, then over queries.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>

#include "common.h"
#include "common/random.h"
#include "engine/planner.h"
#include "recover/durable_log.h"
#include "recover/recovery.h"
#include "service/session.h"
#include "storage/catalog.h"

namespace perfbench {
namespace {

using mqpi::QueryId;
using mqpi::sched::QueryState;

struct Params {
  double rate = 1e4;        // C
  double quantum = 0.1;
  double mean_cost = 100.0;  // c-bar
  double load = 0.95;        // lambda * c-bar / C
  int mpl = 64;
  double cancel_share = 0.1;
  int cancel_max_quanta = 5;
  /// Per episode: the history grows to about 100 times the live set
  /// (about 20 queries at this load).
  int submissions = 2000;
  int setups = 21;
  /// Seconds of --seconds per episode: the work of a run is a whole
  /// number of episodes fixed by its arguments (an episode, recovery
  /// included, takes about this long on a 4-core x86 server).
  double seconds_per_episode = 1.0;
  double lambda() const { return load * rate / mean_cost; }
};

Params ParamsFor(const Options& options) {
  Params p;
  if (options.toy) p.submissions = 1000;
  return p;
}

mqpi::service::PiServiceOptions ServiceOptions(const Params& p) {
  mqpi::service::PiServiceOptions options;
  options.rdbms.processing_rate = p.rate;
  options.rdbms.quantum = p.quantum;
  options.rdbms.max_concurrent = p.mpl;
  options.rdbms.cost_model.noise_sigma = 0.0;
  options.future_prior.lambda = p.lambda();
  options.future_prior.avg_cost = p.mean_cost;
  options.future_prior.avg_weight =
      options.rdbms.weights.WeightOf(mqpi::Priority::kNormal);
  options.start_ticker = false;
  return options;
}

std::uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                        : 0;
}

/// Times every journal append, split by whether it happened inside a
/// quantum's Advance.
class TimingSink : public mqpi::recover::EventSink {
 public:
  TimingSink(mqpi::recover::DurableLog* log, SpanLog* spans)
      : log_(log), spans_(spans) {}
  void Append(const mqpi::recover::Event& event) override {
    Timed span(spans_, "recover.append", seq);
    log_->Append(event);
    const double ns = span.End() * 1e3;
    total_ns += ns;
    if (in_step) in_step_ns += ns;
    ++appends;
  }
  bool in_step = false;
  std::uint64_t seq = 0;
  double total_ns = 0.0;
  double in_step_ns = 0.0;
  std::uint64_t appends = 0;

 private:
  mqpi::recover::DurableLog* log_;
  SpanLog* spans_;
};

/// Seeded arrival stream: exponential gaps in simulated time, costs of
/// 10 U plus an exponential tail (mean c-bar), and a cancel plan.
class Arrivals {
 public:
  Arrivals(const Params& p, std::uint64_t seed) : p_(p), rng_(seed) { Draw(); }
  double next_time() const { return time_; }
  double cost() const { return cost_; }
  /// Quanta after submission at which the session cancels; 0 = never.
  int cancel_after() const { return cancel_after_; }
  void Pop() { Draw(); }

 private:
  void Draw() {
    time_ += rng_.Exponential(p_.lambda());
    cost_ = 10.0 + rng_.Exponential(1.0 / (p_.mean_cost - 10.0));
    cancel_after_ =
        rng_.NextDouble() < p_.cancel_share
            ? static_cast<int>(rng_.UniformInt(1, p_.cancel_max_quanta))
            : 0;
  }
  const Params& p_;
  mqpi::Rng rng_;
  double time_ = 0.0;
  double cost_ = 0.0;
  int cancel_after_ = 0;
};

/// Lifetime ETA error of finished queries (König et al.: a progress
/// estimator is judged over each query's whole life).
class Accuracy {
 public:
  explicit Accuracy(double truth_resolution) : resolution_(truth_resolution) {}

  void Track(QueryId id) { live_[id]; }

  /// Samples every tracked query's ETAs from one snapshot and scores
  /// those that reached a terminal state.
  void Observe(const mqpi::service::ProgressSnapshot& snap) {
    for (auto it = live_.begin(); it != live_.end();) {
      const auto* row = snap.Find(it->first);
      if (row == nullptr) {
        ++it;
        continue;
      }
      if (row->terminal()) {
        if (row->state == QueryState::kFinished) Score(it->second, *row);
        it = live_.erase(it);
        continue;
      }
      it->second.push_back({snap.sim_time, row->eta_multi, row->eta_single});
      ++it;
    }
  }

  double mape_multi() const { return multi_.Mean(); }
  double mape_single() const { return single_.Mean(); }
  std::size_t scored() const { return multi_.size(); }

 private:
  struct Sample {
    double time, multi, single;
  };
  void Score(const std::vector<Sample>& samples,
             const mqpi::service::QueryProgress& row) {
    Samples multi, single;
    for (const Sample& s : samples) {
      const double truth = row.finish_time - s.time;
      if (truth < resolution_) continue;  // inside quantum resolution
      if (std::isfinite(s.multi) && s.multi >= 0.0) {
        multi.Add(std::abs(s.multi - truth) / truth);
      }
      if (std::isfinite(s.single) && s.single >= 0.0) {
        single.Add(std::abs(s.single - truth) / truth);
      }
    }
    if (!multi.empty()) multi_.Add(multi.Mean());
    if (!single.empty()) single_.Add(single.Mean());
  }
  const double resolution_;
  std::map<QueryId, std::vector<Sample>> live_;
  Samples multi_;
  Samples single_;
};

struct Fixture {
  mqpi::storage::Catalog catalog;
  std::string dir;
  std::unique_ptr<mqpi::recover::DurableLog> log;
  std::unique_ptr<TimingSink> sink;
  std::unique_ptr<mqpi::service::PiService> service;
  std::unique_ptr<mqpi::service::Session> session;
  std::unique_ptr<Arrivals> arrivals;
  ~Fixture() {
    session.reset();
    service.reset();
    log.reset();
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }
};

std::unique_ptr<Fixture> Setup(const Params& p, const Options& options,
                               int episode, SpanLog* spans, OpLedger* ops) {
  auto fx = std::make_unique<Fixture>();
  fx->dir = Fmt("%s/churn-%d-%d", options.out_dir.c_str(),
                static_cast<int>(::getpid()), episode);
  std::error_code ignored;
  std::filesystem::remove_all(fx->dir, ignored);
  fx->log = std::make_unique<mqpi::recover::DurableLog>();
  ops->Check(fx->log->Open(fx->dir, {}).ok(), "churn journal open");
  fx->sink = std::make_unique<TimingSink>(fx->log.get(), spans);
  auto service_options = ServiceOptions(p);
  service_options.event_sink = fx->sink.get();
  fx->service = std::make_unique<mqpi::service::PiService>(&fx->catalog,
                                                            service_options);
  fx->session = fx->service->OpenSession("churn");
  fx->arrivals = std::make_unique<Arrivals>(
      p, options.seed * 7919 + static_cast<std::uint64_t>(episode));
  return fx;
}

struct Phase {
  Samples quantum_us;
  Samples submit_us;
  Samples rows;
  Samples recover_s;
  Samples load_ms;
  Samples replay_per_s;
  Samples checkpoint_mb;
  Samples history_events;
  Samples journal_bytes_per_event;
  double live_quanta = 0.0;
  double quanta = 0.0;
  double append_ns = 0.0;
  double append_in_step_ns = 0.0;
  double appends = 0.0;
  double retained = 0.0;
  int episodes = 0;
  /// Truth is known to two quanta: finish times are stamped at quantum
  /// ends and ETAs sampled once per snapshot.
  Accuracy accuracy{0.2};
};

/// One episode: churn until the submission target, then checkpoint,
/// crash and recover.
void Episode(const Params& p, const Options& options, SpanLog* spans,
             ProfLedger* prof, CounterDelta* counters, Phase* phase,
             OpLedger* ops) {
  auto fx = Setup(p, options, phase->episodes++, spans, ops);
  mqpi::service::PiService* service = fx->service.get();
  std::deque<std::pair<std::uint64_t, QueryId>> cancels;  // (quantum, id)
  int submitted = 0;
  std::uint64_t quantum = 0;
  std::uint64_t seq = 0;
  mqpi::service::SnapshotPtr snap = service->snapshot();
  if (prof != nullptr) prof->OpenWindow();
  if (counters != nullptr) counters->Mark(service);
  while (submitted < p.submissions) {
    ++seq;
    fx->sink->seq = seq;
    Timed quantum_span(spans, "bench.quantum", seq);
    const double now = static_cast<double>(quantum) * p.quantum;
    while (submitted < p.submissions &&
           fx->arrivals->next_time() <= now + 1e-9) {
      Timed submit(spans, "service.submit", seq);
      auto id = fx->session->Submit(
          mqpi::engine::QuerySpec::Synthetic(fx->arrivals->cost()));
      phase->submit_us.Add(submit.End());
      ++submitted;
      if (ops->Check(id.ok(), "churn submit")) {
        phase->accuracy.Track(*id);
        if (fx->arrivals->cancel_after() > 0) {
          cancels.emplace_back(quantum + fx->arrivals->cancel_after(), *id);
        }
      }
      fx->arrivals->Pop();
    }
    while (!cancels.empty() && cancels.front().first <= quantum) {
      const QueryId id = cancels.front().second;
      cancels.pop_front();
      // Cancel only what the last snapshot shows still live: a query
      // that finished first needs no cancel (and Abort would refuse it).
      const auto* row = snap->Find(id);
      if (row != nullptr && row->terminal()) continue;
      Timed cancel(spans, "service.cancel", seq);
      ops->Check(fx->session->Abort(id).ok(), "churn cancel");
    }
    {
      Timed advance(spans, "service.advance", seq);
      fx->sink->in_step = true;
      ops->Check(service->Advance(p.quantum).ok(), "churn advance");
      fx->sink->in_step = false;
      const double us = advance.End();
      phase->quantum_us.Add(us);
    }
    ++quantum;
    phase->quanta += 1;
    snap = service->snapshot();
    phase->live_quanta += snap->num_running + snap->num_queued;
    phase->rows.Add(static_cast<double>(snap->queries.size()));
    Timed score(spans, "bench.score", seq);
    phase->accuracy.Observe(*snap);
  }
  if (counters != nullptr) counters->Fold(service);
  if (prof != nullptr) prof->CloseWindow();
  phase->retained = static_cast<double>(snap->queries.size());
  phase->append_ns += fx->sink->total_ns;
  phase->append_in_step_ns += fx->sink->in_step_ns;
  phase->appends += static_cast<double>(fx->sink->appends);
  const std::uint64_t events = fx->log->history_size();
  phase->history_events.Add(static_cast<double>(events));
  phase->journal_bytes_per_event.Add(
      static_cast<double>(FileBytes(
          mqpi::recover::DurableLog::JournalPath(fx->dir, 0))) /
      static_cast<double>(std::max<std::uint64_t>(events, 1)));

  {
    Timed checkpoint(spans, "recover.checkpoint", seq);
    ops->Check(mqpi::recover::Checkpoint(service, fx->log.get()).ok(),
               "churn checkpoint");
  }
  phase->checkpoint_mb.Add(
      static_cast<double>(FileBytes(mqpi::recover::DurableLog::CheckpointPath(
          fx->dir, fx->log->active_index()))) /
      (1024.0 * 1024.0));
  const std::string before =
      mqpi::recover::EncodeSnapshotBytes(service->snapshot());
  ops->Check(fx->log->Sync().ok(), "churn journal sync");
  // The crash: the journal is cut off and the process state is gone.
  service->SetEventSink(nullptr);
  fx->session.reset();
  fx->service.reset();
  fx->log.reset();

  {
    Timed load(spans, "recover.load", seq);
    auto loaded = mqpi::recover::DurableLog::Load(fx->dir);
    phase->load_ms.Add(load.End() * 1e-3);
    ops->Check(loaded.ok() && loaded->events.size() == events + 1,
               "churn journal load");  // + the checkpoint's probe
  }
  Timed recover(spans, "recover.recover", seq);
  auto recovered =
      mqpi::recover::Recover(&fx->catalog, fx->dir, ServiceOptions(p));
  const double recover_s = recover.End() * 1e-6;
  phase->recover_s.Add(recover_s);
  if (!ops->Check(recovered.ok(), "churn recover")) return;
  phase->replay_per_s.Add(static_cast<double>(recovered->events_replayed) /
                          recover_s);
  std::string after =
      mqpi::recover::EncodeSnapshotBytes(recovered->service->snapshot());
  if (options.tamper == "recover" && !after.empty()) {
    after[after.size() / 2] ^= 0x01;  // self-test: must fail below
  }
  ops->Check(recovered->verified, "churn checkpoint verification");
  ops->Check(after == before, "churn recovered snapshot differs");
  recovered->sessions.clear();
  recovered->service.reset();
}

Phase Measure(const Params& p, const Options& options, std::int64_t episodes,
              SpanLog* spans, ProfLedger* prof, CounterDelta* counters,
              OpLedger* ops) {
  Phase phase;
  while (phase.episodes < episodes &&
         (phase.episodes == 0 || !options.past_deadline())) {
    Episode(p, options, spans, prof, counters, &phase, ops);
  }
  return phase;
}

}  // namespace

Report RunChurn(const Options& options) {
  const Params p = ParamsFor(options);
  Report report;
  std::error_code ignored;
  std::filesystem::create_directories(options.out_dir, ignored);

  Samples setup_s;
  for (int i = 0; i < p.setups; ++i) {
    const std::int64_t start = NowNs();
    auto fx = Setup(p, options, -1 - i, nullptr, &report.ops);
    setup_s.Add(SecondsSince(start));
  }

  const auto episodes = std::max<std::int64_t>(
      1, std::llround(options.seconds / p.seconds_per_episode /
                      (options.trace ? 2 : 1)));
  const Phase plain =
      Measure(p, options, episodes, nullptr, nullptr, nullptr, &report.ops);
  auto& m = report.metrics;
  m["setup_s"] = setup_s.Median();
  report.notes.push_back(Fmt(
      "churn_journaled: %d episodes of %d submissions; recover %.3f s, "
      "checkpoint %.2f MB, ETA MAPE multi %.4f single %.4f over %zu "
      "finished queries",
      plain.episodes, p.submissions, plain.recover_s.Median(),
      plain.checkpoint_mb.Median(), plain.accuracy.mape_multi(),
      plain.accuracy.mape_single(), plain.accuracy.scored()));
  AddLatencySummary(plain.quantum_us, plain.live_quanta, plain.submit_us,
                    "Session::Submit", &report);

  if (options.trace) {
    SpanLog spans(1);
    ProfLedger prof;
    CounterDelta counters = EstimatorPathCounters();
    mqpi::obs::GlobalProfiler()->set_enabled(true);
    spans.set_enabled(true);
    const Phase traced = Measure(p, options, episodes, &spans, &prof,
                                 &counters, &report.ops);
    mqpi::obs::GlobalProfiler()->set_enabled(false);
    spans.set_enabled(false);

    AddQuantumLedger(prof, spans.TotalNs()["service.advance"], traced.quanta,
                     traced.append_in_step_ns, &report);
    AddEstimatorPath(counters, traced.quanta, &report);
    m["service.snapshot_rows"] = traced.rows.Mean();
    m["sched.retained_queries"] = traced.retained;
    m["pi.eta_mape_multi"] = traced.accuracy.mape_multi();
    m["pi.eta_mape_single"] = traced.accuracy.mape_single();
    m["recover.append_us_per_event"] =
        traced.append_ns / std::max(traced.appends, 1.0) * 1e-3;
    m["recover.journal_bytes_per_event"] =
        traced.journal_bytes_per_event.Median();
    m["recover.history_events"] = traced.history_events.Median();
    m["recover.checkpoint_mb"] = traced.checkpoint_mb.Median();
    m["recover.load_ms"] = traced.load_ms.Median();
    m["recover.replay_events_per_s"] = traced.replay_per_s.Median();
    m["recover.recover_s"] = traced.recover_s.Median();
    m["obs.trace_overhead_ratio"] =
        traced.quantum_us.Median() / plain.quantum_us.Median();
    const std::string path = options.out_dir + "/trace-churn_journaled-" +
                             std::to_string(options.seed) + ".json";
    report.ops.Check(WriteSpans(path, {&spans}), "write " + path);
    report.notes.push_back("spans written to " + path);
  }
  m["peak_rss_mb"] = PeakRssMb();
  return report;
}

}  // namespace perfbench
