// steady_fastpath: a closed loop of one load thread over a manual-mode
// service holding a fixed set of long synthetic queries.
//
// Every query's work fits inside the forecast horizon and none finishes
// during the run, so each quantum is Rdbms::Step -> PiManager::AfterStep
// (drift repair) -> the fast-path treap and batch kernel -> a snapshot
// of every row, with no lifecycle history at all. After each quantum the
// load thread asks four seeded what-if questions (block one running
// query, what is another's remaining time?).
//
// Output check, every quantum: each running row's eta_multi equals the
// paper's §2.2 closed form computed here from that snapshot's
// remaining_cost, weight and measured_rate; each what-if answer equals
// the closed form with the victim removed.
#include <algorithm>
#include <cmath>
#include <memory>

#include "common.h"
#include "common/random.h"
#include "engine/planner.h"
#include "service/session.h"
#include "storage/catalog.h"

namespace perfbench {
namespace {

using mqpi::QueryId;
using mqpi::service::ProgressSnapshot;

struct Params {
  int queries = 2000;
  double rate = 1e4;      // C, work units per second
  double quantum = 0.1;   // simulated seconds
  double min_cost = 1e6;  // keeps every query alive for the whole run
  double max_cost = 4e7;  // 2000 queries: ~4.1e6 s of work < 1e7 horizon
  int warmup_quanta = 60;  // past the first 5 s rate window
  int probes = 4;
  int setups = 3;
  /// Quanta measured per second of --seconds: the work of a run is
  /// fixed by its arguments (about --seconds of wall time on a 4-core
  /// x86 server), never by how fast the machine happens to be, so the
  /// state the service accumulates is the same on every run.
  double quanta_per_second = 140.0;
};

Params ParamsFor(const Options& options) {
  Params p;
  if (options.toy) {
    p.queries = 200;
    p.warmup_quanta = 55;
    p.setups = 2;
  }
  return p;
}

// Relative tolerance of the closed-form check: the fast path re-anchors a
// query's mirrored cost once it drifts 1e-9 from the scheduler's, so
// ETAs agree to about 1e-9 of their size.
constexpr double kRelTolerance = 1e-6;
constexpr double kAbsTolerance = 1e-6;  // simulated seconds

bool Close(double got, double want) {
  return std::isfinite(got) &&
         std::abs(got - want) <=
             kAbsTolerance + kRelTolerance * std::abs(want);
}

struct Fixture {
  mqpi::storage::Catalog catalog;
  std::unique_ptr<mqpi::service::PiService> service;
  std::unique_ptr<mqpi::service::Session> session;  // dies before service
  std::vector<QueryId> ids;
  ~Fixture() { session.reset(); }
};

std::unique_ptr<Fixture> Setup(const Params& p, std::uint64_t seed,
                               OpLedger* ops) {
  auto fx = std::make_unique<Fixture>();
  mqpi::service::PiServiceOptions options;
  options.rdbms.processing_rate = p.rate;
  options.rdbms.quantum = p.quantum;
  options.rdbms.cost_model.noise_sigma = 0.0;
  options.start_ticker = false;
  fx->service =
      std::make_unique<mqpi::service::PiService>(&fx->catalog, options);
  fx->session = fx->service->OpenSession("steady");
  mqpi::Rng rng(seed);
  for (int i = 0; i < p.queries; ++i) {
    const double cost = rng.Uniform(p.min_cost, p.max_cost);
    const auto priority = static_cast<mqpi::Priority>(rng.UniformInt(0, 2));
    auto id = fx->session->Submit(mqpi::engine::QuerySpec::Synthetic(cost),
                                  priority);
    if (!ops->Check(id.ok(), "steady submit")) continue;
    fx->ids.push_back(*id);
  }
  for (int i = 0; i < p.warmup_quanta; ++i) {
    ops->Check(fx->service->Advance(p.quantum).ok(), "steady warm-up");
  }
  return fx;
}

/// The §2.2 closed form over one snapshot's running rows, sorted by
/// virtual finish v = c / w:
///   r_i = (sum_{j <= i} c_j + v_i * sum_{j > i} w_j) / C.
struct ClosedForm {
  std::vector<const mqpi::service::QueryProgress*> rows;  // sorted by v
  std::vector<double> eta;                                // aligned
  std::vector<std::size_t> rank;  // row index in snapshot -> sorted pos
  double rate = 0.0;

  explicit ClosedForm(const ProgressSnapshot& snap) : rate(snap.measured_rate) {
    rank.assign(snap.queries.size(), SIZE_MAX);
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < snap.queries.size(); ++i) {
      if (snap.queries[i].state == mqpi::sched::QueryState::kRunning) {
        order.push_back(i);
      }
    }
    const auto v = [&](std::size_t i) {
      return snap.queries[i].remaining_cost / snap.queries[i].weight;
    };
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return v(a) < v(b); });
    double suffix_w = 0.0;
    for (std::size_t i : order) suffix_w += snap.queries[i].weight;
    double prefix_c = 0.0;
    eta.resize(order.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      const auto& q = snap.queries[order[k]];
      prefix_c += q.remaining_cost;
      suffix_w -= q.weight;
      eta[k] = (prefix_c + v(order[k]) * suffix_w) / rate;
      rows.push_back(&q);
      rank[order[k]] = k;
    }
  }

  /// Benefit to `target`'s remaining time of removing `victim` (§3.1):
  /// c_b / C when the victim finishes first, else v_t * w_b / C.
  double RemovalBenefit(const mqpi::service::QueryProgress& target,
                        const mqpi::service::QueryProgress& victim) const {
    const double vt = target.remaining_cost / target.weight;
    const double vb = victim.remaining_cost / victim.weight;
    return vb <= vt ? victim.remaining_cost / rate : vt * victim.weight / rate;
  }
};

struct Phase {
  Samples quantum_us;
  Samples whatif_us;
  Samples rows;
  double live_quanta = 0.0;
  double quanta = 0.0;
};

/// Runs `quanta` quanta against the fixture.
Phase Measure(const Params& p, const Options& options, Fixture* fx,
              std::int64_t quanta, mqpi::Rng* rng, SpanLog* spans,
              OpLedger* ops) {
  Phase phase;
  std::uint64_t seq = fx->service->snapshot()->sequence;
  for (std::int64_t n = 0; n < quanta && (n == 0 || !options.past_deadline());
       ++n) {
    ++seq;
    Timed quantum_span(spans, "bench.quantum", seq);
    double advance_us;
    {
      Timed advance(spans, "service.advance", seq);
      ops->Check(fx->service->Advance(p.quantum).ok(), "steady advance");
      advance_us = advance.End();
    }
    phase.quantum_us.Add(advance_us);
    phase.quanta += 1;
    const auto snap = fx->service->snapshot();
    phase.live_quanta += snap->num_running;
    phase.rows.Add(static_cast<double>(snap->queries.size()));
    ops->Check(snap->sequence == seq && snap->num_running == p.queries,
               "steady snapshot sequence or running set");

    struct Probe {
      std::size_t victim, target;
      double eta;
    };
    std::vector<Probe> probes;
    for (int k = 0; k < p.probes; ++k) {
      const auto count = static_cast<std::int64_t>(fx->ids.size());
      const auto victim =
          static_cast<std::size_t>(rng->UniformInt(0, count - 1));
      auto target = static_cast<std::size_t>(rng->UniformInt(0, count - 2));
      if (target >= victim) ++target;
      mqpi::pi::MultiQueryPi::WhatIf scenario;
      scenario.blocked.push_back(fx->ids[victim]);
      Timed whatif(spans, "service.whatif", seq);
      auto eta = fx->service->EstimateWhatIf(scenario, fx->ids[target]);
      phase.whatif_us.Add(whatif.End());
      if (ops->Check(eta.ok(), "steady what-if")) {
        probes.push_back({victim, target, *eta});
      }
    }

    Timed check(spans, "bench.check", seq);
    ProgressSnapshot copy;
    const ProgressSnapshot* checked = snap.get();
    if (options.tamper == "eta") {
      // Self-test: one perturbed ETA must fail the check below.
      copy = *snap;
      for (auto& q : copy.queries) {
        if (q.state == mqpi::sched::QueryState::kRunning) {
          q.eta_multi *= 1.0 + 1e-4;
          break;
        }
      }
      checked = &copy;
    }
    const ClosedForm form(*checked);
    bool etas_ok = form.rows.size() == static_cast<std::size_t>(p.queries);
    for (std::size_t k = 0; k < form.rows.size() && etas_ok; ++k) {
      etas_ok = Close(form.rows[k]->eta_multi, form.eta[k]);
    }
    ops->Check(etas_ok, Fmt("steady eta_multi != closed form at seq %llu",
                            static_cast<unsigned long long>(seq)));
    for (const Probe& probe : probes) {
      const auto* target = checked->Find(fx->ids[probe.target]);
      const auto* victim = checked->Find(fx->ids[probe.victim]);
      bool ok = target != nullptr && victim != nullptr;
      if (ok) {
        const auto ti = static_cast<std::size_t>(target - &checked->queries[0]);
        ok = form.rank[ti] < form.eta.size() &&
             Close(probe.eta, form.eta[form.rank[ti]] -
                                  form.RemovalBenefit(*target, *victim));
      }
      ops->Check(ok, "steady what-if != closed form");
    }
  }
  return phase;
}

}  // namespace

Report RunSteady(const Options& options) {
  const Params p = ParamsFor(options);
  Report report;
  Samples setup_s;
  std::unique_ptr<Fixture> fx;
  for (int i = 0; i < p.setups; ++i) {
    fx.reset();
    const std::int64_t start = NowNs();
    fx = Setup(p, options.seed, &report.ops);
    setup_s.Add(SecondsSince(start));
  }
  mqpi::Rng rng(options.seed ^ 0x9b05);
  SpanLog spans(1);

  const auto quanta = std::max<std::int64_t>(
      1, std::llround(options.seconds * p.quanta_per_second /
                      (options.trace ? 2 : 1)));
  const Phase plain =
      Measure(p, options, fx.get(), quanta, &rng, nullptr, &report.ops);
  auto& m = report.metrics;
  m["setup_s"] = setup_s.Median();
  report.notes.push_back(Fmt("steady_fastpath: %d live queries", p.queries));
  AddLatencySummary(plain.quantum_us, plain.live_quanta, plain.whatif_us,
                    "EstimateWhatIf", &report);

  if (options.trace) {
    ProfLedger prof;
    CounterDelta counters = EstimatorPathCounters();
    mqpi::obs::GlobalProfiler()->set_enabled(true);
    spans.set_enabled(true);
    prof.OpenWindow();
    counters.Mark(fx->service.get());
    const Phase traced =
        Measure(p, options, fx.get(), quanta, &rng, &spans, &report.ops);
    counters.Fold(fx->service.get());
    prof.CloseWindow();
    mqpi::obs::GlobalProfiler()->set_enabled(false);
    spans.set_enabled(false);

    AddQuantumLedger(prof, spans.TotalNs()["service.advance"], traced.quanta,
                     0.0, &report);
    AddEstimatorPath(counters, traced.quanta, &report);
    m["service.snapshot_rows"] = traced.rows.Mean();
    m["sched.retained_queries"] =
        static_cast<double>(fx->service->snapshot()->queries.size());
    m["obs.trace_overhead_ratio"] =
        traced.quantum_us.Median() / plain.quantum_us.Median();
    const std::string path = options.out_dir + "/trace-steady_fastpath-" +
                             std::to_string(options.seed) + ".json";
    report.ops.Check(WriteSpans(path, {&spans}), "write " + path);
    report.notes.push_back("spans written to " + path);
  }
  fx.reset();
  m["peak_rss_mb"] = PeakRssMb();
  return report;
}

}  // namespace perfbench
