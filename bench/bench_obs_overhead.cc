// bench_obs_overhead: the cost of the observability layer.
//
// The tracer's contract is that instrumentation left compiled into the
// hot paths is effectively free while tracing is disabled — every entry
// point is one relaxed atomic load. This bench puts a number on that:
//
//   BM_RdbmsStep/0 vs /1      a full Rdbms::Step quantum over eight
//                             never-finishing queries, tracing off/on;
//                             the off case must sit within noise (<5%)
//                             of a build without any instrumentation
//   BM_TracerInstant/0,1      a single instant-event record, off/on
//   BM_TraceSpan/0,1          RAII span construct+destroy, off/on
//   BM_AuditorRecord          one reading into a query's trajectory;
//                             every 64th ends the query and scores it
//                             (one auditor lock), folding scoring into
//                             the amortized figure
//   BM_AuditorRows/2000       per row of a 2000-row live snapshot, one
//                             reading into each row's trajectory (the
//                             service's row pass); trajectories run
//                             far past the 256-sample budget, so
//                             thinning is in it
//
// Run: ./bench_obs_overhead [--benchmark_filter=...]

#include <benchmark/benchmark.h>

#include <vector>

#include "engine/planner.h"
#include "obs/auditor.h"
#include "obs/tracer.h"
#include "sched/rdbms.h"
#include "storage/catalog.h"

using namespace mqpi;

namespace {

void BM_RdbmsStep(benchmark::State& state) {
  storage::Catalog catalog;
  sched::RdbmsOptions options;
  options.processing_rate = 100.0;
  options.quantum = 0.1;
  options.cost_model.noise_sigma = 0.0;
  sched::Rdbms db(&catalog, options);
  for (int i = 0; i < 8; ++i) {
    // Effectively infinite cost: the running set never changes, so
    // every iteration steps the same eight queries.
    (void)db.Submit(engine::QuerySpec::Synthetic(1e12));
  }
  obs::GlobalTracer()->set_enabled(state.range(0) != 0);
  for (auto _ : state) {
    db.Step(options.quantum);
  }
  state.SetItemsProcessed(state.iterations());
  obs::GlobalTracer()->set_enabled(false);
  obs::GlobalTracer()->Clear();
}
BENCHMARK(BM_RdbmsStep)->Arg(0)->Arg(1);

void BM_TracerInstant(benchmark::State& state) {
  obs::Tracer tracer(
      {.capacity = 1 << 14, .stripes = 8, .enabled = state.range(0) != 0});
  for (auto _ : state) {
    tracer.Instant("bench", "event", /*query=*/1, "v", 1.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerInstant)->Arg(0)->Arg(1);

void BM_TraceSpan(benchmark::State& state) {
  obs::Tracer tracer(
      {.capacity = 1 << 14, .stripes = 8, .enabled = state.range(0) != 0});
  for (auto _ : state) {
    obs::TraceSpan span(&tracer, "bench", "span");
    span.arg("v", 1.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpan)->Arg(0)->Arg(1);

void BM_AuditorRecord(benchmark::State& state) {
  obs::EstimateAuditor auditor;
  const std::size_t budget = auditor.options().max_samples_per_query;
  obs::Trajectory trajectory;
  std::size_t retained = 0;
  QueryId id = 1;
  int samples = 0;
  SimTime t = 0.0;
  for (auto _ : state) {
    const SimTime eta = 10.0 - 0.1 * samples;
    trajectory.Record(t, eta, eta, budget, &retained);
    // Every 64th reading ends the query, folding the cost of trajectory
    // scoring into the amortized figure.
    if (++samples == 64) {
      obs::QueryAccuracy report;
      report.id = id++;
      report.finished = true;
      report.finish_time = t;
      retained -= trajectory.retained();
      benchmark::DoNotOptimize(auditor.Score(report, &trajectory));
      samples = 0;
    }
    t += 0.1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AuditorRecord);

void BM_AuditorRows(benchmark::State& state) {
  const obs::AuditorOptions options;
  std::vector<obs::Trajectory> rows(static_cast<std::size_t>(state.range(0)));
  std::size_t retained = 0;
  SimTime t = 0.0;
  for (auto _ : state) {
    for (obs::Trajectory& trajectory : rows) {
      trajectory.Record(t, 1e6 - t, 1e6 - t, options.max_samples_per_query,
                        &retained);
    }
    benchmark::ClobberMemory();
    t += 0.1;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["retained_samples"] = static_cast<double>(retained);
}
BENCHMARK(BM_AuditorRows)->Arg(2000);

}  // namespace

BENCHMARK_MAIN();
