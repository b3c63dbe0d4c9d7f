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
//   BM_AuditorObserve         one estimate observation through the
//                             one-row path (a lock per call); every
//                             64th ends its query, folding scoring
//                             into the amortized figure. Ids are dense,
//                             so the column grows one entry per query
//   BM_AuditorBatch/2000      per row of a 2000-row live snapshot fed
//                             under one Batch lock (the service's
//                             path); trajectories run far past the
//                             256-sample budget, so thinning is in it
//
// Run: ./bench_obs_overhead [--benchmark_filter=...]

#include <benchmark/benchmark.h>

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

void BM_AuditorObserve(benchmark::State& state) {
  obs::EstimateAuditor auditor;
  QueryId id = 1;
  int samples = 0;
  SimTime t = 0.0;
  for (auto _ : state) {
    obs::EstimateObservation observation;
    observation.id = id;
    observation.time = t;
    observation.eta_single = 10.0 - 0.1 * samples;
    observation.eta_multi = 10.0 - 0.1 * samples;
    // Every 64th observation terminates the query, folding the cost of
    // trajectory scoring into the amortized figure.
    if (++samples == 64) {
      observation.terminal = true;
      observation.finished = true;
      observation.finish_time = t;
      samples = 0;
      ++id;
    }
    auditor.Observe(observation);
    t += 0.1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AuditorObserve);

void BM_AuditorBatch(benchmark::State& state) {
  const auto rows = static_cast<QueryId>(state.range(0));
  obs::EstimateAuditor auditor;
  SimTime t = 0.0;
  for (auto _ : state) {
    obs::EstimateAuditor::Batch batch(&auditor);
    for (QueryId id = 1; id <= rows; ++id) {
      obs::EstimateObservation observation;
      observation.id = id;
      observation.time = t;
      observation.eta_single = 1e6 - t;
      observation.eta_multi = 1e6 - t;
      benchmark::DoNotOptimize(batch.Observe(observation));
    }
    t += 0.1;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["retained_samples"] =
      static_cast<double>(auditor.retained_samples());
}
BENCHMARK(BM_AuditorBatch)->Arg(2000);

}  // namespace

BENCHMARK_MAIN();
