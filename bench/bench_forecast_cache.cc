// Forecast-cache benchmark: per-quantum estimate cost with n tracked
// queries sampled every quantum.
//
// An admission cap below n keeps half the queries queued, so the
// closed-form sweep cannot express the load and every estimate reaches
// the analytic simulator. Uncached, every per-query estimate runs its
// own O(n log n) simulation, so one quantum costs O(n^2 log n); with
// the epoch-keyed cache the n probes collapse to one simulation plus
// O(1) index lookups. The two paths must also produce byte-identical estimate
// traces — the cache is exact, never heuristic — which this bench
// cross-checks and fails hard on.
//
// Modes:
//   bench_forecast_cache               full comparison at n = 100/1000/5000
//   bench_forecast_cache --perfsmoke   fast CI assertion (ctest label
//                                      "perfsmoke"): 50 quanta at n = 1000
//                                      must run <= quanta + 2 full
//                                      simulations, counted via the
//                                      cache-miss counter (no wall-clock
//                                      thresholds, so it cannot flake on
//                                      slow machines)

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "pi/pi_manager.h"
#include "sched/rdbms.h"
#include "storage/catalog.h"

using namespace mqpi;

namespace {

struct RunResult {
  double ms_per_quantum = 0.0;
  std::uint64_t simulations = 0;  // full analytic forecasts run
  std::vector<std::vector<pi::EstimateSample>> traces;
};

RunResult RunScenario(int n, int quanta, bool cached) {
  storage::Catalog catalog;
  sched::RdbmsOptions options;
  options.processing_rate = 100.0;
  options.quantum = 0.05;
  options.cost_model.noise_sigma = 0.0;
  // Queued work is simulator territory: every probe below takes the
  // memoized-forecast path this bench isolates.
  options.max_concurrent = n / 2;
  sched::Rdbms db(&catalog, options);

  pi::PiManagerOptions pm;
  pm.sample_interval = options.quantum;  // sample every quantum
  pm.multi.enable_forecast_cache = cached;
  pi::PiManager pis(&db, pm);

  std::vector<QueryId> ids;
  ids.reserve(n);
  for (int i = 0; i < n; ++i) {
    // Large, varied costs: nothing finishes, every query stays in the
    // modelled load for the whole run.
    auto id = db.Submit(engine::QuerySpec::Synthetic(1e5 + 37.0 * i));
    if (!id.ok()) {
      std::fprintf(stderr, "submit failed: %s\n",
                   id.status().ToString().c_str());
      std::exit(1);
    }
    pis.Track(*id);
    ids.push_back(*id);
  }

  const auto start = std::chrono::steady_clock::now();
  for (int q = 0; q < quanta; ++q) {
    db.Step(options.quantum);
    pis.AfterStep();
  }
  const auto end = std::chrono::steady_clock::now();

  RunResult result;
  result.ms_per_quantum =
      std::chrono::duration<double, std::milli>(end - start).count() /
      quanta;
  result.simulations = pis.multi()->forecast_cache_misses();
  result.traces.reserve(ids.size());
  for (QueryId id : ids) result.traces.push_back(pis.Trace(id));
  return result;
}

bool SamplesIdentical(const pi::EstimateSample& a,
                      const pi::EstimateSample& b) {
  return a.time == b.time && a.single == b.single && a.multi == b.multi &&
         a.multi_no_queue == b.multi_no_queue && a.speed == b.speed;
}

// Exact (bitwise-value) comparison of the recorded estimate traces.
bool TracesIdentical(const RunResult& a, const RunResult& b) {
  if (a.traces.size() != b.traces.size()) return false;
  for (std::size_t i = 0; i < a.traces.size(); ++i) {
    if (a.traces[i].size() != b.traces[i].size()) return false;
    for (std::size_t s = 0; s < a.traces[i].size(); ++s) {
      if (!SamplesIdentical(a.traces[i][s], b.traces[i][s])) return false;
    }
  }
  return true;
}

int Perfsmoke() {
  const int n = 1000;
  const int quanta = 50;
  const RunResult run = RunScenario(n, quanta, /*cached=*/true);
  const std::uint64_t budget = static_cast<std::uint64_t>(quanta) + 2;
  if (run.simulations > budget) {
    std::fprintf(stderr,
                 "perfsmoke FAIL: %llu full forecasts for %d quanta at "
                 "n=%d (budget %llu — the cache must hold within a "
                 "quantum)\n",
                 static_cast<unsigned long long>(run.simulations), quanta,
                 n, static_cast<unsigned long long>(budget));
    return 1;
  }
  std::printf(
      "perfsmoke OK: %llu full forecasts for %d quanta at n=%d "
      "(budget %llu), %.3f ms/quantum\n",
      static_cast<unsigned long long>(run.simulations), quanta, n,
      static_cast<unsigned long long>(budget), run.ms_per_quantum);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--perfsmoke") == 0) {
    return Perfsmoke();
  }

  bench::Banner(
      "Forecast cache: per-quantum estimate cost, n tracked queries "
      "sampled every quantum",
      "uncached grows ~O(n^2 log n) per quantum; cached stays ~O(n log n) "
      "with <= 1 simulation per quantum and identical estimates");

  // Fewer quanta at large n on the uncached side: that is the
  // quadratic path whose cost this table demonstrates.
  struct Scale {
    int n;
    int quanta;
  };
  const Scale scales[] = {{100, 10}, {1000, 3}, {5000, 1}};

  std::printf("%8s %14s %14s %9s %12s %12s\n", "n", "uncached ms/q",
              "cached ms/q", "speedup", "uncached sims", "cached sims");
  bool all_identical = true;
  for (const Scale& scale : scales) {
    const RunResult uncached =
        RunScenario(scale.n, scale.quanta, /*cached=*/false);
    const RunResult paired =
        RunScenario(scale.n, scale.quanta, /*cached=*/true);
    if (!TracesIdentical(uncached, paired)) {
      std::fprintf(stderr,
                   "FAIL: cached and uncached estimate traces differ at "
                   "n=%d — the cache must be exact\n",
                   scale.n);
      all_identical = false;
    }
    // Time the cached path over a longer run for a stable figure.
    const RunResult cached = RunScenario(scale.n, 50, /*cached=*/true);
    std::printf("%8d %14.3f %14.3f %8.1fx %12llu %12llu\n", scale.n,
                uncached.ms_per_quantum, cached.ms_per_quantum,
                uncached.ms_per_quantum /
                    (cached.ms_per_quantum > 0.0 ? cached.ms_per_quantum
                                                 : 1e-9),
                static_cast<unsigned long long>(uncached.simulations),
                static_cast<unsigned long long>(cached.simulations));
  }
  if (!all_identical) return 1;
  std::printf("\ncached and uncached estimate traces are identical at "
              "every scale\n");
  return 0;
}
