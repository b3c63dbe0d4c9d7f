// What one service quantum costs, in total and per layer, at three
// live-set sizes and three load shapes.
//
// A manual-mode PiService (C = 1000 U/s, 0.1 s quantum, profiler on)
// takes n submissions Synthetic(1000 + 3i), i = 0..n-1, for
// n in {100, 2000, 20000}, in three shapes:
//   running   every query runs: the closed-form stage sweep serves
//             every running ETA (DESIGN §12);
//   queued    an MPL cap of 0.9n holds 10% in the admission queue, so
//             the simulator serves the estimates;
//   arrivals  every query runs with the §2.4 future model on
//             (lambda = 1/s, c-bar = 50 U): the simulator again.
// Nothing finishes during a cell (the cheapest query needs 1000 U at
// most 1000/n U/s), so every timed quantum sees the same live set.
// After a few warm-up quanta the bench times PiService::Advance for up
// to kMaxQuanta quanta or kCellBudgetS wall seconds, whichever comes
// first (at least kMinQuanta). Each cell runs kRuns times on a fresh
// service, and the run with the middle median stands for the cell (a
// shared host moves one run's median by tens of percent). Per cell:
//   - the median wall ns per quantum and that divided by n,
//   - the self ns per quantum of every profiler site that ran,
//   - per quantum, the estimates each estimator path served
//     (pi.incremental_fast_path / pi.incremental_fallback deltas).
//
// Usage: bench_quantum [--column-out FILE] [--baseline FILE]
//   Default: writes BENCH_quantum.json to the working directory with
//   this build's measurements as one column, preceded by the column in
//   FILE when --baseline is given. --column-out writes only this
//   build's column to FILE; run that on an older checkout to produce a
//   baseline. Each column records the git commit, build type and
//   batch-kernel ISA it was measured with. Run it from the repository
//   root.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "engine/planner.h"
#include "obs/profiler.h"
#include "pi/batch_kernel.h"
#include "service/pi_service.h"
#include "service/session.h"
#include "storage/catalog.h"

#ifndef MQPI_BENCH_BUILD_TYPE
#define MQPI_BENCH_BUILD_TYPE "unknown"
#endif

using namespace mqpi;

namespace {

constexpr int kMinQuanta = 5;
constexpr int kMaxQuanta = 200;
constexpr double kCellBudgetS = 2.0;
constexpr int kRuns = 5;
constexpr double kRate = 1000.0;
constexpr double kQuantum = 0.1;

enum class Shape { kRunning, kQueued, kArrivals };

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kRunning:
      return "running";
    case Shape::kQueued:
      return "queued";
    case Shape::kArrivals:
      return "arrivals";
  }
  return "unknown";
}

struct SiteCost {
  std::string name;
  double self_ns_per_quantum = 0.0;
};

struct Cell {
  int n = 0;
  Shape shape = Shape::kRunning;
  int quanta = 0;
  double median_ns = 0.0;
  double fast_path_per_quantum = 0.0;
  double fallback_per_quantum = 0.0;
  std::vector<SiteCost> sites;
};

Cell Measure(int n, Shape shape) {
  storage::Catalog catalog;
  service::PiServiceOptions options;
  options.rdbms.processing_rate = kRate;
  options.rdbms.quantum = kQuantum;
  options.rdbms.cost_model.noise_sigma = 0.0;
  options.start_ticker = false;
  options.enable_profiler = true;
  if (shape == Shape::kQueued) options.rdbms.max_concurrent = n - n / 10;
  if (shape == Shape::kArrivals) {
    options.future_prior.lambda = 1.0;
    options.future_prior.avg_cost = 50.0;
  }
  service::PiService service(&catalog, options);
  auto session = service.OpenSession("bench_quantum");
  for (int i = 0; i < n; ++i) {
    if (!session->Submit(engine::QuerySpec::Synthetic(1000.0 + 3.0 * i))
             .ok()) {
      std::fprintf(stderr, "submit failed\n");
      std::exit(1);
    }
  }
  const auto advance = [&] {
    if (!service.Advance(kQuantum).ok()) {
      std::fprintf(stderr, "advance failed\n");
      std::exit(1);
    }
  };
  for (int i = 0; i < 3; ++i) advance();

  service::MetricsRegistry* metrics = service.metrics();
  service::Counter* fast = metrics->counter("pi.incremental_fast_path");
  service::Counter* fallback = metrics->counter("pi.incremental_fallback");
  const std::uint64_t fast0 = fast->value();
  const std::uint64_t fallback0 = fallback->value();
  obs::GlobalProfiler()->Reset();

  std::vector<double> ns;
  const auto cell_start = std::chrono::steady_clock::now();
  while (static_cast<int>(ns.size()) < kMaxQuanta) {
    const auto start = std::chrono::steady_clock::now();
    advance();
    const auto end = std::chrono::steady_clock::now();
    ns.push_back(
        std::chrono::duration<double, std::nano>(end - start).count());
    const double spent =
        std::chrono::duration<double>(end - cell_start).count();
    if (static_cast<int>(ns.size()) >= kMinQuanta && spent > kCellBudgetS) {
      break;
    }
  }

  Cell cell;
  cell.n = n;
  cell.shape = shape;
  cell.quanta = static_cast<int>(ns.size());
  std::sort(ns.begin(), ns.end());
  cell.median_ns = ns[ns.size() / 2];
  cell.fast_path_per_quantum =
      static_cast<double>(fast->value() - fast0) / cell.quanta;
  cell.fallback_per_quantum =
      static_cast<double>(fallback->value() - fallback0) / cell.quanta;
  for (const obs::ProfSiteSnapshot& site :
       obs::GlobalProfiler()->Snapshot()) {
    if (site.count == 0) continue;
    cell.sites.push_back(
        {site.name, static_cast<double>(site.self_ns) / cell.quanta});
  }
  session->Close();
  return cell;
}

std::string ColumnJson(const std::vector<Cell>& cells) {
  std::ostringstream os;
  os << "    {\n      \"git\": \"" << bench::GitCommit()
     << "\", \"build_type\": \""
     << MQPI_BENCH_BUILD_TYPE << "\", \"isa\": \""
     << pi::BatchEstimateKernel::ActiveIsaName() << "\",\n"
     << "      \"cells\": [\n";
  char buf[128];
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    os << "        {\"n\": " << c.n << ", \"shape\": \""
       << ShapeName(c.shape) << "\", \"quanta\": " << c.quanta;
    std::snprintf(buf, sizeof buf,
                  ", \"median_ns_per_quantum\": %.0f, "
                  "\"ns_per_live_query\": %.1f,\n",
                  c.median_ns, c.median_ns / c.n);
    os << buf;
    std::snprintf(buf, sizeof buf,
                  "         \"fast_path_per_quantum\": %.1f, "
                  "\"fallback_per_quantum\": %.1f,\n",
                  c.fast_path_per_quantum, c.fallback_per_quantum);
    os << buf << "         \"self_ns_per_quantum\": {";
    for (std::size_t s = 0; s < c.sites.size(); ++s) {
      std::snprintf(buf, sizeof buf, "%s\"%s\": %.0f", s == 0 ? "" : ", ",
                    c.sites[s].name.c_str(), c.sites[s].self_ns_per_quantum);
      os << buf;
    }
    os << "}}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  os << "      ]\n    }";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string column_out;
  std::string baseline;
  for (int i = 1; i < argc; i += 2) {
    const bool has_value = i + 1 < argc;
    if (has_value && std::strcmp(argv[i], "--column-out") == 0) {
      column_out = argv[i + 1];
    } else if (has_value && std::strcmp(argv[i], "--baseline") == 0) {
      baseline = argv[i + 1];
    } else {
      std::fprintf(stderr,
                   "usage: bench_quantum [--column-out FILE] "
                   "[--baseline FILE]\n");
      return 2;
    }
  }
  std::string baseline_column;
  if (!baseline.empty() && !bench::ReadColumn(baseline, &baseline_column)) {
    std::fprintf(stderr, "cannot read %s\n", baseline.c_str());
    return 1;
  }

  std::vector<Cell> cells;
  std::printf("%6s %9s %7s %14s %12s %10s %10s\n", "n", "shape", "quanta",
              "ns/quantum", "ns/query", "fast/q", "fallback/q");
  for (const int n : {100, 2000, 20000}) {
    for (const Shape shape :
         {Shape::kRunning, Shape::kQueued, Shape::kArrivals}) {
      std::vector<Cell> runs;
      for (int run = 0; run < kRuns; ++run) {
        runs.push_back(Measure(n, shape));
      }
      std::sort(runs.begin(), runs.end(), [](const Cell& a, const Cell& b) {
        return a.median_ns < b.median_ns;
      });
      cells.push_back(std::move(runs[runs.size() / 2]));
      const Cell& c = cells.back();
      std::printf("%6d %9s %7d %14.0f %12.1f %10.1f %10.1f\n", c.n,
                  ShapeName(c.shape), c.quanta, c.median_ns,
                  c.median_ns / c.n, c.fast_path_per_quantum,
                  c.fallback_per_quantum);
      std::fflush(stdout);
    }
  }

  const std::string column = ColumnJson(cells);
  if (!column_out.empty()) {
    return bench::WriteFile(column_out, column + "\n") ? 0 : 1;
  }
  std::ostringstream json;
  json << "{\n  \"bench\": \"quantum\",\n  \"cpu\": \"" << bench::CpuModel()
       << "\",\n  \"processing_rate\": " << kRate
       << ", \"quantum_s\": " << kQuantum
       << ",\n  \"query_cost\": \"1000 + 3i U, i = 0..n-1\",\n"
       << "  \"columns\": [\n";
  if (!baseline_column.empty()) json << baseline_column << ",\n";
  json << column << "\n  ]\n}\n";
  return bench::WriteFile("BENCH_quantum.json", json.str()) ? 0 : 1;
}
