// Long-lifetime churn: what one service quantum costs as the number of
// queries ever submitted grows, with the live load held fixed.
//
// A manual-mode PiService (C = 1000 U/s, 0.1 s quantum, default
// options: auditor on, terminal_retention_quanta = 10) takes 10
// Synthetic(9.5) submissions per quantum — offered load 0.95, about 19
// live queries — for 100k submissions. At 1k, 10k, 50k and 100k
// submissions the bench reports, over the last 50 quanta (500
// submissions) before the milestone:
//   - mean wall ns per quantum (PiService::Advance; submits excluded),
//     as the median over 5 runs (one run's window mean moves by +-15%
//     on a shared host),
//   - mean snapshot rows (live queries plus the terminal ones still in
//     their retention window),
// and the process's max RSS so far, in the first run. With terminal
// queries reaped after the window, ns/quantum and rows stay flat; RSS
// still grows by the few words a reaped id keeps (its null record slot
// and its column entries in the service and the auditor).
//
// Usage: bench_churn [--perfsmoke]
//   Without arguments: runs to 100k submissions and writes
//   BENCH_churn.json to the working directory.
//   --perfsmoke: runs to 20k submissions and fails unless snapshot
//   rows stay bounded and flat (counts only, no wall-clock threshold).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "engine/planner.h"
#include "service/pi_service.h"
#include "service/session.h"
#include "storage/catalog.h"

using namespace mqpi;

namespace {

constexpr int kSubmitsPerQuantum = 10;
constexpr int kWindowQuanta = 50;  // 500 submissions
constexpr int kRuns = 5;

struct Milestone {
  std::uint64_t submissions = 0;
  double ns_per_quantum = 0.0;
  double snapshot_rows = 0.0;
  double max_rss_mb = 0.0;
};

double MaxRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::vector<Milestone> Run(const std::vector<std::uint64_t>& milestones,
                           std::size_t* max_rows) {
  storage::Catalog catalog;
  service::PiServiceOptions options;
  options.rdbms.processing_rate = 1000.0;
  options.rdbms.quantum = 0.1;
  options.start_ticker = false;
  service::PiService service(&catalog, options);
  auto session = service.OpenSession("churn");

  std::vector<Milestone> out;
  std::vector<double> ns(kWindowQuanta, 0.0);
  std::vector<double> rows(kWindowQuanta, 0.0);
  std::uint64_t submitted = 0;
  *max_rows = 0;
  for (std::uint64_t quantum = 0; out.size() < milestones.size();
       ++quantum) {
    for (int i = 0; i < kSubmitsPerQuantum; ++i) {
      if (!session->Submit(engine::QuerySpec::Synthetic(9.5)).ok()) {
        std::fprintf(stderr, "submit failed\n");
        std::exit(1);
      }
      ++submitted;
    }
    const auto start = std::chrono::steady_clock::now();
    if (!service.Advance(options.rdbms.quantum).ok()) std::exit(1);
    const double elapsed =
        std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - start)
            .count();
    const std::size_t slot = quantum % kWindowQuanta;
    const std::size_t snapshot_rows = service.snapshot()->queries.size();
    ns[slot] = elapsed;
    rows[slot] = static_cast<double>(snapshot_rows);
    *max_rows = std::max(*max_rows, snapshot_rows);
    if (submitted == milestones[out.size()]) {
      Milestone m;
      m.submissions = submitted;
      for (int i = 0; i < kWindowQuanta; ++i) {
        m.ns_per_quantum += ns[i] / kWindowQuanta;
        m.snapshot_rows += rows[i] / kWindowQuanta;
      }
      m.max_rss_mb = MaxRssMb();
      out.push_back(m);
    }
  }
  session->Close();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool perfsmoke = argc > 1 && std::strcmp(argv[1], "--perfsmoke") == 0;
  const std::vector<std::uint64_t> milestones =
      perfsmoke ? std::vector<std::uint64_t>{1000, 10000, 20000}
                : std::vector<std::uint64_t>{1000, 10000, 50000, 100000};
  std::size_t max_rows = 0;
  std::vector<Milestone> results = Run(milestones, &max_rows);
  if (!perfsmoke) {
    // Later runs only refine the timings: their RSS is the first run's
    // high-water mark.
    std::vector<std::vector<double>> ns(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ns[i].push_back(results[i].ns_per_quantum);
    }
    for (int run = 1; run < kRuns; ++run) {
      std::size_t ignored = 0;
      const std::vector<Milestone> again = Run(milestones, &ignored);
      for (std::size_t i = 0; i < again.size(); ++i) {
        ns[i].push_back(again[i].ns_per_quantum);
      }
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::sort(ns[i].begin(), ns[i].end());
      results[i].ns_per_quantum = ns[i][ns[i].size() / 2];
    }
  }

  std::printf("%12s %14s %14s %12s\n", "submissions", "ns/quantum",
              "snapshot-rows", "max-rss-mb");
  for (const Milestone& m : results) {
    std::printf("%12llu %14.0f %14.1f %12.1f\n",
                static_cast<unsigned long long>(m.submissions),
                m.ns_per_quantum, m.snapshot_rows, m.max_rss_mb);
  }
  std::printf("max snapshot rows over the run: %zu\n", max_rows);

  if (perfsmoke) {
    // About 19 live queries plus 10 quanta x 10 terminal ones; rows at
    // 20k submissions within 10% of rows at 10k.
    const double at_10k = results[1].snapshot_rows;
    const double at_20k = results[2].snapshot_rows;
    const bool bounded = max_rows <= 150;
    const bool flat = at_20k <= 1.1 * at_10k && at_20k >= 0.9 * at_10k;
    std::printf("perfsmoke: rows bounded %s, flat %s\n",
                bounded ? "yes" : "NO", flat ? "yes" : "NO");
    return bounded && flat ? 0 : 1;
  }

  std::FILE* json = std::fopen("BENCH_churn.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_churn.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"churn\",\n  \"cpu\": \"%s\",\n"
               "  \"submits_per_quantum\": %d, \"query_cost\": 9.5,\n"
               "  \"processing_rate\": 1000, \"quantum_s\": 0.1,\n"
               "  \"terminal_retention_quanta\": %d,\n"
               "  \"window_quanta\": %d, \"runs\": %d,\n"
               "  \"max_snapshot_rows\": %zu,\n"
               "  \"milestones\": [\n",
               CpuModel().c_str(), kSubmitsPerQuantum,
               service::PiServiceOptions{}.terminal_retention_quanta,
               kWindowQuanta, kRuns, max_rows);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Milestone& m = results[i];
    std::fprintf(json,
                 "    {\"submissions\": %llu, \"ns_per_quantum\": %.0f, "
                 "\"snapshot_rows\": %.1f, \"max_rss_mb\": %.1f}%s\n",
                 static_cast<unsigned long long>(m.submissions),
                 m.ns_per_quantum, m.snapshot_rows, m.max_rss_mb,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("results written to BENCH_churn.json\n");
  return 0;
}
