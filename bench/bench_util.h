// Shared helpers for the figure-reproduction benches.
//
// Every bench is a standalone binary that prints (a) the paper's
// expected shape for the experiment and (b) a SeriesTable with the
// regenerated numbers. Environment variables scale effort:
//   MQPI_RUNS     - repetitions for averaged experiments (default 100)
//   MQPI_SEED     - base RNG seed (default 20060326, EDBT 2006 vintage)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "common/random.h"
#include "sched/rdbms.h"
#include "sim/report.h"
#include "storage/tpcr_gen.h"
#include "workload/zipf_workload.h"

namespace mqpi::bench {

inline int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value ? std::atoi(value) : fallback;
}

inline std::uint64_t BaseSeed() {
  return static_cast<std::uint64_t>(EnvInt("MQPI_SEED", 20060326));
}

inline int NumRuns(int fallback = 100) {
  return EnvInt("MQPI_RUNS", fallback);
}

/// Owns the generated data plus the workload view over it. Data is
/// built once per process and shared read-only across runs.
struct WorkloadFixture {
  storage::Catalog catalog;
  std::unique_ptr<storage::TpcrGenerator> generator;
  std::unique_ptr<workload::ZipfWorkload> workload;
};

inline std::unique_ptr<WorkloadFixture> MakeWorkload(
    workload::ZipfWorkloadOptions options,
    storage::TpcrConfig tpcr = {.num_part_keys = 5000,
                                .matches_per_key = 30,
                                .seed = 42}) {
  auto fixture = std::make_unique<WorkloadFixture>();
  fixture->generator = std::make_unique<storage::TpcrGenerator>(tpcr);
  fixture->workload = std::make_unique<workload::ZipfWorkload>(
      &fixture->catalog, fixture->generator.get(), options);
  const Status status = fixture->workload->MaterializeTables();
  if (!status.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  return fixture;
}

/// Instantaneous single-query PI estimate (t = c / s with the speed
/// observed over the last scheduler quantum), used where no smoothed
/// trace is required.
inline SimTime InstantSingleEstimate(const sched::QueryInfo& info) {
  if (info.last_step_duration <= 0.0 || info.consumed_last_step <= 0.0) {
    return kInfiniteTime;
  }
  const double speed = info.consumed_last_step / info.last_step_duration;
  return info.estimated_remaining_cost / speed;
}

/// Prints the table as text, and additionally as CSV when MQPI_CSV=1
/// (for plotting pipelines).
inline void PrintTable(const sim::SeriesTable& table) {
  table.PrintText();
  if (EnvInt("MQPI_CSV", 0) != 0) {
    std::printf("\n");
    table.PrintCsv();
  }
}

// ---- committed result columns (BENCH_*.json) --------------------------------
//
// A bench that commits its numbers writes one column per build: this
// build's, preceded by a baseline column measured on an older checkout
// (`--column-out FILE` there, `--baseline FILE` here).

/// The first line `command` prints; empty when it prints nothing.
inline std::string FirstLineOf(const char* command) {
  std::FILE* pipe = ::popen(command, "r");
  if (pipe == nullptr) return "";
  char buf[256] = {};
  const bool got = std::fgets(buf, sizeof buf, pipe) != nullptr;
  ::pclose(pipe);
  std::string line = got ? buf : "";
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return line;
}

/// HEAD's short hash, suffixed "-dirty" when tracked files differ.
inline std::string GitCommit() {
  const std::string sha =
      FirstLineOf("git rev-parse --short HEAD 2>/dev/null");
  if (sha.empty()) return "unknown";
  const bool dirty =
      !FirstLineOf("git status --porcelain --untracked-files=no 2>/dev/null")
           .empty();
  return dirty ? sha + "-dirty" : sha;
}

inline std::string CpuModel() {
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

inline bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

/// A baseline column written by `--column-out`, trailing newlines
/// trimmed; false when `path` cannot be read.
inline bool ReadColumn(const std::string& path, std::string* column) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  *column = text.str();
  while (!column->empty() && column->back() == '\n') column->pop_back();
  return true;
}

inline void Banner(const char* figure, const char* expectation) {
  std::printf("\n################################################------\n");
  std::printf("# %s\n", figure);
  std::printf("# Paper expectation: %s\n", expectation);
  std::printf("########################################################\n\n");
}

}  // namespace mqpi::bench
