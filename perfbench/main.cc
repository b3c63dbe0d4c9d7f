// perfbench: the repository benchmark program. Runs one workload and
// prints its metrics; run.py builds it and passes the arguments through.
//
//   perfbench --workload <steady_fastpath|churn_journaled|fanout_1k>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--toy] [--tamper eta|recover] [--out-dir <dir>]
//             [--source <id>]
//
// Lines starting with '#' describe the run for people; the last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. The exit code is 0 only when every operation and
// output check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common.h"
#include "pi/batch_kernel.h"

namespace {

using perfbench::Options;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<steady_fastpath|churn_journaled|fanout_1k> --seed <n> "
               "--seconds <s> --trace <0|1> [--toy] [--tamper eta|recover] "
               "[--out-dir <dir>] [--source <id>]\n",
               why);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string source = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--toy") {
      options.toy = true;
    } else if ((v = value()) == nullptr) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = v;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::atof(v);
      have_seconds = options.seconds > 0.0;
    } else if (arg == "--trace") {
      options.trace = std::strcmp(v, "1") == 0;
      have_trace = std::strcmp(v, "0") == 0 || options.trace;
    } else if (arg == "--tamper") {
      options.tamper = v;
    } else if (arg == "--out-dir") {
      options.out_dir = v;
    } else if (arg == "--source") {
      source = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds > 0 and --trace 0|1 are required");
  }
  perfbench::Report (*run)(const Options&) = nullptr;
  if (options.workload == "steady_fastpath") run = perfbench::RunSteady;
  if (options.workload == "churn_journaled") run = perfbench::RunChurn;
  if (options.workload == "fanout_1k") run = perfbench::RunFanout;
  if (run == nullptr) return Usage("unknown workload");
  std::error_code ignored;
  std::filesystem::create_directories(options.out_dir, ignored);
  options.deadline_ns =
      perfbench::NowNs() + static_cast<std::int64_t>(2.5e9 * options.seconds);

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.toy ? " toy" : "");
#if defined(MQPI_HAVE_AVX2)
  const bool avx2_built = true;
#else
  const bool avx2_built = false;
#endif
  std::printf(
      "# meta {\"source\": %s, \"build_type\": %s, \"compiler\": %s, "
      "\"avx2_kernel_built\": %s, \"batch_kernel\": %s, \"nproc\": %u, "
      "\"seed\": %llu}\n",
      JsonString(source).c_str(), JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(), avx2_built ? "true" : "false",
      JsonString(mqpi::pi::BatchEstimateKernel::ActiveIsaName()).c_str(),
      std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(options.seed));
  std::fflush(stdout);

  perfbench::Report report = run(options);

  for (const auto& note : report.notes) std::printf("# %s\n", note.c_str());
  const auto& defs = options.trace ? perfbench::PerLayerMetrics()
                                   : perfbench::EndToEndMetrics();
  std::string metrics;
  for (const auto& def : defs) {
    auto it = report.metrics.find(def.name);
    // A per-layer metric a workload does not set belongs to a layer off
    // its path: it reads 0. Every end-to-end metric must be measured.
    double value = it == report.metrics.end() ? 0.0 : it->second;
    if (!options.trace && it == report.metrics.end()) {
      report.ops.Fail(std::string("metric not measured: ") + def.name);
    }
    if (!std::isfinite(value)) {
      report.ops.Fail(std::string("metric not finite: ") + def.name);
      value = 0.0;
    }
    std::printf("# %-34s %16.6g %s\n", def.name, value, def.unit);
    metrics += perfbench::Fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                              metrics.empty() ? "" : ", ", def.name, value,
                              def.unit);
  }
  const bool correct = report.ops.failed() == 0;
  const std::uint64_t attempted =
      std::max<std::uint64_t>(report.ops.attempted(), 1);
  std::printf(
      "# failed_op_ratio %.6g (%llu of %llu operations and checks)\n",
      static_cast<double>(report.ops.failed()) /
          static_cast<double>(attempted),
      static_cast<unsigned long long>(report.ops.failed()),
      static_cast<unsigned long long>(report.ops.attempted()));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(report.ops.failed()), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
