// Snapshot fan-out benchmark: one ticker publishing progress snapshots
// to massive in-process subscriber populations through the net layer's
// SnapshotFanout + SubscriberPool (the same machinery TCP subscribers
// ride, minus the sockets).
//
// What it demonstrates, per the O(1)-publish design in net/fanout.h:
//   - the publishing (ticker) thread does ZERO per-subscriber work: a
//     publish costs one pointer swap plus one signal per registered
//     waker, measured by fanout counters (publish_ops / publishes), so
//     ticker throughput is flat from 1k to 100k subscribers;
//   - each published snapshot is encoded once per frame kind, on the
//     pool workers, and every subscriber queues the shared bytes;
//     publish->pop latency is reported as p50/p99 at every scale.
//
// Per scale: p50/p99 publish->pop latency over paced publishes (each
// drained by 4 consumer threads before the next), then frames encoded
// per publish over kCountedRounds more paced publishes, counted at the
// encoder's profiler site ("net.delta_encode"), which every build has,
// shared cache or not, then ticker quanta/sec over a burst with no
// consumer pumping. Each column also records the process's max RSS.
//
// Modes:
//   bench_net_fanout [--column-out FILE] [--baseline FILE]
//       full sweep at 1k / 10k / 100k subscribers; writes
//       BENCH_net_fanout.json with this build's column, preceded by
//       the column in FILE when --baseline is given. --column-out
//       writes only this build's column to FILE; run that on an older
//       checkout to produce a baseline. Run it from the repository
//       root.
//   bench_net_fanout --perfsmoke
//       fast CI assertion (ctest label "perfsmoke"): ops-per-publish
//       and net.frames_encoded per publish must be identical at 64 and
//       2048 subscribers — counter-based, no wall-clock thresholds,
//       cannot flake on slow machines — and p99 latency is computed
//       and reported.
//
// MQPI_NET_SUBS caps the largest scale (default 100000).

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/planner.h"
#include "net/client.h"
#include "net/fanout.h"
#include "net/server.h"
#include "obs/profiler.h"
#include "service/pi_service.h"
#include "service/session.h"
#include "storage/catalog.h"

#ifndef MQPI_BENCH_BUILD_TYPE
#define MQPI_BENCH_BUILD_TYPE "unknown"
#endif

using namespace mqpi;

namespace {

constexpr int kQueries = 6;
constexpr int kConsumerThreads = 4;
constexpr int kCountedRounds = 3;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ScaleResult {
  int subscribers = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double ticker_quanta_per_sec = 0.0;
  /// Fan-out work on the publishing thread per publish (fanout
  /// counters): 1 swap + 1 signal per waker, independent of the
  /// subscriber count.
  double ops_per_publish = 0.0;
  /// Frames encoded per paced publish, counted at the encoder's
  /// profiler site and by the hub's net.frames_encoded counter.
  double encodes_per_publish = 0.0;
  double frames_encoded_per_publish = 0.0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t sheds = 0;
};

double Percentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      p * static_cast<double>(samples->size() - 1));
  std::nth_element(samples->begin(), samples->begin() + k, samples->end());
  return (*samples)[k];
}

/// Pumps every subscriber in [begin, end) until its view reaches
/// `target`, appending publish->pop latency samples (us).
void PumpSlice(std::vector<net::LocalSubscriber>* subs, std::size_t begin,
               std::size_t end, std::uint64_t target,
               net::SnapshotFanout* fanout, std::vector<double>* latencies) {
  std::vector<std::uint64_t> sequences;
  for (;;) {
    std::size_t done = 0;
    for (std::size_t i = begin; i < end; ++i) {
      auto& sub = (*subs)[i];
      if (sub.view().sequence() >= target) {
        ++done;
        continue;
      }
      sequences.clear();
      sub.Pump(&sequences);
      const std::int64_t now = NowNs();
      for (const std::uint64_t seq : sequences) {
        const std::int64_t stamp = fanout->PublishWallNs(seq);
        if (stamp > 0 && now > stamp) {
          latencies->push_back(static_cast<double>(now - stamp) * 1e-3);
        }
      }
      if (sub.view().sequence() >= target) ++done;
    }
    if (done == end - begin) return;
    std::this_thread::yield();
  }
}

ScaleResult RunScale(int subscribers, int paced_rounds, int burst_quanta) {
  storage::Catalog catalog;
  service::PiServiceOptions options;
  options.rdbms.processing_rate = 100.0;
  options.rdbms.quantum = 0.1;
  options.rdbms.cost_model.noise_sigma = 0.0;
  options.start_ticker = false;
  service::PiService service(&catalog, options);

  net::PiServerOptions server_options;
  server_options.pool_threads = 4;
  // The burst phase publishes without consumer pumping in between;
  // generous queue bounds keep coalescing (not shedding) the pressure
  // valve.
  server_options.subscription.max_queued_frames = 4096;
  server_options.subscription.max_queued_bytes = std::size_t{64} << 20;
  net::PiServer server(&service, server_options);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    std::exit(1);
  }

  auto session = service.OpenSession("fanout-load");
  for (int i = 0; i < kQueries; ++i) {
    // Never finishes within the bench: every tick changes every row,
    // so each paced publish produces a real (all-rows) delta.
    (void)session->Submit(engine::QuerySpec::Synthetic(1e9));
  }
  service.PublishNow();

  std::vector<net::LocalSubscriber> subs;
  subs.reserve(static_cast<std::size_t>(subscribers));
  for (int i = 0; i < subscribers; ++i) {
    subs.emplace_back(server.pool()->Subscribe());
  }

  ScaleResult result;
  result.subscribers = subscribers;

  // ---- paced phase: publish, then fan in the latency samples ----------------
  std::vector<std::vector<double>> thread_latencies(kConsumerThreads);
  const std::size_t slice =
      (subs.size() + kConsumerThreads - 1) / kConsumerThreads;
  // Pumps every subscriber up to the latest sequence, 4 threads wide.
  auto drain = [&] {
    const std::uint64_t target = service.snapshot()->sequence;
    std::vector<std::thread> consumers;
    for (int t = 0; t < kConsumerThreads; ++t) {
      const std::size_t begin = std::min(subs.size(), t * slice);
      const std::size_t end = std::min(subs.size(), begin + slice);
      if (begin == end) continue;
      consumers.emplace_back(PumpSlice, &subs, begin, end, target,
                             server.fanout(), &thread_latencies[t]);
    }
    for (auto& consumer : consumers) consumer.join();
  };
  auto advance = [&] {
    const Status status = service.Advance(options.rdbms.quantum);
    if (!status.ok()) {
      std::fprintf(stderr, "advance failed: %s\n", status.ToString().c_str());
      std::exit(1);
    }
  };
  for (int round = 0; round < paced_rounds; ++round) {
    advance();
    drain();
  }
  std::vector<double> latencies;
  for (auto& part : thread_latencies) {
    latencies.insert(latencies.end(), part.begin(), part.end());
    part.clear();
  }
  result.p50_us = Percentile(&latencies, 0.50);
  result.p99_us = Percentile(&latencies, 0.99);

  // ---- counted rounds: frames encoded per publish ---------------------------
  // Outside the latency samples, since the profiler is on here.
  obs::Profiler* profiler = obs::GlobalProfiler();
  const obs::ProfSite* encode_site = profiler->Site("net.delta_encode");
  // Looked up by name, not through NetMetrics, so this source also
  // builds against trees that predate the counter (it reads 0 there).
  const std::string frames_encoded_name = "net.frames_encoded";
  const service::Counter* frames_encoded =
      service.metrics()->counter(frames_encoded_name);
  const std::uint64_t encodes0 = encode_site->count();
  const std::uint64_t frames_encoded0 = frames_encoded->value();
  profiler->set_enabled(true);
  for (int round = 0; round < kCountedRounds; ++round) {
    advance();
    drain();
  }
  profiler->set_enabled(false);
  result.encodes_per_publish =
      static_cast<double>(encode_site->count() - encodes0) / kCountedRounds;
  result.frames_encoded_per_publish =
      static_cast<double>(frames_encoded->value() - frames_encoded0) /
      kCountedRounds;

  // ---- burst phase: ticker throughput with zero consumer pumping ------------
  const std::int64_t t0 = NowNs();
  for (int i = 0; i < burst_quanta; ++i) {
    (void)service.Advance(options.rdbms.quantum);
  }
  const std::int64_t t1 = NowNs();
  result.ticker_quanta_per_sec =
      static_cast<double>(burst_quanta) /
      (static_cast<double>(t1 - t0) * 1e-9);

  // Drain so teardown never races a mid-sweep delivery.
  drain();

  result.ops_per_publish =
      static_cast<double>(server.fanout()->publish_ops()) /
      static_cast<double>(server.fanout()->publishes());
  result.frames_delivered = server.metrics()->frames_sent->value();
  result.sheds = server.metrics()->slow_consumers_shed->value();

  session->Close();
  server.Stop();
  return result;
}

int Perfsmoke() {
  const ScaleResult small = RunScale(64, 3, 10);
  const ScaleResult large = RunScale(2048, 3, 10);
  bool ok = true;
  // The O(1)-publish invariant, counter-based: fan-out work on the
  // publishing thread per publish must be EXACTLY the same with 32x
  // the subscribers.
  if (small.ops_per_publish != large.ops_per_publish) {
    std::fprintf(stderr,
                 "perfsmoke FAIL: %.3f fan-out ops/publish at %d "
                 "subscribers vs %.3f at %d — publish must do zero "
                 "per-subscriber work\n",
                 small.ops_per_publish, small.subscribers,
                 large.ops_per_publish, large.subscribers);
    ok = false;
  }
  // Encode-once, counter-based: frames encoded per publish do not grow
  // with the subscriber count, and the hub's counter sees every encode.
  if (small.frames_encoded_per_publish != large.frames_encoded_per_publish) {
    std::fprintf(stderr,
                 "perfsmoke FAIL: %.3f frames encoded/publish at %d "
                 "subscribers vs %.3f at %d — each publish must be "
                 "encoded once per frame kind, not per subscriber\n",
                 small.frames_encoded_per_publish, small.subscribers,
                 large.frames_encoded_per_publish, large.subscribers);
    ok = false;
  }
  for (const ScaleResult* r : {&small, &large}) {
    if (r->frames_encoded_per_publish != r->encodes_per_publish) {
      std::fprintf(stderr,
                   "perfsmoke FAIL: net.frames_encoded counted %.3f "
                   "frames/publish, the encoder ran %.3f times at %d "
                   "subscribers\n",
                   r->frames_encoded_per_publish, r->encodes_per_publish,
                   r->subscribers);
      ok = false;
    }
  }
  if (small.sheds != 0 || large.sheds != 0) {
    std::fprintf(stderr, "perfsmoke FAIL: subscribers were shed\n");
    ok = false;
  }
  if (large.p99_us <= 0.0) {
    std::fprintf(stderr, "perfsmoke FAIL: no p99 latency measured\n");
    ok = false;
  }
  if (!ok) return 1;
  std::printf(
      "perfsmoke OK: %.3f fan-out ops/publish and %.3f frames "
      "encoded/publish at both %d and %d subscribers; p99 publish->pop "
      "%.0f us at %d subs\n",
      large.ops_per_publish, large.frames_encoded_per_publish,
      small.subscribers, large.subscribers, large.p99_us, large.subscribers);
  return 0;
}

double MaxRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string ColumnJson(const std::vector<ScaleResult>& results) {
  std::ostringstream os;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%.1f", MaxRssMb());
  os << "    {\n      \"git\": \"" << bench::GitCommit()
     << "\", \"build_type\": \"" << MQPI_BENCH_BUILD_TYPE
     << "\", \"max_rss_mb\": " << buf << ",\n      \"scales\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScaleResult& r = results[i];
    std::snprintf(buf, sizeof buf,
                  "        {\"subscribers\": %d, \"p50_us\": %.1f, "
                  "\"p99_us\": %.1f, \"ticker_quanta_per_sec\": %.0f,\n",
                  r.subscribers, r.p50_us, r.p99_us, r.ticker_quanta_per_sec);
    os << buf;
    std::snprintf(buf, sizeof buf,
                  "         \"ops_per_publish\": %.3f, "
                  "\"frames_encoded_per_publish\": %.3f, \"frames\": %llu}",
                  r.ops_per_publish, r.encodes_per_publish,
                  static_cast<unsigned long long>(r.frames_delivered));
    os << buf << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "      ]\n    }";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--perfsmoke") == 0) {
    return Perfsmoke();
  }
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
                   "usage: bench_net_fanout [--perfsmoke | --column-out FILE "
                   "| --baseline FILE]\n");
      return 2;
    }
  }
  std::string baseline_column;
  if (!baseline.empty() && !bench::ReadColumn(baseline, &baseline_column)) {
    std::fprintf(stderr, "cannot read %s\n", baseline.c_str());
    return 1;
  }

  bench::Banner(
      "Snapshot fan-out: publish->pop latency and ticker throughput vs "
      "subscriber count",
      "publish cost is O(1) in subscribers (pointer swap + per-pool "
      "signal) and each publish is encoded once per frame kind, so "
      "ticker quanta/sec stays flat while p50/p99 delivery latency "
      "grows only with per-subscriber queue and decode work");

  const int max_subs = bench::EnvInt("MQPI_NET_SUBS", 100000);
  std::vector<int> scales;
  for (const int scale : {1000, 10000, 100000}) {
    if (scale <= max_subs) scales.push_back(scale);
  }
  if (scales.empty()) scales.push_back(max_subs);

  std::printf("%10s %10s %10s %16s %12s %12s %12s\n", "subs", "p50 us",
              "p99 us", "ticker quanta/s", "ops/publish", "enc/publish",
              "frames");
  bool ok = true;
  std::vector<ScaleResult> results;
  for (const int subscribers : scales) {
    const int paced = subscribers >= 100000 ? 5 : 10;
    const ScaleResult r = RunScale(subscribers, paced, 50);
    std::printf("%10d %10.1f %10.1f %16.0f %12.3f %12.3f %12llu\n",
                r.subscribers, r.p50_us, r.p99_us, r.ticker_quanta_per_sec,
                r.ops_per_publish, r.encodes_per_publish,
                static_cast<unsigned long long>(r.frames_delivered));
    std::fflush(stdout);
    if (!results.empty() && r.ops_per_publish != results[0].ops_per_publish) {
      std::fprintf(stderr,
                   "FAIL: fan-out ops/publish moved from %.3f to %.3f "
                   "between scales — publish must be O(1) in "
                   "subscribers\n",
                   results[0].ops_per_publish, r.ops_per_publish);
      ok = false;
    }
    if (r.sheds != 0) {
      std::fprintf(stderr, "FAIL: %llu subscribers shed at %d subs\n",
                   static_cast<unsigned long long>(r.sheds), r.subscribers);
      ok = false;
    }
    results.push_back(r);
  }
  std::printf("max RSS %.1f MB\n", MaxRssMb());
  if (!ok) return 1;

  const std::string column = ColumnJson(results);
  if (!column_out.empty()) {
    return bench::WriteFile(column_out, column + "\n") ? 0 : 1;
  }
  std::ostringstream json;
  json << "{\n  \"bench\": \"net_fanout\",\n  \"cpu\": \""
       << bench::CpuModel() << "\",\n  \"unit\": \"us\",\n"
       << "  \"queries\": " << kQueries
       << ", \"consumer_threads\": " << kConsumerThreads
       << ", \"pool_threads\": 4,\n  \"columns\": [\n";
  if (!baseline_column.empty()) json << baseline_column << ",\n";
  json << column << "\n  ]\n}\n";
  if (!bench::WriteFile("BENCH_net_fanout.json", json.str())) return 1;
  std::printf("\nresults written to BENCH_net_fanout.json\n");
  return 0;
}
