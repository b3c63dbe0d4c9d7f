// Shard-scale benchmark: identical aggregate load behind 1/2/4/8
// core-pinned scheduler shards, measuring aggregate quanta/sec and the
// publish -> merged-visibility latency of the coordinator.
//
// Quanta/sec sums quanta across shards, and each shard's quantum covers
// only its n/N queries, so every figure is printed next to the honest
// unit — live query-quanta/sec (quanta x queries per quantum) — and
// the estimator path the quanta ran on, read from the shards'
// pi.incremental_fast_path / pi.incremental_fallback counters
// ("sweep", "simulator" or "mixed"). Synthetic(1e9) queries land past
// the 1e7 s forecast horizon, so this load runs the simulator path.
//
// Why sharding wins even on few cores: one PiService's quantum costs
// roughly f + n*u (fixed ticker overhead plus per-live-query work —
// estimate-all, snapshot build). Split the same n queries across N
// shards and each quantum costs f + (n/N)*u, so the fleet steps
// N-times cheaper quanta and aggregate quanta/sec approaches N*x the
// single scheduler's as n*u dominates f — with no global lock anywhere
// on the tick path to give it back. The coordinator's merge runs on
// the reader's clock (here a poller standing in for the server loop)
// and never blocks a shard.
//
// Modes:
//   bench_shard_scale              full sweep at shards = 1/2/4/8 with
//                                  the same aggregate load; writes
//                                  BENCH_shard_scale.json
//   bench_shard_scale --perfsmoke  fast CI gate (ctest label
//                                  "perfsmoke"): aggregate quanta/sec
//                                  at 4 shards must be >= 3x the
//                                  1-shard figure under the identical
//                                  aggregate load (relative comparison
//                                  on one box, no absolute wall-clock
//                                  thresholds)
//
// Env knobs: MQPI_SHARD_QUERIES (aggregate live queries, default
// 2000), MQPI_SHARD_WALL_MS (measured window per scale, default 600).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/planner.h"
#include "service/session.h"
#include "service/sharded_service.h"
#include "storage/catalog.h"

using namespace mqpi;

namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ScaleResult {
  int shards = 0;
  double quanta_per_sec = 0.0;
  double query_quanta_per_sec = 0.0;  // quanta x live queries per quantum
  const char* estimator_path = "none";
  std::uint64_t quanta = 0;
  std::uint64_t merges = 0;
  double merge_ns_mean = 0.0;
  double merge_ns_p99 = 0.0;
  double publish_to_merge_ms_mean = 0.0;
  double publish_to_merge_ms_p99 = 0.0;
};

// One measured window: `total_queries` long-lived queries split evenly
// across `shards` shards (the identical-aggregate-load invariant),
// tickers flat out, a poller thread standing in for the server loop's
// merge quantum.
ScaleResult RunScale(int shards, int total_queries, double wall_s) {
  storage::Catalog catalog;
  service::ShardedPiServiceOptions options;
  options.num_shards = shards;
  options.shard.rdbms.processing_rate = 100.0;
  options.shard.rdbms.quantum = 0.25;
  options.shard.time_scale = 0.0;     // flat out
  options.shard.start_ticker = false; // load first, then start
  options.pin_cpus = true;
  service::ShardedPiService coordinator(&catalog, options);

  // Load BEFORE the tickers start so every configuration measures the
  // same steady state. Costs are huge so nothing finishes mid-window
  // (a completion would shrink the live set and change the per-quantum
  // cost being compared).
  std::vector<std::unique_ptr<service::Session>> sessions;
  const int per_shard = total_queries / shards;
  for (int s = 0; s < shards; ++s) {
    auto session = coordinator.shard_service(s)->OpenSession(
        "bench-shard-" + std::to_string(s));
    for (int q = 0; q < per_shard; ++q) {
      auto id = session->Submit(engine::QuerySpec::Synthetic(1e9));
      if (!id.ok()) {
        std::fprintf(stderr, "submit failed: %s\n",
                     id.status().ToString().c_str());
        std::exit(1);
      }
    }
    sessions.push_back(std::move(session));
  }

  // Publish stamps, one atomic per shard, written by each shard's
  // publish hook (the O(1) path the server would use).
  std::vector<std::unique_ptr<std::atomic<std::int64_t>>> publish_ns;
  for (int s = 0; s < shards; ++s) {
    publish_ns.push_back(std::make_unique<std::atomic<std::int64_t>>(0));
  }
  for (int s = 0; s < shards; ++s) {
    std::atomic<std::int64_t>* stamp = publish_ns[std::size_t(s)].get();
    coordinator.shard_service(s)->SetPublishHook(
        [stamp](const service::SnapshotPtr&) {
          stamp->store(NowNs(), std::memory_order_release);
        });
  }

  coordinator.Start();

  // Poller = the coordinator quantum: merge once per pass, record how
  // stale the newest constituent shard publish was when the merge
  // became visible.
  std::atomic<bool> stop{false};
  std::vector<double> visibility_ms;
  std::thread poller([&] {
    service::SnapshotPtr prev = coordinator.GlobalSnapshot();
    while (!stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      service::SnapshotPtr snap = coordinator.GlobalSnapshot();
      if (snap == prev) continue;
      const std::int64_t now = NowNs();
      std::int64_t lag = 0;
      for (std::size_t i = 0; i < snap->shard_loads.size(); ++i) {
        if (i < prev->shard_loads.size() &&
            snap->shard_loads[i].sequence == prev->shard_loads[i].sequence) {
          continue;  // this shard did not feed the new merge
        }
        const std::int64_t stamp =
            publish_ns[i]->load(std::memory_order_acquire);
        if (stamp != 0 && now - stamp > lag) lag = now - stamp;
      }
      if (lag > 0) visibility_ms.push_back(double(lag) / 1e6);
      prev = std::move(snap);
    }
  });

  // Settle, then measure clean counter deltas.
  const auto sum_counter = [&](const char* name) {
    std::uint64_t total = 0;
    for (int s = 0; s < shards; ++s) {
      total += coordinator.shard_service(s)->metrics()->counter(name)->value();
    }
    return total;
  };
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const std::uint64_t start_quanta = sum_counter("service.quanta_stepped");
  const std::uint64_t start_fast = sum_counter("pi.incremental_fast_path");
  const std::uint64_t start_fallback = sum_counter("pi.incremental_fallback");
  const std::int64_t t0 = NowNs();
  std::this_thread::sleep_for(std::chrono::duration<double>(wall_s));
  const std::uint64_t end_quanta = sum_counter("service.quanta_stepped");
  const std::uint64_t fast = sum_counter("pi.incremental_fast_path") -
                             start_fast;
  const std::uint64_t fallback = sum_counter("pi.incremental_fallback") -
                                 start_fallback;
  const double measured_s = double(NowNs() - t0) / 1e9;

  stop.store(true, std::memory_order_release);
  poller.join();
  for (int s = 0; s < shards; ++s) {
    coordinator.shard_service(s)->SetPublishHook(nullptr);
  }
  coordinator.Stop();

  ScaleResult result;
  result.shards = shards;
  result.quanta = end_quanta - start_quanta;
  result.quanta_per_sec = double(result.quanta) / measured_s;
  result.query_quanta_per_sec = result.quanta_per_sec * per_shard;
  result.estimator_path = fallback == 0 ? (fast == 0 ? "none" : "sweep")
                          : fast == 0   ? "simulator"
                                        : "mixed";
  result.merges = coordinator.metrics()->counter("coord.merges")->value();
  const service::Histogram* merge_ns =
      coordinator.metrics()->histogram("coord.merge_ns");
  if (merge_ns->count() > 0) {
    result.merge_ns_mean = merge_ns->sum() / double(merge_ns->count());
    result.merge_ns_p99 = merge_ns->Quantile(0.99);
  }
  if (!visibility_ms.empty()) {
    double sum = 0.0;
    for (double v : visibility_ms) sum += v;
    result.publish_to_merge_ms_mean = sum / double(visibility_ms.size());
    std::vector<double> sorted = visibility_ms;
    std::sort(sorted.begin(), sorted.end());
    result.publish_to_merge_ms_p99 =
        sorted[std::min(sorted.size() - 1,
                        std::size_t(0.99 * double(sorted.size())))];
  }
  for (auto& session : sessions) session->Close();
  return result;
}

int Perfsmoke() {
  const int queries = bench::EnvInt("MQPI_SHARD_QUERIES", 2000);
  const double wall_s =
      double(bench::EnvInt("MQPI_SHARD_WALL_MS", 600)) / 1e3;
  const ScaleResult one = RunScale(1, queries, wall_s);
  const ScaleResult four = RunScale(4, queries, wall_s);
  const double ratio =
      four.quanta_per_sec /
      (one.quanta_per_sec > 0.0 ? one.quanta_per_sec : 1e-9);
  if (ratio < 3.0) {
    std::fprintf(stderr,
                 "perfsmoke FAIL: %.0f quanta/s at 4 shards vs %.0f at 1 "
                 "shard (%.2fx) with %d aggregate queries — the floor is "
                 "3x\n",
                 four.quanta_per_sec, one.quanta_per_sec, ratio, queries);
    return 1;
  }
  std::printf(
      "perfsmoke OK: %.0f quanta/s at 4 shards vs %.0f at 1 shard (%.2fx) "
      "with %d aggregate queries; %.0f vs %.0f query-quanta/s (%s path); "
      "merge mean %.0f ns, publish->merge p99 %.2f ms\n",
      four.quanta_per_sec, one.quanta_per_sec, ratio, queries,
      four.query_quanta_per_sec, one.query_quanta_per_sec,
      four.estimator_path, four.merge_ns_mean,
      four.publish_to_merge_ms_p99);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--perfsmoke") == 0) {
    return Perfsmoke();
  }

  bench::Banner(
      "Shard scaling: aggregate quanta/sec at 1/2/4/8 core-pinned shards "
      "under the identical aggregate load, plus coordinator merge cost "
      "and publish->merged-visibility latency",
      "per-quantum cost is f + (n/N)*u, so aggregate throughput "
      "approaches N*x the single scheduler as per-query work dominates; "
      "the merge runs on the reader's clock and never blocks a shard");

  const int queries = bench::EnvInt("MQPI_SHARD_QUERIES", 2000);
  const double wall_s =
      double(bench::EnvInt("MQPI_SHARD_WALL_MS", 600)) / 1e3;
  const int scales[] = {1, 2, 4, 8};

  std::FILE* json = std::fopen("BENCH_shard_scale.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_shard_scale.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"shard_scale\",\n"
               "  \"aggregate_queries\": %d,\n"
               "  \"window_s\": %.3f,\n  \"results\": [\n",
               queries, wall_s);

  std::printf("aggregate load: %d long-lived queries, %.1fs window\n\n",
              queries, wall_s);
  std::printf("%7s %14s %18s %10s %9s %9s %14s %18s\n", "shards",
              "quanta/sec", "query-quanta/sec", "path", "speedup", "merges",
              "merge ns mean", "pub->merge p99 ms");
  double baseline = 0.0;
  bool ok = true;
  for (std::size_t i = 0; i < std::size(scales); ++i) {
    const ScaleResult r = RunScale(scales[i], queries, wall_s);
    if (scales[i] == 1) baseline = r.quanta_per_sec;
    const double speedup =
        r.quanta_per_sec / (baseline > 0.0 ? baseline : 1e-9);
    std::printf("%7d %14.0f %18.0f %10s %8.2fx %9llu %14.0f %18.2f\n",
                r.shards, r.quanta_per_sec, r.query_quanta_per_sec,
                r.estimator_path, speedup,
                static_cast<unsigned long long>(r.merges), r.merge_ns_mean,
                r.publish_to_merge_ms_p99);
    std::fprintf(
        json,
        "    {\"shards\": %d, \"quanta_per_sec\": %.0f, "
        "\"query_quanta_per_sec\": %.0f, \"estimator_path\": \"%s\", "
        "\"speedup\": %.2f, \"merges\": %llu, \"merge_ns_mean\": %.0f, "
        "\"merge_ns_p99\": %.0f, \"publish_to_merge_ms_mean\": %.3f, "
        "\"publish_to_merge_ms_p99\": %.3f}%s\n",
        r.shards, r.quanta_per_sec, r.query_quanta_per_sec,
        r.estimator_path, speedup,
        static_cast<unsigned long long>(r.merges), r.merge_ns_mean,
        r.merge_ns_p99, r.publish_to_merge_ms_mean,
        r.publish_to_merge_ms_p99,
        i + 1 < std::size(scales) ? "," : "");
    if (scales[i] == 4 && speedup < 3.0) {
      std::fprintf(stderr,
                   "FAIL: %.2fx at 4 shards — the acceptance bar is >= 3x "
                   "aggregate quanta/sec over one shard\n",
                   speedup);
      ok = false;
    }
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  if (!ok) return 1;
  std::printf("\nresults written to BENCH_shard_scale.json\n");
  return 0;
}
