// pi_top: a remote top(1)-style progress dashboard over the wire
// protocol. Connects to a running pi_server, SUBSCRIBEs, and renders
// the pushed snapshot stream — full frame first, then deltas merged
// client-side by net::SnapshotView — so the server does O(changed
// rows) work per refresh no matter how many dashboards watch. Each
// refresh also issues a STATS round trip and renders a server-health
// footer: ticker liveness, watchdog restarts, shed consumers, and
// this connection's full/delta frame split.
//
// Usage: pi_top [host] [port] [seconds]
//   host     server address (default 127.0.0.1)
//   port     server port (default 7654)
//   seconds  how long to watch before disconnecting (default 30)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "net/client.h"
#include "sched/rdbms.h"

using namespace mqpi;

namespace {

std::string Bar(double fraction, int width) {
  if (fraction < 0.0) fraction = 0.0;
  if (fraction > 1.0) fraction = 1.0;
  const int filled = static_cast<int>(fraction * width + 0.5);
  std::string bar(static_cast<std::size_t>(filled), '#');
  bar.append(static_cast<std::size_t>(width - filled), '.');
  return bar;
}

std::string Eta(double seconds) {
  if (seconds == kUnknown) return "?";
  if (seconds >= kInfiniteTime) return "inf";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fs", seconds);
  return buf;
}

void Render(const net::SnapshotView& view) {
  std::printf("\n=== seq #%llu | t = %5.1f s | running %d | queued %d | "
              "%llu fulls + %llu deltas applied ===\n",
              static_cast<unsigned long long>(view.sequence()),
              view.sim_time(), view.num_running(), view.num_queued(),
              static_cast<unsigned long long>(view.fulls_applied()),
              static_cast<unsigned long long>(view.deltas_applied()));
  std::printf("%-5s %-9s %-26s %8s %10s %6s\n", "id", "state", "progress",
              "done%", "multi ETA", "queue");
  for (const auto& q : view.snapshot()->queries) {
    if (q.terminal()) continue;
    const std::string queue_pos =
        q.queue_position >= 0 ? "#" + std::to_string(q.queue_position) : "-";
    std::printf("%-5llu %-9s [%s] %7.1f%% %10s %6s\n",
                static_cast<unsigned long long>(q.id),
                std::string(sched::QueryStateName(q.state)).c_str(),
                Bar(q.fraction_done, 24).c_str(), 100.0 * q.fraction_done,
                Eta(q.eta_multi).c_str(), queue_pos.c_str());
  }
}

// Sharded servers attach per-shard rows to STATS; single-shard servers
// send none and the footer stays exactly the classic two-line layout.
void RenderShards(const net::StatsReply& stats) {
  if (stats.shards.empty()) return;
  for (const net::ShardStatsRow& row : stats.shards) {
    std::printf("--- shard %d: up %llu quanta | published #%llu | age %.1f "
                "quanta%s | restarts %llu | running %d | queued %d ---\n",
                row.shard,
                static_cast<unsigned long long>(row.uptime_quanta),
                static_cast<unsigned long long>(row.snapshots_published),
                row.ticker_age_quanta, row.degraded ? " | DEGRADED" : "",
                static_cast<unsigned long long>(row.watchdog_restarts),
                row.num_running, row.num_queued);
  }
}

void RenderHealth(const net::StatsReply& stats) {
  std::printf("--- server: up %llu quanta | published #%llu | age %.1f "
              "quanta%s | restarts %llu | shed %llu ---\n",
              static_cast<unsigned long long>(stats.uptime_quanta),
              static_cast<unsigned long long>(stats.snapshots_published),
              stats.ticker_age_quanta, stats.degraded ? " | DEGRADED" : "",
              static_cast<unsigned long long>(stats.watchdog_restarts),
              static_cast<unsigned long long>(stats.consumers_shed));
  std::printf("--- conns %llu (%llu subscribed) | this conn: %llu frames "
              "(%llu full + %llu delta), %llu bytes, queue hw %llu ---\n",
              static_cast<unsigned long long>(stats.connections),
              static_cast<unsigned long long>(stats.subscriptions),
              static_cast<unsigned long long>(stats.conn_frames_sent),
              static_cast<unsigned long long>(stats.conn_full_frames),
              static_cast<unsigned long long>(stats.conn_delta_frames),
              static_cast<unsigned long long>(stats.conn_bytes_sent),
              static_cast<unsigned long long>(stats.conn_queue_hw_frames));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string host = argc > 1 ? argv[1] : "127.0.0.1";
  const auto port = static_cast<std::uint16_t>(
      argc > 2 ? std::atoi(argv[2]) : 7654);
  const int seconds = argc > 3 ? std::atoi(argv[3]) : 30;

  auto connected = net::Client::Connect(host, port);
  if (!connected.ok()) {
    std::fprintf(stderr, "cannot connect to %s:%u: %s\n", host.c_str(), port,
                 connected.status().ToString().c_str());
    return 1;
  }
  auto client = std::move(connected).value();
  if (Status status = client->Subscribe(); !status.ok()) {
    std::fprintf(stderr, "subscribe failed: %s\n", status.ToString().c_str());
    return 1;
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    // Block until at least one snapshot newer than what we hold lands.
    const auto sequence =
        client->WaitForSequence(client->view().sequence() + 1, 1.0);
    if (!sequence.ok()) {
      // A timeout just means an idle server; anything else (server
      // shut down, subscription shed) ends the session.
      if (sequence.status().message().find("timed out") !=
          std::string::npos) {
        continue;
      }
      std::fprintf(stderr, "stream ended: %s\n",
                   sequence.status().ToString().c_str());
      break;
    }
    Render(client->view());
    if (auto stats = client->Stats(); stats.ok()) {
      RenderHealth(*stats);
      RenderShards(*stats);
    }
  }
  (void)client->Unsubscribe();
  return 0;
}
