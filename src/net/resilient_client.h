// ResilientClient: a self-healing subscriber over net::Client.
//
// A plain Client dies with its TCP connection: a server restart, a
// net.conn_drop injection, or a shed goodbye strands it forever. The
// resilient wrapper owns a worker thread that keeps a subscription
// alive across all of that:
//
//   - reconnect with capped exponential backoff + jitter (seeded Rng —
//     deterministic in tests, decorrelated between real clients);
//   - PING-deadline liveness: a quiet stream gets a ping; no pong in
//     time means the connection is dead even if TCP has not noticed;
//   - automatic resubscribe after every reconnect, and after an
//     in-stream sequence gap (view Reset + fresh SUBSCRIBE on the same
//     connection) — either way the next push is a SNAPSHOT_FULL that
//     resyncs the view;
//   - `net.client.reconnects` / `net.client.resubscribes` counters and
//     a `net.client.connect_fail` fault point, so chaos runs can prove
//     the healing path fires.
//
// Reads are thread-safe: the worker maintains a mirror of the wire
// view under a mutex; View()/sequence()/WaitForSequence() never touch
// the socket. During an outage the mirror keeps the last synced rows
// (stale-but-available, same policy as the service's own staleness
// tagging); `connected()` says whether to trust it as fresh.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/random.h"
#include "common/status.h"
#include "net/client.h"
#include "obs/instruments.h"

namespace mqpi::fault {
class FaultInjector;
}  // namespace mqpi::fault
namespace mqpi::service {
class MetricsRegistry;
}  // namespace mqpi::service

namespace mqpi::net {

class ResilientClient {
 public:
  struct Options {
    /// Bounds each TCP connect attempt (see Client::Connect).
    double connect_timeout_s = 2.0;
    /// Reconnect backoff: initial delay, doubling to the cap, with a
    /// uniform jitter of +-50% of the delay on top.
    double backoff_initial_s = 0.05;
    double backoff_max_s = 2.0;
    /// A stream quiet for this long gets a liveness ping; the ping's
    /// own call timeout is the pong deadline.
    double ping_interval_s = 1.0;
    /// Timeout for SUBSCRIBE/PING round trips.
    double call_timeout_s = 2.0;
    /// Jitter RNG seed (tests pin it).
    std::uint64_t seed = 0x5EED5EEDu;
    /// Optional chaos wiring (net.client.connect_fail).
    fault::FaultInjector* fault = nullptr;
    /// Optional counters: net.client.reconnects,
    /// net.client.resubscribes, net.client.connect_fails.
    service::MetricsRegistry* metrics = nullptr;
    /// Stream scope on sharded servers: -1 = merged/global (default),
    /// 0..N-1 = that shard's own stream. Re-applied on every
    /// reconnect/resubscribe.
    int subscribe_shard = -1;
  };

  /// Starts the worker immediately; it connects (and keeps
  /// reconnecting) until Stop() or destruction.
  ResilientClient(std::string host, std::uint16_t port, Options options);
  ResilientClient(std::string host, std::uint16_t port)
      : ResilientClient(std::move(host), port, Options()) {}
  ~ResilientClient();

  ResilientClient(const ResilientClient&) = delete;
  ResilientClient& operator=(const ResilientClient&) = delete;

  /// Stops the worker and closes the connection. Idempotent.
  void Stop();

  bool connected() const {
    return connected_.load(std::memory_order_acquire);
  }
  /// Successful connections beyond the first.
  std::uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  /// SUBSCRIBE round trips beyond the first.
  std::uint64_t resubscribes() const {
    return resubscribes_.load(std::memory_order_relaxed);
  }
  /// Stream-gap events healed via view Reset + resubscribe.
  std::uint64_t gaps_healed() const {
    return gaps_healed_.load(std::memory_order_relaxed);
  }

  /// Thread-safe copy of the latest synced view.
  SnapshotView View() const;
  std::uint64_t sequence() const;

  /// Blocks until the mirror reaches `min_sequence` (surviving any
  /// number of reconnects on the way) or `timeout_s` expires.
  bool WaitForSequence(std::uint64_t min_sequence, double timeout_s);

 private:
  void WorkerLoop();
  /// One connection's lifetime: subscribe, pump, ping when quiet.
  /// Returns when the connection is dead or stop was requested.
  void ServeConnection(Client* client);
  void PublishMirror(const SnapshotView& view);
  /// Interruptible backoff sleep; returns false when stopping.
  bool SleepBackoff(double* backoff_s);

  const std::string host_;
  const std::uint16_t port_;
  const Options options_;
  Rng rng_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> connected_{false};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> resubscribes_{0};
  std::atomic<std::uint64_t> gaps_healed_{0};
  std::uint64_t connects_total_ = 0;   // worker thread only
  std::uint64_t subscribes_total_ = 0;  // worker thread only

  mutable std::mutex mu_;
  std::condition_variable cv_;
  SnapshotView mirror_;  // guarded by mu_

  obs::Counter* reconnects_counter_ = nullptr;
  obs::Counter* resubscribes_counter_ = nullptr;
  obs::Counter* connect_fails_counter_ = nullptr;

  std::thread worker_;
};

}  // namespace mqpi::net
