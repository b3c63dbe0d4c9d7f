// HttpExporter: a minimal GET-only HTTP/1.1 listener riding the
// PiServer's epoll loop — no second event loop, no extra threads. It
// exists so standard tooling can scrape the telemetry plane without
// speaking the binary wire protocol:
//
//   GET /metrics  -> the MetricsRegistry's Prometheus text exposition
//   GET /healthz  -> ticker liveness (PiService::CheckLiveness): 200
//                    while the ticker is publishing (or idle), 503
//                    once work is pending past the stall threshold;
//                    the body carries uptime, staleness age, watchdog
//                    restarts, and the slow-consumer shed count
//   GET /statusz  -> operational summary: liveness line, hot-path
//                    profiler table (obs::GlobalProfiler), flight-
//                    recorder summary, and connection gauges
//
// Scope is deliberately tiny: requests are a single GET line (any
// other method earns 405, unknown paths 404, an unparsable or
// oversized request 400), responses carry Content-Length and
// `Connection: close`, and every connection serves exactly one
// request. That is all curl and a Prometheus scraper need, and it
// keeps the parser too small to be an attack surface.
//
// Threading: the owner (PiServer) registers the exporter's fds on its
// epoll and routes readiness events here via Owns()/OnEvent(); every
// method below runs on that one loop thread, so there are no locks.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/status.h"

namespace mqpi::service {
class PiService;
class ShardedPiService;
}  // namespace mqpi::service

namespace mqpi::net {

struct NetMetrics;

class HttpExporter {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// 0 = ephemeral; read the bound port back with port().
    std::uint16_t port = 0;
  };
  /// Requests larger than this are answered 400 and closed.
  static constexpr std::size_t kMaxRequestBytes = 8192;
  /// Accepts beyond this many concurrent scrapes are refused.
  static constexpr std::size_t kMaxConnections = 64;

  /// `service` (and `net_metrics`, when given) must outlive the
  /// exporter; `net_metrics` enriches /healthz and /statusz with the
  /// serving edge's shed/connection tallies.
  HttpExporter(service::PiService* service, NetMetrics* net_metrics,
               Options options);
  /// Sharded variant: /metrics concatenates the coordinator's coord.*
  /// series with every shard's registry (each series labeled
  /// shard="i"), /healthz aggregates (healthy = no shard stalled), and
  /// /statusz dumps every shard's flight recorder.
  HttpExporter(service::ShardedPiService* coordinator,
               NetMetrics* net_metrics, Options options);
  ~HttpExporter();

  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  /// Binds + listens and registers the listen fd on `epoll_fd` (the
  /// owner's loop). Further connection fds are registered there too.
  Status Start(int epoll_fd);
  /// Closes the listener and every live scrape connection. Must be
  /// called after the owning loop thread has stopped (or from it).
  void Stop();

  /// True when `fd` belongs to this exporter (listener or scrape).
  bool Owns(int fd) const;
  /// Handles one epoll readiness event for an owned fd.
  void OnEvent(int fd, std::uint32_t events);

  /// The bound TCP port (valid after Start()).
  std::uint16_t port() const { return bound_port_; }

  /// Requests answered, by status class (tests / statusz). Atomic so
  /// tests may read them while the loop thread is still serving.
  std::uint64_t requests_ok() const {
    return requests_ok_.load(std::memory_order_relaxed);
  }
  std::uint64_t requests_error() const {
    return requests_error_.load(std::memory_order_relaxed);
  }

  /// Test-only: makes the next `n` scrape-fd epoll registrations behave
  /// as if epoll_ctl(EPOLL_CTL_ADD) failed. Lets tests cover the
  /// registration-failure path, which cannot be provoked naturally on a
  /// healthy epoll. Safe to arm from a test thread; the countdown is
  /// consumed on the loop thread.
  void InjectEpollAddFailuresForTest(int n) {
    inject_epoll_add_failures_.store(n, std::memory_order_relaxed);
  }

 private:
  struct Scrape {
    std::string in;    // request bytes until the blank line
    std::string out;   // encoded response
    std::size_t sent = 0;
    bool responding = false;
  };

  void AcceptPending();
  void HandleReadable(int fd, Scrape* scrape);
  void FlushScrape(int fd, Scrape* scrape);
  void CloseScrape(int fd);
  /// Routes a parsed request line to a handler; returns the full
  /// HTTP/1.1 response bytes.
  std::string RespondTo(const std::string& method, const std::string& path);
  std::string MetricsBody() const;
  std::string HealthBody(bool* healthy) const;
  std::string StatusBody() const;

  /// Unsharded: the one service. Sharded: shard 0's service (the
  /// single-service fallbacks below stay shard-0-scoped by design).
  service::PiService* const service_;
  service::ShardedPiService* const coordinator_;  // null when unsharded
  NetMetrics* const net_metrics_;  // may be null
  const Options options_;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::unordered_map<int, Scrape> scrapes_;
  std::atomic<std::uint64_t> requests_ok_{0};
  std::atomic<std::uint64_t> requests_error_{0};
  std::atomic<int> inject_epoll_add_failures_{0};
};

}  // namespace mqpi::net
