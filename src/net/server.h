// PiServer: the network-facing front end over PiService — a TCP/epoll
// event loop speaking the net/wire.h binary protocol, plus the
// in-process loopback transport the massive-subscriber bench rides.
//
// Threading model:
//   - ONE event-loop thread owns every accepted Connection (sockets,
//     buffers, push cursors). Requests are decoded, dispatched
//     against the service, and answered on that thread; no per-
//     connection locks exist.
//   - Snapshot pushes: the service's publish hook lands in the
//     SnapshotFanout (O(1) on the ticker thread — a pointer swap plus
//     one eventfd write for the loop and one waker per subscriber
//     pool). The loop thread wakes, reads Latest() once, and queues
//     the stream's shared frame (FrameFor the connection's cursor) on
//     each subscribed connection.
//   - In-process subscribers (net::LocalClient / the bench) attach to
//     the server's SubscriberPool and never touch the loop thread.
//
// Error discipline: semantic failures (unknown query, shed submit,
// bad request) are answered with Status-coded ERROR frames and the
// connection lives; stream-level corruption (bad version, oversized
// length) gets one final ERROR frame and a close; slow consumers are
// shed per the bounded write-queue policy in net/conn.h.
//
// Fault points (deterministic, see src/fault/fault_injector.h):
// kNetAcceptFail tears down fresh accepts, kNetPartialWrite throttles
// socket writes to `value` bytes, kNetSlowConsumer freezes a random
// subscribed connection's flushes (driving the shed path), and
// kNetConnDrop closes a random live connection outright.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/conn.h"
#include "net/fanout.h"
#include "net/http_export.h"
#include "net/wire.h"
#include "service/pi_service.h"
#include "service/session.h"
#include "service/sharded_service.h"

namespace mqpi::net {

struct PiServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back with port().
  std::uint16_t port = 0;
  /// Largest request payload a client may send.
  std::size_t max_frame_bytes = std::size_t{1} << 20;
  /// Per-connection bounded write queue (the shedding bound).
  std::size_t write_queue_max_frames = 256;
  std::size_t write_queue_max_bytes = std::size_t{4} << 20;
  /// Worker threads for in-process (LocalClient) subscribers.
  int pool_threads = 2;
  /// Queue bounds for in-process subscriptions.
  Subscription::Options subscription;
  /// Optional chaos harness (not owned; must outlive the server).
  fault::FaultInjector* fault = nullptr;
  /// HTTP telemetry listener on the same epoll loop (/metrics,
  /// /healthz, /statusz): -1 disables it, 0 binds an ephemeral port
  /// (read back with http_port()), otherwise the given port.
  int http_port = -1;
  std::string http_host = "127.0.0.1";
};

class PiServer {
 public:
  /// `service` must outlive the server. Metrics land in the service's
  /// registry under `net.*`.
  explicit PiServer(service::PiService* service, PiServerOptions options = {});
  /// Sharded mode: front an N-shard coordinator. Each shard publishes
  /// into its own per-shard fanout (the O(1)-publish invariant holds
  /// per shard); the loop thread assembles the merged global stream
  /// once per wake from the coordinator's cached merge. Connections
  /// subscribe to the global stream or a single shard's
  /// (SubscribeRequest::shard); sessions hash-route by connection
  /// name; query ids on the wire are global ((shard << 48) | local).
  /// `net.*` metrics land in the coordinator's registry.
  explicit PiServer(service::ShardedPiService* coordinator,
                    PiServerOptions options = {});
  /// Stops (see Stop()) if still running.
  ~PiServer();

  PiServer(const PiServer&) = delete;
  PiServer& operator=(const PiServer&) = delete;

  /// Binds + listens, installs the service publish hook, spawns the
  /// event loop and the subscriber pool. Internal on socket errors;
  /// FailedPrecondition if already started.
  Status Start();
  /// Detaches the publish hook, closes every connection, joins the
  /// loop and pool. Idempotent. Must be called (or the destructor
  /// reached) before the PiService dies.
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Graceful-drain hook (PiService::DrainHooks::goodbye): asks the
  /// loop thread to send every subscribed connection one final ERROR
  /// frame (kUnavailable, "server draining") and mark it closing, so
  /// it reaps as soon as the goodbye flushes. Blocks until the loop
  /// has done so or `timeout_s` expires. The server keeps running —
  /// call Stop() afterwards. FailedPrecondition when not running.
  Status Drain(double timeout_s = 2.0);

  /// The bound TCP port (valid after Start()).
  std::uint16_t port() const { return bound_port_; }
  /// The HTTP telemetry port (0 when disabled; valid after Start()).
  std::uint16_t http_port() const {
    return http_ != nullptr ? http_->port() : 0;
  }
  HttpExporter* http() { return http_.get(); }

  /// The merged/global stream's fanout (the only stream when
  /// unsharded).
  SnapshotFanout* fanout() { return &fanout_; }
  /// Sharded mode: shard i's own fanout; null when unsharded.
  SnapshotFanout* shard_fanout(int shard) {
    return coordinator_ != nullptr &&
                   shard >= 0 &&
                   shard < static_cast<int>(shard_fanouts_.size())
               ? shard_fanouts_[static_cast<std::size_t>(shard)].get()
               : nullptr;
  }
  SubscriberPool* pool() { return pool_.get(); }
  NetMetrics* metrics() { return metrics_.get(); }
  /// Unsharded: the one service. Sharded: shard 0's service (tracer
  /// and flight-recorder hookups are shard-0-scoped; see the .cc).
  service::PiService* service() { return service_; }
  /// Null when unsharded.
  service::ShardedPiService* coordinator() { return coordinator_; }

  /// The request dispatcher shared by the TCP loop and LocalClient:
  /// executes `request` against `session` and returns the reply body
  /// (a reply struct or ErrorReply). `session_shard` is the shard the
  /// session lives on (0 when unsharded) — sharded dispatch translates
  /// ids between the wire's global space and the shard's local space.
  /// SUBSCRIBE/UNSUBSCRIBE are transport-level and rejected here with
  /// FailedPrecondition — each transport implements them against its
  /// own push machinery.
  FrameBody Dispatch(service::Session* session, const Frame& request,
                     int session_shard = 0);

  /// Server-wide STATS fields (service liveness + net totals). The
  /// per-connection fields stay zero; the TCP loop overlays them.
  StatsReply BuildStats();

  /// Total connections the loop ever accepted (tests).
  std::uint64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }

 private:
  class LoopWaker : public SnapshotFanout::Waker {
   public:
    void Signal() override;
    int event_fd = -1;
  };

  void LoopThread();
  void AcceptPending();
  /// Read + dispatch + reply for one ready connection; false = close.
  bool ServiceConnection(Connection* conn);
  /// Queue the latest snapshot's shared frame on every subscribed conn.
  void PushSnapshots();
  void FlushConnection(Connection* conn);
  /// QueueFrame + frames/bytes accounting; false when the queue shed.
  bool QueueOnConn(Connection* conn, std::string frame);
  bool QueueOnConn(Connection* conn, FrameBytes frame);
  /// Queues a snapshot push, moves the conn's cursor to its sequence
  /// and counts it; false when the queue shed.
  bool PushOnConn(Connection* conn, const SharedFrame& frame);
  void UpdateEpollInterest(Connection* conn);
  void CloseConnection(std::uint64_t conn_id, bool count_dropped);
  void EvaluateConnFaults();
  /// Loop-thread half of Drain(): goodbye + closing for subscribers.
  void DrainOnLoop();
  /// Sharded only: publish the coordinator's merged view into the
  /// global fanout when any shard published since the last wake (the
  /// coordinator quantum — one merge per loop wake, not per shard
  /// publish).
  void MaybePublishMerged();
  /// Any stream (global or shard) with publishes the loop hasn't
  /// pushed yet?
  bool PushPending() const;
  /// SUBSCRIBE handling for the TCP transport (scope validation +
  /// immediate full frame).
  void HandleSubscribe(Connection* conn, const Frame& frame);

  service::PiService* const service_;
  service::ShardedPiService* const coordinator_;  // null when unsharded
  const PiServerOptions options_;
  fault::FaultInjector* const fault_;
  obs::Tracer* const tracer_;

  std::unique_ptr<NetMetrics> metrics_;
  SnapshotFanout fanout_;
  /// Sharded only: one fanout per shard, index-aligned with the
  /// coordinator's shards. Each shard's publish hook lands here —
  /// pointer swap + waker signal, nothing global.
  std::vector<std::unique_ptr<SnapshotFanout>> shard_fanouts_;
  std::unique_ptr<SubscriberPool> pool_;
  std::unique_ptr<HttpExporter> http_;  // null when http_port < 0
  LoopWaker waker_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: publish wakeups + stop
  std::uint16_t bound_port_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> drain_requested_{false};
  std::atomic<std::uint64_t> drains_done_{0};
  std::thread loop_;

  // Loop-thread-only state.
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::unordered_map<int, std::uint64_t> conn_by_fd_;
  std::uint64_t next_conn_id_ = 1;
  std::uint64_t pushed_epoch_ = 0;
  std::vector<std::uint64_t> pushed_shard_epochs_;
  /// Last merged snapshot the loop published into fanout_ (pointer
  /// compare against the coordinator's cache).
  service::SnapshotPtr last_merged_;
  std::atomic<std::uint64_t> accepted_{0};
};

}  // namespace mqpi::net
