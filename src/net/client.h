// Client-side pieces of the wire protocol:
//
//   SnapshotView — one immutable ProgressSnapshot held by pointer: the
//   published one itself in process, or one a TCP client builds from
//   the SNAPSHOT_FULL / SNAPSHOT_DELTA push stream (the inverse of
//   DeltaEncoder). A stream gap makes the caller resubscribe.
//
//   Client — a blocking TCP client for examples, tests, and tools.
//   One Call() per request; snapshot pushes that interleave with the
//   reply stream are applied to the embedded view as they arrive.
//   Deliberately simple: one outstanding request, poll(2) timeouts.
//
//   LocalSubscriber — the no-socket endpoint the 100k-subscriber bench
//   instantiates in bulk: a SubscriberPool Subscription whose last
//   popped snapshot is the view, shared, never copied or decoded.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "net/fanout.h"
#include "net/wire.h"

namespace mqpi::net {

class SnapshotView {
 public:
  /// The empty, sequence-0 view.
  SnapshotView();
  /// A view of `snapshot` itself (null = empty): Find reads its rows.
  explicit SnapshotView(service::SnapshotPtr snapshot);

  /// Applies one push frame (decoded SnapshotFrame + which kind): the
  /// view moves to a new snapshot, the held one patched by one
  /// id-ordered merge. FailedPrecondition when a delta's base sequence
  /// is not the view's — a stream gap; resubscribe. On any error the
  /// view keeps what it held.
  Status Apply(const SnapshotFrame& frame, bool is_full);

  /// Back to the empty, sequence-0 state (the applied-frame tallies
  /// survive) — reuse the view across a resubscribe without carrying
  /// rows the new stream may never mention again.
  void Reset();

  std::uint64_t sequence() const { return snapshot_->sequence; }
  SimTime sim_time() const { return snapshot_->sim_time; }
  bool degraded() const { return snapshot_->degraded; }
  std::int32_t num_running() const { return snapshot_->num_running; }
  std::int32_t num_queued() const { return snapshot_->num_queued; }
  std::size_t rows() const { return snapshot_->queries.size(); }
  std::uint64_t fulls_applied() const { return fulls_applied_; }
  std::uint64_t deltas_applied() const { return deltas_applied_; }
  /// Per-shard load gauges from the last frame; empty on single-shard
  /// streams.
  const std::vector<service::ShardLoad>& shard_loads() const {
    return snapshot_->shard_loads;
  }

  const service::QueryProgress* Find(QueryId id) const {
    return snapshot_->Find(id);
  }
  /// The snapshot the view holds (rows sorted by id); never null.
  const service::SnapshotPtr& snapshot() const { return snapshot_; }

 private:
  service::SnapshotPtr snapshot_;
  std::uint64_t fulls_applied_ = 0;
  std::uint64_t deltas_applied_ = 0;
};

// ---- TCP client -------------------------------------------------------------

class Client {
 public:
  /// Connects to a PiServer; `timeout_s` bounds the TCP connect itself
  /// (non-blocking connect + poll — a black-holed host fails in
  /// `timeout_s`, it does not hang). Internal on socket errors.
  static Result<std::unique_ptr<Client>> Connect(const std::string& host,
                                                 std::uint16_t port,
                                                 double timeout_s = 5.0);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Typed requests (each = one Call round trip; server errors come
  // back as the ERROR frame's Status).
  Result<QueryId> SubmitSql(const std::string& sql,
                            Priority priority = Priority::kNormal);
  Result<QueryId> SubmitSynthetic(double cost,
                                  Priority priority = Priority::kNormal,
                                  const std::string& label = "");
  Status Cancel(QueryId id);
  Result<ProgressReply> Progress(QueryId id);
  Result<SimTime> WhatIf(const WhatIfRequest& scenario);
  Status Ping();
  /// Server health: service liveness, fan-out totals, and this
  /// connection's transfer counters (see wire.h StatsReply).
  Result<StatsReply> Stats();
  /// SUBSCRIBE; the immediate full snapshot lands in view() (either
  /// during this call or on the next Pump). `shard` picks the stream
  /// on sharded servers: -1 = merged/global, 0..N-1 = that shard's own
  /// publication (see wire.h SubscribeRequest).
  Status Subscribe(int shard = -1);
  Status Unsubscribe();

  /// Generic round trip: sends `request`, applies any interleaved
  /// snapshot pushes to view(), returns the matching reply body.
  Result<FrameBody> Call(const FrameBody& request, double timeout_s = 5.0);

  /// Drains pushed frames until view() reaches `min_sequence` or the
  /// timeout expires. Returns the view's sequence.
  Result<std::uint64_t> WaitForSequence(std::uint64_t min_sequence,
                                        double timeout_s = 5.0);

  /// Reads frames until one snapshot push has been applied to view()
  /// or `timeout_s` elapses: true = a push landed, false = timeout.
  /// Stream gaps (FailedPrecondition from the view) and connection
  /// errors surface as errors; non-push frames are skipped. The
  /// resilient wrapper's pump loop.
  Result<bool> PumpOne(double timeout_s);

  const SnapshotView& view() const { return view_; }
  /// The view is the caller's to reset across a resubscribe.
  SnapshotView* mutable_view() { return &view_; }

 private:
  explicit Client(int fd) : fd_(fd) {}

  /// Blocks (up to `timeout_s`) for the next complete frame. On
  /// failure, `*timed_out` (optional) distinguishes deadline expiry
  /// from connection errors.
  Result<Frame> ReadFrame(double timeout_s, bool* timed_out = nullptr);
  Status WriteAll(const std::string& bytes, double timeout_s);
  /// Applies a push frame to the view; resubscribe-on-gap is the
  /// caller's job (the Status surfaces it).
  Status ApplyPush(const Frame& frame);

  int fd_;
  std::string inbuf_;
  std::size_t inpos_ = 0;
  std::uint64_t next_request_id_ = 1;
  SnapshotView view_;
};

// ---- in-process subscriber --------------------------------------------------

class LocalSubscriber {
 public:
  /// Wraps a Subscription obtained from PiServer::pool()->Subscribe().
  explicit LocalSubscriber(std::shared_ptr<Subscription> subscription)
      : subscription_(std::move(subscription)) {}

  /// Drains the queue; the last snapshot popped becomes the view.
  /// Returns snapshots popped; `*shed_out` (optional) reports whether
  /// the shed goodbye was consumed. `sequences` (optional) collects the
  /// sequence of each popped snapshot, in order (latency stamping).
  int Pump(std::vector<std::uint64_t>* sequences = nullptr,
           bool* shed_out = nullptr);

  const SnapshotView& view() const { return view_; }
  const std::shared_ptr<Subscription>& subscription() const {
    return subscription_;
  }
  bool shed() const { return saw_shed_; }

 private:
  std::shared_ptr<Subscription> subscription_;
  SnapshotView view_;
  bool saw_shed_ = false;
};

}  // namespace mqpi::net
