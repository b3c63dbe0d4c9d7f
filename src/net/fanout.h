// Snapshot fan-out: one published ProgressSnapshot reaching any number
// of subscribers with O(1) work on the publishing (ticker) thread.
//
// The pieces, bottom-up:
//
//   SnapshotFanout — the publication hub. `Publish(snapshot)` swaps a
//   shared_ptr (snapshots are already immutable and ref-counted — the
//   service's PR 1 invariant), bumps an epoch, stamps the sequence's
//   wall-clock time into a lock-free ring (latency measurement), and
//   signals the registered *wakers*. A waker is one per event loop /
//   worker pool — never one per subscriber — so the publish path costs
//   1 pointer swap + #wakers signals regardless of how many clients
//   are subscribed. Subscriber churn never touches the publish path at
//   all: subscriptions live in the pools and epoll loops downstream.
//   `publish_ops()` counts the exact work per publish so the perfsmoke
//   gate can assert O(1)-in-subscribers by measurement.
//
//   Shared frames — the hub also keeps the snapshot published before
//   `Latest()`, and `FrameFor(have_sequence)` hands a subscriber the
//   wire frame that brings it up to `Latest()`: the SNAPSHOT_DELTA
//   against that previous snapshot when the subscriber holds it, the
//   SNAPSHOT_FULL otherwise (first contact, or lagging by more than
//   one publish). Each kind is encoded at most once per published
//   sequence, by the first consumer thread that asks, under a cache
//   mutex the publisher never takes; every subscriber then queues the
//   same immutable ref-counted bytes. Per-subscriber state is just a
//   cursor (the last sequence delivered), so fan-out memory and CPU
//   follow the frame, not subscribers x frame.
//
//   DeltaEncoder — the differ behind those frames, also usable on its
//   own. Remembers the last snapshot it encoded and emits either a
//   SNAPSHOT_FULL frame (first contact) or a SNAPSHOT_DELTA containing
//   only rows that changed (state/priority/weight/degraded/queue
//   position, or any estimate field, compared bitwise) plus the ids of
//   rows that left (terminal queries reaped after the retention
//   window). Snapshots are sorted by query id, so the diff is one
//   linear merge-walk.
//
//   Subscription — one in-process subscriber endpoint: a delivery
//   cursor plus a bounded queue of shared frames (frames x bytes
//   caps). The producer side (a SubscriberPool worker) enqueues; the
//   consumer side pops the shared bytes. Overflow = slow consumer: the
//   queue is cleared, a Status-coded ERROR frame (kResourceExhausted)
//   is left as the final message, and the subscription is shed —
//   exactly the PR 4 bounded-queue shedding discipline at the network
//   edge.
//
//   SubscriberPool — worker threads fanning published snapshots out to
//   sharded Subscription sets. Registers ONE waker with the fanout;
//   each worker wakes on publish, reads `Latest()` once, and walks its
//   shards queueing the shared frame each subscriber needs. All
//   per-subscriber work happens here, off the ticker thread.
//
// TCP connections use the same SnapshotFanout and shared frames but
// skip Subscription/SubscriberPool: their cursor and write queue live
// in the epoll loop (see net/conn.h / net/server.h).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/metrics.h"
#include "service/snapshot.h"

namespace mqpi::fault {
class FaultInjector;
}  // namespace mqpi::fault
namespace mqpi::obs {
class Tracer;
}  // namespace mqpi::obs

namespace mqpi::net {

class SnapshotFanout;

/// Encoded wire bytes shared by every queue that holds them.
using FrameBytes = std::shared_ptr<const std::string>;

/// Wraps freshly encoded bytes (a reply, an error goodbye) for a queue.
inline FrameBytes ShareFrame(std::string bytes) {
  return std::make_shared<const std::string>(std::move(bytes));
}

/// One snapshot frame as SnapshotFanout::FrameFor hands it out: the
/// shared bytes plus what they carry. `bytes` is null before the first
/// publish.
struct SharedFrame {
  FrameBytes bytes;
  std::uint64_t sequence = 0;
  bool full = false;
  std::uint64_t rows_sent = 0;
  std::uint64_t rows_skipped = 0;  // unchanged rows a delta elides
};

/// The net layer's instruments, resolved once against the service's
/// MetricsRegistry (all names pass the `lint` label check). Shared by
/// the TCP server, the subscriber pools, and the connections.
struct NetMetrics {
  service::Counter* frames_sent = nullptr;
  service::Counter* bytes_sent = nullptr;
  service::Counter* frames_received = nullptr;
  service::Counter* bytes_received = nullptr;
  service::Counter* delta_frames = nullptr;
  service::Counter* full_frames = nullptr;
  service::Counter* delta_rows_sent = nullptr;
  service::Counter* delta_rows_skipped = nullptr;
  service::Counter* slow_consumers_shed = nullptr;
  service::Counter* requests = nullptr;
  service::Counter* request_errors = nullptr;
  service::Counter* accepts = nullptr;
  service::Counter* accept_failures = nullptr;
  service::Counter* conns_dropped = nullptr;
  service::Counter* publish_wakeups = nullptr;
  /// Frames the hubs' shared caches encoded (at most one delta and one
  /// full frame per published sequence and stream), and the rows of
  /// the snapshot behind the latest one: the retained-state gauge of
  /// the fan-out. Both move on the encoding consumer thread, never in
  /// Publish.
  service::Counter* frames_encoded = nullptr;
  service::Gauge* snapshot_rows = nullptr;
  /// Live counts, moved by concurrent Add(+-1) from the loop and the
  /// subscriber pools; /statusz and STATS read them too.
  service::Gauge* connections = nullptr;
  service::Gauge* subscriptions = nullptr;
  /// Publish -> socket/queue write latency per subscriber delivery,
  /// in nanoseconds (publish stamp from SnapshotFanout::PublishWallNs).
  service::Histogram* publish_to_write_ns = nullptr;

  /// Observes one delivery of `sequence` happening now against its
  /// publish stamp; no-op when the stamp was evicted from the ring.
  void ObservePublishToWrite(const SnapshotFanout& fanout,
                             std::uint64_t sequence);
  /// Counts one delivery of a snapshot frame: the full/delta split and
  /// the frame's rows sent and elided.
  void CountSnapshotFrame(const SharedFrame& frame);

  explicit NetMetrics(service::MetricsRegistry* registry);
};

// ---- fan-out hub ------------------------------------------------------------

class SnapshotFanout {
 public:
  /// One signal target per event loop / worker pool. Signal() must be
  /// cheap and non-blocking (eventfd write, cv notify).
  class Waker {
   public:
    virtual ~Waker() = default;
    virtual void Signal() = 0;
  };

  SnapshotFanout();

  /// O(1) in subscribers: pointer swap + epoch bump + one Signal per
  /// registered waker. Safe from any thread; called by the service's
  /// publish hook on the ticker thread.
  void Publish(service::SnapshotPtr snapshot);

  /// Latest published snapshot (may be null before the first publish)
  /// and, optionally, the current epoch.
  service::SnapshotPtr Latest(std::uint64_t* epoch = nullptr) const;

  /// The frame that brings a subscriber holding `have_sequence` (0 =
  /// nothing yet) up to Latest(): the SNAPSHOT_DELTA against the
  /// previously published snapshot when `have_sequence` is its
  /// sequence, the SNAPSHOT_FULL otherwise. The first caller per
  /// sequence and kind encodes it (counted in `metrics`, optional);
  /// later callers share the bytes. Never called from Publish.
  SharedFrame FrameFor(std::uint64_t have_sequence,
                       NetMetrics* metrics = nullptr);

  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Wakers are per-loop, not per-subscriber; registration is rare.
  void RegisterWaker(Waker* waker);
  void UnregisterWaker(Waker* waker);

  /// Wall-clock stamp (steady_clock ns) recorded when `sequence` was
  /// published; 0 when the sequence has been evicted from the ring.
  /// Lock-free; used by subscribers to measure publish->read latency.
  std::int64_t PublishWallNs(std::uint64_t sequence) const;

  /// Publishes ever made, and total unit ops spent inside Publish
  /// (1 + wakers signaled per call). publish_ops()/publishes() is the
  /// perfsmoke invariant: constant in the subscriber count.
  std::uint64_t publishes() const {
    return publishes_.load(std::memory_order_relaxed);
  }
  std::uint64_t publish_ops() const {
    return publish_ops_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kStampRing = 4096;

  // Guards latest_, previous_ and wakers_; pointer ops only.
  mutable std::mutex mu_;
  service::SnapshotPtr latest_;
  service::SnapshotPtr previous_;  // published just before latest_
  std::vector<Waker*> wakers_;
  /// The frames encoded for one (latest, previous) pair; replaced as a
  /// whole once FrameFor sees a newer publish. Holding `previous` here
  /// means the snapshot Publish drops from previous_ is freed by this
  /// replacement, on a consumer thread, not on the ticker.
  struct FrameCache {
    service::SnapshotPtr latest;
    service::SnapshotPtr previous;
    SharedFrame full;
    SharedFrame delta;
  };
  // Guards frames_; taken before mu_, and never by Publish.
  std::mutex frames_mu_;
  FrameCache frames_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> publishes_{0};
  std::atomic<std::uint64_t> publish_ops_{0};
  // seq -> wall ns, indexed seq % kStampRing; readers validate the seq.
  std::array<std::atomic<std::uint64_t>, kStampRing> stamp_seq_;
  std::array<std::atomic<std::int64_t>, kStampRing> stamp_ns_;
};

// ---- delta encoding ---------------------------------------------------------

class DeltaEncoder {
 public:
  struct Stats {
    std::uint64_t fulls = 0;
    std::uint64_t deltas = 0;
    std::uint64_t rows_sent = 0;
    std::uint64_t rows_skipped = 0;  // unchanged rows elided from deltas
  };

  /// Encodes `next` as a wire frame against the last snapshot encoded:
  /// SNAPSHOT_FULL on first contact (or after Reset), SNAPSHOT_DELTA
  /// with only the changed rows and the removed ids afterwards. Returns
  /// the encoded frame; `*is_full` (optional) reports which. Never
  /// returns an empty string: an unchanged-rows publish still yields a
  /// header-only delta so the subscriber's sequence stays fresh.
  std::string Encode(const service::SnapshotPtr& next,
                     bool* is_full = nullptr);

  /// Forget the last-sent state; the next Encode emits a full frame.
  void Reset() { last_.reset(); }

  const Stats& stats() const { return stats_; }

  /// True when any delta-relevant field differs (bitwise on doubles, so
  /// inf/NaN compare sanely and "changed" means changed bits on the
  /// wire).
  static bool RowChanged(const service::QueryProgress& a,
                         const service::QueryProgress& b);

 private:
  service::SnapshotPtr last_;
  Stats stats_;
};

// ---- in-process subscriber endpoint -----------------------------------------

class Subscription {
 public:
  struct Options {
    std::size_t max_queued_frames = 64;
    std::size_t max_queued_bytes = std::size_t{4} << 20;
  };

  explicit Subscription(Options options) : options_(options) {}

  /// Producer side (pool worker): enqueue `frame`, the hub's
  /// FrameFor(delivered_sequence()), and advance the cursor to its
  /// sequence. Returns false when this call shed the subscription
  /// (bounded-queue overflow); the queue then holds a single ERROR
  /// frame and the subscription is dead.
  bool Deliver(const SharedFrame& frame, NetMetrics* metrics);

  /// Consumer side: pops the next wire frame (shared, not copied);
  /// false when the queue is empty.
  bool TryPop(FrameBytes* frame);

  bool shed() const { return shed_.load(std::memory_order_acquire); }
  /// Marks the subscription dead without an error frame (unsubscribe,
  /// connection drop). Idempotent.
  void Cancel();
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Chaos hook (kNetSlowConsumer): the next `n` TryPop calls return
  /// empty, simulating a consumer that stopped draining; deliveries
  /// keep landing, so the bounded queue sheds the subscription.
  void StallPops(int n);
  /// Queue fully drained (shed subscriptions linger until their final
  /// error frame has been consumed).
  bool Drained() const;

  /// Sequence of the last snapshot delivered: the cursor FrameFor
  /// reads (0 before the first delivery).
  std::uint64_t delivered_sequence() const {
    return delivered_sequence_.load(std::memory_order_relaxed);
  }

 private:
  const Options options_;
  mutable std::mutex mu_;
  std::deque<FrameBytes> queue_;
  std::size_t queued_bytes_ = 0;
  std::atomic<std::uint64_t> delivered_sequence_{0};
  std::atomic<bool> shed_{false};
  std::atomic<bool> cancelled_{false};
  std::atomic<int> stalled_pops_{0};
};

// ---- worker pool ------------------------------------------------------------

class SubscriberPool {
 public:
  struct Options {
    int threads = 2;
    Subscription::Options subscription;
    /// Optional chaos harness: kNetSlowConsumer / kNetConnDrop fire in
    /// the sweep loop. Not owned; must outlive the pool.
    fault::FaultInjector* fault = nullptr;
  };

  /// `fanout` and `metrics` must outlive the pool. Registers one waker
  /// with the fanout; Start() spawns the workers. (Two overloads
  /// because a nested aggregate's NSDMIs cannot feed a default
  /// argument inside the enclosing class.)
  SubscriberPool(SnapshotFanout* fanout, NetMetrics* metrics);
  SubscriberPool(SnapshotFanout* fanout, NetMetrics* metrics,
                 Options options);
  ~SubscriberPool();

  SubscriberPool(const SubscriberPool&) = delete;
  SubscriberPool& operator=(const SubscriberPool&) = delete;

  void Start();
  void Stop();

  /// Registers a subscriber; sharded round-robin across workers. The
  /// returned handle is the consumer endpoint; release it with
  /// Unsubscribe (or just Cancel() it — dead subscriptions are swept
  /// out lazily).
  std::shared_ptr<Subscription> Subscribe();
  void Unsubscribe(const std::shared_ptr<Subscription>& subscription);

  std::uint64_t sweeps() const {
    return sweeps_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    std::mutex mu;
    std::vector<std::shared_ptr<Subscription>> subs;
  };

  class PoolWaker : public SnapshotFanout::Waker {
   public:
    explicit PoolWaker(SubscriberPool* pool) : pool_(pool) {}
    void Signal() override;

   private:
    SubscriberPool* pool_;
  };

  void WorkerLoop(int worker_index);
  /// One pass over this worker's shard: queue the shared frame for the
  /// latest snapshot on every live subscription that has not seen it.
  void SweepShard(Shard* shard, const service::SnapshotPtr& snapshot);

  SnapshotFanout* const fanout_;
  NetMetrics* const metrics_;
  obs::Tracer* const tracer_;
  const Options options_;
  PoolWaker waker_;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::uint64_t wake_epoch_ = 0;  // guarded by wake_mu_
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> sweeps_{0};
  std::atomic<std::uint64_t> next_shard_{0};

  std::vector<std::unique_ptr<Shard>> shards_;  // one per worker
  std::vector<std::thread> workers_;
};

}  // namespace mqpi::net
