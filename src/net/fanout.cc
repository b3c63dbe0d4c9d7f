#include "net/fanout.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <utility>

#include "fault/fault_injector.h"
#include "net/wire.h"
#include "obs/profiler.h"
#include "obs/tracer.h"

namespace mqpi::net {

namespace {

std::int64_t NowNs() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

bool BitsDiffer(double a, double b) {
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof ua);
  std::memcpy(&ub, &b, sizeof ub);
  return ua != ub;
}

// The one encode behind DeltaEncoder::Encode and the hub's shared
// frames: SNAPSHOT_FULL when `base` is null, else the SNAPSHOT_DELTA
// from `base` to `next`. Adds the rows sent and elided to the counts.
std::string EncodeSnapshot(const service::ProgressSnapshot* base,
                           const service::ProgressSnapshot& next,
                           std::uint64_t* rows_sent,
                           std::uint64_t* rows_skipped) {
  MQPI_PROF_SITE(prof, "net.delta_encode");
  SnapshotFrame frame;
  frame.sequence = next.sequence;
  frame.sim_time = next.sim_time;
  frame.num_running = next.num_running;
  frame.num_queued = next.num_queued;
  frame.num_blocked = next.num_blocked;
  frame.measured_rate = next.measured_rate;
  frame.quiescent_eta = next.quiescent_eta;
  frame.age_quanta = next.age_quanta;
  frame.degraded = next.degraded;
  frame.total_rows = static_cast<std::uint32_t>(next.queries.size());
  // Shard loads ride every frame whole: N entries is noise next to the
  // row set, and deltas stay self-contained.
  frame.shard_loads = next.shard_loads;

  if (base == nullptr) {
    frame.rows = next.queries;
  } else {
    // Both row sets are sorted by id: one merge-walk finds the changed
    // and new rows, and the ids that left (reaped terminal queries).
    const auto& old_rows = base->queries;
    std::size_t oi = 0;
    for (const auto& row : next.queries) {
      while (oi < old_rows.size() && old_rows[oi].id < row.id) {
        frame.removed.push_back(old_rows[oi++].id);
      }
      if (oi < old_rows.size() && old_rows[oi].id == row.id) {
        if (DeltaEncoder::RowChanged(old_rows[oi], row)) {
          frame.rows.push_back(row);
        } else {
          ++*rows_skipped;
        }
        ++oi;
      } else {
        frame.rows.push_back(row);  // new query
      }
    }
    for (; oi < old_rows.size(); ++oi) frame.removed.push_back(old_rows[oi].id);
    frame.base_sequence = base->sequence;
  }
  *rows_sent += frame.rows.size();
  return EncodeFrame(/*request_id=*/0, FrameBody(std::move(frame)),
                     /*full_snapshot=*/base == nullptr);
}

}  // namespace

NetMetrics::NetMetrics(service::MetricsRegistry* registry) {
  frames_sent = registry->counter("net.frames_sent");
  bytes_sent = registry->counter("net.bytes_sent");
  frames_received = registry->counter("net.frames_received");
  bytes_received = registry->counter("net.bytes_received");
  delta_frames = registry->counter("net.delta_frames");
  full_frames = registry->counter("net.full_frames");
  delta_rows_sent = registry->counter("net.delta_rows_sent");
  delta_rows_skipped = registry->counter("net.delta_rows_skipped");
  slow_consumers_shed = registry->counter("net.slow_consumers_shed");
  requests = registry->counter("net.requests");
  request_errors = registry->counter("net.request_errors");
  accepts = registry->counter("net.accepts");
  accept_failures = registry->counter("net.accept_failures");
  conns_dropped = registry->counter("net.conns_dropped");
  publish_wakeups = registry->counter("net.publish_wakeups");
  frames_encoded = registry->counter("net.frames_encoded");
  snapshot_rows = registry->gauge("net.snapshot_rows");
  connections = registry->gauge("net.connections");
  subscriptions = registry->gauge("net.subscriptions");
  // Latency lives in nanoseconds (1us .. 1s); the default ms-oriented
  // bounds would collapse every fast delivery into the first bucket.
  publish_to_write_ns =
      registry->histogram("net.publish_to_write_ns", {},
                          {1e3, 1e4, 5e4, 1e5, 5e5, 1e6, 5e6, 1e7, 5e7,
                           1e8, 1e9});
}

void NetMetrics::ObservePublishToWrite(const SnapshotFanout& fanout,
                                       std::uint64_t sequence) {
  if (sequence == 0) return;
  const std::int64_t stamp = fanout.PublishWallNs(sequence);
  if (stamp == 0) return;
  const std::int64_t now =
      std::chrono::steady_clock::now().time_since_epoch().count();
  if (now >= stamp) {
    publish_to_write_ns->Observe(static_cast<double>(now - stamp));
  }
}

void NetMetrics::CountSnapshotFrame(const SharedFrame& frame) {
  (frame.full ? full_frames : delta_frames)->Increment();
  delta_rows_sent->Increment(frame.rows_sent);
  delta_rows_skipped->Increment(frame.rows_skipped);
}

// ---- SnapshotFanout ---------------------------------------------------------

SnapshotFanout::SnapshotFanout() {
  for (auto& seq : stamp_seq_) seq.store(0, std::memory_order_relaxed);
  for (auto& ns : stamp_ns_) ns.store(0, std::memory_order_relaxed);
}

void SnapshotFanout::Publish(service::SnapshotPtr snapshot) {
  if (snapshot == nullptr) return;
  const std::uint64_t sequence = snapshot->sequence;
  // Stamp before the epoch moves so a subscriber that reads the frame
  // immediately still finds the stamp.
  const std::size_t slot = sequence % kStampRing;
  stamp_ns_[slot].store(NowNs(), std::memory_order_relaxed);
  stamp_seq_[slot].store(sequence, std::memory_order_release);

  std::uint64_t ops = 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    previous_ = std::exchange(latest_, std::move(snapshot));
    epoch_.fetch_add(1, std::memory_order_acq_rel);
    // Signal under mu_: UnregisterWaker serializes on the same mutex,
    // so a waker is never signaled after unregistration returns. The
    // wakers must not take locks that are held while calling into the
    // fanout (they don't: eventfd write / leaf cv).
    for (Waker* waker : wakers_) {
      waker->Signal();
      ++ops;
    }
  }
  publishes_.fetch_add(1, std::memory_order_relaxed);
  publish_ops_.fetch_add(ops, std::memory_order_relaxed);
}

service::SnapshotPtr SnapshotFanout::Latest(std::uint64_t* epoch) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch != nullptr) *epoch = epoch_.load(std::memory_order_acquire);
  return latest_;
}

SharedFrame SnapshotFanout::FrameFor(std::uint64_t have_sequence,
                                     NetMetrics* metrics) {
  // The hub is read under frames_mu_ too, so callers see publishes in
  // order and the cache only moves forward: each frame is encoded once.
  std::lock_guard<std::mutex> frames_lock(frames_mu_);
  service::SnapshotPtr latest;
  service::SnapshotPtr previous;
  {
    std::lock_guard<std::mutex> lock(mu_);
    latest = latest_;
    previous = previous_;
  }
  if (latest == nullptr) return {};
  if (frames_.latest != latest || frames_.previous != previous) {
    frames_ = FrameCache{std::move(latest), std::move(previous), {}, {}};
  }
  const service::ProgressSnapshot& next = *frames_.latest;
  const service::ProgressSnapshot* base = frames_.previous.get();
  const bool delta = have_sequence != 0 && base != nullptr &&
                     have_sequence == base->sequence &&
                     base->sequence < next.sequence;
  SharedFrame& frame = delta ? frames_.delta : frames_.full;
  if (frame.bytes == nullptr) {
    frame.sequence = next.sequence;
    frame.full = !delta;
    frame.bytes =
        ShareFrame(EncodeSnapshot(delta ? base : nullptr, next,
                                  &frame.rows_sent, &frame.rows_skipped));
    if (metrics != nullptr) {
      metrics->frames_encoded->Increment();
      metrics->snapshot_rows->Set(static_cast<double>(next.queries.size()));
    }
  }
  return frame;
}

void SnapshotFanout::RegisterWaker(Waker* waker) {
  std::lock_guard<std::mutex> lock(mu_);
  if (std::find(wakers_.begin(), wakers_.end(), waker) == wakers_.end()) {
    wakers_.push_back(waker);
  }
}

void SnapshotFanout::UnregisterWaker(Waker* waker) {
  std::lock_guard<std::mutex> lock(mu_);
  wakers_.erase(std::remove(wakers_.begin(), wakers_.end(), waker),
                wakers_.end());
}

std::int64_t SnapshotFanout::PublishWallNs(std::uint64_t sequence) const {
  const std::size_t slot = sequence % kStampRing;
  if (stamp_seq_[slot].load(std::memory_order_acquire) != sequence) return 0;
  const std::int64_t ns = stamp_ns_[slot].load(std::memory_order_relaxed);
  // Re-check: a concurrent publish may have reused the slot.
  if (stamp_seq_[slot].load(std::memory_order_acquire) != sequence) return 0;
  return ns;
}

// ---- DeltaEncoder -----------------------------------------------------------

bool DeltaEncoder::RowChanged(const service::QueryProgress& a,
                              const service::QueryProgress& b) {
  return a.state != b.state || a.priority != b.priority ||
         a.degraded != b.degraded || a.queue_position != b.queue_position ||
         BitsDiffer(a.weight, b.weight) ||
         BitsDiffer(a.fraction_done, b.fraction_done) ||
         BitsDiffer(a.speed, b.speed) ||
         BitsDiffer(a.eta_single, b.eta_single) ||
         BitsDiffer(a.eta_multi, b.eta_multi) ||
         BitsDiffer(a.completed_work, b.completed_work) ||
         BitsDiffer(a.remaining_cost, b.remaining_cost) ||
         BitsDiffer(a.start_time, b.start_time) ||
         BitsDiffer(a.finish_time, b.finish_time);
}

std::string DeltaEncoder::Encode(const service::SnapshotPtr& next,
                                 bool* is_full) {
  const bool full = last_ == nullptr;
  std::string bytes =
      EncodeSnapshot(last_.get(), *next, &stats_.rows_sent,
                     &stats_.rows_skipped);
  ++(full ? stats_.fulls : stats_.deltas);
  last_ = next;
  if (is_full != nullptr) *is_full = full;
  return bytes;
}

// ---- Subscription -----------------------------------------------------------

bool Subscription::Deliver(const SharedFrame& frame, NetMetrics* metrics) {
  if (shed() || cancelled()) return false;
  const std::size_t bytes = frame.bytes->size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.size() + 1 > options_.max_queued_frames ||
        queued_bytes_ + bytes > options_.max_queued_bytes) {
      // Slow consumer: shed rather than buffer without bound. The
      // queue is replaced by one final Status-coded error frame.
      queue_.clear();
      queued_bytes_ = 0;
      ErrorReply error;
      error.code = StatusCode::kResourceExhausted;
      error.message = "subscription shed: write queue overflow "
                      "(slow consumer)";
      queue_.push_back(ShareFrame(EncodeFrame(0, FrameBody(std::move(error)))));
      shed_.store(true, std::memory_order_release);
      if (metrics != nullptr) metrics->slow_consumers_shed->Increment();
      return false;
    }
    queued_bytes_ += bytes;
    queue_.push_back(frame.bytes);
  }
  delivered_sequence_.store(frame.sequence, std::memory_order_relaxed);
  if (metrics != nullptr) {
    metrics->frames_sent->Increment();
    metrics->bytes_sent->Increment(bytes);
    metrics->CountSnapshotFrame(frame);
  }
  return true;
}

bool Subscription::TryPop(FrameBytes* frame) {
  int stalled = stalled_pops_.load(std::memory_order_relaxed);
  while (stalled > 0) {
    if (stalled_pops_.compare_exchange_weak(stalled, stalled - 1,
                                            std::memory_order_relaxed)) {
      return false;  // injected slow consumer: refuse to drain
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_.empty()) return false;
  *frame = std::move(queue_.front());
  queue_.pop_front();
  queued_bytes_ -= (*frame)->size();
  return true;
}

void Subscription::Cancel() {
  cancelled_.store(true, std::memory_order_release);
}

void Subscription::StallPops(int n) {
  stalled_pops_.store(n, std::memory_order_relaxed);
}

bool Subscription::Drained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.empty();
}

// ---- SubscriberPool ---------------------------------------------------------

void SubscriberPool::PoolWaker::Signal() {
  // Leaf lock: never held while calling into the fanout (the workers
  // drop wake_mu_ before touching Latest()), so signaling from inside
  // SnapshotFanout::Publish cannot deadlock.
  {
    std::lock_guard<std::mutex> lock(pool_->wake_mu_);
    ++pool_->wake_epoch_;
  }
  pool_->wake_cv_.notify_all();
}

SubscriberPool::SubscriberPool(SnapshotFanout* fanout, NetMetrics* metrics)
    : SubscriberPool(fanout, metrics, Options()) {}

SubscriberPool::SubscriberPool(SnapshotFanout* fanout, NetMetrics* metrics,
                               Options options)
    : fanout_(fanout),
      metrics_(metrics),
      tracer_(obs::GlobalTracer()),
      options_(options),
      waker_(this) {
  const int threads = std::max(1, options_.threads);
  shards_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SubscriberPool::~SubscriberPool() { Stop(); }

void SubscriberPool::Start() {
  if (!workers_.empty()) return;
  stop_.store(false, std::memory_order_release);
  fanout_->RegisterWaker(&waker_);
  workers_.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    workers_.emplace_back(
        [this, i] { WorkerLoop(static_cast<int>(i)); });
  }
}

void SubscriberPool::Stop() {
  if (workers_.empty()) return;
  // Unregister first: after this returns no publish will signal us.
  fanout_->UnregisterWaker(&waker_);
  {
    // Under wake_mu_: a worker between its predicate check and its
    // wait would otherwise miss both the flag and the notify, and the
    // join below would hang.
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

std::shared_ptr<Subscription> SubscriberPool::Subscribe() {
  auto subscription = std::make_shared<Subscription>(options_.subscription);
  // Seed the subscriber with the shared full frame of the current
  // snapshot before it joins a shard, so it has data even if no
  // publish ever comes.
  if (const SharedFrame full = fanout_->FrameFor(0, metrics_);
      full.bytes != nullptr) {
    subscription->Deliver(full, metrics_);
  }
  const std::size_t shard_index =
      next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  Shard* shard = shards_[shard_index].get();
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->subs.push_back(subscription);
  }
  metrics_->subscriptions->Add(1);
  return subscription;
}

void SubscriberPool::Unsubscribe(
    const std::shared_ptr<Subscription>& subscription) {
  if (subscription == nullptr) return;
  subscription->Cancel();
  // The shard sweep removes it (and decrements the gauge) lazily; do
  // it eagerly here so unsubscribes are visible without a publish.
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    auto& subs = shard->subs;
    const auto it = std::find(subs.begin(), subs.end(), subscription);
    if (it != subs.end()) {
      subs.erase(it);
      metrics_->subscriptions->Add(-1);
      return;
    }
  }
}

void SubscriberPool::WorkerLoop(int worker_index) {
  Shard* shard = shards_[static_cast<std::size_t>(worker_index)].get();
  std::uint64_t seen_wake = 0;
  std::uint64_t swept_epoch = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    {
      // Drop wake_mu_ before calling into the fanout: Publish signals
      // us while holding the fanout mutex (see PoolWaker::Signal).
      std::unique_lock<std::mutex> lock(wake_mu_);
      wake_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_acquire) ||
               wake_epoch_ != seen_wake;
      });
      seen_wake = wake_epoch_;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    // Sweep until we have fanned out the newest snapshot; publishes
    // that land mid-sweep coalesce into the next pass.
    for (;;) {
      std::uint64_t epoch = 0;
      service::SnapshotPtr snapshot = fanout_->Latest(&epoch);
      if (snapshot == nullptr || epoch == swept_epoch) break;
      metrics_->publish_wakeups->Increment();
      SweepShard(shard, snapshot);
      swept_epoch = epoch;
      sweeps_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void SubscriberPool::SweepShard(Shard* shard,
                                const service::SnapshotPtr& snapshot) {
  obs::TraceSpan span(tracer_, "net", "fanout_sweep");
  // Copy the roster so delivery runs without the shard lock;
  // subscribe/unsubscribe stay cheap.
  std::vector<std::shared_ptr<Subscription>> roster;
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    roster = shard->subs;
  }
  span.arg("subs", static_cast<double>(roster.size()));

  fault::FaultInjector* fault = options_.fault;
  if (fault != nullptr && fault->enabled() && !roster.empty()) {
    if (fault->ShouldFire(fault::kNetSlowConsumer)) {
      // The chosen subscriber's consumer goes deaf: deliveries keep
      // landing but nothing drains, so the bounded queue must shed it.
      const auto victim = fault->PickIndex(fault::kNetSlowConsumer,
                                           roster.size());
      roster[victim]->StallPops(
          static_cast<int>(options_.subscription.max_queued_frames) + 8);
    }
    if (fault->ShouldFire(fault::kNetConnDrop)) {
      const auto victim =
          fault->PickIndex(fault::kNetConnDrop, roster.size());
      roster[victim]->Cancel();
      metrics_->conns_dropped->Increment();
    }
  }

  // Subscribers that kept up share one cursor, so one FrameFor call
  // (one hub lock) serves the whole run of them.
  std::uint64_t frame_have = 0;
  SharedFrame frame;
  bool any_dead = false;
  for (const auto& subscription : roster) {
    if (subscription->cancelled() || subscription->shed()) {
      any_dead = true;
      continue;
    }
    const std::uint64_t have = subscription->delivered_sequence();
    if (have >= snapshot->sequence) continue;
    if (frame.bytes == nullptr || have != frame_have) {
      frame = fanout_->FrameFor(have, metrics_);
      frame_have = have;
    }
    if (!subscription->Deliver(frame, metrics_)) {
      any_dead = true;
    } else {
      metrics_->ObservePublishToWrite(*fanout_, frame.sequence);
    }
  }
  if (!any_dead) return;
  // Compact: drop shed/cancelled subscriptions from the shard.
  std::lock_guard<std::mutex> lock(shard->mu);
  auto& subs = shard->subs;
  const auto dead = [](const std::shared_ptr<Subscription>& s) {
    return s->cancelled() || (s->shed() && s->Drained());
  };
  std::int64_t removed = 0;
  auto it = std::remove_if(subs.begin(), subs.end(),
                           [&](const std::shared_ptr<Subscription>& s) {
                             if (dead(s)) {
                               ++removed;
                               return true;
                             }
                             return false;
                           });
  subs.erase(it, subs.end());
  if (removed > 0) metrics_->subscriptions->Add(-removed);
}

}  // namespace mqpi::net
