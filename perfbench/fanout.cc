// fanout_1k: an open loop in wall time over a started net::PiServer.
//
// 100 long-running queries sit on the fast path with a fixed row set.
// The load thread advances one quantum on a fixed 10 Hz wall schedule; each
// published snapshot reaches 1000 in-process subscribers
// (pool()->Subscribe() + LocalSubscriber, drained by one consumer
// thread) and one TCP net::Client, which also sends a fixed mix of
// PROGRESS, WHATIF, STATS and PING requests every tick. Latency counts
// from when each quantum was due, so a stall shows in every frame it
// delays.
//
// Threads: load, consumer, server loop and one pool worker, with one
// TCP connection.
//
// Output check: when the run ends every subscriber view, the TCP
// client's included, holds the final sequence with rows equal to the
// final snapshot; no subscriber was shed or saw a gap, the subscriber
// backlog stayed bounded and the publish path did the same work per
// publish throughout.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "common.h"
#include "common/random.h"
#include "engine/planner.h"
#include "net/client.h"
#include "net/server.h"
#include "service/session.h"
#include "storage/catalog.h"

namespace perfbench {
namespace {

using mqpi::QueryId;

struct Params {
  int queries = 100;
  int subscribers = 1000;
  double hz = 10.0;
  double rate = 1e4;
  double quantum = 0.1;
  double min_cost = 1e6;  // ~100 U/s each: alive for hours of wall time
  double max_cost = 4e6;
  int setups = 7;
  /// Largest subscriber lag, in published frames, that still counts as
  /// a bounded backlog.
  std::uint64_t max_lag = 10;
};

Params ParamsFor(const Options& options) {
  Params p;
  if (options.toy) {
    p.queries = 20;
    p.subscribers = 50;
    p.setups = 2;
  }
  return p;
}

/// Sequence -> wall time the quantum was due, shared between the load
/// thread (writer) and the consumer (reader).
class DueRing {
 public:
  void Set(std::uint64_t seq, std::int64_t due_ns) {
    Slot& slot = slots_[seq % slots_.size()];
    slot.due_ns.store(due_ns, std::memory_order_relaxed);
    slot.seq.store(seq, std::memory_order_release);
  }
  /// 0 when `seq` was never stamped or has been overwritten.
  std::int64_t Get(std::uint64_t seq) const {
    const Slot& slot = slots_[seq % slots_.size()];
    if (slot.seq.load(std::memory_order_acquire) != seq) return 0;
    return slot.due_ns.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::int64_t> due_ns{0};
  };
  std::array<Slot, 4096> slots_;
};

struct Fixture {
  mqpi::storage::Catalog catalog;
  std::unique_ptr<mqpi::service::PiService> service;
  std::unique_ptr<mqpi::service::Session> session;
  std::unique_ptr<mqpi::net::PiServer> server;
  std::vector<mqpi::net::LocalSubscriber> subs;
  std::unique_ptr<mqpi::net::Client> client;
  std::vector<QueryId> ids;
  DueRing due;
  ~Fixture() {
    client.reset();
    if (server != nullptr) server->Stop();
    subs.clear();
    server.reset();
    session.reset();
  }
};

bool ViewMatches(const mqpi::net::SnapshotView& view,
                 const mqpi::service::ProgressSnapshot& snap) {
  if (view.sequence() != snap.sequence ||
      view.rows() != snap.queries.size()) {
    return false;
  }
  for (const auto& row : snap.queries) {
    const auto* got = view.Find(row.id);
    if (got == nullptr || mqpi::net::DeltaEncoder::RowChanged(*got, row)) {
      return false;
    }
  }
  return true;
}

/// Drains every LocalSubscriber from one thread, stamping each applied
/// frame with its publish-to-view latency.
class Consumer {
 public:
  Consumer(Fixture* fx, bool traced) : fx_(fx), spans_(2) {
    spans_.set_enabled(traced);
    thread_ = std::thread([this] { Run(); });
  }
  ~Consumer() { Finish(0); }
  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  void Published(std::uint64_t seq) {
    published_.store(seq, std::memory_order_release);
  }
  /// Lets the thread exit once every view reached `final_seq` (or the
  /// drain timed out) and joins it.
  void Finish(std::uint64_t final_seq) {
    if (!thread_.joinable()) return;
    final_seq_.store(final_seq, std::memory_order_release);
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }

  Samples latency_us;
  double apply_ns = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t max_lag = 0;
  bool shed = false;
  bool drained = false;
  const SpanLog& spans() const { return spans_; }

 private:
  void Run() {
    std::vector<std::uint64_t> seqs;
    std::int64_t drain_deadline = 0;
    for (;;) {
      bool progressed = false;
      std::uint64_t min_seq = UINT64_MAX;
      for (auto& sub : fx_->subs) {
        seqs.clear();
        const std::int64_t t0 = NowNs();
        const int n = sub.Pump(&seqs);
        if (n > 0) {
          const std::int64_t t1 = NowNs();
          spans_.Close(spans_.Open("net.apply", seqs.back(), t0), t1);
          apply_ns += static_cast<double>(t1 - t0);
          frames += static_cast<std::uint64_t>(n);
          progressed = true;
          for (const std::uint64_t seq : seqs) {
            const std::int64_t due = fx_->due.Get(seq);
            if (due > 0) latency_us.Add(static_cast<double>(t1 - due) * 1e-3);
          }
        }
        shed = shed || sub.shed();
        min_seq = std::min(min_seq, sub.view().sequence());
      }
      const std::uint64_t published =
          published_.load(std::memory_order_acquire);
      if (published > min_seq) max_lag = std::max(max_lag, published - min_seq);
      if (stop_.load(std::memory_order_acquire)) {
        if (min_seq >= final_seq_.load(std::memory_order_acquire)) {
          drained = true;
          return;
        }
        if (drain_deadline == 0) drain_deadline = NowNs() + 10'000'000'000;
        if (NowNs() > drain_deadline) return;
      }
      if (!progressed) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }

  Fixture* fx_;
  SpanLog spans_;
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> final_seq_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after the members it uses
};

std::unique_ptr<Fixture> Setup(const Params& p, std::uint64_t seed,
                               OpLedger* ops) {
  auto fx = std::make_unique<Fixture>();
  mqpi::service::PiServiceOptions options;
  options.rdbms.processing_rate = p.rate;
  options.rdbms.quantum = p.quantum;
  options.rdbms.cost_model.noise_sigma = 0.0;
  options.start_ticker = false;
  fx->service =
      std::make_unique<mqpi::service::PiService>(&fx->catalog, options);
  fx->session = fx->service->OpenSession("fanout");
  mqpi::Rng rng(seed);
  for (int i = 0; i < p.queries; ++i) {
    const double cost = rng.Uniform(p.min_cost, p.max_cost);
    const auto priority = static_cast<mqpi::Priority>(rng.UniformInt(0, 2));
    auto id = fx->session->Submit(mqpi::engine::QuerySpec::Synthetic(cost),
                                  priority);
    if (ops->Check(id.ok(), "fanout submit")) fx->ids.push_back(*id);
  }

  mqpi::net::PiServerOptions server_options;
  server_options.pool_threads = 1;
  fx->server =
      std::make_unique<mqpi::net::PiServer>(fx->service.get(), server_options);
  if (!ops->Check(fx->server->Start().ok(), "fanout server start")) return fx;
  fx->subs.reserve(static_cast<std::size_t>(p.subscribers));
  for (int i = 0; i < p.subscribers; ++i) {
    fx->subs.emplace_back(fx->server->pool()->Subscribe());
  }
  auto client = mqpi::net::Client::Connect("127.0.0.1", fx->server->port());
  if (!ops->Check(client.ok(), "fanout client connect")) return fx;
  fx->client = std::move(*client);
  ops->Check(fx->client->Subscribe().ok(), "fanout client subscribe");

  // First publish: every view gets its full frame.
  ops->Check(fx->service->Advance(p.quantum).ok(), "fanout warm-up");
  const std::uint64_t first = fx->service->snapshot()->sequence;
  const std::int64_t deadline = NowNs() + 10'000'000'000;
  for (auto& sub : fx->subs) {
    while (sub.view().sequence() < first && NowNs() < deadline) {
      if (sub.Pump() == 0) std::this_thread::yield();
    }
  }
  auto reached = fx->client->WaitForSequence(first, 5.0);
  ops->Check(reached.ok() && *reached >= first, "fanout client first frame");
  return fx;
}

struct Phase {
  Samples quantum_us;
  Samples rpc_us;
  Samples tick_lag_us;
  Samples latency_us;
  double live_quanta = 0.0;
  double quanta = 0.0;
  double apply_ns = 0.0;
  double frames_applied = 0.0;
  /// Rows per delta frame seen by a subscriber that keeps up, from a
  /// reference encoder fed every published snapshot (traced phase only).
  double rows_per_frame = 0.0;
};

Phase Measure(const Params& p, Fixture* fx, std::int64_t ticks,
              mqpi::Rng* rng, SpanLog* spans, bool traced,
              std::vector<SpanLog>* consumer_logs, OpLedger* ops) {
  Phase phase;
  auto* fanout = fx->server->fanout();
  const double ops_before = static_cast<double>(fanout->publish_ops());
  const double publishes_before = static_cast<double>(fanout->publishes());
  Consumer consumer(fx, traced);
  const auto period_ns = static_cast<std::int64_t>(1e9 / p.hz);
  const std::int64_t start = NowNs() + period_ns;
  std::uint64_t seq = fx->service->snapshot()->sequence;
  mqpi::net::DeltaEncoder reference;
  if (traced) reference.Encode(fx->service->snapshot());
  const std::uint64_t reference_rows = reference.stats().rows_sent;
  for (std::int64_t k = 0; k < ticks; ++k) {
    const std::int64_t due = start + k * period_ns;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    phase.tick_lag_us.Add(static_cast<double>(NowNs() - due) * 1e-3);
    ++seq;
    fx->due.Set(seq, due);
    Timed quantum_span(spans, "bench.quantum", seq);
    {
      Timed advance(spans, "service.advance", seq);
      ops->Check(fx->service->Advance(p.quantum).ok(), "fanout advance");
      const double us = advance.End();
      phase.quantum_us.Add(us);
    }
    consumer.Published(seq);
    phase.quanta += 1;
    const auto snap = fx->service->snapshot();
    phase.live_quanta += snap->num_running;
    ops->Check(snap->sequence == seq, "fanout snapshot sequence");
    if (traced) reference.Encode(snap);

    // The requests go out half a tick later, once the publish has been
    // pushed, so they measure the request path rather than a race with
    // the push.
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due + period_ns / 2)));

    const auto n = static_cast<std::int64_t>(fx->ids.size());
    const auto ti = static_cast<std::size_t>(rng->UniformInt(0, n - 1));
    auto vi = static_cast<std::size_t>(rng->UniformInt(0, n - 2));
    if (vi >= ti) ++vi;
    const QueryId target = fx->ids[ti];
    const QueryId victim = fx->ids[vi];
    {
      Timed rpc(spans, "net.rpc.progress", seq);
      auto reply = fx->client->Progress(target);
      phase.rpc_us.Add(rpc.End());
      ops->Check(reply.ok() && reply->row.id == target, "fanout PROGRESS");
    }
    {
      mqpi::net::WhatIfRequest request;
      request.target = target;
      request.blocked.push_back(victim);
      Timed rpc(spans, "net.rpc.whatif", seq);
      auto reply = fx->client->WhatIf(request);
      phase.rpc_us.Add(rpc.End());
      ops->Check(reply.ok() && std::isfinite(*reply) && *reply >= 0.0,
                 "fanout WHATIF");
    }
    {
      Timed rpc(spans, "net.rpc.stats", seq);
      auto reply = fx->client->Stats();
      phase.rpc_us.Add(rpc.End());
      ops->Check(reply.ok(), "fanout STATS");
    }
    {
      Timed rpc(spans, "net.rpc.ping", seq);
      const bool ok = fx->client->Ping().ok();
      phase.rpc_us.Add(rpc.End());
      ops->Check(ok, "fanout PING");
    }
  }

  consumer.Finish(seq);
  auto reached = fx->client->WaitForSequence(seq, 10.0);
  const auto final_snap = fx->service->snapshot();
  ops->Check(consumer.drained, "fanout subscribers drained to final sequence");
  ops->Check(!consumer.shed, "fanout subscriber shed");
  ops->Check(consumer.max_lag <= p.max_lag,
             Fmt("fanout backlog grew to %llu frames",
                 static_cast<unsigned long long>(consumer.max_lag)));
  for (const auto& sub : fx->subs) {
    ops->Check(!sub.shed() && ViewMatches(sub.view(), *final_snap),
               "fanout subscriber view != final snapshot");
  }
  ops->Check(reached.ok() && ViewMatches(fx->client->view(), *final_snap),
             "fanout TCP client view != final snapshot");
  const double ops_per_publish =
      (static_cast<double>(fanout->publish_ops()) - ops_before) /
      (static_cast<double>(fanout->publishes()) - publishes_before);
  ops->Check(ops_per_publish == ops_before / publishes_before,
             "fanout publish ops per publish changed");

  phase.latency_us = consumer.latency_us;
  phase.apply_ns = consumer.apply_ns;
  phase.frames_applied = static_cast<double>(consumer.frames);
  phase.rows_per_frame =
      static_cast<double>(reference.stats().rows_sent - reference_rows) /
      phase.quanta;
  if (traced) consumer_logs->push_back(consumer.spans());
  return phase;
}

}  // namespace

Report RunFanout(const Options& options) {
  const Params p = ParamsFor(options);
  Report report;
  Samples setup_s;
  std::unique_ptr<Fixture> fx;
  for (int i = 0; i < p.setups; ++i) {
    fx.reset();
    const std::int64_t start = NowNs();
    fx = Setup(p, options.seed, &report.ops);
    setup_s.Add(SecondsSince(start));
  }
  auto& m = report.metrics;
  m["setup_s"] = setup_s.Median();
  if (fx->client == nullptr) return report;  // setup failed and said so

  mqpi::Rng rng(options.seed ^ 0xfa17);
  SpanLog spans(1);
  std::vector<SpanLog> consumer_logs;
  const auto ticks = std::max<std::int64_t>(
      1, std::llround(options.seconds * p.hz / (options.trace ? 2 : 1)));
  const Phase plain = Measure(p, fx.get(), ticks, &rng, nullptr, false,
                              &consumer_logs, &report.ops);
  AddLatencySummary(plain.quantum_us, plain.live_quanta, plain.rpc_us,
                    "TCP round trip", &report);
  report.notes.push_back(Fmt(
      "fanout_1k: %d queries, %d subscribers + 1 TCP client, %zu ticks at "
      "%.0f Hz; publish->view p50 %.0f us p99 %.0f us over %zu frames; "
      "tick lag p90 %.0f us",
      p.queries, p.subscribers, plain.quantum_us.size(), p.hz,
      plain.latency_us.Quantile(0.5), plain.latency_us.Quantile(0.99),
      plain.latency_us.size(), plain.tick_lag_us.Quantile(0.9)));

  if (options.trace) {
    auto* net = fx->server->metrics();
    auto* fanout = fx->server->fanout();
    const double frames0 = static_cast<double>(net->frames_sent->value());
    const double bytes0 = static_cast<double>(net->bytes_sent->value());
    const double fulls0 = static_cast<double>(net->full_frames->value());
    ProfLedger prof;
    CounterDelta counters = EstimatorPathCounters();
    mqpi::obs::GlobalProfiler()->set_enabled(true);
    spans.set_enabled(true);
    prof.OpenWindow();
    counters.Mark(fx->service.get());
    const Phase traced = Measure(p, fx.get(), ticks, &rng, &spans, true,
                                 &consumer_logs, &report.ops);
    counters.Fold(fx->service.get());
    prof.CloseWindow();
    mqpi::obs::GlobalProfiler()->set_enabled(false);
    spans.set_enabled(false);

    AddQuantumLedger(prof, spans.TotalNs()["service.advance"], traced.quanta,
                     0.0, &report);
    AddEstimatorPath(counters, traced.quanta, &report);
    const double frames =
        static_cast<double>(net->frames_sent->value()) - frames0;
    m["service.snapshot_rows"] =
        static_cast<double>(fx->service->snapshot()->queries.size());
    m["sched.retained_queries"] = m["service.snapshot_rows"];
    m["net.wire_bytes_per_frame"] =
        (static_cast<double>(net->bytes_sent->value()) - bytes0) / frames;
    m["net.rows_per_frame"] = traced.rows_per_frame;
    m["net.full_frame_ratio"] =
        (static_cast<double>(net->full_frames->value()) - fulls0) / frames;
    const auto encodes = prof.Count("net.delta_encode");
    m["net.encode_us_per_frame"] =
        encodes > 0 ? prof.TotalNs("net.delta_encode") / encodes * 1e-3 : 0.0;
    const auto wakes = prof.Count("net.push_snapshots");
    m["net.push_snapshots_us"] =
        wakes > 0 ? prof.TotalNs("net.push_snapshots") / wakes * 1e-3 : 0.0;
    m["net.apply_us_per_frame"] =
        traced.frames_applied > 0
            ? traced.apply_ns / traced.frames_applied * 1e-3
            : 0.0;
    m["net.publish_ops_per_publish"] =
        static_cast<double>(fanout->publish_ops()) /
        static_cast<double>(fanout->publishes());
    m["net.publish_to_view_us.p50"] = traced.latency_us.Quantile(0.5);
    m["net.publish_to_view_us.p99"] = traced.latency_us.Quantile(0.99);
    m["bench.tick_lag_us.p90"] = traced.tick_lag_us.Quantile(0.9);
    m["obs.trace_overhead_ratio"] =
        traced.quantum_us.Median() / plain.quantum_us.Median();
    const std::string path = options.out_dir + "/trace-fanout_1k-" +
                             std::to_string(options.seed) + ".json";
    std::vector<const SpanLog*> logs = {&spans};
    for (const auto& log : consumer_logs) logs.push_back(&log);
    report.ops.Check(WriteSpans(path, logs), "write " + path);
    report.notes.push_back("spans written to " + path);
  }
  fx.reset();
  m["peak_rss_mb"] = PeakRssMb();
  return report;
}

}  // namespace perfbench
