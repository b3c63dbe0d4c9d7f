// Live progress dashboard, served concurrently: a PiService ticker
// thread executes the workload in (scaled) real time while this main
// thread is a pure *reader* — it polls the published ProgressSnapshot
// and renders per-query progress bars, both ETAs side by side, queue
// positions, and the forecast quiescent time, without ever touching the
// engine lock. Extra traffic arrives mid-run from a replayed Poisson
// schedule, exactly the §5.2.3 setup but flowing through a session.
// Runtime tracing is on for the whole run; the process exits with the
// estimate-accuracy report, the service metrics registry, and a Chrome
// trace file (mqpi_dashboard_trace.json — open in chrome://tracing or
// https://ui.perfetto.dev).

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "service/pi_service.h"
#include "service/session.h"
#include "service/traffic.h"
#include "storage/tpcr_gen.h"
#include "workload/arrival_schedule.h"
#include "workload/zipf_workload.h"

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

void RenderAccuracy(service::PiService& service) {
  const obs::AccuracyAggregate agg = service.auditor()->Aggregate();
  if (agg.queries_scored == 0) return;
  auto pct = [](double v) -> std::string {
    if (v == kUnknown) return "?";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f%%", 100.0 * v);
    return buf;
  };
  std::printf("accuracy over %llu finished: single MAPE %s | multi MAPE %s "
              "| live %.0f\n",
              static_cast<unsigned long long>(agg.queries_scored),
              pct(agg.mean_mape_single).c_str(),
              pct(agg.mean_mape_multi).c_str(),
              service.metrics()->gauge("obs.auditor_queries")->value());
}

void Render(const service::ProgressSnapshot& snap) {
  std::printf("\n=== snapshot #%llu | t = %5.1f s | running %d | "
              "queued %d | measured rate %.0f U/s ===\n",
              static_cast<unsigned long long>(snap.sequence), snap.sim_time,
              snap.num_running, snap.num_queued, snap.measured_rate);
  std::printf("%-4s %-9s %-26s %8s %10s %10s %6s\n", "id", "state",
              "progress", "done%", "single ETA", "multi ETA", "queue");
  for (const auto& q : snap.queries) {
    if (q.terminal()) continue;
    const std::string queue_pos =
        q.queue_position >= 0 ? "#" + std::to_string(q.queue_position) : "-";
    std::printf("%-4llu %-9s [%s] %7.1f%% %10s %10s %6s\n",
                static_cast<unsigned long long>(q.id),
                std::string(sched::QueryStateName(q.state)).c_str(),
                Bar(q.fraction_done, 24).c_str(), 100.0 * q.fraction_done,
                Eta(q.eta_single).c_str(), Eta(q.eta_multi).c_str(),
                queue_pos.c_str());
  }
  if (snap.quiescent_eta != kUnknown) {
    std::printf("system quiescent in ~%s\n", Eta(snap.quiescent_eta).c_str());
  }
}

}  // namespace

int main() {
  storage::Catalog catalog;
  storage::TpcrGenerator generator(
      {.num_part_keys = 4000, .matches_per_key = 30, .seed = 21});
  workload::ZipfWorkload workload(&catalog, &generator,
                                  {.max_rank = 12, .a = 1.5, .n_scale = 8});
  if (auto s = workload.MaterializeTables(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  service::PiServiceOptions options;
  options.rdbms.processing_rate = 800.0;
  options.rdbms.quantum = 0.1;
  options.rdbms.max_concurrent = 4;  // small MPL: show the admission queue
  options.rdbms.cost_model.noise_sigma = 0.2;
  options.future_prior = {.lambda = 0.1, .avg_cost = 2000.0};
  options.future_prior_strength = 4.0;  // adapt as real arrivals land
  options.time_scale = 60.0;  // 60 simulated seconds per wall second
  service::PiService service(&catalog, options);
  service.tracer()->set_enabled(true);

  auto session = service.OpenSession("dashboard-loadgen");
  Rng rng(99);
  for (int i = 0; i < 7; ++i) {
    auto id = session->Submit(workload.SampleSpec(&rng));
    if (!id.ok()) {
      std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
      return 1;
    }
  }
  // Mid-run traffic: a Poisson schedule replayed through the session.
  const auto schedule =
      workload::GeneratePoissonArrivals(workload, /*lambda=*/0.1,
                                        /*horizon=*/60.0, &rng);
  if (auto s = service::ReplaySchedule(session.get(), workload, schedule);
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("7 queries submitted + %zu scheduled arrivals; ticker at "
              "%.0fx real time\n",
              schedule.size(), options.time_scale);

  // Pure reader loop: snapshot polls only, engine never locked.
  for (int frame = 0; frame < 60 && !service.Idle(); ++frame) {
    Render(*service.snapshot());
    RenderAccuracy(service);
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }
  service.WaitUntilIdle(/*timeout_seconds=*/120.0);
  Render(*service.snapshot());
  session->Close();
  service.Stop();

  std::printf("\nAll queries finished at t = %.1f s.\n\n%s\nMetrics:\n\n%s",
              service.snapshot()->sim_time,
              service.auditor()->RenderText().c_str(),
              service.metrics()->TextDump().c_str());

  const std::string trace_path = "mqpi_dashboard_trace.json";
  if (auto s = service.tracer()->WriteChromeTrace(trace_path); s.ok()) {
    std::printf("\ntrace: %zu events -> %s (open in chrome://tracing)\n",
                service.tracer()->Events().size(), trace_path.c_str());
  } else {
    std::fprintf(stderr, "trace export failed: %s\n", s.ToString().c_str());
  }
  return 0;
}
