// Telemetry-plane tests: JSON escaping in the shared trace renderer,
// the scoped hot-path profiler (hierarchy, disabled-is-inert), the
// flight recorder (bounded ring, gap watch, throttled auto-dump), the
// HTTP exporter's /metrics, /healthz, and /statusz endpoints against
// a live PiServer, the STATS wire round trip with per-connection
// overlays, TSan-checked scrape + STATS hammering during subscriber
// churn, and the chaos path: a forced watchdog restart must leave a
// flight-recorder dump on disk.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/planner.h"
#include "fault/fault_injector.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/flight_recorder.h"
#include "obs/profiler.h"
#include "obs/tracer.h"
#include "service/pi_service.h"
#include "service/session.h"
#include "storage/catalog.h"

namespace mqpi {
namespace {

using engine::QuerySpec;
using fault::FaultInjector;
using net::Client;
using net::PiServer;
using net::PiServerOptions;
using net::StatsReply;
using obs::FlightEvent;
using obs::FlightEventKind;
using obs::FlightRecorder;
using obs::FlightRecorderOptions;
using obs::ProfScope;
using obs::Profiler;
using obs::TraceEvent;
using obs::TracePhase;
using service::PiService;
using service::PiServiceOptions;

PiServiceOptions ManualOptions() {
  PiServiceOptions options;
  options.rdbms.processing_rate = 100.0;
  options.rdbms.quantum = 0.1;
  options.rdbms.cost_model.noise_sigma = 0.0;
  options.start_ticker = false;
  return options;
}

// ---- JSON escaping in the shared trace renderer -----------------------------

TEST(TraceJsonTest, RenderEscapesQuotesBackslashesAndControls) {
  TraceEvent event;
  event.category = "cat\"with\\quote";
  event.name = "line\nbreak\ttab\x01" "end";
  event.phase = TracePhase::kInstant;
  event.arg1_key = "key\"1";
  event.arg1 = 2.5;
  const std::string json = obs::RenderTraceEventJson(event);

  EXPECT_NE(json.find("cat\\\"with\\\\quote"), std::string::npos) << json;
  EXPECT_NE(json.find("line\\nbreak\\ttab\\u0001end"), std::string::npos)
      << json;
  EXPECT_NE(json.find("key\\\"1"), std::string::npos) << json;
  // The rendered object must stay a single line with no raw controls.
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);
  EXPECT_EQ(json.find('\x01'), std::string::npos);
}

TEST(TraceJsonTest, CleanStringsPassThroughUnchanged) {
  TraceEvent event;
  event.category = "service";
  event.name = "step_quantum";
  const std::string json = obs::RenderTraceEventJson(event);
  EXPECT_NE(json.find("\"cat\":\"service\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"step_quantum\""), std::string::npos) << json;
}

// ---- profiler ---------------------------------------------------------------

TEST(ProfilerTest, DisabledScopeIsInert) {
  Profiler profiler;  // disabled by default
  obs::ProfSite* site = profiler.Site("test.off");
  for (int i = 0; i < 100; ++i) {
    ProfScope scope(&profiler, site);
  }
  EXPECT_EQ(site->count(), 0u);
  EXPECT_EQ(site->total_ns(), 0u);
}

TEST(ProfilerTest, RecordsCountTotalAndMax) {
  Profiler profiler;
  profiler.set_enabled(true);
  obs::ProfSite* site = profiler.Site("test.on");
  for (int i = 0; i < 50; ++i) {
    ProfScope scope(&profiler, site);
  }
  EXPECT_EQ(site->count(), 50u);
  EXPECT_GT(site->total_ns(), 0u);
  EXPECT_GE(site->max_ns(), site->total_ns() / 50);
  EXPECT_GT(site->ewma_ns(), 0.0);

  const auto snapshot = profiler.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].name, "test.on");
  EXPECT_EQ(snapshot[0].count, 50u);
  EXPECT_GT(snapshot[0].mean_ns, 0.0);

  profiler.Reset();
  EXPECT_EQ(site->count(), 0u);
  EXPECT_EQ(site->total_ns(), 0u);
}

TEST(ProfilerTest, NestedScopesChargeChildToParent) {
  Profiler profiler;
  profiler.set_enabled(true);
  obs::ProfSite* outer = profiler.Site("test.outer");
  obs::ProfSite* inner = profiler.Site("test.inner");
  {
    ProfScope a(&profiler, outer);
    {
      ProfScope b(&profiler, inner);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(outer->count(), 1u);
  EXPECT_EQ(inner->count(), 1u);
  // The child's full duration was charged to the parent, so the
  // parent's self time is total minus (at least) the child's sleep.
  EXPECT_GE(outer->child_ns(), inner->total_ns());
  EXPECT_GE(outer->total_ns(), outer->child_ns());

  const auto snapshot = profiler.Snapshot();
  for (const auto& row : snapshot) {
    if (row.name == "test.outer") {
      EXPECT_EQ(row.self_ns, row.total_ns - row.child_ns);
    }
  }
}

TEST(ProfilerTest, SiteRegistrationIsStable) {
  Profiler profiler;
  obs::ProfSite* first = profiler.Site("test.same");
  obs::ProfSite* second = profiler.Site("test.same");
  EXPECT_EQ(first, second);
  EXPECT_NE(profiler.Summary().find("test.same"), std::string::npos);
}

// ---- flight recorder --------------------------------------------------------

TEST(FlightRecorderTest, RingKeepsNewestEventsOldestFirst) {
  FlightRecorderOptions options;
  options.capacity = 4;
  FlightRecorder recorder(options);
  for (int i = 0; i < 10; ++i) {
    recorder.Record(FlightEventKind::kNote, "test", "event",
                    static_cast<double>(i));
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  const std::vector<FlightEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].value, 6.0 + static_cast<double>(i));
  }
}

TEST(FlightRecorderTest, DisabledRecordsNothing) {
  FlightRecorderOptions options;
  options.enabled = false;
  FlightRecorder recorder(options);
  recorder.Record(FlightEventKind::kNote, "test", "event");
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_TRUE(recorder.Events().empty());
}

TEST(FlightRecorderTest, ObserveGapRecordsOnlyMismatches) {
  FlightRecorder recorder;
  recorder.ObserveGap("test", "stream", 5, 5);  // in order: no event
  EXPECT_EQ(recorder.recorded(), 0u);
  recorder.ObserveGap("test", "stream", 5, 9);  // skipped 4
  const auto events = recorder.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kSequenceGap);
  EXPECT_DOUBLE_EQ(events[0].value, 4.0);
  EXPECT_EQ(events[0].sequence, 9u);
}

TEST(FlightRecorderTest, DumpStringRendersJsonlThroughTracerPath) {
  FlightRecorder recorder;
  recorder.Record(FlightEventKind::kSpan, "svc", "step", 1500.0, 7);
  recorder.Record(FlightEventKind::kFault, "fault", "stall", 2.0);
  const std::string dump = recorder.DumpString();
  // One JSON object per line, Chrome-trace phases from the Tracer
  // renderer: spans are complete ("X") events, the rest instants.
  EXPECT_NE(dump.find("\"ph\":\"X\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"ph\":\"i\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"name\":\"step\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"seq\":7"), std::string::npos) << dump;
  EXPECT_EQ(std::count(dump.begin(), dump.end(), '\n'), 2);
}

TEST(FlightRecorderTest, TriggerAutoDumpsAndThrottles) {
  const std::string dir = ::testing::TempDir() + "mqpi_flight_trigger";
  ::mkdir(dir.c_str(), 0755);
  FlightRecorderOptions options;
  options.auto_dump = true;
  options.dump_dir = dir;
  options.min_dump_interval_s = 3600.0;  // second trigger must throttle
  FlightRecorder recorder(options);
  recorder.Record(FlightEventKind::kNote, "test", "before_trigger");

  const std::string path = recorder.Trigger("unit_test");
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(recorder.dumps(), 1u);
  EXPECT_EQ(recorder.triggers(), 1u);
  EXPECT_STREQ(recorder.last_trigger(), "unit_test");
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("before_trigger"), std::string::npos);

  EXPECT_TRUE(recorder.Trigger("unit_test").empty());  // throttled
  EXPECT_EQ(recorder.dumps(), 1u);
  EXPECT_EQ(recorder.triggers(), 2u);  // the trigger itself still counts
  std::remove(path.c_str());
}

// ---- HTTP exporter + STATS over a live server -------------------------------

// Blocking one-shot HTTP GET against 127.0.0.1:`port`; returns the
// full response (status line + headers + body).
std::string HttpGet(std::uint16_t port, const std::string& request_line) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  const std::string request = request_line + "\r\nHost: localhost\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // Connection: close ends every response
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

class TelemetryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PiServiceOptions options = ManualOptions();
    options.enable_profiler = true;
    service_ = std::make_unique<PiService>(&catalog_, options);
    PiServerOptions server_options;
    server_options.http_port = 0;  // ephemeral
    server_ = std::make_unique<PiServer>(service_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->http_port(), 0);
  }

  void TearDown() override {
    server_->Stop();
    service_.reset();
    obs::GlobalProfiler()->set_enabled(false);
    obs::GlobalProfiler()->Reset();
  }

  storage::Catalog catalog_;
  std::unique_ptr<PiService> service_;
  std::unique_ptr<PiServer> server_;
};

TEST_F(TelemetryServerTest, MetricsEndpointServesPrometheusText) {
  auto session = service_->OpenSession("scrape");
  ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(100.0)).ok());
  service_->PublishNow();

  const std::string response =
      HttpGet(server_->http_port(), "GET /metrics HTTP/1.1");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  // Dotted registry names arrive underscored, with TYPE headers.
  EXPECT_NE(response.find("# TYPE service_snapshots_published counter"),
            std::string::npos);
  EXPECT_NE(response.find("service_uptime_quanta"), std::string::npos);
  EXPECT_NE(response.find("service_ticker_last_step_age_quanta"),
            std::string::npos);
  EXPECT_NE(response.find("net_publish_to_write_ns_bucket"),
            std::string::npos);
  session->Close();
}

TEST_F(TelemetryServerTest, HealthzReportsLiveTicker) {
  service_->PublishNow();
  const std::string response =
      HttpGet(server_->http_port(), "GET /healthz HTTP/1.1");
  // Manual mode is never busy, so the service reads as live.
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("ok\n"), std::string::npos);
  EXPECT_NE(response.find("uptime_quanta "), std::string::npos);
  EXPECT_NE(response.find("watchdog_restarts 0"), std::string::npos);
}

TEST_F(TelemetryServerTest, StatuszShowsProfilerAndFlightRecorder) {
  auto session = service_->OpenSession("statusz");
  ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(100.0)).ok());
  service_->Advance(0.5);
  service_->PublishNow();

  const std::string response =
      HttpGet(server_->http_port(), "GET /statusz HTTP/1.1");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("== profiler =="), std::string::npos);
  EXPECT_NE(response.find("== flight recorder =="), std::string::npos);
  // The profiler was enabled, so stepped sites must show up with data.
  EXPECT_NE(response.find("sched.step"), std::string::npos) << response;
  EXPECT_NE(response.find("service.build_snapshot"), std::string::npos);
  session->Close();
}

TEST_F(TelemetryServerTest, BadRequestsGetHttpErrors) {
  EXPECT_NE(HttpGet(server_->http_port(), "GET /nope HTTP/1.1")
                .find("404 Not Found"),
            std::string::npos);
  EXPECT_NE(HttpGet(server_->http_port(), "POST /metrics HTTP/1.1")
                .find("405 Method Not Allowed"),
            std::string::npos);
  EXPECT_NE(HttpGet(server_->http_port(), "garbage").find("400 Bad Request"),
            std::string::npos);
  EXPECT_GE(server_->http()->requests_error(), 3u);
}

TEST_F(TelemetryServerTest, EpollAddFailureDoesNotLeakConnectionSlots) {
  // Regression: AcceptPending used to ignore the epoll_ctl(ADD) return
  // and track the fd anyway. An fd that never reaches the epoll never
  // becomes readable, so it was never closed and permanently counted
  // toward max_connections — 64 such failures starved /metrics forever.
  // Inject exactly max_connections' worth of registration failures; if
  // any of those fds leaked into the scrape map, the follow-up scrape
  // below would be refused at the cap.
  constexpr int kMaxConnections =
      static_cast<int>(net::HttpExporter::kMaxConnections);
  const std::uint64_t errors_before = server_->http()->requests_error();
  server_->http()->InjectEpollAddFailuresForTest(kMaxConnections);
  for (int i = 0; i < kMaxConnections; ++i) {
    // Each refused connection is closed by the server without a
    // response; the client just sees EOF.
    const std::string refused =
        HttpGet(server_->http_port(), "GET /metrics HTTP/1.1");
    EXPECT_EQ(refused, "");
  }
  // The tally is incremented on the loop thread just before the close
  // whose EOF the client observed; give the relaxed counter a moment.
  const std::uint64_t want = errors_before + kMaxConnections;
  for (int spin = 0; spin < 200 && server_->http()->requests_error() < want;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->http()->requests_error(), want);

  const std::string response =
      HttpGet(server_->http_port(), "GET /metrics HTTP/1.1");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
}

TEST_F(TelemetryServerTest, StatsRoundTripWithConnectionOverlay) {
  auto connected = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(connected.ok());
  auto client = std::move(connected).value();
  auto session = service_->OpenSession("stats");
  ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(200.0)).ok());
  service_->PublishNow();

  ASSERT_TRUE(client->Subscribe().ok());
  // Each publish reaches the client before the next, so the connection
  // never lags and its pushes after the subscribe's full frame are
  // deltas.
  for (int tick = 0; tick < 2; ++tick) {
    service_->Advance(0.1);
    ASSERT_TRUE(
        client->WaitForSequence(service_->snapshot()->sequence, 5.0).ok());
  }

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->snapshots_published, 2u);
  EXPECT_GE(stats->uptime_quanta, 1u);
  EXPECT_FALSE(stats->degraded);
  EXPECT_EQ(stats->connections, 1u);
  EXPECT_EQ(stats->subscriptions, 1u);
  EXPECT_GE(stats->frames_sent, 3u);  // SUBSCRIBE reply + full + delta
  EXPECT_GT(stats->bytes_sent, 0u);
  EXPECT_EQ(stats->consumers_shed, 0u);
  // Per-connection overlay: this connection saw one full frame (on
  // subscribe) and at least one delta push.
  EXPECT_GE(stats->conn_full_frames, 1u);
  EXPECT_GE(stats->conn_delta_frames, 1u);
  EXPECT_GE(stats->conn_frames_sent, 2u);
  EXPECT_GT(stats->conn_bytes_sent, 0u);
  EXPECT_GE(stats->conn_queue_hw_frames, 1u);

  // The push path stamped publish→write latency into the histogram.
  EXPECT_GT(service_->metrics()
                ->histogram("net.publish_to_write_ns")
                ->count(),
            0u);
  session->Close();
}

TEST_F(TelemetryServerTest, StatsRequestSurvivesWireRoundTrip) {
  StatsReply reply;
  reply.uptime_quanta = 41;
  reply.ticker_age_quanta = 1.5;
  reply.snapshots_published = 99;
  reply.degraded = true;
  reply.conn_queue_hw_bytes = 1u << 20;
  const std::string bytes = net::EncodeFrame(7, net::FrameBody{reply});
  net::Frame decoded;
  std::size_t consumed = 0;
  Status error;
  ASSERT_EQ(net::TryDecodeFrame(bytes.data(), bytes.size(), bytes.size(),
                                &decoded, &consumed, &error),
            net::DecodeResult::kFrame);
  EXPECT_EQ(consumed, bytes.size());
  ASSERT_TRUE(std::holds_alternative<StatsReply>(decoded.body));
  const auto& out = std::get<StatsReply>(decoded.body);
  EXPECT_EQ(out.uptime_quanta, 41u);
  EXPECT_DOUBLE_EQ(out.ticker_age_quanta, 1.5);
  EXPECT_EQ(out.snapshots_published, 99u);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.conn_queue_hw_bytes, 1u << 20);
}

// ---- concurrency: scrapes + STATS racing subscriber churn (TSan) -----------

TEST(TelemetryConcurrencyTest, ScrapesAndStatsDuringSubscriberChurn) {
  storage::Catalog catalog;
  PiServiceOptions options = ManualOptions();
  options.start_ticker = true;  // live ticker races every scrape
  options.time_scale = 0.0;
  options.enable_profiler = true;
  PiService service(&catalog, options);
  PiServerOptions server_options;
  server_options.http_port = 0;
  PiServer server(&service, server_options);
  ASSERT_TRUE(server.Start().ok());

  auto session = service.OpenSession("churn-load");
  for (int i = 0; i < 6; ++i) {
    (void)session->Submit(QuerySpec::Synthetic(300.0 + 20.0 * i));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  // Subscriber churn + STATS on the wire protocol.
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 6; ++round) {
        auto client = Client::Connect("127.0.0.1", server.port());
        if (!client.ok()) {
          failures.fetch_add(1);
          return;
        }
        if (!(*client)->Subscribe().ok()) {
          failures.fetch_add(1);
          return;
        }
        (void)(*client)->WaitForSequence(1, 5.0);
        auto stats = (*client)->Stats();
        if (!stats.ok() || stats->connections < 1) failures.fetch_add(1);
        if (round % 2 == 0) (void)(*client)->Unsubscribe();
      }
    });
  }
  // HTTP scrapers on the same event loop.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      const char* paths[] = {"GET /metrics HTTP/1.1", "GET /healthz HTTP/1.1",
                             "GET /statusz HTTP/1.1"};
      for (int round = 0; round < 8; ++round) {
        const std::string response =
            HttpGet(server.http_port(), paths[(t + round) % 3]);
        if (response.find("HTTP/1.1") != 0) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server.http()->requests_ok(), 16u);
  session->Close();
  server.Stop();
  service.Stop();
  obs::GlobalProfiler()->set_enabled(false);
  obs::GlobalProfiler()->Reset();
}

// ---- chaos: a tripped watchdog must leave a flight dump ---------------------

TEST(TelemetryChaosTest, WatchdogRestartDumpsFlightRecorder) {
  const std::string dir = ::testing::TempDir() + "mqpi_flight_watchdog";
  ::mkdir(dir.c_str(), 0755);

  storage::Catalog catalog;
  FaultInjector injector;
  PiServiceOptions options;
  options.rdbms.processing_rate = 100.0;
  options.rdbms.quantum = 0.1;
  options.rdbms.cost_model.noise_sigma = 0.0;
  options.enable_auditor = false;
  options.fault = &injector;
  options.time_scale = 0.0;
  options.watchdog.poll_interval_s = 0.01;
  options.watchdog.stall_threshold_s = 0.05;
  options.watchdog.backoff_initial_s = 0.01;
  options.flight_recorder.auto_dump = true;
  options.flight_recorder.dump_dir = dir;
  options.flight_recorder.min_dump_interval_s = 0.0;
  // The first busy tick goes deaf for 30 wall seconds; the watchdog
  // restarts the ticker, which must trip a flight-recorder dump.
  injector.ArmSchedule(fault::kServiceTickerStall, {0}, 30.0);
  PiService service(&catalog, options);
  auto session = service.OpenSession();
  ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(200.0)).ok());

  ASSERT_TRUE(service.WaitUntilIdle(/*timeout_seconds=*/20.0));
  EXPECT_GE(service.metrics()->counter("service.watchdog_restarts")->value(),
            1u);
  FlightRecorder* flight = service.flight_recorder();
  EXPECT_GE(flight->triggers(), 1u);
  ASSERT_GE(flight->dumps(), 1u);

  // The ring holds the restart marker, and the restart trigger left a
  // dump file on disk (a degraded publish around the stall may have
  // dumped first, so scan rather than assume the dump number).
  const std::string dump = flight->DumpString();
  EXPECT_NE(dump.find("watchdog_restart"), std::string::npos);
  bool found_restart_dump = false;
  DIR* scan = ::opendir(dir.c_str());
  ASSERT_NE(scan, nullptr);
  while (dirent* entry = ::readdir(scan)) {
    const std::string name = entry->d_name;
    if (name.find("flight_") == 0 &&
        name.find("watchdog_restart") != std::string::npos) {
      found_restart_dump = true;
    }
  }
  ::closedir(scan);
  EXPECT_TRUE(found_restart_dump);
  service.Stop();
}

}  // namespace
}  // namespace mqpi
