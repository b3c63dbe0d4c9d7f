// Recovery-plane tests: journal record framing (round trip, torn-tail
// truncation at every byte offset, CRC rejection), the DurableLog
// (rotation, retention, write-failure poisoning + checkpoint healing,
// corrupt-checkpoint fallback), differential crash recovery (the
// recovered ProgressSnapshot is byte-identical to the pre-crash one,
// across quiet and chaos regimes), graceful drain (admissions close
// with kUnavailable, subscribers get a goodbye frame, the journal gets
// a final checkpoint), and the self-healing ResilientClient converging
// gap-free across a full server restart under net.conn_drop.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "engine/planner.h"
#include "fault/fault_injector.h"
#include "net/client.h"
#include "net/resilient_client.h"
#include "net/server.h"
#include "net/wire.h"
#include "recover/durable_log.h"
#include "recover/event.h"
#include "recover/journal.h"
#include "recover/recovery.h"
#include "service/metrics.h"
#include "service/pi_service.h"
#include "service/session.h"
#include "storage/catalog.h"

namespace mqpi::recover {
namespace {

using engine::QuerySpec;
using service::PiService;
using service::PiServiceOptions;

storage::Catalog* TestCatalog() {
  static storage::Catalog catalog;
  return &catalog;
}

PiServiceOptions ManualOptions() {
  PiServiceOptions options;
  options.rdbms.processing_rate = 100.0;
  options.rdbms.quantum = 0.1;
  options.rdbms.cost_model.noise_sigma = 0.0;
  options.start_ticker = false;
  return options;
}

// A fresh temp directory per test; removed (recursively, two levels
// deep at most) on destruction.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/mqpi_recover_XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    const std::string cmd = "rm -rf '" + path_ + "'";
    (void)::system(cmd.c_str());
  }
  const std::string& path() const { return path_; }
  std::string Sub(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Event MakeEvent(EventKind kind, std::uint64_t session_id, QueryId query_id) {
  Event event;
  event.kind = kind;
  event.session_id = session_id;
  event.query_id = query_id;
  event.time = 1.25;
  event.priority = Priority::kHigh;
  event.op = sched::QueryEventKind::kBlocked;
  event.flag = true;
  event.spec = QuerySpec::Synthetic(321.5);
  event.name = "journal-round-trip";
  return event;
}

// ---- record framing ---------------------------------------------------------

TEST(Journal, EventRoundTripsThroughRecordFraming) {
  std::vector<Event> events;
  for (int kind = static_cast<int>(EventKind::kSessionOpen);
       kind <= static_cast<int>(EventKind::kDrain); ++kind) {
    events.push_back(MakeEvent(static_cast<EventKind>(kind),
                               static_cast<std::uint64_t>(kind), kind * 7));
  }

  TempDir dir;
  const std::string path = dir.Sub("round.wal");
  {
    RecordWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    for (const Event& event : events) {
      ASSERT_TRUE(
          writer.Append(RecordType::kEvent, EncodeEvent(event)).ok());
    }
    ASSERT_TRUE(writer.Sync().ok());
  }

  auto read = ReadLog(path);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->truncated_tail);
  ASSERT_EQ(read->records.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(read->records[i].type, RecordType::kEvent);
    Event decoded_event;
    ASSERT_TRUE(DecodeEvent(read->records[i].payload, &decoded_event).ok());
    const Event* decoded = &decoded_event;
    EXPECT_EQ(decoded->kind, events[i].kind);
    EXPECT_EQ(decoded->session_id, events[i].session_id);
    EXPECT_EQ(decoded->query_id, events[i].query_id);
    EXPECT_EQ(decoded->time, events[i].time);
    EXPECT_EQ(decoded->priority, events[i].priority);
    EXPECT_EQ(decoded->op, events[i].op);
    EXPECT_EQ(decoded->flag, events[i].flag);
    EXPECT_EQ(decoded->name, events[i].name);
    EXPECT_EQ(decoded->spec.synthetic_cost, events[i].spec.synthetic_cost);
  }
}

TEST(Journal, TornTailAtEveryByteOffsetDropsOnlyTheLastRecord) {
  TempDir dir;
  const std::string path = dir.Sub("torn.wal");
  {
    RecordWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(writer
                      .Append(RecordType::kEvent,
                              EncodeEvent(MakeEvent(EventKind::kSubmit, 1, i)))
                      .ok());
    }
  }
  const std::string full = ReadFileBytes(path);
  auto intact = ReadLog(path);
  ASSERT_TRUE(intact.ok());
  ASSERT_EQ(intact->records.size(), 4u);
  const std::size_t prefix = static_cast<std::size_t>(
      intact->valid_bytes -
      (kRecordPrefixBytes + intact->records.back().payload.size()));

  // Truncate at every byte offset inside the final record: the reader
  // must keep exactly the first three records and report the tear.
  const std::string torn_path = dir.Sub("torn_copy.wal");
  for (std::size_t cut = prefix; cut < full.size(); ++cut) {
    WriteFileBytes(torn_path, full.substr(0, cut));
    auto read = ReadLog(torn_path);
    ASSERT_TRUE(read.ok()) << "cut at " << cut;
    EXPECT_EQ(read->records.size(), 3u) << "cut at " << cut;
    EXPECT_EQ(read->valid_bytes, prefix) << "cut at " << cut;
    EXPECT_EQ(read->truncated_tail, cut != prefix) << "cut at " << cut;
    EXPECT_EQ(read->dropped_bytes, cut - prefix) << "cut at " << cut;
  }
}

TEST(Journal, CorruptByteInsideARecordEndsTheValidPrefix) {
  TempDir dir;
  const std::string path = dir.Sub("flip.wal");
  {
    RecordWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(writer
                      .Append(RecordType::kEvent,
                              EncodeEvent(MakeEvent(EventKind::kSubmit, 1, i)))
                      .ok());
    }
  }
  std::string bytes = ReadFileBytes(path);
  // Flip one payload byte of the second record.
  auto intact = ReadLog(path);
  ASSERT_TRUE(intact.ok());
  const std::size_t first_len =
      kRecordPrefixBytes + intact->records[0].payload.size();
  bytes[first_len + kRecordPrefixBytes + 3] ^= 0x40;
  WriteFileBytes(path, bytes);

  auto read = ReadLog(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 1u);
  EXPECT_TRUE(read->truncated_tail);
  EXPECT_EQ(read->valid_bytes, first_len);
}

// ---- scenario driver --------------------------------------------------------

enum class ChaosRegime { kNone, kScheduler, kEstimator };

const char* RegimeName(ChaosRegime regime) {
  switch (regime) {
    case ChaosRegime::kNone:
      return "none";
    case ChaosRegime::kScheduler:
      return "scheduler";
    case ChaosRegime::kEstimator:
      return "estimator";
  }
  return "?";
}

void ArmRegime(fault::FaultInjector* injector, ChaosRegime regime) {
  switch (regime) {
    case ChaosRegime::kNone:
      break;
    case ChaosRegime::kScheduler:
      injector->ArmProbability(fault::kSchedRateCollapse, 0.2, 0.4);
      injector->ArmProbability(fault::kSchedQuantumStall, 0.1);
      injector->ArmProbability(fault::kSchedSpuriousAbort, 0.05);
      break;
    case ChaosRegime::kEstimator:
      injector->ArmProbability(fault::kPiCacheInvalidate, 0.2);
      injector->ArmProbability(fault::kPiWindowCorrupt, 0.1, -5.0);
      injector->ArmProbability(fault::kServicePublishDelay, 0.2);
      break;
  }
}

constexpr std::uint64_t kChaosSeed = 0xD1CEu;

// Drives a journaled service through a busy little lifetime —
// sessions, submissions, scheduled arrivals, control calls, steps,
// publishes, optionally periodic checkpoints — then "crashes"
// (detaches the sink so nothing else is journaled) and returns the
// byte image of the pre-crash state.
std::string RunScenarioAndCrash(const std::string& dir, ChaosRegime regime,
                                int checkpoint_every = 0) {
  fault::FaultInjector injector(kChaosSeed);
  ArmRegime(&injector, regime);
  auto log = std::make_unique<DurableLog>();
  DurableLog::Options log_options;
  EXPECT_TRUE(log->Open(dir, log_options).ok());

  PiServiceOptions options = ManualOptions();
  options.fault = regime == ChaosRegime::kNone ? nullptr : &injector;
  options.event_sink = log.get();
  PiService service(TestCatalog(), options);

  auto alice = service.OpenSession("alice");
  auto bob = service.OpenSession("bob");
  std::vector<QueryId> ids;
  for (int i = 0; i < 3; ++i) {
    auto id = alice->Submit(QuerySpec::Synthetic(80.0 + 40.0 * i));
    EXPECT_TRUE(id.ok());
    ids.push_back(*id);
  }
  EXPECT_TRUE(bob->SubmitAt(0.7, QuerySpec::Synthetic(120.0)).ok());
  EXPECT_TRUE(bob->SubmitAt(1.4, QuerySpec::Synthetic(60.0)).ok());

  int steps = 0;
  for (int round = 0; round < 6; ++round) {
    EXPECT_TRUE(service.Advance(0.3).ok());
    if (round == 1) {
      // Under the scheduler chaos regime a spurious abort may already
      // have killed the target; only SUCCESSFUL controls are journaled
      // either way, so failure here is a legal timeline, not an error.
      (void)alice->Block(ids[0]);
      (void)alice->SetPriority(ids[1], Priority::kHigh);
    }
    if (round == 3) {
      (void)alice->Resume(ids[0]);
      auto late = bob->Submit(QuerySpec::Synthetic(200.0), Priority::kLow);
      EXPECT_TRUE(late.ok());
    }
    if (round == 4) service.SetAdmissionOpen(false);
    if (round == 5) service.SetAdmissionOpen(true);
    service.PublishNow();
    ++steps;
    if (checkpoint_every > 0 && steps % checkpoint_every == 0) {
      EXPECT_TRUE(Checkpoint(&service, log.get()).ok());
    }
  }

  // The pre-crash image: probe (journaled), encode, then crash — the
  // sink detaches so the session teardown below is never journaled,
  // exactly as if the process had died here.
  const std::string pre = EncodeSnapshotBytes(service.BuildUnpublishedSnapshot());
  EXPECT_TRUE(log->Sync().ok());
  service.SetEventSink(nullptr);
  alice->Close();
  bob->Close();
  return pre;
}

// Recover `dir` with a fresh same-seed injector and return the byte
// image at the replayed probe point.
std::string RecoverAndEncode(const std::string& dir, ChaosRegime regime,
                             RecoveredService* out = nullptr) {
  fault::FaultInjector injector(kChaosSeed);
  ArmRegime(&injector, regime);
  PiServiceOptions options = ManualOptions();
  options.fault = regime == ChaosRegime::kNone ? nullptr : &injector;
  auto recovered = Recover(TestCatalog(), dir, options);
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
  if (!recovered.ok()) return "";
  const std::string post =
      EncodeSnapshotBytes(recovered->service->BuildUnpublishedSnapshot());
  if (out != nullptr) *out = std::move(*recovered);
  return post;
}

// ---- differential recovery --------------------------------------------------

class DifferentialRecovery : public ::testing::TestWithParam<ChaosRegime> {};

TEST_P(DifferentialRecovery, RecoveredSnapshotIsByteIdentical) {
  TempDir dir;
  const std::string pre = RunScenarioAndCrash(dir.path(), GetParam());
  ASSERT_FALSE(pre.empty());
  RecoveredService recovered;
  const std::string post = RecoverAndEncode(dir.path(), GetParam(), &recovered);
  EXPECT_EQ(pre, post) << "regime " << RegimeName(GetParam());
  EXPECT_GT(recovered.events_replayed, 0u);
  EXPECT_FALSE(recovered.had_checkpoint);
  EXPECT_EQ(recovered.sessions.size(), 2u);  // crash left both open
}

TEST_P(DifferentialRecovery, WithCheckpointsVerifiesAndMatches) {
  TempDir dir;
  const std::string pre =
      RunScenarioAndCrash(dir.path(), GetParam(), /*checkpoint_every=*/2);
  ASSERT_FALSE(pre.empty());
  RecoveredService recovered;
  const std::string post = RecoverAndEncode(dir.path(), GetParam(), &recovered);
  EXPECT_EQ(pre, post) << "regime " << RegimeName(GetParam());
  EXPECT_TRUE(recovered.had_checkpoint);
  EXPECT_TRUE(recovered.verified) << "checkpoint verification failed";
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, DifferentialRecovery,
    ::testing::Values(ChaosRegime::kNone, ChaosRegime::kScheduler,
                      ChaosRegime::kEstimator),
    [](const ::testing::TestParamInfo<ChaosRegime>& info) {
      return RegimeName(info.param);
    });

// Retention across a crash: the journal is cut while terminal rows are
// inside their window and earlier ones are already reaped, and the
// original run lost publications to a delay fault that replay does not
// reproduce. Visibility depends only on finish time, snapshot time and
// the window, so the recovered probe — and the checkpoint's verifying
// probe — are byte-identical.
TEST(Recovery, CrashInsideRetentionWindowIsByteIdentical) {
  TempDir dir;
  PiServiceOptions options = ManualOptions();
  options.terminal_retention_quanta = 3;
  std::string pre;
  {
    fault::FaultInjector injector(kChaosSeed);
    injector.ArmSchedule(fault::kServicePublishDelay, {4, 5, 6, 7, 8, 20});
    DurableLog log;
    ASSERT_TRUE(log.Open(dir.path(), DurableLog::Options{}).ok());
    PiServiceOptions live = options;
    live.fault = &injector;
    live.event_sink = &log;
    PiService service(TestCatalog(), live);
    auto session = service.OpenSession("short");
    auto cancelled = session->Submit(QuerySpec::Synthetic(1e4));
    ASSERT_TRUE(cancelled.ok());
    std::vector<QueryId> ids = {*cancelled};
    for (int quantum = 0; quantum < 40; ++quantum) {
      if (quantum % 2 == 0) {
        auto id = session->Submit(QuerySpec::Synthetic(5.0 + quantum % 7));
        ASSERT_TRUE(id.ok());
        ids.push_back(*id);
      }
      // Cancelled two quanta before the crash: still in its window.
      if (quantum == 38) {
        ASSERT_TRUE(session->Abort(*cancelled).ok());
      }
      if (quantum == 25) {
        ASSERT_TRUE(Checkpoint(&service, &log).ok());
      }
      ASSERT_TRUE(service.Advance(0.1).ok());
    }
    const service::SnapshotPtr probe = service.BuildUnpublishedSnapshot();
    // Inside a window: some rows terminal but retained, older ones gone.
    int retained = 0;
    for (const auto& row : probe->queries) retained += row.terminal();
    EXPECT_GT(retained, 1);
    ASSERT_NE(probe->Find(*cancelled), nullptr);
    EXPECT_TRUE(probe->Find(*cancelled)->terminal());
    EXPECT_LT(probe->queries.size(), ids.size());
    pre = EncodeSnapshotBytes(probe);
    ASSERT_TRUE(log.Sync().ok());
    service.SetEventSink(nullptr);
    session->Close();
  }
  auto recovered = Recover(TestCatalog(), dir.path(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->had_checkpoint);
  EXPECT_TRUE(recovered->verified) << "checkpoint verification failed";
  EXPECT_EQ(EncodeSnapshotBytes(recovered->service->BuildUnpublishedSnapshot()),
            pre);
}

// A recovered service re-renders every label from the journaled spec:
// its rows, read through the snapshot and through a recovered
// session, show the same QuerySpec::ToString() the original did.
TEST(Recovery, RecoveredRowsCarryTheSubmittedLabels) {
  TempDir dir;
  PiServiceOptions options = ManualOptions();
  options.terminal_retention_quanta = 1000;
  std::vector<std::string> expected;  // by id - 1
  std::uint64_t session_id = 0;
  {
    DurableLog log;
    ASSERT_TRUE(log.Open(dir.path(), DurableLog::Options{}).ok());
    PiServiceOptions live = options;
    live.event_sink = &log;
    PiService service(TestCatalog(), live);
    auto session = service.OpenSession("labels");
    session_id = session->id();
    for (int i = 0; i < 6; ++i) {
      const QuerySpec spec = QuerySpec::Synthetic(2.0 + 31.75 * i);
      ASSERT_TRUE(session->Submit(spec).ok());
      expected.push_back(spec.ToString());
      ASSERT_TRUE(service.Advance(0.1).ok());
    }
    ASSERT_TRUE(log.Sync().ok());
    service.SetEventSink(nullptr);
    session->Close();
  }
  auto recovered = Recover(TestCatalog(), dir.path(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const service::SnapshotPtr snapshot =
      recovered->service->BuildUnpublishedSnapshot();
  ASSERT_EQ(snapshot->queries.size(), expected.size());
  EXPECT_TRUE(snapshot->queries.front().terminal());
  for (const auto& row : snapshot->queries) {
    EXPECT_EQ(row.label, expected[row.id - 1]) << "query " << row.id;
  }
  recovered->service->PublishNow();
  auto session = recovered->sessions.find(session_id);
  ASSERT_NE(session, recovered->sessions.end());
  const auto listed = session->second->ListQueries();
  ASSERT_EQ(listed.size(), expected.size());
  for (const auto& row : listed) {
    EXPECT_EQ(row.label, expected[row.id - 1]) << "query " << row.id;
  }
}

// Kill-mid-soak: with checkpoints cut under churn, truncate the active
// journal at EVERY byte offset of its final record. Each truncation
// must recover cleanly — either the full history (cut at the record
// boundary) or the history minus exactly the torn record.
TEST(Recovery, KillMidSoakTruncatedAtEveryByteOffset) {
  TempDir dir;
  const std::string scenario = dir.Sub("scenario");
  (void)RunScenarioAndCrash(scenario, ChaosRegime::kNone,
                            /*checkpoint_every=*/4);

  auto loaded = DurableLog::Load(scenario);
  ASSERT_TRUE(loaded.ok());
  const std::uint64_t active = loaded->active_index;
  const std::string active_path =
      DurableLog::JournalPath(scenario, active);
  const std::string full = ReadFileBytes(active_path);
  auto intact = ReadLog(active_path);
  ASSERT_TRUE(intact.ok());
  ASSERT_GE(intact->records.size(), 2u);
  const std::size_t prefix = static_cast<std::size_t>(
      intact->valid_bytes -
      (kRecordPrefixBytes + intact->records.back().payload.size()));
  const std::size_t full_events = loaded->events.size();

  for (std::size_t cut = prefix; cut <= full.size(); ++cut) {
    WriteFileBytes(active_path, full.substr(0, cut));
    PiServiceOptions options = ManualOptions();
    auto recovered = Recover(TestCatalog(), scenario, options);
    ASSERT_TRUE(recovered.ok())
        << "cut at " << cut << ": " << recovered.status().ToString();
    const std::size_t expected =
        cut == full.size() ? full_events : full_events - 1;
    EXPECT_EQ(recovered->events_replayed, expected) << "cut at " << cut;
    EXPECT_TRUE(recovered->had_checkpoint);
    EXPECT_TRUE(recovered->verified) << "cut at " << cut;
    // Resuming the log truncated the tear; restore the full journal
    // for the next iteration.
    recovered->log->Close();
    WriteFileBytes(active_path, full);
  }
}

// ---- checkpoint fallback ----------------------------------------------------

TEST(Recovery, CorruptNewestCheckpointFallsBackToPrevious) {
  TempDir dir;
  const std::string pre = RunScenarioAndCrash(dir.path(), ChaosRegime::kNone,
                                              /*checkpoint_every=*/2);
  auto loaded = DurableLog::Load(dir.path());
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->had_checkpoint);
  ASSERT_GE(loaded->checkpoint_index, 2u);  // at least two cut

  // Flip a byte in the middle of the newest checkpoint.
  const std::string newest =
      DurableLog::CheckpointPath(dir.path(), loaded->checkpoint_index);
  std::string bytes = ReadFileBytes(newest);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x01;
  WriteFileBytes(newest, bytes);

  RecoveredService recovered;
  const std::string post =
      RecoverAndEncode(dir.path(), ChaosRegime::kNone, &recovered);
  // Journals are rotated, never truncated: the older checkpoint plus
  // the retained journal segments replay to the identical state.
  EXPECT_EQ(pre, post);
  EXPECT_TRUE(recovered.had_checkpoint);
  EXPECT_GT(recovered.events_replayed, 0u);
  EXPECT_GE(recovered.corrupt_checkpoints, 1u);
}

TEST(Recovery, CheckpointCorruptFaultPointExercisesFallback) {
  TempDir dir;
  fault::FaultInjector injector(kChaosSeed);
  // Corrupt the SECOND checkpoint as it is written.
  injector.ArmSchedule(fault::kRecoverCheckpointCorrupt, {1});

  auto log = std::make_unique<DurableLog>();
  DurableLog::Options log_options;
  log_options.fault = &injector;
  ASSERT_TRUE(log->Open(dir.path(), log_options).ok());
  PiServiceOptions options = ManualOptions();
  options.event_sink = log.get();
  PiService service(TestCatalog(), options);
  auto session = service.OpenSession("chaos");
  ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(90.0)).ok());
  ASSERT_TRUE(service.Advance(0.5).ok());
  ASSERT_TRUE(Checkpoint(&service, log.get()).ok());  // checkpoint 1, clean
  ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(150.0)).ok());
  ASSERT_TRUE(service.Advance(0.5).ok());
  ASSERT_TRUE(Checkpoint(&service, log.get()).ok());  // checkpoint 2, corrupt
  ASSERT_TRUE(service.Advance(0.4).ok());
  const std::string pre =
      EncodeSnapshotBytes(service.BuildUnpublishedSnapshot());
  service.SetEventSink(nullptr);
  session->Close();
  log->Close();

  RecoveredService recovered;
  const std::string post =
      RecoverAndEncode(dir.path(), ChaosRegime::kNone, &recovered);
  EXPECT_EQ(pre, post);
  EXPECT_GE(recovered.corrupt_checkpoints, 1u);
  EXPECT_TRUE(recovered.had_checkpoint);  // fell back to checkpoint 1
}

// ---- journal write failure --------------------------------------------------

TEST(DurableLogTest, WriteFailPoisonsSegmentAndCheckpointHeals) {
  TempDir dir;
  fault::FaultInjector injector(7);
  service::MetricsRegistry metrics;
  injector.ArmSchedule(fault::kRecoverJournalWriteFail, {2});

  DurableLog log;
  DurableLog::Options options;
  options.fault = &injector;
  options.metrics = &metrics;
  ASSERT_TRUE(log.Open(dir.path(), options).ok());
  for (int i = 0; i < 5; ++i) {
    log.Append(MakeEvent(EventKind::kSubmit, 1, i));
  }
  // Append #2 fired the fault: the segment is poisoned, the in-memory
  // history is intact, and nothing after the poison hit the disk.
  EXPECT_FALSE(log.healthy());
  EXPECT_EQ(log.history_size(), 5u);
  EXPECT_EQ(metrics.counter("recover.journal_write_fails")->value(), 1.0);
  EXPECT_EQ(metrics.counter("recover.journal_records")->value(), 2.0);
  auto on_disk = ReadLog(DurableLog::JournalPath(dir.path(), 0));
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(on_disk->records.size(), 2u);

  // A checkpoint is written from the authoritative in-memory history:
  // it heals the log and carries all five events.
  ASSERT_TRUE(log.WriteCheckpoint("verify-bytes").ok());
  EXPECT_TRUE(log.healthy());
  log.Append(MakeEvent(EventKind::kSubmit, 1, 99));
  log.Close();

  auto loaded = DurableLog::Load(dir.path());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->had_checkpoint);
  ASSERT_EQ(loaded->events.size(), 6u);
  EXPECT_EQ(loaded->events[5].query_id, 99u);
  EXPECT_EQ(loaded->verification, "verify-bytes");
}

// ---- graceful drain ---------------------------------------------------------

TEST(Drain, ClosesAdmissionsSaysGoodbyeAndCheckpoints) {
  TempDir dir;
  auto log = std::make_unique<DurableLog>();
  ASSERT_TRUE(log->Open(dir.path(), {}).ok());
  PiServiceOptions options = ManualOptions();
  options.event_sink = log.get();
  PiService service(TestCatalog(), options);
  auto session = service.OpenSession("drainee");
  ASSERT_TRUE(session->Submit(QuerySpec::Synthetic(500.0)).ok());
  ASSERT_TRUE(service.Advance(0.5).ok());
  service.PublishNow();

  net::PiServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Subscribe().ok());
  ASSERT_TRUE((*client)->WaitForSequence(1, 5.0).ok());

  bool flushed = false;
  PiService::DrainHooks hooks;
  hooks.flush = [&] {
    flushed = true;
    EXPECT_TRUE(log->Sync().ok());
    EXPECT_TRUE(Checkpoint(&service, log.get()).ok());
  };
  hooks.goodbye = [&] { EXPECT_TRUE(server.Drain().ok()); };
  ASSERT_TRUE(service.Drain(hooks).ok());
  EXPECT_TRUE(flushed);
  EXPECT_TRUE(service.draining());
  EXPECT_EQ(service.metrics()->counter("service.drains")->value(), 1.0);

  // Submissions are refused with kUnavailable.
  auto refused = session->Submit(QuerySpec::Synthetic(10.0));
  EXPECT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsUnavailable());
  EXPECT_FALSE(session->SubmitAt(9.0, QuerySpec::Synthetic(10.0)).ok());

  // The subscriber receives the goodbye ERROR frame (kUnavailable) and
  // then the connection closes.
  bool saw_goodbye = false;
  for (int i = 0; i < 50 && !saw_goodbye; ++i) {
    auto pushed = (*client)->PumpOne(0.2);
    if (!pushed.ok()) {
      saw_goodbye = pushed.status().IsUnavailable();
      break;
    }
  }
  EXPECT_TRUE(saw_goodbye);

  // A second drain is refused.
  EXPECT_FALSE(service.Drain({}).ok());

  server.Stop();
  session->Close();

  // The final checkpoint makes the drained state recoverable.
  auto loaded = DurableLog::Load(dir.path());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->had_checkpoint);
  bool saw_drain_event = false;
  for (const Event& event : loaded->events) {
    if (event.kind == EventKind::kDrain) saw_drain_event = true;
  }
  EXPECT_TRUE(saw_drain_event);
}

// ---- resilient client -------------------------------------------------------

net::ResilientClient::Options FastClientOptions() {
  net::ResilientClient::Options options;
  options.connect_timeout_s = 1.0;
  options.backoff_initial_s = 0.02;
  options.backoff_max_s = 0.2;
  options.ping_interval_s = 0.2;
  options.call_timeout_s = 2.0;
  return options;
}

TEST(ResilientClientTest, ConvergesGapFreeAcrossServerRestart) {
  
  PiServiceOptions options = ManualOptions();
  service::MetricsRegistry client_metrics;

  // First server generation.
  auto service1 = std::make_unique<PiService>(TestCatalog(), options);
  auto session1 = service1->OpenSession("gen1");
  ASSERT_TRUE(session1->Submit(QuerySpec::Synthetic(400.0)).ok());
  ASSERT_TRUE(service1->Advance(0.3).ok());
  service1->PublishNow();
  auto server1 = std::make_unique<net::PiServer>(service1.get());
  ASSERT_TRUE(server1->Start().ok());
  const std::uint16_t port = server1->port();

  auto client_options = FastClientOptions();
  client_options.metrics = &client_metrics;
  net::ResilientClient client("127.0.0.1", port, client_options);
  ASSERT_TRUE(client.WaitForSequence(1, 5.0));
  const std::uint64_t seq1 = client.sequence();
  EXPECT_GE(seq1, 1u);

  // Kill generation one outright — subscribers are cut mid-stream.
  server1->Stop();
  session1->Close();
  server1.reset();
  service1.reset();

  // Second generation on the SAME port, with chaos: net.conn_drop
  // keeps severing live connections, so the client must reconnect
  // repeatedly and still converge.
  fault::FaultInjector chaos(42);
  chaos.ArmProbability(fault::kNetConnDrop, 0.05);
  auto service2 = std::make_unique<PiService>(TestCatalog(), options);
  auto session2 = service2->OpenSession("gen2");
  ASSERT_TRUE(session2->Submit(QuerySpec::Synthetic(300.0)).ok());
  net::PiServerOptions server_options;
  server_options.port = port;
  server_options.fault = &chaos;
  auto server2 =
      std::make_unique<net::PiServer>(service2.get(), server_options);
  // The old port may linger in TIME_WAIT paperwork briefly; retry.
  Status started = Status::OK();
  for (int i = 0; i < 50; ++i) {
    started = server2->Start();
    if (started.ok()) break;
    ::usleep(100 * 1000);
  }
  ASSERT_TRUE(started.ok()) << started.ToString();

  // Publish a stream of snapshots; the client must follow it to the
  // end despite the restart and the connection drops.
  std::uint64_t target = 0;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(service2->Advance(0.2).ok());
    service2->PublishNow();
    target = service2->snapshot()->sequence;
    ::usleep(20 * 1000);
  }
  ASSERT_TRUE(client.WaitForSequence(target, 20.0))
      << "client stuck at " << client.sequence() << " of " << target;
  EXPECT_GE(client.reconnects(), 1u);
  EXPECT_GE(client.resubscribes(), 1u);
  EXPECT_EQ(client_metrics.counter("net.client.reconnects")->value(),
            static_cast<double>(client.reconnects()));

  // Gap-free: the converged view matches the server's snapshot rows.
  const net::SnapshotView view = client.View();
  const auto truth = service2->snapshot();
  EXPECT_EQ(view.sequence(), truth->sequence);
  EXPECT_EQ(view.rows(), truth->queries.size());

  client.Stop();
  server2->Stop();
  session2->Close();
}

TEST(ResilientClientTest, ConnectFailFaultDrivesBackoffPath) {
  // No server at all on a fresh ephemeral port; the fault point makes
  // half the attempts fail before the socket, and the rest fail for
  // real. The client must keep scheduling retries without spinning.
  fault::FaultInjector chaos(7);
  chaos.ArmProbability(fault::kNetClientConnectFail, 0.5);
  service::MetricsRegistry metrics;
  auto options = FastClientOptions();
  options.fault = &chaos;
  options.metrics = &metrics;
  net::ResilientClient client("127.0.0.1", 1, options);  // port 1: refused
  ::usleep(300 * 1000);
  client.Stop();
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(client.reconnects(), 0u);  // never connected at all
  EXPECT_GE(metrics.counter("net.client.connect_fails")->value(), 1.0);
  // The fault point was consulted.
  bool evaluated = false;
  for (const auto& point : chaos.Stats()) {
    if (std::string(point.point) == fault::kNetClientConnectFail) {
      evaluated = point.evaluations > 0;
    }
  }
  EXPECT_TRUE(evaluated);
}

TEST(SnapshotViewTest, ResetClearsRowsButKeepsTallies) {
  net::SnapshotView view;
  net::SnapshotFrame frame;
  frame.sequence = 5;
  frame.sim_time = 2.0;
  frame.num_running = 1;
  service::QueryProgress row;
  row.id = 3;
  frame.rows.push_back(row);
  frame.total_rows = 1;
  ASSERT_TRUE(view.Apply(frame, /*is_full=*/true).ok());
  ASSERT_EQ(view.rows(), 1u);
  ASSERT_EQ(view.sequence(), 5u);

  view.Reset();
  EXPECT_EQ(view.rows(), 0u);
  EXPECT_EQ(view.sequence(), 0u);
  EXPECT_EQ(view.fulls_applied(), 1u);

  // A delta against the old sequence is now a gap, and the error names
  // both sides.
  net::SnapshotFrame delta;
  delta.sequence = 6;
  delta.base_sequence = 5;
  const Status gap = view.Apply(delta, /*is_full=*/false);
  ASSERT_FALSE(gap.ok());
  EXPECT_NE(gap.ToString().find("holds sequence 0"), std::string::npos)
      << gap.ToString();
  EXPECT_NE(gap.ToString().find("base 5"), std::string::npos);
}

}  // namespace
}  // namespace mqpi::recover
