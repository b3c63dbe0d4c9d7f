#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "pi/pi_manager.h"
#include "sim/trace.h"
#include "storage/catalog.h"

namespace mqpi {
namespace {

using engine::QuerySpec;
using sched::QueryEventKind;

class EventTraceTest : public ::testing::Test {
 protected:
  EventTraceTest() {
    options_.processing_rate = 100.0;
    options_.quantum = 0.1;
    options_.cost_model.noise_sigma = 0.0;
  }
  storage::Catalog catalog_;
  sched::RdbmsOptions options_;
};

TEST_F(EventTraceTest, RecordsFullLifecycle) {
  sched::Rdbms db(&catalog_, options_);
  sim::EventTrace trace(&db);
  auto id = db.Submit(QuerySpec::Synthetic(100.0));
  ASSERT_TRUE(id.ok());
  db.RunUntilIdle();

  auto events = trace.ForQuery(*id);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, QueryEventKind::kSubmitted);
  EXPECT_EQ(events[1].kind, QueryEventKind::kStarted);
  EXPECT_EQ(events[2].kind, QueryEventKind::kFinished);
  EXPECT_DOUBLE_EQ(events[0].time, 0.0);
  EXPECT_NEAR(events[2].time, 1.0, 0.11);
  EXPECT_DOUBLE_EQ(events[2].info.completed_work, 100.0);
}

TEST_F(EventTraceTest, QueueingDelayMeasured) {
  options_.max_concurrent = 1;
  sched::Rdbms db(&catalog_, options_);
  sim::EventTrace trace(&db);
  auto a = db.Submit(QuerySpec::Synthetic(100.0));
  auto b = db.Submit(QuerySpec::Synthetic(100.0));
  ASSERT_TRUE(a.ok());
  db.RunUntilIdle();
  EXPECT_NEAR(trace.QueueingDelayOf(*a), 0.0, 1e-9);
  EXPECT_NEAR(trace.QueueingDelayOf(*b), 1.0, 0.11);
  EXPECT_EQ(trace.QueueingDelayOf(999), kUnknown);
}

TEST_F(EventTraceTest, BlockResumeAbortPriorityEvents) {
  sched::Rdbms db(&catalog_, options_);
  sim::EventTrace trace(&db);
  auto a = db.Submit(QuerySpec::Synthetic(1000.0));
  auto b = db.Submit(QuerySpec::Synthetic(1000.0));
  ASSERT_TRUE(db.Block(*a).ok());
  ASSERT_TRUE(db.Resume(*a).ok());
  ASSERT_TRUE(db.SetPriority(*a, Priority::kHigh).ok());
  ASSERT_TRUE(db.Abort(*b).ok());
  EXPECT_EQ(trace.Filter(QueryEventKind::kBlocked).size(), 1u);
  EXPECT_EQ(trace.Filter(QueryEventKind::kResumed).size(), 1u);
  EXPECT_EQ(trace.Filter(QueryEventKind::kAborted).size(), 1u);
  auto priority_events = trace.Filter(QueryEventKind::kPriorityChanged);
  ASSERT_EQ(priority_events.size(), 1u);
  EXPECT_EQ(priority_events[0].info.priority, Priority::kHigh);
}

TEST_F(EventTraceTest, CsvExport) {
  sched::Rdbms db(&catalog_, options_);
  sim::EventTrace trace(&db);
  ASSERT_TRUE(db.Submit(QuerySpec::Synthetic(50.0)).ok());
  db.RunUntilIdle();
  std::ostringstream os;
  trace.PrintCsv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("time,kind,query"), std::string::npos);
  EXPECT_NE(csv.find("submitted"), std::string::npos);
  EXPECT_NE(csv.find("finished"), std::string::npos);
  trace.Clear();
  EXPECT_TRUE(trace.events().empty());
}

TEST_F(EventTraceTest, WriteFileRoundTripsPrintCsv) {
  sched::Rdbms db(&catalog_, options_);
  sim::EventTrace trace(&db);
  ASSERT_TRUE(db.Submit(QuerySpec::Synthetic(50.0)).ok());
  ASSERT_TRUE(db.Submit(QuerySpec::Synthetic(80.0)).ok());
  db.RunUntilIdle();

  const std::string path = ::testing::TempDir() + "mqpi_trace_test.csv";
  ASSERT_TRUE(trace.WriteFile(path).ok());

  // The file is byte-identical to what PrintCsv streams.
  std::ostringstream expected;
  trace.PrintCsv(expected);
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::ostringstream actual;
  actual << in.rdbuf();
  EXPECT_EQ(actual.str(), expected.str());

  // Header row first, then one line per event.
  std::istringstream lines(actual.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "time,kind,query,state,completed,remaining");
  std::size_t rows = 0;
  while (std::getline(lines, line)) ++rows;
  EXPECT_EQ(rows, trace.events().size());

  std::remove(path.c_str());
  EXPECT_FALSE(trace.WriteFile("/nonexistent-dir/trace.csv").ok());
}

TEST_F(EventTraceTest, EventsOrderedByTime) {
  sched::Rdbms db(&catalog_, options_);
  sim::EventTrace trace(&db);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db.Submit(QuerySpec::Synthetic(40.0 + 20.0 * i)).ok());
  }
  db.RunUntilIdle();
  SimTime prev = 0.0;
  for (const auto& event : trace.events()) {
    EXPECT_GE(event.time, prev - 1e-12);
    prev = event.time;
  }
  EXPECT_EQ(trace.Filter(QueryEventKind::kFinished).size(), 5u);
}

// ---- PiManager::Report --------------------------------------------------------------

TEST_F(EventTraceTest, ProgressReportRows) {
  options_.max_concurrent = 2;
  sched::Rdbms db(&catalog_, options_);
  pi::PiManager pis(&db, {.sample_interval = 0.5,
                          .single_speed_window = 0.5});
  auto a = db.Submit(QuerySpec::Synthetic(100.0));
  auto b = db.Submit(QuerySpec::Synthetic(400.0));
  auto c = db.Submit(QuerySpec::Synthetic(100.0));  // queued
  ASSERT_TRUE(c.ok());
  pis.Track(*a);
  pis.Track(*b);
  for (int i = 0; i < 10; ++i) {  // t = 1.0: a is half done, c queued
    db.Step(options_.quantum);
    pis.AfterStep();
  }
  auto rows = pis.Report();
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    if (row.id == *a || row.id == *b) {
      EXPECT_EQ(row.state, sched::QueryState::kRunning);
      EXPECT_GT(row.fraction_done, 0.05);
      EXPECT_LT(row.fraction_done, 1.0);
      EXPECT_GT(row.speed, 0.0);
      EXPECT_GT(row.eta_multi, 0.0);
      EXPECT_LT(row.eta_multi, kInfiniteTime);
    } else {
      EXPECT_EQ(row.id, *c);
      EXPECT_EQ(row.state, sched::QueryState::kQueued);
      // Untracked: no single-query history.
      EXPECT_EQ(row.eta_single, kUnknown);
      // Queue-aware multi still has an ETA for it.
      EXPECT_GT(row.eta_multi, 0.0);
    }
    // The row shares the record's label block, rendered at Submit.
    EXPECT_EQ(row.label,
              QuerySpec::Synthetic(row.id == *b ? 400.0 : 100.0).ToString());
    EXPECT_EQ(row.label.data(), db.label(row.id).data());
  }
  // a: ~50 of 100 done at t=1.
  for (const auto& row : rows) {
    if (row.id == *a) {
      EXPECT_NEAR(row.fraction_done, 0.5, 0.1);
    }
  }
}

}  // namespace
}  // namespace mqpi
