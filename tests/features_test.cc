// Tests for the smaller library features: per-query I/O statistics,
// PiManager tracking, schedule serialization, and buffer-account hit
// accounting.

#include <gtest/gtest.h>

#include "pi/pi_manager.h"
#include "sched/rdbms.h"
#include "storage/tpcr_gen.h"
#include "workload/arrival_schedule.h"

namespace mqpi {
namespace {

using engine::QuerySpec;

// ---- per-query I/O statistics -------------------------------------------------

TEST(IoStatsTest, QueryInfoReportsPages) {
  storage::Catalog catalog;
  storage::TpcrGenerator generator(
      {.num_part_keys = 200, .matches_per_key = 5, .seed = 4});
  ASSERT_TRUE(generator.BuildLineitem(&catalog).ok());
  ASSERT_TRUE(generator.BuildPartTable(&catalog, "part_1", 5).ok());

  sched::RdbmsOptions options;
  options.processing_rate = 1000.0;
  options.quantum = 0.1;
  options.cost_model.noise_sigma = 0.0;
  sched::Rdbms db(&catalog, options);
  auto id = db.Submit(QuerySpec::TpcrPartPrice("part_1"));
  ASSERT_TRUE(id.ok());
  db.RunUntilIdle();
  const auto info = *db.info(*id);
  EXPECT_GT(info.pages_accessed, 0u);
  EXPECT_LE(info.buffer_hits, info.pages_accessed);
  // Repeated index descents make hits plentiful on a warm pool.
  EXPECT_GT(info.buffer_hits, info.pages_accessed / 2);
  // Uniform charges: pages accessed == completed work for page-only
  // operators (the correlated template charges no CPU-only work).
  EXPECT_DOUBLE_EQ(static_cast<double>(info.pages_accessed),
                   info.completed_work);
}

TEST(IoStatsTest, SyntheticQueriesHaveNone) {
  storage::Catalog catalog;
  sched::Rdbms db(&catalog, {});
  auto id = db.Submit(QuerySpec::Synthetic(100.0));
  ASSERT_TRUE(id.ok());
  db.RunUntilIdle();
  EXPECT_EQ(db.info(*id)->pages_accessed, 0u);
}

TEST(IoStatsTest, BufferAccountHitAccounting) {
  storage::BufferManager pool({.capacity_pages = 2});
  storage::BufferAccount account(&pool);
  account.Touch(storage::PageId{1, 0});  // miss
  account.Touch(storage::PageId{1, 0});  // hit
  account.Touch(storage::PageId{1, 1});  // miss
  account.Touch(storage::PageId{1, 2});  // miss, evicts 0
  account.Touch(storage::PageId{1, 0});  // miss again
  EXPECT_EQ(account.pages_accessed(), 5u);
  EXPECT_EQ(account.buffer_hits(), 1u);
  EXPECT_DOUBLE_EQ(account.hit_rate(), 0.2);
}

// ---- tracking -------------------------------------------------------------------

TEST(TrackTest, TracksQueriesTrackedAtSubmit) {
  storage::Catalog catalog;
  sched::RdbmsOptions options;
  options.processing_rate = 100.0;
  options.quantum = 0.1;
  sched::Rdbms db(&catalog, options);
  pi::PiManager pis(&db, {.sample_interval = 0.5,
                          .single_speed_window = 0.5});
  auto a = db.Submit(QuerySpec::Synthetic(200.0));
  auto b = db.Submit(QuerySpec::Synthetic(200.0));
  ASSERT_TRUE(a.ok() && b.ok());
  pis.Track(*a);
  pis.Track(*b);
  for (int i = 0; i < 15; ++i) {
    db.Step(options.quantum);
    pis.AfterStep();
  }
  // Both queries were traced from their first quantum on.
  EXPECT_FALSE(pis.Trace(*a).empty());
  EXPECT_FALSE(pis.Trace(*b).empty());
  EXPECT_TRUE(pis.EstimateSingle(*a).ok());
  EXPECT_LT(*pis.EstimateSingle(*a), kInfiniteTime);
}

// ---- schedule serialization -------------------------------------------------------

TEST(ScheduleSerializationTest, RoundTrip) {
  std::vector<workload::ScheduledArrival> schedule{
      {1.5, 3}, {2.25, 1}, {10.0, 42}};
  const std::string csv = workload::SerializeSchedule(schedule);
  auto parsed = workload::ParseSchedule(csv);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 3u);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_DOUBLE_EQ((*parsed)[i].time, schedule[i].time);
    EXPECT_EQ((*parsed)[i].rank, schedule[i].rank);
  }
}

TEST(ScheduleSerializationTest, EmptySchedule) {
  auto parsed =
      workload::ParseSchedule(workload::SerializeSchedule({}));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

TEST(ScheduleSerializationTest, RejectsMalformedInput) {
  EXPECT_FALSE(workload::ParseSchedule("bogus\n1,2\n").ok());
  EXPECT_FALSE(workload::ParseSchedule("time,rank\nabc,2\n").ok());
  EXPECT_FALSE(workload::ParseSchedule("time,rank\n1.0\n").ok());
  EXPECT_FALSE(workload::ParseSchedule("time,rank\n1.0,0\n").ok());
  // Non-increasing times.
  EXPECT_FALSE(workload::ParseSchedule("time,rank\n2.0,1\n1.0,1\n").ok());
}

TEST(ScheduleSerializationTest, GeneratedScheduleRoundTrips) {
  storage::Catalog catalog;
  storage::TpcrGenerator generator(
      {.num_part_keys = 300, .matches_per_key = 4, .seed = 6});
  workload::ZipfWorkload zipf(&catalog, &generator,
                              {.max_rank = 6, .a = 2.0, .n_scale = 1});
  ASSERT_TRUE(zipf.MaterializeTables().ok());
  Rng rng(5);
  const auto schedule =
      workload::GeneratePoissonArrivals(zipf, 0.5, 100.0, &rng);
  auto parsed =
      workload::ParseSchedule(workload::SerializeSchedule(schedule));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_NEAR((*parsed)[i].time, schedule[i].time, 1e-4);
    EXPECT_EQ((*parsed)[i].rank, schedule[i].rank);
  }
}

}  // namespace
}  // namespace mqpi
