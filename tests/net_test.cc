// Network-layer tests: wire-format round-trip property tests (every
// encoded frame decodes byte-identically; truncated / oversized /
// bad-version input is rejected with a Status, never a crash), the
// snapshot fan-out (O(1) publish, per-subscriber delta encoding,
// bounded-queue shedding), the TCP server end to end, TSan-checked
// subscribe/unsubscribe churn during publication, and a chaos soak
// over the kNet* fault points with seed-replayable fire streams.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/planner.h"
#include "fault/fault_injector.h"
#include "net/client.h"
#include "net/conn.h"
#include "net/fanout.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/pi_service.h"
#include "service/session.h"
#include "storage/catalog.h"

namespace mqpi::net {
namespace {

using engine::QuerySpec;
using service::PiService;
using service::PiServiceOptions;
using service::ProgressSnapshot;
using service::QueryProgress;
using service::SnapshotPtr;

PiServiceOptions ManualOptions() {
  PiServiceOptions options;
  options.rdbms.processing_rate = 100.0;
  options.rdbms.quantum = 0.1;
  options.rdbms.cost_model.noise_sigma = 0.0;
  options.start_ticker = false;
  return options;
}

double RandomDouble(Rng* rng) {
  switch (rng->UniformInt(0, 5)) {
    case 0:
      return kUnknown;
    case 1:
      return kInfiniteTime;
    case 2:
      return std::numeric_limits<double>::quiet_NaN();
    case 3:
      return 0.0;
    default:
      return rng->Uniform(-1e6, 1e6);
  }
}

std::string RandomLabel(Rng* rng) {
  std::string label;
  const int len = static_cast<int>(rng->UniformInt(0, 24));
  for (int i = 0; i < len; ++i) {
    label += static_cast<char>(rng->UniformInt(32, 126));
  }
  return label;
}

QueryProgress RandomRow(Rng* rng) {
  QueryProgress row;
  row.id = static_cast<QueryId>(rng->UniformInt(0, 1 << 20));
  row.session_id = static_cast<std::uint64_t>(rng->UniformInt(0, 1 << 10));
  row.label = QueryLabel(RandomLabel(rng));
  row.state = static_cast<sched::QueryState>(rng->UniformInt(0, 4));
  row.priority = static_cast<Priority>(rng->UniformInt(0, 3));
  row.weight = RandomDouble(rng);
  row.completed_work = RandomDouble(rng);
  row.remaining_cost = RandomDouble(rng);
  row.fraction_done = rng->NextDouble();
  row.speed = RandomDouble(rng);
  row.eta_single = RandomDouble(rng);
  row.eta_multi = RandomDouble(rng);
  row.queue_position = static_cast<int>(rng->UniformInt(-1, 64));
  row.arrival_time = RandomDouble(rng);
  row.start_time = RandomDouble(rng);
  row.finish_time = RandomDouble(rng);
  row.degraded = rng->UniformInt(0, 1) == 1;
  return row;
}

FrameBody RandomBody(Rng* rng) {
  switch (rng->UniformInt(0, 15)) {
    case 0: {
      SubmitRequest body;
      body.priority = static_cast<Priority>(rng->UniformInt(0, 3));
      body.is_sql = rng->UniformInt(0, 1) == 1;
      body.sql = RandomLabel(rng);
      body.synthetic_cost = RandomDouble(rng);
      body.label = RandomLabel(rng);
      return body;
    }
    case 1:
      return SubmitReply{static_cast<QueryId>(rng->UniformInt(0, 1 << 20))};
    case 2:
      return CancelRequest{static_cast<QueryId>(rng->UniformInt(0, 99))};
    case 3:
      return CancelReply{};
    case 4:
      return ProgressRequest{static_cast<QueryId>(rng->UniformInt(0, 99))};
    case 5: {
      ProgressReply body;
      body.sequence = static_cast<std::uint64_t>(rng->UniformInt(0, 1000));
      body.sim_time = RandomDouble(rng);
      body.row = RandomRow(rng);
      return body;
    }
    case 6:
      // Spans the merged scope (-1) and shard scopes, including ones no
      // real server would accept — the codec must carry them verbatim.
      return SubscribeRequest{
          static_cast<std::int32_t>(rng->UniformInt(-1, 8))};
    case 7:
      return SubscribeReply{
          static_cast<std::uint64_t>(rng->UniformInt(0, 1000))};
    case 8:
      return UnsubscribeRequest{};
    case 9:
      return UnsubscribeReply{};
    case 10: {
      WhatIfRequest body;
      body.target = static_cast<QueryId>(rng->UniformInt(0, 99));
      const int blocked = static_cast<int>(rng->UniformInt(0, 4));
      for (int i = 0; i < blocked; ++i) {
        body.blocked.push_back(static_cast<QueryId>(rng->UniformInt(0, 99)));
      }
      const int aborted = static_cast<int>(rng->UniformInt(0, 4));
      for (int i = 0; i < aborted; ++i) {
        body.aborted.push_back(static_cast<QueryId>(rng->UniformInt(0, 99)));
      }
      const int reweighted = static_cast<int>(rng->UniformInt(0, 4));
      for (int i = 0; i < reweighted; ++i) {
        body.reweighted.emplace_back(
            static_cast<QueryId>(rng->UniformInt(0, 99)),
            rng->Uniform(0.1, 8.0));
      }
      return body;
    }
    case 11:
      return WhatIfReply{RandomDouble(rng)};
    case 12:
      return PingRequest{rng->Next()};
    case 13:
      return PongReply{rng->Next()};
    case 14: {
      ErrorReply body;
      body.code = static_cast<StatusCode>(rng->UniformInt(1, 9));
      body.message = RandomLabel(rng);
      return body;
    }
    default: {
      SnapshotFrame body;
      body.sequence = static_cast<std::uint64_t>(rng->UniformInt(0, 1000));
      body.base_sequence =
          static_cast<std::uint64_t>(rng->UniformInt(0, 1000));
      body.sim_time = RandomDouble(rng);
      body.num_running = static_cast<std::int32_t>(rng->UniformInt(0, 40));
      body.num_queued = static_cast<std::int32_t>(rng->UniformInt(0, 40));
      body.num_blocked = static_cast<std::int32_t>(rng->UniformInt(0, 40));
      body.measured_rate = RandomDouble(rng);
      body.quiescent_eta = RandomDouble(rng);
      body.age_quanta = static_cast<std::int32_t>(rng->UniformInt(0, 9));
      body.degraded = rng->UniformInt(0, 1) == 1;
      const int rows = static_cast<int>(rng->UniformInt(0, 12));
      for (int i = 0; i < rows; ++i) body.rows.push_back(RandomRow(rng));
      body.total_rows = static_cast<std::uint32_t>(
          rng->UniformInt(rows, rows + 100));
      const int shard_loads = static_cast<int>(rng->UniformInt(0, 4));
      for (int i = 0; i < shard_loads; ++i) {
        service::ShardLoad load;
        load.shard = i;
        load.sequence = static_cast<std::uint64_t>(rng->UniformInt(0, 1000));
        load.sim_time = RandomDouble(rng);
        load.num_running = static_cast<int>(rng->UniformInt(0, 40));
        load.num_queued = static_cast<int>(rng->UniformInt(0, 40));
        load.measured_rate = RandomDouble(rng);
        load.quiescent_eta = RandomDouble(rng);
        load.degraded = rng->UniformInt(0, 1) == 1;
        body.shard_loads.push_back(load);
      }
      const int removed = static_cast<int>(rng->UniformInt(0, 3));
      for (int i = 0; i < removed; ++i) body.removed.push_back(rng->Next());
      return body;
    }
  }
}

// A snapshot with synthetic rows, sorted by id (the invariant the
// delta encoder leans on).
SnapshotPtr MakeSnapshot(std::uint64_t sequence,
                         std::vector<QueryProgress> rows) {
  auto snapshot = std::make_shared<ProgressSnapshot>();
  snapshot->sequence = sequence;
  snapshot->sim_time = static_cast<double>(sequence) * 0.1;
  snapshot->queries = std::move(rows);
  return snapshot;
}

QueryProgress Row(QueryId id, double fraction) {
  QueryProgress row;
  row.id = id;
  row.state = sched::QueryState::kRunning;
  row.fraction_done = fraction;
  row.eta_multi = 10.0 * (1.0 - fraction);
  return row;
}

// ---- wire round-trip property tests -----------------------------------------

TEST(WireFormatTest, RandomFramesRoundTripByteIdentically) {
  Rng rng(0xC0FFEEu);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t request_id = rng.Next();
    const FrameBody body = RandomBody(&rng);
    const bool full = rng.UniformInt(0, 1) == 1;
    const std::string bytes = EncodeFrame(request_id, body, full);

    Frame decoded;
    std::size_t consumed = 0;
    Status error;
    const DecodeResult r = TryDecodeFrame(bytes.data(), bytes.size(),
                                          kMaxPayloadBytes, &decoded,
                                          &consumed, &error);
    ASSERT_EQ(r, DecodeResult::kFrame) << error.ToString();
    ASSERT_EQ(consumed, bytes.size());
    EXPECT_EQ(decoded.header.request_id, request_id);
    EXPECT_EQ(decoded.body.index(), body.index());

    // Re-encoding the decoded frame must reproduce the exact bytes —
    // byte-identity subsumes field-by-field equality (including NaN
    // payload bits).
    const std::string reencoded =
        EncodeFrame(decoded.header.request_id, decoded.body, full);
    EXPECT_EQ(reencoded, bytes);
  }
}

TEST(WireFormatTest, EveryTruncationReportsNeedMoreNeverCrashes) {
  Rng rng(0xBEEFu);
  for (int trial = 0; trial < 50; ++trial) {
    const std::string bytes = EncodeFrame(rng.Next(), RandomBody(&rng));
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      Frame decoded;
      std::size_t consumed = 0;
      Status error;
      const DecodeResult r = TryDecodeFrame(bytes.data(), cut,
                                            kMaxPayloadBytes, &decoded,
                                            &consumed, &error);
      ASSERT_EQ(r, DecodeResult::kNeedMore)
          << "cut=" << cut << " of " << bytes.size();
    }
  }
}

TEST(WireFormatTest, BadVersionFlagsTypeAndLengthAreStatusErrors) {
  const std::string good = EncodeFrame(7, FrameBody{PingRequest{42}});
  Frame decoded;
  std::size_t consumed = 0;
  Status error;

  std::string bad = good;
  bad[4] = 9;  // version
  EXPECT_EQ(TryDecodeFrame(bad.data(), bad.size(), kMaxPayloadBytes,
                           &decoded, &consumed, &error),
            DecodeResult::kError);
  EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);

  bad = good;
  bad[6] = 1;  // flags must be zero
  EXPECT_EQ(TryDecodeFrame(bad.data(), bad.size(), kMaxPayloadBytes,
                           &decoded, &consumed, &error),
            DecodeResult::kError);

  bad = good;
  bad[5] = static_cast<char>(200);  // unknown frame type
  EXPECT_EQ(TryDecodeFrame(bad.data(), bad.size(), kMaxPayloadBytes,
                           &decoded, &consumed, &error),
            DecodeResult::kError);

  // Oversized declared length: rejected before any payload arrives.
  bad = good;
  const std::uint32_t huge = 1u << 30;
  std::memcpy(bad.data(), &huge, sizeof(huge));
  EXPECT_EQ(TryDecodeFrame(bad.data(), bad.size(), kMaxPayloadBytes,
                           &decoded, &consumed, &error),
            DecodeResult::kError);
  EXPECT_EQ(error.code(), StatusCode::kOutOfRange);
}

TEST(WireFormatTest, CorruptPayloadsNeverCrash) {
  Rng rng(0xFADEDu);
  int errors = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string bytes = EncodeFrame(rng.Next(), RandomBody(&rng));
    // Flip a few bytes anywhere in the frame.
    const int flips = static_cast<int>(rng.UniformInt(1, 5));
    for (int i = 0; i < flips; ++i) {
      const auto pos = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[pos] = static_cast<char>(rng.UniformInt(0, 255));
    }
    Frame decoded;
    std::size_t consumed = 0;
    Status error;
    const DecodeResult r = TryDecodeFrame(bytes.data(), bytes.size(),
                                          kMaxPayloadBytes, &decoded,
                                          &consumed, &error);
    if (r == DecodeResult::kError) {
      ++errors;
      EXPECT_FALSE(error.ok());
    }
  }
  EXPECT_GT(errors, 0);  // corruption is actually being detected
}

// The largest single operator-new request made while armed: decoder
// tests arm it around one decode to bound what a frame can allocate.
std::atomic<bool> g_alloc_probe_armed{false};
std::atomic<std::size_t> g_alloc_probe_largest{0};

TEST(WireFormatTest, WhatIfCountsBeyondThePayloadAllocateNothing) {
  // A 20-byte WHATIF payload (target + three empty list counts), then
  // each count — and all three at once — claiming kMaxSnapshotRows
  // entries. The decoder must reject the frame before sizing any list,
  // not allocate and zero 32 MiB per list first.
  const std::string good = EncodeFrame(7, FrameBody{WhatIfRequest{}});
  ASSERT_EQ(good.size(), kFrameHeaderBytes + 20);
  for (int claim = 0; claim <= 3; ++claim) {  // 3: every list at once
    SCOPED_TRACE("claim " + std::to_string(claim));
    std::string bad = good;
    for (int list = 0; list < 3; ++list) {
      if (claim != 3 && claim != list) continue;
      const std::size_t at = kFrameHeaderBytes + 8 + 4 * std::size_t(list);
      for (int byte = 0; byte < 4; ++byte) {  // little-endian u32
        bad[at + std::size_t(byte)] =
            static_cast<char>((kMaxSnapshotRows >> (8 * byte)) & 0xFF);
      }
    }
    Frame decoded;
    std::size_t consumed = 0;
    Status error;
    g_alloc_probe_largest.store(0);
    g_alloc_probe_armed.store(true);
    const DecodeResult r = TryDecodeFrame(bad.data(), bad.size(),
                                          kMaxPayloadBytes, &decoded,
                                          &consumed, &error);
    g_alloc_probe_armed.store(false);
    EXPECT_EQ(r, DecodeResult::kError);
    EXPECT_LT(g_alloc_probe_largest.load(), std::size_t{1} << 16);
  }
}

TEST(WireFormatTest, MultipleFramesDecodeInSequenceFromOneBuffer) {
  std::string stream;
  stream += EncodeFrame(1, FrameBody{PingRequest{11}});
  stream += EncodeFrame(2, FrameBody{CancelRequest{5}});
  stream += EncodeFrame(3, FrameBody{SubscribeRequest{}});

  std::size_t pos = 0;
  std::vector<std::uint64_t> ids;
  for (;;) {
    Frame decoded;
    std::size_t consumed = 0;
    Status error;
    const DecodeResult r =
        TryDecodeFrame(stream.data() + pos, stream.size() - pos,
                       kMaxPayloadBytes, &decoded, &consumed, &error);
    if (r != DecodeResult::kFrame) break;
    pos += consumed;
    ids.push_back(decoded.header.request_id);
  }
  EXPECT_EQ(pos, stream.size());
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3}));
}

// ---- delta encoder ----------------------------------------------------------

TEST(DeltaEncoderTest, FirstContactIsFullThenOnlyChangedRows) {
  DeltaEncoder encoder;
  bool full = false;

  const auto s1 = MakeSnapshot(1, {Row(1, 0.1), Row(2, 0.5), Row(3, 0.9)});
  std::string f1 = encoder.Encode(s1, &full);
  EXPECT_TRUE(full);

  // Only row 2 changes.
  auto rows = s1->queries;
  rows[1].fraction_done = 0.6;
  const auto s2 = MakeSnapshot(2, rows);
  std::string f2 = encoder.Encode(s2, &full);
  EXPECT_FALSE(full);

  Frame decoded;
  std::size_t consumed = 0;
  Status error;
  ASSERT_EQ(TryDecodeFrame(f2.data(), f2.size(), kMaxPayloadBytes, &decoded,
                           &consumed, &error),
            DecodeResult::kFrame);
  EXPECT_EQ(decoded.header.type, FrameType::kSnapshotDelta);
  const auto& frame = std::get<SnapshotFrame>(decoded.body);
  ASSERT_EQ(frame.rows.size(), 1u);
  EXPECT_EQ(frame.rows[0].id, 2u);
  EXPECT_EQ(frame.base_sequence, 1u);
  EXPECT_EQ(frame.total_rows, 3u);
  EXPECT_EQ(encoder.stats().rows_skipped, 2u);

  // Nothing changes: a header-only delta, never an empty string.
  const auto s3 = MakeSnapshot(3, rows);
  std::string f3 = encoder.Encode(s3, &full);
  EXPECT_FALSE(full);
  ASSERT_EQ(TryDecodeFrame(f3.data(), f3.size(), kMaxPayloadBytes, &decoded,
                           &consumed, &error),
            DecodeResult::kFrame);
  EXPECT_TRUE(std::get<SnapshotFrame>(decoded.body).rows.empty());
}

TEST(DeltaEncoderTest, NewQueriesAndVanishedIdsRideDeltas) {
  DeltaEncoder encoder;
  bool full = false;

  const auto s1 = MakeSnapshot(1, {Row(1, 0.1), Row(2, 0.2)});
  encoder.Encode(s1, &full);

  // A new id appended: still a delta, carrying just the new row.
  const auto s2 =
      MakeSnapshot(2, {Row(1, 0.1), Row(2, 0.2), Row(7, 0.0)});
  std::string f2 = encoder.Encode(s2, &full);
  EXPECT_FALSE(full);
  Frame decoded;
  std::size_t consumed = 0;
  Status error;
  ASSERT_EQ(TryDecodeFrame(f2.data(), f2.size(), kMaxPayloadBytes, &decoded,
                           &consumed, &error),
            DecodeResult::kFrame);
  ASSERT_EQ(std::get<SnapshotFrame>(decoded.body).rows.size(), 1u);
  EXPECT_EQ(std::get<SnapshotFrame>(decoded.body).rows[0].id, 7u);

  EXPECT_TRUE(std::get<SnapshotFrame>(decoded.body).removed.empty());

  // Ids 1 and 2 vanish (reaped), one in front of a surviving row and
  // one behind the last: still a delta, naming both in `removed`.
  const auto s3 = MakeSnapshot(3, {Row(2, 0.2), Row(7, 0.1)});
  const auto s4 = MakeSnapshot(4, {Row(7, 0.1)});
  encoder.Encode(s3, &full);
  EXPECT_FALSE(full);
  std::string f4 = encoder.Encode(s4, &full);
  EXPECT_FALSE(full);
  ASSERT_EQ(TryDecodeFrame(f4.data(), f4.size(), kMaxPayloadBytes, &decoded,
                           &consumed, &error),
            DecodeResult::kFrame);
  EXPECT_EQ(decoded.header.type, FrameType::kSnapshotDelta);
  const auto& frame = std::get<SnapshotFrame>(decoded.body);
  EXPECT_TRUE(frame.rows.empty());
  EXPECT_EQ(frame.removed, (std::vector<QueryId>{2}));
  EXPECT_EQ(frame.total_rows, 1u);
  EXPECT_EQ(encoder.stats().fulls, 1u);
  EXPECT_EQ(encoder.stats().deltas, 3u);
}

TEST(DeltaEncoderTest, DeltaWithoutRemovedDecodesAsNoRemovals) {
  SnapshotFrame frame;
  frame.sequence = 4;
  frame.base_sequence = 3;
  frame.total_rows = 1;
  frame.rows.push_back(Row(7, 0.5));
  const std::string with_loads = EncodeFrame(0, FrameBody(frame), false);
  // A legacy peer's payload stops after the rows: cut the shard-load
  // count off the end and patch the length prefix.
  std::string legacy = with_loads.substr(0, with_loads.size() - 4);
  const std::uint32_t legacy_len =
      static_cast<std::uint32_t>(legacy.size() - kFrameHeaderBytes);
  for (int i = 0; i < 4; ++i) {
    legacy[i] = static_cast<char>(legacy_len >> (8 * i));  // little-endian
  }
  for (const std::string& bytes : {with_loads, legacy}) {
    Frame decoded;
    std::size_t consumed = 0;
    Status error;
    ASSERT_EQ(TryDecodeFrame(bytes.data(), bytes.size(), kMaxPayloadBytes,
                             &decoded, &consumed, &error),
              DecodeResult::kFrame)
        << error.ToString();
    const auto& got = std::get<SnapshotFrame>(decoded.body);
    EXPECT_TRUE(got.removed.empty());
    ASSERT_EQ(got.rows.size(), 1u);
    EXPECT_EQ(got.rows[0].id, 7u);
  }

  // With removals the field rides after the shard loads; a view erases
  // the ids it names.
  SnapshotView view;
  SnapshotFrame first;
  first.sequence = 3;
  first.total_rows = 2;
  first.rows = {Row(5, 0.1), Row(7, 0.4)};
  ASSERT_TRUE(view.Apply(first, /*is_full=*/true).ok());
  frame.removed = {5};
  const std::string bytes = EncodeFrame(0, FrameBody(frame), false);
  EXPECT_EQ(bytes.size(), with_loads.size() + 4 + 8);
  Frame decoded;
  std::size_t consumed = 0;
  Status error;
  ASSERT_EQ(TryDecodeFrame(bytes.data(), bytes.size(), kMaxPayloadBytes,
                           &decoded, &consumed, &error),
            DecodeResult::kFrame);
  const auto& got = std::get<SnapshotFrame>(decoded.body);
  EXPECT_EQ(got.removed, (std::vector<QueryId>{5}));
  ASSERT_TRUE(view.Apply(got, /*is_full=*/false).ok());
  EXPECT_EQ(view.rows(), 1u);
  EXPECT_EQ(view.Find(5), nullptr);
  EXPECT_DOUBLE_EQ(view.Find(7)->fraction_done, 0.5);
}

TEST(DeltaEncoderTest, BitwiseComparisonTreatsNanAndInfSanely) {
  auto a = Row(1, 0.5);
  auto b = a;
  EXPECT_FALSE(DeltaEncoder::RowChanged(a, b));
  b.eta_multi = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(DeltaEncoder::RowChanged(a, b));
  a.eta_multi = b.eta_multi;
  // NaN == NaN bitwise: no spurious "changed" every tick.
  EXPECT_FALSE(DeltaEncoder::RowChanged(a, b));
  b.eta_single = kInfiniteTime;
  EXPECT_TRUE(DeltaEncoder::RowChanged(a, b));
}

TEST(DeltaEncoderTest, CoalescingSkippedSnapshotsYieldsNetDelta) {
  DeltaEncoder encoder;
  bool full = false;
  const auto s1 = MakeSnapshot(1, {Row(1, 0.1), Row(2, 0.2)});
  encoder.Encode(s1, &full);

  // The subscriber misses sequences 2..9; encoding 10 directly gives
  // one delta with the net change, based on sequence 1.
  auto rows = s1->queries;
  rows[0].fraction_done = 0.9;
  const auto s10 = MakeSnapshot(10, rows);
  std::string f = encoder.Encode(s10, &full);
  EXPECT_FALSE(full);
  Frame decoded;
  std::size_t consumed = 0;
  Status error;
  ASSERT_EQ(TryDecodeFrame(f.data(), f.size(), kMaxPayloadBytes, &decoded,
                           &consumed, &error),
            DecodeResult::kFrame);
  const auto& frame = std::get<SnapshotFrame>(decoded.body);
  EXPECT_EQ(frame.base_sequence, 1u);
  EXPECT_EQ(frame.sequence, 10u);
  ASSERT_EQ(frame.rows.size(), 1u);
  EXPECT_EQ(frame.rows[0].id, 1u);
}

// ---- snapshot view (client-side merge) --------------------------------------

TEST(SnapshotViewTest, FullThenDeltasRebuildTheSnapshot) {
  DeltaEncoder encoder;
  SnapshotView view;
  auto apply = [&](const SnapshotPtr& snapshot) {
    bool full = false;
    const std::string bytes = encoder.Encode(snapshot, &full);
    Frame decoded;
    std::size_t consumed = 0;
    Status error;
    ASSERT_EQ(TryDecodeFrame(bytes.data(), bytes.size(), kMaxPayloadBytes,
                             &decoded, &consumed, &error),
              DecodeResult::kFrame);
    ASSERT_TRUE(view.Apply(std::get<SnapshotFrame>(decoded.body), full).ok());
  };

  apply(MakeSnapshot(1, {Row(1, 0.1), Row(2, 0.2)}));
  EXPECT_EQ(view.sequence(), 1u);
  EXPECT_EQ(view.rows(), 2u);

  auto rows = std::vector<QueryProgress>{Row(1, 0.5), Row(2, 0.2),
                                         Row(3, 0.0)};
  apply(MakeSnapshot(2, rows));
  EXPECT_EQ(view.sequence(), 2u);
  EXPECT_EQ(view.rows(), 3u);
  ASSERT_NE(view.Find(1), nullptr);
  EXPECT_DOUBLE_EQ(view.Find(1)->fraction_done, 0.5);
  EXPECT_EQ(view.deltas_applied(), 1u);
}

TEST(SnapshotViewTest, GapInDeltaStreamIsRejected) {
  SnapshotView view;
  SnapshotFrame full;
  full.sequence = 5;
  full.total_rows = 0;
  ASSERT_TRUE(view.Apply(full, /*is_full=*/true).ok());

  SnapshotFrame delta;
  delta.sequence = 9;
  delta.base_sequence = 8;  // view holds 5 — a gap
  delta.total_rows = 0;
  const Status status = view.Apply(delta, /*is_full=*/false);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

// A subscriber following a live service through many reaps: one full
// frame on first contact, then only deltas (no restart when rows
// leave), and the view it rebuilds equals every published snapshot.
TEST(SnapshotViewTest, SubscriberStreamsThroughReapsOnDeltasAlone) {
  storage::Catalog catalog;
  PiServiceOptions options;
  options.rdbms.processing_rate = 100.0;
  options.rdbms.quantum = 0.1;
  options.start_ticker = false;
  options.terminal_retention_quanta = 3;
  PiService service(&catalog, options);
  auto session = service.OpenSession("reaper");
  service::MetricsRegistry registry;
  NetMetrics metrics(&registry);
  auto subscription =
      std::make_shared<Subscription>(Subscription::Options{});
  LocalSubscriber consumer(subscription);

  Rng rng(99);
  std::size_t most_rows = 0;
  for (int quantum = 0; quantum < 200; ++quantum) {
    if (quantum < 150 && rng.UniformInt(0, 2) == 0) {
      ASSERT_TRUE(
          session->Submit(QuerySpec::Synthetic(rng.Uniform(1.0, 30.0))).ok());
    }
    ASSERT_TRUE(service.Advance(options.rdbms.quantum).ok());
    const SnapshotPtr snapshot = service.snapshot();
    ASSERT_TRUE(subscription->Deliver(snapshot, &metrics));
    ASSERT_EQ(consumer.Pump(), 1);
    const SnapshotView& view = consumer.view();
    ASSERT_EQ(view.sequence(), snapshot->sequence);
    ASSERT_EQ(view.rows(), snapshot->queries.size());
    for (const QueryProgress& row : snapshot->queries) {
      const QueryProgress* mirrored = view.Find(row.id);
      ASSERT_NE(mirrored, nullptr) << "query " << row.id;
      EXPECT_FALSE(DeltaEncoder::RowChanged(*mirrored, row));
    }
    most_rows = std::max(most_rows, snapshot->queries.size());
  }
  // Dozens of queries came and went, yet the view never held many.
  EXPECT_GT(service.metrics()->counter("queries.finished")->value(), 30u);
  EXPECT_LT(most_rows, 15u);
  EXPECT_EQ(consumer.view().rows(), 0u);
  EXPECT_EQ(metrics.full_frames->value(), 1u);
  EXPECT_EQ(metrics.delta_frames->value(), 199u);
  EXPECT_EQ(consumer.view().fulls_applied(), 1u);
  session->Close();
}

// Labels through the push stream: a subscriber's view shows each
// query's QuerySpec::ToString() after the full frame, through deltas
// that re-send the row, and until the reap removes it. A row the view
// already holds keeps its label storage rather than adopting each
// delta's freshly decoded copy.
TEST(SnapshotViewTest, LabelsSurviveFullDeltaAndReapFrames) {
  storage::Catalog catalog;
  PiServiceOptions options;
  options.rdbms.processing_rate = 100.0;
  options.rdbms.quantum = 0.1;
  options.start_ticker = false;
  options.terminal_retention_quanta = 2;
  PiService service(&catalog, options);
  auto session = service.OpenSession("labels");
  service::MetricsRegistry registry;
  NetMetrics metrics(&registry);
  auto subscription =
      std::make_shared<Subscription>(Subscription::Options{});
  LocalSubscriber consumer(subscription);

  std::vector<std::string> expected;  // by id - 1
  std::map<QueryId, const char*> held;
  int deltas_checked = 0;
  for (int quantum = 0; quantum < 60; ++quantum) {
    if (quantum < 40 && quantum % 4 == 0) {
      const QuerySpec spec = QuerySpec::Synthetic(3.0 + 2.5 * quantum);
      auto id = session->Submit(spec);
      ASSERT_TRUE(id.ok());
      ASSERT_EQ(*id, expected.size() + 1);
      expected.push_back(spec.ToString());
    }
    ASSERT_TRUE(service.Advance(options.rdbms.quantum).ok());
    const SnapshotPtr snapshot = service.snapshot();
    ASSERT_TRUE(subscription->Deliver(snapshot, &metrics));
    ASSERT_EQ(consumer.Pump(), 1);
    const SnapshotView& view = consumer.view();
    ASSERT_EQ(view.rows(), snapshot->queries.size());
    for (const QueryProgress& row : snapshot->queries) {
      SCOPED_TRACE("query " + std::to_string(row.id));
      EXPECT_EQ(row.label, expected[row.id - 1]);
      const QueryProgress* mirrored = view.Find(row.id);
      ASSERT_NE(mirrored, nullptr);
      EXPECT_EQ(mirrored->label, expected[row.id - 1]);
      const auto [it, first_seen] =
          held.try_emplace(row.id, mirrored->label.data());
      if (!first_seen) {
        EXPECT_EQ(mirrored->label.data(), it->second);
        ++deltas_checked;
      }
    }
  }
  // Every query came, was re-sent by deltas, finished and was reaped.
  EXPECT_EQ(held.size(), expected.size());
  EXPECT_GT(deltas_checked, 20);
  EXPECT_EQ(consumer.view().rows(), 0u);
  EXPECT_EQ(consumer.view().fulls_applied(), 1u);
  session->Close();
}

// ---- fan-out hub ------------------------------------------------------------

TEST(SnapshotFanoutTest, PublishCostIsIndependentOfSubscriberCount) {
  service::MetricsRegistry registry;
  NetMetrics metrics(&registry);
  SnapshotFanout fanout;
  SubscriberPool::Options options;
  options.threads = 2;
  SubscriberPool pool(&fanout, &metrics, options);
  pool.Start();

  auto ops_per_publish = [&](int subscribers, int publishes) {
    std::vector<std::shared_ptr<Subscription>> subs;
    for (int i = 0; i < subscribers; ++i) subs.push_back(pool.Subscribe());
    const std::uint64_t ops0 = fanout.publish_ops();
    const std::uint64_t pubs0 = fanout.publishes();
    for (int i = 0; i < publishes; ++i) {
      fanout.Publish(MakeSnapshot(fanout.epoch() + 1, {Row(1, 0.1)}));
    }
    const double ops = static_cast<double>(fanout.publish_ops() - ops0);
    const double pubs = static_cast<double>(fanout.publishes() - pubs0);
    for (auto& sub : subs) pool.Unsubscribe(sub);
    return ops / pubs;
  };

  const double small = ops_per_publish(1, 50);
  const double large = ops_per_publish(512, 50);
  // O(1): per-publish op count identical at 1 and 512 subscribers.
  EXPECT_DOUBLE_EQ(small, large);
  pool.Stop();
}

TEST(SnapshotFanoutTest, SubscribersReceiveEveryPublishOrCoalesced) {
  service::MetricsRegistry registry;
  NetMetrics metrics(&registry);
  SnapshotFanout fanout;
  SubscriberPool::Options options;
  options.threads = 1;
  SubscriberPool pool(&fanout, &metrics, options);
  pool.Start();

  auto sub = pool.Subscribe();
  for (std::uint64_t seq = 1; seq <= 20; ++seq) {
    fanout.Publish(MakeSnapshot(seq, {Row(1, 0.01 * seq)}));
  }
  // Wait until the pool has delivered the newest sequence.
  LocalSubscriber consumer(sub);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (consumer.view().sequence() < 20 &&
         std::chrono::steady_clock::now() < deadline) {
    consumer.Pump();
    std::this_thread::yield();
  }
  EXPECT_EQ(consumer.view().sequence(), 20u);
  EXPECT_EQ(consumer.view().rows(), 1u);
  // Coalescing means <= 20 frames were materialized for this consumer.
  EXPECT_LE(consumer.view().fulls_applied() + consumer.view().deltas_applied(),
            20u);
  pool.Unsubscribe(sub);
  pool.Stop();
}

TEST(SnapshotFanoutTest, PublishWallNsStampsAreReadable) {
  SnapshotFanout fanout;
  fanout.Publish(MakeSnapshot(41, {}));
  fanout.Publish(MakeSnapshot(42, {}));
  EXPECT_GT(fanout.PublishWallNs(42), 0);
  EXPECT_GT(fanout.PublishWallNs(41), 0);
  EXPECT_EQ(fanout.PublishWallNs(40), 0);  // never published
}

// ---- bounded-queue shedding -------------------------------------------------

TEST(SubscriptionShedTest, OverflowClearsQueueAndLeavesErrorGoodbye) {
  service::MetricsRegistry registry;
  NetMetrics metrics(&registry);
  Subscription::Options options;
  options.max_queued_frames = 4;
  Subscription subscription(options);

  // Nobody drains: the 5th delivery overflows and sheds.
  bool shed_seen = false;
  for (std::uint64_t seq = 1; seq <= 8; ++seq) {
    if (!subscription.Deliver(MakeSnapshot(seq, {Row(1, 0.1 * seq)}),
                              &metrics)) {
      shed_seen = true;
      break;
    }
  }
  ASSERT_TRUE(shed_seen);
  EXPECT_TRUE(subscription.shed());
  EXPECT_EQ(metrics.slow_consumers_shed->value(), 1u);

  // The queue holds exactly one frame: the kResourceExhausted goodbye.
  std::string bytes;
  ASSERT_TRUE(subscription.TryPop(&bytes));
  Frame decoded;
  std::size_t consumed = 0;
  Status error;
  ASSERT_EQ(TryDecodeFrame(bytes.data(), bytes.size(), kMaxPayloadBytes,
                           &decoded, &consumed, &error),
            DecodeResult::kFrame);
  const auto* goodbye = std::get_if<ErrorReply>(&decoded.body);
  ASSERT_NE(goodbye, nullptr);
  EXPECT_EQ(goodbye->code, StatusCode::kResourceExhausted);
  EXPECT_FALSE(subscription.TryPop(&bytes));
  // Deliveries after the shed are refused.
  EXPECT_FALSE(subscription.Deliver(MakeSnapshot(9, {}), &metrics));
}

TEST(SubscriptionMetricsTest, DeltaRowCountersMatchTheFramesOnTheWire) {
  service::MetricsRegistry registry;
  NetMetrics metrics(&registry);
  Subscription subscription(Subscription::Options{});

  auto rows = std::vector<QueryProgress>{Row(1, 0.1), Row(2, 0.2),
                                         Row(3, 0.3)};
  std::vector<SnapshotPtr> sequence;
  sequence.push_back(MakeSnapshot(1, rows));  // first contact: full, 3 rows
  rows[1].fraction_done = 0.25;
  sequence.push_back(MakeSnapshot(2, rows));  // delta: 1 sent, 2 skipped
  sequence.push_back(MakeSnapshot(3, rows));  // delta: 0 sent, 3 skipped
  rows[0].fraction_done = 0.15;
  rows.push_back(Row(7, 0.0));
  sequence.push_back(MakeSnapshot(4, rows));  // delta: 2 sent, 2 skipped
  // Id 2 vanishes (reaped) between unchanged rows: a delta naming it in
  // `removed`, 0 rows sent, 3 skipped.
  sequence.push_back(MakeSnapshot(5, {rows[0], rows[2], rows[3]}));

  std::uint64_t wire_sent = 0;
  std::uint64_t wire_skipped = 0;
  for (const SnapshotPtr& snapshot : sequence) {
    ASSERT_TRUE(subscription.Deliver(snapshot, &metrics));
    std::string bytes;
    ASSERT_TRUE(subscription.TryPop(&bytes));
    Frame decoded;
    std::size_t consumed = 0;
    Status error;
    ASSERT_EQ(TryDecodeFrame(bytes.data(), bytes.size(), kMaxPayloadBytes,
                             &decoded, &consumed, &error),
              DecodeResult::kFrame);
    const auto& frame = std::get<SnapshotFrame>(decoded.body);
    wire_sent += frame.rows.size();
    if (decoded.header.type == FrameType::kSnapshotDelta) {
      wire_skipped += frame.total_rows - frame.rows.size();
    }
  }
  EXPECT_EQ(wire_sent, 6u);
  EXPECT_EQ(wire_skipped, 10u);
  EXPECT_EQ(metrics.delta_rows_sent->value(), wire_sent);
  EXPECT_EQ(metrics.delta_rows_skipped->value(), wire_skipped);
  EXPECT_EQ(metrics.full_frames->value(), 1u);
  EXPECT_EQ(metrics.delta_frames->value(), 4u);
}

TEST(SubscriptionShedTest, PoolShedsStalledConsumerAndOthersKeepFlowing) {
  service::MetricsRegistry registry;
  NetMetrics metrics(&registry);
  SnapshotFanout fanout;
  SubscriberPool::Options options;
  options.threads = 1;
  options.subscription.max_queued_frames = 4;
  SubscriberPool pool(&fanout, &metrics, options);
  pool.Start();

  auto victim = pool.Subscribe();
  auto healthy = pool.Subscribe();
  victim->StallPops(1 << 20);  // the consumer goes deaf
  LocalSubscriber healthy_consumer(healthy);

  for (std::uint64_t seq = 1; seq <= 64 && !victim->shed(); ++seq) {
    fanout.Publish(MakeSnapshot(seq, {Row(1, 0.01 * seq)}));
    healthy_consumer.Pump();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!victim->shed() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(victim->shed());
  EXPECT_GE(metrics.slow_consumers_shed->value(), 1u);

  // The healthy consumer still converges on the latest sequence.
  fanout.Publish(MakeSnapshot(100, {Row(1, 0.99)}));
  const auto deadline2 =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (healthy_consumer.view().sequence() < 100 &&
         std::chrono::steady_clock::now() < deadline2) {
    healthy_consumer.Pump();
    std::this_thread::yield();
  }
  EXPECT_EQ(healthy_consumer.view().sequence(), 100u);
  pool.Unsubscribe(healthy);
  pool.Stop();
}

// ---- concurrency (the TSan-label suite) -------------------------------------

TEST(FanoutConcurrencyTest, ChurnDuringPublicationIsRaceFree) {
  service::MetricsRegistry registry;
  NetMetrics metrics(&registry);
  SnapshotFanout fanout;
  SubscriberPool::Options options;
  options.threads = 3;
  SubscriberPool pool(&fanout, &metrics, options);
  pool.Start();

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    std::uint64_t seq = 0;
    while (!stop.load(std::memory_order_acquire)) {
      fanout.Publish(MakeSnapshot(++seq, {Row(1, 0.5), Row(2, 0.25)}));
    }
  });

  // Churners subscribe, pump a little, and unsubscribe, mid-publish.
  std::vector<std::thread> churners;
  for (int t = 0; t < 4; ++t) {
    churners.emplace_back([&, t] {
      Rng rng(1000u + static_cast<std::uint64_t>(t));
      for (int round = 0; round < 200; ++round) {
        auto sub = pool.Subscribe();
        LocalSubscriber consumer(sub);
        const int pumps = static_cast<int>(rng.UniformInt(0, 8));
        for (int i = 0; i < pumps; ++i) consumer.Pump();
        if (rng.UniformInt(0, 1) == 0) {
          pool.Unsubscribe(sub);
        } else {
          sub->Cancel();  // lazy sweep removal path
        }
      }
    });
  }
  for (auto& churner : churners) churner.join();
  stop.store(true, std::memory_order_release);
  publisher.join();
  pool.Stop();
}

TEST(FanoutConcurrencyTest, StopWithLiveSubscribersIsClean) {
  service::MetricsRegistry registry;
  NetMetrics metrics(&registry);
  SnapshotFanout fanout;
  SubscriberPool pool(&fanout, &metrics);
  pool.Start();
  std::vector<std::shared_ptr<Subscription>> subs;
  for (int i = 0; i < 32; ++i) subs.push_back(pool.Subscribe());
  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    fanout.Publish(MakeSnapshot(seq, {Row(1, 0.1)}));
  }
  // Let the workers actually deliver before stopping, so the test also
  // covers "stop with queued frames still unconsumed".
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (subs[0]->delivered_sequence() < 10 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  pool.Stop();  // live subscriptions still registered: must not hang
  // Subscriptions stay poppable after the pool is gone.
  std::string bytes;
  EXPECT_TRUE(subs[0]->TryPop(&bytes));
}

TEST(ServerConcurrencyTest, TcpSubscribersDuringTickerPublishes) {
  storage::Catalog catalog;
  PiServiceOptions options = ManualOptions();
  options.start_ticker = true;  // live ticker: publishes race the churn
  options.time_scale = 0.0;
  PiService service(&catalog, options);
  PiServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  auto session = service.OpenSession("loadgen");
  for (int i = 0; i < 8; ++i) {
    (void)session->Submit(QuerySpec::Synthetic(400.0 + 10.0 * i));
  }

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < 10; ++round) {
        auto client = Client::Connect("127.0.0.1", server.port());
        if (!client.ok()) {
          failures.fetch_add(1);
          return;
        }
        if (!(*client)->Ping().ok() || !(*client)->Subscribe().ok()) {
          failures.fetch_add(1);
          return;
        }
        auto sequence = (*client)->WaitForSequence(1, 5.0);
        if (!sequence.ok()) failures.fetch_add(1);
        if (round % 2 == 0) (void)(*client)->Unsubscribe();
        // Destructor closes mid-stream on odd rounds: the server must
        // reap the connection without disturbing others.
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  session->Close();
  server.Stop();
  service.Stop();
}

// ---- TCP end to end ---------------------------------------------------------

class TcpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<PiService>(&catalog_, ManualOptions());
    server_ = std::make_unique<PiServer>(service_.get());
    ASSERT_TRUE(server_->Start().ok());
    auto client = Client::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    client_ = std::move(client).value();
  }

  void TearDown() override {
    client_.reset();
    server_->Stop();
    service_.reset();
  }

  storage::Catalog catalog_;
  std::unique_ptr<PiService> service_;
  std::unique_ptr<PiServer> server_;
  std::unique_ptr<Client> client_;
};

TEST_F(TcpServerTest, PingSubmitProgressCancelRoundTrip) {
  ASSERT_TRUE(client_->Ping().ok());

  auto id = client_->SubmitSynthetic(500.0);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  service_->PublishNow();

  auto progress = client_->Progress(*id);
  ASSERT_TRUE(progress.ok()) << progress.status().ToString();
  EXPECT_EQ(progress->row.id, *id);
  EXPECT_TRUE(progress->row.state == sched::QueryState::kRunning ||
              progress->row.state == sched::QueryState::kQueued);
  EXPECT_DOUBLE_EQ(progress->row.fraction_done, 0.0);

  // Progress on an unknown id: a Status error, connection survives.
  auto missing = client_->Progress(999999);
  EXPECT_FALSE(missing.ok());
  ASSERT_TRUE(client_->Ping().ok());

  ASSERT_TRUE(client_->Cancel(*id).ok());
  service_->PublishNow();
  auto after = client_->Progress(*id);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->row.state, sched::QueryState::kAborted);
}

TEST_F(TcpServerTest, SqlSubmissionPlansServerSide) {
  auto id = client_->SubmitSql(
      "select count(*) from lineitem where l.quantity > 25");
  // The empty test catalog has no lineitem: either parse or plan may
  // reject it, but always as a Status — never a torn connection.
  if (!id.ok()) {
    EXPECT_NE(id.status().code(), StatusCode::kOk);
  }
  ASSERT_TRUE(client_->Ping().ok());

  auto bad = client_->SubmitSql("selekt garbage frum nowhere");
  EXPECT_FALSE(bad.ok());
  ASSERT_TRUE(client_->Ping().ok());
}

TEST_F(TcpServerTest, SubscribePushesFullThenDeltas) {
  auto a = client_->SubmitSynthetic(300.0);
  auto b = client_->SubmitSynthetic(700.0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  service_->PublishNow();
  const std::uint64_t base = service_->snapshot()->sequence;

  ASSERT_TRUE(client_->Subscribe().ok());
  auto seq = client_->WaitForSequence(base, 5.0);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  EXPECT_EQ(client_->view().rows(), 2u);
  EXPECT_EQ(client_->view().fulls_applied(), 1u);

  // Advance simulated time: the subscriber's view converges onto the
  // service's own snapshot through delta frames alone.
  for (int tick = 0; tick < 5; ++tick) {
    ASSERT_TRUE(service_->Advance(0.1).ok());
  }
  const auto latest = service_->snapshot();
  auto final_seq = client_->WaitForSequence(latest->sequence, 5.0);
  ASSERT_TRUE(final_seq.ok()) << final_seq.status().ToString();
  EXPECT_GE(client_->view().deltas_applied(), 1u);

  for (const auto& row : latest->queries) {
    const auto* got = client_->view().Find(row.id);
    ASSERT_NE(got, nullptr);
    EXPECT_DOUBLE_EQ(got->fraction_done, row.fraction_done);
    EXPECT_EQ(got->state, row.state);
  }

  ASSERT_TRUE(client_->Unsubscribe().ok());
}

TEST_F(TcpServerTest, WhatIfAnswersOverTheWire) {
  auto target = client_->SubmitSynthetic(500.0);
  auto rival = client_->SubmitSynthetic(500.0);
  ASSERT_TRUE(target.ok());
  ASSERT_TRUE(rival.ok());
  ASSERT_TRUE(service_->Advance(0.1).ok());

  WhatIfRequest baseline;
  baseline.target = *target;
  auto eta_shared = client_->WhatIf(baseline);
  ASSERT_TRUE(eta_shared.ok()) << eta_shared.status().ToString();

  WhatIfRequest solo;
  solo.target = *target;
  solo.aborted.push_back(*rival);
  auto eta_solo = client_->WhatIf(solo);
  ASSERT_TRUE(eta_solo.ok()) << eta_solo.status().ToString();
  // Killing the rival can only help the target.
  EXPECT_LE(*eta_solo, *eta_shared + 1e-9);

  WhatIfRequest absurd;
  absurd.target = 424242;
  EXPECT_FALSE(client_->WhatIf(absurd).ok());
}

TEST_F(TcpServerTest, GarbageBytesGetErrorFrameThenClose) {
  // Speak raw garbage on a fresh socket.
  auto raw = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.ok());
  std::string garbage(64, '\xFF');
  // Reuse Call's plumbing is impossible (it frames correctly), so poke
  // the view: send via a throwaway Ping first to prove liveness, then
  // the garbage through the public API is not expressible — use a
  // second socket directly instead.
  ASSERT_TRUE((*raw)->Ping().ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_GT(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL), 0);
  // The server answers with one ERROR frame and closes.
  std::string reply;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  Frame decoded;
  std::size_t consumed = 0;
  Status error;
  ASSERT_EQ(TryDecodeFrame(reply.data(), reply.size(), kMaxPayloadBytes,
                           &decoded, &consumed, &error),
            DecodeResult::kFrame);
  const auto* goodbye = std::get_if<ErrorReply>(&decoded.body);
  ASSERT_NE(goodbye, nullptr);
  EXPECT_FALSE(goodbye->ToStatus().ok());
  // The well-behaved connection was untouched.
  EXPECT_TRUE((*raw)->Ping().ok());
}

TEST_F(TcpServerTest, ConnectionMetricsTrackLifecycles) {
  // A round trip guarantees the loop has accepted SetUp's connection.
  ASSERT_TRUE(client_->Ping().ok());
  EXPECT_EQ(server_->metrics()->connections->value(), 1.0);
  {
    auto second = Client::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(second.ok());
    ASSERT_TRUE((*second)->Ping().ok());
    EXPECT_EQ(server_->metrics()->connections->value(), 2.0);
  }
  // Destructor closed the socket; the loop reaps it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server_->metrics()->connections->value() > 1.0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->metrics()->connections->value(), 1.0);
  // One PONG went out (SetUp's client never spoke).
  EXPECT_GE(server_->metrics()->frames_sent->value(), 1u);
  EXPECT_GE(server_->metrics()->bytes_sent->value(), kFrameHeaderBytes);
}

// ---- publish hook -----------------------------------------------------------

TEST(PublishHookTest, HookSeesEveryPublishAndDetachesCleanly) {
  storage::Catalog catalog;
  PiService service(&catalog, ManualOptions());
  std::vector<std::uint64_t> seen;
  service.SetPublishHook([&](const SnapshotPtr& snapshot) {
    seen.push_back(snapshot->sequence);
  });
  auto session = service.OpenSession();
  (void)session->Submit(QuerySpec::Synthetic(100.0));
  service.PublishNow();
  ASSERT_TRUE(service.Advance(0.3).ok());
  ASSERT_FALSE(seen.empty());
  // Strictly increasing by 1: the hook never misses or reorders.
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], seen[i - 1] + 1);
  }
  service.SetPublishHook(nullptr);
  const auto count = seen.size();
  service.PublishNow();
  EXPECT_EQ(seen.size(), count);  // detached
}

// ---- chaos (deterministic fault injection) ----------------------------------

TEST(NetChaosTest, SlowConsumerFaultStreamIsSeedReplayable) {
  // Drive Subscription + injector by hand: with the same seed the
  // kNetSlowConsumer stream must stall the same delivery indices, so
  // the shed lands on the same publish in both runs.
  auto run = [](std::uint64_t seed) {
    fault::FaultInjector injector(seed);
    injector.ArmProbability(fault::kNetSlowConsumer, 0.2);
    service::MetricsRegistry registry;
    NetMetrics metrics(&registry);
    Subscription::Options options;
    options.max_queued_frames = 3;
    Subscription subscription(options);
    int shed_at = -1;
    std::string bytes;
    for (int i = 0; i < 200; ++i) {
      if (injector.ShouldFire(fault::kNetSlowConsumer)) {
        subscription.StallPops(2);
      }
      if (!subscription.Deliver(
              MakeSnapshot(static_cast<std::uint64_t>(i + 1),
                           {Row(1, 0.001 * i)}),
              &metrics)) {
        shed_at = i;
        break;
      }
      (void)subscription.TryPop(&bytes);  // drains unless stalled
    }
    return shed_at;
  };
  const int first = run(0xABCDEFu);
  const int second = run(0xABCDEFu);
  EXPECT_EQ(first, second);
  EXPECT_GE(first, 0);  // the fault actually drove a shed
  // A different seed gives a different (still deterministic) story.
  const int other = run(0x123456u);
  EXPECT_EQ(other, run(0x123456u));
}

TEST(NetChaosTest, ServerSurvivesAllNetFaultsUnderLoad) {
  fault::FaultInjector injector(0xC4A05u);
  injector.ArmProbability(fault::kNetAcceptFail, 0.15);
  injector.ArmProbability(fault::kNetPartialWrite, 0.3, /*value=*/3);
  injector.ArmProbability(fault::kNetSlowConsumer, 0.05);
  injector.ArmProbability(fault::kNetConnDrop, 0.05);

  storage::Catalog catalog;
  PiServiceOptions options = ManualOptions();
  options.fault = &injector;
  PiService service(&catalog, options);
  PiServerOptions server_options;
  server_options.fault = &injector;
  server_options.write_queue_max_frames = 8;
  PiServer server(&service, server_options);
  ASSERT_TRUE(server.Start().ok());

  auto session = service.OpenSession("chaos-load");
  for (int i = 0; i < 6; ++i) {
    (void)session->Submit(QuerySpec::Synthetic(200.0 + 25.0 * i));
  }

  // Clients hammer the server while faults fire; every outcome must be
  // a Status or a closed connection — never a crash or a hang.
  int ok_rounds = 0;
  for (int round = 0; round < 30; ++round) {
    auto client = Client::Connect("127.0.0.1", server.port());
    if (!client.ok()) continue;  // accept faults legitimately refuse
    bool alive = (*client)->Ping().ok();
    if (alive && (*client)->Subscribe().ok()) {
      (void)(*client)->WaitForSequence(service.snapshot()->sequence, 1.0);
    }
    ASSERT_TRUE(service.Advance(0.1).ok());
    if (alive) ++ok_rounds;
  }
  EXPECT_GT(ok_rounds, 0);

  // In-process subscribers take kNetSlowConsumer / kNetConnDrop hits.
  std::vector<std::shared_ptr<Subscription>> subs;
  for (int i = 0; i < 16; ++i) subs.push_back(server.pool()->Subscribe());
  for (int tick = 0; tick < 40; ++tick) {
    ASSERT_TRUE(service.Advance(0.1).ok());
  }

  injector.DisarmAll();
  // Drain back to health: new clients work, estimates stay sane.
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Ping().ok());
  for (const auto& row : service.snapshot()->queries) {
    EXPECT_FALSE(std::isnan(row.fraction_done));
  }
  EXPECT_GT(injector.total_fires(), 0u);

  session->Close();
  server.Stop();
}

}  // namespace
}  // namespace mqpi::net

// Global allocation hooks for the probe above; everything else passes
// straight through to malloc/free (which GCC's new/delete pairing
// warning cannot see through).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  if (mqpi::net::g_alloc_probe_armed.load(std::memory_order_relaxed)) {
    std::size_t seen =
        mqpi::net::g_alloc_probe_largest.load(std::memory_order_relaxed);
    while (size > seen && !mqpi::net::g_alloc_probe_largest
                               .compare_exchange_weak(seen, size)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
