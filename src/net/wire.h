// Wire protocol: the compact length-prefixed binary framing the PI
// server speaks over TCP (and over the in-process loopback transport
// the fan-out bench uses).
//
// Every frame is a fixed 16-byte header followed by a type-specific
// payload, all little-endian with explicit byte packing (the format is
// identical on every host):
//
//   offset  size  field
//        0     4  payload length (bytes after the header)
//        4     1  protocol version (kWireVersion)
//        5     1  frame type (FrameType)
//        6     2  flags (reserved, must be 0)
//        8     8  request id — client-chosen correlation id, echoed
//                 verbatim in the matching reply / error frame; 0 on
//                 server-push frames (snapshots)
//
// Request/reply pairs: SUBMIT -> SUBMIT_REPLY, CANCEL -> CANCEL_REPLY,
// PROGRESS -> PROGRESS_REPLY, SUBSCRIBE -> SUBSCRIBE_REPLY,
// UNSUBSCRIBE -> UNSUBSCRIBE_REPLY, WHATIF -> WHATIF_REPLY, PING ->
// PONG, STATS -> STATS_REPLY. Any request can instead be answered by an ERROR frame carrying
// the Status code + message (Status-coded, never a torn connection for
// a semantic error). Subscribed connections additionally receive
// unsolicited SNAPSHOT_FULL / SNAPSHOT_DELTA pushes; the delta
// encoding itself lives in net/fanout.h, this header only defines the
// byte format.
//
// Robustness contract (enforced by the property tests): every encoded
// frame decodes back byte-identically; truncated input reports "need
// more bytes"; a bad version, nonzero flags, an oversized length, or a
// payload that does not parse reports a Status error — never a crash,
// never an over-read.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/priority.h"
#include "common/query_label.h"
#include "common/status.h"
#include "common/units.h"
#include "service/snapshot.h"

namespace mqpi::net {

inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Hard ceiling on payload size a peer will accept; servers may
/// configure a lower bound. Protects against hostile/corrupt lengths.
inline constexpr std::size_t kMaxPayloadBytes = std::size_t{64} << 20;
/// Per-string ceiling inside payloads (labels, SQL text, messages).
inline constexpr std::size_t kMaxStringBytes = std::size_t{1} << 20;
/// Per-snapshot row-count ceiling (sanity bound on decode).
inline constexpr std::uint32_t kMaxSnapshotRows = 4u << 20;
/// Shard-row ceiling: the global id space gives shards 16 bits.
inline constexpr std::uint32_t kMaxShardRows = 1u << 16;

enum class FrameType : std::uint8_t {
  // client -> server
  kSubmit = 1,
  kCancel = 2,
  kProgress = 3,
  kSubscribe = 4,
  kUnsubscribe = 5,
  kWhatIf = 6,
  kPing = 7,
  kStats = 8,
  // server -> client
  kSubmitReply = 64,
  kCancelReply = 65,
  kProgressReply = 66,
  kSubscribeReply = 67,
  kUnsubscribeReply = 68,
  kWhatIfReply = 69,
  kPong = 70,
  kSnapshotFull = 71,
  kSnapshotDelta = 72,
  kError = 73,
  kStatsReply = 74,
};

/// Stable name for logs/tests ("SUBMIT", "SNAPSHOT_DELTA", ...).
std::string_view FrameTypeName(FrameType type);

struct FrameHeader {
  std::uint32_t payload_len = 0;
  std::uint8_t version = kWireVersion;
  FrameType type = FrameType::kPing;
  std::uint16_t flags = 0;
  std::uint64_t request_id = 0;
};

// ---- payloads ---------------------------------------------------------------

/// SUBMIT: either SQL text the server plans, or a cost-only synthetic
/// query (the load-generator path).
struct SubmitRequest {
  Priority priority = Priority::kNormal;
  /// True: `sql` is parsed server-side. False: a synthetic query of
  /// `synthetic_cost` work units labeled `label`.
  bool is_sql = true;
  std::string sql;
  double synthetic_cost = 0.0;
  std::string label;
};
struct SubmitReply {
  QueryId id = kInvalidQueryId;
};

struct CancelRequest {
  QueryId id = kInvalidQueryId;
};
struct CancelReply {};

struct ProgressRequest {
  QueryId id = kInvalidQueryId;
};
/// One row out of the snapshot the server currently holds.
struct ProgressReply {
  std::uint64_t sequence = 0;
  SimTime sim_time = 0.0;
  service::QueryProgress row;
};

struct SubscribeRequest {
  /// Stream scope on a sharded server: -1 subscribes to the merged
  /// global stream (the only stream a single-shard server has); 0..N-1
  /// subscribes to that shard's own publication — per-shard sequences,
  /// shard-local ids, no merge latency. Out-of-range shards are
  /// rejected with an ERROR frame. Legacy peers that send an empty
  /// payload decode as -1.
  std::int32_t shard = -1;
};
struct SubscribeReply {
  /// Snapshot sequence current at subscription time; the first push
  /// the subscriber sees is a SNAPSHOT_FULL at or after it.
  std::uint64_t sequence = 0;
};
struct UnsubscribeRequest {};
struct UnsubscribeReply {};

/// WHATIF: §3 workload-management question evaluated against the live
/// forecast — remaining time of `target` with `blocked`/`aborted`
/// removed from the modelled load and `reweighted` weights applied.
struct WhatIfRequest {
  QueryId target = kInvalidQueryId;
  std::vector<QueryId> blocked;
  std::vector<QueryId> aborted;
  std::vector<std::pair<QueryId, double>> reweighted;
};
struct WhatIfReply {
  SimTime eta = kUnknown;
};

struct PingRequest {
  std::uint64_t nonce = 0;
};
struct PongReply {
  std::uint64_t nonce = 0;
};

/// STATS: remote server-health probe (pi_top's footer). Server-wide
/// tallies come from the service's liveness signal and the fan-out's
/// NetMetrics; the conn_* fields describe the asking connection and
/// are overlaid by the TCP server (zero over in-process transports).
struct StatsRequest {};
/// Per-shard health row inside a STATS reply; present only when the
/// server fronts a sharded coordinator (pi_top's per-shard footer).
struct ShardStatsRow {
  std::int32_t shard = 0;
  std::uint64_t uptime_quanta = 0;
  double ticker_age_quanta = 0.0;
  std::uint64_t snapshots_published = 0;
  std::uint64_t watchdog_restarts = 0;
  bool degraded = false;
  std::int32_t num_running = 0;
  std::int32_t num_queued = 0;
};
struct StatsReply {
  // --- service plane ---
  std::uint64_t uptime_quanta = 0;
  /// Wall time since the last publication, in expected tick periods.
  double ticker_age_quanta = 0.0;
  std::uint64_t snapshots_published = 0;
  std::uint64_t watchdog_restarts = 0;
  /// Latest snapshot's degraded (staleness) flag.
  bool degraded = false;
  // --- network plane (server-wide) ---
  std::uint64_t connections = 0;
  std::uint64_t subscriptions = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t consumers_shed = 0;
  // --- the asking connection ---
  std::uint64_t conn_frames_sent = 0;
  std::uint64_t conn_bytes_sent = 0;
  std::uint64_t conn_full_frames = 0;
  std::uint64_t conn_delta_frames = 0;
  /// Write-queue high-water marks over the connection's lifetime.
  std::uint64_t conn_queue_hw_frames = 0;
  std::uint64_t conn_queue_hw_bytes = 0;
  // --- shard plane (empty on unsharded servers and legacy peers) ---
  std::vector<ShardStatsRow> shards;
};

/// Status-coded failure for the request whose id the header echoes.
struct ErrorReply {
  StatusCode code = StatusCode::kInternal;
  std::string message;

  Status ToStatus() const;
  static ErrorReply From(const Status& status);
};

/// SNAPSHOT_FULL / SNAPSHOT_DELTA: the push payload. A full frame
/// carries every row; a delta carries only rows that changed since
/// `base_sequence` (the last frame this subscriber was sent) — the
/// subscriber merges by query id — plus the ids of rows that left the
/// snapshot since then (terminal queries past the retention window).
struct SnapshotFrame {
  std::uint64_t sequence = 0;
  /// Delta only: the sequence this delta patches (0 in full frames).
  std::uint64_t base_sequence = 0;
  SimTime sim_time = 0.0;
  std::int32_t num_running = 0;
  std::int32_t num_queued = 0;
  std::int32_t num_blocked = 0;
  double measured_rate = 0.0;
  SimTime quiescent_eta = kUnknown;
  std::int32_t age_quanta = 0;
  bool degraded = false;
  /// Total rows in the snapshot this frame describes (a delta's
  /// `rows` is a subset; this is the full cardinality, for sanity
  /// checks on apply).
  std::uint32_t total_rows = 0;
  std::vector<service::QueryProgress> rows;
  /// Per-shard load gauges carried by merged (coordinator) snapshots;
  /// empty on single-shard streams. Always sent in full (N entries,
  /// tiny next to the row set), even in delta frames.
  std::vector<service::ShardLoad> shard_loads;
  /// Delta only: ids the subscriber must erase, ascending. Encoded
  /// after `shard_loads` and only when non-empty; a frame that ends
  /// before it (every frame from a legacy peer) removes nothing.
  std::vector<QueryId> removed;
};

using FrameBody =
    std::variant<SubmitRequest, SubmitReply, CancelRequest, CancelReply,
                 ProgressRequest, ProgressReply, SubscribeRequest,
                 SubscribeReply, UnsubscribeRequest, UnsubscribeReply,
                 WhatIfRequest, WhatIfReply, PingRequest, PongReply,
                 StatsRequest, StatsReply, ErrorReply, SnapshotFrame>;

struct Frame {
  FrameHeader header;
  FrameBody body;
};

// ---- encode -----------------------------------------------------------------

/// Bounds-checked little-endian writer. Append-only; the buffer is the
/// encoded bytes.
class WireWriter {
 public:
  void U8(std::uint8_t v);
  void U16(std::uint16_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void I32(std::int32_t v);
  /// IEEE-754 bit pattern, little-endian — NaN/inf payloads survive
  /// byte-identically.
  void F64(double v);
  /// u32 length + raw bytes.
  void Str(std::string_view s);

  const std::string& bytes() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked reader over one payload. Every getter returns false
/// (and poisons the reader) on under-run; decode functions translate
/// that into a Status.
class WireReader {
 public:
  WireReader(const char* data, std::size_t size) : data_(data), size_(size) {}

  bool U8(std::uint8_t* v);
  bool U16(std::uint16_t* v);
  bool U32(std::uint32_t* v);
  bool U64(std::uint64_t* v);
  bool I32(std::int32_t* v);
  bool F64(double* v);
  bool Str(std::string* s);
  /// A label decodes straight into its own block (one allocation, no
  /// intermediate std::string).
  bool Str(QueryLabel* s);

  bool ok() const { return ok_; }
  std::size_t remaining() const { return size_ - pos_; }
  /// True when the whole payload was consumed without under-run.
  bool Exhausted() const { return ok_ && pos_ == size_; }

 private:
  bool Take(void* out, std::size_t n);
  /// The next length-prefixed string, viewed in the payload.
  bool StrView(std::string_view* s);

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Encodes a complete frame (header + payload) for `body`; the frame
/// type is derived from the payload alternative, `full` selects
/// SNAPSHOT_FULL vs SNAPSHOT_DELTA for SnapshotFrame bodies.
std::string EncodeFrame(std::uint64_t request_id, const FrameBody& body,
                        bool full_snapshot = true);
std::string EncodeFrame(const Frame& frame);

// ---- decode -----------------------------------------------------------------

enum class DecodeResult {
  /// `data` holds a prefix of a valid frame; read more bytes.
  kNeedMore,
  /// One frame decoded; `*consumed` bytes eaten from the front.
  kFrame,
  /// The stream is unrecoverable (bad version/flags/length/payload);
  /// close the connection with `*error`.
  kError,
};

/// Incremental stream decode: inspects the front of [data, data+size).
/// `max_payload` caps accepted payload lengths (<= kMaxPayloadBytes).
DecodeResult TryDecodeFrame(const char* data, std::size_t size,
                            std::size_t max_payload, Frame* out,
                            std::size_t* consumed, Status* error);

// Snapshot row helpers shared by the fan-out encoder (fanout.cc) and
// the full-frame encode path.
void EncodeSnapshotRow(WireWriter* w, const service::QueryProgress& row);
bool DecodeSnapshotRow(WireReader* r, service::QueryProgress* row);

/// Payload byte size of one encoded row (for write-budget accounting).
std::size_t EncodedRowBytes(const service::QueryProgress& row);

}  // namespace mqpi::net
