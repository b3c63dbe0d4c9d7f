// Connection: one accepted TCP socket's state, owned entirely by the
// server's epoll loop thread (no internal locking — the loop is the
// only toucher).
//
// Read side: a growing buffer fed by nonblocking reads; complete
// frames are peeled off with wire::TryDecodeFrame and handed to the
// server's dispatcher. A stream-level decode error (bad version,
// oversized length, garbage) earns a final ERROR frame and a close —
// semantic errors inside well-formed frames are answered per-request
// and the connection lives on.
//
// Write side: a bounded queue of encoded frames with a byte budget and
// a partial-write cursor (a frame can take several EPOLLOUT rounds to
// drain — kNetPartialWrite exercises exactly that). Queued frames are
// shared bytes, so a snapshot push is one pointer to the frame every
// subscriber of the stream shares; a flush hands up to IOV_MAX of them
// to one sendmsg. Overflow is the slow-consumer shedding path: the
// queue is dropped, one kResourceExhausted ERROR frame is queued as the
// goodbye, and the connection closes once it drains (or immediately if
// even that can't be written).
//
// Subscription state: a subscribed connection carries only a cursor,
// the last sequence pushed; on each fan-out wakeup the epoll loop asks
// the connection's stream for SnapshotFanout::FrameFor(cursor) (all
// per-subscriber work stays on the loop thread, never the ticker).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/fanout.h"
#include "net/wire.h"
#include "service/session.h"

namespace mqpi::net {

class Connection {
 public:
  struct Options {
    std::size_t max_frame_bytes = std::size_t{1} << 20;
    std::size_t write_queue_max_frames = 256;
    std::size_t write_queue_max_bytes = std::size_t{4} << 20;
  };

  /// Takes ownership of `fd` (closed on destruction).
  Connection(int fd, std::uint64_t id, Options options);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  std::uint64_t id() const { return id_; }

  /// Drains the socket and peels complete frames into `*frames`.
  /// Returns false when the connection should close (EOF, fatal read
  /// error, or an unrecoverable stream decode error — in the latter
  /// case a final ERROR frame has been queued and `closing()` is set
  /// so the loop flushes it first).
  bool ReadFrames(std::vector<Frame>* frames);

  /// Queues an encoded frame. Returns false when this call overflowed
  /// the bounded queue and shed the connection (goodbye ERROR frame
  /// queued, closing() set).
  bool QueueFrame(FrameBytes bytes);

  /// Flushes as much of the write queue as the socket accepts, up to
  /// IOV_MAX frames per sendmsg. `max_write_bytes` > 0 caps this
  /// round's total written bytes (the kNetPartialWrite lever). Returns
  /// false on a fatal write error.
  bool FlushWrites(std::size_t max_write_bytes = 0);

  bool wants_write() const { return !write_queue_.empty(); }
  /// Close once the write queue drains (stream error / shed goodbye).
  bool closing() const { return closing_; }
  void set_closing() { closing_ = true; }
  bool was_shed() const { return shed_; }

  // Per-connection protocol state, managed by the server.
  std::unique_ptr<service::Session> session;
  /// Sharded servers: which shard this connection's session routed to
  /// (global-id translation for replies). 0 on unsharded servers.
  int session_shard = 0;
  bool subscribed = false;
  /// Stream scope: -1 = the merged/global stream, >= 0 = that shard's
  /// own publication (see SubscribeRequest::shard).
  int subscribe_shard = -1;
  /// Chaos (kNetSlowConsumer): skip this many flush opportunities so
  /// the bounded write queue backs up and sheds.
  int stall_flushes = 0;
  /// Sequence of the last snapshot pushed: the FrameFor cursor (0 =
  /// none yet; spurious fan-out wakeups never re-send a sequence).
  std::uint64_t pushed_sequence = 0;

  /// Lifetime transfer stats, maintained here (frames/bytes/high-water
  /// by the queue and flush paths) and by the server (full vs delta
  /// push split). Loop-thread-owned like everything else; the STATS
  /// handler snapshots them into the reply.
  struct TransferStats {
    std::uint64_t frames_sent = 0;  // frames fully drained to the socket
    std::uint64_t bytes_sent = 0;
    std::uint64_t full_frames = 0;   // SNAPSHOT_FULL pushes
    std::uint64_t delta_frames = 0;  // SNAPSHOT_DELTA pushes
    std::uint64_t queue_hw_frames = 0;  // write-queue high-water marks
    std::uint64_t queue_hw_bytes = 0;
  };
  TransferStats stats;

 private:
  const int fd_;
  const std::uint64_t id_;
  const Options options_;

  std::string read_buf_;
  std::size_t read_pos_ = 0;  // consumed prefix of read_buf_

  std::deque<FrameBytes> write_queue_;
  std::size_t queued_bytes_ = 0;
  std::size_t write_offset_ = 0;  // partial-write cursor, front frame
  bool closing_ = false;
  bool shed_ = false;
};

}  // namespace mqpi::net
