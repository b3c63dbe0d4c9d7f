#include "net/conn.h"

#include <errno.h>
#include <limits.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

namespace mqpi::net {
namespace {

// One read chunk; frames larger than this simply take several reads.
constexpr std::size_t kReadChunk = 64 * 1024;
// Queued frames handed to one sendmsg.
constexpr std::size_t kMaxIov = IOV_MAX;

}  // namespace

Connection::Connection(int fd, std::uint64_t id, Options options)
    : fd_(fd), id_(id), options_(options) {}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::ReadFrames(std::vector<Frame>* frames) {
  if (closing_) return true;  // draining goodbye; ignore further input
  for (;;) {
    const std::size_t old_size = read_buf_.size();
    read_buf_.resize(old_size + kReadChunk);
    const ssize_t n = ::recv(fd_, read_buf_.data() + old_size, kReadChunk, 0);
    if (n > 0) {
      read_buf_.resize(old_size + static_cast<std::size_t>(n));
      continue;
    }
    read_buf_.resize(old_size);
    if (n == 0) return false;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;  // fatal read error
  }

  // Peel complete frames off the consumed-prefix view.
  for (;;) {
    Frame frame;
    std::size_t consumed = 0;
    Status error;
    const DecodeResult r = TryDecodeFrame(
        read_buf_.data() + read_pos_, read_buf_.size() - read_pos_,
        options_.max_frame_bytes, &frame, &consumed, &error);
    if (r == DecodeResult::kNeedMore) break;
    if (r == DecodeResult::kError) {
      // Stream-level corruption: the framing is gone, so answer once
      // and close. QueueFrame never sheds here (queue was just active).
      ErrorReply goodbye;
      goodbye.code = error.code();
      goodbye.message = std::string(error.message());
      QueueFrame(ShareFrame(
          EncodeFrame(frame.header.request_id, FrameBody{goodbye})));
      closing_ = true;
      return true;
    }
    read_pos_ += consumed;
    frames->push_back(std::move(frame));
  }

  // Compact once the consumed prefix dominates the buffer.
  if (read_pos_ > 0 &&
      (read_pos_ == read_buf_.size() || read_pos_ >= kReadChunk)) {
    read_buf_.erase(0, read_pos_);
    read_pos_ = 0;
  }
  return true;
}

bool Connection::QueueFrame(FrameBytes bytes) {
  if (closing_) return true;  // already saying goodbye; drop silently
  if (write_queue_.size() >= options_.write_queue_max_frames ||
      queued_bytes_ + bytes->size() > options_.write_queue_max_bytes) {
    // Slow consumer: drop everything pending, say why, close.
    write_queue_.clear();
    write_offset_ = 0;
    ErrorReply goodbye;
    goodbye.code = StatusCode::kResourceExhausted;
    goodbye.message = "write queue overflow: consumer too slow";
    FrameBytes frame = ShareFrame(EncodeFrame(0, FrameBody{goodbye}));
    queued_bytes_ = frame->size();
    write_queue_.push_back(std::move(frame));
    closing_ = true;
    shed_ = true;
    return false;
  }
  queued_bytes_ += bytes->size();
  write_queue_.push_back(std::move(bytes));
  stats.queue_hw_frames =
      std::max<std::uint64_t>(stats.queue_hw_frames, write_queue_.size());
  stats.queue_hw_bytes =
      std::max<std::uint64_t>(stats.queue_hw_bytes, queued_bytes_);
  return true;
}

bool Connection::FlushWrites(std::size_t max_write_bytes) {
  std::size_t budget = max_write_bytes > 0
                           ? max_write_bytes
                           : std::numeric_limits<std::size_t>::max();
  std::array<iovec, kMaxIov> iov;
  while (!write_queue_.empty() && budget > 0) {
    // Gather the queue's head (the front frame from the partial-write
    // cursor) up to the byte budget.
    std::size_t count = 0;
    std::size_t want = 0;
    std::size_t offset = write_offset_;
    for (auto it = write_queue_.begin();
         it != write_queue_.end() && count < kMaxIov && want < budget;
         ++it, offset = 0) {
      const std::string& frame = **it;
      const std::size_t len = std::min(frame.size() - offset, budget - want);
      iov[count++] = {const_cast<char*>(frame.data()) + offset, len};
      want += len;
    }
    msghdr msg{};
    msg.msg_iov = iov.data();
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;  // fatal (EPIPE, ECONNRESET, ...)
    }
    auto sent = static_cast<std::size_t>(n);
    budget -= sent;
    queued_bytes_ -= sent;
    stats.bytes_sent += sent;
    // Advance the cursor over the bytes the socket took.
    while (sent > 0) {
      const std::size_t left = write_queue_.front()->size() - write_offset_;
      if (sent < left) {
        write_offset_ += sent;
        break;
      }
      sent -= left;
      write_queue_.pop_front();
      write_offset_ = 0;
      ++stats.frames_sent;
    }
  }
  return true;
}

}  // namespace mqpi::net
