#include "net/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <utility>

namespace mqpi::net {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---- SnapshotView -----------------------------------------------------------

Status SnapshotView::Apply(const SnapshotFrame& frame, bool is_full) {
  if (is_full) {
    rows_.clear();
    ++fulls_applied_;
  } else {
    if (frame.base_sequence != sequence_) {
      return Status::FailedPrecondition(
          "snapshot stream gap: view holds sequence " +
          std::to_string(sequence_) + " but the delta patches base " +
          std::to_string(frame.base_sequence) + "; resubscribe");
    }
    ++deltas_applied_;
  }
  for (QueryId id : frame.removed) rows_.erase(id);
  for (const auto& row : frame.rows) {
    auto [it, inserted] = rows_.try_emplace(row.id, row);
    if (inserted) continue;
    // A label is fixed at submit, so the row keeps the block it already
    // holds and the frame's copy dies with the frame: delta rows cost
    // the view no label memory.
    QueryLabel held = std::move(it->second.label);
    it->second = row;
    if (held == row.label) it->second.label = std::move(held);
  }
  sequence_ = frame.sequence;
  sim_time_ = frame.sim_time;
  num_running_ = frame.num_running;
  num_queued_ = frame.num_queued;
  num_blocked_ = frame.num_blocked;
  degraded_ = frame.degraded;
  shard_loads_ = frame.shard_loads;
  if (rows_.size() != frame.total_rows) {
    return Status::Internal("snapshot view holds " +
                            std::to_string(rows_.size()) + " rows, frame " +
                            std::to_string(frame.sequence) + " declares " +
                            std::to_string(frame.total_rows));
  }
  return Status::OK();
}

void SnapshotView::Reset() {
  rows_.clear();
  sequence_ = 0;
  sim_time_ = 0.0;
  num_running_ = 0;
  num_queued_ = 0;
  num_blocked_ = 0;
  degraded_ = false;
  shard_loads_.clear();
}

const service::QueryProgress* SnapshotView::Find(QueryId id) const {
  const auto it = rows_.find(id);
  return it == rows_.end() ? nullptr : &it->second;
}

std::vector<service::QueryProgress> SnapshotView::Rows() const {
  std::vector<service::QueryProgress> out;
  out.reserve(rows_.size());
  for (const auto& [id, row] : rows_) out.push_back(row);
  return out;
}

// ---- Client -----------------------------------------------------------------

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                std::uint16_t port,
                                                double timeout_s) {
  // Non-blocking connect + poll so `timeout_s` bounds the handshake
  // itself: a black-holed host (SYN into the void) fails on schedule
  // instead of hanging for the kernel's multi-minute default.
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return Status::Internal(std::string("connect failed: ") +
                              std::strerror(errno));
    }
    const double deadline = NowSeconds() + timeout_s;
    for (;;) {
      const double remaining = deadline - NowSeconds();
      if (remaining <= 0) {
        ::close(fd);
        return Status::Internal("connect to " + host + ":" +
                                std::to_string(port) + " timed out after " +
                                std::to_string(timeout_s) + "s");
      }
      pollfd pfd{fd, POLLOUT, 0};
      const int pr =
          ::poll(&pfd, 1, static_cast<int>(remaining * 1000) + 1);
      if (pr < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return Status::Internal("poll failed during connect");
      }
      if (pr > 0) break;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0 ||
        so_error != 0) {
      ::close(fd);
      return Status::Internal(
          std::string("connect failed: ") +
          std::strerror(so_error != 0 ? so_error : errno));
    }
  }
  // Connected: back to blocking for the simple request/reply paths.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) < 0) {
    ::close(fd);
    return Status::Internal("fcntl failed clearing O_NONBLOCK");
  }
  return std::unique_ptr<Client>(new Client(fd));
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Status Client::WriteAll(const std::string& bytes, double timeout_s) {
  (void)timeout_s;  // blocking socket; requests are small
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("send failed: ") +
                              std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

Result<Frame> Client::ReadFrame(double timeout_s, bool* timed_out) {
  if (timed_out != nullptr) *timed_out = false;
  const double deadline = NowSeconds() + timeout_s;
  for (;;) {
    // Try to peel a frame off what we already buffered.
    Frame frame;
    std::size_t consumed = 0;
    Status error;
    const DecodeResult r =
        TryDecodeFrame(inbuf_.data() + inpos_, inbuf_.size() - inpos_,
                       kMaxPayloadBytes, &frame, &consumed, &error);
    if (r == DecodeResult::kError) return error;
    if (r == DecodeResult::kFrame) {
      inpos_ += consumed;
      if (inpos_ == inbuf_.size()) {
        inbuf_.clear();
        inpos_ = 0;
      }
      return frame;
    }

    const double remaining = deadline - NowSeconds();
    if (remaining <= 0) {
      if (timed_out != nullptr) *timed_out = true;
      return Status::Internal("timed out waiting for a frame");
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(remaining * 1000) + 1);
    if (pr < 0 && errno != EINTR) {
      return Status::Internal("poll failed");
    }
    if (pr <= 0) continue;

    char chunk[64 * 1024];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) return Status::Internal("server closed the connection");
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return Status::Internal(std::string("recv failed: ") +
                              std::strerror(errno));
    }
    inbuf_.append(chunk, static_cast<std::size_t>(n));
  }
}

Status Client::ApplyPush(const Frame& frame) {
  const auto* snapshot = std::get_if<SnapshotFrame>(&frame.body);
  if (snapshot == nullptr) return Status::OK();
  return view_.Apply(*snapshot,
                     frame.header.type == FrameType::kSnapshotFull);
}

Result<FrameBody> Client::Call(const FrameBody& request, double timeout_s) {
  const std::uint64_t id = next_request_id_++;
  MQPI_RETURN_NOT_OK(WriteAll(EncodeFrame(id, request), timeout_s));
  const double deadline = NowSeconds() + timeout_s;
  for (;;) {
    auto frame = ReadFrame(deadline - NowSeconds());
    if (!frame.ok()) return frame.status();
    if (std::holds_alternative<SnapshotFrame>(frame->body)) {
      // Unsolicited push interleaved with the reply; fold it in.
      MQPI_RETURN_NOT_OK(ApplyPush(*frame));
      continue;
    }
    if (frame->header.request_id != id) continue;  // stale reply
    if (const auto* error = std::get_if<ErrorReply>(&frame->body)) {
      return error->ToStatus();
    }
    return std::move(frame->body);
  }
}

Result<bool> Client::PumpOne(double timeout_s) {
  const double deadline = NowSeconds() + timeout_s;
  for (;;) {
    bool timed_out = false;
    auto frame = ReadFrame(deadline - NowSeconds(), &timed_out);
    if (!frame.ok()) {
      if (timed_out) return false;
      return frame.status();
    }
    if (const auto* error = std::get_if<ErrorReply>(&frame->body)) {
      // A push-channel ERROR is the server saying goodbye (shed or
      // drain) — surface it; the stream is over.
      const Status status = error->ToStatus();
      if (status.ok()) return Status::Internal("ERROR frame with OK code");
      return status;
    }
    if (std::holds_alternative<SnapshotFrame>(frame->body)) {
      MQPI_RETURN_NOT_OK(ApplyPush(*frame));
      return true;
    }
    // Stale replies etc.: skip and keep reading until the deadline.
  }
}

Result<std::uint64_t> Client::WaitForSequence(std::uint64_t min_sequence,
                                              double timeout_s) {
  const double deadline = NowSeconds() + timeout_s;
  while (view_.sequence() < min_sequence) {
    const double remaining = deadline - NowSeconds();
    if (remaining <= 0) {
      return Status::Internal("timed out at sequence " +
                              std::to_string(view_.sequence()));
    }
    auto frame = ReadFrame(remaining);
    if (!frame.ok()) return frame.status();
    if (const auto* error = std::get_if<ErrorReply>(&frame->body)) {
      return error->ToStatus();  // e.g. the shed goodbye
    }
    MQPI_RETURN_NOT_OK(ApplyPush(*frame));
  }
  return view_.sequence();
}

Result<QueryId> Client::SubmitSql(const std::string& sql, Priority priority) {
  SubmitRequest request;
  request.is_sql = true;
  request.sql = sql;
  request.priority = priority;
  auto reply = Call(FrameBody{std::move(request)});
  if (!reply.ok()) return reply.status();
  if (const auto* body = std::get_if<SubmitReply>(&*reply)) return body->id;
  return Status::Internal("unexpected reply type to SUBMIT");
}

Result<QueryId> Client::SubmitSynthetic(double cost, Priority priority,
                                        const std::string& label) {
  SubmitRequest request;
  request.is_sql = false;
  request.synthetic_cost = cost;
  request.label = label;
  request.priority = priority;
  auto reply = Call(FrameBody{std::move(request)});
  if (!reply.ok()) return reply.status();
  if (const auto* body = std::get_if<SubmitReply>(&*reply)) return body->id;
  return Status::Internal("unexpected reply type to SUBMIT");
}

Status Client::Cancel(QueryId id) {
  auto reply = Call(FrameBody{CancelRequest{id}});
  return reply.status();
}

Result<ProgressReply> Client::Progress(QueryId id) {
  auto reply = Call(FrameBody{ProgressRequest{id}});
  if (!reply.ok()) return reply.status();
  if (auto* body = std::get_if<ProgressReply>(&*reply)) {
    return std::move(*body);
  }
  return Status::Internal("unexpected reply type to PROGRESS");
}

Result<SimTime> Client::WhatIf(const WhatIfRequest& scenario) {
  auto reply = Call(FrameBody{scenario});
  if (!reply.ok()) return reply.status();
  if (const auto* body = std::get_if<WhatIfReply>(&*reply)) return body->eta;
  return Status::Internal("unexpected reply type to WHATIF");
}

Status Client::Ping() {
  auto reply = Call(FrameBody{PingRequest{0x50494e47u}});
  if (!reply.ok()) return reply.status();
  if (const auto* body = std::get_if<PongReply>(&*reply)) {
    if (body->nonce != 0x50494e47u) {
      return Status::Internal("pong nonce mismatch");
    }
    return Status::OK();
  }
  return Status::Internal("unexpected reply type to PING");
}

Result<StatsReply> Client::Stats() {
  auto reply = Call(FrameBody{StatsRequest{}});
  if (!reply.ok()) return reply.status();
  if (auto* body = std::get_if<StatsReply>(&*reply)) {
    return std::move(*body);
  }
  return Status::Internal("unexpected reply type to STATS");
}

Status Client::Subscribe(int shard) {
  SubscribeRequest request;
  request.shard = shard;
  return Call(FrameBody{request}).status();
}

Status Client::Unsubscribe() {
  return Call(FrameBody{UnsubscribeRequest{}}).status();
}

// ---- LocalSubscriber --------------------------------------------------------

int LocalSubscriber::Pump(std::vector<std::uint64_t>* sequences,
                          bool* shed_out) {
  int applied = 0;
  std::string bytes;
  while (subscription_->TryPop(&bytes)) {
    Frame frame;
    std::size_t consumed = 0;
    Status error;
    const DecodeResult r =
        TryDecodeFrame(bytes.data(), bytes.size(), kMaxPayloadBytes, &frame,
                       &consumed, &error);
    if (r != DecodeResult::kFrame) continue;  // never expected; skip
    if (std::holds_alternative<ErrorReply>(frame.body)) {
      saw_shed_ = true;
      continue;
    }
    if (const auto* snapshot = std::get_if<SnapshotFrame>(&frame.body)) {
      if (view_
              .Apply(*snapshot,
                     frame.header.type == FrameType::kSnapshotFull)
              .ok()) {
        ++applied;
        if (sequences != nullptr) sequences->push_back(snapshot->sequence);
      }
    }
  }
  if (shed_out != nullptr) *shed_out = saw_shed_;
  return applied;
}

}  // namespace mqpi::net
