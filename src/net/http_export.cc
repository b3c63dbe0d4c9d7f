#include "net/http_export.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "net/fanout.h"
#include "obs/profiler.h"
#include "service/pi_service.h"
#include "service/sharded_service.h"

namespace mqpi::net {
namespace {

constexpr std::size_t kReadChunk = 2048;
constexpr int kListenBacklog = 16;

std::string StatusLine(int code) {
  switch (code) {
    case 200: return "HTTP/1.1 200 OK\r\n";
    case 400: return "HTTP/1.1 400 Bad Request\r\n";
    case 404: return "HTTP/1.1 404 Not Found\r\n";
    case 405: return "HTTP/1.1 405 Method Not Allowed\r\n";
    case 503: return "HTTP/1.1 503 Service Unavailable\r\n";
  }
  return "HTTP/1.1 500 Internal Server Error\r\n";
}

std::string MakeResponse(int code, std::string_view content_type,
                         const std::string& body) {
  std::string out = StatusLine(code);
  out += "Content-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

HttpExporter::HttpExporter(service::PiService* service,
                           NetMetrics* net_metrics, Options options)
    : service_(service),
      coordinator_(nullptr),
      net_metrics_(net_metrics),
      options_(std::move(options)) {}

HttpExporter::HttpExporter(service::ShardedPiService* coordinator,
                           NetMetrics* net_metrics, Options options)
    : service_(coordinator->shard_service(0)),
      coordinator_(coordinator),
      net_metrics_(net_metrics),
      options_(std::move(options)) {}

HttpExporter::~HttpExporter() { Stop(); }

Status HttpExporter::Start(int epoll_fd) {
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("http exporter already started");
  }
  epoll_fd_ = epoll_fd;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Status::Internal("http socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad http listen address: " +
                                   options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, kListenBacklog) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(std::string("http bind/listen failed: ") +
                            std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  bound_port_ = ntohs(addr.sin_port);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  return Status::OK();
}

void HttpExporter::Stop() {
  for (auto& [fd, scrape] : scrapes_) {
    if (epoll_fd_ >= 0) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
  }
  scrapes_.clear();
  if (listen_fd_ >= 0) {
    if (epoll_fd_ >= 0) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  epoll_fd_ = -1;
}

bool HttpExporter::Owns(int fd) const {
  return fd == listen_fd_ || scrapes_.count(fd) > 0;
}

void HttpExporter::OnEvent(int fd, std::uint32_t events) {
  if (fd == listen_fd_) {
    AcceptPending();
    return;
  }
  auto it = scrapes_.find(fd);
  if (it == scrapes_.end()) return;
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    CloseScrape(fd);
    return;
  }
  if ((events & EPOLLIN) != 0 && !it->second.responding) {
    HandleReadable(fd, &it->second);
    it = scrapes_.find(fd);  // HandleReadable may close on error
    if (it == scrapes_.end()) return;
  }
  if ((events & EPOLLOUT) != 0 && it->second.responding) {
    FlushScrape(fd, &it->second);
  }
}

void HttpExporter::AcceptPending() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: nothing to do
    }
    if (scrapes_.size() >= kMaxConnections) {
      ::close(fd);
      continue;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    int rc = ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    if (rc == 0) {
      const int pending =
          inject_epoll_add_failures_.load(std::memory_order_relaxed);
      if (pending > 0) {
        inject_epoll_add_failures_.store(pending - 1,
                                         std::memory_order_relaxed);
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
        rc = -1;
      }
    }
    if (rc != 0) {
      // An fd that never made it onto the epoll can never become
      // readable: it would sit in scrapes_ forever, permanently
      // counting toward kMaxConnections until the cap starves
      // /metrics//healthz. Refuse the connection instead of tracking
      // an unpollable socket. Count before close so a peer observing
      // the resulting EOF sees the error already tallied.
      ++requests_error_;
      ::close(fd);
      continue;
    }
    scrapes_.emplace(fd, Scrape{});
  }
}

void HttpExporter::HandleReadable(int fd, Scrape* scrape) {
  for (;;) {
    char buf[kReadChunk];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      scrape->in.append(buf, static_cast<std::size_t>(n));
      if (scrape->in.size() > kMaxRequestBytes) {
        scrape->out = MakeResponse(400, "text/plain", "request too large\n");
        ++requests_error_;
        scrape->responding = true;
        FlushScrape(fd, scrape);
        return;
      }
      continue;
    }
    if (n == 0) {
      CloseScrape(fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseScrape(fd);
    return;
  }

  // One request per connection: wait for the header terminator, then
  // parse only the request line.
  if (scrape->in.find("\r\n\r\n") == std::string::npos &&
      scrape->in.find("\n\n") == std::string::npos) {
    return;  // headers still incomplete
  }
  const std::size_t line_end = scrape->in.find_first_of("\r\n");
  const std::string line = scrape->in.substr(0, line_end);
  const std::size_t method_end = line.find(' ');
  const std::size_t path_end =
      method_end == std::string::npos ? std::string::npos
                                      : line.find(' ', method_end + 1);
  if (method_end == std::string::npos || path_end == std::string::npos) {
    scrape->out = MakeResponse(400, "text/plain", "malformed request line\n");
    ++requests_error_;
  } else {
    const std::string method = line.substr(0, method_end);
    std::string path = line.substr(method_end + 1, path_end - method_end - 1);
    const std::size_t query = path.find('?');
    if (query != std::string::npos) path.resize(query);
    scrape->out = RespondTo(method, path);
  }
  scrape->responding = true;
  FlushScrape(fd, scrape);
}

std::string HttpExporter::RespondTo(const std::string& method,
                                    const std::string& path) {
  if (method != "GET") {
    ++requests_error_;
    return MakeResponse(405, "text/plain", "only GET is served here\n");
  }
  if (path == "/metrics") {
    ++requests_ok_;
    return MakeResponse(200, "text/plain; version=0.0.4", MetricsBody());
  }
  if (path == "/healthz") {
    bool healthy = true;
    const std::string body = HealthBody(&healthy);
    ++requests_ok_;
    return MakeResponse(healthy ? 200 : 503, "text/plain", body);
  }
  if (path == "/statusz") {
    ++requests_ok_;
    return MakeResponse(200, "text/plain", StatusBody());
  }
  ++requests_error_;
  return MakeResponse(404, "text/plain",
                      "try /metrics, /healthz, or /statusz\n");
}

std::string HttpExporter::MetricsBody() const {
  if (coordinator_ == nullptr) {
    return service_->metrics()->PrometheusDump();
  }
  // Coordinator series first (coord.* plus the server's net.*), then
  // every shard's registry with a shard="i" label distinguishing the
  // otherwise-identical service.* names.
  std::string body = coordinator_->metrics()->PrometheusDump();
  for (int i = 0; i < coordinator_->num_shards(); ++i) {
    body += coordinator_->shard_service(i)->metrics()->PrometheusDump(
        {{"shard", std::to_string(i)}});
  }
  return body;
}

std::string HttpExporter::HealthBody(bool* healthy) const {
  if (coordinator_ != nullptr) {
    const service::ShardedPiService::GlobalLiveness fleet =
        coordinator_->CheckLiveness();
    *healthy = !fleet.any_stalled;
    std::string body = *healthy ? "ok\n" : "stalled\n";
    body += "shards " + std::to_string(coordinator_->num_shards()) + "\n";
    body += "busy_shards " + std::to_string(fleet.busy_shards) + "\n";
    for (std::size_t i = 0; i < fleet.shards.size(); ++i) {
      const service::PiService::Liveness& live = fleet.shards[i];
      body += "shard " + std::to_string(i) + " " +
              (live.stalled() ? "stalled" : "ok") + " uptime_quanta " +
              std::to_string(live.uptime_quanta) + " age_quanta " +
              std::to_string(live.age_quanta) + " watchdog_restarts " +
              std::to_string(coordinator_->shard_service(static_cast<int>(i))
                                 ->metrics()
                                 ->counter("service.watchdog_restarts")
                                 ->value()) +
              "\n";
    }
    if (net_metrics_ != nullptr) {
      body += "slow_consumers_shed " +
              std::to_string(net_metrics_->slow_consumers_shed->value()) +
              "\n";
    }
    return body;
  }
  const service::PiService::Liveness live = service_->CheckLiveness();
  *healthy = !live.stalled();
  std::string body = *healthy ? "ok\n" : "stalled\n";
  body += "busy " + std::to_string(live.busy ? 1 : 0) + "\n";
  body += "uptime_quanta " + std::to_string(live.uptime_quanta) + "\n";
  body += "since_publish_s " + std::to_string(live.since_publish_s) + "\n";
  body += "age_quanta " + std::to_string(live.age_quanta) + "\n";
  body +=
      "stall_threshold_s " + std::to_string(live.stall_threshold_s) + "\n";
  body += "watchdog_restarts " +
          std::to_string(
              service_->metrics()->counter("service.watchdog_restarts")
                  ->value()) +
          "\n";
  if (net_metrics_ != nullptr) {
    body += "slow_consumers_shed " +
            std::to_string(net_metrics_->slow_consumers_shed->value()) + "\n";
  }
  return body;
}

std::string HttpExporter::StatusBody() const {
  bool healthy = true;
  std::string body = "== health ==\n";
  body += HealthBody(&healthy);
  if (net_metrics_ != nullptr) {
    const auto count = [](const service::Gauge* gauge) {
      return std::to_string(static_cast<std::int64_t>(gauge->value()));
    };
    body += "connections " + count(net_metrics_->connections) + "\n";
    body += "subscriptions " + count(net_metrics_->subscriptions) + "\n";
    body += "http_requests_ok " + std::to_string(requests_ok()) + "\n";
    body += "http_requests_error " + std::to_string(requests_error()) + "\n";
  }
  // The profiler is process-wide (obs::GlobalProfiler is a singleton):
  // one table covers every shard's ticker, keyed by site name.
  body += "\n== profiler ==\n";
  body += obs::GlobalProfiler()->Summary();
  if (coordinator_ != nullptr) {
    for (int i = 0; i < coordinator_->num_shards(); ++i) {
      body += "\n== flight recorder (shard " + std::to_string(i) + ") ==\n";
      body += coordinator_->shard_service(i)->flight_recorder()->Summary();
    }
  } else {
    body += "\n== flight recorder ==\n";
    body += service_->flight_recorder()->Summary();
  }
  return body;
}

void HttpExporter::FlushScrape(int fd, Scrape* scrape) {
  while (scrape->sent < scrape->out.size()) {
    const ssize_t n =
        ::send(fd, scrape->out.data() + scrape->sent,
               scrape->out.size() - scrape->sent, MSG_NOSIGNAL);
    if (n >= 0) {
      scrape->sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      epoll_event ev{};
      ev.events = EPOLLOUT;
      ev.data.fd = fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
      return;  // finish on the next EPOLLOUT round
    }
    if (errno == EINTR) continue;
    break;  // fatal write error: just close
  }
  CloseScrape(fd);
}

void HttpExporter::CloseScrape(int fd) {
  if (scrapes_.erase(fd) == 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
}

}  // namespace mqpi::net
