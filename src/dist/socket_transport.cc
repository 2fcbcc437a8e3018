#include "dist/socket_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/codec.h"
#include "net/frame.h"

namespace hdd {

namespace {

Status SendAll(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

/// Reads until the decoder yields one frame. IoError on EOF/corruption.
Status ReadFrame(int fd, FrameDecoder& decoder, std::string* payload) {
  for (;;) {
    switch (decoder.Poll(payload)) {
      case FrameDecoder::Next::kFrame:
        return Status::OK();
      case FrameDecoder::Next::kCorrupt:
        return Status::IoError("corrupt frame");
      case FrameDecoder::Next::kNeedMore:
        break;
    }
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) return Status::IoError("peer closed");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv: ") + std::strerror(errno));
    }
    decoder.Feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

std::uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

SocketTransport::SocketTransport(int node_id, std::vector<SocketPeer> peers,
                                 MetricsRegistry& metrics)
    : node_id_(node_id),
      peers_(std::move(peers)),
      metrics_(metrics),
      idle_(peers_.size()) {}

SocketTransport::~SocketTransport() { Stop(); }

void SocketTransport::CloseFd(int& fd) {
  if (fd < 0) return;
  ::close(fd);
  fd = -1;
  open_fds_.fetch_sub(1, std::memory_order_relaxed);
}

Histogram* SocketTransport::TypeHistogram(TypeHistograms& slots,
                                          const char* prefix,
                                          DistMsgType type) {
  const auto i = static_cast<std::size_t>(type);
  if (i >= slots.size()) return nullptr;  // a type byte off the wire
  Histogram* histogram = slots[i].load(std::memory_order_acquire);
  if (histogram == nullptr) {
    // Racing first users get the same histogram from the registry.
    histogram =
        &metrics_.GetHistogram(std::string(prefix) + DistMsgTypeName(type));
    slots[i].store(histogram, std::memory_order_release);
  }
  return histogram;
}

Status SocketTransport::Start(DistHandler handler) {
  handler_ = std::move(handler);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  open_fds_.fetch_add(1, std::memory_order_relaxed);
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(peers_[static_cast<std::size_t>(node_id_)].port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status =
        Status::IoError(std::string("bind: ") + std::strerror(errno));
    CloseFd(listen_fd_);
    return status;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  bound_port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 16) < 0) {
    const Status status =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    CloseFd(listen_fd_);
    return status;
  }
  const int listen_fd = listen_fd_;
  acceptor_ = std::thread([this, listen_fd] { AcceptLoop(listen_fd); });
  return Status::OK();
}

void SocketTransport::AcceptLoop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by Stop()
    }
    open_fds_.fetch_add(1, std::memory_order_relaxed);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> guard(server_mu_);
    if (stopped_.load()) {
      int closing = fd;
      CloseFd(closing);
      return;
    }
    server_fds_.push_back(fd);
    server_threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void SocketTransport::ServeConnection(int fd) {
  FrameDecoder decoder;
  std::string payload;
  while (ReadFrame(fd, decoder, &payload).ok()) {
    std::string_view in(payload);
    std::uint64_t rpc_id = 0;
    std::uint32_t from = 0;
    if (!GetU64(&in, &rpc_id) || !GetU32(&in, &from)) {
      break;  // protocol violation: drop the connection
    }
    const auto start = std::chrono::steady_clock::now();
    Result<std::string> result =
        handler_ ? handler_(static_cast<int>(from), std::string(in))
                 : Result<std::string>(
                       Status::Internal("dist: no handler registered"));
    if (Histogram* histogram = TypeHistogram(handle_us_, "dist_handle_us_",
                                             PeekDistMsgType(in))) {
      histogram->Record(MicrosSince(start));
    }
    std::string reply;
    PutU64(&reply, rpc_id);
    reply += EncodeDistResponse(result);
    std::string framed;
    AppendNetFrame(&framed, reply);
    if (!SendAll(fd, framed).ok()) break;
  }
  // The fd is closed by Stop() (which owns server_fds_); shutting down
  // here would race the final response of a concurrent sender.
}

Result<int> SocketTransport::Checkout(int to, bool fresh) {
  std::unique_lock<std::mutex> lock(clients_mu_);
  // Checked under the pool lock, which Stop() takes after setting the
  // flag, here and again once a new socket is connected: Stop()'s
  // shutdown() does nothing to a socket still connecting, so a connection
  // is either connected before Stop() shuts it down or closed unused.
  if (stopped_.load()) return Status::IoError("dist: transport stopped");
  std::vector<int>& idle = idle_[static_cast<std::size_t>(to)];
  if (!fresh && !idle.empty()) {
    const int fd = idle.back();
    idle.pop_back();
    checked_out_.push_back(fd);
    return fd;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  open_fds_.fetch_add(1, std::memory_order_relaxed);
  checked_out_.push_back(fd);
  lock.unlock();

  const SocketPeer& target = peers_[static_cast<std::size_t>(to)];
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(target.port);
  const char* host = target.host.empty() ? "127.0.0.1" : target.host.c_str();
  Status status = Status::OK();
  if (::inet_pton(AF_INET, host, &addr.sin_addr) != 1) {
    status = Status::InvalidArgument("bad peer address: " + target.host);
  } else if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr)) < 0) {
    status = Status::IoError(std::string("connect: ") + std::strerror(errno));
  } else {
    std::lock_guard<std::mutex> relock(clients_mu_);
    if (stopped_.load()) status = Status::IoError("dist: transport stopped");
  }
  if (!status.ok()) {
    Checkin(to, fd, /*reusable=*/false);
    return status;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void SocketTransport::Checkin(int to, int fd, bool reusable) {
  std::lock_guard<std::mutex> lock(clients_mu_);
  checked_out_.erase(
      std::find(checked_out_.begin(), checked_out_.end(), fd));
  if (reusable && !stopped_.load()) {
    idle_[static_cast<std::size_t>(to)].push_back(fd);
  } else {
    CloseFd(fd);
  }
  if (checked_out_.empty()) clients_cv_.notify_all();
}

Result<std::string> SocketTransport::RoundTrip(int fd, int from,
                                               const std::string& request) {
  const std::uint64_t rpc_id =
      next_rpc_.fetch_add(1, std::memory_order_relaxed);
  std::string payload;
  PutU64(&payload, rpc_id);
  PutU32(&payload, static_cast<std::uint32_t>(from));
  payload += request;
  std::string framed;
  AppendNetFrame(&framed, payload);
  HDD_RETURN_IF_ERROR(SendAll(fd, framed));
  std::string reply;
  FrameDecoder decoder;
  HDD_RETURN_IF_ERROR(ReadFrame(fd, decoder, &reply));
  std::string_view in(reply);
  std::uint64_t got_id = 0;
  if (!GetU64(&in, &got_id) || got_id != rpc_id) {
    return Status::IoError("dist: response for a different rpc");
  }
  return std::string(in);
}

Result<std::string> SocketTransport::Call(int from, int to,
                                          const std::string& request,
                                          bool interruptible) {
  (void)interruptible;  // no fault injection on the real-socket path
  const DistMsgType type = PeekDistMsgType(request);
  counters_.Bump(type);
  const auto start = std::chrono::steady_clock::now();
  Result<std::string> reply = Status::IoError("dist: unreachable peer");
  // One transparent reconnect: the first attempt may find a pooled
  // connection the peer closed (restart, idle timeout) — retry once on a
  // new one, as the other idle ones may be stale too. Stop() fails the
  // retry's checkout.
  for (int attempt = 0; attempt < 2; ++attempt) {
    Result<int> fd = Checkout(to, /*fresh=*/attempt > 0);
    if (!fd.ok()) return fd.status();
    reply = RoundTrip(*fd, from, request);
    Checkin(to, *fd, /*reusable=*/reply.ok());
    if (reply.ok()) break;
  }
  if (!reply.ok()) return reply.status();
  Result<std::string> result = DecodeDistResponse(*reply);
  if (Histogram* histogram = TypeHistogram(call_us_, "dist_call_us_", type)) {
    histogram->Record(MicrosSince(start));
  }
  return result;
}

void SocketTransport::Stop() {
  if (stopped_.exchange(true)) return;
  // Closing the listener unblocks accept(); shutdown unblocks recv() in
  // the per-connection servers.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  CloseFd(listen_fd_);
  std::vector<std::thread> servers;
  {
    std::lock_guard<std::mutex> guard(server_mu_);
    for (int& fd : server_fds_) {
      ::shutdown(fd, SHUT_RDWR);
    }
    servers.swap(server_threads_);
  }
  for (std::thread& t : servers) t.join();
  {
    std::lock_guard<std::mutex> guard(server_mu_);
    for (int& fd : server_fds_) CloseFd(fd);
    server_fds_.clear();
  }
  // Calls in flight fail on their shut-down connection and close it at
  // check-in; the idle ones close here.
  std::unique_lock<std::mutex> lock(clients_mu_);
  for (const int fd : checked_out_) ::shutdown(fd, SHUT_RDWR);
  clients_cv_.wait(lock, [this] { return checked_out_.empty(); });
  for (std::vector<int>& idle : idle_) {
    for (int& fd : idle) CloseFd(fd);
    idle.clear();
  }
}

}  // namespace hdd
