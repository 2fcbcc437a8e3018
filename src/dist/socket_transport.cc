#include "dist/socket_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
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

}  // namespace

SocketTransport::SocketTransport(int node_id, std::vector<SocketPeer> peers)
    : node_id_(node_id), peers_(std::move(peers)) {
  clients_.reserve(peers_.size());
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    clients_.push_back(std::make_unique<PeerConn>());
  }
}

SocketTransport::~SocketTransport() { Stop(); }

void SocketTransport::CloseFd(int& fd) {
  if (fd < 0) return;
  ::close(fd);
  fd = -1;
  open_fds_.fetch_sub(1, std::memory_order_relaxed);
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
    Result<std::string> result =
        handler_ ? handler_(static_cast<int>(from), std::string(in))
                 : Result<std::string>(
                       Status::Internal("dist: no handler registered"));
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

Status SocketTransport::EnsureConnected(PeerConn& peer, int to) {
  if (peer.fd >= 0) return Status::OK();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  open_fds_.fetch_add(1, std::memory_order_relaxed);
  const SocketPeer& target = peers_[static_cast<std::size_t>(to)];
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(target.port);
  const char* host = target.host.empty() ? "127.0.0.1" : target.host.c_str();
  if (::inet_pton(AF_INET, host, &addr.sin_addr) != 1) {
    int closing = fd;
    CloseFd(closing);
    return Status::InvalidArgument("bad peer address: " + target.host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status =
        Status::IoError(std::string("connect: ") + std::strerror(errno));
    int closing = fd;
    CloseFd(closing);
    return status;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  peer.fd = fd;
  return Status::OK();
}

Result<std::string> SocketTransport::Call(int from, int to,
                                          const std::string& request,
                                          bool interruptible) {
  (void)interruptible;  // no fault injection on the real-socket path
  counters_.Bump(PeekDistMsgType(request));
  PeerConn& peer = *clients_[static_cast<std::size_t>(to)];
  std::lock_guard<std::mutex> guard(peer.mu);
  // One transparent reconnect: the first attempt may find a connection
  // the peer closed (restart, idle timeout) — retry once on a fresh one.
  for (int attempt = 0; attempt < 2; ++attempt) {
    HDD_RETURN_IF_ERROR(EnsureConnected(peer, to));
    const std::uint64_t rpc_id = peer.next_rpc++;
    std::string payload;
    PutU64(&payload, rpc_id);
    PutU32(&payload, static_cast<std::uint32_t>(from));
    payload += request;
    std::string framed;
    AppendNetFrame(&framed, payload);
    Status io = SendAll(peer.fd, framed);
    std::string reply;
    if (io.ok()) {
      FrameDecoder decoder;
      io = ReadFrame(peer.fd, decoder, &reply);
    }
    if (!io.ok()) {
      CloseFd(peer.fd);
      if (attempt == 0 && !stopped_.load()) continue;
      return io;
    }
    std::string_view in(reply);
    std::uint64_t got_id = 0;
    if (!GetU64(&in, &got_id) || got_id != rpc_id) {
      CloseFd(peer.fd);
      return Status::IoError("dist: response for a different rpc");
    }
    return DecodeDistResponse(in);
  }
  return Status::IoError("dist: unreachable peer");
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
  for (auto& peer : clients_) {
    std::lock_guard<std::mutex> guard(peer->mu);
    CloseFd(peer->fd);
  }
}

}  // namespace hdd
