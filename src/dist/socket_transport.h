#ifndef HDD_DIST_SOCKET_TRANSPORT_H_
#define HDD_DIST_SOCKET_TRANSPORT_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dist/transport.h"
#include "obs/metrics_registry.h"

namespace hdd {

/// Address of one shard node. Loopback deployments leave host empty
/// (= 127.0.0.1).
struct SocketPeer {
  std::string host;
  std::uint16_t port = 0;
};

/// Transport over real TCP sockets, one process per shard node, framed
/// exactly like the net/ front end (length + crc32 + payload):
///
///   request  frame payload: [rpc_id u64 LE][from u32 LE][request bytes]
///   response frame payload: [rpc_id u64 LE][response envelope]
///
/// Client side: a pool of connections per peer. A call takes an idle
/// connection to the peer, or opens one, makes one blocking round trip on
/// it and returns it; an IO error closes it instead. Concurrent callers
/// therefore never wait for each other: a served shard's front workers
/// each call a peer while another worker's call is in flight, and handlers
/// block (group commit, class latches), so one shared connection would
/// queue every caller behind the slowest handler. The pool has no size
/// setting; it grows to the peak number of threads that call the peer at
/// once — a ShardServer's front workers — and keeps those connections.
///
/// Server side: one acceptor thread plus one thread per inbound
/// connection, so the threads are bounded by the peers' pools.
///
/// Every socket this object opens is counted; open_fds() is zero after
/// Stop(), which closes idle and checked-out connections alike, and a
/// Call after Stop() fails without opening one.
class SocketTransport : public Transport {
 public:
  /// `peers[i]` is node i's address; this node listens on
  /// `peers[node_id].port`. Each call records its latency in `metrics` as
  /// `dist_call_us_<type>` (from asking for a connection to the decoded
  /// reply, so a wait for a connection shows) and each served request as
  /// `dist_handle_us_<type>` (the handler alone); <type> is
  /// DistMsgTypeName. The registry must outlive every call and Stop().
  SocketTransport(int node_id, std::vector<SocketPeer> peers,
                  MetricsRegistry& metrics);
  ~SocketTransport() override;

  /// Binds, listens and starts the acceptor. Call once; a node that only
  /// calls its peers need not start.
  Status Start(DistHandler handler);

  /// Closes the listener, every server connection and every client
  /// connection, idle or checked out (a call in flight fails), and joins
  /// all threads. Idempotent.
  void Stop();

  Result<std::string> Call(int from, int to, const std::string& request,
                           bool interruptible) override;

  /// Sockets currently open (listener + inbound + outbound).
  int open_fds() const { return open_fds_.load(std::memory_order_relaxed); }

  /// Port actually bound (when constructed with port 0 the OS picks one).
  std::uint16_t bound_port() const { return bound_port_; }

 private:
  using TypeHistograms =
      std::array<std::atomic<Histogram*>, kNumDistMsgTypes>;

  void AcceptLoop(int listen_fd);
  void ServeConnection(int fd);
  /// An idle connection to `to` (unless `fresh`), or a new one. Fails
  /// once stopped.
  Result<int> Checkout(int to, bool fresh);
  /// Returns a checked-out connection to `to`'s idle list, or closes it
  /// when it saw an IO error or the transport stopped.
  void Checkin(int to, int fd, bool reusable);
  /// One request/response exchange on a checked-out connection.
  Result<std::string> RoundTrip(int fd, int from, const std::string& request);
  /// `type`'s histogram in `slots`, registered on first use so that
  /// set-up registers none. Null for a type byte outside DistMsgType.
  Histogram* TypeHistogram(TypeHistograms& slots, const char* prefix,
                           DistMsgType type);
  void CloseFd(int& fd);

  int node_id_;
  std::vector<SocketPeer> peers_;
  MetricsRegistry& metrics_;
  DistHandler handler_;

  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::thread acceptor_;
  std::mutex server_mu_;  // guards server_threads_ and server_fds_
  std::vector<std::thread> server_threads_;
  std::vector<int> server_fds_;

  std::mutex clients_mu_;  // guards idle_ and checked_out_
  std::condition_variable clients_cv_;  // checked_out_ emptied (Stop)
  std::vector<std::vector<int>> idle_;  // per peer
  std::vector<int> checked_out_;
  std::atomic<std::uint64_t> next_rpc_{1};

  TypeHistograms call_us_{};
  TypeHistograms handle_us_{};
  std::atomic<bool> stopped_{false};
  std::atomic<int> open_fds_{0};
};

}  // namespace hdd

#endif  // HDD_DIST_SOCKET_TRANSPORT_H_
