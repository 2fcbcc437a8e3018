#ifndef HDD_DIST_SHARD_SERVER_H_
#define HDD_DIST_SHARD_SERVER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/clock.h"
#include "dist/dist_node.h"
#include "dist/dist_session.h"
#include "dist/remote_clock.h"
#include "dist/shard_map.h"
#include "dist/socket_transport.h"
#include "engine/synthetic_workload.h"
#include "net/server.h"
#include "obs/metrics_registry.h"
#include "wal/wal_manager.h"
#include "wal/wal_storage.h"

namespace hdd {

struct ShardServerOptions {
  /// This process's node id and every node's dist-transport address
  /// (peers[node_id] is the port THIS process binds; all processes must
  /// be started with the same peer list). A node id outside [0,
  /// peers.size()) is an init_error: Start() fails, nothing is opened.
  int node_id = 0;
  std::vector<SocketPeer> peers;

  /// Chain-hierarchy shape, shared by every node (all processes must
  /// agree or the shard maps diverge).
  int depth = 4;
  std::uint32_t granules_per_segment = 64;

  /// Owner overrides applied after the contiguous split (the cross-shard
  /// 2PC scenario); must be identical on every process.
  std::vector<std::pair<SegmentId, int>> owner_overrides;

  /// Net front end (client-facing). Port 0 = ephemeral.
  std::uint16_t front_port = 0;
  int front_io_threads = 1;
  int front_workers = 2;
  std::uint64_t inflight_cap = 1024;
};

/// One process of the sharded deployment (`hdd_server --shard`): a
/// SocketTransport node serving the dist protocol to its peers, a full-
/// schema HddController owning this shard's segments over an in-memory
/// group-commit WAL (prepares and commits run the full logging path), a
/// DistSession routing cross-shard reads and 2PC writes, and an HddServer
/// front end serving the session as its controller: the single node's
/// served path, parked acks included (net/server.h), with a retry budget
/// of 50 per request. Node 0 hosts the cluster's logical clock; every
/// other node reaches it through RemoteClock.
///
/// Client placement contract: update transactions must be submitted to
/// the front end of their class's HOME node (the session's Protocol B
/// path is single-sited); a mis-routed update fails, it is never
/// silently proxied. Read-only transactions may be submitted anywhere.
class ShardServer {
 public:
  explicit ShardServer(ShardServerOptions options);
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Starts the dist transport, then the front end. On error nothing is
  /// left running.
  Status Start();

  /// Stops the front end (draining admitted work), then the transport.
  /// Returns the first deployment error observed (a degraded RemoteClock
  /// latches one). Idempotent.
  Status Stop();

  std::uint16_t front_port() const;
  std::uint16_t dist_port() const { return transport_->bound_port(); }
  /// Transport sockets still open — must be 0 after Stop(), and is 0 when
  /// construction failed before the transport existed.
  int transport_open_fds() const {
    return transport_ != nullptr ? transport_->open_fds() : 0;
  }

  const ShardMap& shard_map() const { return map_; }
  HddController& controller() { return *cc_; }
  DistSession& session() { return *session_; }
  SocketTransport& transport() { return *transport_; }
  /// The front end's metrics and the transport's per-type RPC latency
  /// histograms (dist_call_us_<type>, dist_handle_us_<type>).
  const MetricsRegistry& metrics() const { return metrics_; }
  const std::string& init_error() const { return init_error_; }

 private:
  ShardServerOptions options_;
  SyntheticWorkload workload_;
  std::optional<HierarchySchema> schema_;
  ShardMap map_;
  /// Declared before the transport and the front end, which record into
  /// it, so it outlives both.
  MetricsRegistry metrics_;
  std::unique_ptr<SocketTransport> transport_;
  std::unique_ptr<LogicalClock> clock_;  // LogicalClock or RemoteClock
  std::unique_ptr<SimWalStorage> storage_;
  std::unique_ptr<WalManager> wal_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<HddController> cc_;
  std::unique_ptr<DistNode> node_;
  std::unique_ptr<DistSession> session_;
  std::unique_ptr<HddServer> front_;
  bool started_ = false;
  bool stopped_ = false;
  std::string init_error_;
};

}  // namespace hdd

#endif  // HDD_DIST_SHARD_SERVER_H_
