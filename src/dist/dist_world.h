#ifndef HDD_DIST_DIST_WORLD_H_
#define HDD_DIST_DIST_WORLD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dist/dist_node.h"
#include "dist/dist_session.h"
#include "dist/shard_map.h"
#include "dist/sim_transport.h"
#include "engine/synthetic_workload.h"
#include "engine/txn_program.h"
#include "graph/dhg.h"
#include "sim/sim_clock.h"
#include "wal/wal_manager.h"
#include "wal/wal_storage.h"

namespace hdd {

struct DistWorldOptions {
  int num_nodes = 2;

  /// Chain-hierarchy shape (segment depth-1 lowest, 0 highest), shared by
  /// every node; the shard map splits the classes contiguously.
  int depth = 4;
  std::uint32_t granules_per_segment = 3;

  /// Owner overrides applied after the contiguous split: (segment, node)
  /// pairs making owner(segment) differ from home(class) — the
  /// cross-shard-update scenario (2PC path).
  std::vector<std::pair<SegmentId, int>> owner_overrides;

  int txns_per_node = 6;
  int workers_per_node = 2;
  int pumps_per_node = 2;
  int max_retries = 50;

  /// Program mix (see MakeProgram).
  double read_only_fraction = 0.25;
  int own_reads = 1;
  int own_writes = 2;
  int upper_reads = 1;
  std::uint64_t workload_seed = 77;

  SimTransportOptions transport;
  DistOptions session;
};

/// N logical shard nodes in one process: per node a full-schema database
/// with a group-commit WAL on simulated storage, an HddController with a
/// disjoint transaction-id range, a DistNode handler and a DistSession —
/// wired through one SimTransport and one shared logical clock. Each
/// worker drives its node's session through RunProgram, the driver every
/// executor and the network server use. Under a SimScheduler the whole
/// cluster is deterministic (workers and message pumps are sim tasks);
/// with `sched == nullptr` the same world runs on plain threads (the
/// bench configuration).
class DistWorld {
 public:
  /// On construction failure `init_error()` is non-empty and the world
  /// must not be run.
  DistWorld(DistWorldOptions options, SimScheduler* sched);
  ~DistWorld();

  const std::string& init_error() const { return init_error_; }

  /// Runs the full workload to completion: one task per worker and per
  /// pump through the shared launcher (RunTasks in engine/driver.h;
  /// registered as sim tasks when simulated, and the caller must NOT have
  /// called ExpectTasks — the launcher does). Returns "" or a failure
  /// description. Safe to call once.
  std::string RunWorkload();

  /// Total sim tasks RunWorkload registers (for harnesses composing
  /// additional tasks).
  int TotalTasks() const;

  /// Merges every node's recorded history (node-major, sequence-rebased),
  /// rebuilds the final database from each segment's OWNER chains and
  /// runs the full 1SR + bound-replay oracle. Call after RunWorkload on a
  /// non-halted run.
  std::string CheckHistory();

  int num_nodes() const { return options_.num_nodes; }
  const ShardMap& shard_map() const { return map_; }
  SimTransport& transport() { return *transport_; }
  HddController& controller(int node) { return *controllers_[node]; }
  Database& database(int node) { return *dbs_[node]; }
  SimWalStorage& storage(int node) { return *storages_[node]; }
  const HierarchySchema& schema() const { return *schema_; }
  std::unique_ptr<Database> MakeFreshDatabase() const {
    return workload_.MakeDatabase();
  }

  std::uint64_t committed() const { return committed_.load(); }
  std::uint64_t failed() const { return failed_.load(); }
  std::uint64_t crashed() const { return crashed_.load(); }
  std::uint64_t aborted_attempts() const { return aborted_attempts_.load(); }

 private:
  /// The program worker `node` runs as its `index`-th transaction.
  TxnProgram MakeProgram(int node, int index) const;
  void WorkerBody(int node);

  DistWorldOptions options_;
  SimScheduler* sched_;
  SyntheticWorkload workload_;
  std::optional<HierarchySchema> schema_;
  ShardMap map_;
  SimClock clock_;
  std::unique_ptr<SimTransport> transport_;
  std::vector<std::unique_ptr<SimWalStorage>> storages_;
  std::vector<std::unique_ptr<WalManager>> wals_;
  std::vector<std::unique_ptr<Database>> dbs_;
  std::vector<std::unique_ptr<HddController>> controllers_;
  std::vector<std::unique_ptr<DistNode>> nodes_;
  std::vector<std::unique_ptr<DistSession>> sessions_;
  std::string init_error_;

  std::vector<std::unique_ptr<std::atomic<int>>> next_index_;
  std::atomic<std::uint64_t> committed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> crashed_{0};
  std::atomic<std::uint64_t> aborted_attempts_{0};
};

/// Rebases `steps` so their sequence numbers follow everything already in
/// `combined` (node-major concatenation is a legal interleaving for the
/// graph-based oracle: dependencies are derived from version keys, not
/// from sequence adjacency).
void AppendRebased(std::vector<Step>& combined, std::vector<Step> steps);

}  // namespace hdd

#endif  // HDD_DIST_DIST_WORLD_H_
