#ifndef HDD_DIST_DIST_SESSION_H_
#define HDD_DIST_DIST_SESSION_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cc/controller.h"
#include "dist/shard_map.h"
#include "dist/transport.h"
#include "hdd/hdd_controller.h"

namespace hdd {

struct DistOptions {
  /// TEST-ONLY mutation switch, the canary of the distributed simulation
  /// harness: when set, cross-node reads are served at the reader's raw
  /// initiation time instead of the activity-link bound A_i^j(I(t)) — the
  /// "unbounded snapshot" a broken implementation would ship. An older
  /// remote transaction of the target class still active at I(t) may
  /// commit a version below the served bound afterwards, so the
  /// merged-history oracle must catch this with a replayable seed.
  bool mutation_stale_bound_snapshot = false;
};

/// Requester side of a cross-node Protocol A bound. A_i^j(m) is the
/// paper's I^old composed along the critical path i -> c_1 -> ... -> j
/// (§4.1):
///
///   A_i^j(m) = I^old_j( ... I^old_c2( I^old_c1(m) ) ... )
///
/// Each I^old_c is answered by c's home node: a class homed here by the
/// local controller's live table, a run of consecutive path classes homed
/// at one remote node by ONE kActivityReq carrying the stab time (the
/// home applies the run and replies with one timestamp per class). Every
/// answer is memoized per (class, stab time) for the evaluator's lifetime
/// — one transaction attempt. That is exact, not a cache of something
/// that may change: m <= I(t) is at or below the clock, where I^old is
/// stable (hdd/link_functions.h). Nothing is copied and nothing is
/// recorded at any node.
class DistLinkEvaluator {
 public:
  DistLinkEvaluator(int node_id, const ShardMap* map, Transport* transport,
                    HddController* cc);

  /// A_i^j(m). InvalidArgument when no critical path i -> j exists.
  Result<Timestamp> A(ClassId i, ClassId j, Timestamp m);

  /// I^old_c(m), the base of a hosted read-only transaction (§5.0).
  Result<Timestamp> OldestActiveAt(ClassId c, Timestamp m) {
    return ComposeOldestActive({c}, m);
  }

 private:
  /// I^old_{path.back()}( ... I^old_{path[0]}(m) ): the one walk behind A
  /// and the hosted base.
  Result<Timestamp> ComposeOldestActive(const std::vector<ClassId>& path,
                                        Timestamp m);

  int node_id_;
  const ShardMap* map_;
  Transport* transport_;
  HddController* cc_;
  std::map<std::pair<ClassId, Timestamp>, Timestamp> memo_;
};

/// The concurrency controller of one shard node in a distributed HDD
/// deployment: the node's HddController seen through the shard map. It
/// implements ConcurrencyController, so the one execution driver
/// (engine/driver.h's RunProgram) runs a shard's programs exactly as it
/// runs a single node's, whether the caller is the network server's
/// worker pool or DistWorld. Where a class lives changes where an
/// operation goes, never how the driver retries, aborts or acks.
///
/// Placement rules (class ids are identical to segment ids — Restructure
/// is not supported in sharded mode):
///  * an update transaction of class c runs at home(c); Begin refuses it
///    anywhere else, before any effect. Its own-segment accesses go
///    through the local controller (Protocol B), and the home node's
///    stand-in chain for c's segment is write-authoritative since every
///    writer of that segment runs here;
///  * a cross-segment Protocol A read is served locally when every class
///    on the critical path is homed here AND the segment is owned here;
///    otherwise the session evaluates A_i^j(I(t)) with a DistLinkEvaluator
///    (one I^old request per run of remote classes, memoized for the
///    attempt), then sends that finished bound to the segment's owner,
///    which replies with the one committed version it selects. No
///    registration message exists: the owner never learns the read
///    happened (see DistNode::Handle for the soundness argument).
///  * a read-only transaction must declare a read_scope (time walls are
///    node-local and therefore unsound across shards); it is hosted below
///    the scope's lowest class per §5.0, with the base I^old_h(m) and all
///    bounds evaluated the same way when any piece is remote;
///  * an update transaction whose own segment is owned by ANOTHER node
///    (ShardMap::SetSegmentOwner override) two-phases its commit: shipped
///    writes are prepared at the owner through the owner's WAL, the
///    coordinator makes the commit durable locally, participants commit,
///    and only then does the transaction deregister — so no activity-link
///    bound anywhere can pass I(t) before every copy is committed.
///
/// Durability: a plain local commit goes through HddController::Commit,
/// so inside a DeferredCommitWait scope (the served path) it parks its
/// ticket like a single node's. The 2PC steps (a participant's prepare
/// and commit, the coordinator's CommitDurablePhase) always wait for
/// their sync: a vote or a decision never leaves before it is durable.
///
/// The session keeps each transaction's placement and 2PC state in one
/// map keyed by transaction id; Begin adds the entry, Commit and Abort
/// remove it. The node's HddController records every step and counts
/// every commit; the session's own recorder and metrics stay empty.
class DistSession : public ConcurrencyController {
 public:
  DistSession(int node_id, const ShardMap* map, Transport* transport,
              HddController* cc, DistOptions options = {});

  std::string_view name() const override { return cc_->name(); }

  Result<TxnDescriptor> Begin(const TxnOptions& options) override;
  Result<Value> Read(const TxnDescriptor& txn, GranuleRef granule) override;
  /// The local write, buffered for the 2PC when another node owns the
  /// segment.
  Status Write(const TxnDescriptor& txn, GranuleRef granule,
               Value value) override;
  /// Commit, or the two-phase commit when writes were shipped. A failed
  /// commit has already aborted the transaction and its participants.
  Status Commit(const TxnDescriptor& txn) override;
  /// Aborts the prepared participants, then the local transaction.
  Status Abort(const TxnDescriptor& txn) override;

  HddController& controller() { return *cc_; }
  int node_id() const { return node_id_; }

 private:
  /// One transaction's placement and 2PC state.
  struct TxnPlan {
    explicit TxnPlan(DistLinkEvaluator evaluator)
        : links(std::move(evaluator)) {}

    DistLinkEvaluator links;
    /// A read-only transaction whose scope is all homed and owned here:
    /// every read goes straight to the local controller.
    bool local_plain = false;
    /// Hosted read-only transactions on the bounded path: the host class
    /// and the declared scope the reads must stay inside.
    ClassId host = kReadOnlyClass;
    std::vector<SegmentId> scope;
    /// Writes destined for remotely-owned segments, two-phased at commit.
    std::map<SegmentId, std::vector<std::pair<std::uint32_t, Value>>>
        remote_writes;
    /// Segments successfully prepared at their owners (abort targets).
    std::vector<SegmentId> prepared;
  };

  /// The begun transaction's plan. The pointer stays valid until Commit
  /// or Abort removes the entry: the map's nodes never move, and only the
  /// thread driving `txn` touches its plan.
  Result<TxnPlan*> FindPlan(const TxnDescriptor& txn);
  void ErasePlan(const TxnDescriptor& txn);

  /// Bounded-path read: `bound` is final; the segment's owner (local or
  /// remote) serves the latest committed version below it.
  Result<Value> BoundedRead(const TxnDescriptor& txn, GranuleRef granule,
                            Timestamp bound);
  Status PrepareRemotes(const TxnDescriptor& txn, TxnPlan& plan);
  void AbortRemotes(const TxnDescriptor& txn, TxnPlan& plan);
  void CommitRemotes(const TxnDescriptor& txn, TxnPlan& plan);

  int node_id_;
  const ShardMap* map_;
  Transport* transport_;
  HddController* cc_;
  DistOptions options_;

  std::mutex plans_mu_;
  std::unordered_map<TxnId, TxnPlan> plans_;
};

}  // namespace hdd

#endif  // HDD_DIST_DIST_SESSION_H_
