#ifndef HDD_WAL_GROUP_COMMIT_H_
#define HDD_WAL_GROUP_COMMIT_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>

#include "common/metrics.h"
#include "common/status.h"

namespace hdd {

/// How commits reach the disk.
enum class WalSyncMode {
  /// Never fsync (bench baseline / tests): commits ack immediately and a
  /// crash may lose them. No durability claim.
  kNone,
  /// Group commit: the first waiting commit becomes the LEADER, fsyncs
  /// every dirty log once, and publishes the covered ticket; the
  /// commits that wait meanwhile ride its round or form the next one.
  /// The WAL overlaps a round's per-log fsyncs where its storage can
  /// (WalManager, "Overlapped rounds").
  kGroupCommit,
  /// One fsync per commit (the classical, slow, baseline).
  kPerCommit,
};

/// Outcome of one sync batch: everything with an append ticket at or
/// below `stable_ticket` is durable; `commits_covered` feeds the
/// batch-size histogram.
struct SyncBatch {
  std::uint64_t stable_ticket = 0;
  std::uint64_t commits_covered = 0;
};

/// The group-commit gate. It decides only WHO syncs: the leader role,
/// the sticky failure, and under simulation one reschedule per round.
/// HOW a round syncs is the WAL's business (WalManager::SyncAll).
///
/// Deliberately NOT a daemon thread: a background flusher would be
/// invisible to the deterministic scheduler, so the leader role instead
/// rotates among the committing transactions themselves (leader/follower
/// group commit). The WAL's sync helpers (wal_manager.h) are no flusher
/// either: they run only the per-log syncs a leader hands them, and
/// never under the sim.
///
/// A leader syncs as soon as it takes the role; the waiters that arrive
/// during its sync form the next round, so the batch grows with the cost
/// of a sync and no timer tunes it. That covers the served per-txn path's
/// completion thread (net/server.h), which lives outside the sim and is
/// one more waiter here, not a second source of syncs: on a single node
/// it is the only waiter, and it waits for its parked commits' highest
/// ticket through this same gate. Under simulation a leader first yields
/// once (a SimSleep, one more deterministic reschedule), so followers can
/// pile in and a crash can land between the appends and the sync.
class GroupCommit {
 public:
  struct Params {
    WalSyncMode mode = WalSyncMode::kGroupCommit;
  };

  GroupCommit(Params params, WalMetrics* metrics)
      : params_(params), metrics_(metrics) {}

  GroupCommit(const GroupCommit&) = delete;
  GroupCommit& operator=(const GroupCommit&) = delete;

  /// Blocks until every append with a ticket at or below `ticket` is
  /// durable. `sync_all` captures the global append ticket and fsyncs
  /// every dirty log (called with no GroupCommit lock held). A storage
  /// failure is sticky: the WAL refuses further durability claims rather
  /// than guess what made it to disk.
  Status AwaitDurable(std::uint64_t ticket,
                      const std::function<Result<SyncBatch>()>& sync_all);

  /// Highest ticket known durable.
  std::uint64_t stable_ticket() const;

 private:
  const Params params_;
  WalMetrics* metrics_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t stable_ = 0;
  bool leader_active_ = false;
  Status error_ = Status::OK();  // sticky first storage failure

  /// Serializes kPerCommit syncs.
  std::mutex per_commit_mu_;
};

}  // namespace hdd

#endif  // HDD_WAL_GROUP_COMMIT_H_
