#ifndef HDD_WAL_GROUP_COMMIT_H_
#define HDD_WAL_GROUP_COMMIT_H_

#include <chrono>
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
  /// followers ride its single fsync. Before the fsync the leader pauses
  /// for followers to pile in, but only while a sync costs at least the
  /// pause (see GroupCommit).
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

/// The group-commit gate. Deliberately NOT a daemon thread: a background
/// flusher would be invisible to the deterministic scheduler, so the
/// leader role instead rotates among the committing transactions
/// themselves (leader/follower group commit).
///
/// A leader pauses 100 µs before its sync so followers can pile in, unless
/// 64 KiB of unsynced bytes already wait. The pause pays only when the
/// sync it amortizes costs more, so a leader also skips it while the last
/// sync a leader timed took less than the pause: an in-memory log, or a
/// lone committer's single fdatasync, then syncs at once. Under
/// simulation the pause is a SimSleep — one more deterministic
/// reschedule — taken every round, and nothing is timed.
/// The served per-txn path's completion thread (net/server.h) lives
/// outside the sim and is one more waiter here, not a second sync driver:
/// it waits for its parked commits' highest ticket through this same
/// leader/follower gate and pause rule.
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
  /// every dirty log (called with no GroupCommit lock held);
  /// `pending_bytes` reports currently-unsynced bytes for the byte
  /// threshold. A storage failure is sticky: the WAL refuses further
  /// durability claims rather than guess what made it to disk.
  Status AwaitDurable(std::uint64_t ticket,
                      const std::function<Result<SyncBatch>()>& sync_all,
                      const std::function<std::uint64_t()>& pending_bytes);

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
  /// How long the last sync a leader timed took. Until one is timed it
  /// reads as longer than the pause, so the first round pauses.
  std::chrono::steady_clock::duration last_sync_ =
      std::chrono::steady_clock::duration::max();

  /// Serializes kPerCommit syncs.
  std::mutex per_commit_mu_;
};

}  // namespace hdd

#endif  // HDD_WAL_GROUP_COMMIT_H_
