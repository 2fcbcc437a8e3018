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
  /// followers ride its round. A costly round overlaps its per-log
  /// fsyncs, and its leader first pauses for followers to pile in if the
  /// round before had any (see GroupCommit).
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
/// themselves (leader/follower group commit). The WAL's sync helpers
/// (wal_manager.h) are no flusher either: they run only the per-log
/// syncs a leader hands them in a costly round, and never under the sim.
///
/// One predicate per round decides both of the leader's options: the
/// round is *costly* when the last sync a leader timed took at least the
/// 100 µs pile-in pause (true until a sync is timed, so the first round
/// is costly). A costly round
///  * tells `sync_all` to fan out, i.e. to overlap its per-log fsyncs;
///  * pauses before the sync so followers can pile in, but only if the
///    round before released a follower (a thread that waited in this
///    gate for that round's sync; true before the first round), and
///    unless 64 KiB of unsynced bytes already wait.
/// An in-memory log's rounds are cheap, so it neither pauses nor fans
/// out. A lone waiter never pauses after its first round: no one can
/// pile in. That covers the served per-txn path's completion thread
/// (net/server.h), which lives outside the sim and is one more waiter
/// here, not a second source of syncs: on a single node it is the only
/// waiter, and it waits for its parked commits' highest ticket through
/// this same gate. Under simulation the pause is a SimSleep — one more
/// deterministic reschedule — taken every round, the sync stays serial,
/// and a simulated leader times no sync and stores no follower count.
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
  /// every dirty log (called with no GroupCommit lock held), overlapping
  /// the fsyncs when told to fan out; `pending_bytes` reports
  /// currently-unsynced bytes for the byte threshold. A storage failure
  /// is sticky: the WAL refuses further durability claims rather than
  /// guess what made it to disk.
  Status AwaitDurable(
      std::uint64_t ticket,
      const std::function<Result<SyncBatch>(bool fan_out)>& sync_all,
      const std::function<std::uint64_t()>& pending_bytes);

  /// Highest ticket known durable.
  std::uint64_t stable_ticket() const;

  /// Threads waiting right now for another thread's sync (observability
  /// for tests).
  int followers() const;

 private:
  const Params params_;
  WalMetrics* metrics_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t stable_ = 0;
  bool leader_active_ = false;
  Status error_ = Status::OK();  // sticky first storage failure
  /// How long the last sync a leader timed took. Until one is timed it
  /// reads as longer than the pause, so the first round is costly.
  std::chrono::steady_clock::duration last_sync_ =
      std::chrono::steady_clock::duration::max();
  /// Threads waiting for a leader's sync.
  int followers_ = 0;
  /// Whether the last timed round released a follower; true until one
  /// is timed, so the first round pauses.
  bool followed_ = true;

  /// Serializes kPerCommit syncs.
  std::mutex per_commit_mu_;
};

}  // namespace hdd

#endif  // HDD_WAL_GROUP_COMMIT_H_
