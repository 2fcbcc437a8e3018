#ifndef HDD_WAL_WAL_MANAGER_H_
#define HDD_WAL_WAL_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "storage/version.h"
#include "wal/group_commit.h"
#include "wal/segment_log.h"
#include "wal/wal_storage.h"

namespace hdd {

/// File names inside a WalStorage namespace.
std::string SegmentLogName(SegmentId segment);
std::string SegmentCheckpointName(SegmentId segment);
inline constexpr const char kControlCheckpointName[] = "ctrl.ckpt";

struct WalOptions {
  GroupCommit::Params group;

  /// First ticket issued is initial_ticket + 1. After recovery, pass
  /// RecoveryReport::frontier_ticket so the reopened WAL continues the
  /// dense global ticket sequence (recovery truncated every record past
  /// the frontier, so no on-disk ticket exceeds it).
  std::uint64_t initial_ticket = 0;

  /// TEST-ONLY mutation switch, the durability canary of the sim harness:
  /// commit records are appended but NEVER awaited (no fsync before the
  /// ack), so a crash can lose acknowledged commits. The crash-recovery
  /// sweep must catch this with a replayable seed — a harness that cannot
  /// detect the mutation is broken.
  bool mutation_skip_commit_sync = false;
};

/// A per-thread scope in which a local commit parks its durability wait
/// instead of blocking (commit pipelining; cf. flush pipelining in Aether,
/// Johnson et al., VLDB 2010). While one is open on a thread,
/// HddController::Commit hands its WAL ticket to WalManager::DeferWait,
/// which stores it here, and returns. The scope's owner must not answer
/// the commit before WalManager::StableTicket() reaches ticket(). The
/// served per-txn path is the one owner (net/server.h). 2PC votes and
/// decisions, read barriers and checkpoints never consult the scope: what
/// they send or write must not leave before the sync. Scopes do not nest.
class DeferredCommitWait {
 public:
  DeferredCommitWait();
  ~DeferredCommitWait();

  DeferredCommitWait(const DeferredCommitWait&) = delete;
  DeferredCommitWait& operator=(const DeferredCommitWait&) = delete;

  /// Ticket a commit parked in this scope; 0 when none did (nothing was
  /// logged, or the commit waited for itself).
  std::uint64_t ticket() const { return ticket_; }

 private:
  friend class WalManager;
  std::uint64_t ticket_ = 0;
};

/// The durability facade the controller talks to: one redo SegmentLog per
/// segment behind a single global commit gate.
///
/// ## Ticket discipline (why one global gate, not one per segment)
///
/// Every append draws a global, monotonically increasing *ticket* inside
/// its log's append critical section, and the ticket is written into the
/// record on disk. A sync batch captures the current ticket and then
/// fsyncs every dirty log (each fsync serializes with in-flight appends
/// through the same per-log lock), so every record ticketed at or below
/// the capture is durable afterwards — across ALL segments. Acking commit
/// T therefore implies durability of every record T causally depends on:
/// any version T read was marked committed (atomically, under the same
/// shard latch, with its commit record's append) before T's read, hence
/// before T's own commit ticket. Per-segment stability points would not
/// give that: T's cross-segment Protocol A reads would race the other
/// segment's fsync.
///
/// The argument is per log, so it holds however the per-log fsyncs are
/// ordered or overlapped. A record ticketed at or below the capture is in
/// (or past) its log's append critical section at the capture; that log's
/// fsync starts after the capture and reads its target under the log's
/// lock, so it covers the record whichever thread runs it and whatever
/// other log syncs beside it. The batch is published only after every
/// per-log fsync of the round has returned.
///
/// ## Fanned-out rounds
///
/// A costly round (group_commit.h) overlaps its fsyncs: the leader and
/// helper threads claim the dirty logs one at a time from a shared index,
/// so the round costs about one fdatasync instead of one per dirty log.
/// A round with n dirty logs starts helpers until there are n − 1, so at
/// most num_segments − 1; none start during Open, the destructor joins
/// them, and they run only syncs a leader hands them. The leader claims
/// logs too,
/// so a round never waits for a helper to wake. The round fails with its
/// first error (later logs go unclaimed, as in a serial round), and the
/// group commit keeps that failure sticky. Cheap rounds, every simulated
/// round and kPerCommit stay serial on the leader's thread.
///
/// The on-disk tickets are what recovery's *frontier* is computed from:
/// only records whose ticket has no missing predecessor anywhere are
/// honored, so a record that survives a crash by luck while something it
/// causally depends on (possibly in another file) was lost is rolled back
/// (see WalRecord::ticket and recovery.h).
///
/// ## Ordering
///
/// Callers append write/commit/abort records under the SAME shard latch
/// that installs/commits/removes the version, so each segment log's
/// record order equals the in-memory effect order, and "record durable"
/// implies "effect happened". Replay in log order therefore reconstructs
/// the chains exactly (recovery.h).
class WalManager {
 public:
  static Result<std::unique_ptr<WalManager>> Open(WalStorage* storage,
                                                  int num_segments,
                                                  WalOptions options = {});

  /// Joins the sync helpers. Call with no wait in progress.
  ~WalManager();

  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  /// Append hooks — call under the shard latch that serializes version
  /// installs for `segment`. Each returns the record's global ticket.
  Result<std::uint64_t> LogWrite(SegmentId segment, TxnId txn,
                                 Timestamp init_ts, std::uint32_t granule,
                                 Value value);
  /// `written_segments` lists every segment the transaction wrote; a copy
  /// of the commit record (carrying the full list, for diagnostics) goes
  /// to each, so any single segment's log replays to a complete picture of
  /// its own versions. Cross-file atomicity comes from the ticket
  /// frontier, not the copies: recovery honors a commit only when nothing
  /// ticketed before it was lost anywhere (see WalRecord::ticket).
  Result<std::uint64_t> LogCommit(SegmentId segment, TxnId txn,
                                  Timestamp init_ts,
                                  const std::vector<SegmentId>& written_segments);
  Result<std::uint64_t> LogAbort(SegmentId segment, TxnId txn,
                                 Timestamp init_ts);

  /// 2PC participant marker (see WalRecordType::kPrepare): append after
  /// every shipped write of `txn` for `segment` is logged, then await the
  /// returned ticket before acking the prepare.
  Result<std::uint64_t> LogPrepare(SegmentId segment, TxnId txn,
                                   Timestamp init_ts);

  /// Clock marker for read-only commits (see WalRecordType::kReadBound):
  /// records `now` so recovery never rewinds the clock below an acked
  /// reader's bound. Lands in segment 0's log; the reader's ack then waits
  /// for the returned ticket (WaitDurable, or DeferWait on the served
  /// path).
  Result<std::uint64_t> LogReadBound(Timestamp now);

  /// Commit-wait: blocks (leader/follower group commit) until `ticket` is
  /// durable, counting one commit wait. Call with NO latches held. Returns
  /// immediately under WalSyncMode::kNone and under the canary mutation.
  Status WaitDurable(std::uint64_t ticket);

  /// WaitDurable's deferred form, for a local commit only: inside an open
  /// DeferredCommitWait scope on this thread, parks `ticket` in the scope,
  /// counts the commit wait and returns true without blocking. Returns
  /// false, having done nothing, when no scope is open.
  bool DeferWait(std::uint64_t ticket);

  /// The wait of whoever answers parked commits: blocks like WaitDurable,
  /// in the same group commit under the same pause and fan-out rule, but
  /// counts no commit wait, since each parked commit counted its own in
  /// DeferWait.
  Status AwaitParked(std::uint64_t ticket);

  /// Highest ticket an ack may pass: the group commit's synced frontier.
  /// Under kNone and the canary mutation, which ack without a sync, it is
  /// every ticket drawn so far.
  std::uint64_t StableTicket() const;

  /// Read barrier for read-only transactions: waits until everything
  /// appended so far is durable. A read-only transaction acked after this
  /// barrier can only have observed committed versions whose commit
  /// records are on disk — results handed to the outside world never
  /// evaporate in a crash.
  Status AwaitReadStable();

  /// Current global append ticket (grows with every record).
  std::uint64_t CurrentTicket() const {
    return append_ticket_.load(std::memory_order_acquire);
  }

  /// End LSN of one segment's redo log; call under that segment's shard
  /// latch to capture a checkpoint position consistent with the chains.
  std::uint64_t LogEndLsn(SegmentId segment) const;

  int num_segments() const { return static_cast<int>(logs_.size()); }
  WalStorage& storage() { return *storage_; }
  const WalOptions& options() const { return options_; }
  WalMetrics& metrics() { return metrics_; }
  const WalMetrics& metrics() const { return metrics_; }

 private:
  WalManager(WalStorage* storage, WalOptions options);

  Result<std::uint64_t> AppendRecord(SegmentId segment,
                                     const WalRecord& record);
  /// False under kNone and the canary mutation: commits ack unsynced.
  bool SyncsBeforeAck() const;
  /// One group-commit round's sync; `fan_out` overlaps the per-log
  /// fsyncs (see "Fanned-out rounds").
  Result<SyncBatch> SyncAll(bool fan_out);
  Status SyncLog(SegmentLog& log);
  /// The leader's side of a fanned-out round.
  Status SyncFannedOut();
  /// Claims and syncs the round's logs until none is left or one failed;
  /// `lock` holds helpers_.mu.
  void ClaimSyncs(std::unique_lock<std::mutex>& lock);
  void HelperLoop();
  std::uint64_t PendingBytes() const;

  WalStorage* storage_;
  WalOptions options_;
  WalMetrics metrics_;
  std::vector<SegmentLog> logs_;
  std::atomic<std::uint64_t> append_ticket_{0};
  std::atomic<std::uint64_t> pending_commits_{0};
  GroupCommit gate_;

  /// The sync helpers and the fanned-out round they share.
  struct Helpers {
    std::mutex mu;
    std::condition_variable work;   // a round has unclaimed logs, or stop
    std::condition_variable done;   // every claimed sync has returned
    std::vector<SegmentLog*> logs;  // the round's dirty logs
    std::size_t next = 0;           // first unclaimed entry of `logs`
    std::size_t busy = 0;           // claimed syncs still running
    Status error = Status::OK();    // the round's first failure
    bool stop = false;
    std::vector<std::thread> threads;
  };
  Helpers helpers_;
};

}  // namespace hdd

#endif  // HDD_WAL_WAL_MANAGER_H_
