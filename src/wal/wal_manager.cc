#include "wal/wal_manager.h"

#include "obs/trace.h"

namespace hdd {

namespace {

// The DeferredCommitWait open on this thread, if any.
thread_local DeferredCommitWait* open_deferral = nullptr;

}  // namespace

DeferredCommitWait::DeferredCommitWait() { open_deferral = this; }

DeferredCommitWait::~DeferredCommitWait() { open_deferral = nullptr; }

std::string SegmentLogName(SegmentId segment) {
  return "seg-" + std::to_string(segment) + ".log";
}

std::string SegmentCheckpointName(SegmentId segment) {
  return "seg-" + std::to_string(segment) + ".ckpt";
}

WalManager::WalManager(WalStorage* storage, WalOptions options)
    : storage_(storage),
      options_(options),
      gate_(options.group, &metrics_) {}

Result<std::unique_ptr<WalManager>> WalManager::Open(WalStorage* storage,
                                                     int num_segments,
                                                     WalOptions options) {
  std::unique_ptr<WalManager> wal(new WalManager(storage, options));
  wal->append_ticket_.store(options.initial_ticket,
                            std::memory_order_release);
  wal->logs_.reserve(static_cast<std::size_t>(num_segments));
  for (SegmentId s = 0; s < num_segments; ++s) {
    HDD_ASSIGN_OR_RETURN(SegmentLog log,
                         SegmentLog::Open(storage, SegmentLogName(s)));
    wal->logs_.push_back(std::move(log));
  }
  return wal;
}

Result<std::uint64_t> WalManager::AppendRecord(SegmentId segment,
                                               const WalRecord& record) {
  HDD_TRACE_SPAN("wal", "append");
  // The ticket is drawn inside the log's append critical section, so a
  // ticket visible to SyncAll's capture implies the holder is inside (or
  // past) that section and the capture's subsequent per-log Sync — which
  // reads its target under the same lock — covers the record's bytes.
  std::uint64_t ticket = 0;
  HDD_ASSIGN_OR_RETURN(
      const std::uint64_t end,
      logs_[static_cast<std::size_t>(segment)].Append(record, &append_ticket_,
                                                      &ticket));
  (void)end;
  metrics_.records_appended.Add(1);
  metrics_.bytes_appended.Add(kFrameHeaderBytes +
                              EncodeWalRecord(record).size());
  return ticket;
}

Result<std::uint64_t> WalManager::LogWrite(SegmentId segment, TxnId txn,
                                           Timestamp init_ts,
                                           std::uint32_t granule,
                                           Value value) {
  WalRecord record;
  record.type = WalRecordType::kWrite;
  record.txn = txn;
  record.init_ts = init_ts;
  record.granule = granule;
  record.value = value;
  return AppendRecord(segment, record);
}

Result<std::uint64_t> WalManager::LogCommit(
    SegmentId segment, TxnId txn, Timestamp init_ts,
    const std::vector<SegmentId>& written_segments) {
  WalRecord record;
  record.type = WalRecordType::kCommit;
  record.txn = txn;
  record.init_ts = init_ts;
  record.segments = written_segments;
  pending_commits_.fetch_add(1, std::memory_order_relaxed);
  return AppendRecord(segment, record);
}

Result<std::uint64_t> WalManager::LogAbort(SegmentId segment, TxnId txn,
                                           Timestamp init_ts) {
  WalRecord record;
  record.type = WalRecordType::kAbort;
  record.txn = txn;
  record.init_ts = init_ts;
  return AppendRecord(segment, record);
}

Result<std::uint64_t> WalManager::LogPrepare(SegmentId segment, TxnId txn,
                                             Timestamp init_ts) {
  WalRecord record;
  record.type = WalRecordType::kPrepare;
  record.txn = txn;
  record.init_ts = init_ts;
  return AppendRecord(segment, record);
}

Result<std::uint64_t> WalManager::LogReadBound(Timestamp now) {
  WalRecord record;
  record.type = WalRecordType::kReadBound;
  record.init_ts = now;
  return AppendRecord(/*segment=*/0, record);
}

WalManager::~WalManager() {
  {
    std::lock_guard<std::mutex> lock(helpers_.mu);
    helpers_.stop = true;
  }
  helpers_.work.notify_all();
  for (std::thread& thread : helpers_.threads) thread.join();
}

Result<SyncBatch> WalManager::SyncAll(bool fan_out) {
  SyncBatch batch;
  // Capture BEFORE syncing: a record ticketed at or below the capture was
  // inside its log's append critical section when the capture happened,
  // and each per-log Sync below reads its target under that same lock —
  // so it serializes after the append and covers the record's bytes. The
  // batch is conservative the other way — later appends may also get
  // synced — which only makes the published point tighter than claimed.
  batch.stable_ticket = append_ticket_.load(std::memory_order_acquire);
  batch.commits_covered = pending_commits_.exchange(0);
  if (fan_out) {
    HDD_RETURN_IF_ERROR(SyncFannedOut());
    return batch;
  }
  for (SegmentLog& log : logs_) {
    if (log.unsynced_bytes() == 0) continue;  // clean logs cost no fsync
    HDD_RETURN_IF_ERROR(SyncLog(log));
  }
  return batch;
}

Status WalManager::SyncLog(SegmentLog& log) {
  HDD_RETURN_IF_ERROR(log.Sync());
  metrics_.fsyncs.Add(1);
  return Status::OK();
}

Status WalManager::SyncFannedOut() {
  std::unique_lock<std::mutex> lock(helpers_.mu);
  helpers_.logs.clear();
  for (SegmentLog& log : logs_) {
    if (log.unsynced_bytes() > 0) helpers_.logs.push_back(&log);
  }
  helpers_.next = 0;
  helpers_.error = Status::OK();
  // The leader syncs one log itself; each other dirty log may go to a
  // helper, started the first time a round has that many. Every helper is
  // woken, so the first ones awake take the logs.
  const std::size_t wanted =
      helpers_.logs.empty() ? 0 : helpers_.logs.size() - 1;
  while (helpers_.threads.size() < wanted) {
    helpers_.threads.emplace_back([this] { HelperLoop(); });
  }
  if (wanted > 0) helpers_.work.notify_all();
  // The leader claims logs too, so the round never waits for a helper to
  // wake; it ends once every claimed sync has returned.
  ClaimSyncs(lock);
  helpers_.done.wait(lock, [this] { return helpers_.busy == 0; });
  return helpers_.error;
}

void WalManager::ClaimSyncs(std::unique_lock<std::mutex>& lock) {
  while (helpers_.next < helpers_.logs.size() && helpers_.error.ok()) {
    SegmentLog* log = helpers_.logs[helpers_.next++];
    ++helpers_.busy;
    lock.unlock();
    Status status = SyncLog(*log);
    lock.lock();
    --helpers_.busy;
    if (helpers_.error.ok()) helpers_.error = std::move(status);
  }
  if (helpers_.busy == 0) helpers_.done.notify_one();
}

void WalManager::HelperLoop() {
  std::unique_lock<std::mutex> lock(helpers_.mu);
  for (;;) {
    helpers_.work.wait(lock, [this] {
      return helpers_.stop || (helpers_.next < helpers_.logs.size() &&
                               helpers_.error.ok());
    });
    if (helpers_.stop) return;
    ClaimSyncs(lock);
  }
}

std::uint64_t WalManager::PendingBytes() const {
  std::uint64_t total = 0;
  for (const SegmentLog& log : logs_) total += log.unsynced_bytes();
  return total;
}

bool WalManager::SyncsBeforeAck() const {
  return options_.group.mode != WalSyncMode::kNone &&
         !options_.mutation_skip_commit_sync;
}

Status WalManager::WaitDurable(std::uint64_t ticket) {
  if (!SyncsBeforeAck()) return Status::OK();
  metrics_.commit_waits.Add(1);
  return AwaitParked(ticket);
}

bool WalManager::DeferWait(std::uint64_t ticket) {
  if (open_deferral == nullptr) return false;
  open_deferral->ticket_ = ticket;
  if (SyncsBeforeAck()) metrics_.commit_waits.Add(1);
  return true;
}

Status WalManager::AwaitParked(std::uint64_t ticket) {
  if (!SyncsBeforeAck()) return Status::OK();
  return gate_.AwaitDurable(
      ticket, [this](bool fan_out) { return SyncAll(fan_out); },
      [this] { return PendingBytes(); });
}

std::uint64_t WalManager::StableTicket() const {
  return SyncsBeforeAck() ? gate_.stable_ticket() : CurrentTicket();
}

Status WalManager::AwaitReadStable() {
  return WaitDurable(CurrentTicket());
}

std::uint64_t WalManager::LogEndLsn(SegmentId segment) const {
  return logs_[static_cast<std::size_t>(segment)].end_lsn();
}

}  // namespace hdd
