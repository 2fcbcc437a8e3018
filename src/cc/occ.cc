#include "cc/occ.h"

#include <cassert>

namespace hdd {

Occ::Occ(Database* db, LogicalClock* clock, OccOptions options)
    : ConcurrencyController(db, clock), options_(std::move(options)) {}

Result<TxnDescriptor> Occ::Begin(const TxnOptions& options) {
  std::lock_guard<std::mutex> guard(mu_);
  TxnRuntime runtime;
  runtime.descriptor.id = next_txn_id_++;
  runtime.descriptor.init_ts = clock_->Tick();
  runtime.descriptor.txn_class = options.txn_class;
  runtime.descriptor.read_only = options.read_only;
  runtime.start_seq = next_commit_seq_ - 1;
  const TxnDescriptor descriptor = runtime.descriptor;
  txns_.emplace(descriptor.id, std::move(runtime));
  recorder_.RecordBegin(descriptor.id, descriptor.txn_class,
                        descriptor.read_only, descriptor.init_ts);
  metrics_.begins.Add(1);
  return descriptor;
}

Result<Occ::TxnRuntime*> Occ::FindTxn(const TxnDescriptor& txn) {
  auto it = txns_.find(txn.id);
  if (it == txns_.end()) {
    return Status::FailedPrecondition("unknown or finished transaction");
  }
  return &it->second;
}

Result<Value> Occ::Read(const TxnDescriptor& txn, GranuleRef granule) {
  HDD_RETURN_IF_ERROR(db_->Validate(granule));
  std::lock_guard<std::mutex> guard(mu_);
  HDD_ASSIGN_OR_RETURN(TxnRuntime * runtime, FindTxn(txn));
  // Own buffered write wins.
  auto buffered = runtime->write_buffer.find(granule);
  if (buffered != runtime->write_buffer.end()) {
    // Re-reading one's own uninstalled write: no version exists yet, so
    // nothing is recorded; the value is the buffered one.
    return buffered->second;
  }
  const Version* version = db_->granule(granule).LatestCommitted();
  assert(version != nullptr);
  // Committed after Begin (both tick under mu_): validation would abort
  // us, so abort now; a live body only ever sees the state at its Begin.
  if (version->wts > runtime->descriptor.init_ts) {
    return Status::Aborted("OCC: read of a version committed after begin");
  }
  runtime->read_set.insert(granule);
  // Deferred recording: if the transaction later aborts (validation or
  // user), its reads never become part of the audited schedule — exactly
  // how OCC's read phase is invisible to the system.
  Step step;
  step.txn = txn.id;
  step.action = Step::Action::kRead;
  step.granule = granule;
  step.version = version->order_key;
  step.registered = false;
  runtime->pending_reads.push_back(step);
  metrics_.unregistered_reads.Add(1);
  metrics_.version_reads.Add(1);
  return version->value;
}

Status Occ::Write(const TxnDescriptor& txn, GranuleRef granule,
                  Value value) {
  HDD_RETURN_IF_ERROR(db_->Validate(granule));
  std::lock_guard<std::mutex> guard(mu_);
  HDD_ASSIGN_OR_RETURN(TxnRuntime * runtime, FindTxn(txn));
  if (txn.read_only) {
    return Status::FailedPrecondition("read-only transaction wrote");
  }
  runtime->write_buffer[granule] = value;
  return Status::OK();
}

Status Occ::Commit(const TxnDescriptor& txn) {
  std::lock_guard<std::mutex> guard(mu_);
  HDD_ASSIGN_OR_RETURN(TxnRuntime * runtime, FindTxn(txn));

  // Backward validation: anything committed after our start watermark
  // must not have written what we read.
  if (runtime->start_seq < pruned_below_seq_) {
    txns_.erase(txn.id);
    recorder_.RecordOutcome(txn.id, TxnState::kAborted);
    metrics_.aborts.Add(1);
    return Status::Aborted("OCC: validation history pruned");
  }
  for (const CommittedRecord& record : committed_history_) {
    if (record.seq <= runtime->start_seq) continue;
    for (GranuleRef written : record.write_set) {
      if (runtime->read_set.count(written)) {
        txns_.erase(txn.id);
        recorder_.RecordOutcome(txn.id, TxnState::kAborted);
        metrics_.aborts.Add(1);
        return Status::Aborted("OCC: validation conflict");
      }
    }
  }

  // Validation passed: the reads become official, the writes install.
  for (const Step& step : runtime->pending_reads) {
    recorder_.RecordRead(step.txn, step.granule, step.version, false);
  }
  const Timestamp commit_ts = clock_->Tick();
  CommittedRecord record;
  record.seq = next_commit_seq_++;
  for (const auto& [granule, value] : runtime->write_buffer) {
    Version version;
    version.order_key = next_write_key_++;
    version.wts = commit_ts;
    version.creator = txn.id;
    version.value = value;
    version.committed = true;
    Status inserted = db_->granule(granule).Insert(version);
    assert(inserted.ok());
    (void)inserted;
    metrics_.versions_created.Add(1);
    recorder_.RecordWrite(txn.id, granule, version.order_key);
    record.write_set.push_back(granule);
  }
  if (!record.write_set.empty()) {
    committed_history_.push_back(std::move(record));
    while (committed_history_.size() > options_.history_limit) {
      pruned_below_seq_ = committed_history_.front().seq;
      committed_history_.pop_front();
    }
  }
  txns_.erase(txn.id);
  recorder_.RecordOutcome(txn.id, TxnState::kCommitted);
  metrics_.commits.Add(1);
  return Status::OK();
}

Status Occ::Abort(const TxnDescriptor& txn) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = txns_.find(txn.id);
  if (it == txns_.end()) {
    return Status::FailedPrecondition("unknown or finished transaction");
  }
  // Nothing was installed; just forget the transaction.
  txns_.erase(it);
  recorder_.RecordOutcome(txn.id, TxnState::kAborted);
  metrics_.aborts.Add(1);
  return Status::OK();
}

}  // namespace hdd
