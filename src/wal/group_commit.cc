#include "wal/group_commit.h"

#include <algorithm>

#include "common/sim_hook.h"
#include "obs/trace.h"

namespace hdd {

Status GroupCommit::AwaitDurable(
    std::uint64_t ticket, const std::function<Result<SyncBatch>()>& sync_all,
    const std::function<std::uint64_t()>& pending_bytes) {
  if (params_.mode == WalSyncMode::kNone) return Status::OK();

  if (params_.mode == WalSyncMode::kPerCommit) {
    // The baseline everyone pays without group commit: one (serialized)
    // fsync round per committing transaction, durable or not already.
    std::lock_guard<std::mutex> sync_lock(per_commit_mu_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      HDD_RETURN_IF_ERROR(error_);
    }
    Result<SyncBatch> batch = [&] {
      HDD_TRACE_SPAN("wal", "per_commit_flush");
      return sync_all();
    }();
    std::lock_guard<std::mutex> lock(mu_);
    if (!batch.ok()) {
      error_ = batch.status();
      return error_;
    }
    stable_ = std::max(stable_, batch->stable_ticket);
    metrics_->ObserveBatch(std::max<std::uint64_t>(1, batch->commits_covered));
    return stable_ >= ticket
               ? Status::OK()
               : Status::Internal("sync batch did not cover own ticket");
  }

  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    HDD_RETURN_IF_ERROR(error_);
    if (stable_ >= ticket) return Status::OK();
    if (!leader_active_) {
      leader_active_ = true;
      lock.unlock();
      // Let followers pile in before paying the fsync — unless enough
      // bytes already wait. Under simulation this is one deterministic
      // reschedule; in real time it is the configured flush interval.
      if (params_.flush_interval.count() > 0 &&
          pending_bytes() < params_.flush_bytes) {
        SimSleep(params_.flush_interval);
      }
      Result<SyncBatch> batch = [&] {
        HDD_TRACE_SPAN("wal", "group_commit_flush");
        return sync_all();
      }();
      lock.lock();
      leader_active_ = false;
      if (!batch.ok()) {
        error_ = batch.status();
        SimNotifyAll(cv_, this);
        return error_;
      }
      stable_ = std::max(stable_, batch->stable_ticket);
      metrics_->ObserveBatch(
          std::max<std::uint64_t>(1, batch->commits_covered));
      SimNotifyAll(cv_, this);
      continue;  // re-check own ticket (a racing append may outrun a batch)
    }
    SimWait(cv_, lock, this);
  }
}

std::uint64_t GroupCommit::stable_ticket() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stable_;
}

}  // namespace hdd
