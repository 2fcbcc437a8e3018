#include "wal/group_commit.h"

#include <algorithm>

#include "common/sim_hook.h"
#include "obs/trace.h"

namespace hdd {
namespace {

/// The leader's pile-in pause, and the unsynced bytes that cut it short.
constexpr std::chrono::microseconds kPileInPause{100};
constexpr std::uint64_t kFlushBytes = 64 * 1024;

}  // namespace

Status GroupCommit::AwaitDurable(
    std::uint64_t ticket,
    const std::function<Result<SyncBatch>(bool fan_out)>& sync_all,
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
      return sync_all(/*fan_out=*/false);
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
      // Under simulation the pause is one deterministic reschedule, taken
      // every round, and the sync stays serial; a simulated leader stores
      // no timing and no follower count, so no trace depends on real time.
      const bool simulated = ThreadSimHook() != nullptr;
      // A costly round is one whose last timed sync took at least the
      // pause: it fans its sync out, and it pauses if the last round had
      // a follower to wait for.
      const bool costly = !simulated && last_sync_ >= kPileInPause;
      const bool pause_pays = simulated || (costly && followed_);
      lock.unlock();
      // Let followers pile in before paying the sync, unless enough bytes
      // already wait.
      const bool pause = pause_pays && pending_bytes() < kFlushBytes;
      if (pause) SimSleep(kPileInPause);
      const auto start = std::chrono::steady_clock::now();
      Result<SyncBatch> batch = [&] {
        HDD_TRACE_SPAN("wal", "group_commit_flush");
        return sync_all(costly);
      }();
      const auto took = std::chrono::steady_clock::now() - start;
      lock.lock();
      leader_active_ = false;
      if (!simulated) {
        last_sync_ = took;
        followed_ = followers_ > 0;
      }
      if (pause) metrics_->group_commit_pauses.Add(1);
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
    ++followers_;
    SimWait(cv_, lock, this);
    --followers_;
  }
}

std::uint64_t GroupCommit::stable_ticket() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stable_;
}

int GroupCommit::followers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return followers_;
}

}  // namespace hdd
