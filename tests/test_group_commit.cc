// Unit tests of the group-commit gate (src/wal/group_commit.h), driven
// with a fake sync instead of a WAL: leader/follower batching, the sticky
// storage failure, and the rule that a leader pauses for followers only
// while a sync costs at least the pause (under simulation: always, with
// nothing timed). Timing is asserted only as a lower bound, and the share
// of paused rounds as a proportion, so a preempted thread cannot make a
// test fail.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/sim_hook.h"
#include "common/status.h"
#include "wal/group_commit.h"

namespace hdd {
namespace {

using std::chrono::microseconds;
using Clock = std::chrono::steady_clock;

/// The leader's pile-in pause (kPileInPause in group_commit.cc).
constexpr microseconds kPause{100};

/// Stands in for a WAL: Append draws the next ticket, Sync covers every
/// ticket drawn so far after sleeping `sync_cost`, or fails when told to.
class FakeLog {
 public:
  explicit FakeLog(microseconds sync_cost = microseconds(0))
      : sync_cost_(sync_cost) {}

  std::uint64_t Append() { return appended_.fetch_add(1) + 1; }

  Status Await(GroupCommit& gate, std::uint64_t ticket) {
    return gate.AwaitDurable(
        ticket, [this] { return Sync(); }, [] { return std::uint64_t{0}; });
  }

  void FailSyncs() { fail_ = true; }
  std::uint64_t syncs() const { return syncs_.load(); }

 private:
  Result<SyncBatch> Sync() {
    syncs_.fetch_add(1);
    SyncBatch batch;
    batch.stable_ticket = appended_.load();
    if (sync_cost_.count() > 0) std::this_thread::sleep_for(sync_cost_);
    if (fail_) return Status::IoError("injected sync failure");
    return batch;
  }

  const microseconds sync_cost_;
  std::atomic<bool> fail_{false};
  std::atomic<std::uint64_t> appended_{0};
  std::atomic<std::uint64_t> syncs_{0};
};

TEST(GroupCommit, ConcurrentWaitersShareSyncs) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  WalMetrics metrics;
  GroupCommit gate({}, &metrics);
  FakeLog log(2 * kPause);
  std::atomic<int> failed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        if (!log.Await(gate, log.Append()).ok()) failed.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failed.load(), 0);
  EXPECT_LT(log.syncs(), std::uint64_t{kThreads * kRounds});
  EXPECT_EQ(metrics.group_commit_batches.Value(), log.syncs());
  EXPECT_EQ(gate.stable_ticket(), std::uint64_t{kThreads * kRounds});
}

TEST(GroupCommit, FailedSyncFailsEveryCurrentAndLaterWaiter) {
  constexpr int kThreads = 6;
  WalMetrics metrics;
  GroupCommit gate({}, &metrics);
  FakeLog log(2 * kPause);
  log.FailSyncs();
  std::atomic<int> failed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const Status status = log.Await(gate, log.Append());
      if (status.code() == StatusCode::kIoError) failed.fetch_add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failed.load(), kThreads);

  // The failure is sticky: a later waiter fails without another sync,
  // even for a ticket the gate never had to cover.
  EXPECT_EQ(log.Await(gate, log.Append()).code(), StatusCode::kIoError);
  EXPECT_EQ(log.Await(gate, 0).code(), StatusCode::kIoError);
  EXPECT_EQ(log.syncs(), 1u);
  EXPECT_EQ(gate.stable_ticket(), 0u);
}

TEST(GroupCommit, FirstRoundPauses) {
  WalMetrics metrics;
  GroupCommit gate({}, &metrics);
  FakeLog log;
  const Clock::time_point start = Clock::now();
  ASSERT_TRUE(log.Await(gate, log.Append()).ok());
  EXPECT_GE(Clock::now() - start, kPause);
  EXPECT_EQ(metrics.group_commit_pauses.Value(), 1u);
  EXPECT_EQ(metrics.group_commit_batches.Value(), 1u);
}

TEST(GroupCommit, FreeSyncRarelyPauses) {
  constexpr std::uint64_t kRounds = 200;
  WalMetrics metrics;
  GroupCommit gate({}, &metrics);
  FakeLog log;
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    ASSERT_TRUE(log.Await(gate, log.Append()).ok());
  }
  EXPECT_EQ(metrics.group_commit_batches.Value(), kRounds);
  // The first round pauses; after it only a sync preempted for longer than
  // the pause makes the next round pause.
  EXPECT_GE(metrics.group_commit_pauses.Value(), 1u);
  EXPECT_LE(metrics.group_commit_pauses.Value(), kRounds / 10);
}

TEST(GroupCommit, CostlySyncPausesEveryRound) {
  constexpr std::uint64_t kRounds = 20;
  constexpr microseconds kSyncCost = 2 * kPause;
  WalMetrics metrics;
  GroupCommit gate({}, &metrics);
  FakeLog log(kSyncCost);
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    const Clock::time_point start = Clock::now();
    ASSERT_TRUE(log.Await(gate, log.Append()).ok());
    EXPECT_GE(Clock::now() - start, kPause + kSyncCost) << "round " << r;
  }
  EXPECT_EQ(metrics.group_commit_batches.Value(), kRounds);
  EXPECT_EQ(metrics.group_commit_pauses.Value(), kRounds);
}

/// Counts the reschedules a simulated pause makes; a lone thread never
/// blocks, so the other hooks have nothing to do.
class CountingSimHook : public SimHook {
 public:
  void Yield(const char*, bool) override { ++yields; }
  void BlockOn(const void*, std::unique_lock<std::mutex>&) override {}
  void NotifyAll(const void*) override {}
  int yields = 0;
};

TEST(GroupCommit, SimulatedLeaderAlwaysPausesAndTimesNothing) {
  constexpr int kRounds = 10;
  WalMetrics metrics;
  GroupCommit gate({}, &metrics);
  FakeLog log;
  CountingSimHook hook;
  ThreadSimHook() = &hook;
  for (int r = 0; r < kRounds; ++r) {
    EXPECT_TRUE(log.Await(gate, log.Append()).ok());
  }
  ThreadSimHook() = nullptr;
  EXPECT_EQ(hook.yields, kRounds);
  EXPECT_EQ(metrics.group_commit_pauses.Value(), std::uint64_t{kRounds});

  // No simulated sync was timed, so the first real round still pauses.
  ASSERT_TRUE(log.Await(gate, log.Append()).ok());
  EXPECT_EQ(metrics.group_commit_pauses.Value(), std::uint64_t{kRounds + 1});
}

}  // namespace
}  // namespace hdd
