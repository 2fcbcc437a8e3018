// Unit tests of the group-commit gate (src/wal/group_commit.h), driven
// with a fake sync instead of a WAL: leader/follower batching, the sticky
// storage failure, a real-time leader that syncs as soon as it takes the
// role, and a simulated one that reschedules once per round. Timing is
// asserted only as a share of rounds, so a preempted thread cannot make a
// test fail.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/sim_hook.h"
#include "common/status.h"
#include "wal/group_commit.h"

namespace hdd {
namespace {

using std::chrono::microseconds;
using Clock = std::chrono::steady_clock;

/// The pile-in pause a simulated leader takes (kPileInPause in
/// group_commit.cc); a real-time leader takes none.
constexpr microseconds kPause{100};

/// Stands in for a WAL: Append draws the next ticket, Sync covers every
/// ticket drawn so far after sleeping `sync_cost`, or fails when told to.
/// It keeps when each sync started and ended (leaders take turns, so the
/// syncs never overlap).
class FakeLog {
 public:
  explicit FakeLog(microseconds sync_cost = microseconds(0))
      : sync_cost_(sync_cost) {}

  std::uint64_t Append() { return appended_.fetch_add(1) + 1; }

  Status Await(GroupCommit& gate, std::uint64_t ticket) {
    return gate.AwaitDurable(ticket, [this] { return Sync(); });
  }

  void FailSyncs() { fail_ = true; }
  std::uint64_t syncs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  /// The start and end of every sync so far, in order.
  std::vector<std::pair<Clock::time_point, Clock::time_point>> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  Result<SyncBatch> Sync() {
    const Clock::time_point start = Clock::now();
    SyncBatch batch;
    batch.stable_ticket = appended_.load();
    if (sync_cost_.count() > 0) std::this_thread::sleep_for(sync_cost_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      spans_.emplace_back(start, Clock::now());
    }
    if (fail_) return Status::IoError("injected sync failure");
    return batch;
  }

  const microseconds sync_cost_;
  std::atomic<bool> fail_{false};
  std::atomic<std::uint64_t> appended_{0};
  mutable std::mutex mu_;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> spans_;
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

TEST(GroupCommit, FollowersDoNotWaitOutAPause) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 20;
  WalMetrics metrics;
  GroupCommit gate({}, &metrics);
  FakeLog log(2 * kPause);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        EXPECT_TRUE(log.Await(gate, log.Append()).ok());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Waiters queue up during each sync, so the next leader takes the role
  // as soon as the last one publishes; a leader that paused first would
  // start its sync at least the pause after the last one ended.
  const auto spans = log.spans();
  ASSERT_EQ(spans.size(), metrics.group_commit_batches.Value());
  ASSERT_GE(spans.size(), 2u);
  std::size_t prompt = 0;
  for (std::size_t r = 1; r < spans.size(); ++r) {
    if (spans[r].first - spans[r - 1].second < kPause) ++prompt;
  }
  EXPECT_GE(prompt, (spans.size() - 1) / 2)
      << prompt << " of " << spans.size() - 1 << " rounds started promptly";
  EXPECT_EQ(gate.stable_ticket(), std::uint64_t{kThreads * kRounds});
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

TEST(GroupCommit, SimulatedLeaderReschedulesOncePerRound) {
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
  EXPECT_EQ(metrics.group_commit_batches.Value(), std::uint64_t{kRounds});

  // Outside the simulation a leader yields nowhere.
  ASSERT_TRUE(log.Await(gate, log.Append()).ok());
  EXPECT_EQ(hook.yields, kRounds);
  EXPECT_EQ(metrics.group_commit_batches.Value(), std::uint64_t{kRounds + 1});
}

}  // namespace
}  // namespace hdd
