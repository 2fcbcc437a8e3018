// Unit tests of the group-commit gate (src/wal/group_commit.h), driven
// with a fake sync instead of a WAL: leader/follower batching, the sticky
// storage failure, and the one per-round predicate, a costly sync, that
// tells the sync to fan out and lets a leader pause for followers if the
// round before released one (under simulation: always pause, never fan
// out, with nothing timed). Timing is asserted only as a lower bound, the
// share of paused rounds as a proportion, and a cheap round only after a
// wait the test itself timed as shorter than the pause, so a preempted
// thread cannot make a test fail.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
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

/// The leader's pile-in pause (kPileInPause in group_commit.cc).
constexpr microseconds kPause{100};

/// Stands in for a WAL: Append draws the next ticket, Sync covers every
/// ticket drawn so far after sleeping `sync_cost`, or fails when told to.
/// It keeps each sync's `fan_out` argument, and can run a hook at the end
/// of each sync (on the leader's thread; leaders take turns, so the hook
/// needs no lock of its own).
class FakeLog {
 public:
  explicit FakeLog(microseconds sync_cost = microseconds(0))
      : sync_cost_(sync_cost) {}

  std::uint64_t Append() { return appended_.fetch_add(1) + 1; }

  Status Await(GroupCommit& gate, std::uint64_t ticket) {
    return gate.AwaitDurable(
        ticket, [this](bool fan_out) { return Sync(fan_out); },
        [] { return std::uint64_t{0}; });
  }

  void FailSyncs() { fail_ = true; }
  void OnSync(std::function<void()> hook) { on_sync_ = std::move(hook); }
  std::uint64_t syncs() const { return syncs_.load(); }
  /// The `fan_out` argument of every sync so far, in order.
  std::vector<bool> fan_outs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fan_outs_;
  }

 private:
  Result<SyncBatch> Sync(bool fan_out) {
    syncs_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      fan_outs_.push_back(fan_out);
    }
    SyncBatch batch;
    batch.stable_ticket = appended_.load();
    if (sync_cost_.count() > 0) std::this_thread::sleep_for(sync_cost_);
    if (on_sync_) on_sync_();
    if (fail_) return Status::IoError("injected sync failure");
    return batch;
  }

  const microseconds sync_cost_;
  std::atomic<bool> fail_{false};
  std::atomic<std::uint64_t> appended_{0};
  std::atomic<std::uint64_t> syncs_{0};
  std::function<void()> on_sync_;
  mutable std::mutex mu_;
  std::vector<bool> fan_outs_;
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

TEST(GroupCommit, CostlySyncWithFollowersPausesEveryRound) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 20;
  constexpr microseconds kSyncCost = 2 * kPause;
  WalMetrics metrics;
  GroupCommit gate({}, &metrics);
  FakeLog log(kSyncCost);
  // At the end of each round's sync: the pauses of the rounds before it,
  // and the followers waiting. A follower waiting then is still waiting
  // when the leader publishes, so that round released one.
  std::vector<std::uint64_t> pauses_before;
  std::vector<int> followers;
  log.OnSync([&] {
    pauses_before.push_back(metrics.group_commit_pauses.Value());
    followers.push_back(gate.followers());
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        EXPECT_TRUE(log.Await(gate, log.Append()).ok());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::size_t rounds = followers.size();
  ASSERT_EQ(rounds, metrics.group_commit_batches.Value());
  pauses_before.push_back(metrics.group_commit_pauses.Value());
  std::size_t followed = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    const bool paused = pauses_before[r + 1] > pauses_before[r];
    if (r == 0) {
      EXPECT_TRUE(paused) << "the first round pauses";
    } else if (followers[r - 1] > 0) {
      ++followed;
      EXPECT_TRUE(paused) << "round " << r << " follows a round with "
                          << followers[r - 1] << " followers";
    }
  }
  // Most rounds have followers, so the assertion above is not vacuous.
  EXPECT_GE(followed, rounds / 2);
}

TEST(GroupCommit, LoneWaiterPausesOnlyItsFirstRound) {
  constexpr std::uint64_t kRounds = 20;
  constexpr microseconds kSyncCost = 2 * kPause;
  WalMetrics metrics;
  GroupCommit gate({}, &metrics);
  FakeLog log(kSyncCost);
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    ASSERT_TRUE(log.Await(gate, log.Append()).ok());
  }
  // No round has a follower, so no one can pile in after the first.
  EXPECT_EQ(metrics.group_commit_batches.Value(), kRounds);
  EXPECT_EQ(metrics.group_commit_pauses.Value(), 1u);
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

TEST(GroupCommit, SyncAllIsToldToFanOutOnlyWhenCostly) {
  constexpr int kRounds = 50;
  {
    // Free syncs: only the first round, for which no sync was timed yet,
    // fans out. A round is checked only after a wait shorter than the
    // pause, as the gate's own timing of that round's sync was shorter.
    WalMetrics metrics;
    GroupCommit gate({}, &metrics);
    FakeLog log;
    std::vector<bool> short_wait;
    for (int r = 0; r < kRounds; ++r) {
      const Clock::time_point start = Clock::now();
      ASSERT_TRUE(log.Await(gate, log.Append()).ok());
      short_wait.push_back(Clock::now() - start < kPause);
    }
    const std::vector<bool> fan_outs = log.fan_outs();
    ASSERT_EQ(fan_outs.size(), std::size_t{kRounds});
    EXPECT_TRUE(fan_outs[0]);
    int checked = 0;
    for (int r = 1; r < kRounds; ++r) {
      if (!short_wait[r - 1]) continue;
      ++checked;
      EXPECT_FALSE(fan_outs[r]) << "round " << r;
    }
    EXPECT_GE(checked, kRounds / 2);
  }
  {
    // A sync of twice the pause makes every round costly.
    WalMetrics metrics;
    GroupCommit gate({}, &metrics);
    FakeLog log(2 * kPause);
    for (int r = 0; r < 5; ++r) {
      ASSERT_TRUE(log.Await(gate, log.Append()).ok());
    }
    EXPECT_EQ(log.fan_outs(), std::vector<bool>(5, true));
  }
  {
    // A simulated leader's sync stays serial, first round included.
    WalMetrics metrics;
    GroupCommit gate({}, &metrics);
    FakeLog log(2 * kPause);
    CountingSimHook hook;
    ThreadSimHook() = &hook;
    for (int r = 0; r < 5; ++r) {
      EXPECT_TRUE(log.Await(gate, log.Append()).ok());
    }
    ThreadSimHook() = nullptr;
    EXPECT_EQ(log.fan_outs(), std::vector<bool>(5, false));
  }
}

}  // namespace
}  // namespace hdd
