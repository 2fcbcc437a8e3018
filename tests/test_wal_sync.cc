// Tests of the WAL's sync path below the group-commit gate: a round over
// a storage whose syncs run at once overlaps its per-log fsyncs on the
// leader and helper threads (WalManager, "Overlapped rounds"), a round
// over SimWalStorage stays on the waiting thread, a failed sync fails the
// round and every later wait, and FileWalStorage runs calls on different
// files concurrently. Like tests/held_sync_storage.h, the WalManager tests
// use an in-memory storage whose Sync blocks, here until enough syncs are
// inside it at once.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "wal/log_format.h"
#include "wal/wal_manager.h"
#include "wal/wal_storage.h"

namespace hdd {
namespace {

constexpr int kSegments = 4;

/// An in-memory storage that records which thread ran each Sync and, like
/// a file system, reports that syncs of different files run at once. While
/// armed with `overlap`, a Sync waits until that many syncs have entered
/// (up to 5 s, then it fails), and the sync of `fail_name` then fails.
class OverlapStorage : public SimWalStorage {
 public:
  bool ConcurrentSyncs() const override { return true; }

  void Arm(int overlap, std::string fail_name = "") {
    std::lock_guard<std::mutex> lock(mu_);
    overlap_ = overlap;
    entered_ = 0;
    fail_name_ = std::move(fail_name);
  }
  void Disarm() { Arm(0); }

  Status Sync(const std::string& name) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      sync_threads_.push_back(std::this_thread::get_id());
      ++in_sync_;
      ++entered_;
      cv_.notify_all();
      if (overlap_ > 0) {
        const bool met = cv_.wait_for(lock, std::chrono::seconds(5), [this] {
          return entered_ >= overlap_;
        });
        if (!met || name == fail_name_) {
          --in_sync_;
          return Status::IoError(met ? "injected sync failure on " + name
                                     : "syncs did not overlap");
        }
      }
    }
    const Status status = SimWalStorage::Sync(name);
    std::lock_guard<std::mutex> lock(mu_);
    --in_sync_;
    return status;
  }

  /// Threads that ran a Sync since the last call, in order.
  std::vector<std::thread::id> TakeSyncThreads() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(sync_threads_, {});
  }
  int in_sync() {
    std::lock_guard<std::mutex> lock(mu_);
    return in_sync_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int overlap_ = 0;
  int entered_ = 0;
  int in_sync_ = 0;
  std::string fail_name_;
  std::vector<std::thread::id> sync_threads_;
};

std::unique_ptr<WalManager> OpenWal(WalStorage* storage) {
  auto wal = WalManager::Open(storage, kSegments);
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  return wal.ok() ? std::move(*wal) : nullptr;
}

/// Dirties segments 0..2 with one record each; returns the last ticket.
std::uint64_t DirtyThreeLogs(WalManager& wal, TxnId txn) {
  EXPECT_TRUE(wal.LogWrite(0, txn, 1, 0, 1).ok());
  EXPECT_TRUE(wal.LogWrite(1, txn, 1, 0, 2).ok());
  const auto commit = wal.LogCommit(2, txn, 1, {2});
  EXPECT_TRUE(commit.ok());
  return commit.ok() ? *commit : 0;
}

TEST(WalSync, EveryRoundOverlapsItsSyncs) {
  constexpr int kRounds = 3;
  OverlapStorage storage;
  auto wal = OpenWal(&storage);
  ASSERT_NE(wal, nullptr);
  // Each round's three syncs run at once, the first round's included;
  // serial syncs would each wait out the storage's bound and fail.
  for (int r = 0; r < kRounds; ++r) {
    storage.Arm(3);
    const std::uint64_t ticket =
        DirtyThreeLogs(*wal, static_cast<TxnId>(r + 1));
    ASSERT_TRUE(wal->WaitDurable(ticket).ok()) << "round " << r;
    const std::vector<std::thread::id> threads = storage.TakeSyncThreads();
    EXPECT_EQ(
        std::set<std::thread::id>(threads.begin(), threads.end()).size(), 3u)
        << "round " << r;
  }
  EXPECT_EQ(wal->metrics().fsyncs.Value(), std::uint64_t{3 * kRounds});
  EXPECT_EQ(wal->StableTicket(), wal->CurrentTicket());
  EXPECT_EQ(storage.BufferedBytes(), 0u);
}

/// SimWalStorage as the simulator and the shards use it, whose Sync also
/// records its thread and lingers up to 50 ms for a second sync to join
/// it, so a round that handed logs to helper threads shows two at once.
class LingeringSyncStorage : public SimWalStorage {
 public:
  Status Sync(const std::string& name) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      sync_threads_.push_back(std::this_thread::get_id());
      max_in_sync_ = std::max(max_in_sync_, ++in_sync_);
      cv_.notify_all();
      cv_.wait_for(lock, std::chrono::milliseconds(50),
                   [this] { return in_sync_ > 1; });
    }
    const Status status = SimWalStorage::Sync(name);
    std::lock_guard<std::mutex> lock(mu_);
    --in_sync_;
    return status;
  }

  std::vector<std::thread::id> TakeSyncThreads() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(sync_threads_, {});
  }
  int max_in_sync() {
    std::lock_guard<std::mutex> lock(mu_);
    return max_in_sync_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int in_sync_ = 0;
  int max_in_sync_ = 0;
  std::vector<std::thread::id> sync_threads_;
};

TEST(WalSync, InMemoryWalSyncsOnTheWaitingThread) {
  constexpr int kRounds = 2;
  EXPECT_FALSE(SimWalStorage{}.ConcurrentSyncs());
  LingeringSyncStorage storage;
  auto wal = OpenWal(&storage);
  ASSERT_NE(wal, nullptr);
  // Every dirty log is synced by the thread that waits, one at a time,
  // the first round included: an in-memory WAL starts no helper.
  for (int r = 0; r < kRounds; ++r) {
    const std::uint64_t ticket =
        DirtyThreeLogs(*wal, static_cast<TxnId>(r + 1));
    ASSERT_TRUE(wal->WaitDurable(ticket).ok());
    const std::vector<std::thread::id> threads = storage.TakeSyncThreads();
    EXPECT_EQ(threads.size(), 3u) << "round " << r;
    for (const std::thread::id id : threads) {
      EXPECT_EQ(id, std::this_thread::get_id()) << "round " << r;
    }
  }
  EXPECT_EQ(storage.max_in_sync(), 1);
  EXPECT_EQ(wal->StableTicket(), wal->CurrentTicket());
}

TEST(WalSync, FailedSyncFailsTheRoundAndEveryLaterWait) {
  OverlapStorage storage;
  storage.Arm(3, SegmentLogName(1));
  auto wal = OpenWal(&storage);
  ASSERT_NE(wal, nullptr);
  const std::uint64_t ticket = DirtyThreeLogs(*wal, 1);

  EXPECT_EQ(wal->WaitDurable(ticket).code(), StatusCode::kIoError);
  // The three syncs overlapped, and the round ended only after every sync
  // it handed out had returned.
  const std::vector<std::thread::id> threads = storage.TakeSyncThreads();
  EXPECT_EQ(std::set<std::thread::id>(threads.begin(), threads.end()).size(),
            3u);
  EXPECT_EQ(storage.in_sync(), 0);
  EXPECT_EQ(wal->StableTicket(), 0u);

  // The failure is sticky: later waits fail without syncing.
  storage.Disarm();
  const auto later = wal->LogWrite(3, 2, 2, 0, 3);
  ASSERT_TRUE(later.ok());
  EXPECT_EQ(wal->WaitDurable(*later).code(), StatusCode::kIoError);
  EXPECT_EQ(wal->AwaitReadStable().code(), StatusCode::kIoError);
  EXPECT_TRUE(storage.TakeSyncThreads().empty());

  // The destructor joins every helper: none is left inside a sync.
  wal.reset();
  EXPECT_EQ(storage.in_sync(), 0);
}

/// Frame payload `i` of writer `w`: its identity plus a length that varies
/// from frame to frame, so an interleaved or torn write cannot go unseen.
std::string Payload(int w, int i) {
  std::string payload = std::to_string(w) + ":" + std::to_string(i) + ":";
  payload.append(static_cast<std::size_t>(16 + (i * 37) % 200),
                 static_cast<char>('a' + w));
  return payload;
}

TEST(FileWalStorageConcurrency, ConcurrentAppendsSyncsAndOpensKeepEveryFrame) {
  constexpr int kWriters = 4;
  constexpr int kFrames = 400;
  constexpr int kSyncEvery = 10;
  constexpr int kNewNames = 200;
  char dir_template[] = "hdd_walsync.XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr) << std::strerror(errno);
  const std::string dir = dir_template;
  {
    FileWalStorage storage(dir);
    EXPECT_TRUE(storage.ConcurrentSyncs());
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&storage, w] {
        const std::string name = SegmentLogName(w);
        for (int i = 0; i < kFrames; ++i) {
          std::string frame;
          AppendFrame(&frame, Payload(w, i));
          EXPECT_TRUE(storage.Append(name, frame).ok());
          if (i % kSyncEvery == kSyncEvery - 1) {
            EXPECT_TRUE(storage.Sync(name).ok());
          }
        }
      });
    }
    // Opening a name inserts into the descriptor map the writers read.
    threads.emplace_back([&storage] {
      for (int n = 0; n < kNewNames; ++n) {
        const std::string name = SegmentCheckpointName(kSegments + n);
        const auto size = storage.Size(name);
        EXPECT_TRUE(size.ok() && *size == 0) << name;
      }
    });
    for (std::thread& thread : threads) thread.join();

    for (int w = 0; w < kWriters; ++w) {
      const auto data = storage.Read(SegmentLogName(w));
      ASSERT_TRUE(data.ok());
      const auto scan = ScanFrames(*data);
      ASSERT_TRUE(scan.ok()) << scan.status().ToString();
      EXPECT_FALSE(scan->torn_tail);
      EXPECT_EQ(scan->valid_end, data->size());
      ASSERT_EQ(scan->frames.size(), std::size_t{kFrames});
      for (int i = 0; i < kFrames; ++i) {
        EXPECT_EQ(scan->frames[static_cast<std::size_t>(i)].payload,
                  Payload(w, i))
            << "writer " << w << " frame " << i;
      }
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace hdd
