#include "cc/occ.h"

#include <gtest/gtest.h>

#include "txn/dependency_graph.h"

namespace hdd {
namespace {

constexpr GranuleRef kX{0, 0};
constexpr GranuleRef kY{0, 1};

class OccTest : public ::testing::Test {
 protected:
  OccTest() : db_(1, 4, 0) {}

  Database db_;
  LogicalClock clock_;
};

TEST_F(OccTest, ReadWriteCommit) {
  Occ cc(&db_, &clock_);
  auto txn = cc.Begin({});
  ASSERT_TRUE(cc.Write(*txn, kX, 7).ok());
  auto value = cc.Read(*txn, kX);  // own buffered write
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 7);
  ASSERT_TRUE(cc.Commit(*txn).ok());

  auto later = cc.Begin({});
  auto later_value = cc.Read(*later, kX);
  ASSERT_TRUE(later_value.ok());
  EXPECT_EQ(*later_value, 7);
  ASSERT_TRUE(cc.Commit(*later).ok());
}

TEST_F(OccTest, WritesInvisibleUntilCommit) {
  Occ cc(&db_, &clock_);
  auto writer = cc.Begin({});
  ASSERT_TRUE(cc.Write(*writer, kX, 5).ok());
  auto reader = cc.Begin({});
  auto value = cc.Read(*reader, kX);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 0);  // nothing installed yet
  ASSERT_TRUE(cc.Commit(*reader).ok());
  ASSERT_TRUE(cc.Commit(*writer).ok());
}

TEST_F(OccTest, ValidationAbortsStaleReader) {
  Occ cc(&db_, &clock_);
  auto t1 = cc.Begin({});
  ASSERT_TRUE(cc.Read(*t1, kX).ok());
  // t2 commits a write to x while t1 is still running.
  auto t2 = cc.Begin({});
  ASSERT_TRUE(cc.Write(*t2, kX, 9).ok());
  ASSERT_TRUE(cc.Commit(*t2).ok());
  // t1's read is now stale: validation must abort it.
  EXPECT_EQ(cc.Commit(*t1).code(), StatusCode::kAborted);
  EXPECT_TRUE(CheckSerializability(cc.recorder()).serializable);
}

TEST_F(OccTest, ReadOfVersionCommittedAfterBeginAborts) {
  // t1 reads x, then y after t2 committed both: serving t2's y next to the
  // pre-t2 x would hand t1's body a state no serial order produces.
  Occ cc(&db_, &clock_);
  auto t1 = cc.Begin({});
  ASSERT_TRUE(cc.Read(*t1, kX).ok());
  auto t2 = cc.Begin({});
  ASSERT_TRUE(cc.Write(*t2, kX, 4).ok());
  ASSERT_TRUE(cc.Write(*t2, kY, 4).ok());
  ASSERT_TRUE(cc.Commit(*t2).ok());
  EXPECT_EQ(cc.Read(*t1, kY).status().code(), StatusCode::kAborted);
  ASSERT_TRUE(cc.Abort(*t1).ok());
  EXPECT_TRUE(CheckSerializability(cc.recorder()).serializable);
}

TEST_F(OccTest, DisjointConcurrentTxnsBothCommit) {
  Occ cc(&db_, &clock_);
  auto t1 = cc.Begin({});
  auto t2 = cc.Begin({});
  ASSERT_TRUE(cc.Read(*t1, kX).ok());
  ASSERT_TRUE(cc.Write(*t1, kX, 1).ok());
  ASSERT_TRUE(cc.Read(*t2, kY).ok());
  ASSERT_TRUE(cc.Write(*t2, kY, 2).ok());
  EXPECT_TRUE(cc.Commit(*t1).ok());
  EXPECT_TRUE(cc.Commit(*t2).ok());
  EXPECT_TRUE(CheckSerializability(cc.recorder()).serializable);
}

TEST_F(OccTest, LostUpdatePrevented) {
  // The Figure 1 race: both read, both write; the second to commit must
  // fail validation.
  Occ cc(&db_, &clock_);
  auto t1 = cc.Begin({});
  auto t2 = cc.Begin({});
  ASSERT_TRUE(cc.Read(*t1, kX).ok());
  ASSERT_TRUE(cc.Read(*t2, kX).ok());
  ASSERT_TRUE(cc.Write(*t1, kX, 50).ok());
  ASSERT_TRUE(cc.Write(*t2, kX, -50).ok());
  EXPECT_TRUE(cc.Commit(*t1).ok());
  EXPECT_EQ(cc.Commit(*t2).code(), StatusCode::kAborted);
  EXPECT_TRUE(CheckSerializability(cc.recorder()).serializable);
}

TEST_F(OccTest, NoReadRegistrationEver) {
  Occ cc(&db_, &clock_);
  auto txn = cc.Begin({});
  ASSERT_TRUE(cc.Read(*txn, kX).ok());
  ASSERT_TRUE(cc.Read(*txn, kY).ok());
  ASSERT_TRUE(cc.Commit(*txn).ok());
  EXPECT_EQ(cc.metrics().read_locks_acquired.load(), 0u);
  EXPECT_EQ(cc.metrics().read_timestamps_written.load(), 0u);
  EXPECT_EQ(cc.metrics().unregistered_reads.load(), 2u);
  EXPECT_EQ(cc.metrics().blocked_reads.load(), 0u);
}

TEST_F(OccTest, AbortedReadsNeverEnterTheSchedule) {
  Occ cc(&db_, &clock_);
  auto txn = cc.Begin({});
  ASSERT_TRUE(cc.Read(*txn, kX).ok());
  ASSERT_TRUE(cc.Abort(*txn).ok());
  EXPECT_TRUE(cc.recorder().steps().empty());
}

TEST_F(OccTest, PrunedHistoryAbortsConservatively) {
  OccOptions options;
  options.history_limit = 2;
  Occ cc(&db_, &clock_, options);
  auto old_txn = cc.Begin({});
  ASSERT_TRUE(cc.Read(*old_txn, kY).ok());
  // Push 3 writer commits through: the oldest record is pruned.
  for (int i = 0; i < 3; ++i) {
    auto w = cc.Begin({});
    ASSERT_TRUE(cc.Write(*w, kX, i).ok());
    ASSERT_TRUE(cc.Commit(*w).ok());
  }
  // old_txn cannot prove its reads valid anymore.
  EXPECT_EQ(cc.Commit(*old_txn).code(), StatusCode::kAborted);
}

TEST_F(OccTest, BlindWritesCommitInOrder) {
  Occ cc(&db_, &clock_);
  auto t1 = cc.Begin({});
  auto t2 = cc.Begin({});
  ASSERT_TRUE(cc.Write(*t1, kX, 1).ok());
  ASSERT_TRUE(cc.Write(*t2, kX, 2).ok());
  EXPECT_TRUE(cc.Commit(*t1).ok());
  EXPECT_TRUE(cc.Commit(*t2).ok());  // blind write: no read to invalidate
  auto reader = cc.Begin({});
  auto value = cc.Read(*reader, kX);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 2);  // last committer wins
  ASSERT_TRUE(cc.Commit(*reader).ok());
  EXPECT_TRUE(CheckSerializability(cc.recorder()).serializable);
}

}  // namespace
}  // namespace hdd
