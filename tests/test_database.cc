#include "storage/database.h"

#include <gtest/gtest.h>

namespace hdd {
namespace {

TEST(DatabaseTest, NamedSegments) {
  Database db({"events", "inventory"}, 4, 7);
  EXPECT_EQ(db.num_segments(), 2);
  EXPECT_EQ(db.segment(0).name(), "events");
  EXPECT_EQ(db.segment(1).name(), "inventory");
  EXPECT_EQ(db.segment(0).size(), 4u);
  EXPECT_EQ(db.granule({0, 3}).LatestCommitted()->value, 7);
}

TEST(DatabaseTest, NumberedSegments) {
  Database db(3, 2);
  EXPECT_EQ(db.num_segments(), 3);
  EXPECT_EQ(db.segment(2).name(), "D2");
}

TEST(DatabaseTest, ValidateRef) {
  Database db(2, 3);
  EXPECT_TRUE(db.Validate({0, 0}).ok());
  EXPECT_TRUE(db.Validate({1, 2}).ok());
  EXPECT_FALSE(db.Validate({2, 0}).ok());
  EXPECT_FALSE(db.Validate({-1, 0}).ok());
  EXPECT_FALSE(db.Validate({0, 3}).ok());
}

TEST(DatabaseTest, AllocateExtendsSegment) {
  Database db(1, 1);
  const std::uint32_t idx = db.segment(0).Allocate(55);
  EXPECT_EQ(idx, 1u);
  EXPECT_TRUE(db.Validate({0, idx}).ok());
  EXPECT_EQ(db.granule({0, idx}).LatestCommitted()->value, 55);
}

TEST(DatabaseTest, AllocateKeepsExistingGranuleAddressesStable) {
  Database db(1, 2);
  Granule* before = &db.granule({0, 0});
  for (int i = 0; i < 1000; ++i) db.segment(0).Allocate(0);
  EXPECT_EQ(before, &db.granule({0, 0}));
}

TEST(DatabaseTest, TotalVersionsCountsChains) {
  Database db(2, 2);
  EXPECT_EQ(db.TotalVersions(), 4u);
  Version v;
  v.order_key = 5;
  v.wts = 5;
  v.creator = 1;
  v.committed = true;
  ASSERT_TRUE(db.granule({0, 0}).Insert(v).ok());
  EXPECT_EQ(db.TotalVersions(), 5u);
}

TEST(DatabaseTest, CollectGarbageAcrossSegments) {
  Database db(2, 1);
  for (SegmentId s = 0; s < 2; ++s) {
    for (Timestamp ts = 10; ts <= 30; ts += 10) {
      Version v;
      v.order_key = ts;
      v.wts = ts;
      v.creator = ts;
      v.committed = true;
      ASSERT_TRUE(db.granule({s, 0}).Insert(v).ok());
    }
  }
  EXPECT_EQ(db.TotalVersions(), 8u);
  // Horizon 100: keep only the newest committed version per granule.
  EXPECT_EQ(db.CollectGarbageSegment(0, 100), 3u);
  EXPECT_EQ(db.CollectGarbageSegment(1, 100), 3u);
  EXPECT_EQ(db.TotalVersions(), 2u);
}

}  // namespace
}  // namespace hdd
