#include "storage/granule.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"

namespace hdd {
namespace {

Version MakeVersion(std::uint64_t order_key, Timestamp wts, TxnId creator,
                    Value value, bool committed) {
  Version v;
  v.order_key = order_key;
  v.wts = wts;
  v.creator = creator;
  v.value = value;
  v.committed = committed;
  return v;
}

TEST(GranuleTest, InitialVersionPresent) {
  Granule g(100);
  EXPECT_EQ(g.num_versions(), 1u);
  const Version* latest = g.LatestCommitted();
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->value, 100);
  EXPECT_EQ(latest->wts, kTimestampMin);
  EXPECT_TRUE(latest->committed);
}

TEST(GranuleTest, InsertKeepsOrder) {
  Granule g(0);
  ASSERT_TRUE(g.Insert(MakeVersion(30, 30, 3, 33, true)).ok());
  ASSERT_TRUE(g.Insert(MakeVersion(10, 10, 1, 11, true)).ok());
  ASSERT_TRUE(g.Insert(MakeVersion(20, 20, 2, 22, true)).ok());
  ASSERT_EQ(g.num_versions(), 4u);
  for (std::size_t i = 0; i + 1 < g.versions().size(); ++i) {
    EXPECT_LT(g.versions()[i].order_key, g.versions()[i + 1].order_key);
  }
}

TEST(GranuleTest, DuplicateOrderKeyRejected) {
  Granule g(0);
  ASSERT_TRUE(g.Insert(MakeVersion(5, 5, 1, 1, true)).ok());
  EXPECT_EQ(g.Insert(MakeVersion(5, 5, 2, 2, true)).code(),
            StatusCode::kAlreadyExists);
}

TEST(GranuleTest, LatestCommittedBeforeBound) {
  Granule g(0);
  g.Insert(MakeVersion(10, 10, 1, 11, true));
  g.Insert(MakeVersion(20, 20, 2, 22, true));
  g.Insert(MakeVersion(30, 30, 3, 33, false));  // uncommitted

  const Version* v = g.LatestCommittedBefore(25);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->value, 22);

  v = g.LatestCommittedBefore(15);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->value, 11);

  // Uncommitted version 30 is invisible even with a high bound.
  v = g.LatestCommittedBefore(100);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->value, 22);
}

TEST(GranuleTest, BoundIsExclusive) {
  Granule g(0);
  g.Insert(MakeVersion(10, 10, 1, 11, true));
  const Version* v = g.LatestCommittedBefore(10);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->wts, kTimestampMin);  // initial version, not wts==10
}

TEST(GranuleTest, VersionBeforeSeesUncommitted) {
  Granule g(0);
  g.Insert(MakeVersion(10, 10, 1, 11, false));
  Version* v = g.VersionBefore(15);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->wts, 10u);
  EXPECT_FALSE(v->committed);
}

TEST(GranuleTest, MaxRtsOfVersionsBefore) {
  Granule g(0);
  Version v1 = MakeVersion(10, 10, 1, 0, true);
  v1.rts = 17;
  g.Insert(v1);
  Version v2 = MakeVersion(20, 20, 2, 0, true);
  v2.rts = 25;
  g.Insert(v2);
  EXPECT_EQ(g.MaxRtsOfVersionsBefore(15), 17u);
  EXPECT_EQ(g.MaxRtsOfVersionsBefore(30), 25u);
  EXPECT_EQ(g.MaxRtsOfVersionsBefore(5), kTimestampMin);
}

TEST(GranuleTest, NextWtsAfter) {
  Granule g(0);
  g.Insert(MakeVersion(10, 10, 1, 0, true));
  g.Insert(MakeVersion(20, 20, 2, 0, true));
  EXPECT_EQ(g.NextWtsAfter(5), 10u);
  EXPECT_EQ(g.NextWtsAfter(10), 20u);
  EXPECT_EQ(g.NextWtsAfter(20), kTimestampInfinity);
}

TEST(GranuleTest, RemoveAbortedVersion) {
  Granule g(0);
  g.Insert(MakeVersion(10, 10, 1, 0, false));
  EXPECT_TRUE(g.Remove(10).ok());
  EXPECT_EQ(g.num_versions(), 1u);
  EXPECT_EQ(g.Remove(10).code(), StatusCode::kNotFound);
}

TEST(GranuleTest, MarkCommitted) {
  Granule g(0);
  g.Insert(MakeVersion(10, 10, 1, 42, false));
  EXPECT_EQ(g.LatestCommittedBefore(100)->value, 0);
  EXPECT_TRUE(g.MarkCommitted(10).ok());
  EXPECT_EQ(g.LatestCommittedBefore(100)->value, 42);
  EXPECT_EQ(g.MarkCommitted(99).code(), StatusCode::kNotFound);
}

TEST(GranuleTest, FindByOrderKey) {
  Granule g(0);
  g.Insert(MakeVersion(10, 10, 7, 1, true));
  ASSERT_NE(g.Find(10), nullptr);
  EXPECT_EQ(g.Find(10)->creator, 7u);
  EXPECT_EQ(g.Find(11), nullptr);
}

TEST(GranulePruneTest, KeepsSnapshotBase) {
  Granule g(0);
  g.Insert(MakeVersion(10, 10, 1, 11, true));
  g.Insert(MakeVersion(20, 20, 2, 22, true));
  g.Insert(MakeVersion(30, 30, 3, 33, true));
  // Horizon 25: base is version 20; versions 0 and 10 go away.
  EXPECT_EQ(g.Prune(25), 2u);
  EXPECT_EQ(g.num_versions(), 2u);
  ASSERT_NE(g.LatestCommittedBefore(25), nullptr);
  EXPECT_EQ(g.LatestCommittedBefore(25)->value, 22);
  EXPECT_EQ(g.LatestCommittedBefore(100)->value, 33);
}

TEST(GranulePruneTest, UncommittedRetained) {
  Granule g(0);
  g.Insert(MakeVersion(10, 10, 1, 11, false));
  g.Insert(MakeVersion(20, 20, 2, 22, true));
  // Base is version 20 (committed); the uncommitted version 10 survives.
  EXPECT_EQ(g.Prune(100), 1u);  // only initial version removed
  EXPECT_EQ(g.num_versions(), 2u);
  EXPECT_NE(g.Find(10), nullptr);
}

TEST(GranulePruneTest, NoOpWithoutBase) {
  Granule g(0);
  g.Insert(MakeVersion(10, 10, 1, 11, true));
  EXPECT_EQ(g.Prune(kTimestampMin), 0u);  // nothing below wts 0
  EXPECT_EQ(g.num_versions(), 2u);
}

TEST(GranulePruneTest, IdempotentAtSameHorizon) {
  Granule g(0);
  g.Insert(MakeVersion(10, 10, 1, 11, true));
  g.Insert(MakeVersion(20, 20, 2, 22, true));
  EXPECT_GT(g.Prune(25), 0u);
  EXPECT_EQ(g.Prune(25), 0u);
}

// Linear references for the chain lookups: the whole-chain scans that
// every lookup ran before wts-ordered chains were binary-searched (the
// first of equal wts wins, as in those scans).
const Version* ScanLatestCommittedBefore(const Granule& g, Timestamp bound) {
  const Version* best = nullptr;
  for (const Version& v : g.versions()) {
    if (v.committed && v.wts < bound &&
        (best == nullptr || v.wts > best->wts)) {
      best = &v;
    }
  }
  return best;
}

const Version* ScanVersionBefore(const Granule& g, Timestamp ts) {
  const Version* best = nullptr;
  for (const Version& v : g.versions()) {
    if (v.wts < ts && (best == nullptr || v.wts > best->wts)) best = &v;
  }
  return best;
}

// The chain shapes the controllers leave behind.
enum class ChainShape {
  kInitTs,  // HDD, MVTO, TO, SDD-1, recovery: order_key == wts == I(t)
  kTwoPl,   // 2PL and serial: write-sequence keys, wts stamped at commit
  kOcc,     // OCC: write-sequence keys, installed with commit stamps
};

// A seeded random chain of `shape` with `n` writes after the initial
// version, uncommitted versions interleaved.
Granule RandomChain(ChainShape shape, int n, Rng& rng) {
  Granule g(-1);
  Timestamp clock = 0;
  std::uint64_t write_key = 1;
  for (int i = 0; i < n; ++i) {
    clock += 1 + rng.NextBounded(3);
    const bool committed = rng.NextBool(0.7);
    const Value value = static_cast<Value>(i);
    switch (shape) {
      case ChainShape::kInitTs:
        EXPECT_TRUE(g.Insert(MakeVersion(clock, clock, i + 1, value,
                                         committed))
                        .ok());
        break;
      case ChainShape::kTwoPl: {
        // Inserted with wts 0; a commit stamps it (the uncommitted tip
        // keeps wts 0).
        const std::uint64_t key = write_key++;
        EXPECT_TRUE(g.Insert(MakeVersion(key, kTimestampMin, i + 1, value,
                                         false))
                        .ok());
        if (committed) {
          Version* v = g.Find(key);
          v->wts = clock;
          v->committed = true;
        }
        break;
      }
      case ChainShape::kOcc: {
        // Commit stamps that sometimes equal the key, sometimes not.
        const std::uint64_t key = write_key++;
        const Timestamp stamp = rng.NextBool(0.3) ? key : clock;
        EXPECT_TRUE(g.Insert(MakeVersion(key, stamp, i + 1, value, true)).ok());
        break;
      }
    }
  }
  return g;
}

// Every bound from below the first version to past the last one.
void ExpectLookupsMatchScan(Granule& g, const std::string& where) {
  Timestamp max_wts = 0;
  for (const Version& v : g.versions()) max_wts = std::max(max_wts, v.wts);
  for (Timestamp bound = 0; bound <= max_wts + 2; ++bound) {
    EXPECT_EQ(g.LatestCommittedBefore(bound),
              ScanLatestCommittedBefore(g, bound))
        << where << " bound " << bound;
    EXPECT_EQ(g.VersionBefore(bound), ScanVersionBefore(g, bound))
        << where << " ts " << bound;
  }
  EXPECT_EQ(g.LatestCommittedBefore(kTimestampInfinity),
            ScanLatestCommittedBefore(g, kTimestampInfinity))
      << where;
  EXPECT_EQ(g.LatestCommitted(),
            ScanLatestCommittedBefore(g, kTimestampInfinity))
      << where;
}

TEST(GranuleSearchTest, LookupsMatchTheLinearScanOnEveryChainShape) {
  for (const ChainShape shape :
       {ChainShape::kInitTs, ChainShape::kTwoPl, ChainShape::kOcc}) {
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      Rng rng(seed);
      const std::string where = "shape " +
                                std::to_string(static_cast<int>(shape)) +
                                " seed " + std::to_string(seed);
      Granule g = RandomChain(
          shape, static_cast<int>(rng.NextBounded(40)), rng);
      ExpectLookupsMatchScan(g, where + " fresh");

      Timestamp max_wts = 0;
      for (const Version& v : g.versions()) max_wts = std::max(max_wts, v.wts);
      g.Prune(static_cast<Timestamp>(rng.NextBounded(max_wts + 2)));
      ExpectLookupsMatchScan(g, where + " pruned");

      for (int r = 0; r < 3 && g.num_versions() > 1; ++r) {
        const std::size_t at = 1 + rng.NextBounded(g.num_versions() - 1);
        ASSERT_TRUE(g.Remove(g.versions()[at].order_key).ok());
      }
      ExpectLookupsMatchScan(g, where + " removed");

      Granule restored(0);
      ASSERT_TRUE(restored.RestoreVersions(g.versions()).ok());
      ExpectLookupsMatchScan(restored, where + " restored");
    }
  }
}

TEST(GranuleSearchTest, RestoreRecomputesWhetherTheChainIsWtsOrdered) {
  // A write-sequence chain whose wts runs against its keys: found by the
  // scan both before and after a restore.
  Granule g(0);
  ASSERT_TRUE(g.Insert(MakeVersion(1, 30, 1, 10, true)).ok());
  ASSERT_TRUE(g.Insert(MakeVersion(2, 20, 2, 20, true)).ok());
  EXPECT_EQ(g.LatestCommittedBefore(25)->value, 20);
  Granule restored(0);
  ASSERT_TRUE(restored.RestoreVersions(g.versions()).ok());
  EXPECT_EQ(restored.LatestCommittedBefore(25)->value, 20);
  EXPECT_EQ(restored.VersionBefore(35)->value, 10);

  // An I(t)-keyed chain restored over it is searched again.
  ASSERT_TRUE(restored
                  .RestoreVersions({MakeVersion(0, 0, 0, 1, true),
                                    MakeVersion(5, 5, 1, 2, false),
                                    MakeVersion(9, 9, 2, 3, true)})
                  .ok());
  EXPECT_EQ(restored.LatestCommittedBefore(9)->value, 1);
  EXPECT_EQ(restored.LatestCommittedBefore(10)->value, 3);
  EXPECT_EQ(restored.VersionBefore(9)->value, 2);
  ExpectLookupsMatchScan(restored, "restored I(t) chain");
}

}  // namespace
}  // namespace hdd
