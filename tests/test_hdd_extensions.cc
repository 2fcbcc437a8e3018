// Tests for the library's extensions of the paper's core: hosted
// single-critical-path read-only transactions (§5.0), idle-point activity
// trimming, and concurrent-safe garbage collection (§7.3).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "engine/executor.h"
#include "engine/inventory_workload.h"
#include "hdd/hdd_controller.h"
#include "txn/dependency_graph.h"

namespace hdd {
namespace {

PartitionSpec InventorySpec() { return InventoryWorkload::Spec(); }

constexpr GranuleRef kEvent{0, 0};
constexpr GranuleRef kInventory{1, 0};
constexpr GranuleRef kOrder{2, 0};

class HddExtensionsTest : public ::testing::Test {
 protected:
  HddExtensionsTest() : db_(4, 2, 0) {
    auto schema = HierarchySchema::Create(InventorySpec());
    EXPECT_TRUE(schema.ok());
    schema_ = std::make_unique<HierarchySchema>(std::move(schema).value());
    cc_ = std::make_unique<HddController>(&db_, &clock_, schema_.get());
  }

  Database db_;
  LogicalClock clock_;
  std::unique_ptr<HierarchySchema> schema_;
  std::unique_ptr<HddController> cc_;
};

// --------------------------- hosted read-only ---------------------------

TEST_F(HddExtensionsTest, HostedReadOnlyOnCriticalPath) {
  auto writer = cc_->Begin({.txn_class = 0});
  ASSERT_TRUE(cc_->Write(*writer, kEvent, 5).ok());
  ASSERT_TRUE(cc_->Commit(*writer).ok());

  // Figure 8's t1: reads events + inventory, both on one critical path.
  auto reader =
      cc_->Begin({.read_only = true, .read_scope = {0, 1}});
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto ev = cc_->Read(*reader, kEvent);
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(*ev, 5);
  ASSERT_TRUE(cc_->Read(*reader, kInventory).ok());
  ASSERT_TRUE(cc_->Commit(*reader).ok());

  // Served by Protocol A, not by a time wall.
  EXPECT_EQ(cc_->num_walls(), 0u);
  EXPECT_EQ(cc_->metrics().read_timestamps_written.load(), 0u);
  EXPECT_EQ(cc_->metrics().blocked_reads.load(), 0u);
  EXPECT_TRUE(CheckSerializability(cc_->recorder()).serializable);
}

TEST_F(HddExtensionsTest, HostedReaderSkipsInFlightWriter) {
  auto writer = cc_->Begin({.txn_class = 0});
  ASSERT_TRUE(cc_->Write(*writer, kEvent, 42).ok());

  auto reader = cc_->Begin({.read_only = true, .read_scope = {0}});
  ASSERT_TRUE(reader.ok());
  auto value = cc_->Read(*reader, kEvent);  // never waits on the writer
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 0);
  ASSERT_TRUE(cc_->Commit(*reader).ok());
  ASSERT_TRUE(cc_->Commit(*writer).ok());
  EXPECT_EQ(cc_->metrics().blocked_reads.load(), 0u);
}

TEST_F(HddExtensionsTest, HostedScopeOffCriticalPathRejected) {
  // Every pair of inventory-app segments lies on the single chain, so an
  // illegal scope needs incomparable classes: use a sibling-branch schema.
  PartitionSpec spec;
  spec.segment_names = {"top", "left", "right"};
  spec.transaction_types = {
      {"t", 0, {}},
      {"l", 1, {0}},
      {"r", 2, {0}},
  };
  auto schema = HierarchySchema::Create(spec);
  ASSERT_TRUE(schema.ok());
  Database db(3, 1, 0);
  LogicalClock clock;
  HddController cc(&db, &clock, &*schema);
  auto reader = cc.Begin({.read_only = true, .read_scope = {1, 2}});
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(HddExtensionsTest, HostedReadOutsideScopeRejected) {
  auto reader = cc_->Begin({.read_only = true, .read_scope = {1}});
  ASSERT_TRUE(reader.ok());
  // inventory(1) declared; orders(2) is BELOW it: not readable.
  auto bad = cc_->Read(*reader, kOrder);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // events(0) is above the host class's path top? The host is class 1 and
  // events is higher than 1, so it is on the critical path upward and IS
  // readable — the scope declares the path's lowest point.
  EXPECT_TRUE(cc_->Read(*reader, kEvent).ok());
  ASSERT_TRUE(cc_->Commit(*reader).ok());
}

TEST_F(HddExtensionsTest, HostedReaderSerializableUnderConcurrency) {
  InventoryWorkloadParams params;
  params.items = 2;
  params.read_only_weight = 0;
  InventoryWorkload workload(params);
  auto db = workload.MakeDatabase();
  LogicalClock clock;
  HddController cc(db.get(), &clock, schema_.get());

  std::atomic<bool> stop{false};
  std::thread updater([&] {
    Rng rng(3);
    std::uint64_t index = 0;
    while (!stop.load()) {
      TxnProgram program = workload.Make(index++, rng);
      auto txn = cc.Begin(program.options);
      if (program.body(cc, *txn).ok()) {
        (void)cc.Commit(*txn);
      } else {
        (void)cc.Abort(*txn);
      }
    }
  });
  for (int i = 0; i < 50; ++i) {
    auto reader = cc.Begin({.read_only = true, .read_scope = {0, 1, 2}});
    ASSERT_TRUE(reader.ok());
    ASSERT_TRUE(cc.Read(*reader, {2, 0}).ok());
    ASSERT_TRUE(cc.Read(*reader, {1, 0}).ok());
    ASSERT_TRUE(cc.Read(*reader, {0, 0}).ok());
    ASSERT_TRUE(cc.Commit(*reader).ok());
  }
  stop = true;
  updater.join();
  EXPECT_TRUE(CheckSerializability(cc.recorder()).serializable);
  EXPECT_EQ(cc.num_walls(), 0u);
}

// --------------------------- history trimming ---------------------------

TEST_F(HddExtensionsTest, IdlePointTrimsHistory) {
  for (int i = 0; i < 10; ++i) {
    auto txn = cc_->Begin({.txn_class = 0});
    ASSERT_TRUE(cc_->Write(*txn, kEvent, i).ok());
    ASSERT_TRUE(cc_->Commit(*txn).ok());
  }
  // Each commit reached an idle point, so history stays tiny.
  EXPECT_LE(cc_->ActivityHistorySize(), 1u);
}

// An open epoch's bounds are evaluated at its anchor, below the clock, so
// the trim stands down until EndEpoch and runs there: epoch-mode history
// stays bounded.
TEST_F(HddExtensionsTest, EndEpochTrimsHistory) {
  auto epoch = cc_->BeginEpoch();
  ASSERT_TRUE(epoch.ok());
  auto batch = cc_->BeginBatch(
      *epoch, std::vector<TxnOptions>(10, TxnOptions{.txn_class = 0}));
  ASSERT_TRUE(batch.ok());
  for (const TxnDescriptor& txn : *batch) {
    ASSERT_TRUE(cc_->Commit(txn).ok());
  }
  EXPECT_EQ(cc_->ActivityHistorySize(), 10u);
  ASSERT_TRUE(cc_->EndEpoch(*epoch).ok());
  EXPECT_LE(cc_->ActivityHistorySize(), 1u);
}

TEST_F(HddExtensionsTest, NoTrimWhileTransactionsActive) {
  HddControllerOptions options;
  options.auto_trim_history = true;
  HddController cc(&db_, &clock_, schema_.get(), options);
  auto pin = cc.Begin({.txn_class = 3});  // keeps the system non-idle
  for (int i = 0; i < 10; ++i) {
    auto txn = cc.Begin({.txn_class = 0});
    ASSERT_TRUE(cc.Write(*txn, kEvent, i).ok());
    ASSERT_TRUE(cc.Commit(*txn).ok());
  }
  EXPECT_EQ(cc.ActivityHistorySize(), 10u);
  // Protocol A through the pinned era still works correctly.
  auto reader = cc.Begin({.txn_class = 1});
  ASSERT_TRUE(cc.Read(*reader, kEvent).ok());
  ASSERT_TRUE(cc.Commit(*reader).ok());
  ASSERT_TRUE(cc.Commit(*pin).ok());
  EXPECT_LE(cc.ActivityHistorySize(), 1u);  // trimmed at the idle point
}

TEST_F(HddExtensionsTest, TrimDisabledKeepsHistory) {
  HddControllerOptions options;
  options.auto_trim_history = false;
  HddController cc(&db_, &clock_, schema_.get(), options);
  for (int i = 0; i < 10; ++i) {
    auto txn = cc.Begin({.txn_class = 0});
    ASSERT_TRUE(cc.Write(*txn, kEvent, i).ok());
    ASSERT_TRUE(cc.Commit(*txn).ok());
  }
  EXPECT_EQ(cc.ActivityHistorySize(), 10u);
}

// ------------------------------ safe GC --------------------------------

TEST_F(HddExtensionsTest, ConcurrentGcKeepsExecutionCorrect) {
  InventoryWorkloadParams params;
  params.items = 4;
  params.read_only_weight = 0;  // no walls: the final horizon is fresh
  InventoryWorkload workload(params);
  auto db = workload.MakeDatabase();
  LogicalClock clock;
  HddController cc(db.get(), &clock, schema_.get());

  std::atomic<bool> stop{false};
  std::thread gc_thread([&] {
    while (!stop.load()) {
      (void)cc.CollectGarbage();
      std::this_thread::yield();
    }
  });
  ExecutorOptions options;
  options.num_threads = 3;
  ExecutorStats stats = RunWorkload(cc, workload, 400, options);
  stop = true;
  gc_thread.join();

  EXPECT_EQ(stats.failed, 0u);
  EXPECT_TRUE(CheckSerializability(cc.recorder()).serializable);
  // GC with a fresh horizon afterwards compacts to ~1 version/granule.
  (void)cc.CollectGarbage();
  EXPECT_LE(db->TotalVersions(),
            static_cast<std::size_t>(4 * params.event_slots_per_item +
                                     3 * params.items + 8));
}

// ------------------------------ wall pacer -----------------------------

TEST_F(HddExtensionsTest, WallPacerReleasesPeriodically) {
  cc_->StartWallPacer(std::chrono::milliseconds(5));
  // Keep a light update stream alive so walls have something to cut.
  for (int i = 0; i < 10; ++i) {
    auto txn = cc_->Begin({.txn_class = 0});
    ASSERT_TRUE(cc_->Write(*txn, kEvent, i).ok());
    ASSERT_TRUE(cc_->Commit(*txn).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  cc_->StopWallPacer();
  EXPECT_GE(cc_->num_walls(), 2u);
  const std::size_t frozen = cc_->num_walls();
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  EXPECT_EQ(cc_->num_walls(), frozen);  // pacer really stopped

  // Readers ride the paced walls without triggering their own.
  auto reader = cc_->Begin({.read_only = true});
  ASSERT_TRUE(cc_->Read(*reader, kEvent).ok());
  ASSERT_TRUE(cc_->Commit(*reader).ok());
  EXPECT_EQ(cc_->num_walls(), frozen);
}

TEST_F(HddExtensionsTest, WallPacerRestartAndDestruction) {
  cc_->StartWallPacer(std::chrono::milliseconds(50));
  cc_->StartWallPacer(std::chrono::milliseconds(5));  // idempotent restart
  std::this_thread::sleep_for(std::chrono::milliseconds(12));
  cc_->StopWallPacer();
  cc_->StopWallPacer();  // double stop is a no-op
  // Destructor with a running pacer must not hang (covered by fixture
  // teardown after this restart):
  cc_->StartWallPacer(std::chrono::milliseconds(5));
}

// -------------------------- failure injection --------------------------

TEST_F(HddExtensionsTest, RandomClientAbortsLeaveNoTrace) {
  InventoryWorkloadParams params;
  params.items = 4;
  InventoryWorkload workload(params);
  auto db = workload.MakeDatabase();
  LogicalClock clock;
  HddController cc(db.get(), &clock, schema_.get());

  Rng rng(123);
  std::uint64_t index = 0;
  int committed = 0;
  for (int i = 0; i < 300; ++i) {
    TxnProgram program = workload.Make(index++, rng);
    auto txn = cc.Begin(program.options);
    ASSERT_TRUE(txn.ok());
    Status body = program.body(cc, *txn);
    if (!body.ok() || rng.NextBool(0.3)) {
      ASSERT_TRUE(cc.Abort(*txn).ok());  // client-initiated abort
      continue;
    }
    ASSERT_TRUE(cc.Commit(*txn).ok());
    ++committed;
  }
  EXPECT_GT(committed, 0);
  // No uncommitted version may survive.
  for (SegmentId s = 0; s < db->num_segments(); ++s) {
    Segment& seg = db->segment(s);
    const std::uint32_t count = seg.size();
    std::lock_guard<std::mutex> guard(seg.latch());
    for (std::uint32_t g = 0; g < count; ++g) {
      for (const Version& v : seg.granule(g).versions()) {
        EXPECT_TRUE(v.committed) << "segment " << s << " granule " << g;
      }
    }
  }
  EXPECT_TRUE(CheckSerializability(cc.recorder()).serializable);
}

TEST_F(HddExtensionsTest, DoubleCommitAndUseAfterFinishRejected) {
  auto txn = cc_->Begin({.txn_class = 0});
  ASSERT_TRUE(cc_->Commit(*txn).ok());
  EXPECT_EQ(cc_->Commit(*txn).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(cc_->Abort(*txn).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(cc_->Read(*txn, kEvent).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(cc_->Write(*txn, kEvent, 1).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace hdd
