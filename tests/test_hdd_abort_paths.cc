// Abort-path coverage for the HDD controller: aborting mid-write on the
// root segment, garbage collection racing an eventually-aborted writer,
// time-wall pins held (then released) across a read-only abort,
// collections that must spare what live read-only transactions still
// read, and commits whose WAL sync fails. These are the recovery paths
// the deterministic simulation harness exercises under fault injection;
// here each scenario is pinned down sequentially.

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "hdd/hdd_controller.h"
#include "txn/dependency_graph.h"
#include "wal/wal_manager.h"
#include "wal/wal_storage.h"

namespace hdd {
namespace {

// The paper's Figure 2 inventory hierarchy:
// events(0) <- inventory(1) <- orders(2) <- suppliers(3).
PartitionSpec InventorySpec() {
  PartitionSpec spec;
  spec.segment_names = {"events", "inventory", "orders", "suppliers"};
  spec.transaction_types = {
      {"log_event", 0, {}},
      {"post_inventory", 1, {0}},
      {"reorder", 2, {0, 1}},
      {"supplier_profile", 3, {0, 2}},
  };
  return spec;
}

constexpr GranuleRef kEvent0{0, 0};
constexpr GranuleRef kEvent1{0, 1};

class HddAbortPathsTest : public ::testing::Test {
 protected:
  HddAbortPathsTest() : db_(4, 2, 0) {
    auto schema = HierarchySchema::Create(InventorySpec());
    EXPECT_TRUE(schema.ok());
    schema_ = std::make_unique<HierarchySchema>(std::move(schema).value());
    cc_ = std::make_unique<HddController>(&db_, &clock_, schema_.get());
  }

  // Runs a complete class-0 update writing `value` into kEvent0.
  void CommitEvent(Value value) {
    auto txn = cc_->Begin({.txn_class = 0});
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(cc_->Write(*txn, kEvent0, value).ok());
    ASSERT_TRUE(cc_->Commit(*txn).ok());
  }

  Database db_;
  LogicalClock clock_;
  std::unique_ptr<HierarchySchema> schema_;
  std::unique_ptr<HddController> cc_;
};

TEST_F(HddAbortPathsTest, AbortMidWriteOnRootSegmentUndoesAllWrites) {
  const std::size_t before0 = db_.granule(kEvent0).num_versions();
  const std::size_t before1 = db_.granule(kEvent1).num_versions();

  // Abort after writing TWO granules of the root segment: every
  // uncommitted version must be removed, not just the last one.
  auto txn = cc_->Begin({.txn_class = 0});
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(cc_->Write(*txn, kEvent0, 41).ok());
  ASSERT_TRUE(cc_->Write(*txn, kEvent1, 42).ok());
  EXPECT_EQ(db_.granule(kEvent0).num_versions(), before0 + 1);
  ASSERT_TRUE(cc_->Abort(*txn).ok());

  EXPECT_EQ(db_.granule(kEvent0).num_versions(), before0);
  EXPECT_EQ(db_.granule(kEvent1).num_versions(), before1);

  // Fresh transactions of the same class and of a higher class (Protocol
  // A) both see the pre-abort state.
  auto own = cc_->Begin({.txn_class = 0});
  ASSERT_TRUE(own.ok());
  auto v0 = cc_->Read(*own, kEvent0);
  auto v1 = cc_->Read(*own, kEvent1);
  ASSERT_TRUE(v0.ok());
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v0, 0);
  EXPECT_EQ(*v1, 0);
  ASSERT_TRUE(cc_->Commit(*own).ok());

  auto upper = cc_->Begin({.txn_class = 1});
  ASSERT_TRUE(upper.ok());
  auto across = cc_->Read(*upper, kEvent0);
  ASSERT_TRUE(across.ok());
  EXPECT_EQ(*across, 0);
  ASSERT_TRUE(cc_->Commit(*upper).ok());

  EXPECT_TRUE(CheckSerializability(cc_->recorder()).serializable);
}

TEST_F(HddAbortPathsTest, AbortedTxnIsGoneAndDoubleAbortRejected) {
  auto txn = cc_->Begin({.txn_class = 0});
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(cc_->Write(*txn, kEvent0, 7).ok());
  ASSERT_TRUE(cc_->Abort(*txn).ok());
  // Every operation on the dead transaction must fail cleanly.
  EXPECT_EQ(cc_->Abort(*txn).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(cc_->Commit(*txn).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(cc_->Read(*txn, kEvent0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(cc_->Write(*txn, kEvent0, 8).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(HddAbortPathsTest, GcKeepsUncommittedVersionOfPendingWriter) {
  // Three committed versions pile up, then a writer goes active with an
  // uncommitted fourth.
  CommitEvent(1);
  CommitEvent(2);
  CommitEvent(3);
  auto writer = cc_->Begin({.txn_class = 0});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(cc_->Write(*writer, kEvent0, 42).ok());
  const std::size_t with_pending = db_.granule(kEvent0).num_versions();

  // The GC horizon is capped by the active writer's initiation time, so
  // GC may prune the stale committed versions below the snapshot base but
  // MUST retain the base and the writer's uncommitted version.
  EXPECT_LE(cc_->SafeGcHorizon(), writer->init_ts);
  const std::size_t removed = cc_->CollectGarbage();
  EXPECT_EQ(removed, 3u);  // initial version + commits 1 and 2
  EXPECT_EQ(db_.granule(kEvent0).num_versions(), with_pending - removed);

  // The writer is unharmed: it still sees its own write and can abort,
  // which removes exactly the uncommitted version.
  auto own = cc_->Read(*writer, kEvent0);
  ASSERT_TRUE(own.ok());
  EXPECT_EQ(*own, 42);
  ASSERT_TRUE(cc_->Abort(*writer).ok());

  auto after = cc_->Begin({.txn_class = 0});
  ASSERT_TRUE(after.ok());
  auto value = cc_->Read(*after, kEvent0);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 3);  // the surviving snapshot base
  ASSERT_TRUE(cc_->Commit(*after).ok());
}

TEST_F(HddAbortPathsTest, WallPinHeldAcrossLifeAndReleasedOnAbort) {
  CommitEvent(1);

  // The read-only transaction pins a wall at Begin (releasing the first
  // one, since none exists yet) and keeps reading the same consistent cut
  // afterwards.
  auto ro = cc_->Begin({.read_only = true});
  ASSERT_TRUE(ro.ok());
  auto first = cc_->Read(*ro, kEvent0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 1);
  ASSERT_EQ(cc_->num_walls(), 1u);

  // Later commits and a newer wall must not move the pinned cut...
  CommitEvent(2);
  CommitEvent(3);
  ASSERT_TRUE(cc_->ReleaseNewWall().ok());
  ASSERT_EQ(cc_->num_walls(), 2u);
  auto again = cc_->Read(*ro, kEvent0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 1);

  // ...and the pinned (older) wall caps the GC horizon while the
  // transaction lives, even though a newer wall is already out.
  const Timestamp pinned_horizon = cc_->SafeGcHorizon();
  const std::size_t removed_pinned = cc_->CollectGarbage();
  // Version 1 is the pinned wall's snapshot base: only the initial
  // version below it may go.
  EXPECT_EQ(removed_pinned, 1u);
  auto still = cc_->Read(*ro, kEvent0);
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(*still, 1);

  // Aborting the read-only transaction releases the pin: the horizon
  // jumps to the newest wall and GC may now prune up to its base.
  ASSERT_TRUE(cc_->Abort(*ro).ok());
  const Timestamp after_horizon = cc_->SafeGcHorizon();
  EXPECT_GT(after_horizon, pinned_horizon);
  const std::size_t removed_after = cc_->CollectGarbage();
  EXPECT_EQ(removed_after, 2u);  // versions 1 and 2; base 3 survives

  auto later = cc_->Begin({.read_only = true});
  ASSERT_TRUE(later.ok());
  auto value = cc_->Read(*later, kEvent0);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 3);
  ASSERT_TRUE(cc_->Commit(*later).ok());
}

// A Protocol C reader keeps the wall it began under, even after a newer
// wall is out and a collection ran: the horizon must cover the wall the
// reader pinned, not just the newest one.
TEST_F(HddAbortPathsTest, GcKeepsTheWallAProtocolCReaderBeganUnder) {
  CommitEvent(1);
  ASSERT_TRUE(cc_->ReleaseNewWall().ok());  // W0: sees 1
  CommitEvent(2);
  auto ro = cc_->Begin({.read_only = true});
  ASSERT_TRUE(ro.ok());
  ASSERT_TRUE(cc_->ReleaseNewWall().ok());  // W1: sees 2
  CommitEvent(3);
  (void)cc_->CollectGarbage();
  auto value = cc_->Read(*ro, kEvent0);
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(*value, 1);
  ASSERT_TRUE(cc_->Commit(*ro).ok());
}

// A hosted read-only transaction (§5.0) sits in no class table, yet reads
// below the still-active update U that straddled its initiation. After U
// commits, a collection must not prune what the hosted reader's bound
// still selects.
TEST_F(HddAbortPathsTest, GcKeepsAHostedReadersBound) {
  CommitEvent(1);
  auto update = cc_->Begin({.txn_class = 1});
  ASSERT_TRUE(update.ok());
  ASSERT_TRUE(cc_->Write(*update, {1, 0}, 7).ok());
  CommitEvent(2);
  auto ro = cc_->Begin({.read_only = true, .read_scope = {0, 1}});
  ASSERT_TRUE(ro.ok());
  ASSERT_TRUE(cc_->Commit(*update).ok());
  (void)cc_->CollectGarbage();
  auto value = cc_->Read(*ro, kEvent0);
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(*value, 1);
  ASSERT_TRUE(cc_->Commit(*ro).ok());
}

// An open epoch serves Protocol A bounds at its anchor m_e, below every
// batch I(t): a collection while the epoch is open must not pass m_e,
// even when every transaction that straddled m_e has finished.
TEST_F(HddAbortPathsTest, GcKeepsAnOpenEpochsBounds) {
  CommitEvent(1);
  auto epoch = cc_->BeginEpoch();
  ASSERT_TRUE(epoch.ok());
  auto writer = cc_->BeginBatch(*epoch, {{.txn_class = 0}});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(cc_->Write((*writer)[0], kEvent0, 2).ok());
  ASSERT_TRUE(cc_->Commit((*writer)[0]).ok());
  auto reader = cc_->BeginBatch(*epoch, {{.txn_class = 1}});
  ASSERT_TRUE(reader.ok());
  (void)cc_->CollectGarbage();
  auto value = cc_->Read((*reader)[0], kEvent0);
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(*value, 1);  // the epoch's bound predates the batch write
  ASSERT_TRUE(cc_->Commit((*reader)[0]).ok());
  ASSERT_TRUE(cc_->EndEpoch(*epoch).ok());
}

TEST_F(HddAbortPathsTest, AbortPathsLeaveMetricsAndHistoryConsistent) {
  auto a = cc_->Begin({.txn_class = 0});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(cc_->Write(*a, kEvent0, 5).ok());
  ASSERT_TRUE(cc_->Abort(*a).ok());
  auto ro = cc_->Begin({.read_only = true});
  ASSERT_TRUE(ro.ok());
  ASSERT_TRUE(cc_->Read(*ro, kEvent0).ok());
  ASSERT_TRUE(cc_->Abort(*ro).ok());

  EXPECT_EQ(cc_->metrics().aborts.load(), 2u);
  const auto outcomes = cc_->recorder().outcomes();
  EXPECT_EQ(outcomes.at(a->id), TxnState::kAborted);
  EXPECT_EQ(outcomes.at(ro->id), TxnState::kAborted);
  // Aborted reads/writes never count against serializability.
  EXPECT_TRUE(CheckSerializability(cc_->recorder()).serializable);
}

// A commit whose WAL sync fails returns the error, and still finishes the
// transaction: otherwise the active count, and a Protocol C wall pin or a
// hosted reader's stab, stay registered, and the idle trim never runs
// again.
class HddFailedSyncTest : public HddAbortPathsTest {
 protected:
  void SetUp() override {
    WalOptions options;
    options.group.mode = WalSyncMode::kPerCommit;
    auto wal = WalManager::Open(&storage_, db_.num_segments(), options);
    ASSERT_TRUE(wal.ok()) << wal.status();
    wal_ = std::move(*wal);
    db_.AttachWal(wal_.get());
    cc_ = std::make_unique<HddController>(&db_, &clock_, schema_.get());
    storage_.FailNextSyncs(1);
  }

  void TearDown() override { cc_.reset(); }

  // 200 aborted updates after the failed commit: each reaches an idle
  // point, so the history is trimmed.
  void ExpectHistoryStaysTrimmed() {
    for (int i = 0; i < 200; ++i) {
      auto txn = cc_->Begin({.txn_class = 0});
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(cc_->Write(*txn, kEvent1, i).ok());
      ASSERT_TRUE(cc_->Abort(*txn).ok());
    }
    EXPECT_LE(cc_->ActivityHistorySize(), 1u);
  }

  // The outcome recorded for `txn`; kActive when none was.
  TxnState OutcomeOf(const TxnDescriptor& txn) const {
    const auto outcomes = cc_->recorder().outcomes();
    const auto it = outcomes.find(txn.id);
    return it == outcomes.end() ? TxnState::kActive : it->second;
  }

  SimWalStorage storage_;
  std::unique_ptr<WalManager> wal_;
};

TEST_F(HddFailedSyncTest, UpdateCommitFinishesAsCommitted) {
  auto txn = cc_->Begin({.txn_class = 0});
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(cc_->Write(*txn, kEvent0, 5).ok());
  EXPECT_EQ(cc_->Commit(*txn).code(), StatusCode::kIoError);
  ExpectHistoryStaysTrimmed();
  // The version was marked committed before the sync, and readers may
  // have seen it, so the recorded outcome is committed.
  EXPECT_EQ(OutcomeOf(*txn), TxnState::kCommitted);
}

TEST_F(HddFailedSyncTest, HostedReadOnlyCommitReleasesItsStab) {
  auto ro = cc_->Begin({.read_only = true, .read_scope = {0, 1}});
  ASSERT_TRUE(ro.ok());
  ASSERT_TRUE(cc_->Read(*ro, kEvent0).ok());
  EXPECT_EQ(cc_->Commit(*ro).code(), StatusCode::kIoError);
  ExpectHistoryStaysTrimmed();
  EXPECT_EQ(OutcomeOf(*ro), TxnState::kAborted);
}

TEST_F(HddFailedSyncTest, ProtocolCReadOnlyCommitReleasesItsWallPin) {
  auto ro = cc_->Begin({.read_only = true});
  ASSERT_TRUE(ro.ok());
  ASSERT_TRUE(cc_->Read(*ro, kEvent0).ok());
  EXPECT_EQ(cc_->Commit(*ro).code(), StatusCode::kIoError);
  ExpectHistoryStaysTrimmed();
  EXPECT_EQ(OutcomeOf(*ro), TxnState::kAborted);
}

}  // namespace
}  // namespace hdd
