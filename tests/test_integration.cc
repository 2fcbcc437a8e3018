#include <gtest/gtest.h>

#include <memory>

#include "engine/banking_workload.h"
#include "engine/executor.h"
#include "engine/harness.h"
#include "engine/inventory_workload.h"
#include "engine/synthetic_workload.h"
#include "hdd/hdd_controller.h"
#include "txn/dependency_graph.h"

namespace hdd {
namespace {

std::unique_ptr<HierarchySchema> MakeSchema(const PartitionSpec& spec) {
  auto schema = HierarchySchema::Create(spec);
  EXPECT_TRUE(schema.ok()) << schema.status();
  return std::make_unique<HierarchySchema>(std::move(schema).value());
}

// ---------------------------------------------------------------------
// Every controller must produce serializable executions of the paper's
// inventory application under real concurrency.
// ---------------------------------------------------------------------

class AllControllersInventoryTest
    : public ::testing::TestWithParam<ControllerKind> {};

TEST_P(AllControllersInventoryTest, ConcurrentInventoryIsSerializable) {
  InventoryWorkloadParams params;
  params.items = 8;
  InventoryWorkload workload(params);
  auto schema = MakeSchema(InventoryWorkload::Spec());
  auto db = workload.MakeDatabase();
  LogicalClock clock;
  auto cc = CreateController(GetParam(), db.get(), &clock, schema.get());

  ExecutorOptions options;
  options.num_threads = 4;
  options.seed = 42;
  ExecutorStats stats = RunWorkload(*cc, workload, 400, options);
  EXPECT_EQ(stats.failed, 0u) << "transactions exhausted retry budget";
  EXPECT_EQ(stats.committed, 400u);

  auto report = CheckSerializability(cc->recorder());
  EXPECT_TRUE(report.serializable)
      << ControllerKindName(GetParam()) << " produced a dependency cycle";
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, AllControllersInventoryTest,
    ::testing::ValuesIn(AllControllerKinds()),
    [](const ::testing::TestParamInfo<ControllerKind>& info) {
      std::string name(ControllerKindName(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------
// Transfer-only banking: total money conserved iff no update is lost.
// ---------------------------------------------------------------------

class AllControllersBankingTest
    : public ::testing::TestWithParam<ControllerKind> {};

TEST_P(AllControllersBankingTest, TransfersConserveMoney) {
  BankingWorkloadParams params;
  params.accounts = 16;
  params.transfer_weight = 0.9;
  params.deposit_weight = 0.0;
  params.audit_weight = 0.1;
  BankingWorkload workload(params);
  auto schema = MakeSchema(workload.Spec());
  auto db = workload.MakeDatabase();
  LogicalClock clock;
  auto cc = CreateController(GetParam(), db.get(), &clock, schema.get());

  ExecutorOptions options;
  options.num_threads = 4;
  options.seed = 7;
  ExecutorStats stats = RunWorkload(*cc, workload, 300, options);
  EXPECT_EQ(stats.failed, 0u);

  Value total = 0;
  for (std::uint32_t a = 0; a < params.accounts; ++a) {
    const Version* v = db->granule({0, a}).LatestCommitted();
    ASSERT_NE(v, nullptr);
    total += v->value;
  }
  EXPECT_EQ(total, workload.InitialTotal())
      << ControllerKindName(GetParam()) << " lost an update";
  EXPECT_TRUE(CheckSerializability(cc->recorder()).serializable);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, AllControllersBankingTest,
    ::testing::ValuesIn(AllControllerKinds()),
    [](const ::testing::TestParamInfo<ControllerKind>& info) {
      std::string name(ControllerKindName(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------
// Synthetic hierarchies of several depths under HDD and the baselines.
// ---------------------------------------------------------------------

class SyntheticDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(SyntheticDepthTest, HddSerializableAtDepth) {
  SyntheticWorkloadParams params;
  params.depth = GetParam();
  params.granules_per_segment = 16;
  SyntheticWorkload workload(params);
  auto schema = MakeSchema(workload.Spec());
  auto db = workload.MakeDatabase();
  LogicalClock clock;
  auto cc =
      CreateController(ControllerKind::kHdd, db.get(), &clock, schema.get());

  ExecutorOptions options;
  options.num_threads = 3;
  options.seed = 11;
  ExecutorStats stats = RunWorkload(*cc, workload, 300, options);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_TRUE(CheckSerializability(cc->recorder()).serializable);
  // Cross-class reads exist at depth >= 2 and must all be unregistered.
  if (GetParam() >= 2) {
    EXPECT_GT(cc->metrics().unregistered_reads.load(), 0u);
  }
  EXPECT_EQ(cc->metrics().read_locks_acquired.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Depths, SyntheticDepthTest,
                         ::testing::Values(1, 2, 3, 5, 8));

// ---------------------------------------------------------------------
// The headline claim, measured: on the inventory mix HDD registers no
// cross-class or read-only read, while 2PL/TO/MVTO register every read.
// ---------------------------------------------------------------------

TEST(ReadRegistrationTest, HddRegistersOnlyRootSegmentReads) {
  InventoryWorkload workload;
  auto schema = MakeSchema(InventoryWorkload::Spec());
  auto make_db = [&] { return workload.MakeDatabase(); };

  ExecutorOptions options;
  options.num_threads = 4;
  auto hdd = MeasureController(ControllerKind::kHdd, workload, make_db,
                               schema.get(), 300, options);
  auto two_phase = MeasureController(ControllerKind::kTwoPhase, workload,
                                     make_db, schema.get(), 300, options);
  auto to = MeasureController(ControllerKind::kTimestampOrdering, workload,
                              make_db, schema.get(), 300, options);

  EXPECT_TRUE(hdd.serializable);
  EXPECT_TRUE(two_phase.serializable);
  EXPECT_TRUE(to.serializable);
  EXPECT_EQ(hdd.read_locks, 0u);
  EXPECT_GT(hdd.unregistered_reads, 0u);
  EXPECT_EQ(two_phase.unregistered_reads, 0u);
  EXPECT_GT(two_phase.read_locks, 0u);
  EXPECT_GT(to.read_timestamps, 0u);
  // Every HDD read timestamp comes from a root-segment (Protocol B) read;
  // TO registers strictly more (all reads).
  EXPECT_LT(hdd.read_timestamps, to.read_timestamps);
}

// ---------------------------------------------------------------------
// GC under load keeps the database readable.
// ---------------------------------------------------------------------

TEST(GcIntegrationTest, CollectDuringInventoryRun) {
  InventoryWorkload workload;
  auto schema = MakeSchema(InventoryWorkload::Spec());
  auto db = workload.MakeDatabase();
  LogicalClock clock;
  HddController cc(db.get(), &clock, schema.get());

  ExecutorOptions options;
  options.num_threads = 2;
  for (int round = 0; round < 4; ++round) {
    ExecutorStats stats = RunWorkload(cc, workload, 100, options);
    EXPECT_EQ(stats.failed, 0u);
    const std::size_t before = db->TotalVersions();
    (void)cc.CollectGarbage();
    EXPECT_LE(db->TotalVersions(), before);
  }
  EXPECT_TRUE(CheckSerializability(cc.recorder()).serializable);
}

}  // namespace
}  // namespace hdd
