#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "dist/dist_message.h"
#include "dist/dist_node.h"
#include "dist/dist_world.h"
#include "dist/shard_server.h"
#include "engine/synthetic_workload.h"
#include "hdd/hdd_controller.h"
#include "storage/database.h"

namespace hdd {
namespace {

// Two logical shard nodes in one process on plain threads (no sim
// scheduler): the full distributed path — requester-evaluated Protocol A
// bounds, hosted read-only scopes, owner-selected versions — with the
// merged multi-node history run through the 1SR + bound-replay oracle.
TEST(DistWorldTest, TwoNodeWorkloadPassesMergedOracle) {
  DistWorldOptions options;
  options.num_nodes = 2;
  options.depth = 4;
  options.txns_per_node = 12;
  DistWorld world(options, /*sched=*/nullptr);
  ASSERT_EQ(world.init_error(), "");

  ASSERT_EQ(world.RunWorkload(), "");
  EXPECT_GT(world.committed(), 0u);
  EXPECT_EQ(world.failed(), 0u);
  EXPECT_EQ(world.crashed(), 0u);
  EXPECT_EQ(world.CheckHistory(), "");

  // Node 1 homes classes {2,3}; their upper reads reach segments owned by
  // node 0, so the I^old + snapshot path must have been exercised...
  const MessageCounters& counters = world.transport().counters();
  EXPECT_GT(counters.Get(DistMsgType::kActivityReq), 0u);
  EXPECT_GT(counters.Get(DistMsgType::kSnapshotReq), 0u);
  // ...and no 2PC traffic without owner overrides, and — the paper's
  // claim, structural in this implementation — no registration messages.
  EXPECT_EQ(counters.Get(DistMsgType::kPrepareReq), 0u);
  EXPECT_EQ(counters.registration_messages(), 0u);
}

// Owner override: class 3 still registers (and runs) at its home node 1,
// but its segment's authoritative chains live at node 0 — every commit of
// class 3 must two-phase across the nodes.
TEST(DistWorldTest, OwnerOverrideTwoPhasesCommits) {
  DistWorldOptions options;
  options.num_nodes = 2;
  options.depth = 4;
  options.txns_per_node = 12;
  options.read_only_fraction = 0.0;  // updates only: exercise 2PC hard
  options.owner_overrides = {{3, 0}};
  DistWorld world(options, /*sched=*/nullptr);
  ASSERT_EQ(world.init_error(), "");

  ASSERT_EQ(world.RunWorkload(), "");
  EXPECT_GT(world.committed(), 0u);
  EXPECT_EQ(world.CheckHistory(), "");

  const MessageCounters& counters = world.transport().counters();
  EXPECT_GT(counters.Get(DistMsgType::kPrepareReq), 0u);
  EXPECT_GT(counters.Get(DistMsgType::kCommitReq), 0u);
  EXPECT_EQ(counters.registration_messages(), 0u);

  // The prepared-then-committed writes materialized in the OWNER's chains:
  // node 0's segment-3 granules grew beyond the initial version.
  std::size_t versions = 0;
  for (std::uint32_t g = 0; g < options.granules_per_segment; ++g) {
    for (const Version& v : world.database(0).granule({3, g}).versions()) {
      if (v.committed) ++versions;
    }
  }
  EXPECT_GT(versions, options.granules_per_segment);
}

// All-read-only mix: every transaction is hosted below its scope's lowest
// class; cross-node scopes evaluate base and bounds through remote I^old
// replies.
TEST(DistWorldTest, HostedReadOnlyScopesAcrossNodes) {
  DistWorldOptions options;
  options.num_nodes = 2;
  options.depth = 4;
  options.txns_per_node = 10;
  options.read_only_fraction = 1.0;
  DistWorld world(options, /*sched=*/nullptr);
  ASSERT_EQ(world.init_error(), "");

  ASSERT_EQ(world.RunWorkload(), "");
  EXPECT_EQ(world.committed(),
            static_cast<std::uint64_t>(options.num_nodes) *
                static_cast<std::uint64_t>(options.txns_per_node));
  EXPECT_EQ(world.failed(), 0u);
  EXPECT_EQ(world.CheckHistory(), "");
  // Node 1 sessions host scopes rooted at segment 0, owned by node 0.
  EXPECT_GT(world.transport().counters().Get(DistMsgType::kSnapshotReq), 0u);
}

// Four nodes, one class each: every upper read leaves the node.
TEST(DistWorldTest, FourNodeChainPassesMergedOracle) {
  DistWorldOptions options;
  options.num_nodes = 4;
  options.depth = 4;
  options.txns_per_node = 8;
  options.workers_per_node = 1;
  DistWorld world(options, /*sched=*/nullptr);
  ASSERT_EQ(world.init_error(), "");
  ASSERT_EQ(world.RunWorkload(), "");
  EXPECT_GT(world.committed(), 0u);
  EXPECT_EQ(world.CheckHistory(), "");
  EXPECT_EQ(world.transport().counters().registration_messages(), 0u);
}

TEST(DistNodeTest, HandleDispatchesAndRejectsGarbage) {
  SyntheticWorkloadParams params;
  params.depth = 2;
  SyntheticWorkload workload(params);
  auto schema = HierarchySchema::Create(workload.Spec());
  ASSERT_TRUE(schema.ok());
  std::unique_ptr<Database> db = workload.MakeDatabase();
  LogicalClock clock;
  HddController cc(db.get(), &clock, &*schema,
                   HddControllerOptions{.auto_trim_history = false});
  DistNode node(0, &cc, &clock);

  // Garbage and unknown types are rejected, not crashed on.
  EXPECT_FALSE(node.Handle(1, "").ok());
  EXPECT_FALSE(node.Handle(1, std::string("\xff junk")).ok());

  // Clock service round trip.
  auto tick = node.Handle(1, EncodeClockReq(DistMsgType::kClockTickReq));
  ASSERT_TRUE(tick.ok());
  auto ts = DecodeTimestamp(*tick);
  ASSERT_TRUE(ts.ok());
  EXPECT_GT(*ts, 0u);
  auto now = node.Handle(1, EncodeClockReq(DistMsgType::kClockNowReq));
  ASSERT_TRUE(now.ok());
  auto ts2 = DecodeTimestamp(*now);
  ASSERT_TRUE(ts2.ok());
  EXPECT_GE(*ts2, *ts);

  // I^old along the run {1, 0}: both classes are idle, so every answer
  // is its argument, one timestamp per class.
  const Timestamp stab = clock.Now();
  auto oldest_raw =
      node.Handle(1, EncodeActivityReq(ActivityReq{stab, {1, 0}}));
  ASSERT_TRUE(oldest_raw.ok()) << oldest_raw.status().ToString();
  auto oldest = DecodeOldestActiveReply(*oldest_raw);
  ASSERT_TRUE(oldest.ok());
  EXPECT_EQ(*oldest, (std::vector<Timestamp>{stab, stab}));
  EXPECT_FALSE(
      node.Handle(1, EncodeActivityReq(ActivityReq{stab, {0, 9}})).ok());

  // Snapshot of a fresh granule: the initial version is the one below any
  // bound.
  auto served_raw =
      node.Handle(1, EncodeSnapshotReq(SnapshotReq{0, 0, stab}));
  ASSERT_TRUE(served_raw.ok()) << served_raw.status().ToString();
  auto served = DecodeSnapshotReply(*served_raw);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->order_key, 0u);
  EXPECT_EQ(served->value, db->granule({0, 0}).versions()[0].value);

  // Out-of-range snapshot fails cleanly.
  EXPECT_FALSE(node.Handle(1, EncodeSnapshotReq(SnapshotReq{9, 0, stab})).ok());
}

// Replies carry the answer, not the state it is computed from: their size
// depends on the request's shape only, however much history and however
// long a chain the node has built up (dist mode never trims either).
TEST(DistNodeTest, ReplySizesDoNotGrowWithHistory) {
  SyntheticWorkloadParams params;
  params.depth = 2;
  SyntheticWorkload workload(params);
  auto schema = HierarchySchema::Create(workload.Spec());
  ASSERT_TRUE(schema.ok());
  std::unique_ptr<Database> db = workload.MakeDatabase();
  LogicalClock clock;
  HddController cc(db.get(), &clock, &*schema,
                   HddControllerOptions{.auto_trim_history = false});
  DistNode node(0, &cc, &clock);

  int next = 0;
  auto commit = [&](int count) {
    for (int k = 0; k < count; ++k, ++next) {
      const ClassId c = next % 2;
      auto txn = cc.Begin(TxnOptions{.txn_class = c});
      ASSERT_TRUE(txn.ok()) << txn.status().ToString();
      ASSERT_TRUE(cc.Write(*txn, GranuleRef{c, 0}, next).ok());
      ASSERT_TRUE(cc.Commit(*txn).ok());
    }
  };
  // One kActivityReq over the whole path and one kSnapshotReq of a granule
  // every class-0 commit writes: the same shape at both points.
  auto reply_sizes = [&]() -> std::pair<std::size_t, std::size_t> {
    const Timestamp stab = clock.Now();
    auto oldest =
        node.Handle(1, EncodeActivityReq(ActivityReq{stab, {1, 0}}));
    auto served = node.Handle(1, EncodeSnapshotReq(SnapshotReq{0, 0, stab}));
    EXPECT_TRUE(oldest.ok() && served.ok());
    return {oldest.ok() ? oldest->size() : 0, served.ok() ? served->size() : 0};
  };

  commit(10);
  const auto early = reply_sizes();
  const std::size_t early_history = cc.ActivityHistorySize();
  const std::size_t early_chain = db->granule({0, 0}).num_versions();
  commit(2000);
  const auto late = reply_sizes();
  // The state behind the replies did grow...
  EXPECT_GE(cc.ActivityHistorySize(), early_history + 2000);
  EXPECT_GE(db->granule({0, 0}).num_versions(), early_chain + 1000);
  // ...the replies did not.
  EXPECT_EQ(late.first, early.first);
  EXPECT_EQ(late.second, early.second);
}

TEST(DistNodeTest, ClockServiceUnavailableWithoutClock) {
  SyntheticWorkloadParams params;
  params.depth = 2;
  SyntheticWorkload workload(params);
  auto schema = HierarchySchema::Create(workload.Spec());
  ASSERT_TRUE(schema.ok());
  std::unique_ptr<Database> db = workload.MakeDatabase();
  LogicalClock clock;
  HddController cc(db.get(), &clock, &*schema, HddControllerOptions{});
  DistNode node(1, &cc, /*clock=*/nullptr);
  auto got = node.Handle(0, EncodeClockReq(DistMsgType::kClockTickReq));
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
}

// Descriptors this process holds right now.
int OpenFds() {
  int count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

// A node id outside [0, peers.size()) is rejected at construction, for
// every caller: Start() fails and no transport socket is ever opened (a
// node id of -1 used to bind peers[-1] and serve).
TEST(ShardServerTest, NodeIdOutsidePeerListFailsStart) {
  const std::vector<SocketPeer> peers = {{"", 0}, {"", 0}};
  for (const int node_id : {-1, static_cast<int>(peers.size())}) {
    SCOPED_TRACE(node_id);
    const int fds_before = OpenFds();
    ShardServerOptions options;
    options.node_id = node_id;
    options.peers = peers;
    ShardServer server(options);
    EXPECT_NE(server.init_error(), "");
    EXPECT_FALSE(server.Start().ok());
    EXPECT_EQ(server.transport_open_fds(), 0);
    EXPECT_EQ(OpenFds(), fds_before);
    EXPECT_TRUE(server.Stop().ok());
  }
}

}  // namespace
}  // namespace hdd
