#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "dist/dist_message.h"
#include "dist/dist_node.h"
#include "dist/dist_world.h"
#include "dist/shard_server.h"
#include "dist/socket_transport.h"
#include "engine/synthetic_workload.h"
#include "hdd/hdd_controller.h"
#include "held_sync_storage.h"
#include "net/client.h"
#include "net/protocol.h"
#include "obs/metrics_registry.h"
#include "storage/database.h"
#include "wal/wal_manager.h"
#include "wal/wal_storage.h"

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

// A coordinator whose commit record cannot be made durable aborts what it
// prepared. Node 1, the home of class 3, fails its first WAL sync, and
// the error is sticky, so every class-3 commit fails in
// CommitDurablePhase after its prepare at node 0, the segment's owner.
// DistSession::Commit's failure branch must abort those participants: no
// uncommitted copy may stay in node 0's chains.
TEST(DistWorldTest, FailedCoordinatorSyncAbortsPreparedParticipants) {
  DistWorldOptions options;
  options.num_nodes = 2;
  options.depth = 4;
  options.txns_per_node = 12;
  options.read_only_fraction = 0.0;
  options.owner_overrides = {{3, 0}};
  DistWorld world(options, /*sched=*/nullptr);
  ASSERT_EQ(world.init_error(), "");
  world.storage(1).FailNextSyncs(1);

  ASSERT_EQ(world.RunWorkload(), "");
  EXPECT_GT(world.failed(), 0u);
  const MessageCounters& counters = world.transport().counters();
  EXPECT_GT(counters.Get(DistMsgType::kPrepareReq), 0u);
  EXPECT_EQ(counters.Get(DistMsgType::kAbortReq),
            counters.Get(DistMsgType::kPrepareReq));
  for (std::uint32_t g = 0; g < options.granules_per_segment; ++g) {
    for (const Version& v : world.database(0).granule({3, g}).versions()) {
      EXPECT_TRUE(v.committed)
          << "txn " << v.creator << " left a prepared copy of (3, " << g
          << ") at node 0";
    }
  }
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

// The owner's read barrier: a kSnapshotReq answered through DistNode waits
// for the sync of the commit record of the version it serves, and for
// nothing else. One controller over a group-commit WAL on HeldSyncStorage;
// every wait is bounded so a failure cannot hang the suite.
class DistNodeBarrierTest : public ::testing::Test {
 protected:
  static constexpr auto kBlocked = std::chrono::milliseconds(200);
  static constexpr auto kBound = std::chrono::seconds(10);

  void SetUp() override {
    SyntheticWorkloadParams params;
    params.depth = 2;
    SyntheticWorkload workload(params);
    db_ = workload.MakeDatabase();
    WalOptions wal_options;
    wal_options.group.mode = WalSyncMode::kGroupCommit;
    Result<std::unique_ptr<WalManager>> wal =
        WalManager::Open(&storage_, db_->num_segments(), wal_options);
    ASSERT_TRUE(wal.ok()) << wal.status();
    wal_ = std::move(*wal);
    db_->AttachWal(wal_.get());
    Result<HierarchySchema> schema = HierarchySchema::Create(workload.Spec());
    ASSERT_TRUE(schema.ok()) << schema.status();
    schema_.emplace(std::move(schema).value());
    cc_ = std::make_unique<HddController>(
        db_.get(), &clock_, &*schema_,
        HddControllerOptions{.auto_trim_history = false});
    node_ = std::make_unique<DistNode>(0, cc_.get(), &clock_);
  }

  void TearDown() override {
    // A failed test must not leave a commit or a snapshot waiting.
    storage_.Release();
    for (std::future<Status>& pending : pending_) {
      if (pending.valid()) pending.wait();
    }
    for (std::future<Result<Value>>& served : served_) {
      if (served.valid()) served.wait();
    }
  }

  // A class-0 update of granule (0, g); blocks until its sync.
  Status Commit(std::uint32_t g, Value value) {
    Result<TxnDescriptor> txn = cc_->Begin(TxnOptions{.txn_class = 0});
    if (!txn.ok()) return txn.status();
    HDD_RETURN_IF_ERROR(cc_->Write(*txn, GranuleRef{0, g}, value));
    return cc_->Commit(*txn);
  }

  // Runs `work` on its own thread; TearDown waits for it.
  std::future<Status>& Spawn(std::function<Status()> work) {
    pending_.push_back(std::async(std::launch::async, std::move(work)));
    return pending_.back();
  }

  // Waits until `ref`'s newest committed version holds `value` in memory
  // (its commit may still be waiting for the sync).
  bool WaitUntilCommitted(GranuleRef ref, Value value) {
    const auto deadline = std::chrono::steady_clock::now() + kBound;
    while (std::chrono::steady_clock::now() < deadline) {
      Result<Version> v =
          cc_->CommittedVersionBelow(ref, kTimestampInfinity);
      if (v.ok() && v->value == value) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  // A peer's kSnapshotReq for `ref`, answered on its own thread;
  // TearDown waits for it.
  std::future<Result<Value>>& Snapshot(GranuleRef ref) {
    served_.push_back(
        std::async(std::launch::async, [this, ref]() -> Result<Value> {
          HDD_ASSIGN_OR_RETURN(
              std::string body,
              node_->Handle(1, EncodeSnapshotReq(SnapshotReq{
                                   ref.segment, ref.index,
                                   kTimestampInfinity})));
          HDD_ASSIGN_OR_RETURN(SnapshotReply reply,
                               DecodeSnapshotReply(body));
          return reply.value;
        }));
    return served_.back();
  }

  HeldSyncStorage storage_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<WalManager> wal_;
  LogicalClock clock_;
  std::optional<HierarchySchema> schema_;
  std::unique_ptr<HddController> cc_;
  std::unique_ptr<DistNode> node_;
  // Deques: the references Spawn and Snapshot return stay valid.
  std::deque<std::future<Status>> pending_;
  std::deque<std::future<Result<Value>>> served_;
};

// A version that is committed in memory but whose commit record is not yet
// synced is served only after the sync: through a local commit and through
// a 2PC participant's CommitExternal.
TEST_F(DistNodeBarrierTest, SnapshotWaitsForTheSyncOfTheVersionItServes) {
  storage_.Hold();
  std::future<Status>& committed = Spawn([this] { return Commit(0, 7); });
  ASSERT_TRUE(WaitUntilCommitted({0, 0}, 7));
  std::future<Result<Value>>& served = Snapshot({0, 0});
  EXPECT_EQ(served.wait_for(kBlocked), std::future_status::timeout)
      << "a version was served before its commit record was durable";
  storage_.Release();
  ASSERT_EQ(served.wait_for(kBound), std::future_status::ready);
  Result<Value> value = served.get();
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(*value, 7);
  ASSERT_EQ(committed.wait_for(kBound), std::future_status::ready);
  EXPECT_TRUE(committed.get().ok());

  // The participant side: a prepared write of segment 1 (durable), then
  // the commit step with the sync held.
  const TxnId txn = (TxnId{1} << 32) + 1;
  const Timestamp init_ts = clock_.Tick();
  ASSERT_TRUE(cc_->PrepareExternal(1, txn, init_ts, {{0, 42}}).ok());
  storage_.Hold();
  std::future<Status>& participant = Spawn(
      [this, txn, init_ts] { return cc_->CommitExternal(1, txn, init_ts); });
  ASSERT_TRUE(WaitUntilCommitted({1, 0}, 42));
  std::future<Result<Value>>& served_remote = Snapshot({1, 0});
  EXPECT_EQ(served_remote.wait_for(kBlocked), std::future_status::timeout)
      << "a participant's version was served before its commit record "
         "was durable";
  storage_.Release();
  ASSERT_EQ(served_remote.wait_for(kBound), std::future_status::ready);
  value = served_remote.get();
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(*value, 42);
  ASSERT_EQ(participant.wait_for(kBound), std::future_status::ready);
  EXPECT_TRUE(participant.get().ok());
}

// The barrier waits for the served granule's own commit record, not for
// everything appended so far: another granule's pending sync does not hold
// up a granule whose newest commit is durable.
TEST_F(DistNodeBarrierTest, DurableGranuleIsServedWhileAnotherSyncIsHeld) {
  ASSERT_TRUE(Commit(1, 5).ok());
  storage_.Hold();
  Spawn([this] { return Commit(2, 6); });
  ASSERT_TRUE(WaitUntilCommitted({0, 2}, 6));
  std::future<Result<Value>>& durable = Snapshot({0, 1});
  ASSERT_EQ(durable.wait_for(kBound), std::future_status::ready)
      << "a durable granule's snapshot waited for another granule's sync";
  Result<Value> value = durable.get();
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(*value, 5);
  // The granule whose sync is held still waits.
  std::future<Result<Value>>& pending = Snapshot({0, 2});
  EXPECT_EQ(pending.wait_for(kBlocked), std::future_status::timeout);
  storage_.Release();
  ASSERT_EQ(pending.wait_for(kBound), std::future_status::ready);
  EXPECT_TRUE(pending.get().ok());
}

// A failed sync is sticky: after it, no snapshot is served, not even of a
// granule whose versions were all durable before the failure.
TEST_F(DistNodeBarrierTest, FailedSyncFailsEverySnapshot) {
  ASSERT_TRUE(Commit(1, 5).ok());
  storage_.FailNextSyncs(1);
  EXPECT_FALSE(Commit(2, 6).ok());
  for (const GranuleRef ref : {GranuleRef{0, 1}, GranuleRef{0, 2},
                               GranuleRef{0, 3}}) {
    std::future<Result<Value>>& served = Snapshot(ref);
    ASSERT_EQ(served.wait_for(kBound), std::future_status::ready);
    EXPECT_FALSE(served.get().ok()) << "granule " << ref.index;
  }
}

// Restored versions are durable by construction, and a ticket from the
// WAL they were built under means nothing to the one attached now:
// RestoreVersions clears the granule's ticket, and its snapshot waits for
// nothing.
TEST_F(DistNodeBarrierTest, RestoreVersionsClearsTheTicket) {
  ASSERT_TRUE(Commit(3, 9).ok());
  Granule& granule = db_->granule({0, 3});
  EXPECT_GT(granule.commit_ticket(), 0u);
  const std::vector<Version> chain = granule.versions();
  ASSERT_TRUE(granule.RestoreVersions(chain).ok());
  EXPECT_EQ(granule.commit_ticket(), 0u);
  storage_.Hold();
  Spawn([this] { return Commit(4, 1); });
  ASSERT_TRUE(WaitUntilCommitted({0, 4}, 1));
  std::future<Result<Value>>& served = Snapshot({0, 3});
  ASSERT_EQ(served.wait_for(kBound), std::future_status::ready);
  Result<Value> value = served.get();
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(*value, 9);
}

// Two threads call one peer at once; the peer's handler answers only when
// both requests are inside it (or after a bound). Each caller has its own
// connection, so neither waits for the other's reply.
TEST(SocketTransportTest, ConcurrentCallsToOnePeerOverlap) {
  std::mutex mu;
  std::condition_variable cv;
  int inside = 0;
  MetricsRegistry metrics;
  SocketTransport peer(1, {{"", 0}, {"", 0}}, metrics);
  ASSERT_TRUE(peer.Start([&](int, const std::string&) -> Result<std::string> {
                    std::unique_lock<std::mutex> lock(mu);
                    ++inside;
                    cv.notify_all();
                    const bool both = cv.wait_for(
                        lock, std::chrono::seconds(5),
                        [&] { return inside >= 2; });
                    return std::string(both ? "both" : "alone");
                  })
                  .ok());
  SocketTransport caller(0, {{"", 0}, {"", peer.bound_port()}}, metrics);
  std::vector<Result<std::string>> replies(2, Status::Internal("no reply"));
  std::vector<std::thread> threads;
  for (Result<std::string>& reply : replies) {
    threads.emplace_back([&caller, &reply] {
      reply = caller.Call(0, 1, EncodeClockReq(DistMsgType::kClockNowReq),
                          /*interruptible=*/false);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Result<std::string>& reply : replies) {
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(*reply, "both") << "the calls did not overlap";
  }
  // Both connections went back to the pool; Stop() closes them.
  EXPECT_EQ(caller.open_fds(), 2);
  caller.Stop();
  EXPECT_EQ(caller.open_fds(), 0);
  peer.Stop();
  EXPECT_EQ(peer.open_fds(), 0);
}

// A call after Stop() fails and opens no socket, although the peer is
// still serving.
TEST(SocketTransportTest, CallAfterStopOpensNothing) {
  MetricsRegistry metrics;
  SocketTransport peer(1, {{"", 0}, {"", 0}}, metrics);
  ASSERT_TRUE(peer.Start([](int, const std::string&) -> Result<std::string> {
                    return std::string("pong");
                  })
                  .ok());
  SocketTransport caller(0, {{"", 0}, {"", peer.bound_port()}}, metrics);
  const std::string request = EncodeClockReq(DistMsgType::kClockNowReq);
  Result<std::string> reply = caller.Call(0, 1, request, false);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(caller.open_fds(), 1);
  caller.Stop();
  EXPECT_EQ(caller.open_fds(), 0);
  EXPECT_FALSE(caller.Call(0, 1, request, false).ok());
  EXPECT_EQ(caller.open_fds(), 0);
  peer.Stop();
}

// Stop() closes a checked-out connection too: a call in flight fails at
// once instead of holding Stop() until the peer answers, and no socket is
// left open.
TEST(SocketTransportTest, StopFailsACallInFlight) {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;
  MetricsRegistry metrics;
  SocketTransport peer(1, {{"", 0}, {"", 0}}, metrics);
  ASSERT_TRUE(peer.Start([&](int, const std::string&) -> Result<std::string> {
                    std::unique_lock<std::mutex> lock(mu);
                    entered = true;
                    cv.notify_all();
                    cv.wait_for(lock, std::chrono::seconds(5),
                                [&] { return released; });
                    return std::string("late");
                  })
                  .ok());
  SocketTransport caller(0, {{"", 0}, {"", peer.bound_port()}}, metrics);
  Result<std::string> reply = Status::Internal("no reply");
  std::thread call([&] {
    reply = caller.Call(0, 1, EncodeClockReq(DistMsgType::kClockNowReq),
                        /*interruptible=*/false);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return entered; }));
  }
  caller.Stop();
  call.join();
  EXPECT_FALSE(reply.ok()) << "the call outlived Stop()";
  EXPECT_EQ(caller.open_fds(), 0);
  {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
  }
  cv.notify_all();
  peer.Stop();
  EXPECT_EQ(peer.open_fds(), 0);
}

// A cross-shard request populates the per-type RPC histograms in each
// ShardServer's registry: the call on the requesting node, the handler on
// the owner. Node 1 learns node 0's bound port; node 0 never calls node 1
// here, so no port is picked ahead of its bind.
TEST(ShardServerTest, CrossShardReadRecordsSnapshotHistogramsOnBothNodes) {
  ShardServerOptions options;
  options.peers = {{"", 0}, {"", 0}};
  options.depth = 4;
  options.granules_per_segment = 8;
  options.node_id = 0;
  ShardServer node0(options);
  ASSERT_EQ(node0.init_error(), "");
  ASSERT_TRUE(node0.Start().ok());
  options.node_id = 1;
  options.peers[0].port = node0.dist_port();
  ShardServer node1(options);
  ASSERT_EQ(node1.init_error(), "");
  ASSERT_TRUE(node1.Start().ok());

  // Class 3 is homed at node 1; its read of segment 0 is a snapshot from
  // node 0.
  SyncClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", node1.front_port()).ok());
  RequestMsg msg;
  msg.type = NetMsgType::kSubmit;
  msg.submit.request_id = 1;
  msg.submit.txn_class = 3;
  msg.submit.ops = {{WireOp::Kind::kRead, {0, 0}, 0},
                    {WireOp::Kind::kWrite, {3, 0}, 5}};
  Result<ResponseMsg> response = client.Call(msg);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->committed);

  std::map<std::string, std::uint64_t> caller = node1.metrics().Snapshot();
  std::map<std::string, std::uint64_t> owner = node0.metrics().Snapshot();
  const std::uint64_t snapshots =
      node1.transport().counters().Get(DistMsgType::kSnapshotReq);
  EXPECT_GE(snapshots, 1u);
  EXPECT_EQ(caller["dist_call_us_snapshot_count"], snapshots);
  EXPECT_EQ(owner["dist_handle_us_snapshot_count"], snapshots);
  EXPECT_EQ(owner.count("dist_call_us_snapshot_count"), 0u);
  EXPECT_EQ(caller.count("dist_handle_us_snapshot_count"), 0u);

  EXPECT_TRUE(node1.Stop().ok());
  EXPECT_TRUE(node0.Stop().ok());
  EXPECT_EQ(node0.transport_open_fds(), 0);
  EXPECT_EQ(node1.transport_open_fds(), 0);
}

// An update submitted to a node that is not its class's home fails before
// any effect, on either node, and both nodes keep serving. Node 0 never
// calls node 1 here (its class-0 update stays local), so only node 1
// needs node 0's bound port.
TEST(ShardServerTest, UpdateHomedAtTheOtherNodeFailsAndBothKeepServing) {
  ShardServerOptions options;
  options.peers = {{"", 0}, {"", 0}};
  options.depth = 4;
  options.granules_per_segment = 8;
  options.node_id = 0;
  ShardServer node0(options);
  ASSERT_EQ(node0.init_error(), "");
  ASSERT_TRUE(node0.Start().ok());
  options.node_id = 1;
  options.peers[0].port = node0.dist_port();
  ShardServer node1(options);
  ASSERT_EQ(node1.init_error(), "");
  ASSERT_TRUE(node1.Start().ok());

  SyncClient client0;
  SyncClient client1;
  ASSERT_TRUE(client0.Connect("127.0.0.1", node0.front_port()).ok());
  ASSERT_TRUE(client1.Connect("127.0.0.1", node1.front_port()).ok());
  const auto update = [](std::uint64_t id, ClassId cls, Value value) {
    RequestMsg msg;
    msg.type = NetMsgType::kSubmit;
    msg.submit.request_id = id;
    msg.submit.txn_class = cls;
    msg.submit.ops = {{WireOp::Kind::kWrite, {cls, 0}, value},
                      {WireOp::Kind::kRead, {0, 0}, 0}};
    return msg;
  };
  // Classes {0,1} are homed at node 0 and {2,3} at node 1.
  Result<ResponseMsg> r = client1.Call(update(1, 0, 10));
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->type, NetMsgType::kResult);
  EXPECT_FALSE(r->committed);
  r = client0.Call(update(2, 3, 30));
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->type, NetMsgType::kResult);
  EXPECT_FALSE(r->committed);
  EXPECT_EQ(node0.controller().metrics().commits.Value(), 0u);
  EXPECT_EQ(node1.controller().metrics().commits.Value(), 0u);

  // Both nodes still serve their own classes; node 1's read of segment 0
  // is a snapshot from node 0 and sees node 0's commit.
  r = client0.Call(update(3, 0, 11));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->committed);
  r = client1.Call(update(4, 3, 33));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->committed);
  EXPECT_EQ(r->values, std::vector<Value>{11});

  EXPECT_TRUE(node1.Stop().ok());
  EXPECT_TRUE(node0.Stop().ok());
  EXPECT_EQ(node0.transport_open_fds(), 0);
  EXPECT_EQ(node1.transport_open_fds(), 0);
}

}  // namespace
}  // namespace hdd
