#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "dist/dist_message.h"
#include "dist/dist_node.h"
#include "dist/dist_session.h"
#include "dist/shard_map.h"
#include "dist/transport.h"
#include "hdd/hdd_controller.h"
#include "hdd/link_functions.h"
#include "storage/database.h"

namespace hdd {
namespace {

TEST(ShardMapTest, ContiguousSplit) {
  ShardMap map = ShardMap::Contiguous(4, 2);
  EXPECT_EQ(map.num_nodes(), 2);
  EXPECT_EQ(map.num_segments(), 4);
  EXPECT_EQ(map.home(0), 0);
  EXPECT_EQ(map.home(1), 0);
  EXPECT_EQ(map.home(2), 1);
  EXPECT_EQ(map.home(3), 1);
  // Owner defaults to home.
  for (SegmentId s = 0; s < 4; ++s) EXPECT_EQ(map.owner(s), map.home(s));
  EXPECT_EQ(map.SegmentsOwnedBy(0), (std::vector<SegmentId>{0, 1}));
  EXPECT_EQ(map.ClassesHomedAt(1), (std::vector<ClassId>{2, 3}));
}

TEST(ShardMapTest, UnevenSplitCoversEverySegment) {
  ShardMap map = ShardMap::Contiguous(7, 3);
  std::vector<int> seen(7, 0);
  for (int n = 0; n < 3; ++n) {
    for (SegmentId s : map.SegmentsOwnedBy(n)) seen[s]++;
  }
  for (SegmentId s = 0; s < 7; ++s) EXPECT_EQ(seen[s], 1) << "segment " << s;
  // Contiguity: the home assignment never decreases with the class id.
  for (SegmentId s = 1; s < 7; ++s) EXPECT_GE(map.home(s), map.home(s - 1));
}

TEST(ShardMapTest, EveryNodeHomesAtLeastOneClass) {
  // 4 classes over 3 nodes starved the tail node under a ceil-split; the
  // balanced split must leave no node without a class to run transactions
  // of.
  for (int nodes = 1; nodes <= 4; ++nodes) {
    ShardMap map = ShardMap::Contiguous(4, nodes);
    for (int n = 0; n < nodes; ++n) {
      EXPECT_FALSE(map.ClassesHomedAt(n).empty())
          << nodes << " nodes: node " << n << " homes no class";
    }
  }
}

TEST(ShardMapTest, OwnerOverrideSeparatesHomeAndOwner) {
  ShardMap map = ShardMap::Contiguous(4, 2);
  map.SetSegmentOwner(3, 0);
  EXPECT_EQ(map.home(3), 1);   // class still registers at its home
  EXPECT_EQ(map.owner(3), 0);  // chains live elsewhere -> 2PC commits
  EXPECT_EQ(map.SegmentsOwnedBy(0), (std::vector<SegmentId>{0, 1, 3}));
  EXPECT_EQ(map.SegmentsOwnedBy(1), (std::vector<SegmentId>{2}));
}

TEST(DistCodecTest, ActivityReqRoundTrip) {
  ActivityReq req;
  req.stab = 4711;
  req.run = {0, 3, 5};
  const std::string wire = EncodeActivityReq(req);
  EXPECT_EQ(PeekDistMsgType(wire), DistMsgType::kActivityReq);
  auto got = DecodeActivityReq(wire);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->stab, req.stab);
  EXPECT_EQ(got->run, req.run);
}

TEST(DistCodecTest, SnapshotReqRoundTrip) {
  SnapshotReq req;
  req.segment = 2;
  req.index = 9;
  req.bound = (1ull << 40) + 3;
  const std::string wire = EncodeSnapshotReq(req);
  EXPECT_EQ(PeekDistMsgType(wire), DistMsgType::kSnapshotReq);
  auto got = DecodeSnapshotReq(wire);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->segment, req.segment);
  EXPECT_EQ(got->index, req.index);
  EXPECT_EQ(got->bound, req.bound);
}

TEST(DistCodecTest, PrepareReqRoundTrip) {
  PrepareReq req;
  req.txn = (7ull << 32) + 42;
  req.init_ts = 1234;
  req.segment = 1;
  req.writes = {{0, 17}, {2, -5}};
  auto got = DecodePrepareReq(EncodePrepareReq(req));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->txn, req.txn);
  EXPECT_EQ(got->init_ts, req.init_ts);
  EXPECT_EQ(got->segment, req.segment);
  EXPECT_EQ(got->writes, req.writes);
}

TEST(DistCodecTest, TxnSegmentReqRoundTripBothTypes) {
  TxnSegmentReq req;
  req.txn = 99;
  req.init_ts = 1000;
  req.segment = 3;
  for (DistMsgType type : {DistMsgType::kCommitReq, DistMsgType::kAbortReq}) {
    const std::string wire = EncodeTxnSegmentReq(type, req);
    EXPECT_EQ(PeekDistMsgType(wire), type);
    auto got = DecodeTxnSegmentReq(wire);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->txn, req.txn);
    EXPECT_EQ(got->init_ts, req.init_ts);
    EXPECT_EQ(got->segment, req.segment);
  }
}

TEST(DistCodecTest, OldestActiveReplyRoundTrip) {
  const std::vector<Timestamp> values = {500, 220, 100, kTimestampMin};
  auto got = DecodeOldestActiveReply(EncodeOldestActiveReply(values));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, values);
  auto empty = DecodeOldestActiveReply(EncodeOldestActiveReply({}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(DistCodecTest, SnapshotReplyRoundTrip) {
  const SnapshotReply reply{(3ull << 33) + 20, -9};
  auto got = DecodeSnapshotReply(EncodeSnapshotReply(reply));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->order_key, reply.order_key);
  EXPECT_EQ(got->value, reply.value);
}

TEST(DistCodecTest, ResponseEnvelope) {
  auto ok = DecodeDistResponse(EncodeDistResponse(std::string("payload")));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, "payload");

  auto err = DecodeDistResponse(
      EncodeDistResponse(Result<std::string>(Status::Busy("try later"))));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kBusy);
  EXPECT_EQ(err.status().message(), "remote: try later");
}

// Every proper prefix of every message is rejected, never half-decoded.
TEST(DistCodecTest, TruncatedPayloadsAreRejected) {
  const std::string prepare = EncodePrepareReq(
      PrepareReq{12, 34, 1, {{0, 1}, {1, 2}}});
  for (std::size_t len = 0; len < prepare.size(); ++len) {
    EXPECT_FALSE(DecodePrepareReq(prepare.substr(0, len)).ok()) << len;
  }
  const std::string activity = EncodeActivityReq(ActivityReq{77, {2, 1}});
  for (std::size_t len = 0; len < activity.size(); ++len) {
    EXPECT_FALSE(DecodeActivityReq(activity.substr(0, len)).ok()) << len;
  }
  const std::string snapshot = EncodeSnapshotReq(SnapshotReq{1, 5, 900});
  for (std::size_t len = 0; len < snapshot.size(); ++len) {
    EXPECT_FALSE(DecodeSnapshotReq(snapshot.substr(0, len)).ok()) << len;
  }
  const std::string oldest = EncodeOldestActiveReply({40, 30});
  for (std::size_t len = 0; len < oldest.size(); ++len) {
    EXPECT_FALSE(DecodeOldestActiveReply(oldest.substr(0, len)).ok()) << len;
  }
  const std::string version = EncodeSnapshotReply(SnapshotReply{30, 7});
  for (std::size_t len = 0; len < version.size(); ++len) {
    EXPECT_FALSE(DecodeSnapshotReply(version.substr(0, len)).ok()) << len;
  }
  EXPECT_FALSE(DecodeDistResponse(std::string_view()).ok());
}

// A count of 0xFFFFFFFF with a few bytes behind it must come back as
// kCorruption: reserving for it would throw std::bad_alloc, which escapes
// the socket transport's serving thread and terminates the shard.
TEST(DistCodecTest, HostileCountsAreCorruption) {
  auto hostile = [](std::string wire, std::size_t count_at) {
    for (int i = 0; i < 4; ++i) wire[count_at + i] = '\xff';
    return wire + std::string(12, '\0');
  };
  // [type][stab u64][count u32]...
  const auto activity = DecodeActivityReq(
      hostile(EncodeActivityReq(ActivityReq{5, {}}), 1 + 8));
  ASSERT_FALSE(activity.ok());
  EXPECT_EQ(activity.status().code(), StatusCode::kCorruption);
  // [type][txn u64][init u64][segment u32][count u32]...
  const auto prepare = DecodePrepareReq(
      hostile(EncodePrepareReq(PrepareReq{1, 2, 0, {}}), 1 + 8 + 8 + 4));
  ASSERT_FALSE(prepare.ok());
  EXPECT_EQ(prepare.status().code(), StatusCode::kCorruption);
  // [count u32]...
  const auto oldest =
      DecodeOldestActiveReply(hostile(EncodeOldestActiveReply({}), 0));
  ASSERT_FALSE(oldest.ok());
  EXPECT_EQ(oldest.status().code(), StatusCode::kCorruption);
}

// ------------------------------------------------------------------------
// The distributed-soundness property (satellite of the sharded subsystem):
// the requester's A_i^j(m) — I^old composed along the critical path, local
// classes answered by the local controller, remote runs by DistNode
// replies, every answer memoized — equals the single-process bound on the
// same history. This is the whole basis of the zero-registration
// cross-node Protocol A read.
// ------------------------------------------------------------------------

// Hands each request straight to the receiving node's handler, through
// the response envelope a real transport wraps it in.
class DirectTransport : public Transport {
 public:
  void Attach(int node, DistNode* handler) { nodes_[node] = handler; }

  Result<std::string> Call(int from, int to, const std::string& request,
                           bool /*interruptible*/) override {
    counters_.Bump(PeekDistMsgType(request));
    return DecodeDistResponse(
        EncodeDistResponse(nodes_.at(to)->Handle(from, request)));
  }

 private:
  std::map<int, DistNode*> nodes_;
};

struct RandomHierarchy {
  PartitionSpec spec;
  std::vector<std::vector<SegmentId>> ancestors;  // per class, bottom-up
};

// Random tree with FULL ancestor closure as declared reads, so a critical
// path exists from every class to each of its ancestors.
RandomHierarchy MakeRandomHierarchy(Rng& rng) {
  RandomHierarchy h;
  const int n = static_cast<int>(rng.NextInRange(2, 7));
  std::vector<int> parent(n, -1);
  h.ancestors.resize(n);
  for (int v = 1; v < n; ++v) {
    parent[v] = static_cast<int>(rng.NextBounded(v));
    for (int a = parent[v]; a != -1; a = parent[a]) {
      h.ancestors[v].push_back(a);
    }
  }
  for (int v = 0; v < n; ++v) {
    h.spec.segment_names.push_back("S" + std::to_string(v));
    TransactionTypeSpec type;
    type.name = "class" + std::to_string(v);
    type.root_segment = v;
    type.read_segments = h.ancestors[v];
    h.spec.transaction_types.push_back(type);
  }
  return h;
}

TEST(DistBoundTest, RequesterBoundEqualsSingleProcessBound) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    RandomHierarchy h = MakeRandomHierarchy(rng);
    auto schema = HierarchySchema::Create(h.spec);
    ASSERT_TRUE(schema.ok()) << schema.status().ToString();
    const int n = schema->num_segments();

    Database db(n, 2);
    LogicalClock clock;
    HddController cc(&db, &clock, &*schema,
                     HddControllerOptions{.auto_trim_history = false});

    // Random activity: begins and commits of update transactions across
    // all classes, leaving some still active.
    std::vector<TxnDescriptor> open;
    for (int event = 0; event < 80; ++event) {
      if (!open.empty() && rng.NextBool(0.4)) {
        const std::size_t pick = static_cast<std::size_t>(
            rng.NextBounded(open.size()));
        ASSERT_TRUE(cc.Commit(open[pick]).ok());
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        TxnOptions options;
        options.txn_class = static_cast<ClassId>(rng.NextBounded(n));
        auto txn = cc.Begin(options);
        ASSERT_TRUE(txn.ok()) << txn.status().ToString();
        open.push_back(*txn);
      }
    }
    const Timestamp frontier = clock.Now() + 1;

    // Two splits: contiguous halves, and one class per node (every class
    // on a path is then its own run). Every node takes a turn as the
    // requester; the others answer through DistNode over the same
    // controller, so local answers and remote replies mix on one path.
    const ActivityLinkEvaluator& local_eval = cc.evaluator();
    std::uint64_t remote_runs = 0;
    for (const int nodes : {2, n}) {
      const ShardMap map = ShardMap::Contiguous(n, nodes);
      for (int requester = 0; requester < nodes; ++requester) {
        std::vector<std::unique_ptr<DistNode>> handlers;
        DirectTransport transport;
        for (int node = 0; node < nodes; ++node) {
          handlers.push_back(std::make_unique<DistNode>(node, &cc, &clock));
          transport.Attach(node, handlers.back().get());
        }
        DistLinkEvaluator remote_eval(requester, &map, &transport, &cc);
        for (ClassId i = 0; i < n; ++i) {
          std::vector<ClassId> targets =
              h.ancestors[static_cast<std::size_t>(i)];
          targets.push_back(i);  // A_i^i(m) = m on both sides
          for (ClassId j : targets) {
            for (Timestamp m = 0; m <= frontier; ++m) {
              auto remote = remote_eval.A(i, j, m);
              auto local = local_eval.A(i, j, m);
              ASSERT_TRUE(remote.ok()) << remote.status().ToString();
              ASSERT_TRUE(local.ok()) << local.status().ToString();
              ASSERT_EQ(*remote, *local)
                  << "seed " << seed << " nodes " << nodes << " requester "
                  << requester << " A_" << i << "^" << j << "(" << m << ")";
              EXPECT_LE(*remote, m);  // A never exceeds its argument
            }
          }
        }
        remote_runs += transport.counters().Get(DistMsgType::kActivityReq);
      }
    }
    EXPECT_GT(remote_runs, 0u) << "seed " << seed;
    for (auto& txn : open) ASSERT_TRUE(cc.Commit(txn).ok());
  }
}

}  // namespace
}  // namespace hdd
