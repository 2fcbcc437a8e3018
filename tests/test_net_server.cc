// End-to-end tests of the network front end: admission policy, the epoll
// server against real loopback sockets, backpressure, overload shedding
// (Protocol C first), graceful shutdown, fd hygiene, and durable serving
// (responses parked until the WAL's group commit syncs their commit), the
// last both for a single node's HddController and for a shard's
// DistSession, which the server serves down the same path.

#include <dirent.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dist/dist_session.h"
#include "dist/shard_map.h"
#include "engine/harness.h"
#include "engine/synthetic_workload.h"
#include "held_sync_storage.h"
#include "net/admission.h"
#include "net/client.h"
#include "net/loopback.h"
#include "net/server.h"
#include "obs/metrics_registry.h"
#include "wal/log_format.h"
#include "wal/wal_manager.h"
#include "wal/wal_storage.h"

namespace hdd {
namespace {

int CountOpenFds() {
  int count = 0;
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  while (readdir(dir) != nullptr) ++count;
  closedir(dir);
  return count;  // includes ".", "..", and the dirfd itself — fine: we
                 // only ever compare before/after counts.
}

TEST(Admission, AdmitsWithinCapsAndFinishFrees) {
  AdmissionOptions options;
  options.total_inflight_cap = 4;
  MetricsRegistry metrics;
  AdmissionController admission(options, 1, &metrics);
  EXPECT_TRUE(admission.KnowsClass(0));
  EXPECT_TRUE(admission.KnowsClass(kReadOnlyClass));
  EXPECT_FALSE(admission.KnowsClass(1));
  EXPECT_FALSE(admission.KnowsClass(-2));

  // Update cap derives from weights: 4 * 8 / (8 + 1) = 3.
  EXPECT_TRUE(admission.TryAdmit(0).admitted);
  EXPECT_TRUE(admission.TryAdmit(0).admitted);
  EXPECT_TRUE(admission.TryAdmit(0).admitted);
  const AdmitDecision refused = admission.TryAdmit(0);
  EXPECT_FALSE(refused.admitted);
  EXPECT_GT(refused.retry_after_ms, 0u);
  admission.Finish(0);
  EXPECT_TRUE(admission.TryAdmit(0).admitted);
  EXPECT_EQ(admission.total_inflight(), 3u);
  EXPECT_EQ(metrics.GetCounter("net_class_c0_admitted").Value(), 4u);
  EXPECT_EQ(metrics.GetCounter("net_class_c0_shed").Value(), 1u);
}

TEST(Admission, ReadOnlyShedsFirstUnderLoad) {
  AdmissionOptions options;
  options.total_inflight_cap = 10;
  options.shed_threshold = 0.5;
  MetricsRegistry metrics;
  AdmissionController admission(options, 1, &metrics);

  // Below the overload threshold both classes are welcome.
  EXPECT_TRUE(admission.TryAdmit(kReadOnlyClass).admitted);
  admission.Finish(kReadOnlyClass);

  for (int i = 0; i < 5; ++i) EXPECT_TRUE(admission.TryAdmit(0).admitted);
  // Past the threshold: Protocol C (weight 1 < floor 2) is refused while
  // update-class traffic still gets the remaining headroom.
  EXPECT_FALSE(admission.TryAdmit(kReadOnlyClass).admitted);
  EXPECT_TRUE(admission.TryAdmit(0).admitted);

  // Pressure released: read-only flows again.
  for (int i = 0; i < 3; ++i) admission.Finish(0);
  EXPECT_TRUE(admission.TryAdmit(kReadOnlyClass).admitted);
}

TEST(Admission, TokenBucketRateLimitsWithRetryHint) {
  AdmissionOptions options;
  options.per_class[0] = ClassPolicy{.weight = 8,
                                     .inflight_cap = 100,
                                     .rate_per_sec = 0.5,
                                     .burst = 1.0};
  options.total_inflight_cap = 100;
  AdmissionController admission(options, 1, nullptr);
  EXPECT_TRUE(admission.TryAdmit(0).admitted);
  const AdmitDecision limited = admission.TryAdmit(0);
  EXPECT_FALSE(limited.admitted);
  // Refilling to one token at 0.5/s takes ~2s; the hint says so.
  EXPECT_GT(limited.retry_after_ms, 1000u);
}

TEST(Admission, CloseRefusesEverything) {
  AdmissionController admission(AdmissionOptions{}, 1, nullptr);
  admission.Close();
  EXPECT_FALSE(admission.TryAdmit(0).admitted);
  EXPECT_FALSE(admission.TryAdmit(kReadOnlyClass).admitted);
}

class NetServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options,
                   SyntheticWorkloadParams params = {}) {
    world_ = MakeServerWorld(ControllerKind::kHdd, params);
    ASSERT_NE(world_, nullptr);
    options.num_classes = params.depth;
    server_ =
        std::make_unique<HddServer>(world_->cc.get(), options, &metrics_);
    const Status status = server_->Start();
    ASSERT_TRUE(status.ok()) << status;
  }

  RequestMsg Submit(std::uint64_t id, ClassId cls,
                    std::vector<WireOp> ops) const {
    RequestMsg msg;
    msg.type = NetMsgType::kSubmit;
    msg.submit.request_id = id;
    msg.submit.txn_class = cls;
    msg.submit.ops = std::move(ops);
    return msg;
  }

  MetricsRegistry metrics_;
  std::unique_ptr<ServerWorld> world_;
  std::unique_ptr<HddServer> server_;
};

TEST_F(NetServerTest, StartStopLeaksNoFds) {
  const int before = CountOpenFds();
  {
    StartServer(ServerOptions{});
    SyncClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    RequestMsg ping;
    ping.type = NetMsgType::kPing;
    ping.request_id = 1;
    const Result<ResponseMsg> pong = client.Call(ping);
    ASSERT_TRUE(pong.ok()) << pong.status();
    EXPECT_EQ(pong->type, NetMsgType::kPong);
    EXPECT_EQ(pong->request_id, 1u);
    client.Close();
    server_->Stop();
    server_.reset();
  }
  EXPECT_EQ(CountOpenFds(), before);
}

TEST_F(NetServerTest, SubmitWritesThenReadsBack) {
  StartServer(ServerOptions{});
  SyncClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  const Result<ResponseMsg> write = client.Call(Submit(
      1, 0, {{WireOp::Kind::kWrite, {0, 3}, 42}}));
  ASSERT_TRUE(write.ok()) << write.status();
  EXPECT_EQ(write->type, NetMsgType::kResult);
  EXPECT_TRUE(write->committed);

  const Result<ResponseMsg> read = client.Call(Submit(
      2, 0, {{WireOp::Kind::kRead, {0, 3}, 0}}));
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->type, NetMsgType::kResult);
  EXPECT_TRUE(read->committed);
  ASSERT_EQ(read->values.size(), 1u);
  EXPECT_EQ(read->values[0], 42);
  server_->Stop();
}

TEST_F(NetServerTest, PipelinedRequestsAllAnswered) {
  StartServer(ServerOptions{});
  SyncClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  constexpr int kRequests = 200;
  for (int i = 0; i < kRequests; ++i) {
    const std::uint32_t g = static_cast<std::uint32_t>(i % 64);
    ASSERT_TRUE(client
                    .Send(Submit(static_cast<std::uint64_t>(i), 0,
                                 {{WireOp::Kind::kWrite, {0, g}, i},
                                  {WireOp::Kind::kRead, {0, g}, 0}}))
                    .ok());
  }
  std::set<std::uint64_t> answered;
  for (int i = 0; i < kRequests; ++i) {
    const Result<ResponseMsg> msg = client.Recv();
    ASSERT_TRUE(msg.ok()) << msg.status();
    EXPECT_EQ(msg->type, NetMsgType::kResult);
    EXPECT_TRUE(msg->committed);
    answered.insert(msg->request_id);
  }
  EXPECT_EQ(answered.size(), static_cast<std::size_t>(kRequests));
  EXPECT_EQ(metrics_.GetCounter("net_committed").Value(),
            static_cast<std::uint64_t>(kRequests));
  server_->Stop();
}

TEST_F(NetServerTest, ProtocolCShedsBeforeUpdateClasses) {
  // An update backlog held past the 50% overload threshold (workers
  // paused, so the backlog cannot race away on a one-core host): every
  // Protocol C read must bounce with a retry-after hint while
  // update-class traffic keeps being admitted; once pressure releases,
  // read-only traffic flows again.
  auto pause = std::make_shared<std::atomic<bool>>(true);
  ServerOptions options;
  options.num_workers = 1;
  options.admission.total_inflight_cap = 20;
  options.admission.shed_threshold = 0.5;
  options.per_connection_inflight_cap = 64;
  options.test_pause_workers = pause;
  SyntheticWorkloadParams params;
  params.depth = 1;
  StartServer(options, params);

  SyncClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  constexpr int kUpdates = 12;  // past the threshold (10), under the
                                // update-class cap (20 * 8/9 = 17)
  constexpr int kReads = 10;
  for (int i = 0; i < kUpdates; ++i) {
    ASSERT_TRUE(client
                    .Send(Submit(static_cast<std::uint64_t>(i), 0,
                                 {{WireOp::Kind::kWrite,
                                   {0, static_cast<std::uint32_t>(i % 64)},
                                   i}}))
                    .ok());
  }
  // The RO submits trail the updates on the same connection, so they hit
  // admission only after all 12 updates are in the (frozen) backlog.
  for (int i = 0; i < kReads; ++i) {
    RequestMsg msg;
    msg.type = NetMsgType::kSubmit;
    msg.submit.request_id = static_cast<std::uint64_t>(1000 + i);
    msg.submit.read_only = true;
    msg.submit.ops = {{WireOp::Kind::kRead, {0, 0}, 0}};
    ASSERT_TRUE(client.Send(msg).ok());
  }

  // The shed responses arrive while the backlog is still frozen.
  int ro_overload = 0;
  for (int i = 0; i < kReads; ++i) {
    const Result<ResponseMsg> msg = client.Recv();
    ASSERT_TRUE(msg.ok()) << msg.status();
    ASSERT_EQ(msg->type, NetMsgType::kOverload) << "id " << msg->request_id;
    EXPECT_GE(msg->request_id, 1000u);  // only the RO traffic was refused
    EXPECT_GT(msg->retry_after_ms, 0u);
    ++ro_overload;
  }
  EXPECT_EQ(ro_overload, kReads);

  // Release the workers: the admitted updates all commit.
  pause->store(false);
  int update_committed = 0;
  for (int i = 0; i < kUpdates; ++i) {
    const Result<ResponseMsg> msg = client.Recv();
    ASSERT_TRUE(msg.ok()) << msg.status();
    EXPECT_EQ(msg->type, NetMsgType::kResult);
    EXPECT_LT(msg->request_id, 1000u);
    if (msg->committed) ++update_committed;
  }
  EXPECT_EQ(update_committed, kUpdates);
  EXPECT_EQ(metrics_.GetCounter("net_class_ro_shed").Value(),
            static_cast<std::uint64_t>(kReads));
  EXPECT_EQ(metrics_.GetCounter("net_class_c0_shed").Value(), 0u);

  // Pressure released: Protocol C is served again.
  RequestMsg ro;
  ro.type = NetMsgType::kSubmit;
  ro.submit.request_id = 2000;
  ro.submit.read_only = true;
  ro.submit.ops = {{WireOp::Kind::kRead, {0, 0}, 0}};
  const Result<ResponseMsg> served = client.Call(ro);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->type, NetMsgType::kResult);
  EXPECT_TRUE(served->committed);
  server_->Stop();
}

TEST_F(NetServerTest, BackpressureBoundsServerQueues) {
  // Per-connection inflight cap 4, total cap 8: a 300-request pipelined
  // burst must flow through without the server's queue gauge ever needing
  // more than the admission bound — excess bytes wait in the socket.
  ServerOptions options;
  options.num_workers = 2;
  options.per_connection_inflight_cap = 4;
  options.admission.total_inflight_cap = 8;
  // One update class: its derived admission cap (8 * 8/9 = 7) sits above
  // the per-connection cap, so the pause-reads path — not shedding — is
  // what bounds the flow.
  SyntheticWorkloadParams params;
  params.depth = 1;
  StartServer(options, params);

  SyncClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  constexpr int kRequests = 300;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client
                    .Send(Submit(static_cast<std::uint64_t>(i), 0,
                                 {{WireOp::Kind::kWrite,
                                   {0, static_cast<std::uint32_t>(i % 64)},
                                   i}}))
                    .ok());
  }
  int committed = 0, overload = 0;
  for (int i = 0; i < kRequests; ++i) {
    const Result<ResponseMsg> msg = client.Recv();
    ASSERT_TRUE(msg.ok()) << msg.status() << " after " << i;
    if (msg->type == NetMsgType::kResult && msg->committed) ++committed;
    if (msg->type == NetMsgType::kOverload) ++overload;
  }
  // With the pipeline paused at 4 inflight, admission never sees more
  // than the per-connection cap — nothing is shed, nothing queues deep.
  EXPECT_EQ(committed, kRequests);
  EXPECT_EQ(overload, 0);
  EXPECT_EQ(metrics_.GetGauge("net_queue_depth").Value(), 0u);
  server_->Stop();
}

TEST_F(NetServerTest, CorruptFrameClosesConnection) {
  StartServer(ServerOptions{});
  SyncClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  // Prove the connection is live first.
  RequestMsg ping;
  ping.type = NetMsgType::kPing;
  ping.request_id = 1;
  ASSERT_TRUE(client.Call(ping).ok());

  // Now write a frame whose payload fails the CRC: the server must treat
  // the stream as garbage and close the connection, not answer.
  std::string frame;
  AppendNetFrame(&frame, "hello");
  frame[frame.size() - 1] = static_cast<char>(frame[frame.size() - 1] ^ 0x1);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n =
        ::write(client.fd(), frame.data() + off, frame.size() - off);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
  const Result<ResponseMsg> reply = client.Recv();
  EXPECT_FALSE(reply.ok());  // EOF: connection closed by server
  EXPECT_GE(metrics_.GetCounter("net_protocol_errors").Value(), 1u);
  server_->Stop();
  EXPECT_EQ(server_->connection_count(), 0u);
}

TEST_F(NetServerTest, MalformedPayloadAnswersErrorUnknownClassToo) {
  StartServer(ServerOptions{});  // num_classes = depth = 4
  SyncClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  // Structurally valid submit naming a class the server does not serve
  // -> kError, and the connection survives.
  const Result<ResponseMsg> error =
      client.Call(Submit(1, 99, {{WireOp::Kind::kWrite, {0, 0}, 1}}));
  ASSERT_TRUE(error.ok()) << error.status();
  EXPECT_EQ(error->type, NetMsgType::kError);
  // Connection still serves valid traffic afterwards.
  const Result<ResponseMsg> good =
      client.Call(Submit(2, 0, {{WireOp::Kind::kWrite, {0, 0}, 1}}));
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->type, NetMsgType::kResult);
  server_->Stop();
}

TEST_F(NetServerTest, LoadDriverRoundTripAndGracefulStop) {
  ServerOptions options;
  options.num_io_threads = 2;
  options.num_workers = 2;
  StartServer(options);
  DriverOptions driver;
  driver.port = server_->port();
  driver.connections = 50;
  driver.pipeline = 4;
  driver.requests_per_connection = 20;
  SyntheticWorkloadParams params;  // depth 4, matches StartServer default
  driver.make_request = [&params](std::size_t, std::uint64_t, Rng& rng) {
    return MakeSyntheticRequest(params, rng);
  };
  const DriverStats stats = RunLoadDriver(driver);
  EXPECT_EQ(stats.connected, 50u);
  EXPECT_EQ(stats.responses, 50u * 20u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GT(stats.committed, 0u);
  EXPECT_EQ(stats.committed + stats.failed + stats.overload, stats.responses);
  server_->Stop();
  EXPECT_EQ(server_->connection_count(), 0u);
  EXPECT_EQ(metrics_.GetGauge("net_connections").Value(), 0u);
}

// The controller a durable server serves: the HDD controller itself, as a
// single node does, or a one-node DistSession over it, as a shard does.
enum class Served { kNode, kShardSession };

// A served HDD controller over a group-commit WAL on HeldSyncStorage.
class DurableServerTest : public ::testing::TestWithParam<Served> {
 protected:
  static constexpr int kWorkers = 2;
  static constexpr int kRequests = 6;  // more than kWorkers

  void StartServer(WalOptions wal_options = {}) {
    SyntheticWorkload workload(params_);
    db_ = workload.MakeDatabase();
    wal_options.group.mode = WalSyncMode::kGroupCommit;
    Result<std::unique_ptr<WalManager>> wal =
        WalManager::Open(&storage_, db_->num_segments(), wal_options);
    ASSERT_TRUE(wal.ok()) << wal.status();
    wal_ = std::move(*wal);
    db_->AttachWal(wal_.get());
    Result<HierarchySchema> schema = HierarchySchema::Create(workload.Spec());
    ASSERT_TRUE(schema.ok()) << schema.status();
    schema_.emplace(std::move(schema).value());
    cc_ = std::make_unique<HddController>(db_.get(), &clock_, &*schema_);
    ConcurrencyController* served = cc_.get();
    if (GetParam() == Served::kShardSession) {
      // One node homes every class and owns every segment, so the session
      // never calls a peer and needs no transport.
      session_ = std::make_unique<DistSession>(0, &map_, nullptr, cc_.get());
      served = session_.get();
    }
    ServerOptions options;
    options.num_workers = kWorkers;
    options.num_classes = params_.depth;
    server_ = std::make_unique<HddServer>(served, options, &metrics_);
    const Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started;
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port()).ok());
  }

  void TearDown() override {
    storage_.Release();  // a failed test must not leave Stop() waiting
    server_.reset();
  }

  // Class 0 writes `value` to granule (0, g), then reads it back.
  static RequestMsg Update(std::uint64_t id, std::uint32_t g, Value value) {
    RequestMsg msg;
    msg.submit.request_id = id;
    msg.submit.txn_class = 0;
    msg.submit.ops = {{WireOp::Kind::kWrite, {0, g}, value},
                      {WireOp::Kind::kRead, {0, g}, 0}};
    return msg;
  }

  // A shard's read-only transaction declares its scope; a single node's
  // reads under a time wall (Protocol C).
  RequestMsg ReadOnly(std::uint64_t id, std::uint32_t g) const {
    RequestMsg msg;
    msg.submit.request_id = id;
    msg.submit.read_only = true;
    if (GetParam() == Served::kShardSession) msg.submit.read_scope = {0};
    msg.submit.ops = {{WireOp::Kind::kRead, {0, g}, 0}};
    return msg;
  }

  std::uint64_t Commits() const { return cc_->metrics().commits.Value(); }

  // Waits until the controller has committed `n` transactions in all.
  bool WaitForCommits(std::uint64_t n) const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (Commits() < n) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  // True when a response reaches the client within `ms`.
  bool AnswerArrivesWithin(int ms) {
    pollfd pfd{client_.fd(), POLLIN, 0};
    return ::poll(&pfd, 1, ms) > 0;
  }

  // Sends kRequests updates with the sync held and waits until every one
  // is installed. Returns whether an answer reached the client within
  // `wait_ms` more, before the sync was released — a durability
  // violation, unless the WAL is told to skip its syncs.
  bool AnsweredWithTheSyncHeld(int wait_ms) {
    storage_.Hold();
    const std::uint64_t before = Commits();
    for (int i = 0; i < kRequests; ++i) {
      EXPECT_TRUE(client_
                      .Send(Update(static_cast<std::uint64_t>(i + 1),
                                   static_cast<std::uint32_t>(i), 100 + i))
                      .ok());
    }
    EXPECT_TRUE(WaitForCommits(before + kRequests));
    return AnswerArrivesWithin(wait_ms);
  }

  // Receives `n` responses, keyed by request id.
  std::map<std::uint64_t, ResponseMsg> Receive(int n) {
    std::map<std::uint64_t, ResponseMsg> out;
    for (int i = 0; i < n; ++i) {
      Result<ResponseMsg> msg = client_.Recv();
      EXPECT_TRUE(msg.ok()) << msg.status();
      if (!msg.ok()) break;
      EXPECT_EQ(msg->type, NetMsgType::kResult);
      out[msg->request_id] = *msg;
    }
    return out;
  }

  std::uint64_t CounterValue(const char* name) {
    return metrics_.GetCounter(name).Value();
  }

  SyntheticWorkloadParams params_;
  HeldSyncStorage storage_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<WalManager> wal_;
  LogicalClock clock_;
  std::optional<HierarchySchema> schema_;
  std::unique_ptr<HddController> cc_;
  ShardMap map_ = ShardMap::Contiguous(params_.depth, 1);
  std::unique_ptr<DistSession> session_;
  MetricsRegistry metrics_;
  std::unique_ptr<HddServer> server_;
  SyncClient client_;
};

TEST_P(DurableServerTest, UpdatesInstallButAreAnsweredOnlyAfterTheSync) {
  StartServer();
  // Every update installed although the workers are fewer: none of them
  // waits out the sync.
  EXPECT_FALSE(AnsweredWithTheSyncHeld(200));
  EXPECT_EQ(CounterValue("net_committed"), 0u);
  storage_.Release();
  const std::map<std::uint64_t, ResponseMsg> answers = Receive(kRequests);
  ASSERT_EQ(answers.size(), static_cast<std::size_t>(kRequests));
  for (const auto& [id, msg] : answers) {
    EXPECT_TRUE(msg.committed) << "request " << id;
    EXPECT_EQ(msg.values, std::vector<Value>{static_cast<Value>(99 + id)})
        << "request " << id;
  }
  EXPECT_EQ(CounterValue("net_committed"),
            static_cast<std::uint64_t>(kRequests));
  // One commit wait per acked commit, however many syncs covered them.
  EXPECT_EQ(wal_->metrics().commit_waits.Value(),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(metrics_.GetHistogram("net_ack_wait_us").snapshot().count,
            static_cast<std::uint64_t>(kRequests));
  server_->Stop();
}

TEST_P(DurableServerTest, ReadOnlyRequestsParkTheSameWay) {
  StartServer();
  const Result<ResponseMsg> written = client_.Call(Update(1, 7, 77));
  ASSERT_TRUE(written.ok()) << written.status();
  ASSERT_TRUE(written->committed);
  storage_.Hold();
  const std::uint64_t before = Commits();
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(
        client_.Send(ReadOnly(static_cast<std::uint64_t>(10 + i), 7)).ok());
  }
  ASSERT_TRUE(WaitForCommits(before + kRequests));
  EXPECT_FALSE(AnswerArrivesWithin(200));
  storage_.Release();
  const std::map<std::uint64_t, ResponseMsg> answers = Receive(kRequests);
  ASSERT_EQ(answers.size(), static_cast<std::size_t>(kRequests));
  for (const auto& [id, msg] : answers) {
    EXPECT_TRUE(msg.committed) << "request " << id;
    EXPECT_EQ(msg.values.size(), 1u) << "request " << id;
  }
  server_->Stop();
}

TEST_P(DurableServerTest, StopDeliversEveryParkedResponse) {
  StartServer();
  EXPECT_FALSE(AnsweredWithTheSyncHeld(200));
  // Stop() drains parked responses too, so it waits for the sync.
  std::thread stopper([this] { server_->Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(AnswerArrivesWithin(0));
  storage_.Release();
  stopper.join();
  const std::map<std::uint64_t, ResponseMsg> answers = Receive(kRequests);
  std::uint64_t acked = 0;
  for (const auto& [id, msg] : answers) acked += msg.committed ? 1 : 0;
  EXPECT_EQ(acked, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(acked, CounterValue("net_committed"));
}

TEST_P(DurableServerTest, FailedSyncAnswersEveryParkedRequestAsFailed) {
  StartServer();
  EXPECT_FALSE(AnsweredWithTheSyncHeld(200));
  storage_.FailNextSyncs(1);
  storage_.Release();
  const std::map<std::uint64_t, ResponseMsg> answers = Receive(kRequests);
  ASSERT_EQ(answers.size(), static_cast<std::size_t>(kRequests));
  for (const auto& [id, msg] : answers) {
    EXPECT_FALSE(msg.committed) << "request " << id;
  }
  EXPECT_EQ(CounterValue("net_failed"),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(CounterValue("net_committed"), 0u);
  // The WAL's error is sticky: a later commit is not acked either.
  const Result<ResponseMsg> later = client_.Call(Update(99, 9, 9));
  ASSERT_TRUE(later.ok()) << later.status();
  EXPECT_FALSE(later->committed);
  EXPECT_EQ(CounterValue("net_committed"), 0u);
  server_->Stop();
}

// Canary: a WAL that acks without syncing (the lost-ack mutation) must
// trip the check the tests above rely on.
TEST_P(DurableServerTest, SkippedSyncCanaryIsCaught) {
  WalOptions mutated;
  mutated.mutation_skip_commit_sync = true;
  StartServer(mutated);
  EXPECT_TRUE(AnsweredWithTheSyncHeld(/*wait_ms=*/10000));
  storage_.Release();
  Receive(kRequests);
  server_->Stop();
}

INSTANTIATE_TEST_SUITE_P(
    Controllers, DurableServerTest,
    ::testing::Values(Served::kNode, Served::kShardSession),
    [](const ::testing::TestParamInfo<Served>& info) {
      return info.param == Served::kNode ? "Node" : "ShardSession";
    });

}  // namespace
}  // namespace hdd
