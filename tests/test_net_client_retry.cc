// RetryingClient: client-side half of admission control. Against a real
// loopback server in forced-shed mode it must honor kOverload's
// retry-after hint with capped exponential backoff, and it must
// transparently reconnect and resend when the peer drops the connection.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/loopback.h"
#include "net/server.h"
#include "obs/metrics_registry.h"

namespace hdd {
namespace {

// Bounds every blocking read a test client makes, so a response that never
// comes fails the test in seconds instead of hanging until ctest's timeout.
bool SetRecvTimeout(int fd) {
  timeval timeout{};
  timeout.tv_sec = 10;
  return setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                    sizeof(timeout)) == 0;
}

class ClientRetryTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options) {
    SyntheticWorkloadParams params;
    world_ = MakeServerWorld(ControllerKind::kHdd, params);
    ASSERT_NE(world_, nullptr);
    options.num_classes = params.depth;
    server_ =
        std::make_unique<HddServer>(world_->cc.get(), options, &metrics_);
    const Status status = server_->Start();
    ASSERT_TRUE(status.ok()) << status;
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  // Forced-shed set-up: the filler's request must hold the single
  // admission slot before the probe sends. With two IO threads the
  // probe's first request could otherwise win the slot and block forever
  // on the paused worker.
  bool WaitForFillerAdmitted() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (metrics_.GetCounter("net_admitted").Value() < 1) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  static RequestMsg Submit(std::uint64_t id, ClassId cls,
                           std::vector<WireOp> ops) {
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

TEST_F(ClientRetryTest, RetriesThroughForcedShedUntilAdmitted) {
  // Forced-shed mode: workers paused and a tiny inflight cap, so real
  // kOverload responses are deterministic (no timing races). One filler
  // request occupies the whole cap.
  ServerOptions options;
  options.test_pause_workers = std::make_shared<std::atomic<bool>>(true);
  options.admission.total_inflight_cap = 1;
  options.admission.default_update = ClassPolicy{.weight = 8,
                                                 .inflight_cap = 1};
  StartServer(options);

  SyncClient filler;
  ASSERT_TRUE(filler.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(SetRecvTimeout(filler.fd()));
  ASSERT_TRUE(
      filler.Send(Submit(1, 0, {{WireOp::Kind::kWrite, {0, 0}, 7}})).ok());
  // The filler is admitted (never answered while paused); everything else
  // bounces with kOverload. Poll with a plain client until the admission
  // decision is visible, then aim the retrying client at the wall.
  ASSERT_TRUE(WaitForFillerAdmitted());
  SyncClient probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(SetRecvTimeout(probe.fd()));
  for (int i = 0; i < 200; ++i) {
    const Result<ResponseMsg> r = probe.Call(
        Submit(100 + static_cast<std::uint64_t>(i), 0,
               {{WireOp::Kind::kRead, {0, 0}, 0}}));
    ASSERT_TRUE(r.ok()) << r.status();
    if (r->type == NetMsgType::kOverload) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_LT(i, 199) << "forced shed never engaged";
  }

  RetryPolicy policy;
  policy.max_attempts = 64;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 20;
  RetryingClient client(policy);
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(SetRecvTimeout(client.sync().fd()));

  // Unpause shortly after the retry loop has eaten a few overloads; the
  // filler then drains, the cap frees, and a retry lands.
  std::thread unpause([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    options.test_pause_workers->store(false);
  });
  const Result<ResponseMsg> result =
      client.Call(Submit(2, 0, {{WireOp::Kind::kWrite, {0, 1}, 9}}));
  unpause.join();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->type, NetMsgType::kResult);
  EXPECT_TRUE(result->committed);
  EXPECT_GT(client.stats().overload_retries, 0u);
  EXPECT_GE(client.stats().attempts, 2u);

  const Result<ResponseMsg> fill = filler.Recv();
  ASSERT_TRUE(fill.ok()) << fill.status();
  EXPECT_EQ(fill->type, NetMsgType::kResult);
}

TEST_F(ClientRetryTest, BudgetExhaustedReturnsLastOverload) {
  ServerOptions options;
  options.test_pause_workers = std::make_shared<std::atomic<bool>>(true);
  options.admission.total_inflight_cap = 1;
  options.admission.default_update = ClassPolicy{.weight = 8,
                                                 .inflight_cap = 1};
  StartServer(options);

  SyncClient filler;
  ASSERT_TRUE(filler.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(SetRecvTimeout(filler.fd()));
  ASSERT_TRUE(
      filler.Send(Submit(1, 0, {{WireOp::Kind::kWrite, {0, 0}, 7}})).ok());
  ASSERT_TRUE(WaitForFillerAdmitted());
  SyncClient probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(SetRecvTimeout(probe.fd()));
  for (int i = 0; i < 200; ++i) {
    const Result<ResponseMsg> r = probe.Call(
        Submit(100 + static_cast<std::uint64_t>(i), 0,
               {{WireOp::Kind::kRead, {0, 0}, 0}}));
    ASSERT_TRUE(r.ok()) << r.status();
    if (r->type == NetMsgType::kOverload) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 2;
  RetryingClient client(policy);
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(SetRecvTimeout(client.sync().fd()));
  const Result<ResponseMsg> result =
      client.Call(Submit(2, 0, {{WireOp::Kind::kWrite, {0, 1}, 9}}));
  // The wall never moves: the budget ends ON an overload, which is
  // returned (with its hint) rather than swallowed.
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->type, NetMsgType::kOverload);
  EXPECT_EQ(client.stats().attempts, 3u);
  EXPECT_EQ(client.stats().overload_retries, 2u);

  // Let the worker drain the filler so Stop() does not wait on it.
  options.test_pause_workers->store(false);
  const Result<ResponseMsg> fill = filler.Recv();
  ASSERT_TRUE(fill.ok()) << fill.status();
}

TEST_F(ClientRetryTest, ReconnectsAfterPeerCloseAndResends) {
  StartServer(ServerOptions{});

  RetryingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(SetRecvTimeout(client.sync().fd()));
  const Result<ResponseMsg> first =
      client.Call(Submit(1, 0, {{WireOp::Kind::kWrite, {0, 0}, 11}}));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->committed);
  EXPECT_EQ(client.stats().reconnects, 0u);

  // Kill the stream: hostile bytes that cannot be a valid frame make the
  // server drop the connection.
  const std::string garbage(64, '\xff');
  ASSERT_GT(write(client.sync().fd(), garbage.data(), garbage.size()), 0);

  // The next call first finds the dead socket (send may still succeed
  // into the kernel buffer, but the response read hits EOF), reconnects
  // and resends — the caller never sees the hiccup.
  const Result<ResponseMsg> second =
      client.Call(Submit(2, 0, {{WireOp::Kind::kRead, {0, 0}, 0}}));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->type, NetMsgType::kResult);
  EXPECT_TRUE(second->committed);
  ASSERT_EQ(second->values.size(), 1u);
  EXPECT_EQ(second->values[0], 11);
  EXPECT_EQ(client.stats().reconnects, 1u);
}

TEST_F(ClientRetryTest, NoReconnectPolicySurfacesTransportError) {
  StartServer(ServerOptions{});
  RetryPolicy policy;
  policy.reconnect = false;
  RetryingClient client(policy);
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(SetRecvTimeout(client.sync().fd()));
  const std::string garbage(64, '\xff');
  ASSERT_GT(write(client.sync().fd(), garbage.data(), garbage.size()), 0);
  const Result<ResponseMsg> result =
      client.Call(Submit(1, 0, {{WireOp::Kind::kRead, {0, 0}, 0}}));
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(client.stats().reconnects, 0u);
}

}  // namespace
}  // namespace hdd
