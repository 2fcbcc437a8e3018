// Socket deployment smoke: the sharded hierarchy served by REAL
// processes over real TCP. Two tests:
//
//  * TwoProcessDeploymentServesClients execs the actual `hdd_server
//    --shard` binary twice (one process per shard node), drives updates
//    at each class's home front end plus a cross-shard read-only
//    transaction, and demands a clean SIGTERM shutdown (the binary
//    itself exits non-zero on a degraded clock or a leaked transport fd).
//  * InProcessPairLeaksNoFds runs two ShardServers inside this process —
//    still real sockets on loopback — so the zero-fd-leak assert can
//    inspect /proc/self/fd directly across Start/traffic/Stop.

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dist/shard_server.h"
#include "net/client.h"
#include "net/protocol.h"

namespace hdd {
namespace {

int CountOpenFds() {
  int count = 0;
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  while (readdir(dir) != nullptr) ++count;
  closedir(dir);
  return count;
}

/// Reserves a likely-free loopback port: bind port 0, read the assignment
/// back, close. The tiny race until the server rebinds it is acceptable
/// for a smoke test (a collision fails loudly at Start, not silently).
std::uint16_t PickFreePort() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return 0;
  }
  socklen_t len = sizeof(addr);
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  close(fd);
  return ntohs(addr.sin_port);
}

RequestMsg Submit(std::uint64_t id, ClassId cls, std::vector<WireOp> ops) {
  RequestMsg msg;
  msg.type = NetMsgType::kSubmit;
  msg.submit.request_id = id;
  msg.submit.txn_class = cls;
  msg.submit.ops = std::move(ops);
  return msg;
}

RequestMsg ReadOnly(std::uint64_t id, std::vector<SegmentId> scope,
                    std::vector<WireOp> ops) {
  RequestMsg msg;
  msg.type = NetMsgType::kSubmit;
  msg.submit.request_id = id;
  msg.submit.read_only = true;
  msg.submit.read_scope = std::move(scope);
  msg.submit.ops = std::move(ops);
  return msg;
}

/// The traffic both deployments must serve. Depth 4 over 2 nodes splits
/// classes {0,1} to node 0 and {2,3} to node 1.
void DriveTraffic(std::uint16_t front0, std::uint16_t front1) {
  SyncClient node0;
  SyncClient node1;
  ASSERT_TRUE(node0.Connect("127.0.0.1", front0).ok());
  ASSERT_TRUE(node1.Connect("127.0.0.1", front1).ok());

  // Update at each home: class 0 at node 0, class 3 at node 1. Class 3's
  // upper reads of segments 0..2 cross the shard boundary (slices +
  // snapshots from node 0), and its own writes stay in node 1's chains.
  Result<ResponseMsg> r =
      node0.Call(Submit(1, 0, {{WireOp::Kind::kWrite, {0, 0}, 11}}));
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->type, NetMsgType::kResult);
  EXPECT_TRUE(r->committed);

  r = node1.Call(Submit(2, 3,
                        {{WireOp::Kind::kRead, {0, 0}, 0},
                         {WireOp::Kind::kRead, {1, 0}, 0},
                         {WireOp::Kind::kRead, {2, 0}, 0},
                         {WireOp::Kind::kWrite, {3, 0}, 22}}));
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->type, NetMsgType::kResult);
  EXPECT_TRUE(r->committed);
  ASSERT_EQ(r->values.size(), 3u);
  EXPECT_EQ(r->values[0], 11);  // the cross-shard bounded read sees it

  // A mis-routed update must fail, never execute against a stand-in.
  r = node0.Call(Submit(3, 3, {{WireOp::Kind::kWrite, {3, 1}, 99}}));
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->type, NetMsgType::kResult);
  EXPECT_FALSE(r->committed);

  // Cross-shard read-only at node 0: scope spans both shards, so the
  // hosted bounds are evaluated from shipped slices and the reads of
  // segments 2..3 come out of node 1's shipped chains.
  r = node0.Call(ReadOnly(4, {0, 1, 2, 3},
                          {{WireOp::Kind::kRead, {0, 0}, 0},
                           {WireOp::Kind::kRead, {3, 0}, 0}}));
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->type, NetMsgType::kResult);
  EXPECT_TRUE(r->committed);
  ASSERT_EQ(r->values.size(), 2u);
  EXPECT_EQ(r->values[0], 11);
  EXPECT_EQ(r->values[1], 22);
}

#ifdef HDD_SERVER_BIN

struct ShardProc {
  pid_t pid = -1;
  FILE* out = nullptr;
  std::uint16_t front_port = 0;
};

/// fork+exec one `hdd_server --shard=I` process; parses the front-end
/// port from its banner line.
bool SpawnShard(int node, const std::string& peers, ShardProc* proc) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) {
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    return false;
  }
  if (pid == 0) {
    dup2(pipe_fds[1], STDOUT_FILENO);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    const std::string shard = "--shard=" + std::to_string(node);
    const std::string peer_flag = "--shard_peers=" + peers;
    execl(HDD_SERVER_BIN, HDD_SERVER_BIN, shard.c_str(), peer_flag.c_str(),
          "--port=0", "--depth=4", "--granules=8", "--workers=2",
          static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  close(pipe_fds[1]);
  proc->pid = pid;
  proc->out = fdopen(pipe_fds[0], "r");
  if (proc->out == nullptr) return false;
  char line[256];
  if (fgets(line, sizeof(line), proc->out) == nullptr) return false;
  const char* marker = std::strstr(line, "127.0.0.1:");
  if (marker == nullptr) return false;
  proc->front_port = static_cast<std::uint16_t>(
      std::strtoul(marker + std::strlen("127.0.0.1:"), nullptr, 10));
  return proc->front_port != 0;
}

TEST(DistSocket, TwoProcessDeploymentServesClients) {
  const std::uint16_t dist0 = PickFreePort();
  const std::uint16_t dist1 = PickFreePort();
  ASSERT_NE(dist0, 0);
  ASSERT_NE(dist1, 0);
  ASSERT_NE(dist0, dist1);
  const std::string peers =
      std::to_string(dist0) + "," + std::to_string(dist1);

  ShardProc shard0, shard1;
  ASSERT_TRUE(SpawnShard(0, peers, &shard0)) << "shard 0 failed to start";
  ASSERT_TRUE(SpawnShard(1, peers, &shard1)) << "shard 1 failed to start";

  DriveTraffic(shard0.front_port, shard1.front_port);

  // Graceful shutdown: the binary exits non-zero on a degraded remote
  // clock or a leaked transport fd, so the exit codes ARE the asserts.
  kill(shard0.pid, SIGTERM);
  kill(shard1.pid, SIGTERM);
  int status0 = 0, status1 = 0;
  ASSERT_EQ(waitpid(shard0.pid, &status0, 0), shard0.pid);
  ASSERT_EQ(waitpid(shard1.pid, &status1, 0), shard1.pid);
  fclose(shard0.out);
  fclose(shard1.out);
  EXPECT_TRUE(WIFEXITED(status0) && WEXITSTATUS(status0) == 0)
      << "shard 0 exit status " << status0;
  EXPECT_TRUE(WIFEXITED(status1) && WEXITSTATUS(status1) == 0)
      << "shard 1 exit status " << status1;
}

#endif  // HDD_SERVER_BIN

TEST(DistSocket, InProcessPairLeaksNoFds) {
  const int before = CountOpenFds();
  ASSERT_GT(before, 0);
  {
    const std::uint16_t dist0 = PickFreePort();
    const std::uint16_t dist1 = PickFreePort();
    ASSERT_NE(dist0, 0);
    ASSERT_NE(dist1, 0);
    ASSERT_NE(dist0, dist1);
    const std::vector<SocketPeer> peers = {{"", dist0}, {"", dist1}};

    ShardServerOptions options0;
    options0.node_id = 0;
    options0.peers = peers;
    options0.depth = 4;
    options0.granules_per_segment = 8;
    ShardServerOptions options1 = options0;
    options1.node_id = 1;

    ShardServer node0(options0);
    ShardServer node1(options1);
    ASSERT_EQ(node0.init_error(), "");
    ASSERT_EQ(node1.init_error(), "");
    ASSERT_TRUE(node0.Start().ok());
    ASSERT_TRUE(node1.Start().ok());

    DriveTraffic(node0.front_port(), node1.front_port());
    // The cross-shard traffic above went over real sockets.
    EXPECT_GT(node1.transport().counters().total(), 0u);
    EXPECT_EQ(node1.transport().counters().registration_messages(), 0u);

    EXPECT_TRUE(node0.Stop().ok());
    EXPECT_TRUE(node1.Stop().ok());
    EXPECT_EQ(node0.transport_open_fds(), 0);
    EXPECT_EQ(node1.transport_open_fds(), 0);
  }
  EXPECT_EQ(CountOpenFds(), before);
}

// A read-only submit whose read_scope names a segment outside the schema
// fails cleanly: the scope is validated before any shard-map lookup, so a
// wild segment id can no longer index the map out of bounds and take the
// node down. The node keeps serving and shuts down without leaking a
// transport socket.
TEST(DistSocket, OutOfRangeReadScopeFailsAndNodeKeepsServing) {
  const std::uint16_t dist0 = PickFreePort();
  ASSERT_NE(dist0, 0);
  ShardServerOptions options;
  options.node_id = 0;
  options.peers = {{"", dist0}};
  options.depth = 4;
  options.granules_per_segment = 8;
  ShardServer node(options);
  ASSERT_EQ(node.init_error(), "");
  ASSERT_TRUE(node.Start().ok());
  SyncClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", node.front_port()).ok());

  std::uint64_t id = 1;
  for (const std::vector<SegmentId>& scope :
       {std::vector<SegmentId>{0, 4}, std::vector<SegmentId>{0, 1000000},
        std::vector<SegmentId>{0, -5}}) {
    Result<ResponseMsg> r =
        client.Call(ReadOnly(id++, scope, {{WireOp::Kind::kRead, {0, 0}, 0}}));
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(r->type, NetMsgType::kResult);
    EXPECT_FALSE(r->committed) << "scope ending in " << scope.back();
  }
  Result<ResponseMsg> r =
      client.Call(Submit(id++, 0, {{WireOp::Kind::kWrite, {0, 0}, 5}}));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->committed);
  r = client.Call(ReadOnly(id++, {0, 1}, {{WireOp::Kind::kRead, {0, 0}, 0}}));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->committed);
  ASSERT_EQ(r->values.size(), 1u);
  EXPECT_EQ(r->values[0], 5);

  EXPECT_TRUE(node.Stop().ok());
  EXPECT_EQ(node.transport_open_fds(), 0);
}

}  // namespace
}  // namespace hdd
