// kill -9 of a real served process under load: a forked child serves HDD
// through HddServer over a group-commit WAL on FileWalStorage, the parent
// drives pipelined updates with unique values over loopback and SIGKILLs
// the child mid-load, while acks are parked behind the group commit.
// Recovery of the WAL directory must hold every (granule, value) pair the
// client saw acked as a committed version. The same fork + SIGKILL
// pattern as test_wal_crash_process.cc, one layer up: here the ack is the
// server's response, sent by its completion thread once the synced
// frontier passed the commit's ticket. A kill -9 keeps the page cache, so
// this proves the real-process path end to end (no ack before the commit
// record reached the file, recovery of a directory killed mid-load); an
// ack sent before the fdatasync is caught by test_net_server's held-sync
// tests and, under the lost-buffer model, by the sim crash sweeps.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/harness.h"
#include "engine/synthetic_workload.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics_registry.h"
#include "storage/database.h"
#include "wal/recovery.h"
#include "wal/wal_manager.h"
#include "wal/wal_storage.h"

namespace hdd {
namespace {

constexpr std::size_t kPipeline = 16;
// The parent kills the child once this many updates were acked.
constexpr std::uint64_t kAcksBeforeKill = 400;

SyntheticWorkloadParams Params() {
  SyntheticWorkloadParams params;
  params.depth = 3;
  params.granules_per_segment = 16;
  return params;
}

// Child body: never returns. Serves until killed; the bound port goes to
// the parent through `port_fd`.
[[noreturn]] void RunServerChild(const std::string& wal_dir, int port_fd) {
  const SyntheticWorkloadParams params = Params();
  SyntheticWorkload workload(params);
  std::unique_ptr<Database> db = workload.MakeDatabase();
  FileWalStorage storage(wal_dir);
  WalOptions options;
  options.group.mode = WalSyncMode::kGroupCommit;
  auto wal = WalManager::Open(&storage, db->num_segments(), options);
  if (!wal.ok()) _exit(3);
  db->AttachWal(wal->get());
  auto schema = HierarchySchema::Create(workload.Spec());
  if (!schema.ok()) _exit(4);
  LogicalClock clock;
  std::unique_ptr<ConcurrencyController> cc =
      CreateController(ControllerKind::kHdd, db.get(), &clock, &*schema);
  cc->recorder().set_enabled(false);
  MetricsRegistry metrics;
  ServerOptions server_options;
  server_options.num_workers = 2;
  server_options.num_io_threads = 1;
  server_options.num_classes = params.depth;
  HddServer server(cc.get(), server_options, &metrics);
  if (!server.Start().ok()) _exit(5);
  const std::uint16_t port = server.port();
  if (::write(port_fd, &port, sizeof(port)) != sizeof(port)) _exit(6);
  ::close(port_fd);
  for (;;) ::pause();
}

struct Written {
  GranuleRef granule;
  Value value = 0;
};

// Kills and reaps the child when a failed assertion leaves the test early.
struct ChildGuard {
  pid_t pid;
  ~ChildGuard() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
};

TEST(ServedProcessCrash, Kill9MidLoadKeepsEveryAckedCommit) {
  char dir_template[] = "hdd_walcrash.XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr) << std::strerror(errno);
  const std::string scratch = dir_template;
  const std::string wal_dir = scratch + "/wal";

  int port_pipe[2];
  ASSERT_EQ(::pipe(port_pipe), 0) << std::strerror(errno);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << std::strerror(errno);
  if (child == 0) {
    ::close(port_pipe[0]);
    RunServerChild(wal_dir, port_pipe[1]);  // never returns
  }
  ChildGuard guard{child};
  ::close(port_pipe[1]);
  std::uint16_t port = 0;
  const ssize_t got = ::read(port_pipe[0], &port, sizeof(port));
  ::close(port_pipe[0]);
  ASSERT_EQ(got, static_cast<ssize_t>(sizeof(port)))
      << "the server child did not start";

  // Pipelined updates, each writing a value no other request writes.
  const SyntheticWorkloadParams params = Params();
  SyncClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  std::map<std::uint64_t, Written> in_flight;
  std::vector<Written> acked;
  std::uint64_t next_id = 1;
  const auto send_one = [&] {
    const std::uint64_t id = next_id++;
    const auto cls = static_cast<ClassId>(id % params.depth);
    const GranuleRef granule{
        static_cast<SegmentId>(cls),
        static_cast<std::uint32_t>((id * 7) % params.granules_per_segment)};
    RequestMsg msg;
    msg.submit.request_id = id;
    msg.submit.txn_class = cls;
    msg.submit.ops = {{WireOp::Kind::kWrite, granule,
                       static_cast<Value>(1000000 + id)}};
    in_flight[id] = Written{granule, static_cast<Value>(1000000 + id)};
    return client.Send(msg).ok();
  };
  for (std::size_t i = 0; i < kPipeline; ++i) ASSERT_TRUE(send_one());
  while (acked.size() < kAcksBeforeKill) {
    const Result<ResponseMsg> response = client.Recv();
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_EQ(response->type, NetMsgType::kResult);
    const auto it = in_flight.find(response->request_id);
    ASSERT_NE(it, in_flight.end());
    if (response->committed) acked.push_back(it->second);
    in_flight.erase(it);
    ASSERT_TRUE(send_one());
  }
  // Mid-load: kPipeline requests are still in flight, some executing and
  // some parked behind the group commit.
  ASSERT_EQ(::kill(child, SIGKILL), 0) << std::strerror(errno);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  guard.pid = 0;
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);
  client.Close();

  SyntheticWorkload workload(params);
  std::unique_ptr<Database> db = workload.MakeDatabase();
  FileWalStorage storage(wal_dir);
  const Result<RecoveryReport> report = RecoverDatabase(&storage, db.get());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GE(report->durable_commits.size(), acked.size());
  for (const Written& w : acked) {
    bool found = false;
    for (const Version& v : db->granule(w.granule).versions()) {
      found = found || (v.value == w.value && v.committed);
    }
    EXPECT_TRUE(found) << "acked value " << w.value << " of granule ("
                       << w.granule.segment << "," << w.granule.index
                       << ") was not recovered";
  }

  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);
}

}  // namespace
}  // namespace hdd
