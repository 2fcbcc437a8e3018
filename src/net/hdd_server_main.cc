// hdd_server: serve an HDD instance over TCP.
//
//   hdd_server [--port=N] [--controller=hdd|2pl|mvto|...] [--depth=N]
//              [--granules=N] [--io_threads=N] [--workers=N]
//              [--backend=per_txn|epoch] [--inflight_cap=N]
//
// Sharded deployment (one process per shard node, see src/dist/):
//
//   hdd_server --shard=I --shard_peers=P0,P1,... [--port=N] [--depth=N]
//              [--granules=N] [--workers=N] [--inflight_cap=N]
//
// where every process gets the SAME --shard_peers list (dist-transport
// ports; process I binds PI) and a distinct --shard index. Node 0 hosts
// the cluster clock. Update transactions must be submitted to the front
// end of their class's home node; read-only anywhere.
//
// Binds 127.0.0.1 (loopback service; put a real proxy in front for
// anything else), prints the bound port on stdout, serves until SIGINT or
// SIGTERM, then shuts down gracefully and prints a per-class summary.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "dist/shard_server.h"
#include "engine/harness.h"
#include "net/loopback.h"
#include "net/server.h"
#include "obs/report.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

std::uint64_t IntFlagOr(int argc, char** argv, const std::string& flag,
                        std::uint64_t fallback) {
  const auto value = hdd::FlagValue(argc, argv, flag);
  if (!value) return fallback;
  return static_cast<std::uint64_t>(std::strtoull(value->c_str(), nullptr, 10));
}

hdd::ControllerKind KindFromName(const std::string& name) {
  for (hdd::ControllerKind kind : hdd::AllControllerKinds()) {
    if (hdd::ControllerKindName(kind) == name) return kind;
  }
  std::cerr << "unknown controller '" << name << "', using hdd\n";
  return hdd::ControllerKind::kHdd;
}

std::vector<hdd::SocketPeer> ParsePeers(const std::string& list) {
  std::vector<hdd::SocketPeer> peers;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string token =
        list.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!token.empty()) {
      peers.push_back(hdd::SocketPeer{
          "", static_cast<std::uint16_t>(
                  std::strtoul(token.c_str(), nullptr, 10))});
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return peers;
}

int RunShard(int argc, char** argv, int node_id) {
  hdd::ShardServerOptions options;
  options.node_id = node_id;
  options.peers =
      ParsePeers(hdd::FlagValue(argc, argv, "--shard_peers").value_or(""));
  if (options.peers.size() < 2) {
    std::cerr << "--shard_peers must list a dist port per node\n";
    return 1;
  }
  options.depth = static_cast<int>(IntFlagOr(argc, argv, "--depth", 4));
  options.granules_per_segment =
      static_cast<std::uint32_t>(IntFlagOr(argc, argv, "--granules", 64));
  options.front_port =
      static_cast<std::uint16_t>(IntFlagOr(argc, argv, "--port", 0));
  options.front_workers =
      static_cast<int>(IntFlagOr(argc, argv, "--workers", 2));
  options.inflight_cap = IntFlagOr(argc, argv, "--inflight_cap", 1024);

  hdd::ShardServer server(std::move(options));
  const hdd::Status status = server.Start();
  if (!status.ok()) {
    std::cerr << "shard start failed: " << status << "\n";
    return 1;
  }
  std::cout << "hdd_server shard " << node_id << "/"
            << server.shard_map().num_nodes() << " listening on 127.0.0.1:"
            << server.front_port() << " (dist port " << server.dist_port()
            << ")\n"
            << std::flush;

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    struct timespec ts = {0, 100 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  const hdd::Status stopped = server.Stop();
  if (!stopped.ok()) {
    std::cerr << "shard degraded: " << stopped << "\n";
    return 1;
  }
  const int leaked = server.transport_open_fds();
  if (leaked != 0) {
    std::cerr << "transport leaked " << leaked << " fds\n";
    return 1;
  }
  std::cout << "shard " << node_id << " shutdown clean\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (const auto shard = hdd::FlagValue(argc, argv, "--shard")) {
    // Strict: the whole value must be decimal digits that fit an int. The
    // shard server range-checks it against the peer list.
    const bool digits =
        !shard->empty() &&
        std::all_of(shard->begin(), shard->end(),
                    [](unsigned char c) { return std::isdigit(c) != 0; });
    errno = 0;
    const long node_id =
        digits ? std::strtol(shard->c_str(), nullptr, 10) : -1;
    if (!digits || errno != 0 || node_id > std::numeric_limits<int>::max()) {
      std::cerr << "--shard must be a node index, got '" << *shard << "'\n";
      return 1;
    }
    return RunShard(argc, argv, static_cast<int>(node_id));
  }
  hdd::SyntheticWorkloadParams params;
  params.depth = static_cast<int>(IntFlagOr(argc, argv, "--depth", 4));
  params.granules_per_segment =
      static_cast<std::uint32_t>(IntFlagOr(argc, argv, "--granules", 256));
  const hdd::ControllerKind kind =
      KindFromName(hdd::FlagValue(argc, argv, "--controller").value_or("hdd"));
  auto world = hdd::MakeServerWorld(kind, params);
  if (!world) {
    std::cerr << "failed to build hierarchy schema\n";
    return 1;
  }

  hdd::ServerOptions options;
  options.port =
      static_cast<std::uint16_t>(IntFlagOr(argc, argv, "--port", 0));
  options.num_io_threads =
      static_cast<int>(IntFlagOr(argc, argv, "--io_threads", 2));
  options.num_workers =
      static_cast<int>(IntFlagOr(argc, argv, "--workers", 4));
  options.num_classes = params.depth;
  options.admission.total_inflight_cap =
      IntFlagOr(argc, argv, "--inflight_cap", 4096);
  if (hdd::FlagValue(argc, argv, "--backend").value_or("per_txn") == "epoch") {
    options.backend = hdd::ServerOptions::Backend::kEpoch;
  }

  hdd::MetricsRegistry metrics;
  hdd::HddServer server(world->cc.get(), options, &metrics);
  const hdd::Status status = server.Start();
  if (!status.ok()) {
    std::cerr << "server start failed: " << status << "\n";
    return 1;
  }
  std::cout << "hdd_server listening on 127.0.0.1:" << server.port()
            << " (controller=" << hdd::ControllerKindName(kind)
            << ", classes=" << params.depth << ")\n"
            << std::flush;

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    struct timespec ts = {0, 100 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  server.Stop();

  std::cout << "\nshutdown. counters:\n";
  for (const auto& [name, value] : metrics.SnapshotCounters()) {
    std::cout << "  " << name << " " << value << "\n";
  }
  return 0;
}
