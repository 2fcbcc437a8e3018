// hdd_server: serve an HDD instance over TCP.
//
//   hdd_server [--port=N] [--controller=hdd|2pl|mvto|...] [--depth=N]
//              [--granules=N] [--io_threads=N] [--workers=N]
//              [--inflight_cap=N]
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
//
// A bad command line stops the server before it binds (exit 1, a message
// on stderr): an argument that is not one of the mode's --flag=value
// flags or repeats one, an unknown controller, or a count or port that is
// not all decimal digits within its range (counts are at least 1).

#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dist/shard_server.h"
#include "engine/harness.h"
#include "net/loopback.h"
#include "net/server.h"
#include "obs/report.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

constexpr std::uint64_t kMaxInt = std::numeric_limits<int>::max();
constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kMaxPort = std::numeric_limits<std::uint16_t>::max();

// The flags each mode takes.
const std::vector<std::string> kServeFlags = {
    "--port",       "--controller", "--depth",       "--granules",
    "--io_threads", "--workers",    "--inflight_cap"};
const std::vector<std::string> kShardFlags = {
    "--shard",    "--shard_peers", "--port",        "--depth",
    "--granules", "--workers",     "--inflight_cap"};

// A bad command line stops the process before anything starts.
[[noreturn]] void BadCommandLine(const std::string& why) {
  std::cerr << why << "\n";
  std::exit(1);
}

// Every argument must be --flag=value with a flag in `known`, once.
void CheckFlags(int argc, char** argv, const std::vector<std::string>& known) {
  std::vector<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    if (eq == std::string::npos ||
        std::find(known.begin(), known.end(), flag) == known.end()) {
      std::string why = "unknown argument '" + arg + "'; this mode takes";
      for (const std::string& name : known) why += " " + name + "=";
      BadCommandLine(why);
    }
    if (std::find(seen.begin(), seen.end(), flag) != seen.end()) {
      BadCommandLine("repeated argument '" + flag + "'");
    }
    seen.push_back(flag);
  }
}

// `text` as a decimal number in [min, max]: all digits (from_chars takes
// no sign for an unsigned type), no overflow.
std::optional<std::uint64_t> ParseDecimal(const std::string& text,
                                          std::uint64_t min,
                                          std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || value < min || value > max) {
    return std::nullopt;
  }
  return value;
}

// The value of `flag` in [min, max], or `fallback` when it is absent.
std::uint64_t NumberFlag(int argc, char** argv, const std::string& flag,
                         std::uint64_t fallback, std::uint64_t min,
                         std::uint64_t max) {
  const auto value = hdd::FlagValue(argc, argv, flag);
  if (!value) return fallback;
  const std::optional<std::uint64_t> parsed = ParseDecimal(*value, min, max);
  if (!parsed) {
    BadCommandLine(flag + " must be a whole number in [" +
                   std::to_string(min) + ", " + std::to_string(max) +
                   "], got '" + *value + "'");
  }
  return *parsed;
}

hdd::ControllerKind KindFromName(const std::string& name) {
  for (hdd::ControllerKind kind : hdd::AllControllerKinds()) {
    if (hdd::ControllerKindName(kind) == name) return kind;
  }
  BadCommandLine("unknown controller '" + name + "'");
}

// A comma-separated list of two or more dist ports, each in [1, 65535].
std::vector<hdd::SocketPeer> ParsePeers(const std::string& list) {
  const char* why = "--shard_peers must list a dist port per node";
  std::vector<hdd::SocketPeer> peers;
  for (std::size_t start = 0, comma = 0; comma != std::string::npos;
       start = comma + 1) {
    comma = list.find(',', start);
    const std::optional<std::uint64_t> port =
        ParseDecimal(list.substr(start, comma - start), 1, kMaxPort);
    if (!port) BadCommandLine(why);
    peers.push_back(hdd::SocketPeer{"", static_cast<std::uint16_t>(*port)});
  }
  if (peers.size() < 2) BadCommandLine(why);
  return peers;
}

int RunShard(int argc, char** argv) {
  CheckFlags(argc, argv, kShardFlags);
  hdd::ShardServerOptions options;
  // The shard server range-checks the node index against the peer list.
  const int node_id =
      static_cast<int>(NumberFlag(argc, argv, "--shard", 0, 0, kMaxInt));
  options.node_id = node_id;
  options.peers =
      ParsePeers(hdd::FlagValue(argc, argv, "--shard_peers").value_or(""));
  options.depth =
      static_cast<int>(NumberFlag(argc, argv, "--depth", 4, 1, kMaxInt));
  options.granules_per_segment = static_cast<std::uint32_t>(
      NumberFlag(argc, argv, "--granules", 64, 1, kMaxU32));
  options.front_port = static_cast<std::uint16_t>(
      NumberFlag(argc, argv, "--port", 0, 0, kMaxPort));
  options.front_workers =
      static_cast<int>(NumberFlag(argc, argv, "--workers", 2, 1, kMaxInt));
  options.inflight_cap =
      NumberFlag(argc, argv, "--inflight_cap", 1024, 1, kMaxU64);

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
  if (hdd::FlagValue(argc, argv, "--shard")) return RunShard(argc, argv);
  CheckFlags(argc, argv, kServeFlags);
  hdd::SyntheticWorkloadParams params;
  params.depth =
      static_cast<int>(NumberFlag(argc, argv, "--depth", 4, 1, kMaxInt));
  params.granules_per_segment = static_cast<std::uint32_t>(
      NumberFlag(argc, argv, "--granules", 256, 1, kMaxU32));
  hdd::ServerOptions options;
  options.port = static_cast<std::uint16_t>(
      NumberFlag(argc, argv, "--port", 0, 0, kMaxPort));
  options.num_io_threads =
      static_cast<int>(NumberFlag(argc, argv, "--io_threads", 2, 1, kMaxInt));
  options.num_workers =
      static_cast<int>(NumberFlag(argc, argv, "--workers", 4, 1, kMaxInt));
  options.num_classes = params.depth;
  options.admission.total_inflight_cap =
      NumberFlag(argc, argv, "--inflight_cap", 4096, 1, kMaxU64);
  const hdd::ControllerKind kind =
      KindFromName(hdd::FlagValue(argc, argv, "--controller").value_or("hdd"));
  auto world = hdd::MakeServerWorld(kind, params);
  if (!world) {
    std::cerr << "failed to build hierarchy schema\n";
    return 1;
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
