// End-to-end server bench: sustained txn/s and tail latency through the
// whole network stack — framing, admission, DRR dispatch, the engine —
// at 10k+ simulated loopback connections.
//
// The client driver runs in a forked child so its connection fds live in
// a separate fd table (10k server-side + 10k client-side would crowd a
// 20k ulimit in one process). The fork happens while the parent is still
// single-threaded (before HddServer::Start spawns anything), the child
// learns the ephemeral port over one pipe and ships SerializeDriverStats
// back over another.
//
// A final small in-process pass re-runs with the schedule recorder on and
// prices the run with engine/message_model — the §7.5 wire-cost model —
// so the report carries what the served traffic would have cost in
// inter-level synchronization messages.
//
// Knobs: HDD_BENCH_SERVER_CONNS (default 10000),
//        HDD_BENCH_SERVER_REQS  (per connection, default 10),
//        HDD_BENCH_SERVER_PIPELINE (default 4),
//        HDD_BENCH_IO_THREADS / HDD_BENCH_WORKERS (default 2 / 4).
// Report: --report=PATH (bench name "server"; see ci/check.sh).

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "engine/message_model.h"
#include "net/client.h"
#include "net/loopback.h"
#include "net/server.h"
#include "obs/metrics_registry.h"
#include "obs/report.h"

namespace hdd {
namespace {

struct BenchConfig {
  std::size_t conns = 10000;
  std::uint64_t reqs_per_conn = 10;
  std::size_t pipeline = 4;
  int io_threads = 2;
  int workers = 4;
};

SyntheticWorkloadParams BenchParams() {
  SyntheticWorkloadParams params;
  params.depth = 4;
  params.granules_per_segment = 256;
  return params;
}

ServerOptions BenchServerOptions(const BenchConfig& config,
                                 const SyntheticWorkloadParams& params) {
  ServerOptions options;
  options.num_io_threads = config.io_threads;
  options.num_workers = config.workers;
  options.num_classes = params.depth;
  options.listen_backlog = 4096;
  options.admission.total_inflight_cap = 4096;
  return options;
}

bool WriteAll(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    ssize_t n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, void* data, std::size_t len) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    ssize_t n = ::read(fd, p, len);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Never returns in the child. In the parent, serves the load with a
/// freshly built world and returns the child's driver stats (nullopt on
/// any child or protocol failure). MUST be called while this process is
/// single-threaded: the child is forked before the server threads start.
std::optional<DriverStats> RunForkedLoad(const BenchConfig& config,
                                         MetricsRegistry* metrics) {
  const SyntheticWorkloadParams params = BenchParams();
  int port_pipe[2];
  int stats_pipe[2];
  if (::pipe(port_pipe) != 0 || ::pipe(stats_pipe) != 0) {
    std::cerr << "pipe: " << std::strerror(errno) << "\n";
    return std::nullopt;
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    std::cerr << "fork: " << std::strerror(errno) << "\n";
    return std::nullopt;
  }

  if (pid == 0) {
    // Child: all client fds live here, in our own fd table.
    ::close(port_pipe[1]);
    ::close(stats_pipe[0]);
    std::uint16_t port = 0;
    if (!ReadAll(port_pipe[0], &port, sizeof(port))) ::_exit(2);
    ::close(port_pipe[0]);

    DriverOptions driver;
    driver.port = port;
    driver.connections = config.conns;
    driver.pipeline = config.pipeline;
    driver.requests_per_connection = config.reqs_per_conn;
    driver.deadline_seconds = 540.0;
    driver.make_request = [&params](std::size_t, std::uint64_t, Rng& rng) {
      return MakeSyntheticRequest(params, rng);
    };
    const DriverStats stats = RunLoadDriver(driver);
    const std::string text = SerializeDriverStats(stats);
    if (!WriteAll(stats_pipe[1], text.data(), text.size())) ::_exit(3);
    ::close(stats_pipe[1]);
    ::_exit(0);
  }

  // Parent: build the world and serve.
  ::close(port_pipe[0]);
  ::close(stats_pipe[1]);
  auto world = MakeServerWorld(ControllerKind::kHdd, params);
  if (world == nullptr) {
    std::cerr << "MakeServerWorld failed\n";
    return std::nullopt;
  }
  auto server = std::make_unique<HddServer>(
      world->cc.get(), BenchServerOptions(config, params), metrics);
  Status started = server->Start();
  if (!started.ok()) {
    std::cerr << "server start: " << started.message() << "\n";
    return std::nullopt;
  }
  const std::uint16_t port = server->port();
  if (!WriteAll(port_pipe[1], &port, sizeof(port))) {
    std::cerr << "port pipe write failed\n";
    return std::nullopt;
  }
  ::close(port_pipe[1]);

  std::string text;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(stats_pipe[0], buf, sizeof(buf))) != 0) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(stats_pipe[0]);

  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  server->Stop();  // joins every thread: single-threaded again after this

  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    std::cerr << "driver child failed (status " << wstatus << ")\n";
    return std::nullopt;
  }
  DriverStats stats;
  if (!ParseDriverStats(text, &stats)) {
    std::cerr << "driver stats parse failed\n";
    return std::nullopt;
  }
  return stats;
}

void AddLoadRow(RunReport& report, const std::string& name,
                const BenchConfig& config, const DriverStats& stats,
                MetricsRegistry& metrics) {
  const double tput =
      stats.seconds > 0.0
          ? static_cast<double>(stats.committed) / stats.seconds
          : 0.0;
  // Loopback throughput on a shared host is hostage to the scheduler;
  // the row-level calibration is measured right after the run and the
  // widened gate absorbs what the ratio cannot.
  auto& row =
      report.AddRow(name)
          .Metric("txn_per_sec", tput)
          .Metric("spins_per_sec", CalibrationSpinsPerSec())
          .Metric("gate_tolerance", 0.5)
          .Metric("connections", stats.connected)
          .Metric("connect_failures", stats.connect_failures)
          .Metric("responses", stats.responses)
          .Metric("committed", stats.committed)
          .Metric("failed", stats.failed)
          .Metric("overload", stats.overload)
          .Metric("errors", stats.errors)
          .Metric("pipeline", static_cast<std::uint64_t>(config.pipeline))
          .Metric("latency_p50_us", stats.latency.p50_us)
          .Metric("latency_p95_us", stats.latency.p95_us)
          .Metric("latency_p99_us", stats.latency.p99_us)
          .Metric("server_shed", metrics.GetCounter("net_shed").Value());
  for (const auto& [cls, per] : stats.per_class) {
    const std::string label =
        cls < 0 ? std::string("ro") : "c" + std::to_string(cls);
    row.Metric("class_" + label + "_committed", per.committed);
    row.Metric("class_" + label + "_overload", per.overload);
  }
  std::cout << name << ": " << stats.connected << " conns, "
            << stats.committed << " committed in " << stats.seconds
            << "s = " << tput << " txn/s, p99 " << stats.latency.p99_us
            << " us, overload " << stats.overload << "\n";
}

/// §7.5 wire-cost pass: a small in-process run with the schedule
/// recorder enabled, priced by engine/message_model. Kept separate from
/// the big run — recording every step of 100k served txns is the kind of
/// unbounded buffering the server itself refuses to do.
void AddMessageModelRow(RunReport& report) {
  const SyntheticWorkloadParams params = BenchParams();
  BenchConfig config;
  config.conns = 32;
  config.reqs_per_conn = 50;
  config.pipeline = 2;

  auto world = MakeServerWorld(ControllerKind::kHdd, params);
  if (world == nullptr) return;
  world->cc->recorder().set_enabled(true);
  MetricsRegistry metrics;
  HddServer server(world->cc.get(), BenchServerOptions(config, params),
                   &metrics);
  if (!server.Start().ok()) return;

  DriverOptions driver;
  driver.port = server.port();
  driver.connections = config.conns;
  driver.pipeline = config.pipeline;
  driver.requests_per_connection = config.reqs_per_conn;
  driver.make_request = [&params](std::size_t, std::uint64_t, Rng& rng) {
    return MakeSyntheticRequest(params, rng);
  };
  const DriverStats stats = RunLoadDriver(driver);
  server.Stop();

  const MessageStats msgs = ComputeMessageStats(
      world->cc->recorder().steps(), world->cc->recorder().identities(),
      world->cc->metrics());
  report.AddRow("messages")
      .Metric("committed", stats.committed)
      .Metric("remote_accesses", msgs.remote_accesses)
      .Metric("transfer_messages", msgs.transfer_messages)
      .Metric("registration_messages", msgs.registration_messages)
      .Metric("blocking_messages", msgs.blocking_messages)
      .Metric("total_messages", msgs.total_messages)
      .Metric("msg_per_commit", msgs.per_commit);
  std::cout << "messages: " << msgs.total_messages << " total ("
            << msgs.registration_messages << " registration) over "
            << stats.committed << " commits = " << msgs.per_commit
            << " msg/txn\n";
}

int Run(int argc, char** argv) {
  BenchConfig config;
  config.conns =
      static_cast<std::size_t>(EnvOr("HDD_BENCH_SERVER_CONNS", 10000));
  config.reqs_per_conn = EnvOr("HDD_BENCH_SERVER_REQS", 10);
  config.pipeline =
      static_cast<std::size_t>(EnvOr("HDD_BENCH_SERVER_PIPELINE", 4));
  config.io_threads = static_cast<int>(EnvOr("HDD_BENCH_IO_THREADS", 2));
  config.workers = static_cast<int>(EnvOr("HDD_BENCH_WORKERS", 4));

  RunReport report("server");
  std::cout << "=== hdd_server loopback: " << config.conns
            << " connections x " << config.reqs_per_conn
            << " requests, pipeline " << config.pipeline << " ===\n";

  MetricsRegistry metrics;
  const std::optional<DriverStats> stats = RunForkedLoad(config, &metrics);
  const bool loaded = stats.has_value() && stats->connected == config.conns &&
                      stats->errors == 0;
  if (loaded) {
    AddLoadRow(report, "per_txn", config, *stats, metrics);
  } else {
    std::cerr << "per_txn: load run failed\n";
  }

  AddMessageModelRow(report);
  report.AddRow("calibration")
      .Metric("spins_per_sec", CalibrationSpinsPerSec());

  if (auto path = ReportPathFromArgs(argc, argv)) {
    std::string error;
    if (!report.WriteFile(*path, &error)) {
      std::cerr << "report write failed: " << error << "\n";
      return 1;
    }
    std::cout << "report written to " << *path << "\n";
  }
  return loaded ? 0 : 1;
}

}  // namespace
}  // namespace hdd

int main(int argc, char** argv) { return hdd::Run(argc, argv); }
