// served_bench: the served path end to end (client -> hdd_server -> ack)
// and layer by layer, on three traffic mixes.
//
//   served_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--scratch DIR]
//
// Workloads:
//   served_chain8_reads  depth-8 chain, 4096 uniform granules/segment, no WAL
//   served_durable_hot   depth-4 chain, Zipf 0.9 over 256 granules/segment,
//                        WAL on FileWalStorage with group commit (fdatasync)
//   sharded_2node        two ShardServers over loopback TCP, depth 4,
//                        32 granules/segment, segment 3 owned by node 0
//
// The real HddServer (1 IO thread, 2 workers, per-txn backend) serves a
// closed-loop fleet of 2 client threads with one connection each. After a
// fixed warm-up the run is split into slices. With --trace 0 every 1 s
// slice runs undecorated and the end-to-end metrics are printed over all
// of them. With --trace 1 the server runs behind TimedController /
// TimedWalStorage, whose spans are switched on in half of the slices (off,
// on, on, off, ... so a linear drift cancels); the per-layer metrics come
// from the traced slices and the throughput gap to the untraced ones is
// the tracing overhead.
//
// Correctness checks run outside the timed window; any failure prints
// "correct": false and exits 1. The last stdout line is one JSON object.

#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dist/shard_server.h"
#include "engine/synthetic_workload.h"
#include "hdd/hdd_controller.h"
#include "load_client.h"
#include "net/server.h"
#include "obs/metrics_registry.h"
#include "sim/explorer.h"
#include "timed_layers.h"
#include "wal/recovery.h"
#include "wal/wal_manager.h"
#include "wal/wal_storage.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Run shape.

constexpr double kWarmupSeconds = 1.0;
/// Plain runs measure in slices of about this length.
constexpr double kPlainSliceSeconds = 1.0;
/// Plain runs cut the slices into windows of at least this many latencies
/// (so a window's p99 has ten or more beyond it) and report a latency p99
/// as the kWindowQuantile of the windows' p99s. The host is shared, and
/// other tenants load its disk and CPUs in episodes of seconds to minutes;
/// a p99 pooled over the run, or the median window, belongs to whichever
/// episode the run caught. The lower quartile is the p99 of the run's
/// calmer seconds: a change that slows the tail in every second moves it
/// in full, one that stalls only some seconds shows in commit_tput and
/// the medians, which pool every slice.
constexpr std::size_t kWindowLatencies = 1000;
constexpr double kWindowQuantile = 0.25;
/// Traced runs alternate untraced (false) and traced (true) slices.
constexpr bool kTracePattern[] = {false, true, true, false,
                                  false, true, true, false};
constexpr int kTraceSlices = sizeof(kTracePattern) / sizeof(kTracePattern[0]);
/// Set-ups per run; the reported set-up time is their median.
constexpr int kSetups = 21;
/// Pause before each set-up, so it starts after the previous deployment's
/// teardown (thread exits, socket closes) has settled rather than while
/// the kernel is still finishing it.
constexpr auto kSetupGap = std::chrono::milliseconds(50);
/// Client threads, one connection each. Two rather than four: with the
/// server's three threads that leaves 5 busy threads on 4 vCPUs instead of
/// 7. In interleaved runs that kept the throughput and steadied the tail:
/// update p99 spread over seeds 0.03 instead of 0.15 on the single-node
/// workloads.
constexpr int kClientStreams = 2;
/// Requests each client connection keeps in flight (8 in total, on 2
/// workers per server).
constexpr std::size_t kPipeline = 4;
/// Requests per stream in the recorded correctness pass.
constexpr std::uint64_t kCheckRequestsPerStream = 800;

enum class DeploymentKind { kSingleNode, kSharded };

struct WorkloadSpec {
  std::string name;
  DeploymentKind kind = DeploymentKind::kSingleNode;
  bool wal = false;
  TrafficMix mix;  // also the hierarchy's depth and granules per segment
};

std::optional<WorkloadSpec> MakeSpec(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  TrafficMix& mix = spec.mix;
  if (name == "served_chain8_reads") {
    mix.depth = 8;
    mix.granules_per_segment = 4096;
    mix.upper_reads = 4;
    mix.own_reads = 1;
    mix.own_writes = 1;
    mix.read_only_fraction = 0.15;
  } else if (name == "served_durable_hot") {
    mix.depth = 4;
    mix.granules_per_segment = 256;
    spec.wal = true;
    mix.upper_reads = 1;
    mix.own_reads = 1;
    mix.own_writes = 2;
    mix.read_only_fraction = 0.05;
    mix.granule_skew = 0.9;
  } else if (name == "sharded_2node") {
    spec.kind = DeploymentKind::kSharded;
    mix.depth = 4;
    mix.granules_per_segment = 32;
    mix.upper_reads = 1;
    mix.own_reads = 0;
    mix.own_writes = 1;
    mix.read_only_fraction = 0.25;
    mix.read_only_scope = {0, 1, 2, 3};
  } else {
    return std::nullopt;
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Server-side state sampled at slice boundaries.

struct ServerSnap {
  hdd::Histogram::Snapshot request_us;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t committed = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_commit_waits = 0;
  std::uint64_t wal_batches = 0;
  std::uint64_t dist[hdd::kNumDistMsgTypes] = {0};
};

std::uint64_t CounterOr0(const std::map<std::string, std::uint64_t>& counters,
                         const char* name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

/// Adds one server registry's net counters and request histogram.
void AddNetSnap(hdd::MetricsRegistry& registry, ServerSnap* snap) {
  const auto counters = registry.SnapshotCounters();
  snap->admitted += CounterOr0(counters, "net_admitted");
  snap->shed += CounterOr0(counters, "net_shed");
  snap->committed += CounterOr0(counters, "net_committed");
  snap->request_us.Merge(registry.GetHistogram("net_request_us").snapshot());
}

/// after - before, for everything that only grows.
ServerSnap Delta(const ServerSnap& after, const ServerSnap& before) {
  ServerSnap d;
  hdd::Histogram::Snapshot& h = d.request_us;
  h = after.request_us;
  h.max = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    if (!before.request_us.buckets.empty()) {
      h.buckets[i] -= before.request_us.buckets[i];
    }
    if (h.buckets[i] != 0) h.max = hdd::Histogram::BucketUpperBound(i);
  }
  // The running maximum is this interval's only if it grew during it;
  // otherwise the top non-empty bucket's bound stands in for it.
  if (after.request_us.max > before.request_us.max) {
    h.max = after.request_us.max;
  }
  h.count -= before.request_us.count;
  h.sum -= before.request_us.sum;
  d.admitted = after.admitted - before.admitted;
  d.shed = after.shed - before.shed;
  d.committed = after.committed - before.committed;
  d.wal_bytes = after.wal_bytes - before.wal_bytes;
  d.wal_commit_waits = after.wal_commit_waits - before.wal_commit_waits;
  d.wal_batches = after.wal_batches - before.wal_batches;
  for (int t = 0; t < hdd::kNumDistMsgTypes; ++t) {
    d.dist[t] = after.dist[t] - before.dist[t];
  }
  return d;
}

void Accumulate(ServerSnap* into, const ServerSnap& d) {
  into->request_us.Merge(d.request_us);
  into->admitted += d.admitted;
  into->shed += d.shed;
  into->committed += d.committed;
  into->wal_bytes += d.wal_bytes;
  into->wal_commit_waits += d.wal_commit_waits;
  into->wal_batches += d.wal_batches;
  for (int t = 0; t < hdd::kNumDistMsgTypes; ++t) into->dist[t] += d.dist[t];
}

/// End-of-run state of the engine and storage layers.
struct EndState {
  std::uint64_t walls_released = 0;
  std::uint64_t history_size = 0;
  std::uint64_t total_versions = 0;
  std::uint64_t granules = 0;
};

// ---------------------------------------------------------------------------
// Deployments.

class Deployment {
 public:
  virtual ~Deployment() = default;
  /// Builds the world and starts serving.
  virtual hdd::Status Start() = 0;
  /// The client streams, in the fleet's order.
  virtual std::vector<StreamSpec> Streams(const TrafficMix& mix) const = 0;
  virtual ServerSnap Snapshot() = 0;
  /// Admitted requests waiting for a worker, right now.
  virtual std::uint64_t QueueDepth() = 0;
  /// Stops serving (drains admitted work); returns the first failure.
  virtual hdd::Status Stop() = 0;
  virtual EndState End() = 0;
  /// Spans of the decorators (null when the deployment has none).
  virtual const SpanStore* spans() const { return nullptr; }
  virtual void SetTracing(bool on) { (void)on; }
};

/// One HddServer over an HddController, optionally durable. Built by hand
/// rather than through MakeServerWorld: the controller caches db->wal()
/// at construction, so the WAL must be attached before it exists.
class SingleNode : public Deployment {
 public:
  SingleNode(const WorkloadSpec& spec, std::string wal_dir, bool decorated,
             bool record_history)
      : spec_(spec),
        wal_dir_(std::move(wal_dir)),
        decorated_(decorated),
        record_history_(record_history) {}

  hdd::Status Start() override {
    hdd::SyntheticWorkloadParams params;
    params.depth = spec_.mix.depth;
    params.granules_per_segment = spec_.mix.granules_per_segment;
    workload_.emplace(params);
    hdd::Result<hdd::HierarchySchema> schema =
        hdd::HierarchySchema::Create(workload_->Spec());
    if (!schema.ok()) return schema.status();
    schema_.emplace(std::move(*schema));
    db_ = workload_->MakeDatabase();
    if (spec_.wal) {
      file_storage_ = std::make_unique<hdd::FileWalStorage>(wal_dir_);
      hdd::WalStorage* storage = file_storage_.get();
      if (decorated_) {
        timed_storage_ =
            std::make_unique<TimedWalStorage>(file_storage_.get(), &spans_);
        storage = timed_storage_.get();
      }
      hdd::WalOptions wal_options;
      wal_options.group.mode = hdd::WalSyncMode::kGroupCommit;
      hdd::Result<std::unique_ptr<hdd::WalManager>> wal =
          hdd::WalManager::Open(storage, db_->num_segments(), wal_options);
      if (!wal.ok()) return wal.status();
      wal_ = std::move(*wal);
      db_->AttachWal(wal_.get());
    }
    clock_ = std::make_unique<hdd::LogicalClock>();
    cc_ = std::make_unique<hdd::HddController>(db_.get(), clock_.get(),
                                               &*schema_);
    cc_->recorder().set_enabled(record_history_);
    hdd::ConcurrencyController* served = cc_.get();
    if (decorated_) {
      timed_cc_ = std::make_unique<TimedController>(cc_.get(), &spans_);
      served = timed_cc_.get();
    }
    hdd::ServerOptions options;
    options.num_io_threads = 1;
    options.num_workers = 2;
    options.backend = hdd::ServerOptions::Backend::kPerTxn;
    options.num_classes = spec_.mix.depth;
    options.admission.total_inflight_cap = 4096;  // hdd_server's default
    server_ = std::make_unique<hdd::HddServer>(served, options, &metrics_);
    return server_->Start();
  }

  std::vector<StreamSpec> Streams(const TrafficMix& mix) const override {
    return std::vector<StreamSpec>(kClientStreams,
                                   StreamSpec{server_->port(), mix});
  }

  ServerSnap Snapshot() override {
    ServerSnap snap;
    AddNetSnap(metrics_, &snap);
    if (wal_) {
      snap.wal_bytes = wal_->metrics().bytes_appended.Value();
      snap.wal_commit_waits = wal_->metrics().commit_waits.Value();
      snap.wal_batches = wal_->metrics().group_commit_batches.Value();
    }
    return snap;
  }

  hdd::Status Stop() override {
    server_->Stop();
    return hdd::Status::OK();
  }

  EndState End() override {
    EndState end;
    end.walls_released = cc_->num_walls();
    end.history_size = cc_->ActivityHistorySize();
    end.total_versions = db_->TotalVersions();
    end.granules = static_cast<std::uint64_t>(spec_.mix.depth) *
                   spec_.mix.granules_per_segment;
    return end;
  }

  const SpanStore* spans() const override { return &spans_; }
  void SetTracing(bool on) override { spans_.set_enabled(on); }

  std::uint64_t QueueDepth() override {
    return metrics_.GetGauge("net_queue_depth").Value();
  }

  hdd::HddController& controller() { return *cc_; }
  hdd::Database& db() { return *db_; }
  hdd::WalManager* wal() { return wal_.get(); }
  const std::string& wal_dir() const { return wal_dir_; }
  hdd::SyntheticWorkload& workload() { return *workload_; }

 private:
  WorkloadSpec spec_;
  std::string wal_dir_;
  bool decorated_;
  bool record_history_;

  // Declaration order is teardown order reversed: the server goes first,
  // the storage the WAL writes through goes last.
  SpanStore spans_;
  std::unique_ptr<hdd::FileWalStorage> file_storage_;
  std::unique_ptr<TimedWalStorage> timed_storage_;
  std::unique_ptr<hdd::WalManager> wal_;
  std::optional<hdd::SyntheticWorkload> workload_;
  std::optional<hdd::HierarchySchema> schema_;
  std::unique_ptr<hdd::Database> db_;
  std::unique_ptr<hdd::LogicalClock> clock_;
  std::unique_ptr<hdd::HddController> cc_;
  std::unique_ptr<TimedController> timed_cc_;
  hdd::MetricsRegistry metrics_;
  std::unique_ptr<hdd::HddServer> server_;
};

/// An ephemeral loopback port for a dist transport, which must know every
/// peer's port before any node starts (bind 0, read it back, close).
std::uint16_t PickPort() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::uint16_t port = 0;
  socklen_t len = sizeof(addr);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  close(fd);
  return port;
}

/// Two ShardServers in this process over real loopback TCP. Node 0 homes
/// classes {0,1} and node 1 homes {2,3}; segment 3's chains live at node
/// 0, so every class-3 update two-phases its commit.
class Sharded : public Deployment {
 public:
  explicit Sharded(const WorkloadSpec& spec) : spec_(spec) {}

  hdd::Status Start() override {
    hdd::ShardServerOptions options;
    options.peers = {{"", PickPort()}, {"", PickPort()}};
    options.depth = spec_.mix.depth;
    options.granules_per_segment = spec_.mix.granules_per_segment;
    options.front_io_threads = 1;
    options.front_workers = 2;
    options.owner_overrides = {{hdd::SegmentId{3}, 0}};
    for (int node = 0; node < 2; ++node) {
      options.node_id = node;
      nodes_.push_back(std::make_unique<hdd::ShardServer>(options));
      if (!nodes_.back()->init_error().empty()) {
        return hdd::Status::Internal(nodes_.back()->init_error());
      }
    }
    for (auto& node : nodes_) {
      hdd::Status status = node->Start();
      if (!status.ok()) return status;
    }
    return hdd::Status::OK();
  }

  std::vector<StreamSpec> Streams(const TrafficMix& mix) const override {
    // Stream i goes to node i % 2 and sends only updates of the classes
    // homed there.
    std::vector<StreamSpec> streams;
    for (int i = 0; i < kClientStreams; ++i) {
      const int node = i % 2;
      StreamSpec stream{nodes_[node]->front_port(), mix};
      stream.mix.update_classes.clear();
      for (hdd::ClassId c = 0; c < spec_.mix.depth; ++c) {
        if (nodes_[node]->shard_map().home(c) == node) {
          stream.mix.update_classes.push_back(c);
        }
      }
      streams.push_back(stream);
    }
    return streams;
  }

  ServerSnap Snapshot() override {
    ServerSnap snap;
    for (auto& node : nodes_) {
      // metrics() hands out a const view of a registry the node owns
      // mutably; GetHistogram only looks the histogram up.
      AddNetSnap(const_cast<hdd::MetricsRegistry&>(node->metrics()), &snap);
      for (int t = 0; t < hdd::kNumDistMsgTypes; ++t) {
        snap.dist[t] += node->transport().counters().Get(
            static_cast<hdd::DistMsgType>(t));
      }
    }
    return snap;
  }

  std::uint64_t QueueDepth() override {
    std::uint64_t depth = 0;
    for (auto& node : nodes_) {
      depth += const_cast<hdd::MetricsRegistry&>(node->metrics())
                   .GetGauge("net_queue_depth")
                   .Value();
    }
    return depth;
  }

  hdd::Status Stop() override {
    hdd::Status first = hdd::Status::OK();
    for (auto& node : nodes_) {
      hdd::Status status = node->Stop();
      if (first.ok() && !status.ok()) first = status;
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const int open = nodes_[i]->transport_open_fds();
      if (first.ok() && open != 0) {
        first = hdd::Status::Internal("node " + std::to_string(i) + " left " +
                                      std::to_string(open) +
                                      " transport fds open");
      }
    }
    return first;
  }

  EndState End() override {
    EndState end;
    for (auto& node : nodes_) {
      end.walls_released += node->controller().num_walls();
      end.history_size += node->controller().ActivityHistorySize();
    }
    // Each node holds the full schema with stand-ins for segments it does
    // not own; count the owner's chains only.
    for (int s = 0; s < spec_.mix.depth; ++s) {
      const int owner = nodes_[0]->shard_map().owner(s);
      const hdd::Segment& segment = nodes_[owner]->controller().db().segment(s);
      const std::uint32_t granules = segment.size();  // takes the latch
      std::lock_guard<std::mutex> latch(segment.latch());
      for (std::uint32_t g = 0; g < granules; ++g) {
        end.total_versions += segment.granule(g).num_versions();
      }
      end.granules += granules;
    }
    return end;
  }

 private:
  WorkloadSpec spec_;
  std::vector<std::unique_ptr<hdd::ShardServer>> nodes_;
};

// ---------------------------------------------------------------------------
// Statistics helpers.

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t RssBytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The per-layer metrics a traced run prints, in order. Metrics that do
/// not apply to a workload print 0 and are marked n/a in the text report.
const char* const kLayerMetrics[][2] = {
    {"net.request_us.p50", "us"},
    {"net.request_us.p99", "us"},
    {"net.queue_us.mean", "us"},
    {"net.wire_us.mean", "us"},
    {"net.shed_frac", "frac"},
    {"engine.attempts_per_commit", "count"},
    {"engine.wasted_us_per_commit", "us"},
    {"hdd.begin_us.mean", "us"},
    {"hdd.begin_us.p99", "us"},
    {"hdd.read_a_us.mean", "us"},
    {"hdd.read_a_us.p99", "us"},
    {"hdd.reads_a_per_commit", "count"},
    {"hdd.read_b_us.mean", "us"},
    {"hdd.read_b_us.p99", "us"},
    {"hdd.write_us.mean", "us"},
    {"hdd.write_us.p99", "us"},
    {"hdd.abort_frac", "frac"},
    {"hdd.read_c_us.mean", "us"},
    {"hdd.read_c_us.p99", "us"},
    {"hdd.walls_released", "count"},
    {"hdd.commit_us.mean", "us"},
    {"hdd.commit_us.p99", "us"},
    {"hdd.busy_us_per_commit", "us"},
    {"hdd.history_size", "count"},
    {"storage.versions_per_granule", "count"},
    {"wal.sync_us.p50", "us"},
    {"wal.sync_us.p99", "us"},
    {"wal.syncs_per_commit", "count"},
    {"wal.mean_batch", "count"},
    {"wal.append_us.mean", "us"},
    {"wal.bytes_per_commit", "B"},
    {"dist.msgs_per_commit", "count"},
    {"dist.snapshot_req_per_commit", "count"},
    {"dist.activity_req_per_commit", "count"},
    {"dist.prepare_req_per_commit", "count"},
    {"dist.commit_req_per_commit", "count"},
    {"dist.clock_rpc_per_commit", "count"},
    {"trace.overhead_frac", "frac"},
    {"trace.closure_gap_frac", "frac"},
};

// ---------------------------------------------------------------------------
// The run.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_build/scratch";
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || !(args.seconds > 0.0)) {
    return std::nullopt;
  }
  return args;
}

struct Measurement;

class Runner {
 public:
  Runner(Args args, WorkloadSpec spec)
      : args_(std::move(args)),
        spec_(std::move(spec)),
        run_dir_(args_.scratch + "/" + spec_.name + "-" +
                 std::to_string(::getpid())) {}

  /// Measures, checks and prints; returns the process exit code.
  int Run();

 private:
  /// Set-ups, the timed window, shutdown and the correctness checks.
  bool Measure(Measurement* m);
  std::vector<Metric> EndToEndReport(const Measurement& m,
                                     PhaseStats* pooled);
  std::vector<Metric> LayerReport(const Measurement& m, PhaseStats* traced);
  std::unique_ptr<Deployment> MakeDeployment(bool decorated,
                                             bool record_history);
  std::string NextWalDir();
  FleetOptions Fleet(const Deployment& deployment, int num_phases,
                     std::uint64_t max_requests, std::uint64_t seed) const;
  /// Builds and serves a deployment until the fleet is connected; returns
  /// the seconds it took, or < 0 on failure.
  double TimedSetup(std::unique_ptr<Deployment>* deployment,
                    std::unique_ptr<ClientFleet>* fleet, bool decorated,
                    int num_phases);
  bool Fail(const std::string& what);
  /// The recorded short pass: 1SR + bound replay over the served history.
  bool CheckServedHistory();
  /// The WAL of the measured run replays into a fresh database that
  /// matches every granule's latest committed value.
  bool CheckRecovery(SingleNode& node);

  Args args_;
  WorkloadSpec spec_;
  std::string run_dir_;  // WAL directories of this run live below it
  int wal_dirs_ = 0;
  std::vector<std::string> failures_;
};

std::string Runner::NextWalDir() {
  return run_dir_ + "/wal-" + std::to_string(wal_dirs_++);
}

std::unique_ptr<Deployment> Runner::MakeDeployment(bool decorated,
                                                   bool record_history) {
  if (spec_.kind == DeploymentKind::kSharded) {
    return std::make_unique<Sharded>(spec_);
  }
  return std::make_unique<SingleNode>(spec_, NextWalDir(), decorated,
                                      record_history);
}

FleetOptions Runner::Fleet(const Deployment& deployment, int num_phases,
                           std::uint64_t max_requests,
                           std::uint64_t seed) const {
  FleetOptions options;
  options.streams = deployment.Streams(spec_.mix);
  options.pipeline = kPipeline;
  options.seed = seed;
  options.max_requests_per_stream = max_requests;
  options.num_phases = num_phases;
  return options;
}

double Runner::TimedSetup(std::unique_ptr<Deployment>* deployment,
                          std::unique_ptr<ClientFleet>* fleet, bool decorated,
                          int num_phases) {
  const Clock::time_point start = Clock::now();
  *deployment = MakeDeployment(decorated, /*record_history=*/false);
  hdd::Status status = (*deployment)->Start();
  if (!status.ok()) {
    Fail("set-up: " + status.ToString());
    return -1.0;
  }
  *fleet = std::make_unique<ClientFleet>(
      Fleet(**deployment, num_phases, 0, args_.seed));
  status = (*fleet)->Connect();
  if (!status.ok()) {
    Fail("connect: " + status.ToString());
    return -1.0;
  }
  return SecondsSince(start);
}

bool Runner::Fail(const std::string& what) {
  failures_.push_back(what);
  std::cerr << "CHECK FAILED: " << what << "\n";
  return false;
}

bool Runner::CheckServedHistory() {
  SingleNode node(spec_, NextWalDir(), /*decorated=*/false,
                  /*record_history=*/true);
  hdd::Status status = node.Start();
  if (!status.ok()) return Fail("check pass set-up: " + status.ToString());
  ClientFleet fleet(Fleet(node, 1, kCheckRequestsPerStream, args_.seed + 1));
  status = fleet.Connect();
  if (!status.ok()) return Fail("check pass connect: " + status.ToString());
  fleet.Start();
  fleet.Wait();
  node.Stop();
  if (!fleet.first_error().empty()) {
    return Fail("check pass client: " + fleet.first_error());
  }
  const PhaseStats stats = fleet.Merged()[0];
  if (stats.committed == 0 || stats.not_ok() != 0) {
    return Fail("check pass: " + std::to_string(stats.committed) +
                " committed, " + std::to_string(stats.not_ok()) + " not ok");
  }
  const std::string verdict =
      hdd::CheckSimHistory(node.controller(), node.db(),
                           /*replay_bounds=*/true);
  if (!verdict.empty()) return Fail("served history: " + verdict);
  std::cout << "check: served history of " << stats.committed
            << " commits is 1SR and every Protocol A/C bound replays\n";
  return true;
}

bool Runner::CheckRecovery(SingleNode& node) {
  hdd::WalManager* wal = node.wal();
  if (wal == nullptr || wal->metrics().bytes_appended.Value() == 0 ||
      wal->metrics().fsyncs.Value() == 0) {
    return Fail("durable run appended or synced nothing: WAL not attached");
  }
  std::unique_ptr<hdd::Database> recovered = node.workload().MakeDatabase();
  hdd::FileWalStorage storage(node.wal_dir());
  const hdd::Result<hdd::RecoveryReport> report =
      hdd::RecoverDatabase(&storage, recovered.get());
  if (!report.ok()) return Fail("recovery: " + report.status().ToString());
  std::uint64_t granules = 0;
  for (hdd::SegmentId s = 0; s < node.db().num_segments(); ++s) {
    const hdd::Segment& live = node.db().segment(s);
    for (std::uint32_t g = 0; g < live.size(); ++g) {
      const hdd::Version* want = live.granule(g).LatestCommitted();
      const hdd::Version* got =
          recovered->segment(s).granule(g).LatestCommitted();
      if (want == nullptr || got == nullptr || want->value != got->value) {
        return Fail("recovered granule (" + std::to_string(s) + "," +
                    std::to_string(g) + ") differs from the served one");
      }
      ++granules;
    }
  }
  std::cout << "check: WAL recovery (" << report->durable_commits.size()
            << " durable commits) reproduces the latest committed value of "
            << granules << " granules\n";
  return true;
}

/// Per-kind span durations plus the per-attempt joins the engine metrics
/// need (spans of one attempt share its txn id).
struct SpanSummary {
  std::size_t count = 0;
  std::vector<double> us[kNumSpanKinds];
  double controller_us = 0.0;  // every controller call
  double wasted_us = 0.0;      // controller calls of attempts that aborted
};

SpanSummary Summarize(const SpanStore* store) {
  struct Attempt {
    double us = 0.0;
    bool committed = false;
    bool lost = false;
  };
  SpanSummary summary;
  if (store == nullptr) return summary;
  std::unordered_map<hdd::TxnId, Attempt> attempts;
  store->ForEach([&](const Span& span) {
    ++summary.count;
    const double us = span.dur_ns / 1000.0;
    const auto kind = static_cast<SpanKind>(span.kind);
    summary.us[span.kind].push_back(us);
    if (kind == SpanKind::kWalAppend || kind == SpanKind::kWalSync) return;
    summary.controller_us += us;
    if (span.txn == hdd::kInvalidTxn) return;
    Attempt& attempt = attempts[span.txn];
    attempt.us += us;
    attempt.committed |= kind == SpanKind::kCommit;
    attempt.lost |= kind == SpanKind::kAbort || kind == SpanKind::kCommitFailed;
  });
  for (const auto& [txn, attempt] : attempts) {
    if (attempt.lost && !attempt.committed) summary.wasted_us += attempt.us;
  }
  return summary;
}

/// Everything the run collected, for the reports.
struct Measurement {
  std::vector<double> setups;
  std::uint64_t rss_setup = 0;
  std::uint64_t rss_end = 0;
  std::vector<ServerSnap> snaps;     // at every slice boundary
  ServerSnap final_snap;             // after the fleet drained
  std::vector<PhaseStats> phases;    // warm-up, slices..., drain
  std::vector<double> slice_seconds;
  std::vector<double> queue_depth;   // mean admitted backlog per slice
  EndState end;
  SpanSummary spans;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// The p99 of update (or read-only) latency in each window of consecutive
/// slices holding at least kWindowLatencies latencies (a short last
/// window joins the one before it), in time order.
std::vector<double> WindowP99s(std::span<const PhaseStats> slices,
                               bool read_only) {
  std::vector<std::vector<double>> windows(1);
  for (const PhaseStats& slice : slices) {
    if (windows.back().size() >= kWindowLatencies) windows.emplace_back();
    const std::vector<double>& us =
        read_only ? slice.read_only_us : slice.update_us;
    windows.back().insert(windows.back().end(), us.begin(), us.end());
  }
  if (windows.size() > 1 && windows.back().size() < kWindowLatencies) {
    const std::vector<double> last = std::move(windows.back());
    windows.pop_back();
    windows.back().insert(windows.back().end(), last.begin(), last.end());
  }
  std::vector<double> p99s;
  for (std::vector<double>& us : windows) {
    if (!us.empty()) p99s.push_back(Percentile(std::move(us), 0.99));
  }
  return p99s;
}

void PrintMetric(const Metric& metric, const std::string& note) {
  std::cout << "  " << std::left << std::setw(32) << metric.name << std::right
            << std::setw(14) << std::fixed << std::setprecision(3)
            << metric.value << " " << metric.unit << note << "\n";
  std::cout.unsetf(std::ios::fixed);
}

std::string JsonLine(bool correct, std::uint64_t attempted,
                     std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << std::setprecision(12) << "{\"correct\": "
      << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value =
        std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << value << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

int Runner::Run() {
  std::error_code ec;
  std::filesystem::create_directories(run_dir_, ec);
  if (ec) {
    std::cerr << "cannot create scratch dir " << run_dir_ << "\n";
    return 2;
  }
  std::cout << "workload " << spec_.name << " seed " << args_.seed << ", "
            << args_.seconds << " s measured after " << kWarmupSeconds
            << " s warm-up, " << (args_.trace ? "traced" : "plain")
            << " run\n";
  Measurement m;
  const bool measured = Measure(&m);
  std::filesystem::remove_all(run_dir_, ec);
  if (!measured) {
    std::cout << JsonLine(false, 1, 1, {}) << "\n";
    return 1;
  }
  PhaseStats pooled;
  const std::vector<Metric> metrics =
      args_.trace ? LayerReport(m, &pooled) : EndToEndReport(m, &pooled);
  const bool correct = failures_.empty();
  std::cout << JsonLine(correct, std::max<std::uint64_t>(pooled.sent, 1),
                        pooled.not_ok(), metrics)
            << "\n";
  return correct ? 0 : 1;
}

bool Runner::Measure(Measurement* m) {
  const bool trace = args_.trace;
  const int slices =
      trace ? kTraceSlices
            : std::max(1, static_cast<int>(std::lround(args_.seconds /
                                                       kPlainSliceSeconds)));
  const int num_phases = slices + 2;  // warm-up, slices, drain
  const auto slice_length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(args_.seconds / slices));

  // Flush the file system's pending writeback first (a previous durable
  // run's WAL and its deletion), so set-up and the run start from a quiet
  // disk.
  const int dir_fd = ::open(run_dir_.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::syncfs(dir_fd);
    ::close(dir_fd);
  }
  // Set-ups: kSetups - 1 deployments are built, connected and stopped,
  // then the last one is measured. The reported set-up time is the median.
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<ClientFleet> fleet;
  for (int i = 0; i < kSetups; ++i) {
    if (deployment) {
      fleet.reset();
      const hdd::Status st = deployment->Stop();
      if (!st.ok()) Fail("set-up shutdown: " + st.ToString());
      deployment.reset();
    }
    std::this_thread::sleep_for(kSetupGap);
    const double s = TimedSetup(&deployment, &fleet, trace, num_phases);
    if (s < 0) return false;
    m->setups.push_back(s);
  }
  m->rss_setup = RssBytes();

  // The timed window. Traced runs also sample the admitted backlog every
  // millisecond (Little's law turns it into an independent queue time).
  fleet->Start();
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  Clock::time_point slice_start = Clock::now();
  for (int k = 0; k <= slices; ++k) {
    fleet->SetPhase(k + 1);
    deployment->SetTracing(trace && k < slices && kTracePattern[k]);
    m->snaps.push_back(deployment->Snapshot());
    const Clock::time_point now = Clock::now();
    if (k > 0) {
      m->slice_seconds.push_back(
          std::chrono::duration<double>(now - slice_start).count());
    }
    slice_start = now;
    if (k == slices) break;
    const Clock::time_point slice_end = now + slice_length;
    if (!trace) {
      std::this_thread::sleep_until(slice_end);
      continue;
    }
    double depth_sum = 0.0;
    std::uint64_t samples = 0;
    while (Clock::now() < slice_end) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      depth_sum += static_cast<double>(deployment->QueueDepth());
      ++samples;
    }
    m->queue_depth.push_back(Ratio(depth_sum, static_cast<double>(samples)));
  }
  fleet->Stop();
  m->rss_end = RssBytes();
  m->final_snap = deployment->Snapshot();
  m->phases = fleet->Merged();

  // Outside the timed window: shutdown and correctness.
  const hdd::Status stopped = deployment->Stop();
  if (!stopped.ok()) Fail("shutdown: " + stopped.ToString());
  if (!fleet->first_error().empty()) Fail("client: " + fleet->first_error());
  if (fleet->acked_commits() != m->final_snap.committed) {
    Fail("client-acked commits " + std::to_string(fleet->acked_commits()) +
         " != server net_committed " +
         std::to_string(m->final_snap.committed));
  } else {
    std::cout << "check: " << fleet->acked_commits()
              << " client-acked commits = server net_committed\n";
  }
  m->end = deployment->End();
  m->spans = Summarize(deployment->spans());
  if (spec_.wal) CheckRecovery(static_cast<SingleNode&>(*deployment));
  fleet.reset();
  deployment.reset();
  if (spec_.kind == DeploymentKind::kSingleNode) CheckServedHistory();
  return true;
}

std::vector<Metric> Runner::EndToEndReport(const Measurement& m,
                                           PhaseStats* pooled) {
  double seconds = 0.0;
  std::cout << "commits/s per slice:";
  for (std::size_t k = 0; k < m.slice_seconds.size(); ++k) {
    pooled->Merge(m.phases[k + 1]);
    seconds += m.slice_seconds[k];
    std::cout << " "
              << static_cast<long>(
                     Ratio(static_cast<double>(m.phases[k + 1].committed),
                           m.slice_seconds[k]));
  }
  std::cout << "\n";
  const double mem_growth =
      static_cast<double>(m.rss_end) - static_cast<double>(m.rss_setup);
  const std::span<const PhaseStats> slices(m.phases.data() + 1,
                                           m.slice_seconds.size());
  const std::vector<double> update_p99s = WindowP99s(slices, false);
  const std::vector<double> ro_p99s = WindowP99s(slices, true);
  for (const auto& [label, p99s] :
       {std::pair{"update", &update_p99s}, std::pair{"read-only", &ro_p99s}}) {
    std::cout << label << " p99 (us) per window:";
    for (double p99 : *p99s) std::cout << " " << static_cast<long>(p99);
    std::cout << "\n";
  }
  const std::vector<Metric> metrics = {
      {"commit_tput", Ratio(static_cast<double>(pooled->committed), seconds),
       "txn/s"},
      {"update_p50_us", Percentile(pooled->update_us, 0.50), "us"},
      {"update_p99_us", Percentile(update_p99s, kWindowQuantile), "us"},
      {"ro_p50_us", Percentile(pooled->read_only_us, 0.50), "us"},
      {"ro_p99_us", Percentile(ro_p99s, kWindowQuantile), "us"},
      {"ok_frac", Ratio(static_cast<double>(pooled->committed),
                        static_cast<double>(pooled->sent)),
       "frac"},
      {"setup_s", Median(m.setups), "s"},
      {"mem_bytes_per_commit",
       Ratio(mem_growth, static_cast<double>(m.final_snap.committed)),
       "B"},
  };
  std::cout << "end-to-end over " << m.slice_seconds.size() << " slices ("
            << std::fixed << std::setprecision(1) << seconds << " s):\n";
  std::cout.unsetf(std::ios::fixed);
  const std::string n_update =
      " (n=" + std::to_string(pooled->update_us.size());
  const std::string n_ro =
      " (n=" + std::to_string(pooled->read_only_us.size());
  const auto windows = [](std::size_t n) {
    return ", lower quartile of " + std::to_string(n) + " windows";
  };
  for (const Metric& metric : metrics) {
    std::string note;
    if (metric.name == "update_p50_us") note = n_update + ")";
    if (metric.name == "update_p99_us") {
      note = n_update + windows(update_p99s.size()) + ")";
    }
    if (metric.name == "ro_p50_us") note = n_ro + ")";
    if (metric.name == "ro_p99_us") note = n_ro + windows(ro_p99s.size()) + ")";
    if (metric.name == "setup_s") {
      note = " (median of " + std::to_string(m.setups.size()) + ", min " +
             std::to_string(*std::min_element(m.setups.begin(),
                                               m.setups.end())) +
             ", max " +
             std::to_string(*std::max_element(m.setups.begin(),
                                               m.setups.end())) +
             ")";
    }
    PrintMetric(metric, note);
  }
  PrintMetric({"failed_frac",
               Ratio(static_cast<double>(pooled->not_ok()),
                     static_cast<double>(pooled->sent)),
               "frac"},
              " (failed " + std::to_string(pooled->failed) + ", overload " +
                  std::to_string(pooled->overload) + ", errors " +
                  std::to_string(pooled->errors) + " of " +
                  std::to_string(pooled->sent) + " sent)");
  return metrics;
}

std::vector<Metric> Runner::LayerReport(const Measurement& m,
                                        PhaseStats* traced) {
  // Split the slices into traced and untraced halves.
  PhaseStats untraced;
  ServerSnap server;  // traced slices only
  double traced_s = 0.0;
  double untraced_s = 0.0;
  double depth_s = 0.0;  // backlog integrated over traced time
  for (std::size_t k = 0; k < m.slice_seconds.size(); ++k) {
    if (kTracePattern[k]) {
      traced->Merge(m.phases[k + 1]);
      Accumulate(&server, Delta(m.snaps[k + 1], m.snaps[k]));
      traced_s += m.slice_seconds[k];
      depth_s += m.queue_depth[k] * m.slice_seconds[k];
    } else {
      untraced.Merge(m.phases[k + 1]);
      untraced_s += m.slice_seconds[k];
    }
  }
  const SpanSummary& spans = m.spans;
  const auto count = [&](SpanKind kind) {
    return static_cast<double>(spans.us[static_cast<int>(kind)].size());
  };
  const auto durations = [&](SpanKind kind) -> const std::vector<double>& {
    return spans.us[static_cast<int>(kind)];
  };
  const double commits = static_cast<double>(server.committed);
  const double requests = static_cast<double>(server.request_us.count);
  const bool decorated = count(SpanKind::kBegin) > 0;
  const bool wal = count(SpanKind::kWalSync) > 0;
  const bool dist = spec_.kind == DeploymentKind::kSharded;

  std::map<std::string, double> v;  // absent = n/a on this workload
  const double request_mean = server.request_us.Mean();
  std::vector<double> client_all = traced->update_us;
  client_all.insert(client_all.end(), traced->read_only_us.begin(),
                    traced->read_only_us.end());
  const double client_mean = Mean(client_all);
  const double controller_per_request = Ratio(spans.controller_us, requests);
  v["net.request_us.p50"] =
      static_cast<double>(server.request_us.ValueAtQuantile(0.50));
  v["net.request_us.p99"] =
      static_cast<double>(server.request_us.ValueAtQuantile(0.99));
  v["net.wire_us.mean"] = client_mean - request_mean;
  v["net.shed_frac"] =
      Ratio(static_cast<double>(server.shed),
            static_cast<double>(server.admitted + server.shed));
  v["engine.attempts_per_commit"] =
      Ratio(static_cast<double>(traced->committed + traced->aborted_attempts),
            static_cast<double>(traced->committed));
  if (decorated) {
    v["net.queue_us.mean"] = request_mean - controller_per_request;
    v["engine.wasted_us_per_commit"] = Ratio(spans.wasted_us, commits);
    v["hdd.begin_us.mean"] = Mean(durations(SpanKind::kBegin));
    v["hdd.begin_us.p99"] = Percentile(durations(SpanKind::kBegin), 0.99);
    v["hdd.read_a_us.mean"] = Mean(durations(SpanKind::kReadA));
    v["hdd.read_a_us.p99"] = Percentile(durations(SpanKind::kReadA), 0.99);
    v["hdd.reads_a_per_commit"] = Ratio(count(SpanKind::kReadA), commits);
    v["hdd.read_b_us.mean"] = Mean(durations(SpanKind::kReadB));
    v["hdd.read_b_us.p99"] = Percentile(durations(SpanKind::kReadB), 0.99);
    v["hdd.write_us.mean"] = Mean(durations(SpanKind::kWrite));
    v["hdd.write_us.p99"] = Percentile(durations(SpanKind::kWrite), 0.99);
    v["hdd.abort_frac"] =
        Ratio(count(SpanKind::kAbort) + count(SpanKind::kCommitFailed),
              count(SpanKind::kBegin));
    v["hdd.read_c_us.mean"] = Mean(durations(SpanKind::kReadC));
    v["hdd.read_c_us.p99"] = Percentile(durations(SpanKind::kReadC), 0.99);
    v["hdd.commit_us.mean"] = Mean(durations(SpanKind::kCommit));
    v["hdd.commit_us.p99"] = Percentile(durations(SpanKind::kCommit), 0.99);
    v["hdd.busy_us_per_commit"] = Ratio(spans.controller_us, commits);
  }
  v["hdd.walls_released"] = static_cast<double>(m.end.walls_released);
  v["hdd.history_size"] = static_cast<double>(m.end.history_size);
  v["storage.versions_per_granule"] =
      Ratio(static_cast<double>(m.end.total_versions),
            static_cast<double>(m.end.granules));
  if (wal) {
    v["wal.sync_us.p50"] = Percentile(durations(SpanKind::kWalSync), 0.50);
    v["wal.sync_us.p99"] = Percentile(durations(SpanKind::kWalSync), 0.99);
    v["wal.syncs_per_commit"] = Ratio(count(SpanKind::kWalSync), commits);
    v["wal.mean_batch"] = Ratio(static_cast<double>(server.wal_commit_waits),
                                static_cast<double>(server.wal_batches));
    v["wal.append_us.mean"] = Mean(durations(SpanKind::kWalAppend));
    v["wal.bytes_per_commit"] =
        Ratio(static_cast<double>(server.wal_bytes), commits);
  }
  if (dist) {
    const auto per_commit = [&](std::initializer_list<hdd::DistMsgType> types) {
      double sum = 0.0;
      for (hdd::DistMsgType t : types) {
        sum += static_cast<double>(server.dist[static_cast<int>(t)]);
      }
      return Ratio(sum, commits);
    };
    double all = 0.0;
    for (std::uint64_t c : server.dist) all += static_cast<double>(c);
    v["dist.msgs_per_commit"] = Ratio(all, commits);
    v["dist.snapshot_req_per_commit"] =
        per_commit({hdd::DistMsgType::kSnapshotReq});
    v["dist.activity_req_per_commit"] =
        per_commit({hdd::DistMsgType::kActivityReq});
    v["dist.prepare_req_per_commit"] =
        per_commit({hdd::DistMsgType::kPrepareReq});
    v["dist.commit_req_per_commit"] =
        per_commit({hdd::DistMsgType::kCommitReq});
    v["dist.clock_rpc_per_commit"] = per_commit(
        {hdd::DistMsgType::kClockTickReq, hdd::DistMsgType::kClockNowReq});
  }
  const double traced_tput =
      Ratio(static_cast<double>(traced->committed), traced_s);
  const double untraced_tput =
      Ratio(static_cast<double>(untraced.committed), untraced_s);
  if (decorated) {
    v["trace.overhead_frac"] = 1.0 - Ratio(traced_tput, untraced_tput);
  }

  // Closure: the three layer times, each measured from its own source,
  // against the client's mean. Queue time here is Little's law on the
  // sampled backlog, not the request-minus-controller difference, so the
  // gap is server time neither the queue nor the controller explains.
  const double queue_little =
      Ratio(Ratio(depth_s, traced_s), Ratio(requests, traced_s)) * 1e6;
  const double layer_sum =
      v["net.wire_us.mean"] + queue_little + controller_per_request;
  if (decorated) {
    v["trace.closure_gap_frac"] = Ratio(client_mean - layer_sum, client_mean);
  }
  const std::string no_decorator =
      decorated ? "" : " [no decorators on this deployment]";

  std::cout << "per layer, " << spans.count << " spans over " << traced_s
            << " s of traced slices ("
            << server.committed << " commits):\n";
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = v.find(name);
    metrics.push_back({name, it == v.end() ? 0.0 : it->second, unit});
    PrintMetric(metrics.back(),
                it == v.end() ? "  (n/a on this workload)" : "");
  }
  std::cout << std::fixed << std::setprecision(1)
            << "closure: wire " << v["net.wire_us.mean"] << " + queue "
            << queue_little << " + controller " << controller_per_request
            << " = " << layer_sum << " us vs client mean " << client_mean
            << " us (gap "
            << 100.0 * Ratio(client_mean - layer_sum, client_mean)
            << "%)" << no_decorator << "\n"
            << "tracing overhead (decorators in place, spans on vs off): "
            << "traced " << traced_tput
            << " txn/s vs untraced " << untraced_tput << " txn/s ("
            << 100.0 * (1.0 - Ratio(traced_tput, untraced_tput)) << "%)"
            << no_decorator << "\n";
  std::cout.unsetf(std::ios::fixed);
  return metrics;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::optional<perfbench::Args> args =
      perfbench::ParseArgs(argc, argv);
  if (!args) {
    std::cerr << "usage: served_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scratch DIR]\n";
    return 2;
  }
  std::optional<perfbench::WorkloadSpec> spec =
      perfbench::MakeSpec(args->workload);
  if (!spec) {
    std::cerr << "unknown workload '" << args->workload << "'\n";
    return 2;
  }
  perfbench::Runner runner(*args, std::move(*spec));
  return runner.Run();
}
