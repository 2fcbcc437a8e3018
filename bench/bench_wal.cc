// Durability cost of the per-segment WAL (src/wal/): committed-txn
// throughput of the HDD controller with no WAL at all, with logging but
// fsync disabled (kNone — the pure record-marshalling overhead), with
// leader/follower group commit (kGroupCommit — the intended production
// mode), and with one fsync per commit (kPerCommit — the naive
// baseline whose fsyncs group commit shares among overlapping commits).
//
// Logs go through FileWalStorage into a scratch directory that is
// removed afterwards, so absolute numbers track the host filesystem's
// fsync latency; the interesting signal is the ratio between modes, the
// group-commit batch sizes, and the leader rounds that paused for
// followers to pile in. One machine-readable JSON row per configuration
// follows the table.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include <algorithm>

#include "engine/executor.h"
#include "engine/harness.h"
#include "engine/synthetic_workload.h"
#include "hdd/hdd_controller.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "wal/wal_manager.h"
#include "wal/wal_storage.h"

namespace hdd {
namespace {

// CI smoke runs shrink the sweep via HDD_BENCH_TXNS / HDD_BENCH_THREADS
// and stabilize it via HDD_BENCH_REPS (best-of repetitions per config).
const std::uint64_t kTxnsPerRun = EnvOr("HDD_BENCH_TXNS", 2000);
const int kReps = static_cast<int>(EnvOr("HDD_BENCH_REPS", 1));

struct Mode {
  const char* name;
  bool use_wal;
  WalSyncMode sync;
};

constexpr Mode kModes[] = {
    {"no-wal", false, WalSyncMode::kNone},
    {"fsync-off", true, WalSyncMode::kNone},
    {"group-commit", true, WalSyncMode::kGroupCommit},
    {"per-commit", true, WalSyncMode::kPerCommit},
};

SyntheticWorkload MakeWorkload() {
  SyntheticWorkloadParams params;
  params.depth = 4;
  params.granules_per_segment = 64;
  params.own_reads = 1;
  params.own_writes = 2;  // write-heavy: every commit must reach the log
  params.upper_reads = 1;
  params.read_only_fraction = 0.1;
  return SyntheticWorkload(params);
}

struct RunResult {
  ExecutorStats stats;
};

RunResult MeasureModeOnce(const Mode& mode, const SyntheticWorkload& workload,
                          const HierarchySchema* schema, int threads,
                          const std::string& scratch, int rep) {
  auto db = workload.MakeDatabase();
  std::unique_ptr<FileWalStorage> storage;
  std::unique_ptr<WalManager> wal;
  ExecutorOptions options;
  options.num_threads = threads;
  if (mode.use_wal) {
    const std::string dir = scratch + "/" + mode.name + "-t" +
                            std::to_string(threads) + "-r" +
                            std::to_string(rep);
    storage = std::make_unique<FileWalStorage>(dir);
    WalOptions wopts;
    wopts.group.mode = mode.sync;
    auto opened = WalManager::Open(storage.get(), db->num_segments(), wopts);
    if (!opened.ok()) {
      std::cerr << "wal open failed: " << opened.status().ToString() << "\n";
      std::exit(1);
    }
    wal = std::move(*opened);
    db->AttachWal(wal.get());
    options.wal_metrics = &wal->metrics();
  }
  LogicalClock clock;
  HddController cc(db.get(), &clock, schema);
  cc.recorder().set_enabled(false);
  RunResult result;
  result.stats = RunWorkload(cc, workload, kTxnsPerRun, options);
  return result;
}

RunResult MeasureMode(const Mode& mode, const SyntheticWorkload& workload,
                      const HierarchySchema* schema, int threads,
                      const std::string& scratch) {
  RunResult best;
  for (int rep = 0; rep < kReps; ++rep) {
    RunResult r = MeasureModeOnce(mode, workload, schema, threads, scratch, rep);
    if (rep == 0 || r.stats.Throughput() > best.stats.Throughput()) best = r;
  }
  return best;
}

std::uint64_t Get(const ExecutorStats& stats, const char* key) {
  const auto it = stats.wal.find(key);
  return it == stats.wal.end() ? 0 : it->second;
}

void Run(int argc, char** argv) {
  const SyntheticWorkload workload = MakeWorkload();
  auto schema = HierarchySchema::Create(workload.Spec());

  const std::optional<std::string> trace_path = TracePathFromArgs(argc, argv);
  if (trace_path) TraceRecorder::Enable();

  char dir_template[] = "hdd_walbench.XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) {
    std::cerr << "mkdtemp failed\n";
    std::exit(1);
  }
  const std::string scratch = dir_template;

  std::cout << "=== WAL durability cost (" << kTxnsPerRun
            << " txns/run, write-heavy depth-4 chain) ===\n\n"
            << std::left << std::setw(14) << "mode" << std::right
            << std::setw(9) << "threads" << std::setw(12) << "txn/s"
            << std::setw(10) << "fsyncs" << std::setw(12) << "log MiB"
            << std::setw(12) << "mean batch" << std::setw(9) << "paused"
            << "\n";

  RunReport report("wal");
  const double cal_before = CalibrationSpinsPerSec();
  std::string json;
  // Thread counts for this bench specifically: HDD_BENCH_WAL_THREADS
  // overrides the shared HDD_BENCH_THREADS knob. Group commit only
  // batches when several workers reach Commit concurrently — CI smoke
  // runs that force t1 via HDD_BENCH_THREADS would otherwise pin every
  // group-commit row at mean_batch = 1 (one commit per leader round, see
  // EXPERIMENTS.md) and measure nothing this bench is about.
  for (int threads : EnvListOr("HDD_BENCH_WAL_THREADS",
                               EnvListOr("HDD_BENCH_THREADS", {1, 4}))) {
    for (const Mode& mode : kModes) {
      const RunResult r =
          MeasureMode(mode, workload, &*schema, threads, scratch);
      const std::uint64_t fsyncs = Get(r.stats, "fsyncs");
      const std::uint64_t bytes = Get(r.stats, "bytes_appended");
      const std::uint64_t batches = Get(r.stats, "group_commit_batches");
      const std::uint64_t pauses = Get(r.stats, "group_commit_pauses");
      const std::uint64_t waits = Get(r.stats, "commit_waits");
      const double mean_batch =
          batches > 0 ? static_cast<double>(waits) / batches : 0.0;
      std::cout << std::left << std::setw(14) << mode.name << std::right
                << std::setw(9) << threads << std::setw(12) << std::fixed
                << std::setprecision(0) << r.stats.Throughput()
                << std::setw(10) << fsyncs << std::setw(12)
                << std::setprecision(2) << bytes / (1024.0 * 1024.0)
                << std::setw(12) << std::setprecision(2) << mean_batch
                << std::setw(9) << pauses << "\n";
      std::ostringstream row;
      row << "{\"bench\":\"wal\",\"mode\":\"" << mode.name
          << "\",\"threads\":" << threads << ",\"txns\":" << kTxnsPerRun
          << ",\"committed\":" << r.stats.committed
          << ",\"txn_per_sec\":" << std::fixed << std::setprecision(1)
          << r.stats.Throughput() << ",\"fsyncs\":" << fsyncs
          << ",\"log_bytes\":" << bytes << ",\"records\":"
          << Get(r.stats, "records_appended")
          << ",\"group_commit_batches\":" << batches
          << ",\"group_commit_pauses\":" << pauses
          << ",\"mean_batch\":" << std::setprecision(2) << mean_batch << "}\n";
      json += row.str();
      RunReport::Row& report_row =
          report
              .AddRow(std::string(mode.name) + "_t" + std::to_string(threads))
              .Metric("txn_per_sec", r.stats.Throughput())
              .Metric("committed", r.stats.committed)
              .Metric("fsyncs", fsyncs)
              .Metric("log_bytes", bytes)
              .Metric("records_appended", Get(r.stats, "records_appended"))
              .Metric("group_commit_batches", batches)
              .Metric("mean_batch", mean_batch);
      // This bench's signal is the durability-cost ratio between modes,
      // and its absolute rows are hostage to the host: buffered writes
      // and fsyncs to the disk, and (at threads > cores) scheduler luck.
      // Widen the regression gate for all of them (see report.h
      // contract) — bench_scaling carries the tight CPU-bound gate.
      report_row.Metric("gate_tolerance", 0.5);
    }
  }
  report.AddRow("calibration")
      .Metric("spins_per_sec",
              std::min(cal_before, CalibrationSpinsPerSec()));
  std::cout << "\nMean batch is commits per leader round: 1 at t1 by "
               "construction. Paused is leader rounds that paused for "
               "followers to pile in. Measured rows and their reading: "
               "EXPERIMENTS.md, \"WAL group commit\".\n\n"
            << json;

  if (const auto path = ReportPathFromArgs(argc, argv)) {
    std::string error;
    if (!report.WriteFile(*path, &error)) {
      std::cerr << "report write failed: " << error << "\n";
      std::exit(1);
    }
    std::cout << "report written to " << *path << "\n";
  }
  if (trace_path) {
    std::ofstream os(*trace_path);
    if (!os) {
      std::cerr << "trace write failed: cannot open " << *trace_path << "\n";
      std::exit(1);
    }
    TraceRecorder::WriteChromeTrace(os);
    std::cout << "trace written to " << *trace_path << "\n";
  }

  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);
}

}  // namespace
}  // namespace hdd

int main(int argc, char** argv) {
  hdd::Run(argc, argv);
  return 0;
}
