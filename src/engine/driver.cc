#include "engine/driver.h"

#include <thread>
#include <utility>

namespace hdd {

AttemptOutcome RunAttempt(ConcurrencyController& cc, const TxnProgram& program,
                          const TxnDescriptor& txn) {
  Status status;
  bool faulted = false;
  bool fault_crash = false;
  try {
    status = program.body(cc, txn);
    if (status.ok()) {
      status = cc.Commit(txn);
      if (status.ok()) return AttemptOutcome::kCommitted;
      // Commit-time validation failure (e.g. OCC): the controller has
      // already discarded the transaction; just restart the program.
      return status.IsRetryable() ? AttemptOutcome::kRetry
                                  : AttemptOutcome::kFailed;
    }
  } catch (const SimFault& fault) {
    faulted = true;
    fault_crash = fault.kind == SimFaultKind::kCrash;
  }
  // Abort paths are non-interruptible yield sites, so this never throws
  // SimFault (a throw here would escape the attempt boundary); SimHalt
  // still propagates to the task launcher, unwinding via RAII only.
  (void)cc.Abort(txn);  // best effort; the txn may already be gone
  if (faulted) {
    return fault_crash ? AttemptOutcome::kCrashed : AttemptOutcome::kRetry;
  }
  if (status.IsRetryable() || status.code() == StatusCode::kBusy) {
    return AttemptOutcome::kBackoff;
  }
  return AttemptOutcome::kFailed;
}

void RunTasks(SimScheduler* sim, int num_workers,
              const std::function<void(int)>& worker,
              const std::function<void()>& workers_done,
              const std::vector<std::function<void()>>& helpers) {
  const int num_tasks = num_workers + static_cast<int>(helpers.size());
  if (sim != nullptr) sim->ExpectTasks(num_tasks);
  std::atomic<int> workers_left{num_workers};
  const auto task = [&](int id) {
    const bool is_worker = id < num_workers;
    try {
      if (sim != nullptr) sim->RegisterCurrentTask(id);
      if (is_worker) {
        worker(id);
      } else {
        helpers[static_cast<std::size_t>(id - num_workers)]();
      }
    } catch (const SimHalt&) {
      // Run halted (deadlock finding / budget); stack unwound via RAII.
    }
    if (is_worker && workers_left.fetch_sub(1) == 1) workers_done();
    if (sim != nullptr) sim->UnregisterCurrentTask();
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_tasks));
  for (int id = 0; id < num_tasks; ++id) threads.emplace_back(task, id);
  for (std::thread& t : threads) t.join();
}

RunTally::RunTally(const ExecutorOptions& options) : options_(options) {
  workers_.reserve(static_cast<std::size_t>(options.num_threads));
  for (int i = 0; i < options.num_threads; ++i) {
    workers_.emplace_back(options.seed * 6271 + static_cast<std::uint64_t>(i));
  }
}

void RunTally::Finish(int worker, const TxnOptions& txn_options,
                      const ProgramResult& result,
                      std::chrono::steady_clock::time_point start) {
  WorkerRecord& record = workers_[static_cast<std::size_t>(worker)];
  if (result.committed) {
    record.latency.Add(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start)
                           .count());
  }
  const ClassId cls =
      txn_options.read_only ? kReadOnlyClass : txn_options.txn_class;
  PerClassStats& row = record.per_class[cls];
  row.committed += result.committed ? 1 : 0;
  row.aborted_attempts += result.aborted_attempts;
  row.failed += result.failed ? 1 : 0;
  row.crashed += result.crashed ? 1 : 0;
  if (options_.on_txn_done) options_.on_txn_done(done_.fetch_add(1) + 1);
}

ExecutorStats RunTally::Fold(const ConcurrencyController& cc,
                             double seconds) {
  ExecutorStats stats;
  stats.seconds = seconds;
  std::vector<LatencyReservoir> latencies;
  latencies.reserve(workers_.size());
  for (WorkerRecord& record : workers_) {
    latencies.push_back(std::move(record.latency));
    for (const auto& [cls, row] : record.per_class) {
      PerClassStats& merged = stats.per_class[cls];
      merged.committed += row.committed;
      merged.aborted_attempts += row.aborted_attempts;
      merged.failed += row.failed;
      merged.crashed += row.crashed;
    }
  }
  for (const auto& [cls, row] : stats.per_class) {
    stats.committed += row.committed;
    stats.aborted_attempts += row.aborted_attempts;
    stats.failed += row.failed;
    stats.crashed += row.crashed;
  }
  const LatencyDigest digest = MergeReservoirs(latencies);
  stats.latency_p50_us = digest.p50_us;
  stats.latency_p95_us = digest.p95_us;
  stats.latency_p99_us = digest.p99_us;
  stats.latency_max_us = digest.max_us;
  stats.cc = cc.metrics().ToMap();
  if (options_.wal_metrics != nullptr) {
    stats.wal = options_.wal_metrics->ToMap();
  }
  return stats;
}

ExecutorStats RunWorkers(const ConcurrencyController& cc,
                         const ExecutorOptions& options, RunTally& tally,
                         const std::function<void(int)>& worker) {
  std::atomic<bool> workers_done{false};
  std::vector<std::function<void()>> helpers;
  if (options.service) {
    helpers.push_back([&] { options.service(workers_done); });
  }
  const auto start = std::chrono::steady_clock::now();
  RunTasks(options.sim, options.num_threads, worker,
           [&] { workers_done.store(true); }, helpers);
  return tally.Fold(cc, std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count());
}

}  // namespace hdd
