#ifndef HDD_ENGINE_EXECUTOR_H_
#define HDD_ENGINE_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cc/controller.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "engine/txn_program.h"

namespace hdd {

class SimScheduler;

/// Terminal result of driving one program to completion (commit, budget
/// exhaustion, or sim-crash abandonment). Exactly one of committed /
/// failed / crashed is set.
struct ProgramResult {
  bool committed = false;
  bool failed = false;   // budget exhausted / hard error
  bool crashed = false;  // abandoned by an injected mid-txn crash (sim)
  std::uint64_t aborted_attempts = 0;  // retries consumed by conflicts
};

/// Runs one program to completion against `cc`: Begin/body/Commit with
/// retry on retryable conflicts (kAborted, kDeadlock, kBusy) up to
/// `max_retries`, exponential backoff after repeated aborts, and (under
/// simulation) the attempt-level fault boundary — engine/driver.h's
/// RunWithRetries around RunAttempt. This is the executor's core, exposed
/// so push-based drivers — the network server's worker pool — run exactly
/// the engine the workload executor runs.
ProgramResult RunProgram(ConcurrencyController& cc, const TxnProgram& program,
                         int max_retries = 10000, SimScheduler* sim = nullptr);

struct ExecutorOptions {
  int num_threads = 4;
  /// Restart budget per transaction before it is counted as failed.
  int max_retries = 10000;
  std::uint64_t seed = 1;
  /// Deterministic simulation backend. When set, each worker registers as
  /// a task of this scheduler (task id = worker id; see RunTasks in
  /// engine/driver.h), every interleaving decision is the scheduler's,
  /// injected SimFault aborts/crashes are handled at the attempt boundary,
  /// and backoff sleeps become reschedules. When null, workers are plain
  /// OS threads.
  SimScheduler* sim = nullptr;
  /// Called by the finishing worker after each program completes (commit,
  /// failure, or crash-abandonment), with the number of programs finished
  /// so far. The crash-recovery harness uses it to trigger mid-run
  /// checkpoints; it runs on the worker thread, so under simulation it may
  /// yield but must not block outside scheduler control.
  std::function<void(std::uint64_t)> on_txn_done;
  /// When set, a snapshot of these WAL counters is folded into
  /// ExecutorStats::wal at the end of the run.
  const WalMetrics* wal_metrics = nullptr;
  /// Optional service loop run for the whole duration of the workload,
  /// alongside the workers (the online Redecomposer's poll loop rides
  /// here; see engine/redecompose.h). Under simulation it registers as
  /// one extra scheduler task (id = num_threads), so its steps interleave
  /// under the model checker like any worker's — it must yield through
  /// the sim hooks. The flag flips to true once every worker finished its
  /// stream; the service must observe it and return promptly. The LAST
  /// worker raises the flag before unregistering its task, so the number
  /// of service steps after the final transaction is fixed by the
  /// schedule, not by OS timing — replays stay byte-identical.
  std::function<void(const std::atomic<bool>& workers_done)> service;
};

/// Fixed-capacity uniform sample of latency observations (Vitter's
/// algorithm R), one per worker thread: memory stays bounded no matter how
/// long the run, each worker samples without synchronization, and the
/// per-thread reservoirs merge into percentile estimates afterwards.
/// Deterministic for a given seed and observation sequence.
class LatencyReservoir {
 public:
  explicit LatencyReservoir(std::size_t capacity = 4096,
                            std::uint64_t seed = 1)
      : capacity_(capacity), rng_(seed) {
    samples_.reserve(capacity);
  }

  void Add(double value_us) {
    ++count_;
    if (value_us > max_us_) max_us_ = value_us;
    if (samples_.size() < capacity_) {
      samples_.push_back(value_us);
      return;
    }
    // Keep each of the `count_` observations with probability
    // capacity / count: replace a uniformly random slot.
    const std::uint64_t slot = rng_.NextBounded(count_);
    if (slot < capacity_) samples_[slot] = value_us;
  }

  /// Observations offered (not the retained sample size).
  std::uint64_t count() const { return count_; }
  /// Exact maximum over ALL observations (tracked outside the sample).
  double max_us() const { return max_us_; }
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::size_t capacity_;
  std::uint64_t count_ = 0;
  double max_us_ = 0.0;
  std::vector<double> samples_;
  Rng rng_;
};

/// Percentiles over the union of several reservoirs. Each retained sample
/// stands for count/size observations of its own reservoir, so reservoirs
/// that saw more traffic weigh proportionally more (plain concatenation
/// would skew toward idle threads). The maximum is exact.
struct LatencyDigest {
  std::uint64_t count = 0;  // total observations across reservoirs
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};
LatencyDigest MergeReservoirs(const std::vector<LatencyReservoir>& parts);

/// One class's slice of an executor run — the end-of-run report carries a
/// row per class so server-side admission/shed decisions are auditable
/// against what each class actually committed and aborted.
struct PerClassStats {
  std::uint64_t committed = 0;
  std::uint64_t aborted_attempts = 0;
  std::uint64_t failed = 0;
  std::uint64_t crashed = 0;
};

struct ExecutorStats {
  std::uint64_t committed = 0;
  std::uint64_t aborted_attempts = 0;  // retries consumed by conflicts
  std::uint64_t failed = 0;            // budget exhausted / hard errors
  std::uint64_t crashed = 0;  // abandoned by an injected mid-txn crash (sim)
  /// Epochs published by the epoch executor (0 under per-txn execution).
  std::uint64_t epochs = 0;
  double seconds = 0.0;

  /// End-to-end latency (first Begin to final Commit, retries included)
  /// of committed transactions, in microseconds; percentiles estimated
  /// from merged per-thread reservoirs, the max exact.
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_max_us = 0.0;

  /// Controller metrics registry snapshot at end of run (keys as in
  /// CcMetrics::ToMap) — the executor's report is a superset of what the
  /// ad-hoc metric structs used to surface.
  std::map<std::string, std::uint64_t> cc;

  /// WAL counters at end of run (empty unless ExecutorOptions::wal_metrics
  /// was set); keys as in WalMetrics::ToMap.
  std::map<std::string, std::uint64_t> wal;

  /// Per-class admission/abort breakdown, keyed by the program's declared
  /// class (kReadOnlyClass = ad-hoc read-only). Populated by RunWorkload
  /// and RunWorkloadEpochs; the four totals above are its column sums.
  std::map<ClassId, PerClassStats> per_class;

  double Throughput() const {
    return seconds > 0 ? static_cast<double>(committed) / seconds : 0;
  }
};

/// Runs `total_txns` programs from `workload` against `cc` with
/// `num_threads` workers, retrying on retryable conflicts (kAborted,
/// kDeadlock, kBusy). Blocking controllers park workers internally.
ExecutorStats RunWorkload(ConcurrencyController& cc, const Workload& workload,
                          std::uint64_t total_txns,
                          const ExecutorOptions& options = {});

}  // namespace hdd

#endif  // HDD_ENGINE_EXECUTOR_H_
