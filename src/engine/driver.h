#ifndef HDD_ENGINE_DRIVER_H_
#define HDD_ENGINE_DRIVER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "cc/controller.h"
#include "common/sim_hook.h"
#include "engine/executor.h"
#include "engine/txn_program.h"
#include "sim/sim_scheduler.h"

// The execution-driver skeleton. Every driver in the repo — RunWorkload,
// RunWorkloadEpochs, and RunProgram, which the network server runs per
// request and DistWorld per program (a shard's controller is its
// DistSession, so both deployments take this path) — is a thin caller of
// these pieces, so the paper's restart contract (a transaction that
// fails Protocol B's test restarts with a fresh Begin and a new I(t);
// Protocol A and C reads never abort) and the simulator's fault and task
// boundaries are written once:
//  * RunTasks        the task launcher (plain threads, or sim tasks);
//  * RunAttempt      the attempt boundary: body -> Commit -> Abort on
//                    failure, plus the SimFault kAbort/kCrash split;
//  * RunWithRetries  the retry loop: Begin, budget, backoff;
//  * RunTally        the executors' per-worker outcome records;
//  * RunWorkers      an executor's run: workers plus the service task on
//                    the launcher, then the tally folded into stats.

namespace hdd {

/// How one transaction attempt ended.
enum class AttemptOutcome {
  kCommitted,
  kFailed,   // non-retryable error: the program fails
  kCrashed,  // injected mid-transaction crash (sim): abandoned
  kRetry,    // commit-time validation failure or injected abort
  kBackoff,  // retryable conflict in the body: retry after a backoff
};

/// The attempt boundary for one begun transaction: runs the program's
/// body, commits on OK and aborts on any other way out. A SimFault thrown
/// from an interruptible yield point inside the controller unwinds to
/// here; the transaction is aborted (modelling recovery) and the attempt
/// is retried (kAbort) or abandoned (kCrash). A failed Commit is not
/// followed by Abort: the controller has already discarded the
/// transaction.
AttemptOutcome RunAttempt(ConcurrencyController& cc, const TxnProgram& program,
                          const TxnDescriptor& txn);

/// The retry loop around an attempt body: up to `max_retries` restarts,
/// each with a fresh Begin(`options`) (a fresh I(t)). A SimFault during
/// Begin left no transaction behind: kAbort retries, kCrash abandons.
/// `run_attempt(txn)` runs one attempt on the begun transaction and returns
/// its outcome; kBackoff sleeps exponentially from the fourth attempt on,
/// which breaks symmetric abort-retry livelocks (under simulation the
/// sleep is a plain reschedule). A template, so the per-request path
/// builds no std::function and allocates nothing per attempt.
template <typename AttemptFn>
ProgramResult RunWithRetries(ConcurrencyController& cc,
                             const TxnOptions& options, int max_retries,
                             SimScheduler* sim, AttemptFn&& run_attempt) {
  ProgramResult result;
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    if (sim != nullptr) sim->OnTxnAttemptStart();
    std::optional<Result<TxnDescriptor>> txn;
    try {
      txn.emplace(cc.Begin(options));
    } catch (const SimFault& fault) {
      if (fault.kind == SimFaultKind::kCrash) {
        result.crashed = true;
        return result;
      }
      ++result.aborted_attempts;
      continue;
    }
    if (!txn->ok()) break;
    switch (run_attempt(**txn)) {
      case AttemptOutcome::kCommitted:
        result.committed = true;
        return result;
      case AttemptOutcome::kCrashed:
        result.crashed = true;
        return result;
      case AttemptOutcome::kFailed:
        result.failed = true;
        return result;
      case AttemptOutcome::kRetry:
        ++result.aborted_attempts;
        continue;
      case AttemptOutcome::kBackoff:
        ++result.aborted_attempts;
        if (attempt > 2) {
          SimSleep(std::chrono::microseconds(
              std::min(1 << std::min(attempt, 12), 2000)));
        }
        continue;
    }
  }
  result.failed = true;
  return result;
}

/// The task launcher. Starts `num_workers` worker tasks, running
/// worker(id) for id in [0, num_workers), and one task per `helpers`
/// entry, then joins them all. With `sim` null they are plain threads.
/// Under simulation task identity is fixed here — worker w is task w,
/// helper h is task num_workers + h — never by thread startup order (the
/// one nondeterminism the scheduler cannot own): ExpectTasks comes first,
/// every thread registers its id before running, a SimHalt ends the task,
/// and every task unregisters on its way out.
///
/// `workers_done` runs once, on the last worker to finish, while that
/// worker is still registered. Helpers (a service loop, message pumps)
/// are therefore told to stop at a point the schedule fixes, not whenever
/// a joining OS thread happens to run, so the number of trailing helper
/// steps — and with it the whole decision trace — replays exactly.
void RunTasks(SimScheduler* sim, int num_workers,
              const std::function<void(int)>& worker,
              const std::function<void()>& workers_done,
              const std::vector<std::function<void()>>& helpers);

/// The executors' run tally. Each worker owns a cache-line-aligned record
/// (its latency reservoir and its per-class rows), so recording an
/// outcome touches no shared counter; Fold sums the records after the
/// join, and the totals are the sums of the per-class rows, so each
/// outcome is counted once.
class RunTally {
 public:
  /// Uses `options`' worker count, seed, completion callback and WAL
  /// counters; `options` must outlive the tally.
  explicit RunTally(const ExecutorOptions& options);

  /// Records the terminal `result` of a stream program (declared with
  /// `txn_options`) on `worker`'s record — committed latency measured from
  /// `start` — then fires on_txn_done. A worker id is never used by two
  /// threads at once.
  void Finish(int worker, const TxnOptions& txn_options,
              const ProgramResult& result,
              std::chrono::steady_clock::time_point start);

  /// Folds every record into run statistics. Call once, after the join.
  ExecutorStats Fold(const ConcurrencyController& cc, double seconds);

 private:
  struct alignas(64) WorkerRecord {
    explicit WorkerRecord(std::uint64_t seed) : latency(4096, seed) {}
    LatencyReservoir latency;
    std::map<ClassId, PerClassStats> per_class;
  };

  const ExecutorOptions& options_;
  std::vector<WorkerRecord> workers_;
  std::atomic<std::uint64_t> done_{0};  // touched only with on_txn_done
};

/// An executor's run: `worker(id)` on options.num_threads tasks plus the
/// options.service task when set (its flag flips once the last worker
/// finished), timed and folded through `tally` into run statistics.
ExecutorStats RunWorkers(const ConcurrencyController& cc,
                         const ExecutorOptions& options, RunTally& tally,
                         const std::function<void(int)>& worker);

}  // namespace hdd

#endif  // HDD_ENGINE_DRIVER_H_
