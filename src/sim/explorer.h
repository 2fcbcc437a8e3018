#ifndef HDD_SIM_EXPLORER_H_
#define HDD_SIM_EXPLORER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/sim_scheduler.h"
#include "txn/schedule.h"

namespace hdd {

class ConcurrencyController;
class Database;

/// Result of one simulated run.
struct SimRunReport {
  std::string failure;  // empty = the run passed every check
  bool deadlocked = false;
  bool decision_limit_hit = false;
  std::uint64_t decisions = 0;
  std::uint64_t faults_injected = 0;
  std::vector<std::uint64_t> trace;
  std::vector<int> choices;
  std::vector<int> choice_arity;
};

/// One simulated workload: builds a fresh controller + database, runs it
/// to completion under `sched` (workers registered as sim tasks), checks
/// the recorded history, and returns "" or a failure description. It must
/// derive ALL nondeterminism from the scheduler and its own fixed seeds
/// so that the same SimScheduler::Options reproduce the same run.
using SimWorkloadFn = std::function<std::string(SimScheduler&)>;

/// Runs the workload once under a scheduler built from `options` and
/// folds scheduler-level findings (deadlock, decision-budget exhaustion)
/// into the report.
SimRunReport RunSimulation(const SimScheduler::Options& options,
                           const SimWorkloadFn& fn);

struct SimFailure {
  /// The seed (seed sweeps) or schedule index (systematic exploration).
  std::uint64_t seed = 0;
  std::string message;
  /// Whether re-running with identical options reproduced the identical
  /// trace AND failure — the byte-for-byte replay guarantee.
  bool replayed_identically = false;
  /// Ready-to-paste command reproducing exactly this run.
  std::string replay_command;
  /// For systematic exploration: the choice script of the failing run.
  std::vector<int> script;
};

struct SeedSweepReport {
  std::uint64_t runs = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t deadlocks = 0;
  std::vector<SimFailure> failures;
};

/// Runs `num_seeds` consecutive seeds starting at `first_seed`. Every
/// failing seed is immediately re-run with identical options and its
/// trace compared word-for-word (the replay check), and a replay command
/// of the form `HDD_SIM_FIRST_SEED=<seed> HDD_SIM_SEEDS=1 <replay_hint>`
/// is attached. Stops collecting (but keeps counting) after
/// `max_failures` failures.
SeedSweepReport RunSeedSweep(SimScheduler::Options base,
                             std::uint64_t first_seed,
                             std::uint64_t num_seeds, const SimWorkloadFn& fn,
                             const std::string& replay_hint,
                             std::size_t max_failures = 8);

struct ExploreReport {
  std::uint64_t schedules = 0;
  /// True iff the bounded space was fully enumerated (every prefix of
  /// branching decisions up to the depth bound was tried).
  bool exhausted = false;
  std::vector<SimFailure> failures;
};

/// Bounded systematic exploration: depth-first enumeration of every
/// schedule that differs within the first `branch_depth` BRANCHING
/// scheduling decisions (positions where more than one task was
/// runnable), with deterministic choice-0 tails beyond the bound. Faults
/// and wakeup perturbations are disabled so the choice script is the only
/// nondeterminism. Each run replays the previous run's choice prefix,
/// deviates at the deepest incrementable position, and lets the scheduler
/// record the new run's choices — classic stateless model checking.
ExploreReport ExploreBoundedSchedules(SimScheduler::Options base,
                                      int branch_depth,
                                      std::uint64_t max_schedules,
                                      const SimWorkloadFn& fn,
                                      std::size_t max_failures = 8);

/// The full history oracle for simulated runs, combining every check the
/// concurrency tests apply (see tests/test_concurrent_oracle.cc):
///   1. the multi-version dependency graph is acyclic (§2 criterion);
///   2. replaying its topological order as a serial schedule on a
///      single-version store reproduces every read (the 1SR witness);
///   3. if `replay_bounds`: every Protocol A/C read's recorded bound,
///      replayed against the history's COMMITTED WRITES, selects exactly
///      the version the read saw (no version ever committed below a
///      served bound), update-txn bounds never exceed the reader's init
///      timestamp, and every final chain ends in its last committed write;
///   4. also under `replay_bounds`: read-only transactions used one bound
///      per segment and saw one version per granule (consistent-cut
///      shape). Both bound checks apply only to bound-carrying (HDD)
///      histories.
/// Returns "" on success, else a description of the first violation.
/// GC may run during the run: it never prunes a chain's committed tip.
std::string CheckSimHistory(const ConcurrencyController& cc, Database& db,
                            bool replay_bounds);

/// Steps-level variant of CheckSimHistory, for histories assembled by
/// hand — the crash-recovery harness concatenates the pre-crash recording
/// (filtered to durable transactions) with the post-recovery run's and
/// checks the COMBINED history for 1SR against the final chains.
std::string CheckRecordedHistory(
    const std::vector<Step>& steps,
    const std::unordered_map<TxnId, TxnState>& outcomes,
    const std::unordered_map<TxnId, ScheduleRecorder::TxnIdentity>& identities,
    Database& db, bool replay_bounds);

}  // namespace hdd

#endif  // HDD_SIM_EXPLORER_H_
