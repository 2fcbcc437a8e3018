#ifndef HDD_ENGINE_EPOCH_EXECUTOR_H_
#define HDD_ENGINE_EPOCH_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "engine/executor.h"
#include "engine/txn_program.h"

namespace hdd {

/// Epoch/batch execution (DGCC-style, see PAPERS.md): one worker admits a
/// batch of programs per epoch through the controller's
/// BeginEpoch/BeginBatch path, intra-epoch conflicts are ordered by a
/// dependency graph built from the programs' DECLARED own-segment access
/// sets, and the worker pool executes ready nodes concurrently. A node's
/// successors are released only after its commit/abort fully finished, so
/// a controller may rely on the graph ordering (HDD skips MVTO's
/// younger-reader write check for epoch transactions). Retryable aborts
/// re-admit the program in the next epoch; epochs never overlap.
///
/// Every ExecutorOptions field keeps its meaning; `max_retries` budgets
/// re-admissions. A Restructure issued from the `service` returns Busy
/// while an epoch is open (the BeginEpoch/Restructure exclusion), so the
/// service retries between epochs.
struct EpochExecutorOptions : ExecutorOptions {
  /// Programs admitted per epoch (retries from the previous epoch come
  /// first, topped up from the workload stream).
  std::uint64_t epoch_size = 32;
  /// TEST-ONLY mutation canary (sim harness): drop the first dependency
  /// edge of every epoch's graph. Two conflicting transactions of one
  /// class then run unordered while HDD's epoch mode has delegated the
  /// younger-reader check to this very graph — the 1SR oracle must catch
  /// the resulting anomaly with a replayable seed.
  bool mutation_skip_dependency_edge = false;
};

/// Intra-epoch dependency graph over the batch, nodes = batch indices in
/// admission order. Edge i -> j (i < j) iff both are update programs of
/// the same class and their declared own-segment access sets conflict
/// (w-w, w-r or r-w on at least one granule). Always a DAG: edges point
/// forward in admission order, which BeginBatch maps to timestamp order.
struct EpochGraph {
  std::vector<std::vector<int>> successors;
  std::vector<int> indegree;
  std::size_t num_edges = 0;
};

/// Exposed for tests. `skip_first_edge` implements the mutation canary.
EpochGraph BuildEpochGraph(const std::vector<const TxnProgram*>& batch,
                           bool skip_first_edge = false);

/// Runs `total_txns` programs from `workload` against `cc` in epochs.
/// Works with any controller (the base-class BeginBatch degrades to
/// per-txn Begin); HDD additionally shares Protocol A bounds per epoch.
/// Update programs MUST declare their own-segment access sets (see
/// TxnProgram); while a run is in progress no other update transactions
/// may be started on `cc` outside the epochs.
ExecutorStats RunWorkloadEpochs(ConcurrencyController& cc,
                                const Workload& workload,
                                std::uint64_t total_txns,
                                const EpochExecutorOptions& options = {});

}  // namespace hdd

#endif  // HDD_ENGINE_EPOCH_EXECUTOR_H_
