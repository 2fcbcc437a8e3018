#include "engine/epoch_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>

#include "common/sim_hook.h"
#include "engine/driver.h"
#include "obs/trace.h"

// Yield-point convention: same as src/hdd (see hdd_controller.cc) — the
// executor's own yields sit OUTSIDE any lock and are non-interruptible
// (injected SimFaults must fire only inside a transaction attempt, where
// the node/admission handlers own the recovery); every wait on the shared
// state condition variable goes through SimWait/SimNotifyAll.

namespace hdd {

namespace {

bool SameGranule(GranuleRef a, GranuleRef b) {
  return a.segment == b.segment && a.index == b.index;
}

bool Intersects(const std::vector<GranuleRef>& a,
                const std::vector<GranuleRef>& b) {
  for (GranuleRef x : a) {
    for (GranuleRef y : b) {
      if (SameGranule(x, y)) return true;
    }
  }
  return false;
}

/// One program's lifetime across epochs (re-admitted until it commits,
/// fails its budget, or is crash-abandoned). Owned by the shared state's
/// slot vector; between admissions only the coordinating worker touches
/// it, during execution only the executing worker does.
struct Slot {
  TxnProgram program;
  int attempts = 0;  // aborted attempts consumed
  std::chrono::steady_clock::time_point t0;
};

}  // namespace

EpochGraph BuildEpochGraph(const std::vector<const TxnProgram*>& batch,
                           bool skip_first_edge) {
  const int n = static_cast<int>(batch.size());
  EpochGraph graph;
  graph.successors.resize(static_cast<std::size_t>(n));
  graph.indegree.assign(static_cast<std::size_t>(n), 0);
  // Only same-class pairs can touch the same own segment (classes own
  // disjoint segments; Restructure during an epoch is unsupported), so
  // bucket the updaters by class up front: the pair scan is then
  // quadratic in the largest same-class sub-batch, not in the epoch.
  // Pairs are still visited in exactly the (i, j) lexicographic order of
  // the naive scan, which pins down which edge the canary drops.
  std::vector<std::vector<int>> by_class;
  std::vector<int> pos(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    const TxnProgram& p = *batch[static_cast<std::size_t>(i)];
    if (p.options.read_only) continue;
    const auto cls = static_cast<std::size_t>(p.options.txn_class);
    if (by_class.size() <= cls) by_class.resize(cls + 1);
    pos[static_cast<std::size_t>(i)] = static_cast<int>(by_class[cls].size());
    by_class[cls].push_back(i);
  }
  bool skipped = false;
  for (int i = 0; i < n; ++i) {
    if (pos[static_cast<std::size_t>(i)] < 0) continue;
    const TxnProgram& a = *batch[static_cast<std::size_t>(i)];
    const std::vector<int>& peers =
        by_class[static_cast<std::size_t>(a.options.txn_class)];
    for (std::size_t k =
             static_cast<std::size_t>(pos[static_cast<std::size_t>(i)]) + 1;
         k < peers.size(); ++k) {
      const int j = peers[k];
      const TxnProgram& b = *batch[static_cast<std::size_t>(j)];
      const bool conflict = Intersects(a.declared_writes, b.declared_writes) ||
                            Intersects(a.declared_writes, b.declared_reads) ||
                            Intersects(a.declared_reads, b.declared_writes);
      if (!conflict) continue;
      if (skip_first_edge && !skipped) {
        // Mutation canary: the first conflicting pair of the epoch runs
        // unordered.
        skipped = true;
        continue;
      }
      graph.successors[static_cast<std::size_t>(i)].push_back(j);
      ++graph.indegree[static_cast<std::size_t>(j)];
      ++graph.num_edges;
    }
  }
  return graph;
}

namespace {

/// All cross-worker coordination state; `mu` is never held across a yield
/// point, a controller call, or anything else that can block.
struct EpochState {
  std::mutex mu;
  std::condition_variable cv;

  // Program slots, append-only under `mu`; capacity is reserved for the
  // whole run up front (one slot per stream program, retries reuse
  // theirs), so the backing array never reallocates and workers may
  // index it without the lock — push_back only ever writes a fresh
  // element past everything a concurrent reader can name.
  std::vector<std::unique_ptr<Slot>> slots;
  std::vector<int> retry;  // slot indices awaiting the next epoch
  std::uint64_t next_stream = 0;

  // Current epoch (valid while epoch_open).
  EpochGraph graph;
  std::vector<int> node_slot;
  std::vector<TxnDescriptor> node_txn;
  std::deque<int> ready;
  std::size_t nodes_done = 0;
  std::size_t nodes_total = 0;

  bool epoch_open = false;  // nodes of an epoch are executing
  bool admitting = false;   // one worker is building the next epoch
  bool finished = false;

  // Controller epoch handle; touched only by the worker holding
  // `admitting` (epochs never overlap, so there is exactly one).
  EpochHandle handle;
  bool handle_open = false;

  std::uint64_t epochs = 0;
};

}  // namespace

ExecutorStats RunWorkloadEpochs(ConcurrencyController& cc,
                                const Workload& workload,
                                std::uint64_t total_txns,
                                const EpochExecutorOptions& options) {
  EpochState state;
  state.slots.reserve(total_txns);  // see EpochState::slots
  RunTally tally(options);
  const std::uint64_t epoch_size = std::max<std::uint64_t>(1, options.epoch_size);

  // Terminal outcomes only (kCommitted, kFailed, kCrashed); a kRetry slot
  // goes back to the next epoch instead.
  const auto finish_program = [&](int slot_idx, AttemptOutcome outcome,
                                  int worker_id) {
    const Slot& slot = *state.slots[static_cast<std::size_t>(slot_idx)];
    ProgramResult result;
    result.committed = outcome == AttemptOutcome::kCommitted;
    result.failed = outcome == AttemptOutcome::kFailed;
    result.crashed = outcome == AttemptOutcome::kCrashed;
    result.aborted_attempts = static_cast<std::uint64_t>(slot.attempts);
    tally.Finish(worker_id, slot.program.options, result, slot.t0);
  };

  // Charges one aborted attempt to `slot`; kFailed once over budget.
  const auto charge = [&](Slot& slot) {
    ++slot.attempts;
    return slot.attempts > options.max_retries ? AttemptOutcome::kFailed
                                               : AttemptOutcome::kRetry;
  };

  // Executes one ready node to completion through the shared attempt
  // boundary. Returns kCommitted, kRetry, kFailed or kCrashed; the caller
  // owns the graph bookkeeping. A retry is re-admitted next epoch, so
  // there is no backoff here.
  const auto run_node = [&](Slot* slot, const TxnDescriptor& txn) {
    HDD_TRACE_SPAN("exec", "epoch_txn");
    if (options.sim != nullptr) options.sim->OnTxnAttemptStart();
    const AttemptOutcome outcome = RunAttempt(cc, slot->program, txn);
    if (outcome == AttemptOutcome::kRetry ||
        outcome == AttemptOutcome::kBackoff) {
      return charge(*slot);
    }
    return outcome;
  };

  // Admits the next epoch. Called by the worker holding `admitting`, with
  // no locks held. Gathers retries plus fresh stream programs, runs the
  // controller admission (retrying injected faults), builds the graph and
  // publishes the ready set. Sets `finished` when the work ran dry.
  const auto admit_next = [&](int worker_id, Rng& rng) {
    // A transient admission failure charges the batch head's budget and
    // fails the head once it is spent.
    const auto charge_head = [&](std::vector<int>& batch_slots) {
      Slot& head = *state.slots[static_cast<std::size_t>(batch_slots.front())];
      if (charge(head) == AttemptOutcome::kFailed) {
        finish_program(batch_slots.front(), AttemptOutcome::kFailed, worker_id);
        batch_slots.erase(batch_slots.begin());
      }
    };
    if (state.handle_open) {
      // All nodes of the previous epoch completed (the barrier): close it
      // before the next anchor is ticked.
      (void)cc.EndEpoch(state.handle);
      state.handle_open = false;
    }
    for (;;) {
      std::vector<int> batch_slots;
      {
        std::unique_lock<std::mutex> lock(state.mu);
        batch_slots = std::move(state.retry);
        state.retry.clear();
        while (batch_slots.size() < epoch_size &&
               state.next_stream < total_txns) {
          auto slot = std::make_unique<Slot>();
          slot->program = workload.Make(state.next_stream++, rng);
          slot->t0 = std::chrono::steady_clock::now();
          state.slots.push_back(std::move(slot));
          batch_slots.push_back(static_cast<int>(state.slots.size()) - 1);
        }
        if (batch_slots.empty()) {
          state.admitting = false;
          state.finished = true;
          lock.unlock();
          SimNotifyAll(state.cv, &state.cv);
          return;
        }
      }
      // Controller admission, outside the state lock. An injected fault
      // unwinding out of BeginBatch left no transaction behind (BeginBatch
      // rolls back); kAbort retries the admission (budgeted against the
      // batch head), kCrash abandons the head — mirroring the per-txn
      // executor's "fault before the transaction existed".
      std::vector<TxnOptions> batch_options;
      batch_options.reserve(batch_slots.size());
      for (int s : batch_slots) {
        batch_options.push_back(
            state.slots[static_cast<std::size_t>(s)]->program.options);
      }
      if (options.sim != nullptr) options.sim->OnTxnAttemptStart();
      Result<EpochHandle> handle = cc.BeginEpoch();
      if (!handle.ok()) {
        if (handle.status().code() == StatusCode::kBusy ||
            handle.status().IsRetryable()) {
          // Transient (e.g. a Restructure holds the epoch/restructure
          // exclusion): charge the head's budget and retry the batch.
          charge_head(batch_slots);
          std::lock_guard<std::mutex> lock(state.mu);
          state.retry.insert(state.retry.end(), batch_slots.begin(),
                             batch_slots.end());
          continue;
        }
        for (int s : batch_slots) {
          finish_program(s, AttemptOutcome::kFailed, worker_id);
        }
        continue;
      }
      bool head_crashed = false;
      Result<std::vector<TxnDescriptor>> descriptors = [&] {
        try {
          return cc.BeginBatch(*handle, batch_options);
        } catch (const SimFault& fault) {
          (void)cc.EndEpoch(*handle);
          head_crashed = fault.kind == SimFaultKind::kCrash;
          return Result<std::vector<TxnDescriptor>>(
              Status::Busy("sim fault during admission"));
        }
      }();
      if (!descriptors.ok()) {
        if (head_crashed) {
          finish_program(batch_slots.front(), AttemptOutcome::kCrashed,
                         worker_id);
          batch_slots.erase(batch_slots.begin());
        } else if (descriptors.status().code() == StatusCode::kBusy ||
                   descriptors.status().IsRetryable()) {
          charge_head(batch_slots);
        } else {
          (void)cc.EndEpoch(*handle);
          for (int s : batch_slots) {
            finish_program(s, AttemptOutcome::kFailed, worker_id);
          }
          continue;
        }
        (void)cc.EndEpoch(*handle);
        // Survivors go back to the retry list and the next round
        // re-gathers (possibly topping up from the stream).
        std::lock_guard<std::mutex> lock(state.mu);
        state.retry.insert(state.retry.end(), batch_slots.begin(),
                           batch_slots.end());
        continue;
      }
      std::vector<const TxnProgram*> programs;
      programs.reserve(batch_slots.size());
      for (int s : batch_slots) {
        programs.push_back(&state.slots[static_cast<std::size_t>(s)]->program);
      }
      EpochGraph graph =
          BuildEpochGraph(programs, options.mutation_skip_dependency_edge);
      HDD_TRACE_INSTANT("exec", "epoch_publish");
      {
        std::lock_guard<std::mutex> lock(state.mu);
        state.handle = *handle;
        state.handle_open = true;
        state.graph = std::move(graph);
        state.node_slot = std::move(batch_slots);
        state.node_txn = std::move(*descriptors);
        state.ready.clear();
        for (int i = 0; i < static_cast<int>(state.node_slot.size()); ++i) {
          if (state.graph.indegree[static_cast<std::size_t>(i)] == 0) {
            state.ready.push_back(i);
          }
        }
        state.nodes_done = 0;
        state.nodes_total = state.node_slot.size();
        state.epoch_open = true;
        state.admitting = false;
        ++state.epochs;
      }
      SimNotifyAll(state.cv, &state.cv);
      return;
    }
  };

  const auto worker = [&](int worker_id) {
    Rng rng(options.seed * 7919 + static_cast<std::uint64_t>(worker_id));
    for (;;) {
      SimYield("epoch/next", /*interruptible=*/false);
      std::unique_lock<std::mutex> lock(state.mu);
      if (state.finished) return;
      if (!state.ready.empty()) {
        // Claim a fair share of the ready set in one lock round: the
        // graph already proved these nodes independent, so per-node queue
        // round-trips (lock, pop, unlock ... lock, release, notify) are
        // pure coordination overhead. Under simulation claim exactly one
        // node — the model-checked schedule keeps its per-node
        // granularity.
        std::size_t want = 1;
        if (options.sim == nullptr) {
          want = std::max<std::size_t>(
              1, state.ready.size() /
                     static_cast<std::size_t>(options.num_threads));
        }
        struct Claim {
          int node;
          int slot_idx;
          TxnDescriptor txn;
          AttemptOutcome outcome;
        };
        std::vector<Claim> claims;
        claims.reserve(want);
        while (claims.size() < want && !state.ready.empty()) {
          const int node = state.ready.front();
          state.ready.pop_front();
          claims.push_back({node,
                            state.node_slot[static_cast<std::size_t>(node)],
                            state.node_txn[static_cast<std::size_t>(node)],
                            AttemptOutcome::kRetry});
        }
        lock.unlock();
        for (Claim& c : claims) {
          Slot* slot = state.slots[static_cast<std::size_t>(c.slot_idx)].get();
          c.outcome = run_node(slot, c.txn);
        }
        // Graph bookkeeping AFTER the commit/abort fully finished: only
        // now may successors (which the controller no longer orders
        // against us) start.
        bool epoch_complete = false;
        bool ready_grew = false;
        {
          std::lock_guard<std::mutex> guard(state.mu);
          for (const Claim& c : claims) {
            for (int succ :
                 state.graph.successors[static_cast<std::size_t>(c.node)]) {
              if (--state.graph.indegree[static_cast<std::size_t>(succ)] ==
                  0) {
                state.ready.push_back(succ);
                ready_grew = true;
              }
            }
            if (c.outcome == AttemptOutcome::kRetry) {
              state.retry.push_back(c.slot_idx);
            }
            ++state.nodes_done;
          }
          if (state.nodes_done == state.nodes_total) {
            state.epoch_open = false;
            state.admitting = true;  // this worker coordinates the next epoch
            epoch_complete = true;
          }
        }
        // Waiters only care about new ready nodes (the epoch handoff is
        // performed by this worker directly, below). Under simulation
        // always notify, as before — wakeup delivery is schedule state.
        if (options.sim != nullptr || ready_grew || epoch_complete) {
          SimNotifyAll(state.cv, &state.cv);
        }
        for (const Claim& c : claims) {
          if (c.outcome != AttemptOutcome::kRetry) {
            finish_program(c.slot_idx, c.outcome, worker_id);
          }
        }
        if (epoch_complete) admit_next(worker_id, rng);
        continue;
      }
      if (!state.epoch_open && !state.admitting) {
        state.admitting = true;
        lock.unlock();
        admit_next(worker_id, rng);
        continue;
      }
      // Epoch in flight with no ready node, or another worker admitting.
      SimWait(state.cv, lock, &state.cv);
    }
  };
  ExecutorStats stats = RunWorkers(cc, options, tally, worker);
  stats.epochs = state.epochs;
  return stats;
}

}  // namespace hdd
