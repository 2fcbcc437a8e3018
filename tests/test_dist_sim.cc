// Deterministic-simulation model checker for the DISTRIBUTED deployment:
// N logical shard nodes in one process (DistWorld), every message
// delivery, fault and scheduling decision drawn from the seeded
// SimScheduler, and every completed history checked with the full 1SR +
// bound-replay oracle over the MERGED multi-node history.
//
// Four sweeps:
//  1. message faults (delay / reorder / duplicate) + transaction-level
//     faults, oracle on the merged history — the distributed Protocol A
//     acceptance sweep; a quarter as many seeds run it again with
//     per-attempt crashes armed, which the driver aborts, participants
//     included;
//  2. whole-cluster process crashes: every node's simulated WAL storage
//     loses a random unsynced suffix, every node recovers independently,
//     prepared 2PC residue is resolved by consulting the COORDINATOR's
//     durable log, and the durable slice of the merged history must still
//     be one-copy serializable against the merged recovered chains;
//  3. the canary: with `mutation_stale_bound_snapshot` cross-node reads
//     are served at the raw initiation time instead of the slice-evaluated
//     activity-link bound, and the sweep MUST catch that with a
//     byte-for-byte replayable seed — a harness that cannot see the
//     mutation is broken.
//
// Environment knobs (also used by ci/check.sh):
//   HDD_SIM_DIST_SEEDS        message-fault sweep seeds (default 500; the
//                             attempt-crash sweep runs a quarter of them)
//   HDD_SIM_DIST_CRASH_SEEDS  cluster-crash sweep seeds (default 200)
//   HDD_SIM_DIST_CANARY_SEEDS canary sweep seeds (default 150)
//   HDD_SIM_FIRST_SEED        first seed of every sweep (default 1)

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "dist/dist_world.h"
#include "sim/explorer.h"
#include "sim/sim_scheduler.h"
#include "storage/database.h"
#include "wal/recovery.h"
#include "wal/wal_manager.h"

namespace hdd {
namespace {

std::uint64_t EnvOr(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

std::uint64_t FirstSeed() { return EnvOr("HDD_SIM_FIRST_SEED", 1); }

// Transaction-level fault mix for the distributed sweeps. Per-attempt
// kCrash stays zero here, so a seed keeps the schedule it has always had
// and SimExplore.DISABLED_TraceDigest, which mirrors this mix, stays
// comparable across builds; AttemptCrashesAbortTheirParticipants arms
// it. Whole-process crashes (sweep 2) leave real in-doubt residue, which
// recovery resolves from the logs.
FaultInjectorConfig DistFaults() {
  FaultInjectorConfig faults;
  faults.abort_prob = 0.10;
  faults.stall_prob = 0.10;
  faults.spurious_wakeup_prob = 0.05;
  faults.delayed_wakeup_prob = 0.10;
  return faults;
}

DistWorldOptions BaseOptions() {
  DistWorldOptions options;
  options.num_nodes = 2;
  options.depth = 4;
  options.granules_per_segment = 2;
  // home(3) is never node 0 for 2..4-node contiguous splits, so this
  // override keeps the two-phase commit path hot in every sweep.
  options.owner_overrides = {{SegmentId{3}, 0}};
  options.txns_per_node = 4;
  options.workers_per_node = 2;
  options.pumps_per_node = 2;
  options.read_only_fraction = 0.3;
  options.own_reads = 1;
  options.own_writes = 2;
  options.upper_reads = 1;
  return options;
}

// Derives per-run nondeterminism (message-fault draws, workload mix) from
// the scheduler seed so failing seeds replay byte-for-byte.
void SeedOptions(DistWorldOptions& options, const SimScheduler& sched) {
  options.transport.seed = sched.seed() * 0x9E3779B97F4A7C15ULL + 0xD1D5;
  options.workload_seed = sched.seed() * 31 + 7;
}

void ExpectSweepClean(const SeedSweepReport& report, const char* what) {
  for (const SimFailure& failure : report.failures) {
    ADD_FAILURE() << what << " seed " << failure.seed << ": "
                  << failure.message << "\n  replayed_identically="
                  << failure.replayed_identically << "\n  replay: "
                  << failure.replay_command;
  }
}

// --- Sweep 1: message faults. ---------------------------------------------

struct MessageFaultCounters {
  std::atomic<std::uint64_t> committed{0};
  std::atomic<std::uint64_t> crashed{0};
};

// "" when no node holds an uncommitted version: once every transaction
// has committed or aborted, a version left uncommitted is residue of an
// attempt that was abandoned without its abort, at its home or at a 2PC
// participant.
std::string UncommittedResidue(DistWorld& world,
                               const DistWorldOptions& options) {
  for (int n = 0; n < world.num_nodes(); ++n) {
    for (SegmentId s = 0; s < static_cast<SegmentId>(options.depth); ++s) {
      for (std::uint32_t g = 0; g < options.granules_per_segment; ++g) {
        const Granule& granule = world.database(n).granule({s, g});
        for (const Version& v : granule.versions()) {
          if (!v.committed) {
            return "node " + std::to_string(n) +
                   " holds an uncommitted version of (" + std::to_string(s) +
                   ", " + std::to_string(g) + ") by txn " +
                   std::to_string(v.creator);
          }
        }
      }
    }
  }
  return "";
}

// One run of the message-fault sweep: 2, 3 or 4 logical nodes, by seed,
// so the same sweep covers every shard count the acceptance criteria
// name; the merged history must pass the oracle, and no node may be left
// holding an uncommitted version.
SimWorkloadFn MessageFaultWorkload(MessageFaultCounters* counters) {
  return [counters](SimScheduler& sched) -> std::string {
    DistWorldOptions options = BaseOptions();
    options.num_nodes = 2 + static_cast<int>(sched.seed() % 3);
    options.transport.delay_prob = 0.25;
    options.transport.reorder_prob = 0.25;
    options.transport.duplicate_prob = 0.15;
    SeedOptions(options, sched);
    DistWorld world(options, &sched);
    if (!world.init_error().empty()) return world.init_error();
    const std::string run = world.RunWorkload();
    if (sched.halted()) {
      return "";  // deadlock/budget findings are RunSimulation's to report
    }
    if (!run.empty()) return run;
    counters->committed.fetch_add(world.committed(),
                                  std::memory_order_relaxed);
    counters->crashed.fetch_add(world.crashed(), std::memory_order_relaxed);
    const std::string verdict = world.CheckHistory();
    if (!verdict.empty()) return verdict;
    return UncommittedResidue(world, options);
  };
}

TEST(DistSim, MessageFaultSeedSweepPassesOracle) {
  SimScheduler::Options base;
  base.faults = DistFaults();

  MessageFaultCounters counters;
  const std::uint64_t seeds = EnvOr("HDD_SIM_DIST_SEEDS", 500);
  const SeedSweepReport report =
      RunSeedSweep(base, FirstSeed(), seeds, MessageFaultWorkload(&counters),
                   "ctest -R test_dist_sim");
  ExpectSweepClean(report, "dist-message-fault");
  EXPECT_EQ(report.runs, seeds);
  EXPECT_GT(report.faults_injected, 0u);
  EXPECT_GT(counters.committed.load(), 0u);
  std::cout << "dist message-fault sweep: " << report.runs << " runs, "
            << counters.committed.load() << " committed txns, "
            << report.faults_injected << " faults injected" << std::endl;
}

// The same sweep with per-attempt crashes armed. A crash unwinds to the
// driver's attempt boundary (RunAttempt in engine/driver.h), which aborts
// the transaction through the session: its prepared participants first,
// then the home node's transaction. So a crashed coordinator leaves no
// uncommitted residue for a later Protocol B access to wait on, and the
// merged history still passes the oracle. (A crash fires only at an
// interruptible yield, and the last one before the commit decision is the
// prepare call's send, so in this model no crash finds a participant
// already prepared: the sweep exercises the home node's aborts, and the
// residue check would flag a participant copy left uncommitted.)
TEST(DistSim, AttemptCrashesAbortTheirParticipants) {
  SimScheduler::Options base;
  base.faults = DistFaults();
  base.faults.crash_prob = 0.05;

  MessageFaultCounters counters;
  const std::uint64_t seeds =
      std::max<std::uint64_t>(1, EnvOr("HDD_SIM_DIST_SEEDS", 500) / 4);
  const SeedSweepReport report =
      RunSeedSweep(base, FirstSeed(), seeds, MessageFaultWorkload(&counters),
                   "ctest -R test_dist_sim");
  ExpectSweepClean(report, "dist-attempt-crash");
  EXPECT_EQ(report.runs, seeds);
  EXPECT_GT(counters.crashed.load(), 0u);
  EXPECT_GT(counters.committed.load(), 0u);
  std::cout << "dist attempt-crash sweep: " << report.runs << " runs, "
            << counters.committed.load() << " committed txns, "
            << counters.crashed.load() << " crashed attempts" << std::endl;
}

// --- Sweep 2: whole-cluster crashes. --------------------------------------

struct DistCrashCounters {
  std::atomic<std::uint64_t> process_crashes{0};
  std::atomic<std::uint64_t> recoveries{0};
  std::atomic<std::uint64_t> reinstalled_prepares{0};
  std::atomic<std::uint64_t> dropped_prepares{0};
};

// One distributed run with durability: run (to a process crash, or to
// quiescence), crash every node's storage, recover every node
// independently, resolve 2PC residue from the coordinator logs, and check
// the durable slice of the merged history against the merged recovered
// chains.
SimWorkloadFn DistCrashWorkload(DistCrashCounters* counters) {
  return [counters](SimScheduler& sched) -> std::string {
    DistWorldOptions options = BaseOptions();
    options.txns_per_node = 5;
    options.transport.delay_prob = 0.15;
    options.transport.duplicate_prob = 0.10;
    SeedOptions(options, sched);
    DistWorld world(options, &sched);
    if (!world.init_error().empty()) return world.init_error();
    const std::string run = world.RunWorkload();
    if (sched.halted() && !sched.process_crashed()) {
      return "";  // deadlock/budget findings are RunSimulation's to report
    }
    if (sched.process_crashed()) {
      counters->process_crashes.fetch_add(1, std::memory_order_relaxed);
    } else {
      if (!run.empty()) return run;
      // Clean completion: check the live history too, then die at
      // quiescence — recovery must also be exact when nothing was lost.
      const std::string live = world.CheckHistory();
      if (!live.empty()) return "live history: " + live;
    }

    const int nodes = world.num_nodes();

    // --- The whole cluster dies: every node's storage loses a random
    // unsynced suffix, independently per node but derived from the run's
    // seed so failing seeds replay byte-for-byte.
    std::vector<RecoveryReport> reports;
    std::vector<std::unique_ptr<Database>> recovered;
    for (int n = 0; n < nodes; ++n) {
      Rng crash_rng(sched.seed() ^ (0xD15C0ULL + static_cast<std::uint64_t>(n)));
      world.storage(n).Crash(crash_rng);
      recovered.push_back(world.MakeFreshDatabase());
      auto report = RecoverDatabase(&world.storage(n), recovered.back().get());
      if (!report.ok()) {
        return "node " + std::to_string(n) +
               " recovery failed: " + report.status().ToString();
      }
      reports.push_back(std::move(*report));
    }
    counters->recoveries.fetch_add(1, std::memory_order_relaxed);

    // --- Durability contract, per node: DistSession records kCommitted
    // only after the commit record is durable in the HOME node's WAL
    // (cc_->Commit for local transactions, CommitDurablePhase for 2PC
    // coordinators), so every recorded-committed update transaction must
    // be in its home's durable set.
    for (int n = 0; n < nodes; ++n) {
      const ScheduleRecorder& rec = world.controller(n).recorder();
      std::unordered_set<TxnId> writers;
      for (const Step& s : rec.steps()) {
        if (s.action == Step::Action::kWrite) writers.insert(s.txn);
      }
      for (const auto& [txn, state] : rec.outcomes()) {
        if (state != TxnState::kCommitted) continue;
        if (writers.count(txn) == 0) continue;  // nothing to make durable
        if (reports[n].durable_commits.count(txn) == 0) {
          return "acked commit lost across cluster crash: node " +
                 std::to_string(n) + " txn " + std::to_string(txn);
        }
      }
    }

    // --- Merged recovered database: each segment's chains come from its
    // OWNER node's recovered image.
    std::unique_ptr<Database> merged = world.MakeFreshDatabase();
    for (SegmentId s = 0; s < static_cast<SegmentId>(options.depth); ++s) {
      const int owner = world.shard_map().owner(s);
      for (std::uint32_t g = 0; g < options.granules_per_segment; ++g) {
        const GranuleRef ref{s, g};
        Status restored = merged->granule(ref).RestoreVersions(
            recovered[owner]->granule(ref).versions());
        if (!restored.ok()) return restored.ToString();
      }
    }

    // --- Resolve 2PC residue: a participant's in-doubt prepared write is
    // committed iff the COORDINATOR's durable log says so (transaction
    // ids are namespaced per home node, so the coordinator is id >> 32).
    // Soundness: the coordinator only makes its commit record durable
    // after every prepare was acked durable, so a durable verdict always
    // finds the shipped write; a dropped write belongs to a transaction
    // that was never acked committed anywhere and whose versions no
    // bounded read could observe (they were never committed).
    for (int n = 0; n < nodes; ++n) {
      for (const RecoveryReport::PreparedWrite& pw :
           reports[n].prepared_writes) {
        if (world.shard_map().owner(pw.segment) != n) continue;
        const int coord = static_cast<int>(pw.txn >> 32);
        if (coord < 0 || coord >= nodes ||
            reports[coord].durable_commits.count(pw.txn) == 0) {
          counters->dropped_prepares.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        Version v;
        v.order_key = pw.init_ts;
        v.wts = pw.init_ts;
        v.creator = pw.txn;
        v.value = pw.value;
        v.committed = true;
        Status inserted =
            merged->granule(GranuleRef{pw.segment, pw.granule}).Insert(v);
        if (!inserted.ok()) {
          return "prepared reinstall failed: " + inserted.ToString();
        }
        counters->reinstalled_prepares.fetch_add(1, std::memory_order_relaxed);
      }
    }

    // --- The durable slice of the merged history: recorded-committed
    // read-only transactions (their results are durable by the local read
    // barrier and the cross-node snapshot barrier), plus every
    // home-durable update transaction — recovery's verdict is
    // authoritative even when the crash landed before the outcome was
    // recorded.
    std::vector<Step> combined;
    std::unordered_map<TxnId, TxnState> outcomes;
    std::unordered_map<TxnId, ScheduleRecorder::TxnIdentity> identities;
    for (int n = 0; n < nodes; ++n) {
      const ScheduleRecorder& rec = world.controller(n).recorder();
      const auto node_outcomes = rec.outcomes();
      const auto node_identities = rec.identities();
      std::unordered_set<TxnId> keep;
      for (const auto& [txn, state] : node_outcomes) {
        if (state != TxnState::kCommitted) continue;
        const auto it = node_identities.find(txn);
        const bool read_only =
            it != node_identities.end() && it->second.read_only;
        if (read_only || reports[n].durable_commits.count(txn) > 0) {
          keep.insert(txn);
        }
      }
      for (const TxnId txn : reports[n].durable_commits) keep.insert(txn);
      std::vector<Step> kept_steps;
      for (const Step& s : rec.steps()) {
        if (keep.count(s.txn) > 0) kept_steps.push_back(s);
      }
      AppendRebased(combined, std::move(kept_steps));
      for (const TxnId txn : keep) {
        outcomes[txn] = TxnState::kCommitted;
        const auto it = node_identities.find(txn);
        if (it != node_identities.end()) identities[txn] = it->second;
      }
    }
    const std::string verdict = CheckRecordedHistory(
        combined, outcomes, identities, *merged, /*replay_bounds=*/true);
    if (!verdict.empty()) return "merged durable history: " + verdict;
    return "";
  };
}

TEST(DistSim, ClusterCrashRecoveryResolvesPreparedResidue) {
  SimScheduler::Options base;
  base.faults = DistFaults();
  base.faults.process_crash_prob = 0.001;

  DistCrashCounters counters;
  const std::uint64_t seeds = EnvOr("HDD_SIM_DIST_CRASH_SEEDS", 200);
  const SeedSweepReport report =
      RunSeedSweep(base, FirstSeed(), seeds, DistCrashWorkload(&counters),
                   "ctest -R test_dist_sim");
  ExpectSweepClean(report, "dist-cluster-crash");
  EXPECT_EQ(report.runs, seeds);
  // The sweep is only evidence if crashes actually fired and every run
  // (crashed or quiescent) went through multi-node recovery.
  EXPECT_GT(counters.process_crashes.load(), 0u);
  EXPECT_GT(counters.recoveries.load(), 0u);
  std::cout << "dist crash sweep: " << counters.process_crashes.load()
            << " cluster crashes, " << counters.recoveries.load()
            << " recoveries, " << counters.reinstalled_prepares.load()
            << " prepared writes rolled forward, "
            << counters.dropped_prepares.load()
            << " dropped over " << report.runs << " seeds" << std::endl;
}

// --- Sweep 3: the stale-bound canary. -------------------------------------

TEST(DistSim, StaleBoundCanaryIsCaught) {
  SimScheduler::Options base;
  base.faults = DistFaults();

  const SimWorkloadFn fn = [](SimScheduler& sched) -> std::string {
    DistWorldOptions options = BaseOptions();
    options.txns_per_node = 6;
    options.upper_reads = 2;
    options.read_only_fraction = 0.4;
    options.transport.delay_prob = 0.25;
    options.transport.reorder_prob = 0.20;
    options.session.mutation_stale_bound_snapshot = true;
    SeedOptions(options, sched);
    DistWorld world(options, &sched);
    if (!world.init_error().empty()) return world.init_error();
    const std::string run = world.RunWorkload();
    if (sched.halted()) return "";
    if (!run.empty()) return run;
    return world.CheckHistory();
  };

  const std::uint64_t seeds = EnvOr("HDD_SIM_DIST_CANARY_SEEDS", 150);
  const SeedSweepReport report =
      RunSeedSweep(base, FirstSeed(), seeds, fn, "ctest -R test_dist_sim");
  // The mutation ships unbounded snapshots; the merged-history oracle MUST
  // see it, and every catch must replay byte-for-byte.
  ASSERT_FALSE(report.failures.empty())
      << "stale-bound canary escaped " << report.runs << " seeds";
  for (const SimFailure& failure : report.failures) {
    EXPECT_TRUE(failure.replayed_identically)
        << "canary seed " << failure.seed << " did not replay: "
        << failure.message;
  }
  std::cout << "dist canary sweep: " << report.failures.size()
            << " catches (capped) over " << report.runs << " seeds"
            << std::endl;
}

}  // namespace
}  // namespace hdd
