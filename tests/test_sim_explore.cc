// Deterministic-simulation model checker for the HDD protocols.
//
// Every test drives a small workload through the cooperative SimScheduler:
// worker threads are sim tasks, every interleaving decision is a seeded
// RNG draw (or a scripted choice), the logical clock is virtual, and the
// fault injector forces transaction aborts, mid-transaction crashes,
// delayed commits (stalls) and perturbed wakeups. Each completed history
// is checked against the full serializability oracle (CheckSimHistory);
// a failing seed is re-run and must reproduce its trace byte-for-byte,
// and the test prints a ready-to-paste replay command.
//
// The suite also carries its own canary: with the TEST-ONLY
// `mutation_unsafe_protocol_a` switch the controller serves Protocol A
// reads at the raw initiation time instead of the activity-link bound
// (violating Theorem 1), and the sweep MUST catch that with a replayable
// seed — a harness that cannot see the mutation is broken.
//
// Environment knobs (also used by ci/check.sh):
//   HDD_SIM_SEEDS           number of seeds in the big HDD sweep (default
//                           2000); the GC sweep runs a quarter per driver
//   HDD_SIM_FIRST_SEED      first seed of every sweep (default 1)
//   HDD_SIM_REDECOMP_SEEDS  seeds in the online re-decomposition drift
//                           sweep (default 500; the crash/epoch/canary
//                           variants have their own knobs, see below)

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cc/mvto.h"
#include "cc/two_phase_locking.h"
#include "dist/dist_world.h"
#include "engine/epoch_executor.h"
#include "engine/executor.h"
#include "engine/redecompose.h"
#include "engine/synthetic_workload.h"
#include "hdd/hdd_controller.h"
#include "obs/footprint.h"
#include "sim/explorer.h"
#include "sim/sim_clock.h"
#include "sim/sim_scheduler.h"
#include "wal/recovery.h"
#include "wal/wal_manager.h"
#include "wal/wal_storage.h"

namespace hdd {
namespace {

std::uint64_t EnvOr(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

std::uint64_t FirstSeed() { return EnvOr("HDD_SIM_FIRST_SEED", 1); }

// Fault mix used by the randomized sweeps: forced aborts, mid-transaction
// crashes, delayed commits (stalls), plus wakeup perturbations.
FaultInjectorConfig SweepFaults() {
  FaultInjectorConfig faults;
  faults.abort_prob = 0.15;
  faults.crash_prob = 0.05;
  faults.stall_prob = 0.15;
  faults.spurious_wakeup_prob = 0.05;
  faults.delayed_wakeup_prob = 0.10;
  return faults;
}

struct WorkloadShape {
  SyntheticWorkloadParams params;
  int threads = 3;
  std::uint64_t txns = 9;
  int max_retries = 50;
};

WorkloadShape HddShape() {
  WorkloadShape shape;
  shape.params.depth = 3;
  shape.params.granules_per_segment = 3;
  shape.params.own_reads = 1;
  shape.params.own_writes = 2;
  shape.params.upper_reads = 2;
  shape.params.read_only_fraction = 0.3;
  return shape;
}

// One simulated HDD run: fresh database + controller, virtual clock,
// workers as sim tasks, then the full oracle over the recorded history.
SimWorkloadFn HddWorkload(WorkloadShape shape,
                          HddControllerOptions copts = {}) {
  return [shape, copts](SimScheduler& sched) -> std::string {
    SyntheticWorkload workload(shape.params);
    auto schema = HierarchySchema::Create(workload.Spec());
    if (!schema.ok()) return schema.status().ToString();
    auto db = workload.MakeDatabase();
    SimClock clock(&sched);
    HddController cc(db.get(), &clock, &*schema, copts);

    ExecutorOptions options;
    options.num_threads = shape.threads;
    options.seed = 77;  // workload mix; interleavings come from `sched`
    options.max_retries = shape.max_retries;
    options.sim = &sched;
    (void)RunWorkload(cc, workload, shape.txns, options);
    if (sched.halted()) return "";  // RunSimulation reports the finding
    return CheckSimHistory(cc, *db, /*replay_bounds=*/true);
  };
}

// Same run under the epoch/batch executor: BeginEpoch/BeginBatch
// admission, per-epoch dependency graph, shared Protocol A bounds — every
// interleaving still the scheduler's, every history through the same
// oracle. `skip_edge` arms the epoch executor's mutation canary.
SimWorkloadFn HddEpochWorkload(WorkloadShape shape, std::uint64_t epoch_size,
                               HddControllerOptions copts = {},
                               bool skip_edge = false) {
  return [shape, epoch_size, copts, skip_edge](
             SimScheduler& sched) -> std::string {
    SyntheticWorkload workload(shape.params);
    auto schema = HierarchySchema::Create(workload.Spec());
    if (!schema.ok()) return schema.status().ToString();
    auto db = workload.MakeDatabase();
    SimClock clock(&sched);
    HddController cc(db.get(), &clock, &*schema, copts);

    EpochExecutorOptions options;
    options.num_threads = shape.threads;
    options.epoch_size = epoch_size;
    options.seed = 77;
    options.max_retries = shape.max_retries;
    options.sim = &sched;
    options.mutation_skip_dependency_edge = skip_edge;
    (void)RunWorkloadEpochs(cc, workload, shape.txns, options);
    if (sched.halted()) return "";
    return CheckSimHistory(cc, *db, /*replay_bounds=*/true);
  };
}

// Same harness over the baseline controllers (no bounds to replay).
template <typename Controller, typename ControllerOptions>
SimWorkloadFn BaselineWorkload(WorkloadShape shape,
                               ControllerOptions copts = {}) {
  return [shape, copts](SimScheduler& sched) -> std::string {
    SyntheticWorkload workload(shape.params);
    auto db = workload.MakeDatabase();
    SimClock clock(&sched);
    Controller cc(db.get(), &clock, copts);

    ExecutorOptions options;
    options.num_threads = shape.threads;
    options.seed = 77;
    options.max_retries = shape.max_retries;
    options.sim = &sched;
    (void)RunWorkload(cc, workload, shape.txns, options);
    if (sched.halted()) return "";
    return CheckSimHistory(cc, *db, /*replay_bounds=*/false);
  };
}

void ExpectSweepClean(const SeedSweepReport& report, const char* label) {
  EXPECT_GT(report.runs, 0u) << label;
  for (const SimFailure& failure : report.failures) {
    ADD_FAILURE() << label << ": seed " << failure.seed << " failed: "
                  << failure.message << "\n  replay"
                  << (failure.replayed_identically
                          ? " (reproduces byte-for-byte): "
                          : " (DID NOT reproduce!): ")
                  << failure.replay_command;
  }
}

// ---------------------------------------------------------------------------
// The acceptance sweep: thousands of seeded schedules of an HDD workload
// under fault injection; every completed history must pass the 1SR oracle.
TEST(SimExplore, HddSeedSweepPassesOracle) {
  SimScheduler::Options base;
  base.faults = SweepFaults();
  const std::uint64_t seeds = EnvOr("HDD_SIM_SEEDS", 2000);
  const SeedSweepReport report =
      RunSeedSweep(base, FirstSeed(), seeds, HddWorkload(HddShape()),
                   "ctest -R test_sim_explore");
  ExpectSweepClean(report, "hdd");
  EXPECT_EQ(report.runs, seeds);
  // The sweep is only evidence if faults actually fired.
  EXPECT_GT(report.faults_injected, 0u);
}

TEST(SimExplore, MvtoSeedSweepPassesOracle) {
  SimScheduler::Options base;
  base.faults = SweepFaults();
  WorkloadShape shape = HddShape();
  shape.params.read_only_fraction = 0.0;  // MVTO has no Protocol C
  const SeedSweepReport report = RunSeedSweep(
      base, FirstSeed(), EnvOr("HDD_SIM_BASELINE_SEEDS", 300),
      BaselineWorkload<Mvto, MvtoOptions>(shape, {}),
      "ctest -R test_sim_explore");
  ExpectSweepClean(report, "mvto");
}

TEST(SimExplore, TwoPhaseSeedSweepPassesOracle) {
  SimScheduler::Options base;
  base.faults = SweepFaults();
  WorkloadShape shape = HddShape();
  shape.params.read_only_fraction = 0.0;
  const SeedSweepReport report = RunSeedSweep(
      base, FirstSeed(), EnvOr("HDD_SIM_BASELINE_SEEDS", 300),
      BaselineWorkload<TwoPhaseLocking, TwoPhaseLockingOptions>(shape, {}),
      "ctest -R test_sim_explore");
  ExpectSweepClean(report, "2pl");
}

// ---------------------------------------------------------------------------
// Bounded systematic exploration: enumerate every schedule of a tiny
// two-worker workload that differs in the first branching decisions, with
// faults off — stateless model checking over the scheduler's choice tree.
TEST(SimExplore, BoundedSystematicExploration) {
  WorkloadShape shape = HddShape();
  shape.threads = 2;
  shape.txns = 4;
  SimScheduler::Options base;  // Explore* forces scripted mode, no faults
  const ExploreReport report = ExploreBoundedSchedules(
      base, /*branch_depth=*/7, /*max_schedules=*/800,
      HddWorkload(shape));
  for (const SimFailure& failure : report.failures) {
    ADD_FAILURE() << "schedule " << failure.seed << " failed: "
                  << failure.message << "\n  " << failure.replay_command;
  }
  EXPECT_GT(report.schedules, 1u);
  EXPECT_TRUE(report.exhausted || report.schedules == 800u)
      << "explorer stopped after " << report.schedules
      << " schedules without exhausting the bounded space";
}

// ---------------------------------------------------------------------------
// The canary: with Protocol A mutated to serve raw initiation times
// (violating Theorem 1), the sweep must catch a violation and the failing
// seed must replay byte-for-byte.
TEST(SimExplore, CanaryMutationIsCaught) {
  HddControllerOptions copts;
  copts.mutation_unsafe_protocol_a = true;

  WorkloadShape shape = HddShape();
  shape.params.depth = 2;               // one class above, one below
  shape.params.granules_per_segment = 2;  // maximize cross-segment conflict
  shape.params.read_only_fraction = 0.2;
  shape.txns = 12;

  SimScheduler::Options base;  // no faults: scheduling alone must expose it
  const SeedSweepReport report = RunSeedSweep(
      base, FirstSeed(), EnvOr("HDD_SIM_CANARY_SEEDS", 300),
      HddWorkload(shape, copts), "ctest -R test_sim_explore");
  ASSERT_FALSE(report.failures.empty())
      << "the unsafe-Protocol-A mutation survived " << report.runs
      << " seeds — the harness cannot detect the injected violation";
  const SimFailure& first = report.failures.front();
  EXPECT_TRUE(first.replayed_identically)
      << "seed " << first.seed << " failed but did not replay";
  // The replayable repro is the artifact the harness promises.
  std::cout << "canary caught at seed " << first.seed << ": "
            << first.message << "\n  replay: " << first.replay_command
            << std::endl;
}

// ---------------------------------------------------------------------------
// Epoch/batch execution under the same model checker: the admission path
// (BeginEpoch/BeginBatch/EndEpoch), the per-epoch dependency graph, the
// shared bound cache and the retry-into-next-epoch loop all sit on
// scheduler-controlled yield points, so the sweep explores their
// interleavings with the full fault mix.
TEST(SimExplore, EpochSeedSweepPassesOracle) {
  SimScheduler::Options base;
  base.faults = SweepFaults();
  const std::uint64_t seeds = EnvOr("HDD_SIM_EPOCH_SEEDS", 2000);
  const SeedSweepReport report = RunSeedSweep(
      base, FirstSeed(), seeds,
      HddEpochWorkload(HddShape(), /*epoch_size=*/4),
      "ctest -R test_sim_explore");
  ExpectSweepClean(report, "hdd-epoch");
  EXPECT_EQ(report.runs, seeds);
  EXPECT_GT(report.faults_injected, 0u);
}

// The epoch canary: drop one dependency edge per epoch. HDD's epoch mode
// delegates MVTO's younger-reader write check to exactly that graph, so
// two conflicting same-class transactions now race unordered and the
// sweep MUST catch the resulting non-1SR history with a replayable seed.
TEST(SimExplore, EpochCanaryMutationIsCaught) {
  WorkloadShape shape;
  shape.params.depth = 1;  // Protocol B only: the graph carries everything
  shape.params.granules_per_segment = 2;
  shape.params.own_reads = 2;
  shape.params.own_writes = 2;
  shape.params.upper_reads = 0;
  shape.params.read_only_fraction = 0.0;
  shape.txns = 12;

  SimScheduler::Options base;  // no faults: scheduling alone must expose it
  const SeedSweepReport report = RunSeedSweep(
      base, FirstSeed(), EnvOr("HDD_SIM_EPOCH_CANARY_SEEDS", 300),
      HddEpochWorkload(shape, /*epoch_size=*/4, {}, /*skip_edge=*/true),
      "ctest -R test_sim_explore");
  ASSERT_FALSE(report.failures.empty())
      << "the skip-dependency-edge mutation survived " << report.runs
      << " seeds — the harness cannot detect an unordered epoch conflict";
  const SimFailure& first = report.failures.front();
  EXPECT_TRUE(first.replayed_identically)
      << "seed " << first.seed << " failed but did not replay";
  std::cout << "epoch canary caught at seed " << first.seed << ": "
            << first.message << "\n  replay: " << first.replay_command
            << std::endl;
}

// ---------------------------------------------------------------------------
// Garbage collection against every kind of reader. A service task releases
// walls and collects garbage at yield points while the workers run update
// transactions and the three kinds of read-only transaction the read
// horizon must cover: Protocol C at the newest wall, hosted (§5.0
// read_scope) and AS-OF an older wall. The oracle replays every bound
// against the history's committed writes (the chains are being pruned),
// and a read whose version was collected comes back Internal, which the
// run reports as a failure.

// Update programs from the synthetic chain plus the three reader kinds.
class GcReaderWorkload : public Workload {
 public:
  GcReaderWorkload(const SyntheticWorkload* updates, const HddController* cc,
                   std::atomic<bool>* collected)
      : updates_(updates), cc_(cc), collected_(collected) {}

  TxnProgram Make(std::uint64_t index, Rng& rng) const override {
    const double roll = rng.NextDouble();
    if (roll >= 0.5) return updates_->Make(index, rng);
    const SyntheticWorkloadParams& params = updates_->params();
    TxnProgram program;
    program.options.read_only = true;
    SegmentId top = static_cast<SegmentId>(params.depth - 1);
    if (roll < 0.2) {
      // Hosted below a random class: its segment and every one above.
      top = static_cast<SegmentId>(rng.NextBounded(params.depth));
      for (SegmentId s = 0; s <= top; ++s) {
        program.options.read_scope.push_back(s);
      }
    } else if (roll < 0.35 && cc_->num_walls() > 0) {
      // AS-OF a released wall, possibly collected already (then Begin
      // fails FailedPrecondition and the program fails, harmlessly).
      program.options.as_of_wall =
          static_cast<int>(rng.NextBounded(cc_->num_walls()));
    }
    const std::uint32_t g = static_cast<std::uint32_t>(
        rng.NextBounded(params.granules_per_segment));
    program.body = [top, g, collected = collected_](
                       ConcurrencyController& cc,
                       const TxnDescriptor& txn) -> Status {
      for (SegmentId s = 0; s <= top; ++s) {
        const Status read = cc.Read(txn, {s, g}).status();
        if (read.code() == StatusCode::kInternal) collected->store(true);
        HDD_RETURN_IF_ERROR(read);
      }
      return Status::OK();
    };
    return program;
  }

 private:
  const SyntheticWorkload* updates_;
  const HddController* cc_;
  std::atomic<bool>* collected_;
};

// One GC run; `epoch_size` > 0 drives it through the epoch executor, whose
// open epoch anchors bounds below every batch I(t).
SimWorkloadFn GcSweepWorkload(std::uint64_t epoch_size,
                              std::atomic<std::uint64_t>* removed_total) {
  return [epoch_size, removed_total](SimScheduler& sched) -> std::string {
    WorkloadShape shape = HddShape();
    shape.params.read_only_fraction = 0.0;  // readers come from the mix
    shape.txns = 12;
    SyntheticWorkload updates(shape.params);
    auto schema = HierarchySchema::Create(updates.Spec());
    if (!schema.ok()) return schema.status().ToString();
    auto db = updates.MakeDatabase();
    SimClock clock(&sched);
    HddController cc(db.get(), &clock, &*schema);
    std::atomic<bool> collected{false};
    GcReaderWorkload workload(&updates, &cc, &collected);
    std::atomic<std::uint64_t> removed{0};
    auto service = [&cc, &removed](const std::atomic<bool>& done) {
      while (!done.load(std::memory_order_acquire)) {
        (void)cc.ReleaseNewWall();
        SimSleep(std::chrono::microseconds(100));
        removed += cc.CollectGarbage();
        SimSleep(std::chrono::microseconds(100));
      }
    };
    // Workers collect too, so collections also land while the service is
    // part-way through a wall computation.
    auto on_txn_done = [&cc, &removed](std::uint64_t) {
      removed += cc.CollectGarbage();
    };
    if (epoch_size > 0) {
      EpochExecutorOptions options;
      options.num_threads = shape.threads;
      options.epoch_size = epoch_size;
      options.seed = sched.seed() * 31 + 7;  // the mix varies by seed too
      options.max_retries = shape.max_retries;
      options.sim = &sched;
      options.service = service;
      options.on_txn_done = on_txn_done;
      (void)RunWorkloadEpochs(cc, workload, shape.txns, options);
    } else {
      ExecutorOptions options;
      options.num_threads = shape.threads;
      options.seed = sched.seed() * 31 + 7;  // the mix varies by seed too
      options.max_retries = shape.max_retries;
      options.sim = &sched;
      options.service = service;
      options.on_txn_done = on_txn_done;
      (void)RunWorkload(cc, workload, shape.txns, options);
    }
    if (sched.halted()) return "";
    removed_total->fetch_add(removed.load(), std::memory_order_relaxed);
    if (collected.load()) {
      return "a read found its version collected below its bound";
    }
    return CheckSimHistory(cc, *db, /*replay_bounds=*/true);
  };
}

// Scaled from HDD_SIM_SEEDS (a quarter of the main sweep, both drivers),
// so ci/check.sh's sim, asan and tsan stages size it with their corpus.
TEST(SimExplore, GcSweepSparesEveryReader) {
  SimScheduler::Options base;
  base.faults = SweepFaults();
  const std::uint64_t seeds =
      std::max<std::uint64_t>(1, EnvOr("HDD_SIM_SEEDS", 2000) / 4);
  for (const std::uint64_t epoch_size : {0, 4}) {
    SCOPED_TRACE(epoch_size);
    std::atomic<std::uint64_t> removed{0};
    const SeedSweepReport report = RunSeedSweep(
        base, FirstSeed(), seeds, GcSweepWorkload(epoch_size, &removed),
        "ctest -R test_sim_explore");
    ExpectSweepClean(report, epoch_size > 0 ? "gc-epoch" : "gc");
    EXPECT_EQ(report.runs, seeds);
    // The sweep is only evidence if faults fired and GC really pruned.
    EXPECT_GT(report.faults_injected, 0u);
    EXPECT_GT(removed.load(), 0u);
    std::cout << (epoch_size > 0 ? "gc-epoch" : "gc") << " sweep: "
              << removed.load() << " versions collected over " << report.runs
              << " seeds" << std::endl;
  }
}

// ---------------------------------------------------------------------------
// Crash-recovery model checking (src/wal/). The workload below runs HDD on
// top of a SimWalStorage with whole-process crashes armed at EVERY yield
// point (even non-interruptible ones — a power cut ignores critical
// sections). When the scheduler reports a process crash, the harness
//   1. crashes the simulated disk (synced bytes survive; a seeded-random
//      prefix of each file's unsynced tail survives, possibly tearing the
//      last record),
//   2. recovers into a FRESH database and checks the durability contract:
//      every commit acknowledged before the crash is recovered, and the
//      recovered chains are exactly the durable image of the pre-crash
//      chains (committed versions of durable transactions, nothing else),
//   3. restarts: reopens the WAL at the recovered ticket frontier,
//      restores control state, advances the clock past the recovered
//      floor, runs a second era of transactions,
//   4. checks the COMBINED pre-crash (durable slice) + post-recovery
//      history against the full 1SR oracle, bounds included.
// Runs that complete without a crash go through the same machinery (crash
// at quiescence: everything acked must survive). The canary flips
// WalOptions::mutation_skip_commit_sync — acks stop waiting for fsync —
// and the sweep MUST then catch a lost acked commit with a replayable
// seed.

struct CrashSweepCounters {
  std::atomic<std::uint64_t> process_crashes{0};
  std::atomic<std::uint64_t> recoveries{0};
};

// Compares the recovered chains against the durable image of the
// pre-crash chains; returns "" or the first mismatch.
std::string CompareDurableImage(const Database& before, const Database& after,
                                const std::set<TxnId>& durable) {
  for (int s = 0; s < before.num_segments(); ++s) {
    for (std::uint32_t g = 0; g < before.segment(s).size(); ++g) {
      std::vector<const Version*> want;
      for (const Version& v : before.segment(s).granule(g).versions()) {
        if (!v.committed) continue;
        if (v.creator != kInvalidTxn && durable.count(v.creator) == 0) {
          continue;
        }
        want.push_back(&v);
      }
      const auto& got = after.segment(s).granule(g).versions();
      const std::string where = "segment " + std::to_string(s) +
                                " granule " + std::to_string(g);
      if (got.size() != want.size()) {
        return "recovered chain size mismatch at " + where + ": got " +
               std::to_string(got.size()) + " want " +
               std::to_string(want.size());
      }
      for (std::size_t i = 0; i < want.size(); ++i) {
        if (got[i].order_key != want[i]->order_key ||
            got[i].wts != want[i]->wts || got[i].value != want[i]->value ||
            got[i].creator != want[i]->creator || !got[i].committed) {
          return "recovered version mismatch at " + where + " index " +
                 std::to_string(i) + " (order_key " +
                 std::to_string(got[i].order_key) + " vs " +
                 std::to_string(want[i]->order_key) + ")";
        }
      }
    }
  }
  return "";
}

// One simulated run with durability: crash (or quiesce), recover, restart,
// and check the combined history. `checkpoint_every` = 0 disables mid-run
// fuzzy checkpoints. `epoch_size` > 0 runs era 1 under the epoch/batch
// executor (era 2 always uses the plain per-txn path — recovery must not
// depend on how the pre-crash era was driven).
SimWorkloadFn WalCrashWorkload(WorkloadShape shape, WalOptions wopts,
                               std::uint64_t checkpoint_every,
                               CrashSweepCounters* counters,
                               std::uint64_t epoch_size = 0) {
  return [shape, wopts, checkpoint_every, counters,
          epoch_size](SimScheduler& sched) -> std::string {
    SyntheticWorkload workload(shape.params);
    auto schema = HierarchySchema::Create(workload.Spec());
    if (!schema.ok()) return schema.status().ToString();
    auto db = workload.MakeDatabase();
    SimWalStorage storage;
    auto wal = WalManager::Open(&storage, db->num_segments(), wopts);
    if (!wal.ok()) return wal.status().ToString();
    db->AttachWal(wal->get());
    SimClock clock(&sched);
    HddController cc(db.get(), &clock, &*schema);

    std::function<void(std::uint64_t)> on_txn_done;
    if (checkpoint_every > 0) {
      on_txn_done = [&cc, checkpoint_every](std::uint64_t done) {
        if (done % checkpoint_every == 0) (void)cc.CheckpointWal();
      };
    }
    if (epoch_size > 0) {
      EpochExecutorOptions options;
      options.num_threads = shape.threads;
      options.epoch_size = epoch_size;
      options.seed = 77;
      options.max_retries = shape.max_retries;
      options.sim = &sched;
      options.on_txn_done = on_txn_done;
      options.wal_metrics = &(*wal)->metrics();
      (void)RunWorkloadEpochs(cc, workload, shape.txns, options);
    } else {
      ExecutorOptions options;
      options.num_threads = shape.threads;
      options.seed = 77;
      options.max_retries = shape.max_retries;
      options.sim = &sched;
      options.on_txn_done = on_txn_done;
      options.wal_metrics = &(*wal)->metrics();
      (void)RunWorkload(cc, workload, shape.txns, options);
    }
    if (sched.halted() && !sched.process_crashed()) {
      return "";  // deadlock/budget findings are RunSimulation's to report
    }
    if (sched.process_crashed()) {
      counters->process_crashes.fetch_add(1, std::memory_order_relaxed);
    }

    // --- The machine dies (or, on clean completion, dies at quiescence).
    // All remaining nondeterminism must derive from the run's seed so
    // failing seeds replay byte-for-byte.
    Rng crash_rng(sched.seed() ^ 0xC0FFEEULL);
    storage.Crash(crash_rng);

    const auto pre_steps = cc.recorder().steps();
    const auto pre_outcomes = cc.recorder().outcomes();
    const auto pre_identities = cc.recorder().identities();

    auto db2 = workload.MakeDatabase();
    const auto report = RecoverDatabase(&storage, db2.get());
    if (!report.ok()) {
      return "recovery failed: " + report.status().ToString();
    }
    counters->recoveries.fetch_add(1, std::memory_order_relaxed);

    // --- Durability contract: every ACKED update commit is recovered.
    // (Commit() returns — and the executor records the outcome — only
    // after WaitDurable acked, so recorded-committed is a conservative
    // subset of acked.)
    std::unordered_set<TxnId> writers;
    for (const Step& s : pre_steps) {
      if (s.action == Step::Action::kWrite) writers.insert(s.txn);
    }
    for (const auto& [txn, state] : pre_outcomes) {
      if (state != TxnState::kCommitted) continue;
      if (writers.count(txn) == 0) continue;  // nothing to make durable
      if (report->durable_commits.count(txn) == 0) {
        return "acked commit lost across crash: txn " + std::to_string(txn);
      }
    }

    // --- State contract: the recovered chains are exactly the durable
    // image of the pre-crash chains.
    std::string mismatch =
        CompareDurableImage(*db, *db2, report->durable_commits);
    if (!mismatch.empty()) return mismatch;

    // --- Restart: second era on the recovered state. Plain clock and no
    // sim hooks — the scheduler has halted; a single worker keeps the
    // post-crash history deterministic.
    WalOptions wopts2 = wopts;
    wopts2.initial_ticket = report->frontier_ticket;
    wopts2.mutation_skip_commit_sync = false;
    auto wal2 = WalManager::Open(&storage, db2->num_segments(), wopts2);
    if (!wal2.ok()) return wal2.status().ToString();
    db2->AttachWal(wal2->get());
    LogicalClock clock2;
    clock2.AdvanceTo(report->max_timestamp);
    HddController cc2(db2.get(), &clock2, &*schema);
    const Status restored = cc2.RestoreControlState(report->control_state);
    if (!restored.ok()) {
      return "control-state restore failed: " + restored.ToString();
    }

    ExecutorOptions era2;
    era2.num_threads = 1;
    era2.seed = 177;
    era2.max_retries = shape.max_retries;
    (void)RunWorkload(cc2, workload, /*total_txns=*/6, era2);

    // --- Combined-history oracle: the durable slice of era 1 concatenated
    // with all of era 2 must be one-copy serializable against the final
    // chains, bounds included.
    std::unordered_set<TxnId> keep;
    for (const auto& [txn, state] : pre_outcomes) {
      if (state != TxnState::kCommitted) continue;
      const auto it = pre_identities.find(txn);
      const bool read_only = it != pre_identities.end() && it->second.read_only;
      // Acked read-only results are durable by the read barrier; update
      // transactions survive iff their commit record did.
      if (read_only || report->durable_commits.count(txn) > 0) {
        keep.insert(txn);
      }
    }
    // Recovery's verdict is authoritative: a crash can land after the
    // commit record reached disk but before the executor recorded the
    // outcome. Such a transaction IS committed — its versions survive in
    // db2 and era 2 may read them — so its steps must stay in the witness
    // even though pre_outcomes never saw kCommitted.
    for (const TxnId txn : report->durable_commits) keep.insert(txn);
    std::vector<Step> combined;
    std::uint64_t seq_base = 0;
    for (const Step& s : pre_steps) {
      if (keep.count(s.txn) == 0) continue;
      combined.push_back(s);
      if (s.seq >= seq_base) seq_base = s.seq + 1;
    }
    constexpr TxnId kEraOffset = 1ull << 32;
    for (const Step& s : cc2.recorder().steps()) {
      Step t = s;
      t.txn += kEraOffset;
      t.seq += seq_base;
      combined.push_back(t);
    }
    std::unordered_map<TxnId, TxnState> outcomes;
    std::unordered_map<TxnId, ScheduleRecorder::TxnIdentity> identities;
    for (const TxnId txn : keep) {
      outcomes[txn] = TxnState::kCommitted;
      const auto it = pre_identities.find(txn);
      if (it != pre_identities.end()) identities[txn] = it->second;
    }
    for (const auto& [txn, state] : cc2.recorder().outcomes()) {
      outcomes[txn + kEraOffset] = state;
    }
    for (const auto& [txn, identity] : cc2.recorder().identities()) {
      identities[txn + kEraOffset] = identity;
    }
    const std::string verdict = CheckRecordedHistory(
        combined, outcomes, identities, *db2, /*replay_bounds=*/true);
    if (!verdict.empty()) return "combined history: " + verdict;
    return "";
  };
}

// The durability acceptance sweep: thousands of seeded schedules with the
// full fault mix PLUS whole-process crashes; every crash goes through
// recovery, restart and the combined-history oracle.
TEST(SimExplore, WalCrashRecoverySweep) {
  SimScheduler::Options base;
  base.faults = SweepFaults();
  base.faults.process_crash_prob = 0.002;

  WalOptions wopts;
  wopts.group.mode = WalSyncMode::kGroupCommit;
  CrashSweepCounters counters;
  const std::uint64_t seeds = EnvOr("HDD_SIM_CRASH_SEEDS", 2000);
  const SeedSweepReport report = RunSeedSweep(
      base, FirstSeed(), seeds,
      WalCrashWorkload(HddShape(), wopts, /*checkpoint_every=*/4, &counters),
      "ctest -R test_sim_explore");
  ExpectSweepClean(report, "wal-crash");
  EXPECT_EQ(report.runs, seeds);
  // The sweep is only evidence if crashes actually fired and were
  // recovered from.
  EXPECT_GT(counters.process_crashes.load(), 0u);
  EXPECT_GT(counters.recoveries.load(), 0u);
  std::cout << "wal crash sweep: " << counters.process_crashes.load()
            << " process crashes, " << counters.recoveries.load()
            << " recoveries over " << report.runs << " seeds" << std::endl;
}

// Era 1 under the epoch/batch executor: crashes now land inside batch
// admission, mid-graph and between epochs, and the durability contract
// plus the combined-history oracle must hold exactly as in per-txn mode.
TEST(SimExplore, WalEpochCrashRecoverySweep) {
  SimScheduler::Options base;
  base.faults = SweepFaults();
  base.faults.process_crash_prob = 0.004;

  WalOptions wopts;
  wopts.group.mode = WalSyncMode::kGroupCommit;
  CrashSweepCounters counters;
  const std::uint64_t seeds = EnvOr("HDD_SIM_EPOCH_CRASH_SEEDS", 500);
  const SeedSweepReport report = RunSeedSweep(
      base, FirstSeed(), seeds,
      WalCrashWorkload(HddShape(), wopts, /*checkpoint_every=*/4, &counters,
                       /*epoch_size=*/4),
      "ctest -R test_sim_explore");
  ExpectSweepClean(report, "wal-epoch-crash");
  EXPECT_EQ(report.runs, seeds);
  EXPECT_GT(counters.process_crashes.load(), 0u);
  EXPECT_GT(counters.recoveries.load(), 0u);
  std::cout << "wal epoch crash sweep: " << counters.process_crashes.load()
            << " process crashes, " << counters.recoveries.load()
            << " recoveries over " << report.runs << " seeds" << std::endl;
}

// Per-commit fsync must satisfy the same contract (narrower loss window,
// different sync path).
TEST(SimExplore, WalCrashRecoverySweepPerCommit) {
  SimScheduler::Options base;
  base.faults = SweepFaults();
  base.faults.process_crash_prob = 0.004;

  WalOptions wopts;
  wopts.group.mode = WalSyncMode::kPerCommit;
  CrashSweepCounters counters;
  const SeedSweepReport report = RunSeedSweep(
      base, FirstSeed(), EnvOr("HDD_SIM_CRASH_PERCOMMIT_SEEDS", 300),
      WalCrashWorkload(HddShape(), wopts, /*checkpoint_every=*/3, &counters),
      "ctest -R test_sim_explore");
  ExpectSweepClean(report, "wal-crash-percommit");
  EXPECT_GT(counters.recoveries.load(), 0u);
}

// The durability canary: commits acked WITHOUT waiting for fsync. A crash
// can then lose acknowledged commits, and the sweep must catch exactly
// that with a replayable seed — a harness that cannot see the mutation
// is broken.
TEST(SimExplore, WalCanaryLostAckIsCaught) {
  SimScheduler::Options base;
  base.faults = SweepFaults();
  base.faults.process_crash_prob = 0.02;  // crash early and often

  WalOptions wopts;
  wopts.group.mode = WalSyncMode::kGroupCommit;
  wopts.mutation_skip_commit_sync = true;
  CrashSweepCounters counters;
  // No mid-run checkpoints: their read barrier would sync the logs and
  // mask the mutation.
  const SeedSweepReport report = RunSeedSweep(
      base, FirstSeed(), EnvOr("HDD_SIM_WAL_CANARY_SEEDS", 200),
      WalCrashWorkload(HddShape(), wopts, /*checkpoint_every=*/0, &counters),
      "ctest -R test_sim_explore");
  ASSERT_FALSE(report.failures.empty())
      << "the skip-commit-sync mutation survived " << report.runs
      << " seeds — the crash harness cannot detect lost acked commits";
  const SimFailure& first = report.failures.front();
  EXPECT_TRUE(first.replayed_identically)
      << "seed " << first.seed << " failed but did not replay";
  std::cout << "wal canary caught at seed " << first.seed << ": "
            << first.message << "\n  replay: " << first.replay_command
            << std::endl;
}

// ---------------------------------------------------------------------------
// Online re-decomposition under the model checker. A Redecomposer runs as
// the executor's service task: it drains the footprints the controller
// publishes, detects drift when an emergent cross-segment co-writer is
// declared mid-run, infers + validates a new decomposition and hot-swaps
// it via Restructure — all while workers keep committing and the fault
// injector fires. Every completed history must still pass the 1SR oracle,
// bounds included.

// The 3-segment chain the drift runs use: type0 writes `base`; type1
// writes `mid` reading `base`; type2 writes `top` reading both. The
// emergent pattern the re-decomposer must legalize co-writes base+mid.
PartitionSpec RedecompSpec() {
  PartitionSpec spec;
  spec.segment_names = {"base", "mid", "top"};
  spec.transaction_types = {
      {"t0", 0, {}},
      {"t1", 1, {0}},
      {"t2", 2, {0, 1}},
  };
  return spec;
}

constexpr std::uint32_t kRedecompGranules = 3;

// Chain workload that re-resolves its transaction class against the LIVE
// controller at Make time, so traffic keeps flowing across hot swaps, and
// that starts exercising the emergent base+mid co-write once the swap has
// landed (the classes merged). A Restructure racing the tiny window
// between Make and Begin/Write can still strand a stale class id; the
// resulting InvalidArgument/FailedPrecondition counts as a failed txn,
// which the controller's admission checks make harmless to 1SR.
class RedecompDriftWorkload : public Workload {
 public:
  explicit RedecompDriftWorkload(const HddController* cc) : cc_(cc) {}

  TxnProgram Make(std::uint64_t index, Rng& rng) const override {
    TxnProgram program;
    const std::uint32_t g =
        static_cast<std::uint32_t>(rng.NextBounded(kRedecompGranules));
    const Value value = static_cast<Value>(index + 1);
    const bool merged = cc_->ClassOfSegment(0) == cc_->ClassOfSegment(1);
    const double roll = rng.NextDouble();
    if (merged && roll < 0.35) {
      // The emergent pattern, now legal under the swapped-in structure.
      program.options.txn_class = cc_->ClassOfSegment(0);
      program.body = [g, value](ConcurrencyController& cc,
                                const TxnDescriptor& txn) -> Status {
        HDD_RETURN_IF_ERROR(cc.Write(txn, {0, g}, value));
        return cc.Write(txn, {1, g}, value);
      };
      return program;
    }
    if (roll < 0.2) {
      program.options.read_only = true;
      program.body = [g](ConcurrencyController& cc,
                         const TxnDescriptor& txn) -> Status {
        for (SegmentId s = 0; s < 3; ++s) {
          HDD_RETURN_IF_ERROR(cc.Read(txn, {s, g}).status());
        }
        return Status::OK();
      };
      return program;
    }
    const SegmentId root = static_cast<SegmentId>(rng.NextBounded(3));
    program.options.txn_class = cc_->ClassOfSegment(root);
    program.body = [root, g, value](ConcurrencyController& cc,
                                    const TxnDescriptor& txn) -> Status {
      for (SegmentId upper = 0; upper < root; ++upper) {
        HDD_RETURN_IF_ERROR(cc.Read(txn, {upper, g}).status());
      }
      return cc.Write(txn, {root, g}, value);
    };
    return program;
  }

 private:
  const HddController* cc_;
};

struct RedecompCounters {
  std::atomic<std::uint64_t> restructures{0};
  std::atomic<std::uint64_t> drift_events{0};
  std::atomic<std::uint64_t> busy_retries{0};
  std::atomic<std::uint64_t> canary_catches{0};
  std::atomic<std::uint64_t> canary_escapes{0};
};

void FoldRedecompStats(const RedecomposerStats& stats,
                       RedecompCounters* counters) {
  counters->restructures.fetch_add(stats.restructures,
                                   std::memory_order_relaxed);
  counters->drift_events.fetch_add(stats.drift_events,
                                   std::memory_order_relaxed);
  counters->busy_retries.fetch_add(stats.busy_retries,
                                   std::memory_order_relaxed);
  counters->canary_catches.fetch_add(stats.canary_catches,
                                     std::memory_order_relaxed);
  counters->canary_escapes.fetch_add(stats.canary_escapes,
                                     std::memory_order_relaxed);
}

// One simulated drift run: workers commit chain traffic while the
// Redecomposer service polls; halfway through, an emergent base+mid
// co-writer is declared often enough to cross the drift bar, and the
// service must infer, validate and Restructure with traffic still live.
// `epoch_size` > 0 drives the run through the epoch/batch executor so
// pending swaps hit the BeginEpoch/Restructure exclusion (Busy) first.
SimWorkloadFn RedecompDriftRun(std::uint64_t txns, RedecomposerOptions ropts,
                               RedecompCounters* counters,
                               std::uint64_t epoch_size = 0) {
  return [txns, ropts, counters, epoch_size](
             SimScheduler& sched) -> std::string {
    auto schema = HierarchySchema::Create(RedecompSpec());
    if (!schema.ok()) return schema.status().ToString();
    Database db(3, kRedecompGranules);
    SimClock clock(&sched);
    FootprintRecorder recorder;
    HddControllerOptions copts;
    copts.footprint = &recorder;
    HddController cc(&db, &clock, &*schema, copts);
    Redecomposer redecomposer(&cc, &recorder, &db, ropts);
    RedecompDriftWorkload workload(&cc);

    const std::uint64_t declare_at = txns / 2;
    auto on_txn_done = [&recorder, declare_at,
                        &ropts](std::uint64_t done) {
      if (done != declare_at) return;
      // Declared emergent intent: announced at admission time, cannot yet
      // execute. Enough copies to dominate a drift window.
      for (std::uint64_t i = 0; i < 2 * ropts.window_txns; ++i) {
        recorder.Declare(
            {FootprintRecorder::Pack(0, 0), FootprintRecorder::Pack(1, 0)},
            /*reads=*/{});
      }
    };

    if (epoch_size > 0) {
      EpochExecutorOptions options;
      options.num_threads = 3;
      options.epoch_size = epoch_size;
      options.seed = 77;
      options.max_retries = 50;
      options.sim = &sched;
      options.on_txn_done = on_txn_done;
      options.service = redecomposer.AsService();
      (void)RunWorkloadEpochs(cc, workload, txns, options);
    } else {
      ExecutorOptions options;
      options.num_threads = 3;
      options.seed = 77;
      options.max_retries = 50;
      options.sim = &sched;
      options.on_txn_done = on_txn_done;
      options.service = redecomposer.AsService();
      (void)RunWorkload(cc, workload, txns, options);
    }
    if (sched.halted()) return "";
    FoldRedecompStats(redecomposer.stats(), counters);
    if (redecomposer.stats().canary_escapes > 0) {
      return "mutation canary escaped validation";
    }
    if (!redecomposer.last_error().ok()) {
      return "redecomposer error: " +
             redecomposer.last_error().ToString();
    }
    return CheckSimHistory(cc, db, /*replay_bounds=*/true);
  };
}

// The drift acceptance sweep: hundreds of seeded schedules, each with a
// mid-run drift-driven hot swap under the full fault mix.
TEST(SimExplore, RedecompDriftSweepPassesOracle) {
  SimScheduler::Options base;
  base.faults = SweepFaults();
  RedecomposerOptions ropts;
  ropts.window_txns = 6;
  ropts.drift_threshold = 0.3;
  RedecompCounters counters;
  const std::uint64_t seeds = EnvOr("HDD_SIM_REDECOMP_SEEDS", 500);
  const SeedSweepReport report = RunSeedSweep(
      base, FirstSeed(), seeds, RedecompDriftRun(14, ropts, &counters),
      "ctest -R test_sim_explore");
  ExpectSweepClean(report, "redecomp-drift");
  EXPECT_EQ(report.runs, seeds);
  // The sweep is only evidence if swaps actually happened under load.
  EXPECT_GT(counters.drift_events.load(), 0u);
  EXPECT_GT(counters.restructures.load(), 0u);
  std::cout << "redecomp drift sweep: " << counters.drift_events.load()
            << " drift events, " << counters.restructures.load()
            << " restructures over " << report.runs << " seeds"
            << std::endl;
}

// Same drift runs through the epoch/batch executor: a swap that becomes
// pending while an epoch is open must be refused with Busy (the PR 5
// BeginEpoch/Restructure exclusion) and land between epochs instead.
TEST(SimExplore, RedecompEpochSweepPassesOracle) {
  SimScheduler::Options base;
  base.faults = SweepFaults();
  RedecomposerOptions ropts;
  ropts.window_txns = 6;
  ropts.drift_threshold = 0.3;
  RedecompCounters counters;
  const std::uint64_t seeds = EnvOr("HDD_SIM_REDECOMP_EPOCH_SEEDS", 300);
  const SeedSweepReport report = RunSeedSweep(
      base, FirstSeed(), seeds,
      RedecompDriftRun(14, ropts, &counters, /*epoch_size=*/4),
      "ctest -R test_sim_explore");
  ExpectSweepClean(report, "redecomp-epoch");
  EXPECT_EQ(report.runs, seeds);
  EXPECT_GT(counters.restructures.load(), 0u);
  // The exclusion must actually have been exercised somewhere in the
  // sweep: a swap arriving mid-epoch is turned away with Busy.
  EXPECT_GT(counters.busy_retries.load(), 0u)
      << "no Restructure ever collided with an open epoch — the sweep "
         "did not exercise the exclusion";
  std::cout << "redecomp epoch sweep: " << counters.restructures.load()
            << " restructures, " << counters.busy_retries.load()
            << " busy retries over " << report.runs << " seeds"
            << std::endl;
}

// The re-decomposition canary: every inference deliberately mis-classifies
// one granule. The validation pass guarding the hot swap must catch every
// single one (an escape fails the run), and the swap still proceeds from
// a clean re-inference — proving the safety net, not just the happy path.
TEST(SimExplore, RedecompCanaryMutationIsCaught) {
  SimScheduler::Options base;
  base.faults = SweepFaults();
  RedecomposerOptions ropts;
  ropts.window_txns = 6;
  ropts.drift_threshold = 0.3;
  ropts.infer.mutation_misclassify_granule = true;
  RedecompCounters counters;
  const std::uint64_t seeds = EnvOr("HDD_SIM_REDECOMP_CANARY_SEEDS", 200);
  const SeedSweepReport report = RunSeedSweep(
      base, FirstSeed(), seeds, RedecompDriftRun(14, ropts, &counters),
      "ctest -R test_sim_explore");
  ExpectSweepClean(report, "redecomp-canary");
  EXPECT_GT(counters.canary_catches.load(), 0u)
      << "the mis-classification canary never fired — the sweep proves "
         "nothing about the validation net";
  EXPECT_EQ(counters.canary_escapes.load(), 0u);
  std::cout << "redecomp canary: " << counters.canary_catches.load()
            << " catches, 0 escapes over " << report.runs << " seeds"
            << std::endl;
}

// ---------------------------------------------------------------------------
// Replay: the same options must reproduce the identical trace, choices and
// verdict; a different seed must schedule differently. Checked for every
// driver the shared task launcher starts: the per-txn executor, the epoch
// executor, a run with a service task (the Redecomposer's poll loop), and
// a DistWorld cluster whose message pumps are sim tasks as well.

// Two shard nodes under message faults (delays, reorders, duplicates),
// with one owner override so the two-phase commit path runs too.
SimWorkloadFn DistReplayRun() {
  return [](SimScheduler& sched) -> std::string {
    DistWorldOptions options;
    options.granules_per_segment = 2;
    options.owner_overrides = {{SegmentId{3}, 0}};
    options.txns_per_node = 4;
    options.transport.delay_prob = 0.25;
    options.transport.reorder_prob = 0.25;
    options.transport.duplicate_prob = 0.15;
    options.transport.seed = sched.seed() * 0x9E3779B97F4A7C15ULL + 0xD1D5;
    options.workload_seed = sched.seed() * 31 + 7;
    DistWorld world(options, &sched);
    if (!world.init_error().empty()) return world.init_error();
    const std::string run = world.RunWorkload();
    if (sched.halted()) return "";
    if (!run.empty()) return run;
    return world.CheckHistory();
  };
}

TEST(SimExplore, DeterministicReplay) {
  RedecomposerOptions ropts;
  ropts.window_txns = 6;
  ropts.drift_threshold = 0.3;
  RedecompCounters counters;
  // Per-attempt crashes stay off for the cluster: a crashed coordinator
  // leaves prepared residue that reads as a deadlock (see test_dist_sim).
  FaultInjectorConfig dist_faults = SweepFaults();
  dist_faults.crash_prob = 0.0;
  const struct {
    const char* label;
    FaultInjectorConfig faults;
    SimWorkloadFn fn;
  } runs[] = {
      {"per-txn", SweepFaults(), HddWorkload(HddShape())},
      {"epoch", SweepFaults(), HddEpochWorkload(HddShape(), /*epoch_size=*/4)},
      {"service", SweepFaults(), RedecompDriftRun(14, ropts, &counters)},
      {"dist", dist_faults, DistReplayRun()},
  };
  for (const auto& run : runs) {
    SCOPED_TRACE(run.label);
    SimScheduler::Options options;
    options.faults = run.faults;
    options.seed = 42;
    const SimRunReport a = RunSimulation(options, run.fn);
    const SimRunReport b = RunSimulation(options, run.fn);
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.choices, b.choices);
    EXPECT_EQ(a.failure, b.failure);
    EXPECT_EQ(a.failure, "");
    EXPECT_EQ(a.faults_injected, b.faults_injected);
    ASSERT_FALSE(a.trace.empty());

    options.seed = 43;
    const SimRunReport c = RunSimulation(options, run.fn);
    EXPECT_NE(a.trace, c.trace);
  }
}

// Drift + durability: the same drift runs on a WAL with whole-process
// crashes armed. After a crash the harness recovers into a fresh
// database, REPLAYS the completed merges (applied_merges, in order) onto
// the fresh controller — Restructure is deterministic, so the rebuilt
// class structure matches — and runs a second era; the combined durable
// history must pass the full oracle. No mid-run checkpoints: control
// state snapshots are tied to the class structure they were taken under,
// and this sweep changes the structure mid-run.
TEST(SimExplore, RedecompCrashRecoverySweep) {
  SimScheduler::Options base;
  base.faults = SweepFaults();
  base.faults.process_crash_prob = 0.004;

  RedecomposerOptions ropts;
  ropts.window_txns = 6;
  ropts.drift_threshold = 0.3;
  RedecompCounters counters;
  CrashSweepCounters crash_counters;

  auto run = [&](SimScheduler& sched) -> std::string {
    auto schema = HierarchySchema::Create(RedecompSpec());
    if (!schema.ok()) return schema.status().ToString();
    Database db(3, kRedecompGranules);
    SimWalStorage storage;
    WalOptions wopts;
    wopts.group.mode = WalSyncMode::kGroupCommit;
    auto wal = WalManager::Open(&storage, db.num_segments(), wopts);
    if (!wal.ok()) return wal.status().ToString();
    db.AttachWal(wal->get());
    SimClock clock(&sched);
    FootprintRecorder recorder;
    HddControllerOptions copts;
    copts.footprint = &recorder;
    HddController cc(&db, &clock, &*schema, copts);
    Redecomposer redecomposer(&cc, &recorder, &db, ropts);
    RedecompDriftWorkload workload(&cc);

    const std::uint64_t txns = 14;
    auto on_txn_done = [&recorder, &ropts](std::uint64_t done) {
      if (done != 7) return;
      for (std::uint64_t i = 0; i < 2 * ropts.window_txns; ++i) {
        recorder.Declare(
            {FootprintRecorder::Pack(0, 0), FootprintRecorder::Pack(1, 0)},
            /*reads=*/{});
      }
    };
    ExecutorOptions options;
    options.num_threads = 3;
    options.seed = 77;
    options.max_retries = 50;
    options.sim = &sched;
    options.on_txn_done = on_txn_done;
    options.service = redecomposer.AsService();
    options.wal_metrics = &(*wal)->metrics();
    (void)RunWorkload(cc, workload, txns, options);
    if (sched.halted() && !sched.process_crashed()) return "";
    if (sched.process_crashed()) {
      crash_counters.process_crashes.fetch_add(1, std::memory_order_relaxed);
    }
    FoldRedecompStats(redecomposer.stats(), &counters);
    if (!redecomposer.last_error().ok()) {
      return "redecomposer error: " + redecomposer.last_error().ToString();
    }

    Rng crash_rng(sched.seed() ^ 0xC0FFEEULL);
    storage.Crash(crash_rng);

    const auto pre_steps = cc.recorder().steps();
    const auto pre_outcomes = cc.recorder().outcomes();
    const auto pre_identities = cc.recorder().identities();

    Database db2(3, kRedecompGranules);
    const auto report = RecoverDatabase(&storage, &db2);
    if (!report.ok()) {
      return "recovery failed: " + report.status().ToString();
    }
    crash_counters.recoveries.fetch_add(1, std::memory_order_relaxed);

    std::unordered_set<TxnId> writers;
    for (const Step& s : pre_steps) {
      if (s.action == Step::Action::kWrite) writers.insert(s.txn);
    }
    for (const auto& [txn, state] : pre_outcomes) {
      if (state != TxnState::kCommitted) continue;
      if (writers.count(txn) == 0) continue;
      if (report->durable_commits.count(txn) == 0) {
        return "acked commit lost across crash: txn " + std::to_string(txn);
      }
    }
    std::string mismatch =
        CompareDurableImage(db, db2, report->durable_commits);
    if (!mismatch.empty()) return mismatch;

    // Restart, replaying the completed merges before the second era so
    // the class structure the survivors committed under is rebuilt.
    WalOptions wopts2 = wopts;
    wopts2.initial_ticket = report->frontier_ticket;
    auto wal2 = WalManager::Open(&storage, db2.num_segments(), wopts2);
    if (!wal2.ok()) return wal2.status().ToString();
    db2.AttachWal(wal2->get());
    LogicalClock clock2;
    clock2.AdvanceTo(report->max_timestamp);
    HddController cc2(&db2, &clock2, &*schema);
    const Status restored = cc2.RestoreControlState(report->control_state);
    if (!restored.ok()) {
      return "control-state restore failed: " + restored.ToString();
    }
    for (const AppliedMerge& merge : redecomposer.applied_merges()) {
      auto merged = cc2.Restructure(merge.write_segments,
                                    merge.read_segments);
      if (!merged.ok()) {
        return "merge replay failed: " + merged.status().ToString();
      }
    }

    RedecompDriftWorkload workload2(&cc2);
    ExecutorOptions era2;
    era2.num_threads = 1;
    era2.seed = 177;
    era2.max_retries = 50;
    (void)RunWorkload(cc2, workload2, /*total_txns=*/6, era2);

    std::unordered_set<TxnId> keep;
    for (const auto& [txn, state] : pre_outcomes) {
      if (state != TxnState::kCommitted) continue;
      const auto it = pre_identities.find(txn);
      const bool read_only =
          it != pre_identities.end() && it->second.read_only;
      if (read_only || report->durable_commits.count(txn) > 0) {
        keep.insert(txn);
      }
    }
    for (const TxnId txn : report->durable_commits) keep.insert(txn);
    std::vector<Step> combined;
    std::uint64_t seq_base = 0;
    for (const Step& s : pre_steps) {
      if (keep.count(s.txn) == 0) continue;
      combined.push_back(s);
      if (s.seq >= seq_base) seq_base = s.seq + 1;
    }
    constexpr TxnId kEraOffset = 1ull << 32;
    for (const Step& s : cc2.recorder().steps()) {
      Step t = s;
      t.txn += kEraOffset;
      t.seq += seq_base;
      combined.push_back(t);
    }
    std::unordered_map<TxnId, TxnState> outcomes;
    std::unordered_map<TxnId, ScheduleRecorder::TxnIdentity> identities;
    for (const TxnId txn : keep) {
      outcomes[txn] = TxnState::kCommitted;
      const auto it = pre_identities.find(txn);
      if (it != pre_identities.end()) identities[txn] = it->second;
    }
    for (const auto& [txn, state] : cc2.recorder().outcomes()) {
      outcomes[txn + kEraOffset] = state;
    }
    for (const auto& [txn, identity] : cc2.recorder().identities()) {
      identities[txn + kEraOffset] = identity;
    }
    const std::string verdict = CheckRecordedHistory(
        combined, outcomes, identities, db2, /*replay_bounds=*/true);
    if (!verdict.empty()) return "combined history: " + verdict;
    return "";
  };

  const std::uint64_t seeds = EnvOr("HDD_SIM_REDECOMP_CRASH_SEEDS", 300);
  const SeedSweepReport report = RunSeedSweep(
      base, FirstSeed(), seeds, run, "ctest -R test_sim_explore");
  ExpectSweepClean(report, "redecomp-crash");
  EXPECT_EQ(report.runs, seeds);
  EXPECT_GT(crash_counters.process_crashes.load(), 0u);
  EXPECT_GT(crash_counters.recoveries.load(), 0u);
  EXPECT_GT(counters.restructures.load(), 0u);
  std::cout << "redecomp crash sweep: "
            << crash_counters.process_crashes.load() << " crashes, "
            << crash_counters.recoveries.load() << " recoveries, "
            << counters.restructures.load() << " restructures over "
            << report.runs << " seeds" << std::endl;
}

// ---------------------------------------------------------------------------
// Scheduler-level unit test: two tasks block on channels nobody notifies;
// the scheduler must declare the run deadlocked and unwind both tasks with
// SimHalt rather than hang.
TEST(SimExplore, SchedulerDetectsDeadlock) {
  SimScheduler::Options options;
  SimScheduler sched(options);
  sched.ExpectTasks(2);

  auto starve = [&sched](int id, const void* channel) {
    std::mutex mu;
    try {
      sched.RegisterCurrentTask(id);
      std::unique_lock<std::mutex> lock(mu);
      for (;;) sched.BlockOn(channel, lock);
    } catch (const SimHalt&) {
    }
    sched.UnregisterCurrentTask();
  };
  const int ch_a = 0, ch_b = 0;
  std::thread a(starve, 0, &ch_a);
  std::thread b(starve, 1, &ch_b);
  a.join();
  b.join();

  EXPECT_TRUE(sched.halted());
  EXPECT_TRUE(sched.deadlocked());
  EXPECT_FALSE(sched.decision_limit_hit());
  EXPECT_NE(sched.halt_reason().find("deadlock"), std::string::npos)
      << sched.halt_reason();
}

// A busy-looping task must be stopped by the decision budget, reported as
// a suspected livelock rather than a deadlock.
TEST(SimExplore, DecisionBudgetBackstopsLivelock) {
  SimScheduler::Options options;
  options.max_decisions = 64;
  SimScheduler sched(options);
  sched.ExpectTasks(1);
  std::thread t([&sched] {
    try {
      sched.RegisterCurrentTask(0);
      for (;;) sched.Yield("test/spin", /*interruptible=*/true);
    } catch (const SimHalt&) {
    }
    sched.UnregisterCurrentTask();
  });
  t.join();
  EXPECT_TRUE(sched.halted());
  EXPECT_TRUE(sched.decision_limit_hit());
  EXPECT_FALSE(sched.deadlocked());
}

}  // namespace
}  // namespace hdd
