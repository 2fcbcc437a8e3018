// Unit tests for the executor's latency accounting (per-thread reservoir
// sampling, Vitter's algorithm R, and the weighted merge that turns the
// per-thread reservoirs into workload-level percentiles), plus the
// drivers' shared contract, checked against both RunWorkload and
// RunWorkloadEpochs with program bodies that return scripted statuses:
//  * every program ends exactly once: committed + failed + crashed == N;
//  * the per-class rows sum to the totals;
//  * on_txn_done sees 1..N, each exactly once, and Workload::Make is
//    asked for every stream index exactly once (both executors make each
//    program once, retries included); a scripted body runs as often as
//    its script says;
//  * a program aborted on every attempt fails after max_retries + 1
//    aborted attempts;
//  * the service task observes workers_done and returns;
//  * under simulation (injected aborts and crashes) the same identities
//    hold, crashes included.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "engine/epoch_executor.h"
#include "engine/executor.h"
#include "engine/synthetic_workload.h"
#include "hdd/hdd_controller.h"
#include "sim/sim_clock.h"
#include "sim/sim_scheduler.h"

namespace hdd {
namespace {

TEST(LatencyReservoirTest, KeepsEverythingBelowCapacity) {
  LatencyReservoir r(/*capacity=*/8, /*seed=*/3);
  for (double v : {5.0, 1.0, 9.0, 2.0, 7.0}) r.Add(v);
  EXPECT_EQ(r.count(), 5u);
  EXPECT_EQ(r.samples().size(), 5u);
  EXPECT_DOUBLE_EQ(r.max_us(), 9.0);
}

TEST(LatencyReservoirTest, SampleSizeStaysBounded) {
  LatencyReservoir r(/*capacity=*/64, /*seed=*/11);
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    r.Add(static_cast<double>(rng.NextBounded(1000)));
  }
  EXPECT_EQ(r.count(), 10000u);
  EXPECT_EQ(r.samples().size(), 64u);
}

TEST(LatencyReservoirTest, DeterministicPerSeed) {
  LatencyReservoir a(/*capacity=*/32, /*seed=*/7);
  LatencyReservoir b(/*capacity=*/32, /*seed=*/7);
  LatencyReservoir c(/*capacity=*/32, /*seed=*/8);
  for (int i = 0; i < 5000; ++i) {
    const double v = static_cast<double>(i % 997);
    a.Add(v);
    b.Add(v);
    c.Add(v);
  }
  EXPECT_EQ(a.samples(), b.samples());
  // Different seed, same stream: counts and max agree, the retained
  // sample (almost surely) does not.
  EXPECT_EQ(a.count(), c.count());
  EXPECT_DOUBLE_EQ(a.max_us(), c.max_us());
  EXPECT_NE(a.samples(), c.samples());
}

TEST(LatencyReservoirTest, MaxIsExactEvenWhenEvictedFromSample) {
  // With capacity 2 the maximum is very likely dropped from the sample at
  // some point; max_us() must still report it exactly.
  LatencyReservoir r(/*capacity=*/2, /*seed=*/5);
  for (int i = 1; i <= 1000; ++i) r.Add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(r.max_us(), 1000.0);
  for (double v : r.samples()) EXPECT_LE(v, 1000.0);
}

TEST(MergeReservoirsTest, EmptyPartsYieldZeroDigest) {
  const LatencyDigest empty = MergeReservoirs({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.p50_us, 0.0);
  EXPECT_DOUBLE_EQ(empty.max_us, 0.0);

  std::vector<LatencyReservoir> parts;
  parts.emplace_back(16, 1);
  const LatencyDigest still_empty = MergeReservoirs(parts);
  EXPECT_EQ(still_empty.count, 0u);
}

TEST(MergeReservoirsTest, ExactPercentilesWhenNothingWasSampledOut) {
  // 900 fast + 100 slow observations, all retained (capacity is large):
  // p50 lands in the fast mass, p95 and p99 in the slow tail.
  std::vector<LatencyReservoir> parts;
  parts.emplace_back(4096, 1);
  parts.emplace_back(4096, 2);
  for (int i = 0; i < 900; ++i) parts[0].Add(10.0);
  for (int i = 0; i < 100; ++i) parts[1].Add(1000.0);

  const LatencyDigest digest = MergeReservoirs(parts);
  EXPECT_EQ(digest.count, 1000u);
  EXPECT_DOUBLE_EQ(digest.p50_us, 10.0);
  EXPECT_DOUBLE_EQ(digest.p95_us, 1000.0);
  EXPECT_DOUBLE_EQ(digest.p99_us, 1000.0);
  EXPECT_DOUBLE_EQ(digest.max_us, 1000.0);
}

TEST(MergeReservoirsTest, BusyThreadsOutweighIdleOnes) {
  // Thread A saw 1000 observations of 5µs but retains only 4 samples;
  // thread B saw 4 observations of 100µs and retains all of them. Plain
  // concatenation would put the median between the two populations;
  // weighting each retained sample by count/size keeps the percentiles
  // with the busy thread, and only the exact max reflects the idle one.
  std::vector<LatencyReservoir> parts;
  parts.emplace_back(4, 1);
  parts.emplace_back(4, 2);
  for (int i = 0; i < 1000; ++i) parts[0].Add(5.0);
  for (int i = 0; i < 4; ++i) parts[1].Add(100.0);

  const LatencyDigest digest = MergeReservoirs(parts);
  EXPECT_EQ(digest.count, 1004u);
  EXPECT_DOUBLE_EQ(digest.p50_us, 5.0);
  EXPECT_DOUBLE_EQ(digest.p99_us, 5.0);  // 0.99 * 1004 < weight of the 5s
  EXPECT_DOUBLE_EQ(digest.max_us, 100.0);
}

TEST(MergeReservoirsTest, PercentilesAreMonotone) {
  std::vector<LatencyReservoir> parts;
  for (std::uint64_t t = 0; t < 4; ++t) parts.emplace_back(128, t + 1);
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    parts[i % 4].Add(static_cast<double>(rng.NextBounded(100000)) / 7.0);
  }
  const LatencyDigest digest = MergeReservoirs(parts);
  EXPECT_EQ(digest.count, 20000u);
  EXPECT_GT(digest.p50_us, 0.0);
  EXPECT_LE(digest.p50_us, digest.p95_us);
  EXPECT_LE(digest.p95_us, digest.p99_us);
  EXPECT_LE(digest.p99_us, digest.max_us);
}

// ---------------------------------------------------------------------------
// The drivers' contract.

enum class Driver { kPerTxn, kEpoch };

std::string DriverName(const ::testing::TestParamInfo<Driver>& info) {
  return info.param == Driver::kPerTxn ? "PerTxn" : "Epoch";
}

ExecutorStats RunDriver(Driver driver, ConcurrencyController& cc,
                        const Workload& workload, std::uint64_t n,
                        const ExecutorOptions& options) {
  if (driver == Driver::kPerTxn) return RunWorkload(cc, workload, n, options);
  EpochExecutorOptions epoch;
  epoch.num_threads = options.num_threads;
  epoch.max_retries = options.max_retries;
  epoch.seed = options.seed;
  epoch.sim = options.sim;
  epoch.on_txn_done = options.on_txn_done;
  epoch.service = options.service;
  epoch.epoch_size = 4;
  return RunWorkloadEpochs(cc, workload, n, epoch);
}

// What a scripted program's body does, by stream index.
enum class Script {
  kCommit,        // OK -> committed, no aborts
  kAlwaysAbort,   // kAborted on every attempt -> failed, budget + 1 aborts
  kHardError,     // non-retryable -> failed, no aborts
  kBusyOnce,      // kBusy on the first attempt only -> committed, 1 abort
};

Script ScriptOf(std::uint64_t index) {
  return static_cast<Script>(index % 4);
}

// What the drivers did, collected under a mutex (workers make and finish
// programs concurrently): each on_txn_done count, how often each stream
// index was made, and, for scripted programs, each program's body runs.
struct Completions {
  std::mutex mu;
  std::vector<std::uint64_t> txn_done;
  std::map<std::uint64_t, int> made;
  std::map<std::uint64_t, std::shared_ptr<int>> body_runs;

  void Wire(ExecutorOptions& options) {
    options.on_txn_done = [this](std::uint64_t done) {
      std::lock_guard<std::mutex> lock(mu);
      txn_done.push_back(done);
    };
  }

  void Made(std::uint64_t index, std::shared_ptr<int> runs = nullptr) {
    std::lock_guard<std::mutex> lock(mu);
    ++made[index];
    if (runs) body_runs[index] = std::move(runs);
  }

  void ExpectEachOnce(std::uint64_t n) {
    std::vector<std::uint64_t> sorted = txn_done;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::uint64_t> expected(n);
    for (std::uint64_t i = 0; i < n; ++i) expected[i] = i + 1;
    EXPECT_EQ(sorted, expected);
    EXPECT_EQ(made.size(), n);
    for (const auto& [index, times] : made) {
      EXPECT_LT(index, n);
      EXPECT_EQ(times, 1) << "program " << index;
    }
  }
};

// Programs whose bodies touch no data and return their scripted status.
// Classes cycle over the hierarchy's classes plus ad-hoc read-only, so
// every per-class row is populated.
class ScriptedWorkload : public Workload {
 public:
  ScriptedWorkload(int num_classes, Completions* seen)
      : num_classes_(num_classes), seen_(seen) {}

  TxnProgram Make(std::uint64_t index, Rng&) const override {
    TxnProgram p;
    const int slot = static_cast<int>((index / 4) %
                                      static_cast<std::uint64_t>(
                                          num_classes_ + 1));
    if (slot == num_classes_) {
      p.options.read_only = true;
    } else {
      p.options.txn_class = static_cast<ClassId>(slot);
    }
    auto calls = std::make_shared<int>(0);
    seen_->Made(index, calls);
    const Script script = ScriptOf(index);
    p.body = [script, calls](ConcurrencyController&,
                             const TxnDescriptor&) -> Status {
      const int call = (*calls)++;
      switch (script) {
        case Script::kCommit:
          return Status::OK();
        case Script::kAlwaysAbort:
          return Status::Aborted("scripted abort");
        case Script::kHardError:
          return Status::InvalidArgument("scripted hard error");
        case Script::kBusyOnce:
          return call == 0 ? Status::Busy("scripted busy") : Status::OK();
      }
      return Status::OK();
    };
    return p;
  }

 private:
  int num_classes_;
  Completions* seen_;
};

// Forwards to `inner`, recording each stream index it is asked to make.
class RecordingWorkload : public Workload {
 public:
  RecordingWorkload(const Workload& inner, Completions* seen)
      : inner_(inner), seen_(seen) {}

  TxnProgram Make(std::uint64_t index, Rng& rng) const override {
    seen_->Made(index);
    return inner_.Make(index, rng);
  }

 private:
  const Workload& inner_;
  Completions* seen_;
};

void ExpectRowsSumToTotals(const ExecutorStats& stats) {
  PerClassStats sum;
  for (const auto& [cls, row] : stats.per_class) {
    sum.committed += row.committed;
    sum.aborted_attempts += row.aborted_attempts;
    sum.failed += row.failed;
    sum.crashed += row.crashed;
  }
  EXPECT_EQ(sum.committed, stats.committed);
  EXPECT_EQ(sum.aborted_attempts, stats.aborted_attempts);
  EXPECT_EQ(sum.failed, stats.failed);
  EXPECT_EQ(sum.crashed, stats.crashed);
}

struct HddFixture {
  explicit HddFixture(int depth) {
    SyntheticWorkloadParams params;
    params.depth = depth;
    params.granules_per_segment = 4;
    workload = std::make_unique<SyntheticWorkload>(params);
    Result<HierarchySchema> created = HierarchySchema::Create(workload->Spec());
    EXPECT_TRUE(created.ok()) << created.status();
    schema.emplace(std::move(*created));
    db = workload->MakeDatabase();
  }

  std::unique_ptr<SyntheticWorkload> workload;
  std::optional<HierarchySchema> schema;
  std::unique_ptr<Database> db;
};

class DriverContract : public ::testing::TestWithParam<Driver> {};

TEST_P(DriverContract, ScriptedOutcomesAreCountedOnce) {
  constexpr int kDepth = 3;
  constexpr std::uint64_t kPrograms = 96;
  constexpr int kMaxRetries = 3;
  HddFixture fx(kDepth);
  LogicalClock clock;
  HddController cc(fx.db.get(), &clock, &*fx.schema);
  Completions seen;
  ScriptedWorkload workload(kDepth, &seen);

  ExecutorOptions options;
  options.num_threads = 3;
  options.max_retries = kMaxRetries;
  seen.Wire(options);
  const ExecutorStats stats =
      RunDriver(GetParam(), cc, workload, kPrograms, options);

  EXPECT_EQ(stats.committed + stats.failed + stats.crashed, kPrograms);
  EXPECT_EQ(stats.committed, kPrograms / 2);  // kCommit + kBusyOnce
  EXPECT_EQ(stats.failed, kPrograms / 2);     // kAlwaysAbort + kHardError
  EXPECT_EQ(stats.crashed, 0u);
  EXPECT_EQ(stats.aborted_attempts,
            kPrograms / 4 * (kMaxRetries + 1) + kPrograms / 4);
  ExpectRowsSumToTotals(stats);
  // Every class, read-only included, got its own row.
  EXPECT_EQ(stats.per_class.size(), static_cast<std::size_t>(kDepth + 1));
  EXPECT_EQ(stats.per_class.count(kReadOnlyClass), 1u);

  seen.ExpectEachOnce(kPrograms);
  ASSERT_EQ(seen.body_runs.size(), kPrograms);
  for (const auto& [index, runs] : seen.body_runs) {
    int expected = 1;  // kCommit, kHardError
    if (ScriptOf(index) == Script::kAlwaysAbort) expected = kMaxRetries + 1;
    if (ScriptOf(index) == Script::kBusyOnce) expected = 2;
    EXPECT_EQ(*runs, expected) << "program " << index;
  }
}

TEST_P(DriverContract, ServiceSeesWorkersDoneAndReturns) {
  HddFixture fx(2);
  LogicalClock clock;
  HddController cc(fx.db.get(), &clock, &*fx.schema);
  Completions seen;
  ScriptedWorkload workload(2, &seen);

  ExecutorOptions options;
  options.num_threads = 2;
  options.max_retries = 1;
  std::atomic<bool> saw_done{false};
  std::atomic<std::uint64_t> steps{0};
  options.service = [&](const std::atomic<bool>& workers_done) {
    while (!workers_done.load()) {
      steps.fetch_add(1);
      std::this_thread::yield();
    }
    saw_done.store(true);
  };
  const ExecutorStats stats = RunDriver(GetParam(), cc, workload, 24, options);
  EXPECT_TRUE(saw_done.load());
  EXPECT_EQ(stats.committed + stats.failed + stats.crashed, 24u);
}

TEST_P(DriverContract, SimulatedFaultsKeepTheTallyExact) {
  // The synthetic HDD mix under injected aborts, mid-transaction crashes
  // and stalls: crashes must be counted once, like every other outcome,
  // and the service task must see the shutdown flag from inside the
  // schedule.
  FaultInjectorConfig faults;
  faults.abort_prob = 0.15;
  faults.crash_prob = 0.05;
  faults.stall_prob = 0.15;
  std::uint64_t crashed = 0;
  std::uint64_t completed_runs = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SimScheduler::Options sopts;
    sopts.seed = seed;
    sopts.faults = faults;
    SimScheduler sched(sopts);
    SyntheticWorkloadParams params;
    params.depth = 3;
    params.granules_per_segment = 3;
    params.read_only_fraction = 0.3;
    SyntheticWorkload workload(params);
    Result<HierarchySchema> schema = HierarchySchema::Create(workload.Spec());
    ASSERT_TRUE(schema.ok()) << schema.status();
    auto db = workload.MakeDatabase();
    SimClock clock(&sched);
    HddController cc(db.get(), &clock, &*schema);

    constexpr std::uint64_t kPrograms = 9;
    ExecutorOptions options;
    options.num_threads = 3;
    options.max_retries = 50;
    options.seed = 77;
    options.sim = &sched;
    Completions seen;
    seen.Wire(options);
    const RecordingWorkload recorded(workload, &seen);
    bool saw_done = false;
    options.service = [&](const std::atomic<bool>& workers_done) {
      while (!workers_done.load()) SimYield("test/service", false);
      saw_done = true;
    };
    const ExecutorStats stats =
        RunDriver(GetParam(), cc, recorded, kPrograms, options);
    if (sched.halted()) continue;  // a deadlock finding is the sim's report
    ++completed_runs;
    EXPECT_TRUE(saw_done) << "seed " << seed;
    EXPECT_EQ(stats.committed + stats.failed + stats.crashed, kPrograms)
        << "seed " << seed;
    ExpectRowsSumToTotals(stats);
    seen.ExpectEachOnce(kPrograms);
    crashed += stats.crashed;
  }
  EXPECT_GT(completed_runs, 10u);
  EXPECT_GT(crashed, 0u) << "no injected crash reached the tally";
}

INSTANTIATE_TEST_SUITE_P(Drivers, DriverContract,
                         ::testing::Values(Driver::kPerTxn, Driver::kEpoch),
                         DriverName);

}  // namespace
}  // namespace hdd
