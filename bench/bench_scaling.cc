// Multi-core scaling of the per-class sharded HddController against the
// single-mutex baselines (MVTO, strict 2PL), on a cross-segment-read-heavy
// synthetic workload: the traffic Protocol A serves without registering
// reads. The schedule recorder is disabled so the measurement excludes
// audit bookkeeping. Measured t1/t2/t4 rows, and what they show, are in
// EXPERIMENTS.md ("Multi-core scaling").

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <thread>

#include "engine/banking_workload.h"
#include "engine/epoch_executor.h"
#include "engine/executor.h"
#include "engine/harness.h"
#include "engine/inventory_workload.h"
#include "engine/synthetic_workload.h"
#include "graph/auto_decompose.h"
#include "hdd/hdd_controller.h"
#include "obs/footprint.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace hdd {
namespace {

// CI smoke runs shrink the sweep via HDD_BENCH_TXNS / HDD_BENCH_THREADS
// and stabilize it via HDD_BENCH_REPS (best-of repetitions per config).
const std::uint64_t kTxnsPerRun = EnvOr("HDD_BENCH_TXNS", 4000);
const int kReps = static_cast<int>(EnvOr("HDD_BENCH_REPS", 1));
// Batch size of the hdd_epoch configuration (BeginEpoch/BeginBatch path:
// one Protocol A bound evaluation and one shard admission per class per
// epoch, conflicts pre-ordered by the dependency graph).
const std::uint64_t kEpochSize = EnvOr("HDD_BENCH_EPOCH_SIZE", 64);

SyntheticWorkload MakeWorkload() {
  SyntheticWorkloadParams params;
  params.depth = 8;  // one class per (potential) core
  params.granules_per_segment = 64;
  params.own_reads = 1;
  params.own_writes = 1;
  params.upper_reads = 4;  // the cross-segment-read-heavy part
  params.read_only_fraction = 0.0;
  return SyntheticWorkload(params);
}

struct Measurement {
  ExecutorStats stats;
  double spins_per_sec = 0.0;  // host speed adjacent to the winning rep
};

Measurement MeasureThroughput(ControllerKind kind,
                              const SyntheticWorkload& workload,
                              const HierarchySchema* schema, int threads,
                              bool epoch_mode = false) {
  Measurement best;
  NormalizedBest selector;
  for (int rep = 0; rep < kReps; ++rep) {
    auto db = workload.MakeDatabase();
    LogicalClock clock;
    auto cc = CreateController(kind, db.get(), &clock, schema);
    cc->recorder().set_enabled(false);
    ExecutorStats stats;
    if (epoch_mode) {
      EpochExecutorOptions options;
      options.num_threads = threads;
      options.epoch_size = kEpochSize;
      stats = RunWorkloadEpochs(*cc, workload, kTxnsPerRun, options);
    } else {
      ExecutorOptions options;
      options.num_threads = threads;
      stats = RunWorkload(*cc, workload, kTxnsPerRun, options);
    }
    if (selector.Offer(stats.Throughput())) best.stats = stats;
  }
  best.spins_per_sec = selector.spins_per_sec();
  return best;
}

// --- Hand vs inferred hierarchy on the example applications. -----------
//
// The automatic-decomposition acceptance bar: trace each example workload
// once, infer a hierarchy from the trace alone (segment granularity, the
// structure the controller actually runs), and measure single-thread
// throughput under both the hand-written and the inferred schema. The
// report rows feed the regression gate; the inferred structure must stay
// within a few percent of hand (>= 0.9x).

using MakeDbFn = std::function<std::unique_ptr<Database>()>;

double MeasureExampleT1(const Workload& workload,
                        const HierarchySchema& schema,
                        const MakeDbFn& make_db, std::uint64_t txns) {
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    auto db = make_db();
    LogicalClock clock;
    HddController cc(db.get(), &clock, &schema, {});
    cc.recorder().set_enabled(false);
    ExecutorOptions options;
    options.num_threads = 1;
    options.seed = 7;
    const ExecutorStats stats = RunWorkload(cc, workload, txns, options);
    best = std::max(best, stats.Throughput());
  }
  return best;
}

// Traces one run under the hand schema, infers at segment granularity,
// and rebuilds a declared spec over the physical segment ids (txn_class
// values in the workload programs are root-segment ids, so the inferred
// schema must speak the same ids). Mirrors the pipeline proven in
// tests/test_differential_decompose.cc; here it feeds the bench rows.
HierarchySchema InferExampleSchema(const Workload& workload,
                                   const HierarchySchema& hand_schema,
                                   const PartitionSpec& hand_spec,
                                   const MakeDbFn& make_db,
                                   std::uint64_t txns) {
  auto db = make_db();
  FootprintRecorder recorder;
  LogicalClock clock;
  HddControllerOptions copts;
  copts.footprint = &recorder;
  HddController cc(db.get(), &clock, &hand_schema, copts);
  cc.recorder().set_enabled(false);
  ExecutorOptions options;
  options.num_threads = 1;
  options.seed = 7;
  (void)RunWorkload(cc, workload, txns, options);

  FootprintTrace seg_trace;
  for (const RawFootprint& fp : recorder.Drain()) {
    std::vector<std::uint32_t> writes, reads;
    for (std::uint64_t p : fp.writes)
      writes.push_back(FootprintRecorder::Segment(p));
    for (std::uint64_t p : fp.reads)
      reads.push_back(FootprintRecorder::Segment(p));
    seg_trace.Add(std::move(writes), std::move(reads));
  }
  const std::uint32_t num_segments =
      static_cast<std::uint32_t>(db->num_segments());
  auto inferred = InferBestDecomposition(num_segments, seg_trace);
  if (!inferred.ok() ||
      !ValidateDecomposition(inferred->decomposition, num_segments).ok() ||
      !ValidateAgainstTrace(inferred->decomposition, seg_trace).ok()) {
    std::cerr << "inference failed: " << inferred.status() << "\n";
    std::exit(1);
  }
  PartitionSpec spec;
  spec.segment_names = hand_spec.segment_names;
  for (const TracedFootprint& type : inferred->shaping_types) {
    if (type.write_granules.size() != 1) {
      std::cerr << "traced type writes " << type.write_granules.size()
                << " physical segments — unhostable without data movement\n";
      std::exit(1);
    }
    TransactionTypeSpec t;
    t.root_segment = static_cast<SegmentId>(type.write_granules[0]);
    t.name = "inferred_" + std::to_string(spec.transaction_types.size());
    for (std::uint32_t r : type.read_granules) {
      t.read_segments.push_back(static_cast<SegmentId>(r));
    }
    spec.transaction_types.push_back(std::move(t));
  }
  auto schema = HierarchySchema::Create(spec);
  if (!schema.ok()) {
    std::cerr << "inferred spec rejected: " << schema.status() << "\n";
    std::exit(1);
  }
  return std::move(schema).value();
}

void RunHandVsInferred(RunReport& report) {
  std::cout << "\n=== hand vs inferred hierarchy, single thread ("
            << kTxnsPerRun << " txns/run) ===\n";
  std::cout << std::left << std::setw(18) << "workload" << std::right
            << std::setw(14) << "hand" << std::setw(14) << "inferred"
            << std::setw(9) << "ratio" << "   (txn/s)\n";

  BankingWorkloadParams bank_params;
  bank_params.accounts = 16;
  bank_params.deposit_weight = 0;
  bank_params.transfer_weight = 0.9;
  bank_params.audit_weight = 0.1;
  BankingWorkload bank(bank_params);

  InventoryWorkloadParams inv_params;
  inv_params.items = 8;
  inv_params.event_slots_per_item = 2;
  InventoryWorkload inventory(inv_params);

  InventoryWorkloadParams walls_params = inv_params;
  walls_params.type1_weight = 0.3;
  walls_params.type2_weight = 0.2;
  walls_params.type3_weight = 0.1;
  walls_params.type4_weight = 0.1;
  walls_params.read_only_weight = 0.3;
  InventoryWorkload walls(walls_params);

  struct Example {
    const char* name;
    const Workload& workload;
    PartitionSpec hand_spec;
    MakeDbFn make_db;
  };
  const Example examples[] = {
      {"bank_teller", bank, bank.Spec(),
       [&] { return bank.MakeDatabase(); }},
      {"inventory_app", inventory, InventoryWorkload::Spec(),
       [&] { return inventory.MakeDatabase(); }},
      {"analytics_walls", walls, InventoryWorkload::Spec(),
       [&] { return walls.MakeDatabase(); }},
  };
  for (const Example& ex : examples) {
    auto hand_schema = HierarchySchema::Create(ex.hand_spec);
    if (!hand_schema.ok()) {
      std::cerr << ex.name << ": hand spec rejected\n";
      std::exit(1);
    }
    const HierarchySchema inferred_schema = InferExampleSchema(
        ex.workload, *hand_schema, ex.hand_spec, ex.make_db, kTxnsPerRun);
    const double hand =
        MeasureExampleT1(ex.workload, *hand_schema, ex.make_db, kTxnsPerRun);
    const double inferred = MeasureExampleT1(ex.workload, inferred_schema,
                                             ex.make_db, kTxnsPerRun);
    const double ratio = hand > 0 ? inferred / hand : 0.0;
    std::cout << std::left << std::setw(18) << ex.name << std::right
              << std::setw(14) << std::fixed << std::setprecision(0) << hand
              << std::setw(14) << inferred << std::setw(8)
              << std::setprecision(2) << ratio << "x\n";
    report.AddRow(std::string(ex.name) + "_hand_t1")
        .Metric("txn_per_sec", hand);
    report.AddRow(std::string(ex.name) + "_inferred_t1")
        .Metric("txn_per_sec", inferred)
        .Metric("ratio_vs_hand", ratio);
  }
}

void Run(int argc, char** argv) {
  const SyntheticWorkload workload = MakeWorkload();
  auto schema = HierarchySchema::Create(workload.Spec());

  std::cout << "=== committed-txn throughput vs worker threads "
               "(synthetic chain depth 8, upper_reads=4, " << kTxnsPerRun
            << " txns/run) ===\n"
            << "host has " << std::thread::hardware_concurrency()
            << " hardware threads\n\n";
  std::cout << std::left << std::setw(10) << "threads" << std::right;
  for (const char* name : {"hdd", "hdd_epoch", "mvto", "2pl"}) {
    std::cout << std::setw(14) << name << std::setw(10) << "x1";
  }
  std::cout << "   (txn/s, speedup vs 1 thread)\n";

  const std::optional<std::string> trace_path = TracePathFromArgs(argc, argv);
  if (trace_path) TraceRecorder::Enable();

  RunReport report("scaling");
  // Bracketing the sweep and keeping the slower reading means a host
  // slowdown that begins mid-sweep still shows up in the reference.
  const double cal_before = CalibrationSpinsPerSec();
  // hdd appears twice: once per-txn, once under the epoch/batch executor
  // (same controller, BeginEpoch/BeginBatch admission, epoch size
  // HDD_BENCH_EPOCH_SIZE).
  constexpr ControllerKind kKinds[] = {
      ControllerKind::kHdd, ControllerKind::kHdd, ControllerKind::kMvto,
      ControllerKind::kTwoPhase};
  constexpr const char* kKindNames[] = {"hdd", "hdd_epoch", "mvto", "2pl"};
  constexpr bool kEpochMode[] = {false, true, false, false};
  double base[4] = {0, 0, 0, 0};
  for (int threads : EnvListOr("HDD_BENCH_THREADS", {1, 2, 4, 8, 16})) {
    std::cout << std::left << std::setw(10) << threads << std::right;
    for (int k = 0; k < 4; ++k) {
      const Measurement m = MeasureThroughput(kKinds[k], workload, &*schema,
                                              threads, kEpochMode[k]);
      const double tput = m.stats.Throughput();
      if (base[k] == 0) base[k] = tput;
      std::cout << std::setw(14) << std::fixed << std::setprecision(0)
                << tput << std::setw(9) << std::setprecision(2)
                << (base[k] > 0 ? tput / base[k] : 0.0) << "x";
      report
          .AddRow(std::string(kKindNames[k]) + "_t" + std::to_string(threads))
          .Metric("txn_per_sec", tput)
          .Metric("spins_per_sec", m.spins_per_sec)
          .Metric("committed", m.stats.committed)
          .Metric("aborted_attempts", m.stats.aborted_attempts)
          .Metric("latency_p95_us", m.stats.latency_p95_us);
    }
    std::cout << "\n";
  }
  RunHandVsInferred(report);
  report.AddRow("calibration")
      .Metric("spins_per_sec",
              std::min(cal_before, CalibrationSpinsPerSec()));

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
}

}  // namespace
}  // namespace hdd

int main(int argc, char** argv) {
  hdd::Run(argc, argv);
  return 0;
}
