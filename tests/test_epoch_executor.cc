// Epoch/batch execution engine, tier-1 coverage:
//  * BuildEpochGraph orders exactly the declared same-class conflicts of a
//    batch (w-w, w-r, r-w), skips read-only and cross-class pairs, and the
//    mutation canary drops precisely the first edge.
//  * Admission/retry semantics: retryable aborts are re-admitted in a
//    later epoch; the retry budget turns a persistent abort into one
//    failed program without poisoning the rest of the stream.
//  * The epoch-parallel execution of a deterministic conflicting workload
//    leaves the database byte-identical to a serial run in admission
//    order (the dependency graph IS the serialization order).
//  * Property test: on seeded random hierarchies, every Protocol A bound
//    served from the per-epoch shared cache equals an independent per-txn
//    evaluation A_i^j(m_e) byte-for-byte, and the cache fills each
//    (class, class) pair exactly once.
//
// Every test builds its HddController on the heap and binds `cc` to it.
// libstdc++'s std::mutex has no destructor that ThreadSanitizer sees, so
// a controller on the main thread's stack would leave its mutexes'
// lock-order history at that address, and a later test's controller in
// the same stack slot would inherit it: TSan then reports an inversion
// whose cycle joins two tests' mutexes. Freeing heap memory resets TSan's
// state for that memory.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/epoch_executor.h"
#include "engine/synthetic_workload.h"
#include "hdd/hdd_controller.h"
#include "txn/dependency_graph.h"

namespace hdd {
namespace {

TxnProgram UpdateProgram(ClassId cls, std::vector<GranuleRef> reads,
                         std::vector<GranuleRef> writes) {
  TxnProgram p;
  p.options.txn_class = cls;
  p.declared_reads = std::move(reads);
  p.declared_writes = std::move(writes);
  p.body = [](ConcurrencyController&, const TxnDescriptor&) {
    return Status::OK();
  };
  return p;
}

std::vector<const TxnProgram*> Ptrs(const std::vector<TxnProgram>& batch) {
  std::vector<const TxnProgram*> out;
  for (const TxnProgram& p : batch) out.push_back(&p);
  return out;
}

TEST(EpochGraph, OrdersDeclaredSameClassConflicts) {
  std::vector<TxnProgram> batch;
  batch.push_back(UpdateProgram(0, {{0, 1}}, {{0, 2}}));  // 0: r1 w2
  batch.push_back(UpdateProgram(0, {{0, 2}}, {{0, 3}}));  // 1: r2 w3 (r-w 0)
  batch.push_back(UpdateProgram(0, {}, {{0, 2}}));        // 2: w2 (w-w 0, w-r 1)
  batch.push_back(UpdateProgram(0, {{0, 9}}, {{0, 8}}));  // 3: disjoint
  EpochGraph g = BuildEpochGraph(Ptrs(batch));

  ASSERT_EQ(g.successors.size(), 4u);
  EXPECT_EQ(g.num_edges, 3u);
  EXPECT_EQ(g.successors[0], (std::vector<int>{1, 2}));
  EXPECT_EQ(g.successors[1], (std::vector<int>{2}));
  EXPECT_TRUE(g.successors[2].empty());
  EXPECT_TRUE(g.successors[3].empty());
  EXPECT_EQ(g.indegree, (std::vector<int>{0, 1, 2, 0}));
}

TEST(EpochGraph, SkipsReadOnlyAndCrossClassPairs) {
  std::vector<TxnProgram> batch;
  batch.push_back(UpdateProgram(0, {}, {{0, 5}}));
  // Same granule index, different class root segment: Protocol A/B never
  // puts these in the same version chain, so no edge.
  batch.push_back(UpdateProgram(1, {}, {{1, 5}}));
  TxnProgram ro;
  ro.options.read_only = true;
  ro.body = [](ConcurrencyController&, const TxnDescriptor&) {
    return Status::OK();
  };
  batch.push_back(std::move(ro));
  batch.push_back(UpdateProgram(0, {{0, 5}}, {}));  // w-r with 0

  EpochGraph g = BuildEpochGraph(Ptrs(batch));
  EXPECT_EQ(g.num_edges, 1u);
  EXPECT_EQ(g.successors[0], (std::vector<int>{3}));
  EXPECT_TRUE(g.successors[1].empty());
  EXPECT_TRUE(g.successors[2].empty());
  EXPECT_EQ(g.indegree, (std::vector<int>{0, 0, 0, 1}));
}

TEST(EpochGraph, MutationCanaryDropsExactlyTheFirstEdge) {
  std::vector<TxnProgram> batch;
  batch.push_back(UpdateProgram(0, {}, {{0, 1}}));
  batch.push_back(UpdateProgram(0, {{0, 1}}, {{0, 2}}));  // first edge 0->1
  batch.push_back(UpdateProgram(0, {{0, 2}}, {}));        // edge 1->2
  EpochGraph sound = BuildEpochGraph(Ptrs(batch));
  EpochGraph mutated = BuildEpochGraph(Ptrs(batch), /*skip_first_edge=*/true);

  EXPECT_EQ(sound.num_edges, 2u);
  EXPECT_EQ(mutated.num_edges, 1u);
  EXPECT_TRUE(mutated.successors[0].empty());
  EXPECT_EQ(mutated.successors[1], (std::vector<int>{2}));
  EXPECT_EQ(mutated.indegree, (std::vector<int>{0, 0, 1}));
}

/// One-segment hierarchy: the smallest schema on which Protocol B (and
/// hence the dependency graph) carries all the weight.
PartitionSpec FlatSpec() {
  PartitionSpec spec;
  spec.segment_names = {"S0"};
  TransactionTypeSpec type;
  type.name = "class0";
  type.root_segment = 0;
  spec.transaction_types.push_back(type);
  return spec;
}

/// Serves a fixed list of programs by stream index (the epoch executor
/// draws indices 0..total-1 in admission order).
class FixedWorkload : public Workload {
 public:
  explicit FixedWorkload(std::vector<TxnProgram> programs)
      : programs_(std::move(programs)) {}

  TxnProgram Make(std::uint64_t index, Rng&) const override {
    return programs_[index % programs_.size()];
  }

  std::size_t size() const { return programs_.size(); }

 private:
  std::vector<TxnProgram> programs_;
};

TEST(EpochExecutor, CommitsEverythingAcrossEpochsAndStaysSerializable) {
  SyntheticWorkloadParams params;
  params.depth = 3;
  params.granules_per_segment = 8;
  params.own_reads = 1;
  params.own_writes = 2;
  params.upper_reads = 2;
  params.read_only_fraction = 0.2;
  SyntheticWorkload workload(params);
  auto schema = HierarchySchema::Create(workload.Spec());
  ASSERT_TRUE(schema.ok()) << schema.status();
  auto db = workload.MakeDatabase();
  LogicalClock clock;
  const auto owned =
      std::make_unique<HddController>(db.get(), &clock, &*schema);
  HddController& cc = *owned;

  EpochExecutorOptions options;
  options.num_threads = 4;
  options.epoch_size = 16;
  options.seed = 42;
  constexpr std::uint64_t kTxns = 300;
  ExecutorStats stats = RunWorkloadEpochs(cc, workload, kTxns, options);

  EXPECT_EQ(stats.committed, kTxns);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.crashed, 0u);
  // At least ceil(300 / 16) epochs, all closed again by the end.
  EXPECT_GE(stats.epochs, kTxns / options.epoch_size);
  EXPECT_EQ(stats.cc.at("epochs"), stats.epochs);
  // The batch actually shared bounds: with depth 3 every class-1/class-2
  // program evaluates upper bounds, but only the first per (class, class)
  // pair per epoch may miss.
  EXPECT_GT(stats.cc.at("epoch_shared_bound_hits"), 0u);
  EXPECT_GE(stats.cc.at("epoch_shared_bound_hits"),
            stats.cc.at("epoch_shared_bound_misses"));
  // Protocol A stays registration-free under epochs.
  EXPECT_EQ(cc.metrics().read_locks_acquired.load(), 0u);

  auto report = CheckSerializability(cc.recorder());
  EXPECT_TRUE(report.serializable)
      << "epoch execution produced a cycle of "
      << report.witness_cycle.size() << " transactions";
}

TEST(EpochExecutor, SingleWorkerEpochWithReadOnlyTxnsTerminates) {
  // Liveness regression: a read-only transaction that triggers a time-wall
  // release mid-epoch must not wait for finish events of batch update
  // transactions still sitting unexecuted in the ready queue — with one
  // worker nobody else can produce them. The controller anchors walls at
  // or below the epoch anchor, so this run must terminate.
  SyntheticWorkloadParams params;
  params.depth = 2;
  params.granules_per_segment = 4;
  params.read_only_fraction = 0.4;
  SyntheticWorkload workload(params);
  auto schema = HierarchySchema::Create(workload.Spec());
  ASSERT_TRUE(schema.ok()) << schema.status();
  auto db = workload.MakeDatabase();
  LogicalClock clock;
  const auto owned =
      std::make_unique<HddController>(db.get(), &clock, &*schema);
  HddController& cc = *owned;

  EpochExecutorOptions options;
  options.num_threads = 1;
  options.epoch_size = 8;
  options.seed = 7;
  ExecutorStats stats = RunWorkloadEpochs(cc, workload, 64, options);
  EXPECT_EQ(stats.committed, 64u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_TRUE(CheckSerializability(cc.recorder()).serializable);
}

TEST(EpochExecutor, RestructureIsBusyWhileAnEpochIsOpen) {
  // Epoch-admitted transactions run without the per-op structure gate,
  // relying on the checked BeginEpoch/Restructure exclusion: Restructure
  // must refuse (Busy) rather than swap the shard vector under a batch,
  // and must succeed again once the epoch closes.
  SyntheticWorkloadParams params;
  params.depth = 2;
  params.granules_per_segment = 4;
  SyntheticWorkload workload(params);
  auto schema = HierarchySchema::Create(workload.Spec());
  ASSERT_TRUE(schema.ok()) << schema.status();
  auto db = workload.MakeDatabase();
  LogicalClock clock;
  const auto owned =
      std::make_unique<HddController>(db.get(), &clock, &*schema);
  HddController& cc = *owned;

  auto epoch = cc.BeginEpoch();
  ASSERT_TRUE(epoch.ok()) << epoch.status();
  auto batch = cc.BeginBatch(*epoch, {TxnOptions{.txn_class = 1}});
  ASSERT_TRUE(batch.ok()) << batch.status();

  EXPECT_EQ(cc.Restructure({0, 1}, {}).status().code(), StatusCode::kBusy);

  // The gate-less operation set still works end to end: a Protocol A
  // read of the upper segment, a Protocol B write, and the commit.
  const TxnDescriptor& txn = (*batch)[0];
  ASSERT_TRUE(cc.Read(txn, GranuleRef{0, 0}).ok());
  ASSERT_TRUE(cc.Write(txn, GranuleRef{1, 0}, 7).ok());
  ASSERT_TRUE(cc.Commit(txn).ok());
  ASSERT_TRUE(cc.EndEpoch(*epoch).ok());

  auto merged = cc.Restructure({0, 1}, {});
  EXPECT_TRUE(merged.ok()) << merged.status();
}

TEST(EpochExecutor, RetryableAbortIsReadmittedInALaterEpoch) {
  auto schema = HierarchySchema::Create(FlatSpec());
  ASSERT_TRUE(schema.ok()) << schema.status();
  Database db(1, 4);
  LogicalClock clock;
  const auto owned = std::make_unique<HddController>(&db, &clock, &*schema);
  HddController& cc = *owned;

  // Program 0 refuses to run until its third attempt; everything else
  // commits immediately. All programs conflict on granule 0 so the graph
  // is a chain and admission order is fully exercised.
  auto flaky_attempts = std::make_shared<std::atomic<int>>(0);
  std::vector<TxnProgram> programs;
  for (int k = 0; k < 6; ++k) {
    TxnProgram p;
    p.options.txn_class = 0;
    p.declared_writes = {{0, 0}};
    if (k == 0) {
      p.body = [flaky_attempts](ConcurrencyController& c,
                                const TxnDescriptor& txn) -> Status {
        if (flaky_attempts->fetch_add(1) < 2) {
          return Status::Aborted("injected retryable conflict");
        }
        return c.Write(txn, {0, 0}, 1);
      };
    } else {
      p.body = [k](ConcurrencyController& c,
                   const TxnDescriptor& txn) -> Status {
        return c.Write(txn, {0, 0}, k);
      };
    }
    programs.push_back(std::move(p));
  }
  FixedWorkload workload(std::move(programs));

  EpochExecutorOptions options;
  options.num_threads = 2;
  options.epoch_size = 6;
  ExecutorStats stats = RunWorkloadEpochs(cc, workload, 6, options);

  EXPECT_EQ(stats.committed, 6u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.aborted_attempts, 2u);
  // The two retries ride in later epochs: epoch 1 with the full batch,
  // then at least two more carrying the re-admitted straggler.
  EXPECT_GE(stats.epochs, 3u);
  EXPECT_EQ(flaky_attempts->load(), 3);
  EXPECT_TRUE(CheckSerializability(cc.recorder()).serializable);
}

TEST(EpochExecutor, RetryBudgetExhaustionFailsOnlyTheHopelessProgram) {
  auto schema = HierarchySchema::Create(FlatSpec());
  ASSERT_TRUE(schema.ok()) << schema.status();
  Database db(1, 4);
  LogicalClock clock;
  const auto owned = std::make_unique<HddController>(&db, &clock, &*schema);
  HddController& cc = *owned;

  std::vector<TxnProgram> programs;
  for (int k = 0; k < 4; ++k) {
    TxnProgram p;
    p.options.txn_class = 0;
    p.declared_writes = {{0, 1}};
    if (k == 2) {
      p.body = [](ConcurrencyController&, const TxnDescriptor&) -> Status {
        return Status::Aborted("never succeeds");
      };
    } else {
      p.body = [k](ConcurrencyController& c,
                   const TxnDescriptor& txn) -> Status {
        return c.Write(txn, {0, 1}, k);
      };
    }
    programs.push_back(std::move(p));
  }
  FixedWorkload workload(std::move(programs));

  EpochExecutorOptions options;
  options.num_threads = 2;
  options.epoch_size = 4;
  options.max_retries = 3;
  ExecutorStats stats = RunWorkloadEpochs(cc, workload, 4, options);

  EXPECT_EQ(stats.committed, 3u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_GE(stats.aborted_attempts, 3u);
  EXPECT_TRUE(CheckSerializability(cc.recorder()).serializable);
}

TEST(EpochExecutor, MatchesSerialReferenceExecution) {
  // Deterministic read-modify-write programs over 4 granules: every pair
  // conflicts somewhere, so the per-epoch dependency graph must reproduce
  // admission (= timestamp) order exactly. The parallel epoch run and a
  // serial per-txn run in stream order must end in identical states.
  constexpr std::uint32_t kGranules = 4;
  constexpr std::uint64_t kTxns = 20;
  std::vector<TxnProgram> programs;
  for (std::uint64_t k = 0; k < kTxns; ++k) {
    const std::uint32_t src = static_cast<std::uint32_t>(k % kGranules);
    const std::uint32_t dst = static_cast<std::uint32_t>((k + 1) % kGranules);
    TxnProgram p;
    p.options.txn_class = 0;
    p.declared_reads = {{0, src}};
    p.declared_writes = {{0, dst}};
    p.body = [src, dst, k](ConcurrencyController& c,
                           const TxnDescriptor& txn) -> Status {
      HDD_ASSIGN_OR_RETURN(Value v, c.Read(txn, {0, src}));
      return c.Write(txn, {0, dst}, v * 3 + static_cast<Value>(k) + 1);
    };
    programs.push_back(std::move(p));
  }
  FixedWorkload workload(std::move(programs));

  auto run_epochs = [&](Database& db) {
    auto schema = HierarchySchema::Create(FlatSpec());
    EXPECT_TRUE(schema.ok()) << schema.status();
    LogicalClock clock;
    const auto owned = std::make_unique<HddController>(&db, &clock, &*schema);
    HddController& cc = *owned;
    EpochExecutorOptions options;
    options.num_threads = 3;
    options.epoch_size = 5;
    ExecutorStats stats = RunWorkloadEpochs(cc, workload, kTxns, options);
    EXPECT_EQ(stats.committed, kTxns);
    // No conflict aborts: the graph already orders every conflict, so a
    // retry would reshuffle admission order and void the comparison.
    EXPECT_EQ(stats.aborted_attempts, 0u);
    EXPECT_TRUE(CheckSerializability(cc.recorder()).serializable);
  };
  auto run_serial = [&](Database& db) {
    auto schema = HierarchySchema::Create(FlatSpec());
    EXPECT_TRUE(schema.ok()) << schema.status();
    LogicalClock clock;
    const auto owned = std::make_unique<HddController>(&db, &clock, &*schema);
    HddController& cc = *owned;
    Rng rng(1);
    for (std::uint64_t k = 0; k < kTxns; ++k) {
      TxnProgram p = workload.Make(k, rng);
      auto txn = cc.Begin(p.options);
      ASSERT_TRUE(txn.ok()) << txn.status();
      ASSERT_TRUE(p.body(cc, *txn).ok());
      ASSERT_TRUE(cc.Commit(*txn).ok());
    }
  };

  Database epoch_db(1, kGranules);
  Database serial_db(1, kGranules);
  run_epochs(epoch_db);
  run_serial(serial_db);

  for (std::uint32_t g = 0; g < kGranules; ++g) {
    const Version* a = epoch_db.granule({0, g}).LatestCommitted();
    const Version* b = serial_db.granule({0, g}).LatestCommitted();
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->value, b->value) << "granule " << g;
  }
}

/// Random TST hierarchy (same construction as the random-hierarchy stress
/// test): a random tree over 2..7 classes, each class declaring a random
/// subset of its ancestors as critical-path reads.
struct RandomHierarchy {
  PartitionSpec spec;
  std::vector<int> parent;
};

RandomHierarchy MakeRandomHierarchy(Rng& rng) {
  RandomHierarchy h;
  const int n = static_cast<int>(rng.NextInRange(2, 7));
  h.parent.assign(n, -1);
  for (int v = 1; v < n; ++v) {
    h.parent[v] = static_cast<int>(rng.NextBounded(v));
  }
  for (int v = 0; v < n; ++v) {
    h.spec.segment_names.push_back("S" + std::to_string(v));
    TransactionTypeSpec type;
    type.name = "class" + std::to_string(v);
    type.root_segment = v;
    for (int a = h.parent[v]; a != -1; a = h.parent[a]) {
      if (rng.NextBool(0.7)) type.read_segments.push_back(a);
    }
    h.spec.transaction_types.push_back(type);
  }
  return h;
}

class EpochSharedBoundsTest : public ::testing::TestWithParam<std::uint64_t> {
};

// Property: every Protocol A bound served to an epoch-admitted
// transaction equals an independent per-txn evaluation of A_i^j at the
// epoch anchor, byte for byte, and the shared cache evaluates each
// (own class, target class) pair exactly once per epoch.
TEST_P(EpochSharedBoundsTest, SharedBoundsEqualPerTxnEvaluation) {
  Rng rng(GetParam());
  for (int round = 0; round < 4; ++round) {
    // Not every random draw is TST-hierarchical (skip-level read subsets
    // can close a diamond); redraw until the schema is legal.
    RandomHierarchy h = MakeRandomHierarchy(rng);
    auto schema = HierarchySchema::Create(h.spec);
    for (int redraw = 0; !schema.ok() && redraw < 64; ++redraw) {
      h = MakeRandomHierarchy(rng);
      schema = HierarchySchema::Create(h.spec);
    }
    ASSERT_TRUE(schema.ok()) << schema.status();
    const int n = static_cast<int>(h.spec.segment_names.size());
    constexpr std::uint32_t kGranules = 4;
    Database db(n, kGranules);
    LogicalClock clock;
    HddControllerOptions copts;
    // Keep full activity history so A_i^j(m_e) can be re-evaluated after
    // the fact (idle-point trims would otherwise discard the records the
    // verification below replays).
    copts.auto_trim_history = false;
    const auto owned =
        std::make_unique<HddController>(&db, &clock, &*schema, copts);
    HddController& cc = *owned;

    // Idle update transactions begun BEFORE the epoch: active at the
    // anchor, they drag I^old below m_e so the bounds under test are
    // non-trivial. They touch no data, so they cannot interfere with the
    // epoch's delegated write checks.
    std::vector<TxnDescriptor> idlers;
    for (int c = 0; c < n; ++c) {
      if (!rng.NextBool(0.5)) continue;
      TxnOptions opts;
      opts.txn_class = c;
      auto t = cc.Begin(opts);
      ASSERT_TRUE(t.ok()) << t.status();
      idlers.push_back(*t);
    }

    auto handle = cc.BeginEpoch();
    ASSERT_TRUE(handle.ok()) << handle.status();
    EXPECT_GT(handle->id, 0u);

    // A batch of update transactions over random classes.
    std::vector<TxnOptions> batch;
    for (int k = 0; k < 8; ++k) {
      TxnOptions opts;
      opts.txn_class = static_cast<ClassId>(rng.NextBounded(n));
      batch.push_back(opts);
    }
    auto admitted = cc.BeginBatch(*handle, batch);
    ASSERT_TRUE(admitted.ok()) << admitted.status();
    ASSERT_EQ(admitted->size(), batch.size());
    for (const TxnDescriptor& txn : *admitted) {
      EXPECT_EQ(txn.epoch, handle->id);
      EXPECT_GT(txn.init_ts, handle->anchor);
    }

    // Every transaction reads its declared upper segments (Protocol A,
    // bounds come from the shared cache) and writes one own granule.
    std::set<std::pair<ClassId, ClassId>> pairs_used;
    for (const TxnDescriptor& txn : *admitted) {
      const auto& declared =
          h.spec.transaction_types[txn.txn_class].read_segments;
      for (SegmentId s : declared) {
        auto v = cc.Read(
            txn, {s, static_cast<std::uint32_t>(rng.NextBounded(kGranules))});
        ASSERT_TRUE(v.ok()) << v.status();
        pairs_used.insert({txn.txn_class, cc.ClassOfSegment(s)});
      }
      ASSERT_TRUE(cc.Write(txn,
                           {txn.txn_class, static_cast<std::uint32_t>(
                                               rng.NextBounded(kGranules))},
                           1)
                      .ok());
      ASSERT_TRUE(cc.Commit(txn).ok());
    }
    ASSERT_TRUE(cc.EndEpoch(*handle).ok());
    for (const TxnDescriptor& t : idlers) ASSERT_TRUE(cc.Abort(t).ok());

    // Replay: every unregistered epoch read must have been served at
    // exactly A_i^j(m_e) as the per-txn evaluator computes it.
    const auto identities = cc.recorder().identities();
    std::size_t checked = 0;
    for (const Step& step : cc.recorder().steps()) {
      if (step.action != Step::Action::kRead || step.registered) continue;
      if (step.bound == kTimestampMin) continue;
      const auto it = identities.find(step.txn);
      ASSERT_NE(it, identities.end());
      const ClassId own = it->second.txn_class;
      const ClassId target = cc.ClassOfSegment(step.granule.segment);
      auto direct = cc.evaluator().A(own, target, handle->anchor);
      ASSERT_TRUE(direct.ok()) << direct.status();
      EXPECT_EQ(static_cast<std::uint64_t>(step.bound),
                static_cast<std::uint64_t>(*direct))
          << "seed " << GetParam() << " round " << round << " txn "
          << step.txn << " class " << own << " -> " << target;
      ++checked;
    }
    // Single-driver run: the cache must have evaluated each pair once and
    // served every further read of the pair from the cache.
    const std::uint64_t misses =
        cc.metrics().epoch_shared_bound_misses.load();
    const std::uint64_t hits = cc.metrics().epoch_shared_bound_hits.load();
    EXPECT_EQ(misses, pairs_used.size())
        << "seed " << GetParam() << " round " << round;
    EXPECT_EQ(hits + misses, checked);
    EXPECT_TRUE(CheckSerializability(cc.recorder()).serializable);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EpochSharedBoundsTest,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

}  // namespace
}  // namespace hdd
