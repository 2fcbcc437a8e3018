// API fuzzing: hammer every controller with random — frequently invalid —
// operation sequences from several threads and assert the contract: no
// crash, sane status codes, committed results always serializable, and no
// uncommitted version left behind once everything has finished.
//
// Each fuzzer thread drives at most ONE open transaction at a time:
// blocking controllers may legitimately park a transaction behind another
// thread's (which keeps making progress), but a thread that held two of
// its own transactions could deadlock itself and hang the test.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/harness.h"
#include "engine/inventory_workload.h"
#include "hdd/hdd_controller.h"
#include "txn/dependency_graph.h"

namespace hdd {
namespace {

class FuzzTest
    : public ::testing::TestWithParam<std::tuple<ControllerKind,
                                                 std::uint64_t>> {};

TEST_P(FuzzTest, RandomOpSoup) {
  const auto [kind, seed] = GetParam();
  auto schema = HierarchySchema::Create(InventoryWorkload::Spec());
  ASSERT_TRUE(schema.ok());
  Database db(4, 4, 0);
  LogicalClock clock;
  auto cc = CreateController(kind, &db, &clock, &*schema);

  constexpr int kThreads = 3;
  constexpr int kOpsPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(seed * 101 + static_cast<std::uint64_t>(t));
      std::optional<TxnDescriptor> open;
      for (int op = 0; op < kOpsPerThread; ++op) {
        if (!open.has_value()) {
          TxnOptions options;
          if (rng.NextBool(0.15)) {
            options.read_only = true;
          } else {
            // Sometimes an invalid class on purpose.
            options.txn_class =
                static_cast<ClassId>(rng.NextInRange(-1, 5));
          }
          auto txn = cc->Begin(options);
          if (txn.ok()) {
            open = *txn;
          } else {
            EXPECT_EQ(txn.status().code(), StatusCode::kInvalidArgument);
          }
          continue;
        }
        const double roll = rng.NextDouble();
        GranuleRef ref{static_cast<SegmentId>(rng.NextInRange(0, 4)),
                       static_cast<std::uint32_t>(rng.NextInRange(0, 5))};
        if (roll < 0.35) {
          auto value = cc->Read(*open, ref);
          if (!value.ok() && value.status().IsRetryable()) {
            (void)cc->Abort(*open);
            open.reset();
          }
        } else if (roll < 0.6) {
          Status status =
              cc->Write(*open, ref,
                        static_cast<Value>(rng.NextInRange(0, 9)));
          if (status.IsRetryable()) {
            (void)cc->Abort(*open);
            open.reset();
          }
        } else if (roll < 0.85) {
          // Commit either succeeds or is a commit-time validation abort
          // (OCC); anything else is a contract violation.
          Status commit_status = cc->Commit(*open);
          EXPECT_TRUE(commit_status.ok() ||
                      commit_status.code() == StatusCode::kAborted)
              << commit_status;
          // Double-finish must be rejected, not crash.
          EXPECT_EQ(cc->Commit(*open).code(),
                    StatusCode::kFailedPrecondition);
          EXPECT_EQ(cc->Read(*open, GranuleRef{0, 0}).status().code(),
                    StatusCode::kFailedPrecondition);
          open.reset();
        } else {
          EXPECT_TRUE(cc->Abort(*open).ok());
          EXPECT_EQ(cc->Abort(*open).code(),
                    StatusCode::kFailedPrecondition);
          open.reset();
        }
      }
      if (open.has_value()) (void)cc->Abort(*open);
    });
  }
  for (auto& t : threads) t.join();

  // Contract checks after the dust settles.
  EXPECT_TRUE(CheckSerializability(cc->recorder()).serializable)
      << ControllerKindName(kind) << " seed " << seed;
  for (SegmentId s = 0; s < db.num_segments(); ++s) {
    Segment& seg = db.segment(s);
    const std::uint32_t count = seg.size();
    std::lock_guard<std::mutex> guard(seg.latch());
    for (std::uint32_t g = 0; g < count; ++g) {
      for (const Version& v : seg.granule(g).versions()) {
        EXPECT_TRUE(v.committed)
            << "leftover uncommitted version under "
            << ControllerKindName(kind);
      }
    }
  }
}

// Second round, aimed at the per-class sharded HddController: a RANDOM
// hierarchy (so class/segment shapes vary per seed), more threads than
// classes, deliberately invalid classes / scopes / wall indices, plus a
// chaos thread that releases walls, garbage-collects and runs one
// Restructure mid-flight. Everything a thread feeds the controller is a
// pure function of (seed, thread index), so a failing seed reproduces;
// the seed is in every assertion message via SCOPED_TRACE.
class HddHierarchyFuzzTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HddHierarchyFuzzTest, RandomHierarchyOpSoup) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed " + std::to_string(seed));

  // Random tree hierarchy: parent[v] < v; each class declares a random
  // subset of its ancestors as critical-path reads.
  Rng shape_rng(seed);
  const int n = static_cast<int>(shape_rng.NextInRange(2, 7));
  PartitionSpec spec;
  std::vector<int> parent(n, -1);
  for (int v = 0; v < n; ++v) {
    if (v > 0) parent[v] = static_cast<int>(shape_rng.NextBounded(v));
    spec.segment_names.push_back("S" + std::to_string(v));
    TransactionTypeSpec type;
    type.name = "class" + std::to_string(v);
    type.root_segment = v;
    for (int a = parent[v]; a != -1; a = parent[a]) {
      if (shape_rng.NextBool(0.7)) type.read_segments.push_back(a);
    }
    spec.transaction_types.push_back(type);
  }
  auto schema = HierarchySchema::Create(spec);
  ASSERT_TRUE(schema.ok()) << schema.status();

  constexpr std::uint32_t kGranules = 6;
  Database db(n, kGranules);
  LogicalClock clock;
  HddController cc(&db, &clock, &*schema);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 400;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(seed * 613 + static_cast<std::uint64_t>(t));
      std::optional<TxnDescriptor> open;
      for (int op = 0; op < kOpsPerThread; ++op) {
        if (!open.has_value()) {
          TxnOptions options;
          const double kind = rng.NextDouble();
          if (kind < 0.12) {
            options.read_only = true;  // wall read (Protocol C)
          } else if (kind < 0.20) {
            // Hosted read-only with a sometimes-bogus scope.
            options.read_only = true;
            const int host = static_cast<int>(rng.NextBounded(n));
            options.read_scope = {static_cast<SegmentId>(host)};
            for (int a = parent[host]; a != -1; a = parent[a]) {
              options.read_scope.push_back(static_cast<SegmentId>(a));
            }
            if (rng.NextBool(0.3)) {
              options.read_scope.push_back(
                  static_cast<SegmentId>(rng.NextInRange(0, n + 2)));
            }
          } else if (kind < 0.26) {
            // Time travel against a possibly-invalid wall index.
            options.read_only = true;
            options.as_of_wall = static_cast<int>(rng.NextInRange(-1, 4));
          } else {
            // Update txn; sometimes an invalid class on purpose.
            options.txn_class =
                static_cast<ClassId>(rng.NextInRange(-1, n + 1));
          }
          auto txn = cc.Begin(options);
          if (txn.ok()) {
            open = *txn;
          } else {
            // Bad class/scope → InvalidArgument; a wall index that does
            // not exist (yet) or whose versions were GC'd →
            // FailedPrecondition. Nothing else is acceptable.
            EXPECT_TRUE(txn.status().code() ==
                            StatusCode::kInvalidArgument ||
                        txn.status().code() ==
                            StatusCode::kFailedPrecondition)
                << txn.status();
          }
          continue;
        }
        const double roll = rng.NextDouble();
        GranuleRef ref{static_cast<SegmentId>(rng.NextInRange(0, n + 1)),
                       static_cast<std::uint32_t>(
                           rng.NextInRange(0, kGranules + 1))};
        if (roll < 0.40) {
          auto value = cc.Read(*open, ref);
          // A collection must never prune what a live reader still
          // selects; the read paths report that as Internal.
          EXPECT_NE(value.status().code(), StatusCode::kInternal)
              << value.status() << ", seed " << seed;
          if (!value.ok() && value.status().IsRetryable()) {
            (void)cc.Abort(*open);
            open.reset();
          }
        } else if (roll < 0.62) {
          Status status = cc.Write(
              *open, ref, static_cast<Value>(rng.NextInRange(0, 9)));
          if (status.IsRetryable()) {
            (void)cc.Abort(*open);
            open.reset();
          }
        } else if (roll < 0.86) {
          Status commit_status = cc.Commit(*open);
          EXPECT_TRUE(commit_status.ok() ||
                      commit_status.code() == StatusCode::kAborted)
              << commit_status;
          EXPECT_EQ(cc.Commit(*open).code(),
                    StatusCode::kFailedPrecondition);
          open.reset();
        } else {
          EXPECT_TRUE(cc.Abort(*open).ok());
          open.reset();
        }
      }
      if (open.has_value()) (void)cc.Abort(*open);
    });
  }
  // Chaos thread: wall releases, GC and one Restructure while the soup is
  // running. None of these may crash, deadlock or break serializability.
  std::thread chaos([&] {
    Rng rng(seed * 7717);
    bool restructured = false;
    while (!done.load(std::memory_order_relaxed)) {
      const double roll = rng.NextDouble();
      if (roll < 0.45) {
        (void)cc.ReleaseNewWall();
      } else if (roll < 0.75) {
        (void)cc.CollectGarbage();
      } else if (!restructured && n >= 2) {
        // Make "write two random segments at once" legal: merges their
        // classes, draining only the affected ones.
        restructured = true;
        const SegmentId a = static_cast<SegmentId>(rng.NextBounded(n));
        const SegmentId b = static_cast<SegmentId>(rng.NextBounded(n));
        (void)cc.Restructure({a, b}, {});
      } else {
        (void)cc.SafeGcHorizon();
      }
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) t.join();
  done.store(true, std::memory_order_relaxed);
  chaos.join();

  EXPECT_TRUE(CheckSerializability(cc.recorder()).serializable)
      << "hdd random-hierarchy fuzz, seed " << seed;
  for (SegmentId s = 0; s < db.num_segments(); ++s) {
    Segment& seg = db.segment(s);
    const std::uint32_t count = seg.size();
    std::lock_guard<std::mutex> guard(seg.latch());
    for (std::uint32_t g = 0; g < count; ++g) {
      for (const Version& v : seg.granule(g).versions()) {
        EXPECT_TRUE(v.committed)
            << "leftover uncommitted version, seed " << seed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HddHierarchyFuzzTest,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

INSTANTIATE_TEST_SUITE_P(
    Soup, FuzzTest,
    ::testing::Combine(::testing::ValuesIn(AllControllerKinds()),
                       ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<
        std::tuple<ControllerKind, std::uint64_t>>& info) {
      std::string name(ControllerKindName(std::get<0>(info.param)));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace hdd
