// The paper's Figure 2 retail-inventory application, end to end: runs the
// full transaction mix (event logging, inventory posting, reordering,
// supplier profiling, ad-hoc audits) concurrently under HDD and prints
// what the concurrency control cost.
//
// Usage: ./build/examples/inventory_app [num_txns] [threads]

#include <cstdlib>
#include <iostream>

#include "engine/executor.h"
#include "engine/inventory_workload.h"
#include "hdd/hdd_controller.h"
#include "txn/dependency_graph.h"

int main(int argc, char** argv) {
  using namespace hdd;

  const std::uint64_t total = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                       : 2000;
  const int threads = argc > 2 ? std::atoi(argv[2]) : 4;

  InventoryWorkloadParams params;
  params.items = 32;
  InventoryWorkload workload(params);

  auto schema = HierarchySchema::Create(InventoryWorkload::Spec());
  if (!schema.ok()) {
    std::cerr << schema.status() << "\n";
    return 1;
  }
  auto db = workload.MakeDatabase();
  LogicalClock clock;
  HddController cc(db.get(), &clock, &*schema);

  std::cout << "Data hierarchy graph (critical arcs):\n"
            << schema->tst().reduction().ToDot(
                   {"events", "inventory", "orders", "suppliers"});

  ExecutorOptions options;
  options.num_threads = threads;
  ExecutorStats stats = RunWorkload(cc, workload, total, options);

  std::cout << "\ncommitted " << stats.committed << " txns in "
            << stats.seconds << "s (" << stats.Throughput() << " txn/s, "
            << stats.aborted_attempts << " conflict restarts)\n";

  const CcMetrics& m = cc.metrics();
  std::cout << "read locks:            " << m.read_locks_acquired.load()
            << "\nread timestamps:       "
            << m.read_timestamps_written.load()
            << "  (root-segment Protocol B reads)"
            << "\nunregistered reads:    " << m.unregistered_reads.load()
            << "  (Protocol A cross-segment + Protocol C audits)"
            << "\nblocked reads:         " << m.blocked_reads.load()
            << "\ntime walls released:   " << cc.num_walls() << "\n";

  // Version store upkeep (paper §7.3). Release a fresh wall first so the
  // horizon is not pinned by a wall released at the start of the run.
  std::cout << "versions before GC:    " << db->TotalVersions() << "\n";
  (void)cc.ReleaseNewWall();
  (void)cc.CollectGarbage();
  std::cout << "versions after GC:     " << db->TotalVersions() << "\n";

  auto report = CheckSerializability(cc.recorder());
  std::cout << "serializable:          "
            << (report.serializable ? "yes" : "NO") << "\n";
  return report.serializable && stats.failed == 0 ? 0 : 1;
}
