// §7.3: multi-version store maintenance. Measures version-chain growth
// without GC and the effect of collecting at different cadences using the
// controller's safe horizon, plus the cost of a collection pass.

#include <chrono>
#include <iomanip>
#include <iostream>

#include "engine/executor.h"
#include "engine/inventory_workload.h"
#include "hdd/hdd_controller.h"

namespace hdd {
namespace {

void Run() {
  std::cout << "=== section 7.3: version garbage collection ===\n\n";
  std::cout << std::left << std::setw(16) << "GC cadence" << std::right
            << std::setw(16) << "peak versions" << std::setw(16)
            << "final versions" << std::setw(14) << "pruned"
            << std::setw(16) << "gc us/pass" << "\n";

  for (int cadence : {0, 800, 400, 100}) {  // 0 = never collect
    InventoryWorkloadParams params;
    params.items = 16;
    params.read_only_weight = 0.05;
    InventoryWorkload workload(params);
    auto schema = HierarchySchema::Create(InventoryWorkload::Spec());
    auto db = workload.MakeDatabase();
    LogicalClock clock;
    HddController cc(db.get(), &clock, &*schema);

    constexpr std::uint64_t kTotal = 3200;
    std::size_t peak = 0;
    std::size_t pruned = 0;
    double gc_us = 0;
    int passes = 0;
    ExecutorOptions options;
    options.num_threads = 2;
    const std::uint64_t step = cadence == 0 ? kTotal : cadence;
    for (std::uint64_t done = 0; done < kTotal; done += step) {
      (void)RunWorkload(cc, workload, step, options);
      peak = std::max(peak, db->TotalVersions());
      if (cadence != 0) {
        (void)cc.ReleaseNewWall();  // unpin old walls before collecting
        const auto t0 = std::chrono::steady_clock::now();
        pruned += cc.CollectGarbage();
        const auto t1 = std::chrono::steady_clock::now();
        gc_us += std::chrono::duration<double, std::micro>(t1 - t0).count();
        ++passes;
      }
    }
    std::cout << std::left << std::setw(16)
              << (cadence == 0 ? std::string("never")
                               : "every " + std::to_string(cadence))
              << std::right << std::setw(16) << peak << std::setw(16)
              << db->TotalVersions() << std::setw(14) << pruned
              << std::setw(16) << std::fixed << std::setprecision(1)
              << (passes > 0 ? gc_us / passes : 0.0) << "\n";
  }
  std::cout << "\nExpected shape: without GC version count grows with "
               "every committed write; frequent GC caps the store near "
               "one live version per granule at modest per-pass cost.\n";
}

void ActivityTrimAblation() {
  std::cout << "\n--- activity-history trimming (idle-point) ablation "
               "---\n";
  std::cout << std::left << std::setw(14) << "auto_trim" << std::right
            << std::setw(22) << "history records kept" << "\n";
  for (bool auto_trim : {false, true}) {
    InventoryWorkloadParams params;
    params.items = 16;
    params.read_only_weight = 0;
    InventoryWorkload workload(params);
    auto schema = HierarchySchema::Create(InventoryWorkload::Spec());
    auto db = workload.MakeDatabase();
    LogicalClock clock;
    HddControllerOptions options;
    options.auto_trim_history = auto_trim;
    HddController cc(db.get(), &clock, &*schema, options);
    // Single worker: every commit is an idle point, the trimmer's best
    // case; multi-worker runs trim at whatever idle points occur.
    ExecutorOptions exec;
    exec.num_threads = 1;
    (void)RunWorkload(cc, workload, 2000, exec);
    std::cout << std::left << std::setw(14) << (auto_trim ? "on" : "off")
              << std::right << std::setw(22) << cc.ActivityHistorySize()
              << "\n";
  }
  std::cout << "\nExpected shape: with trimming the activity tables stay "
               "O(active txns); without, they grow with every committed "
               "transaction.\n";
}

}  // namespace
}  // namespace hdd

int main() {
  hdd::Run();
  hdd::ActivityTrimAblation();
  return 0;
}
