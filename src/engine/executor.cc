#include "engine/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <vector>

#include "engine/driver.h"
#include "obs/trace.h"

namespace hdd {

ProgramResult RunProgram(ConcurrencyController& cc, const TxnProgram& program,
                         int max_retries, SimScheduler* sim) {
  HDD_TRACE_SPAN("exec", "txn");
  return RunWithRetries(cc, program.options, max_retries, sim,
                        [&](const TxnDescriptor& txn) {
                          return RunAttempt(cc, program, txn);
                        });
}

LatencyDigest MergeReservoirs(const std::vector<LatencyReservoir>& parts) {
  LatencyDigest digest;
  // Each retained sample represents count/size observations of its
  // reservoir; weighted nearest-rank percentiles over the union.
  std::vector<std::pair<double, double>> weighted;  // (value, weight)
  double total_weight = 0.0;
  for (const LatencyReservoir& part : parts) {
    digest.count += part.count();
    if (part.samples().empty()) continue;
    digest.max_us = std::max(digest.max_us, part.max_us());
    const double weight = static_cast<double>(part.count()) /
                          static_cast<double>(part.samples().size());
    for (double value : part.samples()) {
      weighted.emplace_back(value, weight);
      total_weight += weight;
    }
  }
  if (weighted.empty()) return digest;
  std::sort(weighted.begin(), weighted.end());
  auto percentile = [&](double p) {
    const double target = p * total_weight;
    double cumulative = 0.0;
    for (const auto& [value, weight] : weighted) {
      cumulative += weight;
      if (cumulative >= target) return value;
    }
    return weighted.back().first;
  };
  digest.p50_us = percentile(0.50);
  digest.p95_us = percentile(0.95);
  digest.p99_us = percentile(0.99);
  return digest;
}

ExecutorStats RunWorkload(ConcurrencyController& cc, const Workload& workload,
                          std::uint64_t total_txns,
                          const ExecutorOptions& options) {
  std::atomic<std::uint64_t> next_index{0};
  RunTally tally(options);
  return RunWorkers(cc, options, tally, [&](int worker_id) {
    Rng rng(options.seed * 7919 + static_cast<std::uint64_t>(worker_id));
    for (;;) {
      const std::uint64_t index = next_index.fetch_add(1);
      if (index >= total_txns) return;
      const TxnProgram program = workload.Make(index, rng);
      const auto t0 = std::chrono::steady_clock::now();
      const ProgramResult result =
          RunProgram(cc, program, options.max_retries, options.sim);
      tally.Finish(worker_id, program.options, result, t0);
    }
  });
}

}  // namespace hdd
