#ifndef HDD_COMMON_METRICS_H_
#define HDD_COMMON_METRICS_H_

#include <cstdint>
#include <map>
#include <string>

#include "obs/metrics_registry.h"

namespace hdd {

/// Counters every concurrency controller reports. These quantify the
/// paper's headline claim — how much *read registration* (read locks /
/// read timestamps) and how much waiting/aborting each technique incurs.
///
/// The struct is a facade over a MetricsRegistry (src/obs/): each field
/// is a named, striped registry counter, so the same numbers are
/// reachable by name (reports, tables, the sim harness) and the fields
/// keep their historical atomic-like API (`.fetch_add()` / `.load()`).
struct CcMetrics {
  MetricsRegistry registry;

  // Registration overhead.
  Counter& read_locks_acquired = registry.GetCounter("read_locks_acquired");
  Counter& write_locks_acquired = registry.GetCounter("write_locks_acquired");
  Counter& read_timestamps_written =
      registry.GetCounter("read_timestamps_written");
  Counter& unregistered_reads =
      registry.GetCounter("unregistered_reads");  // HDD Protocol A/C reads.

  // Conflict outcomes.
  Counter& blocked_reads = registry.GetCounter("blocked_reads");
  Counter& blocked_writes = registry.GetCounter("blocked_writes");
  Counter& aborts = registry.GetCounter("aborts");
  Counter& deadlocks = registry.GetCounter("deadlocks");

  // Transaction outcomes.
  Counter& commits = registry.GetCounter("commits");
  Counter& begins = registry.GetCounter("begins");

  // Versioned-store activity.
  Counter& versions_created = registry.GetCounter("versions_created");
  Counter& version_reads = registry.GetCounter("version_reads");

  // Epoch/batch execution (HDD): closed epochs, and how often a
  // Protocol A bound was served from the per-epoch shared cache vs
  // evaluated on demand.
  Counter& epochs = registry.GetCounter("epochs");
  Counter& epoch_shared_bound_hits =
      registry.GetCounter("epoch_shared_bound_hits");
  Counter& epoch_shared_bound_misses =
      registry.GetCounter("epoch_shared_bound_misses");

  void Reset() { registry.Reset(); }

  /// Flattens into name -> value, for table printers and tests.
  std::map<std::string, std::uint64_t> ToMap() const {
    return registry.SnapshotCounters();
  }
};

/// Counters of the durability subsystem (src/wal/). The interesting ratio
/// is fsyncs per commit: group commit exists to push it far below 1.
/// Facade over a MetricsRegistry, like CcMetrics; the batch-size
/// histogram is a registry histogram whose log-linear buckets aggregate
/// exactly into the historical power-of-two "batch_size_ge_<n>" keys.
struct WalMetrics {
  MetricsRegistry registry;

  Counter& records_appended = registry.GetCounter("records_appended");
  Counter& bytes_appended = registry.GetCounter("bytes_appended");
  Counter& fsyncs = registry.GetCounter("fsyncs");
  /// Commits that waited for durability, read-only ones included: one per
  /// blocking wait or parked ack (WalManager::DeferWait), however many
  /// commits a sync covers.
  Counter& commit_waits = registry.GetCounter("commit_waits");
  /// Group-commit leader rounds, i.e. fsync batches.
  Counter& group_commit_batches = registry.GetCounter("group_commit_batches");
  /// Commits made durable per leader round.
  Histogram& batch_size = registry.GetHistogram("batch_size");
  Counter& checkpoints = registry.GetCounter("checkpoints");
  Counter& recovery_replayed_records =
      registry.GetCounter("recovery_replayed_records");
  Counter& recovery_replay_us = registry.GetCounter("recovery_replay_us");

  /// Legacy bucket count of the flattened batch-size histogram: bucket i
  /// counts batches of size in [2^i, 2^(i+1)), the last absorbing the
  /// tail.
  static constexpr std::size_t kBatchBuckets = 8;

  void ObserveBatch(std::uint64_t commits_in_batch) {
    group_commit_batches.Add(1);
    batch_size.Record(commits_in_batch);
  }

  void Reset() { registry.Reset(); }

  /// Flattens into name -> value; histogram buckets appear as
  /// "batch_size_ge_<lower bound>".
  std::map<std::string, std::uint64_t> ToMap() const;
};

}  // namespace hdd

#endif  // HDD_COMMON_METRICS_H_
