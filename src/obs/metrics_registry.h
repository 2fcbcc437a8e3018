#ifndef HDD_OBS_METRICS_REGISTRY_H_
#define HDD_OBS_METRICS_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hdd {

namespace obs_internal {
/// Stable per-thread stripe index (dense, assigned at first use), so the
/// common executor pattern — a handful of long-lived workers — spreads
/// across stripes instead of hashing onto the same one.
std::size_t ThreadStripe();
}  // namespace obs_internal

/// Monotone counter, striped across cache lines so concurrent writers of
/// the hot paths never contend; reads sum the stripes. Drop-in for the
/// std::atomic<uint64_t> fields it replaces (load / fetch_add / operator=
/// are provided so existing readers and tests keep working).
class Counter {
 public:
  static constexpr std::size_t kStripes = 8;

  void Add(std::uint64_t n = 1) noexcept {
    stripes_[obs_internal::ThreadStripe() & (kStripes - 1)].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t Value() const noexcept {
    std::uint64_t total = 0;
    for (const Cell& cell : stripes_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Sets the total (stripe 0 := v, others zeroed). Only meaningful while
  /// no writer is concurrently adding, e.g. tests and Reset().
  void Set(std::uint64_t v) noexcept {
    stripes_[0].value.store(v, std::memory_order_relaxed);
    for (std::size_t i = 1; i < kStripes; ++i) {
      stripes_[i].value.store(0, std::memory_order_relaxed);
    }
  }

  // --- std::atomic<uint64_t> drop-in compatibility ---
  std::uint64_t load(
      std::memory_order = std::memory_order_seq_cst) const noexcept {
    return Value();
  }
  void fetch_add(std::uint64_t n,
                 std::memory_order = std::memory_order_seq_cst) noexcept {
    Add(n);
  }
  Counter& operator=(std::uint64_t v) noexcept {
    Set(v);
    return *this;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Cell, kStripes> stripes_{};
};

/// Up/down level metric (live connection counts, queue depths): striped
/// like Counter so concurrent Add/Sub on hot paths never contend, but
/// signed — a stripe may go negative when the decrement lands on a
/// different stripe than the increment; only the merged sum is
/// meaningful, and reads clamp it at zero (a level can transiently read
/// low while an Add is in flight, never negative). Merged across shards
/// exactly like counters: sums add.
class Gauge {
 public:
  static constexpr std::size_t kStripes = 8;

  void Add(std::int64_t n = 1) noexcept {
    stripes_[obs_internal::ThreadStripe() & (kStripes - 1)].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  void Sub(std::int64_t n = 1) noexcept { Add(-n); }

  /// Merged level, clamped at zero (see class comment).
  std::uint64_t Value() const noexcept {
    std::int64_t total = 0;
    for (const Cell& cell : stripes_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total < 0 ? 0 : static_cast<std::uint64_t>(total);
  }

  /// Sets the level (stripe 0 := v, others zeroed). Like Counter::Set,
  /// only meaningful while no writer is concurrently adding.
  void Set(std::int64_t v) noexcept {
    stripes_[0].value.store(v, std::memory_order_relaxed);
    for (std::size_t i = 1; i < kStripes; ++i) {
      stripes_[i].value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::int64_t> value{0};
  };
  std::array<Cell, kStripes> stripes_{};
};

/// HDR-style log-linear histogram of non-negative integer values (the
/// unit is the caller's; latencies are recorded in microseconds by
/// convention). Each power-of-two octave splits into 16 linear
/// sub-buckets, so any quantile is exact to a relative error of 1/16.
/// Recording is wait-free: a relaxed add into a per-thread-stripe bucket;
/// reads merge the stripes into a Snapshot.
class Histogram {
 public:
  static constexpr std::size_t kSubBuckets = 16;      // per octave
  static constexpr std::size_t kBucketCount =
      kSubBuckets + (64 - 4) * kSubBuckets;           // values 0..2^64-1
  static constexpr std::size_t kRecordStripes = 4;

  void Record(std::uint64_t value) noexcept;

  /// Point-in-time merged view; also the unit of cross-histogram and
  /// cross-shard aggregation.
  struct Snapshot {
    std::vector<std::uint64_t> buckets;  // kBucketCount wide (or empty)
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;  // exact

    /// Folds another snapshot (or shard) into this one.
    void Merge(const Snapshot& other);
    /// Smallest recorded-bucket upper bound covering quantile `q` of the
    /// observations (q in [0,1]; q=0 -> lowest bucket with data).
    std::uint64_t ValueAtQuantile(double q) const;
    double Mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
  };

  Snapshot snapshot() const;
  std::uint64_t Count() const;
  void Reset() noexcept;

  /// Bucket index for a value; exposed for tests of the bucketing math.
  static std::size_t BucketIndex(std::uint64_t value) noexcept;
  /// Highest value the bucket contains (the quantile representative).
  static std::uint64_t BucketUpperBound(std::size_t index) noexcept;

 private:
  struct Stripe {
    std::array<std::atomic<std::uint64_t>, kBucketCount> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
  };
  std::array<Stripe, kRecordStripes> stripes_{};
};

/// Process- or component-scoped collection of named metrics. Lookups lock
/// a registration mutex; hot paths are expected to cache the returned
/// reference (metric objects live as long as the registry and never
/// move). The ad-hoc CcMetrics / WalMetrics structs are facades over one
/// registry each, so every counter is also reachable by name here.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// All counters, name -> value.
  std::map<std::string, std::uint64_t> SnapshotCounters() const;
  /// All gauges, name -> merged (clamped) level.
  std::map<std::string, std::uint64_t> SnapshotGauges() const;

  /// Counters and gauges plus derived histogram stats, flattened as
  /// "<name>_count", "<name>_p50", "<name>_p95", "<name>_p99",
  /// "<name>_max" — one uniform map for reports and table printers.
  std::map<std::string, std::uint64_t> Snapshot() const;

  /// Zeroes every registered metric (counters and histograms). Like
  /// Counter::Set, callers quiesce writers first.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace hdd

#endif  // HDD_OBS_METRICS_REGISTRY_H_
