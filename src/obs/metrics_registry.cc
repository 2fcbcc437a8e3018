#include "obs/metrics_registry.h"

#include <bit>
#include <limits>

namespace hdd {

namespace obs_internal {

std::size_t ThreadStripe() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed);
  return stripe;
}

}  // namespace obs_internal

std::size_t Histogram::BucketIndex(std::uint64_t value) noexcept {
  if (value < kSubBuckets) return static_cast<std::size_t>(value);
  const int exponent = 63 - std::countl_zero(value);  // >= 4
  const std::size_t shift = static_cast<std::size_t>(exponent - 4);
  const std::size_t sub =
      static_cast<std::size_t>((value >> shift) - kSubBuckets);
  return kSubBuckets + shift * kSubBuckets + sub;
}

std::uint64_t Histogram::BucketUpperBound(std::size_t index) noexcept {
  if (index < kSubBuckets) return index;
  const std::size_t shift = (index - kSubBuckets) / kSubBuckets;
  const std::size_t sub = (index - kSubBuckets) % kSubBuckets;
  if (shift >= 59 && sub == kSubBuckets - 1) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return ((static_cast<std::uint64_t>(kSubBuckets) + sub + 1) << shift) - 1;
}

void Histogram::Record(std::uint64_t value) noexcept {
  Stripe& stripe =
      stripes_[obs_internal::ThreadStripe() & (kRecordStripes - 1)];
  stripe.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  stripe.count.fetch_add(1, std::memory_order_relaxed);
  stripe.sum.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = stripe.max.load(std::memory_order_relaxed);
  while (value > seen && !stripe.max.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.buckets.assign(kBucketCount, 0);
  for (const Stripe& stripe : stripes_) {
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      snap.buckets[i] += stripe.buckets[i].load(std::memory_order_relaxed);
    }
    snap.count += stripe.count.load(std::memory_order_relaxed);
    snap.sum += stripe.sum.load(std::memory_order_relaxed);
    snap.max = std::max(snap.max, stripe.max.load(std::memory_order_relaxed));
  }
  return snap;
}

std::uint64_t Histogram::Count() const {
  std::uint64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    total += stripe.count.load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::Reset() noexcept {
  for (Stripe& stripe : stripes_) {
    for (auto& bucket : stripe.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    stripe.count.store(0, std::memory_order_relaxed);
    stripe.sum.store(0, std::memory_order_relaxed);
    stripe.max.store(0, std::memory_order_relaxed);
  }
}

void Histogram::Snapshot::Merge(const Snapshot& other) {
  if (other.buckets.empty()) return;
  if (buckets.empty()) buckets.assign(kBucketCount, 0);
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
}

std::uint64_t Histogram::Snapshot::ValueAtQuantile(double q) const {
  if (count == 0 || buckets.empty()) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest-rank over the merged buckets: the first bucket whose
  // cumulative count reaches ceil(q * count).
  const double exact = q * static_cast<double>(count);
  std::uint64_t rank = static_cast<std::uint64_t>(exact);
  if (static_cast<double>(rank) < exact) ++rank;
  if (rank == 0) rank = 1;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) {
      // The true maximum caps the top bucket's upper bound.
      return std::min(BucketUpperBound(i), max);
    }
  }
  return max;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::map<std::string, std::uint64_t> MetricsRegistry::SnapshotCounters()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, counter] : counters_) {
    out[name] = counter->Value();
  }
  return out;
}

std::map<std::string, std::uint64_t> MetricsRegistry::SnapshotGauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, gauge] : gauges_) {
    out[name] = gauge->Value();
  }
  return out;
}

std::map<std::string, std::uint64_t> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, counter] : counters_) {
    out[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    out[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    const Histogram::Snapshot snap = histogram->snapshot();
    out[name + "_count"] = snap.count;
    out[name + "_p50"] = snap.ValueAtQuantile(0.50);
    out[name + "_p95"] = snap.ValueAtQuantile(0.95);
    out[name + "_p99"] = snap.ValueAtQuantile(0.99);
    out[name + "_max"] = snap.max;
  }
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Set(0);
  for (auto& [name, gauge] : gauges_) gauge->Set(0);
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace hdd
