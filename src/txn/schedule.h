#ifndef HDD_TXN_SCHEDULE_H_
#define HDD_TXN_SCHEDULE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/version.h"
#include "txn/transaction.h"

namespace hdd {

/// One step of a multi-version schedule: the paper's tuple
///   <transaction id, action, version of a data granule>.
struct Step {
  enum class Action { kRead, kWrite };

  TxnId txn = kInvalidTxn;
  Action action = Action::kRead;
  GranuleRef granule;
  /// Identifies the version: its order_key in the granule's chain. For a
  /// read, the version returned; for a write, the version created.
  std::uint64_t version = 0;
  /// For reads: whether the access was *registered* (read lock set or
  /// read timestamp written) — the paper's overhead unit, fed into the
  /// §7.5 message model.
  bool registered = false;
  /// For HDD Protocol A/C reads: the activity-link or time-wall bound the
  /// read was served under (the read returned the latest committed
  /// version with wts < bound). kTimestampMin when not applicable. The
  /// concurrency oracle replays these bounds against the history's
  /// committed writes to certify that every unregistered read observed a
  /// time-wall/activity-link-consistent cut.
  Timestamp bound = kTimestampMin;
  /// Global sequence number fixing the physical interleaving.
  std::uint64_t seq = 0;
};

/// Thread-safe recorder of the executed schedule S(T), plus the final fate
/// of each transaction. Controllers call it on every successful operation;
/// the serializability checker consumes the result offline.
///
/// Steps land in per-thread stripes so that concurrent workers do not
/// serialize on one mutex (the recorder sits on every controller's hot
/// path); a global atomic sequence number preserves the physical
/// interleaving, and steps() merges the stripes back into seq order.
class ScheduleRecorder {
 public:
  ScheduleRecorder() = default;

  ScheduleRecorder(const ScheduleRecorder&) = delete;
  ScheduleRecorder& operator=(const ScheduleRecorder&) = delete;

  /// Records the declared identity of a beginning transaction (class,
  /// read-only flag and initiation timestamp), for analyses that need to
  /// know which accesses crossed segment boundaries and which versions a
  /// timestamp-based read was entitled to.
  void RecordBegin(TxnId txn, ClassId txn_class, bool read_only,
                   Timestamp init_ts = kTimestampMin);

  void RecordRead(TxnId txn, GranuleRef granule, std::uint64_t version,
                  bool registered = false, Timestamp bound = kTimestampMin);
  void RecordWrite(TxnId txn, GranuleRef granule, std::uint64_t version);
  void RecordOutcome(TxnId txn, TxnState outcome);

  /// Disables (or re-enables) recording. Benchmarks disable the recorder
  /// so throughput measurements exclude audit bookkeeping; the schedule
  /// then stays empty and CheckSerializability trivially passes.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Declared identities (from RecordBegin).
  struct TxnIdentity {
    ClassId txn_class = kReadOnlyClass;
    bool read_only = false;
    Timestamp init_ts = kTimestampMin;
  };
  std::unordered_map<TxnId, TxnIdentity> identities() const;

  /// Steps merged across stripes into physical (seq) order.
  std::vector<Step> steps() const;

  /// Outcome per transaction; transactions never recorded default-map to
  /// kActive.
  std::unordered_map<TxnId, TxnState> outcomes() const;

  void Clear();

 private:
  static constexpr std::size_t kStripes = 16;

  struct alignas(64) Stripe {
    mutable std::mutex mu;
    std::vector<Step> steps;
  };

  Stripe& MyStripe();
  void Record(TxnId txn, Step::Action action, GranuleRef granule,
              std::uint64_t version, bool registered, Timestamp bound);

  std::array<Stripe, kStripes> stripes_;
  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<bool> enabled_{true};

  mutable std::mutex meta_mu_;  // outcomes_ and identities_
  std::unordered_map<TxnId, TxnState> outcomes_;
  std::unordered_map<TxnId, TxnIdentity> identities_;
};

}  // namespace hdd

#endif  // HDD_TXN_SCHEDULE_H_
