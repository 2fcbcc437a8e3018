#ifndef HDD_HDD_ACTIVITY_H_
#define HDD_HDD_ACTIVITY_H_

#include <map>
#include <set>

#include "common/clock.h"
#include "common/status.h"

namespace hdd {

/// Per-transaction-class activity history powering the paper's §4.1
/// functions:
///
///   I^old(m)  — initiation time of the oldest transaction of the class
///               active at time m (or m itself when none was active);
///   C^late(m) — latest finish time among transactions of the class active
///               at time m (or m itself), §5.1. "Computable at m0" iff no
///               transaction started at or before m still runs at m0.
///
/// A transaction is *active* at m when I(t) < m and end(t) > m; aborted
/// transactions count as active until their abort — treating them as
/// active only lowers I^old, which errs on the safe (older-version) side,
/// and their end bounds C^late exactly like a commit since either way the
/// transaction is resolved.
///
/// The table keeps the full (I, end) history: the activity-link functions
/// evaluate at historical times, and dropping a record that some future
/// evaluation could stab would make I^old err *high*, which is unsound.
/// `TrimFinishedBefore` lets the owner reclaim memory once it can bound
/// future query times.
class ClassActivityTable {
 public:
  ClassActivityTable() = default;

  /// Registers a transaction initiation. Initiation times are unique
  /// (issued by one logical clock).
  void OnBegin(Timestamp init);

  /// Registers the end (commit or abort) of a transaction.
  void OnFinish(Timestamp init, Timestamp end);

  /// The paper's I^old_T(m).
  Timestamp OldestActiveAt(Timestamp m) const;

  /// The paper's C^late_T(m). Fails with kBusy when not yet computable
  /// (some transaction with I <= m is still active).
  Result<Timestamp> LatestEndAt(Timestamp m) const;

  bool ComputableAt(Timestamp m) const;

  /// Initiation time of the oldest currently-active transaction, or
  /// kTimestampInfinity when the class is idle. (GC / trim hints.)
  Timestamp OldestActiveNow() const;

  std::size_t num_active() const { return active_.size(); }
  std::size_t history_size() const { return finished_by_init_.size(); }

  /// Finished records (I -> end), for control-state checkpointing: the
  /// restarted controller replays them through OnBegin/OnFinish so
  /// post-recovery wall computations see the pre-crash history.
  const std::map<Timestamp, Timestamp>& finished() const {
    return finished_by_init_;
  }

  /// Absorbs another class's history (dynamic restructuring, §7.1.1).
  /// Timestamps are globally unique, so the unions are disjoint.
  void MergeFrom(ClassActivityTable&& other);

  /// Drops finished records with end <= ts. Safe only when the caller can
  /// guarantee no future I^old/C^late evaluation at a time < ts — e.g.
  /// during a quiescent point, or with ts below every timestamp any
  /// in-flight activity-link chain can reach.
  void TrimFinishedBefore(Timestamp ts);

 private:
  std::set<Timestamp> active_;  // initiation times
  /// I -> end, the authoritative history.
  std::map<Timestamp, Timestamp> finished_by_init_;
  /// end -> I. Stabbing queries at time m only concern records with
  /// end > m; for the common case (m near the present) that suffix is
  /// tiny, so iterating by descending-from-recent end keeps I^old and
  /// C^late near O(log n) on live workloads regardless of history size.
  std::map<Timestamp, Timestamp> finished_by_end_;
};

}  // namespace hdd

#endif  // HDD_HDD_ACTIVITY_H_
