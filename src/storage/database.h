#ifndef HDD_STORAGE_DATABASE_H_
#define HDD_STORAGE_DATABASE_H_

#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/granule.h"
#include "storage/version.h"

namespace hdd {

class WalManager;

/// A data segment with its segment controller's latch. "Every data segment
/// is controlled by a segment controller which supervises accesses to data
/// granules within that segment" (paper §4.2); the latch serializes
/// version-chain manipulation, while the *ordering* decisions live in the
/// concurrency controllers.
class Segment {
 public:
  explicit Segment(std::string name) : name_(std::move(name)) {}

  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  const std::string& name() const { return name_; }

  /// Number of granules currently allocated.
  std::uint32_t size() const;

  /// Appends a granule initialized with `initial`; returns its index.
  /// Models record insertion (the paper's type-1 transactions insert event
  /// records): an insert is a write to a freshly allocated granule.
  std::uint32_t Allocate(Value initial);

  Granule& granule(std::uint32_t index);
  const Granule& granule(std::uint32_t index) const;

  /// Segment-controller latch. Public so controllers can hold it across a
  /// read-decide-write sequence on a chain.
  std::mutex& latch() const { return latch_; }

 private:
  std::string name_;
  mutable std::mutex latch_;
  // deque: stable addresses under Allocate.
  std::deque<Granule> granules_;
};

/// The whole multi-version database: a fixed set of segments created at
/// construction, each pre-populated with `granules_per_segment` granules.
class Database {
 public:
  Database(std::vector<std::string> segment_names,
           std::uint32_t granules_per_segment, Value initial = 0);

  /// Convenience: segments named "D0".."Dn-1".
  Database(int num_segments, std::uint32_t granules_per_segment,
           Value initial = 0);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  int num_segments() const { return static_cast<int>(segments_.size()); }
  Segment& segment(SegmentId s) { return *segments_[s]; }
  const Segment& segment(SegmentId s) const { return *segments_[s]; }

  /// Validates that `ref` addresses an existing granule.
  Status Validate(GranuleRef ref) const;

  Granule& granule(GranuleRef ref) {
    return segment(ref.segment).granule(ref.index);
  }

  /// Total number of versions across all granules (observability/GC).
  std::size_t TotalVersions() const;

  /// §7.3 garbage collection of one segment: prunes its granules against
  /// `horizon` (see Granule::Prune) under the segment's latch and returns
  /// the number of versions removed. The horizon must be safe for every
  /// live reader; HddController::CollectGarbage is the caller that
  /// computes one, segment by segment while other segments keep running.
  std::size_t CollectGarbageSegment(SegmentId s, Timestamp horizon);

  /// Optional durability hookup (src/wal/): controllers that find a WAL
  /// attached log writes/commits/aborts through it. The database does not
  /// own the manager; the caller keeps it alive for the database's
  /// lifetime. nullptr (the default) means "run without durability" —
  /// every pre-WAL configuration keeps working unchanged.
  void AttachWal(WalManager* wal) { wal_ = wal; }
  WalManager* wal() const { return wal_; }

 private:
  std::vector<std::unique_ptr<Segment>> segments_;
  WalManager* wal_ = nullptr;
};

}  // namespace hdd

#endif  // HDD_STORAGE_DATABASE_H_
