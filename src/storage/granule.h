#ifndef HDD_STORAGE_GRANULE_H_
#define HDD_STORAGE_GRANULE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "storage/version.h"

namespace hdd {

/// A data granule: "the smallest unit of access so far as concurrency
/// control is concerned" (paper §4.0), holding a chain of versions ordered
/// by `order_key`.
///
/// Granules are not internally synchronized; the owning segment's
/// controller serializes access (paper §4.2).
class Granule {
 public:
  /// Starts with one committed initial version (order_key 0, wts 0) so
  /// that every read of a fresh database finds a version.
  explicit Granule(Value initial);

  std::size_t num_versions() const { return versions_.size(); }
  const std::vector<Version>& versions() const { return versions_; }

  /// Latest committed version with `wts < bound` — the paper's
  ///   Max(TS(d^v)) s.t. TS(d^v) < bound
  /// served by Protocols A and C. Returns nullptr when none exists. A
  /// binary search on a wts-ordered chain (see wts_ordered_), a scan
  /// otherwise.
  const Version* LatestCommittedBefore(Timestamp bound) const;

  /// Latest committed version overall; nullptr when none.
  const Version* LatestCommitted() const;

  /// Version with the largest wts strictly below `ts`, committed or not —
  /// what MVTO must read (possibly waiting for commit). nullptr if none.
  /// Searched like LatestCommittedBefore.
  Version* VersionBefore(Timestamp ts);

  /// Version with the largest order_key (the tip of the chain).
  Version* Latest();
  const Version* Latest() const;

  /// Version with the largest wts at or below any bound among *all*
  /// versions, used to detect late writes under MVTO: returns the largest
  /// registered rts among versions with wts < ts. A scan even on a
  /// wts-ordered chain: the maximum runs over the whole prefix below `ts`,
  /// not one version, and narrowing it to the nearest version would change
  /// which writes abort.
  Timestamp MaxRtsOfVersionsBefore(Timestamp ts) const;

  /// Smallest wts strictly greater than `ts` among committed versions;
  /// kTimestampInfinity when none. (Successor probe for MVTO writes.)
  Timestamp NextWtsAfter(Timestamp ts) const;

  /// Inserts a version keeping the chain sorted by order_key. Fails with
  /// AlreadyExists on a duplicate order_key.
  Status Insert(Version v);

  /// Removes the version with this order_key (abort path). Fails with
  /// NotFound when absent.
  Status Remove(std::uint64_t order_key);

  /// Marks the version with this order_key committed.
  Status MarkCommitted(std::uint64_t order_key);

  /// Finds a version by order_key; nullptr when absent.
  Version* Find(std::uint64_t order_key);
  const Version* Find(std::uint64_t order_key) const;

  /// Replaces the whole chain (snapshot restore / recovery tooling).
  /// `versions` must be non-empty and strictly ordered by order_key.
  /// Clears commit_ticket(): restored versions are durable by construction,
  /// and a ticket from an older WAL would name a record the attached one
  /// has not issued.
  Status RestoreVersions(std::vector<Version> versions);

  /// WAL ticket of the newest commit record that marked one of this
  /// granule's versions committed; 0 when none did since the granule was
  /// built or restored. Every version committed here is durable once this
  /// ticket is, which is all a remote reader of the granule waits for.
  /// Set under the owning class's shard latch (HddController).
  std::uint64_t commit_ticket() const { return commit_ticket_; }
  void set_commit_ticket(std::uint64_t ticket) { commit_ticket_ = ticket; }

  /// Garbage-collects committed versions that can no longer be read: every
  /// committed version older (by wts) than the newest committed version
  /// with `wts < horizon` is dropped; that newest one is retained as the
  /// snapshot base. Uncommitted versions are always retained. Returns the
  /// number of versions removed. (Paper §7.3.)
  std::size_t Prune(Timestamp horizon);

 private:
  std::vector<Version> versions_;  // sorted by order_key ascending
  /// True while every version was inserted with order_key == wts (HDD,
  /// MVTO, TO, SDD-1 and recovery key versions by I(t)), so the chain is
  /// also sorted by wts and lookups by wts may binary-search. Cleared for
  /// good by the first other insert (2PL, serial and OCC key by write
  /// sequence and stamp wts at commit); RestoreVersions recomputes it.
  bool wts_ordered_ = true;
  std::uint64_t commit_ticket_ = 0;
};

}  // namespace hdd

#endif  // HDD_STORAGE_GRANULE_H_
