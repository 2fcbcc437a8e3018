#include "storage/granule.h"

#include <algorithm>
#include <iterator>

namespace hdd {

namespace {

bool OrderKeyLess(const Version& v, std::uint64_t key) {
  return v.order_key < key;
}

bool WtsLess(const Version& v, Timestamp ts) { return v.wts < ts; }

}  // namespace

Granule::Granule(Value initial) {
  Version v;
  v.order_key = 0;
  v.wts = kTimestampMin;
  v.creator = kInvalidTxn;
  v.value = initial;
  v.committed = true;
  versions_.push_back(v);
}

const Version* Granule::LatestCommittedBefore(Timestamp bound) const {
  if (wts_ordered_) {
    // Step back from the first version at or past the bound to the newest
    // committed one. Below a Protocol A bound every version is committed
    // (Theorem 1), so there the first step ends it.
    auto it = std::lower_bound(versions_.begin(), versions_.end(), bound,
                               WtsLess);
    while (it != versions_.begin()) {
      --it;
      if (it->committed) return &*it;
    }
    return nullptr;
  }
  const Version* best = nullptr;
  for (const Version& v : versions_) {
    if (v.committed && v.wts < bound &&
        (best == nullptr || v.wts > best->wts)) {
      best = &v;
    }
  }
  return best;
}

const Version* Granule::LatestCommitted() const {
  return LatestCommittedBefore(kTimestampInfinity);
}

Version* Granule::VersionBefore(Timestamp ts) {
  if (wts_ordered_) {
    auto it =
        std::lower_bound(versions_.begin(), versions_.end(), ts, WtsLess);
    return it == versions_.begin() ? nullptr : &*std::prev(it);
  }
  Version* best = nullptr;
  for (Version& v : versions_) {
    if (v.wts < ts && (best == nullptr || v.wts > best->wts)) best = &v;
  }
  return best;
}

Version* Granule::Latest() {
  return versions_.empty() ? nullptr : &versions_.back();
}

const Version* Granule::Latest() const {
  return versions_.empty() ? nullptr : &versions_.back();
}

Timestamp Granule::MaxRtsOfVersionsBefore(Timestamp ts) const {
  Timestamp max_rts = kTimestampMin;
  for (const Version& v : versions_) {
    if (v.wts < ts) max_rts = std::max(max_rts, v.rts);
  }
  return max_rts;
}

Timestamp Granule::NextWtsAfter(Timestamp ts) const {
  Timestamp best = kTimestampInfinity;
  for (const Version& v : versions_) {
    if (v.committed && v.wts > ts) best = std::min(best, v.wts);
  }
  return best;
}

Status Granule::Insert(Version v) {
  auto it = std::lower_bound(versions_.begin(), versions_.end(), v.order_key,
                             OrderKeyLess);
  if (it != versions_.end() && it->order_key == v.order_key) {
    return Status::AlreadyExists("duplicate version order key");
  }
  wts_ordered_ = wts_ordered_ && v.order_key == v.wts;
  versions_.insert(it, v);
  return Status::OK();
}

Status Granule::Remove(std::uint64_t order_key) {
  auto it = std::lower_bound(versions_.begin(), versions_.end(), order_key,
                             OrderKeyLess);
  if (it == versions_.end() || it->order_key != order_key) {
    return Status::NotFound("version not found");
  }
  versions_.erase(it);
  return Status::OK();
}

Status Granule::MarkCommitted(std::uint64_t order_key) {
  Version* v = Find(order_key);
  if (v == nullptr) return Status::NotFound("version not found");
  v->committed = true;
  return Status::OK();
}

Version* Granule::Find(std::uint64_t order_key) {
  auto it = std::lower_bound(versions_.begin(), versions_.end(), order_key,
                             OrderKeyLess);
  if (it == versions_.end() || it->order_key != order_key) return nullptr;
  return &*it;
}

const Version* Granule::Find(std::uint64_t order_key) const {
  return const_cast<Granule*>(this)->Find(order_key);
}

Status Granule::RestoreVersions(std::vector<Version> versions) {
  if (versions.empty()) {
    return Status::InvalidArgument("a granule needs at least one version");
  }
  for (std::size_t i = 0; i + 1 < versions.size(); ++i) {
    if (versions[i].order_key >= versions[i + 1].order_key) {
      return Status::InvalidArgument("versions not ordered by order_key");
    }
  }
  versions_ = std::move(versions);
  commit_ticket_ = 0;
  wts_ordered_ = std::all_of(
      versions_.begin(), versions_.end(),
      [](const Version& v) { return v.order_key == v.wts; });
  return Status::OK();
}

std::size_t Granule::Prune(Timestamp horizon) {
  // Newest committed version strictly below the horizon is the snapshot
  // base every surviving reader could still need.
  const Version* base = LatestCommittedBefore(horizon);
  if (base == nullptr) return 0;
  const std::uint64_t base_key = base->order_key;
  const Timestamp base_wts = base->wts;
  const std::size_t before = versions_.size();
  versions_.erase(
      std::remove_if(versions_.begin(), versions_.end(),
                     [&](const Version& v) {
                       return v.committed && v.wts < base_wts &&
                              v.order_key != base_key;
                     }),
      versions_.end());
  return before - versions_.size();
}

}  // namespace hdd
