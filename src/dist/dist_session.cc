#include "dist/dist_session.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "common/sim_hook.h"
#include "dist/dist_message.h"

namespace hdd {

DistLinkEvaluator::DistLinkEvaluator(int node_id, const ShardMap* map,
                                     Transport* transport, HddController* cc)
    : node_id_(node_id), map_(map), transport_(transport), cc_(cc) {}

Result<Timestamp> DistLinkEvaluator::A(ClassId i, ClassId j, Timestamp m) {
  std::optional<std::vector<NodeId>> path =
      cc_->class_tst().CriticalPath(i, j);
  if (!path.has_value()) {
    return Status::InvalidArgument("dist: no critical path for A");
  }
  // I^old applies at every class strictly above i, as in
  // ActivityLinkEvaluator::A; A_i^i(m) = m.
  return ComposeOldestActive(std::vector<ClassId>(path->begin() + 1,
                                                  path->end()),
                             m);
}

Result<Timestamp> DistLinkEvaluator::ComposeOldestActive(
    const std::vector<ClassId>& path, Timestamp m) {
  Timestamp value = m;
  std::size_t k = 0;
  while (k < path.size()) {
    const auto known = memo_.find({path[k], value});
    if (known != memo_.end()) {
      value = known->second;
      ++k;
      continue;
    }
    // The maximal run of path classes from k homed at one node: answered
    // in one step, locally or by one message.
    const int home = map_->home(path[k]);
    std::size_t end = k + 1;
    while (end < path.size() && map_->home(path[end]) == home) ++end;
    const std::vector<ClassId> run(
        path.begin() + static_cast<std::ptrdiff_t>(k),
        path.begin() + static_cast<std::ptrdiff_t>(end));
    std::vector<Timestamp> answers;
    if (home == node_id_) {
      HDD_ASSIGN_OR_RETURN(answers, cc_->OldestActiveAlong(run, value));
    } else {
      HDD_ASSIGN_OR_RETURN(
          std::string body,
          transport_->Call(node_id_, home,
                           EncodeActivityReq(ActivityReq{value, run}),
                           /*interruptible=*/true));
      HDD_ASSIGN_OR_RETURN(answers, DecodeOldestActiveReply(body));
    }
    if (answers.size() != run.size()) {
      return Status::Corruption("dist: I^old reply does not match the run");
    }
    for (std::size_t r = 0; r < run.size(); ++r) {
      if (answers[r] > value) {
        return Status::Corruption("dist: I^old above its argument");
      }
      memo_.emplace(std::make_pair(run[r], value), answers[r]);
      value = answers[r];
    }
    k = end;
  }
  return value;
}

DistSession::DistSession(int node_id, const ShardMap* map,
                         Transport* transport, HddController* cc,
                         DistOptions options)
    : ConcurrencyController(&cc->db(), &cc->clock()),
      node_id_(node_id),
      map_(map),
      transport_(transport),
      cc_(cc),
      options_(options) {}

Result<TxnDescriptor> DistSession::Begin(const TxnOptions& options) {
  // Placement, decided before any effect. The class or the scope is
  // validated before any shard-map lookup: a wild id would index the map
  // out of bounds.
  TxnPlan plan(DistLinkEvaluator(node_id_, map_, transport_, cc_));
  if (!options.read_only) {
    if (options.txn_class < 0 || options.txn_class >= map_->num_segments()) {
      return Status::InvalidArgument("dist: no such update class");
    }
    if (map_->home(options.txn_class) != node_id_) {
      // Misrouted: the Protocol B path is single-sited at the class's
      // home. Fail loudly, never execute against a stand-in.
      return Status::InvalidArgument(
          "dist: update transactions run at their class's home node");
    }
  } else {
    // Time walls are node-local consistent cuts; a cross-shard wall read
    // would be unsound, so ad-hoc unscoped RO is not offered.
    HDD_ASSIGN_OR_RETURN(const ClassId host,
                         cc_->ResolveHostClass(options.read_scope));
    plan.local_plain = !options_.mutation_stale_bound_snapshot;
    for (const SegmentId s : options.read_scope) {
      const ClassId c = cc_->ClassOfSegment(s);
      if (map_->home(c) != node_id_ || map_->owner(s) != node_id_) {
        plan.local_plain = false;
      }
    }
    // On the bounded path the local controller still hosts the reader
    // (its I(t) is a registered stab); the reads go through this session.
    if (!plan.local_plain) {
      plan.host = host;
      plan.scope = options.read_scope;
    }
  }
  HDD_ASSIGN_OR_RETURN(const TxnDescriptor txn, cc_->Begin(options));
  std::lock_guard<std::mutex> lock(plans_mu_);
  plans_.emplace(txn.id, std::move(plan));
  return txn;
}

Result<DistSession::TxnPlan*> DistSession::FindPlan(const TxnDescriptor& txn) {
  std::lock_guard<std::mutex> lock(plans_mu_);
  const auto it = plans_.find(txn.id);
  if (it == plans_.end()) {
    return Status::FailedPrecondition("unknown or finished transaction");
  }
  return &it->second;
}

void DistSession::ErasePlan(const TxnDescriptor& txn) {
  std::lock_guard<std::mutex> lock(plans_mu_);
  plans_.erase(txn.id);
}

Result<Value> DistSession::BoundedRead(const TxnDescriptor& txn,
                                       GranuleRef granule, Timestamp bound) {
  // The bound is final before the owner sees it: the owner only selects.
  SnapshotReply served;
  const int owner = map_->owner(granule.segment);
  if (owner == node_id_) {
    HDD_ASSIGN_OR_RETURN(const Version version,
                         cc_->CommittedVersionBelow(granule, bound));
    served = SnapshotReply{version.order_key, version.value};
  } else {
    HDD_ASSIGN_OR_RETURN(
        std::string body,
        transport_->Call(node_id_, owner,
                         EncodeSnapshotReq(SnapshotReq{granule.segment,
                                                       granule.index, bound}),
                         /*interruptible=*/true));
    HDD_ASSIGN_OR_RETURN(served, DecodeSnapshotReply(body));
  }
  if (served.order_key >= bound) {
    return Status::Corruption("dist: snapshot reply not below the bound");
  }
  HDD_RETURN_IF_ERROR(
      cc_->RecordExternalRead(txn, granule, served.order_key, bound));
  return served.value;
}

Result<Value> DistSession::Read(const TxnDescriptor& txn, GranuleRef granule) {
  // Validated before any class or shard-map lookup.
  HDD_RETURN_IF_ERROR(db().Validate(granule));
  HDD_ASSIGN_OR_RETURN(TxnPlan* const plan, FindPlan(txn));
  if (plan->local_plain) return cc_->Read(txn, granule);
  const TstAnalysis& tst = cc_->class_tst();
  const ClassId target = cc_->ClassOfSegment(granule.segment);

  if (!txn.read_only) {
    const ClassId own = txn.txn_class;
    // Own-segment accesses are Protocol B against the home node's chain,
    // which is write-authoritative: every transaction of this class runs
    // here. (With an owner override the owner's copy trails until the 2PC
    // commit, but no local reader consults it.)
    if (target == own) return cc_->Read(txn, granule);
    std::optional<std::vector<NodeId>> path = tst.CriticalPath(own, target);
    if (!path.has_value()) {
      return Status::InvalidArgument(
          "dist: no critical path to the read segment");
    }
    // Local fast path: the bound only composes I^old of classes homed
    // here, and the chain is owned here — the plain controller read is
    // byte-identical to the bounded path. A remote-homed class on the
    // path makes the local activity table a stand-in (empty => I^old = m,
    // an unsound overestimate), so those reads MUST take the bounded path.
    bool all_local = map_->owner(granule.segment) == node_id_;
    for (const NodeId c : *path) {
      if (map_->home(static_cast<ClassId>(c)) != node_id_) all_local = false;
    }
    if (all_local && !options_.mutation_stale_bound_snapshot) {
      return cc_->Read(txn, granule);
    }
    Timestamp bound = txn.init_ts;  // the canary's "unbounded" snapshot
    if (!options_.mutation_stale_bound_snapshot) {
      HDD_ASSIGN_OR_RETURN(bound, plan->links.A(own, target, txn.init_ts));
    }
    return BoundedRead(txn, granule, bound);
  }

  // Hosted read-only transaction on the bounded path (§5.0 generalized):
  // reads must stay inside the declared scope.
  if (std::find(plan->scope.begin(), plan->scope.end(), granule.segment) ==
      plan->scope.end()) {
    return Status::InvalidArgument("dist: read outside declared scope");
  }
  Timestamp bound = txn.init_ts;  // the canary's "unbounded" snapshot
  if (!options_.mutation_stale_bound_snapshot) {
    // The base I^old_h(I(t)) is memoized, so later reads reuse it.
    HDD_ASSIGN_OR_RETURN(const Timestamp base,
                         plan->links.OldestActiveAt(plan->host, txn.init_ts));
    HDD_ASSIGN_OR_RETURN(bound, plan->links.A(plan->host, target, base));
  }
  return BoundedRead(txn, granule, bound);
}

Status DistSession::Write(const TxnDescriptor& txn, GranuleRef granule,
                          Value value) {
  HDD_RETURN_IF_ERROR(cc_->Write(txn, granule, value));
  if (map_->owner(granule.segment) != node_id_) {
    HDD_ASSIGN_OR_RETURN(TxnPlan* const plan, FindPlan(txn));
    plan->remote_writes[granule.segment].emplace_back(granule.index, value);
  }
  return Status::OK();
}

Status DistSession::Commit(const TxnDescriptor& txn) {
  HDD_ASSIGN_OR_RETURN(TxnPlan* const plan, FindPlan(txn));
  // A SimFault unwinding from here leaves the plan in place, so the
  // driver's Abort still reaches every prepared participant.
  Status status;
  if (plan->remote_writes.empty()) {
    status = cc_->Commit(txn);
  } else {
    status = PrepareRemotes(txn, *plan);
    if (status.ok()) {
      // The local durable commit record IS the decision: before it an
      // abort is still possible, after it only roll-forward.
      status = cc_->CommitDurablePhase(txn);
    }
    if (status.ok()) {
      CommitRemotes(txn, *plan);
      (void)cc_->FinishDistributedCommit(txn);
    }
  }
  if (!status.ok()) {
    // The driver does not abort after a failed Commit, so this does.
    AbortRemotes(txn, *plan);
    (void)cc_->Abort(txn);  // best effort; the txn may already be gone
  }
  ErasePlan(txn);
  return status;
}

Status DistSession::Abort(const TxnDescriptor& txn) {
  const Result<TxnPlan*> plan = FindPlan(txn);
  if (plan.ok()) {
    AbortRemotes(txn, **plan);
    ErasePlan(txn);
  }
  return cc_->Abort(txn);
}

Status DistSession::PrepareRemotes(const TxnDescriptor& txn,
                                   TxnPlan& plan) {
  for (const auto& [segment, writes] : plan.remote_writes) {
    PrepareReq req;
    req.txn = txn.id;
    req.init_ts = txn.init_ts;
    req.segment = segment;
    req.writes = writes;
    Result<std::string> ack =
        transport_->Call(node_id_, map_->owner(segment), EncodePrepareReq(req),
                         /*interruptible=*/true);
    if (!ack.ok()) return ack.status();
    plan.prepared.push_back(segment);
  }
  return Status::OK();
}

void DistSession::AbortRemotes(const TxnDescriptor& txn, TxnPlan& plan) {
  for (const SegmentId segment : plan.prepared) {
    TxnSegmentReq req;
    req.txn = txn.id;
    req.init_ts = txn.init_ts;
    req.segment = segment;
    (void)transport_->Call(node_id_, map_->owner(segment),
                           EncodeTxnSegmentReq(DistMsgType::kAbortReq, req),
                           /*interruptible=*/false);
  }
  plan.prepared.clear();
}

void DistSession::CommitRemotes(const TxnDescriptor& txn, TxnPlan& plan) {
  // The decision is durable: roll forward until every participant acked.
  // CommitExternal is idempotent, so retrying a possibly-delivered call
  // is safe; calls are non-interruptible (no fault may unwind this).
  for (const SegmentId segment : plan.prepared) {
    TxnSegmentReq req;
    req.txn = txn.id;
    req.init_ts = txn.init_ts;
    req.segment = segment;
    for (int attempt = 0; attempt < 64; ++attempt) {
      Result<std::string> ack = transport_->Call(
          node_id_, map_->owner(segment),
          EncodeTxnSegmentReq(DistMsgType::kCommitReq, req),
          /*interruptible=*/false);
      if (ack.ok()) break;
      SimSleep(std::chrono::microseconds(50));
    }
  }
  plan.prepared.clear();
}

}  // namespace hdd
