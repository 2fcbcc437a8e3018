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
    : node_id_(node_id),
      map_(map),
      transport_(transport),
      cc_(cc),
      options_(options) {}

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

Result<Value> DistSession::ReadOp(const TxnDescriptor& txn, GranuleRef granule,
                                  bool local_plain,
                                  const std::vector<SegmentId>& scope,
                                  AttemptState& state) {
  if (local_plain) return cc_->Read(txn, granule);
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
      HDD_ASSIGN_OR_RETURN(bound, state.links.A(own, target, txn.init_ts));
    }
    return BoundedRead(txn, granule, bound);
  }

  // Hosted read-only transaction on the bounded path (§5.0 generalized):
  // reads must stay inside the declared scope.
  if (std::find(scope.begin(), scope.end(), granule.segment) == scope.end()) {
    return Status::InvalidArgument("dist: read outside declared scope");
  }
  Timestamp bound = txn.init_ts;  // the canary's "unbounded" snapshot
  if (!options_.mutation_stale_bound_snapshot) {
    // The base I^old_h(I(t)) is memoized, so later reads reuse it.
    HDD_ASSIGN_OR_RETURN(const Timestamp base,
                         state.links.OldestActiveAt(state.host, txn.init_ts));
    HDD_ASSIGN_OR_RETURN(bound, state.links.A(state.host, target, base));
  }
  return BoundedRead(txn, granule, bound);
}

Status DistSession::PrepareRemotes(const TxnDescriptor& txn,
                                   AttemptState& state) {
  for (const auto& [segment, writes] : state.remote_writes) {
    PrepareReq req;
    req.txn = txn.id;
    req.init_ts = txn.init_ts;
    req.segment = segment;
    req.writes = writes;
    Result<std::string> ack =
        transport_->Call(node_id_, map_->owner(segment), EncodePrepareReq(req),
                         /*interruptible=*/true);
    if (!ack.ok()) return ack.status();
    state.prepared.push_back(segment);
  }
  return Status::OK();
}

void DistSession::AbortRemotes(const TxnDescriptor& txn, AttemptState& state) {
  for (const SegmentId segment : state.prepared) {
    TxnSegmentReq req;
    req.txn = txn.id;
    req.init_ts = txn.init_ts;
    req.segment = segment;
    (void)transport_->Call(node_id_, map_->owner(segment),
                           EncodeTxnSegmentReq(DistMsgType::kAbortReq, req),
                           /*interruptible=*/false);
  }
  state.prepared.clear();
}

void DistSession::CommitRemotes(const TxnDescriptor& txn,
                                AttemptState& state) {
  // The decision is durable: roll forward until every participant acked.
  // CommitExternal is idempotent, so retrying a possibly-delivered call
  // is safe; calls are non-interruptible (no fault may unwind this).
  for (const SegmentId segment : state.prepared) {
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
  state.prepared.clear();
}

DistTxnResult DistSession::Run(const DistProgram& program, int max_retries,
                               SimScheduler* sim) {
  DistTxnResult result;

  // Placement + path selection, fixed across attempts.
  bool local_plain = false;
  ClassId host = kReadOnlyClass;
  if (!program.options.read_only) {
    if (map_->home(program.options.txn_class) != node_id_) {
      result.failed = true;  // misrouted: update txns run at their home
      return result;
    }
  } else {
    // Time walls are node-local consistent cuts; a cross-shard wall read
    // would be unsound, so ad-hoc unscoped RO is not offered. The scope is
    // validated, and its §5.0 host class found, before any shard-map
    // lookup: a wild segment id would index the map out of bounds.
    const std::vector<SegmentId>& scope = program.options.read_scope;
    const Result<ClassId> resolved = cc_->ResolveHostClass(scope);
    if (!resolved.ok()) {
      result.failed = true;
      return result;
    }
    local_plain = !options_.mutation_stale_bound_snapshot;
    for (const SegmentId s : scope) {
      const ClassId c = cc_->ClassOfSegment(s);
      if (map_->home(c) != node_id_ || map_->owner(s) != node_id_) {
        local_plain = false;
      }
    }
    // On the bounded path the local controller still hosts the reader
    // (its I(t) is a registered stab); the reads go through this session.
    if (!local_plain) host = *resolved;
  }

  static_cast<ProgramResult&>(result) = RunWithRetries(
      *cc_, program.options, max_retries, sim, [&](const TxnDescriptor& txn) {
        AttemptState state(DistLinkEvaluator(node_id_, map_, transport_, cc_));
        state.host = host;
        const AttemptOutcome outcome =
            RunAttempt(program, txn, local_plain, state);
        if (outcome == AttemptOutcome::kCommitted) {
          result.values = std::move(state.values);
        }
        return outcome;
      });
  return result;
}

AttemptOutcome DistSession::RunAttempt(const DistProgram& program,
                                       const TxnDescriptor& txn,
                                       bool local_plain, AttemptState& state) {
  Status status;
  bool faulted = false;
  bool fault_crash = false;
  try {
    for (const DistOp& op : program.ops) {
      if (op.is_write) {
        status = cc_->Write(txn, op.granule, op.value);
        if (status.ok() && map_->owner(op.granule.segment) != node_id_) {
          state.remote_writes[op.granule.segment].emplace_back(
              op.granule.index, op.value);
        }
      } else {
        Result<Value> value = ReadOp(txn, op.granule, local_plain,
                                     program.options.read_scope, state);
        status = value.status();
        if (value.ok()) state.values.push_back(*value);
      }
      if (!status.ok()) break;
    }
    if (status.ok()) {
      bool committed = false;
      if (state.remote_writes.empty()) {
        status = cc_->Commit(txn);
        committed = status.ok();
      } else {
        status = PrepareRemotes(txn, state);
        if (status.ok()) {
          // The local durable commit record IS the decision: before it
          // an abort is still possible, after it only roll-forward.
          status = cc_->CommitDurablePhase(txn);
        }
        if (status.ok()) {
          CommitRemotes(txn, state);
          (void)cc_->FinishDistributedCommit(txn);
          committed = true;
        }
      }
      if (committed) return AttemptOutcome::kCommitted;
      AbortRemotes(txn, state);
      (void)cc_->Abort(txn);
      return status.IsRetryable() ? AttemptOutcome::kRetry
                                  : AttemptOutcome::kFailed;
    }
  } catch (const SimFault& fault) {
    faulted = true;
    fault_crash = fault.kind == SimFaultKind::kCrash;
  }
  if (fault_crash) {
    // Coordinator "crash": the driver vanishes without aborting its
    // prepared participants. Their versions stay uncommitted — invisible
    // to every bounded read — which is exactly the classic blocked-2PC
    // residue the sweep is meant to exercise.
    return AttemptOutcome::kCrashed;
  }
  AbortRemotes(txn, state);
  (void)cc_->Abort(txn);  // best effort; the txn may already be gone
  if (faulted) return AttemptOutcome::kRetry;
  if (status.IsRetryable() || status.code() == StatusCode::kBusy) {
    return AttemptOutcome::kBackoff;
  }
  return AttemptOutcome::kFailed;
}

}  // namespace hdd
