#include "dist/dist_node.h"

#include <vector>

#include "dist/dist_message.h"

namespace hdd {

// The two Protocol A handlers answer with what the requester's bound
// needs, never with the state it is computed from, so their replies are
// as large as the question, however long the node has run. Soundness:
//
//  1. I^old is stable for v at or below the clock. The stab time of a
//     kActivityReq is at most the requester's I(t), a tick the shared
//     clock already issued, so every transaction that could be active at
//     v has initiated and registered at its home. Later begins and
//     finishes cannot change I^old(v): the reply is the value every
//     evaluation at v returns, now or later, which is also why the
//     requester may memoize it.
//  2. The bound is fixed before the version is chosen, and the reply
//     waits only for that version's durability. A kSnapshotReq carries
//     the finished A_i^j(I(t)); the owner only selects the latest
//     committed version below it, under the segment's shard latch. By
//     Theorem 1 every transaction that can write below that bound has
//     finished, and 2PC marks remote copies committed before the
//     coordinator deregisters, so the selection is final. The version
//     was committed by a WAL record at or before the granule's newest
//     commit record, whose ticket the owner reads in the same latch
//     window, so waiting for that one ticket covers it; a commit newer
//     than the bound only makes the wait conservative.
//  3. The owner records nothing. Neither handler sets a read lock or a
//     read timestamp or keeps any note of the reader, so registration
//     stays a structural zero (MessageCounters::registration_messages).
Result<std::string> DistNode::Handle(int from, const std::string& request) {
  (void)from;
  switch (PeekDistMsgType(request)) {
    case DistMsgType::kActivityReq: {
      HDD_ASSIGN_OR_RETURN(ActivityReq req, DecodeActivityReq(request));
      HDD_ASSIGN_OR_RETURN(std::vector<Timestamp> values,
                           cc_->OldestActiveAlong(req.run, req.stab));
      return EncodeOldestActiveReply(values);
    }
    case DistMsgType::kSnapshotReq: {
      HDD_ASSIGN_OR_RETURN(SnapshotReq req, DecodeSnapshotReq(request));
      // Cross-node read barrier. A local reader of a version that is not
      // yet durable draws a higher ticket from the same WAL, so its own
      // ack waits for that version's sync; a remote reader's ack draws
      // its ticket from another node's WAL, which covers nothing here.
      // So the reply waits for the sync itself, of the granule's newest
      // commit record only (point 2), never for everything appended so
      // far: the served version survives this node's recovery, and a
      // requester's acked result never dangles.
      HDD_ASSIGN_OR_RETURN(
          const Version version,
          cc_->DurableVersionBelow(GranuleRef{req.segment, req.index},
                                   req.bound));
      return EncodeSnapshotReply(SnapshotReply{version.order_key,
                                               version.value});
    }
    case DistMsgType::kPrepareReq: {
      HDD_ASSIGN_OR_RETURN(PrepareReq req, DecodePrepareReq(request));
      HDD_RETURN_IF_ERROR(
          cc_->PrepareExternal(req.segment, req.txn, req.init_ts, req.writes));
      return std::string();
    }
    case DistMsgType::kCommitReq: {
      HDD_ASSIGN_OR_RETURN(TxnSegmentReq req, DecodeTxnSegmentReq(request));
      HDD_RETURN_IF_ERROR(
          cc_->CommitExternal(req.segment, req.txn, req.init_ts));
      return std::string();
    }
    case DistMsgType::kAbortReq: {
      HDD_ASSIGN_OR_RETURN(TxnSegmentReq req, DecodeTxnSegmentReq(request));
      HDD_RETURN_IF_ERROR(
          cc_->AbortExternal(req.segment, req.txn, req.init_ts));
      return std::string();
    }
    case DistMsgType::kClockTickReq: {
      if (clock_ == nullptr) {
        return Status::FailedPrecondition("dist: node hosts no clock service");
      }
      return EncodeTimestamp(clock_->Tick());
    }
    case DistMsgType::kClockNowReq: {
      if (clock_ == nullptr) {
        return Status::FailedPrecondition("dist: node hosts no clock service");
      }
      return EncodeTimestamp(clock_->Now());
    }
  }
  return Status::InvalidArgument("dist: unknown message type");
}

}  // namespace hdd
