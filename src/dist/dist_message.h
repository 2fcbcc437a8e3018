#ifndef HDD_DIST_DIST_MESSAGE_H_
#define HDD_DIST_DIST_MESSAGE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "graph/dhg.h"
#include "storage/version.h"

namespace hdd {

/// Wire messages of the sharded deployment. Every request starts with one
/// type byte; the transport's counters index by it, which is what the
/// bench's per-transaction message table is built from. Note what is NOT
/// here: there is no registration message of any kind — a cross-node
/// Protocol A read costs one I^old request per run of remote classes on
/// its critical path plus one snapshot fetch, and writes nothing anywhere.
/// Every request and reply has a size fixed by its shape (path length,
/// write count), never by how much history the answering node holds.
enum class DistMsgType : std::uint8_t {
  kActivityReq = 1,  // stab time + class run -> I^old per class
  kSnapshotReq = 2,  // granule + bound -> the committed version it selects
  kPrepareReq = 3,   // 2PC phase 1: install + log shipped writes
  kCommitReq = 4,    // 2PC phase 2: mark committed + log
  kAbortReq = 5,     // 2PC abort: remove installed writes
  kClockTickReq = 6, // clock service (socket deployments): issue a tick
  kClockNowReq = 7,  // clock service: read the latest timestamp
};

/// One past the largest type value (counter array size).
inline constexpr int kNumDistMsgTypes = 8;

/// Type byte of an encoded request (0 when empty/garbage).
DistMsgType PeekDistMsgType(std::string_view payload);
const char* DistMsgTypeName(DistMsgType type);

/// A run of consecutive critical-path classes homed at the receiver. The
/// receiver applies I^old along the run starting at `stab` and replies
/// with one timestamp per class (the OldestActiveReply):
///   reply[0] = I^old_run[0](stab), reply[k] = I^old_run[k](reply[k-1]).
struct ActivityReq {
  Timestamp stab = kTimestampMin;
  std::vector<ClassId> run;
};

/// Asks the owner for the latest committed version of one granule below
/// `bound` — the requester's finished A_i^j(I(t)).
struct SnapshotReq {
  SegmentId segment = 0;
  std::uint32_t index = 0;
  Timestamp bound = kTimestampMin;
};

/// The one version a SnapshotReq's bound selects: its order key (what the
/// merged-history oracle replays) and its value.
struct SnapshotReply {
  std::uint64_t order_key = 0;
  Value value = 0;
};

struct PrepareReq {
  TxnId txn = kInvalidTxn;
  Timestamp init_ts = kTimestampMin;
  SegmentId segment = 0;
  std::vector<std::pair<std::uint32_t, Value>> writes;  // (granule, value)
};

/// Commit/abort share one body (type byte disambiguates).
struct TxnSegmentReq {
  TxnId txn = kInvalidTxn;
  Timestamp init_ts = kTimestampMin;
  SegmentId segment = 0;
};

// Requests. Encoders produce [type byte][body]; decoders take the full
// request (type byte included) and verify it. Count-prefixed lists are
// rejected as kCorruption when the count cannot fit in the bytes left.
std::string EncodeActivityReq(const ActivityReq& req);
Result<ActivityReq> DecodeActivityReq(std::string_view payload);
std::string EncodeSnapshotReq(const SnapshotReq& req);
Result<SnapshotReq> DecodeSnapshotReq(std::string_view payload);
std::string EncodePrepareReq(const PrepareReq& req);
Result<PrepareReq> DecodePrepareReq(std::string_view payload);
std::string EncodeTxnSegmentReq(DistMsgType type, const TxnSegmentReq& req);
Result<TxnSegmentReq> DecodeTxnSegmentReq(std::string_view payload);
std::string EncodeClockReq(DistMsgType type);

// Response bodies (the transport's envelope carries ok/error).
std::string EncodeOldestActiveReply(const std::vector<Timestamp>& values);
Result<std::vector<Timestamp>> DecodeOldestActiveReply(
    std::string_view payload);
std::string EncodeSnapshotReply(const SnapshotReply& reply);
Result<SnapshotReply> DecodeSnapshotReply(std::string_view payload);
std::string EncodeTimestamp(Timestamp ts);
Result<Timestamp> DecodeTimestamp(std::string_view payload);

/// Response envelope: [0x01][body] on success, [0x00][code u32][message]
/// on error. Lets a handler's Status travel back to the calling node.
std::string EncodeDistResponse(const Result<std::string>& result);
Result<std::string> DecodeDistResponse(std::string_view payload);

}  // namespace hdd

#endif  // HDD_DIST_DIST_MESSAGE_H_
