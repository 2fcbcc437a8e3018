#include "dist/dist_message.h"

#include "common/codec.h"

namespace hdd {

DistMsgType PeekDistMsgType(std::string_view payload) {
  if (payload.empty()) return static_cast<DistMsgType>(0);
  return static_cast<DistMsgType>(static_cast<std::uint8_t>(payload[0]));
}

const char* DistMsgTypeName(DistMsgType type) {
  switch (type) {
    case DistMsgType::kActivityReq:
      return "activity";
    case DistMsgType::kSnapshotReq:
      return "snapshot";
    case DistMsgType::kPrepareReq:
      return "prepare";
    case DistMsgType::kCommitReq:
      return "commit";
    case DistMsgType::kAbortReq:
      return "abort";
    case DistMsgType::kClockTickReq:
      return "clock_tick";
    case DistMsgType::kClockNowReq:
      return "clock_now";
  }
  return "unknown";
}

namespace {

bool ConsumeType(std::string_view* in, DistMsgType expected) {
  std::uint8_t type = 0;
  return GetU8(in, &type) && type == static_cast<std::uint8_t>(expected);
}

// A count read off the wire is believed only when its records fit in the
// bytes left, so a hostile count is rejected before anything is reserved.
bool CountFits(std::uint32_t count, std::size_t record_bytes,
               std::string_view in) {
  return static_cast<std::uint64_t>(count) * record_bytes <= in.size();
}

}  // namespace

std::string EncodeActivityReq(const ActivityReq& req) {
  std::string out;
  PutU8(&out, static_cast<std::uint8_t>(DistMsgType::kActivityReq));
  PutU64(&out, req.stab);
  PutU32(&out, static_cast<std::uint32_t>(req.run.size()));
  for (const ClassId c : req.run) PutU32(&out, static_cast<std::uint32_t>(c));
  return out;
}

Result<ActivityReq> DecodeActivityReq(std::string_view payload) {
  std::string_view in = payload;
  ActivityReq req;
  std::uint32_t count = 0;
  if (!ConsumeType(&in, DistMsgType::kActivityReq) ||
      !GetU64(&in, &req.stab) || !GetU32(&in, &count) ||
      !CountFits(count, 4, in)) {
    return Status::Corruption("activity request: truncated");
  }
  req.run.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t c = 0;
    if (!GetU32(&in, &c)) {
      return Status::Corruption("activity request: truncated class run");
    }
    req.run.push_back(static_cast<ClassId>(c));
  }
  return req;
}

std::string EncodeSnapshotReq(const SnapshotReq& req) {
  std::string out;
  PutU8(&out, static_cast<std::uint8_t>(DistMsgType::kSnapshotReq));
  PutU32(&out, static_cast<std::uint32_t>(req.segment));
  PutU32(&out, req.index);
  PutU64(&out, req.bound);
  return out;
}

Result<SnapshotReq> DecodeSnapshotReq(std::string_view payload) {
  std::string_view in = payload;
  SnapshotReq req;
  std::uint32_t segment = 0;
  if (!ConsumeType(&in, DistMsgType::kSnapshotReq) ||
      !GetU32(&in, &segment) || !GetU32(&in, &req.index) ||
      !GetU64(&in, &req.bound)) {
    return Status::Corruption("snapshot request: truncated");
  }
  req.segment = static_cast<SegmentId>(segment);
  return req;
}

std::string EncodePrepareReq(const PrepareReq& req) {
  std::string out;
  PutU8(&out, static_cast<std::uint8_t>(DistMsgType::kPrepareReq));
  PutU64(&out, req.txn);
  PutU64(&out, req.init_ts);
  PutU32(&out, static_cast<std::uint32_t>(req.segment));
  PutU32(&out, static_cast<std::uint32_t>(req.writes.size()));
  for (const auto& [granule, value] : req.writes) {
    PutU32(&out, granule);
    PutU64(&out, static_cast<std::uint64_t>(value));
  }
  return out;
}

Result<PrepareReq> DecodePrepareReq(std::string_view payload) {
  std::string_view in = payload;
  PrepareReq req;
  std::uint32_t segment = 0;
  std::uint32_t count = 0;
  if (!ConsumeType(&in, DistMsgType::kPrepareReq) || !GetU64(&in, &req.txn) ||
      !GetU64(&in, &req.init_ts) || !GetU32(&in, &segment) ||
      !GetU32(&in, &count) || !CountFits(count, 12, in)) {
    return Status::Corruption("prepare request: truncated");
  }
  req.segment = static_cast<SegmentId>(segment);
  req.writes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t granule = 0;
    std::uint64_t value = 0;
    if (!GetU32(&in, &granule) || !GetU64(&in, &value)) {
      return Status::Corruption("prepare request: truncated write list");
    }
    req.writes.emplace_back(granule, static_cast<Value>(value));
  }
  return req;
}

std::string EncodeTxnSegmentReq(DistMsgType type, const TxnSegmentReq& req) {
  std::string out;
  PutU8(&out, static_cast<std::uint8_t>(type));
  PutU64(&out, req.txn);
  PutU64(&out, req.init_ts);
  PutU32(&out, static_cast<std::uint32_t>(req.segment));
  return out;
}

Result<TxnSegmentReq> DecodeTxnSegmentReq(std::string_view payload) {
  std::string_view in = payload;
  TxnSegmentReq req;
  std::uint8_t type = 0;
  std::uint32_t segment = 0;
  if (!GetU8(&in, &type) || !GetU64(&in, &req.txn) ||
      !GetU64(&in, &req.init_ts) || !GetU32(&in, &segment)) {
    return Status::Corruption("txn-segment request: truncated");
  }
  req.segment = static_cast<SegmentId>(segment);
  return req;
}

std::string EncodeClockReq(DistMsgType type) {
  std::string out;
  PutU8(&out, static_cast<std::uint8_t>(type));
  return out;
}

std::string EncodeOldestActiveReply(const std::vector<Timestamp>& values) {
  std::string out;
  PutU32(&out, static_cast<std::uint32_t>(values.size()));
  for (const Timestamp v : values) PutU64(&out, v);
  return out;
}

Result<std::vector<Timestamp>> DecodeOldestActiveReply(
    std::string_view payload) {
  std::string_view in = payload;
  std::uint32_t count = 0;
  if (!GetU32(&in, &count) || !CountFits(count, 8, in)) {
    return Status::Corruption("I^old reply: truncated");
  }
  std::vector<Timestamp> values(count);
  for (Timestamp& v : values) {
    if (!GetU64(&in, &v)) return Status::Corruption("I^old reply: truncated");
  }
  return values;
}

std::string EncodeSnapshotReply(const SnapshotReply& reply) {
  std::string out;
  PutU64(&out, reply.order_key);
  PutU64(&out, static_cast<std::uint64_t>(reply.value));
  return out;
}

Result<SnapshotReply> DecodeSnapshotReply(std::string_view payload) {
  std::string_view in = payload;
  SnapshotReply reply;
  std::uint64_t value = 0;
  if (!GetU64(&in, &reply.order_key) || !GetU64(&in, &value)) {
    return Status::Corruption("snapshot reply: truncated");
  }
  reply.value = static_cast<Value>(value);
  return reply;
}

std::string EncodeTimestamp(Timestamp ts) {
  std::string out;
  PutU64(&out, ts);
  return out;
}

Result<Timestamp> DecodeTimestamp(std::string_view payload) {
  std::string_view in = payload;
  Timestamp ts = 0;
  if (!GetU64(&in, &ts)) {
    return Status::Corruption("clock response: truncated");
  }
  return ts;
}

std::string EncodeDistResponse(const Result<std::string>& result) {
  std::string out;
  if (result.ok()) {
    PutU8(&out, 1);
    out.append(*result);
  } else {
    PutU8(&out, 0);
    PutU32(&out, static_cast<std::uint32_t>(result.status().code()));
    out.append(result.status().message());
  }
  return out;
}

Result<std::string> DecodeDistResponse(std::string_view payload) {
  std::string_view in = payload;
  std::uint8_t ok = 0;
  if (!GetU8(&in, &ok)) {
    return Status::Corruption("response envelope: empty");
  }
  if (ok == 1) return std::string(in);
  std::uint32_t code = 0;
  if (!GetU32(&in, &code)) {
    return Status::Corruption("response envelope: truncated error");
  }
  return Status(static_cast<StatusCode>(code),
                "remote: " + std::string(in));
}

}  // namespace hdd
