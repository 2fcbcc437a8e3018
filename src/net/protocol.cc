#include "net/protocol.h"

#include "common/codec.h"

namespace hdd {

namespace {

// Caps on repeated fields, far above anything a sane program needs but
// far below what a hostile length prefix could otherwise make the server
// allocate. (The frame payload itself is already capped at 1 MiB.)
constexpr std::uint32_t kMaxOps = 1u << 16;
constexpr std::uint32_t kMaxScope = 1u << 12;

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed message: ") + what);
}

}  // namespace

std::string EncodeRequest(const RequestMsg& msg) {
  std::string out;
  PutU8(&out, static_cast<std::uint8_t>(msg.type));
  if (msg.type == NetMsgType::kPing) {
    PutU64(&out, msg.request_id);
    return out;
  }
  const SubmitRequest& submit = msg.submit;
  PutU64(&out, submit.request_id);
  PutU32(&out, static_cast<std::uint32_t>(submit.txn_class));
  PutU8(&out, submit.read_only ? 1 : 0);
  PutU32(&out, static_cast<std::uint32_t>(submit.read_scope.size()));
  for (SegmentId segment : submit.read_scope) {
    PutU32(&out, static_cast<std::uint32_t>(segment));
  }
  PutU32(&out, static_cast<std::uint32_t>(submit.ops.size()));
  for (const WireOp& op : submit.ops) {
    PutU8(&out, static_cast<std::uint8_t>(op.kind));
    PutU32(&out, static_cast<std::uint32_t>(op.granule.segment));
    PutU32(&out, op.granule.index);
    PutU64(&out, static_cast<std::uint64_t>(op.value));
  }
  return out;
}

Result<RequestMsg> DecodeRequest(std::string_view payload) {
  RequestMsg msg;
  std::uint8_t type = 0;
  if (!GetU8(&payload, &type)) return Malformed("empty request");
  switch (static_cast<NetMsgType>(type)) {
    case NetMsgType::kSubmit:
    case NetMsgType::kPing:
      msg.type = static_cast<NetMsgType>(type);
      break;
    default:
      return Malformed("unknown request type");
  }
  if (msg.type == NetMsgType::kPing) {
    if (!GetU64(&payload, &msg.request_id)) return Malformed("ping id");
    if (!payload.empty()) return Malformed("trailing bytes");
    return msg;
  }
  SubmitRequest& submit = msg.submit;
  std::uint32_t txn_class = 0;
  std::uint8_t read_only = 0;
  std::uint32_t n_scope = 0;
  if (!GetU64(&payload, &submit.request_id) ||
      !GetU32(&payload, &txn_class) || !GetU8(&payload, &read_only) ||
      !GetU32(&payload, &n_scope)) {
    return Malformed("submit header");
  }
  submit.txn_class = static_cast<ClassId>(static_cast<std::int32_t>(txn_class));
  submit.read_only = read_only != 0;
  if (n_scope > kMaxScope) return Malformed("read_scope too large");
  submit.read_scope.reserve(n_scope);
  for (std::uint32_t i = 0; i < n_scope; ++i) {
    std::uint32_t segment = 0;
    if (!GetU32(&payload, &segment)) return Malformed("read_scope entry");
    submit.read_scope.push_back(
        static_cast<SegmentId>(static_cast<std::int32_t>(segment)));
  }
  std::uint32_t n_ops = 0;
  if (!GetU32(&payload, &n_ops)) return Malformed("op count");
  if (n_ops > kMaxOps) return Malformed("too many ops");
  submit.ops.reserve(n_ops);
  for (std::uint32_t i = 0; i < n_ops; ++i) {
    WireOp op;
    std::uint8_t kind = 0;
    std::uint32_t segment = 0;
    std::uint64_t value = 0;
    if (!GetU8(&payload, &kind) || !GetU32(&payload, &segment) ||
        !GetU32(&payload, &op.granule.index) || !GetU64(&payload, &value)) {
      return Malformed("op entry");
    }
    if (kind > static_cast<std::uint8_t>(WireOp::Kind::kWrite)) {
      return Malformed("unknown op kind");
    }
    op.kind = static_cast<WireOp::Kind>(kind);
    op.granule.segment =
        static_cast<SegmentId>(static_cast<std::int32_t>(segment));
    op.value = static_cast<Value>(value);
    submit.ops.push_back(op);
  }
  if (!payload.empty()) return Malformed("trailing bytes");
  return msg;
}

std::string EncodeResponse(const ResponseMsg& msg) {
  std::string out;
  PutU8(&out, static_cast<std::uint8_t>(msg.type));
  PutU64(&out, msg.request_id);
  switch (msg.type) {
    case NetMsgType::kResult:
      PutU8(&out, msg.committed ? 1 : 0);
      PutU32(&out, msg.aborted_attempts);
      PutU32(&out, static_cast<std::uint32_t>(msg.values.size()));
      for (Value value : msg.values) {
        PutU64(&out, static_cast<std::uint64_t>(value));
      }
      break;
    case NetMsgType::kOverload:
      PutU32(&out, msg.retry_after_ms);
      break;
    case NetMsgType::kError:
      PutU32(&out, static_cast<std::uint32_t>(msg.error.size()));
      out.append(msg.error);
      break;
    case NetMsgType::kPong:
      break;
    default:
      break;  // encoding a request type as a response is a caller bug
  }
  return out;
}

Result<ResponseMsg> DecodeResponse(std::string_view payload) {
  ResponseMsg msg;
  std::uint8_t type = 0;
  if (!GetU8(&payload, &type) || !GetU64(&payload, &msg.request_id)) {
    return Malformed("response header");
  }
  msg.type = static_cast<NetMsgType>(type);
  switch (msg.type) {
    case NetMsgType::kResult: {
      std::uint8_t committed = 0;
      std::uint32_t n_values = 0;
      if (!GetU8(&payload, &committed) ||
          !GetU32(&payload, &msg.aborted_attempts) ||
          !GetU32(&payload, &n_values)) {
        return Malformed("result header");
      }
      msg.committed = committed != 0;
      if (static_cast<std::uint64_t>(n_values) * 8 > payload.size()) {
        return Malformed("value count");
      }
      msg.values.reserve(n_values);
      for (std::uint32_t i = 0; i < n_values; ++i) {
        std::uint64_t value = 0;
        if (!GetU64(&payload, &value)) return Malformed("value entry");
        msg.values.push_back(static_cast<Value>(value));
      }
      break;
    }
    case NetMsgType::kOverload:
      if (!GetU32(&payload, &msg.retry_after_ms)) {
        return Malformed("overload hint");
      }
      break;
    case NetMsgType::kError: {
      std::uint32_t length = 0;
      if (!GetU32(&payload, &length) || length > payload.size()) {
        return Malformed("error length");
      }
      msg.error.assign(payload.substr(0, length));
      payload.remove_prefix(length);
      break;
    }
    case NetMsgType::kPong:
      break;
    default:
      return Malformed("unknown response type");
  }
  if (!payload.empty()) return Malformed("trailing bytes");
  return msg;
}

TxnProgram ToTxnProgram(const SubmitRequest& request,
                        std::vector<Value>* values) {
  TxnProgram program;
  program.options.read_only = request.read_only;
  program.options.txn_class =
      request.read_only ? kReadOnlyClass : request.txn_class;
  program.options.read_scope = request.read_scope;
  // Two pointers: std::function keeps them without a heap allocation.
  program.body = [&request, values](ConcurrencyController& cc,
                                    const TxnDescriptor& txn) -> Status {
    values->clear();  // retries re-run the whole body
    for (const WireOp& op : request.ops) {
      if (op.kind == WireOp::Kind::kWrite) {
        Status status = cc.Write(txn, op.granule, op.value);
        if (!status.ok()) return status;
      } else {
        Result<Value> value = cc.Read(txn, op.granule);
        if (!value.ok()) return value.status();
        values->push_back(*value);
      }
    }
    return Status::OK();
  };
  return program;
}

}  // namespace hdd
