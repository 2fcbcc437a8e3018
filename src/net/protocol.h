#ifndef HDD_NET_PROTOCOL_H_
#define HDD_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "engine/txn_program.h"
#include "graph/dhg.h"
#include "storage/version.h"

namespace hdd {

/// Message types carried inside a net frame (first payload byte). A
/// connection is a pipelined request/response stream: every kSubmit or
/// kPing is answered by exactly one response frame carrying the same
/// request_id; responses may interleave across requests of one connection
/// (workers finish out of order), so the id — not arrival order — pairs
/// them up.
enum class NetMsgType : std::uint8_t {
  // Client -> server.
  kSubmit = 1,  // one transaction program
  kPing = 2,    // liveness / fence: answered kPong after prior admissions
  // Server -> client.
  kResult = 3,    // terminal transaction outcome (committed or failed)
  kOverload = 4,  // shed by admission control; carries a retry-after hint
  kError = 5,     // malformed or unserviceable request
  kPong = 6,
};

/// One declared operation of a wire transaction program, executed in
/// order between Begin and Commit.
struct WireOp {
  enum class Kind : std::uint8_t { kRead = 0, kWrite = 1 };
  Kind kind = Kind::kRead;
  GranuleRef granule;
  Value value = 0;  // kWrite only
};

/// A transaction program in wire form: the declared TxnOptions plus a
/// straight-line op list, which is what a remote client can express
/// without shipping code.
struct SubmitRequest {
  std::uint64_t request_id = 0;
  /// Root class for updates; ignored when read_only (the server runs
  /// read-only programs as kReadOnlyClass ad-hoc transactions).
  ClassId txn_class = 0;
  bool read_only = false;
  /// Optional Protocol C -> hosted-Protocol A declaration (see
  /// TxnOptions::read_scope); read-only programs only.
  std::vector<SegmentId> read_scope;
  std::vector<WireOp> ops;
};

/// A decoded client -> server message.
struct RequestMsg {
  NetMsgType type = NetMsgType::kSubmit;
  std::uint64_t request_id = 0;  // kPing (kSubmit carries its own)
  SubmitRequest submit;          // kSubmit only
};

/// A server -> client message.
struct ResponseMsg {
  NetMsgType type = NetMsgType::kResult;
  std::uint64_t request_id = 0;
  // kResult:
  bool committed = false;
  std::uint32_t aborted_attempts = 0;
  std::vector<Value> values;  // read results, in op order
  // kOverload:
  std::uint32_t retry_after_ms = 0;
  // kError:
  std::string error;
};

/// Payload encoders/decoders (framing is the caller's: net/frame.h).
/// Decoders reject trailing bytes and out-of-range enums loudly — a
/// malformed payload inside a CRC-valid frame is a client bug, answered
/// with kError, never a crash.
std::string EncodeRequest(const RequestMsg& msg);
Result<RequestMsg> DecodeRequest(std::string_view payload);
std::string EncodeResponse(const ResponseMsg& msg);
Result<ResponseMsg> DecodeResponse(std::string_view payload);

/// Compiles a decoded submit into an executable program. Read results are
/// appended to `*values` in op order; the body clears the vector at every
/// attempt start, so retries do not duplicate. The program borrows both
/// `request` and `values`: the caller owns them, and they must outlive
/// every run of the body.
TxnProgram ToTxnProgram(const SubmitRequest& request,
                        std::vector<Value>* values);

}  // namespace hdd

#endif  // HDD_NET_PROTOCOL_H_
