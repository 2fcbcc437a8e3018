// Frame codec and wire protocol: round trips, torn delivery, corruption
// rejection. The framing is byte-identical to the WAL's, but the decoder's
// contract differs — incomplete means "more bytes in flight", corruption
// means "close the connection" — so it gets its own property tests.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "net/frame.h"
#include "net/protocol.h"

namespace hdd {
namespace {

std::string RandomPayload(Rng& rng, std::size_t size) {
  std::string payload;
  payload.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    payload.push_back(static_cast<char>(rng.NextBounded(256)));
  }
  return payload;
}

TEST(FrameCodec, RoundTripsRandomPayloadSizes) {
  Rng rng(42);
  FrameDecoder decoder;
  std::vector<std::string> sent;
  std::string stream;
  for (int i = 0; i < 200; ++i) {
    // Cover empty, tiny, and multi-KiB payloads.
    const std::size_t size = rng.NextBool(0.1)
                                 ? 0
                                 : static_cast<std::size_t>(
                                       rng.NextBounded(8 * 1024));
    sent.push_back(RandomPayload(rng, size));
    AppendNetFrame(&stream, sent.back());
  }
  decoder.Feed(stream);
  std::string payload;
  for (const std::string& expected : sent) {
    ASSERT_EQ(decoder.Poll(&payload), FrameDecoder::Next::kFrame);
    EXPECT_EQ(payload, expected);
  }
  EXPECT_EQ(decoder.Poll(&payload), FrameDecoder::Next::kNeedMore);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameCodec, TornDeliveryYieldsFramesOnlyWhenComplete) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::string> sent;
    std::string stream;
    for (int i = 0; i < 5; ++i) {
      sent.push_back(RandomPayload(
          rng, static_cast<std::size_t>(rng.NextBounded(300))));
      AppendNetFrame(&stream, sent.back());
    }
    FrameDecoder decoder;
    std::size_t delivered = 0;
    std::size_t off = 0;
    std::string payload;
    while (off < stream.size()) {
      // Random chunk sizes, including single bytes: every prefix boundary
      // must read as kNeedMore, never as a frame or corruption.
      const std::size_t chunk = static_cast<std::size_t>(
          1 + rng.NextBounded(std::min<std::size_t>(97, stream.size() - off)));
      decoder.Feed(std::string_view(stream).substr(off, chunk));
      off += chunk;
      for (;;) {
        const FrameDecoder::Next next = decoder.Poll(&payload);
        ASSERT_NE(next, FrameDecoder::Next::kCorrupt);
        if (next == FrameDecoder::Next::kNeedMore) break;
        ASSERT_LT(delivered, sent.size());
        EXPECT_EQ(payload, sent[delivered]);
        ++delivered;
      }
    }
    EXPECT_EQ(delivered, sent.size());
  }
}

TEST(FrameCodec, CorruptPayloadByteIsRejected) {
  Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    const std::string payload =
        RandomPayload(rng, 1 + static_cast<std::size_t>(rng.NextBounded(256)));
    std::string stream;
    AppendNetFrame(&stream, payload);
    // Flip one random bit anywhere in the frame (header or payload).
    const std::size_t byte =
        static_cast<std::size_t>(rng.NextBounded(stream.size()));
    stream[byte] = static_cast<char>(stream[byte] ^
                                     (1u << rng.NextBounded(8)));
    FrameDecoder decoder;
    decoder.Feed(stream);
    std::string out;
    const FrameDecoder::Next next = decoder.Poll(&out);
    // A flipped length byte may leave the decoder waiting for bytes that
    // never come (that is the stream desync case the connection idle
    // timeout would reap); it must never deliver the corrupted payload as
    // a valid frame of the original content.
    if (next == FrameDecoder::Next::kFrame) {
      EXPECT_NE(out, payload) << "bit flip at byte " << byte
                              << " went undetected";
    } else {
      EXPECT_TRUE(next == FrameDecoder::Next::kCorrupt ||
                  next == FrameDecoder::Next::kNeedMore);
    }
    // Once corrupt, always corrupt.
    if (next == FrameDecoder::Next::kCorrupt) {
      decoder.Feed(stream);
      EXPECT_EQ(decoder.Poll(&out), FrameDecoder::Next::kCorrupt);
    }
  }
}

TEST(FrameCodec, InsaneLengthHeaderIsCorruptNotBuffered) {
  std::string stream;
  PutU32(&stream, kMaxNetFramePayload + 1);
  PutU32(&stream, 0);
  FrameDecoder decoder;
  decoder.Feed(stream);
  std::string out;
  EXPECT_EQ(decoder.Poll(&out), FrameDecoder::Next::kCorrupt);
}

TEST(FrameCodec, CompactionKeepsBufferBounded) {
  FrameDecoder decoder;
  const std::string payload(1000, 'x');
  std::string frame;
  AppendNetFrame(&frame, payload);
  std::string out;
  for (int i = 0; i < 1000; ++i) {
    decoder.Feed(frame);
    ASSERT_EQ(decoder.Poll(&out), FrameDecoder::Next::kFrame);
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

RequestMsg RandomSubmit(Rng& rng) {
  RequestMsg msg;
  msg.type = NetMsgType::kSubmit;
  msg.submit.request_id = rng.Next();
  msg.submit.txn_class = static_cast<ClassId>(rng.NextBounded(8));
  msg.submit.read_only = rng.NextBool(0.3);
  const int n_scope = static_cast<int>(rng.NextBounded(4));
  for (int i = 0; i < n_scope; ++i) {
    msg.submit.read_scope.push_back(
        static_cast<SegmentId>(rng.NextBounded(8)));
  }
  const int n_ops = static_cast<int>(rng.NextBounded(20));
  for (int i = 0; i < n_ops; ++i) {
    WireOp op;
    op.kind = rng.NextBool(0.5) ? WireOp::Kind::kRead : WireOp::Kind::kWrite;
    op.granule.segment = static_cast<SegmentId>(rng.NextBounded(8));
    op.granule.index = static_cast<std::uint32_t>(rng.NextBounded(1024));
    op.value = static_cast<Value>(rng.Next());
    msg.submit.ops.push_back(op);
  }
  return msg;
}

TEST(Protocol, RequestRoundTrip) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const RequestMsg msg = RandomSubmit(rng);
    const Result<RequestMsg> decoded = DecodeRequest(EncodeRequest(msg));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->type, msg.type);
    EXPECT_EQ(decoded->submit.request_id, msg.submit.request_id);
    EXPECT_EQ(decoded->submit.txn_class, msg.submit.txn_class);
    EXPECT_EQ(decoded->submit.read_only, msg.submit.read_only);
    EXPECT_EQ(decoded->submit.read_scope, msg.submit.read_scope);
    ASSERT_EQ(decoded->submit.ops.size(), msg.submit.ops.size());
    for (std::size_t j = 0; j < msg.submit.ops.size(); ++j) {
      EXPECT_EQ(decoded->submit.ops[j].kind, msg.submit.ops[j].kind);
      EXPECT_EQ(decoded->submit.ops[j].granule, msg.submit.ops[j].granule);
      EXPECT_EQ(decoded->submit.ops[j].value, msg.submit.ops[j].value);
    }
  }
}

TEST(Protocol, PingRoundTrip) {
  RequestMsg msg;
  msg.type = NetMsgType::kPing;
  msg.request_id = 12345;
  const Result<RequestMsg> decoded = DecodeRequest(EncodeRequest(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, NetMsgType::kPing);
  EXPECT_EQ(decoded->request_id, 12345u);
}

TEST(Protocol, ResponseRoundTrip) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    ResponseMsg msg;
    msg.request_id = rng.Next();
    switch (rng.NextBounded(4)) {
      case 0:
        msg.type = NetMsgType::kResult;
        msg.committed = rng.NextBool(0.8);
        msg.aborted_attempts = static_cast<std::uint32_t>(rng.NextBounded(10));
        for (int v = static_cast<int>(rng.NextBounded(8)); v > 0; --v) {
          msg.values.push_back(static_cast<Value>(rng.Next()));
        }
        break;
      case 1:
        msg.type = NetMsgType::kOverload;
        msg.retry_after_ms = static_cast<std::uint32_t>(rng.NextBounded(5000));
        break;
      case 2:
        msg.type = NetMsgType::kError;
        msg.error = RandomPayload(rng, rng.NextBounded(64));
        break;
      default:
        msg.type = NetMsgType::kPong;
        break;
    }
    const Result<ResponseMsg> decoded = DecodeResponse(EncodeResponse(msg));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->type, msg.type);
    EXPECT_EQ(decoded->request_id, msg.request_id);
    EXPECT_EQ(decoded->committed, msg.committed);
    EXPECT_EQ(decoded->aborted_attempts, msg.aborted_attempts);
    EXPECT_EQ(decoded->values, msg.values);
    EXPECT_EQ(decoded->retry_after_ms, msg.retry_after_ms);
    EXPECT_EQ(decoded->error, msg.error);
  }
}

TEST(Protocol, MalformedPayloadsRejectedNotCrashed) {
  Rng rng(11);
  // Truncations of a valid message: every strict prefix must decode to an
  // error, never a bogus success.
  const std::string valid = EncodeRequest(RandomSubmit(rng));
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    const Result<RequestMsg> decoded =
        DecodeRequest(std::string_view(valid).substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "prefix of length " << cut << " accepted";
  }
  // Trailing garbage after a valid message.
  EXPECT_FALSE(DecodeRequest(valid + "x").ok());
  // Random byte soup: must not crash and should essentially never parse.
  for (int i = 0; i < 500; ++i) {
    const std::string junk =
        RandomPayload(rng, 1 + static_cast<std::size_t>(rng.NextBounded(64)));
    (void)DecodeRequest(junk);
    (void)DecodeResponse(junk);
  }
  // Hostile op count: claims 2^16 ops with a tiny body.
  std::string hostile;
  hostile.push_back(static_cast<char>(NetMsgType::kSubmit));
  PutU64(&hostile, 1);
  PutU32(&hostile, 0);
  hostile.push_back(0);
  PutU32(&hostile, 0);              // empty read scope
  PutU32(&hostile, 0xFFFFFFFFu);    // absurd op count
  EXPECT_FALSE(DecodeRequest(hostile).ok());
}

TEST(Protocol, ToTxnProgramMapsTheDeclaredOptions) {
  SubmitRequest submit;
  submit.txn_class = 2;
  submit.ops = {{WireOp::Kind::kWrite, {2, 6}, 7}};
  std::vector<Value> values;
  const TxnProgram program = ToTxnProgram(submit, &values);
  EXPECT_FALSE(program.options.read_only);
  EXPECT_EQ(program.options.txn_class, 2);

  SubmitRequest ro;
  ro.read_only = true;
  ro.txn_class = 3;  // ignored for read-only programs
  ro.read_scope = {1, 2};
  ro.ops = {{WireOp::Kind::kRead, {0, 1}, 0}};
  const TxnProgram ro_program = ToTxnProgram(ro, &values);
  EXPECT_TRUE(ro_program.options.read_only);
  EXPECT_EQ(ro_program.options.txn_class, kReadOnlyClass);
  EXPECT_EQ(ro_program.options.read_scope, (std::vector<SegmentId>{1, 2}));
}

// Answers every read with the next value of a counter and logs writes;
// the rest of the interface is never reached by a program body.
class CountingController : public ConcurrencyController {
 public:
  CountingController() : ConcurrencyController(nullptr, nullptr) {}

  std::string_view name() const override { return "counting"; }
  Result<TxnDescriptor> Begin(const TxnOptions&) override {
    return Status::InvalidArgument("unused");
  }
  Result<Value> Read(const TxnDescriptor&, GranuleRef) override {
    return next_read++;
  }
  Status Write(const TxnDescriptor&, GranuleRef granule,
               Value value) override {
    writes.push_back({granule, value});
    return Status::OK();
  }
  Status Commit(const TxnDescriptor&) override {
    return Status::InvalidArgument("unused");
  }
  Status Abort(const TxnDescriptor&) override {
    return Status::InvalidArgument("unused");
  }

  Value next_read = 10;
  std::vector<std::pair<GranuleRef, Value>> writes;
};

// The program borrows the request and the caller's buffer. A retry runs
// the body again: the buffer then holds the last run's reads only.
TEST(Protocol, ToTxnProgramRetryKeepsOnlyTheLastRunsReads) {
  SubmitRequest submit;
  submit.txn_class = 1;
  submit.ops = {
      {WireOp::Kind::kRead, {0, 1}, 0},
      {WireOp::Kind::kWrite, {1, 2}, 7},
      {WireOp::Kind::kRead, {1, 3}, 0},
  };
  std::vector<Value> values;
  const TxnProgram program = ToTxnProgram(submit, &values);
  CountingController cc;
  const TxnDescriptor txn;
  ASSERT_TRUE(program.body(cc, txn).ok());
  EXPECT_EQ(values, (std::vector<Value>{10, 11}));
  ASSERT_TRUE(program.body(cc, txn).ok());
  EXPECT_EQ(values, (std::vector<Value>{12, 13}));
  ASSERT_EQ(cc.writes.size(), 2u);
  EXPECT_EQ(cc.writes[1].first, (GranuleRef{1, 2}));
  EXPECT_EQ(cc.writes[1].second, 7);
}

}  // namespace
}  // namespace hdd
