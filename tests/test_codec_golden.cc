// Golden bytes for every encoder that shares the little-endian integer
// codec (common/codec.h): a framed WAL write record and a commit record,
// two net requests, a dist ActivityReq and SnapshotReply, and a checkpoint
// chain snapshot of a small segment. The expected hex was captured from
// the encoders as they stood before the per-module byte helpers were
// merged into one header; any change to wire or on-disk bytes fails here.
//
// The WAL cases also decode the golden bytes, so files written by an older
// binary keep recovering: the frame scans intact and its payload decodes
// back to the record that produced it.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dist/dist_message.h"
#include "net/protocol.h"
#include "storage/database.h"
#include "wal/checkpoint.h"
#include "wal/log_format.h"

namespace hdd {
namespace {

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

std::string Unhex(std::string_view hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

WalRecord GoldenWrite() {
  WalRecord record;
  record.type = WalRecordType::kWrite;
  record.ticket = 7;
  record.txn = 0x0102030405060708ull;
  record.init_ts = 42;
  record.granule = 3;
  record.value = -5;
  return record;
}

WalRecord GoldenCommit() {
  WalRecord record;
  record.type = WalRecordType::kCommit;
  record.ticket = 0x1122334455667788ull;
  record.txn = 9;
  record.init_ts = 1000;
  record.segments = {0, 2};
  return record;
}

// Frames `record` the way the segment log appends it.
std::string Framed(const WalRecord& record) {
  std::string out;
  AppendFrame(&out, EncodeWalRecord(record));
  return out;
}

void ExpectRecoversAs(const std::string& golden_hex, const WalRecord& want) {
  const std::string file = Unhex(golden_hex);
  Result<ScanResult> scan = ScanFrames(file);
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_EQ(scan->frames.size(), 1u);
  EXPECT_FALSE(scan->torn_tail);
  Result<WalRecord> got = DecodeWalRecord(scan->frames[0].payload);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->type, want.type);
  EXPECT_EQ(got->ticket, want.ticket);
  EXPECT_EQ(got->txn, want.txn);
  EXPECT_EQ(got->init_ts, want.init_ts);
  EXPECT_EQ(got->granule, want.granule);
  EXPECT_EQ(got->value, want.value);
  EXPECT_EQ(got->segments, want.segments);
}

constexpr char kWriteFrameHex[] =
    "250000000e23311201070000000000000008070605040302012a000000000000000300"
    "0000fbffffffffffffff";
constexpr char kCommitFrameHex[] =
    "25000000117ac78f0288776655443322110900000000000000e8030000000000000200"
    "00000000000002000000";

TEST(CodecGolden, WalWriteRecord) {
  EXPECT_EQ(Hex(Framed(GoldenWrite())), kWriteFrameHex);
  ExpectRecoversAs(kWriteFrameHex, GoldenWrite());
}

TEST(CodecGolden, WalCommitRecord) {
  EXPECT_EQ(Hex(Framed(GoldenCommit())), kCommitFrameHex);
  ExpectRecoversAs(kCommitFrameHex, GoldenCommit());
}

TEST(CodecGolden, NetSubmitRequests) {
  RequestMsg update;
  update.type = NetMsgType::kSubmit;
  update.submit.request_id = 0xABCDEF0123ull;
  update.submit.txn_class = 2;
  update.submit.ops = {
      WireOp{WireOp::Kind::kRead, GranuleRef{1, 5}, 0},
      WireOp{WireOp::Kind::kWrite, GranuleRef{2, 7}, 99},
  };
  EXPECT_EQ(Hex(EncodeRequest(update)),
            "012301efcdab00000002000000000000000002000000000100000005000000"
            "00000000000000000102000000070000006300000000000000");

  RequestMsg read_only;
  read_only.type = NetMsgType::kSubmit;
  read_only.submit.request_id = 3;
  read_only.submit.read_only = true;
  read_only.submit.read_scope = {0, 1};
  read_only.submit.ops = {WireOp{WireOp::Kind::kRead, GranuleRef{1, 300}, 0}};
  EXPECT_EQ(Hex(EncodeRequest(read_only)),
            "010300000000000000000000000102000000000000000100000001000000000100"
            "00002c0100000000000000000000");
}

TEST(CodecGolden, DistActivityReqAndSnapshotReply) {
  EXPECT_EQ(Hex(EncodeActivityReq(ActivityReq{0x0102030405ull, {1, 2, 3}})),
            "01050403020100000003000000010000000200000003000000");
  EXPECT_EQ(Hex(EncodeSnapshotReply(SnapshotReply{77, -1})),
            "4d00000000000000ffffffffffffffff");
}

TEST(CodecGolden, CheckpointSegmentChains) {
  Segment segment("golden");
  segment.Allocate(10);
  segment.Allocate(20);
  Version committed;
  committed.order_key = 5;
  committed.wts = 5;
  committed.rts = 6;
  committed.creator = 11;
  committed.value = 21;
  committed.committed = true;
  Version pending = committed;
  pending.order_key = 8;
  pending.wts = 8;
  pending.creator = 12;
  pending.value = -22;
  pending.committed = false;
  std::vector<Version> chain = segment.granule(1).versions();
  chain.push_back(committed);
  chain.push_back(pending);
  ASSERT_TRUE(segment.granule(1).RestoreVersions(chain).ok());
  EXPECT_EQ(Hex(EncodeSegmentChains(segment)),
            "0200000001000000000000000000000000000000000000000000000000000000"
            "00000000000000000a0000000000000001030000000000000000000000000000"
            "0000000000000000000000000000000000000000001400000000000000010500"
            "000000000000050000000000000006000000000000000b000000000000001500"
            "000000000000010800000000000000080000000000000006000000000000000c"
            "00000000000000eaffffffffffffff00");
}

}  // namespace
}  // namespace hdd
