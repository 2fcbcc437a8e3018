#include "wal/log_format.h"

#include <array>

#include "common/codec.h"

namespace hdd {

namespace {

std::array<std::uint32_t, 256> BuildCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

}  // namespace

std::uint32_t Crc32(std::string_view data) {
  static const std::array<std::uint32_t, 256> table = BuildCrcTable();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

void AppendFrame(std::string* out, std::string_view payload) {
  PutU32(out, static_cast<std::uint32_t>(payload.size()));
  PutU32(out, Crc32(payload));
  out->append(payload);
}

Result<ScanResult> ScanFrames(std::string_view data) {
  ScanResult result;
  std::uint64_t offset = 0;
  while (offset < data.size()) {
    std::string_view rest = data.substr(offset);
    if (rest.size() < kFrameHeaderBytes) break;  // torn header
    std::uint32_t length = 0;
    std::uint32_t crc = 0;
    GetU32(&rest, &length);
    GetU32(&rest, &crc);
    if (length == 0 || length > kMaxFramePayload) {
      // The header is fully present and cannot be a real frame. A torn
      // tail can produce garbage length bytes, but only when the payload
      // bytes are ALSO missing; if enough bytes follow to be a payload of
      // some plausible record, guessing would risk replaying garbage —
      // refuse either way. (Zero-length frames are never written.)
      return Status::Corruption("invalid frame length " +
                                std::to_string(length) + " at offset " +
                                std::to_string(offset));
    }
    if (rest.size() < length) break;  // torn payload
    const std::string_view payload = rest.substr(0, length);
    if (Crc32(payload) != crc) {
      return Status::Corruption("frame CRC mismatch at offset " +
                                std::to_string(offset));
    }
    offset += kFrameHeaderBytes + length;
    result.frames.push_back(ScannedFrame{payload, offset});
  }
  result.valid_end = offset;
  result.torn_tail = offset < data.size();
  return result;
}

std::string EncodeWalRecord(const WalRecord& record) {
  std::string out;
  out.push_back(static_cast<char>(record.type));
  PutU64(&out, record.ticket);
  PutU64(&out, record.txn);
  PutU64(&out, record.init_ts);
  switch (record.type) {
    case WalRecordType::kWrite:
      PutU32(&out, record.granule);
      PutU64(&out, static_cast<std::uint64_t>(record.value));
      break;
    case WalRecordType::kCommit:
      PutU32(&out, static_cast<std::uint32_t>(record.segments.size()));
      for (const SegmentId s : record.segments) {
        PutU32(&out, static_cast<std::uint32_t>(s));
      }
      break;
    case WalRecordType::kAbort:
    case WalRecordType::kReadBound:
    case WalRecordType::kPrepare:
      break;
    case WalRecordType::kSegmentCheckpoint:
    case WalRecordType::kControlCheckpoint:
      out.append(record.blob);
      break;
  }
  return out;
}

Result<WalRecord> DecodeWalRecord(std::string_view payload) {
  if (payload.empty()) return Status::Corruption("empty WAL record");
  WalRecord record;
  const auto type = static_cast<std::uint8_t>(payload[0]);
  payload.remove_prefix(1);
  if (type < static_cast<std::uint8_t>(WalRecordType::kWrite) ||
      type > static_cast<std::uint8_t>(WalRecordType::kPrepare)) {
    return Status::Corruption("unknown WAL record type " +
                              std::to_string(type));
  }
  record.type = static_cast<WalRecordType>(type);
  if (!GetU64(&payload, &record.ticket) || !GetU64(&payload, &record.txn) ||
      !GetU64(&payload, &record.init_ts)) {
    return Status::Corruption("truncated WAL record header");
  }
  switch (record.type) {
    case WalRecordType::kWrite: {
      std::uint64_t value = 0;
      if (!GetU32(&payload, &record.granule) || !GetU64(&payload, &value)) {
        return Status::Corruption("truncated write record");
      }
      record.value = static_cast<Value>(value);
      break;
    }
    case WalRecordType::kCommit: {
      std::uint32_t count = 0;
      if (!GetU32(&payload, &count) || payload.size() < 4ull * count) {
        return Status::Corruption("truncated commit segment list");
      }
      record.segments.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        std::uint32_t s = 0;
        GetU32(&payload, &s);
        record.segments.push_back(static_cast<SegmentId>(s));
      }
      break;
    }
    case WalRecordType::kAbort:
    case WalRecordType::kReadBound:
    case WalRecordType::kPrepare:
      break;
    case WalRecordType::kSegmentCheckpoint:
    case WalRecordType::kControlCheckpoint:
      record.blob.assign(payload);
      break;
  }
  return record;
}

}  // namespace hdd
