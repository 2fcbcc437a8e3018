#include "wal/checkpoint.h"

#include <utility>
#include <vector>

#include "common/codec.h"
#include "wal/log_format.h"
#include "wal/wal_manager.h"

namespace hdd {

namespace {

/// Chain snapshot layout (everything LE):
///   u32 num_granules
///   per granule: u32 num_versions, then per version
///     u64 order_key, u64 wts, u64 rts, u64 creator, u64 value, u8 committed
constexpr char kCommittedFlag = 1;

/// Appends one checkpoint record (of `type`) as a frame and syncs the
/// stream. Appending before syncing keeps the previous checkpoint intact
/// until the new frame is fully durable — the reader takes the last valid
/// frame, so a crash anywhere here is harmless.
Status AppendCheckpointRecord(WalStorage* storage, const std::string& name,
                              WalRecordType type, std::string blob) {
  WalRecord record;
  record.type = type;
  record.blob = std::move(blob);
  std::string frame;
  AppendFrame(&frame, EncodeWalRecord(record));
  HDD_RETURN_IF_ERROR(storage->Append(name, frame));
  return storage->Sync(name);
}

/// Reads the stream and returns the payload of its last intact frame of
/// `type` (nullopt when the stream has no intact frames).
Result<std::optional<WalRecord>> LoadLastCheckpointRecord(
    WalStorage* storage, const std::string& name, WalRecordType type) {
  HDD_ASSIGN_OR_RETURN(const std::string data, storage->Read(name));
  HDD_ASSIGN_OR_RETURN(const ScanResult scan, ScanFrames(data));
  if (scan.frames.empty()) return std::optional<WalRecord>();
  HDD_ASSIGN_OR_RETURN(WalRecord record,
                       DecodeWalRecord(scan.frames.back().payload));
  if (record.type != type) {
    return Status::Corruption("checkpoint stream " + name +
                              " holds a record of the wrong type");
  }
  return std::optional<WalRecord>(std::move(record));
}

}  // namespace

std::string EncodeSegmentChains(const Segment& segment) {
  std::string out;
  PutU32(&out, segment.size());
  for (std::uint32_t i = 0; i < segment.size(); ++i) {
    const std::vector<Version>& versions = segment.granule(i).versions();
    PutU32(&out, static_cast<std::uint32_t>(versions.size()));
    for (const Version& v : versions) {
      PutU64(&out, v.order_key);
      PutU64(&out, v.wts);
      PutU64(&out, v.rts);
      PutU64(&out, v.creator);
      PutU64(&out, static_cast<std::uint64_t>(v.value));
      out.push_back(v.committed ? kCommittedFlag : 0);
    }
  }
  return out;
}

Status DecodeSegmentChainsInto(std::string_view blob, Segment* segment) {
  std::uint32_t num_granules = 0;
  if (!GetU32(&blob, &num_granules)) {
    return Status::Corruption("chain snapshot: missing granule count");
  }
  for (std::uint32_t i = 0; i < num_granules; ++i) {
    std::uint32_t num_versions = 0;
    if (!GetU32(&blob, &num_versions) || num_versions == 0) {
      return Status::Corruption("chain snapshot: bad version count");
    }
    std::vector<Version> versions;
    versions.reserve(num_versions);
    for (std::uint32_t j = 0; j < num_versions; ++j) {
      Version v;
      std::uint64_t value = 0;
      if (!GetU64(&blob, &v.order_key) || !GetU64(&blob, &v.wts) ||
          !GetU64(&blob, &v.rts) || !GetU64(&blob, &v.creator) ||
          !GetU64(&blob, &value) || blob.empty()) {
        return Status::Corruption("chain snapshot: truncated version");
      }
      v.value = static_cast<Value>(value);
      v.committed = blob.front() == kCommittedFlag;
      blob.remove_prefix(1);
      versions.push_back(v);
    }
    while (segment->size() <= i) segment->Allocate(0);
    HDD_RETURN_IF_ERROR(segment->granule(i).RestoreVersions(
        std::move(versions)));
  }
  if (!blob.empty()) {
    return Status::Corruption("chain snapshot: trailing bytes");
  }
  return Status::OK();
}

Status AppendSegmentCheckpoint(WalStorage* storage, SegmentId s,
                               const SegmentCheckpoint& ckpt) {
  std::string blob;
  PutU64(&blob, ckpt.log_end_lsn);
  blob.append(ckpt.chains);
  return AppendCheckpointRecord(storage, SegmentCheckpointName(s),
                                WalRecordType::kSegmentCheckpoint,
                                std::move(blob));
}

Result<std::optional<SegmentCheckpoint>> LoadSegmentCheckpoint(
    WalStorage* storage, SegmentId s) {
  HDD_ASSIGN_OR_RETURN(
      std::optional<WalRecord> record,
      LoadLastCheckpointRecord(storage, SegmentCheckpointName(s),
                               WalRecordType::kSegmentCheckpoint));
  if (!record.has_value()) return std::optional<SegmentCheckpoint>();
  std::string_view blob = record->blob;
  SegmentCheckpoint ckpt;
  if (!GetU64(&blob, &ckpt.log_end_lsn)) {
    return Status::Corruption("segment checkpoint: missing log LSN");
  }
  ckpt.chains.assign(blob);
  return std::optional<SegmentCheckpoint>(std::move(ckpt));
}

Status AppendControlCheckpoint(WalStorage* storage,
                               std::string_view control_state) {
  return AppendCheckpointRecord(storage, kControlCheckpointName,
                                WalRecordType::kControlCheckpoint,
                                std::string(control_state));
}

Result<std::optional<std::string>> LoadControlCheckpoint(WalStorage* storage) {
  HDD_ASSIGN_OR_RETURN(
      std::optional<WalRecord> record,
      LoadLastCheckpointRecord(storage, kControlCheckpointName,
                               WalRecordType::kControlCheckpoint));
  if (!record.has_value()) return std::optional<std::string>();
  return std::optional<std::string>(std::move(record->blob));
}

}  // namespace hdd
