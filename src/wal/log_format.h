#ifndef HDD_WAL_LOG_FORMAT_H_
#define HDD_WAL_LOG_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "storage/version.h"

namespace hdd {

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `data`.
std::uint32_t Crc32(std::string_view data);

/// On-disk framing, identical in every WAL stream (redo logs and
/// checkpoint streams):
///
///   +----------------+----------------+=====================+
///   | length  u32 LE | crc32   u32 LE | payload (length B)  |
///   +----------------+----------------+=====================+
///
/// The CRC covers the payload only. A frame cut short by a crash is a
/// *torn tail* — expected, silently truncated by recovery. A complete
/// frame whose CRC mismatches (or whose header is insane while enough
/// bytes follow) is *corruption* and fails recovery loudly.
inline constexpr std::size_t kFrameHeaderBytes = 8;
/// Sanity cap on a frame's payload; anything larger in a header whose
/// bytes are all present is treated as corruption, not a huge record.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 30;

/// Appends one frame around `payload` to `out`.
void AppendFrame(std::string* out, std::string_view payload);

/// One decoded frame: the payload plus the file offset just past it.
struct ScannedFrame {
  std::string_view payload;
  std::uint64_t end_offset = 0;
};

/// Result of scanning a WAL stream from offset 0.
struct ScanResult {
  std::vector<ScannedFrame> frames;
  /// Offset of the first byte past the last intact frame — where a torn
  /// tail (if any) starts and where recovery truncates to.
  std::uint64_t valid_end = 0;
  /// Whether trailing bytes past valid_end were discarded as torn.
  bool torn_tail = false;
};

/// Walks the stream frame by frame. Returns the scan on success (torn
/// tails are success) and kCorruption on a CRC mismatch or an insane
/// header with all its bytes present. The string_views alias `data`.
Result<ScanResult> ScanFrames(std::string_view data);

/// Redo-log record types. Write/commit/abort land in per-segment redo
/// logs; the checkpoint types frame the snapshot streams.
enum class WalRecordType : std::uint8_t {
  kWrite = 1,
  kCommit = 2,
  kAbort = 3,
  kSegmentCheckpoint = 4,
  kControlCheckpoint = 5,
  /// Clock marker appended by a read-only commit before its durability
  /// barrier: `init_ts` is the clock at ack time. Without it a crash could
  /// rewind the clock below an acked reader's wall bound (bounds anchor on
  /// transactions that may never have logged anything) and a post-recovery
  /// writer could slip a version underneath that reader — an external-
  /// consistency violation the combined-history oracle would flag.
  kReadBound = 6,
  /// Two-phase-commit participant marker (src/dist/): the writes of `txn`
  /// shipped to this segment are fully logged and the participant is
  /// promising to commit them iff the coordinator's commit record becomes
  /// durable at the transaction's home node. Recovery keeps such writes
  /// aside (RecoveryReport::prepared_writes) instead of discarding them,
  /// so the distributed restart can resolve them against the
  /// coordinator's durable-commit verdict.
  kPrepare = 7,
};

/// One decoded redo-log record. `init_ts` doubles as the version
/// order_key (HDD versions are keyed by the creator's initiation time),
/// so replay re-installs versions at exactly their pre-crash position.
struct WalRecord {
  WalRecordType type = WalRecordType::kWrite;
  /// Global append ticket, assigned from one WAL-wide counter inside the
  /// owning log's append critical section — so tickets are dense across
  /// ALL logs (1, 2, 3, ...) and strictly increasing within each log.
  /// Recovery computes the *frontier* F = the largest ticket with no hole
  /// below it among the surviving records, and honors only records with
  /// ticket <= F: since a record's causal dependencies always carry
  /// smaller tickets, a commit that survived a crash "by luck" (its file's
  /// unsynced tail partially retained) while a record it depends on in
  /// ANOTHER file was lost is rolled back instead of resurrected. Acked
  /// commits always land at or below F because the ack's fsync batch
  /// covers every smaller ticket in every log.
  std::uint64_t ticket = 0;
  TxnId txn = kInvalidTxn;
  Timestamp init_ts = kTimestampMin;
  std::uint32_t granule = 0;  // kWrite only
  Value value = 0;            // kWrite only
  std::string blob;           // checkpoint types only
  /// kCommit only: every segment this transaction wrote (and therefore
  /// every log carrying a copy of this commit record). The copies make
  /// each segment's log self-contained for its own versions; the ticket
  /// frontier above is what protects against per-file fsync being
  /// non-atomic across files (a crash mid-sync persisting one copy while
  /// losing a sibling segment's records).
  std::vector<SegmentId> segments;
};

/// Record payload encoding (the bytes inside a frame).
std::string EncodeWalRecord(const WalRecord& record);
Result<WalRecord> DecodeWalRecord(std::string_view payload);

}  // namespace hdd

#endif  // HDD_WAL_LOG_FORMAT_H_
