// Unit tests of the WAL's on-disk layer (src/wal/): CRC framing, record
// encoding, the SimWalStorage crash model, segment logs, group commit,
// fuzzy checkpoints and crash recovery over hand-built databases. The
// end-to-end controller-level recovery tests live in test_wal_recovery.cc;
// the model-checked crash sweeps in test_sim_explore.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "storage/database.h"
#include "wal/checkpoint.h"
#include "wal/log_format.h"
#include "wal/recovery.h"
#include "wal/segment_log.h"
#include "wal/wal_manager.h"
#include "wal/wal_storage.h"

namespace hdd {
namespace {

// ---------------------------------------------------------------------------
// Framing.

TEST(WalFormat, Crc32KnownVector) {
  // The IEEE CRC-32 of "123456789" is the classic check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(WalFormat, ScanEmptyLog) {
  const auto scan = ScanFrames("");
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->frames.empty());
  EXPECT_EQ(scan->valid_end, 0u);
  EXPECT_FALSE(scan->torn_tail);
}

TEST(WalFormat, ScanRoundTrip) {
  std::string log;
  AppendFrame(&log, "alpha");
  AppendFrame(&log, "beta");
  const auto scan = ScanFrames(log);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->frames.size(), 2u);
  EXPECT_EQ(scan->frames[0].payload, "alpha");
  EXPECT_EQ(scan->frames[1].payload, "beta");
  EXPECT_EQ(scan->valid_end, log.size());
  EXPECT_FALSE(scan->torn_tail);
}

TEST(WalFormat, TruncatedTailIsTornNotCorrupt) {
  std::string log;
  AppendFrame(&log, "alpha");
  AppendFrame(&log, "beta");
  const std::size_t intact = log.size();
  AppendFrame(&log, "gamma-longer-payload");
  // Chop the last frame at every possible length: always a torn tail,
  // never corruption, and the valid prefix always holds the two frames.
  for (std::size_t cut = intact; cut < log.size(); ++cut) {
    const auto scan = ScanFrames(std::string_view(log).substr(0, cut));
    ASSERT_TRUE(scan.ok()) << "cut=" << cut;
    EXPECT_EQ(scan->frames.size(), 2u) << "cut=" << cut;
    EXPECT_EQ(scan->valid_end, intact) << "cut=" << cut;
    EXPECT_EQ(scan->torn_tail, cut > intact) << "cut=" << cut;
  }
}

TEST(WalFormat, BitFlipIsCorruption) {
  std::string log;
  AppendFrame(&log, "alpha");
  AppendFrame(&log, "beta");
  // Flip one bit in the middle of the first payload: the frame is complete
  // so this must be a loud kCorruption, not a silent truncation.
  log[kFrameHeaderBytes + 2] ^= 0x20;
  const auto scan = ScanFrames(log);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kCorruption);
}

TEST(WalFormat, InsaneLengthIsCorruption) {
  std::string log;
  // A zero-length frame is never written; a complete header claiming one
  // cannot be a torn tail.
  PutU32(&log, 0);
  PutU32(&log, 0);
  auto scan = ScanFrames(log);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kCorruption);

  log.clear();
  PutU32(&log, kMaxFramePayload + 1);
  PutU32(&log, 0x1234);
  scan = ScanFrames(log);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Record encoding.

TEST(WalFormat, RecordRoundTrip) {
  WalRecord write;
  write.type = WalRecordType::kWrite;
  write.ticket = 41;
  write.txn = 7;
  write.init_ts = 1234;
  write.granule = 3;
  write.value = -99;
  const auto decoded = DecodeWalRecord(EncodeWalRecord(write));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, WalRecordType::kWrite);
  EXPECT_EQ(decoded->ticket, 41u);
  EXPECT_EQ(decoded->txn, 7u);
  EXPECT_EQ(decoded->init_ts, 1234u);
  EXPECT_EQ(decoded->granule, 3u);
  EXPECT_EQ(decoded->value, -99);

  WalRecord commit;
  commit.type = WalRecordType::kCommit;
  commit.ticket = 42;
  commit.txn = 7;
  commit.init_ts = 1234;
  commit.segments = {2, 5, 9};
  const auto commit_decoded = DecodeWalRecord(EncodeWalRecord(commit));
  ASSERT_TRUE(commit_decoded.ok());
  EXPECT_EQ(commit_decoded->segments, (std::vector<SegmentId>{2, 5, 9}));

  WalRecord bound;
  bound.type = WalRecordType::kReadBound;
  bound.ticket = 43;
  bound.init_ts = 777;
  const auto bound_decoded = DecodeWalRecord(EncodeWalRecord(bound));
  ASSERT_TRUE(bound_decoded.ok());
  EXPECT_EQ(bound_decoded->type, WalRecordType::kReadBound);
  EXPECT_EQ(bound_decoded->init_ts, 777u);
}

TEST(WalFormat, TruncatedRecordIsCorruption) {
  WalRecord write;
  write.type = WalRecordType::kWrite;
  write.txn = 7;
  const std::string payload = EncodeWalRecord(write);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const auto decoded =
        DecodeWalRecord(std::string_view(payload).substr(0, cut));
    ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
  EXPECT_FALSE(DecodeWalRecord("\x09garbage").ok());  // unknown type
}

// ---------------------------------------------------------------------------
// SimWalStorage crash model.

TEST(WalStorage, SyncedBytesSurviveCrash) {
  SimWalStorage storage;
  Rng rng(7);
  ASSERT_TRUE(storage.Append("a.log", "synced-part").ok());
  ASSERT_TRUE(storage.Sync("a.log").ok());
  ASSERT_TRUE(storage.Append("a.log", "buffered-part").ok());
  EXPECT_EQ(storage.BufferedBytes(), 13u);
  storage.Crash(rng);
  const auto data = storage.Read("a.log");
  ASSERT_TRUE(data.ok());
  // The synced prefix survives; some prefix of the buffered tail may ride
  // along (that is the point of the model).
  ASSERT_GE(data->size(), 11u);
  EXPECT_EQ(data->substr(0, 11), "synced-part");
  EXPECT_EQ(data->substr(11), std::string("buffered-part").substr(
                                  0, data->size() - 11));
  EXPECT_EQ(storage.BufferedBytes(), 0u);  // survivors are now durable
}

TEST(WalStorage, CrashLossIsSeedDeterministic) {
  auto run = [](std::uint64_t seed) {
    SimWalStorage storage;
    for (int f = 0; f < 4; ++f) {
      const std::string name = "f" + std::to_string(f);
      (void)storage.Append(name, std::string(64, 'x'));
    }
    Rng rng(seed);
    storage.Crash(rng);
    std::string shape;
    for (int f = 0; f < 4; ++f) {
      shape += std::to_string(
                   storage.Read("f" + std::to_string(f))->size()) +
               ",";
    }
    return shape;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));  // virtually certain with 4 x 64 bytes at stake
}

TEST(WalStorage, FailNextSyncsInjectsIoError) {
  SimWalStorage storage;
  ASSERT_TRUE(storage.Append("a.log", "data").ok());
  storage.FailNextSyncs(1);
  const Status failed = storage.Sync("a.log");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_TRUE(storage.Sync("a.log").ok());  // next sync succeeds again
}

// ---------------------------------------------------------------------------
// WalManager: tickets, group commit, sticky errors.

TEST(WalManager, TicketsAreDenseAndSyncModesAck) {
  SimWalStorage storage;
  WalOptions options;
  options.group.mode = WalSyncMode::kPerCommit;
  auto wal = WalManager::Open(&storage, /*num_segments=*/2, options);
  ASSERT_TRUE(wal.ok());
  const auto t1 = (*wal)->LogWrite(0, /*txn=*/1, /*init_ts=*/10, 0, 42);
  const auto t2 = (*wal)->LogWrite(1, /*txn=*/1, /*init_ts=*/10, 0, 43);
  const auto t3 = (*wal)->LogCommit(0, /*txn=*/1, /*init_ts=*/10, {0});
  ASSERT_TRUE(t1.ok() && t2.ok() && t3.ok());
  EXPECT_EQ(*t1, 1u);
  EXPECT_EQ(*t2, 2u);
  EXPECT_EQ(*t3, 3u);
  ASSERT_TRUE((*wal)->WaitDurable(*t3).ok());
  EXPECT_EQ(storage.BufferedBytes(), 0u);
  EXPECT_GE((*wal)->metrics().fsyncs.load(), 1u);
}

TEST(WalManager, SyncFailureIsSticky) {
  SimWalStorage storage;
  WalOptions options;
  options.group.mode = WalSyncMode::kPerCommit;
  auto wal = WalManager::Open(&storage, 1, options);
  ASSERT_TRUE(wal.ok());
  const auto t1 = (*wal)->LogCommit(0, 1, 10, {0});
  ASSERT_TRUE(t1.ok());
  storage.FailNextSyncs(1);
  const Status failed = (*wal)->WaitDurable(*t1);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  // The WAL refuses all further durability claims: it cannot know what
  // reached the disk.
  const auto t2 = (*wal)->LogCommit(0, 2, 11, {0});
  ASSERT_TRUE(t2.ok());
  EXPECT_FALSE((*wal)->WaitDurable(*t2).ok());
}

TEST(WalManager, CanaryMutationSkipsTheWait) {
  SimWalStorage storage;
  WalOptions options;
  options.group.mode = WalSyncMode::kPerCommit;
  options.mutation_skip_commit_sync = true;
  auto wal = WalManager::Open(&storage, 1, options);
  ASSERT_TRUE(wal.ok());
  const auto t1 = (*wal)->LogCommit(0, 1, 10, {0});
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE((*wal)->WaitDurable(*t1).ok());
  // Nothing was synced: the "ack" is a lie, which the crash sweep's canary
  // test must catch end to end.
  EXPECT_GT(storage.BufferedBytes(), 0u);
  EXPECT_EQ((*wal)->metrics().fsyncs.load(), 0u);
}

// ---------------------------------------------------------------------------
// Recovery. Helpers build a database and run transactions through the WAL
// the way HddController does: write records under the same ordering the
// latch would give, commit records after, then WaitDurable on ack.

std::unique_ptr<Database> TinyDb(int segments, std::uint32_t granules) {
  return std::make_unique<Database>(segments, granules, /*initial=*/0);
}

struct LoggedTxn {
  TxnId txn;
  Timestamp init_ts;
  SegmentId segment;
  std::uint32_t granule;
  Value value;
};

// Appends write+commit for one single-segment transaction and installs
// the version in `db` (mirroring the controller's latch section).
Status RunTxn(WalManager* wal, Database* db, const LoggedTxn& t,
              bool ack) {
  HDD_RETURN_IF_ERROR(
      wal->LogWrite(t.segment, t.txn, t.init_ts, t.granule, t.value)
          .status());
  Version v;
  v.order_key = t.init_ts;
  v.wts = t.init_ts;
  v.creator = t.txn;
  v.value = t.value;
  v.committed = false;
  HDD_RETURN_IF_ERROR(db->segment(t.segment).granule(t.granule).Insert(v));
  HDD_ASSIGN_OR_RETURN(const std::uint64_t ticket,
                       wal->LogCommit(t.segment, t.txn, t.init_ts,
                                      {t.segment}));
  db->segment(t.segment).granule(t.granule).Find(t.init_ts)->committed =
      true;
  if (ack) return wal->WaitDurable(ticket);
  return Status::OK();
}

TEST(WalRecovery, EmptyStorageRecoversToInitialState) {
  SimWalStorage storage;
  auto db = TinyDb(2, 2);
  const auto report = RecoverDatabase(&storage, db.get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->durable_commits.empty());
  EXPECT_EQ(report->replayed_records, 0u);
  EXPECT_EQ(report->frontier_ticket, 0u);
  EXPECT_EQ(db->segment(0).granule(0).versions().size(), 1u);  // initial
}

TEST(WalRecovery, AckedCommitSurvivesUnackedMayNot) {
  SimWalStorage storage;
  WalOptions options;
  options.group.mode = WalSyncMode::kPerCommit;
  auto wal = WalManager::Open(&storage, 1, options);
  ASSERT_TRUE(wal.ok());
  auto db = TinyDb(1, 2);
  ASSERT_TRUE(RunTxn(wal->get(), db.get(),
                     {/*txn=*/1, /*init_ts=*/10, 0, 0, 111}, /*ack=*/true)
                  .ok());
  ASSERT_TRUE(RunTxn(wal->get(), db.get(),
                     {/*txn=*/2, /*init_ts=*/20, 0, 1, 222}, /*ack=*/false)
                  .ok());
  Rng rng(99);
  storage.Crash(rng);

  auto recovered = TinyDb(1, 2);
  const auto report = RecoverDatabase(&storage, recovered.get());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->durable_commits.count(1), 1u);  // acked: guaranteed
  const Version* v = recovered->segment(0).granule(0).Find(10);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->value, 111);
  EXPECT_TRUE(v->committed);
  EXPECT_GE(report->max_timestamp, 10u);
  // Txn 2 was never acked: it may or may not have survived, but if it did
  // not, no trace of it remains.
  if (report->durable_commits.count(2) == 0) {
    EXPECT_EQ(recovered->segment(0).granule(1).Find(20), nullptr);
  }
}

TEST(WalRecovery, TornCommitTailRollsBack) {
  SimWalStorage storage;
  WalOptions options;
  auto wal = WalManager::Open(&storage, 1, options);
  ASSERT_TRUE(wal.ok());
  auto db = TinyDb(1, 1);
  ASSERT_TRUE(RunTxn(wal->get(), db.get(), {1, 10, 0, 0, 111}, true).ok());
  ASSERT_TRUE(RunTxn(wal->get(), db.get(), {2, 20, 0, 0, 222}, false).ok());
  // Cut the log mid-way through txn 2's commit frame: a torn tail.
  const auto data = storage.Read(SegmentLogName(0));
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(storage.Truncate(SegmentLogName(0), data->size() - 3).ok());
  ASSERT_TRUE(storage.Sync(SegmentLogName(0)).ok());

  auto recovered = TinyDb(1, 1);
  const auto report = RecoverDatabase(&storage, recovered.get());
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->torn_streams, 1u);
  EXPECT_EQ(report->durable_commits.count(1), 1u);
  EXPECT_EQ(report->durable_commits.count(2), 0u);
  EXPECT_EQ(recovered->segment(0).granule(0).Find(20), nullptr);
  EXPECT_GE(report->discarded_uncommitted, 1u);  // txn 2's write replayed
  // The torn log was truncated and is reusable: recovery again is a no-op
  // on the same state (idempotence).
  auto again = TinyDb(1, 1);
  const auto report2 = RecoverDatabase(&storage, again.get());
  ASSERT_TRUE(report2.ok());
  EXPECT_EQ(report2->torn_streams, 0u);
  EXPECT_EQ(report2->durable_commits, report->durable_commits);
  EXPECT_EQ(report2->frontier_ticket, report->frontier_ticket);
  ASSERT_NE(again->segment(0).granule(0).Find(10), nullptr);
}

TEST(WalRecovery, FrontierRollsBackLuckySurvivorWithLostDependency) {
  // Two single-segment transactions in DIFFERENT segments: the first
  // (earlier tickets) loses its records, the second's survive "by luck"
  // in the other file. Honoring the second would resurrect a transaction
  // whose causal past is gone — the frontier must roll it back.
  SimWalStorage storage;
  auto wal = WalManager::Open(&storage, 2, WalOptions{});
  ASSERT_TRUE(wal.ok());
  auto db = TinyDb(2, 1);
  ASSERT_TRUE(RunTxn(wal->get(), db.get(), {1, 10, /*segment=*/0, 0, 111},
                     false)
                  .ok());
  ASSERT_TRUE(RunTxn(wal->get(), db.get(), {2, 20, /*segment=*/1, 0, 222},
                     false)
                  .ok());
  // Crash model by hand: segment 0's file loses everything (nothing was
  // synced), segment 1's buffered bytes all "survive".
  ASSERT_TRUE(storage.Truncate(SegmentLogName(0), 0).ok());
  ASSERT_TRUE(storage.Sync(SegmentLogName(0)).ok());
  ASSERT_TRUE(storage.Sync(SegmentLogName(1)).ok());

  auto recovered = TinyDb(2, 1);
  const auto report = RecoverDatabase(&storage, recovered.get());
  ASSERT_TRUE(report.ok());
  // Tickets 1-2 (txn 1) are gone, so the frontier is 0 and txn 2's
  // surviving records (tickets 3-4) are dishonored and truncated away.
  EXPECT_EQ(report->frontier_ticket, 0u);
  EXPECT_TRUE(report->durable_commits.empty());
  EXPECT_GE(report->incomplete_commits, 1u);
  EXPECT_EQ(recovered->segment(1).granule(0).Find(20), nullptr);
  const auto remaining = storage.Read(SegmentLogName(1));
  ASSERT_TRUE(remaining.ok());
  EXPECT_TRUE(remaining->empty());  // physically truncated past the frontier
}

TEST(WalRecovery, CheckpointCoversPrefixAndSuffixReplays) {
  SimWalStorage storage;
  WalOptions options;
  options.group.mode = WalSyncMode::kPerCommit;
  auto wal = WalManager::Open(&storage, 1, options);
  ASSERT_TRUE(wal.ok());
  auto db = TinyDb(1, 2);
  ASSERT_TRUE(RunTxn(wal->get(), db.get(), {1, 10, 0, 0, 111}, true).ok());

  // Checkpoint the segment the way CheckpointWal does: chains + LSN in
  // one capture, logs already hardened (kPerCommit synced everything).
  SegmentCheckpoint ckpt;
  ckpt.chains = EncodeSegmentChains(db->segment(0));
  ckpt.log_end_lsn = (*wal)->LogEndLsn(0);
  ASSERT_TRUE(AppendSegmentCheckpoint(&storage, 0, ckpt).ok());

  // More work after the checkpoint, then a second txn acked.
  ASSERT_TRUE(RunTxn(wal->get(), db.get(), {2, 20, 0, 1, 222}, true).ok());

  auto recovered = TinyDb(1, 2);
  const auto report = RecoverDatabase(&storage, recovered.get());
  ASSERT_TRUE(report.ok());
  // Txn 1 comes from the snapshot (its records are at or below the ckpt
  // LSN and are NOT replayed); txn 2 replays from the suffix.
  EXPECT_EQ(report->durable_commits.count(1), 1u);
  EXPECT_EQ(report->durable_commits.count(2), 1u);
  EXPECT_EQ(report->replayed_records, 2u);  // txn 2's write + commit
  ASSERT_NE(recovered->segment(0).granule(0).Find(10), nullptr);
  ASSERT_NE(recovered->segment(0).granule(1).Find(20), nullptr);

  // A torn checkpoint tail falls back to the previous intact snapshot.
  const auto ckpt_data = storage.Read(SegmentCheckpointName(0));
  ASSERT_TRUE(ckpt_data.ok());
  ASSERT_TRUE(storage.Append(SegmentCheckpointName(0), "torn!").ok());
  ASSERT_TRUE(storage.Sync(SegmentCheckpointName(0)).ok());
  auto recovered2 = TinyDb(1, 2);
  const auto report2 = RecoverDatabase(&storage, recovered2.get());
  ASSERT_TRUE(report2.ok());
  EXPECT_GE(report2->torn_streams, 1u);
  EXPECT_EQ(report2->durable_commits, report->durable_commits);
}

TEST(WalRecovery, DoubleRecoveryIsIdempotent) {
  SimWalStorage storage;
  auto wal = WalManager::Open(&storage, 2, WalOptions{});
  ASSERT_TRUE(wal.ok());
  auto db = TinyDb(2, 2);
  for (TxnId t = 1; t <= 6; ++t) {
    ASSERT_TRUE(RunTxn(wal->get(), db.get(),
                       {t, 10 * t, static_cast<SegmentId>(t % 2),
                        static_cast<std::uint32_t>(t % 2), 100 + (int)t},
                       /*ack=*/t % 3 == 0)
                    .ok());
  }
  Rng rng(1234);
  storage.Crash(rng);

  auto first = TinyDb(2, 2);
  const auto r1 = RecoverDatabase(&storage, first.get());
  ASSERT_TRUE(r1.ok());
  // Run recovery AGAIN over the same storage and the already-recovered
  // database object: every count except torn/truncation work must match,
  // and the chains must be unchanged.
  const auto r2 = RecoverDatabase(&storage, first.get());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->durable_commits, r1->durable_commits);
  EXPECT_EQ(r2->frontier_ticket, r1->frontier_ticket);
  EXPECT_EQ(r2->torn_streams, 0u);
  // An uncommitted write whose record sits at or below the frontier is
  // retained in the log, replayed, and re-discarded on every recovery —
  // the same count both times, never growing state.
  EXPECT_EQ(r2->discarded_uncommitted, r1->discarded_uncommitted);
  // And a fresh database recovers to the same chains.
  auto second = TinyDb(2, 2);
  ASSERT_TRUE(RecoverDatabase(&storage, second.get()).ok());
  for (int s = 0; s < 2; ++s) {
    for (std::uint32_t g = 0; g < 2; ++g) {
      const auto& a = first->segment(s).granule(g).versions();
      const auto& b = second->segment(s).granule(g).versions();
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].order_key, b[i].order_key);
        EXPECT_EQ(a[i].value, b[i].value);
        EXPECT_EQ(a[i].creator, b[i].creator);
        EXPECT_EQ(a[i].committed, b[i].committed);
      }
    }
  }
}

TEST(WalRecovery, AbortRecordRemovesTheVersion) {
  SimWalStorage storage;
  auto wal = WalManager::Open(&storage, 1, WalOptions{});
  ASSERT_TRUE(wal.ok());
  auto db = TinyDb(1, 1);
  ASSERT_TRUE(
      (*wal)->LogWrite(0, /*txn=*/1, /*init_ts=*/10, 0, 111).ok());
  ASSERT_TRUE((*wal)->LogAbort(0, /*txn=*/1, /*init_ts=*/10).ok());
  ASSERT_TRUE((*wal)->LogCommit(0, /*txn=*/2, /*init_ts=*/20, {0}).ok());
  ASSERT_TRUE((*wal)->AwaitReadStable().ok());

  auto recovered = TinyDb(1, 1);
  const auto report = RecoverDatabase(&storage, recovered.get());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(recovered->segment(0).granule(0).Find(10), nullptr);
  EXPECT_EQ(recovered->segment(0).granule(0).versions().size(), 1u);
}

TEST(WalRecovery, CorruptIntactFrameFailsLoudly) {
  SimWalStorage storage;
  auto wal = WalManager::Open(&storage, 1, WalOptions{});
  ASSERT_TRUE(wal.ok());
  auto db = TinyDb(1, 1);
  ASSERT_TRUE(RunTxn(wal->get(), db.get(), {1, 10, 0, 0, 111}, false).ok());
  ASSERT_TRUE((*wal)->AwaitReadStable().ok());
  auto data = storage.Read(SegmentLogName(0));
  ASSERT_TRUE(data.ok());
  std::string flipped = *data;
  flipped[kFrameHeaderBytes + 5] ^= 0x01;  // inside the first payload
  ASSERT_TRUE(storage.Truncate(SegmentLogName(0), 0).ok());
  ASSERT_TRUE(storage.Append(SegmentLogName(0), flipped).ok());
  ASSERT_TRUE(storage.Sync(SegmentLogName(0)).ok());

  auto recovered = TinyDb(1, 1);
  const auto report = RecoverDatabase(&storage, recovered.get());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace hdd
