#ifndef HDD_WAL_WAL_STORAGE_H_
#define HDD_WAL_WAL_STORAGE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace hdd {

/// Byte-level persistence behind the WAL: a namespace of append-only files
/// ("seg-3.log", "seg-3.ckpt", "ctrl.ckpt") with an explicit sync barrier.
/// The contract mirrors a POSIX file plus page cache:
///
///  * `Append` buffers bytes at the end of the file; they are READABLE
///    immediately (the running process sees its own writes) but not
///    durable.
///  * `Sync` makes everything appended so far survive a crash.
///  * A crash keeps every synced byte and an arbitrary PREFIX of the
///    unsynced tail — possibly cutting the last buffered record in half
///    (the torn tail recovery must detect). Loss is prefix-shaped because
///    the log is a single sequentially-appended file; reordered page
///    writeback within one file's tail is out of scope (see
///    docs/TUTORIAL.md §8).
class WalStorage {
 public:
  virtual ~WalStorage() = default;

  /// Entire current contents ("" when the file does not exist yet).
  virtual Result<std::string> Read(const std::string& name) = 0;

  /// Current size in bytes (0 when absent). The append position a fresh
  /// SegmentLog opens at.
  virtual Result<std::uint64_t> Size(const std::string& name) = 0;

  virtual Status Append(const std::string& name, std::string_view data) = 0;

  virtual Status Sync(const std::string& name) = 0;

  /// Drops everything past `size` (recovery chops the torn tail so new
  /// appends continue from a clean frame boundary).
  virtual Status Truncate(const std::string& name, std::uint64_t size) = 0;
};

/// In-memory WalStorage for tests and the deterministic simulator: each
/// file is a synced prefix plus a buffered tail, and `Crash` applies the
/// documented loss model with seeded randomness — the "SimDisk" the sim
/// harness kills at yield points.
class SimWalStorage : public WalStorage {
 public:
  SimWalStorage() = default;

  Result<std::string> Read(const std::string& name) override;
  Result<std::uint64_t> Size(const std::string& name) override;
  Status Append(const std::string& name, std::string_view data) override;
  Status Sync(const std::string& name) override;
  Status Truncate(const std::string& name, std::uint64_t size) override;

  /// Simulates the machine dying: for every file, the synced prefix
  /// survives, a seeded-random prefix of the buffered tail survives (byte
  /// granularity, so the last surviving frame may be torn), and the rest
  /// is gone. What remains is marked synced — it is what a reopening
  /// process would find on disk.
  void Crash(Rng& rng);

  /// Total unsynced bytes across files (observability for tests).
  std::uint64_t BufferedBytes() const;

  /// Makes the next `count` Sync calls fail with kIoError (error-path
  /// coverage in unit tests).
  void FailNextSyncs(int count);

 private:
  struct File {
    std::string durable;   // survives Crash
    std::string buffered;  // appended but not synced
  };

  mutable std::mutex mu_;
  std::map<std::string, File> files_;
  int fail_syncs_ = 0;
};

/// POSIX-file WalStorage rooted at a directory (created on demand). Sync
/// is fdatasync; a kill -9 leaves whatever the OS flushed, which is the
/// crash model the on-disk smoke test exercises.
///
/// Calls on different files run concurrently: the mutex guards only the
/// name-to-descriptor map, and descriptors stay open until the
/// destructor, so the write, fdatasync, pread, fstat or ftruncate itself
/// runs unlocked. Appends to ONE file must not overlap (each SegmentLog
/// serializes its own under its append latch).
class FileWalStorage : public WalStorage {
 public:
  explicit FileWalStorage(std::string dir);
  ~FileWalStorage() override;

  FileWalStorage(const FileWalStorage&) = delete;
  FileWalStorage& operator=(const FileWalStorage&) = delete;

  Result<std::string> Read(const std::string& name) override;
  Result<std::uint64_t> Size(const std::string& name) override;
  Status Append(const std::string& name, std::string_view data) override;
  Status Sync(const std::string& name) override;
  Status Truncate(const std::string& name, std::uint64_t size) override;

  const std::string& dir() const { return dir_; }

 private:
  Result<int> Fd(const std::string& name);

  std::string dir_;
  std::mutex mu_;                   // guards fds_, nothing else
  std::map<std::string, int> fds_;  // closed only by the destructor
};

}  // namespace hdd

#endif  // HDD_WAL_WAL_STORAGE_H_
