#ifndef HDD_TESTS_HELD_SYNC_STORAGE_H_
#define HDD_TESTS_HELD_SYNC_STORAGE_H_

#include <condition_variable>
#include <mutex>
#include <string>

#include "wal/wal_storage.h"

namespace hdd {

// An in-memory WAL storage whose Sync blocks while the test holds it, so
// a test can watch what is answered before the disk confirms.
class HeldSyncStorage : public SimWalStorage {
 public:
  void Hold() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = true;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      held_ = false;
    }
    cv_.notify_all();
  }
  Status Sync(const std::string& name) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return !held_; });
    }
    return SimWalStorage::Sync(name);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
};

}  // namespace hdd

#endif  // HDD_TESTS_HELD_SYNC_STORAGE_H_
