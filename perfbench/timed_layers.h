// Benchmark-owned decorators that time every call into a layer's public
// functions from outside the library: TimedController sits between
// HddServer and the HddController, TimedWalStorage between the WalManager
// and FileWalStorage. Each call becomes one Span kept in memory (one
// append-only buffer per calling thread, no shared lock on the hot path)
// and is aggregated after the run.
#ifndef PERFBENCH_TIMED_LAYERS_H_
#define PERFBENCH_TIMED_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cc/controller.h"
#include "wal/wal_storage.h"

namespace perfbench {

/// What a span timed. Reads are split by the protocol that serves them:
/// A (a segment above the update transaction's class), B (its own class)
/// and C (an ad-hoc read-only transaction).
enum class SpanKind : std::uint8_t {
  kBegin,
  kReadA,
  kReadB,
  kReadC,
  kWrite,
  kCommit,        // Commit returned OK
  kCommitFailed,  // Commit returned an error (the attempt is lost)
  kAbort,
  kWalAppend,
  kWalSync,
};
inline constexpr int kNumSpanKinds = 10;

/// One timed call, 16 bytes: a traced run keeps millions in memory.
struct Span {
  hdd::TxnId txn = hdd::kInvalidTxn;  // kInvalidTxn for storage spans
  std::uint32_t start_us = 0;         // since the store was created
  std::uint32_t dur_ns : 28;          // clamped at ~268 ms
  std::uint32_t kind : 4;             // a SpanKind
};
static_assert(kNumSpanKinds <= 16, "SpanKind must fit Span::kind");

/// Per-thread span buffers. Record() is called concurrently by server
/// threads while the store is enabled; ForEach() runs after they quiesced.
class SpanStore {
 public:
  SpanStore();
  SpanStore(const SpanStore&) = delete;
  SpanStore& operator=(const SpanStore&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  void Record(hdd::TxnId txn, SpanKind kind, std::int64_t start_ns,
              std::int64_t end_ns);

  /// Calls `visit` on every span recorded so far, in no particular order.
  template <typename Visit>
  void ForEach(Visit&& visit) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
      for (const Span& span : *buffer) visit(span);
    }
  }

  static std::int64_t NowNs();

 private:
  using Buffer = std::deque<Span>;
  Buffer* ThreadBuffer();

  const std::uint64_t generation_;  // identifies this store to threads
  const std::int64_t created_ns_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

/// ConcurrencyController decorator: forwards every call to `inner` and,
/// while the span store is enabled, records one span per call. Only the
/// per-transaction interface is forwarded (the server runs the per_txn
/// backend); the epoch calls fall back to the base class's per-txn loop.
class TimedController : public hdd::ConcurrencyController {
 public:
  /// Both pointers are borrowed and must outlive this object.
  TimedController(hdd::ConcurrencyController* inner, SpanStore* spans);

  std::string_view name() const override { return inner_->name(); }
  hdd::Result<hdd::TxnDescriptor> Begin(
      const hdd::TxnOptions& options) override;
  hdd::Result<hdd::Value> Read(const hdd::TxnDescriptor& txn,
                               hdd::GranuleRef granule) override;
  hdd::Status Write(const hdd::TxnDescriptor& txn, hdd::GranuleRef granule,
                    hdd::Value value) override;
  hdd::Status Commit(const hdd::TxnDescriptor& txn) override;
  hdd::Status Abort(const hdd::TxnDescriptor& txn) override;

 private:
  hdd::ConcurrencyController* inner_;
  SpanStore* spans_;
};

/// WalStorage decorator: times Append and Sync (fdatasync on
/// FileWalStorage) while the span store is enabled.
class TimedWalStorage : public hdd::WalStorage {
 public:
  /// Both pointers are borrowed and must outlive this object.
  TimedWalStorage(hdd::WalStorage* inner, SpanStore* spans)
      : inner_(inner), spans_(spans) {}

  hdd::Result<std::string> Read(const std::string& name) override {
    return inner_->Read(name);
  }
  hdd::Result<std::uint64_t> Size(const std::string& name) override {
    return inner_->Size(name);
  }
  hdd::Status Append(const std::string& name, std::string_view data) override;
  hdd::Status Sync(const std::string& name) override;
  hdd::Status Truncate(const std::string& name, std::uint64_t size) override {
    return inner_->Truncate(name, size);
  }

 private:
  hdd::WalStorage* inner_;
  SpanStore* spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_LAYERS_H_
