#include "timed_layers.h"

#include <algorithm>
#include <chrono>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_next_generation{1};

/// The calling thread's buffer in the store it last recorded into. Keyed
/// by the store's generation, not its address, so a store allocated where
/// a destroyed one lived never inherits that one's (freed) buffer.
struct ThreadSlot {
  std::uint64_t generation = 0;
  std::deque<Span>* buffer = nullptr;
};
thread_local ThreadSlot t_slot;

}  // namespace

SpanStore::SpanStore()
    : generation_(g_next_generation.fetch_add(1, std::memory_order_relaxed)),
      created_ns_(NowNs()) {}

std::int64_t SpanStore::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanStore::Buffer* SpanStore::ThreadBuffer() {
  if (t_slot.generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    t_slot.generation = generation_;
    t_slot.buffer = buffers_.back().get();
  }
  return t_slot.buffer;
}

void SpanStore::Record(hdd::TxnId txn, SpanKind kind, std::int64_t start_ns,
                       std::int64_t end_ns) {
  constexpr std::int64_t kMaxDurNs = (1 << 28) - 1;
  Span span;
  span.txn = txn;
  span.start_us = static_cast<std::uint32_t>((start_ns - created_ns_) / 1000);
  span.dur_ns = static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(end_ns - start_ns, 0, kMaxDurNs));
  span.kind = static_cast<std::uint32_t>(kind);
  ThreadBuffer()->push_back(span);
}

TimedController::TimedController(hdd::ConcurrencyController* inner,
                                 SpanStore* spans)
    : ConcurrencyController(&inner->db(), &inner->clock()),
      inner_(inner),
      spans_(spans) {}

hdd::Result<hdd::TxnDescriptor> TimedController::Begin(
    const hdd::TxnOptions& options) {
  if (!spans_->enabled()) return inner_->Begin(options);
  const std::int64_t start = SpanStore::NowNs();
  hdd::Result<hdd::TxnDescriptor> txn = inner_->Begin(options);
  spans_->Record(txn.ok() ? txn->id : hdd::kInvalidTxn, SpanKind::kBegin,
                 start, SpanStore::NowNs());
  return txn;
}

hdd::Result<hdd::Value> TimedController::Read(const hdd::TxnDescriptor& txn,
                                              hdd::GranuleRef granule) {
  if (!spans_->enabled()) return inner_->Read(txn, granule);
  const SpanKind kind = txn.read_only                        ? SpanKind::kReadC
                        : granule.segment == txn.txn_class ? SpanKind::kReadB
                                                           : SpanKind::kReadA;
  const std::int64_t start = SpanStore::NowNs();
  hdd::Result<hdd::Value> value = inner_->Read(txn, granule);
  spans_->Record(txn.id, kind, start, SpanStore::NowNs());
  return value;
}

hdd::Status TimedController::Write(const hdd::TxnDescriptor& txn,
                                   hdd::GranuleRef granule, hdd::Value value) {
  if (!spans_->enabled()) return inner_->Write(txn, granule, value);
  const std::int64_t start = SpanStore::NowNs();
  hdd::Status status = inner_->Write(txn, granule, value);
  spans_->Record(txn.id, SpanKind::kWrite, start, SpanStore::NowNs());
  return status;
}

hdd::Status TimedController::Commit(const hdd::TxnDescriptor& txn) {
  if (!spans_->enabled()) return inner_->Commit(txn);
  const std::int64_t start = SpanStore::NowNs();
  hdd::Status status = inner_->Commit(txn);
  spans_->Record(txn.id,
                 status.ok() ? SpanKind::kCommit : SpanKind::kCommitFailed,
                 start, SpanStore::NowNs());
  return status;
}

hdd::Status TimedController::Abort(const hdd::TxnDescriptor& txn) {
  if (!spans_->enabled()) return inner_->Abort(txn);
  const std::int64_t start = SpanStore::NowNs();
  hdd::Status status = inner_->Abort(txn);
  spans_->Record(txn.id, SpanKind::kAbort, start, SpanStore::NowNs());
  return status;
}

hdd::Status TimedWalStorage::Append(const std::string& name,
                                    std::string_view data) {
  if (!spans_->enabled()) return inner_->Append(name, data);
  const std::int64_t start = SpanStore::NowNs();
  hdd::Status status = inner_->Append(name, data);
  spans_->Record(hdd::kInvalidTxn, SpanKind::kWalAppend, start,
                 SpanStore::NowNs());
  return status;
}

hdd::Status TimedWalStorage::Sync(const std::string& name) {
  if (!spans_->enabled()) return inner_->Sync(name);
  const std::int64_t start = SpanStore::NowNs();
  hdd::Status status = inner_->Sync(name);
  spans_->Record(hdd::kInvalidTxn, SpanKind::kWalSync, start,
                 SpanStore::NowNs());
  return status;
}

}  // namespace perfbench
