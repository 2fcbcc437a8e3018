#include "hdd/hdd_controller.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <thread>

#include "common/codec.h"
#include "common/sim_hook.h"
#include "graph/algorithms.h"
#include "obs/trace.h"
#include "graph/decomposition.h"
#include "wal/checkpoint.h"
#include "wal/wal_manager.h"

// Yield-point convention (deterministic simulation, src/sim/): SimYield
// marks a preemption/fault point and is always placed BEFORE a latch
// acquisition, never inside a critical section — under simulation exactly
// one task runs at a time, so a descheduled latch holder would wedge the
// party (holding the structure gate shared is fine; Restructure's one
// exclusive acquisition spins on try_lock between reschedules so parked
// shared holders can run to their release first). Sites on paths
// with partially applied effects (commit install, abort undo) are
// non-interruptible: a SimFault may not unwind them. Every cv wait goes
// through SimWait/SimNotifyAll so wakeup delivery is owned by the
// scheduler instead of the OS.

namespace hdd {

namespace {

// Per-operation runtime lookup cache. A transaction is driven by one
// thread at a time (controller.h threading contract), so after the first
// operation resolves the runtime through the stripe map, every later
// operation from the driving thread can reuse the pointer with two plain
// compares instead of a stripe mutex plus a hash probe — the dominant
// fixed cost of a Protocol A read. The entry is cleared by the same
// thread when it finishes the transaction (Commit/Abort extract the
// runtime), and the global generation counter — bumped whenever any
// controller is destroyed — invalidates entries whose controller address
// may have been reused by a newer controller.
std::atomic<std::uint64_t> g_txn_cache_generation{1};
struct CachedTxnLookup {
  const void* controller = nullptr;
  std::uint64_t generation = 0;
  TxnId id = 0;
  void* runtime = nullptr;
};
thread_local CachedTxnLookup t_txn_lookup;

// Distinct segments among `granules`, in first-seen order.
std::vector<SegmentId> DistinctSegments(
    const std::vector<GranuleRef>& granules) {
  std::vector<SegmentId> segments;
  for (GranuleRef granule : granules) {
    if (std::find(segments.begin(), segments.end(), granule.segment) ==
        segments.end()) {
      segments.push_back(granule.segment);
    }
  }
  return segments;
}

}  // namespace

Timestamp HddController::ShardTableSource::OldestActiveAt(ClassId c,
                                                          Timestamp m) const {
  SimYield("hdd/table_query");
  const std::shared_ptr<ClassShard>& shard = owner_->shards_[c];
  std::lock_guard<std::mutex> lock(shard->mu);
  return shard->table.OldestActiveAt(m);
}

Result<Timestamp> HddController::ShardTableSource::LatestEndAt(
    ClassId c, Timestamp m) const {
  SimYield("hdd/table_query");
  const std::shared_ptr<ClassShard>& shard = owner_->shards_[c];
  std::lock_guard<std::mutex> lock(shard->mu);
  return shard->table.LatestEndAt(m);
}

HddController::HddController(Database* db, LogicalClock* clock,
                             const HierarchySchema* schema,
                             HddControllerOptions options)
    : ConcurrencyController(db, clock),
      options_(std::move(options)),
      wal_(db->wal()) {
  num_classes_ = schema->num_segments();
  class_of_segment_.resize(num_classes_);
  for (SegmentId s = 0; s < num_classes_; ++s) class_of_segment_[s] = s;
  tst_ = std::make_unique<TstAnalysis>(schema->tst());
  shards_.reserve(num_classes_);
  for (ClassId c = 0; c < num_classes_; ++c) {
    shards_.push_back(std::make_shared<ClassShard>());
  }
  eval_ = std::make_unique<ActivityLinkEvaluator>(tst_.get(), &shard_source_);
  next_txn_id_.store(options_.first_txn_id, std::memory_order_relaxed);
}

HddController::~HddController() {
  StopWallPacer();
  // Invalidate every thread's runtime-lookup cache entry that points into
  // this controller before the address can be reused (see t_txn_lookup).
  g_txn_cache_generation.fetch_add(1, std::memory_order_release);
}

void HddController::StartWallPacer(std::chrono::milliseconds interval) {
  StopWallPacer();
  pacer_stop_.store(false);
  pacer_ = std::thread([this, interval] {
    std::unique_lock<std::mutex> lock(pacer_mu_);
    while (!pacer_stop_.load()) {
      if (pacer_cv_.wait_for(lock, interval,
                             [this] { return pacer_stop_.load(); })) {
        return;
      }
      lock.unlock();
      (void)ReleaseNewWall();
      lock.lock();
    }
  });
}

void HddController::StopWallPacer() {
  {
    std::lock_guard<std::mutex> guard(pacer_mu_);
    pacer_stop_.store(true);
  }
  pacer_cv_.notify_all();
  if (pacer_.joinable()) pacer_.join();
}

ClassId HddController::ClassOfSegment(SegmentId segment) const {
  std::shared_lock<std::shared_mutex> gate(struct_mu_);
  return class_of_segment_[segment];
}

Result<bool> HddController::IsLegalAccessPattern(
    const std::vector<SegmentId>& write_segments,
    const std::vector<SegmentId>& read_segments) const {
  if (write_segments.empty()) {
    return Status::InvalidArgument("pattern needs a write segment");
  }
  std::shared_lock<std::shared_mutex> gate(struct_mu_);
  HDD_RETURN_IF_ERROR(CheckSegments(write_segments, "write segment"));
  HDD_RETURN_IF_ERROR(CheckSegments(read_segments, "read segment"));
  const ClassId own = class_of_segment_[write_segments[0]];
  for (SegmentId s : write_segments) {
    if (class_of_segment_[s] != own) return false;
  }
  for (SegmentId s : read_segments) {
    const ClassId c = class_of_segment_[s];
    if (c != own && !tst_->Higher(c, own)) return false;
  }
  return true;
}

std::size_t HddController::num_walls() const {
  std::lock_guard<std::mutex> guard(wall_mu_);
  return walls_.size();
}

void HddController::SignalFinishEvent() {
  {
    std::lock_guard<std::mutex> guard(finish_mu_);
    finish_seq_.fetch_add(1);
  }
  SimNotifyAll(finish_cv_, &finish_cv_);
}

Result<TxnDescriptor> HddController::Begin(const TxnOptions& options) {
  for (;;) {
    SimYield("hdd/begin");
    std::shared_lock<std::shared_mutex> gate(struct_mu_);
    TxnRuntime runtime;
    runtime.descriptor.read_only = options.read_only;
    if (options.read_only) {
      runtime.descriptor.txn_class = kReadOnlyClass;
      if (!options.read_scope.empty()) {
        HDD_ASSIGN_OR_RETURN(runtime.hosted_below,
                             ResolveHostClassLocked(options.read_scope));
        if (options.as_of_wall >= 0) {
          return Status::InvalidArgument(
              "as_of_wall cannot combine with a hosted read scope");
        }
      } else {
        // Protocol C: the whole transaction reads under the one wall it
        // pins here, so it sees one consistent cut.
        HDD_ASSIGN_OR_RETURN(runtime.wall, PinWall(gate, options.as_of_wall));
      }
      active_txns_.fetch_add(1);
      // A hosted reader (§5.0) evaluates the link functions at I(t), and no
      // class table shows it: I(t) is a stab in the reader registry until
      // the finish step.
      runtime.descriptor.init_ts =
          runtime.wall != nullptr ? clock_->Tick() : RegisterStab();
    } else {
      if (options.txn_class < 0 || options.txn_class >= num_classes_) {
        return Status::InvalidArgument(
            "HDD update transactions must declare their class");
      }
      std::shared_ptr<ClassShard> shard = shards_[options.txn_class];
      std::unique_lock<std::mutex> shard_lock(shard->mu);
      if (shard->draining) {
        // A Restructure is quiescing this class; park on the shard (not
        // the structure gate!) until it reopens, then re-resolve the
        // class id — the restructure may have renumbered classes.
        gate.unlock();
        while (shard->draining) {
          SimWait(shard->cv, shard_lock, shard.get());
        }
        continue;
      }
      runtime.descriptor.txn_class = options.txn_class;
      // Count ourselves in-flight BEFORE taking the initiation tick: the
      // idle-point trim reads the clock before re-checking this counter,
      // so a Begin it can miss is guaranteed a later initiation time.
      active_txns_.fetch_add(1);
      runtime.descriptor.init_ts = clock_->Tick();
      shard->table.OnBegin(runtime.descriptor.init_ts);
    }
    runtime.descriptor.id = next_txn_id_.fetch_add(1);
    const TxnDescriptor descriptor = runtime.descriptor;
    {
      TxnStripe& stripe = StripeFor(descriptor.id);
      std::lock_guard<std::mutex> guard(stripe.mu);
      stripe.map.emplace(descriptor.id,
                         std::make_unique<TxnRuntime>(std::move(runtime)));
    }
    recorder_.RecordBegin(descriptor.id, descriptor.txn_class,
                          descriptor.read_only, descriptor.init_ts);
    metrics_.begins.Add(1);
    return descriptor;
  }
}

Result<EpochHandle> HddController::BeginEpoch() {
  std::shared_lock<std::shared_mutex> gate(struct_mu_);
  auto ctx = std::make_shared<EpochContext>();
  ctx->id = next_epoch_id_.fetch_add(1);
  ctx->num_classes = num_classes_;
  ctx->bounds = std::vector<std::atomic<Timestamp>>(
      static_cast<std::size_t>(num_classes_) *
      static_cast<std::size_t>(num_classes_));
  // kTimestampInfinity marks "not yet evaluated": a real bound satisfies
  // A_i^j(m) <= m, so it can never collide with the sentinel.
  for (std::atomic<Timestamp>& slot : ctx->bounds) {
    slot.store(kTimestampInfinity, std::memory_order_relaxed);
  }
  // Tick the anchor BEFORE any batch transaction begins: every batch
  // I(t) then exceeds m_e, so a shared bound A_i^j(m_e) <= m_e is below
  // every reader's initiation time — what the oracle's bound replay
  // demands of update-transaction reads. The epoch's bounds are evaluated
  // at m_e, below every batch I(t), so m_e is a registered stab until
  // EndEpoch.
  ctx->anchor = RegisterStab();
  {
    std::lock_guard<std::mutex> eg(epoch_mu_);
    // Epoch transactions bypass the per-op structure gate, so an epoch
    // may not open while the structure is changing. Both sides of the
    // exclusion (this check and Restructure's current_epoch_ check)
    // decide under epoch_mu_, so exactly one of a racing pair proceeds.
    if (restructuring_) {
      UnregisterStab(ctx->anchor);
      return Status::Busy("restructure in progress; cannot open an epoch");
    }
    current_epoch_ = ctx;
  }
  HDD_TRACE_INSTANT("hdd", "epoch_begin");
  return EpochHandle{ctx->id, ctx->anchor};
}

Result<std::vector<TxnDescriptor>> HddController::BeginBatch(
    const EpochHandle& epoch, const std::vector<TxnOptions>& batch) {
  // Interruptible only here, before any effect: an injected fault finds
  // nothing to undo and the epoch executor simply retries the admission.
  SimYield("hdd/begin_epoch");
  HDD_TRACE_SPAN("hdd", "begin_batch");
  std::shared_ptr<EpochContext> ctx;
  {
    std::lock_guard<std::mutex> eg(epoch_mu_);
    ctx = current_epoch_;
  }
  if (ctx == nullptr || ctx->id != epoch.id) {
    return Status::FailedPrecondition("epoch is not open");
  }
  // Validate every declared class before the first effect.
  {
    std::shared_lock<std::shared_mutex> gate(struct_mu_);
    for (const TxnOptions& options : batch) {
      if (!options.read_only &&
          (options.txn_class < 0 || options.txn_class >= num_classes_)) {
        return Status::InvalidArgument(
            "HDD update transactions must declare their class");
      }
    }
  }
  std::vector<TxnDescriptor> out(batch.size());
  // Read-only admissions ride the per-txn path (wall pinning and host
  // resolution are per-transaction anyway). Roll back on any failure —
  // including an injected fault unwinding out of Begin — so the caller
  // can retry the whole admission without leaking active transactions.
  std::vector<std::size_t> ro_done;
  const auto rollback = [&] {
    for (std::size_t i : ro_done) (void)Abort(out[i]);
  };
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!batch[i].read_only) continue;
    try {
      Result<TxnDescriptor> ro = Begin(batch[i]);
      if (!ro.ok()) {
        rollback();
        return ro.status();
      }
      out[i] = *ro;
      ro_done.push_back(i);
    } catch (...) {
      rollback();
      throw;
    }
  }
  // Bulk-admit the update transactions class by class: ONE shard critical
  // section per (class, epoch) covers every activity-table OnBegin of the
  // class's sub-batch — the per-txn path pays one latch round-trip per
  // transaction. Batch order is preserved within a class, so initiation
  // timestamps are consistent with the epoch executor's dependency-graph
  // direction (edges point from earlier to later batch index).
  std::shared_lock<std::shared_mutex> gate(struct_mu_);
  std::vector<std::vector<std::size_t>> by_class(
      static_cast<std::size_t>(num_classes_));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!batch[i].read_only) {
      by_class[static_cast<std::size_t>(batch[i].txn_class)].push_back(i);
    }
  }
  std::vector<std::unique_ptr<TxnRuntime>> admitted;
  admitted.reserve(batch.size());
  for (ClassId c = 0; c < num_classes_; ++c) {
    const std::vector<std::size_t>& members =
        by_class[static_cast<std::size_t>(c)];
    if (members.empty()) continue;
    SimYield("hdd/begin_epoch/admit", /*interruptible=*/false);
    std::shared_ptr<ClassShard> shard = shards_[c];
    std::unique_lock<std::mutex> shard_lock(shard->mu);
    if (shard->draining) {
      // A Restructure is quiescing this class. Epochs and Restructure are
      // not supported concurrently (see header); surface a retryable
      // status after undoing the partial admission.
      shard_lock.unlock();
      gate.unlock();
      std::vector<TxnDescriptor> undo;
      for (std::unique_ptr<TxnRuntime>& runtime : admitted) {
        undo.push_back(runtime->descriptor);
        TxnStripe& stripe = StripeFor(runtime->descriptor.id);
        std::lock_guard<std::mutex> guard(stripe.mu);
        stripe.map.emplace(runtime->descriptor.id, std::move(runtime));
      }
      for (const TxnDescriptor& descriptor : undo) (void)Abort(descriptor);
      rollback();
      return Status::Busy("class draining for restructure");
    }
    // Count the whole sub-batch in-flight BEFORE any of its initiation
    // ticks (same reasoning as the per-txn Begin: the idle trim must not
    // miss us; over-counting briefly only makes the trim more cautious).
    active_txns_.fetch_add(static_cast<std::int64_t>(members.size()));
    for (std::size_t i : members) {
      auto runtime = std::make_unique<TxnRuntime>();
      runtime->descriptor.read_only = false;
      runtime->descriptor.txn_class = c;
      runtime->descriptor.epoch = ctx->id;
      runtime->epoch = ctx;
      runtime->descriptor.init_ts = clock_->Tick();
      shard->table.OnBegin(runtime->descriptor.init_ts);
      runtime->descriptor.id = next_txn_id_.fetch_add(1);
      out[i] = runtime->descriptor;
      admitted.push_back(std::move(runtime));
    }
  }
  // Register runtimes grouped per stripe: one stripe latch acquisition
  // per stripe instead of one per transaction.
  std::array<std::vector<std::unique_ptr<TxnRuntime>*>, kTxnStripes>
      by_stripe;
  for (std::unique_ptr<TxnRuntime>& runtime : admitted) {
    by_stripe[runtime->descriptor.id % kTxnStripes].push_back(&runtime);
  }
  std::uint64_t updates = 0;
  for (std::size_t s = 0; s < kTxnStripes; ++s) {
    if (by_stripe[s].empty()) continue;
    std::lock_guard<std::mutex> guard(txn_stripes_[s].mu);
    for (std::unique_ptr<TxnRuntime>* runtime : by_stripe[s]) {
      const TxnId id = (*runtime)->descriptor.id;
      txn_stripes_[s].map.emplace(id, std::move(*runtime));
      ++updates;
    }
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].read_only) continue;
    recorder_.RecordBegin(out[i].id, out[i].txn_class,
                          /*read_only=*/false, out[i].init_ts);
  }
  metrics_.begins.Add(updates);
  return out;
}

Status HddController::EndEpoch(const EpochHandle& epoch) {
  std::shared_lock<std::shared_mutex> gate(struct_mu_);
  std::unique_lock<std::mutex> eg(epoch_mu_);
  if (current_epoch_ != nullptr && current_epoch_->id == epoch.id) {
    UnregisterStab(current_epoch_->anchor);
    current_epoch_.reset();
    metrics_.epochs.Add(1);
    HDD_TRACE_INSTANT("hdd", "epoch_end");
    eg.unlock();
    // The anchor held the idle trim off through the epoch's last finish.
    MaybeTrimHistory();
  }
  return Status::OK();
}

Result<Timestamp> HddController::EpochBound(EpochContext& ctx,
                                            ClassId own_class,
                                            ClassId target_class,
                                            TxnRuntime* runtime) {
  if (ctx.num_classes != num_classes_) {
    // Straggler path: the class structure changed shape under the epoch.
    // Evaluate uncached but still anchored at the epoch anchor — never at
    // I(t): mixing per-txn and shared anchors inside one epoch could
    // order two batch transactions' reads inconsistently.
    return eval_->A(own_class, target_class, ctx.anchor);
  }
  std::atomic<Timestamp>& slot =
      ctx.bounds[static_cast<std::size_t>(own_class) *
                     static_cast<std::size_t>(ctx.num_classes) +
                 static_cast<std::size_t>(target_class)];
  const Timestamp cached = slot.load(std::memory_order_acquire);
  if (cached != kTimestampInfinity) {
    ++runtime->n_epoch_bound_hits;
    return cached;
  }
  auto bound = [&] {
    HDD_TRACE_SPAN_SAMPLED("hdd", "epoch_bound_fill", 4);
    return eval_->A(own_class, target_class, ctx.anchor);
  }();
  if (!bound.ok()) return bound;
  // Concurrent fills race benignly: I^old values at or below the clock
  // are stable, so every evaluator publishes the identical timestamp.
  slot.store(*bound, std::memory_order_release);
  ++runtime->n_epoch_bound_misses;
  return *bound;
}

Result<ClassId> HddController::ResolveHostClass(
    const std::vector<SegmentId>& scope) const {
  std::shared_lock<std::shared_mutex> gate(struct_mu_);
  return ResolveHostClassLocked(scope);
}

Result<ClassId> HddController::ResolveHostClassLocked(
    const std::vector<SegmentId>& scope) const {
  if (scope.empty()) {
    return Status::InvalidArgument("empty read scope");
  }
  HDD_RETURN_IF_ERROR(CheckSegments(scope, "read scope segment"));
  // The lowest scoped class: every other one must be reachable from it by
  // a critical path.
  ClassId lowest = class_of_segment_[scope[0]];
  for (SegmentId s : scope) {
    if (tst_->Higher(lowest, class_of_segment_[s])) {
      lowest = class_of_segment_[s];
    }
  }
  for (SegmentId s : scope) {
    const ClassId c = class_of_segment_[s];
    if (c != lowest && !tst_->Higher(c, lowest)) {
      return Status::InvalidArgument(
          "read scope is not reachable by critical paths from one host "
          "class; use an undeclared read-only transaction (Protocol C) "
          "instead");
    }
  }
  return lowest;
}

Status HddController::CheckSegments(const std::vector<SegmentId>& segments,
                                    const char* what) const {
  for (SegmentId s : segments) {
    if (s < 0 || s >= static_cast<int>(class_of_segment_.size())) {
      return Status::InvalidArgument(std::string(what) + " out of range");
    }
  }
  return Status::OK();
}

Result<HddController::TxnRuntime*> HddController::FindTxn(
    const TxnDescriptor& txn) {
  CachedTxnLookup& cache = t_txn_lookup;
  if (cache.controller == this && cache.id == txn.id &&
      cache.generation ==
          g_txn_cache_generation.load(std::memory_order_acquire)) {
    return static_cast<TxnRuntime*>(cache.runtime);
  }
  TxnStripe& stripe = StripeFor(txn.id);
  std::lock_guard<std::mutex> guard(stripe.mu);
  auto it = stripe.map.find(txn.id);
  if (it == stripe.map.end()) {
    return Status::FailedPrecondition("unknown or finished transaction");
  }
  cache = {this, g_txn_cache_generation.load(std::memory_order_acquire),
           txn.id, it->second.get()};
  return it->second.get();
}

Result<std::unique_ptr<HddController::TxnRuntime>> HddController::ExtractTxn(
    const TxnDescriptor& txn) {
  CachedTxnLookup& cache = t_txn_lookup;
  if (cache.controller == this && cache.id == txn.id) {
    cache = CachedTxnLookup{};
  }
  TxnStripe& stripe = StripeFor(txn.id);
  std::unique_lock<std::mutex> guard(stripe.mu);
  auto it = stripe.map.find(txn.id);
  if (it == stripe.map.end()) {
    return Status::FailedPrecondition("unknown or finished transaction");
  }
  std::unique_ptr<TxnRuntime> runtime = std::move(it->second);
  stripe.map.erase(it);
  guard.unlock();
  FlushOpMetrics(*runtime);
  return runtime;
}

void HddController::FlushOpMetrics(const TxnRuntime& runtime) {
  if (runtime.n_unregistered_reads != 0) {
    metrics_.unregistered_reads.Add(runtime.n_unregistered_reads);
  }
  if (runtime.n_version_reads != 0) {
    metrics_.version_reads.Add(runtime.n_version_reads);
  }
  if (runtime.n_read_timestamps != 0) {
    metrics_.read_timestamps_written.Add(runtime.n_read_timestamps);
  }
  if (runtime.n_versions_created != 0) {
    metrics_.versions_created.Add(runtime.n_versions_created);
  }
  if (runtime.n_epoch_bound_hits != 0) {
    metrics_.epoch_shared_bound_hits.Add(runtime.n_epoch_bound_hits);
  }
  if (runtime.n_epoch_bound_misses != 0) {
    metrics_.epoch_shared_bound_misses.Add(runtime.n_epoch_bound_misses);
  }
}

void HddController::PublishFootprint(const TxnRuntime& runtime) {
  std::vector<std::uint64_t> writes;
  writes.reserve(runtime.writes.size());
  for (GranuleRef g : runtime.writes) {
    writes.push_back(FootprintRecorder::Pack(
        static_cast<std::uint32_t>(g.segment),
        static_cast<std::uint32_t>(g.index)));
  }
  std::vector<std::uint64_t> reads;
  reads.reserve(runtime.fp_reads.size());
  for (GranuleRef g : runtime.fp_reads) {
    reads.push_back(FootprintRecorder::Pack(
        static_cast<std::uint32_t>(g.segment),
        static_cast<std::uint32_t>(g.index)));
  }
  options_.footprint->Observe(std::move(writes), std::move(reads),
                              runtime.descriptor.read_only);
}

Result<Value> HddController::Read(const TxnDescriptor& txn,
                                  GranuleRef granule) {
  HDD_RETURN_IF_ERROR(db_->Validate(granule));
  // Epoch-admitted transactions (txn.epoch != 0) skip the structure gate:
  // Restructure refuses to run while an epoch is open and BeginEpoch
  // refuses mid-restructure (both checked under epoch_mu_), so the class
  // structure is frozen for the epoch's whole lifetime. Per-txn
  // transactions — including every read-only admission, which BeginBatch
  // routes through Begin — still take it shared per operation.
  std::shared_lock<std::shared_mutex> gate(struct_mu_, std::defer_lock);
  if (txn.epoch == 0) gate.lock();
  HDD_ASSIGN_OR_RETURN(TxnRuntime * runtime, FindTxn(txn));
  Result<Value> result = [&]() -> Result<Value> {
    if (runtime->descriptor.read_only) {
      if (runtime->hosted_below != kReadOnlyClass) {
        return ReadHosted(runtime, granule);
      }
      return ReadUnderWall(gate, runtime, granule);
    }
    const ClassId own_class = runtime->descriptor.txn_class;
    const ClassId target_class = class_of_segment_[granule.segment];
    if (own_class == target_class) {
      return ReadOwnSegment(gate, runtime, granule);
    }
    return ReadHigherSegment(runtime, granule, own_class, target_class);
  }();
  // Footprint tracing piggybacks on the dispatch so all four read paths
  // feed the one accumulator; the per-read cost when disabled is a
  // single predictable branch.
  if (result.ok() && options_.footprint != nullptr) {
    runtime->fp_reads.push_back(granule);
  }
  return result;
}

Result<Value> HddController::ReadHigherSegment(TxnRuntime* runtime,
                                               GranuleRef granule,
                                               ClassId own_class,
                                               ClassId target_class) {
  // Protocol A. The activity link function is defined exactly when the
  // target class lies higher on a critical path — which the schema
  // guarantees for every declared read segment. The evaluation latches
  // each class shard on the path briefly, one at a time; no global latch
  // and no latch on our own class.
  SimYield("hdd/read_a");
  auto bound = [&]() -> Result<Timestamp> {
    // Epoch-admitted transactions share one bound evaluation per
    // (own class, target class, epoch), anchored at the epoch anchor m_e
    // — sound for ANY m_e at or below the clock (Theorem 1), and below
    // every batch I(t) by construction.
    if (runtime->epoch != nullptr) {
      return EpochBound(*runtime->epoch, own_class, target_class, runtime);
    }
    // Several bound evaluations per transaction, each ~100ns: sampled,
    // or the span would outweigh the evaluation it measures.
    HDD_TRACE_SPAN_SAMPLED("hdd", "protocol_a_bound", 16);
    return eval_->A(own_class, target_class, runtime->descriptor.init_ts);
  }();
  if (!bound.ok()) {
    return Status::InvalidArgument(
        "segment not on a critical path above the transaction's class");
  }
  // The canary deliberately skips the activity-link composition and reads
  // at the raw initiation time: a still-active older transaction of the
  // target class may then commit BELOW the served bound later, which the
  // oracle's bound replay against the final chains must flag.
  const Timestamp served = options_.mutation_unsafe_protocol_a
                               ? runtime->descriptor.init_ts
                               : *bound;
  // The bound is stable, so the serve point is preemptible before the
  // shard latch — this window (bound fixed, version not yet read) is
  // where racing installs would break an unsound bound.
  SimYield("hdd/read_a/serve");
  // No refcount traffic: the caller holds the structure gate shared, so
  // the shard vector cannot be swapped out from under us, and this path
  // never waits on the shard (Protocol A reads are non-blocking).
  ClassShard* shard = shards_[target_class].get();
  std::lock_guard<std::mutex> shard_lock(shard->mu);
  Granule& g = db_->granule(granule);
  const Version* version = g.LatestCommittedBefore(served);
  if (version == nullptr) {
    return Status::Internal("version collected below a live read bound");
  }
  // Theorem-backed invariant: every version below the activity link bound
  // was created by a transaction that already finished, hence the latest
  // *committed* version below the bound is the latest version, period.
  // (Void by construction under the canary mutation.)
  assert(options_.mutation_unsafe_protocol_a ||
         (g.VersionBefore(served) != nullptr &&
          g.VersionBefore(served)->wts == version->wts));
  // "No trace of this access needs to be registered in any form" (§4.2).
  ++runtime->n_unregistered_reads;
  ++runtime->n_version_reads;
  recorder_.RecordRead(runtime->descriptor.id, granule, version->order_key,
                       /*registered=*/false, served);
  return version->value;
}

Result<Value> HddController::ReadHosted(TxnRuntime* runtime,
                                        GranuleRef granule) {
  // §5.0: the transaction behaves like an update transaction of a
  // fictitious class immediately below `hosted_below`, so ALL its reads —
  // including those against the host class's own segment — are Protocol A
  // reads through one extra I^old hop at the host class.
  const ClassId target_class = class_of_segment_[granule.segment];
  const ClassId host = runtime->hosted_below;
  if (target_class != host && !tst_->Higher(target_class, host)) {
    return Status::InvalidArgument("read outside the declared read scope");
  }
  HDD_TRACE_SPAN("hdd", "hosted_read");
  SimYield("hdd/read_hosted");
  const Timestamp base =
      shard_source_.OldestActiveAt(host, runtime->descriptor.init_ts);
  auto bound = eval_->A(host, target_class, base);
  if (!bound.ok()) return bound.status();
  SimYield("hdd/read_hosted/serve");
  // Same as Protocol A above: gate held shared, no waiting — a raw
  // pointer to the shard is safe and skips two refcount updates.
  ClassShard* shard = shards_[target_class].get();
  std::lock_guard<std::mutex> shard_lock(shard->mu);
  Granule& g = db_->granule(granule);
  const Version* version = g.LatestCommittedBefore(*bound);
  if (version == nullptr) {
    return Status::Internal("version collected below a live read bound");
  }
  assert(g.VersionBefore(*bound) != nullptr &&
         g.VersionBefore(*bound)->wts == version->wts);
  ++runtime->n_unregistered_reads;
  ++runtime->n_version_reads;
  recorder_.RecordRead(runtime->descriptor.id, granule, version->order_key,
                       /*registered=*/false, *bound);
  return version->value;
}

Result<Value> HddController::ReadOwnSegment(
    std::shared_lock<std::shared_mutex>& gate, TxnRuntime* runtime,
    GranuleRef granule) {
  // The span covers the TO check and any wait on an uncommitted version —
  // Protocol B's whole registration cost. Sampled: the uncontended check
  // is sub-microsecond and fires for every own-segment read.
  HDD_TRACE_SPAN_SAMPLED("hdd", "protocol_b_read", 4);
  bool waited = false;
  for (;;) {
    SimYield("hdd/read_b");
    // Re-read the descriptor every attempt: a Restructure during a wait
    // may have renumbered our class (segments move with it).
    const TxnDescriptor txn = runtime->descriptor;
    // Raw pointer while the gate is held (shared): the shard vector is
    // only swapped under the exclusive gate. The wait branch below takes
    // a keep-alive reference before releasing the gate.
    ClassShard* shard = shards_[txn.txn_class].get();
    std::unique_lock<std::mutex> shard_lock(shard->mu);
    Granule& g = db_->granule(granule);
    Version* version = nullptr;
    if (options_.protocol_b == ProtocolBEngine::kMvto) {
      Version* own = g.Find(txn.init_ts);
      version = own != nullptr ? own : g.VersionBefore(txn.init_ts);
    } else {
      version = g.Latest();
      if (version->wts > txn.init_ts && version->creator != txn.id) {
        return Status::Aborted(
            "Protocol B (basic TO): granule overwritten by younger txn");
      }
    }
    assert(version != nullptr);
    if (!version->committed && version->creator != txn.id) {
      waited = true;
      // Sleep on the shard, never on the structure gate: release the gate
      // first (so a Restructure can proceed), keep the shard latch from
      // the failed check into the wait (so the creator's notify cannot be
      // missed), and re-enter through the gate afterwards. The keep-alive
      // reference outlives the gate release. Epoch transactions arrive
      // without the gate (see Read) and must not acquire it here.
      const bool had_gate = gate.owns_lock();
      std::shared_ptr<ClassShard> keep = shards_[txn.txn_class];
      if (had_gate) gate.unlock();
      SimWait(shard->cv, shard_lock, shard);
      shard_lock.unlock();
      if (had_gate) gate.lock();
      continue;
    }
    if (waited) metrics_.blocked_reads.Add(1);
    if (txn.init_ts > version->rts) version->rts = txn.init_ts;
    ++runtime->n_read_timestamps;
    ++runtime->n_version_reads;
    recorder_.RecordRead(txn.id, granule, version->order_key,
                         /*registered=*/true);
    return version->value;
  }
}

Result<Value> HddController::ReadUnderWall(
    std::shared_lock<std::shared_mutex>& gate, TxnRuntime* runtime,
    GranuleRef granule) {
  // Protocol C: every read is served under the wall pinned at Begin.
  HDD_TRACE_SPAN("hdd", "protocol_c_read");
  SimYield("hdd/read_c");
  const TimeWall* wall = runtime->wall;
  bool waited = false;
  for (;;) {
    SimYield("hdd/read_c/serve");
    // Both the segment->class map and the wall's bound vector are remapped
    // in place by Restructure (under the exclusive gate), so re-read them
    // on every attempt.
    const ClassId target_class = class_of_segment_[granule.segment];
    const Timestamp bound = wall->bound[target_class];
    ClassShard* shard = shards_[target_class].get();
    std::unique_lock<std::mutex> shard_lock(shard->mu);
    Granule& g = db_->granule(granule);
    Version* version = g.VersionBefore(bound);
    if (version == nullptr) {
      return Status::Internal("version collected below a live read bound");
    }
    if (!version->committed) {
      // A below-wall version is still in flight (possible only for classes
      // the wall reaches through a descending run); its fate decides what
      // we must read, so wait for the creator to resolve. Keep the shard
      // alive across the gate release.
      waited = true;
      std::shared_ptr<ClassShard> keep = shards_[target_class];
      gate.unlock();
      SimWait(shard->cv, shard_lock, shard);
      shard_lock.unlock();
      gate.lock();
      continue;
    }
    if (waited) metrics_.blocked_reads.Add(1);
    ++runtime->n_unregistered_reads;
    ++runtime->n_version_reads;
    recorder_.RecordRead(runtime->descriptor.id, granule, version->order_key,
                         /*registered=*/false, bound);
    return version->value;
  }
}

Status HddController::ReleaseWallInternal(
    std::shared_lock<std::shared_mutex>& gate) {
  // Covers every retry: the span's duration is the full time-to-release,
  // including waits for straggling C^late components.
  HDD_TRACE_SPAN("hdd", "wall_compute");
  // The anchor m is a stab for the whole computation, which may wait for
  // finish events long after nothing older than m is active; every
  // component lies at or above the closure of m. Unregistered on every
  // exit, a SimFault unwinding included.
  struct AnchorStab {
    HddController* cc;
    Timestamp m;
    ~AnchorStab() { cc->UnregisterStab(m); }
  } anchor{this, RegisterStab()};
  // While an epoch is open, anchor the wall at or below the epoch anchor
  // m_e instead of the current clock. Batch transactions initiate above
  // m_e but may sit in the executor's ready queue unexecuted, so a wall
  // anchored above them would wait for finish events that no free worker
  // can produce (a guaranteed wedge at one worker). At or below m_e the
  // batch neither straddles any stabbed time nor unsettles a component,
  // so the computation never waits on the epoch itself. Protocol C is
  // indifferent to the anchor's age — any released wall is a consistent
  // cut (time travel reads strictly older walls on purpose). Register
  // m_e for this computation, which may outlive the epoch.
  {
    std::lock_guard<std::mutex> epoch_guard(epoch_mu_);
    if (current_epoch_ != nullptr && current_epoch_->anchor < anchor.m) {
      std::lock_guard<std::mutex> wg(wall_mu_);
      reader_stabs_.erase(reader_stabs_.find(anchor.m));
      anchor.m = current_epoch_->anchor;
      reader_stabs_.insert(anchor.m);
    }
  }
  const Timestamp m = anchor.m;
  for (;;) {
    SimYield("hdd/wall_compute");
    // Load the finish counter BEFORE attempting: a finish landing during
    // the attempt then wakes us immediately instead of being missed.
    const std::uint64_t seq0 = finish_seq_.load();
    // Re-derive the anchor each attempt — a Restructure during a wait may
    // have rebuilt the class graph.
    const ClassId anchor = PickWallAnchor(*tst_);
    auto wall = ComputeTimeWall(*eval_, num_classes_, anchor, m);
    if (wall.ok()) {
      // Release condition: a computed wall may only be served once every
      // component is settled — no class-c transaction still active with
      // initiation below bound[c]. The link functions guarantee that for
      // every class where an I^old or C^late was applied along the path,
      // but NOT where E reduces to the identity (the anchor's own class)
      // or a descending run ends (C^late excludes the run's bottom): an
      // active transaction there with init < bound[c] would later commit
      // versions below the served cut, behind reads the wall already
      // answered. Treat an unsettled component like a busy C^late and
      // wait for a finish. New transactions initiate above m >= every
      // bound, so a wall that passes this check stays settled between
      // the check and publication.
      bool settled = true;
      for (ClassId c = 0; c < num_classes_ && settled; ++c) {
        std::lock_guard<std::mutex> shard_lock(shards_[c]->mu);
        settled = shards_[c]->table.OldestActiveNow() >= wall->bound[c];
      }
      if (settled) {
        HDD_TRACE_INSTANT("hdd", "wall_release");
        wall->release_time = clock_->Tick();
        std::lock_guard<std::mutex> wg(wall_mu_);
        assert(WallMin(*wall) >= last_gc_horizon_);
        walls_.push_back(*std::move(wall));
        return Status::OK();
      }
    } else if (wall.status().code() != StatusCode::kBusy) {
      return wall.status();
    }
    // Some C^late is not yet computable (or a component is unsettled):
    // wait for an update transaction to finish, with the structure gate
    // released.
    gate.unlock();
    {
      std::unique_lock<std::mutex> fl(finish_mu_);
      while (finish_seq_.load() == seq0) {
        SimWait(finish_cv_, fl, &finish_cv_);
      }
    }
    gate.lock();
  }
}

Status HddController::ReleaseNewWall() {
  std::shared_lock<std::shared_mutex> gate(struct_mu_);
  return ReleaseWallInternal(gate);
}

Result<const TimeWall*> HddController::PinWall(
    std::shared_lock<std::shared_mutex>& gate, int as_of_wall) {
  for (;;) {
    {
      // Validate and pin in ONE critical section, so a concurrent
      // collection cannot slip past the wall in between.
      std::lock_guard<std::mutex> wg(wall_mu_);
      const TimeWall* wall = nullptr;
      if (as_of_wall >= 0) {
        if (static_cast<std::size_t>(as_of_wall) >= walls_.size()) {
          return Status::InvalidArgument("no such time wall");
        }
        wall = &walls_[static_cast<std::size_t>(as_of_wall)];
        if (WallMin(*wall) < last_gc_horizon_) {
          return Status::FailedPrecondition(
              "time wall predates the garbage-collection horizon; its "
              "versions may be gone");
        }
      } else if (!walls_.empty()) {
        wall = &walls_.back();  // the horizon never passes the newest wall
      }
      if (wall != nullptr) {
        ++wall_pins_[wall];
        return wall;
      }
    }
    // No wall released yet: release one now and pin it — still a
    // consistent cut by Theorem 2, just fresher than the paper's batched
    // variant.
    HDD_RETURN_IF_ERROR(ReleaseWallInternal(gate));
  }
}

Timestamp HddController::RegisterStab() {
  for (;;) {
    // Never tick under wall_mu_: on a shard a tick is a clock RPC. A
    // collection or idle trim that ran between the tick and the
    // registration may have passed the stab unseen; draw a later one.
    const Timestamp stab = clock_->Tick();
    std::lock_guard<std::mutex> wg(wall_mu_);
    if (stab >= stab_floor_) {
      reader_stabs_.insert(stab);
      return stab;
    }
  }
}

void HddController::UnregisterStab(Timestamp stab) {
  std::lock_guard<std::mutex> wg(wall_mu_);
  const auto it = reader_stabs_.find(stab);
  assert(it != reader_stabs_.end());
  reader_stabs_.erase(it);
}

Status HddController::Write(const TxnDescriptor& txn, GranuleRef granule,
                            Value value) {
  HDD_RETURN_IF_ERROR(db_->Validate(granule));
  // Same gate-skip as Read: the epoch/restructure exclusion freezes the
  // structure for epoch-admitted transactions.
  std::shared_lock<std::shared_mutex> gate(struct_mu_, std::defer_lock);
  if (txn.epoch == 0) gate.lock();
  HDD_ASSIGN_OR_RETURN(TxnRuntime * runtime, FindTxn(txn));
  if (runtime->descriptor.read_only) {
    return Status::FailedPrecondition("read-only transaction wrote");
  }
  HDD_TRACE_SPAN_SAMPLED("hdd", "protocol_b_write", 4);
  bool waited = false;
  for (;;) {
    SimYield("hdd/write");
    const ClassId own_class = runtime->descriptor.txn_class;
    if (class_of_segment_[granule.segment] != own_class) {
      return Status::FailedPrecondition(
          "transaction may write only its root segment");
    }
    const Timestamp ts = runtime->descriptor.init_ts;
    ClassShard* shard = shards_[own_class].get();
    std::unique_lock<std::mutex> shard_lock(shard->mu);
    Granule& g = db_->granule(granule);
    Version* own = g.Find(ts);
    if (own != nullptr) {
      own->value = value;
      if (wal_ != nullptr) {
        // Re-log the overwrite; replay applies write records for an
        // already-present order key as value updates, in log order.
        HDD_RETURN_IF_ERROR(
            wal_->LogWrite(granule.segment, txn.id, ts, granule.index, value)
                .status());
      }
      recorder_.RecordWrite(txn.id, granule, own->order_key);
      return Status::OK();
    }
    if (options_.protocol_b == ProtocolBEngine::kBasicTo) {
      Version* tip = g.Latest();
      if (tip->rts > ts) {
        return Status::Aborted("Protocol B: younger read already registered");
      }
      if (tip->wts > ts) {
        return Status::Aborted("Protocol B: overwritten by younger txn");
      }
      if (!tip->committed) {
        waited = true;
        const bool had_gate = gate.owns_lock();
        std::shared_ptr<ClassShard> keep = shards_[own_class];
        if (had_gate) gate.unlock();
        SimWait(shard->cv, shard_lock, shard);
        shard_lock.unlock();
        if (had_gate) gate.lock();
        continue;
      }
    } else {
      // Epoch-admitted transactions skip MVTO's younger-reader check: the
      // epoch executor's dependency graph orders every declared
      // same-granule conflict by admission (= timestamp) order and only
      // releases a successor after its predecessors fully finished, so a
      // younger batch reader cannot have registered an rts on an older
      // version before this write installs (an OLDER reader's rts is
      // below ts and passes the check anyway, and only Protocol B
      // own-segment reads register timestamps at all). Cross-epoch pairs
      // are ordered by the EndEpoch barrier. The sim canary that drops
      // one dependency edge (test_sim_explore) re-creates exactly the
      // anomaly this check would have caught, proving the oracle sees it.
      if (runtime->epoch == nullptr && g.MaxRtsOfVersionsBefore(ts) > ts) {
        return Status::Aborted("Protocol B: younger read of older version");
      }
    }
    if (waited) metrics_.blocked_writes.Add(1);
    Version version;
    version.order_key = ts;
    version.wts = ts;
    version.creator = txn.id;
    version.value = value;
    version.committed = false;
    HDD_RETURN_IF_ERROR(g.Insert(version));
    if (wal_ != nullptr) {
      // Same critical section as the install, so the segment log's record
      // order equals the chain's effect order (recovery replays in log
      // order). A failed append un-installs: the transaction holds no
      // version it could not redo.
      auto logged = wal_->LogWrite(granule.segment, txn.id, ts,
                                   granule.index, value);
      if (!logged.ok()) {
        (void)g.Remove(ts);
        return logged.status();
      }
    }
    runtime->writes.push_back(granule);
    ++runtime->n_versions_created;
    recorder_.RecordWrite(txn.id, granule, version.order_key);
    return Status::OK();
  }
}

Status HddController::Commit(const TxnDescriptor& txn) {
  // Interruptible only here, before the runtime is claimed: an injected
  // fault still finds a fully registered transaction for Abort to undo.
  SimYield("hdd/commit");
  HDD_TRACE_SPAN("hdd", "commit");
  // Same gate-skip as Read: the epoch/restructure exclusion freezes the
  // structure for epoch-admitted transactions.
  std::shared_lock<std::shared_mutex> gate(struct_mu_, std::defer_lock);
  if (txn.epoch == 0) gate.lock();
  HDD_ASSIGN_OR_RETURN(std::unique_ptr<TxnRuntime> runtime, ExtractTxn(txn));
  std::uint64_t commit_ticket = 0;
  if (!runtime->descriptor.read_only) {
    // Past the point of no return (the runtime is extracted), so this
    // site may stall — the injector's "delayed commit", which leaves the
    // uncommitted versions visible to waiting readers for a while — but
    // never unwind.
    SimYield("hdd/commit/install", /*interruptible=*/false);
    HDD_ASSIGN_OR_RETURN(commit_ticket,
                         InstallCommit(*runtime, /*finish=*/true));
  } else if (wal_ != nullptr) {
    // Read-only commit: persist a clock marker (recovery must never
    // rewind below this reader's wall bound) and ride the same group
    // commit the update transactions use — the read barrier that makes
    // acked query results crash-proof.
    HDD_ASSIGN_OR_RETURN(commit_ticket, wal_->LogReadBound(clock_->Now()));
  }
  HDD_RETURN_IF_ERROR(AwaitDurable(gate, commit_ticket));
  FinishTxn(*runtime, TxnState::kCommitted);
  return Status::OK();
}

Result<std::uint64_t> HddController::InstallCommit(const TxnRuntime& runtime,
                                                  bool finish) {
  const TxnDescriptor& txn = runtime.descriptor;
  // Raw pointer: only used while the gate is held (shared), and this
  // path never sleeps on the shard.
  ClassShard* shard = shards_[txn.txn_class].get();
  // Each written segment (one — the root segment — unless a Restructure
  // merged the class) gets a copy of the commit record carrying the full
  // list; recovery commits only when every copy survived.
  const std::vector<SegmentId> segments =
      wal_ != nullptr ? DistinctSegments(runtime.writes)
                      : std::vector<SegmentId>{};
  std::uint64_t ticket = 0;
  Status logged = Status::OK();
  {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    for (GranuleRef granule : runtime.writes) {
      Version* version = db_->granule(granule).Find(txn.init_ts);
      assert(version != nullptr);
      version->committed = true;
    }
    // Commit records append in the SAME critical section that marks the
    // versions committed: a Protocol B read served one of these versions
    // therefore happens-after the append, so its own commit ticket is
    // higher and any sync batch acking the reader covers this record too.
    for (const SegmentId s : segments) {
      auto appended = wal_->LogCommit(s, txn.id, txn.init_ts, segments);
      if (!appended.ok()) {
        logged = appended.status();
        break;
      }
      ticket = *appended;
    }
    if (finish) shard->table.OnFinish(txn.init_ts, clock_->Tick());
  }
  SimNotifyAll(shard->cv, shard);
  if (finish) SignalFinishEvent();
  HDD_RETURN_IF_ERROR(logged);
  return ticket;
}

Status HddController::AwaitDurable(std::shared_lock<std::shared_mutex>& gate,
                                   std::uint64_t ticket) {
  if (wal_ == nullptr || ticket == 0) return Status::OK();
  // The durability wait sleeps in the group-commit gate: never sleep
  // holding the structure gate.
  const bool had_gate = gate.owns_lock();
  if (had_gate) gate.unlock();
  const Status durable = wal_->WaitDurable(ticket);
  if (had_gate) gate.lock();
  return durable;
}

void HddController::FinishTxn(const TxnRuntime& runtime, TxnState outcome) {
  if (runtime.wall != nullptr) {
    std::lock_guard<std::mutex> wg(wall_mu_);
    auto it = wall_pins_.find(runtime.wall);
    assert(it != wall_pins_.end());
    if (--it->second == 0) wall_pins_.erase(it);
  } else if (runtime.hosted_below != kReadOnlyClass) {
    UnregisterStab(runtime.descriptor.init_ts);
  }
  const bool committed = outcome == TxnState::kCommitted;
  if (committed && options_.footprint != nullptr) PublishFootprint(runtime);
  recorder_.RecordOutcome(runtime.descriptor.id, outcome);
  (committed ? metrics_.commits : metrics_.aborts).Add(1);
  active_txns_.fetch_sub(1);
  MaybeTrimHistory();
}

Status HddController::Abort(const TxnDescriptor& txn) {
  // The whole abort path is non-interruptible: the executor calls Abort
  // from inside its SimFault handler (recovery), so a second fault
  // unwinding from here would escape the attempt boundary.
  SimYield("hdd/abort", /*interruptible=*/false);
  // Same gate-skip as Read: the epoch/restructure exclusion freezes the
  // structure for epoch-admitted transactions.
  std::shared_lock<std::shared_mutex> gate(struct_mu_, std::defer_lock);
  if (txn.epoch == 0) gate.lock();
  HDD_ASSIGN_OR_RETURN(std::unique_ptr<TxnRuntime> runtime, ExtractTxn(txn));
  if (!runtime->descriptor.read_only) {
    ClassShard* shard = shards_[runtime->descriptor.txn_class].get();
    SimYield("hdd/abort/undo", /*interruptible=*/false);
    {
      std::lock_guard<std::mutex> shard_lock(shard->mu);
      for (GranuleRef granule : runtime->writes) {
        Status removed =
            db_->granule(granule).Remove(runtime->descriptor.init_ts);
        assert(removed.ok());
        (void)removed;
      }
      if (wal_ != nullptr) {
        // Abort records are replay hygiene, not a durability promise: a
        // lost copy just means recovery discards the uncommitted versions
        // itself. Hence no sync and a best-effort append (an IoError here
        // must not fail the abort — the in-memory undo already happened).
        for (const SegmentId s : DistinctSegments(runtime->writes)) {
          (void)wal_->LogAbort(s, runtime->descriptor.id,
                               runtime->descriptor.init_ts);
        }
      }
      shard->table.OnFinish(runtime->descriptor.init_ts, clock_->Tick());
    }
    SimNotifyAll(shard->cv, shard);
    SignalFinishEvent();
  }
  FinishTxn(*runtime, TxnState::kAborted);
  return Status::OK();
}

Result<ClassId> HddController::Restructure(
    const std::vector<SegmentId>& write_segments,
    const std::vector<SegmentId>& read_segments) {
  if (write_segments.empty()) {
    return Status::InvalidArgument("restructure needs a write segment");
  }
  // One restructure at a time: the class structure only changes under this
  // mutex, so everything derived below (plan, affected set) stays valid
  // across the drain even though the structure gate is released.
  std::lock_guard<std::mutex> serial(restructure_mu_);
  {
    // Checked half of the epoch/restructure exclusion (see BeginEpoch):
    // epoch-admitted transactions run without the per-op structure gate,
    // so the structure must not change while an epoch is open. EndEpoch
    // is called only after every batch transaction finished, so "no open
    // epoch" really means "no gate-less operation in flight".
    std::lock_guard<std::mutex> eg(epoch_mu_);
    if (current_epoch_ != nullptr) {
      return Status::Busy("epoch open; restructure would race its batch");
    }
    restructuring_ = true;
  }
  struct RestructuringFlagGuard {
    HddController* cc;
    ~RestructuringFlagGuard() {
      std::lock_guard<std::mutex> eg(cc->epoch_mu_);
      cc->restructuring_ = false;
    }
  } flag_guard{this};
  HDD_TRACE_SPAN("hdd", "restructure");

  std::optional<Digraph> extended;
  MergePlan plan;
  ClassId primary = 0;
  std::vector<int> group_size;
  std::vector<std::shared_ptr<ClassShard>> affected;
  {
    std::shared_lock<std::shared_mutex> gate(struct_mu_);
    HDD_RETURN_IF_ERROR(CheckSegments(write_segments, "write segment"));
    HDD_RETURN_IF_ERROR(CheckSegments(read_segments, "read segment"));

    // Extend the current class graph with the ad-hoc pattern: force all
    // write classes into one group (antiparallel arcs collapse under SCC
    // condensation) and add the new read arcs, then legalize by merging.
    extended = tst_->graph();
    primary = class_of_segment_[write_segments[0]];
    for (SegmentId s : write_segments) {
      const ClassId c = class_of_segment_[s];
      if (c != primary) {
        extended->AddArc(primary, c);
        extended->AddArc(c, primary);
      }
    }
    for (SegmentId s : read_segments) {
      const ClassId c = class_of_segment_[s];
      if (c != primary) extended->AddArc(primary, c);
    }
    plan = MakeTstMergePlan(*extended);

    // Classes whose group gained members must drain before their activity
    // tables merge. Mark them draining (blocks new Begins) while still
    // under the shared gate.
    group_size.assign(plan.num_groups, 0);
    for (int label : plan.labels) ++group_size[label];
    for (ClassId c = 0; c < num_classes_; ++c) {
      if (group_size[plan.labels[c]] > 1) {
        std::lock_guard<std::mutex> shard_lock(shards_[c]->mu);
        shards_[c]->draining = true;
        affected.push_back(shards_[c]);
      }
    }
  }

  // Partial quiescence (§7.1.1): wait for the affected classes to drain
  // with no structure lock held — transactions of every other class, and
  // the in-flight ones of the affected classes, keep running and
  // finishing (each finish notifies its own shard's cv).
  HDD_TRACE_SPAN("hdd", "restructure_quiesce");
  for (const std::shared_ptr<ClassShard>& shard : affected) {
    std::unique_lock<std::mutex> shard_lock(shard->mu);
    while (shard->table.num_active() != 0) {
      SimWait(shard->cv, shard_lock, shard.get());
    }
  }

  {
    // The swap: the only exclusive hold of the structure gate anywhere.
    // Acquired cooperatively: reader tasks park at preemption points while
    // holding the gate shared, so a blocking exclusive acquisition here
    // would stall invisibly under the deterministic scheduler (it cannot
    // see raw futex waits). Spin on try_lock with a non-interruptible
    // reschedule instead; outside the simulation the loop degrades to a
    // short yield-spin, and readers never park holding the gate there.
    std::unique_lock<std::shared_mutex> gate(struct_mu_, std::defer_lock);
    while (!gate.try_lock()) {
      SimYield("hdd/restructure/gate", /*interruptible=*/false);
      std::this_thread::yield();
    }

    // Singleton groups keep their shard object (threads parked on its cv
    // or mid-wait stay attached to live state); merged groups get a fresh
    // shard absorbing the drained tables.
    std::vector<std::shared_ptr<ClassShard>> new_shards(plan.num_groups);
    for (ClassId c = 0; c < num_classes_; ++c) {
      if (group_size[plan.labels[c]] == 1) {
        new_shards[plan.labels[c]] = shards_[c];
      }
    }
    for (int g = 0; g < plan.num_groups; ++g) {
      if (new_shards[g] == nullptr) {
        new_shards[g] = std::make_shared<ClassShard>();
      }
    }
    for (ClassId c = 0; c < num_classes_; ++c) {
      if (group_size[plan.labels[c]] > 1) {
        new_shards[plan.labels[c]]->table.MergeFrom(
            std::move(shards_[c]->table));
      }
    }

    for (SegmentId s = 0; s < static_cast<int>(class_of_segment_.size());
         ++s) {
      class_of_segment_[s] = plan.labels[class_of_segment_[s]];
    }
    for (TxnStripe& stripe : txn_stripes_) {
      std::lock_guard<std::mutex> guard(stripe.mu);
      for (auto& [id, runtime] : stripe.map) {
        (void)id;
        if (!runtime->descriptor.read_only) {
          runtime->descriptor.txn_class =
              plan.labels[runtime->descriptor.txn_class];
        } else if (runtime->hosted_below != kReadOnlyClass) {
          runtime->hosted_below = plan.labels[runtime->hosted_below];
        }
      }
    }
    {
      // Remap released walls in place (new bound = min of merged old
      // bounds, the conservative cut).
      std::lock_guard<std::mutex> wg(wall_mu_);
      for (TimeWall& wall : walls_) {
        std::vector<Timestamp> new_bound(plan.num_groups,
                                         kTimestampInfinity);
        for (ClassId c = 0; c < num_classes_; ++c) {
          new_bound[plan.labels[c]] =
              std::min(new_bound[plan.labels[c]], wall.bound[c]);
        }
        wall.bound = std::move(new_bound);
      }
    }
    Digraph quotient = Quotient(*extended, plan.labels, plan.num_groups);
    auto tst = TstAnalysis::Create(quotient);
    assert(tst.ok());
    tst_ = std::make_unique<TstAnalysis>(std::move(tst).value());
    shards_ = std::move(new_shards);
    num_classes_ = plan.num_groups;
    eval_ =
        std::make_unique<ActivityLinkEvaluator>(tst_.get(), &shard_source_);
  }

  // Reopen the orphaned shards: Begins parked on them re-resolve their
  // class through the structure gate and land on the merged shard.
  for (const std::shared_ptr<ClassShard>& shard : affected) {
    {
      std::lock_guard<std::mutex> shard_lock(shard->mu);
      shard->draining = false;
    }
    SimNotifyAll(shard->cv, shard.get());
  }
  return plan.labels[primary];
}

Timestamp HddController::WallMin(const TimeWall& wall) {
  Timestamp lo = kTimestampInfinity;
  for (Timestamp b : wall.bound) lo = std::min(lo, b);
  return lo;
}

Timestamp HddController::SafeGcHorizon() const {
  std::shared_lock<std::shared_mutex> gate(struct_mu_);
  std::lock_guard<std::mutex> wg(wall_mu_);
  return ComputeSafeGcHorizon();
}

Timestamp HddController::ComputeSafeGcHorizon() const {
  // The one rule, over every kind of reader:
  //  * update transactions: their I(t), in the class tables;
  //  * hosted readers (§5.0), wall computations and the open epoch: the
  //    I(t) or anchor their bounds compose from, in reader_stabs_;
  //  * Protocol C readers: their pinned walls and the newest wall.
  Timestamp horizon = clock_->Now() + 1;
  for (const std::shared_ptr<ClassShard>& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    horizon = std::min(horizon, shard->table.OldestActiveNow());
  }
  if (!reader_stabs_.empty()) {
    horizon = std::min(horizon, *reader_stabs_.begin());
  }
  // Close the horizon under I^old. A bound is a composition of I^old
  // values, and the transaction an I^old named may FINISH between the
  // bound's evaluation and the serve: its init then survives only as a
  // finished-straddler entry, invisible to OldestActiveNow. OldestActiveAt
  // is monotone in its argument, so the fixpoint below under-approximates
  // every bound any stab or active transaction can still be served, in
  // every class (a Restructure merging a host class included) — and the
  // iteration only ever descends, through the finite set of initiation
  // times, so it terminates.
  for (;;) {
    Timestamp closed = horizon;
    for (const std::shared_ptr<ClassShard>& shard : shards_) {
      std::lock_guard<std::mutex> shard_lock(shard->mu);
      closed = std::min(closed, shard->table.OldestActiveAt(horizon));
    }
    if (closed == horizon) break;
    horizon = closed;
  }
  if (!walls_.empty()) {
    horizon = std::min(horizon, WallMin(walls_.back()));
  }
  for (const auto& [wall, pins] : wall_pins_) {
    (void)pins;
    horizon = std::min(horizon, WallMin(*wall));
  }
  return horizon;
}

std::size_t HddController::CollectGarbage() {
  HDD_TRACE_SPAN("hdd", "gc_sweep");
  std::shared_lock<std::shared_mutex> gate(struct_mu_);
  Timestamp horizon;
  {
    // Fix the horizon and raise the AS-OF guard in one critical section:
    // a Begin pinning a wall validates against last_gc_horizon_ under the
    // same mutex, so it either pins before we compute (and the pin lowers
    // the horizon) or observes the raised guard and is rejected.
    std::lock_guard<std::mutex> wg(wall_mu_);
    horizon = ComputeSafeGcHorizon();
    last_gc_horizon_ = std::max(last_gc_horizon_, horizon);
    stab_floor_ = std::max(stab_floor_, clock_->Now() + 1);
  }
  // Prune segment by segment under the owning class's shard latch — the
  // latch every version-chain access in this controller takes. New
  // transactions beginning meanwhile get initiation times above the
  // horizon, so the cut stays safe.
  std::size_t removed = 0;
  for (SegmentId s = 0; s < static_cast<int>(class_of_segment_.size());
       ++s) {
    std::shared_ptr<ClassShard> shard = shards_[class_of_segment_[s]];
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    removed += db_->CollectGarbageSegment(s, horizon);
  }
  return removed;
}

std::size_t HddController::ActivityHistorySize() const {
  std::shared_lock<std::shared_mutex> gate(struct_mu_);
  std::size_t total = 0;
  for (const std::shared_ptr<ClassShard>& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    total += shard->table.history_size();
  }
  return total;
}

namespace {
/// Control-state blob header: magic + format version.
constexpr std::uint32_t kControlMagic = 0x4854434Cu;  // "HTCL"
constexpr std::uint32_t kControlVersion = 1;
}  // namespace

Status HddController::CheckpointWal() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("no WAL attached to the database");
  }
  HDD_TRACE_SPAN("wal", "checkpoint");
  std::shared_lock<std::shared_mutex> gate(struct_mu_);
  std::vector<SegmentCheckpoint> ckpts(class_of_segment_.size());
  for (SegmentId s = 0; s < static_cast<int>(class_of_segment_.size());
       ++s) {
    // Non-interruptible: checkpointing runs outside any transaction
    // attempt, so there is no Abort path for an injected fault to unwind
    // through. (Injected process crashes still fire here.)
    SimYield("hdd/checkpoint", /*interruptible=*/false);
    // ONE critical section under the owning class's shard latch: the
    // chains snapshot and the log position are consistent by construction
    // — every log record at or below the LSN is reflected in the chains,
    // every one above is not.
    std::shared_ptr<ClassShard> shard = shards_[class_of_segment_[s]];
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    ckpts[static_cast<std::size_t>(s)].chains =
        EncodeSegmentChains(db_->segment(s));
    ckpts[static_cast<std::size_t>(s)].log_end_lsn = wal_->LogEndLsn(s);
  }
  const std::string control = ExportControlStateLocked();
  // Harden every redo log BEFORE persisting any snapshot. A snapshot may
  // contain commit marks whose records were only buffered when the chains
  // were captured; persisting it first would let a crash keep the (synced)
  // snapshot while losing the (unsynced) records it reflects — silently
  // promoting unacked commits whose cross-segment dependencies may be
  // gone. After this barrier, everything a snapshot contains is also
  // derivable from durable log records, so recovery may treat committed
  // snapshot versions as durably committed.
  gate.unlock();
  HDD_RETURN_IF_ERROR(wal_->AwaitReadStable());
  // The (comparatively slow) appends+syncs happen outside every latch;
  // writers proceed, their records simply replay on top of the snapshot.
  for (SegmentId s = 0; s < static_cast<int>(ckpts.size()); ++s) {
    HDD_RETURN_IF_ERROR(AppendSegmentCheckpoint(
        &wal_->storage(), s, ckpts[static_cast<std::size_t>(s)]));
  }
  HDD_RETURN_IF_ERROR(AppendControlCheckpoint(&wal_->storage(), control));
  wal_->metrics().checkpoints.Add(1);
  return Status::OK();
}

std::string HddController::ExportControlState() const {
  std::shared_lock<std::shared_mutex> gate(struct_mu_);
  return ExportControlStateLocked();
}

std::string HddController::ExportControlStateLocked() const {
  std::string out;
  PutU32(&out, kControlMagic);
  PutU32(&out, kControlVersion);
  PutU64(&out, clock_->Now());
  PutU32(&out, static_cast<std::uint32_t>(num_classes_));
  for (ClassId c = 0; c < num_classes_; ++c) {
    const std::shared_ptr<ClassShard>& shard = shards_[c];
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    PutU32(&out,
           static_cast<std::uint32_t>(shard->table.finished().size()));
    for (const auto& [init, end] : shard->table.finished()) {
      PutU64(&out, init);
      PutU64(&out, end);
    }
  }
  std::lock_guard<std::mutex> wg(wall_mu_);
  PutU64(&out, last_gc_horizon_);
  PutU32(&out, static_cast<std::uint32_t>(walls_.size()));
  for (const TimeWall& wall : walls_) {
    PutU64(&out, wall.m);
    PutU32(&out, static_cast<std::uint32_t>(wall.s));
    PutU64(&out, wall.release_time);
    PutU32(&out, static_cast<std::uint32_t>(wall.bound.size()));
    for (const Timestamp b : wall.bound) PutU64(&out, b);
  }
  return out;
}

Status HddController::RestoreControlState(const std::string& blob) {
  if (blob.empty()) return Status::OK();  // never checkpointed: fresh start
  std::string_view in = blob;
  std::uint32_t magic = 0, version = 0, num_classes = 0;
  std::uint64_t clock_now = 0;
  if (!GetU32(&in, &magic) || magic != kControlMagic ||
      !GetU32(&in, &version) || version != kControlVersion ||
      !GetU64(&in, &clock_now) || !GetU32(&in, &num_classes)) {
    return Status::Corruption("control state: bad header");
  }
  std::shared_lock<std::shared_mutex> gate(struct_mu_);
  if (static_cast<int>(num_classes) != num_classes_) {
    return Status::FailedPrecondition(
        "control state was taken under a different class structure");
  }
  for (ClassId c = 0; c < num_classes_; ++c) {
    std::uint32_t count = 0;
    if (!GetU32(&in, &count)) {
      return Status::Corruption("control state: truncated history");
    }
    const std::shared_ptr<ClassShard>& shard = shards_[c];
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint64_t init = 0, end = 0;
      if (!GetU64(&in, &init) || !GetU64(&in, &end)) {
        return Status::Corruption("control state: truncated history record");
      }
      shard->table.OnBegin(init);
      shard->table.OnFinish(init, end);
    }
  }
  std::uint64_t horizon = 0;
  std::uint32_t num_walls = 0;
  if (!GetU64(&in, &horizon) || !GetU32(&in, &num_walls)) {
    return Status::Corruption("control state: truncated wall section");
  }
  std::lock_guard<std::mutex> wg(wall_mu_);
  last_gc_horizon_ = std::max(last_gc_horizon_, horizon);
  for (std::uint32_t w = 0; w < num_walls; ++w) {
    TimeWall wall;
    std::uint32_t anchor = 0, bounds = 0;
    if (!GetU64(&in, &wall.m) || !GetU32(&in, &anchor) ||
        !GetU64(&in, &wall.release_time) || !GetU32(&in, &bounds) ||
        static_cast<int>(bounds) != num_classes_) {
      return Status::Corruption("control state: truncated wall");
    }
    wall.s = static_cast<ClassId>(anchor);
    wall.bound.resize(bounds);
    for (std::uint32_t b = 0; b < bounds; ++b) {
      if (!GetU64(&in, &wall.bound[b])) {
        return Status::Corruption("control state: truncated wall bound");
      }
    }
    walls_.push_back(std::move(wall));
  }
  if (!in.empty()) {
    return Status::Corruption("control state: trailing bytes");
  }
  // The restored histories and walls speak in pre-crash timestamps; the
  // clock must never re-issue them.
  clock_->AdvanceTo(clock_now);
  return Status::OK();
}

void HddController::MaybeTrimHistory() {
  if (!options_.auto_trim_history) return;
  // Idle point: no transaction of any kind in flight. Every future
  // activity-link chain starts at an initiation time above the current
  // clock and, by induction over the chain, never stabs a time at or
  // below it; records that ended by now are dead. Order matters: read the
  // clock FIRST, then re-check the counter — a Begin that slips past the
  // check ticked after our clock read, so its chains stay above `now`.
  const Timestamp now = clock_->Now();
  if (active_txns_.load() != 0) return;
  {
    // A registered stab may still evaluate link functions below `now`.
    std::lock_guard<std::mutex> wg(wall_mu_);
    if (!reader_stabs_.empty()) return;
    stab_floor_ = std::max(stab_floor_, now + 1);
  }
  for (const std::shared_ptr<ClassShard>& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    shard->table.TrimFinishedBefore(now);
  }
}

// ---------------------------------------------------------------------------
// Distribution hooks (src/dist/). See the header for the protocol; the key
// ordering invariant lives in CommitDurablePhase/FinishDistributedCommit.
// ---------------------------------------------------------------------------

Result<std::vector<Timestamp>> HddController::OldestActiveAlong(
    const std::vector<ClassId>& run, Timestamp stab) const {
  std::shared_lock<std::shared_mutex> gate(struct_mu_);
  std::vector<Timestamp> values;
  values.reserve(run.size());
  Timestamp value = stab;
  for (const ClassId c : run) {
    if (c < 0 || c >= num_classes_) {
      return Status::InvalidArgument("no such class");
    }
    value = shard_source_.OldestActiveAt(c, value);
    values.push_back(value);
  }
  return values;
}

Result<Version> HddController::CommittedVersionBelow(GranuleRef granule,
                                                     Timestamp bound) {
  std::shared_lock<std::shared_mutex> gate(struct_mu_);
  HDD_RETURN_IF_ERROR(db_->Validate(granule));
  ClassShard* shard = shards_[class_of_segment_[granule.segment]].get();
  std::lock_guard<std::mutex> shard_lock(shard->mu);
  const Version* version = db_->granule(granule).LatestCommittedBefore(bound);
  if (version == nullptr) {
    return Status::Internal("no committed version below bound");
  }
  return *version;
}

Status HddController::RecordExternalRead(const TxnDescriptor& txn,
                                         GranuleRef granule,
                                         Timestamp version_key,
                                         Timestamp bound) {
  std::shared_lock<std::shared_mutex> gate(struct_mu_);
  HDD_ASSIGN_OR_RETURN(TxnRuntime * runtime, FindTxn(txn));
  // Same accounting as ReadHigherSegment: remote Protocol A reads are
  // unregistered version reads, and the oracle replays them by bound.
  ++runtime->n_unregistered_reads;
  ++runtime->n_version_reads;
  if (options_.footprint != nullptr) runtime->fp_reads.push_back(granule);
  recorder_.RecordRead(runtime->descriptor.id, granule, version_key,
                       /*registered=*/false, bound);
  return Status::OK();
}

Status HddController::AwaitWalReadStable() {
  if (wal_ == nullptr) return Status::OK();
  return wal_->AwaitReadStable();
}

Status HddController::PrepareExternal(
    SegmentId segment, TxnId txn, Timestamp init_ts,
    const std::vector<std::pair<std::uint32_t, Value>>& writes) {
  // Participant effects must not unwind mid-way: the coordinator resolves
  // a failed prepare with AbortExternal, not by stack unwinding here.
  SimYield("hdd/dist/prepare", /*interruptible=*/false);
  std::shared_lock<std::shared_mutex> gate(struct_mu_);
  HDD_RETURN_IF_ERROR(CheckSegments({segment}, "segment"));
  ClassShard* shard = shards_[class_of_segment_[segment]].get();
  std::uint64_t prepare_ticket = 0;
  {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    for (const auto& [index, value] : writes) {
      const GranuleRef ref{segment, index};
      HDD_RETURN_IF_ERROR(db_->Validate(ref));
      Granule& g = db_->granule(ref);
      if (Version* existing = g.Find(init_ts)) {
        // Duplicated prepare (the transport may redeliver) or a
        // same-granule re-write in the shipped list: update in place and
        // re-log, mirroring the local Write overwrite path (replay applies
        // write records for a present order key as value updates, in log
        // order), then fall through to re-log the marker and re-ack.
        if (existing->creator != txn) {
          return Status::FailedPrecondition(
              "prepare: order key owned by another transaction");
        }
        existing->value = value;
        if (wal_ != nullptr) {
          HDD_RETURN_IF_ERROR(
              wal_->LogWrite(segment, txn, init_ts, index, value).status());
        }
        continue;
      }
      Version v;
      v.order_key = init_ts;
      v.wts = init_ts;
      v.creator = txn;
      v.value = value;
      v.committed = false;
      HDD_RETURN_IF_ERROR(g.Insert(v));
      if (wal_ != nullptr) {
        auto logged = wal_->LogWrite(segment, txn, init_ts, index, value);
        if (!logged.ok()) {
          (void)g.Remove(init_ts);
          return logged.status();
        }
      }
    }
    if (wal_ != nullptr) {
      HDD_ASSIGN_OR_RETURN(prepare_ticket,
                           wal_->LogPrepare(segment, txn, init_ts));
    }
  }
  // Ack only once the shipped writes and the marker are on disk: the
  // coordinator's commit decision assumes this node can redo them.
  return AwaitDurable(gate, prepare_ticket);
}

Status HddController::CommitExternal(SegmentId segment, TxnId txn,
                                     Timestamp init_ts) {
  // Phase 2 rolls forward, never unwinds (the verdict is already durable
  // at the coordinator).
  SimYield("hdd/dist/commit_ext", /*interruptible=*/false);
  std::shared_lock<std::shared_mutex> gate(struct_mu_);
  HDD_RETURN_IF_ERROR(CheckSegments({segment}, "segment"));
  ClassShard* shard = shards_[class_of_segment_[segment]].get();
  std::uint64_t commit_ticket = 0;
  {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    Segment& seg = db_->segment(segment);
    for (std::uint32_t i = 0; i < seg.size(); ++i) {
      Version* v = seg.granule(i).Find(init_ts);
      if (v != nullptr && v->creator == txn) v->committed = true;
    }
    if (wal_ != nullptr) {
      HDD_ASSIGN_OR_RETURN(commit_ticket,
                           wal_->LogCommit(segment, txn, init_ts, {segment}));
    }
  }
  SimNotifyAll(shard->cv, shard);
  return AwaitDurable(gate, commit_ticket);
}

Status HddController::AbortExternal(SegmentId segment, TxnId txn,
                                    Timestamp init_ts) {
  SimYield("hdd/dist/abort_ext", /*interruptible=*/false);
  std::shared_lock<std::shared_mutex> gate(struct_mu_);
  HDD_RETURN_IF_ERROR(CheckSegments({segment}, "segment"));
  ClassShard* shard = shards_[class_of_segment_[segment]].get();
  {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    Segment& seg = db_->segment(segment);
    for (std::uint32_t i = 0; i < seg.size(); ++i) {
      Granule& g = seg.granule(i);
      const Version* v = g.Find(init_ts);
      if (v != nullptr && v->creator == txn && !v->committed) {
        (void)g.Remove(init_ts);
      }
    }
    if (wal_ != nullptr) {
      // Replay hygiene like Abort's records: a lost copy just means
      // recovery discards the unresolved prepare itself.
      (void)wal_->LogAbort(segment, txn, init_ts);
    }
  }
  SimNotifyAll(shard->cv, shard);
  return Status::OK();
}

Status HddController::CommitDurablePhase(const TxnDescriptor& txn) {
  // First half of Commit, with the transaction left REGISTERED: its
  // initiation stays in the activity table, so no activity-link bound on
  // any node can pass I(t) while remote participants are still marking
  // their versions committed. Past this point the coordinator rolls
  // forward (the fault injector may stall but not unwind).
  SimYield("hdd/dist/commit_local", /*interruptible=*/false);
  std::shared_lock<std::shared_mutex> gate(struct_mu_);
  HDD_ASSIGN_OR_RETURN(TxnRuntime * runtime, FindTxn(txn));
  if (runtime->descriptor.read_only) {
    return Status::InvalidArgument(
        "distributed commit is for update transactions");
  }
  HDD_ASSIGN_OR_RETURN(const std::uint64_t commit_ticket,
                       InstallCommit(*runtime, /*finish=*/false));
  return AwaitDurable(gate, commit_ticket);
}

Status HddController::FinishDistributedCommit(const TxnDescriptor& txn) {
  // Second half of Commit: deregister and run the bookkeeping. Called
  // only after every remote participant acked CommitExternal — the
  // ordering that keeps remote bounded reads sound (a bound can pass
  // I(t) only once OnFinish ran, by which time all of t's versions are
  // committed everywhere).
  SimYield("hdd/dist/finish", /*interruptible=*/false);
  std::shared_lock<std::shared_mutex> gate(struct_mu_);
  HDD_ASSIGN_OR_RETURN(std::unique_ptr<TxnRuntime> runtime, ExtractTxn(txn));
  ClassShard* shard = shards_[runtime->descriptor.txn_class].get();
  {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    shard->table.OnFinish(runtime->descriptor.init_ts, clock_->Tick());
  }
  SimNotifyAll(shard->cv, shard);
  SignalFinishEvent();
  FinishTxn(*runtime, TxnState::kCommitted);
  return Status::OK();
}

}  // namespace hdd
