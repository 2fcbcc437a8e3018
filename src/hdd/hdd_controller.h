#ifndef HDD_HDD_HDD_CONTROLLER_H_
#define HDD_HDD_HDD_CONTROLLER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cc/controller.h"
#include "graph/dhg.h"
#include "hdd/activity.h"
#include "hdd/link_functions.h"
#include "hdd/time_wall.h"
#include "obs/footprint.h"

namespace hdd {

/// Which protocol governs accesses inside a transaction's own root
/// segment (the paper's Protocol B allows either).
enum class ProtocolBEngine {
  kMvto,     // multi-version timestamp ordering [Reed 78]
  kBasicTo,  // basic timestamp ordering [Bernstein 80]
};

struct HddControllerOptions {
  ProtocolBEngine protocol_b = ProtocolBEngine::kMvto;

  /// Trim every class's finished-transaction history whenever the system
  /// reaches an idle point (no transaction in flight, no registered reader
  /// stab; epoch mode reaches one at EndEpoch). At an idle point every
  /// future activity-link chain provably stays above the current clock, so
  /// records finished earlier can never be stabbed again: trimming is
  /// exact, not approximate.
  bool auto_trim_history = true;

  /// TEST-ONLY mutation switch, the canary of the deterministic
  /// simulation harness: when set, Protocol A serves cross-segment reads
  /// at the reader's raw initiation time I(t) instead of the composed
  /// activity-link bound A_i^j(I(t)) — deliberately violating Theorem 1,
  /// since an older transaction of the target class still active at I(t)
  /// may commit a version below the served bound afterwards. The sim
  /// oracle's bound replay must catch this with a replayable seed;
  /// a harness that cannot detect the mutation is broken.
  bool mutation_unsafe_protocol_a = false;

  /// When set, the controller publishes one footprint (the packed
  /// granule read/write sets) per COMMITTED transaction — the trace feed
  /// of workload-driven automatic decomposition (graph/auto_decompose.h,
  /// engine/redecompose.h). Reads are accumulated in the transaction's
  /// runtime by its driving thread, so the publication costs one recorder
  /// call per commit, not per operation. Not owned; must outlive the
  /// controller.
  FootprintRecorder* footprint = nullptr;

  /// First transaction id this controller issues. A sharded deployment
  /// (src/dist/) gives each node's controller a disjoint id range so the
  /// merged multi-node history has globally unique transaction ids.
  TxnId first_txn_id = 1;

  std::string name = "hdd";
};

/// The paper's contribution: concurrency control by Hierarchical Database
/// Decomposition.
///
///  * Protocol A (§4.2): an update transaction of class `i` reading a
///    granule of a *higher* segment `j` is served the latest version with
///    write timestamp below A_i^j(I(t)). The read leaves no lock and no
///    timestamp, never waits and never aborts.
///  * Protocol B (§4.2): accesses to the transaction's own root segment
///    use (multi-version) timestamp ordering; these reads are registered.
///  * Protocol C (§5.2): an ad-hoc read-only transaction reads, in every
///    segment, below the corresponding component of a released time wall;
///    it registers nothing and never invalidates an update transaction.
///
/// Classes start out 1:1 with the schema's segments; `Restructure`
/// (paper §7.1.1) merges classes at run time to legalize an ad-hoc access
/// pattern, draining only the affected classes first.
///
/// ## Locking model (per-class sharding)
///
/// The controller takes the decomposition literally: concurrency-control
/// state is sharded by class, so transactions of different classes never
/// contend on a latch.
///
///  * One `ClassShard` per class holds the class's activity table and a
///    latch guarding it *and* the version chains of every segment the
///    class owns. Protocol B work touches exactly one shard.
///  * Protocol A reads evaluate the activity link bound by locking each
///    class shard on the critical path one at a time (never two at once):
///    I^old/C^late values at or below the clock are stable, so the
///    class-by-class walk equals an atomic snapshot — this is what lets
///    cross-segment reads proceed without any global latch.
///  * A `std::shared_mutex` structure gate protects the class structure
///    itself (segment->class map, semi-tree analysis, the shard vector).
///    Per-txn operations hold it shared; only `Restructure`'s short swap
///    window takes it exclusively. Epoch-admitted transactions skip the
///    gate entirely: `BeginEpoch` and `Restructure` exclude each other
///    under the epoch mutex, so the structure is frozen while an epoch
///    is open (each returns Busy while the other is in progress). No
///    thread ever sleeps on a condition variable while holding the gate.
///  * Released time walls, wall pin counts, the reader registry and the
///    GC horizon live under a dedicated wall mutex; the transaction
///    registry is striped.
///
/// Latch order: structure gate (shared) -> { txn stripe | epoch mutex ->
/// wall mutex -> class shard }. Data paths hold at most one class shard
/// at a time; only Restructure (itself serialized) touches several.
///
/// Drivers follow the usual controller contract: each in-flight
/// transaction is driven by one thread at a time (concurrent calls for
/// *different* transactions are the point; concurrent calls for the same
/// transaction are not supported).
class HddController : public ConcurrencyController {
 public:
  /// The schema must be TST-hierarchical (enforced by HierarchySchema).
  HddController(Database* db, LogicalClock* clock,
                const HierarchySchema* schema,
                HddControllerOptions options = {});
  ~HddController() override;

  std::string_view name() const override { return options_.name; }

  Result<TxnDescriptor> Begin(const TxnOptions& options) override;
  Result<Value> Read(const TxnDescriptor& txn, GranuleRef granule) override;
  Status Write(const TxnDescriptor& txn, GranuleRef granule,
               Value value) override;
  Status Commit(const TxnDescriptor& txn) override;
  Status Abort(const TxnDescriptor& txn) override;

  /// Epoch/batch execution. BeginEpoch ticks the anchor m_e; every
  /// Protocol A bound of the epoch is evaluated at m_e exactly once per
  /// (own class, target class) pair and shared by the whole batch —
  /// sound because versions below A_i^j(m) are final for ANY m at or
  /// below the clock (Theorem 1), and m_e precedes every batch I(t).
  /// BeginBatch admits update transactions of one class under a single
  /// shard critical section. While an epoch is open the caller must not
  /// Begin update transactions outside it (read-only Begins are fine),
  /// and Restructure is unsupported. See docs/TUTORIAL §10.
  Result<EpochHandle> BeginEpoch() override;
  Result<std::vector<TxnDescriptor>> BeginBatch(
      const EpochHandle& epoch,
      const std::vector<TxnOptions>& batch) override;
  Status EndEpoch(const EpochHandle& epoch) override;

  /// Class currently owning a segment (identity until a Restructure).
  ClassId ClassOfSegment(SegmentId segment) const;

  /// Forces release of a fresh time wall anchored per PickWallAnchor at
  /// m = now. Blocks until computable. Also called by a Protocol C Begin
  /// that finds no released wall.
  Status ReleaseNewWall();

  /// §5.2's batched operation: starts a background pacer that releases a
  /// fresh wall every `interval` (releases are skipped while one is
  /// already computing). Idempotent restart with a new interval. The
  /// pacer stops on StopWallPacer() or destruction.
  void StartWallPacer(std::chrono::milliseconds interval);
  void StopWallPacer();

  /// Number of walls released so far.
  std::size_t num_walls() const;

  /// §7.1.1 dynamic restructuring: merges classes so that a transaction
  /// type writing `write_segments` while reading `read_segments` becomes
  /// legal, then returns the class that type must declare. Blocks until
  /// the classes being merged have no active transactions (partial
  /// quiescence — only affected classes drain; others keep running).
  /// Returns Busy while an epoch is open: batch-admitted transactions run
  /// without the per-op structure gate, so the structure must not change
  /// until EndEpoch (which the epoch executor calls only after every
  /// batch transaction finished).
  Result<ClassId> Restructure(const std::vector<SegmentId>& write_segments,
                              const std::vector<SegmentId>& read_segments);

  /// True when a transaction type writing `write_segments` while reading
  /// `read_segments` is already legal under the CURRENT class structure
  /// (all writes in one class, every read segment on a critical path
  /// above it) — i.e. Restructure for that pattern would be a no-op
  /// merge. Takes the structure gate shared; safe alongside running
  /// transactions. The online Redecomposer uses this to decide which
  /// inferred types actually require a merge.
  Result<bool> IsLegalAccessPattern(
      const std::vector<SegmentId>& write_segments,
      const std::vector<SegmentId>& read_segments) const;

  /// Validates a read_scope declaration (§5.0) and returns the lowest
  /// class of the critical path it spans, the host of a read-only
  /// transaction over it, or InvalidArgument. Takes the structure gate.
  Result<ClassId> ResolveHostClass(const std::vector<SegmentId>& scope) const;

  /// A version-GC horizon currently safe for garbage collection: below
  /// every bound any live reader can still be served (§7.3). A query.
  Timestamp SafeGcHorizon() const;

  /// §7.3 garbage collection, the one entry point; safe to call
  /// concurrently with running transactions: fixes a safe horizon under
  /// the wall mutex, then prunes segment by segment under the owning
  /// class's shard latch — the same latch every version-chain access in
  /// this controller takes. Returns the number of versions removed.
  std::size_t CollectGarbage();

  /// Total finished-history records across all class activity tables
  /// (observability for the trimming behaviour).
  std::size_t ActivityHistorySize() const;

  /// Fuzzy checkpoint of the attached WAL (src/wal/): snapshots every
  /// segment's chains together with its log position under the owning
  /// class's shard latch (one segment at a time — writers in other
  /// segments keep running), then appends the control state. Requires a
  /// WAL on the database; safe to call concurrently with transactions,
  /// not with a concurrent Restructure.
  Status CheckpointWal();

  /// Serializes the controller state the WAL cannot re-derive from redo
  /// records: the clock, released time walls, the GC horizon and each
  /// class's finished-transaction history. Opaque to src/wal/ — recovery
  /// hands the newest durable copy back to RestoreControlState.
  std::string ExportControlState() const;

  /// Restores a blob produced by ExportControlState (empty blob: no-op).
  /// Call on a freshly constructed controller, before any transaction
  /// begins; fails if the blob is malformed or the class count changed.
  Status RestoreControlState(const std::string& blob);

  /// Exposes the evaluator for tests and benchmarks of the link
  /// functions. The evaluator latches each class shard it consults, so
  /// calls are safe alongside running transactions (though not alongside
  /// a concurrent Restructure).
  const ActivityLinkEvaluator& evaluator() const { return *eval_; }
  const TstAnalysis& class_tst() const { return *tst_; }

  // ---------------------------------------------------------------------
  // Distribution hooks (src/dist/). A sharded deployment runs one
  // controller per node over the full schema; segments a node does not
  // own are stand-ins. These entry points answer a remote peer's Protocol
  // A questions about this node's live state — I^old along a run of
  // classes, and the one committed version a bound selects — without
  // copying tables or chains and without recording anything, and let a
  // coordinator two-phase a cross-node update commit through this node's
  // WAL.
  // ---------------------------------------------------------------------

  /// Applies I^old along `run`, consecutive classes of a critical path:
  /// out[0] = I^old_run[0](stab), out[k] = I^old_run[k](out[k-1]). Each
  /// query takes one class's shard latch, as the evaluator does, and never
  /// blocks on transactions. Exact for `stab` at or below the clock: I^old
  /// is stable there (hdd/link_functions.h), so callers may memoize.
  Result<std::vector<Timestamp>> OldestActiveAlong(
      const std::vector<ClassId>& run, Timestamp stab) const;

  /// The latest COMMITTED version of `granule` with timestamp below
  /// `bound`, chosen under the owning class's shard latch. Uncommitted
  /// versions are never chosen: a remote reader's bound can only pass I(W)
  /// once W's versions here are marked committed (the 2PC commit step
  /// runs before the home node's OnFinish), so skipping them never starves
  /// a legal bounded read.
  Result<Version> CommittedVersionBelow(GranuleRef granule, Timestamp bound);

  /// Blocks until every WAL record appended so far is durable — in
  /// particular the commit record of every version a concurrent
  /// CommittedVersionBelow returned. The snapshot handler runs this
  /// before replying, extending the local acked-reads-are-durable ticket
  /// argument across nodes. No-op without a WAL.
  Status AwaitWalReadStable();

  /// Books a Protocol A read whose bound the dist session evaluated and
  /// whose version the owner (this node or a remote one) selected: bumps
  /// the unregistered-read metrics and records the (bound, version) pair
  /// with the history recorder so the merged-history oracle replays it.
  Status RecordExternalRead(const TxnDescriptor& txn, GranuleRef granule,
                            Timestamp version_key, Timestamp bound);

  /// 2PC participant, phase 1: installs `txn`'s shipped writes into the
  /// locally owned `segment` as uncommitted versions (order key
  /// `init_ts`), logging each plus a kPrepare marker, then awaits
  /// durability. Idempotent — a duplicated prepare re-acks without
  /// reinstalling. The transaction itself is registered at the
  /// COORDINATOR only; it never appears in this node's activity tables.
  Status PrepareExternal(SegmentId segment, TxnId txn, Timestamp init_ts,
                         const std::vector<std::pair<std::uint32_t, Value>>&
                             writes);

  /// 2PC participant, phase 2: marks `txn`'s versions in `segment`
  /// committed, logs the commit record and awaits durability. Idempotent.
  Status CommitExternal(SegmentId segment, TxnId txn, Timestamp init_ts);

  /// 2PC participant abort: removes `txn`'s uncommitted versions from
  /// `segment` (best-effort abort record). Idempotent.
  Status AbortExternal(SegmentId segment, TxnId txn, Timestamp init_ts);

  /// Coordinator, local half of phase 2: marks the transaction's LOCAL
  /// versions committed, logs commit records and awaits durability — but
  /// leaves the transaction registered and active, so no activity-link
  /// bound anywhere can pass I(t) yet. Pair with FinishDistributedCommit
  /// after every remote participant acked its CommitExternal.
  Status CommitDurablePhase(const TxnDescriptor& txn);

  /// Coordinator, final step: deregisters the transaction (OnFinish) and
  /// runs the commit bookkeeping. Only after this can a reader's bound
  /// pass I(t) — by which time every participant's versions are already
  /// committed, keeping remote bounded reads sound.
  Status FinishDistributedCommit(const TxnDescriptor& txn);

 private:
  /// Per-class concurrency-control state. `mu` guards the activity table,
  /// the draining flag AND the version chains of every segment currently
  /// owned by this class. `cv` wakes (a) Protocol B/C readers and writers
  /// blocked on an uncommitted version created by a transaction of this
  /// class, (b) Begins blocked on draining, and (c) a Restructure drain
  /// waiting for the class's active count to reach zero.
  ///
  /// Shards are held by shared_ptr so that a thread parked on `cv` across
  /// a Restructure (which may replace the shard) still owns the object it
  /// sleeps on; Restructure wakes such orphans after the swap and they
  /// re-resolve their class through the structure gate.
  struct ClassShard {
    std::mutex mu;
    std::condition_variable cv;
    ClassActivityTable table;
    bool draining = false;
  };

  /// ActivityTableSource over the shard vector: latches the owning shard
  /// around each I^old / C^late query (one shard at a time). Callers must
  /// hold the structure gate (shared suffices) so `shards_` is stable.
  class ShardTableSource : public ActivityTableSource {
   public:
    explicit ShardTableSource(const HddController* owner) : owner_(owner) {}
    Timestamp OldestActiveAt(ClassId c, Timestamp m) const override;
    Result<Timestamp> LatestEndAt(ClassId c, Timestamp m) const override;

   private:
    const HddController* owner_;
  };

  /// Shared per-epoch state: the anchor m_e and a lazily filled cache of
  /// activity-link bounds A_i^j(m_e), one slot per (own class, target
  /// class) pair. Slots start at kTimestampInfinity (impossible as a real
  /// bound, since A_i^j(m) <= m); the first reader of a pair evaluates
  /// and publishes, every later reader of the epoch loads. Concurrent
  /// fills race benignly: I^old values at or below the clock are stable,
  /// so every evaluator computes the identical value. Batch transactions
  /// hold the context by shared_ptr, so stragglers still running after
  /// the epoch closed keep their (still sound) anchor.
  struct EpochContext {
    EpochId id = 0;
    Timestamp anchor = kTimestampMin;
    int num_classes = 0;
    std::vector<std::atomic<Timestamp>> bounds;
  };

  struct TxnRuntime {
    TxnDescriptor descriptor;
    std::vector<GranuleRef> writes;  // touched only by the driving thread
    /// Granules read, accumulated like `writes` (driving thread only) and
    /// only when a FootprintRecorder is attached; published on commit.
    std::vector<GranuleRef> fp_reads;
    const TimeWall* wall = nullptr;  // Protocol C wall, pinned at Begin
    /// For hosted read-only transactions (§5.0): the lowest class of the
    /// declared critical path; kReadOnlyClass when not hosted.
    ClassId hosted_below = kReadOnlyClass;
    /// Set iff the transaction was admitted by BeginBatch: Protocol A
    /// bounds come from the epoch's shared cache, and MVTO's
    /// younger-reader write check is delegated to the epoch executor's
    /// dependency graph.
    std::shared_ptr<EpochContext> epoch;
    /// Deferred per-operation metric counts (touched only by the driving
    /// thread, like `writes`), flushed into the shared counters once when
    /// the transaction finishes: one atomic per counter per transaction
    /// instead of one per read — measurable on the Protocol A fast path.
    std::uint32_t n_unregistered_reads = 0;
    std::uint32_t n_version_reads = 0;
    std::uint32_t n_read_timestamps = 0;
    std::uint32_t n_versions_created = 0;
    std::uint32_t n_epoch_bound_hits = 0;
    std::uint32_t n_epoch_bound_misses = 0;
  };

  /// Registry of in-flight transactions, striped by id so Begin/Commit of
  /// unrelated transactions do not contend. The unique_ptr keeps each
  /// runtime at a stable address across rehashes.
  static constexpr std::size_t kTxnStripes = 16;
  struct alignas(64) TxnStripe {
    std::mutex mu;
    std::unordered_map<TxnId, std::unique_ptr<TxnRuntime>> map;
  };

  TxnStripe& StripeFor(TxnId id) { return txn_stripes_[id % kTxnStripes]; }
  /// Looks up a runtime; the pointer stays valid until the driving thread
  /// finishes the transaction (single-driver contract).
  Result<TxnRuntime*> FindTxn(const TxnDescriptor& txn);
  /// Removes and returns the runtime (Commit/Abort claim ownership so a
  /// second finish observes FailedPrecondition) and flushes its operation
  /// counts: even a commit that fails later performed its reads.
  Result<std::unique_ptr<TxnRuntime>> ExtractTxn(const TxnDescriptor& txn);
  /// Publishes the runtime's deferred per-operation counts (see
  /// TxnRuntime) into the shared metric registry.
  void FlushOpMetrics(const TxnRuntime& runtime);
  /// Publishes the runtime's packed read/write granule sets to the
  /// attached FootprintRecorder (caller checked options_.footprint).
  void PublishFootprint(const TxnRuntime& runtime);

  /// Marks an update transaction's versions committed and appends its
  /// commit records in ONE class-shard critical section; with `finish`
  /// (a local Commit, not a 2PC coordinator) also ends it in the activity
  /// table there. Returns the last commit ticket, 0 without a WAL.
  Result<std::uint64_t> InstallCommit(const TxnRuntime& runtime, bool finish);
  /// Waits until `ticket` is durable (no-op for 0) with the gate released.
  Status AwaitDurable(std::shared_lock<std::shared_mutex>& gate,
                      std::uint64_t ticket);
  /// The finish step of Commit, Abort and FinishDistributedCommit: reader
  /// release, footprint, outcome, counters, active count and idle trim.
  void FinishTxn(const TxnRuntime& runtime, TxnState outcome);

  /// InvalidArgument "<what> out of range" unless every segment exists.
  /// Caller holds the structure gate, like ResolveHostClassLocked.
  Status CheckSegments(const std::vector<SegmentId>& segments,
                       const char* what) const;
  /// ResolveHostClass body.
  Result<ClassId> ResolveHostClassLocked(
      const std::vector<SegmentId>& scope) const;

  /// Read paths. All take the caller's structure-gate lock so they can
  /// release it (and reacquire after) around any condition-variable wait.
  Result<Value> ReadOwnSegment(std::shared_lock<std::shared_mutex>& gate,
                               TxnRuntime* runtime, GranuleRef granule);
  Result<Value> ReadHigherSegment(TxnRuntime* runtime, GranuleRef granule,
                                  ClassId own_class, ClassId target_class);
  Result<Value> ReadHosted(TxnRuntime* runtime, GranuleRef granule);
  Result<Value> ReadUnderWall(std::shared_lock<std::shared_mutex>& gate,
                              TxnRuntime* runtime, GranuleRef granule);

  /// Computes and releases a wall; caller holds the structure gate
  /// (shared), which is released and reacquired around waits for a
  /// finish event while some C^late is not yet computable.
  Status ReleaseWallInternal(std::shared_lock<std::shared_mutex>& gate);
  /// Pins a Protocol C Begin's wall: `as_of_wall`, or the newest for -1
  /// (releasing the first wall when none exists). Caller holds the gate.
  Result<const TimeWall*> PinWall(std::shared_lock<std::shared_mutex>& gate,
                                  int as_of_wall);

  /// Ticks a stab time and enters it in reader_stabs_; UnregisterStab
  /// removes one entry.
  Timestamp RegisterStab();
  void UnregisterStab(Timestamp stab);

  /// Minimum over bound components of a wall.
  static Timestamp WallMin(const TimeWall& wall);
  /// Caller holds the structure gate (shared) and wall_mu_; takes each
  /// class shard briefly.
  Timestamp ComputeSafeGcHorizon() const;
  /// Idle-point history trim; caller holds the structure gate (shared).
  void MaybeTrimHistory();
  /// Announces a finished update transaction to wall computations.
  void SignalFinishEvent();
  /// Serves A_{own}^{target}(anchor) from the epoch's shared cache,
  /// evaluating on first use. Falls back to an uncached evaluation at the
  /// epoch anchor when the class structure changed shape under the epoch
  /// (the straggler path). Caller holds the structure gate (shared).
  Result<Timestamp> EpochBound(EpochContext& ctx, ClassId own_class,
                               ClassId target_class, TxnRuntime* runtime);
  /// ExportControlState body; caller holds the structure gate (shared).
  std::string ExportControlStateLocked() const;

  HddControllerOptions options_;

  /// Durability hookup, cached from Database::wal() at construction;
  /// nullptr runs the controller without logging (the pre-WAL behaviour).
  WalManager* wal_ = nullptr;

  /// Structure gate: guards class_of_segment_, num_classes_, tst_, eval_
  /// and the shards_ vector (all swapped by Restructure), plus wall bound
  /// vectors' *shape*. Shared for every operation, exclusive only for the
  /// Restructure swap. Never held across a cv wait.
  mutable std::shared_mutex struct_mu_;
  std::vector<ClassId> class_of_segment_;
  int num_classes_ = 0;
  std::unique_ptr<TstAnalysis> tst_;
  std::vector<std::shared_ptr<ClassShard>> shards_;
  ShardTableSource shard_source_{this};
  std::unique_ptr<ActivityLinkEvaluator> eval_;

  /// Walls, their pins and the reader registry. walls_ is append-only
  /// (stable addresses); wall_pins_ maps a pinned wall to the number of
  /// read-only transactions currently reading under it; reader_stabs_
  /// holds live readers' stab times (see ComputeSafeGcHorizon).
  /// last_gc_horizon_ is the highest horizon ever passed to garbage
  /// collection; AS-OF transactions targeting walls below it are rejected
  /// (their versions may be gone). stab_floor_ is past the clock reading
  /// of the last collection or idle trim; RegisterStab redraws a stab
  /// below it, which that cut may have passed unseen.
  mutable std::mutex wall_mu_;
  std::deque<TimeWall> walls_;
  std::unordered_map<const TimeWall*, int> wall_pins_;
  std::multiset<Timestamp> reader_stabs_;
  Timestamp last_gc_horizon_ = kTimestampMin;
  Timestamp stab_floor_ = kTimestampMin;

  std::array<TxnStripe, kTxnStripes> txn_stripes_;
  std::atomic<TxnId> next_txn_id_{1};

  /// All in-flight transactions (update + read-only). Incremented before
  /// the initiation tick, decremented after the finish bookkeeping; the
  /// idle-point trim re-checks it against a clock reading so any
  /// concurrent Begin is guaranteed a later initiation timestamp.
  std::atomic<std::int64_t> active_txns_{0};

  /// Finish-event channel: wall computations blocked on a not-yet
  /// computable C^late wait here for any update transaction to finish.
  std::atomic<std::uint64_t> finish_seq_{0};
  std::mutex finish_mu_;
  std::condition_variable finish_cv_;

  /// Serializes Restructure calls (drain + swap).
  std::mutex restructure_mu_;

  /// Current epoch (nullptr between epochs). Taken by BeginEpoch,
  /// BeginBatch, EndEpoch and a wall computation's anchor clamp; never
  /// held across a wait or a shard latch. Readers on the data path reach
  /// the context through their TxnRuntime's shared_ptr instead.
  mutable std::mutex epoch_mu_;
  std::shared_ptr<EpochContext> current_epoch_;
  std::atomic<EpochId> next_epoch_id_{1};
  /// True while a Restructure is past its epoch check (guarded by
  /// epoch_mu_). BeginEpoch returns Busy while set — the other half of
  /// the exclusion that lets epoch transactions skip the structure gate.
  bool restructuring_ = false;

  // §5.2 wall pacer.
  std::thread pacer_;
  std::atomic<bool> pacer_stop_{false};
  std::mutex pacer_mu_;
  std::condition_variable pacer_cv_;
};

}  // namespace hdd

#endif  // HDD_HDD_HDD_CONTROLLER_H_
