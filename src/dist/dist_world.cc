#include "dist/dist_world.h"

#include <functional>
#include <utility>

#include "engine/driver.h"
#include "sim/explorer.h"
#include "sim/sim_scheduler.h"

namespace hdd {

namespace {

SyntheticWorkloadParams MakeParams(const DistWorldOptions& options) {
  SyntheticWorkloadParams params;
  params.depth = options.depth;
  params.granules_per_segment = options.granules_per_segment;
  params.own_reads = options.own_reads;
  params.own_writes = options.own_writes;
  params.upper_reads = options.upper_reads;
  params.read_only_fraction = options.read_only_fraction;
  return params;
}

}  // namespace

DistWorld::DistWorld(DistWorldOptions options, SimScheduler* sched)
    : options_(options),
      sched_(sched),
      workload_(MakeParams(options)),
      map_(ShardMap::Contiguous(options.depth, options.num_nodes)),
      clock_(sched) {
  Result<HierarchySchema> schema = HierarchySchema::Create(workload_.Spec());
  if (!schema.ok()) {
    init_error_ = schema.status().ToString();
    return;
  }
  schema_.emplace(std::move(*schema));
  for (const auto& [segment, node] : options_.owner_overrides) {
    map_.SetSegmentOwner(segment, node);
  }
  SimTransportOptions topts = options_.transport;
  transport_ = std::make_unique<SimTransport>(options_.num_nodes, topts);
  for (int n = 0; n < options_.num_nodes; ++n) {
    dbs_.push_back(workload_.MakeDatabase());
    storages_.push_back(std::make_unique<SimWalStorage>());
    Result<std::unique_ptr<WalManager>> wal = WalManager::Open(
        storages_.back().get(), dbs_.back()->num_segments(), WalOptions{});
    if (!wal.ok()) {
      init_error_ = wal.status().ToString();
      return;
    }
    wals_.push_back(std::move(*wal));
    dbs_.back()->AttachWal(wals_.back().get());
    HddControllerOptions copts;
    // Disjoint id ranges per node: the merged multi-node history needs
    // globally unique transaction ids.
    copts.first_txn_id = static_cast<TxnId>(n) * (1ull << 32) + 1;
    // Idle-point trimming is node-local reasoning and therefore UNSOUND
    // here: a remote reader's bound may stab below this node's clock
    // while the node itself is idle.
    copts.auto_trim_history = false;
    copts.name = "hdd-dist-" + std::to_string(n);
    controllers_.push_back(std::make_unique<HddController>(
        dbs_.back().get(), &clock_, &*schema_, copts));
    nodes_.push_back(
        std::make_unique<DistNode>(n, controllers_.back().get(), &clock_));
    DistNode* dist_node = nodes_.back().get();
    transport_->RegisterHandler(
        n, [dist_node](int from, const std::string& request) {
          return dist_node->Handle(from, request);
        });
    sessions_.push_back(std::make_unique<DistSession>(
        n, &map_, transport_.get(), controllers_.back().get(),
        options_.session));
    next_index_.push_back(std::make_unique<std::atomic<int>>(0));
  }
}

DistWorld::~DistWorld() = default;

TxnProgram DistWorld::MakeProgram(int node, int index) const {
  Rng rng(options_.workload_seed * 0x9E3779B97F4A7C15ULL +
          static_cast<std::uint64_t>(node) * 8191 +
          static_cast<std::uint64_t>(index) * 131 + 1);
  const auto granule = [&](SegmentId s) {
    return GranuleRef{s, static_cast<std::uint32_t>(
                             rng.NextBounded(options_.granules_per_segment))};
  };
  // Every program reads first, then writes.
  std::vector<GranuleRef> reads;
  std::vector<std::pair<GranuleRef, Value>> writes;
  TxnProgram program;
  if (rng.NextBool(options_.read_only_fraction)) {
    // Hosted read-only: scope = the chain from the root down to a random
    // class h (every scoped class above h is critical-path-reachable).
    const int h = static_cast<int>(rng.NextBounded(
        static_cast<std::uint64_t>(options_.depth)));
    program.options.read_only = true;
    for (int s = 0; s <= h; ++s) {
      program.options.read_scope.push_back(static_cast<SegmentId>(s));
    }
    for (int s = 0; s <= h; ++s) {
      reads.push_back(granule(static_cast<SegmentId>(s)));
    }
  } else {
    const std::vector<ClassId> classes = map_.ClassesHomedAt(node);
    const ClassId c = classes[rng.NextBounded(classes.size())];
    program.options.txn_class = c;
    for (SegmentId s = 0; s < c; ++s) {
      for (int r = 0; r < options_.upper_reads; ++r) {
        reads.push_back(granule(s));
      }
    }
    for (int r = 0; r < options_.own_reads; ++r) reads.push_back(granule(c));
    for (int w = 0; w < options_.own_writes; ++w) {
      // The granule is drawn before the value.
      const GranuleRef target = granule(c);
      writes.emplace_back(target,
                          static_cast<Value>(rng.NextBounded(1000000)));
    }
  }
  program.body = [reads = std::move(reads), writes = std::move(writes)](
                     ConcurrencyController& cc,
                     const TxnDescriptor& txn) -> Status {
    for (const GranuleRef g : reads) {
      HDD_RETURN_IF_ERROR(cc.Read(txn, g).status());
    }
    for (const auto& [g, value] : writes) {
      HDD_RETURN_IF_ERROR(cc.Write(txn, g, value));
    }
    return Status::OK();
  };
  return program;
}

void DistWorld::WorkerBody(int node) {
  std::atomic<int>& next = *next_index_[node];
  for (;;) {
    const int index = next.fetch_add(1);
    if (index >= options_.txns_per_node) break;
    const ProgramResult r = RunProgram(
        *sessions_[node], MakeProgram(node, index), options_.max_retries,
        sched_);
    if (r.committed) committed_.fetch_add(1);
    if (r.failed) failed_.fetch_add(1);
    if (r.crashed) crashed_.fetch_add(1);
    aborted_attempts_.fetch_add(r.aborted_attempts);
  }
}

int DistWorld::TotalTasks() const {
  return options_.num_nodes *
         (options_.workers_per_node + options_.pumps_per_node);
}

std::string DistWorld::RunWorkload() {
  if (!init_error_.empty()) return init_error_;
  // Workers are tasks 0.. (node-major), the pumps follow (node-major).
  // The LAST worker stops the pumps from its registered sim task, so the
  // scheduler delivers the wakeups (a notify from a non-sim thread is
  // invisible to parked sim tasks).
  std::vector<std::function<void()>> pumps;
  for (int n = 0; n < options_.num_nodes; ++n) {
    for (int p = 0; p < options_.pumps_per_node; ++p) {
      pumps.push_back([this, n] { transport_->PumpLoop(n); });
    }
  }
  RunTasks(
      sched_, options_.num_nodes * options_.workers_per_node,
      [this](int worker) { WorkerBody(worker / options_.workers_per_node); },
      [this] { transport_->Stop(); }, pumps);

  if (sched_ != nullptr && sched_->halted() && !sched_->process_crashed()) {
    return "halted: " + sched_->halt_reason();
  }
  return "";
}

std::string DistWorld::CheckHistory() {
  std::vector<Step> combined;
  std::unordered_map<TxnId, TxnState> outcomes;
  std::unordered_map<TxnId, ScheduleRecorder::TxnIdentity> identities;
  for (int n = 0; n < options_.num_nodes; ++n) {
    const ScheduleRecorder& rec = controllers_[n]->recorder();
    AppendRebased(combined, rec.steps());
    for (const auto& [id, outcome] : rec.outcomes()) outcomes[id] = outcome;
    for (const auto& [id, ident] : rec.identities()) identities[id] = ident;
  }
  // The final database: each segment's chains come from its OWNER node
  // (committed versions only — 2PC leftovers of crashed coordinators are
  // uncommitted residue no bounded read could observe).
  std::unique_ptr<Database> merged = workload_.MakeDatabase();
  for (int s = 0; s < options_.depth; ++s) {
    const int owner = map_.owner(static_cast<SegmentId>(s));
    for (std::uint32_t g = 0; g < options_.granules_per_segment; ++g) {
      const GranuleRef ref{static_cast<SegmentId>(s), g};
      std::vector<Version> chain;
      for (const Version& v : dbs_[owner]->granule(ref).versions()) {
        if (v.committed) chain.push_back(v);
      }
      Status restored = merged->granule(ref).RestoreVersions(std::move(chain));
      if (!restored.ok()) return restored.ToString();
    }
  }
  return CheckRecordedHistory(combined, outcomes, identities, *merged,
                              /*replay_bounds=*/true);
}

void AppendRebased(std::vector<Step>& combined, std::vector<Step> steps) {
  const std::uint64_t base = combined.empty() ? 0 : combined.back().seq + 1;
  for (Step& step : steps) step.seq += base;
  combined.insert(combined.end(), steps.begin(), steps.end());
}

}  // namespace hdd
