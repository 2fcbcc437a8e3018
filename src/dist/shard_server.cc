#include "dist/shard_server.h"

#include <algorithm>
#include <string>
#include <utility>

namespace hdd {

namespace {

SyntheticWorkloadParams MakeParams(const ShardServerOptions& options) {
  SyntheticWorkloadParams params;
  params.depth = options.depth;
  params.granules_per_segment = options.granules_per_segment;
  return params;
}

}  // namespace

ShardServer::ShardServer(ShardServerOptions options)
    : options_(std::move(options)),
      workload_(MakeParams(options_)),
      // At least one node, so an empty peer list (rejected below) never
      // reaches the split's division.
      map_(ShardMap::Contiguous(
          options_.depth,
          std::max(1, static_cast<int>(options_.peers.size())))) {
  if (options_.node_id < 0 ||
      options_.node_id >= static_cast<int>(options_.peers.size())) {
    init_error_ = "shard node id " + std::to_string(options_.node_id) +
                  " is not an index into the " +
                  std::to_string(options_.peers.size()) + "-entry peer list";
    return;
  }
  Result<HierarchySchema> schema = HierarchySchema::Create(workload_.Spec());
  if (!schema.ok()) {
    init_error_ = schema.status().ToString();
    return;
  }
  schema_.emplace(std::move(*schema));
  for (const auto& [segment, node] : options_.owner_overrides) {
    map_.SetSegmentOwner(segment, node);
  }
  transport_ = std::make_unique<SocketTransport>(options_.node_id,
                                                 options_.peers, metrics_);
  if (options_.node_id == 0) {
    clock_ = std::make_unique<LogicalClock>();
  } else {
    clock_ = std::make_unique<RemoteClock>(transport_.get(),
                                           options_.node_id);
  }
  db_ = workload_.MakeDatabase();
  storage_ = std::make_unique<SimWalStorage>();
  Result<std::unique_ptr<WalManager>> wal =
      WalManager::Open(storage_.get(), db_->num_segments(), WalOptions{});
  if (!wal.ok()) {
    init_error_ = wal.status().ToString();
    return;
  }
  wal_ = std::move(*wal);
  db_->AttachWal(wal_.get());
  HddControllerOptions copts;
  // Disjoint id ranges per node, as in DistWorld: 2PC prepares carry the
  // coordinator in the id's top half, and merged histories need global
  // uniqueness.
  copts.first_txn_id =
      static_cast<TxnId>(options_.node_id) * (1ull << 32) + 1;
  // Idle-point trimming is node-local reasoning — unsound here (a remote
  // reader's bound may stab below this node's clock while it idles).
  copts.auto_trim_history = false;
  copts.name = "hdd-shard-" + std::to_string(options_.node_id);
  cc_ = std::make_unique<HddController>(db_.get(), clock_.get(), &*schema_,
                                        copts);
  node_ = std::make_unique<DistNode>(options_.node_id, cc_.get(),
                                     options_.node_id == 0 ? clock_.get()
                                                           : nullptr);
  session_ = std::make_unique<DistSession>(options_.node_id, &map_,
                                           transport_.get(), cc_.get());

  ServerOptions sopts;
  sopts.port = options_.front_port;
  sopts.num_io_threads = options_.front_io_threads;
  sopts.num_workers = options_.front_workers;
  sopts.num_classes = options_.depth;
  sopts.max_retries = 50;
  sopts.admission.total_inflight_cap = options_.inflight_cap;
  front_ = std::make_unique<HddServer>(session_.get(), sopts, &metrics_);
}

ShardServer::~ShardServer() { (void)Stop(); }

Status ShardServer::Start() {
  if (!init_error_.empty()) return Status::Internal(init_error_);
  if (started_) return Status::FailedPrecondition("already started");
  DistNode* node = node_.get();
  Status status = transport_->Start(
      [node](int from, const std::string& request) {
        return node->Handle(from, request);
      });
  if (!status.ok()) return status;
  status = front_->Start();
  if (!status.ok()) {
    transport_->Stop();
    return status;
  }
  started_ = true;
  return Status::OK();
}

Status ShardServer::Stop() {
  if (!started_ || stopped_) return Status::OK();
  stopped_ = true;
  front_->Stop();
  transport_->Stop();
  if (auto* remote = dynamic_cast<RemoteClock*>(clock_.get())) {
    // A degraded clock means every timestamp since the failure is
    // suspect; surface it as the deployment's verdict.
    return remote->last_error();
  }
  return Status::OK();
}

std::uint16_t ShardServer::front_port() const { return front_->port(); }

}  // namespace hdd
