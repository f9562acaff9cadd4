#include "src/core/cluster.h"

#include <cstdio>
#include <cstdlib>

#include "src/core/clustermgr.h"
#include "src/core/kworker.h"
#include "src/core/libfs.h"
#include "src/core/nicfs.h"
#include "src/core/sharedfs.h"
#include "src/sim/check.h"

namespace linefs::core {

const char* DfsModeName(DfsMode mode) {
  switch (mode) {
    case DfsMode::kLineFS:
      return "LineFS";
    case DfsMode::kLineFSNotParallel:
      return "LineFS-NotParallel";
    case DfsMode::kAssise:
      return "Assise";
    case DfsMode::kAssiseBgRepl:
      return "Assise-BgRepl";
    case DfsMode::kAssiseHyperloop:
      return "Assise+Hyperloop";
  }
  return "unknown";
}

const char* PublishMethodName(PublishMethod method) {
  switch (method) {
    case PublishMethod::kCpuMemcpy:
      return "CPU memcpy";
    case PublishMethod::kDmaPolling:
      return "DMA polling";
    case PublishMethod::kDmaPollingBatch:
      return "DMA polling + batch";
    case PublishMethod::kDmaInterruptBatch:
      return "DMA interrupt + batch";
    case PublishMethod::kNoCopy:
      return "No copy";
  }
  return "unknown";
}

namespace {

// Durable 2PC record (intent / decision): 64B from the arbiter's memory to
// its host PM, the same cost model as a lease-grant persist.
sim::Task<> PersistTxnRecord(rdma::Network* net, rdma::Initiator init, rdma::MemAddr self) {
  co_await net->Write(init, self, rdma::MemAddr{self.node, rdma::Space::kHostPm}, 64);
}

}  // namespace

Cluster::Cluster(sim::Engine* engine, const DfsConfig& config)
    : engine_(engine), config_(config) {
  config_.node_params.host.pm_size = config_.pm_size;

  metrics_ = std::make_unique<obs::MetricsRegistry>();
  // Before any service mints a series: the window is stamped at creation.
  metrics_->SetTimelineWindow(config_.timeline_window);
  trace_ = std::make_unique<obs::TraceBuffer>(engine_);
  trace_->SetDroppedCounter(obs::MetricScope(metrics_.get(), "obs.trace").CounterAt("dropped"));

  fabric_ = std::make_unique<hw::Fabric>(engine_);
  std::vector<hw::Node*> raw_nodes;
  for (int i = 0; i < config_.num_nodes; ++i) {
    hw_nodes_.push_back(std::make_unique<hw::Node>(engine_, i, config_.node_params));
    fabric_->Attach(hw_nodes_.back().get());
    raw_nodes.push_back(hw_nodes_.back().get());
  }
  net_ = std::make_unique<rdma::Network>(engine_, fabric_.get(), raw_nodes, config_.rdma_costs);
  rpc_ = std::make_unique<rdma::RpcSystem>(net_.get());
  rpc_->SetTrace(trace_.get());
  service_alive_.resize(config_.num_nodes, true);
  for (int i = 0; i < config_.num_nodes; ++i) {
    service_eps_.push_back(rpc_->Resolve(config_.IsLineFs() ? NicFs::EndpointName(i)
                                                            : SharedFs::EndpointName(i)));
  }

  for (int i = 0; i < config_.num_nodes; ++i) {
    dfs_nodes_.push_back(std::make_unique<DfsNode>(hw_nodes_[i].get(), config_));
  }
  pipeline::StagePlacer::Options placer_opts;
  placer_opts.pooling = config_.placer_pooling;
  placer_opts.nic_saturation = config_.placer_nic_saturation;
  placer_opts.queue_threshold = config_.stage_queue_threshold;
  placer_opts.max_workers = config_.max_stage_workers;
  placer_ = std::make_unique<pipeline::StagePlacer>(
      engine_, placer_opts, obs::MetricScope(metrics_.get(), "placer"));
  // Every site is registered before any placement decision: the NIC pool of
  // each node plus its host pool as the saturation fallback.
  for (int i = 0; i < config_.num_nodes; ++i) {
    hw::Node& hwn = *hw_nodes_[i];
    placer_->AddSite({i, /*host=*/false, &hwn.nic().cpu(), hwn.nic().nicfs_account()});
    placer_->AddSite({i, /*host=*/true, &hwn.host_cpu(), hwn.acct_fs()});
  }
  if (config_.IsLineFs()) {
    for (int i = 0; i < config_.num_nodes; ++i) {
      kworkers_.push_back(std::make_unique<KernelWorker>(dfs_nodes_[i].get(), &config_,
                                                         rpc_.get(), metrics_.get(),
                                                         trace_.get()));
    }
  }
  for (int i = 0; i < config_.num_nodes; ++i) {
    if (config_.IsLineFs()) {
      services_.push_back(
          std::make_unique<NicFs>(this, dfs_nodes_[i].get(), kworkers_[i].get(), &config_));
    } else {
      services_.push_back(std::make_unique<SharedFs>(this, dfs_nodes_[i].get(), &config_));
    }
  }
  manager_ = std::make_unique<ClusterManager>(this, &config_);

  shard::Placement placement = shard::Placement::kHash;
  if (Result<shard::Placement> parsed = shard::ParsePlacement(config_.shard_placement);
      parsed.ok()) {
    placement = *parsed;  // Unknown names are rejected by Start()'s Validate().
  }
  shards_ = shard::ShardMap(config_.num_shards, config_.num_nodes, placement);
  std::vector<rdma::EndpointId> txn_peers;
  for (int i = 0; i < config_.num_nodes; ++i) {
    txn_peers.push_back(rpc_->Resolve(shard::TxnService::EndpointName(i)));
  }
  for (int i = 0; i < config_.num_nodes; ++i) {
    hw::Node& hwn = *hw_nodes_[i];
    shard::TxnService::Context ctx;
    ctx.peers = txn_peers;
    ctx.engine = engine_;
    ctx.rpc = rpc_.get();
    ctx.node = i;
    if (config_.IsLineFs()) {
      // The transaction plane runs where the arbiter runs: on the SmartNIC.
      ctx.self = rdma::MemAddr{i, rdma::Space::kNicMem};
      ctx.cpu = &hwn.nic().cpu();
      ctx.account = hwn.nic().nicfs_account();
      ctx.initiator.extra_latency = hwn.params().nic.pcie_latency;
    } else {
      ctx.self = rdma::MemAddr{i, rdma::Space::kHostPm};
      ctx.cpu = &hwn.host_cpu();
      ctx.account = hwn.acct_fs();
    }
    ctx.initiator.cpu = ctx.cpu;
    ctx.initiator.account = ctx.account;
    ctx.node_alive = [this](int node) { return service_alive(node); };
    ctx.persist = [net = net_.get(), init = ctx.initiator, self = ctx.self]() {
      return PersistTxnRecord(net, init, self);
    };
    ctx.in_doubt_timeout = config_.txn_in_doubt_timeout;
    ctx.sweep_interval = config_.txn_sweep_interval;
    txns_.push_back(std::make_unique<shard::TxnService>(
        ctx, obs::MetricScope(metrics_.get(), "txn." + std::to_string(i))));
  }
}

Cluster::~Cluster() = default;

NicFs* Cluster::nicfs(int id) {
  return config_.IsLineFs() ? static_cast<NicFs*>(service(id)) : nullptr;
}

SharedFs* Cluster::sharedfs(int id) {
  return config_.IsLineFs() ? nullptr : static_cast<SharedFs*>(service(id));
}

void Cluster::SetServiceAlive(int node, bool alive) {
  if (node < 0 || static_cast<size_t>(node) >= service_alive_.size()) {
    return;
  }
  bool changed = service_alive_[node] != alive;
  service_alive_[node] = alive;
  if (!changed) {
    return;
  }
  for (auto& fs : services_) {
    fs->OnPeerLiveness(node, alive);
  }
}

Status Cluster::Start() {
  LINEFS_CHECK(!started_);
  Status valid = config_.Validate();
  if (!valid.ok()) {
    return valid;
  }
  started_ = true;
  for (auto& kw : kworkers_) {
    kw->Start();
  }
  for (auto& fs : services_) {
    fs->Start();
  }
  if (shards_.sharded()) {
    // The transaction plane only exists when cross-shard operations can: the
    // unsharded cluster stays byte-identical to the pre-sharding system.
    for (auto& txn : txns_) {
      txn->Start();
    }
  }
  manager_->Start();
  if (config_.pipeline_parallel()) {
    placer_->Start();
  }
  return Status::Ok();
}

void Cluster::Shutdown() {
  if (shards_.sharded() && started_) {
    for (auto& txn : txns_) {
      txn->Shutdown();
    }
  }
  placer_->Stop();
  manager_->Shutdown();
  for (auto& fs : services_) {
    fs->Shutdown();
  }
}

LeaseManager* Cluster::arbiter(int node) {
  FsService* fs = service(node);
  return fs != nullptr ? &fs->leases() : nullptr;
}

bool Cluster::ArbiterCheckWrite(uint32_t client, uint64_t inum, int local_node) {
  int arb = ArbiterNodeFor(inum, local_node);
  LeaseManager* lm = arbiter(arb);
  return lm != nullptr && lm->CheckWrite(client, inum);
}

LibFs* Cluster::CreateClient(int node_id) {
  int id = static_cast<int>(clients_.size());
  // Checked in every build: each node has log areas for max_clients ids only.
  if (id >= config_.max_clients) {
    std::fprintf(stderr, "Cluster::CreateClient: client %d exceeds max_clients (%d)\n", id,
                 config_.max_clients);
    std::abort();
  }
  clients_.push_back(std::make_unique<LibFs>(this, node_id, id));
  clients_.back()->Attach();
  return clients_.back().get();
}

}  // namespace linefs::core
