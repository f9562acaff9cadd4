#include "src/core/fs_service.h"

#include "src/core/cluster.h"

namespace linefs::core {

FsService::FsService(Cluster* cluster, DfsNode* node, const DfsConfig* config,
                     const char* kind, rdma::Space home, rdma::Initiator lease_initiator)
    : cluster_(cluster), node_(node), config_(config), engine_(node->hw().engine()),
      component_(std::string(kind) + "." + std::to_string(node->id())),
      trace_(&cluster->trace()) {
  LeaseManager::Context lease_ctx;
  lease_ctx.engine = engine_;
  lease_ctx.net = &cluster->net();
  lease_ctx.initiator = lease_initiator;
  lease_ctx.self = rdma::MemAddr{node_->id(), home};
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    if (n != node_->id()) {
      lease_ctx.replicas.push_back(rdma::MemAddr{n, home});
    }
  }
  lease_ctx.lease_duration = config->lease_duration;
  leases_ = std::make_unique<LeaseManager>(lease_ctx);
  // nullptr for an unknown name, which Start()'s Validate() rejects before
  // anything consults the protocol.
  protocol_ = repl::MakeProtocol(config->repl.protocol);
  validator_ = std::make_unique<fslib::Validator>(
      &node_->fs().inodes(), &node_->fs().dirs(),
      [this](uint32_t client, fslib::InodeNum inum) {
        // Sharded namespace: the write lease lives at the shard's arbiter,
        // which may be a peer node. Unsharded this resolves to leases_.
        return cluster_->ArbiterCheckWrite(client, inum, node_->id());
      });
  replica_validator_ = std::make_unique<fslib::Validator>(
      &node_->fs().inodes(), &node_->fs().dirs(),
      [](uint32_t, fslib::InodeNum) { return true; });
}

repl::PeerView FsService::View() const {
  repl::PeerView view;
  view.self = node_->id();
  view.num_nodes = cluster_->num_nodes();
  view.alive = [cluster = cluster_](int n) { return cluster->service_alive(n); };
  return view;
}

std::vector<int> FsService::ChainFor(int origin) const {
  repl::PeerView view = View();
  view.self = origin;
  return repl::ChainOrder(view);
}

sim::Task<LeaseResp> FsService::GrantLease(LeaseReq req, rdma::Initiator cores, uint64_t cycles,
                                           const char* persist_label, obs::TimeSeries* grants) {
  Result<sim::Time> expiry = sim::Time{0};
  if (cluster_->shards().sharded()) {
    expiry = co_await leases_->AcquireSerial(req.client, req.inum, req.write != 0, cycles);
  } else {
    co_await cores.cpu->RunCycles(cycles, cores.priority, cores.account);
    expiry = leases_->TryAcquire(req.client, req.inum, req.write != 0);
    if (expiry.ok()) {
      engine_->Spawn(leases_->PersistGrant(), persist_label);
    }
  }
  if (!expiry.ok()) {
    co_return LeaseResp{static_cast<int32_t>(expiry.code()), 0};
  }
  if (grants != nullptr) {
    grants->Record(engine_->Now(), 1);
  }
  co_return LeaseResp{0, static_cast<uint64_t>(*expiry)};
}

std::optional<fslib::LogRange> FsService::TakeDelivery(const ReplChunkMsg& msg,
                                                       const fslib::LogArea& log) {
  std::optional<fslib::LogRange> payload = cluster_->TakeWire(msg.ticket);
  if (msg.direct_to_host == 0) {
    return payload;
  }
  if (log.tail() < msg.to) {
    return std::nullopt;
  }
  if (!payload) {
    payload.emplace();  // The range is read from `log`; nothing travelled.
  }
  return payload;
}

}  // namespace linefs::core
