#include "src/core/clustermgr.h"

#include "src/core/cluster.h"
#include "src/core/nicfs.h"
#include "src/core/sharedfs.h"

namespace linefs::core {

ClusterManager::ClusterManager(Cluster* cluster, const DfsConfig* config)
    : cluster_(cluster), config_(config) {
  seen_alive_.resize(cluster->num_nodes(), true);
}

const shard::ShardMap& ClusterManager::shards() const { return cluster_->shards(); }

int ClusterManager::ArbiterNodeFor(uint64_t inum, int local_node) const {
  return cluster_->ArbiterNodeFor(inum, local_node);
}

void ClusterManager::Start() {
  cluster_->engine()->Spawn(HeartbeatLoop(), "clustermgr.heartbeat");
}

void ClusterManager::Shutdown() { shutdown_ = true; }

sim::Task<> ClusterManager::HeartbeatLoop() {
  sim::Engine* engine = cluster_->engine();
  while (!shutdown_) {
    co_await engine->SleepFor(config_->heartbeat_interval);
    if (shutdown_) {
      break;
    }
    for (int node = 0; node < cluster_->num_nodes(); ++node) {
      std::string target = config_->IsLineFs() ? NicFs::EndpointName(node)
                                               : SharedFs::EndpointName(node);
      ++heartbeats_sent_;
      Result<Ack> pong = co_await cluster_->rpc().Call<HeartbeatMsg, Ack>(
          rdma::Initiator{}, rdma::MemAddr{0, rdma::Space::kNicMem}, target,
          rdma::Channel::kHighTput, kRpcHeartbeat, HeartbeatMsg{epoch_},
          config_->heartbeat_timeout);
      bool alive = pong.ok();
      if (!alive && seen_alive_[node]) {
        co_await OnNicFsFailure(node);
      } else if (alive && !seen_alive_[node]) {
        co_await OnNicFsRecovered(node);
      }
      if (shutdown_) {
        break;
      }
    }
  }
}

sim::Task<> ClusterManager::OnNicFsFailure(int node) {
  if (!seen_alive_[node]) {
    co_return;
  }
  seen_alive_[node] = false;
  cluster_->SetServiceAlive(node, false);
  ++epoch_;
  // Expire every lease the failed arbiter issued; a live replica takes over
  // lease management (§3.6). The sharded plane keeps the table: AcquireSerial
  // persists each grant to host PM before the reply leaves and mirrors it to
  // the replicas, so a recovering shard arbiter restores its grant table from
  // PM instead of forcing every holder to re-acquire. Wiping it here would
  // make late validation of legitimately-leased chunks fail after the node
  // is readmitted (DESIGN.md §13).
  if (config_->IsLineFs() && cluster_->nicfs(node) != nullptr && !shards().sharded()) {
    cluster_->nicfs(node)->leases().ExpireAll();
  }
  co_await BroadcastEpoch();
}

sim::Task<> ClusterManager::OnNicFsRecovered(int node) {
  if (seen_alive_[node]) {
    co_return;
  }
  seen_alive_[node] = true;
  cluster_->SetServiceAlive(node, true);
  ++epoch_;
  co_await BroadcastEpoch();
}

sim::Task<> ClusterManager::BroadcastEpoch() {
  for (int node = 0; node < cluster_->num_nodes(); ++node) {
    if (!seen_alive_[node]) {
      continue;
    }
    std::string target =
        config_->IsLineFs() ? NicFs::EndpointName(node) : SharedFs::EndpointName(node);
    Result<Ack> ignored = co_await cluster_->rpc().Call<EpochUpdateMsg, Ack>(
        rdma::Initiator{}, rdma::MemAddr{0, rdma::Space::kNicMem}, target,
        rdma::Channel::kHighTput, kRpcEpochUpdate, EpochUpdateMsg{epoch_},
        config_->heartbeat_timeout);
    (void)ignored;
  }
}

}  // namespace linefs::core
