// Cluster: top-level wiring of a LineFS deployment — hardware nodes, fabric,
// RDMA network, RPC system, per-node DFS services (NICFS + kernel worker, or
// SharedFS for the Assise baselines), the cluster manager, and LibFS clients.

#ifndef SRC_CORE_CLUSTER_H_
#define SRC_CORE_CLUSTER_H_

#include <compare>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/core/dfs_node.h"
#include "src/hw/fabric.h"
#include "src/hw/node.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pipeline/placer.h"
#include "src/rdma/rdma.h"
#include "src/rdma/rpc.h"
#include "src/shard/shard_map.h"
#include "src/shard/txn.h"
#include "src/sim/engine.h"

namespace linefs::core {

class NicFs;
class SharedFs;
class KernelWorker;
class ClusterManager;
class LeaseManager;
class LibFs;

// Destination of one stashed replication payload: the node it is sent to,
// the client whose log it carries, and the chunk (SharedFS: range start).
struct WireSlot {
  int node = 0;
  int client = 0;
  uint64_t chunk = 0;
  auto operator<=>(const WireSlot&) const = default;
};

class Cluster {
 public:
  Cluster(sim::Engine* engine, const DfsConfig& config);
  ~Cluster();

  // Validates the config and starts service loops (services and hardware are
  // built by the constructor). Refuses to boot on an invalid config.
  Status Start();

  // Stops heartbeats, monitors, and pipelines so Engine::Run() can drain.
  void Shutdown();

  sim::Engine* engine() { return engine_; }
  const DfsConfig& config() const { return config_; }
  int num_nodes() const { return static_cast<int>(hw_nodes_.size()); }

  hw::Node& hw_node(int id) { return *hw_nodes_[id]; }
  DfsNode& dfs_node(int id) { return *dfs_nodes_[id]; }
  hw::Fabric& fabric() { return *fabric_; }
  rdma::Network& net() { return *net_; }
  rdma::RpcSystem& rpc() { return *rpc_; }

  // A negative id would wrap around the size_t comparison; guard it explicitly.
  NicFs* nicfs(int id) {
    return id >= 0 && static_cast<size_t>(id) < nicfs_.size() ? nicfs_[id].get() : nullptr;
  }
  SharedFs* sharedfs(int id) {
    return id >= 0 && static_cast<size_t>(id) < sharedfs_.size() ? sharedfs_[id].get()
                                                                 : nullptr;
  }
  KernelWorker* kworker(int id) {
    return id >= 0 && static_cast<size_t>(id) < kworkers_.size() ? kworkers_[id].get()
                                                                 : nullptr;
  }
  ClusterManager& manager() { return *manager_; }

  // --- Namespace sharding (src/shard/) -----------------------------------------

  const shard::ShardMap& shards() const { return shards_; }

  // Node arbitrating `inum`'s shard. Unsharded (num_shards == 0), every
  // client keeps the legacy behaviour of arbitrating at its own node, so the
  // caller supplies `local_node` as the identity fallback.
  int ArbiterNodeFor(uint64_t inum, int local_node) const {
    return shards_.sharded() ? shards_.ArbiterFor(inum) : local_node;
  }

  // The lease arbiter rooted at `node` (NICFS's for LineFS modes, SharedFS's
  // for the Assise baselines); nullptr for an out-of-range node.
  LeaseManager* arbiter(int node);

  // Validation-stage lease check routed to the owning shard's arbiter. The
  // shard lookup is a pure function and the arbiter table read is modelled as
  // free (NIC-local state mirrored via PersistGrant), matching the unsharded
  // validator's in-process check.
  bool ArbiterCheckWrite(uint32_t client, uint64_t inum, int local_node);

  shard::TxnService* txn(int id) {
    return id >= 0 && static_cast<size_t>(id) < txns_.size() ? txns_[id].get() : nullptr;
  }

  // --- Observability (metrics registry, trace ring) -----------------------------

  obs::MetricsRegistry& metrics() { return *metrics_; }
  const obs::MetricsRegistry& metrics() const { return *metrics_; }
  obs::TraceBuffer& trace() { return *trace_; }
  const obs::TraceBuffer& trace() const { return *trace_; }

  // Cluster-wide stage-worker placement (src/pipeline/placer.h). NICFS pipes
  // register their scalable stage groups here; sites cover every node's NIC
  // pool plus its host pool as saturation fallback.
  pipeline::StagePlacer& placer() { return *placer_; }

  // Creates a LibFS client process on `node_id` (clients get globally unique
  // ids; at most config.max_clients in total, since every node keeps a log
  // area per id). Aborts past that limit.
  LibFs* CreateClient(int node_id);
  LibFs* client(int id) { return clients_[id].get(); }
  int client_count() const { return static_cast<int>(clients_.size()); }

  // --- Service membership (maintained by the cluster manager) ------------------

  bool service_alive(int node) const { return service_alive_[node]; }
  // The file-system service on `node` that every peer, client and manager RPC
  // to that node's FS goes to: NICFS under LineFS, SharedFS under the
  // host-based baselines.
  rdma::EndpointId service_endpoint(int node) const { return service_eps_[node]; }
  // Flips membership and, on a transition, notifies every NicFs so replication
  // protocols observe the failure/readmission and pending acks re-evaluate
  // immediately (not at the next sweeper tick).
  void SetServiceAlive(int node, bool alive);

  // --- Wire payload stash -----------------------------------------------------
  //
  // Side-band for bulk replication data: the simulated RDMA layer charges the
  // wire costs while the range itself (bytes, or headers when payloads are
  // elided) travels through this stash. A sender stashes right before its
  // control message and the receiving handler takes it. A send that fails
  // reached no handler, so the sender withdraws its stash; the ticket keeps
  // it from withdrawing a newer send's payload for the same slot.
  uint64_t StashWire(WireSlot slot, fslib::LogRange payload) {
    wire_[slot] = Stashed{std::move(payload), ++wire_tickets_};
    return wire_tickets_;
  }
  fslib::LogRange TakeWire(WireSlot slot) {
    auto it = wire_.find(slot);
    if (it == wire_.end()) {
      return {};
    }
    fslib::LogRange payload = std::move(it->second.payload);
    wire_.erase(it);
    return payload;
  }
  void WithdrawWire(WireSlot slot, uint64_t ticket) {
    auto it = wire_.find(slot);
    if (it != wire_.end() && it->second.ticket == ticket) {
      wire_.erase(it);
    }
  }
  // Payloads stashed and not yet taken: 0 once every send has drained.
  size_t pending_wire() const { return wire_.size(); }

 private:
  sim::Engine* engine_;
  DfsConfig config_;
  // Declared before the services so metrics outlive the components that
  // reference them during destruction.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::TraceBuffer> trace_;
  std::vector<std::unique_ptr<hw::Node>> hw_nodes_;
  std::vector<std::unique_ptr<DfsNode>> dfs_nodes_;
  std::unique_ptr<hw::Fabric> fabric_;
  std::unique_ptr<rdma::Network> net_;
  std::unique_ptr<rdma::RpcSystem> rpc_;
  // Declared before the NICFS services: their pipes register placement groups
  // whose callbacks the placer may invoke until it is stopped.
  std::unique_ptr<pipeline::StagePlacer> placer_;
  std::vector<std::unique_ptr<NicFs>> nicfs_;
  std::vector<std::unique_ptr<SharedFs>> sharedfs_;
  std::vector<std::unique_ptr<KernelWorker>> kworkers_;
  std::unique_ptr<ClusterManager> manager_;
  shard::ShardMap shards_{0, 1, shard::Placement::kHash};
  std::vector<std::unique_ptr<shard::TxnService>> txns_;
  std::vector<std::unique_ptr<LibFs>> clients_;
  struct Stashed {
    fslib::LogRange payload;
    uint64_t ticket = 0;
  };
  std::map<WireSlot, Stashed> wire_;
  uint64_t wire_tickets_ = 0;
  std::vector<bool> service_alive_;
  std::vector<rdma::EndpointId> service_eps_;
  bool started_ = false;
};

}  // namespace linefs::core

#endif  // SRC_CORE_CLUSTER_H_
