// Cluster: top-level wiring of a LineFS deployment — hardware nodes, fabric,
// RDMA network, RPC system, per-node DFS services (NICFS + kernel worker, or
// SharedFS for the Assise baselines), the cluster manager, and LibFS clients.

#ifndef SRC_CORE_CLUSTER_H_
#define SRC_CORE_CLUSTER_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/config.h"
#include "src/core/dfs_node.h"
#include "src/hw/fabric.h"
#include "src/hw/node.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/rdma/rdma.h"
#include "src/rdma/rpc.h"
#include "src/shard/shard_map.h"
#include "src/shard/txn.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"

namespace linefs::core {

class FsService;
class NicFs;
class SharedFs;
class KernelWorker;
class ClusterManager;
class LeaseManager;
class LibFs;

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

  // The DFS service on node `id` (NICFS under LineFS, SharedFS under the
  // host-based baselines); nullptr for an out-of-range id. A negative id would
  // wrap around the size_t comparison; guard it explicitly.
  FsService* service(int id) {
    return id >= 0 && static_cast<size_t>(id) < services_.size() ? services_[id].get()
                                                                 : nullptr;
  }
  // The same service, typed for its statistics: nullptr when the other kind runs.
  NicFs* nicfs(int id);
  SharedFs* sharedfs(int id);
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

  // The lease arbiter rooted at `node`'s service; nullptr for an out-of-range
  // node.
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
  // Flips membership and, on a transition, notifies every service so
  // replication protocols observe the failure/readmission and pending acks
  // re-evaluate immediately (not at the next sweeper tick).
  void SetServiceAlive(int node, bool alive);

  // --- Wire payload stash -----------------------------------------------------
  //
  // Side-band for bulk replication data: the simulated RDMA layer charges the
  // wire costs while the range itself (bytes, or headers when payloads are
  // elided) travels through this stash, sharing the sender's image rather
  // than copying it. Every send stashes its own payload
  // under a fresh ticket, which its ReplChunkMsg carries, and the receiving
  // handler takes exactly that payload: a duplicate delivery of the same
  // range never takes another send's. A send that fails reached no handler,
  // so the sender withdraws its ticket.
  uint64_t StashWire(fslib::LogRange payload) {
    wire_.emplace(++wire_tickets_, std::move(payload));
    return wire_tickets_;
  }
  // The payload stashed under `ticket`, removed; nullopt if none is.
  std::optional<fslib::LogRange> TakeWire(uint64_t ticket) {
    auto node = wire_.extract(ticket);
    if (node.empty()) {
      return std::nullopt;
    }
    return std::move(node.mapped());
  }
  void WithdrawWire(uint64_t ticket) { wire_.erase(ticket); }
  // Payloads stashed and not yet taken: 0 once every send has drained.
  size_t pending_wire() const { return wire_.size(); }

 private:
  // Drives NICFS stage scaling: every 2 ms, NicFs::ScaleStages for each client
  // in creation order.
  sim::Task<> ScaleStagesLoop();

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
  std::vector<std::unique_ptr<FsService>> services_;
  std::vector<std::unique_ptr<KernelWorker>> kworkers_;
  std::unique_ptr<ClusterManager> manager_;
  shard::ShardMap shards_{0, 1, shard::Placement::kHash};
  std::vector<std::unique_ptr<shard::TxnService>> txns_;
  std::vector<std::unique_ptr<LibFs>> clients_;
  std::unordered_map<uint64_t, fslib::LogRange> wire_;  // Keyed by ticket.
  uint64_t wire_tickets_ = 0;
  std::vector<bool> service_alive_;
  std::vector<rdma::EndpointId> service_eps_;
  bool started_ = false;
  bool shut_down_ = false;
};

}  // namespace linefs::core

#endif  // SRC_CORE_CLUSTER_H_
