// FsService: the per-node DFS service behind LibFS (§3). LineFS runs it on
// the SmartNIC (NicFs); the Assise baselines run it on host cores (SharedFs).
// Either way it is the same service under the same LibFS contract, so LibFS
// and Cluster hold an FsService and never ask which one runs.
//
// The base owns what does not depend on placement: the lease arbiter, the
// replication protocol, the primary and replica validators, the cluster view
// they replicate over, and the rule that decides whether one delivery of a
// replicated range may be acknowledged. Each subclass keeps its own replica
// receive handler: placement (host PM vs NIC memory plus a PCIe copy),
// ordering (parallel forward and ack post vs a synchronous chain call) and
// ack transport differ at every step (DESIGN.md "One FsService").

#ifndef SRC_CORE_FS_SERVICE_H_
#define SRC_CORE_FS_SERVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/core/dfs_node.h"
#include "src/core/lease.h"
#include "src/core/messages.h"
#include "src/fslib/validate.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/rdma/rdma.h"
#include "src/repl/protocol.h"
#include "src/sim/task.h"

namespace linefs::core {

class Cluster;

class FsService {
 public:
  // Progress callbacks into the local LibFS instance (in the real system,
  // RPC-free shared-memory notifications).
  struct ClientHooks {
    std::function<void(uint64_t)> on_published;  // Publication advanced to pos.
    std::function<void(uint64_t)> on_reclaim;    // Log reclaimed up to pos.
  };

  FsService(const FsService&) = delete;
  FsService& operator=(const FsService&) = delete;
  virtual ~FsService() = default;

  // Registers RPC endpoints and starts service loops.
  virtual void Start() = 0;
  // Stops all service loops so the engine can drain.
  virtual void Shutdown() = 0;
  // Attaches a client whose LibFS lives on this node.
  virtual void RegisterClient(int client, ClientHooks hooks) = 0;
  // Cluster membership transition for `node` (declared dead or readmitted).
  virtual void OnPeerLiveness(int node, bool alive) {}

  // --- LibFS entry points -----------------------------------------------------

  // A chunk's worth of log accumulated: start background processing.
  virtual void NotifyChunkReady(int client) = 0;
  // Synchronous durability: replicate and persist everything up to `upto`.
  // `ctx` is LibFS's trace root; every span of the fsync parents under it.
  virtual sim::Task<Status> Fsync(int client, uint64_t upto, obs::TraceContext ctx) = 0;
  // Permission check for open() (§3.6).
  virtual sim::Task<Status> OpenCheck(int client, fslib::InodeNum inum, uint32_t flags) = 0;

  virtual uint64_t published_upto(int client) const = 0;
  // Commit point: how far `client`'s log is durable on enough replicas.
  virtual uint64_t replicated_upto(int client) const = 0;

  LeaseManager& leases() { return *leases_; }

 protected:
  // `kind` names the service in trace categories and metric scopes ("nicfs",
  // "sharedfs"). `home` is the memory domain it runs in, where lease grants
  // persist from and are mirrored to on every peer; `lease_initiator` is who
  // arbitrates them.
  FsService(Cluster* cluster, DfsNode* node, const DfsConfig* config, const char* kind,
            rdma::Space home, rdma::Initiator lease_initiator);

  // The replication protocol's view of the cluster, rooted at this node.
  repl::PeerView View() const;
  // Chain replication order for data originating at `origin`, skipping nodes
  // the cluster manager has declared dead (the chain heals around them).
  std::vector<int> ChainFor(int origin) const;

  // Arbitrates one kRpcLease request (§3.4), charging `cycles` on `cores`.
  // Sharded, this node is the shard's arbiter root: a single logical thread
  // that serializes grants and persists each record before replying
  // (DESIGN.md §13). Unsharded, the grant is immediate and its record is
  // persisted and mirrored asynchronously under `persist_label`. Each grant
  // is counted in `grants` when given.
  sim::Task<LeaseResp> GrantLease(LeaseReq req, rdma::Initiator cores, uint64_t cycles,
                                  const char* persist_label, obs::TimeSeries* grants = nullptr);

  // Takes one delivery of a replicated range, and returns its payload only if
  // the delivery may be acknowledged. A carried delivery takes exactly the
  // payload its sender stashed under msg.ticket; if that is gone it imports,
  // forwards, acks and publishes nothing. A direct delivery (the sender
  // already wrote the range into `log`) vouches only for a range `log`
  // holds. Call it before the handler's first await.
  std::optional<fslib::LogRange> TakeDelivery(const ReplChunkMsg& msg,
                                              const fslib::LogArea& log);

  Cluster* cluster_;
  DfsNode* node_;
  const DfsConfig* config_;
  sim::Engine* engine_;
  std::string component_;  // "<kind>.<node>": trace category and metric scope.
  obs::TraceBuffer* trace_;
  std::unique_ptr<LeaseManager> leases_;
  // Replication protocol deciding dispatch topology and commit/retire points
  // (DfsConfig::repl.protocol).
  std::unique_ptr<repl::Protocol> protocol_;
  std::unique_ptr<fslib::Validator> validator_;
  // Replicas apply logs whose leases the primary checked; their own lease
  // table only mirrors grants asynchronously, so it is not consulted.
  std::unique_ptr<fslib::Validator> replica_validator_;
  bool shutdown_ = false;
};

}  // namespace linefs::core

#endif  // SRC_CORE_FS_SERVICE_H_
