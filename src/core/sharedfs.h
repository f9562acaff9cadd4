// SharedFS: the host-resident per-node DFS service of the Assise baselines.
//
// Implements the three comparison systems of §5.1 on the same substrate as
// LineFS:
//   - Assise:            digestion on host cores; chain replication performed
//                        synchronously, per chunk, in the (single) service
//                        context — throughput scales with client contexts.
//   - Assise-BgRepl:     + background replication (3 host threads, 4MB chunks,
//                        no pipeline parallelism).
//   - Assise+Hyperloop:  replication offloaded to the RDMA NIC (no remote host
//                        CPU on the data path), but the host must periodically
//                        re-post verb batches, and publication stays on host
//                        cores.
//
// All host-side work is charged to the host CPU pool at the configured DFS
// priority — this is precisely what makes these baselines degrade when
// co-running applications contend for cores (§5.2).

#ifndef SRC_CORE_SHAREDFS_H_
#define SRC_CORE_SHAREDFS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/fs_service.h"
#include "src/obs/metrics.h"
#include "src/rdma/rpc.h"
#include "src/sim/queue.h"
#include "src/sim/sync.h"

namespace linefs::core {

class SharedFs : public FsService {
 public:
  SharedFs(Cluster* cluster, DfsNode* node, const DfsConfig* config);

  void Start() override;
  void Shutdown() override;
  void RegisterClient(int client, ClientHooks hooks) override;

  // LibFS entry points: host-local shared-memory calls.
  void NotifyChunkReady(int client) override;
  sim::Task<Status> Fsync(int client, uint64_t upto, obs::TraceContext ctx) override;
  sim::Task<Status> OpenCheck(int client, fslib::InodeNum inum, uint32_t flags) override;

  uint64_t published_upto(int client) const override;
  uint64_t replicated_upto(int client) const override;

  static std::string EndpointName(int node_id) { return "sharedfs/" + std::to_string(node_id); }

  // Counters live in the cluster's MetricsRegistry under "sharedfs.<node>";
  // stats() returns a value snapshot of them.
  struct Stats {
    uint64_t chunks_digested = 0;
    uint64_t bytes_digested = 0;
    uint64_t chunks_replicated = 0;
    uint64_t bytes_replicated = 0;
    uint64_t preposts = 0;  // Hyperloop verb-batch postings.
  };
  Stats stats() const;

 private:
  struct ClientState {
    explicit ClientState(sim::Engine* engine)
        : progress(engine), repl_mu(engine), digest_q(engine) {}
    int client = 0;
    fslib::LogArea* log = nullptr;
    ClientHooks hooks;
    uint64_t queued_upto = 0;  // Log position covered by enqueued work.
    uint64_t replicated_upto = 0;
    uint64_t published_upto = 0;
    uint64_t reclaimed_upto = 0;
    sim::Condition progress;
    // Serialises replication contexts (digest worker, BgRepl workers, fsync)
    // so the client log replicates strictly in order.
    sim::Mutex repl_mu;
    sim::Queue<std::pair<uint64_t, uint64_t>> digest_q;  // Publication ranges.
  };

  // Replica-side digestion of a mirrored client log. Ranges can arrive out of
  // order (Hyperloop notifications are fire-and-forget), so digestion holds
  // back non-contiguous ranges until the gap fills.
  struct ReplicaState {
    explicit ReplicaState(sim::Engine* engine) : digest_q(engine) {}
    fslib::LogArea* log = nullptr;
    uint64_t published_upto = 0;
    sim::Queue<std::pair<uint64_t, uint64_t>> digest_q;
    std::map<uint64_t, uint64_t> pending;  // from -> to, waiting for the gap.
  };

  sim::Task<> DigestWorker(ClientState* state);
  sim::Task<> BgReplWorker(int worker_id);
  sim::Task<> ReplicaDigestWorker(ReplicaState* state);

  // Chain-replicates log range [from, to) of `client` (mode-dependent path).
  sim::Task<Status> ReplicateRange(ClientState* state, uint64_t from, uint64_t to, bool urgent,
                                   obs::TraceContext ctx = {});
  sim::Task<Status> ReplicateHyperloop(ClientState* state, uint64_t from, uint64_t to,
                                       bool urgent, obs::TraceContext ctx = {});

  // Digests (publishes) log range [from, to) on this node with host memcpy.
  sim::Task<Status> DigestRange(fslib::LogArea* log, uint64_t from, uint64_t to,
                                uint64_t* published_upto, bool replica_side = false,
                                obs::TraceContext ctx = {});

  // The one send path of a replicated range (replication, chain forward):
  // stashes `payload` under a ticket `msg` carries, writes the range into
  // `target`'s PM, then calls its handler. A failed call withdraws the ticket.
  sim::Task<Result<Ack>> SendRange(ReplChunkMsg msg, int target, fslib::LogRange payload);
  // Replica receive handler; the status says whether the delivery vouches
  // for its range (FsService::TakeDelivery).
  sim::Task<Ack> HandleReplRange(ReplChunkMsg msg);
  void TryReclaim(ClientState* state);
  ReplicaState* GetReplicaState(int client);
  rdma::Initiator HostInitiator(bool urgent) const;

  // The protocol (FsService::protocol_) decides dispatch targets and the
  // range's commit point. The host baseline always sends blocking Calls, so
  // only topology and commit differ from the NIC path here.
  std::unordered_map<int, std::unique_ptr<ClientState>> clients_;
  std::unordered_map<int, std::unique_ptr<ReplicaState>> replicas_;
  // BgRepl: fixed worker pool; clients map to workers round-robin so each
  // client's chunks replicate in order.
  std::vector<std::unique_ptr<sim::Queue<std::pair<int, std::pair<uint64_t, uint64_t>>>>>
      bg_queues_;
  uint64_t hyperloop_ops_since_prepost_ = 0;

  // Registry-backed counters ("sharedfs.<node>" scope); minted in the ctor.
  struct Metrics {
    obs::Counter* chunks_digested = nullptr;
    obs::Counter* bytes_digested = nullptr;
    obs::Counter* chunks_replicated = nullptr;
    obs::Counter* bytes_replicated = nullptr;
    obs::Counter* preposts = nullptr;
    obs::Counter* replica_digest_failures = nullptr;  // Ranges skipped to stay live.
  };
  Metrics metrics_;
};

}  // namespace linefs::core

#endif  // SRC_CORE_SHAREDFS_H_
