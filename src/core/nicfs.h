// NICFS: the SmartNIC-resident file-system service (§3).
//
// Runs the two parallel data-path execution pipelines per client:
//
//   publishing:  fetch -> validate(+coalesce) -> publish(kworker DMA) -> ack
//   replication: fetch -> validate -> [compress] -> transfer -> ack
//
// The first two stages are shared (chunks are fetched and validated once).
// Chunks are processed in parallel across stages and clients; publication and
// transfer apply strictly in client-log order via per-pipe tickets, which is
// what preserves linearizability and prefix crash consistency (§3.1).
//
// Stages are windowed, and the window is the only data path: fetch keeps up
// to ReplConfig::fetch_depth PCIe DMA reads outstanding and transfer keeps up
// to ReplConfig::transfer_window chunks in flight on the wire, each bounded by
// explicit per-pipe credits (a window of 1 is the lock-step point).
// Submission order never changes — only who waits. Replication control
// messages (kRpcReplChunk, chain forwards, kRpcReplAck) are one-way
// rdma::RpcSystem::Post sends; completion is signalled solely by the
// ReplAckMsg path, and a send-completion error kicks the retransmit sweeper
// immediately (see DESIGN.md §10).
//
// Also implements: lease arbitration (§3.4), replication flow control via NIC
// memory watermarks (§4), the kernel-worker failure detector and isolated
// operation (§3.5), and epoch-based recovery state (§3.6).

#ifndef SRC_CORE_NICFS_H_
#define SRC_CORE_NICFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/fs_service.h"
#include "src/core/kworker.h"
#include "src/obs/metrics.h"
#include "src/pipeline/placer.h"
#include "src/pipeline/stage.h"
#include "src/rdma/rpc.h"
#include "src/sim/queue.h"
#include "src/sim/stats.h"
#include "src/sim/sync.h"

namespace linefs::core {

class NicFs : public FsService {
 public:
  NicFs(Cluster* cluster, DfsNode* node, KernelWorker* kworker, const DfsConfig* config);

  // Registers RPC endpoints and starts monitor tasks.
  void Start() override;
  void Shutdown() override;
  // Primary-side: attach a client whose LibFS lives on this node.
  void RegisterClient(int client, ClientHooks hooks) override;

  // Forwards to the replication protocol's OnPeerFailure hook and kicks every
  // pipe's retry sweeper so pending acks re-evaluate against the new view.
  void OnPeerLiveness(int node, bool alive) override;

  // LibFS entry points: LibFS's host-side RPCs across PCIe to this NICFS
  // (kRpcStartPipeline, kRpcFsync, kRpcOpen), issued on the host cores.
  void NotifyChunkReady(int client) override;
  sim::Task<Status> Fsync(int client, uint64_t upto, obs::TraceContext ctx) override;
  sim::Task<Status> OpenCheck(int client, fslib::InodeNum inum, uint32_t flags) override;

  uint64_t replicated_upto(int client) const override;
  uint64_t published_upto(int client) const override;

  static std::string EndpointName(int node_id) { return "nicfs/" + std::to_string(node_id); }

  bool isolated() const { return isolated_; }
  uint64_t current_epoch() const { return epoch_; }
  void SetEpoch(uint64_t epoch);

  // Adaptive read-path input (DfsConfig::read_path = "adaptive"): how busy
  // this NIC's data path is as a 0..1 fraction of its windowed capacity.
  // Computed when a read asks: the current occupancy is folded into an EWMA
  // that keeps 0.75 per 500 us of virtual time since the previous query, so
  // route decisions don't flap and the value decays over idle time with no
  // periodic task.
  double nic_load();

  // Recovery protocol (§3.6): after a restart, read the persisted epoch,
  // fetch the history bitmap from `peer`, and resynchronise every inode
  // updated since. Returns the number of inodes synced.
  sim::Task<Result<uint64_t>> Recover(int peer);

  // --- Statistics ------------------------------------------------------------
  //
  // Live counters and stage histograms are owned by the cluster's
  // MetricsRegistry under the "nicfs.<node>" scope (see DESIGN.md,
  // "Observability"). stats() returns a point-in-time value snapshot — callers
  // can never mutate the live metrics through it.

  struct StatsSnapshot {
    uint64_t chunks_fetched = 0;
    uint64_t bytes_fetched = 0;
    uint64_t chunks_transferred = 0;
    uint64_t wire_bytes = 0;              // Post-compression network bytes.
    uint64_t raw_repl_bytes = 0;          // Pre-compression bytes.
    uint64_t coalesce_saved_bytes = 0;
    uint64_t validation_failures = 0;
    uint64_t checksum_verified = 0;       // Replica-side CRC32C seals that matched.
    uint64_t checksum_mismatches = 0;     // Seals that did not (corruption).
    uint64_t isolated_publishes = 0;
    uint64_t flow_ctrl_stall_ns = 0;      // Fetch time lost to §4 watermark stalls.
    uint64_t repl_retransmits = 0;        // Chunk re-sends by the retry sweeper.
    uint64_t repl_send_failures = 0;      // One-way sends that returned an error.
    uint64_t stage_workers_retired = 0;   // Extra workers scaled back down.
    uint64_t nic_reads = 0;               // Reads served on the NIC RPC route.
    uint64_t nic_read_bytes = 0;          // Bytes those reads moved over PCIe.
    // Per-arbiter lease-plane state (shard balance under a sharded namespace).
    uint64_t lease_active = 0;            // Leases currently in this arbiter's table.
    uint64_t lease_grants = 0;            // Grants issued since boot.
    uint64_t lease_revocations = 0;       // Revoke flows started since boot.
    struct StageStats {
      obs::HistogramSummary latency;
      uint64_t bypassed = 0;  // Chunks passed through under backpressure (§3.3.2).
      int workers = 0;        // Live workers across this node's pipes.
    };
    // Keyed per-stage view: the fixed pipeline phases (fetch, publish,
    // transfer, ack) plus every configured pipeline::Stage under its
    // registered name.
    std::map<std::string, StageStats> stages;
  };
  StatsSnapshot stats() const;

 private:
  // The pipeline unit of work now lives in src/pipeline so stage plugins can
  // transform it without depending on NICFS.
  using Chunk = pipeline::Chunk;
  using ChunkPtr = pipeline::ChunkPtr;

  struct ClientPipe;

  // One configured pipeline::Stage of one pipe: the stage instance, its wait
  // queue, and worker bookkeeping. Workers are generic (StageWorker) and may
  // execute at any placement the StagePlacer chooses; a nullptr queue item is
  // a retire pill.
  struct StageUnit {
    StageUnit(sim::Engine* engine, std::unique_ptr<pipeline::Stage> stage_in,
              size_t index_in)
        : stage(std::move(stage_in)), queue(engine), index(index_in) {}
    std::unique_ptr<pipeline::Stage> stage;
    sim::Queue<ChunkPtr> queue;
    size_t index = 0;   // Position in the pipe's chain.
    obs::Histogram* qdepth = nullptr;      // Depth metrics, recorded at
    obs::TimeSeries* tl_qdepth = nullptr;  // every push and pop.
    int workers = 0;
    int retire_pending = 0;  // Retire pills pushed but not yet consumed.
  };

  // State shared by the primary publish path and the replica publish path.
  // Publication consumes a reorder buffer: chunks may arrive out of order from
  // unordered upstream stages but are applied strictly in client-log order.
  struct PipeBase {
    explicit PipeBase(sim::Engine* engine) : publish_rb(engine) {}
    int client = 0;
    fslib::LogArea* log = nullptr;
    sim::ReorderBuffer<ChunkPtr> publish_rb;
    uint64_t published_upto = 0;
    std::function<void(uint64_t)> on_published;
    ClientPipe* as_client = nullptr;  // Non-null for primary-side pipes.
  };

  struct ClientPipe : PipeBase {
    ClientPipe(sim::Engine* engine, int fetch_depth, int transfer_window)
        : PipeBase(engine), transfer_rb(engine),
          fetch_cv(engine), progress(engine), retry_kick(engine),
          fetch_credits(engine, fetch_depth), transfer_credits(engine, transfer_window),
          wire_mutex(engine) {}
    ClientHooks hooks;
    uint64_t fetch_upto = 0;
    uint64_t next_chunk_no = 0;
    bool urgent = false;
    // Trace context newly fetched chunks parent under: the most recent
    // publish kick / fsync that woke this pipe.
    obs::TraceContext active_ctx;
    // The configured stage chain (BuildStages): fetch feeds stages[0], each
    // stage feeds the next, the last stage feeds transfer_rb. The shared
    // fan-out stage (validate) additionally feeds publish_rb.
    std::vector<std::unique_ptr<StageUnit>> stages;
    pipeline::StageEnv env;  // Shared by every Process() call on this pipe.
    sim::ReorderBuffer<ChunkPtr> transfer_rb;
    sim::Condition fetch_cv;
    struct AckState {
      uint64_t to = 0;
      uint64_t from = 0;
      std::set<int> acked;         // Replica nodes that confirmed this chunk.
      sim::Time transfer_done = 0;
      // Retransmit sweeper staleness clocks, one per outstanding peer: a
      // quorum fan-out that loses one send retries only the stale peer. A
      // live unacked peer with no entry (readmitted after dispatch) is
      // treated as immediately stale.
      std::map<int, sim::Time> last_send;
      bool committed = false;      // Protocol commit point reached.
      bool urgent = false;
      obs::TraceContext ctx;       // Transfer span; the ack event nests under it.
    };
    std::map<uint64_t, AckState> pending_acks;  // Keyed by chunk number.
    // Commit point: client-visible (fsync) progress. A quorum protocol can
    // advance this while laggard acks are still outstanding.
    uint64_t replicated_upto = 0;
    // Retire point: every live replica acked, so the range no longer backs
    // retransmits and its log space may be reclaimed.
    uint64_t retired_upto = 0;
    uint64_t reclaimed_upto = 0;
    sim::Condition progress;
    // Wakes ReplRetryMonitor out of turn: the periodic ticker notifies every
    // kReplRetryInterval, and a failed one-way send notifies immediately.
    sim::Condition retry_kick;
    // Windowed data path credits: outstanding PCIe fetch DMAs and in-flight
    // replication transfers, bounded by ReplConfig::{fetch_depth,
    // transfer_window}. Credits are held from admission to completion.
    sim::Semaphore fetch_credits;
    sim::Semaphore transfer_credits;
    // Single-QP wire ordering: a chunk's bulk write and its control send are
    // issued back-to-back under this mutex so a later chunk's megabyte write
    // can never book the link ahead of an earlier chunk's 64B control message
    // (the FIFO link model would otherwise delay the notify by a whole
    // window of bulk transfers). FIFO mutex wakeup preserves pop order.
    sim::Mutex wire_mutex;
    int fetch_inflight = 0;
    int transfer_inflight = 0;
    int urgent_waiters = 0;
    // Doorbell/CQ batching state, one per target QP (nicfs.cc kDoorbellBatch):
    // verb posts since the last doorbell ring, and the last post time — a gap
    // longer than the idle window means the QP drained and the next post must
    // ring again.
    struct Doorbell {
      uint64_t count = 0;
      sim::Time last_post = 0;
    };
    std::map<int, Doorbell> doorbells;
  };

  struct ReplicaPipe : PipeBase {
    using PipeBase::PipeBase;
  };

  // --- Pipeline stage bodies -------------------------------------------------

  // Fetch is split so the loop can keep several PCIe reads in flight: the
  // admission half (range selection, §4 watermark gate, NIC-memory reserve,
  // chunk numbering) always runs sequentially so chunks stay numbered in
  // order; the DMA half is spawned per chunk, bounded by fetch_credits.
  bool FetchReady(const ClientPipe* pipe) const;
  sim::Task<ChunkPtr> AdmitFetch(ClientPipe* pipe);
  sim::Task<> FetchDma(ClientPipe* pipe, ChunkPtr chunk);
  sim::Task<> FetchSlot(ClientPipe* pipe, ChunkPtr chunk, bool credited);
  // Admit + DMA inline, for SequentialLoop (the LineFS-NotParallel ablation).
  sim::Task<ChunkPtr> FetchOne(ClientPipe* pipe);
  sim::Task<> FetchLoop(ClientPipe* pipe);
  // Instantiates the pipe's stage chain from DfsConfig::pipeline_stages.
  void BuildStages(ClientPipe* pipe);
  // Generic queue-fed stage worker executing at `where`. Handles retire
  // pills, the generalized optional-stage bypass (§3.3.2), the relocated
  // worker's data-shipping cost, and downstream hand-off.
  sim::Task<> StageWorker(ClientPipe* pipe, StageUnit* unit, pipeline::Placement where);
  void PushDownstream(ClientPipe* pipe, StageUnit* unit, ChunkPtr chunk);
  // Placement descriptors: the home NIC, or a placer-chosen site (remote NIC
  // / host) with its data-shipping cost model.
  pipeline::Placement LocalPlacement() const;
  pipeline::Placement PlacementFor(const pipeline::StagePlacer::Site& site) const;
  // Registers each scalable stage of this pipe as a placement group with the
  // cluster's StagePlacer (which replaces the old per-node ScalingMonitor).
  void RegisterStageGroups(ClientPipe* pipe);
  // Doorbell/CQ batching decision for the next verb post on `pipe`'s QP to
  // `target`: true when the post may ride an already-rung doorbell (skip verb
  // costs); the batch leader (every kDoorbellBatch-th post, or the first after
  // an idle gap) returns false and pays full cost.
  bool BatchedPost(ClientPipe* pipe, int target);
  // Adaptive chunk sizing on top of the transfer window: full chunk_size when
  // the window has slack, smaller admissions when it is saturated and an
  // urgent fsync is waiting.
  uint64_t AdmitChunkBytes(const ClientPipe* pipe) const;
  sim::Task<> DoTransfer(ClientPipe* pipe, ChunkPtr chunk);
  sim::Task<> TransferSlot(ClientPipe* pipe, ChunkPtr chunk);
  sim::Task<> TransferWorker(ClientPipe* pipe);
  sim::Task<> PublishWorker(PipeBase* pipe);
  sim::Task<> SequentialLoop(ClientPipe* pipe);
  sim::Task<> KworkerMonitor();
  // Replication robustness under faults: acks are tracked per replica node,
  // commit/retire points are re-evaluated against *current* liveness through
  // the protocol's hooks (a declared-dead replica stops gating the head of
  // line), and stale head-of-line chunks are retransmitted point-to-point to
  // exactly the live peers whose staleness clock expired.
  bool CommitComplete(const ClientPipe::AckState& state) const;
  bool RetireComplete(const ClientPipe::AckState& state) const;
  void AdvanceReplicated(ClientPipe* pipe);
  // A failed send to `peer` (send-completion error from Post) marks the
  // affected staleness clocks expired and kicks the sweeper immediately
  // instead of waiting out the tick. Forwarding protocols lose the whole
  // downstream chain with the first hop, so they expire every clock; fan-out
  // protocols expire only `peer`'s.
  void OnReplSendFailure(ClientPipe* pipe, uint64_t chunk_no, int peer);
  sim::Task<> ReplRetryTicker(ClientPipe* pipe);
  sim::Task<> ReplRetryMonitor(ClientPipe* pipe);
  sim::Task<> RetransmitChunk(ClientPipe* pipe, uint64_t chunk_no, uint64_t from, uint64_t to,
                              std::vector<int> peers, bool urgent,
                              obs::TraceContext ctx);
  // The one send path of a replicated chunk (transfer, retransmit, chain
  // forward): stashes `payload` under a ticket `msg` carries, writes
  // `bulk_bytes` into `dst`, then posts `msg` one-way. A failed post reached
  // no handler, so it withdraws its ticket. With `doorbell` set, both posts
  // ride that pipe's doorbell batch; `on_wire` fires once the control message
  // is on the wire.
  sim::Task<Status> SendChunk(ReplChunkMsg msg, rdma::MemAddr dst, uint64_t bulk_bytes,
                              fslib::LogRange payload, ClientPipe* doorbell = nullptr,
                              std::function<void()> on_wire = {});

  // Registry-backed metric handles (hot-path increments stay pointer-cheap).
  struct Metrics {
    explicit Metrics(const obs::MetricScope& scope_in);
    // Handle bundle for one pipeline::Stage, created on demand per configured
    // stage name: stage.<name> latency, bypassed.<name> (§3.3.2 generalized),
    // qdepth.<name>.
    struct StageSet {
      obs::Histogram* latency = nullptr;
      obs::Counter* bypassed = nullptr;
      obs::Histogram* qdepth = nullptr;
      obs::TimeSeries* tl_qdepth = nullptr;  // Depth over virtual time.
    };
    StageSet& ForStage(const std::string& name);
    obs::MetricScope scope;
    std::map<std::string, StageSet> stage_sets;
    obs::Counter* chunks_fetched;
    obs::Counter* bytes_fetched;
    obs::Counter* chunks_transferred;
    obs::Counter* wire_bytes;
    obs::Counter* raw_repl_bytes;
    obs::Counter* coalesce_saved_bytes;
    obs::Counter* validation_failures;
    obs::Counter* checksum_verified;
    obs::Counter* checksum_mismatches;
    obs::Counter* isolated_publishes;
    obs::Counter* flow_ctrl_stall_ns;
    obs::Counter* repl_retransmits;
    obs::Counter* repl_send_failures;
    obs::Counter* stage_workers_retired;
    obs::Counter* nic_reads;        // kRpcRead requests served (adaptive path).
    obs::Counter* nic_read_bytes;
    // Fixed pipeline phases (not pluggable stages).
    obs::Histogram* stage_fetch;
    obs::Histogram* stage_publish;
    obs::Histogram* stage_transfer;
    obs::Histogram* stage_ack;
    // Per-pipe depths, recorded where they change (see RecordDepth).
    obs::Histogram* qdepth_transfer_rb;
    obs::Histogram* qdepth_publish_rb;
    obs::Histogram* inflight_fetch;
    obs::Histogram* inflight_transfer;
    obs::Gauge* nic_mem_utilization;  // Set where NICFS reserves/releases.
    // Timeline series ("when", not just "how much"): replication window
    // occupancy and the lease grant rate.
    obs::TimeSeries* tl_transfer_inflight;
    obs::TimeSeries* tl_lease_grants;
  };

  // Records one pipe's queue or in-flight depth where it changes (queue
  // push/pop, in-flight ++/--) into its histogram and, when given, its
  // timeline series.
  void RecordDepth(obs::Histogram* hist, size_t depth, obs::TimeSeries* tl = nullptr);

  sim::Task<Status> PublishChunk(PipeBase* pipe, ChunkPtr chunk);
  sim::Task<> HandleReplChunk(ReplChunkMsg msg);
  // `payload` is the range in wire form, as this hop received it; `range` is
  // the same range with the wire transforms undone.
  sim::Task<> ForwardChunk(ReplChunkMsg msg, fslib::LogRange payload, std::vector<int> chain);
  // `range` lives in the caller's frame, which awaits this task.
  sim::Task<> LocalCopyAndAck(ReplChunkMsg msg, const fslib::LogRange& range,
                              fslib::LogArea& log);
  void HandleReplAck(const ReplAckMsg& msg);
  // Per-client wire-submission mutex for chain forwards (same single-QP
  // ordering as ClientPipe::wire_mutex, but on the replica's outbound link).
  sim::Mutex* ForwardMutex(int client);
  sim::Task<Ack> HandleFsync(FsyncReq req);
  void TryReclaim(ClientPipe* pipe);
  void ReleaseChunk(Chunk* chunk);
  ReplicaPipe* GetReplicaPipe(int client);

  rdma::Initiator NicInitiator(bool urgent) const;
  // LibFS's side of its RPCs to this NICFS: host cores, normal priority.
  rdma::Initiator LibFsInitiator() const;

  KernelWorker* kworker_;
  rdma::EndpointId kworker_ep_;              // This host's kernel worker.
  // The window/retry machinery around FsService::protocol_ is
  // protocol-agnostic.
  std::unordered_map<int, std::unique_ptr<ClientPipe>> pipes_;
  std::unordered_map<int, std::unique_ptr<ReplicaPipe>> replica_pipes_;
  std::unordered_map<int, std::unique_ptr<sim::Mutex>> forward_mutexes_;
  bool isolated_ = false;
  uint64_t epoch_ = 0;
  double nic_load_ = 0.0;     // EWMA data-path occupancy as of nic_load_at_.
  sim::Time nic_load_at_ = 0;  // Virtual time of the last nic_load() query.
  Metrics metrics_;
};

}  // namespace linefs::core

#endif  // SRC_CORE_NICFS_H_
