// DFS configuration: system mode (LineFS + every baseline of §5.1), scaling
// knobs, and the cost model.

#ifndef SRC_CORE_CONFIG_H_
#define SRC_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "src/fslib/types.h"
#include "src/hw/params.h"
#include "src/sim/result.h"
#include "src/sim/time.h"

namespace linefs::core {

enum class DfsMode {
  kLineFS,             // Full system: NICFS offload + pipeline parallelism.
  kLineFSNotParallel,  // Ablation: NICFS offload, strictly sequential stages.
  kAssise,             // Baseline: host SharedFS, sync replication on fsync.
  kAssiseBgRepl,       // Assise + background replication (3 threads, 4MB chunks).
  kAssiseHyperloop,    // Assise + NIC-offloaded replication (Hyperloop [36]).
};

const char* DfsModeName(DfsMode mode);

// Fig. 7: how the host publishes (copies log data into public PM).
enum class PublishMethod {
  kCpuMemcpy,          // Host cores move the bytes.
  kDmaPolling,         // I/OAT DMA, host core busy-polls per copy op.
  kDmaPollingBatch,    // I/OAT DMA, host core busy-polls per batched list.
  kDmaInterruptBatch,  // I/OAT DMA, blocking wait for completion interrupt.
  kNoCopy,             // Ablation: skip publication data movement entirely.
};

const char* PublishMethodName(PublishMethod method);

// Replication-layer knobs, grouped and validated as a unit.
struct ReplConfig {
  // One of repl::kProtocolNames:
  //   chain  - successor-chain forwarding, one-way posts (default).
  //   quorum - primary fans out to every live replica in parallel; the
  //            client ack fires once a majority of num_nodes holds the
  //            chunk, the origin's own copy counting as one vote.
  std::string protocol = "chain";

  // Windowed asynchronous data path. `fetch_depth` bounds concurrently
  // outstanding PCIe log reads in the fetch stage; `transfer_window` bounds
  // replication chunks in flight past the transfer stage (submission stays in
  // client-log order; completion is decoupled — the per-replica ack tracking
  // tolerates out-of-order acks). 1 is the lock-step point of the same path.
  int fetch_depth = 4;
  int transfer_window = 4;
  // The retransmit sweeper's period and timeout, and the doorbell batch of
  // the send path, are constants in nicfs.cc.
};

struct DfsConfig {
  DfsMode mode = DfsMode::kLineFS;

  int num_nodes = 3;  // Primary + 2 replicas (§5.1).
  int max_clients = 8;

  // Scaled-down capacities (simulated time is unaffected by scaling; see
  // DESIGN.md "Data-plane elision").
  uint64_t pm_size = 2ULL << 30;
  uint64_t log_size = 64ULL << 20;
  uint64_t inode_count = 65536;
  uint64_t chunk_size = fslib::kDefaultChunkSize;  // 4 MB.

  // Benchmarks may elide payload byte movement; tests always materialize.
  bool materialize_data = true;

  // Per-pipe pipeline-stage chain (src/pipeline/stage.h), comma-separated:
  // "validate" followed by a subsequence of "compress,xor_encrypt,checksum".
  // That order keeps ciphertext out of LZW and makes the checksum seal the
  // bytes actually sent. A stage runs if and only if it is listed:
  // compression (§5.4) is on exactly when "compress" is in the chain.
  std::string pipeline_stages = "validate";

  // Host fallback for stage scaling (NicFs::ScaleStages): with
  // `placer_pooling` set, a grown stage worker runs on the home host's cores
  // once the home NIC's busy/cores ratio reaches `placer_nic_saturation`.
  // Off (default), every grown worker runs on the home NIC.
  bool placer_pooling = false;
  double placer_nic_saturation = 0.75;

  // Read-path policy (off-path SmartNIC characterization, PAPERS.md): which
  // route a LibFs read takes to the data.
  //   host     - host CPU walks the index and copies from local PM (the
  //              original behaviour, and the only route for non-LineFS modes).
  //   nic_rpc  - every read is forwarded to the local NICFS as an RPC; the NIC
  //              wimpy cores walk the index and DMA the bytes back, freeing
  //              host CPU at the price of two PCIe crossings and NIC cycles.
  //   adaptive - per-read choice: small transfers stay on the host (fixed RPC
  //              overhead dominates), large transfers go to the NIC unless its
  //              load EWMA (NicFs::nic_load(), computed from the data path's
  //              queues and windows when the read asks) is above
  //              `read_nic_load_max`.
  std::string read_path = "host";
  // Adaptive route: NIC-load EWMA at or above this keeps reads on the host.
  double read_nic_load_max = 0.75;

  // Publication coalescing stage (§3.3.1).
  bool coalescing = true;

  PublishMethod publish_method = PublishMethod::kDmaInterruptBatch;

  // NICFS dynamic stage scaling (§3.1, NicFs::ScaleStages): grow a stage when
  // its wait queue exceeds the threshold; retire an extra worker again once
  // the queue has stayed below the threshold for three consecutive scaling
  // checks (one every 2 ms).
  int stage_queue_threshold = 5;
  int max_stage_workers = 4;

  // Replication knobs live here; read them as `config.repl.*`.
  ReplConfig repl;

  // Failure detection. The §3.5 kernel-worker probe period and RPC timeout
  // are constants in nicfs.cc.
  sim::Time heartbeat_interval = sim::kSecond;  // Cluster manager (§3.6).
  sim::Time heartbeat_timeout = 2 * sim::kSecond;

  // Lease management.
  sim::Time lease_duration = sim::kSecond;

  // Virtual-time telemetry: window width for obs::TimeSeries (the `timeline`
  // section of BENCH_*.json). 0 disables telemetry — series become no-op and
  // reports omit the section. Simulated behaviour is identical either way;
  // only observation changes.
  sim::Time timeline_window = 50 * sim::kMillisecond;

  // Namespace sharding (src/shard/). With num_shards == 0 (default) the shard
  // plane is off: every client arbitrates at its own node, exactly the
  // pre-sharding behaviour. With num_shards >= 1 inode metadata is placed
  // onto shards by shard_placement ("hash": splitmix64(inum) % shards; "dir":
  // inum % shards with allocation biased so children co-locate with their
  // parent directory), shard s is arbitered by node s % num_nodes, and
  // cross-shard rename runs two-phase commit through shard::TxnService.
  // num_shards == 1 therefore means one node arbitrates the whole namespace
  // (the centralized baseline of bench_scaleout), not "off".
  int num_shards = 0;
  std::string shard_placement = "hash";
  // 2PC recovery knobs: how long a participant holds an undecided prepared
  // transaction before querying/presuming, and the sweep cadence.
  sim::Time txn_in_doubt_timeout = 500 * sim::kMillisecond;
  sim::Time txn_sweep_interval = 100 * sim::kMillisecond;

  // Scheduling priority of host-side DFS work (experiments vary this:
  // §5.2.1 busy runs DFS above streamcluster; §5.2.4 runs them equal).
  sim::Priority host_fs_priority = sim::Priority::kNormal;

  hw::NodeParams node_params;
  hw::FsCosts fs_costs;
  hw::RdmaCosts rdma_costs;

  bool IsLineFs() const {
    return mode == DfsMode::kLineFS || mode == DfsMode::kLineFSNotParallel;
  }
  bool pipeline_parallel() const { return mode == DfsMode::kLineFS; }

  // Range-checks every knob (watermarks ordered and in (0,1), num_nodes >= 1,
  // chunk_size > 0, positive timeouts, registered replication protocol, ...).
  // Cluster::Start() refuses to boot on a failing config instead of silently
  // misbehaving later.
  Status Validate() const;
};

}  // namespace linefs::core

#endif  // SRC_CORE_CONFIG_H_
