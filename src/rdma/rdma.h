// RDMA network model.
//
// The BlueField is configured as an off-path SmartNIC whose RDMA switch can
// reach both SmartNIC memory and host memory (§2.2), so a memory address is a
// (node, space) pair. One-sided READ/WRITE moves data without any remote CPU
// involvement; the data path is composed from the links it actually crosses:
//
//   host PM <-(PCIe)-> SmartNIC <-(25GbE RoCE fabric)-> SmartNIC <-(PCIe)-> host PM
//
// Cut-through timing: serialization is charged on the path's bottleneck link;
// every other hop contributes its propagation latency and byte accounting.
// Verb posting and completion processing charge CPU cycles to the initiator's
// context (this is where Hyperloop-style designs pay their host tax).

#ifndef SRC_RDMA_RDMA_H_
#define SRC_RDMA_RDMA_H_

#include <cstdint>
#include <vector>

#include "src/hw/fabric.h"
#include "src/hw/node.h"
#include "src/hw/params.h"
#include "src/sim/cpu.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"

namespace linefs::rdma {

enum class Space {
  kHostPm,  // Host persistent memory (DDR-attached).
  kNicMem,  // SmartNIC DRAM.
};

struct MemAddr {
  int node = 0;
  Space space = Space::kHostPm;
};

// Who is executing the verb: which CPU pool pays posting/completion cycles.
struct Initiator {
  sim::CpuPool* cpu = nullptr;
  sim::Priority priority = sim::Priority::kNormal;
  int account = -1;
  // Polling initiators observe completions without a wakeup; blocking ones pay
  // the event wakeup latency.
  bool polls = false;
  // Fixed additional latency per verb. SmartNIC-initiated verbs pay the
  // SoC-internal PCIe crossing to the ConnectX transport (§5.2.5).
  sim::Time extra_latency = 0;
  // Doorbell/CQ batching (set by NicFs::BatchedPost; on a busy QP every 8th
  // post leads a batch): this verb rides a doorbell rung by an earlier post
  // on the same QP, so it skips the posting cycles and the doorbell crossing
  // (`extra_latency`), and its completion is consumed by the batch leader's CQ
  // sweep (no event wakeup, no per-verb completion cycles). Write and
  // RpcSystem::Post honour it; Read and Call round trips never batch.
  // Data-path timing (serialization, propagation) and the bytes each link
  // carries are unaffected.
  bool batched = false;
};

class Network {
 public:
  Network(sim::Engine* engine, hw::Fabric* fabric, std::vector<hw::Node*> nodes,
          const hw::RdmaCosts& costs = {});

  // One-sided write: local -> remote. Returns when remotely durable-visible.
  sim::Task<> Write(const Initiator& initiator, MemAddr local, MemAddr remote, uint64_t bytes);

  // One-sided read: remote -> local.
  sim::Task<> Read(const Initiator& initiator, MemAddr local, MemAddr remote, uint64_t bytes);

  // Pure data-path move without verb costs (used by internal DMA-like steps).
  sim::Task<> RawTransfer(MemAddr src, MemAddr dst, uint64_t bytes);

  sim::Engine* engine() { return engine_; }
  hw::Fabric* fabric() { return fabric_; }
  hw::Node* node(int id) { return nodes_[id]; }
  int node_count() const { return static_cast<int>(nodes_.size()); }
  const hw::RdmaCosts& costs() const { return costs_; }

 private:
  struct Hop {
    sim::Link* link;
    bool is_fabric_tx = false;
    int fabric_src = 0;
    int fabric_dst = 0;
  };

  std::vector<Hop> PathFor(MemAddr src, MemAddr dst);
  sim::Task<> MoveAlongPath(MemAddr src, MemAddr dst, uint64_t bytes);

  sim::Engine* engine_;
  hw::Fabric* fabric_;
  std::vector<hw::Node*> nodes_;
  hw::RdmaCosts costs_;
};

}  // namespace linefs::rdma

#endif  // SRC_RDMA_RDMA_H_
