// Host kernel worker (§3.3.1, §4 "Asynchronous DMA", Fig. 7).
//
// A Linux-kernel-module stand-in that executes publication copy lists on
// behalf of NICFS using the host's I/OAT DMA engine (or plain memcpy). It is
// stateless: after a host crash it restarts and simply resumes accepting copy
// requests (§3.5). Its RPC endpoint's liveness is tied to the host OS, which
// is exactly what NICFS's failure detector probes.

#ifndef SRC_CORE_KWORKER_H_
#define SRC_CORE_KWORKER_H_

#include "src/core/config.h"
#include "src/core/dfs_node.h"
#include "src/core/messages.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/rdma/rpc.h"
#include "src/sim/task.h"

namespace linefs::core {

class KernelWorker {
 public:
  KernelWorker(DfsNode* node, const DfsConfig* config, rdma::RpcSystem* rpc,
               obs::MetricsRegistry* metrics, obs::TraceBuffer* trace = nullptr);

  // Registers the RPC endpoint ("kworker/<id>").
  void Start();

  // Executes a publication copy list with the configured PublishMethod,
  // charging host CPU, DMA-channel, and PM-bandwidth costs. Returns
  // kUnavailable if the host is down.
  sim::Task<Status> ExecuteCopyList(const fslib::PublishPlan& plan);

  // Small host-side work for open(): mapping public pages read-only (§3.6).
  sim::Task<Status> MapForClient(uint32_t client, fslib::InodeNum inum);

  static std::string EndpointName(int node_id) {
    return "kworker/" + std::to_string(node_id);
  }

  // Value snapshots of the "kworker.<node>" registry counters.
  uint64_t copies_executed() const { return copies_executed_->value(); }
  uint64_t bytes_copied() const { return bytes_copied_->value(); }

 private:
  sim::Task<Status> CopyWithCpu(const fslib::PublishPlan& plan);
  sim::Task<Status> CopyWithDma(const fslib::PublishPlan& plan, bool polling, bool batched);
  // Starts a DMA copy of `bytes`, then busy-polls a host core in 20 us slices
  // until it completes.
  sim::Task<> PollDma(uint64_t bytes);

  DfsNode* node_;
  const DfsConfig* config_;
  rdma::RpcSystem* rpc_;
  sim::Engine* engine_;
  obs::Counter* copies_executed_;
  obs::Counter* bytes_copied_;
  obs::TraceBuffer* trace_;
  std::string component_;  // "kworker.<node>": trace category.
};

}  // namespace linefs::core

#endif  // SRC_CORE_KWORKER_H_
