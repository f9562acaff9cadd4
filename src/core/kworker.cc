#include "src/core/kworker.h"

#include <memory>

namespace linefs::core {

KernelWorker::KernelWorker(DfsNode* node, const DfsConfig* config, rdma::RpcSystem* rpc,
                           obs::MetricsRegistry* metrics, obs::TraceBuffer* trace)
    : node_(node), config_(config), rpc_(rpc), engine_(node->hw().engine()), trace_(trace),
      component_("kworker." + std::to_string(node->id())) {
  obs::MetricScope scope(metrics, "kworker." + std::to_string(node->id()));
  copies_executed_ = scope.CounterAt("copies_executed");
  bytes_copied_ = scope.CounterAt("bytes_copied");
}

void KernelWorker::Start() {
  hw::Node& hw = node_->hw();
  rdma::RpcEndpoint* endpoint = rpc_->CreateEndpoint(
      EndpointName(node_->id()), rdma::MemAddr{node_->id(), rdma::Space::kHostPm},
      &hw.host_cpu(), hw.acct_kworker(), /*has_low_lat_poller=*/false);
  endpoint->SetAlivePredicate([node = node_] { return node->hw().host_up(); });
  endpoint->SetDispatchPriority(config_->host_fs_priority);

  endpoint->Handle<PingReq, Ack>(
      kRpcKworkerPing, [](PingReq) -> sim::Task<Ack> { co_return Ack{}; });

  endpoint->Handle<KworkerCopyReq, Ack>(
      kRpcKworkerCopy, [this](KworkerCopyReq req) -> sim::Task<Ack> {
        std::shared_ptr<const fslib::PublishPlan> plan = node_->TakePlan(req.plan_id);
        if (plan == nullptr) {
          co_return Ack{static_cast<int32_t>(ErrorCode::kInvalid)};
        }
        // The host-side data movement, nested under NICFS's publish span.
        obs::Span span(trace_, component_, "copy", node_->id(),
                       static_cast<int>(req.client), req.plan_id, req.ctx);
        Status st = co_await ExecuteCopyList(*plan);
        co_return Ack{static_cast<int32_t>(st.code())};
      });

  endpoint->Handle<OpenReq, Ack>(
      kRpcKworkerMmap, [this](OpenReq req) -> sim::Task<Ack> {
        Status st = co_await MapForClient(req.client, req.inum);
        co_return Ack{static_cast<int32_t>(st.code())};
      });
}

sim::Task<Status> KernelWorker::ExecuteCopyList(const fslib::PublishPlan& plan) {
  if (!node_->hw().host_up()) {
    co_return Status::Error(ErrorCode::kUnavailable, "host down");
  }
  Status st;
  switch (config_->publish_method) {
    case PublishMethod::kNoCopy:
      st = Status::Ok();  // Ablation: metadata only, no data movement.
      break;
    case PublishMethod::kCpuMemcpy:
      st = co_await CopyWithCpu(plan);
      break;
    case PublishMethod::kDmaPolling:
      st = co_await CopyWithDma(plan, /*polling=*/true, /*batched=*/false);
      break;
    case PublishMethod::kDmaPollingBatch:
      st = co_await CopyWithDma(plan, /*polling=*/true, /*batched=*/true);
      break;
    case PublishMethod::kDmaInterruptBatch:
      st = co_await CopyWithDma(plan, /*polling=*/false, /*batched=*/true);
      break;
  }
  if (st.ok() && config_->publish_method != PublishMethod::kNoCopy) {
    node_->fs().ExecuteCopies(plan);
    copies_executed_->Increment();
    bytes_copied_->Add(plan.copy_bytes);
  }
  co_return st;
}

sim::Task<Status> KernelWorker::CopyWithCpu(const fslib::PublishPlan& plan) {
  // Host cores move every byte.
  co_await node_->HostMemcpy(plan.copy_bytes, node_->hw().acct_kworker());
  co_return Status::Ok();
}

sim::Task<> KernelWorker::PollDma(uint64_t bytes) {
  hw::Node& hw = node_->hw();
  bool done = false;
  engine_->Spawn([](hw::Node* hw, uint64_t len, bool* done) -> sim::Task<> {
    co_await hw->dma().Copy(len);
    *done = true;
  }(&hw, bytes, &done));
  while (!done) {
    co_await hw.host_cpu().Run(20 * sim::kMicrosecond, config_->host_fs_priority,
                               hw.acct_kworker());
  }
}

sim::Task<Status> KernelWorker::CopyWithDma(const fslib::PublishPlan& plan, bool polling,
                                            bool batched) {
  hw::Node& hw = node_->hw();
  const uint64_t submit_cycles = 400;  // Descriptor build per copy op.

  if (!batched) {
    // One request per copy op: a PCIe doorbell round-trip and a submission
    // for each, serialised — this is what makes unbatched DMA slow.
    for (const fslib::CopyOp& op : plan.copies) {
      co_await hw.nic().pcie_h2n().Ping();
      co_await hw.host_cpu().RunCycles(submit_cycles, config_->host_fs_priority,
                                       hw.acct_kworker());
      if (polling) {
        co_await PollDma(op.len);
      } else {
        co_await hw.dma().Copy(op.len);
        co_await engine_->SleepFor(hw::DmaEngine::kInterruptLatency);
      }
    }
    co_return Status::Ok();
  }

  // Batched: one submission pass for the whole ordered list.
  co_await hw.host_cpu().RunCycles(submit_cycles * plan.copies.size(),
                                   config_->host_fs_priority, hw.acct_kworker());
  if (polling) {
    // The host core is occupied for the entire copy (Fig. 7 "DMA polling").
    co_await PollDma(plan.copy_bytes);
  } else {
    // Interrupt mode: the worker sleeps; only the wakeup costs CPU. The DMA
    // engine still consumes iMC bandwidth.
    engine_->Spawn(hw.dram().Transfer(plan.copy_bytes));
    co_await hw.dma().Copy(plan.copy_bytes);
    co_await engine_->SleepFor(hw::DmaEngine::kInterruptLatency);
    co_await hw.host_cpu().RunCycles(1500, config_->host_fs_priority, hw.acct_kworker());
  }
  co_return Status::Ok();
}

sim::Task<Status> KernelWorker::MapForClient(uint32_t client, fslib::InodeNum inum) {
  if (!node_->hw().host_up()) {
    co_return Status::Error(ErrorCode::kUnavailable, "host down");
  }
  // Page-table setup for read-only mapping of file/index pages.
  co_await node_->hw().host_cpu().RunCycles(4000, config_->host_fs_priority,
                                            node_->hw().acct_kworker());
  co_return Status::Ok();
}

}  // namespace linefs::core
