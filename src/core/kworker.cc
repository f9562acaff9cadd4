#include "src/core/kworker.h"

#include <memory>
#include <vector>

#include "src/sim/sync.h"

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
    node_->fs().ExecuteCopies(plan, config_->materialize_data);
    copies_executed_->Increment();
    bytes_copied_->Add(plan.copy_bytes);
  }
  co_return st;
}

sim::Task<Status> KernelWorker::CopyWithCpu(const fslib::PublishPlan& plan) {
  hw::Node& hw = node_->hw();
  // Host cores move every byte; CPU time and PM write bandwidth are consumed
  // concurrently (the store stream is what the core is busy doing).
  uint64_t bytes = plan.copy_bytes;
  sim::Time cpu_time =
      hw.host_cpu().CyclesToTime(static_cast<uint64_t>(
          static_cast<double>(bytes) * config_->fs_costs.pm_memcpy_cycles_per_byte));
  constexpr int kCopyThreads = 4;
  std::vector<sim::Task<>> work;
  for (int t = 0; t < kCopyThreads; ++t) {
    work.push_back(
        hw.host_cpu().Run(cpu_time / kCopyThreads, config_->host_fs_priority,
                          hw.acct_kworker()));
  }
  work.push_back(hw.pm_write().Transfer(bytes));
  work.push_back(hw.dram().Transfer(bytes));  // PM and DRAM share the iMC.
  co_await sim::AwaitAll(engine_, std::move(work));
  co_return Status::Ok();
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
        bool done = false;
        engine_->Spawn([](hw::Node* hw, uint64_t len, bool* done) -> sim::Task<> {
          co_await hw->dma().Copy(len);
          *done = true;
        }(&hw, op.len, &done));
        while (!done) {
          co_await hw.host_cpu().Run(20 * sim::kMicrosecond, config_->host_fs_priority,
                                     hw.acct_kworker());
        }
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
    bool done = false;
    engine_->Spawn([](hw::Node* hw, uint64_t bytes, bool* done) -> sim::Task<> {
      co_await hw->dma().Copy(bytes);
      *done = true;
    }(&hw, plan.copy_bytes, &done));
    // Busy-poll in slices until the engine signals completion: the host core
    // is occupied for the entire copy duration (Fig. 7 "DMA polling").
    while (!done) {
      co_await hw.host_cpu().Run(20 * sim::kMicrosecond, config_->host_fs_priority,
                                 hw.acct_kworker());
    }
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
