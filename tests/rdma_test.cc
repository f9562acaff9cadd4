// Unit tests for the RDMA model: one-sided verb timing across real topology
// paths, RPC dispatch on both channels, endpoint liveness, and CPU charging.

#include <gtest/gtest.h>

#include "tests/co_test_util.h"

#include <memory>
#include <vector>

#include "src/hw/fabric.h"
#include "src/hw/node.h"
#include "src/rdma/rdma.h"
#include "src/rdma/rpc.h"

namespace linefs::rdma {
namespace {

struct TestReq {
  uint64_t value = 0;
};
struct TestResp {
  uint64_t value = 0;
};

class RdmaTest : public ::testing::Test {
 public:
  RdmaTest() : fabric_(&engine_) {
    for (int i = 0; i < 3; ++i) {
      nodes_.push_back(std::make_unique<hw::Node>(&engine_, i, params_));
      fabric_.Attach(nodes_.back().get());
      raw_.push_back(nodes_.back().get());
    }
    net_ = std::make_unique<Network>(&engine_, &fabric_, raw_);
    rpc_ = std::make_unique<RpcSystem>(net_.get());
  }

  Initiator HostInit(int node) {
    Initiator init;
    init.cpu = &raw_[node]->host_cpu();
    init.account = raw_[node]->acct_fs();
    return init;
  }

  sim::Engine engine_;
  hw::NodeParams params_;
  hw::Fabric fabric_;
  std::vector<std::unique_ptr<hw::Node>> nodes_;
  std::vector<hw::Node*> raw_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<RpcSystem> rpc_;
};

TEST_F(RdmaTest, CrossNodeWriteIsBottleneckedByNetwork) {
  sim::Time done = 0;
  engine_.RunToCompletion([](RdmaTest* t, sim::Time* out) -> sim::Task<> {
    // 22MB at 2.2 GB/s network goodput => ~10ms of serialization.
    co_await t->net_->Write(t->HostInit(0), MemAddr{0, Space::kHostPm},
                            MemAddr{1, Space::kHostPm}, 22 << 20);
    *out = t->engine_.Now();
  }(this, &done));
  double seconds = sim::ToSeconds(done);
  EXPECT_GT(seconds, 0.0095);
  EXPECT_LT(seconds, 0.013);
}

TEST_F(RdmaTest, SameNodePcieReadIsFasterThanWire) {
  // NICFS fetch: host PM -> NIC memory crosses PCIe (8 GB/s), not the network.
  sim::Time pcie_done = 0;
  engine_.RunToCompletion([](RdmaTest* t, sim::Time* out) -> sim::Task<> {
    co_await t->net_->Read(Initiator{}, MemAddr{0, Space::kNicMem},
                           MemAddr{0, Space::kHostPm}, 16 << 20);
    *out = t->engine_.Now();
  }(this, &pcie_done));
  // 16MB @ 8GB/s = 2ms (plus small latencies), well under the 7.3ms wire time.
  EXPECT_LT(sim::ToSeconds(pcie_done), 0.004);
}

TEST_F(RdmaTest, VerbsChargeInitiatorCpu) {
  engine_.RunToCompletion([](RdmaTest* t) -> sim::Task<> {
    for (int i = 0; i < 100; ++i) {
      co_await t->net_->Write(t->HostInit(0), MemAddr{0, Space::kHostPm},
                              MemAddr{1, Space::kHostPm}, 64);
    }
  }(this));
  EXPECT_GT(raw_[0]->host_cpu().BusySeconds(raw_[0]->acct_fs()), 0.0);
  // A NULL-cpu initiator charges nothing (NIC-chained Hyperloop writes).
  double before = raw_[1]->host_cpu().TotalBusySeconds();
  engine_.RunToCompletion([](RdmaTest* t) -> sim::Task<> {
    co_await t->net_->Write(Initiator{}, MemAddr{1, Space::kHostPm},
                            MemAddr{2, Space::kHostPm}, 1 << 20);
  }(this));
  EXPECT_DOUBLE_EQ(raw_[1]->host_cpu().TotalBusySeconds(), before);
}

TEST_F(RdmaTest, ExtraLatencyIsApplied) {
  sim::Time without = 0;
  sim::Time with = 0;
  engine_.RunToCompletion([](RdmaTest* t, sim::Time* a, sim::Time* b) -> sim::Task<> {
    sim::Time t0 = t->engine_.Now();
    co_await t->net_->Write(Initiator{}, MemAddr{0, Space::kHostPm},
                            MemAddr{1, Space::kHostPm}, 64);
    *a = t->engine_.Now() - t0;
    Initiator soc;
    soc.extra_latency = 8 * sim::kMicrosecond;
    t0 = t->engine_.Now();
    co_await t->net_->Write(soc, MemAddr{0, Space::kHostPm}, MemAddr{1, Space::kHostPm}, 64);
    *b = t->engine_.Now() - t0;
  }(this, &without, &with));
  EXPECT_EQ(with - without, 8 * sim::kMicrosecond);
}

TEST_F(RdmaTest, RpcRoundTripDeliversTypedMessages) {
  RpcEndpoint* ep = rpc_->CreateEndpoint("svc/1", MemAddr{1, Space::kHostPm},
                                         &raw_[1]->host_cpu(), raw_[1]->acct_fs(), false);
  ep->Handle<TestReq, TestResp>(1, [](TestReq req) -> sim::Task<TestResp> {
    co_return TestResp{req.value * 2};
  });
  uint64_t got = 0;
  engine_.RunToCompletion([](RdmaTest* t, uint64_t* out) -> sim::Task<> {
    Result<TestResp> resp = co_await t->rpc_->Call<TestReq, TestResp>(
        t->HostInit(0), MemAddr{0, Space::kHostPm}, "svc/1", Channel::kHighTput, 1,
        TestReq{21});
    CO_ASSERT_OK(resp);
    *out = resp->value;
  }(this, &got));
  EXPECT_EQ(got, 42u);
}

TEST_F(RdmaTest, LowLatencyChannelBeatsEventDispatch) {
  RpcEndpoint* polled = rpc_->CreateEndpoint("fast/1", MemAddr{1, Space::kNicMem},
                                             &raw_[1]->nic().cpu(),
                                             raw_[1]->nic().nicfs_account(),
                                             /*has_low_lat_poller=*/true);
  polled->Handle<TestReq, TestResp>(1, [](TestReq req) -> sim::Task<TestResp> {
    co_return TestResp{req.value};
  });
  sim::Time fast = 0;
  sim::Time slow = 0;
  engine_.RunToCompletion([](RdmaTest* t, sim::Time* fast, sim::Time* slow) -> sim::Task<> {
    Initiator init = t->HostInit(0);
    init.polls = true;
    sim::Time t0 = t->engine_.Now();
    Result<TestResp> a = co_await t->rpc_->Call<TestReq, TestResp>(
        init, MemAddr{0, Space::kHostPm}, "fast/1", Channel::kLowLat, 1, TestReq{1});
    CO_ASSERT_OK(a);
    *fast = t->engine_.Now() - t0;
    t0 = t->engine_.Now();
    Result<TestResp> b = co_await t->rpc_->Call<TestReq, TestResp>(
        init, MemAddr{0, Space::kHostPm}, "fast/1", Channel::kHighTput, 1, TestReq{1});
    CO_ASSERT_OK(b);
    *slow = t->engine_.Now() - t0;
  }(this, &fast, &slow));
  EXPECT_LT(fast, slow);  // Event dispatch pays the wakeup latency.
}

TEST_F(RdmaTest, DeadEndpointTimesOutWithUnavailable) {
  RpcEndpoint* ep = rpc_->CreateEndpoint("dead/1", MemAddr{1, Space::kHostPm},
                                         &raw_[1]->host_cpu(), raw_[1]->acct_fs(), false);
  ep->Handle<TestReq, TestResp>(1, [](TestReq req) -> sim::Task<TestResp> {
    co_return TestResp{req.value};
  });
  raw_[1]->CrashHost();
  ep->SetAlivePredicate([this] { return raw_[1]->host_up(); });
  sim::Time elapsed = 0;
  ErrorCode code = ErrorCode::kOk;
  engine_.RunToCompletion([](RdmaTest* t, sim::Time* elapsed, ErrorCode* code) -> sim::Task<> {
    sim::Time t0 = t->engine_.Now();
    Result<TestResp> resp = co_await t->rpc_->Call<TestReq, TestResp>(
        t->HostInit(0), MemAddr{0, Space::kHostPm}, "dead/1", Channel::kHighTput, 1,
        TestReq{1}, /*timeout=*/5 * sim::kMillisecond);
    *elapsed = t->engine_.Now() - t0;
    *code = resp.code();
  }(this, &elapsed, &code));
  EXPECT_EQ(code, ErrorCode::kUnavailable);
  EXPECT_GE(elapsed, 5 * sim::kMillisecond);
}

TEST_F(RdmaTest, UnknownMethodRejected) {
  rpc_->CreateEndpoint("empty/2", MemAddr{2, Space::kHostPm}, &raw_[2]->host_cpu(),
                       raw_[2]->acct_fs(), false);
  ErrorCode code = ErrorCode::kOk;
  engine_.RunToCompletion([](RdmaTest* t, ErrorCode* code) -> sim::Task<> {
    Result<TestResp> resp = co_await t->rpc_->Call<TestReq, TestResp>(
        t->HostInit(0), MemAddr{0, Space::kHostPm}, "empty/2", Channel::kHighTput, 77,
        TestReq{1});
    *code = resp.code();
  }(this, &code));
  EXPECT_EQ(code, ErrorCode::kInvalid);
}

TEST_F(RdmaTest, BatchedWriteSkipsVerbCostsButMovesTheSameBytes) {
  // Doorbell/CQ batching: a batched write rides a doorbell an earlier post
  // rang and its completion is swept by that leader, so it pays no CPU, no
  // doorbell crossing and no event wakeup. The data path must not change.
  constexpr uint64_t kBytes = 1 << 20;
  const MemAddr src{0, Space::kHostPm};
  const MemAddr dst{1, Space::kHostPm};
  const std::vector<sim::Link*> path = {&raw_[0]->pm_read(),       &raw_[0]->nic().pcie_h2n(),
                                        &fabric_.tx(0),            &fabric_.rx(1),
                                        &raw_[1]->nic().pcie_n2h(), &raw_[1]->pm_write()};
  struct Cost {
    sim::Time duration = 0;
    double cpu_seconds = 0;
    std::vector<uint64_t> link_bytes;
  };
  // Runs one verb on an otherwise idle network and reports what it cost.
  auto measure = [&](auto verb) {
    Cost cost;
    double cpu_before = raw_[0]->host_cpu().BusySeconds(raw_[0]->acct_fs());
    std::vector<uint64_t> bytes_before;
    for (sim::Link* link : path) {
      bytes_before.push_back(link->total_bytes());
    }
    engine_.RunToCompletion([&]() -> sim::Task<> {
      sim::Time t0 = engine_.Now();
      co_await verb();
      cost.duration = engine_.Now() - t0;
    }());
    cost.cpu_seconds = raw_[0]->host_cpu().BusySeconds(raw_[0]->acct_fs()) - cpu_before;
    for (size_t i = 0; i < path.size(); ++i) {
      cost.link_bytes.push_back(path[i]->total_bytes() - bytes_before[i]);
    }
    return cost;
  };

  Initiator init = HostInit(0);  // Blocking (not polling): pays the wakeup.
  init.extra_latency = 8 * sim::kMicrosecond;
  Initiator batched_init = init;
  batched_init.batched = true;
  Cost full = measure([&] { return net_->Write(init, src, dst, kBytes); });
  Cost batched = measure([&] { return net_->Write(batched_init, src, dst, kBytes); });
  Cost raw = measure([&] { return net_->RawTransfer(src, dst, kBytes); });

  EXPECT_GT(full.cpu_seconds, 0.0);
  EXPECT_DOUBLE_EQ(batched.cpu_seconds, 0.0);
  // What the batched write skips is exactly post + doorbell crossing + wakeup
  // + completion; what is left is the bare data path.
  const hw::RdmaCosts& costs = net_->costs();
  sim::CpuPool& cpu = raw_[0]->host_cpu();
  EXPECT_EQ(full.duration - batched.duration,
            cpu.CyclesToTime(costs.post_cycles) + init.extra_latency + costs.event_wakeup +
                cpu.CyclesToTime(costs.completion_cycles));
  EXPECT_EQ(batched.duration, raw.duration);
  // Same bytes over the same links.
  EXPECT_EQ(batched.link_bytes, full.link_bytes);
  EXPECT_EQ(full.link_bytes, std::vector<uint64_t>(path.size(), kBytes));
}

TEST_F(RdmaTest, FabricEgressSerialisesConcurrentSenders) {
  std::vector<sim::Time> done;
  for (int i = 0; i < 2; ++i) {
    engine_.Spawn([](RdmaTest* t, std::vector<sim::Time>* done) -> sim::Task<> {
      co_await t->net_->Write(Initiator{}, MemAddr{0, Space::kHostPm},
                              MemAddr{1, Space::kHostPm}, 11 << 20);
      done->push_back(t->engine_.Now());
    }(this, &done));
  }
  engine_.Run();
  ASSERT_EQ(done.size(), 2u);
  // Two 11MB transfers share node 0's 2.2GB/s egress: the second finishes
  // ~5ms after the first.
  EXPECT_GT(done[1] - done[0], 4 * sim::kMillisecond);
}

}  // namespace
}  // namespace linefs::rdma
