#include "src/baseline/cephlike.h"

#include <vector>

#include "src/core/messages.h"
#include "src/rdma/rdma.h"

namespace linefs::baseline {

namespace {

struct WriteReq {
  uint64_t offset = 0;
  uint32_t len = 0;
  uint32_t client = 0;
};

}  // namespace

CephLike::RunResult CephLike::Run(const Options& options) {
  sim::Engine engine;
  hw::NodeParams params;
  params.nic.net_goodput = options.net_goodput;
  hw::Fabric fabric(&engine);
  std::vector<std::unique_ptr<hw::Node>> nodes;
  std::vector<hw::Node*> raw;
  for (int i = 0; i < 3; ++i) {
    nodes.push_back(std::make_unique<hw::Node>(&engine, i, params));
    fabric.Attach(nodes.back().get());
    raw.push_back(nodes.back().get());
  }
  rdma::Network net(&engine, &fabric, raw);
  rdma::RpcSystem rpc(&net);
  sim::Link journal(&engine, "osd-journal", options.journal_bw, 10 * sim::kMicrosecond);

  // Storage server on node 1: journals the write, replicates to node 2.
  hw::Node* server = raw[1];
  int server_acct = server->host_cpu().RegisterAccount("osd");
  rdma::RpcEndpoint* ep =
      rpc.CreateEndpoint("osd/1", rdma::MemAddr{1, rdma::Space::kHostPm}, &server->host_cpu(),
                         server_acct, /*has_low_lat_poller=*/false);
  rdma::EndpointId osd = rpc.Resolve("osd/1");
  ep->Handle<WriteReq, core::Ack>(
      core::kRpcShardWrite,
      [&engine, server, server_acct, &journal, &net, &options](WriteReq req)
          -> sim::Task<core::Ack> {
        co_await server->host_cpu().RunCycles(options.server_cycles_per_op,
                                              sim::Priority::kNormal, server_acct);
        co_await journal.Transfer(req.len);
        // Replicate to the second storage node (no client involvement).
        rdma::Initiator init;
        init.cpu = &server->host_cpu();
        init.priority = sim::Priority::kNormal;
        init.account = server_acct;
        co_await net.Write(init, rdma::MemAddr{1, rdma::Space::kHostPm},
                           rdma::MemAddr{2, rdma::Space::kHostPm}, req.len);
        co_return core::Ack{};
      });

  hw::Node* client_node = raw[0];
  int app_acct = client_node->acct_app();

  int finished = 0;
  for (int proc = 0; proc < options.client_procs; ++proc) {
    engine.Spawn([](sim::Engine* engine, hw::Node* client_node, rdma::RpcSystem* rpc,
                    rdma::EndpointId osd, const Options* options, int app_acct, int proc,
                    int* finished) -> sim::Task<> {
      sim::Semaphore window(engine, options->window);
      sim::WaitGroup inflight(engine);
      uint64_t total_ops = options->bytes_per_proc / options->io_size;
      for (uint64_t op = 0; op < total_ops; ++op) {
        // Client-side cost: striping, CRC, messenger.
        co_await client_node->host_cpu().RunCycles(options->client_cycles_per_op,
                                                   sim::Priority::kNormal, app_acct);
        co_await window.Acquire();
        inflight.Add(1);
        engine->Spawn([](sim::Engine* engine, hw::Node* client_node, rdma::RpcSystem* rpc,
                         rdma::EndpointId osd, const Options* options, int app_acct,
                         uint64_t op, int proc, sim::Semaphore* window,
                         sim::WaitGroup* inflight) -> sim::Task<> {
          rdma::Initiator init;
          init.cpu = &client_node->host_cpu();
          init.priority = sim::Priority::kNormal;
          init.account = app_acct;
          // The data crosses the client's wire (bulk), then the commit RPC.
          co_await engine->SleepFor(0);
          co_await rpc->network()->Write(init, rdma::MemAddr{0, rdma::Space::kHostPm},
                                         rdma::MemAddr{1, rdma::Space::kHostPm},
                                         options->io_size);
          WriteReq req;
          req.offset = op * options->io_size;
          req.len = static_cast<uint32_t>(options->io_size);
          req.client = static_cast<uint32_t>(proc);
          Result<core::Ack> ack = co_await rpc->Call<WriteReq, core::Ack>(
              init, rdma::MemAddr{0, rdma::Space::kHostPm}, osd,
              rdma::Channel::kHighTput, core::kRpcShardWrite, req);
          (void)ack;
          window->Release();
          inflight->Done();
        }(engine, client_node, rpc, osd, options, app_acct, op, proc, &window, &inflight));
      }
      co_await inflight.Wait();
      ++*finished;
    }(&engine, client_node, &rpc, osd, &options, app_acct, proc, &finished));
  }
  engine.Run();

  RunResult result;
  result.elapsed = engine.Now();
  uint64_t total_bytes = static_cast<uint64_t>(options.client_procs) * options.bytes_per_proc;
  result.throughput = static_cast<double>(total_bytes) / sim::ToSeconds(result.elapsed);
  result.client_cpu_cores =
      client_node->host_cpu().TotalBusySeconds() / sim::ToSeconds(result.elapsed);
  return result;
}

}  // namespace linefs::baseline
