// failover_demo: demonstrate LineFS's extended availability (§3.5).
//
// A client keeps writing+fsyncing while replica-1's host OS crashes. The
// replica's NICFS detects the dead kernel worker, switches to isolated
// operation (publication via RDMA across PCIe), and keeps the replication
// chain alive — fsyncs keep succeeding. When the host reboots, the stateless
// kernel worker resumes and NICFS leaves isolated mode.
//
//   ./examples/failover_demo
//
// Exits non-zero unless replica-1's NICFS both entered and left isolated mode
// and every write+fsync cycle succeeded.

#include <cassert>
#include <cstdio>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/libfs.h"
#include "src/core/nicfs.h"
#include "src/sim/engine.h"

using namespace linefs;

int main() {
  sim::Engine engine;
  core::DfsConfig config;
  config.mode = core::DfsMode::kLineFS;
  config.num_nodes = 3;
  config.pm_size = 1ULL << 30;
  config.log_size = 16ULL << 20;
  config.chunk_size = 1ULL << 20;
  core::Cluster cluster(&engine, config);
  Status start_st = cluster.Start();
  assert(start_st.ok());
  (void)start_st;
  core::LibFs* fs = cluster.CreateClient(0);

  // Fault injector: crash replica-1's host at t=2s, recover at t=5s.
  engine.Spawn([](sim::Engine* engine, core::Cluster* cluster) -> sim::Task<> {
    co_await engine->SleepUntil(2 * sim::kSecond);
    std::printf("[fault]  t=%.1fs: crashing replica-1's host OS\n",
                sim::ToSeconds(engine->Now()));
    cluster->hw_node(1).CrashHost();
    co_await engine->SleepUntil(5 * sim::kSecond);
    std::printf("[fault]  t=%.1fs: replica-1's host recovered\n",
                sim::ToSeconds(engine->Now()));
    cluster->hw_node(1).RecoverHost();
  }(&engine, &cluster));

  // Mode observer: counts isolated-mode entries and exits.
  int entered = 0;
  int left = 0;
  engine.Spawn([](sim::Engine* engine, core::Cluster* cluster, int* entered,
                  int* left) -> sim::Task<> {
    bool last = false;
    while (engine->Now() < 7 * sim::kSecond) {
      co_await engine->SleepFor(100 * sim::kMillisecond);
      bool isolated = cluster->nicfs(1)->isolated();
      if (isolated != last) {
        std::printf("[nicfs1] t=%.1fs: %s\n", sim::ToSeconds(engine->Now()),
                    isolated ? "kernel worker unresponsive -> ISOLATED operation"
                             : "kernel worker back -> normal operation");
        ++*(isolated ? entered : left);
        last = isolated;
      }
    }
  }(&engine, &cluster, &entered, &left));

  // The application: write + fsync every 250ms, reporting success.
  bool done = false;
  int ok = 0;
  int total = 0;
  engine.Spawn([](sim::Engine* engine, core::LibFs* fs, bool* done, int* ok_out,
                  int* total_out) -> sim::Task<> {
    Result<int> fd = co_await fs->Open("/journal.log", fslib::kOpenCreate | fslib::kOpenWrite);
    if (!fd.ok()) {
      *done = true;
      co_return;
    }
    std::vector<uint8_t> block(64 << 10, 7);
    int& ok = *ok_out;
    int& total = *total_out;
    uint64_t offset = 0;
    while (engine->Now() < 7 * sim::kSecond) {
      Result<uint64_t> w = co_await fs->Pwrite(*fd, block, offset);
      Status st = co_await fs->Fsync(*fd);
      offset += block.size();
      ++total;
      if (w.ok() && st.ok()) {
        ++ok;
      }
      if (total % 4 == 0) {
        std::printf("[app]    t=%.1fs: %d/%d write+fsync cycles succeeded\n",
                    sim::ToSeconds(engine->Now()), ok, total);
      }
      co_await engine->SleepFor(250 * sim::kMillisecond);
    }
    std::printf("[app]    final: %d/%d write+fsync cycles succeeded "
                "(through a full host crash + recovery)\n", ok, total);
    co_await fs->Close(*fd);
    *done = true;
  }(&engine, fs, &done, &ok, &total));

  while (!done && engine.RunOne()) {
  }
  core::NicFs::StatsSnapshot stats = cluster.nicfs(1)->stats();
  std::printf("[nicfs1] isolated-mode publications during the crash window: %llu\n",
              static_cast<unsigned long long>(stats.isolated_publishes));
  cluster.Shutdown();
  engine.Run();
  if (entered == 0 || left == 0 || total == 0 || ok != total) {
    std::fprintf(stderr,
                 "failover_demo: FAILED (isolated entered %d, left %d; %d/%d cycles ok)\n",
                 entered, left, ok, total);
    return 1;
  }
  return 0;
}
