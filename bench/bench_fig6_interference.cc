// Figure 6: aggressive consolidation — streamcluster on ALL nodes (including
// the primary) at the same priority as the DFS, with 2 DFS clients running the
// write microbenchmark.
//
// Paper shape: Assise slows streamcluster most (72% on the primary / 66% on
// replicas) with the lowest DFS throughput; Assise-BgRepl adds ~18%
// throughput; LineFS has the best throughput (~+46% over Assise) with minimal
// streamcluster slowdown (49% primary / 19% replica — mostly the kernel
// worker and LibFS's own client-side work).

#include <benchmark/benchmark.h>

#include <map>

#include "bench/harness.h"
#include "src/workloads/microbench.h"

namespace linefs::bench {
namespace {

constexpr uint64_t kBytesPerClient = 192ULL << 20;

const core::DfsMode kModes[] = {core::DfsMode::kAssise, core::DfsMode::kAssiseBgRepl,
                                core::DfsMode::kLineFS};

struct Row {
  double sc_primary_s = 0;
  double sc_replica_s = 0;
  double dfs_tput = 0;
};
std::map<int, Row> g_rows;
double g_solo_s = 0;

Row RunConfig(core::DfsMode mode) {
  core::DfsConfig config = BenchConfig(mode);
  config.host_fs_priority = sim::Priority::kNormal;  // Same priority (§5.2.4).
  Experiment exp(config);
  std::vector<workloads::Streamcluster*> jobs =
      exp.StartStreamcluster({0, 1, 2}, CoRunnerOptions());
  std::vector<core::LibFs*> fss;
  for (int c = 0; c < 2; ++c) {
    fss.push_back(exp.cluster().CreateClient(0));
  }
  sim::Time start = exp.engine().Now();
  std::vector<sim::Task<>> tasks;
  for (int c = 0; c < 2; ++c) {
    tasks.push_back([](core::LibFs* fs, int c) -> sim::Task<> {
      workloads::BenchResult r = co_await workloads::SeqWrite(
          fs, "/f6_" + std::to_string(c), kBytesPerClient, 16 << 10);
      (void)r;
    }(fss[c], c));
  }
  exp.RunAll(std::move(tasks));
  sim::Time dfs_elapsed = exp.engine().Now() - start;
  // Let streamcluster finish to get its full execution time.
  exp.Drain(60 * sim::kSecond);
  Row row;
  row.dfs_tput = 2.0 * kBytesPerClient / sim::ToSeconds(dfs_elapsed);
  row.sc_primary_s = sim::ToSeconds(jobs[0]->elapsed());
  row.sc_replica_s = sim::ToSeconds(jobs[1]->elapsed());
  exp.SetLabel(std::string(core::DfsModeName(mode)) + "/consolidated");
  exp.AddScalar("throughput_bytes_per_sec", row.dfs_tput);
  exp.AddScalar("sc_primary_s", row.sc_primary_s);
  exp.AddScalar("sc_replica_s", row.sc_replica_s);
  return row;
}

void BM_Fig6(benchmark::State& state) {
  Row row;
  for (auto _ : state) {
    row = RunConfig(kModes[state.range(0)]);
  }
  g_rows[static_cast<int>(state.range(0))] = row;
  state.counters["sc_primary_s"] = row.sc_primary_s;
  state.counters["sc_replica_s"] = row.sc_replica_s;
  state.counters["dfs_MBps"] = row.dfs_tput / 1e6;
  state.SetLabel(core::DfsModeName(kModes[state.range(0)]));
}

// The solo baseline runs streamcluster on a bare node with no DFS service at
// all, so nothing else ever takes one of its cores: it takes exactly
// iterations x work_per_iteration.
void BM_Fig6_Solo(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    hw::Node node(&engine, 0, BenchConfig(core::DfsMode::kLineFS).node_params);
    workloads::Streamcluster job(&node, CoRunnerOptions());
    engine.Spawn(job.Run(), "streamcluster");
    engine.RunUntil(60 * sim::kSecond);
    g_solo_s = sim::ToSeconds(job.elapsed());
    obs::BenchRun run;
    run.label = "streamcluster/solo";
    run.scalars.emplace_back("solo_s", g_solo_s);
    run.virtual_time_us = sim::ToMicros(engine.Now());
    BenchReport::Get().AddRun(std::move(run));
  }
  state.counters["solo_s"] = g_solo_s;
}

void PrintTable() {
  std::printf("\n=== Figure 6: streamcluster execution time + DFS throughput ===\n");
  std::printf("%-16s %14s %14s %12s\n", "system", "sc primary(s)", "sc replica(s)",
              "DFS MB/s");
  std::printf("%-16s %14.1f %14s %12s\n", "solo run", g_solo_s, "-", "-");
  for (int m = 0; m < 3; ++m) {
    const Row& row = g_rows[m];
    std::printf("%-16s %14.1f %14.1f %12.0f\n", core::DfsModeName(kModes[m]),
                row.sc_primary_s, row.sc_replica_s, row.dfs_tput / 1e6);
  }
}

}  // namespace
}  // namespace linefs::bench

BENCHMARK(linefs::bench::BM_Fig6_Solo)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(linefs::bench::BM_Fig6)->DenseRange(0, 2)->Iterations(1)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  linefs::bench::PrintTable();
  return linefs::bench::WriteBenchReport("fig6_interference");
}
