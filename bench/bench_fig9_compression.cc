// Figure 9: Tencent Sort with replication-pipeline compression — network
// bandwidth consumption over time and sort runtime, for input sets with 40%,
// 60%, and 80% zero-fill, vs Assise (no compression).
//
// This experiment MATERIALISES data: the LZW codec really runs and its
// achieved ratio determines the wire bytes. iperf3-style background traffic
// contends for the primary's egress bandwidth, as in the paper.
//
// Paper shape: network savings ~29/49/72% for the 40/60/80% inputs; runtime
// comparable at low ratios and ~10% better than Assise at 80%.

#include <benchmark/benchmark.h>

#include <map>

#include "bench/harness.h"
#include "src/core/nicfs.h"
#include "src/workloads/sortbench.h"

namespace linefs::bench {
namespace {

constexpr uint64_t kRecords = 1000000;  // 100MB of 100B records (scaled from 8GB).

struct Row {
  double runtime_s = 0;
  double wire_gb = 0;
  double saved_pct = 0;
  std::vector<double> bw_series;  // Primary egress GB/s per 500ms bucket.
};
std::map<int, Row> g_rows;  // -1 = Assise; 40/60/80 = LineFS-x%.

Row RunOne(bool compression, double zero_fraction) {
  core::DfsConfig config =
      BenchConfig(compression ? core::DfsMode::kLineFS : core::DfsMode::kAssise,
                  /*materialize=*/true);
  if (compression) {
    config.pipeline_stages = "validate,compress";
  }
  Experiment exp(config);
  exp.cluster().fabric().tx(0).EnableTimeseries(500 * sim::kMillisecond);
  std::vector<core::LibFs*> clients;
  for (int c = 0; c < 4; ++c) {
    clients.push_back(exp.cluster().CreateClient(0));
  }
  // Background iperf3 contender on the primary's egress.
  exp.engine().Spawn(workloads::IperfTraffic(&exp.cluster().fabric(), &exp.engine(), 0, 2,
                                             exp.engine().Now() + 60 * sim::kSecond));
  workloads::SortOptions options;
  options.records = kRecords;
  options.zero_fraction = zero_fraction;
  Row row;
  std::vector<sim::Task<>> tasks;
  tasks.push_back([](std::vector<core::LibFs*> clients, workloads::SortOptions options,
                     Row* row) -> sim::Task<> {
    workloads::SortResult result = co_await workloads::RunTencentSort(clients, options);
    row->runtime_s = sim::ToSeconds(result.elapsed);
    if (!result.verified) {
      std::fprintf(stderr, "fig9: sort output NOT sorted!\n");
    }
  }(clients, options, &row));
  exp.RunAll(std::move(tasks));
  exp.Drain(5 * sim::kSecond);

  if (compression) {
    core::NicFs::StatsSnapshot stats = exp.cluster().nicfs(0)->stats();
    row.wire_gb = static_cast<double>(stats.wire_bytes) / 1e9;
    row.saved_pct = stats.raw_repl_bytes > 0
                        ? 100.0 * (1.0 - static_cast<double>(stats.wire_bytes) /
                                             static_cast<double>(stats.raw_repl_bytes))
                        : 0;
  } else {
    row.wire_gb = static_cast<double>(exp.cluster().sharedfs(0)->stats().bytes_replicated) / 1e9;
    row.saved_pct = 0;
  }
  const sim::TimeSeries* ts = exp.cluster().fabric().tx(0).timeseries();
  for (size_t i = 0; i < ts->bucket_count(); ++i) {
    row.bw_series.push_back(ts->RateAt(i) / 1e9);
  }
  exp.SetLabel(compression
                   ? "LineFS/zero" + std::to_string(static_cast<int>(zero_fraction * 100)) + "%"
                   : "Assise/no_compression");
  exp.AddScalar("runtime_s", row.runtime_s);
  exp.AddScalar("wire_gb", row.wire_gb);
  exp.AddScalar("net_saved_pct", row.saved_pct);
  return row;
}

void BM_Fig9(benchmark::State& state) {
  int knob = static_cast<int>(state.range(0));  // 0 = Assise, else zero%.
  Row row;
  for (auto _ : state) {
    row = RunOne(knob != 0, knob / 100.0);
  }
  g_rows[knob == 0 ? -1 : knob] = row;
  state.counters["runtime_s"] = row.runtime_s;
  state.counters["repl_GB"] = row.wire_gb;
  state.counters["saved_pct"] = row.saved_pct;
  state.SetLabel(knob == 0 ? "Assise" : "LineFS-" + std::to_string(knob) + "%");
}

void PrintTable() {
  std::printf("\n=== Figure 9: Tencent Sort with compression ===\n");
  std::printf("%-12s %11s %14s %14s\n", "system", "runtime(s)", "repl bytes(GB)",
              "net saved vs raw");
  for (auto& [knob, row] : g_rows) {
    std::printf("%-12s %11.2f %14.3f %13.0f%%\n",
                knob < 0 ? "Assise" : ("LineFS-" + std::to_string(knob) + "%").c_str(),
                row.runtime_s, row.wire_gb, row.saved_pct);
  }
  std::printf("\nPrimary egress bandwidth timeline (GB/s per 500ms bucket, sort traffic + iperf):\n");
  std::printf("%-10s", "t(s)");
  size_t max_buckets = 0;
  for (auto& [knob, row] : g_rows) {
    max_buckets = std::max(max_buckets, row.bw_series.size());
  }
  max_buckets = std::min<size_t>(max_buckets, 24);
  for (size_t i = 0; i < max_buckets; ++i) {
    std::printf(" %5.1f", static_cast<double>(i) * 0.5);
  }
  std::printf("\n");
  for (auto& [knob, row] : g_rows) {
    std::printf("%-10s", knob < 0 ? "Assise" : ("LFS-" + std::to_string(knob)).c_str());
    for (size_t i = 0; i < max_buckets; ++i) {
      std::printf(" %5.2f", i < row.bw_series.size() ? row.bw_series[i] : 0.0);
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace linefs::bench

BENCHMARK(linefs::bench::BM_Fig9)
    ->Arg(0)
    ->Arg(40)
    ->Arg(60)
    ->Arg(80)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  linefs::bench::PrintTable();
  return linefs::bench::WriteBenchReport("fig9_compression");
}
