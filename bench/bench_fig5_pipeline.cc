// Figure 5: publish and replication pipeline latency breakdown for one 4MB
// chunk (fetching / validation / publication-or-transfer / ack).
//
// Paper shape: fetching and publication/transfer dominate (they cross the
// high-latency interconnects: PCIe ~1ms for 4MB, network ~1.5-1.8ms);
// validation is hundreds of microseconds of wimpy-core compute; acks are
// tens of microseconds. Publish and replication share fetch+validate, so
// those stage latencies are identical by construction.
//
// Window sweep: on top of the breakdown, sweeps the windowed data path —
// transfer_window in {1,2,4,8} crossed with fetch_depth in {1,4} — over a
// seq-write+fsync run. Every point runs the same windowed one-way data path;
// a window of 1 is its lock-step point (one DMA / one chunk in flight), so
// the sweep measures what opening the window buys: throughput must be
// monotone-or-flat in the window, and the report splits the fsync critical
// path into its replicate-net and wait shares.

#include <benchmark/benchmark.h>

#include "bench/harness.h"
#include "src/pipeline/stage.h"
#include "src/workloads/microbench.h"

namespace linefs::bench {
namespace {

struct Breakdown {
  double fetch_us = 0;
  double validate_us = 0;
  double publish_us = 0;
  double transfer_us = 0;
  double ack_us = 0;
};
Breakdown g_result;

Breakdown Run() {
  Experiment exp(BenchConfig(core::DfsMode::kLineFS));
  core::LibFs* fs = exp.cluster().CreateClient(0);
  std::vector<sim::Task<>> tasks;
  tasks.push_back([](core::LibFs* fs) -> sim::Task<> {
    // Write exactly 16 chunks' worth so stage recorders average over several.
    workloads::BenchResult r = co_await workloads::SeqWrite(fs, "/p.dat", 64ULL << 20, 1 << 20);
    (void)r;
  }(fs));
  exp.RunAll(std::move(tasks));
  exp.Drain(10 * sim::kSecond);

  core::NicFs::StatsSnapshot stats = exp.cluster().nicfs(0)->stats();
  auto stage_us = [&stats](const char* name) {
    auto it = stats.stages.find(name);
    return it == stats.stages.end()
               ? 0.0
               : sim::ToMicros(static_cast<sim::Time>(it->second.latency.mean));
  };
  Breakdown b;
  b.fetch_us = stage_us("fetch");
  b.validate_us = stage_us("validate");
  b.publish_us = stage_us("publish");
  b.transfer_us = stage_us("transfer");
  b.ack_us = stage_us("ack");
  exp.SetLabel("LineFS/pipeline_breakdown");
  exp.AddScalar("fetch_us", b.fetch_us);
  exp.AddScalar("validate_us", b.validate_us);
  exp.AddScalar("publish_us", b.publish_us);
  exp.AddScalar("transfer_us", b.transfer_us);
  exp.AddScalar("ack_us", b.ack_us);
  return b;
}

// --- stage mix --------------------------------------------------------------------------
//
// Same workload as the breakdown, but with optional plugin stages composed
// into the replication chain (DfsConfig::pipeline_stages). Informational in
// the perf gate (new configs have no baseline); the table shows what each
// plugin adds to per-chunk latency and where it queues.

struct StageMixPoint {
  std::string mix;
  double gbps = 0;
  // Per-stage latency and mean wait-queue occupancy, chain order.
  std::vector<std::pair<std::string, double>> stage_us;
  std::vector<std::pair<std::string, double>> stage_q;
  double host_placements = 0;   // Host-fallback run only.
};
std::vector<StageMixPoint> g_mix;

StageMixPoint RunStageMix(const char* mix_name, const std::string& stages,
                          bool host_fallback) {
  core::DfsConfig config = BenchConfig(core::DfsMode::kLineFS);
  config.pipeline_stages = stages;
  config.chunk_size = 1ULL << 20;
  if (host_fallback) {
    // Saturate every NIC so grown workers spill to host cores: host fallback
    // on, an aggressive saturation mark, and a hair-trigger grow threshold
    // while plugin stages burn wimpy-core cycles on every chunk.
    config.placer_pooling = true;
    config.placer_nic_saturation = 0.05;
    config.stage_queue_threshold = 1;
    config.max_stage_workers = 4;
  }
  Experiment exp(config);
  workloads::BenchResult result;
  std::vector<sim::Task<>> tasks;
  // The fallback run puts one writer on every node, so every NIC is busy.
  int writers = host_fallback ? exp.cluster().num_nodes() : 1;
  for (int w = 0; w < writers; ++w) {
    core::LibFs* fs = exp.cluster().CreateClient(w % exp.cluster().num_nodes());
    tasks.push_back([](core::LibFs* fs, int w, workloads::BenchResult* out) -> sim::Task<> {
      char path[32];
      std::snprintf(path, sizeof(path), "/mix%d.dat", w);
      workloads::BenchResult r = co_await workloads::SeqWrite(fs, path, 32ULL << 20, 1 << 20);
      out->bytes += r.bytes;
      out->ops += r.ops;
      out->elapsed = std::max(out->elapsed, r.elapsed);
    }(fs, w, &result));
  }
  exp.RunAll(std::move(tasks));
  exp.Drain(10 * sim::kSecond);

  StageMixPoint p;
  p.mix = mix_name;
  p.gbps = result.throughput() / 1e9;
  char label[64];
  std::snprintf(label, sizeof(label), "LineFS/stage_mix/%s", mix_name);
  exp.SetLabel(label);
  exp.AddScalar("throughput_gbps", p.gbps);

  core::NicFs::StatsSnapshot stats = exp.cluster().nicfs(0)->stats();
  obs::MetricsRegistry::Snapshot metrics = exp.cluster().metrics().TakeSnapshot();
  for (const std::string& name : pipeline::ParseStageList(stages)) {
    auto it = stats.stages.find(name);
    if (it == stats.stages.end()) {
      continue;
    }
    double us = sim::ToMicros(static_cast<sim::Time>(it->second.latency.mean));
    p.stage_us.emplace_back(name, us);
    exp.AddScalar(name + "_us", us);
    // Mean wait-queue depth over every push and pop (nicfs.0 scope).
    const obs::Histogram* q =
        exp.cluster().metrics().FindHistogram("nicfs.0.qdepth." + name);
    double occupancy = q != nullptr ? q->Summarize().mean : 0.0;
    p.stage_q.emplace_back(name, occupancy);
    exp.AddScalar(name + "_qdepth", occupancy);
  }
  if (host_fallback) {
    p.host_placements =
        static_cast<double>(metrics.counters["placer.placements.host"]);
    exp.AddScalar("host_placements", p.host_placements);
  }
  return p;
}

// --- window sweep -----------------------------------------------------------------------

struct WindowPoint {
  int transfer_window = 1;
  int fetch_depth = 1;
  double gbps = 0;
  double fsync_ms = 0;
  double replicate_net_pct = 0;
  double wait_pct = 0;
};
std::vector<WindowPoint> g_sweep;

WindowPoint RunWindowPoint(int transfer_window, int fetch_depth) {
  core::DfsConfig config = BenchConfig(core::DfsMode::kLineFS);
  config.repl.transfer_window = transfer_window;
  config.repl.fetch_depth = fetch_depth;
  // 1MB chunks: more control operations per byte, so the sweep isolates what
  // the window actually removes (per-chunk send-completion and ack waits)
  // instead of burying it under 4MB serialization time.
  config.chunk_size = 1ULL << 20;
  Experiment exp(config);
  core::LibFs* fs = exp.cluster().CreateClient(0);
  workloads::BenchResult result;
  std::vector<sim::Task<>> tasks;
  // Bursts of 8 chunks, each followed by fsync: every fsync drains a
  // multi-chunk backlog through the windowed pipeline, so its critical path
  // owns the fetch/transfer chain the window is supposed to overlap (one
  // giant write would instead drain almost entirely under background publish
  // kicks and the fsync would only ever record undifferentiated wait).
  tasks.push_back([](core::LibFs* fs, workloads::BenchResult* out) -> sim::Task<> {
    for (int burst = 0; burst < 8; ++burst) {
      char path[32];
      std::snprintf(path, sizeof(path), "/w%d.dat", burst);
      workloads::BenchResult r = co_await workloads::SeqWrite(fs, path, 8ULL << 20, 1 << 20);
      out->bytes += r.bytes;
      out->ops += r.ops;
      out->elapsed += r.elapsed;
    }
  }(fs, &result));
  exp.RunAll(std::move(tasks));
  exp.Drain(10 * sim::kSecond);

  WindowPoint p;
  p.transfer_window = transfer_window;
  p.fetch_depth = fetch_depth;
  p.gbps = result.throughput() / 1e9;

  // Attribute the fsync's end-to-end latency to pipeline stages: the window
  // should drain replicate-net (round trips, send completions) and wait
  // (stalls with no stage active) out of the critical path.
  obs::CriticalPathAnalyzer analyzer(&exp.cluster().trace());
  std::vector<obs::OpBreakdown> ops = analyzer.Operations("fsync");
  sim::Time total = 0;
  std::map<std::string, sim::Time> table = obs::CriticalPathAnalyzer::StageTable(ops);
  for (const auto& [stage, t] : table) {
    total += t;
  }
  sim::Time fsync_total = 0;
  for (const obs::OpBreakdown& op : ops) {
    fsync_total += op.duration();
  }
  p.fsync_ms = sim::ToMicros(fsync_total) / 1000.0;
  if (total > 0) {
    p.replicate_net_pct = 100.0 * static_cast<double>(table["replicate-net"]) / total;
    p.wait_pct = 100.0 * static_cast<double>(table["wait"]) / total;
  }

  char label[64];
  std::snprintf(label, sizeof(label), "LineFS/window_sweep/tw%d_fd%d", transfer_window,
                fetch_depth);
  exp.SetLabel(label);
  exp.AddScalar("throughput_gbps", p.gbps);
  exp.AddScalar("fsync_ms", p.fsync_ms);
  exp.AddScalar("replicate_net_pct", p.replicate_net_pct);
  exp.AddScalar("wait_pct", p.wait_pct);
  return p;
}

void BM_WindowSweep(benchmark::State& state) {
  for (auto _ : state) {
    g_sweep.clear();
    for (int fd : {1, 4}) {
      for (int tw : {1, 2, 4, 8}) {
        g_sweep.push_back(RunWindowPoint(tw, fd));
      }
    }
  }
  for (const WindowPoint& p : g_sweep) {
    char key[48];
    std::snprintf(key, sizeof(key), "tw%d_fd%d_gbps", p.transfer_window, p.fetch_depth);
    state.counters[key] = p.gbps;
  }
}

void BM_StageMix(benchmark::State& state) {
  for (auto _ : state) {
    g_mix.clear();
    g_mix.push_back(RunStageMix("baseline", "validate", false));
    g_mix.push_back(RunStageMix("checksum", "validate,checksum", false));
    g_mix.push_back(RunStageMix("encrypt", "validate,xor_encrypt", false));
    g_mix.push_back(
        RunStageMix("host_fallback", "validate,xor_encrypt,checksum", true));
  }
  for (const StageMixPoint& p : g_mix) {
    state.counters[p.mix + "_gbps"] = p.gbps;
  }
}

void BM_Fig5(benchmark::State& state) {
  for (auto _ : state) {
    g_result = Run();
  }
  state.counters["fetch_us"] = g_result.fetch_us;
  state.counters["validate_us"] = g_result.validate_us;
  state.counters["publish_us"] = g_result.publish_us;
  state.counters["transfer_us"] = g_result.transfer_us;
  state.counters["ack_us"] = g_result.ack_us;
}

void PrintTable() {
  const Breakdown& b = g_result;
  std::printf("\n=== Figure 5: pipeline latency breakdown per 4MB chunk (us) ===\n");
  std::printf("%-12s %9s %10s %18s %8s %9s\n", "pipeline", "fetch", "validate",
              "publish/transfer", "ack", "total");
  std::printf("%-12s %9.0f %10.0f %18.0f %8.0f %9.0f\n", "publish", b.fetch_us, b.validate_us,
              b.publish_us, b.ack_us, b.fetch_us + b.validate_us + b.publish_us + b.ack_us);
  std::printf("%-12s %9.0f %10.0f %18.0f %8.0f %9.0f\n", "replication", b.fetch_us,
              b.validate_us, b.transfer_us, b.ack_us,
              b.fetch_us + b.validate_us + b.transfer_us + b.ack_us);
  std::printf("(fetch and validation are shared between the two pipelines)\n");

  std::printf("\n=== Window sweep: 64MB seq write + fsync (transfer_window x fetch_depth) ===\n");
  std::printf("%-10s %6s %12s %10s %16s %9s\n", "config", "tw", "fetch_depth", "GB/s",
              "replicate-net %", "wait %");
  for (const WindowPoint& p : g_sweep) {
    char name[32];
    std::snprintf(name, sizeof(name), "tw%d_fd%d", p.transfer_window, p.fetch_depth);
    std::printf("%-10s %6d %12d %10.3f %16.1f %9.1f\n", name, p.transfer_window,
                p.fetch_depth, p.gbps, p.replicate_net_pct, p.wait_pct);
  }
  std::printf("(tw=1 / fd=1 is the lock-step point of the same windowed path)\n");

  std::printf("\n=== Stage mix: plugin stages in the replication chain (1MB chunks) ===\n");
  std::printf("%-14s %8s  %-44s %s\n", "mix", "GB/s", "stage latency us (mean)",
              "queue occupancy");
  for (const StageMixPoint& p : g_mix) {
    char stages[128] = "";
    char queues[96] = "";
    size_t off = 0;
    for (const auto& [name, us] : p.stage_us) {
      off += std::snprintf(stages + off, sizeof(stages) - off, "%s=%.0f ", name.c_str(), us);
    }
    off = 0;
    for (const auto& [name, q] : p.stage_q) {
      off += std::snprintf(queues + off, sizeof(queues) - off, "%s=%.1f ", name.c_str(), q);
    }
    std::printf("%-14s %8.3f  %-44s %s\n", p.mix.c_str(), p.gbps, stages, queues);
    if (p.mix == "host_fallback") {
      std::printf("%-14s placements: host=%.0f (NICs saturated, grown workers "
                  "spill to host cores)\n",
                  "", p.host_placements);
    }
  }
}

}  // namespace
}  // namespace linefs::bench

BENCHMARK(linefs::bench::BM_Fig5)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(linefs::bench::BM_WindowSweep)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(linefs::bench::BM_StageMix)->Iterations(1)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  linefs::bench::PrintTable();
  return linefs::bench::WriteBenchReport("fig5_pipeline");
}
