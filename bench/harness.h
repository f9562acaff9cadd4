// Shared benchmark harness: one simulated cluster per experiment, helpers to
// run client tasks to completion, paper-style table printing, and structured
// JSON reporting (every bench binary writes BENCH_<name>.json on exit).

#ifndef BENCH_HARNESS_H_
#define BENCH_HARNESS_H_

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/clustermgr.h"
#include "src/core/libfs.h"
#include "src/core/nicfs.h"
#include "src/core/sharedfs.h"
#include "src/obs/critical_path.h"
#include "src/obs/report.h"
#include "src/obs/selfprof.h"
#include "src/workloads/streamcluster.h"

namespace linefs::bench {

// Process-wide accumulator for the structured bench report. Every Experiment
// appends one run (label, scalars, metric snapshot) on destruction; the
// bench's main() calls WriteBenchReport("<name>") to emit BENCH_<name>.json.
class BenchReport {
 public:
  static BenchReport& Get() {
    static BenchReport report;
    return report;
  }

  void AddRun(obs::BenchRun run) { data_.runs.push_back(std::move(run)); }

  // Process-wide wall-clock self-profile: each Experiment merges its engine's
  // profile here on destruction (only when $LINEFS_SELFPROF is set).
  obs::SelfProfiler& selfprof() { return selfprof_; }

  // Writes BENCH_<name>.json into $LINEFS_BENCH_DIR (default "."). Returns a
  // process exit code so main() can `return WriteBenchReport(...)`.
  int Write(const std::string& name) {
    data_.name = name;
    data_.git_sha = GitSha();
    data_.wall_runtime_sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    const char* dir = std::getenv("LINEFS_BENCH_DIR");
    Status st = obs::WriteBenchJson(data_, dir != nullptr ? dir : ".");
    if (!st.ok()) {
      std::fprintf(stderr, "bench: failed to write BENCH_%s.json: %s\n", name.c_str(),
                   st.message().c_str());
      return 1;
    }
    // Self-profile capture: folded stacks to $LINEFS_SELFPROF ("-" = stderr)
    // plus a top-components summary on stderr.
    if (const char* path = std::getenv("LINEFS_SELFPROF")) {
      if (!selfprof_.WriteFolded(path)) {
        std::fprintf(stderr, "bench: cannot write self-profile to %s\n", path);
        return 1;
      }
      std::fputs(selfprof_.Summary().c_str(), stderr);
    }
    return 0;
  }

 private:
  // Provenance: $LINEFS_GIT_SHA (CI stamps ${{ github.sha }}), then the git
  // checkout the bench was built from (LINEFS_SOURCE_DIR, set by CMake),
  // whatever the working directory, else "unknown". Never fails the bench.
  static std::string GitSha() {
    if (const char* sha = std::getenv("LINEFS_GIT_SHA")) {
      return sha;
    }
    std::string out;
    std::string cmd = "git -C '" LINEFS_SOURCE_DIR "' rev-parse --short HEAD 2>/dev/null";
    if (std::FILE* p = ::popen(cmd.c_str(), "r")) {
      char buf[128];
      while (std::fgets(buf, sizeof(buf), p) != nullptr) {
        out += buf;
      }
      ::pclose(p);
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
      out.pop_back();
    }
    return out.empty() ? "unknown" : out;
  }

  obs::BenchReportData data_;
  obs::SelfProfiler selfprof_;  // Accumulator mode: no engine attached.
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
};

// Benchmark-scale configuration: payload bytes elided (simulated time is
// unaffected), capacities scaled (see DESIGN.md).
inline core::DfsConfig BenchConfig(core::DfsMode mode, bool materialize = false) {
  core::DfsConfig config;
  config.mode = mode;
  config.num_nodes = 3;
  config.pm_size = 6ULL << 30;
  config.log_size = 64ULL << 20;
  config.inode_count = 1 << 20;
  config.chunk_size = 4ULL << 20;
  config.materialize_data = materialize;
  // Telemetry window override (microseconds; 0 disables the timeline).
  if (const char* window = std::getenv("LINEFS_TIMELINE_WINDOW_US")) {
    config.timeline_window = static_cast<sim::Time>(std::atoll(window)) * sim::kMicrosecond;
  }
  return config;
}

class Experiment {
 public:
  explicit Experiment(const core::DfsConfig& config)
      : minor_faults_start_(static_cast<uint64_t>(Usage().ru_minflt)) {
    // Wall-clock self-profiling of the DES loop, merged process-wide at exit.
    if (std::getenv("LINEFS_SELFPROF") != nullptr) {
      selfprof_ = std::make_unique<obs::SelfProfiler>(&engine_);
    }
    cluster_ = std::make_unique<core::Cluster>(&engine_, config);
    // Raw spans are kept only for the optional Chrome trace export below.
    if (std::getenv("LINEFS_TRACE_JSON") != nullptr) {
      cluster_->trace().EnableRing();
    }
    Status st = cluster_->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "bench: invalid config: %s\n", st.message().c_str());
      std::abort();
    }
  }
  ~Experiment() {
    cluster_->Shutdown();
    engine_.Run();
    // Engine health counters: a nonzero clamp count means some cost model
    // scheduled into the past (see Engine::ScheduleAt). Events processed and
    // the pending-event high-water mark are deterministic, and
    // scripts/bench_compare.py gates both.
    obs::MetricsRegistry& registry = cluster_->metrics();
    registry.GetCounter("sim.events_processed")->Add(engine_.events_processed());
    registry.GetCounter("sim.queue_depth_max")->Add(engine_.max_queue_depth());
    registry.GetCounter("sim.schedule.calls")->Add(engine_.schedule_calls());
    registry.GetCounter("sim.schedule.clamped")->Add(engine_.schedule_clamps());
    // Host memory backing simulated PM (informational, not gated).
    uint64_t pm_backed = 0;
    for (int i = 0; i < cluster_->num_nodes(); ++i) {
      pm_backed += cluster_->hw_node(i).pm().bytes_backed();
    }
    registry.GetCounter("pmem.bytes_backed")->Add(pm_backed);
    // Host memory the run cost (informational): page faults taken while
    // this Experiment lived, and the process's peak RSS so far.
    rusage usage = Usage();
    registry.GetCounter("mem.minor_faults")
        ->Add(static_cast<uint64_t>(usage.ru_minflt) - minor_faults_start_);
    registry.GetCounter("mem.peak_rss_bytes")->Add(static_cast<uint64_t>(usage.ru_maxrss) << 10);
    // Engine-speed trajectory (informational, tracked across PRs): how many
    // DES events the engine retires per wall-clock second, and how much wall
    // time one simulated second costs for this run's workload.
    double wall_sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start_).count();
    double virtual_sec = sim::ToMicros(engine_.Now()) / 1e6;
    if (wall_sec > 0) {
      AddScalar("sim.events_per_wall_sec", engine_.events_processed() / wall_sec);
    }
    if (virtual_sec > 0) {
      AddScalar("sim.wall_sec_per_virtual_sec", wall_sec / virtual_sec);
    }
    run_.metrics = registry.TakeSnapshot();
    run_.virtual_time_us = sim::ToMicros(engine_.Now());
    run_.config = ConfigJson(cluster_->config());
    // Per-stage critical-path attribution of every operation of the run.
    run_.critical_path = obs::CriticalPathAnalyzer(&cluster_->trace()).ReportJson();
    // Optional structured trace capture: export the last experiment's pipeline
    // spans as Chrome trace_event JSON (chrome://tracing, Perfetto), with the
    // timeline series as counter tracks.
    if (const char* path = std::getenv("LINEFS_TRACE_JSON")) {
      if (!cluster_->trace().WriteChromeJson(path, &run_.metrics.timeline)) {
        std::fprintf(stderr, "bench: cannot write trace to %s\n", path);
      }
    }
    BenchReport::Get().AddRun(std::move(run_));
    if (selfprof_ != nullptr) {
      selfprof_->Detach();
      BenchReport::Get().selfprof().MergeFrom(*selfprof_);
    }
  }

  // Labels this run in the JSON report (e.g. "LineFS/busy/4clients").
  void SetLabel(std::string label) { run_.label = std::move(label); }
  // Records a bench-specific scalar (throughput, latency, ...) for this run.
  void AddScalar(const std::string& name, double value) {
    run_.scalars.emplace_back(name, value);
  }
  // Attaches a bench-specific structured payload to this run's JSON.
  void SetExtra(obs::JsonValue extra) { run_.extra = std::move(extra); }

  // The config knobs that shape performance, stamped into every run.
  static obs::JsonValue ConfigJson(const core::DfsConfig& c) {
    obs::JsonValue v = obs::JsonValue::Object();
    v.Set("mode", core::DfsModeName(c.mode));
    v.Set("num_nodes", c.num_nodes);
    v.Set("chunk_size", c.chunk_size);
    v.Set("materialize_data", c.materialize_data);
    v.Set("coalescing", c.coalescing);
    v.Set("publish_method", core::PublishMethodName(c.publish_method));
    v.Set("max_stage_workers", c.max_stage_workers);
    v.Set("replication_protocol", c.repl.protocol);
    v.Set("fetch_depth", c.repl.fetch_depth);
    v.Set("transfer_window", c.repl.transfer_window);
    v.Set("pipeline_stages", c.pipeline_stages);
    v.Set("read_path", c.read_path);
    v.Set("read_nic_load_max", c.read_nic_load_max);
    v.Set("num_shards", c.num_shards);
    v.Set("shard_placement", c.shard_placement);
    v.Set("placer_pooling", c.placer_pooling);
    v.Set("placer_nic_saturation", c.placer_nic_saturation);
    return v;
  }

  core::Cluster& cluster() { return *cluster_; }
  sim::Engine& engine() { return engine_; }

  // Spawns all tasks and steps the engine until each completes.
  void RunAll(std::vector<sim::Task<>> tasks) {
    int remaining = static_cast<int>(tasks.size());
    for (sim::Task<>& task : tasks) {
      engine_.Spawn(
          [](sim::Task<> t, int* remaining) -> sim::Task<> {
            co_await std::move(t);
            --*remaining;
          }(std::move(task), &remaining),
          "client");
    }
    sim::Time deadline = engine_.Now() + 7200 * sim::kSecond;
    while (remaining > 0 && engine_.Now() < deadline && engine_.RunOne()) {
    }
    if (remaining > 0) {
      std::fprintf(stderr, "bench: %d tasks did not complete (deadlock?)\n", remaining);
      std::abort();
    }
  }

  void Drain(sim::Time t) { engine_.RunUntil(engine_.Now() + t); }

  // Runs streamcluster co-runners on the given nodes in the background. The
  // jobs are owned by the Experiment (they must outlive their coroutines);
  // the returned pointers let callers read execution times.
  std::vector<workloads::Streamcluster*> StartStreamcluster(
      const std::vector<int>& nodes, const workloads::Streamcluster::Options& options) {
    std::vector<workloads::Streamcluster*> started;
    for (int n : nodes) {
      co_runners_.push_back(
          std::make_unique<workloads::Streamcluster>(&cluster_->hw_node(n), options));
      engine_.Spawn(co_runners_.back()->Run(), "streamcluster");
      started.push_back(co_runners_.back().get());
    }
    return started;
  }

 private:
  static rusage Usage() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage;
  }

  uint64_t minor_faults_start_;
  sim::Engine engine_;
  std::chrono::steady_clock::time_point wall_start_ = std::chrono::steady_clock::now();
  std::unique_ptr<obs::SelfProfiler> selfprof_;  // Must outlive engine_ events; see dtor.
  std::unique_ptr<core::Cluster> cluster_;
  std::vector<std::unique_ptr<workloads::Streamcluster>> co_runners_;
  obs::BenchRun run_;  // Filled during the run, flushed to BenchReport on destruction.
};

// Convenience for bench main(): flush the report and return an exit code.
inline int WriteBenchReport(const std::string& name) { return BenchReport::Get().Write(name); }

// Streamcluster options matching the §5 co-runner: 48 threads, all cores,
// solo runtime scaled to ~8 simulated seconds (the paper's is ~26s; the
// DFS workloads here are scaled down by a similar factor).
inline workloads::Streamcluster::Options CoRunnerOptions(int threads = 48) {
  workloads::Streamcluster::Options o;
  o.threads = threads;
  o.iterations = 80;
  o.work_per_iteration = 100 * sim::kMillisecond;
  o.bytes_per_iteration = 80ULL << 20;
  return o;
}

inline const char* Gbps(double bytes_per_sec, char* buf, size_t n) {
  std::snprintf(buf, n, "%.2f", bytes_per_sec / 1e9);
  return buf;
}

}  // namespace linefs::bench

#endif  // BENCH_HARNESS_H_
