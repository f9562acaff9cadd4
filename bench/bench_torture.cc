// Torture sweep: Varmail under seeded randomized fault schedules.
//
// Runs the workload under N seeded fault::RandomPlan schedules (default seeds
// 1..8 — any 5 consecutive seeds cover every fault class), reporting per-seed
// throughput, retransmit work, and fault/drop counters. Two environment knobs:
//
//   LINEFS_TORTURE_SEEDS=<n>     sweep seeds 1..n instead of 1..8
//   LINEFS_FAULT_PLAN=<spec>     replay exactly this plan (single run, no sweep)
//   LINEFS_REPL_PROTOCOL=<name>  run the sweep on this replication protocol
//                                (default chain; non-default runs get a
//                                "/proto_<name>" label suffix and are
//                                informational in bench_compare)
//
// The second is the replay path: any schedule printed by a failing run (or a
// torture test) can be re-executed verbatim from its one-line spec.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/core/nicfs.h"
#include "src/fault/injector.h"
#include "src/fault/plan.h"
#include "src/fault/schedule.h"
#include "src/obs/critical_path.h"
#include "src/workloads/filebench.h"

namespace linefs::bench {
namespace {

constexpr sim::Time kRunFor = 8 * sim::kSecond;

struct TortureRow {
  std::string label;
  std::string spec;
  double kops = 0;
  uint64_t messages_dropped = 0;
  uint64_t retransmits = 0;
  uint64_t fault_edges = 0;
  // Per fault window: the canonical stage that dominated the critical path
  // while the window was open ("<fault>:<stage>", in plan order).
  std::vector<std::string> window_dominant;
};

// Per fault window, the critical-path time of every operation's attributed
// segments that fell inside it, by canonical stage. The fold hands each
// operation's segments over as the operation completes; those still in
// flight when the windows are read count as they stand.
using WindowStages = std::vector<std::map<std::string, sim::Time>>;

void AddToFaultWindows(const obs::OpBreakdown& op, const std::vector<fault::FaultEvent>& windows,
                       WindowStages* in_window) {
  for (size_t i = 0; i < windows.size(); ++i) {
    for (const obs::CriticalSegment& seg : op.segments) {
      sim::Time begin = std::max(seg.begin, windows[i].at);
      sim::Time end = std::min(seg.end, windows[i].until);
      if (end > begin) {
        (*in_window)[i][seg.stage] += end - begin;
      }
    }
  }
}

// Reports, per fault window, how the pipeline spent its time while the fault
// was open — the "which stage did this fault hurt" view.
obs::JsonValue AttributeFaultWindows(const WindowStages& in_window,
                                     const std::vector<fault::FaultEvent>& windows,
                                     TortureRow* row) {
  obs::JsonValue out = obs::JsonValue::Array();
  for (size_t i = 0; i < windows.size(); ++i) {
    const fault::FaultEvent& w = windows[i];
    std::string dominant = "-";
    sim::Time dominant_ns = 0;
    obs::JsonValue stages = obs::JsonValue::Object();
    for (const auto& [stage, ns] : in_window[i]) {
      stages.Set(stage, sim::ToMicros(ns));
      if (ns > dominant_ns) {
        dominant = stage;
        dominant_ns = ns;
      }
    }
    obs::JsonValue wj = obs::JsonValue::Object();
    wj.Set("fault", fault::FaultTypeName(w.type));
    wj.Set("node", w.node);
    wj.Set("at_us", sim::ToMicros(w.at));
    wj.Set("until_us", sim::ToMicros(w.until));
    wj.Set("dominant_stage", dominant);
    wj.Set("stages_us", std::move(stages));
    out.Append(std::move(wj));
    row->window_dominant.push_back(std::string(fault::FaultTypeName(w.type)) + ":" + dominant);
  }
  return out;
}

std::vector<TortureRow> g_rows;

std::string ReplProtocol() {
  const char* env = std::getenv("LINEFS_REPL_PROTOCOL");
  return env != nullptr && *env != '\0' ? env : "chain";
}

void RunOne(std::string label, fault::FaultPlan plan) {
  core::DfsConfig config = BenchConfig(core::DfsMode::kLineFS);
  config.repl.protocol = ReplProtocol();
  if (config.repl.protocol != "chain") {
    label += "/proto_" + config.repl.protocol;
  }
  // Fast failure detection: fault windows are short.
  config.heartbeat_interval = 200 * sim::kMillisecond;
  config.heartbeat_timeout = 300 * sim::kMillisecond;
  Experiment exp(config);
  core::LibFs* fs = exp.cluster().CreateClient(0);

  TortureRow row;
  row.label = label;
  row.spec = plan.ToSpec();
  std::vector<fault::FaultEvent> windows = plan.events();

  WindowStages in_window(windows.size());
  obs::CriticalPathFold& fold = exp.cluster().trace().fold();
  fold.SetFoldCallback(
      [&](const obs::OpBreakdown& op) { AddToFaultWindows(op, windows, &in_window); });

  fault::Injector injector(&exp.cluster(), std::move(plan));
  Status armed = injector.Arm();
  if (!armed.ok()) {
    std::fprintf(stderr, "bench_torture: cannot arm %s: %s\n", label.c_str(),
                 armed.message().c_str());
    std::abort();
  }

  workloads::Filebench bench(fs, workloads::Filebench::VarmailOptions(200));
  std::vector<sim::Task<>> tasks;
  tasks.push_back([](workloads::Filebench* bench) -> sim::Task<> {
    co_await bench->Preallocate();
    co_await bench->Run(kRunFor);
  }(&bench));
  exp.RunAll(std::move(tasks));
  exp.Drain(2 * sim::kSecond);  // Let the last heals land and sweepers settle.

  row.kops = bench.ops_per_second() / 1000.0;
  row.messages_dropped = injector.messages_dropped();
  row.fault_edges = injector.edges_applied();
  for (int n = 0; n < exp.cluster().num_nodes(); ++n) {
    if (exp.cluster().nicfs(n) != nullptr) {
      row.retransmits += exp.cluster().nicfs(n)->stats().repl_retransmits;
    }
  }

  exp.SetLabel("torture/" + label);
  exp.AddScalar("throughput_kops_per_sec", row.kops);
  exp.AddScalar("messages_dropped", static_cast<double>(row.messages_dropped));
  exp.AddScalar("repl_retransmits", static_cast<double>(row.retransmits));
  exp.AddScalar("fault_edges_applied", static_cast<double>(row.fault_edges));

  // Operations still in flight count as they stand; they fold, whole, later.
  for (const auto& [op, segments] : fold.OpenOps()) {
    AddToFaultWindows(fold.Breakdown(op, &segments), windows, &in_window);
  }
  fold.SetFoldCallback(nullptr);
  obs::JsonValue extra = obs::JsonValue::Object();
  extra.Set("fault_windows", AttributeFaultWindows(in_window, windows, &row));
  exp.SetExtra(std::move(extra));
  g_rows.push_back(std::move(row));
}

void RunSweep() {
  g_rows.clear();

  // Replay path: an explicit plan short-circuits the seed sweep.
  Result<fault::FaultPlan> env_plan = fault::FaultPlan::FromEnv();
  if (!env_plan.ok()) {
    std::fprintf(stderr, "bench_torture: bad LINEFS_FAULT_PLAN: %s\n",
                 env_plan.status().message().c_str());
    std::abort();
  }
  if (!env_plan->empty()) {
    RunOne("env_plan", std::move(*env_plan));
    return;
  }

  uint64_t seeds = 8;
  if (const char* env = std::getenv("LINEFS_TORTURE_SEEDS")) {
    seeds = std::strtoull(env, nullptr, 10);
  }
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    fault::ScheduleOptions sched;
    sched.num_nodes = 3;
    sched.first_fault = sim::kSecond;
    sched.last_heal = 7 * sim::kSecond;
    RunOne("seed" + std::to_string(seed), fault::RandomPlan(seed, sched));
  }
}

void BM_Torture(benchmark::State& state) {
  for (auto _ : state) {
    RunSweep();
  }
}

void PrintTable() {
  std::printf("\n=== Torture sweep: Varmail under seeded fault schedules ===\n");
  std::printf("%-10s %10s %10s %12s %8s  %s\n", "run", "kops/s", "dropped", "retransmits",
              "edges", "plan");
  for (const TortureRow& row : g_rows) {
    std::string one_line = row.spec;
    for (char& c : one_line) {
      if (c == '\n') {
        c = ';';
      }
    }
    std::printf("%-10s %10.1f %10llu %12llu %8llu  %s\n", row.label.c_str(), row.kops,
                (unsigned long long)row.messages_dropped, (unsigned long long)row.retransmits,
                (unsigned long long)row.fault_edges, one_line.c_str());
    // Which pipeline stage dominated the critical path inside each window.
    std::string dominant;
    for (const std::string& d : row.window_dominant) {
      if (!dominant.empty()) {
        dominant += ", ";
      }
      dominant += d;
    }
    std::printf("%-10s %*s stage-in-window: %s\n", "", 10, "",
                dominant.empty() ? "-" : dominant.c_str());
  }
}

}  // namespace
}  // namespace linefs::bench

BENCHMARK(linefs::bench::BM_Torture)->Iterations(1)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  linefs::bench::PrintTable();
  return linefs::bench::WriteBenchReport("torture");
}
