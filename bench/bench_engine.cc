// Event-engine microbenchmark (ISSUE 10): raw DES scheduler throughput,
// isolated from any file-system model. Three churn shapes stress the two
// tiers of the scheduler separately and together:
//
//   ring_churn  - same-instant Yield() storms: every resumption lands in the
//                 FIFO ready-ring, never touching the heap.
//   timer_churn - pseudo-random future sleeps: every event goes through the
//                 4-ary min-heap, with deep out-of-order inserts.
//   mixed_churn - the realistic blend (a few same-instant hops per timer),
//                 approximating the simulator's hot loop.
//   timer_cancel - the RPC pattern: each step arms a 10ms sim::Timer, sleeps
//                 a short pseudo-random time and cancels the timer, so the
//                 timer store churns but no timer ever fires.
//   cpu_churn   - the co-runner pattern: a 48-core sim::CpuPool kept full by
//                 48 runners of 100ms compute each, plus a seeded stream of
//                 short intruders that wait for a core and so force quantum
//                 handoffs. Uncontended stretches cost one event each; the
//                 cost lies in the handoffs.
//
// Each run reports sim.events_per_wall_sec plus the engine's final and peak
// queue depth, and runs that advance simulated time also report
// sim.events_per_sim_sec; bench_compare treats these scalars as informational
// (engine speed is tracked, not gated). timer_cancel must end at depth 0 and
// peak at two entries per task (its sleep and its armed timer).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>

#include "bench/harness.h"
#include "src/sim/cpu.h"
#include "src/sim/engine.h"
#include "src/sim/random.h"
#include "src/sim/task.h"
#include "src/sim/timer.h"

namespace linefs::bench {
namespace {

constexpr int kTasks = 64;
constexpr uint64_t kEventsPerTask = 200000;

constexpr int kChurnCores = 48;
constexpr int kChurnRounds = 20;  // Per runner: 2 s of simulated compute.
constexpr sim::Time kChurnRun = 100 * sim::kMillisecond;
constexpr double kIntruderGapMean = 200.0 * sim::kMicrosecond;

sim::Task<> YieldChurn(sim::Engine* engine, uint64_t events) {
  for (uint64_t i = 0; i < events; ++i) {
    co_await engine->Yield();
  }
}

sim::Task<> TimerChurn(sim::Engine* engine, uint64_t events, uint64_t seed) {
  // Deterministic LCG offsets: heap inserts arrive far out of order.
  uint64_t x = seed * 2654435761ULL + 1;
  for (uint64_t i = 0; i < events; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    co_await engine->SleepFor(static_cast<sim::Time>(1 + ((x >> 33) % 2000)));
  }
}

sim::Task<> MixedChurn(sim::Engine* engine, uint64_t events, uint64_t seed) {
  uint64_t x = seed * 2654435761ULL + 1;
  for (uint64_t i = 0; i < events; i += 4) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    co_await engine->SleepFor(static_cast<sim::Time>(1 + ((x >> 33) % 500)));
    co_await engine->Yield();
    co_await engine->Yield();
    co_await engine->Yield();
  }
}

sim::Task<> TimerCancelChurn(sim::Engine* engine, uint64_t events, uint64_t seed) {
  sim::Timer timeout(engine, [] {});
  uint64_t x = seed * 2654435761ULL + 1;
  for (uint64_t i = 0; i < events; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    timeout.Arm(engine->Now() + 10 * sim::kMillisecond);
    co_await engine->SleepFor(static_cast<sim::Time>(1 + ((x >> 33) % 2000)));
    timeout.Cancel();
  }
}

sim::Task<> CpuRunner(sim::CpuPool* pool, int account) {
  for (int i = 0; i < kChurnRounds; ++i) {
    co_await pool->Run(kChurnRun, sim::Priority::kNormal, account);
  }
}

sim::Task<> Intruder(sim::CpuPool* pool, int account, sim::Time work) {
  co_await pool->Run(work, sim::Priority::kNormal, account);
}

sim::Task<> IntruderStream(sim::Engine* engine, sim::CpuPool* pool, int account) {
  sim::Rng rng(42);
  sim::Time until = kChurnRounds * kChurnRun;
  while (true) {
    co_await engine->SleepFor(static_cast<sim::Time>(rng.Exponential(kIntruderGapMean)));
    if (engine->Now() >= until) {
      break;
    }
    sim::Time work = rng.UniformRange(10, 100) * sim::kMicrosecond;
    engine->Spawn(Intruder(pool, account, work), "intruder");
  }
}

// `setup` spawns the churn's tasks and returns whatever they use that must
// outlive the run (cpu_churn's pool).
template <typename Setup>
void RunChurn(benchmark::State& state, const char* label, Setup setup) {
  double events_per_sec = 0;
  for (auto _ : state) {
    sim::Engine engine;
    auto t0 = std::chrono::steady_clock::now();
    [[maybe_unused]] auto keep = setup(&engine);
    engine.Run();
    double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    double events = static_cast<double>(engine.events_processed());
    events_per_sec = wall > 0 ? events / wall : 0;
    obs::BenchRun run;
    run.label = label;
    run.scalars.emplace_back("sim.events_per_wall_sec", events_per_sec);
    if (engine.Now() > 0) {
      run.scalars.emplace_back("sim.events_per_sim_sec", events / sim::ToSeconds(engine.Now()));
    }
    run.scalars.emplace_back("events_processed", static_cast<double>(engine.events_processed()));
    run.scalars.emplace_back("queue_depth_final", static_cast<double>(engine.queue_depth()));
    run.scalars.emplace_back("queue_depth_max", static_cast<double>(engine.max_queue_depth()));
    run.virtual_time_us = sim::ToMicros(engine.Now());
    BenchReport::Get().AddRun(std::move(run));
  }
  state.counters["Mev/s"] = events_per_sec / 1e6;
  state.SetLabel(label);
}

// Setup for the engine-only shapes: kTasks tasks made by `make(engine, c)`.
template <typename Make>
auto EachTask(Make make) {
  return [make](sim::Engine* engine) {
    for (int c = 0; c < kTasks; ++c) {
      engine->Spawn(make(engine, static_cast<uint64_t>(c) + 1), "churn");
    }
    return 0;
  };
}

void BM_RingChurn(benchmark::State& state) {
  RunChurn(state, "ring_churn", EachTask([](sim::Engine* engine, uint64_t) {
             return YieldChurn(engine, kEventsPerTask);
           }));
}

void BM_TimerChurn(benchmark::State& state) {
  RunChurn(state, "timer_churn", EachTask([](sim::Engine* engine, uint64_t seed) {
             return TimerChurn(engine, kEventsPerTask, seed);
           }));
}

void BM_MixedChurn(benchmark::State& state) {
  RunChurn(state, "mixed_churn", EachTask([](sim::Engine* engine, uint64_t seed) {
             return MixedChurn(engine, kEventsPerTask, seed);
           }));
}

void BM_TimerCancel(benchmark::State& state) {
  RunChurn(state, "timer_cancel", EachTask([](sim::Engine* engine, uint64_t seed) {
             return TimerCancelChurn(engine, kEventsPerTask, seed);
           }));
}

void BM_CpuChurn(benchmark::State& state) {
  RunChurn(state, "cpu_churn", [](sim::Engine* engine) {
    sim::CpuPool::Options options;
    options.cores = kChurnCores;
    auto pool = std::make_unique<sim::CpuPool>(engine, "host", options);
    int account = pool->RegisterAccount("churn");
    for (int r = 0; r < kChurnCores; ++r) {
      engine->Spawn(CpuRunner(pool.get(), account), "runner");
    }
    engine->Spawn(IntruderStream(engine, pool.get(), account), "intruder");
    return pool;
  });
}

}  // namespace
}  // namespace linefs::bench

BENCHMARK(linefs::bench::BM_RingChurn)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(linefs::bench::BM_TimerChurn)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(linefs::bench::BM_MixedChurn)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(linefs::bench::BM_TimerCancel)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(linefs::bench::BM_CpuChurn)->Iterations(1)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return linefs::bench::WriteBenchReport("engine");
}
