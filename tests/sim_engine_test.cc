// Unit tests for the discrete-event engine: tasks, time, sync primitives,
// queues, CPU pools, and links.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/obs/selfprof.h"
#include "src/sim/cpu.h"
#include "src/sim/engine.h"
#include "src/sim/link.h"
#include "src/sim/queue.h"
#include "src/sim/random.h"
#include "src/sim/stats.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/sim/time.h"
#include "src/sim/timer.h"

namespace linefs::sim {
namespace {

TEST(Engine, TimeStartsAtZero) {
  Engine engine;
  EXPECT_EQ(engine.Now(), 0);
}

TEST(Engine, SleepAdvancesTime) {
  Engine engine;
  Time end = -1;
  engine.RunToCompletion([](Engine* e, Time* out) -> Task<> {
    co_await e->SleepFor(5 * kMicrosecond);
    co_await e->SleepFor(10 * kMicrosecond);
    *out = e->Now();
  }(&engine, &end));
  EXPECT_EQ(end, 15 * kMicrosecond);
}

TEST(Engine, SleepUntilAbsoluteTime) {
  Engine engine;
  Time end = -1;
  engine.RunToCompletion([](Engine* e, Time* out) -> Task<> {
    co_await e->SleepUntil(42 * kMillisecond);
    *out = e->Now();
  }(&engine, &end));
  EXPECT_EQ(end, 42 * kMillisecond);
}

TEST(Engine, SameTimeEventsRunInFifoOrder) {
  Engine engine;
  std::vector<int> order;
  auto spawn_one = [&](int id) {
    engine.Spawn([](Engine* e, std::vector<int>* order, int id) -> Task<> {
      co_await e->SleepFor(kMicrosecond);
      order->push_back(id);
    }(&engine, &order, id));
  };
  for (int i = 0; i < 5; ++i) {
    spawn_one(i);
  }
  engine.Run();
  ASSERT_EQ(order.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(Engine, TaskReturnValue) {
  Engine engine;
  int result = 0;
  engine.RunToCompletion([](Engine* e, int* out) -> Task<> {
    auto child = [](Engine* e) -> Task<int> {
      co_await e->SleepFor(kMicrosecond);
      co_return 1234;
    };
    *out = co_await child(e);
  }(&engine, &result));
  EXPECT_EQ(result, 1234);
}

TEST(Engine, NestedTasksCompose) {
  Engine engine;
  Time end = -1;
  engine.RunToCompletion([](Engine* e, Time* out) -> Task<> {
    auto inner = [](Engine* e) -> Task<int> {
      co_await e->SleepFor(3 * kMicrosecond);
      co_return 1;
    };
    auto middle = [inner](Engine* e) -> Task<int> {
      int a = co_await inner(e);
      int b = co_await inner(e);
      co_return a + b;
    };
    int total = co_await middle(e);
    EXPECT_EQ(total, 2);
    *out = e->Now();
  }(&engine, &end));
  EXPECT_EQ(end, 6 * kMicrosecond);
}

TEST(Engine, RunUntilAdvancesClockExactly) {
  Engine engine;
  engine.Spawn([](Engine* e) -> Task<> { co_await e->SleepFor(kSecond); }(&engine));
  engine.RunUntil(100 * kMillisecond);
  EXPECT_EQ(engine.Now(), 100 * kMillisecond);
  EXPECT_EQ(engine.live_tasks(), 1);
  engine.Run();
  EXPECT_EQ(engine.live_tasks(), 0);
  EXPECT_EQ(engine.Now(), kSecond);
}

Task<> SleepThenRecord(Engine* e, Time t, std::vector<int>* order, int id) {
  co_await e->SleepUntil(t);
  order->push_back(id);
}

TEST(Timer, FiresInItsSeqSlotAmongSameInstantEvents) {
  Engine engine;
  std::vector<int> order;
  Timer early(&engine, [&] {
    order.push_back(0);
    // Scheduled at the fire's instant: runs after everything already pending
    // there, including the plain sleep whose seq precedes this fire's work.
    engine.Spawn(SleepThenRecord(&engine, engine.Now(), &order, 9));
  });
  Timer late(&engine, [&] { order.push_back(2); });
  early.Arm(10);  // Takes its seq before the task's sleep...
  engine.Spawn(SleepThenRecord(&engine, 10, &order, 1));
  engine.RunUntil(0);  // ...which is scheduled here...
  late.Arm(10);        // ...and before this one.
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9}));
  EXPECT_EQ(engine.Now(), 10);
}

TEST(Timer, CancelledTimerNeverRunsAndIsNeverCounted) {
  Engine engine;
  int fired = 0;
  Timer timer(&engine, [&] { ++fired; });
  timer.Arm(5 * kMillisecond);
  EXPECT_TRUE(timer.armed());
  EXPECT_EQ(engine.queue_depth(), 1u);
  timer.Cancel();
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(engine.queue_depth(), 0u);
  engine.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(engine.events_processed(), 0u);
  EXPECT_EQ(engine.Now(), 0);

  // The RPC pattern: arm a long timeout around short work, cancel on reply.
  engine.RunToCompletion([](Engine* e, Timer* t) -> Task<> {
    t->Arm(e->Now() + 10 * kMillisecond);
    co_await e->SleepFor(kMicrosecond);
    t->Cancel();
  }(&engine, &timer));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(engine.events_processed(), 2u);  // The task's start and its wakeup.
  EXPECT_EQ(engine.queue_depth(), 0u);
  EXPECT_EQ(engine.Now(), kMicrosecond);

  // Destroying an armed timer cancels it.
  {
    Timer scoped(&engine, [&] { ++fired; });
    scoped.Arm(kSecond);
    EXPECT_EQ(engine.queue_depth(), 1u);
  }
  EXPECT_EQ(engine.queue_depth(), 0u);
  engine.Run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, ArmingAgainMovesTheFire) {
  Engine engine;
  std::vector<Time> fires;
  Timer timer(&engine, [&] { fires.push_back(engine.Now()); });
  timer.Arm(5);
  timer.Arm(20);
  EXPECT_EQ(engine.queue_depth(), 1u);
  engine.Run();
  EXPECT_EQ(fires, (std::vector<Time>{20}));
}

TEST(Timer, ManyTimersFireInOrderAfterCancellingHalf) {
  Engine engine;
  std::vector<int> fired;
  std::vector<std::unique_ptr<Timer>> timers;
  uint64_t x = 12345;
  std::vector<std::pair<Time, int>> expected;
  for (int i = 0; i < 200; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    Time at = static_cast<Time>((x >> 33) % 50);  // Plenty of same-instant ties.
    timers.push_back(std::make_unique<Timer>(&engine, [&fired, i] { fired.push_back(i); }));
    timers.back()->Arm(at);
    if (i % 2 == 0) {
      expected.emplace_back(at, i);
    }
  }
  for (int i = 1; i < 200; i += 2) {
    timers[i]->Cancel();
  }
  EXPECT_EQ(engine.queue_depth(), 100u);
  engine.Run();
  // Sampled after each fire: the first leaves the 99 survivors pending.
  EXPECT_EQ(engine.max_queue_depth(), 99u);
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(fired.size(), expected.size());
  for (size_t k = 0; k < fired.size(); ++k) {
    EXPECT_EQ(fired[k], expected[k].second) << "at position " << k;
  }
  EXPECT_EQ(engine.events_processed(), 100u);
}

TEST(Timer, RunUntilFiresOnlyTimersDueByThen) {
  Engine engine;
  std::vector<Time> fires;
  auto record = [&] { fires.push_back(engine.Now()); };
  Timer a(&engine, record);
  Timer b(&engine, record);
  Timer c(&engine, record);
  a.Arm(5 * kMillisecond);
  b.Arm(10 * kMillisecond);
  c.Arm(15 * kMillisecond);
  engine.RunUntil(10 * kMillisecond);
  EXPECT_EQ(fires, (std::vector<Time>{5 * kMillisecond, 10 * kMillisecond}));
  EXPECT_EQ(engine.Now(), 10 * kMillisecond);
  EXPECT_TRUE(c.armed());
  EXPECT_EQ(engine.queue_depth(), 1u);
  engine.RunUntil(12 * kMillisecond);
  EXPECT_EQ(fires.size(), 2u);
  EXPECT_EQ(engine.Now(), 12 * kMillisecond);
  engine.Run();
  EXPECT_EQ(fires.back(), 15 * kMillisecond);
}

TEST(Timer, SelfProfilerCountsFiresUnderTheArmingLabel) {
  Engine engine;
  obs::SelfProfiler profiler(&engine);
  int fired = 0;
  Timer kept(&engine, [&] { ++fired; });
  Timer dropped(&engine, [&] { ++fired; });
  engine.Spawn(
      [](Engine* e, Timer* kept, Timer* dropped) -> Task<> {
        kept->Arm(e->Now() + 5);
        dropped->Arm(e->Now() + 10);
        co_await e->SleepFor(7);
        dropped->Cancel();
      }(&engine, &kept, &dropped),
      "armer");
  engine.Run();
  profiler.Detach();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.events_processed(), 3u);  // Start, the kept fire, the wakeup.
  EXPECT_EQ(profiler.total_events(), engine.events_processed());
  std::vector<obs::SelfProfiler::ComponentStat> comps = profiler.Components();
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].label, "armer");
  EXPECT_EQ(comps[0].events, 3u);
}

TEST(Semaphore, LimitsConcurrency) {
  Engine engine;
  Semaphore sem(&engine, 2);
  int active = 0;
  int max_active = 0;
  for (int i = 0; i < 6; ++i) {
    engine.Spawn([](Engine* e, Semaphore* sem, int* active, int* max_active) -> Task<> {
      co_await sem->Acquire();
      ++*active;
      *max_active = std::max(*max_active, *active);
      co_await e->SleepFor(kMillisecond);
      --*active;
      sem->Release();
    }(&engine, &sem, &active, &max_active));
  }
  engine.Run();
  EXPECT_EQ(max_active, 2);
  EXPECT_EQ(engine.Now(), 3 * kMillisecond);
}

TEST(Mutex, MutualExclusion) {
  Engine engine;
  Mutex mu(&engine);
  int counter = 0;
  for (int i = 0; i < 4; ++i) {
    engine.Spawn([](Engine* e, Mutex* mu, int* counter) -> Task<> {
      co_await mu->Lock();
      int snapshot = *counter;
      co_await e->SleepFor(kMicrosecond);
      *counter = snapshot + 1;
      mu->Unlock();
    }(&engine, &mu, &counter));
  }
  engine.Run();
  EXPECT_EQ(counter, 4);
}

TEST(WaitGroup, WaitsForAll) {
  Engine engine;
  WaitGroup wg(&engine);
  wg.Add(3);
  Time done_at = -1;
  for (int i = 1; i <= 3; ++i) {
    engine.Spawn([](Engine* e, WaitGroup* wg, int i) -> Task<> {
      co_await e->SleepFor(i * kMillisecond);
      wg->Done();
    }(&engine, &wg, i));
  }
  engine.Spawn([](Engine* e, WaitGroup* wg, Time* out) -> Task<> {
    co_await wg->Wait();
    *out = e->Now();
  }(&engine, &wg, &done_at));
  engine.Run();
  EXPECT_EQ(done_at, 3 * kMillisecond);
}

TEST(Barrier, SynchronisesParties) {
  Engine engine;
  Barrier barrier(&engine, 3);
  std::vector<Time> pass_times;
  for (int i = 1; i <= 3; ++i) {
    engine.Spawn([](Engine* e, Barrier* b, std::vector<Time>* out, int i) -> Task<> {
      co_await e->SleepFor(i * kMillisecond);
      co_await b->Arrive();
      out->push_back(e->Now());
    }(&engine, &barrier, &pass_times, i));
  }
  engine.Run();
  ASSERT_EQ(pass_times.size(), 3u);
  for (Time t : pass_times) {
    EXPECT_EQ(t, 3 * kMillisecond);  // Everyone passes when the slowest arrives.
  }
}

TEST(Queue, FifoDelivery) {
  Engine engine;
  Queue<int> q(&engine);
  std::vector<int> received;
  engine.Spawn([](Queue<int>* q, std::vector<int>* out) -> Task<> {
    while (true) {
      std::optional<int> v = co_await q->Pop();
      if (!v.has_value()) {
        break;
      }
      out->push_back(*v);
    }
  }(&q, &received));
  engine.Spawn([](Engine* e, Queue<int>* q) -> Task<> {
    for (int i = 0; i < 5; ++i) {
      q->Push(i);
      co_await e->SleepFor(kMicrosecond);
    }
    q->Close();
  }(&engine, &q));
  engine.Run();
  ASSERT_EQ(received.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(received[i], i);
  }
}

TEST(Queue, PopBlocksUntilPush) {
  Engine engine;
  Queue<int> q(&engine);
  Time got_at = -1;
  engine.Spawn([](Engine* e, Queue<int>* q, Time* out) -> Task<> {
    std::optional<int> v = co_await q->Pop();
    EXPECT_TRUE(v.has_value());
    EXPECT_EQ(*v, 7);
    *out = e->Now();
  }(&engine, &q, &got_at));
  engine.Spawn([](Engine* e, Queue<int>* q) -> Task<> {
    co_await e->SleepFor(2 * kMillisecond);
    q->Push(7);
  }(&engine, &q));
  engine.Run();
  EXPECT_EQ(got_at, 2 * kMillisecond);
}

TEST(Queue, MultipleConsumersHandOffInOrder) {
  Engine engine;
  Queue<int> q(&engine);
  std::vector<int> order;
  for (int c = 0; c < 3; ++c) {
    engine.Spawn([](Queue<int>* q, std::vector<int>* order) -> Task<> {
      std::optional<int> v = co_await q->Pop();
      if (v.has_value()) {
        order->push_back(*v);
      }
    }(&q, &order));
  }
  engine.Spawn([](Engine* e, Queue<int>* q) -> Task<> {
    co_await e->SleepFor(kMicrosecond);
    q->Push(1);
    q->Push(2);
    q->Push(3);
  }(&engine, &q));
  engine.Run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 3);
}

TEST(CpuPool, UncontendedRunTakesExactTime) {
  Engine engine;
  CpuPool::Options opt;
  opt.cores = 4;
  CpuPool cpu(&engine, "host", opt);
  int acct = cpu.RegisterAccount("app");
  engine.RunToCompletion([](CpuPool* cpu, int acct) -> Task<> {
    co_await cpu->Run(3 * kMillisecond, Priority::kNormal, acct);
  }(&cpu, acct));
  EXPECT_EQ(engine.Now(), 3 * kMillisecond);
  EXPECT_DOUBLE_EQ(cpu.BusySeconds(acct), ToSeconds(3 * kMillisecond));
}

TEST(CpuPool, ContentionSerialisesWork) {
  Engine engine;
  CpuPool::Options opt;
  opt.cores = 1;
  opt.context_switch_cost = 0;
  opt.dispatch_latency = 0;
  CpuPool cpu(&engine, "host", opt);
  int acct = cpu.RegisterAccount("app");
  for (int i = 0; i < 2; ++i) {
    engine.Spawn([](CpuPool* cpu, int acct) -> Task<> {
      co_await cpu->Run(4 * kMillisecond, Priority::kNormal, acct);
    }(&cpu, acct));
  }
  engine.Run();
  // 8ms of work on 1 core.
  EXPECT_EQ(engine.Now(), 8 * kMillisecond);
}

TEST(CpuPool, HighPriorityPreemptsQuickly) {
  Engine engine;
  CpuPool::Options opt;
  opt.cores = 1;
  opt.quantum = 500 * kMicrosecond;
  opt.context_switch_cost = 0;
  opt.dispatch_latency = 0;
  opt.jitter_prob = 0;
  CpuPool cpu(&engine, "host", opt);
  int lo = cpu.RegisterAccount("background");
  int hi = cpu.RegisterAccount("dfs");
  // A long low-priority hog.
  engine.Spawn([](CpuPool* cpu, int lo) -> Task<> {
    co_await cpu->Run(100 * kMillisecond, Priority::kLow, lo);
  }(&cpu, lo));
  Time hi_done = -1;
  engine.Spawn([](Engine* e, CpuPool* cpu, int hi, Time* out) -> Task<> {
    co_await e->SleepFor(100 * kMicrosecond);  // Arrive mid-quantum.
    co_await cpu->Run(50 * kMicrosecond, Priority::kHigh, hi);
    *out = e->Now();
  }(&engine, &cpu, hi, &hi_done));
  Time normal_done = -1;
  engine.Spawn([](Engine* e, CpuPool* cpu, int hi, Time* out) -> Task<> {
    co_await e->SleepFor(100 * kMicrosecond);
    co_await cpu->Run(50 * kMicrosecond, Priority::kNormal, hi);
    *out = e->Now();
  }(&engine, &cpu, hi, &normal_done));
  engine.Run();
  // kHigh preempts after preempt_latency (20us) and runs its 50us.
  EXPECT_EQ(hi_done, 170 * kMicrosecond);
  // kNormal has no preemption right: it waits for a quantum end.
  EXPECT_GE(normal_done, 500 * kMicrosecond);
}

TEST(CpuPool, StopBlocksNewWorkUntilResume) {
  Engine engine;
  CpuPool::Options opt;
  opt.cores = 2;
  opt.context_switch_cost = 0;
  opt.dispatch_latency = 0;
  CpuPool cpu(&engine, "host", opt);
  int acct = cpu.RegisterAccount("app");
  Time done_at = -1;
  engine.Spawn([](Engine* e, CpuPool* cpu, int acct, Time* out) -> Task<> {
    co_await e->SleepFor(kMillisecond);  // Arrives while the pool is stopped.
    co_await cpu->Run(kMillisecond, Priority::kNormal, acct);
    *out = e->Now();
  }(&engine, &cpu, acct, &done_at));
  engine.Spawn([](Engine* e, CpuPool* cpu) -> Task<> {
    cpu->Stop();
    co_await e->SleepFor(10 * kMillisecond);
    cpu->Resume();
  }(&engine, &cpu));
  engine.Run();
  EXPECT_EQ(done_at, 11 * kMillisecond);
}

// Options with no jitter and round dispatch/switch costs, so the expected
// instants below can be read off the scheduling model by hand.
CpuPool::Options ExactOptions(int cores) {
  CpuPool::Options opt;
  opt.cores = cores;
  opt.quantum = 500 * kMicrosecond;
  opt.dispatch_latency = 2 * kMicrosecond;
  opt.context_switch_cost = 3 * kMicrosecond;
  opt.jitter_prob = 0;
  return opt;
}

Task<> RunAt(Engine* e, CpuPool* cpu, Time arrive, Time work, int acct, Time* done) {
  co_await e->SleepUntil(arrive);
  co_await cpu->Run(work, Priority::kNormal, acct);
  *done = e->Now();
}

TEST(CpuPool, UncontendedLongRunIsOneEvent) {
  Engine engine;
  CpuPool cpu(&engine, "host", ExactOptions(2));
  int acct = cpu.RegisterAccount("app");
  engine.RunToCompletion([](CpuPool* cpu, int acct) -> Task<> {
    co_await cpu->Run(100 * kMillisecond, Priority::kNormal, acct);
  }(&cpu, acct));
  // The spawn's start event plus one timer fire: no per-quantum events.
  EXPECT_EQ(engine.events_processed(), 2u);
  EXPECT_EQ(engine.Now(), 100 * kMillisecond);
  EXPECT_DOUBLE_EQ(cpu.BusySeconds(acct), ToSeconds(100 * kMillisecond));
  EXPECT_EQ(cpu.busy_cores(), 0);
}

TEST(CpuPool, WaiterGetsTheCoreAtTheStretchsNextBoundary) {
  Engine engine;
  CpuPool cpu(&engine, "host", ExactOptions(1));
  int acct = cpu.RegisterAccount("app");
  Time long_done = -1;
  Time short_done = -1;
  engine.Spawn(RunAt(&engine, &cpu, 0, 100 * kMillisecond, acct, &long_done));
  engine.Spawn(RunAt(&engine, &cpu, 1200 * kMicrosecond, 300 * kMicrosecond, acct, &short_done));
  engine.Run();
  // The waiter arrives mid-quantum and takes the core at the boundary
  // (1.5ms), then pays dispatch + context switch before its 300us.
  EXPECT_EQ(short_done, (1500 + 2 + 3 + 300) * kMicrosecond);
  // The displaced task waits out those 305us and pays its own dispatch +
  // context switch: exactly where the per-quantum loop would end it.
  EXPECT_EQ(long_done, 100 * kMillisecond + (305 + 5) * kMicrosecond);
  EXPECT_DOUBLE_EQ(cpu.BusySeconds(acct),
                   ToSeconds(100 * kMillisecond + 300 * kMicrosecond + 2 * 3 * kMicrosecond));
}

TEST(CpuPool, StopMidStretchYieldsAtTheNextBoundaryUntilResume) {
  Engine engine;
  CpuPool cpu(&engine, "host", ExactOptions(1));
  int acct = cpu.RegisterAccount("app");
  Time long_done = -1;
  Time short_done = -1;
  engine.Spawn(RunAt(&engine, &cpu, 0, 10 * kMillisecond, acct, &long_done));
  engine.Spawn(RunAt(&engine, &cpu, 2 * kMillisecond, 100 * kMicrosecond, acct, &short_done));
  engine.Spawn([](Engine* e, CpuPool* cpu) -> Task<> {
    co_await e->SleepUntil(1200 * kMicrosecond);
    cpu->Stop();
    co_await e->SleepUntil(5 * kMillisecond);
    cpu->Resume();
  }(&engine, &cpu));
  engine.RunUntil(4 * kMillisecond);
  // The in-flight quantum ended at 1.5ms; since then no core was granted.
  EXPECT_EQ(cpu.busy_cores(), 0);
  EXPECT_EQ(cpu.waiter_count(), 2u);
  EXPECT_DOUBLE_EQ(cpu.BusySeconds(acct), ToSeconds(1500 * kMicrosecond));
  engine.Run();
  // Resume hands the core to the first waiter (the stopped task, 500us), then
  // the 100us arrival runs, then the stopped task finishes its last 7.5ms.
  EXPECT_EQ(short_done, (5000 + 505 + 105) * kMicrosecond);
  EXPECT_EQ(long_done, (5610 + 505 + 7500) * kMicrosecond);
}

TEST(CpuPool, SameJitterSeedGivesIdenticalCompletionTimes) {
  auto run = [](double jitter_prob) {
    Engine engine;
    CpuPool::Options opt = ExactOptions(2);
    opt.jitter_prob = jitter_prob;
    CpuPool cpu(&engine, "host", opt);
    int acct = cpu.RegisterAccount("app");
    std::vector<Time> done(12, -1);
    for (size_t i = 0; i < done.size(); ++i) {
      Time arrive = static_cast<Time>(i) * 170 * kMicrosecond;
      Time work = static_cast<Time>(1 + i % 4) * 400 * kMicrosecond;
      engine.Spawn(RunAt(&engine, &cpu, arrive, work, acct, &done[i]));
    }
    engine.Run();
    return done;
  };
  std::vector<Time> first = run(0.5);
  EXPECT_EQ(first, run(0.5));
  EXPECT_NE(first, run(0));  // The jitter draws did delay someone.
}

TEST(CpuPool, HandoffsRunUnderTheWaitingTasksLabel) {
  Engine engine;
  obs::SelfProfiler profiler(&engine);
  CpuPool cpu(&engine, "host", ExactOptions(1));
  int acct = cpu.RegisterAccount("app");
  Time alpha_done = -1;
  Time beta_done = -1;
  engine.Spawn(RunAt(&engine, &cpu, 0, 2 * kMillisecond, acct, &alpha_done), "alpha");
  engine.Spawn(RunAt(&engine, &cpu, 0, 2 * kMillisecond, acct, &beta_done), "beta");
  engine.Run();
  profiler.Detach();
  // beta claims alpha's first boundary; from then on the two alternate one
  // 505us handoff at a time.
  EXPECT_EQ(alpha_done, 3530 * kMicrosecond);
  EXPECT_EQ(beta_done, 4035 * kMicrosecond);
  // Each task: its start, its sleep to the arrival instant, four quanta.
  // alpha's first quantum is its stretch's claimed fire, armed by alpha and
  // pulled in by beta; every other quantum is a handoff from the other task.
  std::vector<obs::SelfProfiler::ComponentStat> comps = profiler.Components();
  ASSERT_EQ(comps.size(), 2u);
  for (const auto& c : comps) {
    EXPECT_EQ(c.events, 6u) << c.label;
  }
  EXPECT_EQ(profiler.total_events(), engine.events_processed());
}

TEST(CpuPool, CyclesToTimeScalesWithFrequencyAndIpc) {
  Engine engine;
  CpuPool::Options host_opt;
  host_opt.freq_ghz = 2.2;
  host_opt.ipc_factor = 1.0;
  CpuPool host(&engine, "host", host_opt);
  CpuPool::Options arm_opt;
  arm_opt.freq_ghz = 0.8;
  arm_opt.ipc_factor = 0.5;
  CpuPool arm(&engine, "arm", arm_opt);
  // The wimpy core takes (2.2/0.4) = 5.5x longer for the same work.
  EXPECT_NEAR(static_cast<double>(arm.CyclesToTime(22000)) /
                  static_cast<double>(host.CyclesToTime(22000)),
              5.5, 0.01);
}

TEST(Link, TransferTakesSerialisationPlusLatency) {
  Engine engine;
  Link link(&engine, "net", 1e9, 5 * kMicrosecond);  // 1 GB/s, 5us.
  Time done = -1;
  engine.RunToCompletion([](Engine* e, Link* l, Time* out) -> Task<> {
    co_await l->Transfer(1000 * 1000);  // 1MB -> 1ms serialization.
    *out = e->Now();
  }(&engine, &link, &done));
  EXPECT_EQ(done, kMillisecond + 5 * kMicrosecond);
}

TEST(Link, ConcurrentTransfersSerialise) {
  Engine engine;
  Link link(&engine, "net", 1e9, 0);
  std::vector<Time> done_times;
  for (int i = 0; i < 3; ++i) {
    engine.Spawn([](Engine* e, Link* l, std::vector<Time>* out) -> Task<> {
      co_await l->Transfer(1000 * 1000);
      out->push_back(e->Now());
    }(&engine, &link, &done_times));
  }
  engine.Run();
  ASSERT_EQ(done_times.size(), 3u);
  EXPECT_EQ(done_times[0], 1 * kMillisecond);
  EXPECT_EQ(done_times[1], 2 * kMillisecond);
  EXPECT_EQ(done_times[2], 3 * kMillisecond);
  EXPECT_EQ(link.total_bytes(), 3u * 1000 * 1000);
}

TEST(Link, TimeseriesAccountsBytesPerBucket) {
  Engine engine;
  Link link(&engine, "net", 1e9, 0);
  link.EnableTimeseries(kMillisecond);
  engine.RunToCompletion([](Link* l) -> Task<> {
    co_await l->Transfer(2 * 1000 * 1000);  // Spans two 1ms buckets.
  }(&link));
  const TimeSeries* ts = link.timeseries();
  ASSERT_NE(ts, nullptr);
  EXPECT_NEAR(ts->bucket_value(0), 1e6, 1e3);
  EXPECT_NEAR(ts->bucket_value(1), 1e6, 1e3);
}

TEST(Stats, LatencyPercentiles) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) {
    rec.Record(i * kMicrosecond);
  }
  EXPECT_EQ(rec.Min(), kMicrosecond);
  EXPECT_EQ(rec.Max(), 100 * kMicrosecond);
  EXPECT_NEAR(rec.Mean(), 50.5 * kMicrosecond, 1.0);
  EXPECT_NEAR(static_cast<double>(rec.Percentile(50)), 50.5 * kMicrosecond,
              static_cast<double>(kMicrosecond));
  EXPECT_NEAR(static_cast<double>(rec.Percentile(99)), 99 * kMicrosecond,
              static_cast<double>(2 * kMicrosecond));
}

TEST(Stats, TimeSeriesSpread) {
  TimeSeries ts(kSecond);
  ts.AddSpread(500 * kMillisecond, 2500 * kMillisecond, 2000.0);
  EXPECT_NEAR(ts.bucket_value(0), 500.0, 1.0);
  EXPECT_NEAR(ts.bucket_value(1), 1000.0, 1.0);
  EXPECT_NEAR(ts.bucket_value(2), 500.0, 1.0);
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, UniformInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(Zipf, SkewsTowardsHotKeys) {
  ZipfGenerator zipf(1000, 0.99, 1);
  int hot = 0;
  const int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) {
    if (zipf.Next() < 10) {
      ++hot;
    }
  }
  // With theta=0.99 the hottest 1% of keys should draw far more than 1%.
  EXPECT_GT(hot, kDraws / 10);
}

}  // namespace
}  // namespace linefs::sim
