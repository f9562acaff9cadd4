// Simulated multi-core CPU pool with priority scheduling.
//
// Models the two processor complexes of a LineFS node: the host Xeon (48 cores
// @ 2.2 GHz) and the BlueField's ARM Cortex-A72 complex (16 cores @ 800 MHz).
//
// Scheduling model:
//  - A compute request is sliced into quanta (default 500us). At each quantum
//    boundary a running task gives its core to the first waiter of the
//    highest waiting priority and queues again behind it: round-robin
//    fairness among equal priorities, and a higher-priority arrival waits at
//    most one quantum (coarse preemption). This is what produces the
//    millisecond-scale tail latencies the paper reports for host-based DFSes
//    under co-located CPU-intensive jobs.
//  - A boundary only matters when someone is waiting, so the simulator pays
//    for boundaries only then. A task that takes a free core (so no one is
//    waiting) with more than one quantum of work runs it as one *stretch*:
//    one timer, in a slot the pool owns, set for the end of the work.
//  - A task that finds no free core queues and *claims* the unclaimed
//    stretch whose next boundary (start + k * quantum, at or after now)
//    comes first and falls before that stretch ends; the claim pulls the
//    stretch's timer in to the boundary, where the stretch charges what it
//    ran and releases its core, at the instant it would release it running
//    quantum by quantum. A claim is a demand for one release, not a
//    reservation: the core goes to whichever waiter is first when it frees.
//  - A task that had to wait pays dispatch latency, occasional scheduling
//    noise (jitter) and a context switch when it gets a core, modelling the
//    wakeup/dispatch overheads of §2.1 (I3). The releaser draws the jitter
//    at the handoff and schedules the waiter once, at the end of all of
//    that plus its first slice: one event per handoff.
//  - kHigh/kRealtime arrivals may instead preempt: after `preempt_latency`
//    they take a core even if none is free (the pool owes one back, and the
//    debt claims a boundary like a waiter), then pay one such handoff.
//  - Per-account busy-time accounting supports the CPU-utilization comparisons
//    of Table 1 and the interference experiments (Fig. 6, Fig. 7). A task is
//    charged when its stretch or slice ends.
//  - Stop()/Resume() model a host OS crash and reboot (§3.5): Stop claims
//    every stretch's next boundary, so a stopped pool finishes in-flight
//    quanta but grants no further cores until Resume().

#ifndef SRC_SIM_CPU_H_
#define SRC_SIM_CPU_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/random.h"
#include "src/sim/task.h"
#include "src/sim/time.h"
#include "src/sim/timer.h"

namespace linefs::sim {

enum class Priority : int {
  kLow = 0,
  kNormal = 1,
  kHigh = 2,
  kRealtime = 3,
};
inline constexpr int kPriorityLevels = 4;

class CpuPool {
 public:
  struct Options {
    int cores = 1;
    double freq_ghz = 2.2;
    // Relative instructions-per-cycle factor; wimpy ARM cores get < 1.
    double ipc_factor = 1.0;
    Time quantum = 500 * kMicrosecond;
    Time context_switch_cost = 3 * kMicrosecond;
    Time dispatch_latency = 2 * kMicrosecond;
    // Scheduling noise under contention: with probability `jitter_prob`, a
    // task that had to wait for a core suffers an additional ~Exp(jitter_mean)
    // delay (IRQs, cache/NUMA effects, runqueue imbalance). This is what
    // produces realistic long latency tails on busy hosts (Table 3).
    double jitter_prob = 0.02;
    Time jitter_mean = 2 * kMillisecond;
    // kHigh/kRealtime arrivals preempt a running task after this latency
    // (briefly oversubscribing the pool, as the victim is descheduled).
    Time preempt_latency = 20 * kMicrosecond;
  };

  CpuPool(Engine* engine, std::string name, const Options& options);
  CpuPool(const CpuPool&) = delete;
  CpuPool& operator=(const CpuPool&) = delete;

  // Registers a named accounting bucket; returns its id.
  int RegisterAccount(const std::string& name);

  // Occupies one core for `work` nanoseconds of pool-reference-speed compute,
  // time-sliced as described above. `work` is the uncontended duration.
  Task<> Run(Time work, Priority priority, int account);

  // Converts an instruction count into this pool's uncontended compute time.
  Time CyclesToTime(uint64_t cycles) const {
    double eff_hz = options_.freq_ghz * options_.ipc_factor;
    return static_cast<Time>(static_cast<double>(cycles) / eff_hz);
  }

  // Convenience: Run() for `cycles` instructions.
  Task<> RunCycles(uint64_t cycles, Priority priority, int account) {
    return Run(CyclesToTime(cycles), priority, account);
  }

  // Host-crash modelling.
  void Stop();
  void Resume();
  bool stopped() const { return stopped_; }

  int cores() const { return options_.cores; }
  int busy_cores() const { return options_.cores - free_cores_; }
  size_t waiter_count() const;

  // Total core-busy simulated seconds charged to `account`.
  double BusySeconds(int account) const;
  double TotalBusySeconds() const;
  const std::string& account_name(int account) const { return account_names_[account]; }
  int account_count() const { return static_cast<int>(account_names_.size()); }

  const std::string& name() const { return name_; }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    const char* label;  // The waiting task's label; its handoff runs under it.
    Time slice;         // Work it runs once handed a core.
  };

  struct CoreAwaiter {
    CpuPool* pool;
    Priority priority;
    Waiter waiter;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };

  // One uncontended run of more than a quantum. `owner` is null while the
  // slot is free; the timer outlives the fire that lets the owner finish.
  struct Stretch {
    explicit Stretch(Engine* engine) : timer(engine, [this] { owner.resume(); }) {}
    Timer timer;
    std::coroutine_handle<> owner;
    Time start = 0;
    Time end = 0;
    Time next = 0;  // A quantum boundary no later than the next one.
  };

  struct StretchAwaiter {
    CpuPool* pool;
    Time work;
    Stretch* stretch = nullptr;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    Time await_resume();  // Frees the slot; returns the time run.
  };

  // Queues the caller until a release hands it a core and `slice` has run.
  CoreAwaiter AwaitCore(Priority priority, Time slice) {
    return CoreAwaiter{this, priority, {nullptr, nullptr, slice}};
  }
  void ReleaseCore();
  // Hands a core to the first waiter of the highest waiting priority; false
  // if no one waits.
  bool HandOff();
  // Dispatch, jitter and context switch ahead of `slice`, from now.
  Time HandoffDelay(Time slice);
  // Pulls in the unclaimed stretch with the earliest boundary before its end.
  void ClaimBoundary();
  // Moves the release of `unclaimed_[i]` to the boundary `at`.
  void Claim(size_t i, Time at);
  // The first start + k * quantum, k >= 1, not before now.
  Time NextBoundary(Stretch& s);
  void ChargeBusy(int account, Time t);

  Engine* engine_;
  std::string name_;
  Options options_;
  int free_cores_;
  bool stopped_ = false;
  std::deque<Waiter*> waiters_[kPriorityLevels];
  // Made on first use; a stretch holds a core, so there are at most `cores`.
  std::deque<Stretch> stretches_;
  std::vector<Stretch*> idle_stretches_;  // Slots with no owner.
  std::vector<Stretch*> unclaimed_;       // Running, unclaimed, in start order.
  std::vector<std::string> account_names_;
  std::vector<Time> busy_ns_;
  Rng jitter_rng_{0xC0FFEE};  // Deterministic per-pool noise.
};

}  // namespace linefs::sim

#endif  // SRC_SIM_CPU_H_
