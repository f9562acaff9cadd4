// Discrete-event simulation engine.
//
// The engine owns a time-ordered queue of scheduled coroutine resumptions and a
// monotonically advancing simulated clock. All hardware models (CPU pools,
// links, DMA engines, ...) express costs by scheduling resumptions in the
// future; the file-system logic runs as coroutine tasks on top.
//
// Determinism: events scheduled for the same instant run in scheduling order
// (FIFO, tie-broken by sequence number), so a given program produces identical
// results on every run. Cancellable timers (src/sim/timer.h) are kept outside
// the queue but draw their sequence numbers from the same counter, so a timer
// fire runs in the exact (time, seq) slot a plain sleep would have had.

#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <coroutine>
#include <cstdint>
#include <set>

#include "src/sim/event_queue.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace linefs::sim {

class Timer;

// Wall-clock observation hook for the self-profiler (src/obs/selfprof.h):
// when installed via Engine::SetObserver, OnEvent fires after every processed
// event with the label attributed to it, the wall-clock nanoseconds the
// resumption consumed, and the event-queue depth after it ran. The engine
// takes no wall-clock readings when no observer is installed, so the disabled
// cost is a single branch per event and simulated behaviour is identical
// either way.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;
  virtual void OnEvent(const char* label, uint64_t wall_ns, size_t queue_depth) = 0;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time Now() const { return now_; }

  // Schedules `handle` to resume at absolute time `t`. A past-due `t` is
  // clamped to now and counted: a nonzero clamp count usually means a
  // scheduling bug (a cost model computed a wake-up in the past), so the
  // bench harness exposes it as the `sim.schedule.clamped` counter.
  void ScheduleAt(Time t, std::coroutine_handle<> handle) {
    ++schedule_calls_;
    if (t < now_) {
      t = now_;
      ++schedule_clamped_;
    }
    queue_.Push(t, next_seq_++, current_label_, handle, now_);
  }

  void ScheduleNow(std::coroutine_handle<> handle) { ScheduleAt(now_, handle); }

  // Awaitable: suspends the current task for `d` nanoseconds of simulated time.
  auto SleepFor(Time d) { return SleepAwaiter{this, now_ + (d < 0 ? 0 : d)}; }

  // Awaitable: suspends the current task until absolute simulated time `t`.
  auto SleepUntil(Time t) { return SleepAwaiter{this, t}; }

  // Awaitable: reschedules the current task at the current time, letting other
  // ready tasks run first.
  auto Yield() { return SleepAwaiter{this, now_}; }

  // Detaches a task as a root simulation process. The engine keeps it alive
  // until completion; `live_tasks()` counts unfinished root processes.
  //
  // `label` attributes the task's events for the self-profiler: every event
  // the task (and anything it schedules) produces carries the label until a
  // nested Spawn overrides it. Must point at storage outliving the engine's
  // event queue — in practice, a string literal. nullptr inherits the label
  // active at the call site.
  void Spawn(Task<> task, const char* label = nullptr);

  // Runs a single event (a queued resumption or an armed timer's fire).
  // Returns false when neither is pending.
  bool RunOne();

  // Runs until no scheduled events or armed timers remain.
  void Run();

  // Runs events and timer fires with timestamps <= t, then advances the clock
  // to exactly t.
  void RunUntil(Time t);

  // Spawns `task` and runs the engine until the event queue drains. Aborts if
  // the task did not complete (i.e. it deadlocked waiting on something).
  void RunToCompletion(Task<> task);

  int64_t live_tasks() const { return live_tasks_; }
  uint64_t events_processed() const { return events_processed_; }
  uint64_t schedule_calls() const { return schedule_calls_; }
  uint64_t schedule_clamps() const { return schedule_clamped_; }
  // Pending events: queued resumptions plus armed timers. A cancelled timer
  // leaves the count at once.
  size_t queue_depth() const { return queue_.size() + timers_.size(); }
  // High-water mark of queue_depth() as sampled after each processed event
  // (the depth the observer sees). Depth only grows inside an event body, so
  // this misses at most a peak that the same body cancelled again.
  size_t max_queue_depth() const { return max_queue_depth_; }

  // At most one observer; nullptr uninstalls. The caller owns the observer
  // and must outlive the engine or uninstall first.
  void SetObserver(EngineObserver* observer) {
    observer_ = observer;
    observer_last_ts_ = 0;  // Re-anchor wall-clock attribution on (re)install.
  }
  EngineObserver* observer() const { return observer_; }

 private:
  friend class Timer;

  struct SleepAwaiter {
    Engine* engine;
    Time wake_at;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { engine->ScheduleAt(wake_at, h); }
    void await_resume() const noexcept {}
  };

  // Armed timers, ordered like queue items by (when, seq). Kept apart from
  // the EventQueue so that a cancelled timer leaves no dead entry behind.
  struct TimerKey {
    Time when;
    uint64_t seq;
    Timer* timer;
    bool operator<(const TimerKey& o) const {
      return when != o.when ? when < o.when : seq < o.seq;
    }
  };
  void ArmTimer(Timer* timer, Time t);
  void CancelTimer(Timer* timer);
  bool TimerIsNext() const;

  // Runs one event's body with `label` ambient, timing it when an observer
  // is installed.
  template <typename Body>
  void Dispatch(const char* label, Body&& body);

  // Folds the current queue_depth() into the high-water mark and returns it.
  size_t NoteDepth() {
    size_t depth = queue_depth();
    if (depth > max_queue_depth_) {
      max_queue_depth_ = depth;
    }
    return depth;
  }

  Time now_ = 0;
  uint64_t next_seq_ = 0;
  int64_t live_tasks_ = 0;
  uint64_t events_processed_ = 0;
  uint64_t schedule_calls_ = 0;
  uint64_t schedule_clamped_ = 0;
  size_t max_queue_depth_ = 0;
  // Label flowing with the executing task: RunOne restores it from the item,
  // so anything the event schedules (sleeps, nested spawns without a label)
  // inherits its attribution.
  const char* current_label_ = nullptr;
  EngineObserver* observer_ = nullptr;
  uint64_t observer_last_ts_ = 0;  // steady_clock ns of the previous OnEvent edge.
  // Two-tier (ready-ring + 4-ary heap) queue; see event_queue.h for the
  // ordering-contract proof sketch.
  EventQueue<std::coroutine_handle<>> queue_;
  std::set<TimerKey> timers_;
};

}  // namespace linefs::sim

#endif  // SRC_SIM_ENGINE_H_
