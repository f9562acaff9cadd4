#include "src/sim/engine.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "src/sim/timer.h"

namespace linefs::sim {

namespace {

// Root wrapper coroutine: owns the detached task and self-destroys on
// completion (final_suspend never suspends).
struct RootTask {
  struct promise_type {
    RootTask get_return_object() {
      return RootTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::abort(); }
  };
  std::coroutine_handle<promise_type> handle;
};

RootTask RunRoot(int64_t* live_counter, Task<> task) {
  co_await std::move(task);
  --*live_counter;
}

}  // namespace

void Engine::Spawn(Task<> task, const char* label) {
  ++live_tasks_;
  RootTask root = RunRoot(&live_tasks_, std::move(task));
  // Seed the new root's attribution, then restore the caller's: the spawn
  // call itself still belongs to whoever issued it.
  const char* saved = current_label_;
  if (label != nullptr) {
    current_label_ = label;
  }
  ScheduleNow(root.handle);
  current_label_ = saved;
}

template <typename Body>
void Engine::Dispatch(const char* label, Body&& body) {
  ++events_processed_;
  // The executing event's label becomes ambient so everything it schedules
  // (sleeps, unlabeled spawns, armed timers) inherits its attribution.
  current_label_ = label;
  if (observer_ == nullptr) {
    body();
    NoteDepth();
    return;
  }
  // One clock read per event: the delta between consecutive reads is
  // attributed to the event in between. The sliver of harness time between
  // RunOne calls is misattributed to the next event, which is noise for a
  // self-profiler but half the clock overhead of a start/end pair.
  if (observer_last_ts_ == 0) {
    observer_last_ts_ = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
  body();
  uint64_t end = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  observer_->OnEvent(label, end - observer_last_ts_, NoteDepth());
  observer_last_ts_ = end;
}

bool Engine::RunOne() {
  if (TimerIsNext()) {
    Timer* timer = timers_.begin()->timer;
    queue_.AdvanceTo(timers_.begin()->when, &now_);
    CancelTimer(timer);
    Dispatch(timer->label_, [timer] { timer->on_fire_(); });
    return true;
  }
  if (queue_.empty()) {
    return false;
  }
  auto item = queue_.Pop(&now_);
  Dispatch(item.label, [&item] { item.payload.resume(); });
  return true;
}

void Engine::Run() {
  while (RunOne()) {
  }
}

void Engine::RunUntil(Time t) {
  while (true) {
    Time next;
    if (TimerIsNext()) {
      next = timers_.begin()->when;
    } else if (!queue_.empty()) {
      next = queue_.NextTime(now_);
    } else {
      break;
    }
    if (next > t) {
      break;
    }
    RunOne();
  }
  if (now_ < t) {
    now_ = t;
  }
}

// --- Timer store -------------------------------------------------------------

bool Engine::TimerIsNext() const {
  if (timers_.empty()) {
    return false;
  }
  if (queue_.empty()) {
    return true;
  }
  const TimerKey& first = *timers_.begin();
  Time next = queue_.NextTime(now_);
  return first.when != next ? first.when < next : first.seq < queue_.NextSeq();
}

void Engine::ArmTimer(Timer* timer, Time t) {
  timer->Cancel();
  ++schedule_calls_;
  if (t < now_) {
    t = now_;
    ++schedule_clamped_;
  }
  timer->key_ = TimerKey{t, next_seq_++, timer};
  timer->label_ = current_label_;
  timer->armed_ = true;
  timers_.insert(timer->key_);
}

void Engine::CancelTimer(Timer* timer) {
  timers_.erase(timer->key_);
  timer->armed_ = false;
}

void Engine::RunToCompletion(Task<> task) {
  int64_t before = live_tasks_;
  Spawn(std::move(task));
  Run();
  if (live_tasks_ != before) {
    std::fprintf(stderr, "Engine::RunToCompletion: task deadlocked (%lld live tasks remain)\n",
                 static_cast<long long>(live_tasks_));
    std::abort();
  }
}

}  // namespace linefs::sim
