// Coroutine synchronization primitives for the single-threaded simulation.
//
// All primitives resume waiters through the engine's event queue (at the
// current simulated time), never inline, which keeps resumption order
// deterministic and avoids unbounded recursion.

#ifndef SRC_SIM_SYNC_H_
#define SRC_SIM_SYNC_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace linefs::sim {

// Reusable condition: Wait() always suspends until the next NotifyAll().
// Use together with a predicate loop.
class Condition {
 public:
  explicit Condition(Engine* engine) : engine_(engine) {}
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  struct Awaiter {
    Condition* cond;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { cond->waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };

  Awaiter Wait() { return Awaiter{this}; }

  void NotifyAll() {
    for (std::coroutine_handle<> h : waiters_) {
      engine_->ScheduleNow(h);
    }
    waiters_.clear();
  }

  size_t waiter_count() const { return waiters_.size(); }

 private:
  Engine* engine_;
  std::deque<std::coroutine_handle<>> waiters_;
};

// Counting semaphore with FIFO wakeup.
class Semaphore {
 public:
  Semaphore(Engine* engine, int64_t initial) : engine_(engine), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  struct Awaiter {
    Semaphore* sem;
    bool await_ready() const noexcept {
      if (sem->count_ > 0) {
        --sem->count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) { sem->waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };

  Awaiter Acquire() { return Awaiter{this}; }

  bool TryAcquire() {
    if (count_ > 0) {
      --count_;
      return true;
    }
    return false;
  }

  // Releases one unit. A queued waiter is handed the unit directly (the count
  // is not incremented), preserving FIFO fairness.
  void Release() {
    if (!waiters_.empty()) {
      std::coroutine_handle<> h = waiters_.front();
      waiters_.pop_front();
      engine_->ScheduleNow(h);
      return;
    }
    ++count_;
  }

  int64_t count() const { return count_; }
  size_t waiter_count() const { return waiters_.size(); }

 private:
  Engine* engine_;
  int64_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

// Mutual exclusion built on Semaphore. Prefer scoped use:
//   co_await mu.Lock(); ...; mu.Unlock();
class Mutex {
 public:
  explicit Mutex(Engine* engine) : sem_(engine, 1) {}

  Semaphore::Awaiter Lock() { return sem_.Acquire(); }
  void Unlock() { sem_.Release(); }
  bool locked() const { return sem_.count() == 0; }

 private:
  Semaphore sem_;
};

// Completion counter: Add(n) registers work, Done() retires it, Wait()
// suspends until the count reaches zero.
class WaitGroup {
 public:
  explicit WaitGroup(Engine* engine) : engine_(engine) {}

  void Add(int64_t n = 1) { count_ += n; }

  void Done() {
    --count_;
    if (count_ == 0) {
      for (std::coroutine_handle<> h : waiters_) {
        engine_->ScheduleNow(h);
      }
      waiters_.clear();
    }
  }

  struct Awaiter {
    WaitGroup* wg;
    bool await_ready() const noexcept { return wg->count_ == 0; }
    void await_suspend(std::coroutine_handle<> h) { wg->waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };

  Awaiter Wait() { return Awaiter{this}; }

  int64_t count() const { return count_; }

 private:
  Engine* engine_;
  int64_t count_ = 0;
  std::deque<std::coroutine_handle<>> waiters_;
};

// Cyclic barrier for `parties` tasks (used by the streamcluster co-runner to
// model barrier-synchronised parallel phases).
class Barrier {
 public:
  Barrier(Engine* engine, int64_t parties) : engine_(engine), parties_(parties) {}

  struct Awaiter {
    Barrier* barrier;
    bool await_ready() const noexcept {
      if (barrier->arrived_ + 1 == barrier->parties_) {
        barrier->arrived_ = 0;
        for (std::coroutine_handle<> h : barrier->waiters_) {
          barrier->engine_->ScheduleNow(h);
        }
        barrier->waiters_.clear();
        return true;  // Last arriver does not suspend.
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      ++barrier->arrived_;
      barrier->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  Awaiter Arrive() { return Awaiter{this}; }

 private:
  Engine* engine_;
  int64_t parties_;
  int64_t arrived_ = 0;
  std::deque<std::coroutine_handle<>> waiters_;
};

namespace internal {
inline Task<> RunAndSignal(Task<> task, WaitGroup* wg) {
  co_await std::move(task);
  wg->Done();
}
}  // namespace internal

// Runs all tasks concurrently and resolves when every one has completed.
inline Task<> AwaitAll(Engine* engine, std::vector<Task<>> tasks) {
  WaitGroup wg(engine);
  wg.Add(static_cast<int64_t>(tasks.size()));
  for (Task<>& task : tasks) {
    engine->Spawn(internal::RunAndSignal(std::move(task), &wg));
  }
  tasks.clear();
  co_await wg.Wait();
}

}  // namespace linefs::sim

#endif  // SRC_SIM_SYNC_H_
