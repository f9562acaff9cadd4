// Awaitable FIFO channel between simulated tasks.
//
// Pop() suspends while the queue is empty; Push() hands the value directly to
// the oldest waiting consumer (no thundering herd). Close() wakes all waiters;
// Pop() then drains remaining items and finally yields std::nullopt.
//
// Pipeline stages in NICFS communicate exclusively through these queues, and
// the dynamic stage-scaling policy reads `size()` as the stage wait-queue depth.

#ifndef SRC_SIM_QUEUE_H_
#define SRC_SIM_QUEUE_H_

#include <algorithm>
#include <coroutine>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace linefs::sim {

template <typename T>
class Queue {
 public:
  explicit Queue(Engine* engine) : engine_(engine) {}
  Queue(const Queue&) = delete;
  Queue& operator=(const Queue&) = delete;

  // Enqueues a value. If a consumer is waiting, the value is delivered to it
  // directly and the consumer is scheduled.
  void Push(T value) {
    if (!waiters_.empty()) {
      Waiter* w = waiters_.front();
      waiters_.pop_front();
      w->slot = std::move(value);
      engine_->ScheduleNow(w->handle);
      return;
    }
    items_.push_back(std::move(value));
  }

  // Closes the queue: current and future Pop() calls yield std::nullopt once
  // buffered items are drained.
  void Close() {
    closed_ = true;
    for (Waiter* w : waiters_) {
      engine_->ScheduleNow(w->handle);
    }
    waiters_.clear();
  }

  bool closed() const { return closed_; }
  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  struct Waiter {
    std::coroutine_handle<> handle;
    std::optional<T> slot;
  };

  struct PopAwaiter {
    Queue* queue;
    // Waiter node lives in the awaiter frame, which outlives the suspension.
    Waiter waiter;

    bool await_ready() noexcept { return !queue->items_.empty() || queue->closed_; }
    void await_suspend(std::coroutine_handle<> h) {
      waiter.handle = h;
      queue->waiters_.push_back(&waiter);
    }
    std::optional<T> await_resume() {
      if (waiter.slot.has_value()) {
        return std::move(waiter.slot);  // Direct hand-off from Push().
      }
      if (!queue->items_.empty()) {
        T v = std::move(queue->items_.front());
        queue->items_.pop_front();
        return v;
      }
      return std::nullopt;  // Closed and drained.
    }
  };

  // Awaitable: yields the next item, or std::nullopt when closed and drained.
  PopAwaiter Pop() { return PopAwaiter{this, {}}; }

 private:
  Engine* engine_;
  bool closed_ = false;
  std::deque<T> items_;
  std::deque<Waiter*> waiters_;
};

// Sequenced channel: items are pushed with arbitrary sequence numbers and
// popped strictly in sequence order (0, 1, 2, ...). Used by ordered pipeline
// stages (publication, transfer) that receive work from unordered upstream
// stages — this is what keeps client-log order without ticket deadlocks.
//
// Pops only ever advance `next_`, so the slots are kept in a flat min-heap on
// (seq, arrival order) instead of a node-based std::map: push is an O(log n)
// sift over contiguous memory with no per-item allocation, and the "is the
// next item here yet" check in PopNext is a single look at the heap top.
// Entries the consumer skipped past (duplicate seqs, stale retransmissions
// below `next_` after a FastForwardTo) are lazily dropped when they surface at
// the top; on duplicate seq the earliest-pushed value wins, matching the old
// map::emplace behaviour.
template <typename T>
class ReorderBuffer {
 public:
  explicit ReorderBuffer(Engine* engine) : engine_(engine), cv_(engine) {}

  void Push(uint64_t seq, T value) {
    slots_.push_back(Slot{seq, next_tick_++, std::move(value)});
    std::push_heap(slots_.begin(), slots_.end(), Later);
    cv_.NotifyAll();
  }

  void Close() {
    closed_ = true;
    cv_.NotifyAll();
  }

  // Yields item `next` (in submission sequence), or nullopt once closed.
  Task<std::optional<T>> PopNext() {
    while (!closed_ && !NextReady()) {
      co_await cv_.Wait();
    }
    if (closed_) {
      co_return std::nullopt;
    }
    std::pop_heap(slots_.begin(), slots_.end(), Later);
    T value = std::move(slots_.back().value);
    slots_.pop_back();
    ++next_;
    co_return value;
  }

  size_t size() const { return slots_.size(); }
  uint64_t next_seq() const { return next_; }

  // Recovery support: abandon every sequence number below `seq` (their items
  // will never be processed — e.g. chunks a rejoining replica already received
  // through state resync) and resume popping at `seq`. No-op if the buffer is
  // already past that point.
  void FastForwardTo(uint64_t seq) {
    if (seq <= next_) {
      return;
    }
    next_ = seq;
    DropStale();
    cv_.NotifyAll();
  }

 private:
  struct Slot {
    uint64_t seq;
    uint64_t tick;  // Arrival order; tie-breaks duplicate seqs (first wins).
    T value;
  };

  // Heap comparator ("a pops later than b"): max-heap on this = min-heap on
  // (seq, tick).
  static bool Later(const Slot& a, const Slot& b) {
    if (a.seq != b.seq) {
      return a.seq > b.seq;
    }
    return a.tick > b.tick;
  }

  // Discards heap tops that can never be popped (seq below next_).
  void DropStale() {
    while (!slots_.empty() && slots_.front().seq < next_) {
      std::pop_heap(slots_.begin(), slots_.end(), Later);
      slots_.pop_back();
    }
  }

  bool NextReady() {
    DropStale();
    return !slots_.empty() && slots_.front().seq == next_;
  }

  Engine* engine_;
  Condition cv_;
  std::vector<Slot> slots_;
  uint64_t next_ = 0;
  uint64_t next_tick_ = 0;
  bool closed_ = false;
};

}  // namespace linefs::sim

#endif  // SRC_SIM_QUEUE_H_
