// Two-tier deterministic event queue backing the DES engine.
//
// The hot path of the simulation is same-instant rescheduling: ScheduleNow /
// Yield / sync-primitive wakeups all land at the current timestamp, and under
// a std::priority_queue every one of them paid a full O(log n) heap push and
// pop. This structure splits the queue by time:
//
//   - ready ring: a FIFO ring buffer holding every pending event whose
//     timestamp equals the current instant. Push and pop are O(1).
//   - future heap: a 4-ary min-heap ordered by (time, seq) holding events
//     strictly in the future. 4-ary halves the tree depth of a binary heap
//     and keeps sibling comparisons inside one cache line's worth of items.
//
// Ordering contract (identical to the old single heap): events run in
// ascending (time, seq) order, i.e. time-ordered with same-instant FIFO
// tie-breaking by schedule sequence number. The split preserves it exactly:
//
//   - Sequence numbers are globally increasing, so an event pushed at the
//     current instant has a larger seq than everything already in the ring
//     (ring stays seq-sorted by construction).
//   - The heap only ever holds events scheduled for a *future* instant, so
//     while the ring is non-empty its front is the global (time, seq) minimum.
//   - When the ring drains, Pop advances time to the heap minimum and moves
//     every heap event of that instant into the ring in (time, seq) order
//     *before* the first of them runs; anything those events schedule for the
//     new current instant appends behind them with a larger seq.
//
// The engine's cancellable timers (src/sim/timer.h) live outside this queue.
// When a timer precedes the queue's next event, the engine advances the clock
// with AdvanceTo, which promotes that instant's heap events into the ring the
// same way Pop does, so the split above still holds while the timer fires.
//
// Both tiers recycle their storage (geometric growth, never shrunk), so the
// steady-state hot loop performs no allocation.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/check.h"
#include "src/sim/time.h"

namespace linefs::sim {

template <typename Payload>
class EventQueue {
 public:
  struct Item {
    Time t;
    uint64_t seq;
    const char* label;  // Self-profiler attribution; may be nullptr.
    Payload payload;
  };

  EventQueue() {
    ring_.resize(kInitialRing);
    heap_.reserve(kInitialHeap);
  }

  bool empty() const { return ring_count_ == 0 && heap_.empty(); }
  size_t size() const { return ring_count_ + heap_.size(); }

  // Timestamp and sequence number of the next event to pop. Require !empty().
  Time NextTime(Time now) const { return ring_count_ > 0 ? now : heap_.front().t; }
  uint64_t NextSeq() const { return ring_count_ > 0 ? ring_[ring_head_].seq : heap_.front().seq; }

  // Moves the clock to `t` without popping, promoting every heap event of
  // instant `t` into the ring. Requires `t` to be no later than the next
  // event and, when `t` > `*now`, an empty ring (all of `*now` has run).
  void AdvanceTo(Time t, Time* now) {
    if (t == *now) {
      return;
    }
    LINEFS_CHECK(ring_count_ == 0 && t > *now);
    *now = t;
    while (!heap_.empty() && heap_.front().t == t) {
      RingPush(HeapPop());
    }
  }

  // Enqueues an event. `t` must be >= `now` (the engine clamps past-due
  // schedules before calling); same-instant events go to the ring, future
  // ones to the heap. `seq` must be strictly increasing across calls.
  void Push(Time t, uint64_t seq, const char* label, Payload payload, Time now) {
    if (t == now) {
      RingPush(Item{t, seq, label, std::move(payload)});
    } else {
      HeapPush(Item{t, seq, label, std::move(payload)});
    }
  }

  // Pops the globally smallest (time, seq) event. When the ready ring is
  // empty, advances `*now` to the heap minimum and promotes every heap event
  // of that instant into the ring first. Requires !empty().
  Item Pop(Time* now) {
    if (ring_count_ == 0) {
      *now = heap_.front().t;
      // Promote the whole instant: repeated heap pops yield its events in
      // (time, seq) order, and ring appends keep that order.
      do {
        RingPush(HeapPop());
      } while (!heap_.empty() && heap_.front().t == *now);
    }
    Item item = std::move(ring_[ring_head_]);
    ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
    --ring_count_;
    return item;
  }

 private:
  static constexpr size_t kInitialRing = 1024;  // Power of two.
  static constexpr size_t kInitialHeap = 1024;

  static bool Less(const Item& a, const Item& b) {
    if (a.t != b.t) {
      return a.t < b.t;
    }
    return a.seq < b.seq;
  }

  void RingPush(Item item) {
    if (ring_count_ == ring_.size()) {
      GrowRing();
    }
    ring_[(ring_head_ + ring_count_) & (ring_.size() - 1)] = std::move(item);
    ++ring_count_;
  }

  void GrowRing() {
    std::vector<Item> bigger(ring_.size() * 2);
    for (size_t i = 0; i < ring_count_; ++i) {
      bigger[i] = std::move(ring_[(ring_head_ + i) & (ring_.size() - 1)]);
    }
    ring_ = std::move(bigger);
    ring_head_ = 0;
  }

  void HeapPush(Item item) {
    heap_.push_back(std::move(item));
    size_t i = heap_.size() - 1;
    while (i > 0) {
      size_t parent = (i - 1) / 4;
      if (!Less(heap_[i], heap_[parent])) {
        break;
      }
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  Item HeapPop() {
    Item top = std::move(heap_.front());
    Item last = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) {
      // Sift the former last element down from the root.
      size_t i = 0;
      const size_t n = heap_.size();
      while (true) {
        size_t first_child = i * 4 + 1;
        if (first_child >= n) {
          break;
        }
        size_t best = first_child;
        size_t end = first_child + 4 < n ? first_child + 4 : n;
        for (size_t c = first_child + 1; c < end; ++c) {
          if (Less(heap_[c], heap_[best])) {
            best = c;
          }
        }
        if (!Less(heap_[best], last)) {
          break;
        }
        heap_[i] = std::move(heap_[best]);
        i = best;
      }
      heap_[i] = std::move(last);
    }
    return top;
  }

  // Ready ring: events at the current instant, FIFO. `ring_.size()` is always
  // a power of two so the index mask stays a single AND.
  std::vector<Item> ring_;
  size_t ring_head_ = 0;
  size_t ring_count_ = 0;

  // Future events, 4-ary min-heap on (t, seq).
  std::vector<Item> heap_;
};

}  // namespace linefs::sim

#endif  // SRC_SIM_EVENT_QUEUE_H_
