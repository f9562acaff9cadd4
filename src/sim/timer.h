// Cancellable one-shot timer.
//
// A timer that is armed for time `t` calls its callback at `t` unless it is
// cancelled first. Armed timers live outside the engine's EventQueue, in an
// ordered set (Engine::timers_), so cancelling one removes it outright: a
// cancelled timer never runs, is never counted as a processed event and never
// shows in Engine::queue_depth(). This is what an RPC timeout
// needs: almost every call is answered long before its timeout, and a plain
// sleep would leave a dead event in the queue for the whole timeout.
//
// Ordering: Arm() takes its sequence number from the same counter as
// Engine::ScheduleAt, and a fire runs in its exact (time, seq) slot among the
// queued events. The fire counts as one processed event, carries the label
// that was ambient when the timer was armed, and is reported to the engine
// observer like any other event.

#ifndef SRC_SIM_TIMER_H_
#define SRC_SIM_TIMER_H_

#include <functional>
#include <utility>

#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace linefs::sim {

class Timer {
 public:
  // `on_fire` runs from the engine loop when an armed timer expires. It may
  // re-arm the timer but must not destroy it.
  Timer(Engine* engine, std::function<void()> on_fire)
      : engine_(engine), on_fire_(std::move(on_fire)) {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() { Cancel(); }

  // Arms the timer to fire at absolute time `t` (clamped to now, and counted
  // like Engine::ScheduleAt, when in the past). Arming an armed timer moves
  // it: the pending fire is dropped and the new one takes a fresh seq.
  void Arm(Time t) { engine_->ArmTimer(this, t); }

  // Drops a pending fire; a no-op on an unarmed timer.
  void Cancel() {
    if (armed_) {
      engine_->CancelTimer(this);
    }
  }

  bool armed() const { return armed_; }

 private:
  friend class Engine;

  Engine* engine_;
  std::function<void()> on_fire_;
  Engine::TimerKey key_{};  // This timer's entry in Engine::timers_ while armed.
  const char* label_ = nullptr;
  bool armed_ = false;
};

}  // namespace linefs::sim

#endif  // SRC_SIM_TIMER_H_
