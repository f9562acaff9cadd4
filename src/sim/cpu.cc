#include "src/sim/cpu.h"

#include <algorithm>

namespace linefs::sim {

CpuPool::CpuPool(Engine* engine, std::string name, const Options& options)
    : engine_(engine), name_(std::move(name)), options_(options), free_cores_(options.cores) {}

int CpuPool::RegisterAccount(const std::string& name) {
  account_names_.push_back(name);
  busy_ns_.push_back(0);
  return static_cast<int>(account_names_.size()) - 1;
}

void CpuPool::CoreAwaiter::await_suspend(std::coroutine_handle<> h) {
  waiter.handle = h;
  waiter.label = pool->engine_->current_label();
  pool->waiters_[static_cast<int>(priority)].push_back(&waiter);
  pool->ClaimBoundary();
}

void CpuPool::StretchAwaiter::await_suspend(std::coroutine_handle<> h) {
  if (pool->idle_stretches_.empty()) {
    pool->idle_stretches_.push_back(&pool->stretches_.emplace_back(pool->engine_));
  }
  stretch = pool->idle_stretches_.back();
  pool->idle_stretches_.pop_back();
  stretch->owner = h;
  stretch->start = pool->engine_->Now();
  stretch->end = stretch->start + work;
  stretch->next = stretch->start + pool->options_.quantum;
  stretch->timer.Arm(stretch->end);
  pool->unclaimed_.push_back(stretch);
}

Time CpuPool::StretchAwaiter::await_resume() {
  stretch->owner = nullptr;
  pool->idle_stretches_.push_back(stretch);
  auto& unclaimed = pool->unclaimed_;
  auto it = std::find(unclaimed.begin(), unclaimed.end(), stretch);
  if (it != unclaimed.end()) {
    unclaimed.erase(it);  // It ran to its end unclaimed.
  }
  return pool->engine_->Now() - stretch->start;
}

void CpuPool::ReleaseCore() {
  if (free_cores_ < 0) {
    // Repay a preemption-stolen core: the descheduled victim resumes instead
    // of handing the core to a waiter.
    ++free_cores_;
    return;
  }
  if (stopped_ || !HandOff()) {
    ++free_cores_;
  }
}

bool CpuPool::HandOff() {
  for (int p = kPriorityLevels - 1; p >= 0; --p) {
    if (!waiters_[p].empty()) {
      Waiter* w = waiters_[p].front();
      waiters_[p].pop_front();
      engine_->ScheduleAt(engine_->Now() + HandoffDelay(w->slice), w->handle, w->label);
      return true;
    }
  }
  return false;
}

Time CpuPool::HandoffDelay(Time slice) {
  Time jitter = 0;
  if (options_.jitter_prob > 0 && jitter_rng_.Bernoulli(options_.jitter_prob)) {
    jitter = static_cast<Time>(jitter_rng_.Exponential(static_cast<double>(options_.jitter_mean)));
  }
  return options_.dispatch_latency + jitter + options_.context_switch_cost + slice;
}

Time CpuPool::NextBoundary(Stretch& s) {
  // Cached: a cascade of claims at one boundary divides once per stretch.
  Time now = engine_->Now();
  if (s.next < now) {
    Time k = (now - s.start + options_.quantum - 1) / options_.quantum;
    s.next = s.start + k * options_.quantum;
  }
  return s.next;
}

void CpuPool::ClaimBoundary() {
  Time now = engine_->Now();
  size_t best = unclaimed_.size();
  Time best_at = 0;
  for (size_t i = 0; i < unclaimed_.size(); ++i) {
    Time at = NextBoundary(*unclaimed_[i]);
    if (at < unclaimed_[i]->end && (best == unclaimed_.size() || at < best_at)) {
      best = i;
      best_at = at;
      if (at == now) {
        break;  // None can be earlier.
      }
    }
  }
  if (best < unclaimed_.size()) {
    Claim(best, best_at);
  }
}

void CpuPool::Claim(size_t i, Time at) {
  Stretch* s = unclaimed_[i];
  unclaimed_.erase(unclaimed_.begin() + static_cast<ptrdiff_t>(i));
  s->timer.MoveTo(at);
}

void CpuPool::ChargeBusy(int account, Time t) {
  if (account >= 0 && account < static_cast<int>(busy_ns_.size())) {
    busy_ns_[account] += t;
  }
}

size_t CpuPool::waiter_count() const {
  size_t n = 0;
  for (int p = 0; p < kPriorityLevels; ++p) {
    n += waiters_[p].size();
  }
  return n;
}

double CpuPool::BusySeconds(int account) const {
  if (account < 0 || account >= static_cast<int>(busy_ns_.size())) {
    return 0;
  }
  return ToSeconds(busy_ns_[account]);
}

double CpuPool::TotalBusySeconds() const {
  Time total = 0;
  for (Time t : busy_ns_) {
    total += t;
  }
  return ToSeconds(total);
}

Task<> CpuPool::Run(Time work, Priority priority, int account) {
  Time remaining = work;
  bool preempted_in = false;
  while (remaining > 0) {
    if (!stopped_ && free_cores_ > 0) {
      // A free core means no one waits: run to the end of the work, or to
      // the quantum boundary a later waiter claims.
      --free_cores_;
      Time ran = remaining;
      // Work within one quantum has no boundary to claim: a plain sleep.
      if (remaining > options_.quantum) {
        ran = co_await StretchAwaiter{this, remaining};
      } else {
        co_await engine_->SleepFor(remaining);
      }
      remaining -= ran;
      ChargeBusy(account, ran);
      ReleaseCore();
      continue;
    }
    Time slice = std::min(remaining, options_.quantum);
    if (!stopped_ && priority >= Priority::kHigh && !preempted_in) {
      // Priority preemption: deschedule a victim and take its core. The pool
      // is briefly oversubscribed (free count goes negative) until a release
      // restores balance — the sim-time approximation of CFS/RT preemption.
      co_await engine_->SleepFor(options_.preempt_latency);
      if (--free_cores_ < 0) {
        ClaimBoundary();
      }
      preempted_in = true;
      co_await engine_->SleepFor(HandoffDelay(slice));
    } else {
      co_await AwaitCore(priority, slice);
    }
    ChargeBusy(account, options_.context_switch_cost + slice);
    remaining -= slice;
    ReleaseCore();
  }
}

void CpuPool::Stop() {
  stopped_ = true;
  for (size_t i = 0; i < unclaimed_.size();) {
    Time at = NextBoundary(*unclaimed_[i]);
    if (at < unclaimed_[i]->end) {
      Claim(i, at);
    } else {
      ++i;
    }
  }
}

void CpuPool::Resume() {
  stopped_ = false;
  // Hand out any free cores to queued waiters, highest priority first.
  while (free_cores_ > 0 && HandOff()) {
    --free_cores_;
  }
}

}  // namespace linefs::sim
