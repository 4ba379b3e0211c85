// The discrete-event simulation kernel: a clock plus an event queue.
//
// Every model component holds a Simulation& and drives itself by scheduling
// callbacks. The kernel is deliberately tiny; all domain behaviour lives in
// the mem/cpu/apic/net/pfs modules layered on top.
#pragma once

#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace saisim::sim {

class Simulation {
 public:
  explicit Simulation(u64 seed = 0x5A15u) : rng_(seed) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  Time now() const { return now_; }
  Rng& rng() { return rng_; }

  /// Schedule `fn` to run `delay` from now.
  EventHandle after(Time delay, EventQueue::Callback fn) {
    return queue_.schedule(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at an absolute simulated time (>= now).
  EventHandle at(Time when, EventQueue::Callback fn) {
    SAISIM_CHECK(when >= now_);
    return queue_.schedule(when, std::move(fn));
  }

  void cancel(EventHandle h) { queue_.cancel(h); }

  /// Cancel `h` only if it is still armed, and null it either way. The
  /// queue's plain cancel() treats double-cancel / cancel-after-fire as a
  /// checked error (callers own their handles); paths where an event may
  /// legitimately have fired or been cancelled already — e.g. a hedge
  /// timer raced by its strip's reply, or cleanup sweeping a mixed set of
  /// per-strip timers — go through here instead of open-coding the guard.
  void cancel_if_armed(EventHandle& h) {
    if (!h.valid()) return;
    queue_.cancel(h);
    h.reset();
  }

  /// Run one event. Returns false when the queue is empty.
  bool step() {
    if (queue_.empty()) return false;
    auto fired = queue_.pop();
    now_ = fired.when;
    ++events_executed_;
    fired.fn();
    return true;
  }

  /// Run until the queue drains.
  void run() {
    while (step()) {
    }
  }

  /// Run until the queue drains or the clock passes `deadline`; events at
  /// exactly `deadline` still execute.
  void run_until(Time deadline) {
    while (!queue_.empty() && queue_.next_time() <= deadline) {
      step();
    }
    if (now_ < deadline) now_ = deadline;
  }

  /// Run until `pred()` becomes true (checked after each event) or the
  /// queue drains. Returns whether the predicate was satisfied. Templated
  /// so the predicate is called through its own type — no std::function
  /// type-erasure allocation per run_while call (event-queue style).
  template <class Pred>
  bool run_while(Pred&& keep_going) {
    while (keep_going()) {
      if (!step()) return false;
    }
    return true;
  }

  u64 events_executed() const { return events_executed_; }
  u64 pending_events() const { return queue_.size(); }

 private:
  EventQueue queue_;
  Time now_ = Time::zero();
  Rng rng_;
  u64 events_executed_ = 0;
};

}  // namespace saisim::sim
