// One simulated CPU core: a preemptive, priority-scheduled work executor
// with exact busy-cycle accounting.
//
// Three priority bands mirror the paths the paper measures:
//   kInterrupt — softirq protocol processing (preempts everything),
//   kKernel    — wakeups, bookkeeping,
//   kUser      — application work (timesliced round-robin within the band).
// A core accrues "unhalted" time exactly while it executes work; idle cores
// are halted. This is the simulator's CPU_CLK_UNHALTED counter.
#pragma once

#include <deque>
#include <string>

#include "sim/simulation.hpp"
#include "util/small_function.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace saisim::cpu {

enum class Priority : int { kInterrupt = 0, kKernel = 1, kUser = 2 };
inline constexpr int kNumPriorities = 3;

/// A burst of CPU work. `cost` is evaluated once, when the burst first gets
/// the core — this lets memory-dependent work (cache probes) price itself
/// against the machine state at execution time, not submission time.
/// The callables use inline storage (SmallFunction), so submitting a work
/// item allocates nothing for typical captures; WorkItem is move-only.
struct WorkItem {
  Priority prio = Priority::kUser;
  SmallFunction<Cycles(Time now)> cost;
  SmallFunction<void(Time now)> on_complete;
  const char* tag = "";
  /// The I/O request this burst serves, if any — propagated so the tracer
  /// can attribute softirq/consume execution windows to request spans.
  RequestId request = -1;
};

struct CoreAccounting {
  Time busy_total = Time::zero();
  Time busy_by_prio[kNumPriorities] = {};
  u64 items_completed = 0;
  u64 preemptions = 0;
  u64 timeslice_rotations = 0;

  Cycles unhalted(Frequency f) const { return f.cycles_in(busy_total); }
};

/// The event counters; busy time reaches RunMetrics through
/// CpuSystem::total_busy and friends.
template <class V>
void describe(V& v, CoreAccounting& a) {
  v.field("items_completed", a.items_completed);
  v.field("preemptions", a.preemptions);
  v.field("timeslice_rotations", a.timeslice_rotations);
}

class Core {
 public:
  Core(sim::Simulation& simulation, CoreId id, Frequency freq,
       Time user_quantum = Time::us(100));

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;
  Core(Core&&) = delete;
  Core& operator=(Core&&) = delete;

  CoreId id() const { return id_; }
  Frequency frequency() const { return freq_; }

  /// Enqueue a burst; it runs when it is the highest-priority pending work.
  /// A kInterrupt submission preempts lower-priority work immediately.
  void submit(WorkItem item);

  bool idle() const { return !running_; }
  /// Number of queued-but-not-running items (all bands).
  u64 backlog() const;
  /// Queued + running item count; the load signal irqbalance-style policies
  /// consult.
  u64 load() const { return backlog() + (running_ ? 1u : 0u); }

  const CoreAccounting& accounting() const { return acct_; }

  /// Busy fraction of the window [since, now].
  double utilization(Time since, Time now) const;

 private:
  void reschedule();
  void start(WorkItem item, Cycles remaining, bool cost_evaluated);
  void on_segment_end();
  void accrue(Time end);

  struct Pending {
    WorkItem item;
    Cycles remaining = Cycles::zero();
    bool cost_evaluated = false;
  };

  sim::Simulation& sim_;
  CoreId id_;
  Frequency freq_;
  Time quantum_;

  std::deque<Pending> queues_[kNumPriorities];

  bool running_ = false;
  Pending current_;
  sim::EventHandle segment_event_;
  Time segment_start_ = Time::zero();
  Cycles segment_cycles_ = Cycles::zero();

  CoreAccounting acct_;
};

}  // namespace saisim::cpu
