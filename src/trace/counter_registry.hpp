// Named monotonic counters and latency histograms: the end-of-run metrics
// namespace of one run.
//
// A registry is a plain per-run value. run_experiment owns one as a local,
// fills it at the end-of-run barrier — component stats structs through
// publish() (one describe() per struct names every counter), the rest by
// hand — and hands a snapshot() to RunTrace::counters. It is never shared
// between threads. Iteration (`to_table`, `names`, `snapshot`) is sorted by
// name, so exported metrics are deterministic regardless of registration
// order.
#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats/histogram.hpp"
#include "stats/table.hpp"
#include "util/reflect.hpp"
#include "util/types.hpp"

namespace saisim::trace {

class CounterRegistry {
 public:
  /// A monotonic counter. Address is stable for the registry's lifetime.
  class Counter {
   public:
    void add(u64 delta = 1) { v_ += delta; }
    /// High-water-mark fold: keeps the larger value, so a peak published
    /// by several components reads as their maximum, never their sum.
    void keep_max(u64 v) { v_ = std::max(v_, v); }
    u64 value() const { return v_; }

   private:
    u64 v_ = 0;
  };

  /// Finds or creates the named counter / latency histogram.
  Counter& counter(std::string_view name);
  stats::Log2Histogram& latency(std::string_view name);

  /// Current value of a named counter (0 if never registered).
  u64 value(std::string_view name) const;

  /// Sorted names of registered plain counters.
  std::vector<std::string> names() const;

  /// Flattened, name-sorted snapshot: plain counters as (name, value);
  /// each latency histogram expands to derived integer rows
  /// (name.count/.total/.p50/.p99).
  std::vector<std::pair<std::string, u64>> snapshot() const;

  /// Two-column {"counter", "value"} table of snapshot().
  stats::Table to_table() const;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, stats::Log2Histogram, std::less<>> latencies_;
};

/// Adds every integer field a `Stats` struct's describe() declares to the
/// registry as `prefix + field name`: field() values are summed into their
/// counter, peak() values folded by max. One harvester sums any number of
/// components' structs (all the servers' IoServerStats, say); it finds
/// its counters on the first add() and reuses them after that.
template <class Stats>
class CounterHarvester
    : public util::reflect::VisitorBase<CounterHarvester<Stats>> {
 public:
  CounterHarvester(CounterRegistry& registry, std::string_view prefix)
      : registry_(registry), prefix_(prefix) {}

  void add(const Stats& stats) {
    next_ = 0;
    // describe() takes a mutable reference so one declaration serves every
    // visitor; the harvester only reads.
    describe(*this, const_cast<Stats&>(stats));
  }

  template <class A>
  void int_field(const util::reflect::FieldInfo& f, A a) {
    slot(f.name).add(static_cast<u64>(a.get()));
  }
  void peak(const char* name, u64& v) { slot(name).keep_max(v); }

 private:
  // describe() visits fields in a fixed order, so the n-th field of every
  // add() is the n-th slot.
  CounterRegistry::Counter& slot(const char* leaf) {
    if (next_ == slots_.size()) {
      slots_.push_back(&registry_.counter(prefix_ + leaf));
    }
    return *slots_[next_++];
  }

  CounterRegistry& registry_;
  std::string prefix_;
  std::vector<CounterRegistry::Counter*> slots_;
  u64 next_ = 0;
};

/// Publishes one component's stats struct under `prefix` ("nic.",
/// "server3.", …).
template <class Stats>
void publish(CounterRegistry& registry, std::string_view prefix,
             const Stats& stats) {
  CounterHarvester<Stats>(registry, prefix).add(stats);
}

}  // namespace saisim::trace
