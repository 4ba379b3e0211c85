// Time-resolved telemetry: a deterministic, sim-time-driven metrics
// sampler, the declarative SLO watchdog that rides on it, and the anomaly
// flight recorder dumped around each breach.
//
// Whole-run aggregates (CounterRegistry) show *that* a policy loses
// bandwidth to migrations; they cannot show *when* a queue saturates or a
// flush burst stalls foreground reads. A TimelineSampler closes that gap:
// probes registered against live model state are read at every multiple of
// `telemetry.sample_period` (simulated time, never wall clock), producing
// one value series per metric.
//
// Determinism. A run has one sampler, ticked by a self-rescheduling event
// in the run's own queue. The model state at simulated time T is a pure
// function of config and seed, so every series is too; `series()` sorts
// them by metric name (names carry client/server indices), so the timeline
// is bit-identical across reruns and sweep --threads. Sampling only reads
// state; it draws no RNG and mutates no model object, so enabling it
// leaves the golden metric fingerprints untouched.
//
// Probe kinds:
//   * gauge      — instantaneous value (queue depth, dirty blocks,
//                  in-flight requests, NIC backlog);
//   * counter    — cumulative value; exported as the per-interval delta;
//   * window p99 — p99 over the samples a Log2Histogram absorbed during
//                  the last `slo.window` intervals (bucket-snapshot
//                  differencing, no per-sample storage);
//   * window rate— numerator delta * 1e6 / denominator delta over the same
//                  window (parts-per-million, e.g. retransmits per strip).
//
// The SLO watchdog is `watch(probe, threshold)`: at every tick the watched
// probe's value is compared against its threshold, and on the rising edge
// (ok → breached) the sampler records a SloBreach, emits a kSloBreach
// anomaly trace event, and snapshots the tail of the current thread's
// Tracer — the flight recorder. `run_experiment` arms a small ring-mode
// tracer when an SLO is configured and no full trace was requested, so the
// breach dump is populated even in metrics-only runs.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "stats/histogram.hpp"
#include "trace/event.hpp"
#include "util/reflect.hpp"

namespace saisim::trace {

/// Timeline name of the kernel pending-event gauge (telemetry.kernel_gauges).
/// A run has one event queue; the name still says "shard0" because the
/// benchmark program (perfbench/) reads the gauge under this name.
inline constexpr const char* kPendingEventsGauge = "sim.shard0.pending_events";

/// Declarative SLO thresholds, evaluated at every sample tick. A zero
/// threshold disarms that check; any non-zero threshold requires sampling
/// to be enabled (telemetry.sample_period > 0 — validated).
struct TelemetrySloConfig {
  /// Evaluation window, in samples, for the windowed p99 / rate checks.
  int window = 8;
  /// Breach when any client's windowed p99 read latency exceeds this (µs).
  u64 p99_read_latency_us = 0;
  /// Breach when any server's CPU run-queue depth exceeds this.
  u64 max_queue_depth = 0;
  /// Breach when any client's windowed retransmit rate exceeds this
  /// (retransmits per million strips received).
  u64 retransmit_rate_ppm = 0;
};

template <class V>
void describe(V& v, TelemetrySloConfig& c) {
  namespace r = util::reflect;
  v.field("window", c.window, r::in_range(1, 4096));
  v.field("p99_read_latency_us", c.p99_read_latency_us, r::non_negative(),
          "us");
  v.field("max_queue_depth", c.max_queue_depth, r::non_negative());
  v.field("retransmit_rate_ppm", c.retransmit_rate_ppm, r::non_negative());
}

/// Time-resolved telemetry knobs (`telemetry.*`). Off by default: a zero
/// sample period means no sampler exists and every export is bit-identical
/// to a build without this subsystem.
struct TelemetryConfig {
  /// Sampling interval in simulated time; 0 = telemetry off.
  Time sample_period = Time::zero();
  /// Flight-recorder ring size: the most recent trace events kept for the
  /// breach dump.
  u64 flight_recorder_events = 256;
  /// Also sample the kernel's pending-event count (kPendingEventsGauge).
  /// Off by default: a kernel diagnostic, not a model metric.
  bool kernel_gauges = false;
  TelemetrySloConfig slo{};
};

template <class V>
void describe(V& v, TelemetryConfig& c) {
  namespace r = util::reflect;
  v.field("sample_period", c.sample_period, r::non_negative());
  v.field("flight_recorder_events", c.flight_recorder_events,
          r::in_range(1, 1 << 20));
  v.field("kernel_gauges", c.kernel_gauges);
  v.group("slo", c.slo);
}

inline bool telemetry_enabled(const TelemetryConfig& c) {
  return c.sample_period > Time::zero();
}

inline bool slo_armed(const TelemetryConfig& c) {
  return c.slo.p99_read_latency_us > 0 || c.slo.max_queue_depth > 0 ||
         c.slo.retransmit_rate_ppm > 0;
}

/// One SLO breach: the rising edge of a watched probe crossing its
/// threshold, plus the flight-recorder snapshot taken at that instant.
struct SloBreach {
  u64 tick = 0;        // sample index (0-based; sample k fires at (k+1)*period)
  Time when = Time::zero();
  std::string metric;  // name of the probe that tripped
  i64 value = 0;
  i64 threshold = 0;
  /// Most recent trace events before the breach, oldest first.
  std::vector<Event> flight;
};

/// The export-ready timeline: one value row per metric, name-sorted (see
/// TimelineSampler::series).
struct TimelineSeries {
  Time period = Time::zero();
  u64 ticks = 0;
  std::vector<std::string> metrics;        // sorted
  std::vector<std::vector<i64>> values;    // [metric][tick]
  std::vector<SloBreach> breaches;         // sorted by (tick, metric)

  bool empty() const { return ticks == 0 || metrics.empty(); }
  /// Simulated time of sample `tick`, in picoseconds.
  i64 tick_time_ps(u64 tick) const {
    return static_cast<i64>(tick + 1) * period.picoseconds();
  }
};

class TimelineSampler {
 public:
  /// Reads one probe's current value; must not mutate the model or draw
  /// RNG.
  using Reader = std::function<i64()>;

  TimelineSampler(Time period, int slo_window, u64 flight_capacity);

  /// Probe registration (before the run starts). Returns the probe index
  /// for watch(). Names must be unique within the run (they carry
  /// client/server indices) — series() asserts that.
  u64 add_gauge(std::string name, Reader read);
  u64 add_counter(std::string name, Reader read);
  u64 add_window_p99(std::string name, const stats::Log2Histogram* hist);
  u64 add_window_rate_ppm(std::string name, Reader numerator,
                          Reader denominator);

  /// Arm the SLO watchdog on a probe: breach (edge-triggered) when its
  /// sampled value exceeds `threshold`.
  void watch(u64 probe, i64 threshold);

  bool has_probes() const { return !probes_.empty(); }
  u64 ticks() const { return ticks_; }
  const std::vector<SloBreach>& breaches() const { return breaches_; }

  /// Record one sample at simulated time `now` (called by the tick event)
  /// and evaluate the watchdog rules.
  void sample(Time now);

  /// The export-ready timeline: counters become per-interval deltas,
  /// series sort by metric name and breaches by (tick, metric).
  TimelineSeries series() const;

 private:
  enum class Kind { kGauge, kCounter, kWindowP99, kWindowRatePpm };

  struct Probe {
    std::string name;
    Kind kind = Kind::kGauge;
    Reader read;
    Reader read_den;                            // rate denominator
    const stats::Log2Histogram* hist = nullptr; // p99 source
    i64 threshold = 0;
    bool watched = false;
    bool in_breach = false;
    std::vector<i64> series;
    /// Rolling window state, at most `window_` entries each: a ring of
    /// cumulative histogram snapshots for p99 probes (oldest at
    /// `oldest_snap`, the window's base once full), and cumulative
    /// (num, den) pairs for rate probes (front is the base).
    std::vector<stats::Log2Histogram> hist_snaps;
    u64 oldest_snap = 0;
    std::vector<std::pair<u64, u64>> rate_snaps;
  };

  i64 read_probe(Probe& p);

  Time period_;
  int window_;
  u64 flight_capacity_;
  u64 ticks_ = 0;
  std::vector<Probe> probes_;
  std::vector<SloBreach> breaches_;
};

}  // namespace saisim::trace
