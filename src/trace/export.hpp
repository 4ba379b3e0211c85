// Exporters: Chrome/Perfetto trace-event JSON and metrics CSV.
//
// The JSON is the Trace Event Format chrome://tracing and ui.perfetto.dev
// both load: one process (pid) per run for the raw per-core timeline, plus
// a second process per run holding the request-lifecycle spans as six
// back-to-back "X" slices per request. Timestamps are microseconds,
// formatted from integer picoseconds with fixed-width integer arithmetic —
// no floating-point printf — so the same run always serialises to the same
// bytes (the golden trace test pins that).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "trace/event.hpp"
#include "trace/span.hpp"
#include "trace/timeline.hpp"

namespace saisim::trace {

/// One run's worth of observability output, as handed to the collector.
struct RunTrace {
  /// Human label shown in the trace viewer (e.g. "irqbalance").
  std::string label;
  /// Deterministic ordering key (config fingerprint + policy), so the
  /// export order never depends on which sweep worker finished first.
  std::string sort_key;
  std::vector<Event> events;
  std::vector<RequestSpan> spans;
  /// Name-sorted counter snapshot (CounterRegistry::snapshot()).
  std::vector<std::pair<std::string, u64>> counters;
  /// Merged metric timeline (empty unless telemetry.sample_period > 0).
  /// Feeds the Perfetto counter tracks and the --timeline CSV; empty
  /// timelines add zero bytes to either export, so telemetry-off output is
  /// bit-identical to pre-telemetry builds.
  TimelineSeries timeline;
};

/// Microseconds with 6 fractional digits from integer picoseconds
/// ("12.000345"); pure integer formatting, deterministic across platforms.
std::string format_us(i64 ps);

/// Chrome trace-event JSON ({"traceEvents":[...]}) over all runs.
std::string to_chrome_json(const std::vector<RunTrace>& runs);

/// "run,counter,value" CSV of every run's counter snapshot.
std::string metrics_csv(const std::vector<RunTrace>& runs);

/// Long-format time-series CSV of every run's timeline:
/// "run,label,sample,time_us,metric,value", sample-major with metrics in
/// name order inside each sample — byte-deterministic (integer time
/// formatting via format_us).
std::string timeline_csv(const std::vector<RunTrace>& runs);

}  // namespace saisim::trace
