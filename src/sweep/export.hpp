// Machine-readable exports of sweep results.
//
// The successor to the benches' printf tables: every sweep renders to the
// existing stats::Table (aligned text for humans) and from there to CSV or
// JSON with exact round-trip numbers, with one row per grid point and a
// stable column order (axes first, then the RunMetrics columns its
// describe() declares, core/experiment.hpp).
// Multi-sweep binaries bundle their sweeps into one JSON document.
#pragma once

#include <string>
#include <vector>

#include "stats/table.hpp"
#include "sweep/runner.hpp"

namespace saisim::sweep {

/// The RunMetrics columns exported for every grid point (describe(RunMetrics)
/// order), as used by to_table / CSV / JSON after the axis columns.
std::vector<std::string> metric_column_names();

/// One row per grid point: axis labels, then the metric columns.
stats::Table to_table(const SweepResult& res);

/// RFC-4180 CSV with exact (round-trip) numbers.
std::string to_csv(const SweepResult& res);

/// One JSON object {"name":…, "columns":[…], "rows":[{…}…]}.
std::string to_json(const SweepResult& res);

/// Bundle several sweeps into one JSON document:
/// {"sweeps":[<to_json(res)>, …]}.
std::string to_json(const std::vector<const SweepResult*>& sweeps);

enum class Format { kText, kCsv, kJson };

/// Render one sweep in the requested format (text = aligned table).
std::string render(const SweepResult& res, Format format);

}  // namespace saisim::sweep
