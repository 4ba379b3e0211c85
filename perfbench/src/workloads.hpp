// The benchmark's workloads: which simulator runs make up one pass, how
// their seeds derive from the workload seed, and the checks every run's
// simulated output must pass.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"

namespace perfbench {

using saisim::ExperimentConfig;
using saisim::RunMetrics;
using saisim::u64;

enum class Workload { kStripRead, kFanin, kSmallIo };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

/// The runs of pass `pass`, in execution order. A pass has a fixed size per
/// workload, alternates irqbalance and source-aware runs, and gives every
/// pair its own cfg.seed / fault.seed derived from (seed, pass, pair), so no
/// two runs of one benchmark process share a config fingerprint.
std::vector<ExperimentConfig> make_pass(Workload w, u64 seed, u64 pass);

/// The kind of run `slot` of a pass is. Runs of one kind share their base
/// config and policy and differ only in seeds: strip_read and fanin have
/// one kind per policy, small_io one per policy and direction.
u64 run_kind(Workload w, u64 slot);

/// Names of the output checks `m` fails (empty when the run is correct):
/// "drain" (workload did not finish before cfg.max_sim_time) and "bytes"
/// (ior.bytes_read != procs * total_bytes - failed transfers * transfer).
std::vector<std::string> check_run(const ExperimentConfig& cfg,
                                   const RunMetrics& m);

/// FNV-1a over every simulated field of `m` (bit patterns for doubles).
u64 metrics_digest(const RunMetrics& m);

/// Folds `value` into an FNV-1a state.
u64 fnv_mix(u64 h, u64 value);
inline constexpr u64 kFnvOffset = 0xcbf29ce484222325ull;

/// Fig. 12's reported SAIs-over-irqbalance gain at 16 clients, percent.
inline constexpr double kPaperFaninGainPct = 16.23;

}  // namespace perfbench
