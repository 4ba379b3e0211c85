// SweepRunner: parallel execution must be invisible in the results —
// bit-identical to the serial loop — and the fingerprint cache must absorb
// repeat work.
#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep/parallel.hpp"
#include "sweep/runner.hpp"
#include "util/reflect.hpp"

namespace saisim::sweep {
namespace {

/// Assert two RunMetrics are bit-for-bit identical (doubles compared by
/// their bit patterns, not tolerances). Walks describe(RunMetrics), so a
/// field added there is checked with no edit here.
void expect_bit_identical(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(util::reflect::fingerprint_of(a), util::reflect::fingerprint_of(b));
  ASSERT_EQ(a.per_client_bandwidth_mbps.size(),
            b.per_client_bandwidth_mbps.size());
  for (u64 i = 0; i < a.per_client_bandwidth_mbps.size(); ++i) {
    EXPECT_EQ(std::bit_cast<u64>(a.per_client_bandwidth_mbps[i]),
              std::bit_cast<u64>(b.per_client_bandwidth_mbps[i]));
  }
}

/// A small but complete cluster run, cheap enough to sweep in a test.
ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.num_servers = 4;
  cfg.procs_per_client = 2;
  cfg.ior.transfer_size = 1ull << 20;
  cfg.ior.total_bytes = 4ull << 20;
  cfg.seed = 7;
  return cfg;
}

SweepSpec small_spec() {
  SweepSpec spec("small", small_config());
  spec.axis("servers", std::vector<int>{2, 4},
            [](int s) { return std::to_string(s); },
            [](ExperimentConfig& c, int s) { c.num_servers = s; })
      .policies({PolicyKind::kIrqbalance, PolicyKind::kSourceAware});
  return spec;
}

TEST(ParallelMap, PreservesSubmissionOrder) {
  ParallelOptions opts;
  opts.threads = 4;
  opts.progress = false;
  const std::vector<u64> out =
      parallel_map(100, opts, [](u64 i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (u64 i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelMap, RethrowsWorkerExceptions) {
  ParallelOptions opts;
  opts.threads = 4;
  opts.progress = false;
  EXPECT_THROW(parallel_map(8, opts,
                            [](u64 i) -> int {
                              if (i == 5) throw std::runtime_error("boom");
                              return 0;
                            }),
               std::runtime_error);
}

// The headline guarantee: an N-thread sweep is bit-identical to the
// 1-thread sweep of the same spec.
TEST(SweepRunner, ParallelRunBitIdenticalToSerialRun) {
  SweepRunner serial(RunnerOptions{.threads = 1, .progress = false});
  SweepRunner parallel(RunnerOptions{.threads = 4, .progress = false});
  const SweepResult a = serial.run(small_spec());
  const SweepResult b = parallel.run(small_spec());
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 4u);
  for (u64 i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.points[i].labels, b.points[i].labels);
    expect_bit_identical(a.metrics[i], b.metrics[i]);
  }
}

TEST(SweepRunner, FingerprintCacheAbsorbsRepeatSweeps) {
  SweepRunner runner(RunnerOptions{.threads = 2, .progress = false});
  runner.run(small_spec());
  EXPECT_EQ(runner.stats().executed, 4u);
  EXPECT_EQ(runner.stats().cache_hits, 0u);
  runner.run(small_spec());
  EXPECT_EQ(runner.stats().executed, 4u);
  EXPECT_EQ(runner.stats().cache_hits, 4u);
}

TEST(SweepRunner, RunConfigSharesTheSweepCache) {
  SweepRunner runner(RunnerOptions{.threads = 2, .progress = false});
  runner.run(small_spec());
  ExperimentConfig cfg = small_config();
  cfg.num_servers = 2;
  cfg.policy = PolicyKind::kSourceAware;
  const RunMetrics cached = runner.run_config(cfg);
  EXPECT_EQ(runner.stats().executed, 4u);
  EXPECT_EQ(runner.stats().cache_hits, 1u);
  expect_bit_identical(cached, run_experiment(cfg));
}

TEST(SweepRunner, ComparisonsCollapseThePolicyAxis) {
  SweepRunner runner(RunnerOptions{.threads = 2, .progress = false});
  const SweepResult res = runner.run(small_spec());
  const auto rows = res.comparisons();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].labels, (std::vector<std::string>{"2"}));
  EXPECT_EQ(rows[1].labels, (std::vector<std::string>{"4"}));
  // Row 1's members are exactly the grid's servers=4 runs.
  expect_bit_identical(rows[1].comparison.baseline, res.metrics[2]);
  expect_bit_identical(rows[1].comparison.sais, res.metrics[3]);
}

TEST(ComparePolicies, BitIdenticalToTwoSerialRuns) {
  ExperimentConfig cfg = small_config();
  const Comparison c = compare_policies(cfg);
  ExperimentConfig base = cfg;
  base.policy = PolicyKind::kIrqbalance;
  ExperimentConfig sais = cfg;
  sais.policy = PolicyKind::kSourceAware;
  expect_bit_identical(c.baseline, run_experiment(base));
  expect_bit_identical(c.sais, run_experiment(sais));
  const Comparison serial =
      make_comparison(run_experiment(base), run_experiment(sais));
  EXPECT_DOUBLE_EQ(c.bandwidth_speedup_pct, serial.bandwidth_speedup_pct);
  EXPECT_DOUBLE_EQ(c.miss_rate_reduction_pct, serial.miss_rate_reduction_pct);
  EXPECT_DOUBLE_EQ(c.unhalted_reduction_pct, serial.unhalted_reduction_pct);
}

}  // namespace
}  // namespace saisim::sweep
