// Fault-injection determinism at the experiment and sweep level: a faulty
// config replays bit-identically run-to-run, a parallel sweep over fault
// axes matches the serial sweep exactly, and the all-knobs-zero injector
// leaves every metric byte-identical to a build that never constructs one.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "sweep/runner.hpp"

namespace saisim::sweep {
namespace {

void expect_bit_identical(const RunMetrics& a, const RunMetrics& b) {
  auto bits = [](double d) { return std::bit_cast<u64>(d); };
  EXPECT_EQ(bits(a.bandwidth_mbps), bits(b.bandwidth_mbps));
  EXPECT_EQ(bits(a.l2_miss_rate), bits(b.l2_miss_rate));
  EXPECT_EQ(bits(a.cpu_utilization), bits(b.cpu_utilization));
  EXPECT_EQ(bits(a.unhalted_cycles), bits(b.unhalted_cycles));
  EXPECT_EQ(bits(a.softirq_cycles), bits(b.softirq_cycles));
  EXPECT_EQ(bits(a.mean_read_latency_us), bits(b.mean_read_latency_us));
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.c2c_transfers, b.c2c_transfers);
  EXPECT_EQ(a.interrupts, b.interrupts);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.rx_drops, b.rx_drops);
  EXPECT_EQ(a.duplicate_strips, b.duplicate_strips);
  EXPECT_EQ(a.failed_requests, b.failed_requests);
  EXPECT_EQ(a.p99_read_latency_us, b.p99_read_latency_us);
  EXPECT_EQ(a.hinted_interrupt_share_x1e4, b.hinted_interrupt_share_x1e4);
}

/// Small cluster with the injector armed: lossy, jittery, one straggler.
ExperimentConfig faulty_config() {
  ExperimentConfig cfg;
  cfg.num_servers = 4;
  cfg.procs_per_client = 2;
  cfg.ior.transfer_size = 1ull << 20;
  cfg.ior.total_bytes = 4ull << 20;
  cfg.seed = 7;
  cfg.client.pfs.retransmit_timeout = Time::ms(50);
  cfg.fault.loss_rate = 0.02;
  cfg.fault.max_jitter = Time::us(100);
  cfg.fault.straggler_node = 0;
  cfg.fault.straggler_delay = Time::us(500);
  return cfg;
}

SweepSpec faulty_spec() {
  SweepSpec spec("faulty", faulty_config());
  spec.axis("loss", std::vector<double>{0.0, 0.02, 0.05},
            [](double l) { return std::to_string(l); },
            [](ExperimentConfig& c, double l) { c.fault.loss_rate = l; })
      .policies({PolicyKind::kIrqbalance, PolicyKind::kSourceAware});
  return spec;
}

// Same faulty config, same seed: two fresh runs are bit-identical.
TEST(FaultDeterminism, FaultyRunReplaysBitIdentically) {
  const ExperimentConfig cfg = faulty_config();
  const RunMetrics a = run_experiment(cfg);
  const RunMetrics b = run_experiment(cfg);
  expect_bit_identical(a, b);
  // The faults actually bit: the protocol had to retransmit.
  EXPECT_GT(a.retransmits, 0u);
}

// The acceptance bar: a faulty sweep at --threads N is bit-identical to
// the serial sweep, including the new fault-facing metric columns.
TEST(FaultDeterminism, FaultySweepBitIdenticalAcrossThreadCounts) {
  SweepRunner serial(RunnerOptions{.threads = 1, .progress = false});
  SweepRunner parallel(RunnerOptions{.threads = 4, .progress = false});
  const SweepResult a = serial.run(faulty_spec());
  const SweepResult b = parallel.run(faulty_spec());
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 6u);
  for (u64 i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.points[i].labels, b.points[i].labels);
    expect_bit_identical(a.metrics[i], b.metrics[i]);
  }
}

// All fault knobs at zero: the injector-aware build produces metrics
// byte-identical to the plain config (the injector is never constructed,
// so the straggler knobs left armed-but-zero must not even perturb RNG
// draws or event ordering).
TEST(FaultDeterminism, DisabledInjectorIsByteInert) {
  ExperimentConfig plain;
  plain.num_servers = 4;
  plain.procs_per_client = 2;
  plain.ior.transfer_size = 1ull << 20;
  plain.ior.total_bytes = 4ull << 20;
  plain.seed = 7;
  ExperimentConfig zeroed = plain;
  zeroed.fault = net::FaultConfig{};
  zeroed.fault.straggler_node = 2;  // armed but zero-delay: inert
  const RunMetrics a = run_experiment(plain);
  const RunMetrics b = run_experiment(zeroed);
  expect_bit_identical(a, b);
  EXPECT_EQ(a.failed_requests, 0u);
  EXPECT_EQ(a.duplicate_strips, 0u);
}

}  // namespace
}  // namespace saisim::sweep
